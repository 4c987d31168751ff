//! The slab allocator (`slabs.c`): size classes, page carving, free lists,
//! and the page-level rebalancer — the third lock category of §3.1.
//!
//! The pool is one reservation of `mem_limit` bytes cut into fixed-size
//! pages; each size class claims pages from it and carves them into equal
//! chunks chained onto a free list. A page takes memory only when it is
//! carved — the kernel commits it on the first chunk-header store, as
//! memcached's `do_slabs_newslab` mallocs a page only when a class first
//! needs one. An oversized `mem_limit` therefore fails late: the
//! reservation succeeds under Linux's default overcommit, and a shortage
//! shows when a carve first touches a page the host cannot back (the OOM
//! killer), not when the cache starts; memcached instead gets `NULL` from
//! `malloc` there and answers "out of memory". The *slab rebalancer* (a maintenance thread) can move a
//! fully-free page from a rich class to a needy one; its `slab_rebalance`
//! lock is the one the paper replaced with "a boolean that was modified via
//! transactions" so other threads could `trylock`-probe it (§3.1).

use std::ops::Range;

use tm::{Abort, TBytes, TCell, Word};
use tmstd::ByteAccess;

use crate::ctx::Ctx;
use crate::item::{ItemHandle, ItemRef, ITEM_SLABBED};
use crate::policy::Policy;

/// Slab allocator geometry.
#[derive(Clone, Copy, Debug)]
pub struct SlabConfig {
    /// Total cache memory (`-m`), in bytes.
    pub mem_limit: usize,
    /// Bytes per slab page (memcached: 1 MiB; scaled default 256 KiB).
    pub page_size: usize,
    /// Smallest chunk size.
    pub chunk_min: usize,
    /// Successive chunk-size growth factor (`-f`, memcached default 1.25).
    pub growth_factor: f64,
}

impl Default for SlabConfig {
    fn default() -> Self {
        SlabConfig {
            mem_limit: 32 << 20,
            page_size: 256 << 10,
            chunk_min: 96,
            growth_factor: 1.25,
        }
    }
}

/// One size class.
#[derive(Debug)]
pub struct SlabClass {
    /// Chunk size in bytes (multiple of 8).
    pub chunk_size: usize,
    /// Chunks carved per page.
    pub chunks_per_page: usize,
    freelist_head: TCell<u64>,
    free_count: TCell<u64>,
    total_chunks: TCell<u64>,
    page_count: TCell<u64>,
    page_list: Box<[TCell<u64>]>, // page index + 1; 0 = empty slot
}

/// The arena: the page pool, classes, and rebalancer state.
pub struct SlabArena {
    cfg: SlabConfig,
    classes: Vec<SlabClass>,
    /// Every page back to back: page `p` is bytes
    /// `p * page_size .. (p + 1) * page_size`.
    pool: TBytes,
    page_class: Vec<TCell<u64>>, // class + 1; 0 = unassigned
    page_free: Vec<TCell<u64>>,  // free chunks currently in this page
    pool_next: TCell<u64>,
    /// The `volatile` slab-rebalance signal checked at section entries.
    pub rebalance_signal: TCell<u64>,
    /// The boolean that replaced the `slab_rebalance` mutex in the
    /// transactional branches (§3.1).
    pub rebalance_lock: TCell<bool>,
    /// Which class most recently failed to allocate (rebalance receiver).
    pub needy_class: TCell<u64>,
}

impl std::fmt::Debug for SlabArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlabArena")
            .field("classes", &self.classes.len())
            .field("pages", &self.page_count())
            .field("page_size", &self.cfg.page_size)
            .finish()
    }
}

impl SlabArena {
    /// Builds the arena: computes size classes and reserves the page pool,
    /// which commits no memory until pages are carved.
    ///
    /// # Panics
    ///
    /// Panics on degenerate geometry (zero pages, growth factor ≤ 1, or
    /// more than 255 classes).
    pub fn new(cfg: SlabConfig) -> Self {
        assert!(cfg.growth_factor > 1.0, "growth factor must exceed 1");
        assert!(cfg.page_size.is_multiple_of(8) && cfg.chunk_min >= 96);
        let page_count = cfg.mem_limit / cfg.page_size;
        assert!(page_count > 0, "mem_limit smaller than one page");
        assert!(page_count <= u32::MAX as usize);

        let mut sizes = Vec::new();
        let mut sz = cfg.chunk_min;
        while sz < cfg.page_size {
            sizes.push(sz.div_ceil(8) * 8);
            let next = ((sz as f64) * cfg.growth_factor) as usize;
            sz = next.max(sz + 8);
        }
        sizes.push(cfg.page_size);
        assert!(sizes.len() <= 255, "too many slab classes");

        let classes = sizes
            .iter()
            .map(|&chunk_size| {
                let cpp = (cfg.page_size / chunk_size).min(u16::MAX as usize);
                SlabClass {
                    chunk_size,
                    chunks_per_page: cpp,
                    freelist_head: TCell::new(0),
                    free_count: TCell::new(0),
                    total_chunks: TCell::new(0),
                    page_count: TCell::new(0),
                    page_list: (0..page_count).map(|_| TCell::new(0u64)).collect(),
                }
            })
            .collect();

        SlabArena {
            classes,
            pool: TBytes::zeroed(page_count * cfg.page_size),
            page_class: (0..page_count).map(|_| TCell::new(0u64)).collect(),
            page_free: (0..page_count).map(|_| TCell::new(0u64)).collect(),
            pool_next: TCell::new(0),
            rebalance_signal: TCell::new(0),
            rebalance_lock: TCell::new(false),
            needy_class: TCell::new(0),
            cfg,
        }
    }

    /// Number of size classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Number of pages in the pool.
    pub fn page_count(&self) -> usize {
        self.page_class.len()
    }

    /// Bytes of the pool claimed by size classes so far — memcached's
    /// `total_malloced`. Only claimed pages are ever written, so this
    /// bounds what the pool has committed.
    pub(crate) fn malloced_bytes(&self) -> u64 {
        self.pool_next.load_direct() * self.cfg.page_size as u64
    }

    /// Class metadata.
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn class(&self, c: u8) -> &SlabClass {
        &self.classes[c as usize]
    }

    /// The smallest class whose chunks fit `ntotal` bytes
    /// (`slabs_clsid`). `None` if the object exceeds the largest chunk.
    pub fn class_for(&self, ntotal: usize) -> Option<u8> {
        self.classes
            .iter()
            .position(|cl| cl.chunk_size >= ntotal)
            .map(|i| i as u8)
    }

    /// Resolves a handle to its storage.
    ///
    /// # Panics
    ///
    /// Panics if the handle's coordinates are out of range.
    pub fn resolve(&self, h: ItemHandle) -> ItemRef<'_> {
        let cl = &self.classes[h.class as usize];
        let in_page = h.chunk as usize * cl.chunk_size;
        assert!(in_page + cl.chunk_size <= self.cfg.page_size);
        assert!((h.page as usize) < self.page_count());
        let byte0 = h.page as usize * self.cfg.page_size + in_page;
        ItemRef::new(&self.pool, byte0, cl.chunk_size, h)
    }

    /// Free chunks currently available in class `c`.
    pub fn free_chunks<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, c: u8) -> Result<u64, Abort> {
        ctx.get_word(self.classes[c as usize].free_count.word())
    }

    /// Pops a free chunk for class `c`, claiming and carving a fresh pool
    /// page if the free list is empty. `None` means the pool is exhausted
    /// (the caller evicts).
    ///
    /// Must run under the slabs lock / inside a slabs transaction.
    pub fn alloc_from<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        c: u8,
    ) -> Result<Option<ItemHandle>, Abort> {
        let cl = &self.classes[c as usize];
        loop {
            let head = ctx.get_word(cl.freelist_head.word())?;
            if head != 0 {
                let h = ItemHandle::from_word(head);
                let it = self.resolve(h);
                let next = it.hnext(ctx)?;
                ctx.put_word(
                    cl.freelist_head.word(),
                    crate::item::encode_opt(next),
                )?;
                let fc = ctx.get_word(cl.free_count.word())?;
                ctx.assert_that(policy, fc > 0, "slab free_count underflow")?;
                ctx.put_word(cl.free_count.word(), fc - 1)?;
                let pf = ctx.get_word(self.page_free[h.page as usize].word())?;
                ctx.put_word(self.page_free[h.page as usize].word(), pf - 1)?;
                it.update_flags(ctx, 0, ITEM_SLABBED)?;
                it.set_hnext(ctx, None)?;
                return Ok(Some(h));
            }
            // Free list dry: claim a pool page.
            if !self.claim_page(ctx, c, 0..cl.chunks_per_page as u16)? {
                return Ok(None);
            }
        }
    }

    /// Claims the next pool page for class `c` and carves the chunks
    /// `free` of it onto the class's free list (every chunk, except where
    /// start-up recovery has already filled the others with items).
    /// Returns `false` when the pool is exhausted.
    pub(crate) fn claim_page<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        c: u8,
        free: Range<u16>,
    ) -> Result<bool, Abort> {
        let pn = ctx.get_word(self.pool_next.word())?;
        if pn as usize >= self.page_count() {
            return Ok(false);
        }
        ctx.put_word(self.pool_next.word(), pn + 1)?;
        self.assign_page(ctx, c, pn as u32, free)?;
        Ok(true)
    }

    /// Assigns pool page `p` to class `c` and carves the chunks `free` of
    /// it onto the free list.
    fn assign_page<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        c: u8,
        p: u32,
        free: Range<u16>,
    ) -> Result<(), Abort> {
        let cl = &self.classes[c as usize];
        ctx.put_word(self.page_class[p as usize].word(), c as u64 + 1)?;
        let pc = ctx.get_word(cl.page_count.word())?;
        ctx.put_word(cl.page_list[pc as usize].word(), p as u64 + 1)?;
        ctx.put_word(cl.page_count.word(), pc + 1)?;
        self.carve(ctx, c, p, free)
    }

    /// Adds page `p`'s chunks to class `c` and chains the chunks `free` of
    /// it onto the free list, so the highest of them is handed out first;
    /// the others are in use.
    fn carve<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        c: u8,
        p: u32,
        free: Range<u16>,
    ) -> Result<(), Abort> {
        let cl = &self.classes[c as usize];
        let nfree = free.len() as u64;
        let mut head = crate::item::decode_opt(ctx.get_word(cl.freelist_head.word())?);
        for chunk in free {
            let h = ItemHandle { class: c, page: p, chunk };
            let it = self.resolve(h);
            it.set_hnext(ctx, head)?;
            it.set_flags(ctx, ITEM_SLABBED | ((c as u64) << 8))?;
            it.set_refcount(ctx, 0)?;
            head = Some(h);
        }
        ctx.put_word(
            cl.freelist_head.word(),
            crate::item::encode_opt(head),
        )?;
        let fc = ctx.get_word(cl.free_count.word())?;
        ctx.put_word(cl.free_count.word(), fc + nfree)?;
        let tc = ctx.get_word(cl.total_chunks.word())?;
        ctx.put_word(cl.total_chunks.word(), tc + cl.chunks_per_page as u64)?;
        ctx.put_word(self.page_free[p as usize].word(), nfree)?;
        Ok(())
    }

    /// Returns a chunk to its class's free list (`slabs_free`).
    pub fn free<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, h: ItemHandle) -> Result<(), Abort> {
        let cl = &self.classes[h.class as usize];
        let it = self.resolve(h);
        let head = crate::item::decode_opt(ctx.get_word(cl.freelist_head.word())?);
        it.set_hnext(ctx, head)?;
        it.set_flags(ctx, ITEM_SLABBED | ((h.class as u64) << 8))?;
        it.set_refcount(ctx, 0)?;
        ctx.put_word(cl.freelist_head.word(), h.to_word())?;
        let fc = ctx.get_word(cl.free_count.word())?;
        ctx.put_word(cl.free_count.word(), fc + 1)?;
        let pf = ctx.get_word(self.page_free[h.page as usize].word())?;
        ctx.put_word(self.page_free[h.page as usize].word(), pf + 1)?;
        Ok(())
    }

    /// One slab-rebalance round: move a fully-free page from `donor` to
    /// `receiver`, filtering the donor's free list. Returns `true` if a
    /// page moved. Must run under the slabs lock / inside a transaction.
    pub fn rebalance_step<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        donor: u8,
        receiver: u8,
    ) -> Result<bool, Abort> {
        if donor == receiver {
            return Ok(false);
        }
        let dcl = &self.classes[donor as usize];
        let cpp = dcl.chunks_per_page as u64;
        let pc = ctx.get_word(dcl.page_count.word())?;
        // Find a fully-free page.
        let mut slot = None;
        for i in 0..pc as usize {
            let pw = ctx.get_word(dcl.page_list[i].word())?;
            if pw == 0 {
                continue;
            }
            let p = (pw - 1) as usize;
            if ctx.get_word(self.page_free[p].word())? == cpp {
                slot = Some((i, p as u32));
                break;
            }
        }
        let Some((slot, p)) = slot else {
            return Ok(false);
        };
        // Unchain the page's chunks from the donor free list.
        let mut prev: Option<ItemHandle> = None;
        let mut cur = crate::item::decode_opt(ctx.get_word(dcl.freelist_head.word())?);
        let mut removed = 0u64;
        let mut steps = 0usize;
        while let Some(h) = cur {
            steps += 1;
            ctx.assert_that(policy, steps <= 1_000_000, "freelist cycle detected")?;
            let it = self.resolve(h);
            let next = it.hnext(ctx)?;
            if h.page == p {
                match prev {
                    None => ctx.put_word(
                        dcl.freelist_head.word(),
                        crate::item::encode_opt(next),
                    )?,
                    Some(ph) => self.resolve(ph).set_hnext(ctx, next)?,
                }
                removed += 1;
            } else {
                prev = Some(h);
            }
            cur = next;
        }
        ctx.assert_that(policy, removed == cpp, "rebalanced page was not fully free")?;
        let fc = ctx.get_word(dcl.free_count.word())?;
        ctx.put_word(dcl.free_count.word(), fc - removed)?;
        let tc = ctx.get_word(dcl.total_chunks.word())?;
        ctx.put_word(dcl.total_chunks.word(), tc - removed)?;
        // Drop the page from the donor's page list (swap with last).
        let last = ctx.get_word(dcl.page_list[pc as usize - 1].word())?;
        ctx.put_word(dcl.page_list[slot].word(), last)?;
        ctx.put_word(dcl.page_list[pc as usize - 1].word(), 0)?;
        ctx.put_word(dcl.page_count.word(), pc - 1)?;
        // Hand it to the receiver.
        let rcl = &self.classes[receiver as usize];
        self.assign_page(ctx, receiver, p, 0..rcl.chunks_per_page as u16)?;
        Ok(true)
    }

    /// The donor class for a rebalance: the one with the most free chunks
    /// (at least one full page's worth).
    pub fn pick_donor<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<Option<u8>, Abort> {
        let mut best: Option<(u8, u64)> = None;
        for (i, cl) in self.classes.iter().enumerate() {
            let free = ctx.get_word(cl.free_count.word())?;
            if free >= cl.chunks_per_page as u64
                && best.is_none_or(|(_, bf)| free > bf)
            {
                best = Some((i as u8, free));
            }
        }
        Ok(best.map(|(c, _)| c))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The arena's state, one line per fact: claimed pages, each page's
    /// class and free count, each class's pages, counts and free list in
    /// order, and the rebalance signal.
    pub(crate) fn fingerprint(arena: &SlabArena) -> Vec<String> {
        let mut out = vec![format!("pool_next {}", arena.pool_next.load_direct())];
        for (p, (class, free)) in arena.page_class.iter().zip(&arena.page_free).enumerate() {
            let (class, free) = (class.load_direct(), free.load_direct());
            out.push(format!("page {p}: class+1 {class} free {free}"));
        }
        for (c, cl) in arena.classes.iter().enumerate() {
            let pages: Vec<u64> = cl.page_list.iter().map(|p| p.load_direct()).collect();
            out.push(format!(
                "class {c}: pages {} {pages:?} free {} total {}",
                cl.page_count.load_direct(),
                cl.free_count.load_direct(),
                cl.total_chunks.load_direct()
            ));
            let mut cur = crate::item::decode_opt(cl.freelist_head.load_direct());
            while let Some(h) = cur {
                let it = arena.resolve(h);
                let (ctx, policy) = (&mut Ctx::Direct, crate::Branch::Baseline.policy());
                let (flags, rc) = (it.flags(ctx).unwrap(), it.refcount(ctx, &policy).unwrap());
                out.push(format!("  free {h:?} flags {flags:#x} refcount {rc}"));
                cur = it.hnext(ctx).unwrap();
            }
        }
        out.push(format!(
            "needy_class {} rebalance_signal {}",
            arena.needy_class.load_direct(),
            arena.rebalance_signal.load_direct()
        ));
        out
    }

    use crate::policy::Branch;

    fn small_arena() -> SlabArena {
        SlabArena::new(SlabConfig {
            mem_limit: 64 << 10,
            page_size: 8 << 10,
            chunk_min: 96,
            growth_factor: 2.0,
            ..Default::default()
        })
    }

    #[test]
    fn geometry() {
        let a = small_arena();
        assert_eq!(a.page_count(), 8);
        assert!(a.class_count() >= 4);
        // Classes strictly increase and are 8-aligned.
        for w in 0..a.class_count() - 1 {
            assert!(a.class(w as u8).chunk_size < a.class(w as u8 + 1).chunk_size);
            assert_eq!(a.class(w as u8).chunk_size % 8, 0);
        }
    }

    #[test]
    fn class_for_sizes() {
        let a = small_arena();
        assert_eq!(a.class_for(50), Some(0));
        assert_eq!(a.class_for(97), Some(1));
        assert_eq!(a.class_for(a.cfg.page_size), Some(a.class_count() as u8 - 1));
        assert_eq!(a.class_for(a.cfg.page_size + 1), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside its chunk")]
    fn an_item_overrunning_the_last_chunk_of_a_page_panics() {
        // 128-byte chunks tile an 8 KiB page exactly, so the byte past
        // page 0's last chunk is the first byte of page 1.
        let a = SlabArena::new(SlabConfig {
            mem_limit: 64 << 10,
            page_size: 8 << 10,
            chunk_min: 128,
            growth_factor: 2.0,
        });
        let cl = a.class(0);
        assert_eq!(cl.chunks_per_page * cl.chunk_size, a.cfg.page_size);
        let it = a.resolve(ItemHandle {
            class: 0,
            page: 0,
            chunk: cl.chunks_per_page as u16 - 1,
        });
        let sizes = crate::item::ItemSizes {
            nkey: 1,
            nsuffix: 0,
            nbytes: (cl.chunk_size - crate::item::HDR_BYTES) as u32,
        };
        assert_eq!(sizes.total(), cl.chunk_size + 1);
        let value = vec![b'x'; sizes.nbytes as usize];
        let _ = it.write_value(&mut Ctx::Direct, &Branch::Baseline.policy(), sizes, &value);
    }

    #[test]
    fn alloc_and_free_roundtrip() {
        let a = small_arena();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let h = a.alloc_from(&mut ctx, &p, 0).unwrap().expect("first alloc");
        let free_after = a.free_chunks(&mut ctx, 0).unwrap();
        assert_eq!(free_after, a.class(0).chunks_per_page as u64 - 1);
        a.free(&mut ctx, h).unwrap();
        assert_eq!(
            a.free_chunks(&mut ctx, 0).unwrap(),
            a.class(0).chunks_per_page as u64
        );
        // Chunk comes back SLABBED.
        let it = a.resolve(h);
        assert_ne!(it.flags(&mut ctx).unwrap() & ITEM_SLABBED, 0);
    }

    #[test]
    fn exhaustion_returns_none() {
        let a = small_arena();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        // Last class takes a whole page per chunk: 8 pages then dry.
        let big = a.class_count() as u8 - 1;
        let mut got = 0;
        while a.alloc_from(&mut ctx, &p, big).unwrap().is_some() {
            got += 1;
        }
        assert_eq!(got, 8);
        assert!(a.alloc_from(&mut ctx, &p, 0).unwrap().is_none(), "pool shared");
    }

    #[test]
    fn handles_are_distinct_and_resolvable() {
        let a = small_arena();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let h = a.alloc_from(&mut ctx, &p, 0).unwrap().unwrap();
            assert!(seen.insert(h.to_word()), "duplicate chunk handed out");
            let it = a.resolve(h);
            it.set_cas(&mut ctx, h.to_word()).unwrap();
        }
    }

    #[test]
    fn rebalance_moves_a_free_page() {
        let a = small_arena();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        // Give class 0 one page by allocating once, then free it back.
        let h = a.alloc_from(&mut ctx, &p, 0).unwrap().unwrap();
        a.free(&mut ctx, h).unwrap();
        let donor_free = a.free_chunks(&mut ctx, 0).unwrap();
        assert_eq!(donor_free, a.class(0).chunks_per_page as u64);
        let moved = a.rebalance_step(&mut ctx, &p, 0, 2).unwrap();
        assert!(moved);
        assert_eq!(a.free_chunks(&mut ctx, 0).unwrap(), 0);
        assert_eq!(
            a.free_chunks(&mut ctx, 2).unwrap(),
            a.class(2).chunks_per_page as u64
        );
        // And the receiver can allocate from the moved page.
        assert!(a.alloc_from(&mut ctx, &p, 2).unwrap().is_some());
    }

    #[test]
    fn rebalance_skips_partial_pages() {
        let a = small_arena();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let _held = a.alloc_from(&mut ctx, &p, 0).unwrap().unwrap();
        // Page is not fully free: no move.
        assert!(!a.rebalance_step(&mut ctx, &p, 0, 2).unwrap());
    }

    #[test]
    fn pick_donor_prefers_most_free() {
        let a = small_arena();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        assert_eq!(a.pick_donor(&mut ctx).unwrap(), None);
        let h = a.alloc_from(&mut ctx, &p, 1).unwrap().unwrap();
        a.free(&mut ctx, h).unwrap();
        assert_eq!(a.pick_donor(&mut ctx).unwrap(), Some(1));
    }
}
