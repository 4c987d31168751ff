//! The hash table (`assoc.c`): chained buckets with incremental expansion
//! driven by a maintenance thread — the `cache_lock` category of §3.1 and
//! one of the two condition-synchronization patterns of §3.2.
//!
//! memcached keeps a primary table and, while `expanding` (a `volatile`
//! flag — a paper serialization site), the previous table; lookups route by
//! comparing the item's old bucket against `expand_bucket`, the migration
//! frontier. Because transactional cells must have stable addresses, every
//! generation's bucket array is preallocated at construction and the table
//! "grows" by advancing the active generation. The generation, the flag and
//! the frontier share one word (`Route`), so a reader that holds only its
//! item stripe sees an expansion's flip whole.

use std::ops::Range;

use tm::{Abort, TCell, Word};
use tmstd::ByteAccess;

use crate::ctx::Ctx;
use crate::item::{decode_opt, encode_opt, ItemHandle};
use crate::policy::Policy;
use crate::slabs::SlabArena;

/// The chained hash table.
pub struct AssocTable {
    generations: Vec<Box<[TCell<u64>]>>,
    start_power: u32,
    /// The packed [`Route`]; `volatile` like memcached's `expanding` and
    /// `expand_bucket` (a serialization site pre-Max).
    route: TCell<u64>,
    hash_items: TCell<u64>,
}

/// Where keys live right now, in one word: the active generation (bits
/// 40..), whether the previous one is still being migrated (bit 32), and
/// the migration frontier — old buckets below it have moved (bits 0..32).
#[derive(Clone, Copy)]
struct Route(u64);

impl Route {
    fn new(gen: usize, expanding: bool, frontier: usize) -> Route {
        Route((gen as u64) << 40 | (expanding as u64) << 32 | frontier as u64)
    }

    fn gen(self) -> usize {
        (self.0 >> 40) as usize
    }

    fn expanding(self) -> bool {
        self.0 & 1 << 32 != 0
    }

    fn frontier(self) -> usize {
        self.0 as u32 as usize
    }
}

impl std::fmt::Debug for AssocTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AssocTable")
            .field("start_power", &self.start_power)
            .field("max_power", &(self.start_power + self.generations.len() as u32 - 1))
            .finish()
    }
}

impl AssocTable {
    /// Creates a table with `2^start_power` buckets, expandable up to
    /// `2^max_power`.
    ///
    /// # Panics
    ///
    /// Panics unless `4 <= start_power <= max_power <= 24`.
    pub fn new(start_power: u32, max_power: u32) -> Self {
        assert!((4..=24).contains(&start_power) && start_power <= max_power && max_power <= 24);
        let generations = (start_power..=max_power)
            .map(|p| (0..1usize << p).map(|_| TCell::new(0u64)).collect())
            .collect();
        AssocTable {
            generations,
            start_power,
            route: TCell::new(0),
            hash_items: TCell::new(0),
        }
    }

    fn mask(&self, gen: usize) -> u32 {
        (1u32 << (self.start_power + gen as u32)) - 1
    }

    /// Total buckets in the active generation (diagnostic).
    pub fn bucket_count<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<usize, Abort> {
        let g = Route(ctx.get_word(self.route.word())?).gen();
        Ok(self.generations[g].len())
    }

    /// Reads the `volatile` route word.
    fn route<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, policy: &Policy) -> Result<Route, Abort> {
        ctx.volatile_read(policy, self.route.word()).map(Route)
    }

    /// Items currently linked.
    pub fn item_count<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<u64, Abort> {
        ctx.get_word(self.hash_items.word())
    }

    /// Whether an expansion is in progress. Reads the `volatile` flag, so
    /// this is a serialization site before the Max stage.
    pub fn is_expanding<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
    ) -> Result<bool, Abort> {
        Ok(self.route(ctx, policy)?.expanding())
    }

    /// The bucket cell a key with hash `hv` lives in right now, honoring
    /// the expansion frontier (memcached's `assoc_find` routing).
    fn bucket_cell<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        hv: u32,
    ) -> Result<&'e TCell<u64>, Abort> {
        let r = self.route(ctx, policy)?;
        let g = r.gen();
        if r.expanding() {
            let old = g - 1;
            let ob = (hv & self.mask(old)) as usize;
            if ob >= r.frontier() {
                return Ok(&self.generations[old][ob]);
            }
        }
        Ok(&self.generations[g][(hv & self.mask(g)) as usize])
    }

    /// Finds the linked item with this key (`assoc_find` + key compare).
    /// The per-item comparison is libc `memcmp` until the Lib stage.
    pub fn find<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        arena: &'e SlabArena,
        key: &[u8],
        hv: u32,
    ) -> Result<Option<ItemHandle>, Abort> {
        let cell = self.bucket_cell(ctx, policy, hv)?;
        let mut cur = decode_opt(ctx.get_word(cell.word())?);
        let mut depth = 0;
        while let Some(h) = cur {
            depth += 1;
            ctx.assert_that(policy, depth <= 100_000, "hash chain cycle")?;
            let it = arena.resolve(h);
            let sizes = it.sizes(ctx)?;
            if it.key_eq(ctx, policy, key, sizes.nkey)? {
                return Ok(Some(h));
            }
            cur = it.hnext(ctx)?;
        }
        Ok(None)
    }

    /// Links an item into its bucket (`assoc_insert`). Returns `true` when
    /// the load factor says an expansion should start — the caller decides
    /// whether to begin one and signal the maintenance thread.
    pub fn insert<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        arena: &'e SlabArena,
        h: ItemHandle,
        hv: u32,
    ) -> Result<bool, Abort> {
        let cell = self.bucket_cell(ctx, policy, hv)?;
        Self::link(ctx, arena, cell, h)?;
        let n = ctx.get_word(self.hash_items.word())? + 1;
        ctx.put_word(self.hash_items.word(), n)?;
        let g = Route(ctx.get_word(self.route.word())?).gen();
        // memcached's mx_needed() check runs on every insert; once the
        // table is saturated (or mid-expansion) every set keeps asking for
        // the maintainer — the per-set sem_post site of §3.5.
        let wants_expansion = n > (self.generations[g].len() as u64 * 3) / 2
            && !self.is_expanding(ctx, policy)?;
        Ok(wants_expansion)
    }

    /// Pushes `h` onto the chain in `cell`: `assoc_insert`'s link step.
    fn link<'e>(
        ctx: &mut Ctx<'_, 'e>,
        arena: &'e SlabArena,
        cell: &'e TCell<u64>,
        h: ItemHandle,
    ) -> Result<(), Abort> {
        let head = decode_opt(ctx.get_word(cell.word())?);
        arena.resolve(h).set_hnext(ctx, head)?;
        ctx.put_word(cell.word(), h.to_word())
    }

    /// Start-up recovery's link pass, one share of it: links each
    /// `(item, hash)` of `items`, in order, whose bucket of the active
    /// generation is one of the `share`-th of `shares` equal bucket
    /// ranges. Concurrent calls with different shares touch disjoint
    /// buckets and chains. Counts nothing and checks no load factor: the
    /// loader presized the table ([`AssocTable::presize`]) and counts
    /// what it linked once ([`AssocTable::count_loaded`]).
    pub(crate) fn link_share<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        arena: &'e SlabArena,
        share: usize,
        shares: usize,
        items: impl Iterator<Item = (ItemHandle, u32)>,
    ) -> Result<(), Abort> {
        let r = Route(ctx.get_word(self.route.word())?);
        debug_assert!(!r.expanding(), "a load links into a settled table");
        let (buckets, mask) = (&self.generations[r.gen()], self.mask(r.gen()));
        let part = |b: usize| b * shares / buckets.len();
        for (h, hv) in items {
            let b = (hv & mask) as usize;
            if part(b) == share {
                Self::link(ctx, arena, &buckets[b], h)?;
            }
        }
        Ok(())
    }

    /// Counts `n` items linked by [`AssocTable::link_share`].
    pub(crate) fn count_loaded<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, n: u64) -> Result<(), Abort> {
        let cur = ctx.get_word(self.hash_items.word())?;
        ctx.put_word(self.hash_items.word(), cur + n)
    }

    /// Unlinks an item from its bucket (`assoc_delete`). Returns `true` if
    /// it was found.
    pub fn remove<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        arena: &'e SlabArena,
        h: ItemHandle,
        hv: u32,
    ) -> Result<bool, Abort> {
        let cell = self.bucket_cell(ctx, policy, hv)?;
        let mut prev: Option<ItemHandle> = None;
        let mut cur = decode_opt(ctx.get_word(cell.word())?);
        let mut depth = 0;
        while let Some(c) = cur {
            depth += 1;
            ctx.assert_that(policy, depth <= 100_000, "hash chain cycle")?;
            let it = arena.resolve(c);
            let next = it.hnext(ctx)?;
            if c == h {
                match prev {
                    None => ctx.put_word(cell.word(), encode_opt(next))?,
                    Some(p) => arena.resolve(p).set_hnext(ctx, next)?,
                }
                it.set_hnext(ctx, None)?;
                let n = ctx.get_word(self.hash_items.word())?;
                ctx.assert_that(policy, n > 0, "hash_items underflow")?;
                ctx.put_word(self.hash_items.word(), n - 1)?;
                return Ok(true);
            }
            prev = Some(c);
            cur = next;
        }
        Ok(false)
    }

    /// Sizes a still-empty table for `items` entries: advances it to the
    /// first generation that holds them below the expansion load factor
    /// (or the last one there is). Every generation's bucket array already
    /// exists, so this is a store to `gen` — start-up recovery calls it
    /// before the first insert instead of growing through every power.
    ///
    /// # Panics
    ///
    /// Panics if the table holds items or is expanding: moving `gen` under
    /// linked items would lose them.
    pub fn presize<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, items: u64) -> Result<(), Abort> {
        let r = Route(ctx.get_word(self.route.word())?);
        assert!(
            ctx.get_word(self.hash_items.word())? == 0 && !r.expanding(),
            "presize on a table in use"
        );
        let last = self.generations.len() - 1;
        let fits = self.generations.iter().position(|b| items <= b.len() as u64 * 3 / 2);
        let g = fits.unwrap_or(last);
        ctx.put_word(self.route.word(), Route::new(r.gen().max(g), false, 0).0)
    }

    /// Begins an expansion (`assoc_expand`): advances the generation,
    /// raises the `expanding` flag and resets the frontier, in one store.
    /// The maintenance thread then migrates. Returns `false` if the table
    /// is already at maximum size or already expanding.
    pub fn start_expansion<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
    ) -> Result<bool, Abort> {
        let r = self.route(ctx, policy)?;
        if r.expanding() || r.gen() + 1 >= self.generations.len() {
            return Ok(false);
        }
        ctx.volatile_write(policy, self.route.word(), Route::new(r.gen() + 1, true, 0).0)?;
        Ok(true)
    }

    /// The old buckets the next [`AssocTable::migrate_step`] of `batch`
    /// empties, or an empty range when no expansion runs. A peek outside
    /// any section: only the migrator moves a running expansion's
    /// frontier, so its next section starts where the peek saw it (or, had
    /// the peek caught an uncommitted flip, finds nothing to migrate).
    pub fn next_batch(&self, batch: usize) -> Range<usize> {
        let r = Route(self.route.load_direct());
        if !r.expanding() {
            return 0..0;
        }
        let old_len = self.generations[r.gen() - 1].len();
        r.frontier()..(r.frontier() + batch).min(old_len)
    }

    /// Migrates up to `batch` old buckets into the new generation
    /// (`assoc_maintenance_thread`'s inner loop) and publishes the new
    /// frontier. Returns `true` when the expansion completed in this call.
    pub fn migrate_step<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        arena: &'e SlabArena,
        batch: usize,
    ) -> Result<bool, Abort> {
        let r = self.route(ctx, policy)?;
        if !r.expanding() {
            return Ok(false);
        }
        let g = r.gen();
        let old_len = self.generations[g - 1].len();
        let mut frontier = r.frontier();
        for _ in 0..batch {
            if frontier >= old_len {
                break;
            }
            let cell = &self.generations[g - 1][frontier];
            let mut cur = decode_opt(ctx.get_word(cell.word())?);
            while let Some(h) = cur {
                let it = arena.resolve(h);
                let next = it.hnext(ctx)?;
                let sizes = it.sizes(ctx)?;
                // Re-hash from the stored key (libc strlen/memcmp-adjacent
                // work in real memcached; reading the key is instrumented).
                let key = it.read_key(ctx, sizes.nkey)?;
                let hv = crate::hashes::jenkins_hash(&key, 0);
                let nb = (hv & self.mask(g)) as usize;
                let ncell = &self.generations[g][nb];
                let nhead = decode_opt(ctx.get_word(ncell.word())?);
                it.set_hnext(ctx, nhead)?;
                ctx.put_word(ncell.word(), h.to_word())?;
                cur = next;
            }
            ctx.put_word(cell.word(), 0)?;
            frontier += 1;
        }
        let done = frontier >= old_len;
        ctx.volatile_write(policy, self.route.word(), Route::new(g, !done, frontier).0)?;
        Ok(done)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The table's state, one line per fact: the route word, the item
    /// count, and every non-empty bucket's chain, head first.
    pub(crate) fn fingerprint(table: &AssocTable, arena: &SlabArena) -> Vec<String> {
        let r = Route(table.route.load_direct());
        let items = table.hash_items.load_direct();
        let mut out = vec![format!("route {:#x} hash_items {items}", r.0)];
        for (b, cell) in table.generations[r.gen()].iter().enumerate() {
            let mut chain = Vec::new();
            let mut cur = decode_opt(cell.load_direct());
            while let Some(h) = cur {
                chain.push(h);
                cur = arena.resolve(h).hnext(&mut Ctx::Direct).unwrap();
            }
            if !chain.is_empty() {
                out.push(format!("bucket {b}: {chain:?}"));
            }
        }
        out
    }

    use crate::item::ItemSizes;
    use crate::policy::Branch;
    use crate::slabs::{SlabArena, SlabConfig};

    fn setup() -> (SlabArena, AssocTable) {
        let arena = SlabArena::new(SlabConfig {
            mem_limit: 256 << 10,
            page_size: 16 << 10,
            chunk_min: 96,
            growth_factor: 2.0,
        });
        (arena, AssocTable::new(4, 8))
    }

    fn put_item(arena: &SlabArena, key: &[u8]) -> (ItemHandle, u32) {
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let h = arena.alloc_from(&mut ctx, &p, 0).unwrap().unwrap();
        let it = arena.resolve(h);
        it.set_sizes(
            &mut ctx,
            ItemSizes {
                nkey: key.len() as u8,
                nsuffix: 0,
                nbytes: 0,
            },
        )
        .unwrap();
        it.write_key(&mut ctx, key).unwrap();
        (h, crate::hashes::jenkins_hash(key, 0))
    }

    #[test]
    fn insert_find_remove() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let (h, hv) = put_item(&arena, b"alpha");
        t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
        assert_eq!(t.find(&mut ctx, &p, &arena, b"alpha", hv).unwrap(), Some(h));
        assert_eq!(t.find(&mut ctx, &p, &arena, b"beta", hv).unwrap(), None);
        assert!(t.remove(&mut ctx, &p, &arena, h, hv).unwrap());
        assert_eq!(t.find(&mut ctx, &p, &arena, b"alpha", hv).unwrap(), None);
        assert!(!t.remove(&mut ctx, &p, &arena, h, hv).unwrap());
        assert_eq!(t.item_count(&mut ctx).unwrap(), 0);
    }

    #[test]
    fn chains_handle_collisions() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        // Force same bucket by using the same hv for distinct keys.
        let (h1, _) = put_item(&arena, b"key-one");
        let (h2, _) = put_item(&arena, b"key-two");
        let hv = 0x42;
        t.insert(&mut ctx, &p, &arena, h1, hv).unwrap();
        t.insert(&mut ctx, &p, &arena, h2, hv).unwrap();
        assert_eq!(t.find(&mut ctx, &p, &arena, b"key-one", hv).unwrap(), Some(h1));
        assert_eq!(t.find(&mut ctx, &p, &arena, b"key-two", hv).unwrap(), Some(h2));
        assert!(t.remove(&mut ctx, &p, &arena, h1, hv).unwrap());
        assert_eq!(t.find(&mut ctx, &p, &arena, b"key-two", hv).unwrap(), Some(h2));
    }

    #[test]
    fn expansion_migrates_and_finds() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let mut items = Vec::new();
        let mut wanted = false;
        for i in 0..40 {
            let key = format!("exp-key-{i}");
            let (h, hv) = put_item(&arena, key.as_bytes());
            wanted |= t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
            items.push((key, h, hv));
        }
        assert!(wanted, "40 items in 16 buckets must request expansion");
        assert!(t.start_expansion(&mut ctx, &p).unwrap());
        assert!(t.is_expanding(&mut ctx, &p).unwrap());
        // Everything findable mid-expansion.
        for (key, h, hv) in &items {
            assert_eq!(
                t.find(&mut ctx, &p, &arena, key.as_bytes(), *hv).unwrap(),
                Some(*h),
                "lost {key} mid-expansion"
            );
        }
        // Migrate in small steps.
        let mut done = false;
        for _ in 0..100 {
            if t.migrate_step(&mut ctx, &p, &arena, 2).unwrap() {
                done = true;
                break;
            }
        }
        assert!(done, "expansion never completed");
        assert!(!t.is_expanding(&mut ctx, &p).unwrap());
        assert_eq!(t.bucket_count(&mut ctx).unwrap(), 32);
        for (key, h, hv) in &items {
            assert_eq!(
                t.find(&mut ctx, &p, &arena, key.as_bytes(), *hv).unwrap(),
                Some(*h),
                "lost {key} after expansion"
            );
        }
    }

    #[test]
    fn insert_routes_to_old_generation_behind_frontier() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        t.start_expansion(&mut ctx, &p).unwrap();
        let (h, hv) = put_item(&arena, b"mid-expansion");
        t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
        assert_eq!(
            t.find(&mut ctx, &p, &arena, b"mid-expansion", hv).unwrap(),
            Some(h)
        );
        // Finish migration; still findable.
        while !t.migrate_step(&mut ctx, &p, &arena, 8).unwrap() {}
        assert_eq!(
            t.find(&mut ctx, &p, &arena, b"mid-expansion", hv).unwrap(),
            Some(h)
        );
    }

    #[test]
    fn remove_works_mid_expansion() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let mut items = Vec::new();
        for i in 0..30 {
            let key = format!("rm-{i}");
            let (h, hv) = put_item(&arena, key.as_bytes());
            t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
            items.push((key, h, hv));
        }
        t.start_expansion(&mut ctx, &p).unwrap();
        // Migrate half, then remove items on both sides of the frontier.
        t.migrate_step(&mut ctx, &p, &arena, 8).unwrap();
        for (key, h, hv) in &items {
            assert!(
                t.remove(&mut ctx, &p, &arena, *h, *hv).unwrap(),
                "failed to remove {key} mid-expansion"
            );
            assert_eq!(t.find(&mut ctx, &p, &arena, key.as_bytes(), *hv).unwrap(), None);
        }
        assert_eq!(t.item_count(&mut ctx).unwrap(), 0);
        // Finish the migration over the now-empty remainder.
        while !t.migrate_step(&mut ctx, &p, &arena, 8).unwrap() {}
        assert!(!t.is_expanding(&mut ctx, &p).unwrap());
    }

    #[test]
    fn presize_picks_the_generation_a_cold_table_would_grow_to() {
        let p = Branch::Baseline.policy();
        // 16 buckets hold 24 before asking to grow; 25 items want 32.
        for (items, buckets) in [(0, 16), (24, 16), (25, 32), (96, 64), (97, 128), (10_000, 256)] {
            let (arena, t) = setup();
            let mut ctx = Ctx::Direct;
            t.presize(&mut ctx, items).unwrap();
            assert_eq!(t.bucket_count(&mut ctx).unwrap(), buckets, "{items} items");
            // Filling it to `items` never asks for an expansion (unless
            // the table is at its last generation).
            let mut wanted = false;
            for i in 0..items.min(60) {
                let (h, hv) = put_item(&arena, format!("pre-{i}").as_bytes());
                wanted |= t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
            }
            assert!(!wanted, "{items} items in a table presized for them");
        }
    }

    #[test]
    #[should_panic(expected = "presize on a table in use")]
    fn presize_refuses_a_table_in_use() {
        let (arena, t) = setup();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let (h, hv) = put_item(&arena, b"linked");
        t.insert(&mut ctx, &p, &arena, h, hv).unwrap();
        let _ = t.presize(&mut ctx, 1000);
    }

    #[test]
    fn expansion_stops_at_max_power() {
        let (arena, t) = setup();
        let _ = arena;
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        for _ in 0..4 {
            if t.start_expansion(&mut ctx, &p).unwrap() {
                // complete it instantly (no items linked)
                while !t.migrate_step(&mut ctx, &p, &arena, 64).unwrap() {}
            }
        }
        assert!(!t.start_expansion(&mut ctx, &p).unwrap(), "must stop at 2^8");
    }
}
