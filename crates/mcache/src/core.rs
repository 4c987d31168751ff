//! `items.c` logic: allocation with LRU eviction, link/unlink, get,
//! arithmetic — composed from the slab arena, hash table, and LRU lists,
//! and generic over the execution context so every branch shares one
//! implementation.

use tm::{Abort, TCell, Word};
use tmstd::ByteAccess;

use crate::assoc::AssocTable;
use crate::ctx::Ctx;
use crate::item::{decode_opt, ItemHandle, ItemSizes, ITEM_FETCHED, ITEM_LINKED};
use crate::lru::LruList;
use crate::policy::{Category, ItemMode, Policy};
use crate::slabs::{SlabArena, SlabConfig};
use crate::stats::{bump, GlobalStats};

use lockprof::{ProfiledGuard, ProfiledMutex, Profiler};

/// Striped item locks, in both physical forms: real mutexes for the
/// lock-based branches, transactional booleans for IP (§3.1: "we could
/// make the lock acquire and release into mini-transactions on a
/// boolean"). IT has neither — its item critical sections are
/// transactions.
pub struct ItemLocks {
    mutexes: Vec<ProfiledMutex<()>>,
    cells: Vec<TCell<bool>>,
    mask: u32,
}

impl std::fmt::Debug for ItemLocks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ItemLocks")
            .field("stripes", &self.cells.len())
            .finish()
    }
}

/// A held victim item lock during eviction (Figure 1a's `tm_trylock`).
#[derive(Debug)]
pub enum VictimLock<'a> {
    /// Lock-branch mutex guard.
    Mutex(ProfiledGuard<'a, ()>),
    /// IP: the boolean was CASed true inside the current transaction and
    /// must be written false before the transaction ends.
    TxBool(usize),
    /// IT, or the victim shares the stripe we already hold.
    None,
}

impl ItemLocks {
    /// Creates `2^power` stripes.
    pub fn new(power: u32, profiler: &Profiler) -> Self {
        let n = 1usize << power;
        ItemLocks {
            mutexes: (0..n)
                .map(|i| ProfiledMutex::new(&format!("item_lock[{i}]"), (), profiler))
                .collect(),
            cells: (0..n).map(|_| TCell::new(false)).collect(),
            mask: n as u32 - 1,
        }
    }

    /// The stripe index for a key hash.
    pub fn stripe(&self, hv: u32) -> usize {
        (hv & self.mask) as usize
    }

    /// The lock-branch mutex for a stripe.
    pub fn mutex(&self, stripe: usize) -> &ProfiledMutex<()> {
        &self.mutexes[stripe]
    }

    /// The IP-branch boolean for a stripe.
    pub fn cell(&self, stripe: usize) -> &TCell<bool> {
        &self.cells[stripe]
    }

    /// Attempts to take a *victim's* stripe while other locks are held —
    /// the lock-order violation memcached performs with `trylock` (§3.1).
    /// `held` is the stripe the calling worker already owns (or
    /// `usize::MAX` for maintenance threads that hold none).
    pub fn try_lock_victim<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        stripe: usize,
        held: usize,
    ) -> Result<Option<VictimLock<'e>>, Abort> {
        match policy.item_mode {
            ItemMode::Transactional => Ok(Some(VictimLock::None)),
            ItemMode::Lock => {
                if stripe == held {
                    return Ok(Some(VictimLock::None));
                }
                Ok(self.mutexes[stripe].try_lock().map(VictimLock::Mutex))
            }
            ItemMode::Privatize => {
                if stripe == held {
                    return Ok(Some(VictimLock::None));
                }
                let cell = &self.cells[stripe];
                if ctx.get_word(cell.word())? != 0 {
                    return Ok(None); // held by someone: skip this victim
                }
                ctx.put_word(cell.word(), 1)?;
                Ok(Some(VictimLock::TxBool(stripe)))
            }
        }
    }

    /// Releases a victim lock taken by [`ItemLocks::try_lock_victim`].
    pub fn unlock_victim<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        guard: VictimLock<'e>,
    ) -> Result<(), Abort> {
        match guard {
            VictimLock::Mutex(g) => drop(g),
            VictimLock::TxBool(stripe) => ctx.put_word(self.cells[stripe].word(), 0)?,
            VictimLock::None => {}
        }
        Ok(())
    }
}

/// A successful `get`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetHit {
    /// The item found.
    pub handle: ItemHandle,
    /// A copy of the value.
    pub value: Vec<u8>,
    /// Client flags stored with the item.
    pub flags: u32,
    /// The item's CAS id.
    pub cas: u64,
    /// Relative expiry (0 = never) — carried so `append`/`prepend` keep
    /// the TTL.
    pub exp: u32,
}

/// Why an allocation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocError {
    /// The object exceeds the largest chunk (`SERVER_ERROR object too
    /// large for cache`).
    TooLarge,
    /// Memory exhausted and no evictable victim was found.
    OutOfMemory,
}

/// The shared cache state and its single-source operation logic.
pub struct CacheCore {
    /// Slab arena.
    pub arena: SlabArena,
    /// Hash table.
    pub assoc: AssocTable,
    /// One LRU list per slab class.
    pub lrus: Vec<LruList>,
    /// Striped item locks.
    pub item_locks: ItemLocks,
    /// `stats_lock`-guarded counters.
    pub global: GlobalStats,
    cas_counter: TCell<u64>,
    /// `flush_all` watermark: items last touched at or before this die.
    pub oldest_live: TCell<u64>,
}

impl std::fmt::Debug for CacheCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CacheCore")
            .field("arena", &self.arena)
            .field("assoc", &self.assoc)
            .finish_non_exhaustive()
    }
}

/// One entry for [`CacheCore::load`].
#[derive(Clone, Copy, Debug)]
pub struct LoadEntry<'r> {
    /// Key bytes.
    pub key: &'r [u8],
    /// Value bytes.
    pub value: &'r [u8],
    /// Client flags.
    pub flags: u32,
    /// Relative expiry (0 = never).
    pub exptime: u32,
}

/// Where a load's plan puts one entry, as words: its chunk (0 when it is
/// not stored, or is evicted later in the load), CAS id and LRU
/// neighbours.
#[derive(Clone, Copy, Default)]
struct Placement {
    item: u64,
    cas: u64,
    lru_next: u64,
    lru_prev: u64,
}

/// One slab class's share of a load's plan.
#[derive(Default)]
struct ClassPlan {
    /// The page the class carves from now, and how many of its chunks are
    /// still to hand out (the highest first, as `carve` chains them).
    page: u32,
    left: u16,
    /// Entries given a chunk, in load order; the first `evicted` of them
    /// lost it to a later one.
    stored: Vec<u32>,
    evicted: usize,
}

impl ClassPlan {
    /// The entries still stored at the end, oldest first: the LRU.
    fn live(&self) -> &[u32] {
        &self.stored[self.evicted..]
    }
}

/// What the plan pass of [`CacheCore::load`] decides.
struct LoadPlan {
    /// One per entry, in load order.
    place: Vec<Placement>,
    /// One per slab class.
    classes: Vec<ClassPlan>,
    /// The class of each pool page the load claims, in claim order.
    claimed: Vec<u8>,
    /// The CAS counter after the load.
    cas: u64,
    /// The last class that evicted or dropped an entry.
    needy: Option<u8>,
}

/// Runs `jobs` at once, the calling thread taking the first, and returns
/// when all are done (a panic in one is re-raised here).
fn on_workers<F: FnOnce() + Send>(mut jobs: impl Iterator<Item = F>) {
    std::thread::scope(|s| {
        let Some(mine) = jobs.next() else { return };
        for job in jobs {
            s.spawn(job);
        }
        mine();
    });
}

/// How many LRU tail candidates an allocation will consider before giving
/// up (memcached tries 50; scaled to our smaller LRUs).
const EVICTION_TRIES: usize = 10;

impl CacheCore {
    /// Builds the core from slab geometry and hash-table powers.
    pub fn new(
        slab_cfg: SlabConfig,
        hash_power: u32,
        hash_power_max: u32,
        item_lock_power: u32,
        profiler: &Profiler,
    ) -> Self {
        let arena = SlabArena::new(slab_cfg);
        let lrus = (0..arena.class_count()).map(|_| LruList::new()).collect();
        CacheCore {
            assoc: AssocTable::new(hash_power, hash_power_max),
            lrus,
            item_locks: ItemLocks::new(item_lock_power, profiler),
            global: GlobalStats::default(),
            cas_counter: TCell::new(0),
            oldest_live: TCell::new(0),
            arena,
        }
    }

    /// Raises the CAS allocator to at least `floor`. Recovery calls this
    /// before replaying logged items so every post-restart CAS id is
    /// strictly above any id a pre-crash client observed.
    pub fn set_cas_floor<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, floor: u64) -> Result<(), Abort> {
        let cur = ctx.get_word(self.cas_counter.word())?;
        if cur < floor {
            ctx.put_word(self.cas_counter.word(), floor)?;
        }
        Ok(())
    }

    /// Whether the item is still alive at `now` (expiry + `flush_all`).
    fn is_live<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        h: ItemHandle,
        now: u32,
    ) -> Result<bool, Abort> {
        let it = self.arena.resolve(h);
        let (exp, last) = it.times(ctx)?;
        if exp != 0 && exp <= now {
            return Ok(false);
        }
        let watermark = ctx.get_word(self.oldest_live.word())?;
        Ok(watermark == 0 || last as u64 > watermark)
    }

    /// `do_item_get`: find, expiry-check, take a reference, copy the value
    /// out, release. Whether to bump the item's LRU position afterwards
    /// (`item_update`) is the caller's call.
    ///
    /// `elide_refcount` is the §5 future-work optimization the paper
    /// credits to transactionalization ("it might be possible to replace
    /// the modifications of the reference count with a simple read",
    /// citing Dragojević et al.): inside a transaction the whole get is
    /// atomic, so the incr/decr pair can become a plain read. Only valid
    /// when item access is fully transactional (IT branches).
    pub fn item_get<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        hv: u32,
        now: u32,
        elide_refcount: bool,
    ) -> Result<Option<GetHit>, Abort> {
        let Some(h) = self.assoc.find(ctx, policy, &self.arena, key, hv)? else {
            return Ok(None);
        };
        if !self.is_live(ctx, h, now)? {
            // Lazy expiry: unlink now.
            self.unlink_item(ctx, policy, h, hv)?;
            return Ok(None);
        }
        let it = self.arena.resolve(h);
        if elide_refcount {
            let rc = it.refcount(ctx, policy)?;
            // The read still participates in conflict detection, which is
            // exactly what makes the elision sound under TM.
            ctx.assert_that(policy, rc != u64::MAX, "impossible refcount")?;
        } else {
            let rc = it.ref_incr(ctx, policy)?;
            ctx.assert_that(policy, rc >= 1, "get raised refcount from garbage")?;
        }
        // Set-if-unset: a steady-state hit has ITEM_FETCHED already, and
        // skipping the redundant store keeps a refcount-elided GET free of
        // writes — i.e. on the read-only fast lane end to end.
        if it.flags(ctx)? & ITEM_FETCHED == 0 {
            it.update_flags(ctx, ITEM_FETCHED, 0)?;
        }
        let sizes = it.sizes(ctx)?;
        let value = it.read_value(ctx, policy, sizes)?;
        let flags = it.client_flags(ctx)?;
        let cas = it.cas(ctx)?;
        let (exp, _) = it.times(ctx)?;
        if !elide_refcount {
            self.item_release(ctx, policy, h)?;
        }
        Ok(Some(GetHit {
            handle: h,
            value,
            flags,
            cas,
            exp,
        }))
    }

    /// Releases one reference; frees the chunk when the item is dead
    /// (`do_item_remove`).
    pub fn item_release<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        h: ItemHandle,
    ) -> Result<(), Abort> {
        let it = self.arena.resolve(h);
        let rc = it.ref_decr(ctx, policy)?;
        if rc == 0 && it.flags(ctx)? & ITEM_LINKED == 0 {
            self.arena.free(ctx, h)?;
        }
        Ok(())
    }

    /// `do_item_unlink`: drop from hash table and LRU; free if unreferenced.
    pub fn unlink_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        h: ItemHandle,
        hv: u32,
    ) -> Result<(), Abort> {
        let it = self.arena.resolve(h);
        if it.flags(ctx)? & ITEM_LINKED == 0 {
            return Ok(());
        }
        it.update_flags(ctx, 0, ITEM_LINKED)?;
        self.assoc.remove(ctx, policy, &self.arena, h, hv)?;
        self.lrus[h.class as usize].unlink(ctx, &self.arena, h)?;
        let cur = ctx.get_word(self.global.curr_items.word())?;
        ctx.put_word(self.global.curr_items.word(), cur.saturating_sub(1))?;
        if it.refcount(ctx, policy)? == 0 {
            self.arena.free(ctx, h)?;
        }
        Ok(())
    }

    /// `do_item_alloc`: pick a class, allocate (evicting from the class's
    /// LRU tail if the pool is dry), and initialize the header, key, and
    /// suffix. The returned item is private (refcount 1, unlinked) until
    /// [`CacheCore::link_item`]. `held_stripe` is the item-lock stripe the
    /// caller owns (for the trylock lock-order violation on victims).
    #[allow(clippy::too_many_arguments)]
    pub fn alloc_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        client_flags: u32,
        exptime: u32,
        nbytes: u32,
        now: u32,
        held_stripe: usize,
    ) -> Result<Result<ItemHandle, AllocError>, Abort> {
        let Some((sizes, class)) = self.size_item(key, client_flags, nbytes) else {
            return Ok(Err(AllocError::TooLarge));
        };
        let mut handle = None;
        let (_, evicted) = self.alloc_chunks(ctx, policy, class, 1, held_stripe, |h| handle = Some(h))?;
        if handle.is_none() || evicted > 0 {
            // Ask the rebalancer for a page (raise the volatile signal and
            // record the starving class): before failing the store, or,
            // under eviction pressure, the same request in softer form.
            // Raising it wakes nobody: the rebalancer's timed pass finds
            // it, and only an out-of-memory store posts the wakeup.
            ctx.put_word(self.arena.needy_class.word(), class as u64)?;
            ctx.volatile_write(policy, self.arena.rebalance_signal.word(), 1)?;
        }
        let Some(handle) = handle else {
            return Ok(Err(AllocError::OutOfMemory));
        };
        self.init_item(ctx, policy, handle, key, client_flags, exptime, sizes, now)?;
        Ok(Ok(handle))
    }

    /// Sizing half of `do_item_alloc` (memcached's `item_make_header`):
    /// the suffix is rendered to find its length, then the smallest
    /// fitting class is picked. `None` means the object exceeds the
    /// largest chunk.
    pub fn size_item(
        &self,
        key: &[u8],
        client_flags: u32,
        nbytes: u32,
    ) -> Option<(ItemSizes, u8)> {
        let nsuffix = tmstd::item_suffix_len(client_flags, nbytes) as u8;
        let sizes = ItemSizes {
            nkey: key.len() as u8,
            nsuffix,
            nbytes,
        };
        self.arena.class_for(sizes.total()).map(|class| (sizes, class))
    }

    /// Initialization half of `do_item_alloc`: header, key, and suffix of
    /// a freshly allocated, still-private chunk (refcount 1, unlinked).
    /// The magazine store path calls this directly on a cached chunk,
    /// skipping the slab transaction entirely.
    #[allow(clippy::too_many_arguments)]
    pub fn init_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        handle: ItemHandle,
        key: &[u8],
        client_flags: u32,
        exptime: u32,
        sizes: ItemSizes,
        now: u32,
    ) -> Result<(), Abort> {
        let it = self.arena.resolve(handle);
        it.set_refcount(ctx, 1)?;
        it.set_flags(ctx, (handle.class as u64) << 8)?;
        it.set_times(ctx, exptime, now)?;
        it.set_sizes(ctx, sizes)?;
        it.set_cas(ctx, 0)?;
        it.set_client_flags(ctx, client_flags)?;
        it.write_key(ctx, key)?;
        it.write_suffix(ctx, policy, sizes, client_flags)
    }

    /// The one alloc-or-evict loop: pops up to `n` chunks of `class` into
    /// `take`, evicting from the class's LRU tail (at most
    /// `EVICTION_TRIES` victims) whenever the pool runs dry. A store's
    /// allocation asks for one chunk; a magazine refill asks for a whole
    /// row in ONE short transaction, so its eviction write-backs batch
    /// into the refill instead of costing one slab transaction per SET.
    /// Chunks come out as from [`SlabArena::alloc_from`]: accounted
    /// allocated, so a magazine-held one never looks free to
    /// [`SlabArena::rebalance_step`]. `held_stripe` is the caller's item
    /// lock, for the trylock on victims. Returns `(chunks_popped,
    /// items_evicted)`; raising the rebalance signal is the caller's call.
    pub fn alloc_chunks<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        class: u8,
        n: usize,
        held_stripe: usize,
        mut take: impl FnMut(ItemHandle),
    ) -> Result<(usize, usize), Abort> {
        let (mut got, mut evicted) = (0, 0);
        while got < n {
            match self.arena.alloc_from(ctx, policy, class)? {
                Some(h) => {
                    take(h);
                    got += 1;
                }
                None if evicted < EVICTION_TRIES && self.evict_one(ctx, policy, class, held_stripe)? => {
                    evicted += 1
                }
                None => break,
            }
        }
        Ok((got, evicted))
    }

    /// Evicts one unreferenced item from the class's LRU tail, honoring
    /// the victim's item lock via `trylock` (Figure 1a). Returns whether a
    /// chunk was freed.
    fn evict_one<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        class: u8,
        held_stripe: usize,
    ) -> Result<bool, Abort> {
        let lru = &self.lrus[class as usize];
        let mut cur = lru.tail(ctx)?;
        for _ in 0..EVICTION_TRIES {
            let Some(h) = cur else { return Ok(false) };
            let it = self.arena.resolve(h);
            let prev = it.lru_prev(ctx)?;
            if it.refcount(ctx, policy)? == 0 {
                let sizes = it.sizes(ctx)?;
                let key = it.read_key(ctx, sizes.nkey)?;
                let hv = crate::hashes::jenkins_hash(&key, 0);
                let stripe = self.item_locks.stripe(hv);
                match self
                    .item_locks
                    .try_lock_victim(ctx, policy, stripe, held_stripe)?
                {
                    Some(guard) => {
                        self.unlink_item(ctx, policy, h, hv)?;
                        bump(ctx, &self.global.evictions)?;
                        self.item_locks.unlock_victim(ctx, guard)?;
                        return Ok(true);
                    }
                    None => {
                        // Figure 1a's save_for_later path: skip the busy
                        // victim and try the next-oldest.
                    }
                }
            }
            cur = prev;
        }
        Ok(false)
    }

    /// `do_item_link`: publish a private item under `key`'s hash. Returns
    /// `true` when this insert crossed the load factor and an expansion
    /// was started (the caller signals the maintenance thread).
    pub fn link_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        h: ItemHandle,
        hv: u32,
    ) -> Result<bool, Abort> {
        let it = self.arena.resolve(h);
        it.update_flags(ctx, ITEM_LINKED, 0)?;
        let cas = ctx.fetch_add_word(self.cas_counter.word(), 1)? + 1;
        it.set_cas(ctx, cas)?;
        let wants_expansion = self.assoc.insert(ctx, policy, &self.arena, h, hv)?;
        self.lrus[h.class as usize].link_head(ctx, &self.arena, h)?;
        bump(ctx, &self.global.curr_items)?;
        bump(ctx, &self.global.total_items)?;
        if wants_expansion {
            // May be a no-op at maximum size; the maintainer still gets
            // woken (and finds nothing to do), as in Figure 2.
            self.assoc.start_expansion(ctx, policy)?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Loads `n` entries, `entry(0)` the oldest, into a fresh cache under
    /// [`Ctx::Direct`], leaving it exactly as storing them one after
    /// another would: each goes through `load_item`'s alloc (evicting the
    /// class's oldest survivor when the pool is dry, or dropping the entry
    /// when the class has none), fill, link and release — the loop the
    /// tests keep as this function's reference. Returns how many were
    /// stored, those evicted later in the load included.
    ///
    /// Four passes. *Plan*, on the calling thread, from sizes alone: each
    /// entry's chunk (pages claimed in the one-by-one order, chunks handed
    /// out top-down as `carve` chains them), eviction or drop, CAS id and
    /// LRU neighbours. *Fill*: `available_parallelism()` workers, the
    /// caller among them, each write a disjoint range of entries' items
    /// and key hashes. *Link*: the same number of workers each link a
    /// disjoint range of buckets. *Finish*, on the caller: carve each
    /// class's leftover chunks, set the LRU ends and the counters.
    ///
    /// Plain stores are enough because nothing is shared yet (the §3.3
    /// privatization argument): the cache's threads start after this,
    /// and the joins of the passes publish the workers' stores. Only the
    /// caller allocates.
    ///
    /// # Panics
    ///
    /// Panics if a page of the pool is already claimed.
    pub fn load<'r>(
        &self,
        policy: &Policy,
        n: usize,
        now: u32,
        entry: impl Fn(usize) -> LoadEntry<'r> + Sync,
    ) -> u64 {
        let plan = self.plan_load(n, &entry);

        // Fill, then link.
        let workers = std::thread::available_parallelism().map_or(1, |w| w.get());
        let share = n.div_ceil(workers).max(1);
        let mut hashes = vec![0u32; n];
        let (place, entry) = (&plan.place, &entry);
        on_workers(hashes.chunks_mut(share).enumerate().map(|(k, hashes)| {
            move || {
                let ctx = &mut Ctx::Direct;
                for (i, hv) in (k * share..).zip(hashes) {
                    let p = place[i];
                    if p.item != 0 {
                        let e = entry(i);
                        self.fill_loaded(ctx, policy, p, e, now).expect("direct");
                        *hv = crate::hashes::jenkins_hash(e.key, 0);
                    }
                }
            }
        }));
        let hashes = &hashes;
        on_workers((0..workers).map(|w| {
            move || {
                let linked = place.iter().zip(hashes).filter(|(p, _)| p.item != 0);
                let linked = linked.map(|(p, &hv)| (ItemHandle::from_word(p.item), hv));
                let ctx = &mut Ctx::Direct;
                self.assoc.link_share(ctx, &self.arena, w, workers, linked).expect("direct");
            }
        }));

        self.finish_load(&mut Ctx::Direct, policy, &plan).expect("direct")
    }

    /// The plan pass of [`CacheCore::load`].
    fn plan_load<'r>(&self, n: usize, entry: impl Fn(usize) -> LoadEntry<'r>) -> LoadPlan {
        let arena = &self.arena;
        assert_eq!(arena.malloced_bytes(), 0, "a load fills a fresh cache");
        let mut plan = LoadPlan {
            place: vec![Placement::default(); n],
            classes: (0..arena.class_count()).map(|_| ClassPlan::default()).collect(),
            claimed: Vec::new(),
            cas: self.cas_counter.load_direct(),
            needy: None,
        };
        for i in 0..n {
            let e = entry(i);
            let Some((_, c)) = self.size_item(e.key, e.flags, e.value.len() as u32) else {
                continue; // too large: never allocated
            };
            let cl = &mut plan.classes[c as usize];
            if cl.left == 0 && plan.claimed.len() < arena.page_count() {
                cl.page = plan.claimed.len() as u32;
                cl.left = arena.class(c).chunks_per_page as u16;
                plan.claimed.push(c);
            }
            let item = if cl.left > 0 {
                cl.left -= 1;
                ItemHandle { class: c, page: cl.page, chunk: cl.left }.to_word()
            } else {
                // The pool is dry: the class's oldest survivor gives its
                // chunk up, or, with none left, the entry is dropped.
                plan.needy = Some(c);
                let Some(&victim) = cl.stored.get(cl.evicted) else { continue };
                cl.evicted += 1;
                std::mem::take(&mut plan.place[victim as usize].item)
            };
            plan.cas += 1;
            plan.place[i] = Placement { item, cas: plan.cas, ..Placement::default() };
            cl.stored.push(i as u32);
        }
        let place = &mut plan.place;
        for cl in &plan.classes {
            let live = cl.live();
            for (j, &i) in live.iter().enumerate() {
                let older = j.checked_sub(1).map_or(0, |k| place[live[k] as usize].item);
                let newer = live.get(j + 1).map_or(0, |&k| place[k as usize].item);
                let p = &mut place[i as usize];
                (p.lru_next, p.lru_prev) = (older, newer);
            }
        }
        plan
    }

    /// The finish pass of [`CacheCore::load`]: claims the planned pages in
    /// order, carving only each class's leftover chunks, then stores the
    /// LRU ends and the counters. Returns how many entries were stored.
    fn finish_load<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        plan: &LoadPlan,
    ) -> Result<u64, Abort> {
        for (p, &c) in plan.claimed.iter().enumerate() {
            let cl = &plan.classes[c as usize];
            let free = if cl.page == p as u32 { 0..cl.left } else { 0..0 };
            let claimed = self.arena.claim_page(ctx, c, free)?;
            debug_assert!(claimed, "the plan claims no more pages than the pool has");
        }
        let (mut stored, mut live) = (0, 0);
        let handle = |i: &u32| ItemHandle::from_word(plan.place[*i as usize].item);
        for (lru, cl) in self.lrus.iter().zip(&plan.classes) {
            let survivors = cl.live();
            let (head, tail) = (survivors.last().map(handle), survivors.first().map(handle));
            lru.set_loaded(ctx, head, tail, survivors.len() as u64)?;
            stored += cl.stored.len() as u64;
            live += survivors.len() as u64;
        }
        self.assoc.count_loaded(ctx, live)?;
        let g = &self.global;
        let evicted = stored - live;
        for (cell, n) in [(&g.curr_items, live), (&g.total_items, stored), (&g.evictions, evicted)] {
            let cur = ctx.get_word(cell.word())?;
            ctx.put_word(cell.word(), cur + n)?;
        }
        ctx.put_word(self.cas_counter.word(), plan.cas)?;
        if let Some(c) = plan.needy {
            ctx.put_word(self.arena.needy_class.word(), c as u64)?;
            ctx.volatile_write(policy, self.arena.rebalance_signal.word(), 1)?;
        }
        Ok(stored)
    }

    /// The fill pass for one planned entry: the item as `load_item` leaves
    /// it, but for its hash-chain link.
    fn fill_loaded<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        p: Placement,
        e: LoadEntry<'_>,
        now: u32,
    ) -> Result<(), Abort> {
        let h = ItemHandle::from_word(p.item);
        let (sizes, _) = self.size_item(e.key, e.flags, e.value.len() as u32).expect("planned");
        self.init_item(ctx, policy, h, e.key, e.flags, e.exptime, sizes, now)?;
        let it = self.arena.resolve(h);
        it.write_value(ctx, policy, sizes, e.value)?;
        it.set_refcount(ctx, 0)?;
        it.set_flags(ctx, (h.class as u64) << 8 | ITEM_LINKED)?;
        it.set_cas(ctx, p.cas)?;
        it.set_lru_next(ctx, decode_opt(p.lru_next))?;
        it.set_lru_prev(ctx, decode_opt(p.lru_prev))
    }

    /// `do_item_update`: re-position in the LRU and refresh last-access.
    pub fn update_item<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        h: ItemHandle,
        now: u32,
    ) -> Result<(), Abort> {
        let it = self.arena.resolve(h);
        if it.flags(ctx)? & ITEM_LINKED == 0 {
            return Ok(()); // raced with an unlink; nothing to do
        }
        let _ = policy;
        self.lrus[h.class as usize].bump(ctx, &self.arena, h)?;
        let (exp, _) = it.times(ctx)?;
        it.set_times(ctx, exp, now)
    }

    #[allow(clippy::too_many_arguments)]
    /// `do_add_delta`: parse the stored decimal value (libc `strtoull`
    /// until Lib), apply the delta, and rewrite in place (libc `snprintf`
    /// until Lib). `None` = key missing; `Err(())` in the inner result =
    /// the stored value is not a number; `Ok((new, cas))` carries the new
    /// value and the CAS id this rewrite assigned (for the redo log).
    pub fn arith<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        hv: u32,
        delta: u64,
        incr: bool,
        now: u32,
    ) -> Result<Option<Result<(u64, u64), ()>>, Abort> {
        let Some(h) = self.assoc.find(ctx, policy, &self.arena, key, hv)? else {
            return Ok(None);
        };
        if !self.is_live(ctx, h, now)? {
            self.unlink_item(ctx, policy, h, hv)?;
            return Ok(None);
        }
        let it = self.arena.resolve(h);
        let mut sizes = it.sizes(ctx)?;
        let voff = it.value_off(sizes);
        let n = sizes.nbytes as usize;
        // memcached's safe_strtoull: the whole value must be a number,
        // modulo surrounding whitespace.
        let marshal = |buf: &[u8]| -> Option<u64> {
            let (v, used) = tmstd::parse_u64(buf)?;
            buf[used..]
                .iter()
                .all(|&b| b == 0 || tmstd::isspace(b))
                .then_some(v)
        };
        let parsed = if n > 40 {
            None // not a plausible decimal; memcached fails the parse
        } else {
            ctx.unsafe_until(policy, Category::Libc, |c| {
                let mut buf = vec![0u8; n];
                tmstd::memcpy_to_slice(c, it.pool, it.in_chunk(voff, n), &mut buf)?;
                Ok(tmstd::pure(|| marshal(&buf)))
            })?
        };
        let Some(old) = parsed else {
            return Ok(Some(Err(())));
        };
        let new = if incr {
            old.wrapping_add(delta)
        } else {
            old.saturating_sub(delta)
        };
        let text = tmstd::pure(|| new.to_string().into_bytes());
        let capacity = self.arena.class(h.class).chunk_size
            - crate::item::HDR_BYTES
            - sizes.nkey as usize
            - sizes.nsuffix as usize;
        if text.len() > capacity {
            return Ok(Some(Err(())));
        }
        ctx.unsafe_until(policy, Category::Libc, |c| {
            tmstd::memcpy_from_slice(c, it.pool, it.in_chunk(voff, text.len()), &text)
        })?;
        sizes.nbytes = text.len() as u32;
        it.set_sizes(ctx, sizes)?;
        let cas = ctx.fetch_add_word(self.cas_counter.word(), 1)? + 1;
        it.set_cas(ctx, cas)?;
        Ok(Some(Ok((new, cas))))
    }

    /// `flush_all`: everything last touched at or before `now` dies
    /// lazily.
    pub fn flush_all<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, now: u32) -> Result<(), Abort> {
        ctx.put_word(self.oldest_live.word(), now as u64)?;
        bump(ctx, &self.global.flush_cmds)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::policy::Branch;

    /// The reference for [`CacheCore::load`]: `load_item` on each entry,
    /// oldest first, on the calling thread.
    pub(crate) fn load_one_by_one<'r>(
        core: &CacheCore,
        policy: &Policy,
        n: usize,
        now: u32,
        entry: impl Fn(usize) -> LoadEntry<'r> + Sync,
    ) -> u64 {
        let ctx = &mut Ctx::Direct;
        let mut stored = 0;
        for i in 0..n {
            let e = entry(i);
            let loaded = load_item(core, ctx, policy, e.key, e.value, e.flags, e.exptime, now);
            stored += loaded.expect("direct").is_ok() as u64;
        }
        stored
    }

    /// Stores one item under a key the table is known not to hold:
    /// allocate (evicting from the LRU tail if memory is full), fill, link,
    /// drop the allocation reference — the store's own bodies minus the
    /// lookup.
    #[allow(clippy::too_many_arguments)]
    fn load_item<'e>(
        core: &'e CacheCore,
        ctx: &mut Ctx<'_, 'e>,
        policy: &Policy,
        key: &[u8],
        value: &[u8],
        client_flags: u32,
        exptime: u32,
        now: u32,
    ) -> Result<Result<ItemHandle, AllocError>, Abort> {
        let hv = crate::hashes::jenkins_hash(key, 0);
        let nbytes = value.len() as u32;
        let h = match core.alloc_item(ctx, policy, key, client_flags, exptime, nbytes, now, usize::MAX)? {
            Ok(h) => h,
            Err(e) => return Ok(Err(e)),
        };
        let it = core.arena.resolve(h);
        let sizes = it.sizes(ctx)?;
        it.write_value(ctx, policy, sizes, value)?;
        core.link_item(ctx, policy, h, hv)?;
        core.item_release(ctx, policy, h)?;
        Ok(Ok(h))
    }

    /// What a load decides, one line per fact, for comparing two loads:
    /// the arena's and the hash table's fingerprints, each class's LRU
    /// walked newest to oldest with every item's key, value and header
    /// words, and the counters.
    pub(crate) fn load_fingerprint(core: &CacheCore, policy: &Policy) -> Vec<String> {
        let ctx = &mut Ctx::Direct;
        let mut out = crate::slabs::tests::fingerprint(&core.arena);
        out.extend(crate::assoc::tests::fingerprint(&core.assoc, &core.arena));
        for (c, lru) in core.lrus.iter().enumerate() {
            let (head, tail) = (lru.head(ctx).unwrap(), lru.tail(ctx).unwrap());
            out.push(format!("lru {c}: head {head:?} tail {tail:?} len {}", lru.len(ctx).unwrap()));
            let mut cur = head;
            while let Some(h) = cur {
                let it = core.arena.resolve(h);
                let sizes = it.sizes(ctx).unwrap();
                let key = it.read_key(ctx, sizes.nkey).unwrap();
                let key = String::from_utf8_lossy(&key);
                let value = it.read_value(ctx, policy, sizes).unwrap();
                let fnv = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
                out.push(format!(
                    "  {h:?} key {key} flags {:#x} refcount {} times {:?} cas {} client_flags {} \
                     sizes {sizes:?} prev {:?} value fnv {:#x}",
                    it.flags(ctx).unwrap(),
                    it.refcount(ctx, policy).unwrap(),
                    it.times(ctx).unwrap(),
                    it.cas(ctx).unwrap(),
                    it.client_flags(ctx).unwrap(),
                    it.lru_prev(ctx).unwrap(),
                    value.iter().fold(0xcbf2_9ce4_8422_2325, fnv),
                ));
                cur = it.lru_next(ctx).unwrap();
            }
        }
        let g = core.global.snapshot();
        out.push(format!(
            "curr_items {} total_items {} evictions {} cas_counter {}",
            g.curr_items,
            g.total_items,
            g.evictions,
            core.cas_counter.load_direct()
        ));
        out
    }

    fn core() -> CacheCore {
        CacheCore::new(
            SlabConfig {
                mem_limit: 256 << 10,
                page_size: 16 << 10,
                chunk_min: 96,
                growth_factor: 1.5,
            },
            6,
            10,
            4,
            &Profiler::new(),
        )
    }

    fn set(
        core: &CacheCore,
        policy: &Policy,
        key: &[u8],
        value: &[u8],
        exptime: u32,
        now: u32,
    ) -> ItemHandle {
        let mut ctx = Ctx::Direct;
        let hv = crate::hashes::jenkins_hash(key, 0);
        let h = core
            .alloc_item(&mut ctx, policy, key, 0, exptime, value.len() as u32, now, usize::MAX)
            .unwrap()
            .unwrap();
        let it = core.arena.resolve(h);
        let sizes = it.sizes(&mut ctx).unwrap();
        it.write_value(&mut ctx, policy, sizes, value).unwrap();
        if let Some(old) = core.assoc.find(&mut ctx, policy, &core.arena, key, hv).unwrap() {
            core.unlink_item(&mut ctx, policy, old, hv).unwrap();
        }
        core.link_item(&mut ctx, policy, h, hv).unwrap();
        core.item_release(&mut ctx, policy, h).unwrap();
        h
    }

    fn get(core: &CacheCore, policy: &Policy, key: &[u8], now: u32) -> Option<Vec<u8>> {
        let mut ctx = Ctx::Direct;
        let hv = crate::hashes::jenkins_hash(key, 0);
        core.item_get(&mut ctx, policy, key, hv, now, false)
            .unwrap()
            .map(|h| h.value)
    }

    #[test]
    fn set_get_roundtrip() {
        let c = core();
        let p = Branch::Baseline.policy();
        set(&c, &p, b"hello", b"world", 0, 1);
        assert_eq!(get(&c, &p, b"hello", 1), Some(b"world".to_vec()));
        assert_eq!(get(&c, &p, b"missing", 1), None);
    }

    #[test]
    fn overwrite_replaces_value_and_bumps_cas() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        set(&c, &p, b"k", b"v1", 0, 1);
        let hv = crate::hashes::jenkins_hash(b"k", 0);
        let cas1 = c
            .item_get(&mut ctx, &p, b"k", hv, 1, false)
            .unwrap()
            .unwrap()
            .cas;
        set(&c, &p, b"k", b"v2-longer", 0, 2);
        let hit = c.item_get(&mut ctx, &p, b"k", hv, 2, false).unwrap().unwrap();
        assert_eq!(hit.value, b"v2-longer");
        assert!(hit.cas > cas1);
        assert_eq!(c.global.snapshot().curr_items, 1);
    }

    #[test]
    fn expiry_is_lazy_but_effective() {
        let c = core();
        let p = Branch::Baseline.policy();
        set(&c, &p, b"ttl", b"v", 5, 1);
        assert!(get(&c, &p, b"ttl", 4).is_some());
        assert!(get(&c, &p, b"ttl", 5).is_none(), "expired at its exptime");
        assert!(get(&c, &p, b"ttl", 6).is_none());
        assert_eq!(c.global.snapshot().curr_items, 0, "lazy unlink ran");
    }

    #[test]
    fn flush_all_kills_older_items() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        set(&c, &p, b"old", b"v", 0, 1);
        c.flush_all(&mut ctx, 3).unwrap();
        assert!(get(&c, &p, b"old", 4).is_none());
        set(&c, &p, b"new", b"v", 0, 5);
        assert!(get(&c, &p, b"new", 6).is_some());
    }

    #[test]
    fn delete_frees_chunk() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let h = set(&c, &p, b"gone", b"v", 0, 1);
        let class = h.class;
        let free_before = c.arena.free_chunks(&mut ctx, class).unwrap();
        let hv = crate::hashes::jenkins_hash(b"gone", 0);
        c.unlink_item(&mut ctx, &p, h, hv).unwrap();
        assert_eq!(get(&c, &p, b"gone", 1), None);
        assert_eq!(c.arena.free_chunks(&mut ctx, class).unwrap(), free_before + 1);
    }

    #[test]
    fn eviction_reclaims_lru_tail() {
        let c = core();
        let p = Branch::Baseline.policy();
        // Fill the cache with large values until eviction must occur.
        let value = vec![7u8; 4000];
        for i in 0..200 {
            let key = format!("evict-{i}");
            set(&c, &p, key.as_bytes(), &value, 0, 1);
        }
        let s = c.global.snapshot();
        assert!(s.evictions > 0, "expected evictions, got {s:?}");
        // The most recent key must still be there.
        assert!(get(&c, &p, b"evict-199", 1).is_some());
    }

    #[test]
    fn arith_incr_decr() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        set(&c, &p, b"n", b"41", 0, 1);
        let hv = crate::hashes::jenkins_hash(b"n", 0);
        let r = c.arith(&mut ctx, &p, b"n", hv, 1, true, 1).unwrap();
        assert!(matches!(r, Some(Ok((42, _)))), "got {r:?}");
        let cas1 = r.unwrap().unwrap().1;
        assert_eq!(get(&c, &p, b"n", 1), Some(b"42".to_vec()));
        let r = c.arith(&mut ctx, &p, b"n", hv, 50, false, 1).unwrap();
        assert!(
            matches!(r, Some(Ok((0, _)))),
            "decr saturates at zero like memcached: {r:?}"
        );
        assert!(r.unwrap().unwrap().1 > cas1, "each arith assigns a fresh cas");
        assert_eq!(
            c.arith(&mut ctx, &p, b"nope", hv, 1, true, 1).unwrap(),
            None
        );
        set(&c, &p, b"s", b"abc", 0, 1);
        let hv2 = crate::hashes::jenkins_hash(b"s", 0);
        assert_eq!(
            c.arith(&mut ctx, &p, b"s", hv2, 1, true, 1).unwrap(),
            Some(Err(())),
            "non-numeric value"
        );
    }

    #[test]
    fn update_bumps_lru() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let a = set(&c, &p, b"a", b"v", 0, 1);
        let b = set(&c, &p, b"b", b"v", 0, 1);
        assert_eq!(a.class, b.class);
        let lru = &c.lrus[a.class as usize];
        assert_eq!(lru.tail(&mut ctx).unwrap(), Some(a));
        c.update_item(&mut ctx, &p, a, 2).unwrap();
        assert_eq!(lru.tail(&mut ctx).unwrap(), Some(b));
        assert_eq!(lru.head(&mut ctx).unwrap(), Some(a));
    }

    #[test]
    fn too_large_rejected() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let r = c
            .alloc_item(&mut ctx, &p, b"big", 0, 0, 1 << 20, 1, usize::MAX)
            .unwrap();
        assert_eq!(r, Err(AllocError::TooLarge));
    }

    #[test]
    fn refcounted_item_survives_unlink_until_release() {
        let c = core();
        let p = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let h = set(&c, &p, b"held", b"v", 0, 1);
        let it = c.arena.resolve(h);
        // A reader takes a reference...
        it.ref_incr(&mut ctx, &p).unwrap();
        let hv = crate::hashes::jenkins_hash(b"held", 0);
        c.unlink_item(&mut ctx, &p, h, hv).unwrap();
        // ...chunk not freed yet (reader still holds it).
        assert_eq!(it.flags(&mut ctx).unwrap() & crate::item::ITEM_SLABBED, 0);
        c.item_release(&mut ctx, &p, h).unwrap();
        assert_ne!(it.flags(&mut ctx).unwrap() & crate::item::ITEM_SLABBED, 0);
    }
}
