//! [`McCache`]: the cache façade with one operation driver per branch
//! family — lock-based (Baseline/Semaphore), IP (privatized item locks),
//! and IT (transactional item sections) — plus the two maintenance threads
//! (hash-table expansion and slab rebalancing) and their condition
//! synchronization in both the condvar (Figure 2, left) and semaphore
//! (Figure 2, comments) forms.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lockprof::sync::Condvar;
use lockprof::{ProfiledGuard, ProfiledMutex, Profiler};
use tm::{Abort, Algorithm, ContentionManager, RelaxedPlan, SerialLockMode, StatsSnapshot, TCell, TmRuntime, Transaction};
use tmstd::ByteAccess;

use crate::core::{AllocError, CacheCore, GetHit, LoadEntry};
use crate::ctx::Ctx;
use crate::dur::{self, DurLog, DurSnapshot};
use crate::effect::{Effect, Effects};
use crate::hashes::jenkins_hash;
use crate::item::{ItemHandle, ItemSizes};
use crate::policy::{Branch, Category, ItemMode, Policy, SectionKind};
use crate::sem::Semaphore;
use crate::slabs::SlabConfig;
use crate::stats::{self, GlobalSnapshot, ThreadSnapshot, ThreadStats};

/// Longest accepted key, as in memcached.
pub const KEY_MAX: usize = 250;

/// Drops the recovered entries a load must skip, before it and before any
/// compacted rewrite: those expired at replay, and foreign garbage that
/// still passed its crc (a key no store would take).
fn drop_unloadable(rec: &mut dur::Recovery, unix_now: u64) {
    let mut entries = std::mem::take(&mut rec.entries);
    entries.retain(|e| {
        (e.abs_exp == 0 || e.abs_exp > unix_now) && (1..=KEY_MAX).contains(&rec.key(e).len())
    });
    rec.entries = entries;
}

/// Recovery-time compaction trigger: once the redo log exceeds one
/// segment, it is rewritten as a single sealed segment whenever the live
/// entries account for less than this fraction of the on-disk bytes.
const DUR_COMPACT_RATIO: f64 = 0.5;

/// Cache configuration.
#[derive(Clone, Debug)]
pub struct McConfig {
    /// Which point of the paper's history to run.
    pub branch: Branch,
    /// STM algorithm for the transactional branches (Figure 11).
    pub algorithm: Algorithm,
    /// Contention manager; `None` derives GCC's default (serialize-after-
    /// 100) when the serial lock is present, and no-CM otherwise.
    pub contention: Option<ContentionManager>,
    /// Slab geometry.
    pub slab: SlabConfig,
    /// Initial hash power (2^n buckets).
    pub hash_power: u32,
    /// Maximum hash power the table can expand to.
    pub hash_power_max: u32,
    /// Item-lock stripes (2^n).
    pub item_lock_power: u32,
    /// Number of worker slots (per-thread stats blocks).
    pub workers: usize,
    /// Verbose logging (the `fprintf(stderr, ...)` serialization site).
    pub verbose: bool,
    /// Bump an item's LRU position on every Nth get per worker — the
    /// compressed model of memcached's 60-second `item_update` rule.
    pub lru_bump_every: u64,
    /// Run the two maintenance threads.
    pub maintenance: bool,
    /// §5 future-work optimization: on IT branches, replace the get path's
    /// refcount incr/decr pair with a plain transactional read (valid
    /// because the whole get is one atomic transaction). Ignored on lock
    /// and IP branches, where privatized readers still need real
    /// reference counts.
    pub refcount_elision: bool,
    /// Per-worker slab-magazine capacity, in chunks per size class; 0
    /// disables the magazines (the default, which keeps the Tables 1–4
    /// serialization profile bit-identical). When set on an IT branch,
    /// each worker keeps a private cache of free chunks restocked and
    /// drained in short dedicated transactions, so a steady-state SET
    /// stops transactionally touching the global per-class free lists:
    /// allocation becomes a private pop, and the whole store (header,
    /// value, link, stats) collapses into one transaction. Ignored on
    /// lock and IP branches.
    pub magazine: usize,
    /// Compile shim for the frozen `benchmark/` package: the STM's commit
    /// clock is one word, so 1 (the default) is the only value
    /// [`McCache::start`] accepts. Delete with the next benchmark PR.
    #[doc(hidden)]
    pub clock_shards: usize,
    /// Directory for the commit-time redo log (DESIGN §14). `None` (the
    /// default) disables durability entirely — no hook, no handler, no
    /// cost on the commit path. When set, startup replays any surviving
    /// segments before the cache accepts operations.
    pub dur_path: Option<std::path::PathBuf>,
    /// When the redo-log writer calls `fdatasync`; ignored without
    /// [`McConfig::dur_path`].
    pub dur_fsync: crate::dur::DurFsync,
    /// Redo-log segment size: the writer rotates to a fresh segment file
    /// before exceeding this many bytes.
    pub dur_segment_bytes: u64,
}

impl Default for McConfig {
    fn default() -> Self {
        McConfig {
            branch: Branch::Baseline,
            algorithm: Algorithm::Eager,
            contention: None,
            slab: SlabConfig::default(),
            hash_power: 12,
            hash_power_max: 17,
            item_lock_power: 8,
            workers: 4,
            verbose: false,
            lru_bump_every: 8,
            maintenance: true,
            refcount_elision: false,
            magazine: 0,
            clock_shards: 1,
            dur_path: None,
            dur_fsync: crate::dur::DurFsync::EveryN(32),
            dur_segment_bytes: 4 << 20,
        }
    }
}

/// A returned value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GetValue {
    /// The stored bytes.
    pub data: Vec<u8>,
    /// Client flags.
    pub flags: u32,
    /// CAS id.
    pub cas: u64,
    /// Expiry in [`McCache::rel_time`] seconds (0 = never).
    pub exp: u32,
}

/// Store command flavors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreMode {
    /// Unconditional store.
    Set,
    /// Store only if absent.
    Add,
    /// Store only if present.
    Replace,
    /// Store only if present with this CAS id.
    Cas(u64),
}

/// Store command outcomes (the memcached protocol's reply set).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreStatus {
    /// `STORED`.
    Stored,
    /// `NOT_STORED` (failed `add`/`replace` predicate).
    NotStored,
    /// `EXISTS` (CAS mismatch).
    Exists,
    /// `NOT_FOUND` (CAS on a missing key).
    NotFound,
    /// `SERVER_ERROR object too large for cache`.
    TooLarge,
    /// `SERVER_ERROR out of memory storing object`.
    OutOfMemory,
}

/// One operation of a [`McCache::store_batch`] call.
#[derive(Clone, Copy, Debug)]
pub struct StoreOp<'a> {
    /// Store flavor + predicate.
    pub mode: StoreMode,
    /// Key bytes.
    pub key: &'a [u8],
    /// Value bytes.
    pub value: &'a [u8],
    /// Client flags.
    pub flags: u32,
    /// Expiry time.
    pub exptime: u32,
}

/// Outcome of `incr`/`decr`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ArithStatus {
    /// New value.
    Ok(u64),
    /// `NOT_FOUND`.
    NotFound,
    /// `CLIENT_ERROR cannot increment or decrement non-numeric value`.
    NonNumeric,
}

/// One worker's private chunk cache: a row of free handles per slab
/// class, each row sized to the configured magazine capacity at start so
/// steady-state pops and pushes never touch the heap. Chunks held here
/// are invisible to the allocator and the rebalancer — `free_count` and
/// `page_free` were decremented when the refill popped them — and only
/// become shared again via a flush or a committed link.
#[derive(Debug, Default)]
struct Magazine {
    rows: Vec<Vec<ItemHandle>>,
}

/// Padded to a cache-line pair so adjacent workers' stat blocks, op
/// counters, and magazine state never false-share (128 bytes covers the
/// adjacent-line prefetcher on x86).
#[repr(align(128))]
struct WorkerSlot {
    lock: ProfiledMutex<()>,
    stats: ThreadStats,
    op_count: AtomicU64,
    magazine: Mutex<Magazine>,
}

// Layout guard (see crates/tm/tests/layout_guard.rs for the STM twins):
// worker slots must start on — and occupy whole multiples of — the padded
// 128-byte boundary, or adjacent workers' stat counters false-share again.
const _: () = assert!(std::mem::align_of::<WorkerSlot>() == 128, "WorkerSlot must keep its 128-byte alignment");
const _: () = assert!(std::mem::size_of::<WorkerSlot>() % 128 == 0, "WorkerSlot must fill whole 128-byte units");

/// The cache. Create with [`McCache::start`]; share via the returned
/// [`Arc`]; maintenance threads stop when [`McCache::shutdown`] runs (also
/// called on drop of the handle returned by `start`).
pub struct McCache {
    cfg: McConfig,
    policy: Policy,
    rt: TmRuntime,
    core: CacheCore,
    profiler: Profiler,
    start_time: Instant,
    /// The redo log, reachable only as the subscriber of [`Effect`]s (plus
    /// recovery attach and stats).
    fx: Effects,
    // Lock-branch locks, in the §3.1 order: item, cache, slabs, stats.
    cache_lock: ProfiledMutex<()>,
    slabs_lock: ProfiledMutex<()>,
    stats_lock: ProfiledMutex<()>,
    rebalance_mutex: ProfiledMutex<()>,
    // Condition synchronization, both forms.
    assoc_cv: Condvar,
    slab_cv: Condvar,
    assoc_sem: Semaphore,
    slab_sem: Semaphore,
    workers: Vec<WorkerSlot>,
    log_lines: AtomicU64,
    shutdown: AtomicBool,
    // Robustness telemetry: panics caught at the two supervision
    // boundaries (per-request guards in `proto`, maintenance respawn).
    request_panics: AtomicU64,
    maintenance_panics: AtomicU64,
    // Traps that make the next request / maintenance wakeup panic
    // deliberately (see the `trip_*` methods). The request trap is built
    // only for `proto`'s unit tests: `proto::run` would otherwise swap it
    // on every run of every worker.
    #[cfg(test)]
    request_panic_trap: AtomicBool,
    assoc_panic_trap: AtomicBool,
    slab_panic_trap: AtomicBool,
}

impl std::fmt::Debug for McCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("McCache")
            .field("branch", &self.cfg.branch.to_string())
            .field("algorithm", &self.cfg.algorithm)
            .finish_non_exhaustive()
    }
}

/// Owns the maintenance threads; shuts the cache down on drop.
#[derive(Debug)]
pub struct McHandle {
    cache: Arc<McCache>,
    threads: Vec<JoinHandle<()>>,
}

impl McHandle {
    /// The shared cache.
    pub fn cache(&self) -> &Arc<McCache> {
        &self.cache
    }
}

impl std::ops::Deref for McHandle {
    type Target = McCache;
    fn deref(&self) -> &McCache {
        &self.cache
    }
}

impl Drop for McHandle {
    fn drop(&mut self) {
        self.cache.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Aggregated statistics for `stats`-style reporting.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Global counters.
    pub global: GlobalSnapshot,
    /// Sum of per-thread counters.
    pub threads: ThreadSnapshot,
    /// Verbose log lines emitted.
    pub log_lines: u64,
    /// Request panics converted to error responses.
    pub request_panics: u64,
    /// Maintenance-thread panics recovered by respawn.
    pub maintenance_panics: u64,
    /// The slab pool's size, `mem_limit` (memcached's `limit_maxbytes`).
    pub limit_maxbytes: u64,
    /// Pool bytes claimed by size classes, a page at a time (memcached's
    /// `total_malloced`): the slab memory the cache has committed.
    pub total_malloced: u64,
    /// Compile shim for the frozen `benchmark/` package, which reads this
    /// field: there is no privatized GET path, so it is always 0. Delete
    /// with the next benchmark PR.
    #[doc(hidden)]
    pub hot_hits: u64,
}

/// What a critical section's body touches, which decides how each branch
/// family runs it (§3.1, §3.3).
enum Scope<'a> {
    /// One item's data, under that key's [`ItemGuard`]: direct on the lock
    /// branches and on IP (privatized while the item lock is held), a
    /// transaction on IT.
    Item,
    /// [`Scope::Item`] for a body that expects to stay read-only: IT
    /// enters through the read-only fast lane.
    ItemRead,
    /// Data the lock branches guard with these locks, taken in order:
    /// direct under them there, a transaction on IP and IT.
    Table(&'a [&'a ProfiledMutex<()>]),
}

/// Runs `f` holding every lock of `locks`, acquired left to right.
fn with_locks<R>(locks: &[&ProfiledMutex<()>], f: impl FnOnce() -> R) -> R {
    match locks {
        [] => f(),
        [first, rest @ ..] => {
            let _g = first.lock();
            with_locks(rest, f)
        }
    }
}

/// A key's item lock in the branch's form — striped mutex, IP's
/// lock/unlock mini-transaction pair (Figure 1a's `tm_lock`), or nothing
/// on IT — held for exactly as long as the guard lives. Release on drop
/// means a request that panics mid-section (and is answered
/// `SERVER_ERROR` by the per-request guard) cannot leave its stripe
/// locked for every later request.
pub(crate) enum ItemGuard<'a> {
    /// Lock branches.
    Mutex(#[allow(dead_code)] ProfiledGuard<'a, ()>),
    /// IP: the stripe's boolean is `true` until drop.
    Tx(&'a McCache, usize),
    /// IT: item sections are transactions.
    None,
}

impl<'a> ItemGuard<'a> {
    pub(crate) fn new(cache: &'a McCache, stripe: usize) -> Self {
        match cache.policy.item_mode {
            ItemMode::Lock => ItemGuard::Mutex(cache.core.item_locks.mutex(stripe).lock()),
            ItemMode::Privatize => {
                cache.ip_item_lock(stripe);
                ItemGuard::Tx(cache, stripe)
            }
            ItemMode::Transactional => ItemGuard::None,
        }
    }
}

impl Drop for ItemGuard<'_> {
    fn drop(&mut self) {
        if let ItemGuard::Tx(cache, stripe) = self {
            cache.ip_item_unlock(*stripe);
        }
    }
}

/// The slab rebalance lock in the branch's form — the mutex, or the
/// transactional boolean of §3.1 — held for exactly as long as the guard
/// lives. Release on drop means a rebalance pass that panics (and is
/// re-entered by the supervisor) cannot leave the boolean set and the
/// re-entered loop spinning on it for the rest of the process's life.
enum RebalanceGuard<'a> {
    /// Lock branches.
    Mutex(#[allow(dead_code)] ProfiledGuard<'a, ()>),
    /// Transactional branches: `arena.rebalance_lock` is 1 until drop.
    Tx(&'a McCache),
}

impl<'a> RebalanceGuard<'a> {
    /// A trylock spin with the paper's `pthread_yield` fallback; `None`
    /// once the cache shuts down.
    fn acquire(cache: &'a McCache) -> Option<Self> {
        let (core, policy) = (&cache.core, cache.policy);
        loop {
            if !policy.transactional {
                if let Some(g) = cache.rebalance_mutex.try_lock() {
                    return Some(RebalanceGuard::Mutex(g));
                }
            } else if cache.section(Scope::Table(&[]), &[Category::VolatileFlag], &[], |ctx| {
                ctx.volatile_read(&policy, core.arena.rebalance_signal.word())?;
                let cell = core.arena.rebalance_lock.word();
                if ctx.get_word(cell)? != 0 {
                    return Ok(false);
                }
                ctx.put_word(cell, 1)?;
                Ok(true)
            }) {
                return Some(RebalanceGuard::Tx(cache));
            }
            if cache.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            std::thread::yield_now();
        }
    }
}

impl Drop for RebalanceGuard<'_> {
    fn drop(&mut self) {
        if let RebalanceGuard::Tx(cache) = self {
            let cell = cache.core.arena.rebalance_lock.word();
            cache.section(Scope::Table(&[]), &[], &[], |ctx| ctx.put_word(cell, 0));
        }
    }
}

/// A private chunk on its way into a link section.
#[derive(Clone, Copy)]
struct Chunk {
    h: ItemHandle,
    /// `Some` while the value (and, for a raw magazine chunk, the header)
    /// is still to be written — by the link section itself.
    fill: Option<ItemSizes>,
}

/// Per-request state and answers of a driver run: on the stack for a run
/// of one, a `Vec` for a batch, so a lone request allocates nothing for
/// them.
pub(crate) enum PerOp<T> {
    One([T; 1]),
    Many(Vec<T>),
}

impl<T> PerOp<T> {
    pub(crate) fn new(mut items: impl ExactSizeIterator<Item = T>) -> Self {
        match items.len() {
            1 => PerOp::One([items.next().expect("one item")]),
            _ => PerOp::Many(items.collect()),
        }
    }

    fn map<U>(self, f: impl FnMut(T) -> U) -> PerOp<U> {
        match self {
            PerOp::One(one) => PerOp::One(one.map(f)),
            PerOp::Many(many) => PerOp::Many(many.into_iter().map(f).collect()),
        }
    }

    fn into_vec(self) -> Vec<T> {
        match self {
            PerOp::One(one) => one.into(),
            PerOp::Many(many) => many,
        }
    }
}

impl<T> std::ops::Deref for PerOp<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        match self {
            PerOp::One(one) => one,
            PerOp::Many(many) => many,
        }
    }
}

impl<T> std::ops::DerefMut for PerOp<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        match self {
            PerOp::One(one) => one,
            PerOp::Many(many) => many,
        }
    }
}

/// One key of a read run: its hash and LRU-bump decision, then what the
/// lookup found.
struct ReadSlot<'k> {
    key: &'k [u8],
    hv: u32,
    bump: bool,
    hit: Option<GetHit>,
}

/// One op of a store run: its hash, its private chunk (or the status that
/// ended it before the link section), its answer, and the dead item an
/// overwrite parked for the worker's magazine.
struct StoreSlot {
    hv: u32,
    chunk: Result<Chunk, StoreStatus>,
    status: StoreStatus,
    reclaimed: Option<ItemHandle>,
}

impl From<AllocError> for StoreStatus {
    fn from(e: AllocError) -> StoreStatus {
        match e {
            AllocError::TooLarge => StoreStatus::TooLarge,
            AllocError::OutOfMemory => StoreStatus::OutOfMemory,
        }
    }
}

impl McCache {
    /// Builds the cache and spawns its maintenance threads.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent configuration (zero workers, more item-lock
    /// stripes than initial hash buckets, or a contention manager that
    /// needs the serial lock on a NoLock branch).
    pub fn start(cfg: McConfig) -> McHandle {
        assert!(cfg.workers > 0, "need at least one worker slot");
        // The expansion migrator locks an old bucket by its item stripe.
        assert!(cfg.item_lock_power <= cfg.hash_power, "item_lock_power must not exceed hash_power");
        assert_eq!(cfg.clock_shards, 1, "the commit clock is one word: clock_shards must be 1");
        let policy = cfg.branch.policy();
        let cm = cfg.contention.unwrap_or(if policy.serial_lock {
            ContentionManager::GCC_DEFAULT
        } else {
            ContentionManager::None
        });
        let rt = TmRuntime::builder()
            .algorithm(cfg.algorithm)
            .contention_manager(cm)
            .serial_lock(if policy.serial_lock {
                SerialLockMode::ReaderWriter
            } else {
                SerialLockMode::None
            })
            .build();
        let profiler = Profiler::new();
        let core = CacheCore::new(
            cfg.slab,
            cfg.hash_power,
            cfg.hash_power_max,
            cfg.item_lock_power,
            &profiler,
        );
        let magazines_on = cfg.magazine > 0 && policy.item_mode == ItemMode::Transactional;
        let workers = (0..cfg.workers)
            .map(|i| WorkerSlot {
                lock: ProfiledMutex::new(&format!("thread_stats[{i}]"), (), &profiler),
                stats: ThreadStats::default(),
                op_count: AtomicU64::new(0),
                magazine: Mutex::new(Magazine {
                    rows: if magazines_on {
                        (0..core.arena.class_count())
                            .map(|_| Vec::with_capacity(cfg.magazine))
                            .collect()
                    } else {
                        Vec::new()
                    },
                }),
            })
            .collect();
        // Unix seconds at `rel_time() == 0`, fixed at start.
        let unix_base = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0)
            .saturating_sub(2);
        let cache = Arc::new(McCache {
            policy,
            rt,
            core,
            cache_lock: ProfiledMutex::new("cache_lock", (), &profiler),
            slabs_lock: ProfiledMutex::new("slabs_lock", (), &profiler),
            stats_lock: ProfiledMutex::new("stats_lock", (), &profiler),
            rebalance_mutex: ProfiledMutex::new("slab_rebalance_lock", (), &profiler),
            assoc_cv: Condvar::new(),
            slab_cv: Condvar::new(),
            assoc_sem: Semaphore::new(),
            slab_sem: Semaphore::new(),
            workers,
            log_lines: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            fx: Effects::new(unix_base),
            request_panics: AtomicU64::new(0),
            maintenance_panics: AtomicU64::new(0),
            #[cfg(test)]
            request_panic_trap: AtomicBool::new(false),
            assoc_panic_trap: AtomicBool::new(false),
            slab_panic_trap: AtomicBool::new(false),
            start_time: Instant::now(),
            profiler,
            cfg,
        });
        // Durability: replay whatever the redo log holds, then attach the
        // writer — strictly in that order, so replayed inserts are not
        // re-logged (idempotent recovery) and everything after this point
        // is. Runs before the maintenance threads and before any caller
        // can reach the wire front end (the TCP server binds only after
        // `start` returns).
        if cache.cfg.dur_path.is_some() {
            cache.recover_and_attach_log();
        }
        let mut threads = Vec::new();
        if cache.cfg.maintenance {
            threads.push(Self::supervised(&cache, McCache::assoc_maintenance_loop));
            threads.push(Self::supervised(&cache, McCache::slab_rebalance_loop));
        }
        McHandle { cache, threads }
    }

    /// Spawns a maintenance loop under a supervisor: a panic unwinding out
    /// of the loop is counted and the loop re-entered, so one bad wakeup
    /// (e.g. an assertion tripped mid-migration) degrades to a lost batch
    /// instead of silently killing hash expansion or slab rebalancing for
    /// the rest of the process's life.
    fn supervised(cache: &Arc<McCache>, body: fn(&McCache)) -> JoinHandle<()> {
        let c = cache.clone();
        std::thread::spawn(move || loop {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&c)));
            if r.is_ok() {
                // The loop only returns on shutdown.
                return;
            }
            c.maintenance_panics.fetch_add(1, Ordering::Relaxed);
            if c.shutdown.load(Ordering::SeqCst) {
                return;
            }
            // Respawn: re-enter the loop body after the panic.
        })
    }

    /// Stops the maintenance threads (idempotent) and seals the redo log
    /// so the next start recovers without the torn-tail heuristic.
    pub fn shutdown(&self) {
        self.fx.seal_log();
        self.shutdown.store(true, Ordering::SeqCst);
        self.assoc_sem.post();
        self.slab_sem.post();
        self.assoc_cv.notify_all();
        self.slab_cv.notify_all();
    }

    /// The active branch.
    pub fn branch(&self) -> Branch {
        self.cfg.branch
    }

    /// Number of registered worker slots — the valid range of the `w`
    /// index every operation takes. The TCP front end sizes its
    /// thread-per-core pool against this so each network worker owns a
    /// distinct slot.
    pub fn worker_slots(&self) -> usize {
        self.workers.len()
    }

    /// The TM runtime's statistics (Tables 1–4 raw material).
    pub fn tm_stats(&self) -> StatsSnapshot {
        self.rt.stats()
    }

    /// The mutrace-style lock contention report (§3.1 methodology).
    pub fn lock_report(&self) -> String {
        self.profiler.report_table()
    }

    /// The lock profiler itself.
    pub fn profiler(&self) -> &Profiler {
        &self.profiler
    }

    /// Aggregated cache statistics.
    pub fn stats(&self) -> CacheStats {
        let mut threads = ThreadSnapshot::default();
        for w in &self.workers {
            threads = threads + w.stats.snapshot();
        }
        let mut global = self.core.global.snapshot();
        // The trimmed read path counts its commands in per-worker shards
        // (see `get_stats_privatized`) instead of touching the shared
        // `cmd_total` cell; fold the shards back in so `cmd_total` keeps
        // meaning "every command ever processed".
        global.cmd_total += threads.cmd_shard;
        CacheStats {
            global,
            threads,
            log_lines: self.log_lines.load(Ordering::Relaxed),
            request_panics: self.request_panics(),
            maintenance_panics: self.maintenance_panics(),
            limit_maxbytes: self.cfg.slab.mem_limit as u64,
            total_malloced: self.core.arena.malloced_bytes(),
            hot_hits: 0,
        }
    }

    /// Cache-relative time in seconds (memcached's `current_time`), offset
    /// so that time 0/1 never collide with "immediately".
    pub fn rel_time(&self) -> u32 {
        self.start_time.elapsed().as_secs() as u32 + 2
    }

    /// Current Unix seconds, derived from the same monotonic clock as
    /// [`McCache::rel_time`] so the two never drift within a run.
    pub fn unix_time(&self) -> u64 {
        self.fx.unix_base() + self.rel_time() as u64
    }

    // ------------------------------------------------------------------
    // Durability: startup recovery (DESIGN §14; the commit-time hook is
    // `effect::Effects::emit`)
    // ------------------------------------------------------------------

    /// Whether the redo log is attached (and not yet failed).
    pub fn dur_enabled(&self) -> bool {
        self.fx.dur_enabled()
    }

    /// Durability counters, `None` when the cache runs without a log.
    pub fn dur_stats(&self) -> Option<DurSnapshot> {
        self.fx.dur_stats()
    }

    /// Startup recovery (DESIGN §14): scan and fold the log directory,
    /// load the live entries straight into the (still-private) cache while
    /// a helper thread compacts the log if it is mostly dead, then attach a
    /// fresh-epoch writer. Any I/O failure here degrades to a cold,
    /// cache-only start with a one-time warning — never a panic.
    fn recover_and_attach_log(&self) {
        let dir = self.cfg.dur_path.clone().expect("caller checked dur_path");
        let unix_now = self.unix_time();
        let mut recovered = 0u64;
        let mut compactions = 0u64;
        let mut torn = 0u64;
        let mut cas_floor = 0u64;
        let mut phases = dur::RecoveryPhases::default();
        match dur::recover(&dir) {
            Err(e) => {
                eprintln!("mcache: redo-log recovery failed ({e}); starting cold");
            }
            Ok(mut rec) => {
                torn = rec.torn_records_dropped;
                cas_floor = rec.cas_floor;
                phases = rec.phases;
                drop_unloadable(&mut rec, unix_now);
                // Compaction: once the log outgrows a segment and most of
                // its bytes are dead, rewrite it as one sealed segment.
                let live: u64 = rec
                    .entries
                    .iter()
                    .map(|e| 64 + rec.key(e).len() as u64 + rec.value(e).len() as u64)
                    .sum();
                let compact = rec.log_bytes >= self.cfg.dur_segment_bytes
                    && (live as f64) < DUR_COMPACT_RATIO * rec.log_bytes as f64;
                // The rewrite only reads `rec` and touches the directory,
                // so it overlaps the load; it is joined before the writer
                // opens, whose epoch must sort after the rewrite's.
                std::thread::scope(|s| {
                    let rewrite = compact.then(|| {
                        s.spawn(|| {
                            let start = Instant::now();
                            (dur::compact(&dir, &rec, unix_now), start.elapsed())
                        })
                    });
                    let start = Instant::now();
                    recovered = self.load_recovered(&rec);
                    phases.load_us = start.elapsed().as_micros() as u64;
                    let rewritten = rewrite.map(|h| h.join().expect("the log compactor panicked"));
                    if let Some((_, took)) = rewritten {
                        phases.compact_us = took.as_micros() as u64;
                    }
                    match rewritten.map(|(done, _)| done) {
                        Some(Ok(_)) => compactions = 1,
                        Some(Err(e)) => {
                            eprintln!("mcache: redo-log compaction failed ({e}); keeping segments");
                        }
                        None => {}
                    }
                });
            }
        }
        release_freed_memory();
        match DurLog::open(&dir, self.cfg.dur_fsync, self.cfg.dur_segment_bytes, cas_floor) {
            Ok(log) => {
                log.note_recovery(recovered, torn, compactions, phases);
                self.fx.attach_log(log);
            }
            Err(e) => {
                eprintln!(
                    "mcache: redo log unavailable ({e}); continuing in cache-only mode"
                );
            }
        }
    }

    /// Loads the recovered entries, oldest first, and returns how many
    /// were stored: [`CacheCore::load`], under [`Ctx::Direct`] on every
    /// branch. `start` spawns the maintenance threads (and returns the
    /// handle any worker needs) only after this, so nothing here is shared
    /// yet and no lock, transaction, log record or command count is owed —
    /// the §3.3 privatization argument, applied to the whole cache.
    fn load_recovered(&self, rec: &dur::Recovery) -> u64 {
        let entry = self.prepare_load(rec);
        self.core.load(&self.policy, rec.entries.len(), self.rel_time(), entry)
    }

    /// The one-thread load [`McCache::load_recovered`] replaced, kept as
    /// its reference.
    #[cfg(test)]
    fn load_recovered_one_by_one(&self, rec: &dur::Recovery) -> u64 {
        let entry = self.prepare_load(rec);
        let n = rec.entries.len();
        crate::core::tests::load_one_by_one(&self.core, &self.policy, n, self.rel_time(), entry)
    }

    /// Raises the CAS floor (every loaded item must take an id strictly
    /// above anything a pre-crash client saw) and presizes the hash table
    /// for `rec`'s entries; returns entry `i` as the load takes it.
    fn prepare_load<'r>(
        &self,
        rec: &'r dur::Recovery,
    ) -> impl Fn(usize) -> LoadEntry<'r> + Sync + use<'_, 'r> {
        let ctx = &mut Ctx::Direct;
        self.core.set_cas_floor(ctx, rec.cas_floor).expect("direct");
        self.core.assoc.presize(ctx, rec.entries.len() as u64).expect("direct");
        let unix_base = self.fx.unix_base();
        move |i| {
            let e = &rec.entries[i];
            let exptime = match e.abs_exp {
                0 => 0,
                abs => abs.saturating_sub(unix_base) as u32,
            };
            LoadEntry { key: rec.key(e), value: rec.value(e), flags: e.flags, exptime }
        }
    }

    /// Requests whose handler panicked and was converted to a
    /// `SERVER_ERROR` / binary internal-error response by the per-request
    /// guard in [`crate::proto`].
    pub fn request_panics(&self) -> u64 {
        self.request_panics.load(Ordering::Relaxed)
    }

    /// Panics caught by the maintenance-thread supervisor (each one means
    /// a loop was re-entered rather than left dead).
    pub fn maintenance_panics(&self) -> u64 {
        self.maintenance_panics.load(Ordering::Relaxed)
    }

    pub(crate) fn note_request_panic(&self) {
        self.request_panics.fetch_add(1, Ordering::Relaxed);
    }

    #[cfg(test)]
    pub(crate) fn take_request_panic_trap(&self) -> bool {
        self.request_panic_trap.swap(false, Ordering::SeqCst)
    }

    /// Makes the next protocol request panic inside its handler (tests the
    /// per-request guard).
    #[cfg(test)]
    pub(crate) fn trip_request_panic(&self) {
        self.request_panic_trap.store(true, Ordering::SeqCst);
    }

    /// Makes the assoc maintenance thread panic at its next wakeup (tests
    /// the supervisor's respawn).
    #[doc(hidden)]
    pub fn trip_assoc_panic(&self) {
        self.assoc_panic_trap.store(true, Ordering::SeqCst);
    }

    /// Makes the slab rebalance thread panic at its next wakeup (tests the
    /// supervisor's respawn).
    #[doc(hidden)]
    pub fn trip_slab_panic(&self) {
        self.slab_panic_trap.store(true, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Section machinery
    // ------------------------------------------------------------------

    /// Runs one critical section the way this branch runs sections of its
    /// [`Scope`]: directly, under the scope's locks, where the data is
    /// still lock-protected or privatized; as a transaction where the paper
    /// replaced the locks. There `entry` lists the unsafe categories
    /// performed unconditionally at the top of the section (start-serial
    /// causes) and `mid` those reachable later (in-flight-switch causes).
    ///
    /// A [`Scope::ItemRead`] transaction enters through the runtime's
    /// read-only fast lane (`atomic_ro` / `relaxed_ro`), so a GET that
    /// never writes commits without ever touching an orec or a log. A
    /// write mid-section (cold ITEM_FETCHED, refcounting without elision,
    /// LRU timestamp) promotes the attempt in flight — same semantics, just
    /// without the fast-lane discount. Sections whose policy forces serial
    /// mode take the ordinary serial path; the hint is meaningless there.
    fn section<'e, R>(
        &'e self,
        scope: Scope<'_>,
        entry: &[Category],
        mid: &[Category],
        mut f: impl FnMut(&mut Ctx<'_, 'e>) -> Result<R, Abort>,
    ) -> R {
        let it_mode = self.policy.item_mode == ItemMode::Transactional;
        let direct_under = match scope {
            Scope::Item | Scope::ItemRead if !it_mode => Some(&[][..]),
            Scope::Table(locks) if !self.policy.transactional => Some(locks),
            _ => None,
        };
        if let Some(locks) = direct_under {
            return with_locks(locks, || f(&mut Ctx::Direct).expect("direct sections never abort"));
        }
        let ro = matches!(scope, Scope::ItemRead);
        let rt = &self.rt;
        match self.policy.section_kind(entry, mid) {
            SectionKind::Atomic if ro => rt.atomic_ro(|tx| f(&mut Ctx::Atomic(tx))),
            SectionKind::Atomic => rt.atomic(|tx| f(&mut Ctx::Atomic(tx))),
            SectionKind::Relaxed if ro => {
                rt.relaxed_ro(RelaxedPlan::new(), |tx| f(&mut Ctx::Relaxed(tx)))
            }
            SectionKind::Relaxed => rt.relaxed(RelaxedPlan::new(), |tx| f(&mut Ctx::Relaxed(tx))),
            SectionKind::RelaxedSerial => {
                rt.relaxed(RelaxedPlan::serial(), |tx| f(&mut Ctx::Relaxed(tx)))
            }
        }
    }

    /// Reports `effect` on `key` to the redo log, from inside the section
    /// that caused it ([`Effects::emit`]).
    fn emit<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        key: &[u8],
        effect: Effect<'_>,
    ) -> Result<(), Abort> {
        self.fx.emit(ctx, &self.core, &self.rt, key, effect)
    }

    /// IP's item-lock acquire: a mini-transaction spinning on a boolean
    /// (Figure 1a's `tm_lock`). Only [`ItemGuard::new`] calls it.
    fn ip_item_lock(&self, stripe: usize) {
        let cell = self.core.item_locks.cell(stripe);
        loop {
            let got = self.rt.atomic(|tx| {
                if tx.read(cell)? {
                    Ok(false)
                } else {
                    tx.write(cell, true)?;
                    Ok(true)
                }
            });
            if got {
                return;
            }
            std::thread::yield_now();
        }
    }

    /// IP's item-lock release mini-transaction (a single-location
    /// transaction expression, which GCC — and this runtime — does not
    /// optimize; §3.3 flags the cost). Only [`ItemGuard`]'s drop calls it.
    fn ip_item_unlock(&self, stripe: usize) {
        self.rt.expr_write(self.core.item_locks.cell(stripe), false);
    }

    /// Verbose logging inside a section: `fprintf(stderr, ...)` guarded by
    /// the verbose flag — unsafe pre-onCommit, a commit handler after.
    fn maybe_log<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<(), Abort> {
        if !self.cfg.verbose {
            return Ok(());
        }
        let sink = &self.log_lines;
        ctx.side_effect(&self.policy, Category::LogIo, move || {
            sink.fetch_add(1, Ordering::Relaxed);
        })
    }

    /// Wakes a maintenance thread from inside a section: condvar signal in
    /// Baseline (Figure 2 left), `sem_post` after — unsafe pre-onCommit,
    /// then deferred to an onCommit handler.
    fn signal_maintenance<'e>(&'e self, ctx: &mut Ctx<'_, 'e>, slab: bool) -> Result<(), Abort> {
        ctx.fetch_add_word(self.core.global.maintenance_signals.word(), 1)?;
        if !self.policy.semaphores {
            // Baseline: cond_signal while holding the lock.
            debug_assert!(!ctx.in_transaction());
            if slab {
                self.slab_cv.notify_one();
            } else {
                self.assoc_cv.notify_one();
            }
            return Ok(());
        }
        let sem = if slab { &self.slab_sem } else { &self.assoc_sem };
        ctx.side_effect(&self.policy, Category::SemPost, move || sem.post())
    }

    /// A maintenance wakeup as its own section, whose entry *is* the
    /// `sem_post`: how IT hoists the wakeup out of its (already large)
    /// store transaction, and how every branch delivers the one an
    /// out-of-memory allocation raised.
    fn wake(&self, slab: bool) {
        self.section(Scope::Table(&[]), &[Category::SemPost], &[], |ctx| {
            self.signal_maintenance(ctx, slab)
        });
    }

    /// Counts one command inside the caller's own transaction: the
    /// per-thread `cells`, then the global `cmd_total`. IT enlarges
    /// critical sections (the Figure-3 observation: "using TM will
    /// encourage programmers to enlarge critical sections"), so its item
    /// transactions fold the stats updates in.
    fn count_inline<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        cells: &[&'e TCell<u64>],
    ) -> Result<(), Abort> {
        let g = &self.core.global;
        for cell in cells {
            stats::bump(ctx, cell)?;
        }
        stats::bump(ctx, &g.cmd_total)
    }

    /// Counts one command as its own two sections: worker `w`'s `cells`
    /// under the per-thread lock, then the global `cmd_total` under
    /// `stats_lock` — the §3.1 contended lock. On the transactional
    /// branches both locks became mini-transactions.
    fn count_op<'e>(&'e self, w: usize, cells: &[&'e TCell<u64>]) {
        let g = &self.core.global;
        if !cells.is_empty() {
            self.section(Scope::Table(&[&self.workers[w].lock]), &[], &[], |ctx| {
                cells.iter().try_for_each(|cell| stats::bump(ctx, cell))
            });
        }
        self.section(Scope::Table(&[&self.stats_lock]), &[], &[], |ctx| stats::bump(ctx, &g.cmd_total));
    }

    /// GET-path stats by privatization: the per-thread block is only ever
    /// written by its owning worker, so — by the same argument IP makes for
    /// privatized item data (§3.3) — the trimmed read path updates it
    /// directly, outside the transaction, after the section ends. The
    /// global command counter becomes a per-worker shard (`cmd_shard`)
    /// folded back together at snapshot time, which keeps both the §3.1
    /// `stats_lock` hot spot and any shared stats word out of the
    /// read-only fast lane entirely.
    fn get_stats_privatized(&self, w: usize, hits: u64, misses: u64) {
        let slot = &self.workers[w];
        let _g = slot.lock.lock();
        let mut ctx = Ctx::Direct;
        for (cell, n) in [
            (&slot.stats.get_cmds, hits + misses),
            (&slot.stats.get_hits, hits),
            (&slot.stats.get_misses, misses),
            (&slot.stats.cmd_shard, hits + misses),
        ] {
            if n != 0 {
                let v = ctx.get_word(cell.word()).expect("direct");
                ctx.put_word(cell.word(), v + n).expect("direct");
            }
        }
    }

    // ------------------------------------------------------------------
    // Client operations
    // ------------------------------------------------------------------

    /// `get key`: [`Self::get_multi`] with one key.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a valid worker slot or the key exceeds
    /// [`KEY_MAX`].
    pub fn get(&self, w: usize, key: &[u8]) -> Option<GetValue> {
        self.read_run(w, &[key])[0].take()
    }

    /// Multiget: `get k1 k2 ... kn`, the one read driver behind every get.
    /// On IT the whole run is ONE read-only fast-lane transaction — one
    /// begin, one snapshot to extend, one commit fence for n lookups —
    /// which is where batching pays: the per-transaction overhead the
    /// paper measures on the GET path is amortized across the run, and a
    /// lone [`Self::get`] is its n = 1 case. Lock and IP branches run the
    /// same body once per key, under that key's item lock: striped item
    /// locks cannot be held jointly without an order, and memcached's real
    /// multiget re-acquires per key anyway.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a valid worker slot or any key exceeds
    /// [`KEY_MAX`].
    pub fn get_multi(&self, w: usize, keys: &[&[u8]]) -> Vec<Option<GetValue>> {
        self.read_run(w, keys).into_vec()
    }

    /// The read driver of [`Self::get_multi`], which [`Self::get`] and the
    /// protocol executor call directly, so a run of one keeps its answer on
    /// the stack: hash walk, key memcmp, refcount bump, value copy per key.
    /// On IT it is the trimmed GET of the read-path overdrive — stats moved
    /// out (see `get_stats_privatized`), so with refcount elision a warm
    /// hit never writes and the run commits on the read-only fast lane.
    pub(crate) fn read_run(&self, w: usize, keys: &[&[u8]]) -> PerOp<Option<GetValue>> {
        let now = self.rel_time();
        let (core, policy) = (&self.core, self.policy);
        let it_mode = policy.item_mode == ItemMode::Transactional;
        let (elide, cadence) = (it_mode && self.cfg.refcount_elision, self.cfg.lru_bump_every);
        // Hash + LRU-bump decisions are per-key and side-effecting
        // (op_count advances), so take them once, outside the retry loop.
        // Bumping every Nth get models memcached's 60-second `item_update`
        // rate limit: wall-clock seconds barely advance in a benchmark run.
        let mut slots = PerOp::new(keys.iter().map(|&key| {
            assert!(key.len() <= KEY_MAX && !key.is_empty(), "bad key length");
            let ops = self.workers[w].op_count.fetch_add(1, Ordering::Relaxed);
            let bump = cadence != 0 && ops.is_multiple_of(cadence);
            ReadSlot { key, hv: jenkins_hash(key, 0), bump, hit: None }
        }));
        let per_section = if it_mode { slots.len().max(1) } else { 1 };
        for run in slots.chunks_mut(per_section) {
            // A no-op on IT, where the section itself is the item lock.
            let guard = ItemGuard::new(self, core.item_locks.stripe(run[0].hv));
            self.section(
                Scope::ItemRead,
                &[Category::VolatileFlag],
                &[Category::Libc, Category::RefcountRmw, Category::LogIo, Category::AssertAbort],
                |ctx| {
                    for s in run.iter_mut() {
                        s.hit = core.item_get(ctx, &policy, s.key, s.hv, now, elide)?;
                    }
                    self.maybe_log(ctx)
                },
            );
            for s in run.iter() {
                if let (true, Some(h)) = (s.bump, &s.hit) {
                    self.update_section(s.key, s.hv, h.handle, now);
                }
            }
            drop(guard);
            if !it_mode {
                let t = &self.workers[w].stats;
                let outcome = if run[0].hit.is_some() { &t.get_hits } else { &t.get_misses };
                self.count_op(w, &[&t.get_cmds, outcome]);
            }
        }
        if it_mode {
            let hits = slots.iter().filter(|s| s.hit.is_some()).count() as u64;
            self.get_stats_privatized(w, hits, slots.len() as u64 - hits);
        }
        slots.map(|s| s.hit.map(|h| GetValue { data: h.value, flags: h.flags, cas: h.cas, exp: h.exp }))
    }

    /// The `item_update` critical section (cache-lock category): re-finds
    /// the item by key — it may have been evicted since the lookup — and
    /// bumps its LRU position. The section starts with safe pointer work;
    /// the re-find's `memcmp` is a mid-transaction libc call until Lib, so
    /// this is the in-flight-switch site of Tables 1–2.
    fn update_section(&self, key: &[u8], hv: u32, h: ItemHandle, now: u32) {
        let (core, policy) = (&self.core, self.policy);
        self.section(
            Scope::Table(&[&self.cache_lock]),
            &[],
            &[Category::Libc, Category::AssertAbort],
            |ctx| {
                if core.assoc.find(ctx, &policy, &core.arena, key, hv)? == Some(h) {
                    core.update_item(ctx, &policy, h, now)?;
                }
                Ok(())
            },
        );
    }

    /// `set key`.
    pub fn set(&self, w: usize, key: &[u8], value: &[u8], flags: u32, exptime: u32) -> StoreStatus {
        self.store_run(w, &[StoreOp { mode: StoreMode::Set, key, value, flags, exptime }])[0]
    }

    /// `add key` (store only if absent).
    pub fn add(&self, w: usize, key: &[u8], value: &[u8], flags: u32, exptime: u32) -> StoreStatus {
        self.store_run(w, &[StoreOp { mode: StoreMode::Add, key, value, flags, exptime }])[0]
    }

    /// `replace key` (store only if present).
    pub fn replace(
        &self,
        w: usize,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
    ) -> StoreStatus {
        self.store_run(w, &[StoreOp { mode: StoreMode::Replace, key, value, flags, exptime }])[0]
    }

    /// `cas key` (store only if unchanged since `cas_id`).
    pub fn cas(
        &self,
        w: usize,
        key: &[u8],
        value: &[u8],
        flags: u32,
        exptime: u32,
        cas_id: u64,
    ) -> StoreStatus {
        self.store_run(w, &[StoreOp { mode: StoreMode::Cas(cas_id), key, value, flags, exptime }])[0]
    }

    /// `append key`: concatenate after the existing value (get + CAS loop,
    /// as a client library would retry).
    pub fn append(&self, w: usize, key: &[u8], tail: &[u8]) -> StoreStatus {
        self.concat(w, key, tail, true)
    }

    /// `prepend key`: concatenate before the existing value.
    pub fn prepend(&self, w: usize, key: &[u8], head: &[u8]) -> StoreStatus {
        self.concat(w, key, head, false)
    }

    fn concat(&self, w: usize, key: &[u8], extra: &[u8], after: bool) -> StoreStatus {
        for _ in 0..16 {
            let Some(old) = self.get(w, key) else {
                return StoreStatus::NotStored;
            };
            let (head, tail) = if after { (&old.data[..], extra) } else { (extra, &old.data[..]) };
            let data = [head, tail].concat();
            // Flags and expiry are the original item's, as in memcached.
            let (flags, exptime) = (old.flags, old.exp);
            match self.store_run(w, &[StoreOp { mode: StoreMode::Cas(old.cas), key, value: &data, flags, exptime }])[0] {
                StoreStatus::Exists => continue, // raced; retry
                s => return s,
            }
        }
        StoreStatus::NotStored
    }

    /// The store as memcached sections it, under the key's item guard:
    /// allocate (the merged cache+slabs section of §3.1's lock-order fix),
    /// fill the value, link. Lock branches run all three directly; IP
    /// privatizes the fill; IT makes each one a transaction — the
    /// 3-transaction store Tables 1–4 count.
    fn store_sections(&self, w: usize, op: &StoreOp<'_>) -> StoreStatus {
        let (core, policy) = (&self.core, self.policy);
        let it_mode = policy.item_mode == ItemMode::Transactional;
        let (hv, now) = (jenkins_hash(op.key, 0), self.rel_time());
        let stripe = core.item_locks.stripe(hv);
        let _guard = ItemGuard::new(self, stripe);
        let h = match self.alloc_section(op, now, if it_mode { usize::MAX } else { stripe }) {
            Ok(h) => h,
            Err(e) => return e.into(),
        };
        // On IT the fill *begins* with the value memcpy — libc on every
        // path, so this section starts serial until Lib (IT-Max's
        // persistent "Start Serial" column).
        self.section(Scope::Item, &[Category::Libc], &[Category::AssertAbort], |ctx| {
            let it = core.arena.resolve(h);
            let sizes = it.sizes(ctx)?;
            it.write_value(ctx, &policy, sizes, op.value)
        });
        // IP signals the maintainer from inside the link section; IT
        // hoists that out and drops the allocation reference inside.
        let tail = if it_mode { Category::RefcountRmw } else { Category::SemPost };
        let (st, signal) = self.section(
            Scope::Table(&[&self.cache_lock]),
            &[Category::VolatileFlag],
            &[Category::Libc, tail, Category::LogIo, Category::AssertAbort],
            |ctx| {
                core.assoc.is_expanding(ctx, &policy)?; // memcached's volatile `expanding` read
                self.link_body(ctx, w, op, hv, now, Chunk { h, fill: None }, None)
            },
        );
        if !it_mode {
            // Still under the item lock: the allocation reference.
            self.section(Scope::Item, &[], &[], |ctx| core.item_release(ctx, &policy, h));
        }
        if signal {
            self.wake(false);
        }
        st
    }

    /// Batched stores: a run of pipelined mutations (quiet binary SETQ
    /// bursts, multi-command ASCII buffers), through the one store driver
    /// behind every store. On IT a run commits as ONE link transaction —
    /// one begin, one commit fence for n stores — amortizing the
    /// per-transaction overhead exactly like [`Self::get_multi`] does on
    /// the read path, with allocation hoisted out front: a magazine pop per
    /// op, or one slab section per op without magazines. With magazines
    /// on, a lone store is its n = 1 case. Lock and IP branches store op by
    /// op under their item locks, and so does a lone IT store without
    /// magazines: the 3-transaction store Tables 1–4 count.
    ///
    /// With magazines the run is the write path's mutation fast lane:
    /// allocation is a private pop from the worker's chunk cache (no
    /// transaction, no shared free list), and header, key, suffix, value,
    /// link, and stats all commit in the one transaction. Every
    /// shared-memory write stays instrumented: a magazine chunk's privacy
    /// is an *accounting* fact, not a license for direct writes —
    /// scribbling a previously-linked chunk uninstrumented would let a
    /// stale invisible reader (whose read-only commit skips final
    /// validation) return post-snapshot bytes undetected. A dead
    /// overwritten item is parked in limbo by `link_new_tx` and merged into
    /// the magazine after commit, so overwrite-heavy workloads recycle
    /// chunks entirely within the worker.
    ///
    /// # Panics
    ///
    /// Panics if `w` is not a valid worker slot or any key exceeds
    /// [`KEY_MAX`].
    pub fn store_batch(&self, w: usize, ops: &[StoreOp<'_>]) -> Vec<StoreStatus> {
        self.store_run(w, ops).into_vec()
    }

    /// The store driver of [`Self::store_batch`], which `set`, `add`,
    /// `replace`, `cas` and the protocol executor call directly: a run's
    /// answers stay on the stack when it has one op.
    pub(crate) fn store_run(&self, w: usize, ops: &[StoreOp<'_>]) -> PerOp<StoreStatus> {
        for op in ops {
            assert!(op.key.len() <= KEY_MAX && !op.key.is_empty(), "bad key length");
        }
        let it_mode = self.policy.item_mode == ItemMode::Transactional;
        let mags = self.magazines_on();
        if !it_mode || (ops.len() < 2 && !mags) {
            // Op by op, each followed by the wakeup an out-of-memory
            // allocation raised (a `sem_post` site like any other) and the
            // command count that did not ride a link transaction.
            return PerOp::new(ops.iter().map(|op| {
                let status = self.store_sections(w, op);
                if status == StoreStatus::OutOfMemory {
                    self.wake(true);
                }
                if !it_mode || matches!(status, StoreStatus::TooLarge | StoreStatus::OutOfMemory) {
                    self.count_op(w, &[&self.workers[w].stats.set_cmds]);
                }
                status
            }));
        }
        let core = &self.core;
        let now = self.rel_time();
        // Per-op prep (hash, sizing, one private chunk each) runs once; the
        // link transaction below may retry, so it must not re-allocate.
        let mut slots = PerOp::new(ops.iter().map(|op| {
            let chunk = match core.size_item(op.key, op.flags, op.value.len() as u32) {
                None => Err(StoreStatus::TooLarge),
                // An empty magazine whose refill found nothing raised the
                // rebalance signal; the wakeup is delivered below.
                Some((sizes, class)) if mags => self
                    .magazine_take(w, class)
                    .map(|h| Chunk { h, fill: Some(sizes) })
                    .ok_or(StoreStatus::OutOfMemory),
                Some((sizes, _)) => match self.alloc_section(op, now, usize::MAX) {
                    Ok(h) => Ok(Chunk { h, fill: Some(sizes) }),
                    Err(e) => Err(e.into()),
                },
            };
            let status = chunk.err().unwrap_or(StoreStatus::Stored);
            StoreSlot { hv: jenkins_hash(op.key, 0), chunk, status, reclaimed: None }
        }));
        let mut any_signal = false;
        if slots.iter().any(|s| s.chunk.is_ok()) {
            self.section(
                Scope::Item,
                &[Category::VolatileFlag, Category::Libc],
                &[Category::RefcountRmw, Category::LogIo, Category::AssertAbort],
                |ctx| {
                    // Attempt-local: an abort rolls every park back.
                    any_signal = false;
                    core.assoc.is_expanding(ctx, &self.policy)?;
                    for (op, s) in ops.iter().zip(slots.iter_mut()) {
                        s.reclaimed = None;
                        if let Ok(chunk) = s.chunk {
                            let reclaim = mags.then_some(&mut s.reclaimed);
                            let signal;
                            (s.status, signal) = self.link_body(ctx, w, op, s.hv, now, chunk, reclaim)?;
                            any_signal |= signal;
                        }
                    }
                    Ok(())
                },
            );
        }
        for s in slots.iter() {
            if let (true, Ok(chunk), false) = (mags, s.chunk, s.status == StoreStatus::Stored) {
                // Failed predicate: never published, so still private —
                // straight back into the magazine, no slab-free transaction.
                self.magazine_put(w, chunk.h);
            }
        }
        for old in slots.iter().filter_map(|s| s.reclaimed) {
            self.magazine_put(w, old);
        }
        if any_signal {
            self.wake(false);
        }
        if slots.iter().any(|s| s.status == StoreStatus::OutOfMemory) {
            self.wake(true);
        }
        for s in slots.iter() {
            if matches!(s.status, StoreStatus::TooLarge | StoreStatus::OutOfMemory) {
                self.count_op(w, &[&self.workers[w].stats.set_cmds]);
            }
        }
        slots.map(|s| s.status)
    }

    /// The merged cache+slabs allocation section (§3.1's lock-order fix).
    /// Entry reads the `volatile` slab rebalance signal; eviction reads
    /// victim refcounts and the suffix `snprintf` is libc — the in-flight
    /// causes pre-Max/pre-Lib. `held_stripe` is the caller's item lock, for
    /// the trylock on victims.
    fn alloc_section(
        &self,
        op: &StoreOp<'_>,
        now: u32,
        held_stripe: usize,
    ) -> Result<ItemHandle, AllocError> {
        let (core, policy) = (&self.core, self.policy);
        let nbytes = op.value.len() as u32;
        self.section(
            Scope::Table(&[&self.cache_lock, &self.slabs_lock]),
            &[Category::VolatileFlag],
            &[Category::Libc, Category::RefcountRmw, Category::AssertAbort],
            |ctx| {
                ctx.volatile_read(&policy, core.arena.rebalance_signal.word())?;
                core.alloc_item(
                    ctx,
                    &policy,
                    op.key,
                    op.flags,
                    op.exptime,
                    nbytes,
                    now,
                    held_stripe,
                )
            },
        )
    }

    // ------------------------------------------------------------------
    // Per-worker slab magazines (the mutation fast lane's allocator)
    // ------------------------------------------------------------------

    /// Whether per-worker slab magazines are active: an IT branch with a
    /// nonzero [`McConfig::magazine`].
    pub fn magazines_on(&self) -> bool {
        self.cfg.magazine > 0 && self.policy.item_mode == ItemMode::Transactional
    }

    /// Pops a chunk of `class` from worker `w`'s magazine, refilling from
    /// the arena when the row is empty. `None` means even eviction and a
    /// global magazine flush could not produce a chunk — genuine memory
    /// exhaustion (the rebalance signal has been raised by then).
    fn magazine_take(&self, w: usize, class: u8) -> Option<ItemHandle> {
        if let Some(h) = self.workers[w].magazine.lock().unwrap().rows[class as usize].pop() {
            return Some(h);
        }
        self.magazine_refill(w, class)
    }

    /// Restocks worker `w`'s magazine for `class` with ONE short dedicated
    /// transaction: a batched freelist pop that also absorbs any eviction
    /// write-backs, so their cost amortizes over the whole row instead of
    /// landing on individual SETs. When the pool is truly dry the chunks
    /// may be parked in other workers' magazines — invisible to allocator
    /// and rebalancer alike — so before reporting out-of-memory every
    /// magazine is flushed back and the refill retried once.
    fn magazine_refill(&self, w: usize, class: u8) -> Option<ItemHandle> {
        let core = &self.core;
        let policy = self.policy;
        let cap = self.cfg.magazine;
        let mut scratch: Vec<ItemHandle> = Vec::with_capacity(cap);
        let mut flushed = false;
        loop {
            self.section(
                Scope::Item,
                &[Category::VolatileFlag],
                &[Category::Libc, Category::RefcountRmw, Category::AssertAbort],
                |ctx| {
                    scratch.clear(); // attempt-local: aborted pops roll back
                    ctx.volatile_read(&policy, core.arena.rebalance_signal.word())?;
                    let (got, _) =
                        core.alloc_chunks(ctx, &policy, class, cap, usize::MAX, |h| scratch.push(h))?;
                    if got > 0 {
                        stats::bump(ctx, &core.global.magazine_refills)?;
                    }
                    if got < cap {
                        // Starving (or evicting): point the rebalancer at
                        // this class, exactly like the plain alloc path.
                        ctx.put_word(core.arena.needy_class.word(), class as u64)?;
                        ctx.volatile_write(&policy, core.arena.rebalance_signal.word(), 1)?;
                    }
                    Ok(())
                },
            );
            if let Some(h) = scratch.pop() {
                if !scratch.is_empty() {
                    let mut mag = self.workers[w].magazine.lock().unwrap();
                    mag.rows[class as usize].append(&mut scratch);
                }
                return Some(h);
            }
            if flushed || !self.flush_magazines() {
                return None;
            }
            flushed = true;
        }
    }

    /// Returns a thread-private chunk to worker `w`'s magazine. A full row
    /// first spills half of itself back to the arena (one flush
    /// transaction), so an overwrite-heavy burst cannot hoard chunks
    /// unboundedly; in the steady SET state (one pop, at most one push per
    /// op) the row never overflows and the spill path never runs.
    fn magazine_put(&self, w: usize, h: ItemHandle) {
        let cap = self.cfg.magazine;
        let mut mag = self.workers[w].magazine.lock().unwrap();
        let row = &mut mag.rows[h.class as usize];
        if row.len() >= cap {
            self.magazine_spill(row, cap / 2);
        }
        row.push(h);
    }

    /// Returns every chunk of a magazine row past its first `keep` to the
    /// global free lists, in one flush transaction.
    fn magazine_spill(&self, row: &mut Vec<ItemHandle>, keep: usize) {
        let core = &self.core;
        self.section(Scope::Item, &[], &[Category::AssertAbort], |ctx| {
            row[keep..].iter().try_for_each(|&h| core.arena.free(ctx, h))?;
            stats::bump(ctx, &core.global.magazine_flushes)
        });
        row.truncate(keep);
    }

    /// Flushes every worker's magazine back to the global free lists, one
    /// transaction per non-empty class row (each counted in
    /// `magazine_flushes`). Runs under allocation pressure and from
    /// `flush_all`; locks one worker's magazine at a time. Returns whether
    /// any chunk moved.
    pub fn flush_magazines(&self) -> bool {
        let mut any = false;
        for slot in &self.workers {
            let mut mag = slot.magazine.lock().unwrap();
            for row in mag.rows.iter_mut().filter(|row| !row.is_empty()) {
                self.magazine_spill(row, 0);
                any = true;
            }
        }
        any
    }

    /// What every store does per op inside its link section, whoever
    /// allocated the chunk: fill it if the caller's earlier sections have
    /// not (a raw magazine chunk gets its header too), then decide, unlink
    /// the old item, link the new one, and emit the [`Effect::Stored`]. On
    /// IT — where the item section *is* this transaction — also drop the
    /// allocation reference, count the command, and report a wanted
    /// maintenance wakeup instead of signaling inline; the returned pair is
    /// `(status, signal_needed)`. `reclaim` is `Some` for magazine chunks
    /// (see [`Self::link_new_tx`]).
    #[allow(clippy::too_many_arguments)]
    fn link_body<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        w: usize,
        op: &StoreOp<'_>,
        hv: u32,
        now: u32,
        chunk: Chunk,
        reclaim: Option<&mut Option<ItemHandle>>,
    ) -> Result<(StoreStatus, bool), Abort> {
        let (core, policy) = (&self.core, self.policy);
        let it_mode = policy.item_mode == ItemMode::Transactional;
        let from_magazine = reclaim.is_some();
        if let Some(sizes) = chunk.fill {
            if from_magazine {
                // Magazine chunks arrive raw; alloc_section chunks were
                // initialized inside their slab transaction.
                core.init_item(ctx, &policy, chunk.h, op.key, op.flags, op.exptime, sizes, now)?;
            }
            core.arena.resolve(chunk.h).write_value(ctx, &policy, sizes, op.value)?;
        }
        let (st, wants_maintainer) =
            self.link_new_tx(ctx, op.mode, op.key, hv, chunk.h, reclaim)?;
        let mut signal_later = false;
        if st == StoreStatus::Stored {
            self.maybe_log(ctx)?;
            if it_mode {
                signal_later = wants_maintainer;
            } else if wants_maintainer {
                self.signal_maintenance(ctx, false)?;
            }
            let stored = Effect::Stored { h: chunk.h, value: op.value, flags: op.flags };
            self.emit(ctx, op.key, stored)?;
        }
        if it_mode {
            if st == StoreStatus::Stored || !from_magazine {
                // A magazine chunk that failed its predicate was never
                // published: it stays private and goes back to the
                // magazine post-commit.
                core.item_release(ctx, &policy, chunk.h)?;
            }
            self.count_inline(ctx, &[&self.workers[w].stats.set_cmds])?;
        }
        Ok((st, signal_later))
    }

    /// Decide + unlink-old + link-new, inside whatever section the caller
    /// holds. Returns the status and whether the insert started a hash
    /// expansion (the maintainer wants waking).
    ///
    /// `reclaim` (magazine path only): when an overwrite unlinks a dead
    /// old item, park it in limbo — unlinked, refcount 0, *not* on the
    /// global free list — and report its handle so the caller can merge
    /// it into the worker's magazine after commit. The pin trick (bump
    /// the refcount across the unlink, then zero it) keeps
    /// `unlink_item`'s free-on-unreferenced branch from pushing the chunk
    /// through the shared free list; an aborted attempt rolls all of it
    /// back, so the limbo state only ever exists after a successful
    /// commit, at which point serializability makes the chunk
    /// thread-private.
    fn link_new_tx<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        mode: StoreMode,
        key: &[u8],
        hv: u32,
        new_h: ItemHandle,
        reclaim: Option<&mut Option<ItemHandle>>,
    ) -> Result<(StoreStatus, bool), Abort> {
        let (core, policy) = (&self.core, self.policy);
        let existing = core.assoc.find(ctx, &policy, &core.arena, key, hv)?;
        // A failed predicate leaves the new item private; the caller's
        // item_release (refcount 1 -> 0, unlinked) frees the chunk.
        let refused = match (mode, existing) {
            (StoreMode::Add, Some(_)) | (StoreMode::Replace, None) => Some(StoreStatus::NotStored),
            (StoreMode::Cas(_), None) => Some(StoreStatus::NotFound),
            (StoreMode::Cas(c), Some(old)) if core.arena.resolve(old).cas(ctx)? != c => {
                Some(StoreStatus::Exists)
            }
            _ => None,
        };
        if let Some(st) = refused {
            return Ok((st, false));
        }
        if let Some(old) = existing {
            let it = core.arena.resolve(old);
            match reclaim {
                Some(reclaim) if it.refcount(ctx, &policy)? == 0 => {
                    it.set_refcount(ctx, 1)?;
                    core.unlink_item(ctx, &policy, old, hv)?;
                    it.set_refcount(ctx, 0)?;
                    *reclaim = Some(old);
                }
                _ => core.unlink_item(ctx, &policy, old, hv)?,
            }
        }
        let wants_maintainer = core.link_item(ctx, &policy, new_h, hv)?;
        Ok((StoreStatus::Stored, wants_maintainer))
    }

    /// The pipeline every single-section keyed mutation goes through: item
    /// guard → section → the body's [`Effect`], emitted → count. `scope`
    /// says what the body touches; `cell` is the command's per-thread
    /// counter, folded into the section on IT unless `own_count` keeps it
    /// outside (touch, added after the paper, never had its stats merged).
    #[allow(clippy::too_many_arguments)]
    fn keyed_mutation<'e, R>(
        &'e self,
        w: usize,
        key: &[u8],
        scope: Scope<'_>,
        mid: &[Category],
        cell: &'e TCell<u64>,
        own_count: bool,
        mut body: impl FnMut(&mut Ctx<'_, 'e>, u32) -> Result<(R, Option<Effect<'static>>), Abort>,
    ) -> R {
        assert!(key.len() <= KEY_MAX && !key.is_empty(), "bad key length");
        let hv = jenkins_hash(key, 0);
        let inline = !own_count && self.policy.item_mode == ItemMode::Transactional;
        let guard = ItemGuard::new(self, self.core.item_locks.stripe(hv));
        let r = self.section(scope, &[Category::VolatileFlag], mid, |ctx| {
            let (r, effect) = body(ctx, hv)?;
            if let Some(effect) = effect {
                self.emit(ctx, key, effect)?;
            }
            if inline {
                self.count_inline(ctx, &[cell])?;
            }
            Ok(r)
        });
        drop(guard);
        if !inline {
            self.count_op(w, &[cell]);
        }
        r
    }

    /// `delete key`.
    pub fn delete(&self, w: usize, key: &[u8]) -> bool {
        let (core, policy) = (&self.core, self.policy);
        self.keyed_mutation(
            w,
            key,
            Scope::Table(&[&self.cache_lock]),
            &[Category::Libc, Category::RefcountRmw, Category::AssertAbort],
            &self.workers[w].stats.delete_cmds,
            false,
            |ctx, hv| {
                let Some(h) = core.assoc.find(ctx, &policy, &core.arena, key, hv)? else {
                    return Ok((false, None));
                };
                core.unlink_item(ctx, &policy, h, hv)?;
                Ok((true, Some(Effect::Deleted)))
            },
        )
    }

    /// `incr`/`decr key delta`.
    pub fn arith(&self, w: usize, key: &[u8], delta: u64, incr: bool) -> ArithStatus {
        let (core, policy) = (&self.core, self.policy);
        let now = self.rel_time();
        // do_add_delta runs under the item lock: privatized in IP, so the
        // strtoull/snprintf pair stays uninstrumented.
        let res = self.keyed_mutation(
            w,
            key,
            Scope::Item,
            &[Category::Libc, Category::RefcountRmw, Category::AssertAbort],
            &self.workers[w].stats.arith_cmds,
            false,
            |ctx, hv| {
                let r = core.arith(ctx, &policy, key, hv, delta, incr, now)?;
                let effect = match r {
                    Some(Ok((value, cas))) => Some(Effect::Arith { value, cas }),
                    _ => None,
                };
                Ok((r, effect))
            },
        );
        match res {
            None => ArithStatus::NotFound,
            Some(Err(())) => ArithStatus::NonNumeric,
            Some(Ok((v, _cas))) => ArithStatus::Ok(v),
        }
    }

    /// `touch key exptime`.
    pub fn touch(&self, w: usize, key: &[u8], exptime: u32) -> bool {
        let (core, policy) = (&self.core, self.policy);
        let now = self.rel_time();
        self.keyed_mutation(
            w,
            key,
            Scope::Item,
            &[Category::Libc, Category::AssertAbort],
            &self.workers[w].stats.touch_cmds,
            true,
            |ctx, hv| {
                let Some(h) = core.assoc.find(ctx, &policy, &core.arena, key, hv)? else {
                    return Ok((false, None));
                };
                core.arena.resolve(h).set_times(ctx, exptime, now)?;
                Ok((true, Some(Effect::Touched { exp: exptime, now })))
            },
        )
    }

    /// `flush_all`.
    pub fn flush_all(&self, w: usize) {
        let now = self.rel_time();
        self.section(Scope::Table(&[&self.stats_lock]), &[], &[], |ctx| {
            self.core.flush_all(ctx, now)?;
            self.emit(ctx, &[], Effect::FlushedAll { now })
        });
        if self.magazines_on() {
            // Return every parked chunk so a post-flush heap audit sees
            // all memory back on the free lists.
            self.flush_magazines();
        }
        self.count_op(w, &[]);
    }

    // ------------------------------------------------------------------
    // Maintenance threads (§3.2's two Figure-2 instances)
    // ------------------------------------------------------------------

    fn assoc_maintenance_loop(&self) {
        let core = &self.core;
        let policy = self.policy;
        while !self.shutdown.load(Ordering::SeqCst) {
            // Wait to be woken: cond_wait under cache_lock in Baseline
            // (Figure 2 left), sem_wait outside the critical section after
            // the §3.2 refactor.
            if !self.policy.semaphores {
                let mut g = self.cache_lock.lock();
                g.wait_on_for(&self.assoc_cv, Duration::from_millis(20));
                drop(g);
            } else {
                self.assoc_sem.wait_timeout(Duration::from_millis(20));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            if self.assoc_panic_trap.swap(false, Ordering::SeqCst) {
                panic!("test trap: assoc maintenance panic");
            }
            // Migrate in bounded batches until the expansion completes.
            // (idle, completed): idle ends the inner loop; completed means
            // this call finished a migration and the stat should bump.
            loop {
                // Every key of old bucket `b` sits on item stripe `b & mask`
                // (the item lock power is at most the hash power), so
                // holding the batch's stripes shuts out exactly the readers
                // of the buckets it empties until the new frontier is
                // published: the stripe memcached 1.4.2x's migrator takes
                // with `item_trylock(expand_bucket)`. Ascending, each
                // before `cache_lock`, as the workers take them.
                let buckets = core.assoc.next_batch(4);
                let stripes: BTreeSet<usize> = buckets.clone().map(|b| core.item_locks.stripe(b as u32)).collect();
                let guards: Vec<ItemGuard<'_>> = stripes.into_iter().map(|s| ItemGuard::new(self, s)).collect();
                let (idle, completed) = self.section(
                    Scope::Table(&[&self.cache_lock]),
                    &[Category::VolatileFlag],
                    &[Category::AssertAbort],
                    |ctx| {
                        if !core.assoc.is_expanding(ctx, &policy)? {
                            return Ok((true, false));
                        }
                        let done = core.assoc.migrate_step(ctx, &policy, &core.arena, buckets.len())?;
                        Ok((done, done))
                    },
                );
                drop(guards);
                if completed {
                    self.section(Scope::Table(&[&self.stats_lock]), &[], &[], |ctx| {
                        stats::bump(ctx, &core.global.expansions)
                    });
                }
                if idle {
                    break;
                }
                if self.shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }

    fn slab_rebalance_loop(&self) {
        while !self.shutdown.load(Ordering::SeqCst) {
            if !self.policy.semaphores {
                let mut g = self.slabs_lock.lock();
                g.wait_on_for(&self.slab_cv, Duration::from_millis(25));
                drop(g);
            } else {
                self.slab_sem.wait_timeout(Duration::from_millis(25));
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return;
            }
            let Some(_lock) = RebalanceGuard::acquire(self) else {
                return;
            };
            // Inside the lock, where a real fault in the pass would strike.
            if self.slab_panic_trap.swap(false, Ordering::SeqCst) {
                panic!("test trap: slab rebalance panic");
            }
            self.section(
                Scope::Table(&[&self.slabs_lock]),
                &[Category::VolatileFlag],
                &[Category::AssertAbort],
                |ctx| self.rebalance_once(ctx),
            );
        }
    }

    /// One rebalance attempt under the slabs lock / inside a transaction.
    fn rebalance_once<'e>(&'e self, ctx: &mut Ctx<'_, 'e>) -> Result<(), Abort> {
        let core = &self.core;
        let policy = self.policy;
        if ctx.volatile_read(&policy, core.arena.rebalance_signal.word())? == 0 {
            return Ok(());
        }
        let receiver = ctx.get_word(core.arena.needy_class.word())? as u8;
        if let Some(donor) = core.arena.pick_donor(ctx)? {
            if core.arena.rebalance_step(ctx, &policy, donor, receiver)? {
                stats::bump(ctx, &core.global.rebalances)?;
            }
        }
        ctx.volatile_write(&policy, core.arena.rebalance_signal.word(), 0)?;
        Ok(())
    }
}

/// Hands the pages recovery freed back to the kernel. The segment images,
/// the slot list and the fold map are dropped by now, but each went back
/// to the malloc arena of the thread that allocated it, and which scan
/// worker read which segment is a race: without this the serving
/// process keeps a run-to-run varying share of the recovery high-water
/// mark resident. glibc only (declared against the C library `std`
/// already links, like `net::event`'s epoll calls); a no-op elsewhere.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` only returns free pages; no live allocation
    // moves or changes.
    unsafe { malloc_trim(0) };
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_freed_memory() {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dur::{DurFsync, DurLog, Record};
    use testkit::rng::{Rng, SmallRng};

    /// Writes `n` sets, oldest first, whose value lengths `value_len`
    /// draws from the entry's index, with expired entries, over-long keys
    /// and values too large for any chunk mixed in, and recovers them.
    fn recovered(
        tag: &str,
        seed: u64,
        n: usize,
        page_size: usize,
        value_len: impl Fn(&mut SmallRng, usize) -> usize,
    ) -> dur::Recovery {
        let name = format!("mcache-load-{tag}-{seed}-{}", std::process::id());
        let dir = std::env::temp_dir().join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 7).unwrap();
        let unix_now = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_secs();
        let mut rng = SmallRng::seed_from_u64(seed);
        for i in 0..n {
            let mut key = format!("key-{i:06}-{:03}", rng.gen_range(0..1000u32)).into_bytes();
            let mut len = value_len(&mut rng, i);
            let mut abs_exp = [0, unix_now + 3600][rng.gen_range(0..2usize)];
            match i % 50 {
                7 => abs_exp = unix_now - 10,
                19 => key.resize(KEY_MAX + 1 + rng.gen_range(0..8usize), b'k'),
                31 => len = page_size + 1,
                _ => {}
            }
            let set = Record::Set {
                cas: rng.gen_range(1..5000u64),
                flags: rng.gen_range(0..3u32),
                abs_exp,
                stored_unix: unix_now - 60,
                key,
                value: (0..len).map(|_| rng.gen_range(b'a'..b'{')).collect(),
            };
            log.append(i as u64 + 1, &set);
        }
        drop(log);
        let rec = dur::recover(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
        rec
    }

    /// Loads `rec` planned into one fresh cache and one by one into
    /// another, asserts every line of their fingerprints equal, and
    /// returns the planned cache.
    fn load_both(tag: &str, rec: &mut dur::Recovery, slab: SlabConfig) -> McHandle {
        let cfg = || McConfig { slab, hash_power: 8, maintenance: false, ..Default::default() };
        // The two must agree on the Unix second relative times count from.
        let (planned, reference) = loop {
            let (a, b) = (McCache::start(cfg()), McCache::start(cfg()));
            if a.fx.unix_base() == b.fx.unix_base() {
                break (a, b);
            }
        };
        let before = rec.entries.len();
        drop_unloadable(rec, planned.unix_time());
        assert!(rec.entries.len() < before, "{tag}: expired entries and long keys are dropped");
        let stored = planned.load_recovered(rec);
        assert_eq!(stored, reference.load_recovered_one_by_one(rec), "{tag}: items stored");
        let p = crate::core::tests::load_fingerprint(&planned.core, &planned.policy);
        let r = crate::core::tests::load_fingerprint(&reference.core, &reference.policy);
        for (i, (p, r)) in p.iter().zip(&r).enumerate() {
            assert_eq!(p, r, "{tag}: fingerprint line {i}, planned vs one by one");
        }
        assert_eq!(p.len(), r.len(), "{tag}: fingerprint lengths");
        assert_eq!(planned.stats().global.total_items, stored);
        planned
    }

    /// The classes holding items after a load.
    fn classes_used(h: &McHandle) -> usize {
        h.core.lrus.iter().filter(|l| !l.is_empty(&mut Ctx::Direct).unwrap()).count()
    }

    #[test]
    fn the_planned_load_builds_the_cache_a_one_by_one_load_builds() {
        let roomy = SlabConfig { mem_limit: 8 << 20, page_size: 64 << 10, ..Default::default() };
        let tight = SlabConfig { mem_limit: 256 << 10, page_size: 16 << 10, ..Default::default() };
        for seed in 1..=3 {
            let mut rec = recovered("one-class", seed, 3000, roomy.page_size, |_, _| 100);
            let h = load_both("one class that fits", &mut rec, roomy);
            assert_eq!(classes_used(&h), 1);
            assert_eq!(h.stats().global.evictions, 0);

            let mixed = |rng: &mut SmallRng, _| rng.gen_range(0..3000);
            let mut rec = recovered("mixed", seed, 3000, roomy.page_size, mixed);
            let h = load_both("mixed value sizes", &mut rec, roomy);
            assert!(classes_used(&h) >= 3, "mixed sizes fill several classes");
            assert_eq!(h.stats().global.evictions, 0);

            // About 3x the pool in three classes, then a fourth class that
            // comes only once the pool is dry and gets no memory.
            let sizes = [60, 300, 700];
            let mut rec = recovered("evict", seed, 1400, tight.page_size, |rng, i| {
                if i < 1250 { sizes[rng.gen_range(0..3usize)] } else { 2000 }
            });
            let h = load_both("3x the pool", &mut rec, tight);
            let fits = rec.entries.iter().filter(|e| rec.value(e).len() <= tight.page_size);
            let g = h.stats().global;
            assert!(g.evictions > 0, "the classes evict");
            assert!(g.total_items < fits.count() as u64, "the late class is refused memory");
            assert_eq!(g.curr_items, g.total_items - g.evictions);
        }
    }
}
