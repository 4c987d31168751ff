//! Global time bases: the sharded commit clock (eager/lazy algorithms) and
//! the NOrec sequence lock.
//!
//! # Why sharded
//!
//! Every read-write commit in the orec-based algorithms must obtain a
//! globally unique, monotonically ordered timestamp. With a single clock
//! word, that is one CAS on one cache line for the whole process — the
//! paper's `ml_wt` lineage scaling wall (and the top ROADMAP item once the
//! wire front end could drive real multi-core load). [`ShardedClock`]
//! splits the clock into up to 64 per-shard counters, each on its own
//! cache line, with thread→shard affinity:
//!
//! * **Timestamps** encode `(counter << shard_bits) | shard_id`, so every
//!   timestamp is globally unique (distinct shard residues) and plain
//!   `u64` comparison still orders them. With one shard the arithmetic
//!   degenerates to the classic `+1` global clock, bit for bit.
//! * **Commit** CASes only the committer's own shard line; threads with
//!   different affinity never contend on a clock CAS.
//! * **Snapshots** are a lazy max: transaction begin reads the own-shard
//!   line plus a thread-cached view of the other shards
//!   ([`ShardedClock::now_cached`]). A stale-**low** snapshot is always
//!   safe — reads that see newer orec versions trigger the ordinary
//!   TinySTM extension, which performs the full cross-shard
//!   [`ShardedClock::sync`]. TLC-style: cross-shard synchronization is
//!   paid only on validation pressure, not on every begin.
//! * **GV5 elision** ([`ShardedClock::commit_tick`]) still works: a
//!   committer first publishes its own-shard CAS, *then* scans the other
//!   shards. If none moved past its snapshot, no transaction committed
//!   since the snapshot was taken and commit-time validation is elided.
//!   The scan must come after the CAS: two concurrent committers on
//!   different shards can otherwise both scan clean and both elide, which
//!   is unserializable. Post-publication, any pair of eliders has a
//!   temporal contradiction (each CAS precedes its own scan, and a clean
//!   scan precedes the other's CAS), so at most one transaction in any
//!   concurrent group skips validation — exactly the single-winner
//!   guarantee the one-word GV5 CAS gave for free.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::{Counter, StatDeltas};
use crate::sync_count::{self, SyncSite};

/// Maximum number of clock shards (timestamps reserve 6 low bits at most).
pub const MAX_CLOCK_SHARDS: usize = 64;

/// Identity source for [`ShardedClock`] instances, used to key a cursor's
/// cached cross-shard view. Ids start at 1 so a fresh cursor never aliases
/// a real clock.
static CLOCK_IDS: AtomicU64 = AtomicU64::new(1);

/// One thread's handle on the commit clocks: its shard affinity and its
/// cached cross-shard maximum. Lives in the thread's arena, so engines
/// reach it through the log buffers they already hold instead of a
/// thread-local lookup per clock operation.
#[derive(Debug, Default)]
pub(crate) struct ClockCursor {
    /// The owning thread's process-wide ordinal; each clock masks it down
    /// to its own shard count.
    ord: u64,
    /// `(clock id, highest timestamp seen)`. Only ever *behind* the real
    /// maximum (stale-low), never ahead: every stored value was loaded
    /// from a shard line of that clock, so using it as a snapshot floor
    /// can only cost an extension, never admit a torn read.
    view: (u64, u64),
}

impl ClockCursor {
    pub(crate) fn new(ord: u64) -> Self {
        ClockCursor { ord, view: (0, 0) }
    }
}

/// One clock shard: the timestamp word alone on its cache line, so a
/// committer's CAS on shard `k` never invalidates shard `j`'s line under
/// another committer. The shard's telemetry (ticks, CAS losses, syncs) is
/// tallied in the committing thread's stat block, not here: every
/// committer scans every shard line, and a counter bumped on it would
/// dirty the line once more per commit.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct ClockShard {
    /// Latest timestamp issued on this shard.
    value: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<ClockShard>() == 64, "ClockShard must fill one cache line");
const _: () = assert!(std::mem::align_of::<ClockShard>() == 64, "ClockShard must start a cache line");
// Exhaustive destructuring: a second field on the value line stops the build.
const _: fn(ClockShard) = |ClockShard { value: _ }| {};

/// A point-in-time copy of one shard's counters; see
/// [`crate::TmRuntime::clock_shard_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClockShardStats {
    /// Latest timestamp issued on this shard (0 if never ticked).
    pub value: u64,
    /// Commit/rollback ticks issued on this shard.
    pub ticks: u64,
    /// Same-shard CAS losses (cross-shard committers never contend).
    pub cas_retries: u64,
    /// Full cross-shard synchronizations by threads of this affinity.
    pub syncs: u64,
}

/// The sharded global version clock used by the orec-based algorithms.
pub(crate) struct ShardedClock {
    shards: Box<[ClockShard]>,
    /// `shards.len() - 1`; shard count is a power of two.
    mask: u64,
    /// `log2(shards.len())` — low bits of every timestamp hold the shard.
    shard_bits: u32,
    /// Instance id keying a cursor's cached view.
    id: u64,
}

impl ShardedClock {
    /// Creates a clock at time 0 with `nshards` per-shard counters.
    ///
    /// # Panics
    ///
    /// Panics unless `nshards` is a power of two in `1..=64`.
    pub fn new(nshards: usize) -> Self {
        assert!(
            nshards.is_power_of_two() && (1..=MAX_CLOCK_SHARDS).contains(&nshards),
            "clock shard count {nshards} must be a power of two in 1..=64"
        );
        ShardedClock {
            shards: (0..nshards).map(|_| ClockShard::default()).collect(),
            mask: (nshards - 1) as u64,
            shard_bits: nshards.trailing_zeros(),
            id: CLOCK_IDS.fetch_add(1, Ordering::Relaxed),
        }
    }

    /// Number of shards.
    #[inline]
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The shard affinity, under this clock, of the thread with
    /// process-wide ordinal `ord`.
    #[inline]
    pub fn shard_of(&self, ord: u64) -> usize {
        (ord & self.mask) as usize
    }

    /// The next timestamp after `from` carrying this shard's residue:
    /// strictly greater than `from`, globally unique per shard.
    #[inline]
    fn next_on(&self, from: u64, shard: u64) -> u64 {
        (((from >> self.shard_bits) + 1) << self.shard_bits) | shard
    }

    /// Scans every shard line for the current global maximum.
    #[inline]
    fn scan_max(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.value.load(Ordering::Acquire))
            .max()
            .unwrap_or(0)
    }

    /// One CAS on shard `slot`'s timestamp word.
    #[inline]
    fn cas(slot: &ClockShard, from: u64, to: u64) -> Result<u64, u64> {
        sync_count::rmw(SyncSite::Clock);
        slot.value.compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Current global time: the exact lazy max over all shards. Costs one
    /// load per shard; begin paths use [`ShardedClock::now_cached`].
    pub fn now(&self) -> u64 {
        self.scan_max()
    }

    /// A cheap snapshot for transaction begin: the own-shard line joined
    /// with the cursor's cached cross-shard view — no full scan. May be
    /// stale-low (costing a snapshot extension on the first read that
    /// notices), never stale-high: every cached value was read from a
    /// shard line of *this* clock, so it is a published timestamp.
    #[inline]
    pub fn now_cached(&self, cur: &ClockCursor) -> u64 {
        let own = self.shards[self.shard_of(cur.ord)].value.load(Ordering::Acquire);
        let (id, cached) = cur.view;
        if id == self.id {
            own.max(cached)
        } else {
            own
        }
    }

    /// Full cross-shard synchronization: scan every shard, refresh the
    /// cursor's cached view, count it against the caller's affinity shard.
    /// Engines call this exactly where validation pressure appears (the
    /// snapshot-extension path), so quiescent threads never pay the scan.
    pub fn sync(&self, cur: &mut ClockCursor, d: &mut StatDeltas) -> u64 {
        d.bump(Counter::clock_shard_syncs);
        let m = self.scan_max();
        cur.view = (self.id, m);
        m
    }

    /// Advances this thread's shard past everything published, returning
    /// the new globally maximal timestamp. The rollback / irrevocable
    /// publish path: callers only need a fresh unique timestamp, not the
    /// elision verdict.
    ///
    /// Must be called with the caller's write-set orecs already held (or
    /// the caller serialized): the cross-shard scan inside is what makes
    /// the returned timestamp exceed every snapshot a concurrent reader
    /// could have completed before our locks became visible.
    pub fn tick(&self, cur: &ClockCursor, d: &mut StatDeltas) -> u64 {
        let k = self.shard_of(cur.ord);
        let slot = &self.shards[k];
        let mut own = slot.value.load(Ordering::Acquire);
        loop {
            let m = self.scan_max().max(own);
            let end = self.next_on(m, k as u64);
            match Self::cas(slot, own, end) {
                Ok(_) => {
                    d.bump(Counter::shard_ticks);
                    return end;
                }
                Err(seen) => {
                    d.bump(Counter::shard_cas_losses);
                    own = seen;
                }
            }
        }
    }

    /// The commit-time tick: returns `(end timestamp, needs_validation)`.
    ///
    /// `needs_validation == false` is the GV5-style elided path: this
    /// commit's own-shard CAS published first, and the *post-publication*
    /// scan found no other shard past `snapshot` — so no transaction
    /// committed since the caller's snapshot and its read set is provably
    /// current. The scan ordering is load-bearing (see the module docs):
    /// scanning before the CAS would let two committers on different
    /// shards both elide against each other.
    ///
    /// `needs_validation == true` covers both fallbacks: another shard
    /// advanced past the snapshot, or our own shard did (a same-affinity
    /// thread committed). Either way `end` is already published and the
    /// caller must validate its reads before releasing orecs at `end`.
    ///
    /// The returned stamp always exceeds every timestamp published before
    /// the caller's write-set locks became visible. When the
    /// post-publication scan finds a foreign shard above the stamp claimed
    /// from a stale-low snapshot, the own shard is re-advanced past the
    /// scan maximum and that higher stamp is returned: releasing orecs at
    /// or below a live reader's snapshot would let that reader accept the
    /// new values against version checks — a torn write set that
    /// read-only transactions (which never revalidate) cannot detect.
    ///
    /// Same lock-ordering contract as [`ShardedClock::tick`].
    pub fn commit_tick(&self, cur: &ClockCursor, d: &mut StatDeltas, snapshot: u64) -> (u64, bool) {
        let k = self.shard_of(cur.ord);
        let slot = &self.shards[k];
        let mut own = slot.value.load(Ordering::Acquire);
        loop {
            let (from, end) = if own <= snapshot {
                // Our shard has not moved past the snapshot; try to claim
                // the timestamp right after it.
                (own, self.next_on(snapshot, k as u64))
            } else {
                // A same-affinity thread committed since our snapshot:
                // the elided verdict is already lost, take a plain tick.
                (own, self.next_on(self.scan_max().max(own), k as u64))
            };
            match Self::cas(slot, from, end) {
                Ok(_) => {
                    d.bump(Counter::shard_ticks);
                    if from > snapshot {
                        return (end, true);
                    }
                    // Post-publication cross-shard check: our CAS is
                    // visible, so a racing committer either sees it (and
                    // validates) or published before this scan (and we
                    // see it here and validate).
                    let mut clean = true;
                    let mut max_seen = end;
                    for (j, s) in self.shards.iter().enumerate() {
                        if j == k {
                            continue;
                        }
                        let v = s.value.load(Ordering::Acquire);
                        clean &= v <= snapshot;
                        max_seen = max_seen.max(v);
                    }
                    if max_seen <= end {
                        return (end, !clean);
                    }
                    // A stale-low snapshot: some shard is already past the
                    // stamp we just published. Orecs released at `end`
                    // would carry versions at or below live readers'
                    // snapshots — new values that pass every `<= rv` check
                    // (a torn write set no read-only transaction would
                    // ever revalidate). Re-advance our shard past
                    // everything published and release at that stamp
                    // instead; anything published after this second scan
                    // postdates our (already visible) write-set locks, so
                    // its readers abort on the locks, not on versions.
                    let mut own = end;
                    loop {
                        let m = self.scan_max().max(own);
                        let bumped = self.next_on(m, k as u64);
                        match Self::cas(slot, own, bumped) {
                            Ok(_) => return (bumped, true),
                            Err(seen) => {
                                d.bump(Counter::shard_cas_losses);
                                own = seen;
                            }
                        }
                    }
                }
                Err(seen) => {
                    d.bump(Counter::shard_cas_losses);
                    own = seen;
                }
            }
        }
    }

    /// Raises this clock so every future tick exceeds `v`. Used by the
    /// algorithm switch to align the orec clock with NOrec's sequence lock:
    /// the caller must hold the serial lock exclusively (no committer can
    /// race the raise), so commit stamps minted after the switch are
    /// guaranteed to exceed every stamp published before it.
    pub fn raise_to(&self, v: u64) {
        // Any shard will do (the caller excludes every committer); shard 0
        // exists under every shard count.
        let slot = &self.shards[0];
        while self.scan_max() < v {
            let from = slot.value.load(Ordering::Acquire);
            if Self::cas(slot, from, self.next_on(v, 0)).is_ok() {
                return;
            }
        }
    }

    /// The latest timestamp issued on each shard.
    pub fn shard_values(&self) -> impl Iterator<Item = u64> + '_ {
        self.shards.iter().map(|s| s.value.load(Ordering::Acquire))
    }
}

impl fmt::Debug for ShardedClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedClock")
            .field("shards", &self.shards.len())
            .field("now", &self.scan_max())
            .finish()
    }
}

/// NOrec's single global sequence lock.
///
/// Even values mean "no writer committing"; a committer CASes the value odd,
/// writes back its buffer, then stores `snapshot + 2`. Readers perform
/// value-based validation whenever they observe the sequence moving.
///
/// Cache-line-aligned: the paper found memcached's small writer
/// transactions bottleneck on exactly this word ("the frequency of small
/// writer transactions induced a bottleneck on internal NOrec metadata"),
/// so it must at least not pay for false sharing with the version clock or
/// stats counters on top of its true contention.
#[derive(Default)]
#[repr(align(64))]
pub struct SeqLock(AtomicU64);

const _: () = assert!(std::mem::align_of::<SeqLock>() == 64, "SeqLock must start a cache line");

impl SeqLock {
    /// Creates an unlocked sequence lock at time 0.
    pub const fn new() -> Self {
        SeqLock(AtomicU64::new(0))
    }

    /// Raw load.
    #[inline]
    pub fn load(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Spins until the value is even, returning it.
    #[inline]
    pub fn wait_even(&self) -> u64 {
        loop {
            let v = self.load();
            if v & 1 == 0 {
                return v;
            }
            std::hint::spin_loop();
        }
    }

    /// Attempts to begin a commit by CASing `snapshot -> snapshot + 1`.
    #[inline]
    pub fn try_begin_commit(&self, snapshot: u64) -> bool {
        debug_assert_eq!(snapshot & 1, 0);
        sync_count::rmw(SyncSite::SeqLock);
        self.0
            .compare_exchange(snapshot, snapshot + 1, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Ends a commit begun at `snapshot`, publishing `snapshot + 2`.
    #[inline]
    pub fn end_commit(&self, snapshot: u64) {
        debug_assert_eq!(self.load(), snapshot + 1);
        self.0.store(snapshot + 2, Ordering::Release);
    }

    /// Raises the sequence to at least `v`, rounded up to even. The
    /// algorithm-switch twin of [`ShardedClock::raise_to`]: the caller must
    /// hold the serial lock exclusively, so no committer holds the lock
    /// (the value is even) and none can race the store.
    pub fn raise_to(&self, v: u64) {
        let cur = self.load();
        debug_assert_eq!(cur & 1, 0, "raise_to with a committer in flight");
        let target = (v + 1) & !1;
        if target > cur {
            self.0.store(target, Ordering::Release);
        }
    }
}

impl fmt::Debug for SeqLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SeqLock").field(&self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A cursor for an imaginary thread with ordinal `ord`, plus scratch
    /// deltas for the telemetry.
    fn thread(ord: u64) -> (ClockCursor, StatDeltas) {
        (ClockCursor::new(ord), StatDeltas::default())
    }

    #[test]
    fn one_shard_degenerates_to_the_plus_one_clock() {
        let c = ShardedClock::new(1);
        let (cur, mut d) = thread(5);
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(&cur, &mut d), 1);
        assert_eq!(c.tick(&cur, &mut d), 2);
        assert_eq!(c.now(), 2);
        assert_eq!(c.now_cached(&cur), 2);
    }

    #[test]
    fn sharded_ticks_are_monotonic_on_one_thread() {
        let c = ShardedClock::new(8);
        let (cur, mut d) = thread(11);
        assert_eq!(c.shard_of(11), 3);
        let mut last = c.now();
        for _ in 0..100 {
            let t = c.tick(&cur, &mut d);
            assert!(t > last, "tick {t} did not exceed {last}");
            assert_eq!(t & 7, 3, "residue must name the shard");
            last = t;
        }
        assert_eq!(c.now(), last);
        assert_eq!(d.get(Counter::shard_ticks), 100);
    }

    #[test]
    fn clock_ticks_are_unique_across_threads() {
        for nshards in [1usize, 4, 8] {
            let c = std::sync::Arc::new(ShardedClock::new(nshards));
            let mut handles = vec![];
            for ord in 0..4 {
                let c = c.clone();
                handles.push(std::thread::spawn(move || {
                    let (cur, mut d) = thread(ord);
                    (0..1000).map(|_| c.tick(&cur, &mut d)).collect::<Vec<_>>()
                }));
            }
            let mut all: Vec<u64> = handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 4000, "duplicate commit timestamps ({nshards} shards)");
        }
    }

    #[test]
    fn conflict_free_commit_tick_elides_validation() {
        let c = ShardedClock::new(8);
        let (cur, mut d) = thread(2);
        let snap = c.now_cached(&cur);
        let (end, validate) = c.commit_tick(&cur, &mut d, snap);
        assert!(!validate, "quiescent clock must elide");
        assert!(end > snap);
        // Single-thread steady state keeps eliding: the own shard is the max.
        let snap2 = c.now_cached(&cur);
        assert_eq!(snap2, end);
        let (end2, validate2) = c.commit_tick(&cur, &mut d, snap2);
        assert!(!validate2);
        assert!(end2 > end);
    }

    #[test]
    fn stale_snapshot_commit_tick_demands_validation() {
        let c = ShardedClock::new(8);
        let (cur, mut d) = thread(0);
        let snap = c.now_cached(&cur);
        // A commit by a thread of another shard after the snapshot.
        let (other, mut od) = thread(1);
        c.tick(&other, &mut od);
        let (end, validate) = c.commit_tick(&cur, &mut d, snap);
        assert!(validate, "a concurrent commit after the snapshot must force validation");
        assert!(end > snap);
        assert!(c.now() >= end);
    }

    #[test]
    fn same_shard_staleness_forces_validation() {
        // One shard: any tick after the snapshot lands on *our* shard.
        let c = ShardedClock::new(1);
        let (cur, mut d) = thread(0);
        let snap = c.now_cached(&cur);
        c.tick(&cur, &mut d);
        let (end, validate) = c.commit_tick(&cur, &mut d, snap);
        assert!(validate);
        assert!(end > snap);
        assert_eq!(d.get(Counter::shard_ticks), 2);
        assert_eq!(c.shard_values().collect::<Vec<_>>(), [end]);
    }

    #[test]
    fn cached_view_is_keyed_per_clock_instance() {
        let a = ShardedClock::new(8);
        let b = ShardedClock::new(8);
        let (mut cur, mut d) = thread(0);
        // Another shard of `a` runs ahead; a sync pulls it into the view.
        let (other, mut od) = thread(1);
        let ta = a.tick(&other, &mut od);
        assert_eq!(a.now_cached(&cur), 0, "no sync yet: own shard only");
        assert_eq!(a.sync(&mut cur, &mut d), ta);
        assert_eq!(a.now_cached(&cur), ta);
        // Clock b must not inherit a's cached view (stale-high would be
        // unsound for b): a fresh clock still reads time 0.
        assert_eq!(b.now_cached(&cur), 0);
        assert_eq!(a.now_cached(&cur), ta);
    }

    #[test]
    fn sync_counts_against_the_caller() {
        let c = ShardedClock::new(4);
        let (mut cur, mut d) = thread(6);
        c.sync(&mut cur, &mut d);
        c.sync(&mut cur, &mut d);
        assert_eq!(d.get(Counter::clock_shard_syncs), 2);
    }

    #[test]
    fn stale_snapshot_commit_stamp_exceeds_every_published_timestamp() {
        // A committer whose snapshot is stale-low (cold home shard, cached
        // view behind a hot foreign shard) must still publish a commit
        // timestamp above the global maximum: eager/lazy release write-set
        // orecs at this stamp, and a stamp at or below a live reader's
        // snapshot lets that reader accept post-commit values as
        // pre-snapshot ones — a torn write set no validation catches.
        let c = ShardedClock::new(8);
        let (cur, mut d) = thread(0);
        let snap = c.now_cached(&cur);
        // Drive a *different* shard far ahead.
        let (other, mut od) = thread(5);
        let hot = (0..64).map(|_| c.tick(&other, &mut od)).max().unwrap();
        let (end, validate) = c.commit_tick(&cur, &mut d, snap);
        assert!(validate, "foreign commits past the snapshot must force validation");
        assert!(end > hot, "commit stamp {end} must exceed the hot shard's {hot}");
        assert_eq!(c.scan_max(), end, "the fresh stamp is the new global max");
    }

    #[test]
    fn raise_to_lifts_every_later_tick() {
        let c = ShardedClock::new(8);
        let (cur, mut d) = thread(3);
        c.raise_to(1000);
        assert!(c.now() >= 1000);
        assert!(c.tick(&cur, &mut d) > 1000);
        let before = c.now();
        c.raise_to(10);
        assert_eq!(c.now(), before, "raise_to never lowers the clock");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shards_rejected() {
        let _ = ShardedClock::new(3);
    }

    #[test]
    fn seqlock_commit_protocol() {
        let s = SeqLock::new();
        let snap = s.wait_even();
        assert!(s.try_begin_commit(snap));
        assert_eq!(s.load(), snap + 1);
        assert!(!s.try_begin_commit(snap), "second committer must fail");
        s.end_commit(snap);
        assert_eq!(s.load(), snap + 2);
    }

    #[test]
    fn seqlock_stale_snapshot_rejected() {
        let s = SeqLock::new();
        let snap = s.wait_even();
        assert!(s.try_begin_commit(snap));
        s.end_commit(snap);
        assert!(!s.try_begin_commit(snap), "stale snapshot must be rejected");
    }
}
