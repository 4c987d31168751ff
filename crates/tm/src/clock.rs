//! Global time bases: the commit clock (eager/lazy algorithms) and the
//! NOrec sequence lock — one word each, each alone on its cache line.
//!
//! The commit clock is libitm `ml_wt`'s global version word with TL2's GV5
//! commit: a committer CASes `snapshot -> snapshot + 1`, and winning that
//! CAS proves nothing committed since its snapshot, so commit-time
//! validation is elided. At most one transaction of any concurrent group
//! can win it — the single-winner guarantee is the CAS itself.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::sync_count::{self, SyncSite};

/// The global version clock used by the orec-based algorithms.
#[repr(align(64))]
pub(crate) struct Clock(AtomicU64);

const _: () = assert!(std::mem::size_of::<Clock>() == 64, "Clock must be exactly one cache line");

impl Clock {
    /// Creates a clock at time 0.
    pub const fn new() -> Self {
        Clock(AtomicU64::new(0))
    }

    /// Current global time: the latest timestamp issued.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    #[inline]
    fn cas(&self, from: u64, to: u64) -> Result<u64, u64> {
        sync_count::rmw(SyncSite::Clock);
        self.0.compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire)
    }

    /// Advances the clock from `seen` (a value it held) to a fresh stamp.
    fn tick_from(&self, mut seen: u64) -> u64 {
        while let Err(cur) = self.cas(seen, seen + 1) {
            seen = cur;
        }
        seen + 1
    }

    /// Issues a fresh, globally unique timestamp (the rollback and
    /// irrevocable-publish paths, which need no elision verdict).
    ///
    /// Must be called with the caller's write-set orecs already held (or
    /// the caller serialized), so the timestamp exceeds every snapshot a
    /// reader could have completed before those locks became visible.
    pub fn tick(&self) -> u64 {
        self.tick_from(self.now())
    }

    /// The commit-time tick: returns `(end timestamp, needs_validation)`.
    ///
    /// One CAS `snapshot -> snapshot + 1`. Winning it proves no transaction
    /// committed since the caller's snapshot, so its read set is current
    /// and validation is elided. Losing it means one did: the caller gets
    /// a plain tick from the value the CAS saw and must validate its reads
    /// before releasing orecs at `end`. Same contract as [`Clock::tick`].
    pub fn commit_tick(&self, snapshot: u64) -> (u64, bool) {
        match self.cas(snapshot, snapshot + 1) {
            Ok(_) => (snapshot + 1, false),
            Err(cur) => (self.tick_from(cur), true),
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_are_plus_one() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.tick(), 2);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn ticks_are_unique_across_threads() {
        let c = Clock::new();
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|_| s.spawn(|| (0..1000).map(|_| c.tick()).collect::<Vec<_>>()))
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 4000, "duplicate commit timestamps");
        assert_eq!(c.now(), 4000);
    }

    #[test]
    fn conflict_free_commit_tick_elides_validation() {
        let c = Clock::new();
        let snap = c.now();
        assert_eq!(c.commit_tick(snap), (snap + 1, false), "quiescent clock must elide");
        // Single-thread steady state keeps eliding.
        assert_eq!(c.commit_tick(c.now()), (snap + 2, false));
    }

    #[test]
    fn stale_snapshot_commit_tick_demands_validation() {
        let c = Clock::new();
        let snap = c.now();
        let other = c.tick(); // a commit after the snapshot
        assert_eq!(c.commit_tick(snap), (other + 1, true));
        assert_eq!(c.now(), other + 1);
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
