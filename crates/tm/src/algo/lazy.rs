//! The "Lazy" engine (paper §4): the same orec lock table as the GCC
//! default, but buffered (redo-log) updates with commit-time locking —
//! TL2-style.
//!
//! The paper found this algorithm abort-prone on memcached (14 aborts per
//! commit at 12 threads) and penalized by its redo log: `memcpy`-style
//! byte stores must be buffered and then found again by later word reads.
//! That redo lookup used to be a `HashMap<usize, usize>` allocated per
//! attempt; it is now the arena's open-addressed
//! [`WriteMap`](crate::arena::WriteMap) with an inline small-write scan
//! (see [`LogBufs::redo_lookup`]), so a steady-state attempt allocates
//! nothing.
//!
//! Buffer roles in [`LogBufs`]: `reads` holds `(orec index, observed
//! unlocked value)`, `writes` the redo log (one entry per distinct word
//! address), `wmap` the redo index past the inline window, and `locks` the
//! commit-time held-lock scratch list.

use super::tword_at;
use crate::arena::LogBufs;
use crate::error::Abort;
use crate::fault::{self, FaultSite};
use crate::orec::{self, OrecValue};
use crate::runtime::RtInner;
use crate::stats::{Counter, StatDeltas};

/// Per-attempt state for the lazy engine; logs live in the arena.
#[derive(Debug)]
pub(crate) struct LazyTx {
    tx_id: u64,
    start_time: u64,
}

/// Revalidates the read set against the orec table. `held` is the
/// commit-time lock list: an orec we locked ourselves is valid iff its
/// pre-lock value is what the read observed. An orec found locked by
/// another transaction is recorded in `blocked_on`.
fn validate(
    rt: &RtInner,
    tx_id: u64,
    reads: &[(usize, OrecValue)],
    held: &[(usize, OrecValue)],
    stats: &mut StatDeltas,
    blocked_on: &mut Option<(usize, OrecValue)>,
) -> Result<(), Abort> {
    // Fault site: every caller treats a validation Err like a real
    // conflict and releases any held orecs; a panic here is recovered by
    // LazyTx::rollback, which releases `bufs.locks` to pre-lock values.
    fault::inject(FaultSite::Validate)?;
    for &(idx, observed) in reads {
        let cur = rt.orecs.load(idx);
        if cur == observed {
            continue;
        }
        if orec::is_locked(cur) {
            if orec::owner_of(cur) != tx_id {
                *blocked_on = Some((idx, cur));
            } else if held.iter().any(|&(i, prev)| i == idx && prev == observed) {
                // Locked by us during this commit; valid iff the pre-lock
                // value is what we observed when reading.
                continue;
            }
        }
        stats.bump(Counter::orec_stripe_conflicts);
        return Err(Abort::Conflict);
    }
    Ok(())
}

impl LazyTx {
    pub(crate) fn begin(rt: &RtInner, tx_id: u64) -> Self {
        LazyTx {
            tx_id,
            start_time: rt.clock.now(),
        }
    }

    pub(crate) fn is_read_only(&self, bufs: &LogBufs) -> bool {
        bufs.writes.is_empty()
    }

    fn extend(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        let now = rt.clock.now();
        validate(rt, self.tx_id, &bufs.reads, &[], &mut bufs.stats, &mut bufs.blocked_on)?;
        self.start_time = now;
        bufs.stats.bump(Counter::snapshot_extensions);
        Ok(())
    }

    pub(crate) fn read_word(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
    ) -> Result<u64, Abort> {
        if let Some(v) = bufs.redo_lookup(addr) {
            return Ok(v);
        }
        let idx = rt.orecs.index_of(addr);
        loop {
            let o1 = rt.orecs.load(idx);
            if orec::is_locked(o1) {
                // We never hold locks while executing, so this is always a
                // concurrent committer: conflict.
                bufs.stats.bump(Counter::orec_stripe_conflicts);
                bufs.blocked_on = Some((idx, o1));
                return Err(Abort::Conflict);
            }
            let v = tword_at(addr).load_direct();
            let o2 = rt.orecs.load(idx);
            if o1 != o2 {
                continue;
            }
            if orec::version_of(o1) <= self.start_time {
                // Already logged: keep the latest consistent observation
                // instead of appending a duplicate.
                if let Some(slot) = bufs.read_slot_or_append(idx, o1) {
                    bufs.reads[slot].1 = o1;
                    bufs.stats.bump(Counter::read_log_dedup_hits);
                }
                return Ok(v);
            }
            self.extend(rt, bufs)?;
        }
    }

    pub(crate) fn commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        // Fault site: commit entry, before any orec is taken.
        if let Err(e) = fault::inject(FaultSite::CommitLock) {
            bufs.clear();
            return Err(e);
        }
        let LogBufs {
            reads,
            writes,
            locks: held,
            stats,
            blocked_on,
            ..
        } = bufs;
        if writes.is_empty() {
            // Read-only: as in eager, a writer that committed since our
            // snapshot may have privatized what we read, so revalidate.
            if rt.clock.now() != self.start_time
                && validate(rt, self.tx_id, reads, held, stats, blocked_on).is_err()
            {
                bufs.clear();
                return Err(Abort::Conflict);
            }
            bufs.clear();
            return Ok(self.start_time);
        }
        // Acquire every distinct orec covering the write set. The redo log
        // holds one entry per word address (redo_record deduplicates), so
        // `writes.len()` is the deduplicated upper bound on held locks;
        // steady-state this reserve is a no-op against arena capacity.
        debug_assert!(held.is_empty());
        held.reserve(writes.len());
        for &(addr, _) in writes.iter() {
            // Fault site: commit-time orec acquisition. Held orecs so far
            // are in `held` (== bufs.locks), so the Err path below and a
            // panic (recovered by rollback) both release them to their
            // pre-lock values.
            if let Err(e) = fault::inject(FaultSite::OrecAcquire) {
                release_held(rt, held, None);
                bufs.clear();
                return Err(e);
            }
            let idx = rt.orecs.index_of(addr);
            if held.iter().any(|&(i, _)| i == idx) {
                continue; // hash collision onto an orec we already hold
            }
            loop {
                let o = rt.orecs.load(idx);
                if orec::is_locked(o) {
                    if orec::owner_of(o) == self.tx_id {
                        break; // hash collision onto an orec we already hold
                    }
                    stats.bump(Counter::orec_stripe_conflicts);
                    *blocked_on = Some((idx, o));
                    release_held(rt, held, None);
                    bufs.clear();
                    return Err(Abort::Conflict);
                }
                if rt.orecs.try_update(idx, o, orec::locked_by(self.tx_id)) {
                    held.push((idx, o));
                    break;
                }
            }
        }
        // Fault site: clock advance. Whole write set locked, nothing
        // published; releasing to pre-lock values undoes everything.
        if let Err(e) = fault::inject(FaultSite::ClockTick) {
            release_held(rt, held, None);
            bufs.clear();
            return Err(e);
        }
        let (end, revalidate) = rt.clock.commit_tick(self.start_time);
        if revalidate {
            // The clock moved past our snapshot: someone committed since
            // we started, revalidate the read set.
            stats.bump(Counter::clock_cas_retries);
            if validate(rt, self.tx_id, reads, held, stats, blocked_on).is_err() {
                release_held(rt, held, None);
                bufs.clear();
                return Err(Abort::Conflict);
            }
        } else {
            // GV5-style conflict-free path: no commit since our snapshot,
            // so the read set is provably current — validation elided.
            stats.bump(Counter::clock_tick_elisions);
        }
        for &(addr, v) in writes.iter() {
            tword_at(addr).store_direct(v);
        }
        release_held(rt, held, Some(end));
        bufs.clear();
        // Same commit-stamp invariant as eager: `end` exceeds every stamp
        // published before our write locks became visible.
        Ok(end)
    }

    pub(crate) fn rollback(&mut self, rt: &RtInner, bufs: &mut LogBufs) {
        // Normally nothing is held here — commit releases its own locks on
        // every failure path — but a panic that unwinds out of the
        // commit-time acquisition loop (e.g. an injected fault) leaves its
        // partial lock set in `bufs.locks`; restore those orecs to their
        // pre-lock values so other threads are never blocked.
        release_held(rt, &bufs.locks, None);
        bufs.clear();
    }

    /// Caller holds the serial lock exclusively: validate, then publish the
    /// redo log directly.
    pub(crate) fn make_irrevocable(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        if validate(rt, self.tx_id, &bufs.reads, &[], &mut bufs.stats, &mut bufs.blocked_on).is_err() {
            bufs.clear();
            return Err(Abort::Conflict);
        }
        for &(addr, v) in &bufs.writes {
            tword_at(addr).store_direct(v);
        }
        bufs.clear();
        Ok(())
    }
}

/// Releases held orecs — to their pre-lock values on failure (`None`),
/// or to the commit timestamp on success.
fn release_held(rt: &RtInner, held: &[(usize, OrecValue)], end: Option<u64>) {
    for &(idx, prev) in held {
        rt.orecs.release(idx, end.map_or(prev, orec::unlocked_at));
    }
}
