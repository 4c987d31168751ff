//! The GCC-default engine: encounter-time orec locking, write-through
//! (direct update), undo logging, and TinySTM/TL2-style timestamp
//! extension.
//!
//! The paper (§4) observes that this design "does not have buffered update,
//! had the lowest latency and the best scalability" on memcached — at the
//! price of expensive aborts, since undone writes must be rolled back in
//! place and the touched orecs' versions bumped.
//!
//! Log storage lives in the caller-provided [`LogBufs`] arena (cleared,
//! never freed, between attempts): `reads`/`locks` hold
//! `(orec index, observed unlocked value)` pairs and `undo` holds
//! `(word address, previous value)`.

use super::tword_at;
use crate::arena::{LogBufs, SMALL_WRITES};
use crate::error::Abort;
use crate::fault::{self, FaultSite};
use crate::orec::{self, OrecValue};
use crate::runtime::RtInner;
use crate::stats::Counter;

/// Per-attempt state for the eager engine. The logs themselves live in the
/// thread's arena ([`LogBufs`]), passed into every operation.
#[derive(Debug)]
pub(crate) struct EagerTx {
    tx_id: u64,
    start_time: u64,
}

/// Did this transaction lock `idx`, and if so with what pre-lock value?
fn lock_prev(locks: &[(usize, OrecValue)], idx: usize) -> Option<OrecValue> {
    locks.iter().rev().find(|(i, _)| *i == idx).map(|(_, p)| *p)
}

/// Inline small-write scan over the most recent undo entries (the eager
/// twin of the redo log's [`SMALL_WRITES`] window): a word rewritten while
/// its orec is already ours needs no second undo entry — rollback replays
/// in reverse, so only the oldest entry per address matters. Duplicates
/// older than the window are pushed again, which is merely redundant.
#[inline]
fn undo_recently_logged(undo: &[(usize, u64)], addr: usize) -> bool {
    undo.iter().rev().take(SMALL_WRITES).any(|&(a, _)| a == addr)
}

impl EagerTx {
    pub(crate) fn begin(rt: &RtInner, tx_id: u64) -> Self {
        EagerTx {
            tx_id,
            start_time: rt.clock.now(),
        }
    }

    pub(crate) fn is_read_only(&self, bufs: &LogBufs) -> bool {
        bufs.locks.is_empty()
    }

    /// Revalidates the read set; on success the snapshot may be extended to
    /// `new_time` by the caller.
    fn validate(&self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        // Fault site: callers treat a validation Err exactly like a real
        // conflict, and a panic here finds the undo log and lock set
        // intact for replay.
        fault::inject(FaultSite::Validate)?;
        for &(idx, observed) in &bufs.reads {
            let cur = rt.orecs.load(idx);
            if cur == observed {
                continue;
            }
            if orec::is_locked(cur) {
                if orec::owner_of(cur) != self.tx_id {
                    bufs.blocked_on = Some((idx, cur));
                } else if lock_prev(&bufs.locks, idx) == Some(observed) {
                    // We locked this orec after reading it; the read is
                    // stale only if someone committed in between (pre-lock
                    // value differs from what we read past).
                    continue;
                }
            }
            bufs.stats.bump(Counter::orec_stripe_conflicts);
            return Err(Abort::Conflict);
        }
        Ok(())
    }

    /// TinySTM-style timestamp extension: revalidate, then move the
    /// snapshot forward.
    fn extend(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        let now = rt.clock.now();
        self.validate(rt, bufs)?;
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
        let idx = rt.orecs.index_of(addr);
        loop {
            let o1 = rt.orecs.load(idx);
            if orec::is_locked(o1) {
                if orec::owner_of(o1) == self.tx_id {
                    // Write-through: our own writes are already in place.
                    return Ok(tword_at(addr).load_direct());
                }
                bufs.stats.bump(Counter::orec_stripe_conflicts);
                bufs.blocked_on = Some((idx, o1));
                return Err(Abort::Conflict);
            }
            let v = tword_at(addr).load_direct();
            let o2 = rt.orecs.load(idx);
            if o1 != o2 {
                continue; // changed under us; re-sample
            }
            if orec::version_of(o1) <= self.start_time {
                // A duplicate entry would only make validation longer:
                // keep the latest consistent observation (it can differ
                // from the logged one only after an extension refreshed
                // the whole read set).
                if let Some(slot) = bufs.read_slot_or_append(idx, o1) {
                    bufs.reads[slot].1 = o1;
                    bufs.stats.bump(Counter::read_log_dedup_hits);
                }
                return Ok(v);
            }
            self.extend(rt, bufs)?;
        }
    }

    pub(crate) fn write_word(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
        v: u64,
    ) -> Result<(), Abort> {
        // Fault site: before any state for this word is touched, so an
        // injected abort/panic leaves the undo log consistent.
        fault::inject(FaultSite::OrecAcquire)?;
        let idx = rt.orecs.index_of(addr);
        loop {
            let o = rt.orecs.load(idx);
            if orec::is_locked(o) {
                if orec::owner_of(o) == self.tx_id {
                    let w = tword_at(addr);
                    if !undo_recently_logged(&bufs.undo, addr) {
                        bufs.undo.push((addr, w.load_direct()));
                    }
                    w.store_direct(v);
                    return Ok(());
                }
                bufs.stats.bump(Counter::orec_stripe_conflicts);
                bufs.blocked_on = Some((idx, o));
                return Err(Abort::Conflict);
            }
            if orec::version_of(o) > self.start_time {
                self.extend(rt, bufs)?;
                continue;
            }
            if rt.orecs.try_update(idx, o, orec::locked_by(self.tx_id)) {
                bufs.locks.push((idx, o));
                let w = tword_at(addr);
                bufs.undo.push((addr, w.load_direct()));
                w.store_direct(v);
                return Ok(());
            }
            // CAS raced; re-sample.
        }
    }

    pub(crate) fn commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        // Fault site: commit entry. Locks and undo are intact, so both the
        // Err path (rollback below) and a panic are fully recoverable.
        if let Err(e) = fault::inject(FaultSite::CommitLock) {
            self.rollback(rt, bufs);
            return Err(e);
        }
        if bufs.locks.is_empty() {
            // Invisible reads were validated at read/extend time against a
            // snapshot; a read-only transaction commits without touching
            // the clock. If a writer committed since, it may have
            // privatized what we read and plain-stored behind orecs it left
            // unmoved, so revalidate the read set (loads only) first.
            if rt.clock.now() != self.start_time && self.validate(rt, bufs).is_err() {
                bufs.clear();
                return Err(Abort::Conflict);
            }
            bufs.clear();
            return Ok(self.start_time);
        }
        // Fault site: clock advance. Nothing published yet.
        if let Err(e) = fault::inject(FaultSite::ClockTick) {
            self.rollback(rt, bufs);
            return Err(e);
        }
        let (end, revalidate) = rt.clock.commit_tick(self.start_time);
        if revalidate {
            // The clock moved past our snapshot: a transaction committed
            // since we started, so the read set must be revalidated.
            bufs.stats.bump(Counter::clock_cas_retries);
            if self.validate(rt, bufs).is_err() {
                self.rollback(rt, bufs);
                return Err(Abort::Conflict);
            }
        } else {
            // GV5-style conflict-free path: our CAS moved the clock off
            // our own snapshot, so no transaction committed since we
            // started — validation elided.
            bufs.stats.bump(Counter::clock_tick_elisions);
        }
        for &(idx, _) in &bufs.locks {
            rt.orecs.release(idx, orec::unlocked_at(end));
        }
        bufs.clear();
        // `end` came from `commit_tick`, so it exceeds every timestamp
        // published before this attempt's write-set locks became visible
        // — later committers on overlapping data mint strictly larger
        // stamps.
        Ok(end)
    }

    pub(crate) fn rollback(&mut self, rt: &RtInner, bufs: &mut LogBufs) {
        // Undo in reverse so overlapping writes restore the oldest value.
        for &(addr, old) in bufs.undo.iter().rev() {
            tword_at(addr).store_direct(old);
        }
        if !bufs.locks.is_empty() {
            // Bump versions: concurrent readers may have seen our
            // intermediate values and must fail validation.
            let t = rt.clock.tick();
            for &(idx, _) in &bufs.locks {
                rt.orecs.release(idx, orec::unlocked_at(t));
            }
        }
        bufs.clear();
    }

    /// Caller holds the serial lock exclusively. Validate, then publish:
    /// writes are already in place, so releasing our orecs at a fresh
    /// timestamp completes the transition to uninstrumented execution.
    pub(crate) fn make_irrevocable(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        if self.validate(rt, bufs).is_err() {
            self.rollback(rt, bufs);
            return Err(Abort::Conflict);
        }
        if !bufs.locks.is_empty() {
            let end = rt.clock.tick();
            for &(idx, _) in &bufs.locks {
                rt.orecs.release(idx, orec::unlocked_at(end));
            }
        }
        bufs.clear();
        Ok(())
    }
}
