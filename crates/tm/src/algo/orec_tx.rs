//! The orec engine behind both of the paper's orec algorithms (§4,
//! Figure 11): one table of ownership records, a versioned commit clock,
//! invisible reads validated against orec versions, and TinySTM/TL2-style
//! timestamp extension.
//!
//! * **Eager** (the GCC default) takes a word's orec when it first writes
//!   the word ([`OrecTx::write_through`]), logs the old value in the undo
//!   log and writes in place. The paper: it "does not have buffered
//!   update, had the lowest latency and the best scalability" on
//!   memcached — at the price of expensive aborts, which must roll writes
//!   back in place and bump the touched orecs' versions.
//! * **Lazy** buffers its writes in the redo log
//!   ([`LogBufs::redo_record`]) and takes their orecs only at commit
//!   (TL2-style). The paper found it abort-prone on memcached and taxed by
//!   the redo lookup every later read pays.
//!
//! That one step is the whole difference. Everything else is one path
//! whose other half is empty: a read first looks in the redo log (empty
//! under eager); validation accepts orecs in `locks` (empty under lazy
//! until commit); commit first takes the redo log's orecs (none under
//! eager), then ticks, validates and publishes the redo log; rollback
//! replays the undo log (empty under lazy).
//!
//! Buffer roles in [`LogBufs`]: `reads` holds `(orec index, observed
//! unlocked value)`, `locks` the orecs held `(orec index, pre-lock
//! value)`, `undo` eager's `(word address, previous value)`, `writes` and
//! `wmap` lazy's redo log.

use super::tword_at;
use crate::arena::{LogBufs, SMALL_WRITES};
use crate::error::Abort;
use crate::fault::{self, FaultSite};
use crate::orec::{self, OrecValue};
use crate::runtime::RtInner;
use crate::stats::Counter;

/// Per-attempt state of the orec engine; the logs live in the thread's
/// arena ([`LogBufs`]), passed into every operation.
#[derive(Debug)]
pub(crate) struct OrecTx {
    tx_id: u64,
    start_time: u64,
}

/// Did this transaction lock `idx`, and if so with what pre-lock value?
fn lock_prev(locks: &[(usize, OrecValue)], idx: usize) -> Option<OrecValue> {
    locks.iter().rev().find(|(i, _)| *i == idx).map(|(_, p)| *p)
}

/// Inline small-write scan over the most recent undo entries (the undo
/// log's twin of the redo log's [`SMALL_WRITES`] window): a word rewritten
/// while its orec is already ours needs no second undo entry — rollback
/// replays in reverse, so only the oldest entry per address matters.
/// Duplicates older than the window are pushed again, which is merely
/// redundant.
#[inline]
fn undo_recently_logged(undo: &[(usize, u64)], addr: usize) -> bool {
    undo.iter().rev().take(SMALL_WRITES).any(|&(a, _)| a == addr)
}

impl OrecTx {
    pub(crate) fn begin(rt: &RtInner, tx_id: u64) -> Self {
        OrecTx {
            tx_id,
            start_time: rt.clock.now(),
        }
    }

    pub(crate) fn is_read_only(&self, bufs: &LogBufs) -> bool {
        bufs.locks.is_empty() && bufs.writes.is_empty()
    }

    /// Revalidates the read set. An orec we locked ourselves is valid iff
    /// its pre-lock value is what the read observed; one another
    /// transaction holds is recorded in `blocked_on`.
    fn validate(&self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        // Fault site: callers treat a validation Err exactly like a real
        // conflict, and a panic here finds the undo log and lock set
        // intact for rollback.
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
                    // stale only if someone committed in between.
                    continue;
                }
            }
            bufs.stats.bump(Counter::orec_stripe_conflicts);
            return Err(Abort::Conflict);
        }
        Ok(())
    }

    /// Timestamp extension: revalidate, then move the snapshot forward.
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
        if let Some(v) = bufs.redo_lookup(addr) {
            return Ok(v);
        }
        let idx = rt.orecs.index_of(addr);
        loop {
            let o1 = rt.orecs.load(idx);
            if orec::is_locked(o1) {
                if orec::owner_of(o1) == self.tx_id {
                    // Written through: our own writes are already in place.
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

    /// One try at orec `idx`, last seen as `o`: `Ok(true)` once it is ours
    /// (held already, or taken now with its pre-lock value logged in
    /// `locks`), `Ok(false)` if the CAS lost a race, a conflict if another
    /// transaction holds it.
    fn try_take(&self, rt: &RtInner, bufs: &mut LogBufs, idx: usize, o: OrecValue) -> Result<bool, Abort> {
        if orec::is_locked(o) {
            if orec::owner_of(o) == self.tx_id {
                return Ok(true);
            }
            bufs.stats.bump(Counter::orec_stripe_conflicts);
            bufs.blocked_on = Some((idx, o));
            return Err(Abort::Conflict);
        }
        if !rt.orecs.try_update(idx, o, orec::locked_by(self.tx_id)) {
            return Ok(false);
        }
        bufs.locks.push((idx, o));
        Ok(true)
    }

    /// Eager's write: take the word's orec at encounter, log the old value
    /// and write in place.
    pub(crate) fn write_through(
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
            if !orec::is_locked(o) && orec::version_of(o) > self.start_time {
                self.extend(rt, bufs)?;
            } else if self.try_take(rt, bufs, idx, o)? {
                let w = tword_at(addr);
                // Only a word whose orec we held already can be logged.
                if !orec::is_locked(o) || !undo_recently_logged(&bufs.undo, addr) {
                    bufs.undo.push((addr, w.load_direct()));
                }
                w.store_direct(v);
                return Ok(());
            }
        }
    }

    /// Lazy's commit-time acquisition: takes the orec of every redo-log
    /// entry (none under eager). The redo log holds one entry per word, so
    /// `writes.len()` bounds the orecs taken.
    fn lock_redo_set(&self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        bufs.locks.reserve(bufs.writes.len());
        for i in 0..bufs.writes.len() {
            // Fault site: commit-time orec acquisition. Orecs taken so far
            // are in `locks`, so rollback releases them to their pre-lock
            // values on the Err path and after a panic alike.
            fault::inject(FaultSite::OrecAcquire)?;
            let idx = rt.orecs.index_of(bufs.writes[i].0);
            while !self.try_take(rt, bufs, idx, rt.orecs.load(idx))? {}
        }
        Ok(())
    }

    /// Writes the redo log back, releases every held orec at `end` and
    /// clears the logs.
    fn publish(rt: &RtInner, bufs: &mut LogBufs, end: u64) {
        for &(addr, v) in &bufs.writes {
            tword_at(addr).store_direct(v);
        }
        for &(idx, _) in &bufs.locks {
            rt.orecs.release(idx, orec::unlocked_at(end));
        }
        bufs.clear();
    }

    pub(crate) fn commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        let r = self.try_commit(rt, bufs);
        if r.is_err() {
            self.rollback(rt, bufs);
        }
        r
    }

    /// The commit protocol; [`OrecTx::commit`] rolls back on its every
    /// `Err`.
    fn try_commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        // Fault site: commit entry. Locks and undo are intact, so both the
        // Err path and a panic are fully recoverable.
        fault::inject(FaultSite::CommitLock)?;
        if self.is_read_only(bufs) {
            // Invisible reads were validated at read/extend time against a
            // snapshot; a read-only transaction commits without touching
            // the clock. If a writer committed since, it may have
            // privatized what we read and plain-stored behind orecs it left
            // unmoved, so revalidate the read set (loads only) first.
            if rt.clock.now() != self.start_time {
                self.validate(rt, bufs)?;
            }
            bufs.clear();
            return Ok(self.start_time);
        }
        self.lock_redo_set(rt, bufs)?;
        // Fault site: clock advance. Whole write set locked, nothing
        // published.
        fault::inject(FaultSite::ClockTick)?;
        let (end, revalidate) = rt.clock.commit_tick(self.start_time);
        if revalidate {
            // The clock moved past our snapshot: a transaction committed
            // since we started, so the read set must be revalidated.
            bufs.stats.bump(Counter::clock_cas_retries);
            self.validate(rt, bufs)?;
        } else {
            // GV5-style conflict-free path: our CAS moved the clock off
            // our own snapshot, so no transaction committed since we
            // started — validation elided.
            bufs.stats.bump(Counter::clock_tick_elisions);
        }
        Self::publish(rt, bufs, end);
        // `end` came from `commit_tick`, so it exceeds every timestamp
        // published before this attempt's write-set locks became visible
        // — later committers on overlapping data mint strictly larger
        // stamps.
        Ok(end)
    }

    /// Undoes the attempt and releases every held orec. Also the
    /// panic-recovery path: a panic out of a write or out of commit leaves
    /// `undo` and `locks` consistent.
    pub(crate) fn rollback(&mut self, rt: &RtInner, bufs: &mut LogBufs) {
        // Undo in reverse so overlapping writes restore the oldest value.
        for &(addr, old) in bufs.undo.iter().rev() {
            tword_at(addr).store_direct(old);
        }
        if bufs.undo.is_empty() {
            // Nothing was written in place: back to the pre-lock values.
            for &(idx, prev) in &bufs.locks {
                rt.orecs.release(idx, prev);
            }
        } else {
            // Bump versions: concurrent readers may have seen our
            // intermediate values and must fail validation.
            let t = rt.clock.tick();
            for &(idx, _) in &bufs.locks {
                rt.orecs.release(idx, orec::unlocked_at(t));
            }
        }
        bufs.clear();
    }

    /// Caller holds the serial lock exclusively, so no other transaction
    /// runs. Validate, then publish: the redo log is written back directly
    /// and orecs held for in-place writes are released at a fresh
    /// timestamp.
    pub(crate) fn make_irrevocable(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        if let Err(e) = self.validate(rt, bufs) {
            self.rollback(rt, bufs);
            return Err(e);
        }
        let end = if bufs.locks.is_empty() { 0 } else { rt.clock.tick() };
        Self::publish(rt, bufs, end);
        Ok(())
    }
}
