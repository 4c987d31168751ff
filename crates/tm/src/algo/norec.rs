//! The NOrec engine \[Dalessandro, Spear & Scott, PPoPP 2010\]: no
//! ownership records; one global sequence lock plus value-based validation.
//!
//! The paper found that on memcached "the frequency of small writer
//! transactions induced a bottleneck on internal NOrec metadata" — i.e. on
//! exactly the [`crate::clock::SeqLock`] this module serializes commits
//! through.
//!
//! Buffer roles in [`LogBufs`]: `reads` is the value-based read log
//! `(word address, value read)`, `writes` the redo log, `wmap` the redo
//! index past the inline small-write window.

use super::tword_at;
use crate::arena::LogBufs;
use crate::error::Abort;
use crate::fault::{self, FaultSite};
use crate::runtime::RtInner;
use crate::stats::Counter;

/// Per-attempt state for the NOrec engine; logs live in the arena.
#[derive(Debug)]
pub(crate) struct NorecTx {
    /// Value of the global sequence lock this attempt is consistent with.
    snapshot: u64,
    /// True while this attempt holds the sequence lock (between a
    /// successful `try_begin_commit` and `end_commit`). Rollback uses it
    /// to release the lock if a panic ever unwinds out of that window —
    /// no fault is injected there, but user-visible liveness must not
    /// depend on that placement staying true forever.
    committing: bool,
}

impl NorecTx {
    pub(crate) fn begin(rt: &RtInner) -> Self {
        NorecTx {
            snapshot: rt.seqlock.wait_even(),
            committing: false,
        }
    }

    pub(crate) fn is_read_only(&self, bufs: &LogBufs) -> bool {
        bufs.writes.is_empty()
    }

    /// Value-based validation: re-read every logged location and compare.
    /// On success the snapshot advances to the current sequence value —
    /// NOrec's flavor of snapshot extension.
    fn validate(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        // Fault site: the sequence lock is never held here (commit only
        // validates after a failed try_begin_commit), so an injected
        // abort/panic is recovered by a plain log clear.
        fault::inject(FaultSite::Validate)?;
        loop {
            let t = rt.seqlock.wait_even();
            for &(addr, v) in &bufs.reads {
                if tword_at(addr).load_direct() != v {
                    return Err(Abort::Conflict);
                }
            }
            if rt.seqlock.load() == t {
                if t != self.snapshot {
                    bufs.stats.bump(Counter::snapshot_extensions);
                }
                self.snapshot = t;
                return Ok(());
            }
            // A committer raced our validation; try again.
        }
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
        loop {
            let v = tword_at(addr).load_direct();
            let t = rt.seqlock.load();
            if t == self.snapshot {
                // Already logged: refresh the observed value (both
                // observations are consistent at `snapshot`) instead of
                // appending a duplicate for validation to re-read.
                if let Some(slot) = bufs.read_slot_or_append(addr, v) {
                    bufs.reads[slot].1 = v;
                    bufs.stats.bump(Counter::read_log_dedup_hits);
                }
                return Ok(v);
            }
            // Sequence moved since our snapshot: revalidate (which also
            // advances the snapshot), then re-read.
            self.validate(rt, bufs)?;
        }
    }

    pub(crate) fn commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        // Fault site: commit entry, before the sequence lock is contended.
        if let Err(e) = fault::inject(FaultSite::CommitLock) {
            bufs.clear();
            return Err(e);
        }
        if bufs.writes.is_empty() {
            // Read-only: already consistent at `snapshot`.
            bufs.clear();
            return Ok(self.snapshot);
        }
        // NOrec's commit CAS *is* its clock tick: a first-try acquisition
        // means the snapshot was still current — the conflict-free path the
        // clock-elision counters gauge. Every lost CAS is a seqlock retry
        // (revalidate, then try again at the advanced snapshot).
        let mut first_try = true;
        while !rt.seqlock.try_begin_commit(self.snapshot) {
            first_try = false;
            bufs.stats.bump(Counter::clock_cas_retries);
            if self.validate(rt, bufs).is_err() {
                bufs.clear();
                return Err(Abort::Conflict);
            }
        }
        if first_try {
            bufs.stats.bump(Counter::clock_tick_elisions);
        }
        self.committing = true;
        for &(addr, v) in &bufs.writes {
            tword_at(addr).store_direct(v);
        }
        rt.seqlock.end_commit(self.snapshot);
        self.committing = false;
        bufs.clear();
        // `end_commit` published snapshot+2 (odd while held, even after):
        // that even value is this commit's position in the global order.
        Ok(self.snapshot + 2)
    }

    pub(crate) fn rollback(&mut self, rt: &RtInner, bufs: &mut LogBufs) {
        if self.committing {
            // Defensive: a panic unwound while we held the sequence lock.
            // Release it so the runtime stays live; the partially
            // published write-back is covered by the sequence bump, which
            // forces every concurrent reader to revalidate.
            rt.seqlock.end_commit(self.snapshot);
            self.committing = false;
        }
        bufs.clear();
    }

    /// Caller holds the serial lock exclusively, so no other transaction is
    /// running; still take the sequence lock for the write-back so the
    /// global time base reflects the update.
    pub(crate) fn make_irrevocable(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        while !rt.seqlock.try_begin_commit(self.snapshot) {
            if self.validate(rt, bufs).is_err() {
                bufs.clear();
                return Err(Abort::Conflict);
            }
        }
        self.committing = true;
        for &(addr, v) in &bufs.writes {
            tword_at(addr).store_direct(v);
        }
        rt.seqlock.end_commit(self.snapshot);
        self.committing = false;
        bufs.clear();
        Ok(())
    }
}
