//! A counting shim over the runtime's atomic read-modify-writes (compiled
//! in only with the `sync-count` cargo feature) — the RMW/stall cost model
//! of Kuznetsov & Ravi's "Progressive Transactional Memory in Time and
//! Space" turned into something a test can pin.
//!
//! Every site in this crate that issues an atomic RMW on the transaction
//! path calls `rmw` with its [`SyncSite`]. With the feature **disabled**
//! (the default) `rmw` is an `#[inline(always)]` no-op. With it enabled,
//! the call bumps a thread-private tally that
//! `crates/tm/tests/sync_budget.rs` reads back with `take_thread_counts`
//! to assert, per algorithm and per path, how many RMWs one transaction
//! issues and on whose cache line.
//!
//! The crate issues no standalone fences: every ordering rides a load, a
//! store or one of the RMWs counted here.

/// Which word an atomic read-modify-write targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SyncSite {
    /// An ownership-record lock CAS (encounter- or commit-time).
    Orec,
    /// A commit-clock CAS.
    Clock,
    /// NOrec's global sequence-lock CAS.
    SeqLock,
    /// The global readers/writer serial lock (absent on a NoLock runtime).
    SerialLock,
    /// The hourglass contention manager's gate word.
    Hourglass,
    /// The process-wide transaction-id block counter (once per 2^20 ids
    /// per thread).
    TxId,
    /// A counter in the calling thread's own statistics block.
    Stats,
}

impl SyncSite {
    /// Every site, in [`SyncCounts`] index order.
    pub const ALL: [SyncSite; 7] = [
        SyncSite::Orec,
        SyncSite::Clock,
        SyncSite::SeqLock,
        SyncSite::SerialLock,
        SyncSite::Hourglass,
        SyncSite::TxId,
        SyncSite::Stats,
    ];

    /// Whether other threads write the targeted cache line. Only the
    /// per-thread statistics block is *own-line*: its RMWs never miss to
    /// another core (two threads share a block only when more than
    /// [`crate::layout::STAT_BLOCKS`] thread ordinals are live at once).
    pub const fn is_shared_line(self) -> bool {
        !matches!(self, SyncSite::Stats)
    }
}

/// RMWs issued by one thread, by site; see `take_thread_counts`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SyncCounts([u64; SyncSite::ALL.len()]);

impl SyncCounts {
    /// RMWs issued at `site`.
    pub fn at(&self, site: SyncSite) -> u64 {
        self.0[site as usize]
    }

    /// RMWs on lines other threads also write.
    pub fn shared_line(&self) -> u64 {
        SyncSite::ALL.iter().filter(|s| s.is_shared_line()).map(|&s| self.at(s)).sum()
    }

    /// RMWs on lines only the calling thread writes.
    pub fn own_line(&self) -> u64 {
        SyncSite::ALL.iter().filter(|s| !s.is_shared_line()).map(|&s| self.at(s)).sum()
    }
}

#[cfg(feature = "sync-count")]
mod counting {
    use super::{SyncCounts, SyncSite};
    use std::cell::Cell;

    thread_local! {
        static COUNTS: Cell<SyncCounts> = const { Cell::new(SyncCounts([0; SyncSite::ALL.len()])) };
    }

    #[inline]
    pub(crate) fn rmw(site: SyncSite) {
        COUNTS.with(|c| {
            let mut v = c.get();
            v.0[site as usize] += 1;
            c.set(v);
        });
    }

    /// Returns and resets the calling thread's RMW tally.
    pub fn take_thread_counts() -> SyncCounts {
        COUNTS.with(|c| c.replace(SyncCounts::default()))
    }
}

#[cfg(feature = "sync-count")]
pub use counting::take_thread_counts;

#[cfg(feature = "sync-count")]
pub(crate) use counting::rmw;

/// RMW-site hook, compiled to nothing without the `sync-count` feature.
#[cfg(not(feature = "sync-count"))]
#[inline(always)]
pub(crate) fn rmw(_site: SyncSite) {}
