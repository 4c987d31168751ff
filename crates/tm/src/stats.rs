//! Runtime statistics: the counters behind the paper's Tables 1–4.
//!
//! The paper reports, per branch, the total number of transactions and how
//! many serialized — split by cause: **In-Flight Switch** (a relaxed
//! transaction hit an unsafe operation mid-execution), **Start Serial**
//! (every path through the transaction is unsafe, so it began irrevocably),
//! and **Abort Serial** (the contention policy serialized it after too many
//! consecutive aborts).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena::ThreadCtx;
use crate::layout::CACHE_LINE;
use crate::sync_count::{self, SyncSite};

/// Statistics blocks per runtime. A thread flushes into block
/// `ordinal % STAT_BLOCKS`.
pub(crate) const STAT_BLOCKS: usize = 64;

macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident),* $(,)?) => {
        /// Index of one counter in a [`StatBlock`] / [`StatDeltas`], in
        /// declaration order.
        #[allow(non_camel_case_types)]
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum Counter {
            $($name,)*
        }

        /// A point-in-time copy of the runtime counters, suitable for diffing.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $name: u64,)*
            /// Compile shim for the frozen `benchmark/` package: a store
            /// is never elided, so this is always 0. Delete with the next
            /// benchmark PR.
            #[doc(hidden)]
            pub silent_store_elisions: u64,
        }

        impl TmStats {
            /// Folds every block into one copy of the counters.
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.sum(Counter::$name),)*
                    ..StatsSnapshot::default()
                }
            }
        }

        impl StatsSnapshot {
            /// Counter-wise `self - earlier`; saturates at zero so a reset
            /// between snapshots cannot underflow.
            pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($name: self.$name.saturating_sub(earlier.$name),)*
                    ..StatsSnapshot::default()
                }
            }
        }
    };
}

counters! {
    /// Transactions started (each retry of the same source transaction
    /// counts once, matching the paper's "Transactions" column which counts
    /// *committed* attempts — see [`StatsSnapshot::transactions`]).
    begins,
    /// Transactions committed.
    commits,
    /// Aborts (conflict or failed commit-time validation).
    aborts,
    /// Commits that wrote nothing (read-only fast path).
    read_only_commits,
    /// Relaxed transactions that hit an unsafe operation mid-flight and
    /// upgraded to serial-irrevocable mode.
    in_flight_switch,
    /// Relaxed transactions that began in serial mode because every code
    /// path performs an unsafe operation.
    start_serial,
    /// Transactions serialized by the contention policy after too many
    /// consecutive aborts.
    abort_serial,
    /// Commits completed while irrevocable (any cause).
    irrevocable_commits,
    /// In-flight switches that failed validation, or lost the serial-lock
    /// upgrade to another writer, and fell back to an abort.
    failed_switches,
    /// `onCommit` handlers executed.
    commit_handlers_run,
    /// `onAbort` handlers executed.
    abort_handlers_run,
    /// Explicit cancellations (`transaction_cancel`).
    cancels,
    /// Attempts torn down because a panic unwound out of the transaction
    /// body or the engine's commit path (undo replayed, locks released,
    /// then the unwind resumed).
    panic_aborts,
    /// `onCommit`/`onAbort` handlers that panicked. A handler panic never
    /// rolls back an already-committed transaction; the first payload is
    /// re-thrown after all remaining handlers have run.
    handler_panics,
    /// Read-only fast-lane transactions that committed without ever
    /// promoting: no orec acquired, no undo/redo log, single-fence commit.
    ro_fast_commits,
    /// Fast-lane transactions that wrote mid-flight and promoted to a full
    /// read-write transaction (which then committed or retried normally).
    ro_promotions,
    /// Validations that *extended* a snapshot instead of aborting: the
    /// global clock (or NOrec seqlock) had moved, but every logged read was
    /// still consistent, so the start timestamp was advanced in place.
    snapshot_extensions,
    /// Repeated reads of an already-logged word (same orec for eager/lazy,
    /// same address for NOrec) served from the read-set index without
    /// appending a duplicate read-log entry.
    read_log_dedup_hits,
    /// Writer commits that acquired their timestamp with the conflict-free
    /// `snapshot -> snapshot + 1` CAS (TL2 GV5-style): the snapshot was
    /// provably current at commit, so commit-time validation was skipped.
    /// For NOrec this counts first-try seqlock acquisitions.
    clock_tick_elisions,
    /// Commit-time clock CASes lost to a concurrent committer — the
    /// contended path that pays a full tick plus validation (for NOrec,
    /// seqlock acquisition retries). The clock-pressure gauge: relief work
    /// (magazines, batching) must push this down by committing fewer
    /// writer transactions.
    clock_cas_retries,
    /// Conflicts observed on an orec (locked-by-other encounters and
    /// validation version mismatches) — the abort edges of eager and lazy.
    orec_stripe_conflicts,
    /// Aborted attempts that waited, before retrying, for an orec another
    /// transaction held to change — the retry rule of eager and lazy: an
    /// attempt that died on a held lock retries once the lock is free.
    lock_waits,
}

const NCOUNTERS: usize = Counter::lock_waits as usize + 1;
const _: () = assert!(NCOUNTERS <= u32::BITS as usize, "StatDeltas::dirty is a u32 mask");

/// One thread's slice of a runtime's counters: whole cache lines that only
/// threads of one ordinal residue ever write, so a transaction's
/// bookkeeping never invalidates a line under another core.
#[repr(align(64))]
pub(crate) struct StatBlock([AtomicU64; NCOUNTERS]);

const _: () = assert!(std::mem::align_of::<StatBlock>() == CACHE_LINE, "StatBlock must start a cache line");
const _: () = assert!(std::mem::size_of::<StatBlock>().is_multiple_of(CACHE_LINE), "StatBlock must end on a cache line");

/// The counters an attempt accumulates privately (in the thread's arena)
/// before [`TmStats::flush`] adds them to the thread's [`StatBlock`].
#[derive(Debug, Default)]
pub(crate) struct StatDeltas {
    counts: [u64; NCOUNTERS],
    /// Bit `c` set iff `counts[c] != 0`, so a flush visits only the few
    /// counters an attempt touched.
    dirty: u32,
}

impl StatDeltas {
    #[inline]
    pub(crate) fn bump(&mut self, c: Counter) {
        self.add(c, 1);
    }

    #[inline]
    pub(crate) fn add(&mut self, c: Counter, n: u64) {
        self.counts[c as usize] += n;
        self.dirty |= u32::from(n != 0) << c as u32;
    }

    /// The unflushed count of `c`.
    #[cfg(test)]
    pub(crate) fn get(&self, c: Counter) -> u64 {
        self.counts[c as usize]
    }
}

/// Live counters owned by a [`crate::TmRuntime`]: [`STAT_BLOCKS`]
/// per-thread blocks, folded on read. Counts are exact for any number of
/// threads — threads whose ordinals collide on a block add to it
/// atomically, and a thread's counts outlive it because the runtime, not
/// the thread, owns the block.
pub(crate) struct TmStats {
    blocks: Box<[StatBlock]>,
}

impl TmStats {
    pub(crate) fn new() -> Self {
        TmStats {
            blocks: (0..STAT_BLOCKS)
                .map(|_| StatBlock(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
        }
    }

    /// Adds `d` to the block of the thread with ordinal `ord` and zeroes it.
    #[inline]
    pub(crate) fn flush(&self, ord: u64, d: &mut StatDeltas) {
        let block = &self.blocks[ord as usize % STAT_BLOCKS];
        while d.dirty != 0 {
            let c = d.dirty.trailing_zeros() as usize;
            d.dirty &= d.dirty - 1;
            sync_count::rmw(SyncSite::Stats);
            block.0[c].fetch_add(std::mem::take(&mut d.counts[c]), Ordering::Relaxed);
        }
    }

    /// One counter summed over every block.
    pub(crate) fn sum(&self, c: Counter) -> u64 {
        self.blocks.iter().map(|b| b.0[c as usize].load(Ordering::Relaxed)).sum()
    }
}

impl fmt::Debug for TmStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TmStats{:?}", self.snapshot())
    }
}

impl StatsSnapshot {
    /// The paper's "Transactions" column: completed transactions
    /// (commits + cancels), not counting aborted attempts separately.
    pub fn transactions(&self) -> u64 {
        self.commits + self.cancels
    }

    /// Aborts per commit — the ratio the paper quotes when comparing
    /// algorithms in §4 ("NOrec worker threads aborted once per 5 commits,
    /// Lazy ... 14 times per 1 commit").
    pub fn aborts_per_commit(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.aborts as f64 / self.commits as f64
        }
    }

    /// Fraction of transactions that serialized for any reason.
    pub fn serialization_rate(&self) -> f64 {
        let t = self.transactions();
        if t == 0 {
            0.0
        } else {
            (self.in_flight_switch + self.start_serial + self.abort_serial) as f64 / t as f64
        }
    }
}

impl fmt::Display for StatsSnapshot {
    /// One row in the format of the paper's Tables 1–4.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let t = self.transactions().max(1) as f64;
        write!(
            f,
            "txns={} in-flight={} ({:.1}%) start-serial={} ({:.1}%) abort-serial={}",
            self.transactions(),
            self.in_flight_switch,
            100.0 * self.in_flight_switch as f64 / t,
            self.start_serial,
            100.0 * self.start_serial as f64 / t,
            self.abort_serial,
        )
    }
}

/// The runtime's global time-base and gate words, read with one load
/// each; see [`crate::TmRuntime::liveness`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LivenessSnapshot {
    /// Global commit-clock value (eager/lazy timestamp clock).
    pub clock: u64,
    /// NOrec global sequence-lock value.
    pub seq: u64,
    /// Transaction id currently holding the hourglass gate closed
    /// (0 = open).
    pub hourglass_holder: u64,
}

/// Per-thread commit/abort tallies, used by the Figure 11 harness to report
/// the cross-thread abort-rate variance the paper discusses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadTally {
    /// Commits by this thread since the last [`take_thread_tally`].
    pub commits: u64,
    /// Aborts by this thread since the last [`take_thread_tally`].
    pub aborts: u64,
}

/// Returns and resets the calling thread's commit/abort tally.
pub fn take_thread_tally() -> ThreadTally {
    ThreadCtx::with(|tc| tc.tally.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_and_diff() {
        let s = TmStats::new();
        let mut d = StatDeltas::default();
        d.add(Counter::commits, 2);
        d.bump(Counter::aborts);
        s.flush(0, &mut d);
        let a = s.snapshot();
        d.bump(Counter::commits);
        s.flush(0, &mut d);
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.commits, 1);
        assert_eq!(d.aborts, 0);
    }

    #[test]
    fn flush_drains_the_deltas_and_folds_across_blocks() {
        let s = TmStats::new();
        let mut d = StatDeltas::default();
        // Two "threads" on different blocks, a third colliding with the
        // first (ordinal one full turn of the blocks later).
        for ord in [3, 4, 3 + STAT_BLOCKS as u64] {
            d.add(Counter::commits, 10);
            d.add(Counter::read_log_dedup_hits, 0); // must not mark dirty
            d.bump(Counter::lock_waits);
            s.flush(ord, &mut d);
            assert_eq!(d.dirty, 0);
            assert_eq!(d.get(Counter::commits), 0, "flush must zero what it moved");
        }
        assert_eq!(s.snapshot().commits, 30);
        assert_eq!(s.sum(Counter::lock_waits), 3, "the last counter folds too");
    }

    /// More short-lived threads than there are stat blocks, each gone by
    /// the time the counters are read: nothing is lost to a block shared
    /// between threads or to a thread's exit.
    #[test]
    fn counts_are_exact_with_more_threads_than_blocks() {
        use crate::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};
        const THREADS: u64 = STAT_BLOCKS as u64 + 8;
        const TXNS: u64 = 1_000;
        let rt = TmRuntime::builder()
            .algorithm(Algorithm::Eager)
            .contention_manager(ContentionManager::None)
            .serial_lock(SerialLockMode::None)
            .build();
        let cells: Vec<TCell<u64>> = (0..THREADS).map(|_| TCell::new(0)).collect();
        let hot = TCell::new(0u64);
        let (rt, hot) = (&rt, &hot);
        // Eight at a time, so threads of one wave run concurrently and
        // later waves land on blocks earlier threads already wrote.
        for wave in cells.chunks(8) {
            std::thread::scope(|s| {
                for c in wave {
                    s.spawn(move || {
                        for i in 0..TXNS {
                            // Mostly private, sometimes a shared word, so
                            // the run has real aborts to account for.
                            rt.atomic(|tx| {
                                if i % 16 == 0 {
                                    tx.fetch_add(hot, 1)?;
                                }
                                tx.fetch_add(c, 1)
                            });
                        }
                    });
                }
            });
        }
        let s = rt.stats();
        assert_eq!(s.commits, THREADS * TXNS);
        assert_eq!(s.begins, s.commits + s.aborts);
        assert_eq!(hot.load_direct(), THREADS * TXNS.div_ceil(16));
        assert!(rt.liveness().clock >= s.commits, "every writer commit (and eager rollback) ticks the clock");
    }

    #[test]
    fn two_runtimes_on_one_thread_keep_separate_counts() {
        use crate::{TCell, TmRuntime, Transaction};
        let (a, b) = (TmRuntime::default_runtime(), TmRuntime::default_runtime());
        let c = TCell::new(0u64);
        for i in 0..30u64 {
            let rt = if i % 3 == 0 { &a } else { &b };
            rt.atomic(|tx| tx.fetch_add(&c, 1));
            let _ = a.atomic_ro(|tx| tx.read(&c));
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!((sa.commits, sa.ro_fast_commits), (10 + 30, 30));
        assert_eq!((sb.commits, sb.ro_fast_commits), (20, 0));
        assert_eq!(sa.begins + sb.begins, 60);
    }

    /// An attempt's counts are flushed before the retry, so `stats()`
    /// shows an abort storm while it is still raging.
    #[test]
    fn aborts_become_visible_between_attempts() {
        use crate::{Abort, TCell, TmRuntime, Transaction};
        let rt = TmRuntime::builder()
            .contention_manager(crate::ContentionManager::None)
            .build();
        let c = TCell::new(0u64);
        let mut seen = Vec::new();
        rt.atomic(|tx| {
            tx.read(&c)?;
            seen.push(rt.stats().aborts);
            if seen.len() <= 3 {
                return Err(Abort::Conflict);
            }
            tx.write(&c, 1)
        });
        assert_eq!(seen, [0, 1, 2, 3]);
        assert_eq!(rt.stats().aborts, 3);
    }

    #[test]
    fn diff_saturates() {
        let a = StatsSnapshot {
            commits: 5,
            ..Default::default()
        };
        let b = StatsSnapshot::default();
        assert_eq!(b.since(&a).commits, 0);
    }

    #[test]
    fn derived_ratios() {
        let s = StatsSnapshot {
            commits: 10,
            aborts: 5,
            in_flight_switch: 1,
            start_serial: 1,
            ..Default::default()
        };
        assert_eq!(s.transactions(), 10);
        assert!((s.aborts_per_commit() - 0.5).abs() < 1e-12);
        assert!((s.serialization_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn ratios_are_zero_when_empty() {
        let s = StatsSnapshot::default();
        assert_eq!(s.aborts_per_commit(), 0.0);
        assert_eq!(s.serialization_rate(), 0.0);
    }

    #[test]
    fn display_matches_table_format() {
        let s = StatsSnapshot {
            commits: 100,
            in_flight_switch: 10,
            start_serial: 5,
            abort_serial: 1,
            ..Default::default()
        };
        let row = s.to_string();
        assert!(row.contains("in-flight=10 (10.0%)"), "{row}");
        assert!(row.contains("start-serial=5 (5.0%)"), "{row}");
        assert!(row.contains("abort-serial=1"), "{row}");
    }

    #[test]
    fn thread_tally_take_resets() {
        use crate::{Abort, TCell, TmRuntime, Transaction};
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(0u64);
        let _ = take_thread_tally();
        let mut attempts = 0;
        rt.atomic(|tx| {
            attempts += 1;
            if attempts <= 2 {
                return Err(Abort::Conflict);
            }
            tx.write(&c, 1)
        });
        let t = take_thread_tally();
        assert_eq!(t, ThreadTally { commits: 1, aborts: 2 });
        assert_eq!(take_thread_tally(), ThreadTally::default());
    }
}
