//! The synchronization budget of one transaction, as a regression test.
//!
//! With the `sync-count` feature, every atomic read-modify-write the
//! runtime issues bumps a thread-private tally keyed by what it targets
//! (`tm::sync_count`). This file pins, per algorithm and per path, how many
//! RMWs one transaction issues on cache lines other threads also write —
//! the stalls a second core pays for — and how many on the thread's own
//! statistics block. The claim under test: the *bookkeeping* of a
//! transaction (statistics, transaction ids, the hourglass gate) costs zero
//! shared-line RMWs; what remains is the algorithm's own commit protocol.
//!
//! Run with `cargo test -p tm --features sync-count --test sync_budget`
//! (`scripts/verify.sh` does).
#![cfg(feature = "sync-count")]

use tm::sync_count::{take_thread_counts, SyncCounts, SyncSite};
use tm::{Abort, Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};

const ALGOS: [Algorithm; 3] = [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec];

fn runtime(algo: Algorithm, cm: ContentionManager, lock: SerialLockMode) -> TmRuntime {
    TmRuntime::builder()
        .algorithm(algo)
        .contention_manager(cm)
        .serial_lock(lock)
        .build()
}

/// The RMWs `f` issues on this thread, after one unmeasured warm-up run
/// (which claims the thread's tx-id block, once per 2^20 transactions).
fn measure(mut f: impl FnMut()) -> SyncCounts {
    f();
    let _ = take_thread_counts();
    f();
    take_thread_counts()
}

/// `(site, count)` for every site with a non-zero count.
fn nonzero(c: &SyncCounts) -> Vec<(SyncSite, u64)> {
    SyncSite::ALL.iter().map(|&s| (s, c.at(s))).filter(|&(_, n)| n != 0).collect()
}

#[test]
fn ro_fast_lane_commit_issues_no_shared_line_rmw() {
    for algo in ALGOS {
        let rt = runtime(algo, ContentionManager::None, SerialLockMode::None);
        let cells: Vec<TCell<u64>> = (0..8).map(TCell::new).collect();
        let c = measure(|| {
            let sum = rt.atomic_ro(|tx| {
                let mut s = 0;
                for c in &cells {
                    s += tx.read(c)?;
                }
                Ok(s)
            });
            assert_eq!(sum, 28);
        });
        assert_eq!(c.shared_line(), 0, "{algo}: {:?}", nonzero(&c));
        // begins, commits, read_only_commits, ro_fast_commits — one
        // uncontended RMW each, on lines no other core touches.
        assert_eq!(nonzero(&c), [(SyncSite::Stats, 4)], "{algo}");
    }
}

#[test]
fn one_write_transaction_pays_only_its_commit_protocol() {
    for algo in ALGOS {
        let rt = runtime(algo, ContentionManager::None, SerialLockMode::None);
        let cell = TCell::new(0u64);
        let mut v = 0;
        let c = measure(|| {
            v += 1;
            rt.atomic(|tx| tx.write(&cell, v));
        });
        // The algorithm's own protocol: one orec lock + one clock tick for
        // the orec algorithms, one sequence-lock acquisition for NOrec
        // (releases are plain stores).
        let protocol: &[(SyncSite, u64)] = match algo {
            Algorithm::Eager | Algorithm::Lazy => &[(SyncSite::Orec, 1), (SyncSite::Clock, 1)],
            Algorithm::Norec => &[(SyncSite::SeqLock, 1)],
        };
        // Own-line: begins, commits, clock_tick_elisions.
        let own = 3;
        let mut want = protocol.to_vec();
        want.push((SyncSite::Stats, own));
        assert_eq!(nonzero(&c), want, "{algo}");
        assert_eq!(c.shared_line(), protocol.iter().map(|p| p.1).sum::<u64>(), "{algo}");
        assert_eq!(c.own_line(), own, "{algo}");
    }
}

#[test]
fn an_open_hourglass_gate_costs_no_rmw() {
    for algo in ALGOS {
        let rt = runtime(algo, ContentionManager::Hourglass(4), SerialLockMode::None);
        let cell = TCell::new(0u64);
        let mut v = 0;
        let c = measure(|| {
            v += 1;
            rt.atomic(|tx| tx.write(&cell, v));
            let _ = rt.atomic_ro(|tx| tx.read(&cell));
        });
        assert_eq!(c.at(SyncSite::Hourglass), 0, "{algo}: {:?}", nonzero(&c));
        assert_eq!(c.at(SyncSite::TxId), 0, "{algo}");
    }
}

/// Sensitivity: the hourglass counter is live — a transaction that aborts
/// past the limit closes the gate (one RMW) and reopens it (one more), and
/// nothing else in its retries touches the word.
#[test]
fn closing_the_gate_costs_exactly_two_rmws() {
    let rt = runtime(Algorithm::Eager, ContentionManager::Hourglass(2), SerialLockMode::None);
    let cell = TCell::new(0u64);
    let c = measure(|| {
        let mut attempts = 0;
        rt.atomic(|tx| {
            attempts += 1;
            if attempts <= 5 {
                return Err(Abort::Conflict);
            }
            tx.write(&cell, attempts)
        });
    });
    assert_eq!(c.at(SyncSite::Hourglass), 2, "{:?}", nonzero(&c));
    assert_eq!(rt.liveness().hourglass_holder, 0, "gate must be open again");
}

/// GCC's serial lock is the one shared line the paper removes by hand
/// (§4, "NoLock"); with it configured, it is the *only* addition to the
/// budget: one RMW to enter, one to leave.
#[test]
fn the_serial_lock_adds_two_rmws_and_nothing_else() {
    for algo in ALGOS {
        let rt = runtime(algo, ContentionManager::GCC_DEFAULT, SerialLockMode::ReaderWriter);
        let cells: Vec<TCell<u64>> = (0..4).map(TCell::new).collect();
        let c = measure(|| {
            let _ = rt.atomic_ro(|tx| tx.read(&cells[0]));
        });
        assert_eq!(c.shared_line(), 2, "{algo}: {:?}", nonzero(&c));
        assert_eq!(c.at(SyncSite::SerialLock), 2, "{algo}");
    }
}

/// Aborted attempts leave every shared word alone: a transaction that
/// aborts three times and then commits read-only counts its aborts and
/// handler runs in the thread's own block and nowhere else.
#[test]
fn aborted_attempts_stay_on_own_lines() {
    let rt = runtime(Algorithm::Norec, ContentionManager::None, SerialLockMode::None);
    let cell = TCell::new(0u64);
    let c = measure(|| {
        let mut attempts = 0;
        rt.atomic(|tx| {
            attempts += 1;
            tx.read(&cell)?;
            if attempts <= 3 {
                return Err(Abort::Conflict);
            }
            Ok(())
        });
        assert_eq!(attempts, 4);
    });
    assert_eq!(c.shared_line(), 0, "{:?}", nonzero(&c));
    assert!(c.own_line() > 0);
}

/// The retry rule's budget: an attempt that aborts on an orec another
/// transaction holds, waits for that orec with loads only and then commits
/// issues no shared-line RMW beyond the committing retry's own protocol —
/// one orec CAS and one clock CAS. The holder is a parked eager writer on
/// another thread (its RMWs land in its own tally); it commits only once
/// the waiter has counted its lock wait, so every run aborts exactly once.
#[test]
fn waiting_for_a_held_orec_costs_no_shared_line_rmw() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let rt = runtime(Algorithm::Eager, ContentionManager::None, SerialLockMode::None);
    let (x, w) = (TCell::new(0u64), TCell::new(0u64));
    let before = rt.stats();
    let c = measure(|| {
        let waits = rt.stats().lock_waits;
        let held = AtomicBool::new(false);
        std::thread::scope(|s| {
            s.spawn(|| {
                rt.atomic(|tx| {
                    tx.fetch_add(&x, 1)?;
                    held.store(true, Ordering::Release);
                    // An attempt's counts are flushed before it waits.
                    while rt.stats().lock_waits == waits {
                        std::thread::yield_now();
                    }
                    Ok(())
                })
            });
            while !held.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            let mut attempts = 0;
            rt.atomic(|tx| {
                attempts += 1;
                let v = tx.read(&x)?;
                tx.write(&w, v)
            });
            assert_eq!(attempts, 2, "one abort on the held orec, then the commit");
        });
    });
    // Own-line: begins, aborts, orec_stripe_conflicts, lock_waits for the
    // aborted attempt; begins, commits, clock_tick_elisions for the retry.
    assert_eq!(nonzero(&c), [(SyncSite::Orec, 1), (SyncSite::Clock, 1), (SyncSite::Stats, 7)]);
    assert_eq!(c.shared_line(), 2);
    let s = rt.stats().since(&before);
    assert_eq!((s.aborts, s.lock_waits), (2, 2), "warm-up + measured run");
}

/// The abort edge of the orec algorithms: an attempt that loses a
/// validation (another thread committed over a word it had read) counts
/// the conflict in its own stat block and — having locked no orec —
/// touches no shared line at all; nor does the read-only retry that then
/// commits.
#[test]
fn a_conflict_abort_issues_no_shared_line_rmw() {
    for algo in [Algorithm::Eager, Algorithm::Lazy] {
        let rt = runtime(algo, ContentionManager::None, SerialLockMode::None);
        let (x, w) = (TCell::new(0u64), TCell::new(0u64));
        let before = rt.stats();
        let c = measure(|| {
            let mut attempts = 0;
            rt.atomic(|tx| {
                attempts += 1;
                let seen = tx.read(&x)?;
                if attempts > 1 {
                    return tx.read(&w);
                }
                // Another thread commits over `x` and `w` (its RMWs land
                // in its own tally): reading `w` now needs a snapshot
                // extension, whose validation finds `x` changed.
                std::thread::scope(|s| {
                    s.spawn(|| {
                        rt.atomic(|tx| {
                            tx.write(&x, seen + 1)?;
                            tx.write(&w, seen + 1)
                        })
                    });
                });
                tx.read(&w)
            });
            assert_eq!(attempts, 2, "{algo}: the stale read must abort once");
        });
        assert_eq!(c.shared_line(), 0, "{algo}: {:?}", nonzero(&c));
        let s = rt.stats().since(&before);
        assert_eq!((s.aborts, s.orec_stripe_conflicts), (2, 2), "{algo}: warm-up + measured run");
    }
}
