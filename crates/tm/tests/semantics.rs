//! Runtime-semantics integration tests: the behaviors the Draft C++ TM
//! Specification (and GCC's implementation of it) promises, checked
//! against this runtime — handler ordering, irrevocability, serialization
//! accounting, contention-manager effects, and the serial lock.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use tm::{
    Abort, Algorithm, ContentionManager, RelaxedPlan, SerialLockMode, StatsSnapshot, TCell,
    TmRuntime, Transaction,
};

fn all_algorithms() -> [Algorithm; 3] {
    [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec]
}

// ---------------------------------------------------------------------
// onCommit / onAbort handlers
// ---------------------------------------------------------------------

#[test]
fn commit_handlers_run_in_registration_order() {
    let rt = TmRuntime::default_runtime();
    let order = std::cell::RefCell::new(Vec::new());
    rt.atomic(|tx| {
        tx.on_commit(|| order.borrow_mut().push(1));
        tx.on_commit(|| order.borrow_mut().push(2));
        tx.on_commit(|| order.borrow_mut().push(3));
        Ok(())
    });
    assert_eq!(*order.borrow(), vec![1, 2, 3]);
}

#[test]
fn abort_handlers_run_per_aborted_attempt() {
    // Two transactions colliding on one cell: the loser's abort handler
    // must fire before its retry.
    let rt = Arc::new(
        TmRuntime::builder()
            .contention_manager(ContentionManager::None)
            .serial_lock(SerialLockMode::None)
            .build(),
    );
    let cell = Arc::new(TCell::new(0u64));
    let aborts_seen = Arc::new(AtomicU32::new(0));
    let mut handles = vec![];
    for _ in 0..3 {
        let rt = rt.clone();
        let cell = cell.clone();
        let aborts_seen = aborts_seen.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..300 {
                rt.atomic(|tx| {
                    let a = aborts_seen.clone();
                    tx.on_abort(move || {
                        a.fetch_add(1, Ordering::SeqCst);
                    });
                    tx.fetch_add(&cell, 1)?;
                    Ok(())
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.load_direct(), 900);
    let s = rt.stats();
    assert_eq!(
        aborts_seen.load(Ordering::SeqCst) as u64,
        s.aborts,
        "one abort-handler run per abort: {s:?}"
    );
}

#[test]
fn commit_handlers_of_aborted_attempts_are_dropped() {
    // A transaction that cancels must not run handlers registered during
    // the attempt.
    let rt = TmRuntime::default_runtime();
    let fired = std::cell::Cell::new(0u32);
    let r: Result<(), _> = rt.try_atomic(|tx| {
        tx.on_commit(|| fired.set(fired.get() + 1));
        tm::cancel()
    });
    assert!(r.is_err());
    assert_eq!(fired.get(), 0);
    // And a later, successful transaction does not inherit them.
    rt.atomic(|_tx| Ok(()));
    assert_eq!(fired.get(), 0);
}

#[test]
fn on_commit_runs_after_serial_lock_released() {
    // GCC's onCommit handlers run "after the respective transaction
    // commits and releases all locks": from a handler, beginning a new
    // serial transaction must not deadlock.
    let rt = TmRuntime::default_runtime();
    let cell = TCell::new(0u64);
    let observed = std::cell::Cell::new(0u64);
    rt.relaxed(RelaxedPlan::serial(), |tx| {
        tx.write(&cell, 7)?;
        tx.on_commit(|| {
            // Re-entering the runtime from a handler: only possible if the
            // serial write lock is already released.
            observed.set(rt.atomic(|tx2| tx2.read(&cell)));
        });
        Ok(())
    });
    assert_eq!(observed.get(), 7);
}

// ---------------------------------------------------------------------
// Irrevocability and serialization accounting
// ---------------------------------------------------------------------

#[test]
fn unsafe_op_result_flows_back() {
    let rt = TmRuntime::default_runtime();
    let v = rt.relaxed(RelaxedPlan::new(), |tx| {
        let n = tx.unsafe_op(|| 40)?;
        Ok(n + 2)
    });
    assert_eq!(v, 42);
}

#[test]
fn irrevocable_writes_survive() {
    for algo in all_algorithms() {
        let rt = TmRuntime::builder().algorithm(algo).build();
        let a = TCell::new(0u64);
        let b = TCell::new(0u64);
        rt.relaxed(RelaxedPlan::new(), |tx| {
            tx.write(&a, 1)?; // buffered (lazy/norec) or in-place (eager)
            tx.unsafe_op(|| ())?; // switch: must flush the buffer
            assert!(tx.is_irrevocable());
            tx.write(&b, 2)?; // uninstrumented
            // Reads after the switch see both.
            assert_eq!(tx.read(&a)?, 1);
            assert_eq!(tx.read(&b)?, 2);
            Ok(())
        });
        assert_eq!((a.load_direct(), b.load_direct()), (1, 2), "{algo}");
    }
}

#[test]
fn nested_unsafe_ops_switch_once() {
    let rt = TmRuntime::default_runtime();
    rt.relaxed(RelaxedPlan::new(), |tx| {
        tx.unsafe_op(|| ())?;
        tx.unsafe_op(|| ())?;
        tx.unsafe_op(|| ())?;
        Ok(())
    });
    assert_eq!(rt.stats().in_flight_switch, 1);
}

#[test]
fn start_serial_does_not_count_in_flight() {
    let rt = TmRuntime::default_runtime();
    rt.relaxed(RelaxedPlan::serial(), |tx| {
        tx.unsafe_op(|| ())?;
        Ok(())
    });
    let s = rt.stats();
    assert_eq!(s.start_serial, 1);
    assert_eq!(s.in_flight_switch, 0);
    assert_eq!(s.irrevocable_commits, 1);
}

#[test]
fn serial_transactions_drain_concurrent_readers() {
    // While a start-serial transaction runs, no instrumented transaction
    // may be mid-flight (the RW lock semantics the paper blames for the
    // scalability cliff).
    let rt = Arc::new(TmRuntime::default_runtime());
    let in_flight = Arc::new(AtomicUsize::new(0));
    let cell = Arc::new(TCell::new(0u64));
    let mut handles = vec![];
    for _ in 0..3 {
        let rt = rt.clone();
        let in_flight = in_flight.clone();
        let cell = cell.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..200 {
                rt.atomic(|tx| {
                    in_flight.fetch_add(1, Ordering::SeqCst);
                    let v = tx.fetch_add(&cell, 1);
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    v
                });
            }
        }));
    }
    for _ in 0..50 {
        let in_flight = in_flight.clone();
        rt.relaxed(RelaxedPlan::serial(), |tx| {
            // Exclusive: nobody else inside.
            assert_eq!(
                in_flight.load(Ordering::SeqCst),
                0,
                "a serial transaction observed a concurrent instrumented txn"
            );
            tx.unsafe_op(|| ())?;
            Ok(())
        });
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(cell.load_direct(), 600);
}

// ---------------------------------------------------------------------
// Contention managers
// ---------------------------------------------------------------------

fn stats_after_conflict_storm(cm: ContentionManager, serial: SerialLockMode) -> StatsSnapshot {
    let rt = Arc::new(
        TmRuntime::builder()
            .contention_manager(cm)
            .serial_lock(serial)
            .build(),
    );
    let hot = Arc::new(TCell::new(0u64));
    let mut handles = vec![];
    for _ in 0..4 {
        let rt = rt.clone();
        let hot = hot.clone();
        handles.push(std::thread::spawn(move || {
            for _ in 0..1500 {
                rt.atomic(|tx| {
                    let v = tx.read(&hot)?;
                    // A little work inside the window to invite conflicts.
                    std::hint::black_box(v);
                    tx.write(&hot, v + 1)
                });
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(hot.load_direct(), 6000);
    rt.stats()
}

#[test]
fn serialize_after_policy_survives_conflict_storm() {
    let s = stats_after_conflict_storm(
        ContentionManager::SerializeAfter(3),
        SerialLockMode::ReaderWriter,
    );
    // Correctness under the policy: every increment commits exactly once,
    // whether or not the storm happened to push any transaction over the
    // threshold (with the arena-backed fast path, attempts are often quick
    // enough that nobody accumulates 3 consecutive aborts).
    assert_eq!(s.commits, 6000);
}

#[test]
fn serialize_after_policy_serializes_at_threshold() {
    // Deterministic version of the storm: force exactly 3 consecutive
    // aborted attempts from the transaction body, so the 4th attempt must
    // begin serially under SerializeAfter(3).
    let rt = TmRuntime::builder()
        .contention_manager(ContentionManager::SerializeAfter(3))
        .serial_lock(SerialLockMode::ReaderWriter)
        .build();
    let cell = TCell::new(0u64);
    let attempts = std::cell::Cell::new(0u32);
    rt.atomic(|tx| {
        attempts.set(attempts.get() + 1);
        let v = tx.read(&cell)?;
        if attempts.get() <= 3 {
            return Err(Abort::Conflict);
        }
        tx.write(&cell, v + 1)
    });
    let s = rt.stats();
    assert_eq!(attempts.get(), 4);
    assert_eq!(cell.load_direct(), 1);
    assert_eq!(s.aborts, 3, "{s:?}");
    assert_eq!(s.abort_serial, 1, "{s:?}");
    assert_eq!(s.start_serial, 0, "{s:?}");
}

#[test]
fn no_cm_never_serializes() {
    let s = stats_after_conflict_storm(ContentionManager::None, SerialLockMode::None);
    assert_eq!(s.abort_serial, 0);
    assert_eq!(s.commits, 6000);
}

#[test]
fn hourglass_clears_after_commit() {
    let rt = Arc::new(
        TmRuntime::builder()
            .contention_manager(ContentionManager::Hourglass(2))
            .serial_lock(SerialLockMode::None)
            .build(),
    );
    let hot = Arc::new(TCell::new(0u64));
    std::thread::scope(|s| {
        for _ in 0..4 {
            let rt = rt.clone();
            let hot = hot.clone();
            s.spawn(move || {
                for _ in 0..500 {
                    rt.atomic(|tx| tx.fetch_add(&hot, 1));
                }
            });
        }
    });
    assert_eq!(hot.load_direct(), 2000);
    // The gate must be open again after the storm.
    let quick = rt.atomic(|tx| tx.read(&hot));
    assert_eq!(quick, 2000);
}

#[test]
fn backoff_policy_completes_storms() {
    let s = stats_after_conflict_storm(
        ContentionManager::Backoff { max_shift: 8 },
        SerialLockMode::None,
    );
    assert_eq!(s.commits, 6000);
    assert_eq!(s.abort_serial, 0, "backoff never serializes");
}

// ---------------------------------------------------------------------
// Algorithm-specific edges
// ---------------------------------------------------------------------

#[test]
fn write_after_write_same_cell_keeps_last() {
    for algo in all_algorithms() {
        let rt = TmRuntime::builder().algorithm(algo).build();
        let c = TCell::new(0u64);
        rt.atomic(|tx| {
            for v in 1..=10 {
                tx.write(&c, v)?;
            }
            Ok(())
        });
        assert_eq!(c.load_direct(), 10, "{algo}");
    }
}

#[test]
fn read_only_transactions_do_not_tick_the_clock() {
    // Eager/lazy read-only commits are invisible; cheap snapshot reads
    // must not invalidate each other.
    let rt = TmRuntime::builder().algorithm(Algorithm::Eager).build();
    let c = TCell::new(1u64);
    for _ in 0..100 {
        rt.atomic(|tx| tx.read(&c));
    }
    let s = rt.stats();
    assert_eq!(s.read_only_commits, 100);
    assert_eq!(s.aborts, 0);
}

#[test]
fn wide_transactions_span_many_orecs() {
    for algo in all_algorithms() {
        let rt = TmRuntime::builder().algorithm(algo).build();
        let cells: Vec<TCell<u64>> = (0..2000).map(|i| TCell::new(i)).collect();
        let sum = rt.atomic(|tx| {
            let mut s = 0u64;
            for c in &cells {
                s += tx.read(c)?;
            }
            for c in cells.iter().step_by(7) {
                tx.modify(c, |v| v + 1)?;
            }
            Ok(s)
        });
        assert_eq!(sum, (0..2000).sum::<u64>(), "{algo}");
        assert_eq!(cells[7].load_direct(), 8, "{algo}");
    }
}

#[test]
fn snapshot_is_consistent_under_concurrent_writers() {
    // Two cells always updated together; readers must never observe them
    // out of sync (opacity at the observation level).
    for algo in all_algorithms() {
        let rt = Arc::new(
            TmRuntime::builder()
                .algorithm(algo)
                .contention_manager(ContentionManager::None)
                .serial_lock(SerialLockMode::None)
                .build(),
        );
        let a = Arc::new(TCell::new(0u64));
        let b = Arc::new(TCell::new(0u64));
        let stop = Arc::new(AtomicU32::new(0));
        let writer = {
            let (rt, a, b, stop) = (rt.clone(), a.clone(), b.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut i = 0u64;
                while stop.load(Ordering::Relaxed) == 0 {
                    i += 1;
                    rt.atomic(|tx| {
                        tx.write(&*a, i)?;
                        tx.write(&*b, i * 2)
                    });
                }
            })
        };
        for _ in 0..3000 {
            let (x, y) = rt.atomic(|tx| {
                let x = tx.read(&*a)?;
                let y = tx.read(&*b)?;
                Ok((x, y))
            });
            assert_eq!(y, x * 2, "{algo}: torn snapshot ({x}, {y})");
        }
        stop.store(1, Ordering::Relaxed);
        writer.join().unwrap();
    }
}

fn norec_rt() -> TmRuntime {
    TmRuntime::builder()
        .algorithm(Algorithm::Norec)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .build()
}

/// A NOrec write set that settles back on the committed value still
/// validates its reads at commit: a concurrent writer between the read and
/// the commit aborts the attempt, and the retry sees the new value.
#[test]
fn norec_net_zero_write_set_still_validates_its_reads() {
    let rt = norec_rt();
    let a = TCell::new(1u64);
    let b = TCell::new(10u64);
    let mut first_attempt = true;
    let seen = rt.atomic(|tx| {
        let v = tx.read(&b)?;
        if first_attempt {
            first_attempt = false;
            // A concurrent committer between our read and our commit.
            std::thread::scope(|s| {
                s.spawn(|| rt.atomic(|tx2| tx2.write(&b, 99))).join().unwrap();
            });
        }
        // Net-zero on `a`: the buffered value equals memory at commit.
        tx.write(&a, 2)?;
        tx.write(&a, 1)?;
        Ok(v)
    });
    assert_eq!(seen, 99, "a stale read set must abort the commit");
    assert_eq!(rt.stats().aborts, 1);
    assert_eq!(a.load_direct(), 1);
}

/// NOrec readers holding the a + b == 100 invariant never observe an
/// intermediate state while real transfers and net-zero read-modify-writes
/// (buffered writes that settle back on the committed values) interleave.
#[test]
fn norec_readers_never_observe_torn_snapshots_around_net_zero_commits() {
    let rt = Arc::new(norec_rt());
    let a = Arc::new(TCell::new(60u64));
    let b = Arc::new(TCell::new(40u64));
    let stop = Arc::new(AtomicBool::new(false));

    let mut writers = Vec::new();
    for w in 0..2u64 {
        let (rt, a, b, stop) = (rt.clone(), a.clone(), b.clone(), stop.clone());
        writers.push(std::thread::spawn(move || {
            for i in 0..400u64 {
                if i % 2 == w % 2 {
                    // Real transfer: moves value from a to b.
                    rt.atomic(|tx| {
                        let va = tx.read(&a)?;
                        let vb = tx.read(&b)?;
                        let d = 1 + (i % 3);
                        if va >= d {
                            tx.write(&a, va - d)?;
                            tx.write(&b, vb + d)?;
                        } else {
                            tx.write(&a, va + vb)?;
                            tx.write(&b, 0)?;
                        }
                        Ok(())
                    });
                } else {
                    // Net-zero churn on `a`.
                    rt.atomic(|tx| {
                        let va = tx.read(&a)?;
                        tx.write(&a, va ^ 0xFF)?;
                        tx.write(&a, va)?;
                        Ok(())
                    });
                }
            }
            stop.store(true, Ordering::Relaxed);
        }));
    }

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let (rt, a, b, stop) = (rt.clone(), a.clone(), b.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut checks = 0u64;
                // Keep checking until the writers are done, but always do a
                // minimum amount of work: on a single-core host a writer
                // can finish before this thread is first scheduled.
                while !stop.load(Ordering::Relaxed) || checks < 50 {
                    let (va, vb) = rt.atomic_ro(|tx| Ok((tx.read(&a)?, tx.read(&b)?)));
                    assert_eq!(va + vb, 100, "torn snapshot: {va} + {vb}");
                    checks += 1;
                }
                checks
            })
        })
        .collect();

    for w in writers {
        w.join().unwrap();
    }
    let checks: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
    assert!(checks > 0, "readers must have raced the writers");
    assert_eq!(
        rt.atomic_ro(|tx| Ok(tx.read(&a)? + tx.read(&b)?)),
        100,
        "invariant must hold at quiescence"
    );
}

#[test]
fn distinct_runtimes_are_isolated() {
    // Two runtimes over disjoint cells never interact (no global state
    // leakage between Arc-separated instances).
    let rt1 = TmRuntime::default_runtime();
    let rt2 = TmRuntime::builder().algorithm(Algorithm::Norec).build();
    let c1 = TCell::new(0u64);
    let c2 = TCell::new(0u64);
    rt1.atomic(|tx| tx.fetch_add(&c1, 1));
    rt2.atomic(|tx| tx.fetch_add(&c2, 10));
    assert_eq!(rt1.stats().commits, 1);
    assert_eq!(rt2.stats().commits, 1);
    assert_eq!((c1.load_direct(), c2.load_direct()), (1, 10));
}

#[test]
fn abort_error_propagates_with_question_mark() {
    // A user helper returning Result<_, Abort> composes with `?`.
    fn helper<'e, T: Transaction<'e>>(tx: &mut T, c: &'e TCell<u64>) -> Result<u64, Abort> {
        let v = tx.read(c)?;
        tx.write(c, v + 1)?;
        Ok(v)
    }
    let rt = TmRuntime::default_runtime();
    let c = TCell::new(5u64);
    let prev = rt.atomic(|tx| helper(tx, &c));
    assert_eq!(prev, 5);
    assert_eq!(c.load_direct(), 6);
}
