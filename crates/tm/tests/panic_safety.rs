//! Panic semantics of the runtime (ISSUE 3 acceptance criteria).
//!
//! A panic unwinding out of a transaction body, an engine commit path, or
//! a handler must leave the runtime fully usable: undo replayed, every
//! orec and the serial lock released, the hourglass gate reopened. The
//! headline test panics mid-write-set on one thread under each of
//! eager/lazy/NOrec × RW-lock/NoLock and then has three other threads
//! commit 1000 transactions each with a ticket-style serializability
//! oracle.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Barrier;

use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};

/// Far more retries than one transaction needs under the contention these
/// tests create; a transaction still aborting past it is blocked by a lock
/// a panic leaked.
const ATTEMPT_BOUND: u32 = 1_000_000;

/// The six configurations the acceptance criterion names:
/// eager/lazy/NOrec × RW-lock/NoLock.
fn all_configs() -> Vec<TmRuntime> {
    let mut v = Vec::new();
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        v.push(
            TmRuntime::builder()
                .algorithm(algo)
                .contention_manager(ContentionManager::GCC_DEFAULT)
                .serial_lock(SerialLockMode::ReaderWriter)
                .build(),
        );
        v.push(
            TmRuntime::builder()
                .algorithm(algo)
                .contention_manager(ContentionManager::None)
                .serial_lock(SerialLockMode::None)
                .build(),
        );
    }
    v
}

fn config_label(rt: &TmRuntime) -> String {
    format!("{}/{:?}", rt.algorithm(), rt.serial_lock_mode())
}

/// Thread A panics mid-write-set; threads B–D then commit 1000
/// transactions each. If the panic leaked an orec, the serial read lock,
/// or (NOrec) the sequence lock, the workers would abort forever — each
/// body counts its attempts and turns that hang into a loud failure.
#[test]
fn body_panic_never_blocks_other_threads() {
    for rt in all_configs() {
        let label = config_label(&rt);
        let cells: Vec<TCell<u64>> = (0..8).map(|_| TCell::new(0)).collect();
        let ticket = TCell::new(0u64);

        // Thread A: write half the cells (locking their orecs under
        // eager), then panic mid-write-set.
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                catch_unwind(AssertUnwindSafe(|| {
                    rt.atomic(|tx| -> Result<(), tm::Abort> {
                        for c in &cells[..4] {
                            let v = tx.read(c)?;
                            tx.write(c, v + 1_000_000)?;
                        }
                        panic!("chaos: die mid-write-set");
                    })
                }))
                .is_err()
            })
            .join()
            .expect("panic must be contained by catch_unwind")
        });
        assert!(panicked, "{label}: thread A must observe its own panic");

        let stats = rt.stats();
        assert_eq!(stats.panic_aborts, 1, "{label}: panic_abort not counted");
        for c in &cells {
            assert_eq!(c.load_direct(), 0, "{label}: panic left a dirty write");
        }

        // Threads B–D: 1000 commits each, with a ticket oracle. A leaked
        // lock shows up as a panic past ATTEMPT_BOUND instead of a silent
        // hang.
        const THREADS: usize = 3;
        const TXNS: u64 = 1000;
        let barrier = Barrier::new(THREADS);
        let mut tickets: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    let rt = &rt;
                    let cells = &cells;
                    let ticket = &ticket;
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let mut mine = Vec::with_capacity(TXNS as usize);
                        for j in 0..TXNS {
                            let mut attempts = 0;
                            let tk = rt.atomic(|tx| {
                                attempts += 1;
                                assert!(
                                    attempts <= ATTEMPT_BOUND,
                                    "worker {t} txn {j} still aborting: runtime blocked"
                                );
                                let tk = tx.fetch_add(ticket, 1)?;
                                let c = &cells[(t as u64 + j) as usize % cells.len()];
                                let v = tx.read(c)?;
                                tx.write(c, v + 1)?;
                                Ok(tk)
                            });
                            mine.push(tk);
                        }
                        mine
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("worker must not die"))
                .collect()
        });

        // Oracle: tickets are exactly 0..n with no gap or duplicate, and
        // the per-cell increments add up.
        tickets.sort_unstable();
        let expected: Vec<u64> = (0..THREADS as u64 * TXNS).collect();
        assert_eq!(tickets, expected, "{label}: ticket oracle failed");
        assert_eq!(ticket.load_direct(), THREADS as u64 * TXNS, "{label}");
        let sum: u64 = cells.iter().map(|c| c.load_direct()).sum();
        assert_eq!(sum, THREADS as u64 * TXNS, "{label}: lost increments");
    }
}

/// A panic in an onAbort handler: rollback has already completed, the
/// payload propagates, and the runtime stays usable.
#[test]
fn on_abort_handler_panic_is_well_defined() {
    let rt = TmRuntime::default_runtime();
    let c = TCell::new(0u64);
    let r = catch_unwind(AssertUnwindSafe(|| {
        rt.atomic(|tx| -> Result<(), tm::Abort> {
            tx.write(&c, 7)?;
            tx.on_abort(|| panic!("onAbort boom"));
            Err(tm::Abort::Conflict) // force the abort path
        })
    }));
    let payload = r.expect_err("handler panic must propagate");
    assert_eq!(
        payload.downcast_ref::<&str>(),
        Some(&"onAbort boom"),
        "original payload must survive"
    );
    assert_eq!(c.load_direct(), 0, "abort must have rolled back first");
    let stats = rt.stats();
    assert_eq!(stats.handler_panics, 1);
    assert_eq!(stats.aborts, 1);
    // Runtime still usable.
    rt.atomic(|tx| tx.fetch_add(&c, 1));
    assert_eq!(c.load_direct(), 1);
}

/// A panic in an onCommit handler *after* the commit point: the data stays
/// committed (a handler panic never rolls back), the payload propagates.
#[test]
fn on_commit_handler_panic_after_commit_point_keeps_data() {
    let rt = TmRuntime::default_runtime();
    let c = TCell::new(0u64);
    let r = catch_unwind(AssertUnwindSafe(|| {
        rt.atomic(|tx| {
            tx.write(&c, 42)?;
            tx.on_commit(|| panic!("onCommit boom"));
            Ok(())
        })
    }));
    assert!(r.is_err(), "handler panic must propagate");
    assert_eq!(c.load_direct(), 42, "committed data must NOT roll back");
    let stats = rt.stats();
    assert_eq!(stats.commits, 1, "the transaction did commit");
    assert_eq!(stats.handler_panics, 1);
    rt.atomic(|tx| tx.fetch_add(&c, 1));
    assert_eq!(c.load_direct(), 43);
}

/// Before the commit point — i.e. on an attempt that aborts — registered
/// onCommit handlers are discarded, so a panicking one never fires.
#[test]
fn on_commit_handler_never_runs_before_commit_point() {
    let rt = TmRuntime::default_runtime();
    let c = TCell::new(0u64);
    let attempts = std::cell::Cell::new(0u32);
    let v = rt.atomic(|tx| {
        attempts.set(attempts.get() + 1);
        if attempts.get() == 1 {
            tx.on_commit(|| panic!("must never run: attempt aborted"));
            return Err(tm::Abort::Conflict);
        }
        tx.fetch_add(&c, 5)
    });
    assert_eq!(v, 0);
    assert_eq!(c.load_direct(), 5);
    assert_eq!(attempts.get(), 2);
    assert_eq!(rt.stats().handler_panics, 0, "discarded handler must not run");
}

/// All handlers run even when an earlier one panics; the first payload
/// wins.
#[test]
fn later_handlers_still_run_after_a_handler_panic() {
    let rt = TmRuntime::default_runtime();
    let c = TCell::new(0u64);
    let ran_second = std::sync::atomic::AtomicBool::new(false);
    let r = catch_unwind(AssertUnwindSafe(|| {
        rt.atomic(|tx| {
            tx.on_commit(|| panic!("first"));
            tx.on_commit(|| ran_second.store(true, std::sync::atomic::Ordering::SeqCst));
            tx.write(&c, 1)
        })
    }));
    let payload = r.expect_err("first handler's panic must propagate");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"first"));
    assert!(
        ran_second.load(std::sync::atomic::Ordering::SeqCst),
        "second handler must still run"
    );
    assert_eq!(rt.stats().handler_panics, 1);
}

/// A panic while serial-irrevocable cannot undo the uninstrumented direct
/// writes (same as a panic inside a lock-based critical section) — but it
/// must release the serial write lock so the runtime stays usable.
#[test]
fn panic_while_serial_irrevocable_releases_the_runtime() {
    let rt = TmRuntime::default_runtime();
    let c = TCell::new(0u64);
    let r = catch_unwind(AssertUnwindSafe(|| {
        rt.relaxed(tm::RelaxedPlan::new(), |tx| -> Result<(), tm::Abort> {
            tx.write(&c, 9)?;
            tx.unsafe_op(|| {})?; // in-flight switch to serial-irrevocable
            panic!("die while irrevocable");
        })
    }));
    assert!(r.is_err());
    let stats = rt.stats();
    assert_eq!(stats.panic_aborts, 1);
    assert_eq!(stats.in_flight_switch, 1);
    // Documented semantics: irrevocable effects persist (the write was
    // published by the switch).
    assert_eq!(c.load_direct(), 9);
    // The serial write lock must be free again: atomic transactions (which
    // take the read side) and another serial switch both proceed.
    rt.atomic(|tx| tx.fetch_add(&c, 1));
    rt.relaxed(tm::RelaxedPlan::serial(), |tx| tx.fetch_add(&c, 1));
    assert_eq!(c.load_direct(), 11);
}

/// A body panic on a NoLock runtime with the Hourglass CM: the gate a
/// starving transaction closed is reopened by the unwind teardown.
#[test]
fn hourglass_gate_reopens_after_panic() {
    let rt = TmRuntime::builder()
        .algorithm(Algorithm::Eager)
        .contention_manager(ContentionManager::Hourglass(1))
        .serial_lock(SerialLockMode::None)
        .build();
    let c = TCell::new(0u64);
    let attempts = std::cell::Cell::new(0u32);
    let r = catch_unwind(AssertUnwindSafe(|| {
        rt.atomic(|tx| -> Result<(), tm::Abort> {
            attempts.set(attempts.get() + 1);
            let _ = tx.read(&c)?;
            if attempts.get() == 1 {
                // One abort puts us over Hourglass(1): the retry closes
                // the gate...
                return Err(tm::Abort::Conflict);
            }
            // ...and then we die holding it.
            panic!("die with the hourglass closed");
        })
    }));
    assert!(r.is_err());
    // If the gate were still closed, the next transaction would wait at
    // begin forever; read the gate word first so a regression fails loudly
    // instead, and bound the retries for a leaked orec.
    assert_eq!(rt.liveness().hourglass_holder, 0, "gate must be open after the panic");
    let mut attempts = 0;
    let v = rt.atomic(|tx| {
        attempts += 1;
        assert!(attempts <= ATTEMPT_BOUND, "still aborting after the panic");
        tx.fetch_add(&c, 1)
    });
    assert_eq!(v, 0);
    assert_eq!(c.load_direct(), 1);
}
