//! Write-path semantics, black-box:
//!
//! * **A value-equal store is a store.** Writing a location's current
//!   value back takes part in conflict detection like any other write: a
//!   transaction whose read of `x` goes stale before it stores that value
//!   back must abort and retry.
//! * **Value-equal writers never tear.** Transactions that rewrite
//!   constants race a writer of the same constants, and memory afterwards
//!   reflects whole transactions only.
//! * **Zero allocations.** Steady-state read-write commits — including
//!   redo sets past the inline window — never touch the heap.
//!
//! White-box counterparts (orec/clock/seqlock quiescence, GV5 clock-CAS
//! elision counters) live in `tm::runtime`'s unit tests.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};

#[global_allocator]
static COUNTING_ALLOC: testkit::alloc::Counting = testkit::alloc::Counting;

fn runtime(algo: Algorithm) -> TmRuntime {
    TmRuntime::builder()
        .algorithm(algo)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .build()
}

/// A transaction reads `x` and stalls; a second thread commits a new
/// value into `x` before letting it proceed; then the transaction writes
/// the value it read back into `x`, plus a real write to `y`. The stale
/// read must abort the attempt even though its store to `x` equals the
/// value it read — otherwise the transaction would serialize after the
/// interferer while still believing `x` held the old value. The stalled
/// attempt holds no lock while it waits (it has only read), so the
/// interferer never waits on it.
#[test]
fn value_equal_store_still_conflicts() {
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let rt = Arc::new(runtime(algo));
        let x = Arc::new(TCell::new(0u64));
        let y = Arc::new(TCell::new(0u64));
        let ready = Arc::new(AtomicBool::new(false));
        let proceed = Arc::new(AtomicBool::new(false));

        let mixer = {
            let (rt, x, y) = (rt.clone(), x.clone(), y.clone());
            let (ready, proceed) = (ready.clone(), proceed.clone());
            std::thread::spawn(move || {
                let attempts = AtomicU32::new(0);
                rt.atomic(|tx| {
                    let first = attempts.fetch_add(1, Ordering::Relaxed) == 0;
                    let seen = tx.read(&*x)?;
                    if first {
                        ready.store(true, Ordering::Release);
                        while !proceed.load(Ordering::Acquire) {
                            std::hint::spin_loop();
                        }
                    }
                    tx.write(&*x, seen)?; // the value it read
                    tx.write(&*y, seen + 100) // real write
                });
                attempts.load(Ordering::Relaxed)
            })
        };

        while !ready.load(Ordering::Acquire) {
            std::hint::spin_loop();
        }
        rt.atomic(|tx| tx.write(&*x, 7)); // invalidate the read of x
        proceed.store(true, Ordering::Release);

        let attempts = mixer.join().unwrap();
        assert!(
            attempts >= 2,
            "{algo}: the stale attempt must have aborted (attempts = {attempts})"
        );
        assert!(rt.stats().aborts >= 1, "{algo}");
        // The retry saw x == 7: it writes 7 back, and y carries the
        // refreshed observation — the serializable outcome.
        assert_eq!(x.load_direct(), 7, "{algo}");
        assert_eq!(y.load_direct(), 107, "{algo}");
    }
}

/// Writers of constants race each other: every write equals memory in one
/// of the other writer's two states and differs in the other. Whatever
/// they raced, memory afterwards holds one whole transaction's values.
#[test]
fn value_equal_writers_never_tear() {
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let rt = Arc::new(runtime(algo));
        let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..8).map(|_| TCell::new(0)).collect());

        let toggler = {
            let (rt, cells) = (rt.clone(), cells.clone());
            std::thread::spawn(move || {
                for round in 0..500u64 {
                    rt.atomic(|tx| {
                        for c in cells.iter() {
                            tx.write(c, round % 2)?;
                        }
                        Ok(())
                    });
                }
            })
        };
        for round in 0..500u64 {
            rt.atomic(|tx| {
                for c in cells.iter() {
                    tx.write(c, round % 2)?;
                }
                Ok(())
            });
        }
        toggler.join().unwrap();

        let vals: Vec<u64> = cells.iter().map(|c| c.load_direct()).collect();
        assert!(
            vals.iter().all(|&v| v == vals[0]) && vals[0] <= 1,
            "{algo}: torn final state {vals:?}"
        );
    }
}

#[test]
fn write_commits_never_allocate() {
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let rt = runtime(algo);
        // Past SMALL_WRITES so the write-map index is exercised too.
        let cells: Vec<TCell<u64>> = (0..24).map(TCell::new).collect();
        let run = |round: u64| {
            rt.atomic(|tx| {
                for (i, c) in cells.iter().enumerate() {
                    // Half the writes repeat the committed value, half
                    // advance it — the steady-state SET mix.
                    let v = if i % 2 == 0 { round } else { i as u64 };
                    tx.write(c, v)?;
                }
                Ok(())
            })
        };
        for r in 0..20 {
            run(r);
        }
        let before = testkit::alloc::thread_allocs();
        for r in 0..200 {
            run(r);
        }
        let allocs = testkit::alloc::thread_allocs() - before;
        assert_eq!(
            allocs, 0,
            "{algo}: {allocs} heap allocations across 200 read-write commits"
        );
        assert_eq!(rt.stats().aborts, 0, "{algo}");
    }
}
