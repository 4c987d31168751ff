//! # tm — a software transactional memory runtime in the image of GCC libitm
//!
//! This crate is the substrate for a reproduction of *"Transactionalizing
//! Legacy Code: an Experience Report Using GCC and Memcached"* (Ruan, Vyas,
//! Liu & Spear, ASPLOS 2014). It implements the runtime machinery of the
//! Draft C++ TM Specification as shipped in GCC 4.9.0, plus the §4
//! modifications the paper evaluates:
//!
//! * **Atomic vs relaxed transactions** — [`AtomicTx`] is statically unable
//!   to perform unsafe operations (the type system plays the role of GCC's
//!   `transaction_safe` checker); [`RelaxedTx`] may call
//!   [`RelaxedTx::unsafe_op`], which serializes the transaction first.
//! * **The global readers/writer serial lock** — every transaction holds it
//!   shared; serialization upgrades to exclusive ([`SerialLockMode`]
//!   selects GCC's behavior or the paper's "NoLock" runtime).
//! * **Three algorithms** ([`Algorithm`]) — GCC's eager write-through with
//!   undo logging, a Lazy commit-time-locking variant, and NOrec.
//! * **Four contention managers** ([`ContentionManager`]) — GCC's
//!   serialize-after-100, none, exponential backoff, and the hourglass.
//! * **onCommit / onAbort handlers** — [`Transaction::on_commit`] runs
//!   after commit *and* after all runtime locks are released, matching the
//!   GCC extension the paper relies on to desugar condition
//!   synchronization and logging.
//! * **Serialization accounting** — [`StatsSnapshot`] exposes the
//!   "In-Flight Switch" / "Start Serial" / "Abort Serial" columns of the
//!   paper's Tables 1–4.
//!
//! ## Quick start
//!
//! ```
//! use tm::{TCell, TmRuntime, Transaction};
//!
//! let rt = TmRuntime::default_runtime();
//! let a = TCell::new(100u64);
//! let b = TCell::new(0u64);
//!
//! // Transfer 30 from a to b, atomically.
//! rt.atomic(|tx| {
//!     let take = 30.min(tx.read(&a)?);
//!     tx.modify(&a, |v| v - take)?;
//!     tx.modify(&b, |v| v + take)?;
//!     Ok(())
//! });
//! assert_eq!((a.load_direct(), b.load_direct()), (70, 30));
//! ```
//!
//! ## Relaxed transactions and unsafe operations
//!
//! ```
//! use tm::{RelaxedPlan, TCell, TmRuntime, Transaction};
//!
//! let rt = TmRuntime::default_runtime();
//! let c = TCell::new(0u64);
//! let verbose = false;
//! rt.relaxed(RelaxedPlan::new(), |tx| {
//!     tx.write(&c, 1)?;
//!     if verbose {
//!         // I/O forces an in-flight switch to serial-irrevocable mode.
//!         tx.unsafe_op(|| eprintln!("stored"))?;
//!     }
//!     Ok(())
//! });
//! assert_eq!(rt.stats().in_flight_switch, 0); // verbose was false
//! ```
//!
//! ## onCommit, the serialization counts, and the NoLock runtime
//!
//! ```
//! use std::cell::Cell;
//! use tm::{Algorithm, ContentionManager, RelaxedPlan, SerialLockMode, TCell, TmRuntime, Transaction};
//!
//! let rt = TmRuntime::default_runtime();
//! let c = TCell::new(0u64);
//! rt.relaxed(RelaxedPlan::new(), |tx| {
//!     tx.write(&c, 1)?;
//!     tx.unsafe_op(|| eprintln!("stored"))?; // switches in flight
//!     Ok(())
//! });
//! // The same I/O deferred to an onCommit handler needs no switch (§3.5).
//! let logged = Cell::new(false);
//! rt.atomic(|tx| {
//!     tx.fetch_add(&c, 1)?;
//!     tx.on_commit(|| logged.set(true));
//!     Ok(())
//! });
//! assert!(logged.get());
//! let s = rt.stats();
//! assert_eq!((s.commits, s.in_flight_switch, s.start_serial), (2, 1, 0));
//!
//! // The paper's §4 runtime: no serial lock, any algorithm and manager.
//! for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
//!     let rt = TmRuntime::builder()
//!         .algorithm(algo)
//!         .contention_manager(ContentionManager::None)
//!         .serial_lock(SerialLockMode::None)
//!         .build();
//!     let n = TCell::new(0u64);
//!     std::thread::scope(|s| {
//!         for _ in 0..4 {
//!             s.spawn(|| {
//!                 for _ in 0..1000 {
//!                     rt.atomic(|tx| tx.fetch_add(&n, 1));
//!                 }
//!             });
//!         }
//!     });
//!     assert_eq!(n.load_direct(), 4000, "{algo}");
//! }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod algo;
mod arena;
mod cell;
mod clock;
mod cm;
mod error;
pub mod fault;
pub mod layout;
mod orec;
mod runtime;
mod serial;
mod stats;
pub mod sync_count;
mod txn;
mod word;

pub use algo::Algorithm;
pub use cell::{TBytes, TCell, TWord};
pub use cm::ContentionManager;
pub use error::{cancel, Abort, Cancelled};
pub use runtime::{last_commit_stamp, TmRuntime, TmRuntimeBuilder};
pub use serial::SerialLockMode;
pub use stats::{take_thread_tally, LivenessSnapshot, StatsSnapshot, ThreadTally};
pub use txn::{AtomicTx, RelaxedPlan, RelaxedTx, Transaction};
pub use word::Word;

#[cfg(test)]
mod tests {
    use super::*;

    fn all_runtimes() -> Vec<TmRuntime> {
        let mut v = Vec::new();
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            v.push(
                TmRuntime::builder()
                    .algorithm(algo)
                    .contention_manager(ContentionManager::GCC_DEFAULT)
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

    #[test]
    fn atomic_increments_commit() {
        for rt in all_runtimes() {
            let c = TCell::new(0u64);
            for _ in 0..10 {
                rt.atomic(|tx| tx.fetch_add(&c, 1));
            }
            assert_eq!(c.load_direct(), 10, "{rt:?}");
        }
    }

    #[test]
    fn read_only_transactions_are_counted() {
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(7u64);
        let v = rt.atomic(|tx| tx.read(&c));
        assert_eq!(v, 7);
        let s = rt.stats();
        assert_eq!(s.commits, 1);
        assert_eq!(s.read_only_commits, 1);
    }

    #[test]
    fn multi_cell_consistency_across_threads() {
        // Invariant: a + b == 1000, transferred randomly.
        for rt in all_runtimes() {
            let a = std::sync::Arc::new(TCell::new(1000u64));
            let b = std::sync::Arc::new(TCell::new(0u64));
            let rt = std::sync::Arc::new(rt);
            let mut handles = vec![];
            for t in 0..4 {
                let (rt, a, b) = (rt.clone(), a.clone(), b.clone());
                handles.push(std::thread::spawn(move || {
                    for i in 0..300u64 {
                        let amt = (t as u64 + i) % 7;
                        rt.atomic(|tx| {
                            let av = tx.read(&*a)?;
                            let bv = tx.read(&*b)?;
                            assert_eq!(av + bv, 1000, "invariant broken inside txn");
                            let amt = amt.min(av);
                            tx.write(&*a, av - amt)?;
                            tx.write(&*b, bv + amt)?;
                            Ok(())
                        });
                        rt.atomic(|tx| {
                            let bv = tx.read(&*b)?;
                            let give = bv / 2;
                            tx.modify(&*b, |v| v - give)?;
                            tx.modify(&*a, |v| v + give)?;
                            Ok(())
                        });
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(a.load_direct() + b.load_direct(), 1000, "{:?}", rt.algorithm());
        }
    }

    #[test]
    fn concurrent_counter_is_exact() {
        for rt in all_runtimes() {
            let c = std::sync::Arc::new(TCell::new(0u64));
            let rt = std::sync::Arc::new(rt);
            let mut handles = vec![];
            for _ in 0..4 {
                let (rt, c) = (rt.clone(), c.clone());
                handles.push(std::thread::spawn(move || {
                    for _ in 0..500 {
                        rt.atomic(|tx| tx.fetch_add(&c, 1));
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(c.load_direct(), 2000, "{:?}", rt.algorithm());
        }
    }

    #[test]
    fn relaxed_in_flight_switch_runs_unsafe_op_once() {
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(0u64);
        let side = std::cell::Cell::new(0u32);
        rt.relaxed(RelaxedPlan::new(), |tx| {
            tx.write(&c, 5)?;
            tx.unsafe_op(|| side.set(side.get() + 1))?;
            assert!(tx.is_irrevocable());
            Ok(())
        });
        assert_eq!(side.get(), 1);
        assert_eq!(c.load_direct(), 5);
        let s = rt.stats();
        assert_eq!(s.in_flight_switch, 1);
        assert_eq!(s.irrevocable_commits, 1);
    }

    #[test]
    fn relaxed_start_serial_counted() {
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(0u64);
        rt.relaxed(RelaxedPlan::serial(), |tx| {
            tx.write(&c, 1)?;
            tx.unsafe_op(|| ())?; // already irrevocable: no extra switch
            Ok(())
        });
        let s = rt.stats();
        assert_eq!(s.start_serial, 1);
        assert_eq!(s.in_flight_switch, 0);
        assert_eq!(c.load_direct(), 1);
    }

    #[test]
    fn cancel_rolls_back() {
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(3u64);
        let r = rt.try_atomic(|tx| {
            tx.write(&c, 999)?;
            cancel::<()>()
        });
        assert_eq!(r, Err(Cancelled));
        assert_eq!(c.load_direct(), 3);
        assert_eq!(rt.stats().cancels, 1);
    }

    #[test]
    #[should_panic(expected = "cannot cancel")]
    fn relaxed_cancel_panics() {
        let rt = TmRuntime::default_runtime();
        rt.relaxed(RelaxedPlan::new(), |_tx| cancel::<()>());
    }

    #[test]
    #[should_panic(expected = "serial lock was removed")]
    fn nolock_runtime_rejects_serialization() {
        let rt = TmRuntime::builder()
            .contention_manager(ContentionManager::None)
            .serial_lock(SerialLockMode::None)
            .build();
        rt.relaxed(RelaxedPlan::new(), |tx| tx.unsafe_op(|| ()).map(|_| ()));
    }

    #[test]
    #[should_panic(expected = "SerializeAfter requires the serial lock")]
    fn inconsistent_builder_panics() {
        let _ = TmRuntime::builder()
            .serial_lock(SerialLockMode::None)
            .build();
    }

    #[test]
    fn on_commit_runs_after_commit_only() {
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(0u64);
        let fired = std::cell::Cell::new(false);
        rt.atomic(|tx| {
            tx.write(&c, 1)?;
            tx.on_commit(|| fired.set(true));
            assert!(!fired.get(), "handler must not run inside the txn");
            Ok(())
        });
        assert!(fired.get());
        assert_eq!(rt.stats().commit_handlers_run, 1);
    }

    #[test]
    fn on_commit_not_run_on_cancel() {
        let rt = TmRuntime::default_runtime();
        let fired = std::cell::Cell::new(false);
        let _ = rt.try_atomic(|tx| {
            tx.on_commit(|| fired.set(true));
            cancel::<()>()
        });
        assert!(!fired.get());
    }

    #[test]
    fn tbytes_transactional_roundtrip() {
        for rt in all_runtimes() {
            let b = TBytes::zeroed(37);
            let payload: Vec<u8> = (0..37u8).collect();
            rt.atomic(|tx| tx.write_bytes(&b, 0, &payload));
            let out = rt.atomic(|tx| tx.read_bytes_vec(&b));
            assert_eq!(out, payload, "{:?}", rt.algorithm());
        }
    }

    #[test]
    fn tbytes_unaligned_window_write() {
        for rt in all_runtimes() {
            let b = TBytes::from_slice(&[0xAA; 24]);
            rt.atomic(|tx| tx.write_bytes(&b, 5, b"hello world"));
            let v = b.to_vec_direct();
            assert_eq!(&v[5..16], b"hello world");
            assert_eq!(v[4], 0xAA);
            assert_eq!(v[16], 0xAA);
        }
    }

    #[test]
    fn byte_write_preserves_neighbors_in_word() {
        for rt in all_runtimes() {
            let b = TBytes::from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
            rt.atomic(|tx| tx.write_byte(&b, 3, 0xFF));
            assert_eq!(b.to_vec_direct(), vec![1, 2, 3, 0xFF, 5, 6, 7, 8]);
        }
    }

    #[test]
    fn aborted_attempts_do_not_leak_writes() {
        // Force at least one abort with two txns hammering the same cells
        // in opposite orders, then check the invariant.
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            let rt = std::sync::Arc::new(
                TmRuntime::builder()
                    .algorithm(algo)
                    .contention_manager(ContentionManager::None)
                    .serial_lock(SerialLockMode::None)
                    .build(),
            );
            let x = std::sync::Arc::new(TCell::new(0u64));
            let y = std::sync::Arc::new(TCell::new(0u64));
            let mut handles = vec![];
            for t in 0..2 {
                let (rt, x, y) = (rt.clone(), x.clone(), y.clone());
                handles.push(std::thread::spawn(move || {
                    for _ in 0..400 {
                        rt.atomic(|tx| {
                            if t == 0 {
                                tx.fetch_add(&x, 1)?;
                                tx.fetch_add(&y, 1)?;
                            } else {
                                tx.fetch_add(&y, 1)?;
                                tx.fetch_add(&x, 1)?;
                            }
                            Ok(())
                        });
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(x.load_direct(), 800, "{algo:?}");
            assert_eq!(y.load_direct(), 800, "{algo:?}");
        }
    }

    #[test]
    fn hourglass_runtime_makes_progress() {
        let rt = std::sync::Arc::new(
            TmRuntime::builder()
                .contention_manager(ContentionManager::Hourglass(4))
                .serial_lock(SerialLockMode::None)
                .build(),
        );
        let c = std::sync::Arc::new(TCell::new(0u64));
        let mut handles = vec![];
        for _ in 0..4 {
            let (rt, c) = (rt.clone(), c.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..300 {
                    rt.atomic(|tx| tx.fetch_add(&c, 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load_direct(), 1200);
    }

    #[test]
    fn backoff_runtime_makes_progress() {
        let rt = std::sync::Arc::new(
            TmRuntime::builder()
                .contention_manager(ContentionManager::Backoff { max_shift: 6 })
                .serial_lock(SerialLockMode::None)
                .build(),
        );
        let c = std::sync::Arc::new(TCell::new(0u64));
        let mut handles = vec![];
        for _ in 0..3 {
            let (rt, c) = (rt.clone(), c.clone());
            handles.push(std::thread::spawn(move || {
                for _ in 0..200 {
                    rt.atomic(|tx| tx.fetch_add(&c, 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.load_direct(), 600);
    }

    #[test]
    fn stats_transactions_column_counts_completions() {
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(0u64);
        for _ in 0..5 {
            rt.atomic(|tx| tx.fetch_add(&c, 1));
        }
        assert_eq!(rt.stats().transactions(), 5);
    }

    #[test]
    fn thread_tally_tracks_commits() {
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(0u64);
        let _ = take_thread_tally();
        for _ in 0..3 {
            rt.atomic(|tx| tx.fetch_add(&c, 1));
        }
        let t = take_thread_tally();
        assert_eq!(t.commits, 3);
    }
}

#[cfg(test)]
mod expr_tests {
    use super::*;

    #[test]
    fn transaction_expressions_roundtrip() {
        let rt = TmRuntime::default_runtime();
        let c = TCell::new(5u64);
        assert_eq!(rt.expr_read(&c), 5);
        rt.expr_write(&c, 9);
        assert_eq!(rt.expr_read(&c), 9);
        assert_eq!(rt.expr_modify(&c, |v| v + 1), 9, "returns previous value");
        assert_eq!(c.load_direct(), 10);
    }

    #[test]
    fn expression_reads_are_seq_cst_like() {
        // Two cells published together by a writer txn can never be seen
        // half-updated by expression reads (each expression is a full
        // transaction, so this follows from snapshot consistency).
        let rt = std::sync::Arc::new(TmRuntime::default_runtime());
        let a = std::sync::Arc::new(TCell::new(0u64));
        let b = std::sync::Arc::new(TCell::new(0u64));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let w = {
            let (rt, a, b, stop) = (rt.clone(), a.clone(), b.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut i = 0;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    i += 1;
                    rt.atomic(|tx| {
                        tx.write(&*a, i)?;
                        tx.write(&*b, i)
                    });
                }
            })
        };
        for _ in 0..2000 {
            // a is written before b inside the txn; reading b then a as
            // separate expressions must observe b <= a.
            let vb = rt.expr_read(&*b);
            let va = rt.expr_read(&*a);
            assert!(vb <= va, "expression ordering violated: b={vb} a={va}");
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        w.join().unwrap();
    }

    #[test]
    fn expression_modify_is_atomic_across_threads() {
        let rt = std::sync::Arc::new(TmRuntime::default_runtime());
        let c = std::sync::Arc::new(TCell::new(0u64));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (rt, c) = (rt.clone(), c.clone());
                s.spawn(move || {
                    for _ in 0..500 {
                        rt.expr_modify(&*c, |v| v + 1);
                    }
                });
            }
        });
        assert_eq!(c.load_direct(), 2000);
    }
}
