//! Commit-stamp contract: `tm::last_commit_stamp()` (read from inside an
//! onCommit handler or right after a commit) orders same-data writers
//! consistently with their real-time commit order, across every engine
//! and for serial-irrevocable attempts and `mint_commit_stamp`.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use tm::{last_commit_stamp, Algorithm, RelaxedPlan, TCell, TmRuntime, Transaction};

const ALGOS: [Algorithm; 3] = [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec];

fn runtime(a: Algorithm) -> TmRuntime {
    TmRuntime::builder().algorithm(a).build()
}

/// A read-write commit mints a stamp strictly above any earlier
/// same-thread stamp.
#[test]
fn rw_stamps_monotone_single_thread() {
    for a in ALGOS {
        let rt = runtime(a);
        let c = TCell::new(0u64);
        let mut prev = 0;
        for i in 1..=32u64 {
            rt.atomic(|tx| tx.write(&c, i));
            let s = last_commit_stamp();
            assert!(s > prev, "{a}: stamp {s} not above previous {prev}");
            prev = s;
        }
    }
}

/// A read-only commit reuses its snapshot: never above a later writer.
#[test]
fn ro_stamp_not_above_writers() {
    for a in ALGOS {
        let rt = runtime(a);
        let c = TCell::new(7u64);
        rt.atomic(|tx| tx.write(&c, 8));
        let w = last_commit_stamp();
        rt.atomic(|tx| tx.read(&c));
        let r = last_commit_stamp();
        assert!(r <= w, "{a}: read-only stamp {r} above prior writer {w}");
        rt.atomic(|tx| tx.write(&c, 9));
        let w2 = last_commit_stamp();
        assert!(w2 > r, "{a}: later writer {w2} not above RO snapshot {r}");
    }
}

/// A transaction whose every write equals memory is a writer like any
/// other: it commits on the writer path with a fresh stamp, moving the
/// clock (eager, lazy) or the sequence lock (norec). On eager and lazy the
/// written orec moves too, so a transaction that read the location before
/// that commit fails validation and retries; NOrec validates by value and
/// commits it on the first attempt.
#[test]
fn value_equal_writes_commit_as_a_writer() {
    for a in ALGOS {
        let rt = runtime(a);
        let cells: Vec<TCell<u64>> = (0..4).map(TCell::new).collect();
        rt.atomic(|tx| tx.write(&cells[0], 0));
        let (stamp, live, stats) = (last_commit_stamp(), rt.liveness(), rt.stats());
        rt.atomic(|tx| {
            for (i, c) in cells.iter().enumerate() {
                tx.write(c, i as u64)?;
            }
            Ok(())
        });
        let fresh = last_commit_stamp();
        assert!(fresh > stamp, "{a}: stamp {fresh} not above prior writer {stamp}");
        let moved = rt.liveness();
        match a {
            Algorithm::Norec => assert!(moved.seq > live.seq, "{a}: seqlock did not move"),
            _ => assert!(moved.clock > live.clock, "{a}: clock did not move"),
        }
        let d = rt.stats().since(&stats);
        assert_eq!((d.commits, d.read_only_commits), (1, 0), "{a}: not a writer commit");

        let other = TCell::new(0u64);
        let mut attempts = 0;
        rt.atomic(|tx| {
            attempts += 1;
            let v = tx.read(&cells[0])?;
            if attempts == 1 {
                std::thread::scope(|s| {
                    s.spawn(|| rt.atomic(|tx2| tx2.write(&cells[0], 0))).join().unwrap();
                });
            }
            tx.write(&other, v + 1)
        });
        let expected = if a == Algorithm::Norec { 1 } else { 2 };
        assert_eq!(attempts, expected, "{a}: a value-equal commit must move the orec it wrote");
        assert_eq!(other.load_direct(), 1, "{a}");
    }
}

/// The stamp is already visible inside the onCommit handler that the
/// committing transaction registered.
#[test]
fn stamp_visible_in_commit_handler() {
    for a in ALGOS {
        let rt = runtime(a);
        let c = TCell::new(0u64);
        let seen = AtomicU64::new(0);
        rt.relaxed(RelaxedPlan::new(), |tx| {
            tx.write(&c, 1)?;
            tx.on_commit(|| {
                seen.store(last_commit_stamp(), Ordering::SeqCst);
            });
            Ok(())
        });
        let s = seen.load(Ordering::SeqCst);
        assert!(s > 0, "{a}: handler saw no stamp");
        assert_eq!(s, last_commit_stamp(), "{a}: handler stamp differs");
    }
}

/// Serial-irrevocable attempts with a commit handler mint a stamp that
/// still orders against instrumented writers on both sides.
#[test]
fn serial_stamp_ordered_with_instrumented() {
    for a in ALGOS {
        let rt = runtime(a);
        let c = TCell::new(0u64);
        rt.atomic(|tx| tx.write(&c, 1));
        let before = last_commit_stamp();
        rt.relaxed(RelaxedPlan::serial(), |tx| {
            tx.write(&c, 2)?;
            tx.on_commit(|| {});
            Ok(())
        });
        let serial = last_commit_stamp();
        assert!(
            serial > before,
            "{a}: serial stamp {serial} not above prior writer {before}"
        );
        rt.atomic(|tx| tx.write(&c, 3));
        let after = last_commit_stamp();
        assert!(
            after > serial,
            "{a}: later writer {after} not above serial stamp {serial}"
        );
    }
}

/// `mint_commit_stamp` (direct effects under an external lock) interleaves
/// correctly with transactional stamps: later transactional writers mint a
/// stamp >= the direct mint (strictly greater for clock engines).
#[test]
fn direct_mint_ordered_with_transactions() {
    for a in ALGOS {
        let rt = runtime(a);
        let c = TCell::new(0u64);
        rt.atomic(|tx| tx.write(&c, 1));
        let w = last_commit_stamp();
        let m = rt.mint_commit_stamp();
        assert!(m >= w, "{a}: direct mint {m} below prior writer {w}");
        rt.atomic(|tx| tx.write(&c, 2));
        let w2 = last_commit_stamp();
        assert!(w2 >= m, "{a}: later writer {w2} below direct mint {m}");
        if a != Algorithm::Norec {
            assert!(w2 > m, "{a}: later writer {w2} should strictly exceed mint {m}");
        }
    }
}

/// Cross-thread: writers serialized by an external mutex over the same
/// cell observe non-decreasing stamps in acquisition order (strictly
/// increasing for the clock engines; norec ties are legal and broken by
/// append order in consumers).
#[test]
fn cross_thread_same_key_stamps_follow_lock_order() {
    for a in ALGOS {
        let rt = runtime(a);
        let c = TCell::new(0u64);
        let order: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..64 {
                        // The lock plays the part of the cache's per-item
                        // lock: same-key commits are externally serialized
                        // and must stamp in that order.
                        let mut log = order.lock().unwrap();
                        rt.atomic(|tx| tx.fetch_add(&c, 1));
                        log.push(last_commit_stamp());
                    }
                });
            }
        });
        let log = order.into_inner().unwrap();
        assert_eq!(log.len(), 256);
        for w in log.windows(2) {
            assert!(
                w[1] >= w[0],
                "{a}: stamp regressed across lock-ordered commits: {} then {}",
                w[0],
                w[1]
            );
        }
    }
}
