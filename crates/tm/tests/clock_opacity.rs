//! Opacity of multi-word write sets against read-only snapshots.
//!
//! A committer must never release its write-set orecs at a timestamp at or
//! below a live reader's snapshot: such a reader could observe half the
//! write set pre-publication and half post-release, with every version
//! check passing and (being read-only) no commit-time revalidation to
//! catch it.
//!
//! One hot thread commits continuously on a private cell, so the clock
//! moves under everybody and the other writer's commit-time CAS usually
//! loses and takes the re-read fallback. A cold thread rewrites ALL shared
//! words in one transaction per loop. Reader threads snapshot every shared
//! word read-only; each snapshot must be uniform — any mix of old and new
//! words is a serializability violation.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};

fn multiword_writes_stay_atomic(algo: Algorithm) {
    const WORDS: usize = 8;
    const COLD_COMMITS: u64 = 40_000;
    let rt = Arc::new(
        TmRuntime::builder()
            .algorithm(algo)
            .contention_manager(ContentionManager::None)
            .serial_lock(SerialLockMode::None)
            .build(),
    );
    let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..WORDS).map(|_| TCell::new(0)).collect());
    let hot_cell = Arc::new(TCell::new(0u64));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(4));

    let hot = {
        let (rt, hot_cell, stop) = (rt.clone(), hot_cell.clone(), stop.clone());
        let start = start.clone();
        std::thread::spawn(move || {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                rt.atomic(|tx| {
                    tx.fetch_add(&hot_cell, 1)?;
                    Ok(())
                });
            }
        })
    };

    let mut readers = vec![];
    for _ in 0..2 {
        let (rt, cells, stop) = (rt.clone(), cells.clone(), stop.clone());
        let start = start.clone();
        readers.push(std::thread::spawn(move || {
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let vals = rt.atomic_ro(|tx| {
                    let mut v = [0u64; WORDS];
                    for (i, c) in cells.iter().enumerate() {
                        v[i] = tx.read(c)?;
                        // Stretch the inter-read gap so a full writer
                        // commit (lock..release) can land inside it: the
                        // reader then never observes the locked state and
                        // only the released versions police consistency.
                        for _ in 0..2048 {
                            std::hint::spin_loop();
                        }
                    }
                    Ok(v)
                });
                assert!(
                    vals.iter().all(|&v| v == vals[0]),
                    "torn multi-word write set observed: {vals:?}"
                );
            }
        }));
    }

    // The cold committer runs here: one commit per loop against the hot
    // thread's thousands, so its snapshot is usually stale by commit time.
    start.wait();
    for i in 1..=COLD_COMMITS {
        rt.atomic(|tx| {
            for c in cells.iter() {
                tx.write(c, i)?;
            }
            Ok(())
        });
    }
    stop.store(true, Ordering::Relaxed);
    hot.join().unwrap();
    for r in readers {
        r.join().unwrap();
    }
    assert_eq!(cells[0].load_direct(), COLD_COMMITS);
}

#[test]
fn eager_multiword_writes_stay_atomic_under_a_hot_clock() {
    multiword_writes_stay_atomic(Algorithm::Eager);
}

#[test]
fn lazy_multiword_writes_stay_atomic_under_a_hot_clock() {
    multiword_writes_stay_atomic(Algorithm::Lazy);
}
