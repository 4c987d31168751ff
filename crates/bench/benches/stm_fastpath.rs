//! Micro-benches pinning the transaction fast path rebuilt by the arena /
//! write-map / word-granularity work:
//!
//! * `fastpath_copy1k` — a 1KB `TBytes` value copied into shared memory and
//!   read back inside one transaction, **byte-wise** (one log entry per
//!   byte: the pre-arena `tmstd` behavior) vs **word-wise** (one orec + one
//!   log entry per 8 bytes through `write_bytes`/`read_bytes`). The
//!   word-wise path must beat the byte-wise one by ≥2x median for Lazy and
//!   NOrec — the paper's §4 redo-log tax, paid down.
//! * `fastpath_smalltx` — tiny lock-acquire-shaped transactions (≤ 8
//!   writes) that must stay on the inline write-set scan, never touching
//!   the open-addressed map.
//! * steady-state allocation counts — with the counting allocator
//!   installed, each algorithm's per-commit allocation count after warmup
//!   is printed and written into `BENCH_fastpath_allocs.json`. The arena
//!   makes these zero.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use testkit::bench::Criterion;
use testkit::{criterion_group, criterion_main};
use tm::{
    Algorithm, ContentionManager, SerialLockMode, TBytes, TCell, TmRuntime, Transaction,
};

#[global_allocator]
static COUNTING_ALLOC: testkit::alloc::Counting = testkit::alloc::Counting;

fn runtime(algo: Algorithm) -> TmRuntime {
    TmRuntime::builder()
        .algorithm(algo)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .build()
}

fn bench_copy1k(c: &mut Criterion) {
    let mut g = c.benchmark_group("fastpath_copy1k");
    let payload = vec![0x5au8; 1024];
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let rt = runtime(algo);
        let dst = TBytes::zeroed(1024);

        // Pre-PR shape: every byte is its own STM access — a redo-map
        // probe plus a full word log entry, eight times per word.
        g.bench_function(format!("{algo}/bytewise"), |b| {
            let mut out = vec![0u8; 1024];
            b.iter(|| {
                rt.atomic(|tx| {
                    for (i, &v) in payload.iter().enumerate() {
                        tx.write_byte(&dst, i, v)?;
                    }
                    for (i, o) in out.iter_mut().enumerate() {
                        *o = tx.read_byte(&dst, i)?;
                    }
                    Ok(())
                })
            })
        });

        // Post-PR shape: bulk ops move whole words.
        g.bench_function(format!("{algo}/wordwise"), |b| {
            let mut out = vec![0u8; 1024];
            b.iter(|| {
                rt.atomic(|tx| {
                    tx.copy_from_slice(&dst, 0, &payload)?;
                    tx.read_bytes(&dst, 0, &mut out)?;
                    Ok(())
                })
            })
        });
    }
    g.finish();
}

fn bench_smalltx(c: &mut Criterion) {
    // The IP-mode shape: a transaction that "acquires" a couple of lock
    // words and touches a counter — few enough writes that the redo lookup
    // must stay on the inline scan of the write vector.
    let mut g = c.benchmark_group("fastpath_smalltx");
    // Small transactions are the noisiest group (the whole payload is a
    // few hundred ns, so scheduler hiccups dominate): take more samples
    // than the default so the median is taken over a stable population.
    // Calibration itself is pinned by the harness's min-of-warmup-passes
    // rule (see testkit::bench).
    g.sample_size(40);
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let rt = runtime(algo);
        let cells: Vec<TCell<u64>> = (0..4).map(TCell::new).collect();
        g.bench_function(format!("{algo}/w4"), |b| {
            b.iter(|| {
                rt.atomic(|tx| {
                    for c in &cells {
                        let v = tx.read(c)?;
                        tx.write(c, v + 1)?;
                    }
                    Ok(())
                })
            })
        });
    }
    g.finish();
}

fn bench_steady_state_allocs(c: &mut Criterion) {
    // Not a timing bench: counts heap allocations per steady-state commit
    // and reports them through the bench JSON (value in "nanoseconds" is
    // actually allocations x 1000, so a zero stays exactly zero).
    let mut g = c.benchmark_group("fastpath_allocs");
    let payload = [0x77u8; 64];
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let rt = runtime(algo);
        let dst = TBytes::zeroed(64);
        let mut out = [0u8; 64];
        let run = |out: &mut [u8; 64]| {
            rt.atomic(|tx| {
                tx.write_bytes(&dst, 0, &payload)?;
                tx.read_bytes(&dst, 0, out)?;
                Ok(())
            });
        };
        // Warmup sizes the arena's buffers; afterwards the fast path must
        // not allocate at all.
        for _ in 0..100 {
            run(&mut out);
        }
        let before = testkit::alloc::thread_allocs();
        const TXNS: u64 = 1000;
        for _ in 0..TXNS {
            run(&mut out);
        }
        let per_txn = (testkit::alloc::thread_allocs() - before) as f64 / TXNS as f64;
        println!("fastpath_allocs/{algo}: {per_txn:.3} allocations per steady-state commit");
        g.bench_function(format!("{algo}/allocs_per_txn_x1000"), |b| {
            b.iter_custom(|iters| {
                std::time::Duration::from_nanos((per_txn * 1000.0) as u64 * iters)
            })
        });
    }
    g.finish();
}

/// One sample of the contended-commit payload: `workers` threads each run
/// a batch of tiny read-modify-write transactions over their **own** four
/// cells, so write sets are disjoint and the only shared state is the
/// commit machinery — the clock's cache line and the orec stripes.
///
/// The batch is floored well above `iters`: a sample must span many
/// scheduler quanta, or on small hosts the wall time measures *which*
/// threads happened to be descheduled rather than the payload (observed
/// 10x sample-to-sample swings with ~1ms samples on one core). The
/// barrier-to-join wall time over the long batch is scaled back to the
/// requested `iters`, the usual batch-timing estimate.
fn contended_run(rt: &TmRuntime, workers: usize, iters: u64) -> Duration {
    const MIN_REPS: u64 = 16_000;
    let reps = iters.max(MIN_REPS);
    let cells: Vec<[TCell<u64>; 4]> = (0..workers)
        .map(|w| std::array::from_fn(|i| TCell::new((w * 4 + i) as u64)))
        .collect();
    let barrier = Barrier::new(workers + 1);
    let elapsed = std::thread::scope(|s| {
        for w in 0..workers {
            let rt = &rt;
            let cells = &cells;
            let barrier = &barrier;
            s.spawn(move || {
                barrier.wait();
                for i in 0..reps {
                    rt.atomic(|tx| {
                        for c in &cells[w] {
                            let v = tx.read(c)?;
                            tx.write(c, v.wrapping_add(i | 1))?;
                        }
                        Ok(())
                    });
                }
                barrier.wait();
            });
        }
        barrier.wait();
        let t0 = Instant::now();
        barrier.wait();
        t0.elapsed()
    });
    elapsed.mul_f64(iters as f64 / reps as f64)
}

fn bench_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("fastpath_contended");
    // Thread spawn + barrier per sample makes these slower to take than
    // the single-threaded groups; fewer samples keep the group bounded.
    g.sample_size(15);
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        for workers in [2usize, 4, 8] {
            let rt = runtime(algo);
            g.bench_function(format!("{algo}/w{workers}"), |b| {
                b.iter_custom(|iters| contended_run(&rt, workers, iters))
            });
            println!("    [{algo}/w{workers}] clock_cas_retries={}", rt.stats().clock_cas_retries);
        }
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_copy1k,
    bench_smalltx,
    bench_steady_state_allocs,
    bench_contended
);
criterion_main!(benches);
