//! Read-path overdrive benches: the GET-shaped transaction of the paper's
//! §3.3 item path, measured with and without the runtime's read-only fast
//! lane, per algorithm.
//!
//! * `getpath_mix` — a 90/10 GET/SET mix over a small item table. The
//!   **fulltx** arm is the pre-overdrive shape: every GET is an ordinary
//!   transaction that also carries its stats updates (three read-modify-
//!   writes), so even a "read" commits through the write path. The
//!   **fastlane** arm is the trimmed shape: GETs enter through
//!   [`TmRuntime::atomic_ro`] and carry only the item reads — hash-walk,
//!   key check, flags, value — with stats privatized to plain per-thread
//!   counters outside the section. The fast lane must win by ≥1.5x median.
//!   The **promote** arm measures the fall-from-grace case: an RO-entered
//!   GET that still bumps a refcount mid-flight, i.e. one in-flight
//!   promotion per transaction.
//! * `getpath_multiget` — 16 GETs as 16 read-only transactions vs 16 GETs
//!   batched into ONE read-only transaction (the multiget shape the cache
//!   layer uses for `get k1 .. k16` and pipelined quiet binary gets).
//!
//! Each arm prints the runtime's fast-lane counters afterwards
//! (`ro_fast_commits`, `ro_promotions`, `snapshot_extensions`) — the
//! validation-pass counts quoted in EXPERIMENTS.md.

use std::hint::black_box;

use bench::{ratio_gate, EVERY_ALGORITHM};
use testkit::bench::Criterion;
use testkit::{criterion_group, criterion_main};
use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};

const ITEMS: usize = 256;
/// Words per item: bucket link, key word, flags, refcount, value, cas —
/// the words the cache's `item_get` actually touches.
const ITEM_WORDS: usize = 6;

fn runtime(algo: Algorithm) -> TmRuntime {
    TmRuntime::builder()
        .algorithm(algo)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .build()
}

fn table() -> Vec<[TCell<u64>; ITEM_WORDS]> {
    (0..ITEMS)
        .map(|i| std::array::from_fn(|w| TCell::new((i * ITEM_WORDS + w) as u64)))
        .collect()
}

/// Deterministic 64-bit LCG; the bench must not depend on ambient entropy.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// The SET shape, identical in both mix arms: value + cas stores with the
/// stats block inline, a plain read-write transaction.
fn set_tx(
    rt: &TmRuntime,
    it: &[TCell<u64>; ITEM_WORDS],
    stats: &[TCell<u64>; 3],
) -> u64 {
    rt.atomic(|tx| {
        let v = tx.read(&it[4])?;
        tx.write(&it[4], v.wrapping_add(1))?;
        let cas = tx.read(&it[5])?;
        tx.write(&it[5], cas.wrapping_add(1))?;
        for s in stats {
            let sv = tx.read(s)?;
            tx.write(s, sv + 1)?;
        }
        Ok(v)
    })
}

fn report(arm: &str, rt: &TmRuntime) {
    let s = rt.stats();
    println!(
        "    [{arm}] ro_fast_commits={} ro_promotions={} snapshot_extensions={} read_log_dedup_hits={}",
        s.ro_fast_commits, s.ro_promotions, s.snapshot_extensions, s.read_log_dedup_hits
    );
}

fn bench_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("getpath_mix");
    g.sample_size(40);
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        // The fulltx/fastlane arms are a before/after pair destined for a
        // ratio check, so their samples run interleaved (`bench_pair`) and
        // see the same host-noise epochs.
        //
        // fulltx — the pre-overdrive GET: exactly what the cache's
        // transactional GET used to carry — refcount incr/decr pair, an
        // UNCONDITIONAL ITEM_FETCHED flag store, and the stats block
        // (get_cmds, get_hits, cmd_total) inline — six read-modify-writes
        // riding on the item reads, so even a "read" commits through the
        // write path.
        //
        // fastlane — the trimmed GET: atomic_ro carrying only the reads —
        // the refcount pair elided to a plain read, ITEM_FETCHED checked
        // but not re-stored, stats privatized to plain per-thread counters
        // bumped after the section. SETs keep the identical full shape.
        {
            let rt_full = runtime(algo);
            let items_full = table();
            let stats_full: [TCell<u64>; 3] = std::array::from_fn(|_| TCell::new(0));
            let mut seed_full = 0x9e3779b97f4a7c15u64;
            let rt_fast = runtime(algo);
            let items_fast = table();
            let stats_fast: [TCell<u64>; 3] = std::array::from_fn(|_| TCell::new(0));
            let mut priv_stats = [0u64; 3];
            let mut seed_fast = 0x9e3779b97f4a7c15u64;
            g.bench_pair(
                format!("{algo}/fulltx_90_10"),
                |b| {
                    b.iter(|| {
                        let r = lcg(&mut seed_full);
                        let it = &items_full[(r % ITEMS as u64) as usize];
                        if r % 10 < 9 {
                            rt_full.atomic(|tx| {
                                // Hash-bucket walk + key memcmp.
                                let mut acc = tx.read(&it[0])? ^ tx.read(&it[1])?;
                                // ref_incr.
                                let rc = tx.read(&it[3])?;
                                tx.write(&it[3], rc.wrapping_add(1))?;
                                // ITEM_FETCHED, stored even when already set.
                                let f = tx.read(&it[2])?;
                                tx.write(&it[2], f | 1)?;
                                // Value + cas.
                                acc ^= tx.read(&it[4])? ^ tx.read(&it[5])?;
                                // ref_decr.
                                let rc = tx.read(&it[3])?;
                                tx.write(&it[3], rc.wrapping_sub(1))?;
                                // Stats folded into the item transaction.
                                for s in &stats_full {
                                    let v = tx.read(s)?;
                                    tx.write(s, v + 1)?;
                                }
                                Ok(acc)
                            })
                        } else {
                            set_tx(&rt_full, it, &stats_full)
                        }
                    })
                },
                format!("{algo}/fastlane_90_10"),
                |b| {
                    b.iter(|| {
                        let r = lcg(&mut seed_fast);
                        let it = &items_fast[(r % ITEMS as u64) as usize];
                        if r % 10 < 9 {
                            let out = rt_fast.atomic_ro(|tx| {
                                let mut acc = tx.read(&it[0])? ^ tx.read(&it[1])?;
                                let rc = tx.read(&it[3])?; // elided refcount
                                let f = tx.read(&it[2])?; // FETCHED already set
                                acc ^= tx.read(&it[4])? ^ tx.read(&it[5])? ^ rc ^ f;
                                Ok(acc)
                            });
                            for s in &mut priv_stats {
                                *s += 1;
                            }
                            out
                        } else {
                            set_tx(&rt_fast, it, &stats_fast)
                        }
                    })
                },
            );
            black_box(priv_stats);
            report("fulltx", &rt_full);
            report("fastlane", &rt_fast);
        }

        // The promotion tax: enter RO but still RMW the refcount word —
        // every GET promotes in flight (the no-elision shape).
        {
            let rt = runtime(algo);
            let items = table();
            let mut seed = 0x9e3779b97f4a7c15u64;
            g.bench_function(format!("{algo}/fastlane_promote"), |b| {
                b.iter(|| {
                    let r = lcg(&mut seed);
                    let it = &items[(r % ITEMS as u64) as usize];
                    rt.atomic_ro(|tx| {
                        let mut acc = tx.read(&it[0])? ^ tx.read(&it[1])? ^ tx.read(&it[2])?;
                        let rc = tx.read(&it[3])?;
                        tx.write(&it[3], rc.wrapping_add(1))?;
                        acc ^= tx.read(&it[4])?;
                        Ok(acc)
                    })
                })
            });
            report("promote", &rt);
        }
    }
    let stats = g.finish();
    // The epoch-invariant regression gate: because the pair ran
    // interleaved, the fulltx/fastlane ratio is stable (observed
    // 1.6–2.2x across runs and noise epochs) even when absolute
    // nanoseconds wander ±50%. The acceptance bar is 1.5x; gating a
    // notch under it tolerates residual per-sample noise while still
    // failing loudly if the fast lane ever stops being a fast lane.
    ratio_gate(&stats, "fulltx_90_10", "fastlane_90_10", 1.4, EVERY_ALGORITHM);
}

fn bench_multiget(c: &mut Criterion) {
    const BATCH: usize = 16;
    let mut g = c.benchmark_group("getpath_multiget");
    g.sample_size(40);
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let rt = runtime(algo);
        let items = table();

        // single — 16 keys, one read-only transaction each. batched — the
        // same 16 keys in ONE read-only transaction: one begin, one
        // snapshot, one commit fence for the whole batch. Interleaved for
        // the same ratio-stability reason as the mix pair.
        let mut seed = 1u64;
        let mut seed2 = 1u64;
        g.bench_pair(
            format!("{algo}/single_x16"),
            |b| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for _ in 0..BATCH {
                        let it = &items[(lcg(&mut seed) % ITEMS as u64) as usize];
                        acc ^= rt.atomic_ro(|tx| {
                            let mut a = 0u64;
                            for w in it {
                                a ^= tx.read(w)?;
                            }
                            Ok(a)
                        });
                    }
                    acc
                })
            },
            format!("{algo}/batched_x16"),
            |b| {
                b.iter(|| {
                    let picks: [usize; BATCH] =
                        std::array::from_fn(|_| (lcg(&mut seed2) % ITEMS as u64) as usize);
                    rt.atomic_ro(|tx| {
                        let mut a = 0u64;
                        for &i in &picks {
                            for w in &items[i] {
                                a ^= tx.read(w)?;
                            }
                        }
                        Ok(a)
                    })
                })
            },
        );
        report("multiget", &rt);
    }
    let stats = g.finish();
    // Batching must never LOSE to one-transaction-per-key; the win is
    // modest single-threaded (it saves begin/commit, not validation), so
    // the floor only guards against inversion.
    ratio_gate(&stats, "single_x16", "batched_x16", 0.95, EVERY_ALGORITHM);
}

/// One sample of the contended GET mix: `workers` threads each run
/// `iters` operations of a 90/10 GET/SET mix over their **own** slice of
/// the item table, so write sets never overlap and the threads share only
/// the commit machinery. GETs ride the read-only fast lane (they read the
/// clock but never tick it); the SETs are what contend on the commit
/// clock. The per-worker batch is floored so one sample spans many
/// scheduler quanta (short samples on small hosts measure descheduling,
/// not the payload); the barrier-to-join wall time is scaled back to the
/// requested `iters`.
fn contended_mix_run(
    rt: &TmRuntime,
    items: &[[TCell<u64>; ITEM_WORDS]],
    workers: usize,
    iters: u64,
) -> std::time::Duration {
    const MIN_REPS: u64 = 12_000;
    let reps = iters.max(MIN_REPS);
    let block = ITEMS / workers;
    let barrier = std::sync::Barrier::new(workers + 1);
    let elapsed = std::thread::scope(|s| {
        for w in 0..workers {
            let barrier = &barrier;
            s.spawn(move || {
                let mut seed = 0x9e3779b97f4a7c15u64 ^ (w as u64) << 32;
                barrier.wait();
                let mut acc = 0u64;
                for _ in 0..reps {
                    let r = lcg(&mut seed);
                    let it = &items[w * block + (r % block as u64) as usize];
                    if r % 10 < 9 {
                        acc ^= rt.atomic_ro(|tx| {
                            let mut a = tx.read(&it[0])? ^ tx.read(&it[1])?;
                            a ^= tx.read(&it[2])? ^ tx.read(&it[3])?;
                            a ^= tx.read(&it[4])? ^ tx.read(&it[5])?;
                            Ok(a)
                        });
                    } else {
                        rt.atomic(|tx| {
                            let v = tx.read(&it[4])?;
                            tx.write(&it[4], v.wrapping_add(1))?;
                            let cas = tx.read(&it[5])?;
                            tx.write(&it[5], cas.wrapping_add(1))?;
                            Ok(())
                        });
                    }
                }
                black_box(acc);
                barrier.wait();
            });
        }
        barrier.wait();
        let t0 = std::time::Instant::now();
        barrier.wait();
        t0.elapsed()
    });
    elapsed.mul_f64(iters as f64 / reps as f64)
}

/// Contended GET path: 2/4/8 workers on disjoint item slices. GETs
/// dominate, so this pins the read side of commit-clock contention: the
/// fast-lane readers' snapshots against the SETs' commit ticks.
fn bench_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("getpath_contended");
    g.sample_size(15);
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        for workers in [2usize, 4, 8] {
            let rt = runtime(algo);
            let items = table();
            g.bench_function(format!("{algo}/w{workers}"), |b| {
                b.iter_custom(|iters| contended_mix_run(&rt, &items, workers, iters))
            });
            report(&format!("contended_{algo}_w{workers}"), &rt);
        }
    }
    g.finish();
}

criterion_group!(benches, bench_mix, bench_multiget, bench_contended);
criterion_main!(benches);
