//! Write-path overdrive benches: the SET-shaped transaction of the paper's
//! §3.3 item path, measured before and after the mutation fast lane and
//! the per-worker slab magazines, per algorithm.
//!
//! * `setpath_mix` — two interleaved pairs over a small item table:
//!   - **set-heavy (90/10 SET/GET)**: the **fulltx** arm is the
//!     pre-overdrive store — THREE transactions per SET (freelist pop,
//!     item link with stats inline, freelist push of the displaced chunk),
//!     every commit ticking the global clock. The **fastlane** arm is the
//!     magazine store: ONE transaction carrying the item writes, with the
//!     chunk handed over by a thread-private magazine (plain pop/push
//!     outside the section) and the unchanged flags/link words written
//!     back verbatim, as the real store does. Must win ≥1.3x median on at
//!     least two of the three algorithms (the acceptance bar).
//!   - **50/50 mix**: same arms at an even GET/SET split; GETs ride the
//!     read-only fast lane in both arms so the pair isolates the write
//!     path. Gated at ≥1.15x on two of three.
//! * `setpath_batch` — 16 SETs as 16 transactions vs the same 16 SETs in
//!   ONE transaction (the shape `store_batch` gives pipelined ASCII
//!   storage commands and quiet binary SETQ bursts). Batching must not
//!   lose to singles.
//! * `setpath_magazine` — the real `McCache` end to end: overwrite SETs
//!   on the transactional-item branch with the magazine off (the
//!   3-transaction store) vs on (the single-transaction magazine store).
//!   The magazine must not lose; in practice it wins handily.
//!
//! Each arm prints the runtime's commit-clock counters afterwards
//! (`clock_tick_elisions`, `clock_cas_retries`) — the numbers quoted in
//! EXPERIMENTS.md.

use std::hint::black_box;

use bench::{ratio_gate, EVERY_ALGORITHM};
use mcache::{Branch, McCache, McConfig, SlabConfig, Stage, StoreStatus};
use testkit::bench::Criterion;
use testkit::{criterion_group, criterion_main};
use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};

const ITEMS: usize = 256;
/// Words per item: bucket link, key word, flags, refcount, value, cas.
const ITEM_WORDS: usize = 6;
/// Chunks on the modeled freelist (enough that the pop never bottoms out).
const CHUNKS: usize = 512;

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

/// The transactional freelist the pre-overdrive store pops from and
/// pushes to: a head cell, a per-chunk next word, and a count — the three
/// shared cells `do_slabs_alloc`/`do_slabs_free` RMW on every SET.
struct Freelist {
    head: TCell<u64>,
    next: Vec<TCell<u64>>,
    count: TCell<u64>,
}

fn freelist() -> Freelist {
    Freelist {
        head: TCell::new(1),
        next: (0..CHUNKS)
            .map(|i| TCell::new(((i + 1) % CHUNKS) as u64))
            .collect(),
        count: TCell::new(CHUNKS as u64),
    }
}

/// The item-link writes shared by every SET arm: value + cas move, the
/// unchanged flags and bucket-link words written back verbatim (stores
/// like the others), and the three-cell stats block.
fn link_writes<'env, Tx: Transaction<'env>>(
    tx: &mut Tx,
    it: &'env [TCell<u64>; ITEM_WORDS],
    stats: &'env [TCell<u64>; 3],
    new_value: u64,
) -> Result<u64, tm::Abort> {
    // Unchanged on overwrite: the value read is written back.
    let link = tx.read(&it[0])?;
    tx.write(&it[0], link)?;
    let flags = tx.read(&it[2])?;
    tx.write(&it[2], flags)?;
    // The real movement: value + cas.
    tx.write(&it[4], new_value)?;
    let cas = tx.read(&it[5])?;
    tx.write(&it[5], cas.wrapping_add(1))?;
    for s in stats {
        let v = tx.read(s)?;
        tx.write(s, v + 1)?;
    }
    Ok(link ^ flags ^ new_value)
}

/// The pre-overdrive SET: three transactions — freelist pop, link, free.
fn fulltx_set(
    rt: &TmRuntime,
    fl: &Freelist,
    it: &[TCell<u64>; ITEM_WORDS],
    stats: &[TCell<u64>; 3],
    new_value: u64,
) -> u64 {
    // Transaction 1: do_item_alloc — pop the class freelist.
    let chunk = rt.atomic(|tx| {
        let head = tx.read(&fl.head)?;
        let next = tx.read(&fl.next[(head % CHUNKS as u64) as usize])?;
        tx.write(&fl.head, next)?;
        let c = tx.read(&fl.count)?;
        tx.write(&fl.count, c.wrapping_sub(1))?;
        Ok(head)
    });
    // Transaction 2: item init + hash link + stats.
    let acc = rt.atomic(|tx| link_writes(tx, it, stats, new_value));
    // Transaction 3: free the displaced chunk back to the list.
    rt.atomic(|tx| {
        let head = tx.read(&fl.head)?;
        tx.write(&fl.next[(chunk % CHUNKS as u64) as usize], head)?;
        tx.write(&fl.head, chunk)?;
        let c = tx.read(&fl.count)?;
        tx.write(&fl.count, c.wrapping_add(1))
    });
    acc
}

/// The magazine SET: chunk from a thread-private stack (no transaction),
/// ONE transaction for the item writes, displaced chunk back to the
/// stack.
fn magazine_set(
    rt: &TmRuntime,
    mag: &mut Vec<u64>,
    it: &[TCell<u64>; ITEM_WORDS],
    stats: &[TCell<u64>; 3],
    new_value: u64,
) -> u64 {
    let chunk = mag.pop().expect("magazine warm");
    let acc = rt.atomic(|tx| link_writes(tx, it, stats, new_value));
    mag.push(chunk.wrapping_add(1));
    acc
}

/// The trimmed GET both mix arms share: read-only fast lane, reads only.
fn fast_get(rt: &TmRuntime, it: &[TCell<u64>; ITEM_WORDS]) -> u64 {
    rt.atomic_ro(|tx| {
        let mut acc = 0u64;
        for w in it {
            acc ^= tx.read(w)?;
        }
        Ok(acc)
    })
}

fn report(arm: &str, rt: &TmRuntime) {
    let s = rt.stats();
    println!(
        "    [{arm}] clock_tick_elisions={} clock_cas_retries={}",
        s.clock_tick_elisions, s.clock_cas_retries
    );
}

fn bench_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("setpath_mix");
    g.sample_size(40);
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        for (label, set_pct) in [("set_heavy_90_10", 9u64), ("mix_50_50", 5u64)] {
            let rt_full = runtime(algo);
            let items_full = table();
            let fl = freelist();
            let stats_full: [TCell<u64>; 3] = std::array::from_fn(|_| TCell::new(0));
            let mut seed_full = 0x9e3779b97f4a7c15u64;
            let rt_fast = runtime(algo);
            let items_fast = table();
            let mut mag: Vec<u64> = (0..64).collect();
            let stats_fast: [TCell<u64>; 3] = std::array::from_fn(|_| TCell::new(0));
            let mut seed_fast = 0x9e3779b97f4a7c15u64;
            g.bench_pair(
                format!("{algo}/fulltx_{label}"),
                |b| {
                    b.iter(|| {
                        let r = lcg(&mut seed_full);
                        let it = &items_full[(r % ITEMS as u64) as usize];
                        if r % 10 < set_pct {
                            fulltx_set(&rt_full, &fl, it, &stats_full, r)
                        } else {
                            fast_get(&rt_full, it)
                        }
                    })
                },
                format!("{algo}/fastlane_{label}"),
                |b| {
                    b.iter(|| {
                        let r = lcg(&mut seed_fast);
                        let it = &items_fast[(r % ITEMS as u64) as usize];
                        if r % 10 < set_pct {
                            magazine_set(&rt_fast, &mut mag, it, &stats_fast, r)
                        } else {
                            fast_get(&rt_fast, it)
                        }
                    })
                },
            );
            black_box(mag.len());
            report(&format!("fulltx_{label}"), &rt_full);
            report(&format!("fastlane_{label}"), &rt_fast);
        }
    }
    let stats = g.finish();
    // The acceptance bar: the single-transaction magazine SET beats the
    // 3-transaction freelist SET by ≥1.3x on the set-heavy arm on at
    // least two of the three algorithms. The 50/50 arm dilutes the write
    // share, so its floor is lower — it guards the shape, not the
    // headline.
    ratio_gate(&stats, "fulltx_set_heavy_90_10", "fastlane_set_heavy_90_10", 1.3, 2);
    ratio_gate(&stats, "fulltx_mix_50_50", "fastlane_mix_50_50", 1.15, 2);
}

fn bench_batch(c: &mut Criterion) {
    const BATCH: usize = 16;
    let mut g = c.benchmark_group("setpath_batch");
    g.sample_size(40);
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let rt = runtime(algo);
        let items = table();
        let stats: [TCell<u64>; 3] = std::array::from_fn(|_| TCell::new(0));
        let mut mag: Vec<u64> = (0..64).collect();
        let mut mag2: Vec<u64> = (0..64).collect();
        let mut seed = 1u64;
        let mut seed2 = 1u64;

        // single — 16 magazine SETs, one transaction each. batched — the
        // same 16 SETs in ONE transaction: one begin, one commit fence,
        // one clock tick for the whole burst (the `store_batch` shape).
        g.bench_pair(
            format!("{algo}/single_x16"),
            |b| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for _ in 0..BATCH {
                        let r = lcg(&mut seed);
                        let it = &items[(r % ITEMS as u64) as usize];
                        acc ^= magazine_set(&rt, &mut mag, it, &stats, r);
                    }
                    acc
                })
            },
            format!("{algo}/batched_x16"),
            |b| {
                b.iter(|| {
                    let picks: [u64; BATCH] = std::array::from_fn(|_| lcg(&mut seed2));
                    let chunk = mag2.pop().expect("magazine warm");
                    let out = rt.atomic(|tx| {
                        let mut acc = 0u64;
                        for &r in &picks {
                            let it = &items[(r % ITEMS as u64) as usize];
                            acc ^= link_writes(tx, it, &stats, r)?;
                        }
                        Ok(acc)
                    });
                    mag2.push(chunk.wrapping_add(1));
                    out
                })
            },
        );
        report("batch", &rt);
    }
    let stats = g.finish();
    // Batching must never LOSE to one-transaction-per-SET; the win is
    // per-commit overhead amortized 16x, so anything under parity is a
    // regression.
    ratio_gate(&stats, "single_x16", "batched_x16", 0.95, EVERY_ALGORITHM);
}

fn setpath_cache(magazine: usize) -> mcache::McHandle {
    McCache::start(McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: 1,
        magazine,
        lru_bump_every: 0,
        hash_power: 8,
        hash_power_max: 8,
        item_lock_power: 6,
        slab: SlabConfig {
            mem_limit: 4 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        ..Default::default()
    })
}

fn bench_magazine(c: &mut Criterion) {
    let mut g = c.benchmark_group("setpath_magazine");
    g.sample_size(30);
    // The real cache, end to end: overwrite SETs on the transactional-item
    // branch. magoff — the 3-transaction store against the shared class
    // freelist. magon — the single-transaction magazine store. Interleaved
    // so the ratio survives noise epochs.
    let off = setpath_cache(0);
    let on = setpath_cache(32);
    let mut value_off = [7u8; 64];
    let mut value_on = [7u8; 64];
    let mut i = 0u32;
    let mut j = 0u32;
    // Warm both caches so steady state is overwrite + recycle.
    for _ in 0..64 {
        assert_eq!(off.set(0, b"bench-key", &value_off, 0, 0), StoreStatus::Stored);
        assert_eq!(on.set(0, b"bench-key", &value_on, 0, 0), StoreStatus::Stored);
    }
    g.bench_pair(
        "mcache/set_magoff",
        |b| {
            b.iter(|| {
                i = i.wrapping_add(1);
                value_off[0] = i as u8;
                off.set(0, b"bench-key", &value_off, 0, 0)
            })
        },
        "mcache/set_magon",
        |b| {
            b.iter(|| {
                j = j.wrapping_add(1);
                value_on[0] = j as u8;
                on.set(0, b"bench-key", &value_on, 0, 0)
            })
        },
    );
    let s = on.stats();
    println!(
        "    [magon] magazine_refills={} magazine_flushes={}",
        s.global.magazine_refills, s.global.magazine_flushes
    );
    let stats = g.finish();
    // The magazine must never lose to the freelist store on its home
    // turf (single worker, warm overwrites).
    ratio_gate(&stats, "set_magoff", "set_magon", 1.0, EVERY_ALGORITHM);
}

/// One sample of the contended SET storm: `workers` threads each run
/// `iters` magazine-shaped single-transaction SETs over their **own**
/// slice of the item table, with per-worker stats blocks, so every write
/// set is disjoint — all the fighting happens at the commit point (the
/// clock word, orec stripes). The per-worker batch is floored so one sample
/// spans many scheduler quanta (short samples on small hosts measure
/// descheduling, not the payload); the barrier-to-join wall time is
/// scaled back to the requested `iters`.
fn contended_set_run(
    rt: &TmRuntime,
    items: &[[TCell<u64>; ITEM_WORDS]],
    stats: &[[TCell<u64>; 3]],
    workers: usize,
    iters: u64,
) -> std::time::Duration {
    const MIN_REPS: u64 = 8_000;
    let reps = iters.max(MIN_REPS);
    let block = ITEMS / workers;
    let barrier = std::sync::Barrier::new(workers + 1);
    let elapsed = std::thread::scope(|s| {
        for w in 0..workers {
            let barrier = &barrier;
            s.spawn(move || {
                let mut seed = 0x9e3779b97f4a7c15u64 ^ (w as u64) << 32;
                let mut mag: Vec<u64> = (0..64).collect();
                barrier.wait();
                let mut acc = 0u64;
                for _ in 0..reps {
                    let r = lcg(&mut seed);
                    let it = &items[w * block + (r % block as u64) as usize];
                    acc ^= magazine_set(rt, &mut mag, it, &stats[w], r);
                }
                black_box((acc, mag.len()));
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

/// Contended SET path: 2/4/8 workers hammering disjoint item slices with
/// the single-transaction magazine SET. Every transaction is a writer, so
/// this is the purest commit-clock contention the cache-shaped benches
/// produce.
fn bench_contended(c: &mut Criterion) {
    let mut g = c.benchmark_group("setpath_contended");
    g.sample_size(15);
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        for workers in [2usize, 4, 8] {
            let rt = runtime(algo);
            let items = table();
            let stats: Vec<[TCell<u64>; 3]> = (0..workers)
                .map(|_| std::array::from_fn(|_| TCell::new(0)))
                .collect();
            g.bench_function(format!("{algo}/w{workers}"), |b| {
                b.iter_custom(|iters| contended_set_run(&rt, &items, &stats, workers, iters))
            });
            report(&format!("contended_{algo}_w{workers}"), &rt);
        }
    }
    g.finish();
}

criterion_group!(benches, bench_mix, bench_batch, bench_magazine, bench_contended);
criterion_main!(benches);
