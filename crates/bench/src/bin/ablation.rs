//! Ablations of the design choices DESIGN.md §5 calls out:
//!
//! 1. **Hot-key skew** — IP's privatized item access vs IT's transactional
//!    item sections as contention concentrates (the paper's Figure-1
//!    trade-off: IP's lock mini-transactions "implicitly take priority
//!    over" IT's larger transactions).
//! 2. **Value size** — the §4 claim that buffered-update algorithms pay
//!    for byte-wise stores (`memcpy`) read back as words.
//! 3. **Hourglass threshold** — sensitivity of the toxic-transaction gate
//!    (paper configured 128).
//! 4. **Orec-table size** — false-conflict sensitivity of the lock table.
//! 5. **Refcount elision** — the paper's §5 future-work idea: under full
//!    transactionalization, get-path refcount RMW pairs become plain
//!    reads.
//!
//! Reference measurements (1-core host, MC_OPS=3000, MC_KEYS=1000):
//!
//! * Skew: IP stays flat (~0.027s, ~0 aborts/commit at any skew — its
//!   privatized item data never conflicts transactionally) while IT
//!   degrades sharply (1.2 → 12.2 aborts/commit as 50% of traffic lands
//!   on 5% of keys) — the Figure-1 trade-off, quantified.
//! * Value size: eager ≈ lazy ≈ norec at 64 B; by 1–4 KiB the buffered
//!   algorithms pay the byte-store redo-log tax (see also the
//!   `fastpath_copy1k` group of the `stm_fastpath` bench, which copies a
//!   1 KiB value byte-wise and word-wise under each algorithm).
//! * Hourglass: tiny thresholds (4) serialize too eagerly (0.021s,
//!   0.78 a/c); 128 (the paper's setting) already behaves like no-CM.
//! * Orec table: 2^6 orecs alias disjoint cells into 2.6 false aborts
//!   per commit; 2^16 (the default) eliminates them at this scale.

use std::sync::Arc;
use std::time::Instant;

use bench::{run_once, BenchConfig, Scale};
use mcache::Branch;
use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};
use workload::Workload;

fn main() {
    let scale = {
        let mut s = Scale::from_env();
        s.threads = vec![4];
        s
    };

    // ----------------------------------------------------------------
    println!("# Ablation 1: hot-key skew — IP vs IT (onCommit stage, 4 threads)");
    println!(
        "{:<10} {:>12} {:>12} {:>16} {:>16}",
        "skew", "IP secs", "IT secs", "IP aborts/commit", "IT aborts/commit"
    );
    for &(frac, prob) in &[(0.0, 0.0), (0.05, 0.5), (0.01, 0.9), (0.002, 0.95)] {
        let mut row = Vec::new();
        for branch in [Branch::IpNoLock, Branch::ItNoLock] {
            let cfg = BenchConfig::branch(branch);
            let r = run_skewed(&cfg, &scale, 4, frac, prob);
            row.push(r);
        }
        println!(
            "{:<10} {:>11.3}s {:>11.3}s {:>16.3} {:>16.3}",
            format!("{:.0}%@{:.0}%", frac * 100.0, prob * 100.0),
            row[0].secs,
            row[1].secs,
            row[0].tm.aborts_per_commit(),
            row[1].tm.aborts_per_commit(),
        );
    }
    println!();

    // ----------------------------------------------------------------
    println!("# Ablation 2: value size — redo-log tax per algorithm (2 threads)");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "value", "eager", "lazy", "norec"
    );
    for &value in &[64usize, 256, 1024, 4096] {
        let mut s = scale.clone();
        s.value = value;
        s.keys = 500;
        print!("{value:<10}");
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            let cfg = BenchConfig::algo(&format!("{algo}"), algo, ContentionManager::None);
            let r = run_once(&cfg, &s, 2);
            print!(" {:>11.3}s", r.secs);
        }
        println!();
    }
    println!();

    // ----------------------------------------------------------------
    println!("# Ablation 3: hourglass threshold (hot counter, 4 threads x 20k txns)");
    println!("{:<12} {:>12} {:>16}", "threshold", "secs", "aborts/commit");
    for &limit in &[4u32, 32, 128, 512] {
        let rt = Arc::new(
            TmRuntime::builder()
                .contention_manager(ContentionManager::Hourglass(limit))
                .serial_lock(SerialLockMode::None)
                .build(),
        );
        let hot = Arc::new(TCell::new(0u64));
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rt = rt.clone();
                let hot = hot.clone();
                s.spawn(move || {
                    for _ in 0..20_000 {
                        rt.atomic(|tx| tx.fetch_add(&hot, 1));
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<12} {:>11.3}s {:>16.3}",
            limit,
            secs,
            rt.stats().aborts_per_commit()
        );
        assert_eq!(hot.load_direct(), 80_000);
    }
    println!();

    // ----------------------------------------------------------------
    println!("# Ablation 4: orec table size — false conflicts (4 threads, disjoint cells)");
    println!("{:<12} {:>12} {:>16}", "log2(orecs)", "secs", "aborts/commit");
    for &log in &[6u32, 10, 16, 20] {
        let rt = Arc::new(
            TmRuntime::builder()
                .orec_log_size(log)
                .contention_manager(ContentionManager::None)
                .serial_lock(SerialLockMode::None)
                .build(),
        );
        // Threads touch disjoint cells: every abort is a false conflict
        // from orec aliasing.
        let cells: Arc<Vec<TCell<u64>>> = Arc::new((0..4096).map(|_| TCell::new(0)).collect());
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let rt = rt.clone();
                let cells = cells.clone();
                s.spawn(move || {
                    for i in 0..10_000usize {
                        let base = t * 1024;
                        rt.atomic(|tx| {
                            for k in 0..8 {
                                tx.modify(&cells[base + (i * 8 + k) % 1024], |v| v + 1)?;
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<12} {:>11.3}s {:>16.4}",
            log,
            secs,
            rt.stats().aborts_per_commit()
        );
    }
    println!();

    // ----------------------------------------------------------------
    println!("# Ablation 5: refcount elision on IT (the paper's §5 future-work idea)");
    println!("{:<14} {:>12} {:>16}", "variant", "secs", "aborts/commit");
    for elide in [false, true] {
        let mut cfg = BenchConfig::branch(Branch::ItNoLock);
        cfg.refcount_elision = elide;
        cfg.label = if elide { "IT+elision".into() } else { "IT".into() };
        let r = run_once(&cfg, &scale, 4);
        println!(
            "{:<14} {:>11.3}s {:>16.3}",
            cfg.label,
            r.secs,
            r.tm.aborts_per_commit()
        );
    }
}

/// `run_once` with a skewed keyspace.
fn run_skewed(
    cfg: &BenchConfig,
    scale: &Scale,
    threads: usize,
    frac: f64,
    prob: f64,
) -> bench::RunResult {
    let wl = Workload::builder()
        .concurrency(threads)
        .execute_number(scale.ops)
        .key_count(scale.keys)
        .value_size(scale.value)
        .skew(frac, prob)
        .build();
    bench::run_once_with(cfg, scale, threads, Arc::new(wl))
}
