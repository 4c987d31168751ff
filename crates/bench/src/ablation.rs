//! Ablations of the design choices DESIGN.md §5 calls out, one
//! `reproduce` row each:
//!
//! 1. **`skew`** — IP's privatized item access vs IT's transactional
//!    item sections as contention concentrates (the paper's Figure-1
//!    trade-off: IP's lock mini-transactions "implicitly take priority
//!    over" IT's larger transactions).
//! 2. **`value-size`** — the §4 claim that buffered-update algorithms pay
//!    for byte-wise stores (`memcpy`) read back as words.
//! 3. **`hourglass`** — sensitivity of the toxic-transaction gate (paper
//!    configured 128).
//! 4. **`orecs`** — false-conflict sensitivity of the lock table.
//! 5. **`refcount-elision`** — the paper's §5 future-work idea: under
//!    full transactionalization, get-path refcount RMW pairs become plain
//!    reads.
//!
//! What they show on a 2-core x86-64 host at the default scale, over five
//! runs (EXPERIMENTS.md "Ablations" has the protocol and which of the
//! older claims still hold):
//!
//! * Skew: IT's aborts per commit climb from 0.015–0.016 with no skew to
//!   0.066–0.098 when 95% of the traffic lands on 0.2% of the keys; IP's
//!   go from 0.008–0.012 to 0.011–0.019. Skew still separates IP and IT,
//!   by 0.05–0.08 aborts per commit.
//! * Value size: run time grows with the value (64 B → 4 KiB: about
//!   0.015 s → 0.03 s) for all three algorithms alike; no buffered-write
//!   tax shows at this scale (the `fastpath_copy1k` group of the
//!   `stm_fastpath` bench isolates the byte- vs word-wise copy).
//! * Hourglass: every threshold from 4 to 512 lands between 0.03 and 0.85
//!   aborts per commit on one hot counter, with no order between them.
//! * Orecs: 2^6 orecs alias disjoint cells into 0.0014–0.036 false aborts
//!   per commit, 2^10 into 0.0002–0.0022; 2^16 (the default) and 2^20
//!   show none.
//! * Refcount elision: IT reads 0.014–0.018 aborts per commit without it
//!   and 0.011–0.018 with it; it no longer cuts aborts.

use std::time::Instant;

use mcache::Branch;
use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};
use workload::Workload;

use crate::{run_once, run_once_with, BenchConfig, Scale};

/// The skew row's label for `frac` of the keys drawing `prob` of the
/// traffic, in percent with as many digits as it takes (`0.2%@95%`).
pub fn skew_label(frac: f64, prob: f64) -> String {
    let pct = |x: f64| (x * 1000.0).round() / 10.0;
    format!("{}%@{}%", pct(frac), pct(prob))
}

/// Ablation 1: hot-key skew, IP vs IT at 4 threads.
pub fn skew(scale: &Scale) {
    println!("# Ablation 1: hot-key skew — IP vs IT (onCommit stage, 4 threads)");
    println!(
        "{:<10} {:>12} {:>12} {:>16} {:>16}",
        "skew", "IP secs", "IT secs", "IP aborts/commit", "IT aborts/commit"
    );
    for (frac, prob) in [(0.0, 0.0), (0.05, 0.5), (0.01, 0.9), (0.002, 0.95)] {
        let [ip, it] = [Branch::IpNoLock, Branch::ItNoLock].map(|branch| {
            let wl = Workload::builder()
                .concurrency(4)
                .execute_number(scale.ops)
                .key_count(scale.keys)
                .value_size(scale.value)
                .skew(frac, prob)
                .build();
            run_once_with(BenchConfig::branch(branch).mc_config(scale, 4), wl)
        });
        println!(
            "{:<10} {:>11.3}s {:>11.3}s {:>16.3} {:>16.3}",
            skew_label(frac, prob),
            ip.secs,
            it.secs,
            ip.tm.aborts_per_commit(),
            it.tm.aborts_per_commit(),
        );
    }
    println!();
}

/// Ablation 2: value size per algorithm at 2 threads.
pub fn value_size(scale: &Scale) {
    println!("# Ablation 2: value size — redo-log tax per algorithm (2 threads)");
    println!(
        "{:<10} {:>12} {:>12} {:>12}",
        "value", "eager", "lazy", "norec"
    );
    for value in [64usize, 256, 1024, 4096] {
        let s = Scale {
            value,
            keys: 500,
            ..scale.clone()
        };
        print!("{value:<10}");
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            let cfg = BenchConfig::algo(&format!("{algo}"), algo, ContentionManager::None);
            print!(" {:>11.3}s", run_once(&cfg, &s, 2).secs);
        }
        println!();
    }
    println!();
}

/// Ablation 3: hourglass threshold on one hot counter, 4 threads × 20k
/// transactions.
pub fn hourglass(_: &Scale) {
    println!("# Ablation 3: hourglass threshold (hot counter, 4 threads x 20k txns)");
    println!("{:<12} {:>12} {:>16}", "threshold", "secs", "aborts/commit");
    for limit in [4u32, 32, 128, 512] {
        let rt = TmRuntime::builder()
            .contention_manager(ContentionManager::Hourglass(limit))
            .serial_lock(SerialLockMode::None)
            .build();
        let hot = TCell::new(0u64);
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
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
}

/// Ablation 4: orec-table size, 4 threads on disjoint cells, so every
/// abort is a false conflict from orec aliasing.
pub fn orecs(_: &Scale) {
    println!("# Ablation 4: orec table size — false conflicts (4 threads, disjoint cells)");
    println!("{:<12} {:>12} {:>16}", "log2(orecs)", "secs", "aborts/commit");
    for log in [6u32, 10, 16, 20] {
        let rt = TmRuntime::builder()
            .orec_log_size(log)
            .contention_manager(ContentionManager::None)
            .serial_lock(SerialLockMode::None)
            .build();
        let cells: Vec<TCell<u64>> = (0..4096).map(|_| TCell::new(0)).collect();
        let start = Instant::now();
        std::thread::scope(|s| {
            for t in 0..4usize {
                let (rt, cells) = (&rt, &cells);
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
}

/// Ablation 5: refcount elision on IT-NoLock at 4 threads.
pub fn refcount_elision(scale: &Scale) {
    println!("# Ablation 5: refcount elision on IT (the paper's §5 future-work idea)");
    println!("{:<14} {:>12} {:>16}", "variant", "secs", "aborts/commit");
    for (label, elide) in [("IT", false), ("IT+elision", true)] {
        let cfg = BenchConfig {
            refcount_elision: elide,
            ..BenchConfig::branch(Branch::ItNoLock)
        };
        let r = run_once(&cfg, scale, 4);
        println!(
            "{:<14} {:>11.3}s {:>16.3}",
            label,
            r.secs,
            r.tm.aborts_per_commit()
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_labels_tell_every_row_apart() {
        let labels: Vec<String> = [(0.0, 0.0), (0.05, 0.5), (0.01, 0.9), (0.002, 0.95)]
            .map(|(frac, prob)| skew_label(frac, prob))
            .into();
        assert_eq!(labels, ["0%@0%", "5%@50%", "1%@90%", "0.2%@95%"]);
    }
}
