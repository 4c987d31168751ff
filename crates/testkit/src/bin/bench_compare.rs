//! `bench_compare`: the offline benchmark regression gate.
//!
//! Compares every committed `BENCH_*.json` baseline in one directory
//! against a freshly generated report of the same file name in another,
//! and exits nonzero if any benchmark regressed by more than the
//! threshold (default 15%). The comparison is noise-robust: the fresh
//! run's **minimum** must beat the baseline **median** (see
//! `testkit::bench::compare_reports`). Zero-baseline benchmarks (the
//! allocation counters) must stay exactly zero. Entirely offline: both
//! sides are files on disk produced by `testkit::bench`.
//!
//! ```console
//! $ bench_compare <baseline-dir> <fresh-dir> [--threshold <percent>]
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use testkit::bench::{compare_reports, parse_report};

fn bench_jsons(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = match std::fs::read_dir(dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            })
            .collect(),
        Err(e) => {
            eprintln!("bench_compare: cannot read {}: {e}", dir.display());
            std::process::exit(2);
        }
    };
    out.sort();
    out
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut threshold_pct = 15.0f64;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threshold" => {
                threshold_pct = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| {
                        eprintln!("bench_compare: --threshold needs a number");
                        std::process::exit(2);
                    });
            }
            _ => dirs.push(PathBuf::from(a)),
        }
    }
    let [baseline_dir, fresh_dir] = dirs.as_slice() else {
        eprintln!("usage: bench_compare <baseline-dir> <fresh-dir> [--threshold <percent>]");
        return ExitCode::from(2);
    };

    let baselines = bench_jsons(baseline_dir);
    if baselines.is_empty() {
        eprintln!(
            "bench_compare: no BENCH_*.json baselines in {}",
            baseline_dir.display()
        );
        return ExitCode::from(2);
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    for base_path in &baselines {
        let name = base_path.file_name().unwrap().to_string_lossy();
        let fresh_path = fresh_dir.join(&*name);
        let Ok(fresh_json) = std::fs::read_to_string(&fresh_path) else {
            // A baseline with no fresh counterpart means that bench was not
            // run this round — skip rather than fail, so partial smoke runs
            // stay usable; the full gate in verify.sh runs every bench.
            println!("  {name}: no fresh report, skipped");
            continue;
        };
        let base = parse_report(&std::fs::read_to_string(base_path).unwrap_or_default());
        let fresh = parse_report(&fresh_json);
        let bad = compare_reports(&base, &fresh, threshold_pct / 100.0);
        compared += base.iter().filter(|b| fresh.iter().any(|f| f.name == b.name)).count();
        for r in &bad {
            println!(
                "  REGRESSION {name} {}: base median {:.1}ns -> fresh min {:.1}ns (+{:.0}%)",
                r.name,
                r.base_ns,
                r.fresh_ns,
                if r.base_ns > 0.0 {
                    (r.fresh_ns / r.base_ns - 1.0) * 100.0
                } else {
                    f64::INFINITY
                },
            );
        }
        regressions += bad.len();
        if bad.is_empty() {
            println!("  {name}: ok ({} benchmarks)", fresh.len());
        }
    }

    if regressions > 0 {
        eprintln!(
            "bench_compare: {regressions} regression(s) beyond {threshold_pct:.0}% \
             across {compared} compared benchmarks"
        );
        return ExitCode::FAILURE;
    }
    println!("bench_compare: {compared} benchmarks within {threshold_pct:.0}% of baseline");
    ExitCode::SUCCESS
}
