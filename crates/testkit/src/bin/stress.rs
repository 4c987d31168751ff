//! Stress-harness driver: sweeps seeds through every runtime combination
//! until the time budget runs out, or replays one seed.
//!
//! ```text
//! cargo run --release -p testkit --bin stress -- --seconds 10
//! cargo run --release -p testkit --bin stress -- --seed 0x5eed
//! cargo run --release -p testkit --bin stress -- --seconds 5 --inject-bug
//! cargo run --release -p testkit --features chaos --bin stress -- --chaos --seconds 5
//! ```
//!
//! Exits non-zero on divergence, printing the failing seed and the replay
//! command. `--inject-bug` corrupts the mixed schedule's oracle on purpose,
//! to demonstrate that detection and seed replay work. `--chaos` (requires
//! the `chaos` feature) arms `tm::fault` on every worker thread: spurious
//! aborts, bounded delays, and injected panics rain on all 21 combos while
//! the same oracle stays on.
//!
//! Every seed runs every row of [`testkit::stress::SCHEDULES`] — mixed,
//! read-mostly, write-heavy, contended-commit, switch — over every combo; the
//! table documents what each one demands.

use std::time::{Duration, Instant};

use testkit::stress::{
    combos, run_matrix, Schedule, StressConfig, StressReport, CHAOS_PLAN, SCHEDULES,
};

struct Args {
    seconds: u64,
    seed: Option<u64>,
    base: StressConfig,
    inject_bug: bool,
    chaos: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seconds: 10,
        seed: None,
        base: StressConfig {
            txns_per_thread: 150,
            ..StressConfig::smoke()
        },
        inject_bug: false,
        chaos: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut num = |what: &str| -> u64 {
            let v = it
                .next()
                .unwrap_or_else(|| die(&format!("{what} needs a value")));
            let v = v.trim();
            let parsed = if let Some(h) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                u64::from_str_radix(h, 16)
            } else {
                v.parse()
            };
            parsed.unwrap_or_else(|_| die(&format!("bad value for {what}: {v}")))
        };
        match a.as_str() {
            "--seconds" => args.seconds = num("--seconds"),
            "--seed" => args.seed = Some(num("--seed")),
            "--threads" => args.base.threads = num("--threads") as usize,
            "--txns" => args.base.txns_per_thread = num("--txns") as usize,
            "--cells" => args.base.cells = num("--cells") as usize,
            "--ops" => args.base.max_ops_per_txn = num("--ops") as usize,
            "--inject-bug" => args.inject_bug = true,
            "--chaos" => args.chaos = true,
            "--help" | "-h" => {
                println!(
                    "usage: stress [--seconds N | --seed S] [--threads N] [--txns N] \
                     [--cells N] [--ops N] [--inject-bug] [--chaos]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("stress: {msg}");
    std::process::exit(2);
}

fn main() {
    let args = parse_args();
    if args.chaos && !cfg!(feature = "chaos") {
        die("chaos mode needs the `chaos` feature: \
             cargo run --release -p testkit --features chaos --bin stress -- --chaos");
    }
    let faults = args.chaos.then_some(CHAOS_PLAN);
    let mut schedules = SCHEDULES;
    schedules[0].sabotage = args.inject_bug;

    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut totals: Vec<(Schedule, u64, StressReport)> = schedules
        .iter()
        .map(|&s| (s, 0, StressReport::default()))
        .collect();
    let mut seed = args.seed.unwrap_or(1);
    loop {
        for (schedule, runs, total) in &mut totals {
            match run_matrix(seed, &args.base, schedule, faults) {
                Ok(reports) => {
                    *runs += reports.len() as u64;
                    reports.iter().for_each(|r| total.absorb(r));
                }
                Err(d) => {
                    eprintln!("{d}");
                    std::process::exit(1);
                }
            }
        }
        // A single --seed run sweeps the matrix exactly once.
        if args.seed.is_some() || start.elapsed() >= budget {
            break;
        }
        seed += 1;
    }
    println!(
        "stress: {}OK — {} runs over {} runtime combos x {} schedules, {:.2}s",
        if args.chaos { "CHAOS " } else { "" },
        totals.iter().map(|t| t.1).sum::<u64>(),
        combos().len(),
        totals.len(),
        start.elapsed().as_secs_f64()
    );
    for (schedule, runs, t) in &totals {
        println!(
            "  {:<17} {runs} runs, {} commits, {} aborts, {} clock CAS retries, \
             {} fast-lane commits, {} promotions, {} reader snapshots checked, {} faults injected ({} panic teardowns)",
            schedule.name,
            t.commits,
            t.aborts,
            t.clock_cas_retries,
            t.ro_fast_commits,
            t.ro_promotions,
            t.snapshots_checked,
            t.injected,
            t.panic_aborts,
        );
    }
}
