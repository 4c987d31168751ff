//! `mccrash`: the kill-at-random-commit durability harness.
//!
//! ```console
//! $ cargo run --release -p bench --bin mccrash -- --sweep 36 --seed 1
//! PASS case=00 path=it-oncommit fsync=always mode=before kill_at=9/21
//! ...
//! mccrash: 39/39 cases passed (36 kill + 3 chaos-fail)
//! ```
//!
//! Each case expands a seed into a deterministic mutation plan
//! ([`testkit::crash::CrashPlan`]), spawns a child copy of this binary
//! that executes the plan against a redo-log-enabled cache and dies —
//! via chaos injection in the log writer — at a seed-chosen append
//! index, then replays the log in the parent and compares the recovered
//! store against the pure oracle. The oracle is exact: the plan runs on
//! one worker, the writer is write-through, and `abort()` does not
//! empty the OS page cache, so the recovered state must equal
//! `simulate(plan, fatal_op)` with the fatal operation's effect present
//! iff the kill fired *after* its frame was written. Kill mode `mid`
//! must additionally leave exactly one torn record; `before`/`after`
//! leave none.
//!
//! Every mutation path stages its redo record through one `emit`, but
//! reaches it from a different section shape per branch family, so the
//! sweep rotates its kill points over six store paths ([`STORE_PATHS`]):
//! a case's path is `seed % 6`, which the sweep pins so each path gets
//! six of the 36 kill points, spread over every fsync policy.
//!
//! A second arm injects persistent log-write failures (`--fail-at`)
//! instead of killing: the child must keep serving in cache-only mode,
//! and recovery must stop exactly at the failed append.
//!
//! Replay one case deterministically with
//! `mccrash --crash-seed 0x<seed> --fsync <p> --kill-mode <m>`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::Ordering;

use mcache::dur::{CHAOS_FAIL_AFTER, CHAOS_KILL_AT, CHAOS_KILL_MODE};
use mcache::{Branch, DurFsync, McCache, McConfig, McHandle, SlabConfig, Stage};
use testkit::crash::{appends_for, fatal_op, simulate, CrashOp, CrashPlan};
use testkit::rng::{mix_seed, Rng, SmallRng};

const DEFAULT_OPS: usize = 40;
const POLICIES: [DurFsync; 3] = [DurFsync::Always, DurFsync::EveryN(8), DurFsync::Off];
const MODE_NAMES: [&str; 3] = ["before", "mid", "after"];

/// Every store path a redo record is emitted from: `(name, branch,
/// magazine)` — the lock branch, IP with and without the serial lock (the
/// branch sysbench measures), IT's 3-transaction store with and without
/// it, and IT's 1-transaction magazine store.
const STORE_PATHS: [(&str, Branch, usize); 6] = [
    ("baseline", Branch::Baseline, 0),
    ("ip-oncommit", Branch::Ip(Stage::OnCommit), 0),
    ("ip-nolock", Branch::IpNoLock, 0),
    ("it-oncommit", Branch::It(Stage::OnCommit), 0),
    ("it-nolock", Branch::ItNoLock, 0),
    ("it-oncommit+mag64", Branch::It(Stage::OnCommit), 64),
];

/// The store path a case runs (and recovers) on depends only on its seed,
/// like its kill point.
fn store_path(seed: u64) -> (&'static str, Branch, usize) {
    STORE_PATHS[(seed % STORE_PATHS.len() as u64) as usize]
}

fn start_cache(dir: &Path, fsync: DurFsync, seed: u64) -> McHandle {
    let (_, branch, magazine) = store_path(seed);
    McCache::start(McConfig {
        branch,
        magazine,
        workers: 1,
        slab: SlabConfig {
            mem_limit: 16 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.25,
        },
        hash_power: 8,
        hash_power_max: 10,
        dur_path: Some(dir.to_path_buf()),
        dur_fsync: fsync,
        ..Default::default()
    })
}

fn exec(c: &McHandle, op: &CrashOp) {
    match op {
        CrashOp::Set { key, value } => {
            c.set(0, key, value, 0, 0);
        }
        CrashOp::Delete { key } => {
            c.delete(0, key);
        }
        CrashOp::Incr { key, delta } => {
            c.arith(0, key, *delta, true);
        }
    }
}

/// The kill point for a case depends only on its seed, so a printed
/// seed is enough to replay the exact crash.
fn pick_kill_at(seed: u64, total_appends: u64) -> u64 {
    SmallRng::seed_from_u64(seed).gen_range(0..total_appends.max(1))
}

// -----------------------------------------------------------------
// Child: run the plan with the chaos triggers armed, die on schedule.

#[allow(clippy::too_many_arguments)]
fn run_child(
    dir: &Path,
    seed: u64,
    ops_n: usize,
    fsync: DurFsync,
    kill_at: Option<u64>,
    kill_mode: u64,
    fail_at: Option<u64>,
) -> ! {
    if let Some(k) = kill_at {
        CHAOS_KILL_MODE.store(kill_mode, Ordering::SeqCst);
        CHAOS_KILL_AT.store(k, Ordering::SeqCst);
    }
    if let Some(f) = fail_at {
        CHAOS_FAIL_AFTER.store(f, Ordering::SeqCst);
    }
    let plan = CrashPlan::from_seed(seed, ops_n);
    let c = start_cache(dir, fsync, seed);
    for op in &plan.ops {
        exec(&c, op);
    }
    // Reaching here means no kill fired — legitimate only in the
    // chaos-fail arm, where the contract is: keep serving, count errors.
    if fail_at.is_some() {
        let sim = simulate(&plan.ops, plan.ops.len());
        for (k, v) in &sim {
            let got = c.get(0, k).map(|g| g.data);
            if got.as_deref() != Some(v.as_slice()) {
                eprintln!("cache-only serve check failed for key {:?}", String::from_utf8_lossy(k));
                std::process::exit(3);
            }
        }
        let errs = c.dur_stats().map_or(0, |d| d.log_write_errors);
        println!("DEGRADED log_write_errors={errs}");
    } else {
        eprintln!("child completed the plan without being killed (kill_at out of range?)");
        std::process::exit(4);
    }
    drop(c); // seals the log (a no-op once degraded)
    std::process::exit(0);
}

// -----------------------------------------------------------------
// Parent: spawn, recover, compare against the oracle.

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("mccrash-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create case dir");
    d
}

/// Replays the log into a fresh cache and diffs it against `sim`.
/// Returns a list of human-readable mismatches (empty = pass).
fn verify_recovery(
    dir: &Path,
    seed: u64,
    sim: &BTreeMap<Vec<u8>, Vec<u8>>,
    expect_torn: u64,
    verbose: bool,
) -> Vec<String> {
    let mut errs = Vec::new();
    let c = start_cache(dir, DurFsync::Off, seed);
    let d = c.dur_stats().expect("dur stats present");
    if d.torn_records_dropped != expect_torn {
        errs.push(format!(
            "torn_records_dropped={} want {expect_torn}",
            d.torn_records_dropped
        ));
    }
    if d.recovered_items != sim.len() as u64 {
        errs.push(format!(
            "recovered_items={} want {}",
            d.recovered_items,
            sim.len()
        ));
    }
    let curr = c.stats().global.curr_items;
    if curr != sim.len() as u64 {
        errs.push(format!("curr_items={curr} want {}", sim.len()));
    }
    for (k, v) in sim {
        let got = c.get(0, k).map(|g| g.data);
        if got.as_deref() != Some(v.as_slice()) {
            errs.push(format!(
                "key {:?}: recovered {:?} want {:?}",
                String::from_utf8_lossy(k),
                got.as_ref().map(|g| g.len()),
                v.len()
            ));
        } else if verbose {
            println!("  ok key={:?} len={}", String::from_utf8_lossy(k), v.len());
        }
    }
    drop(c);
    errs
}

struct CaseSpec {
    label: String,
    seed: u64,
    ops_n: usize,
    fsync: DurFsync,
    kill_mode: u64,
}

/// One kill case end to end. Returns true on pass.
fn run_kill_case(exe: &Path, spec: &CaseSpec, verbose: bool) -> bool {
    let plan = CrashPlan::from_seed(spec.seed, spec.ops_n);
    let total = appends_for(&plan.ops, plan.ops.len());
    if total == 0 {
        println!("SKIP {}: plan produced no appends", spec.label);
        return true;
    }
    let kill_at = pick_kill_at(spec.seed, total);
    let dir = fresh_dir(&spec.label);
    let out = Command::new(exe)
        .args([
            "--child",
            "--dir",
            dir.to_str().unwrap(),
            "--seed",
            &spec.seed.to_string(),
            "--ops",
            &spec.ops_n.to_string(),
            "--fsync",
            &spec.fsync.to_string(),
            "--kill-at",
            &kill_at.to_string(),
            "--kill-mode",
            &spec.kill_mode.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn child");
    let mut errs = Vec::new();
    if out.status.success() {
        errs.push("child exited cleanly; expected it to die at the kill point".to_string());
    }
    // The fatal op's effect survives exactly when the kill fired after
    // its frame hit the (write-through) file.
    let fatal = fatal_op(&plan.ops, kill_at);
    let survivors = fatal + usize::from(spec.kill_mode == 2);
    let sim = simulate(&plan.ops, survivors);
    let expect_torn = u64::from(spec.kill_mode == 1);
    errs.extend(verify_recovery(&dir, spec.seed, &sim, expect_torn, verbose));
    let _ = std::fs::remove_dir_all(&dir);
    let line = format!(
        "{} path={} fsync={} mode={} kill_at={kill_at}/{total} fatal_op={fatal} live={}",
        spec.label,
        store_path(spec.seed).0,
        spec.fsync,
        MODE_NAMES[spec.kill_mode as usize],
        sim.len()
    );
    if errs.is_empty() {
        println!("PASS {line}");
        true
    } else {
        println!("FAIL {line}");
        for e in &errs {
            println!("  {e}");
        }
        if !out.stderr.is_empty() {
            println!("  child stderr: {}", String::from_utf8_lossy(&out.stderr).trim());
        }
        println!(
            "  replay: mccrash --crash-seed {:#x} --fsync {} --kill-mode {} --ops {}",
            spec.seed, spec.fsync, spec.kill_mode, spec.ops_n
        );
        false
    }
}

/// One chaos-fail case: the child survives with a dead log; recovery
/// must stop exactly at the failed append.
fn run_fail_case(exe: &Path, label: &str, seed: u64, ops_n: usize, fsync: DurFsync) -> bool {
    let plan = CrashPlan::from_seed(seed, ops_n);
    let total = appends_for(&plan.ops, plan.ops.len());
    if total == 0 {
        println!("SKIP {label}: plan produced no appends");
        return true;
    }
    let fail_at = pick_kill_at(seed ^ 0xFA11, total);
    let path = store_path(seed).0;
    let dir = fresh_dir(label);
    let out = Command::new(exe)
        .args([
            "--child",
            "--dir",
            dir.to_str().unwrap(),
            "--seed",
            &seed.to_string(),
            "--ops",
            &ops_n.to_string(),
            "--fsync",
            &fsync.to_string(),
            "--fail-at",
            &fail_at.to_string(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .output()
        .expect("spawn child");
    let mut errs = Vec::new();
    if !out.status.success() {
        errs.push(format!("child failed: {}", String::from_utf8_lossy(&out.stderr).trim()));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let degraded_ok = stdout
        .lines()
        .find_map(|l| l.strip_prefix("DEGRADED log_write_errors="))
        .and_then(|n| n.trim().parse::<u64>().ok())
        .is_some_and(|n| n > 0);
    if !degraded_ok {
        errs.push(format!("child did not report degradation: {:?}", stdout.trim()));
    }
    // Appends 0..fail_at landed; the op that would have produced append
    // `fail_at` (and everything after) was dropped on the floor.
    let sim = simulate(&plan.ops, fatal_op(&plan.ops, fail_at));
    errs.extend(verify_recovery(&dir, seed, &sim, 0, false));
    let _ = std::fs::remove_dir_all(&dir);
    if errs.is_empty() {
        println!(
            "PASS {label} path={path} fsync={fsync} fail_at={fail_at}/{total} live={}",
            sim.len()
        );
        true
    } else {
        println!("FAIL {label} path={path} fsync={fsync} fail_at={fail_at}/{total}");
        for e in &errs {
            println!("  {e}");
        }
        false
    }
}

// -----------------------------------------------------------------
// CLI.

struct Args {
    child: bool,
    dir: Option<PathBuf>,
    seed: u64,
    crash_seed: Option<u64>,
    ops_n: usize,
    sweep: usize,
    fsync: DurFsync,
    kill_at: Option<u64>,
    kill_mode: u64,
    fail_at: Option<u64>,
}

fn parse_u64(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_args() -> Args {
    let mut a = Args {
        child: false,
        dir: None,
        seed: 0xC0FFEE,
        crash_seed: None,
        ops_n: DEFAULT_OPS,
        sweep: 36,
        fsync: DurFsync::Always,
        kill_at: None,
        kill_mode: 1,
        fail_at: None,
    };
    let mut it = std::env::args().skip(1);
    let bad = |flag: &str| -> ! {
        eprintln!("bad or missing value for {flag}");
        std::process::exit(2);
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--child" => a.child = true,
            "--dir" => a.dir = Some(PathBuf::from(it.next().unwrap_or_else(|| bad("--dir")))),
            "--seed" => {
                a.seed = it.next().as_deref().and_then(parse_u64).unwrap_or_else(|| bad("--seed"))
            }
            "--crash-seed" => {
                a.crash_seed =
                    Some(it.next().as_deref().and_then(parse_u64).unwrap_or_else(|| {
                        bad("--crash-seed")
                    }))
            }
            "--ops" => {
                a.ops_n = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad("--ops"))
            }
            "--sweep" => {
                a.sweep = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| bad("--sweep"))
            }
            "--fsync" => {
                a.fsync = it
                    .next()
                    .as_deref()
                    .and_then(DurFsync::parse)
                    .unwrap_or_else(|| bad("--fsync"))
            }
            "--kill-at" => {
                a.kill_at =
                    Some(it.next().as_deref().and_then(parse_u64).unwrap_or_else(|| {
                        bad("--kill-at")
                    }))
            }
            "--kill-mode" => {
                a.kill_mode = it
                    .next()
                    .as_deref()
                    .and_then(parse_u64)
                    .filter(|&m| m <= 2)
                    .unwrap_or_else(|| bad("--kill-mode"))
            }
            "--fail-at" => {
                a.fail_at =
                    Some(it.next().as_deref().and_then(parse_u64).unwrap_or_else(|| {
                        bad("--fail-at")
                    }))
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    a
}

fn main() {
    let a = parse_args();
    if a.child {
        let dir = a.dir.unwrap_or_else(|| {
            eprintln!("--child requires --dir");
            std::process::exit(2);
        });
        run_child(&dir, a.seed, a.ops_n, a.fsync, a.kill_at, a.kill_mode, a.fail_at);
    }
    let exe = std::env::current_exe().expect("own path");

    if let Some(seed) = a.crash_seed {
        // Deterministic single-case replay: same seed, same plan, same
        // kill point — with per-key verbosity.
        let spec = CaseSpec {
            label: format!("replay seed={seed:#x}"),
            seed,
            ops_n: a.ops_n,
            fsync: a.fsync,
            kill_mode: a.kill_mode,
        };
        std::process::exit(if run_kill_case(&exe, &spec, true) { 0 } else { 1 });
    }

    // The sweep: every (fsync policy × kill mode) combination, each
    // kill point seed-derived, plus one chaos-fail case per policy. The
    // case seed's residue mod 6 is pinned to `(i + i/6) % 6`, which walks
    // the store paths against the fsync (`i % 3`) and kill-mode
    // (`(i/3) % 3`) rotations: 36 cases give each path six kill points
    // and each (path, fsync) pair two.
    let mut passed = 0usize;
    let mut failed = 0usize;
    let paths = STORE_PATHS.len() as u64;
    for i in 0..a.sweep {
        let seed = mix_seed(a.seed, i as u64);
        let spec = CaseSpec {
            label: format!("case={i:02}"),
            seed: seed - seed % paths + (i + i / 6) as u64 % paths,
            ops_n: a.ops_n,
            fsync: POLICIES[i % 3],
            kill_mode: ((i / 3) % 3) as u64,
        };
        if run_kill_case(&exe, &spec, false) {
            passed += 1;
        } else {
            failed += 1;
        }
    }
    let kill_cases = a.sweep;
    for (j, fsync) in POLICIES.iter().enumerate() {
        let ok = run_fail_case(
            &exe,
            &format!("fail={j}"),
            mix_seed(a.seed ^ 0xFA11_FA11, j as u64),
            a.ops_n,
            *fsync,
        );
        if ok {
            passed += 1;
        } else {
            failed += 1;
        }
    }
    println!(
        "mccrash: {passed}/{} cases passed ({kill_cases} kill + {} chaos-fail)",
        passed + failed,
        POLICIES.len()
    );
    std::process::exit(if failed == 0 { 0 } else { 1 });
}
