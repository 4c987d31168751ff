//! `sysbench`: the repository's system benchmark.
//!
//! Five seeded, oracle-checked workloads against the `mcache`/`tm` public
//! APIs and the `mcached` server. `benchmark/run.sh` builds both and
//! starts this program; `benchmark/README.md` explains every metric.
//!
//! ```text
//! sysbench --mcached PATH --out-dir DIR
//!          [--workload NAME|all] [--seed N] [--seconds S]
//!          [--trace 0|1 | --traced] [--repeat K] [--quick]
//! sysbench --list
//! ```
//!
//! For each workload it prints one line per metric (`workload metric
//! value unit spread`) and, last, one JSON object per workload:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. It exits
//! non-zero on any failed operation.

mod cpu;
mod engine;
mod gen;
mod run;
mod spec;
mod trace;
mod wire;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use engine::Context;
use run::Outcome;
use spec::{Metric, Workload, END_TO_END, PER_LAYER, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
    mcached: PathBuf,
    out_dir: PathBuf,
    commit: String,
    rustc: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        repeat: 1,
        quick: false,
        mcached: PathBuf::new(),
        out_dir: PathBuf::new(),
        commit: "unknown".into(),
        rustc: "unknown".into(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: String| format!("{flag}: cannot use {v:?}");
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--seconds" => args.seconds = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(bad(other.into())),
                }
            }
            "--traced" => args.trace = true,
            "--repeat" => args.repeat = value().and_then(|v| v.parse().map_err(|_| bad(v)))?,
            "--quick" => args.quick = true,
            "--mcached" => args.mcached = value()?.into(),
            "--out-dir" => args.out_dir = value()?.into(),
            "--commit" => args.commit = value()?,
            "--rustc" => args.rustc = value()?,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.mcached.as_os_str().is_empty() || args.out_dir.as_os_str().is_empty() {
        return Err("--mcached and --out-dir are required (benchmark/run.sh passes them)".into());
    }
    if !(args.seconds >= 1.0 && args.seconds <= 60.0) || args.repeat == 0 {
        return Err("--seconds takes 1 to 60, --repeat at least 1".into());
    }
    Ok(args)
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

/// File-system type of the mount that holds `path`, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut words = line.split(' ');
            let (_, mount, fs) = (words.next()?, words.next()?, words.next()?);
            path.starts_with(mount)
                .then_some((mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Where and on what the numbers were taken.
struct Environment {
    fields: Vec<(&'static str, String)>,
}

impl Environment {
    fn capture(args: &Args) -> Environment {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Environment {
            fields: vec![
                ("nproc", nproc.to_string()),
                ("cpu", cpu),
                ("kernel", read_trimmed("/proc/sys/kernel/osrelease")),
                ("rustc", args.rustc.clone()),
                ("commit", args.commit.clone()),
                ("seed", args.seed.to_string()),
                ("log_fs", fs_type(&args.out_dir)),
                ("loadavg_start", read_trimmed("/proc/loadavg")),
            ],
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric_table(trace: bool) -> &'static [Metric] {
    if trace {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, every value as measured.
fn result_line(o: &Outcome, trace: bool) -> String {
    // The gated run also measures `lat_p99_us`, which is reported but
    // not gated: only the metrics of this mode's table go on the line.
    let metrics: Vec<String> = o
        .values
        .iter()
        .filter(|v| metric_table(trace).iter().any(|m| m.name == v.name))
        .map(|v| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_string(v.name),
                v.value,
                json_string(unit_of(v.name))
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.correct(),
        o.tally.attempted,
        o.tally.failures() + o.server_errors,
        metrics.join(",")
    )
}

fn print_outcome(o: &Outcome) {
    for v in &o.values {
        let spread = v
            .spread
            .map_or("-".into(), |s| format!("{:.1}%", 100.0 * s));
        println!(
            "{} {} {:.4} {} spread={spread}",
            o.workload,
            v.name,
            v.value,
            unit_of(v.name)
        );
    }
    println!(
        "{} fail_ratio {}/{} failed/attempted server_errors={} by_cause={}",
        o.workload,
        o.tally.failures(),
        o.tally.attempted,
        o.server_errors,
        gen::FAIL_KINDS
            .iter()
            .zip(o.tally.failed)
            .map(|(k, n)| format!("{k}:{n}"))
            .collect::<Vec<_>>()
            .join(",")
    );
    for note in &o.notes {
        println!("# {note}");
    }
}

/// One `workload metric value …` line of a single run, as the parent of
/// a suite reads it back.
struct Reading {
    workload: String,
    metric: String,
    value: f64,
}

/// `--repeat`: every later suite against the first, per workload and
/// gated metric, as a share of that metric's bound. True if all agree.
fn compare_repeats(suites: &[Vec<Reading>]) -> bool {
    let mut agree = true;
    println!("# repeatability: |a-b| / mean(a,b) against each metric's bound");
    for (k, later) in suites.iter().enumerate().skip(1) {
        for (a, b) in suites[0].iter().zip(later) {
            let Some(bound) = END_TO_END
                .iter()
                .find(|m| m.name == a.metric)
                .and_then(|m| m.bound)
            else {
                continue;
            };
            let mean = (a.value + b.value) / 2.0;
            let diff = if mean == 0.0 {
                0.0
            } else {
                (a.value - b.value).abs() / mean
            };
            let verdict = if diff <= bound { "ok" } else { "DISAGREES" };
            agree &= diff <= bound;
            println!(
                "repeat 1v{} {} {} {:.4} vs {:.4} diff={:.1}% bound={:.0}% {verdict}",
                k + 1,
                a.workload,
                a.metric,
                a.value,
                b.value,
                100.0 * diff,
                100.0 * bound
            );
        }
    }
    agree
}

/// Everything about one run, as one JSON object.
fn outcome_json(env: &Environment, trace: bool, o: &Outcome) -> String {
    let env_fields: Vec<String> = env
        .fields
        .iter()
        .map(|(k, v)| format!("{}:{}", json_string(k), json_string(v)))
        .collect();
    let values: Vec<String> = o
        .values
        .iter()
        .map(|v| {
            format!(
                "{}:{{\"value\":{},\"unit\":{},\"spread\":{}}}",
                json_string(v.name),
                v.value,
                json_string(unit_of(v.name)),
                v.spread.map_or("null".into(), |s| s.to_string())
            )
        })
        .collect();
    format!(
        "{{\"workload\":{},\"traced\":{trace},\"correct\":{},\"attempted\":{},\"failed\":{},\
         \"server_errors\":{},\n \"environment\":{{{}}},\n \"metrics\":{{{}}}}}",
        json_string(o.workload),
        o.correct(),
        o.tally.attempted,
        o.tally.failures(),
        o.server_errors,
        env_fields.join(","),
        values.join(",")
    )
}

fn result_path(out_dir: &Path, workload: &str) -> PathBuf {
    out_dir.join(format!("result_{workload}.json"))
}

/// One workload, once, in this process.
fn run_single(args: &Args, w: &Workload) -> ExitCode {
    let mut env = Environment::capture(args);
    for (k, v) in &env.fields {
        println!("# {k}: {v}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load: f64 = read_trimmed("/proc/loadavg")
        .split(' ')
        .next()
        .and_then(|l| l.parse().ok())
        .unwrap_or(0.0);
    if load > nproc as f64 / 2.0 {
        eprintln!(
            "sysbench: warning: load average {load} exceeds nproc/2 = {}; \
             a busy neighbour shifts every wire metric together",
            nproc as f64 / 2.0
        );
    }
    let ctx = Context {
        seed: args.seed,
        quick: args.quick,
        mcached: args.mcached.clone(),
        out_dir: args.out_dir.clone(),
    };
    let outcome = if args.trace {
        run::traced(w, &ctx, args.seconds)
    } else {
        run::gated(w, &ctx, args.seconds)
    };
    let o = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("sysbench: {}: {e}", w.name);
            return ExitCode::from(2);
        }
    };
    print_outcome(&o);
    env.fields
        .push(("loadavg_end", read_trimmed("/proc/loadavg")));
    println!(
        "# loadavg_end: {}",
        env.fields.last().expect("just pushed").1
    );
    let path = result_path(&args.out_dir, w.name);
    if let Err(e) = std::fs::write(&path, outcome_json(&env, args.trace, &o) + "\n") {
        eprintln!("sysbench: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("# results written to {}", path.display());
    println!("{}", result_line(&o, args.trace));
    if o.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Several workloads or several repetitions: each run is a process of
/// its own (this program again, with one `--workload` and no
/// `--repeat`), so that what an earlier run left behind — freed heap the
/// allocator keeps, a CPU pin — cannot show in a later run's `rss_mb` or
/// timings. The children's output is passed through, their result lines
/// are printed again at the end, and their result files are joined into
/// `result.json`.
fn run_suites(args: &Args, selected: &[&Workload]) -> std::io::Result<ExitCode> {
    let exe = std::env::current_exe()?;
    let passed: Vec<String> = {
        // Everything the caller passed except the two flags this level owns.
        let mut out = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--workload" | "--repeat" => drop(it.next()),
                _ => out.push(flag),
            }
        }
        out
    };
    let mut suites: Vec<Vec<Reading>> = Vec::new();
    let mut result_lines = Vec::new();
    let mut result_files: Vec<Vec<String>> = Vec::new();
    let mut all_correct = true;
    for _ in 0..args.repeat {
        let (mut readings, mut files) = (Vec::new(), Vec::new());
        result_lines.clear();
        for w in selected {
            let out = std::process::Command::new(&exe)
                .args(&passed)
                .args(["--workload", w.name])
                .stderr(std::process::Stdio::inherit())
                .output()?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            for line in stdout.lines() {
                if line.starts_with('{') {
                    result_lines.push(line.to_string());
                    continue;
                }
                println!("{line}");
                let mut words = line.split(' ');
                if let (Some(workload), Some(metric), Some(Ok(value))) = (
                    words.next(),
                    words.next(),
                    words.next().map(str::parse::<f64>),
                ) {
                    readings.push(Reading {
                        workload: workload.into(),
                        metric: metric.into(),
                        value,
                    });
                }
            }
            match out.status.code() {
                Some(0) => {}
                Some(1) => all_correct = false,
                _ => return Ok(ExitCode::from(2)),
            }
            files.push(std::fs::read_to_string(result_path(&args.out_dir, w.name))?);
        }
        suites.push(readings);
        result_files.push(files);
    }
    let agree = args.trace || suites.len() < 2 || compare_repeats(&suites);
    let joined: Vec<String> = result_files
        .iter()
        .map(|files| format!("[\n{}]", files.join(",")))
        .collect();
    let path = args.out_dir.join("result.json");
    std::fs::write(&path, format!("{{\"suites\":[{}]}}\n", joined.join(",")))?;
    println!("# all results written to {}", path.display());
    for line in &result_lines {
        println!("{line}");
    }
    Ok(if all_correct && agree {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--list`: the names this program emits, in the shape of the
/// `workloads`, `end_to_end` and `per_layer` sections of `BENCHMARK.json`.
fn spec_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "{{\"name\":{},\"why\":{}}}",
                json_string(w.name),
                json_string(w.why)
            )
        })
        .collect();
    let metrics = |table: &[Metric]| -> String {
        let rows: Vec<String> = table
            .iter()
            .map(|m| {
                let bound = m.bound.map_or(String::new(), |b| format!(",\"bound\":{b}"));
                format!(
                    "{{\"name\":{},\"unit\":{},\"better\":{}{bound}}}",
                    json_string(m.name),
                    json_string(m.unit),
                    json_string(m.better)
                )
            })
            .collect();
        rows.join(",\n  ")
    };
    format!(
        "{{\"workloads\":[\n  {}],\n\"end_to_end\":[\n  {}],\n\"per_layer\":[\n  {}]}}",
        workloads.join(",\n  "),
        metrics(&END_TO_END),
        metrics(&PER_LAYER)
    )
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("--list") {
        println!("{}", spec_json());
        return ExitCode::SUCCESS;
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("sysbench: {why}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = WORKLOADS
        .iter()
        .filter(|w| args.workload == "all" || args.workload == w.name)
        .collect();
    if selected.is_empty() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "sysbench: no workload {:?}; there are {names:?}",
            args.workload
        );
        return ExitCode::from(2);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("sysbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    if selected.len() == 1 && args.repeat == 1 {
        return run_single(&args, selected[0]);
    }
    run_suites(&args, &selected).unwrap_or_else(|e| {
        eprintln!("sysbench: {e}");
        ExitCode::from(2)
    })
}
