//! Benchmark harness for the reproduction: workload runner, per-figure and
//! per-table experiment definitions, and paper-format reporting.
//!
//! The paper's setup: memslap v1.0 with `--concurrency=x
//! --execute-number=625000 --binary`, x ∈ {1, 2, 4, 8, 12}, server and
//! client co-located, 5 trials, mean ± one standard deviation. Perfect
//! scaling shows as *flat* run time, since every thread performs the same
//! number of operations.
//!
//! Scale knobs (environment variables, so `cargo bench` stays tractable on
//! small hosts while `reproduce` with `MC_OPS=625000 MC_TRIALS=5` approaches the
//! paper's size):
//!
//! | var | meaning | default |
//! |---|---|---|
//! | `MC_OPS` | operations per thread | 5000 |
//! | `MC_TRIALS` | trials per point | 3 |
//! | `MC_THREADS` | comma-separated worker counts | `1,2,4,8,12` |
//! | `MC_KEYS` | keyspace size | 2000 |
//! | `MC_VALUE` | value bytes | 256 |

#![warn(missing_docs)]

pub mod cli;
pub mod wire;

use std::sync::Arc;
use std::time::Instant;

use mcache::{Branch, McCache, McConfig, SlabConfig, Stage};
use tm::{Algorithm, ContentionManager, StatsSnapshot, ThreadTally};
use workload::{Op, Workload};

/// Experiment scale (see module docs for the environment overrides).
#[derive(Clone, Debug)]
pub struct Scale {
    /// Operations per worker thread (paper: 625 000).
    pub ops: usize,
    /// Trials per configuration (paper: 5).
    pub trials: usize,
    /// Worker-thread counts (paper: 1, 2, 4, 8, 12).
    pub threads: Vec<usize>,
    /// Keyspace size.
    pub keys: usize,
    /// Value size in bytes (memslap default ~1 KiB; scaled down).
    pub value: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Scale {
            ops: 5_000,
            trials: 3,
            threads: vec![1, 2, 4, 8, 12],
            keys: 2_000,
            value: 256,
        }
    }
}

impl Scale {
    /// Reads the scale from the environment (see module docs).
    pub fn from_env() -> Self {
        let mut s = Scale::default();
        let num = |k: &str| std::env::var(k).ok().and_then(|v| v.parse::<usize>().ok());
        if let Some(v) = num("MC_OPS") {
            s.ops = v.max(1);
        }
        if let Some(v) = num("MC_TRIALS") {
            s.trials = v.max(1);
        }
        if let Some(v) = num("MC_KEYS") {
            s.keys = v.max(1);
        }
        if let Some(v) = num("MC_VALUE") {
            s.value = v.max(1);
        }
        if let Ok(t) = std::env::var("MC_THREADS") {
            let parsed: Vec<usize> = t
                .split(',')
                .filter_map(|x| x.trim().parse().ok())
                .filter(|&x| x > 0)
                .collect();
            if !parsed.is_empty() {
                s.threads = parsed;
            }
        }
        s
    }

    /// A tiny scale for unit tests and Criterion samples.
    pub fn tiny() -> Self {
        Scale {
            ops: 300,
            trials: 1,
            threads: vec![2],
            keys: 200,
            value: 64,
        }
    }

    /// The memslap workload for a given thread count.
    pub fn workload(&self, threads: usize) -> Workload {
        Workload::builder()
            .concurrency(threads)
            .execute_number(self.ops)
            .key_count(self.keys)
            .value_size(self.value)
            .binary(true)
            .build()
    }
}

/// One experiment configuration: a branch plus optional runtime overrides
/// (Figure 11 varies algorithm and contention manager on a fixed branch).
#[derive(Clone, Debug)]
pub struct BenchConfig {
    /// Display label (the paper's legend entry).
    pub label: String,
    /// Cache branch.
    pub branch: Branch,
    /// STM algorithm.
    pub algorithm: Algorithm,
    /// Contention manager override.
    pub contention: Option<ContentionManager>,
    /// §5 future-work optimization: elide refcount RMWs on IT branches.
    pub refcount_elision: bool,
}

impl BenchConfig {
    /// A plain branch configuration labeled with the branch's paper name.
    pub fn branch(branch: Branch) -> Self {
        BenchConfig {
            label: branch.to_string(),
            branch,
            algorithm: Algorithm::Eager,
            contention: None,
            refcount_elision: false,
        }
    }

    /// A Figure-11 configuration: IP-NoLock with an explicit algorithm and
    /// contention manager.
    pub fn algo(label: &str, algorithm: Algorithm, contention: ContentionManager) -> Self {
        BenchConfig {
            label: label.to_owned(),
            branch: Branch::IpNoLock,
            algorithm,
            contention: Some(contention),
            refcount_elision: false,
        }
    }

    /// The cache configuration a run of this branch uses at `scale` with
    /// `threads` workers.
    pub fn mc_config(&self, scale: &Scale, threads: usize) -> McConfig {
        McConfig {
            branch: self.branch,
            algorithm: self.algorithm,
            contention: self.contention,
            workers: threads,
            slab: SlabConfig {
                // Size the arena so the working set fits without thrashing
                // but eviction still occurs under pressure sweeps.
                mem_limit: (scale.keys * (scale.value + 512)).next_power_of_two().max(4 << 20),
                page_size: 256 << 10,
                chunk_min: 96,
                growth_factor: 1.25,
            },
            // Saturating table: the load factor stays above the expansion
            // threshold, so every set exercises the maintenance-signal
            // site, as the per-set counts in the paper's tables suggest.
            hash_power: 8,
            hash_power_max: 9,
            item_lock_power: 8,
            verbose: false,
            lru_bump_every: 8,
            maintenance: true,
            refcount_elision: self.refcount_elision,
            // Figures and tables run with magazines off so the per-set
            // serialization counts stay bit-identical to the paper's
            // 3-transaction store; mcslap exposes the knob for the
            // setpath experiments.
            magazine: 0,
            // Figures and tables measure the in-memory paths; durability
            // has its own bench (stm_durpath) and harness (mccrash).
            dur_path: None,
            dur_fsync: mcache::DurFsync::Off,
            dur_segment_bytes: 4 << 20,
            dur_compact_ratio: 0.5,
            ..McConfig::default()
        }
    }
}

/// Measurements from one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Wall-clock seconds for all threads to finish their streams.
    pub secs: f64,
    /// TM runtime counters accumulated during the run.
    pub tm: StatsSnapshot,
    /// Per-worker commit/abort tallies (Figure 11's variance discussion).
    pub tallies: Vec<ThreadTally>,
    /// get hits observed (sanity: the workload must actually hit).
    pub get_hits: u64,
}

/// Runs `config` once at `threads` workers and returns the measurements.
pub fn run_once(config: &BenchConfig, scale: &Scale, threads: usize) -> RunResult {
    run_once_with(config, scale, threads, Arc::new(scale.workload(threads)))
}

/// [`run_once`] with a caller-provided workload (skewed ablations).
pub fn run_once_with(
    config: &BenchConfig,
    scale: &Scale,
    threads: usize,
    wl: Arc<Workload>,
) -> RunResult {
    let handle = McCache::start(config.mc_config(scale, threads));
    let cache = handle.cache().clone();

    // Preload half the keyspace so gets hit (memslap does an initial
    // window of sets for the same reason).
    for i in (0..wl.key_count()).step_by(2) {
        cache.set(0, wl.key(i), &wl.value(i), 0, 0);
    }

    let tm_before = cache.tm_stats();
    let barrier = Arc::new(std::sync::Barrier::new(threads + 1));
    let mut joins = Vec::new();
    for w in 0..threads {
        let cache = cache.clone();
        let wl = wl.clone();
        let barrier = barrier.clone();
        joins.push(std::thread::spawn(move || {
            let _ = tm::take_thread_tally();
            barrier.wait();
            for op in wl.stream(w) {
                match op {
                    Op::Get(k) => {
                        cache.get(w, wl.key(k));
                    }
                    Op::Set(k) => {
                        cache.set(w, wl.key(k), &wl.value(k), 0, 0);
                    }
                    Op::Delete(k) => {
                        cache.delete(w, wl.key(k));
                    }
                    Op::Incr(k, d) => {
                        cache.arith(w, wl.key(k), d, true);
                    }
                }
            }
            tm::take_thread_tally()
        }));
    }
    barrier.wait();
    let start = Instant::now();
    let tallies: Vec<ThreadTally> = joins
        .into_iter()
        .map(|j| j.join().expect("worker panicked"))
        .collect();
    let secs = start.elapsed().as_secs_f64();
    let tm = cache.tm_stats().since(&tm_before);
    let get_hits = cache.stats().threads.get_hits;
    RunResult {
        secs,
        tm,
        tallies,
        get_hits,
    }
}

/// Mean and sample standard deviation over `trials` runs.
pub fn run_trials(config: &BenchConfig, scale: &Scale, threads: usize) -> (f64, f64, RunResult) {
    let mut times = Vec::with_capacity(scale.trials);
    let mut last = None;
    for _ in 0..scale.trials {
        let r = run_once(config, scale, threads);
        times.push(r.secs);
        last = Some(r);
    }
    let mean = times.iter().sum::<f64>() / times.len() as f64;
    let var = if times.len() > 1 {
        times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / (times.len() - 1) as f64
    } else {
        0.0
    };
    (mean, var.sqrt(), last.expect("at least one trial"))
}

/// Prints one figure: a time-vs-threads series per configuration, in the
/// paper's layout (columns = thread counts).
pub fn print_figure(title: &str, configs: &[BenchConfig], scale: &Scale) {
    println!("# {title}");
    println!(
        "# ops/thread={} trials={} keys={} value={}B (paper: 625000 ops, 5 trials)",
        scale.ops, scale.trials, scale.keys, scale.value
    );
    print!("{:<16}", "branch");
    for t in &scale.threads {
        print!(" {t:>7}T stdev ");
    }
    println!();
    for cfg in configs {
        print!("{:<16}", cfg.label);
        for &t in &scale.threads {
            let (mean, sd, _) = run_trials(cfg, scale, t);
            print!(" {mean:>7.3}s {sd:>5.3} ");
        }
        println!();
    }
    println!();
}

/// Prints one serialization table (the paper's Tables 1–4) at the paper's
/// 4-thread point.
pub fn print_table(title: &str, configs: &[BenchConfig], scale: &Scale) {
    println!("# {title} (4-thread execution)");
    println!(
        "{:<16} {:>12} {:>20} {:>20} {:>12}",
        "branch", "txns", "in-flight-switch", "start-serial", "abort-serial"
    );
    for cfg in configs {
        let r = run_once(cfg, scale, 4);
        let t = r.tm.transactions().max(1) as f64;
        println!(
            "{:<16} {:>12} {:>12} ({:>4.1}%) {:>12} ({:>4.1}%) {:>12}",
            cfg.label,
            r.tm.transactions(),
            r.tm.in_flight_switch,
            100.0 * r.tm.in_flight_switch as f64 / t,
            r.tm.start_serial,
            100.0 * r.tm.start_serial as f64 / t,
            r.tm.abort_serial,
        );
    }
    println!();
}

/// The experiment roster, one entry per paper artifact.
pub mod figures {
    use super::*;

    /// How an artifact is measured and laid out.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub enum Kind {
        /// Run time vs worker threads, mean ± stdev ([`print_figure`]).
        Figure,
        /// Serialization causes at 4 threads ([`print_table`]).
        Table,
    }

    /// One paper artifact `reproduce` can print.
    #[derive(Clone, Copy, Debug)]
    pub struct Artifact {
        /// The name `reproduce` takes on its command line.
        pub name: &'static str,
        /// The heading printed above it.
        pub title: &'static str,
        /// How it is measured and laid out.
        pub kind: Kind,
        /// Its configurations, in legend order.
        pub configs: fn() -> Vec<BenchConfig>,
    }

    /// Every artifact, in paper order.
    #[rustfmt::skip]
    pub const ARTIFACTS: [Artifact; 10] = [
        Artifact { name: "fig4", title: "Figure 4: Performance of baseline transactional memcached", kind: Kind::Figure, configs: fig4 },
        Artifact { name: "table1", title: "Table 1: Frequency and cause of serialized transactions", kind: Kind::Table, configs: table1 },
        Artifact { name: "fig6", title: "Figure 6: Performance of maximally transactionalized memcached", kind: Kind::Figure, configs: fig6 },
        Artifact { name: "table2", title: "Table 2: Frequency and cause of serialized transactions (Max)", kind: Kind::Table, configs: table2 },
        Artifact { name: "fig8", title: "Figure 8: Performance with safe library functions", kind: Kind::Figure, configs: fig8 },
        Artifact { name: "table3", title: "Table 3: Frequency and cause of serialized transactions (Lib)", kind: Kind::Table, configs: table3 },
        Artifact { name: "fig9", title: "Figure 9: Performance with onCommit handlers", kind: Kind::Figure, configs: fig9 },
        Artifact { name: "table4", title: "Table 4: Frequency and cause of serialized transactions (onCommit)", kind: Kind::Table, configs: table4 },
        Artifact { name: "fig10", title: "Figure 10: Performance without the readers/writer lock", kind: Kind::Figure, configs: fig10 },
        Artifact { name: "fig11", title: "Figure 11: Comparison to other TM algorithms and contention managers", kind: Kind::Figure, configs: fig11 },
    ];

    /// Figure 4 configurations: baseline transactionalization.
    pub fn fig4() -> Vec<BenchConfig> {
        vec![
            BenchConfig::branch(Branch::Baseline),
            BenchConfig::branch(Branch::Semaphore),
            BenchConfig::branch(Branch::Ip(Stage::Plain)),
            BenchConfig::branch(Branch::It(Stage::Plain)),
            BenchConfig::branch(Branch::Ip(Stage::Callable)),
            BenchConfig::branch(Branch::It(Stage::Callable)),
        ]
    }

    /// Table 1 configurations.
    pub fn table1() -> Vec<BenchConfig> {
        vec![
            BenchConfig::branch(Branch::Ip(Stage::Plain)),
            BenchConfig::branch(Branch::It(Stage::Plain)),
            BenchConfig::branch(Branch::Ip(Stage::Callable)),
            BenchConfig::branch(Branch::It(Stage::Callable)),
        ]
    }

    /// Figure 6: maximal transactionalization.
    pub fn fig6() -> Vec<BenchConfig> {
        vec![
            BenchConfig::branch(Branch::Baseline),
            BenchConfig::branch(Branch::Ip(Stage::Callable)),
            BenchConfig::branch(Branch::It(Stage::Callable)),
            BenchConfig::branch(Branch::Ip(Stage::Max)),
            BenchConfig::branch(Branch::It(Stage::Max)),
        ]
    }

    /// Table 2 configurations.
    pub fn table2() -> Vec<BenchConfig> {
        vec![
            BenchConfig::branch(Branch::Ip(Stage::Callable)),
            BenchConfig::branch(Branch::It(Stage::Callable)),
            BenchConfig::branch(Branch::Ip(Stage::Max)),
            BenchConfig::branch(Branch::It(Stage::Max)),
        ]
    }

    /// Figure 8: safe libraries.
    pub fn fig8() -> Vec<BenchConfig> {
        let mut v = fig6();
        v.push(BenchConfig::branch(Branch::Ip(Stage::Lib)));
        v.push(BenchConfig::branch(Branch::It(Stage::Lib)));
        v
    }

    /// Table 3 configurations.
    pub fn table3() -> Vec<BenchConfig> {
        let mut v = table2();
        v.push(BenchConfig::branch(Branch::Ip(Stage::Lib)));
        v.push(BenchConfig::branch(Branch::It(Stage::Lib)));
        v
    }

    /// Figure 9: onCommit handlers.
    pub fn fig9() -> Vec<BenchConfig> {
        vec![
            BenchConfig::branch(Branch::Baseline),
            BenchConfig::branch(Branch::Ip(Stage::Callable)),
            BenchConfig::branch(Branch::It(Stage::Callable)),
            BenchConfig::branch(Branch::Ip(Stage::Lib)),
            BenchConfig::branch(Branch::It(Stage::Lib)),
            BenchConfig::branch(Branch::Ip(Stage::OnCommit)),
            BenchConfig::branch(Branch::It(Stage::OnCommit)),
        ]
    }

    /// Table 4 configurations.
    pub fn table4() -> Vec<BenchConfig> {
        vec![
            BenchConfig::branch(Branch::Ip(Stage::Callable)),
            BenchConfig::branch(Branch::It(Stage::Callable)),
            BenchConfig::branch(Branch::Ip(Stage::Lib)),
            BenchConfig::branch(Branch::It(Stage::Lib)),
            BenchConfig::branch(Branch::Ip(Stage::OnCommit)),
            BenchConfig::branch(Branch::It(Stage::OnCommit)),
        ]
    }

    /// Figure 10: removing the serial readers/writer lock.
    pub fn fig10() -> Vec<BenchConfig> {
        vec![
            BenchConfig::branch(Branch::Baseline),
            BenchConfig::branch(Branch::Ip(Stage::OnCommit)),
            BenchConfig::branch(Branch::It(Stage::OnCommit)),
            BenchConfig::branch(Branch::IpNoLock),
            BenchConfig::branch(Branch::ItNoLock),
        ]
    }

    /// Figure 11: algorithms and contention managers on the NoLock
    /// runtime.
    pub fn fig11() -> Vec<BenchConfig> {
        vec![
            BenchConfig::branch(Branch::Baseline),
            BenchConfig::algo("GCC-NoCM", Algorithm::Eager, ContentionManager::None),
            BenchConfig::algo("NOrec", Algorithm::Norec, ContentionManager::None),
            BenchConfig::algo("Lazy", Algorithm::Lazy, ContentionManager::None),
            BenchConfig::algo(
                "GCC-Hourglass",
                Algorithm::Eager,
                ContentionManager::HOURGLASS_128,
            ),
            BenchConfig::algo(
                "GCC-Backoff",
                Algorithm::Eager,
                ContentionManager::Backoff { max_shift: 12 },
            ),
        ]
    }
}

/// `need` for [`ratio_gate`]: the floor must hold on every algorithm.
pub const EVERY_ALGORITHM: usize = usize::MAX;

/// The micro-benches' in-bench regression gate: exits the bench process
/// with status 1 unless `slow`'s median is at least `floor` times `fast`'s
/// on at least `need` of the algorithm prefixes (`{algo}/{name}`) present
/// in `stats`. Pairs that ran interleaved keep this ratio stable even when
/// absolute nanoseconds wander.
pub fn ratio_gate(
    stats: &[testkit::bench::BenchStats],
    slow: &str,
    fast: &str,
    floor: f64,
    need: usize,
) {
    let (mut passed, mut total) = (0usize, 0usize);
    for s in stats {
        let Some(algo) = s.name.strip_suffix(&format!("/{slow}")) else {
            continue;
        };
        let fast_name = format!("{algo}/{fast}");
        let Some(f) = stats.iter().find(|b| b.name == fast_name) else {
            continue;
        };
        total += 1;
        let ratio = s.median_ns / f.median_ns.max(1e-9);
        if ratio >= floor {
            passed += 1;
            println!("    [gate] {algo}: {slow}/{fast} = {ratio:.2}x (floor {floor:.2}x)");
        } else {
            eprintln!(
                "    [gate] {algo}: {slow} {:.1}ns / {fast} {:.1}ns = {ratio:.2}x < floor {floor:.2}x",
                s.median_ns, f.median_ns
            );
        }
    }
    if total > 0 && passed < need.min(total) {
        eprintln!(
            "RATIO REGRESSION: {slow}/{fast} >= {floor:.2}x held on only {passed}/{total} \
             algorithms (need {})",
            need.min(total)
        );
        std::process::exit(1);
    }
}

/// Prints Figure 11's companion abort-rate report (the paper's §4 text:
/// aborts per commit and cross-thread variance).
pub fn print_abort_rates(scale: &Scale, threads: usize) {
    println!("# Abort rates at {threads} threads (paper §4 text)");
    println!(
        "{:<16} {:>16} {:>18} {:>22}",
        "algorithm", "commits", "aborts/commit", "per-thread a/c stdev"
    );
    for cfg in figures::fig11().iter().skip(1) {
        let r = run_once(cfg, scale, threads);
        let per_thread: Vec<f64> = r
            .tallies
            .iter()
            .filter(|t| t.commits > 0)
            .map(|t| t.aborts as f64 / t.commits as f64)
            .collect();
        let mean = per_thread.iter().sum::<f64>() / per_thread.len().max(1) as f64;
        let var = per_thread
            .iter()
            .map(|x| (x - mean).powi(2))
            .sum::<f64>()
            / per_thread.len().max(1) as f64;
        println!(
            "{:<16} {:>16} {:>18.3} {:>22.4}",
            cfg.label,
            r.tm.commits,
            r.tm.aborts_per_commit(),
            var.sqrt()
        );
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_sane_results() {
        let scale = Scale::tiny();
        let cfg = BenchConfig::branch(Branch::Ip(Stage::OnCommit));
        let r = run_once(&cfg, &scale, 2);
        assert!(r.secs > 0.0);
        assert!(r.tm.commits > 0, "{:?}", r.tm);
        assert!(r.get_hits > 0, "workload must hit the preloaded keys");
        assert_eq!(r.tallies.len(), 2);
    }

    #[test]
    fn trials_compute_mean_and_stdev() {
        let mut scale = Scale::tiny();
        scale.trials = 2;
        let cfg = BenchConfig::branch(Branch::Baseline);
        let (mean, sd, _) = run_trials(&cfg, &scale, 1);
        assert!(mean > 0.0);
        assert!(sd >= 0.0);
    }

    #[test]
    fn fig11_configs_run_all_algorithms() {
        let scale = Scale::tiny();
        for cfg in figures::fig11() {
            let r = run_once(&cfg, &scale, 2);
            assert!(r.tm.commits > 0 || !cfg.branch.policy().transactional, "{}", cfg.label);
        }
    }

    #[test]
    fn roster_sizes_match_paper() {
        let sizes: Vec<(&str, usize)> =
            figures::ARTIFACTS.iter().map(|a| (a.name, (a.configs)().len())).collect();
        assert_eq!(
            sizes,
            [
                ("fig4", 6),
                ("table1", 4),
                ("fig6", 5),
                ("table2", 4),
                ("fig8", 7),
                ("table3", 6),
                ("fig9", 7),
                ("table4", 6),
                ("fig10", 5),
                ("fig11", 6),
            ]
        );
    }

    #[test]
    fn scale_env_parsing() {
        // No env set: defaults.
        let s = Scale::default();
        assert_eq!(s.threads, vec![1, 2, 4, 8, 12]);
        assert_eq!(s.trials, 3);
    }
}
