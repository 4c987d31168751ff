//! A minimal benchmark harness shaped like `criterion`'s API surface, so
//! the bench binaries in `crates/bench` kept their structure when the
//! external dependency was removed: `Criterion`, `benchmark_group`,
//! `bench_function`, `Bencher::iter`/`iter_custom`, and the
//! [`criterion_group!`](crate::criterion_group)/[`criterion_main!`](crate::criterion_main) macros.
//!
//! Methodology, per benchmark:
//!
//! 1. **Warmup** — run the payload until ~[`Criterion::warmup_ms`] elapses
//!    (fills caches, spins up cache worker threads).
//! 2. **Calibration** — pick an iteration count so one sample lasts at
//!    least ~1 ms (or one iteration, whichever is longer).
//! 3. **Sampling** — take `sample_size` fixed-iteration samples and report
//!    per-iteration **median**, **p95**, mean, min, and max.
//!
//! Each group writes `BENCH_<group>.json` under
//! `target/testkit-bench/` (override with `TESTKIT_BENCH_DIR`), one
//! object per benchmark, so runs diff cleanly in CI:
//!
//! ```json
//! {
//!   "group": "fastpath_smalltx",
//!   "benchmarks": [
//!     {"name": "gcc-eager", "samples": 10, "iters_per_sample": 3,
//!      "median_ns": 812345.0, "p95_ns": 901234.0, "mean_ns": 823456.1,
//!      "min_ns": 799999.0, "max_ns": 912345.0}
//!   ]
//! }
//! ```
//!
//! Environment knobs: `TESTKIT_BENCH_SAMPLES` (override every group's
//! sample count), `TESTKIT_BENCH_WARMUP_MS`, `TESTKIT_BENCH_DIR`.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Harness entry point; shaped like `criterion::Criterion`.
#[derive(Debug)]
pub struct Criterion {
    /// Warmup budget per benchmark, in milliseconds.
    pub warmup_ms: u64,
    default_sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        let warmup_ms = std::env::var("TESTKIT_BENCH_WARMUP_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(50);
        Criterion {
            warmup_ms,
            default_sample_size: 20,
        }
    }
}

impl Criterion {
    /// Opens a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl ToString) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: None,
            results: Vec::new(),
        }
    }
}

/// Per-iteration timing statistics for one benchmark.
#[derive(Clone, Debug)]
pub struct BenchStats {
    /// Benchmark name within its group.
    pub name: String,
    /// Number of timed samples.
    pub samples: usize,
    /// Iterations per sample (after calibration).
    pub iters_per_sample: u64,
    /// Median per-iteration time in nanoseconds.
    pub median_ns: f64,
    /// 95th-percentile per-iteration time in nanoseconds.
    pub p95_ns: f64,
    /// Mean per-iteration time in nanoseconds.
    pub mean_ns: f64,
    /// Fastest sample's per-iteration time in nanoseconds.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time in nanoseconds.
    pub max_ns: f64,
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
    }
}

impl BenchStats {
    fn from_samples(name: String, iters: u64, per_iter_ns: &mut [f64]) -> Self {
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        BenchStats {
            name,
            samples: per_iter_ns.len(),
            iters_per_sample: iters,
            median_ns: percentile(per_iter_ns, 0.5),
            p95_ns: percentile(per_iter_ns, 0.95),
            mean_ns: per_iter_ns.iter().sum::<f64>() / per_iter_ns.len().max(1) as f64,
            min_ns: per_iter_ns.first().copied().unwrap_or(0.0),
            max_ns: per_iter_ns.last().copied().unwrap_or(0.0),
        }
    }
}

/// A named collection of benchmarks reported and serialized together.
#[derive(Debug)]
pub struct BenchmarkGroup<'c> {
    criterion: &'c mut Criterion,
    name: String,
    sample_size: Option<usize>,
    results: Vec<BenchStats>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = Some(n.max(2));
        self
    }

    fn sample_count(&self) -> usize {
        std::env::var("TESTKIT_BENCH_SAMPLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                self.sample_size
                    .unwrap_or(self.criterion.default_sample_size)
            })
            .max(2)
    }

    /// Warmup + calibration: returns the iteration count per sample.
    ///
    /// Calibrating off a single pass (this loop used to keep only the LAST
    /// warmup measurement) let one descheduled pass pick a wildly wrong
    /// iteration count, which is exactly how `norec/w4`-style small-tx
    /// benches went noisy run-to-run. Keep the MINIMUM per-iteration time
    /// across all warmup passes — the best observation is the least
    /// contaminated estimate of the payload's true cost — and always take
    /// a few passes even once the time budget is spent (long payloads bail
    /// out via the 4× budget cap instead).
    fn calibrate(&self, f: &mut impl FnMut(&mut Bencher)) -> u64 {
        const MIN_WARMUP_PASSES: u32 = 3;
        let warmup_budget = Duration::from_millis(self.criterion.warmup_ms);
        let mut iters = 1u64;
        let mut one = Duration::MAX;
        let mut passes = 0u32;
        let warmup_start = Instant::now();
        loop {
            let mut b = Bencher {
                iters,
                elapsed: Duration::ZERO,
            };
            f(&mut b);
            one = one.min(b.elapsed.max(Duration::from_nanos(1)) / iters as u32);
            passes += 1;
            let spent = warmup_start.elapsed();
            if spent >= warmup_budget
                && (passes >= MIN_WARMUP_PASSES || spent >= warmup_budget * 4)
            {
                break;
            }
        }
        // One sample should last >= ~1ms so Instant resolution is noise.
        let target = Duration::from_millis(1);
        if one < target {
            iters = (target.as_nanos() / one.as_nanos().max(1)).clamp(1, 1 << 20) as u64;
        }
        iters
    }

    fn one_sample(f: &mut impl FnMut(&mut Bencher), iters: u64) -> f64 {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        b.elapsed.as_nanos() as f64 / iters as f64
    }

    fn record(&mut self, id: String, iters: u64, per_iter_ns: &mut [f64]) {
        let stats = BenchStats::from_samples(id, iters, per_iter_ns);
        println!(
            "{:<40} median {:>12} p95 {:>12}  ({} samples × {} iters)",
            format!("{}/{}", self.name, stats.name),
            format_ns(stats.median_ns),
            format_ns(stats.p95_ns),
            stats.samples,
            stats.iters_per_sample,
        );
        self.results.push(stats);
    }

    /// Runs one benchmark. `f` receives a [`Bencher`] and must call
    /// [`Bencher::iter`] or [`Bencher::iter_custom`].
    pub fn bench_function(&mut self, id: impl ToString, mut f: impl FnMut(&mut Bencher)) {
        let id = id.to_string();
        let samples = self.sample_count();
        let iters = self.calibrate(&mut f);
        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            per_iter_ns.push(Self::one_sample(&mut f, iters));
        }
        self.record(id, iters, &mut per_iter_ns);
    }

    /// Runs two benchmarks with their timed samples **interleaved** in
    /// time: a1 b1 a2 b2 … instead of a1..aN b1..bN.
    ///
    /// Use this when the two benchmarks will be compared against each
    /// other (a before/after or slow-path/fast-path pair). Host noise on
    /// shared machines drifts in epochs that last seconds — long enough
    /// that two back-to-back benchmark runs can land in different noise
    /// regimes, skewing their ratio by 50% or more run-to-run. Alternating
    /// samples makes both arms see the same epochs, so their medians stay
    /// comparable even when the absolute numbers wander.
    pub fn bench_pair(
        &mut self,
        id_a: impl ToString,
        mut f_a: impl FnMut(&mut Bencher),
        id_b: impl ToString,
        mut f_b: impl FnMut(&mut Bencher),
    ) {
        let samples = self.sample_count();
        let iters_a = self.calibrate(&mut f_a);
        let iters_b = self.calibrate(&mut f_b);
        let mut ns_a: Vec<f64> = Vec::with_capacity(samples);
        let mut ns_b: Vec<f64> = Vec::with_capacity(samples);
        for _ in 0..samples {
            ns_a.push(Self::one_sample(&mut f_a, iters_a));
            ns_b.push(Self::one_sample(&mut f_b, iters_b));
        }
        self.record(id_a.to_string(), iters_a, &mut ns_a);
        self.record(id_b.to_string(), iters_b, &mut ns_b);
    }

    /// Finishes the group: writes `BENCH_<group>.json` and returns the
    /// collected stats so callers can assert intra-run invariants (e.g.
    /// a fast-path/slow-path ratio floor) that stay meaningful even when
    /// host noise moves every absolute number together.
    pub fn finish(&mut self) -> Vec<BenchStats> {
        let dir = std::env::var("TESTKIT_BENCH_DIR")
            .unwrap_or_else(|_| "target/testkit-bench".to_owned());
        let path = std::path::Path::new(&dir).join(format!("BENCH_{}.json", self.name));
        if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| {
            std::fs::write(&path, self.to_json())
        }) {
            eprintln!("[testkit] could not write {}: {e}", path.display());
        } else {
            println!("[testkit] wrote {}", path.display());
        }
        std::mem::take(&mut self.results)
    }

    /// The group's results as a JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("{{\n  \"group\": {},\n  \"benchmarks\": [\n", json_str(&self.name)));
        for (i, b) in self.results.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\": {}, \"samples\": {}, \"iters_per_sample\": {}, \
                 \"median_ns\": {:.1}, \"p95_ns\": {:.1}, \"mean_ns\": {:.1}, \
                 \"min_ns\": {:.1}, \"max_ns\": {:.1}}}{}\n",
                json_str(&b.name),
                b.samples,
                b.iters_per_sample,
                b.median_ns,
                b.p95_ns,
                b.mean_ns,
                b.min_ns,
                b.max_ns,
                if i + 1 == self.results.len() { "" } else { "," },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn format_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3}µs", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Times the benchmark payload; handed to the `bench_function` closure.
#[derive(Debug)]
pub struct Bencher {
    iters: u64,
    elapsed: Duration,
}

impl Bencher {
    /// Times `iters` back-to-back calls of `f`, black-boxing the result so
    /// the optimizer cannot delete the payload.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(f());
        }
        self.elapsed = start.elapsed();
    }

    /// Lets the payload time itself: `f` receives the iteration count and
    /// returns the total elapsed time (criterion's `iter_custom`).
    pub fn iter_custom(&mut self, mut f: impl FnMut(u64) -> Duration) {
        self.elapsed = f(self.iters);
    }
}

/// Bundles bench functions under one name, like `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group(c: &mut $crate::bench::Criterion) {
            $($target(c);)+
        }
    };
}

/// Emits `main` for a bench binary (`harness = false`), like
/// `criterion_main!`. Ignores harness CLI arguments such as `--bench`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::bench::Criterion::default();
            $($group(&mut c);)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_measures_and_blackboxes() {
        let mut c = Criterion {
            warmup_ms: 1,
            default_sample_size: 3,
        };
        let mut g = c.benchmark_group("unit");
        g.sample_size(3);
        g.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        assert_eq!(g.results.len(), 1);
        let s = &g.results[0];
        assert!(s.median_ns > 0.0);
        assert!(s.p95_ns >= s.median_ns);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn iter_custom_uses_reported_time() {
        let mut c = Criterion {
            warmup_ms: 0,
            default_sample_size: 2,
        };
        let mut g = c.benchmark_group("unit");
        g.sample_size(2);
        g.bench_function("fixed", |b| {
            b.iter_custom(|iters| Duration::from_micros(10) * iters as u32)
        });
        let s = &g.results[0];
        // 10µs per iteration, exactly.
        assert!((s.median_ns - 10_000.0).abs() < 1.0, "{s:?}");
    }

    #[test]
    fn calibration_ignores_outlier_warmup_pass() {
        let mut c = Criterion {
            warmup_ms: 1,
            default_sample_size: 2,
        };
        let mut g = c.benchmark_group("unit");
        g.sample_size(2);
        let mut calls = 0u32;
        // The first warmup pass claims to be absurdly slow (a descheduled
        // pass); calibration must use the minimum across passes, not the
        // last/only observation, or iters_per_sample collapses to 1.
        g.bench_function("outlier", |b| {
            calls += 1;
            let slow = calls == 1;
            b.iter_custom(move |iters| {
                if slow {
                    Duration::from_millis(50) * iters as u32
                } else {
                    Duration::from_micros(10) * iters as u32
                }
            });
        });
        let s = &g.results[0];
        assert!(s.iters_per_sample >= 50, "min-of-warmup calibration: {s:?}");
        assert!((s.median_ns - 10_000.0).abs() < 1.0, "{s:?}");
    }

    #[test]
    fn json_shape_is_stable() {
        let mut c = Criterion {
            warmup_ms: 0,
            default_sample_size: 2,
        };
        let mut g = c.benchmark_group("fig\"x");
        g.sample_size(2);
        g.bench_function("a/b", |b| b.iter_custom(|i| Duration::from_nanos(5) * i as u32));
        let json = g.to_json();
        assert!(json.contains("\"group\": \"fig\\\"x\""), "{json}");
        assert!(json.contains("\"median_ns\""), "{json}");
        assert!(json.contains("\"p95_ns\""), "{json}");
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&v, 0.5), 2.5);
    }
}
