//! # workload — a memslap-style load generator
//!
//! The paper drove memcached with `memslap --concurrency=x
//! --execute-number=625000 --binary` (libmemcached 0.31), co-located with
//! the server so that network overhead could not hide transaction latency.
//! This crate reproduces the generator side in-process: each worker thread
//! receives a deterministic stream of `get`/`set` operations over a shared
//! keyspace, with memslap's defaults (90% get / 10% set, 64-byte keys,
//! 1 KiB values) and an optional hot-key skew used by the ablation benches.
//!
//! ```
//! use workload::{Workload, Op};
//!
//! let w = Workload::builder()
//!     .key_count(100)
//!     .execute_number(1000)
//!     .value_size(64)
//!     .build();
//! let mut sets = 0usize;
//! for op in w.stream(0) {
//!     if let Op::Set(k) = op {
//!         assert!(k < 100);
//!         sets += 1;
//!     }
//! }
//! assert!(sets > 0 && sets < 1000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use std::fmt;
use std::sync::Arc;

use testkit::rng::{Rng, SmallRng};

/// One client operation, naming a key by index into the shared keyspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Op {
    /// Retrieve the key's value.
    Get(usize),
    /// Store the key's (deterministic) value.
    Set(usize),
    /// Delete the key.
    Delete(usize),
    /// Increment a numeric value by the given delta.
    Incr(usize, u64),
}

impl Op {
    /// The key index this operation targets.
    pub fn key_index(&self) -> usize {
        match *self {
            Op::Get(k) | Op::Set(k) | Op::Delete(k) | Op::Incr(k, _) => k,
        }
    }
}

/// Relative operation weights. memslap's default division is 90% get /
/// 10% set; `delete` and `incr` default to zero but are exercised by the
/// integration tests and ablation benches.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OpMix {
    /// Weight of [`Op::Get`].
    pub get: u32,
    /// Weight of [`Op::Set`].
    pub set: u32,
    /// Weight of [`Op::Delete`].
    pub delete: u32,
    /// Weight of [`Op::Incr`].
    pub incr: u32,
}

impl Default for OpMix {
    fn default() -> Self {
        OpMix {
            get: 9,
            set: 1,
            delete: 0,
            incr: 0,
        }
    }
}

impl OpMix {
    fn total(&self) -> u32 {
        self.get + self.set + self.delete + self.incr
    }
}

/// Builds a [`Workload`].
#[derive(Clone, Debug)]
pub struct WorkloadBuilder {
    concurrency: usize,
    execute_number: usize,
    key_count: usize,
    key_size: usize,
    value_size: usize,
    /// Upper bound for uniform per-key value sizes; 0 = fixed
    /// `value_size` for every key.
    value_size_max: usize,
    mix: OpMix,
    hot_fraction: f64,
    hot_probability: f64,
    zipf_theta: f64,
    seed: u64,
    binary: bool,
}

impl Default for WorkloadBuilder {
    fn default() -> Self {
        WorkloadBuilder {
            concurrency: 4,
            execute_number: 10_000,
            key_count: 10_000,
            key_size: 64,
            value_size: 1024,
            value_size_max: 0,
            mix: OpMix::default(),
            hot_fraction: 0.0,
            hot_probability: 0.0,
            zipf_theta: 0.0,
            seed: 0x6d656d736c6170, // "memslap"
            binary: true,
        }
    }
}

impl WorkloadBuilder {
    /// Number of client threads (memslap `--concurrency`).
    pub fn concurrency(mut self, n: usize) -> Self {
        self.concurrency = n;
        self
    }

    /// Operations per thread (memslap `--execute-number`; the paper used
    /// 625 000).
    pub fn execute_number(mut self, n: usize) -> Self {
        self.execute_number = n;
        self
    }

    /// Size of the shared keyspace.
    pub fn key_count(mut self, n: usize) -> Self {
        self.key_count = n.max(1);
        self
    }

    /// Key length in bytes (keys are a prefix plus a zero-padded index,
    /// padded to this length).
    pub fn key_size(mut self, n: usize) -> Self {
        self.key_size = n.clamp(16, 250);
        self
    }

    /// Value length in bytes.
    pub fn value_size(mut self, n: usize) -> Self {
        self.value_size = n.max(1);
        self.value_size_max = 0;
        self
    }

    /// Value length *distribution*: per-key sizes drawn uniformly (and
    /// deterministically — the size is a pure function of the key index)
    /// from `min..=max`, so a store mix spreads across several slab
    /// classes the way memslap's `--value-size-range` does.
    /// [`Self::value_size`] is the fixed special case.
    pub fn value_size_range(mut self, min: usize, max: usize) -> Self {
        self.value_size = min.max(1);
        self.value_size_max = max.max(self.value_size);
        self
    }

    /// Operation mix.
    pub fn mix(mut self, mix: OpMix) -> Self {
        self.mix = mix;
        self
    }

    /// Hot-key skew: with probability `probability` an operation targets
    /// the first `fraction` of the keyspace. `(0.0, 0.0)` (the default)
    /// gives memslap's uniform distribution.
    pub fn skew(mut self, fraction: f64, probability: f64) -> Self {
        self.hot_fraction = fraction.clamp(0.0, 1.0);
        self.hot_probability = probability.clamp(0.0, 1.0);
        self
    }

    /// Zipfian key popularity with exponent `theta` in `[0, 1)`: key
    /// index 0 is the hottest, index 1 the second-hottest, and so on
    /// (ranks are *not* scrambled, so tests and the hot-key benches know
    /// exactly which keys are hot). `theta = 0` restores the uniform
    /// distribution; YCSB's default skew is `0.99`. Overrides
    /// [`Self::skew`] when set.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is not in `[0.0, 1.0)` (the Gray et al.
    /// generator below needs `theta < 1`; hotter skews than 0.99 are not
    /// meaningfully different for cache workloads).
    pub fn zipf(mut self, theta: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&theta),
            "zipf theta {theta} outside [0, 1)"
        );
        self.zipf_theta = theta;
        self
    }

    /// RNG seed; streams are deterministic in (seed, thread id).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// memslap `--binary`: whether clients speak the binary protocol.
    pub fn binary(mut self, binary: bool) -> Self {
        self.binary = binary;
        self
    }

    /// Builds the workload, pre-rendering the keyspace.
    ///
    /// # Panics
    ///
    /// Panics if the operation mix has zero total weight.
    pub fn build(self) -> Workload {
        assert!(self.mix.total() > 0, "operation mix must have nonzero weight");
        let keys: Vec<Arc<[u8]>> = (0..self.key_count)
            .map(|i| {
                let mut k = format!("memslap-{i:012}").into_bytes();
                while k.len() < self.key_size {
                    k.push(b'.');
                }
                k.truncate(self.key_size);
                Arc::from(k.into_boxed_slice())
            })
            .collect();
        let zipf = (self.zipf_theta > 0.0).then(|| Zipf::new(self.key_count, self.zipf_theta));
        Workload {
            keys,
            zipf,
            cfg: self,
        }
    }
}

/// Precomputed state for Zipfian(θ) rank draws over `0..n`, using the
/// analytic inversion from Gray et al., *Quickly Generating
/// Billion-Record Synthetic Databases* (SIGMOD '94) — the same generator
/// YCSB uses. Building is `O(n)` (one pass to sum the zeta series); each
/// draw is then `O(1)`, so streams stay cheap and, crucially for this
/// workspace, fully deterministic in the seed.
#[derive(Clone, Copy, Debug)]
struct Zipf {
    n: usize,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    fn new(n: usize, theta: f64) -> Zipf {
        let n = n.max(1);
        let zetan = zeta(n, theta);
        let zeta2 = zeta(n.min(2), theta);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Draws a rank in `0..n`; rank 0 is the most popular.
    fn draw(&self, rng: &mut SmallRng) -> usize {
        // 53 random bits -> u uniform in [0, 1).
        let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if self.n >= 2 && uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let r = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as usize;
        r.min(self.n - 1)
    }
}

fn zeta(n: usize, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// A fully-specified workload: configuration plus the rendered keyspace.
#[derive(Clone)]
pub struct Workload {
    cfg: WorkloadBuilder,
    keys: Vec<Arc<[u8]>>,
    zipf: Option<Zipf>,
}

impl fmt::Debug for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Workload")
            .field("concurrency", &self.cfg.concurrency)
            .field("execute_number", &self.cfg.execute_number)
            .field("key_count", &self.keys.len())
            .field("value_size", &self.cfg.value_size)
            .finish()
    }
}

impl Workload {
    /// Starts building a workload with memslap defaults.
    pub fn builder() -> WorkloadBuilder {
        WorkloadBuilder::default()
    }

    /// Number of client threads.
    pub fn concurrency(&self) -> usize {
        self.cfg.concurrency
    }

    /// Operations per thread.
    pub fn execute_number(&self) -> usize {
        self.cfg.execute_number
    }

    /// Configured value size.
    pub fn value_size(&self) -> usize {
        self.cfg.value_size
    }

    /// Whether clients use the binary protocol.
    pub fn binary(&self) -> bool {
        self.cfg.binary
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.keys.len()
    }

    /// The rendered key for index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= key_count()`.
    pub fn key(&self, i: usize) -> &Arc<[u8]> {
        &self.keys[i]
    }

    /// The value length for key `i`: the fixed `value_size`, or a
    /// deterministic uniform draw from the configured range.
    pub fn value_len(&self, i: usize) -> usize {
        let min = self.cfg.value_size;
        let max = self.cfg.value_size_max;
        if max <= min {
            return min;
        }
        // SplitMix64 finalizer over the key index: size is a pure
        // function of the key, so every generation of a key has the same
        // length and readers can verify it.
        let mut h = (i as u64).wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        min + (h % (max - min + 1) as u64) as usize
    }

    /// The deterministic value stored for key `i`: a repeating pattern
    /// derived from the index, so readers can verify payload integrity.
    pub fn value(&self, i: usize) -> Vec<u8> {
        let mut v = vec![0u8; self.value_len(i)];
        fill_value(i, &mut v);
        v
    }

    /// Verifies that `data` is a value produced by [`Workload::value`] for
    /// key `i` (any stored generation matches, since values depend only on
    /// the key).
    pub fn verify_value(&self, i: usize, data: &[u8]) -> bool {
        if data.len() != self.value_len(i) {
            return false;
        }
        let mut expect = vec![0u8; data.len()];
        fill_value(i, &mut expect);
        expect == data
    }

    /// The operation stream for one client thread. Streams are
    /// deterministic in (seed, `thread_id`) and independent across threads.
    pub fn stream(&self, thread_id: usize) -> OpStream {
        OpStream {
            rng: SmallRng::seed_from_u64(
                self.cfg
                    .seed
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(thread_id as u64 + 1),
            ),
            remaining: self.cfg.execute_number,
            key_count: self.keys.len(),
            mix: self.cfg.mix,
            hot_fraction: self.cfg.hot_fraction,
            hot_probability: self.cfg.hot_probability,
            zipf: self.zipf,
        }
    }

    /// The configured Zipfian exponent (0 = uniform keys).
    pub fn zipf_theta(&self) -> f64 {
        self.cfg.zipf_theta
    }
}

fn fill_value(key_index: usize, out: &mut [u8]) {
    let mut x = key_index as u64 ^ 0xA076_1D64_78BD_642F;
    for b in out.iter_mut() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *b = x as u8;
    }
}

/// Iterator over one thread's operations.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: SmallRng,
    remaining: usize,
    key_count: usize,
    mix: OpMix,
    hot_fraction: f64,
    hot_probability: f64,
    zipf: Option<Zipf>,
}

impl OpStream {
    fn pick_key(&mut self) -> usize {
        if let Some(z) = &self.zipf {
            z.draw(&mut self.rng)
        } else if self.hot_probability > 0.0 && self.rng.gen_bool(self.hot_probability) {
            let hot = ((self.key_count as f64 * self.hot_fraction) as usize).max(1);
            self.rng.gen_range(0..hot)
        } else {
            self.rng.gen_range(0..self.key_count)
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let k = self.pick_key();
        let roll = self.rng.gen_range(0..self.mix.total());
        let op = if roll < self.mix.get {
            Op::Get(k)
        } else if roll < self.mix.get + self.mix.set {
            Op::Set(k)
        } else if roll < self.mix.get + self.mix.set + self.mix.delete {
            Op::Delete(k)
        } else {
            Op::Incr(k, 1)
        };
        Some(op)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for OpStream {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn streams_are_deterministic() {
        let w = Workload::builder().execute_number(500).build();
        let a: Vec<Op> = w.stream(3).collect();
        let b: Vec<Op> = w.stream(3).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn streams_differ_across_threads() {
        let w = Workload::builder().execute_number(500).build();
        let a: Vec<Op> = w.stream(0).collect();
        let b: Vec<Op> = w.stream(1).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn default_mix_is_ninety_ten() {
        let w = Workload::builder().execute_number(20_000).build();
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for op in w.stream(0) {
            *counts
                .entry(match op {
                    Op::Get(_) => "get",
                    Op::Set(_) => "set",
                    Op::Delete(_) => "delete",
                    Op::Incr(..) => "incr",
                })
                .or_default() += 1;
        }
        let gets = counts["get"] as f64 / 20_000.0;
        assert!((0.88..0.92).contains(&gets), "get fraction {gets}");
        assert!(!counts.contains_key("delete"));
    }

    #[test]
    fn keys_have_fixed_size_and_are_distinct() {
        let w = Workload::builder().key_count(100).key_size(64).build();
        for i in 0..100 {
            assert_eq!(w.key(i).len(), 64);
        }
        assert_ne!(w.key(0), w.key(99));
        assert!(w.key(5).starts_with(b"memslap-"));
    }

    #[test]
    fn values_verify() {
        let w = Workload::builder().value_size(128).build();
        let v = w.value(7);
        assert_eq!(v.len(), 128);
        assert!(w.verify_value(7, &v));
        assert!(!w.verify_value(8, &v));
        assert!(!w.verify_value(7, &v[..100]));
    }

    #[test]
    fn skew_concentrates_traffic() {
        let w = Workload::builder()
            .key_count(1000)
            .execute_number(10_000)
            .skew(0.01, 0.9)
            .build();
        let hot_ops = w.stream(0).filter(|op| op.key_index() < 10).count();
        assert!(
            hot_ops > 8_000,
            "expected ~90% of ops on the hot 1%: {hot_ops}"
        );
    }

    #[test]
    fn zipf_concentrates_on_low_ranks() {
        let w = Workload::builder()
            .key_count(1000)
            .execute_number(20_000)
            .zipf(0.99)
            .build();
        let mut counts = vec![0usize; 1000];
        for op in w.stream(0) {
            counts[op.key_index()] += 1;
        }
        // Under θ=0.99 the head dominates: rank 0 alone draws ~1/ζ(n) of
        // traffic (about 1/8 for n=1000), and the top 10 ranks well over
        // a third. Uniform would put 1% on the top 10.
        assert!(counts[0] > 1_000, "rank 0 drew only {}", counts[0]);
        let top10: usize = counts[..10].iter().sum();
        assert!(top10 > 20_000 / 3, "top-10 ranks drew only {top10}");
        assert!(
            counts[0] >= counts[500],
            "head rank colder than the tail: {} vs {}",
            counts[0],
            counts[500]
        );
    }

    #[test]
    fn zipf_streams_are_deterministic_and_cover_the_tail() {
        let w = Workload::builder()
            .key_count(100)
            .execute_number(5_000)
            .zipf(0.9)
            .build();
        let a: Vec<Op> = w.stream(1).collect();
        let b: Vec<Op> = w.stream(1).collect();
        assert_eq!(a, b);
        let max_key = a.iter().map(|op| op.key_index()).max().unwrap();
        assert!(max_key > 50, "tail never sampled (max key {max_key})");
        assert!(max_key < 100);
    }

    #[test]
    fn zipf_single_key_keyspace() {
        let w = Workload::builder()
            .key_count(1)
            .execute_number(100)
            .zipf(0.5)
            .build();
        assert!(w.stream(0).all(|op| op.key_index() == 0));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1)")]
    fn zipf_theta_one_rejected() {
        let _ = Workload::builder().zipf(1.0);
    }

    #[test]
    fn exact_size_stream() {
        let w = Workload::builder().execute_number(123).build();
        let s = w.stream(0);
        assert_eq!(s.len(), 123);
        assert_eq!(s.count(), 123);
    }

    #[test]
    #[should_panic(expected = "nonzero weight")]
    fn zero_mix_rejected() {
        let _ = Workload::builder()
            .mix(OpMix {
                get: 0,
                set: 0,
                delete: 0,
                incr: 0,
            })
            .build();
    }

    #[test]
    fn incr_ops_generated_when_weighted() {
        let w = Workload::builder()
            .mix(OpMix {
                get: 1,
                set: 1,
                delete: 1,
                incr: 1,
            })
            .execute_number(1000)
            .build();
        assert!(w.stream(0).any(|op| matches!(op, Op::Incr(_, 1))));
        assert!(w.stream(0).any(|op| matches!(op, Op::Delete(_))));
    }
}
