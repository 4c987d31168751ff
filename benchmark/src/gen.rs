//! The benchmark's own generator and oracle.
//!
//! Everything the program under test sees is bytes made here from
//! `--seed`: keys, values, and the operation stream. Values carry their
//! own proof — `[version u64][key index u64][filler]`, with the length
//! and filler derived from `(seed, key index, version)` — so a GET
//! verifies itself with no shared oracle state, and an overwriting SET
//! never stores the bytes that are already there (identical-byte
//! overwrites would hand the STM's silent-store elision a win no real
//! client gives it).

use std::sync::Arc;

/// Bytes per key: `k` plus 16 hex digits.
pub const KEY_LEN: usize = 17;
/// Bytes of `[version][key index]` at the head of every value.
pub const VALUE_HEADER: usize = 16;

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output function: a bijection on `u64`.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// SplitMix64 (Steele, Lea & Flood): one add and one mix per draw.
#[derive(Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2^-40 for
    /// every `n` used here).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// Why an operation counts as failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fail {
    /// Value bytes differ from what `(seed, key, version)` generates.
    Corrupt = 0,
    /// The value (or reply) belongs to another key.
    WrongKey = 1,
    /// A miss on a workload whose keys all fit.
    Miss = 2,
    /// A SET answered anything but stored.
    NotStored = 3,
    /// I/O error, timeout, or a reply that cannot be framed.
    Io = 4,
}

pub const FAIL_KINDS: [&str; 5] = ["corrupt", "wrong_key", "miss", "not_stored", "io"];

/// Operations attempted and failed, by cause.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: [u64; 5],
}

impl Tally {
    pub fn fail(&mut self, why: Fail) {
        self.failed[why as usize] += 1;
    }

    pub fn failures(&self) -> u64 {
        self.failed.iter().sum()
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        for (a, b) in self.failed.iter_mut().zip(other.failed) {
            *a += b;
        }
    }
}

/// Value lengths, both ends included and at least [`VALUE_HEADER`].
#[derive(Clone, Copy, Debug)]
pub struct ValueSpec {
    pub min_len: usize,
    pub max_len: usize,
}

/// Makes and checks the self-verifying values of one seed.
#[derive(Clone, Copy)]
pub struct Values {
    seed: u64,
    spec: ValueSpec,
}

impl Values {
    pub fn new(seed: u64, spec: ValueSpec) -> Self {
        assert!(spec.min_len >= VALUE_HEADER && spec.min_len <= spec.max_len);
        Values { seed, spec }
    }

    fn filler(&self, key: u64, version: u64) -> SplitMix64 {
        SplitMix64::new(mix(self.seed ^ mix(key.wrapping_mul(GOLDEN) ^ mix(version))))
    }

    fn len_from(&self, filler: &mut SplitMix64) -> usize {
        let span = (self.spec.max_len - self.spec.min_len + 1) as u64;
        self.spec.min_len + filler.below(span) as usize
    }

    /// Length of the value of `(key, version)`.
    pub fn len(&self, key: u64, version: u64) -> usize {
        self.len_from(&mut self.filler(key, version))
    }

    /// Appends the value of `(key, version)` to `out`; returns its length.
    pub fn append(&self, key: u64, version: u64, out: &mut Vec<u8>) -> usize {
        let mut filler = self.filler(key, version);
        let len = self.len_from(&mut filler);
        let start = out.len();
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&key.to_le_bytes());
        while out.len() - start < len {
            let word = filler.next().to_le_bytes();
            let take = (len - (out.len() - start)).min(8);
            out.extend_from_slice(&word[..take]);
        }
        len
    }

    /// Checks that `bytes` is a value this seed generates for `key`.
    pub fn verify(&self, key: u64, bytes: &[u8]) -> Result<(), Fail> {
        if bytes.len() < VALUE_HEADER {
            return Err(Fail::Corrupt);
        }
        let version = u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"));
        let stamped_key = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
        if stamped_key != key {
            return Err(Fail::WrongKey);
        }
        let mut filler = self.filler(key, version);
        if bytes.len() != self.len_from(&mut filler) {
            return Err(Fail::Corrupt);
        }
        for chunk in bytes[VALUE_HEADER..].chunks(8) {
            if chunk != &filler.next().to_le_bytes()[..chunk.len()] {
                return Err(Fail::Corrupt);
            }
        }
        Ok(())
    }
}

/// The key set of one seed: index `i` ↔ `k` + 16 hex digits of a
/// bijective mix of `i`, so keys are distinct and hash-table placement
/// changes with the seed.
pub struct KeySpace {
    bytes: Vec<u8>,
}

impl KeySpace {
    pub fn new(seed: u64, n: usize) -> Self {
        let mut bytes = Vec::with_capacity(n * KEY_LEN);
        for i in 0..n as u64 {
            let id = mix(seed.wrapping_mul(GOLDEN).wrapping_add(i));
            bytes.extend_from_slice(format!("k{id:016x}").as_bytes());
        }
        KeySpace { bytes }
    }

    pub fn len(&self) -> usize {
        self.bytes.len() / KEY_LEN
    }

    pub fn key(&self, i: u32) -> &[u8] {
        &self.bytes[i as usize * KEY_LEN..][..KEY_LEN]
    }
}

/// How keys are chosen.
#[derive(Clone)]
pub enum KeyDist {
    Uniform,
    /// Inverse-CDF table: entry `q` is the key at quantile `(q+½)/len`.
    Zipf(Arc<Vec<u32>>),
}

const ZIPF_QUANTILES: usize = 1 << 20;

impl KeyDist {
    /// Zipf with exponent `s` over `n` keys (key index = rank − 1), as a
    /// table of 2^20 quantiles: one multiply-shift and one load per draw.
    /// With n = 100k and s = 0.9 the rarest key still owns a quantile.
    pub fn zipf(n: usize, s: f64) -> KeyDist {
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut table = Vec::with_capacity(ZIPF_QUANTILES);
        let (mut rank, mut cum) = (0usize, weights[0]);
        for q in 0..ZIPF_QUANTILES {
            let target = (q as f64 + 0.5) / ZIPF_QUANTILES as f64 * total;
            while cum < target && rank + 1 < n {
                rank += 1;
                cum += weights[rank];
            }
            table.push(rank as u32);
        }
        KeyDist::Zipf(Arc::new(table))
    }
}

/// What one operation does; a SET carries the version it writes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get,
    Set(u64),
}

/// One expected reply: the key asked for and what was asked.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    pub key: u32,
    pub kind: Kind,
}

/// One caller's operation stream. Keys and GET/SET choices depend on
/// `(seed, thread)` only, so every pass over a workload (timed, traced,
/// shadow) sees the same sequence; `pass` only moves the versions SETs
/// write, which keeps every overwrite a real store.
pub struct Stream {
    rng: SplitMix64,
    dist: KeyDist,
    keys: u64,
    set_permille: u64,
    next_version: u64,
    version_step: u64,
}

impl Stream {
    pub fn new(
        seed: u64,
        thread: u64,
        threads: u64,
        pass: u64,
        keys: usize,
        dist: KeyDist,
        set_permille: u32,
    ) -> Self {
        Stream {
            rng: SplitMix64::new(mix(seed ^ mix(thread + 1))),
            dist,
            keys: keys as u64,
            set_permille: set_permille as u64,
            // Version 0 is the preload; threads interleave above it.
            next_version: (pass << 40) * threads + thread + 1,
            version_step: threads,
        }
    }

    pub fn is_set(&mut self) -> bool {
        self.rng.below(1000) < self.set_permille
    }

    pub fn key(&mut self) -> u32 {
        match &self.dist {
            KeyDist::Uniform => self.rng.below(self.keys) as u32,
            KeyDist::Zipf(table) => table[self.rng.below(table.len() as u64) as usize],
        }
    }

    pub fn version(&mut self) -> u64 {
        let v = self.next_version;
        self.next_version += self.version_step;
        v
    }

    /// The next single operation: GET/SET choice, then key.
    pub fn op(&mut self) -> Op {
        let set = self.is_set();
        let key = self.key();
        let kind = if set {
            Kind::Set(self.version())
        } else {
            Kind::Get
        };
        Op { key, kind }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: ValueSpec = ValueSpec {
        min_len: 64,
        max_len: 1024,
    };

    #[test]
    fn values_verify_and_reject() {
        let values = Values::new(7, SPEC);
        let mut v = Vec::new();
        let len = values.append(42, 3, &mut v);
        assert_eq!(len, v.len());
        assert!((64..=1024).contains(&len));
        assert_eq!(values.verify(42, &v), Ok(()));
        // Another version of the same key is another value.
        let mut w = Vec::new();
        values.append(42, 4, &mut w);
        assert_ne!(v, w);
        // A flipped filler byte, a truncation, a foreign key, a foreign seed.
        let mut bad = v.clone();
        *bad.last_mut().unwrap() ^= 1;
        assert_eq!(values.verify(42, &bad), Err(Fail::Corrupt));
        assert_eq!(values.verify(42, &v[..len - 1]), Err(Fail::Corrupt));
        assert_eq!(values.verify(43, &v), Err(Fail::WrongKey));
        assert_eq!(Values::new(8, SPEC).verify(42, &v), Err(Fail::Corrupt));
    }

    #[test]
    fn keys_are_distinct_and_seeded() {
        let a = KeySpace::new(1, 5000);
        let b = KeySpace::new(2, 5000);
        let mut seen = std::collections::HashSet::new();
        for i in 0..5000 {
            assert!(seen.insert(a.key(i).to_vec()));
        }
        assert_ne!(a.key(0), b.key(0));
        assert_eq!(a.len(), 5000);
    }

    #[test]
    fn streams_repeat_per_seed_and_differ_across_threads() {
        let draw = |seed, thread, pass| {
            let mut s = Stream::new(seed, thread, 2, pass, 1000, KeyDist::Uniform, 100);
            (0..2000).map(|_| s.op()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1, 0, 0), draw(1, 0, 0));
        assert_ne!(draw(1, 0, 0), draw(1, 1, 0));
        assert_ne!(draw(1, 0, 0), draw(2, 0, 0));
        // Another pass: same keys and kinds, other versions.
        let (p0, p1) = (draw(1, 0, 0), draw(1, 0, 1));
        assert!(p0.iter().zip(&p1).all(|(a, b)| a.key == b.key
            && matches!(
                (a.kind, b.kind),
                (Kind::Get, Kind::Get) | (Kind::Set(_), Kind::Set(_))
            )));
        assert_ne!(p0, p1);
        // Two threads never write the same version.
        let versions = |ops: &[Op]| {
            ops.iter()
                .filter_map(|o| {
                    if let Kind::Set(v) = o.kind {
                        Some(v)
                    } else {
                        None
                    }
                })
                .collect::<std::collections::HashSet<_>>()
        };
        assert!(versions(&draw(1, 0, 0)).is_disjoint(&versions(&draw(1, 1, 0))));
    }

    #[test]
    fn zipf_is_skewed_and_covers_every_key() {
        let KeyDist::Zipf(table) = KeyDist::zipf(100_000, 0.9) else {
            unreachable!()
        };
        let head = table.iter().filter(|&&k| k < 1000).count() as f64 / table.len() as f64;
        assert!((0.45..0.60).contains(&head), "top 1% of keys draw {head}");
        assert_eq!(*table.last().unwrap(), 99_999);
        assert!(table.windows(2).all(|w| w[1] == w[0] || w[1] == w[0] + 1));
    }
}
