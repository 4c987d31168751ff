//! A minimal property-testing engine: seeded case generation, a
//! `proptest!`-style macro, and greedy value-based shrinking.
//!
//! Each test case is generated from a *case seed* derived from the base
//! seed and the case index, so any failure is replayable in isolation:
//!
//! ```text
//! [testkit] property 'parse_roundtrip' failed (case 17, seed 0x3a91...)
//!           replay: TESTKIT_REPLAY=0x3a91... cargo test parse_roundtrip
//! ```
//!
//! Environment knobs:
//!
//! | var | meaning |
//! |---|---|
//! | `TESTKIT_SEED` | base seed for every property (decimal or 0x-hex) |
//! | `TESTKIT_CASES` | cases per property (overrides the per-test config) |
//! | `TESTKIT_REPLAY` | run exactly one case from this case seed |
//!
//! Unlike `proptest`, shrinking is *value-based*: the generated value
//! implements [`Shrink`], which proposes strictly-simpler candidates; the
//! runner greedily walks to a local minimum. Local types opt out with
//! [`crate::no_shrink!`] or implement [`Shrink`] by hand.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::rng::{mix_seed, SmallRng};

/// Why a property rejected a case.
#[derive(Clone, Debug)]
pub struct CaseError {
    message: String,
}

impl CaseError {
    /// Creates an error carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        CaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// What a property body returns: `Ok(())` to accept the case.
pub type CaseResult = Result<(), CaseError>;

/// Runner configuration. Start from [`Config::from_env`] (the `proptest!`
/// macro does) so the environment knobs work everywhere.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Number of generated cases per property.
    pub cases: u32,
    /// Base seed; case `i` runs from `mix_seed(seed, i)`.
    pub seed: u64,
    /// If set, run exactly one case from this case seed.
    pub replay: Option<u64>,
    /// Cap on property evaluations spent shrinking a failure.
    pub max_shrink_iters: u32,
}

/// Default base seed ("test-kit"); fixed so hermetic runs are
/// reproducible run-to-run.
pub const DEFAULT_SEED: u64 = 0x7E57_4B17_D00D_FEED;

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 256,
            seed: DEFAULT_SEED,
            replay: None,
            max_shrink_iters: 4096,
        }
    }
}

impl Config {
    /// The default configuration with the environment overrides applied.
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Some(s) = parse_env_u64("TESTKIT_SEED") {
            cfg.seed = s;
        }
        if let Some(c) = parse_env_u64("TESTKIT_CASES") {
            cfg.cases = c.min(u32::MAX as u64) as u32;
        }
        cfg.replay = parse_env_u64("TESTKIT_REPLAY");
        cfg
    }

    /// Overrides the case count (the `#![cases(n)]` macro header).
    /// `TESTKIT_CASES` still wins if set.
    pub fn with_cases(mut self, cases: u32) -> Self {
        if std::env::var_os("TESTKIT_CASES").is_none() {
            self.cases = cases;
        }
        self
    }
}

fn parse_env_u64(key: &str) -> Option<u64> {
    let v = std::env::var(key).ok()?;
    let v = v.trim();
    let parsed = if let Some(hex) = v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        v.parse()
    };
    match parsed {
        Ok(n) => Some(n),
        Err(_) => panic!("[testkit] could not parse {key}={v:?} as a u64"),
    }
}

/// Proposes strictly-simpler variants of a failing value. An empty vector
/// (the default) means the value is already minimal.
pub trait Shrink: Sized {
    /// Candidate simplifications, most aggressive first.
    fn shrink(&self) -> Vec<Self> {
        Vec::new()
    }
}

macro_rules! impl_shrink_uint {
    ($($t:ty),+) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                for c in [0, v / 2, v.saturating_sub(1)] {
                    if c != v && !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
        }
    )+};
}
impl_shrink_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_shrink_int {
    ($($t:ty),+) => {$(
        impl Shrink for $t {
            fn shrink(&self) -> Vec<Self> {
                let v = *self;
                let mut out = Vec::new();
                for c in [0, v / 2, v - v.signum()] {
                    if c != v && !out.contains(&c) {
                        out.push(c);
                    }
                }
                out
            }
        }
    )+};
}
impl_shrink_int!(i8, i16, i32, i64, isize);

impl Shrink for bool {
    fn shrink(&self) -> Vec<Self> {
        if *self {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

impl<T: Shrink + Clone> Shrink for Vec<T> {
    fn shrink(&self) -> Vec<Self> {
        let mut out = Vec::new();
        let n = self.len();
        if n == 0 {
            return out;
        }
        // Structure first: drop everything, halves, then single elements.
        out.push(Vec::new());
        if n > 1 {
            out.push(self[..n / 2].to_vec());
            out.push(self[n / 2..].to_vec());
        }
        for i in 0..n.min(24) {
            let mut v = self.clone();
            v.remove(i);
            out.push(v);
        }
        // Then content: shrink each element in place (bounded fan-out).
        for i in 0..n.min(12) {
            for candidate in self[i].shrink().into_iter().take(2) {
                let mut v = self.clone();
                v[i] = candidate;
                out.push(v);
            }
        }
        out
    }
}

macro_rules! impl_shrink_tuple {
    ($(($($name:ident/$idx:tt),+),)+) => {$(
        impl<$($name: Shrink + Clone),+> Shrink for ($($name,)+) {
            fn shrink(&self) -> Vec<Self> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$idx.shrink() {
                        let mut t = self.clone();
                        t.$idx = candidate;
                        out.push(t);
                    }
                )+
                out
            }
        }
    )+};
}

impl_shrink_tuple! {
    (A/0),
    (A/0, B/1),
    (A/0, B/1, C/2),
    (A/0, B/1, C/2, D/3),
    (A/0, B/1, C/2, D/3, E/4),
    (A/0, B/1, C/2, D/3, E/4, F/5),
}

/// Declares that the listed local types have no shrink candidates.
#[macro_export]
macro_rules! no_shrink {
    ($($t:ty),+ $(,)?) => {$(
        impl $crate::prop::Shrink for $t {}
    )+};
}

fn run_one<T, F>(prop: &F, value: &T) -> CaseResult
where
    F: Fn(&T) -> CaseResult,
{
    match catch_unwind(AssertUnwindSafe(|| prop(value))) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_owned());
            Err(CaseError::new(format!("panicked: {msg}")))
        }
    }
}

/// Runs `cases` random cases of `prop` over values drawn by `gen`,
/// shrinking and reporting the first failure.
///
/// # Panics
///
/// Panics (failing the enclosing `#[test]`) when a case fails, with the
/// minimal value found, the case seed, and one-line replay instructions.
pub fn check<T, G, F>(name: &str, cfg: Config, gen: G, prop: F)
where
    T: Clone + fmt::Debug + Shrink,
    G: Fn(&mut SmallRng) -> T,
    F: Fn(&T) -> CaseResult,
{
    if let Some(case_seed) = cfg.replay {
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let value = gen(&mut rng);
        if let Err(e) = run_one(&prop, &value) {
            fail(name, "replay", case_seed, &value, &e, 0);
        }
        return;
    }
    for case in 0..cfg.cases {
        let case_seed = mix_seed(cfg.seed, case as u64);
        let mut rng = SmallRng::seed_from_u64(case_seed);
        let value = gen(&mut rng);
        if let Err(first) = run_one(&prop, &value) {
            // Greedy descent: take the first failing candidate, repeat.
            let mut cur = value;
            let mut cur_err = first;
            let mut evals = 0u32;
            let mut steps = 0u32;
            'minimize: loop {
                for candidate in cur.shrink() {
                    if evals >= cfg.max_shrink_iters {
                        break 'minimize;
                    }
                    evals += 1;
                    if let Err(e) = run_one(&prop, &candidate) {
                        cur = candidate;
                        cur_err = e;
                        steps += 1;
                        continue 'minimize;
                    }
                }
                break;
            }
            fail(name, &format!("case {case}"), case_seed, &cur, &cur_err, steps);
        }
    }
}

fn fail<T: fmt::Debug>(
    name: &str,
    which: &str,
    case_seed: u64,
    value: &T,
    err: &CaseError,
    shrink_steps: u32,
) -> ! {
    panic!(
        "\n[testkit] property '{name}' failed ({which}, seed {case_seed:#018x})\n\
         [testkit] minimal failing input (after {shrink_steps} shrink steps):\n\
         {value:#?}\n\
         [testkit] error: {err}\n\
         [testkit] replay: TESTKIT_REPLAY={case_seed:#x} cargo test {name}\n"
    );
}

/// Generator combinators. A generator is any `Fn(&mut SmallRng) -> T`;
/// these helpers build the common ones.
pub mod gen {
    use crate::rng::{Rng, SampleUniform, SmallRng};
    use std::ops::Range;

    /// Uniform draw from a half-open integer range.
    pub fn range<T: SampleUniform>(r: Range<T>) -> impl Fn(&mut SmallRng) -> T + Clone {
        move |rng| rng.gen_range(r.clone())
    }

    macro_rules! any_fns {
        ($($fn_name:ident -> $t:ty),+ $(,)?) => {$(
            /// Uniform draw over the whole type.
            pub fn $fn_name() -> impl Fn(&mut SmallRng) -> $t + Clone {
                |rng| rng.next_u64() as $t
            }
        )+};
    }
    any_fns! {
        any_u8 -> u8, any_u16 -> u16, any_u32 -> u32, any_u64 -> u64,
        any_usize -> usize, any_i64 -> i64,
    }

    /// A vector of `elem` draws with a length drawn from `len`.
    pub fn vec<T, G>(elem: G, len: Range<usize>) -> impl Fn(&mut SmallRng) -> Vec<T> + Clone
    where
        G: Fn(&mut SmallRng) -> T + Clone,
    {
        move |rng| {
            let n = rng.gen_range(len.clone());
            (0..n).map(|_| elem(rng)).collect()
        }
    }

    /// Arbitrary bytes with a length drawn from `len`.
    pub fn bytes(len: Range<usize>) -> impl Fn(&mut SmallRng) -> Vec<u8> + Clone {
        vec(any_u8(), len)
    }

    /// Always `value` (the `Just` arm of a [`crate::one_of!`]).
    pub fn just<T: Clone>(value: T) -> impl Fn(&mut SmallRng) -> T + Clone {
        move |_| value.clone()
    }

    /// A length-agnostic position, resolved against a concrete length at
    /// use time (the shape of `proptest`'s `sample::Index`).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Index(pub u64);

    impl Index {
        /// This position within a collection of length `len`.
        ///
        /// # Panics
        ///
        /// Panics if `len` is zero.
        pub fn index(&self, len: usize) -> usize {
            assert!(len > 0, "Index::index on an empty collection");
            (self.0 % len as u64) as usize
        }
    }

    impl crate::prop::Shrink for Index {
        fn shrink(&self) -> Vec<Self> {
            self.0.shrink().into_iter().map(Index).collect()
        }
    }

    /// Draws an [`Index`].
    pub fn index() -> impl Fn(&mut SmallRng) -> Index + Clone {
        |rng| Index(rng.next_u64())
    }
}

/// Picks one of several generators uniformly (the `prop_oneof!` shape).
/// Every arm must yield the same type.
#[macro_export]
macro_rules! one_of {
    ($($g:expr),+ $(,)?) => {{
        move |rng: &mut $crate::rng::SmallRng| {
            let n = [$(stringify!($g)),+].len() as u64;
            let k = $crate::rng::Rng::gen_range(rng, 0..n);
            let mut i = 0u64;
            $(
                if k == i {
                    return ($g)(rng);
                }
                i += 1;
            )+
            let _ = i;
            unreachable!()
        }
    }};
}

/// Property assertion: reject the case with a message on failure.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err($crate::prop::CaseError::new(format!(
                "assertion failed: {}", stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err($crate::prop::CaseError::new(format!(
                "assertion failed: {} ({})", stringify!($cond), format!($($fmt)+)
            )));
        }
    };
}

/// Property equality assertion.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::prop::CaseError::new(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), l, r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        if !(*l == *r) {
            return Err($crate::prop::CaseError::new(format!(
                "assertion failed: {} == {} ({})\n  left: {:?}\n right: {:?}",
                stringify!($left), stringify!($right), format!($($fmt)+), l, r
            )));
        }
    }};
}

/// Property inequality assertion.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if *l == *r {
            return Err($crate::prop::CaseError::new(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left), stringify!($right), l
            )));
        }
    }};
}

/// Skips the case when its precondition does not hold.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Ok(());
        }
    };
}

/// Declares property tests over named generators, in the shape of
/// `proptest!`:
///
/// ```
/// use testkit::{prop_assert_eq, proptest};
/// use testkit::prop::gen;
///
/// proptest! {
///     #![cases(64)]
///
///     #[test]
///     fn reverse_twice_is_identity(v in gen::vec(gen::any_u8(), 0..32)) {
///         let mut w = v.clone();
///         w.reverse();
///         w.reverse();
///         prop_assert_eq!(v, w);
///     }
/// }
/// ```
#[macro_export]
macro_rules! proptest {
    ( #![cases($cases:expr)] $($rest:tt)* ) => {
        $crate::__proptest_fns! { ($crate::prop::Config::from_env().with_cases($cases)) $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_fns! { ($crate::prop::Config::from_env()) $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_fns {
    ( ($cfg:expr) ) => {};
    (
        ($cfg:expr)
        $(#[$meta:meta])*
        fn $name:ident( $($arg:ident in $gen:expr),+ $(,)? ) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let __gen = |__rng: &mut $crate::rng::SmallRng| ( $(($gen)(__rng),)+ );
            $crate::prop::check(stringify!($name), $cfg, __gen, |__case| {
                #[allow(unused_parens, unused_mut)]
                let ( $(mut $arg,)+ ) = ::std::clone::Clone::clone(__case);
                $body
                Ok(())
            });
        }
        $crate::__proptest_fns! { ($cfg) $($rest)* }
    };
}

#[cfg(test)]
mod tests {
    use super::gen;
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let cfg = Config {
            cases: 50,
            seed: 1,
            replay: None,
            max_shrink_iters: 100,
        };
        let counter = std::cell::Cell::new(0u32);
        check(
            "count_cases",
            cfg,
            |rng: &mut SmallRng| {
                counter.set(counter.get() + 1);
                gen::any_u64()(rng)
            },
            |_| Ok(()),
        );
        assert_eq!(counter.get(), 50);
    }

    #[test]
    fn failure_shrinks_to_minimum() {
        // Property: every vec sums below 100. Minimal counterexample is a
        // single element >= 100, shrunk toward 100.
        let cfg = Config {
            cases: 200,
            seed: 2,
            replay: None,
            max_shrink_iters: 4096,
        };
        let result = std::panic::catch_unwind(|| {
            check(
                "sum_below_100",
                cfg,
                gen::vec(gen::range(0u64..1000), 0..20),
                |v| {
                    prop_assert!(v.iter().sum::<u64>() < 100);
                    Ok(())
                },
            );
        });
        let msg = match result {
            Err(p) => *p.downcast::<String>().expect("panic message"),
            Ok(()) => panic!("property must fail"),
        };
        assert!(msg.contains("sum_below_100"), "{msg}");
        assert!(msg.contains("TESTKIT_REPLAY="), "{msg}");
        // Greedy shrinking over [0,1000) elements lands on one element in
        // the low hundreds; assert the structure, not the exact value.
        let shrunk_len = msg
            .lines()
            .filter(|l| l.trim().chars().all(|c| c.is_ascii_digit() || c == ','))
            .count();
        assert!(shrunk_len <= 3, "shrunk vec should be tiny: {msg}");
    }

    #[test]
    fn panics_are_caught_and_reported() {
        let cfg = Config {
            cases: 10,
            seed: 3,
            replay: None,
            max_shrink_iters: 10,
        };
        let result = std::panic::catch_unwind(|| {
            check("panicky", cfg, gen::any_u64(), |_| -> CaseResult {
                panic!("boom inside property");
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("boom inside property"), "{msg}");
    }

    #[test]
    fn replay_reproduces_the_same_value() {
        let seed = 0xDEAD_BEEF;
        let draw = |case_seed: u64| {
            let mut rng = SmallRng::seed_from_u64(case_seed);
            gen::vec(gen::any_u8(), 1..32)(&mut rng)
        };
        assert_eq!(draw(seed), draw(seed));
    }

    #[test]
    fn integer_shrink_descends_toward_zero() {
        assert!(100u64.shrink().contains(&0));
        assert!(100u64.shrink().contains(&50));
        assert!(0u64.shrink().is_empty());
        assert!((-8i64).shrink().contains(&0));
        assert!((-8i64).shrink().contains(&-4));
    }

    #[test]
    fn vec_shrink_proposes_structure_and_content() {
        let v = vec![5u8, 9, 200];
        let cands = v.shrink();
        assert!(cands.contains(&Vec::new()));
        assert!(cands.contains(&vec![9, 200]), "element removal");
        assert!(
            cands.iter().any(|c| c.len() == 3 && c != &v),
            "element shrink"
        );
    }

    proptest! {
        #![cases(32)]

        #[test]
        fn macro_generates_runnable_tests(
            a in gen::range(0u32..10),
            b in gen::range(0u32..10),
        ) {
            prop_assert!(a + b < 20);
            prop_assert_ne!(a + b + 1, 0);
        }

        #[test]
        fn one_of_covers_all_arms(picks in gen::vec(
            crate::one_of![gen::just(1u8), gen::just(2u8), gen::just(3u8)],
            64..65,
        )) {
            for p in &picks {
                prop_assert!((1..=3).contains(p));
            }
        }
    }
}
