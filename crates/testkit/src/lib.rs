//! # testkit — the hermetic test and bench toolkit
//!
//! This workspace builds with **no registry dependencies** (the build
//! environment has no network access), so everything the tests and
//! benches used to pull from crates.io lives here instead:
//!
//! | module | replaces | what it is |
//! |---|---|---|
//! | [`rng`] | `rand` | seeded SplitMix64 + xoshiro256++ with a `Rng`-shaped API |
//! | [`prop`] | `proptest` | generators, a seeded case runner, greedy shrinking, and a [`proptest!`](crate::proptest) macro |
//! | [`bench`](mod@bench) | `criterion` | warmup + fixed-iteration timing, median/p95 reports, `BENCH_<group>.json` output |
//! | [`stress`] | — | deterministic, seed-replayable concurrency schedules for the `tm` runtime |
//! | [`alloc`] | `dhat`-style counting | a counting global allocator for zero-allocation assertions |
//!
//! Everything is deterministic by default: property tests run from a fixed
//! base seed (override with `TESTKIT_SEED`, replay one case with
//! `TESTKIT_REPLAY`), and a stress divergence prints the seed that
//! reproduces it. See `DESIGN.md` § "Hermetic builds & the testkit
//! harness" for the full workflow.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alloc;
pub mod bench;
pub mod crash;
pub mod prop;
pub mod rng;
pub mod stress;
