//! Layout guard: pins the cache-line geometry the contention design
//! depends on, so a refactor (a new telemetry field, a dropped
//! `repr(align)`) cannot silently reintroduce false sharing.
//!
//! The real guards are `const` assertions next to the type definitions —
//! they fail the *build*, not the test run. This test re-checks the same
//! facts through `tm::layout` so the contract is visible (and grep-able)
//! from outside the crate, and exercises the runtime-facing invariants the
//! consts cannot see: that a built runtime actually fans its shards and
//! stripes out at the advertised granularity.

use tm::layout;
use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};

#[test]
fn clock_shards_are_exactly_one_cache_line() {
    // One committer's CAS must never invalidate another shard's line: a
    // shard fills its line completely (size) and starts on a line
    // boundary (align). If a field is ever added that pushes the struct
    // past 64 bytes, the in-source const assert stops the build before
    // this test runs.
    assert_eq!(layout::CLOCK_SHARD_SIZE, layout::CACHE_LINE);
    assert_eq!(layout::CLOCK_SHARD_ALIGN, layout::CACHE_LINE);
}

#[test]
fn clock_shard_telemetry_lives_in_the_stat_blocks() {
    // The shard line holds the timestamp and nothing else (an exhaustive
    // destructuring next to `ClockShard` stops the build if a field is
    // added): every committer scans every shard line, so a counter bumped
    // there would dirty it once more per commit. The per-shard numbers
    // are folded from the committing threads' stat blocks instead — which
    // only works while a block index determines a shard.
    assert!(layout::STAT_BLOCKS.is_power_of_two());
    assert!(layout::STAT_BLOCKS >= tm::MAX_CLOCK_SHARDS);
    let rt = TmRuntime::builder()
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .clock_shards(8)
        .build();
    let c = TCell::new(0u64);
    for i in 1..=5u64 {
        rt.atomic(|tx| tx.write(&c, i));
    }
    let mine = rt.current_thread_shard();
    for (k, s) in rt.clock_shard_stats().iter().enumerate() {
        assert_eq!(s.ticks, if k == mine { 5 } else { 0 }, "shard {k}");
        assert_eq!(s.value != 0, k == mine, "shard {k}");
    }
}

#[test]
fn stat_blocks_are_whole_aligned_cache_lines() {
    // A thread's counters must never share a line with another thread's
    // (or with anything else): the block starts a line and ends on one.
    assert_eq!(layout::STAT_BLOCK_ALIGN, layout::CACHE_LINE);
    assert_eq!(layout::STAT_BLOCK_SIZE % layout::CACHE_LINE, 0);
    assert!(layout::STAT_BLOCK_SIZE > 0);
}

#[test]
fn config_words_share_no_line_with_a_written_word() {
    // Every attempt loads the live algorithm, the live contention manager
    // and the serial-lock mode. The words transactions *write* — serial
    // lock, hourglass gate, seqlock — each own their line, so those loads
    // stay cache hits however hard the written words bounce. (Stat blocks,
    // clock shards and orecs are separate line-aligned allocations.)
    assert_eq!(layout::SERIAL_LOCK_ALIGN, layout::CACHE_LINE);
    assert_eq!(layout::HOURGLASS_ALIGN, layout::CACHE_LINE);
    assert_eq!(layout::SEQLOCK_ALIGN, layout::CACHE_LINE);
    assert!(layout::RT_CONFIG_WORDS_ISOLATED);
}

#[test]
fn orec_stripes_are_exactly_one_cache_line() {
    // The stripe-aware hash puts same-block words on one stripe and
    // unrelated blocks on others; that only isolates coherence traffic if
    // stripe boundaries coincide with cache-line boundaries.
    assert_eq!(layout::OREC_STRIPE_SIZE, layout::CACHE_LINE);
    assert_eq!(layout::OREC_STRIPE_ALIGN, layout::CACHE_LINE);
}

#[test]
fn seqlock_owns_its_cache_line() {
    // NOrec's hottest word: it must at least not share a line with the
    // clock shards or stats counters on top of its true contention.
    assert_eq!(layout::SEQLOCK_ALIGN, layout::CACHE_LINE);
    assert!(layout::SEQLOCK_SIZE <= layout::CACHE_LINE);
}

#[test]
fn built_runtime_exposes_the_advertised_fanout() {
    let rt = TmRuntime::builder()
        .algorithm(Algorithm::Eager)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .clock_shards(8)
        .orec_log_size(6)
        .build();
    assert_eq!(rt.clock_shards(), 8);
    assert_eq!(rt.clock_shard_stats().len(), 8);
    // 2^6 orecs at 8 per stripe → 8 stripes of conflict telemetry.
    assert_eq!(rt.orec_stripe_count(), 8);
    assert_eq!(rt.orec_stripe_conflicts().len(), 8);
    // Thread affinity is a real shard index.
    assert!(rt.current_thread_shard() < 8);
}

#[test]
#[should_panic(expected = "power of two")]
fn non_power_of_two_clock_shards_rejected_at_build() {
    let _ = TmRuntime::builder().clock_shards(6).build();
}

#[test]
#[should_panic(expected = "power of two")]
fn oversized_clock_shards_rejected_at_build() {
    let _ = TmRuntime::builder().clock_shards(128).build();
}
