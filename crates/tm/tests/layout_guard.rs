//! Layout guard: pins the cache-line geometry the contention design
//! depends on, so a refactor (a new telemetry field, a dropped
//! `repr(align)`) cannot silently reintroduce false sharing.
//!
//! The real guards are `const` assertions next to the type definitions —
//! they fail the *build*, not the test run. This test re-checks the same
//! facts through `tm::layout` so the contract is visible (and grep-able)
//! from outside the crate, and exercises the runtime-facing invariants the
//! consts cannot see on a built runtime.

use tm::layout;
use tm::{ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};

#[test]
fn clock_word_is_alone_on_its_cache_line() {
    // Every writer commit CASes this word: it fills its line completely
    // (size) and starts on a line boundary (align), so nothing else — a
    // config word, the seqlock, a counter — can ride the line it bounces.
    // The in-source const assert stops the build before this test runs.
    assert_eq!(layout::CLOCK_SIZE, layout::CACHE_LINE);
    assert_eq!(layout::CLOCK_ALIGN, layout::CACHE_LINE);
    // And it is one plus-one word: a commit moves it by exactly one tick.
    let rt = TmRuntime::builder()
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .build();
    let c = TCell::new(0u64);
    let before = rt.liveness().clock;
    for i in 1..=5u64 {
        rt.atomic(|tx| tx.write(&c, i));
    }
    assert_eq!(rt.liveness().clock, before + 5);
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
    // lock, hourglass gate, clock, seqlock — each own their line, so those
    // loads stay cache hits however hard the written words bounce. (Stat
    // blocks and orecs are separate line-aligned allocations.)
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
    // commit clock or stats counters on top of its true contention.
    assert_eq!(layout::SEQLOCK_ALIGN, layout::CACHE_LINE);
    assert!(layout::SEQLOCK_SIZE <= layout::CACHE_LINE);
}

/// The `clock_shards` compile shim (kept for the frozen `benchmark/`
/// package) accepts 1 and refuses everything else, loudly.
#[test]
#[should_panic(expected = "clock_shards must be 1")]
fn clock_shards_shim_refuses_to_build_anything_but_one() {
    let _ = TmRuntime::builder().clock_shards(1).build();
    let _ = TmRuntime::builder().clock_shards(8).build();
}
