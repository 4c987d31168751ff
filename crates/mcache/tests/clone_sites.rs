//! Both clones of every unsafe-until-stage site agree (paper §3.4: a
//! `transaction_safe` function's instrumented and uninstrumented clones
//! come from one source). Each site runs three ways, each on fresh state:
//!
//! * on `Ctx::Direct`, the uninstrumented clone;
//! * in an atomic transaction on `it-oncommit`, where its category is safe:
//!   the instrumented clone;
//! * in a relaxed transaction on `it-plain`, where its category is still
//!   unsafe, so it runs uninstrumented after an in-flight switch.
//!
//! All three must return the same value and leave the same bytes.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};

use lockprof::Profiler;
use mcache::core::CacheCore;
use mcache::ctx::Ctx;
use mcache::hashes::jenkins_hash;
use mcache::item::{ItemHandle, ItemRef, ItemSizes, HDR_BYTES};
use mcache::{Branch, Policy, SlabConfig, Stage};
use tm::{Abort, RelaxedPlan, TBytes, TWord, TmRuntime};

fn pre_stage() -> Policy {
    Branch::It(Stage::Plain).policy()
}

fn post_stage() -> Policy {
    Branch::It(Stage::OnCommit).policy()
}

/// Runs `site` the three ways on state from `fresh`, checks that each
/// returns the same value and leaves the same `observe`d state, and
/// returns that outcome.
fn three_ways<S, R, O>(
    fresh: impl Fn() -> S,
    site: impl for<'e> Fn(&mut Ctx<'_, 'e>, &Policy, &'e S) -> Result<R, Abort>,
    observe: impl Fn(&S) -> O,
) -> (R, O)
where
    R: PartialEq + Debug,
    O: PartialEq + Debug,
{
    let direct = {
        let s = fresh();
        let r = site(&mut Ctx::Direct, &pre_stage(), &s).unwrap();
        (r, observe(&s))
    };
    let atomic = {
        let s = fresh();
        let rt = TmRuntime::default_runtime();
        let r = rt.atomic(|tx| site(&mut Ctx::Atomic(tx), &post_stage(), &s));
        (r, observe(&s))
    };
    let relaxed = {
        let s = fresh();
        let rt = TmRuntime::default_runtime();
        let r = rt.relaxed(RelaxedPlan::new(), |tx| {
            site(&mut Ctx::Relaxed(tx), &pre_stage(), &s)
        });
        assert_eq!(
            rt.stats().in_flight_switch,
            1,
            "the pre-stage run must switch"
        );
        (r, observe(&s))
    };
    assert_eq!(direct, atomic, "instrumented clone");
    assert_eq!(
        direct, relaxed,
        "uninstrumented clone after an in-flight switch"
    );
    direct
}

fn word() -> TWord {
    TWord::new(7)
}

#[test]
fn volatile_and_refcount_words_agree() {
    let load = |w: &TWord| w.load_direct();
    assert_eq!(
        three_ways(word, |c, p, w| c.volatile_read(p, w), load),
        (7, 7)
    );
    assert_eq!(
        three_ways(word, |c, p, w| c.volatile_write(p, w, 9), load),
        ((), 9)
    );
    let dec = u64::MAX;
    assert_eq!(
        three_ways(word, |c, p, w| c.refcount_add(p, w, dec), load),
        (7, 6)
    );
}

#[test]
fn failed_assert_terminates_the_same_way() {
    fn message(f: impl FnOnce()) -> String {
        let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("assert must terminate");
        payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default()
    }
    let direct = message(|| {
        let _ = Ctx::Direct.assert_that(&pre_stage(), false, "boom");
    });
    let atomic = message(|| {
        let rt = TmRuntime::default_runtime();
        rt.atomic(|tx| Ctx::Atomic(tx).assert_that(&post_stage(), false, "boom"));
    });
    let relaxed = message(|| {
        let rt = TmRuntime::default_runtime();
        rt.relaxed(RelaxedPlan::new(), |tx| {
            Ctx::Relaxed(tx).assert_that(&pre_stage(), false, "boom")
        });
    });
    assert_eq!(direct, "assertion failed: boom");
    assert_eq!(atomic, direct);
    assert_eq!(relaxed, direct);
}

const FLAGS: u32 = 7;
const VALUE: &[u8] = b"world wide!";

/// One item at the start of a page: key `hello`, suffix sized for
/// `FLAGS` and `VALUE`.
fn sizes() -> ItemSizes {
    ItemSizes {
        nkey: 5,
        nsuffix: tmstd::item_suffix_len(FLAGS, VALUE.len() as u32) as u8,
        nbytes: VALUE.len() as u32,
    }
}

fn item(page: &TBytes) -> ItemRef<'_> {
    let handle = ItemHandle {
        class: 1,
        page: 0,
        chunk: 0,
    };
    ItemRef::new(page, 0, page.len(), handle)
}

fn blank_page() -> TBytes {
    let page = TBytes::zeroed(256);
    let it = item(&page);
    let mut ctx = Ctx::Direct;
    it.set_sizes(&mut ctx, sizes()).unwrap();
    it.write_key(&mut ctx, b"hello").unwrap();
    it.set_refcount(&mut ctx, 3).unwrap();
    page
}

fn full_page() -> TBytes {
    let page = blank_page();
    let it = item(&page);
    let p = post_stage();
    it.write_suffix(&mut Ctx::Direct, &p, sizes(), FLAGS)
        .unwrap();
    it.write_value(&mut Ctx::Direct, &p, sizes(), VALUE)
        .unwrap();
    page
}

fn bytes(page: &TBytes) -> Vec<u8> {
    page.to_vec_direct()
}

#[test]
fn item_suffix_is_rendered_the_same_by_both_clones() {
    let (_, page) = three_ways(
        blank_page,
        |c, p, page| item(page).write_suffix(c, p, sizes(), FLAGS),
        bytes,
    );
    let off = HDR_BYTES + 5;
    assert_eq!(&page[off..off + sizes().nsuffix as usize], b" 7 11\r\n");
}

#[test]
fn item_sites_agree() {
    let (rc, _) = three_ways(full_page, |c, p, page| item(page).refcount(c, p), |_| ());
    assert_eq!(rc, 3);
    let (eq, _) = three_ways(
        full_page,
        |c, p, page| {
            let it = item(page);
            Ok((it.key_eq(c, p, b"hello", 5)?, it.key_eq(c, p, b"hellx", 5)?))
        },
        |_| (),
    );
    assert_eq!(eq, (true, false));
    let (_, written) = three_ways(
        blank_page,
        |c, p, page| item(page).write_value(c, p, sizes(), VALUE),
        bytes,
    );
    let off = HDR_BYTES + 5 + sizes().nsuffix as usize;
    assert_eq!(&written[off..off + VALUE.len()], VALUE);
    let (read, _) = three_ways(
        full_page,
        |c, p, page| item(page).read_value(c, p, sizes()),
        |_| (),
    );
    assert_eq!(read, VALUE);
}

/// A core holding `n = 41` and `x = 4x`.
fn arith_core() -> CacheCore {
    let core = CacheCore::new(
        SlabConfig {
            mem_limit: 256 << 10,
            page_size: 16 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        6,
        10,
        4,
        &Profiler::new(),
    );
    let p = post_stage();
    let mut ctx = Ctx::Direct;
    for (key, value) in [(&b"n"[..], &b"41"[..]), (b"x", b"4x")] {
        let hv = jenkins_hash(key, 0);
        let h = core
            .alloc_item(&mut ctx, &p, key, 0, 0, value.len() as u32, 1, usize::MAX)
            .unwrap()
            .unwrap();
        let it = core.arena.resolve(h);
        let sizes = it.sizes(&mut ctx).unwrap();
        it.write_value(&mut ctx, &p, sizes, value).unwrap();
        core.link_item(&mut ctx, &p, h, hv).unwrap();
        core.item_release(&mut ctx, &p, h).unwrap();
    }
    core
}

#[test]
fn arith_parse_and_write_back_agree() {
    let value = |core: &CacheCore| {
        let hv = jenkins_hash(b"n", 0);
        let hit = core.item_get(&mut Ctx::Direct, &post_stage(), b"n", hv, 1, false);
        hit.unwrap().map(|h| h.value)
    };
    let (outcome, after) = three_ways(
        arith_core,
        |c, p, core| {
            let incr = core.arith(c, p, b"n", jenkins_hash(b"n", 0), 1, true, 1)?;
            let bad = core.arith(c, p, b"x", jenkins_hash(b"x", 0), 1, true, 1)?;
            Ok((incr.map(|r| r.map(|(v, _cas)| v)), bad))
        },
        value,
    );
    assert_eq!(outcome, (Some(Ok(42)), Some(Err(()))));
    assert_eq!(after.as_deref(), Some(&b"42"[..]));
}
