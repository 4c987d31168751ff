//! A single request is a run of one.
//!
//! `get_multi` and `store_batch` are the one driver of their operation,
//! and a lone `get` or store is their n = 1 case. So on every branch, with
//! magazines off and on, a one-element batch call must answer exactly like
//! the single call and cost exactly its transactions, and a lone ASCII
//! `get` or `set` through the protocol pipeline (which always runs the
//! batch drivers) must keep the single request's bytes and the commits
//! recorded before it did. Each pair runs on two identically warmed
//! single-worker caches with maintenance off, so any difference is the
//! code path's.

use mcache::proto::execute_ascii;
use mcache::{Branch, CacheStats, McCache, McConfig, McHandle, SlabConfig, StoreMode, StoreOp};

/// `(transactions, in_flight_switch, start_serial, read_only_commits,
/// commits)`.
type Shape = (u64, u64, u64, u64, u64);

fn config(branch: Branch, magazine: usize) -> McConfig {
    McConfig {
        branch,
        workers: 1,
        slab: SlabConfig {
            mem_limit: 4 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 8,
        hash_power_max: 8,
        item_lock_power: 6,
        maintenance: false,
        magazine,
        ..Default::default()
    }
}

/// A warm cache: a few keys stored and read back, so first-use work
/// (page carving, the first magazine refill) is behind it.
fn warm(branch: Branch, magazine: usize) -> McHandle {
    let c = McCache::start(config(branch, magazine));
    for (k, v) in [(&b"a"[..], &b"va"[..]), (b"b", b"vb"), (b"s", b"vs")] {
        c.set(0, k, v, 0, 0);
        assert!(c.get(0, k).is_some());
    }
    c
}

/// Runs `f` on a freshly warmed cache: what it returned, its `tm_stats`
/// delta, and the cache counters afterwards.
fn measure<R>(
    branch: Branch,
    magazine: usize,
    f: impl FnOnce(&McCache) -> R,
) -> (R, Shape, CacheStats) {
    let c = warm(branch, magazine);
    let before = c.tm_stats();
    let r = f(&c);
    let d = c.tm_stats().since(&before);
    let shape = (
        d.transactions(),
        d.in_flight_switch,
        d.start_serial,
        d.read_only_commits,
        d.commits,
    );
    (r, shape, c.stats())
}

/// Every branch, magazines off and on (ignored off IT, where there are
/// none).
fn configs() -> Vec<(Branch, usize)> {
    Branch::all()
        .into_iter()
        .flat_map(|b| [(b, 0), (b, 16)])
        .collect()
}

/// Both sides of a pair agree on result, transactions and counters.
fn assert_same<R: PartialEq + std::fmt::Debug>(
    what: &str,
    branch: Branch,
    magazine: usize,
    one: (R, Shape, CacheStats),
    run: (R, Shape, CacheStats),
) {
    let ctx = format!("{branch} magazine {magazine}: {what}");
    assert_eq!(one.0, run.0, "{ctx}: results");
    assert_eq!(
        one.1, run.1,
        "{ctx}: (transactions, in-flight switches, start serial, read-only commits, commits)"
    );
    assert_eq!(one.2, run.2, "{ctx}: cache counters");
}

#[test]
fn a_one_key_get_multi_is_a_get() {
    for (branch, magazine) in configs() {
        for (what, key) in [("hit", &b"a"[..]), ("miss", b"zz")] {
            let one = measure(branch, magazine, |c| c.get(0, key));
            let run = measure(branch, magazine, |c| {
                c.get_multi(0, &[key]).pop().expect("one value")
            });
            assert_eq!(one.0.is_some(), what == "hit", "{branch}: {what}");
            assert_same(what, branch, magazine, one, run);
        }
    }
}

#[test]
fn a_one_op_store_batch_is_a_store() {
    for (branch, magazine) in configs() {
        // The CAS id "s" holds on every warm cache, then one that is stale.
        let cas = warm(branch, magazine).get(0, b"s").expect("warm").cas;
        let cases = [
            ("stored", StoreMode::Set, &b"a"[..]),
            ("not stored", StoreMode::Add, b"b"),
            ("exists", StoreMode::Cas(cas + 1), b"s"),
        ];
        for (what, mode, key) in cases {
            let op = StoreOp {
                mode,
                key,
                value: b"new",
                flags: 3,
                exptime: 0,
            };
            let one = measure(branch, magazine, |c| {
                let st = match mode {
                    StoreMode::Set => c.set(0, key, op.value, op.flags, 0),
                    StoreMode::Add => c.add(0, key, op.value, op.flags, 0),
                    StoreMode::Replace => c.replace(0, key, op.value, op.flags, 0),
                    StoreMode::Cas(id) => c.cas(0, key, op.value, op.flags, 0, id),
                };
                (st, c.get(0, key).map(|v| (v.data, v.flags)))
            });
            let run = measure(branch, magazine, |c| {
                let st = c.store_batch(0, &[op]);
                assert_eq!(st.len(), 1);
                (st[0], c.get(0, key).map(|v| (v.data, v.flags)))
            });
            assert_same(what, branch, magazine, one, run);
        }
    }
}

/// The shapes of a lone ASCII `get a` (a hit) and `set a`, per
/// [`configs`] row: recorded when the protocol executor still called `get`
/// and the single store for a run of one, before both became n = 1 runs of
/// the batch drivers.
#[rustfmt::skip]
const LONE: [(Shape, Shape); 28] = [
    ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ((0, 0, 0, 0, 0), (0, 0, 0, 0, 0)),
    ((4, 0, 0, 0, 4), (6, 0, 2, 0, 6)),
    ((4, 0, 0, 0, 4), (6, 0, 2, 0, 6)),
    ((1, 0, 1, 0, 1), (3, 0, 3, 0, 3)),
    ((1, 0, 1, 0, 1), (1, 0, 1, 0, 1)),
    ((4, 0, 0, 0, 4), (6, 0, 2, 0, 6)),
    ((4, 0, 0, 0, 4), (6, 0, 2, 0, 6)),
    ((1, 0, 1, 0, 1), (3, 0, 3, 0, 3)),
    ((1, 0, 1, 0, 1), (1, 0, 1, 0, 1)),
    ((4, 0, 0, 0, 4), (6, 2, 0, 0, 6)),
    ((4, 0, 0, 0, 4), (6, 2, 0, 0, 6)),
    ((1, 1, 0, 0, 1), (3, 2, 1, 0, 3)),
    ((1, 1, 0, 0, 1), (1, 0, 1, 0, 1)),
    ((4, 0, 0, 0, 4), (6, 0, 0, 0, 6)),
    ((4, 0, 0, 0, 4), (6, 0, 0, 0, 6)),
    ((1, 0, 0, 0, 1), (3, 0, 0, 0, 3)),
    ((1, 0, 0, 0, 1), (1, 0, 0, 0, 1)),
    ((4, 0, 0, 0, 4), (6, 0, 0, 0, 6)),
    ((4, 0, 0, 0, 4), (6, 0, 0, 0, 6)),
    ((1, 0, 0, 0, 1), (3, 0, 0, 0, 3)),
    ((1, 0, 0, 0, 1), (1, 0, 0, 0, 1)),
    ((4, 0, 0, 0, 4), (6, 0, 0, 0, 6)),
    ((4, 0, 0, 0, 4), (6, 0, 0, 0, 6)),
    ((1, 0, 0, 0, 1), (3, 0, 0, 0, 3)),
    ((1, 0, 0, 0, 1), (1, 0, 0, 0, 1)),
];

#[test]
fn a_lone_ascii_get_or_set_keeps_the_single_request_shape() {
    let mut got = Vec::new();
    for (branch, magazine) in configs() {
        let one = measure(branch, magazine, |c| {
            let v = c.get(0, b"a").expect("warm");
            format!(
                "VALUE a {} {}\r\n{}\r\nEND\r\n",
                v.flags,
                v.data.len(),
                String::from_utf8_lossy(&v.data)
            )
            .into_bytes()
        });
        let get = measure(branch, magazine, |c| execute_ascii(c, 0, b"get a\r\n"));
        let get_shape = get.1;
        assert_same("lone get", branch, magazine, one, get);

        let one = measure(branch, magazine, |c| {
            assert_eq!(c.set(0, b"a", b"va2", 5, 0), mcache::StoreStatus::Stored);
            b"STORED\r\n".to_vec()
        });
        let set = measure(branch, magazine, |c| {
            execute_ascii(c, 0, b"set a 5 0 3\r\nva2\r\n")
        });
        let set_shape = set.1;
        assert_same("lone set", branch, magazine, one, set);
        got.push((get_shape, set_shape));
    }
    let now: String = got.iter().map(|r| format!("    {r:?},\n")).collect();
    assert!(got == LONE, "lone request shapes moved; now:\n{now}");
}
