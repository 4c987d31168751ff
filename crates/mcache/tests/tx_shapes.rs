//! Transaction shapes, op by op.
//!
//! `tablecheck` pins the serialization profile of a get/set/delete/incr
//! stream; this pins every public operation on every branch, one call at a
//! time: how many transactions it runs, how many of them switch in flight,
//! start serial, or commit read-only. Single worker, maintenance off, so
//! each delta is a pure function of the code path taken. The table is the
//! paper's branch history in miniature (IP multiplies small transactions,
//! IT starts serial until Lib, nothing serializes from onCommit on) and a
//! refactor of the operation drivers must leave it untouched.

use mcache::{Branch, McCache, McConfig, SlabConfig, Stage, StoreMode, StoreOp};

/// `(transactions, in_flight_switch, start_serial, read_only_commits)`.
type Shape = (u64, u64, u64, u64);

const OPS: [&str; 16] = [
    "get hit",
    "get miss",
    "set",
    "add exists",
    "replace",
    "cas hit",
    "cas stale",
    "append",
    "delete hit",
    "delete miss",
    "incr",
    "touch",
    "get_multi x2",
    "store_batch x2",
    "get hit + lru bump",
    "flush_all",
];

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

/// Runs every op once on a warm cache and returns its `tm_stats` delta.
fn shapes(branch: Branch, magazine: usize) -> [Shape; 16] {
    let c = McCache::start(config(branch, magazine));
    for (k, v) in [(&b"a"[..], &b"va"[..]), (b"b", b"vb"), (b"n", b"41"), (b"s", b"vs")] {
        c.set(0, k, v, 0, 0);
    }
    // Takes the worker's first LRU-bump slot (op 0) and fetches the CAS id
    // the two cas rows use.
    let cas_s = c.get(0, b"s").expect("warm").cas;
    let mut out = [(0, 0, 0, 0); 16];
    let mut i = 0;
    let mut measure = |f: &mut dyn FnMut()| {
        let before = c.tm_stats();
        f();
        let d = c.tm_stats().since(&before);
        out[i] = (d.transactions(), d.in_flight_switch, d.start_serial, d.read_only_commits);
        i += 1;
    };
    measure(&mut || assert!(c.get(0, b"a").is_some()));
    measure(&mut || assert!(c.get(0, b"zz").is_none()));
    measure(&mut || _ = c.set(0, b"a", b"va2", 0, 0));
    measure(&mut || _ = c.add(0, b"a", b"nope", 0, 0));
    measure(&mut || _ = c.replace(0, b"a", b"va3", 0, 0));
    measure(&mut || _ = c.cas(0, b"s", b"vs2", 0, 0, cas_s));
    measure(&mut || _ = c.cas(0, b"s", b"vs3", 0, 0, cas_s));
    measure(&mut || _ = c.append(0, b"a", b"-tail"));
    measure(&mut || assert!(c.delete(0, b"b")));
    measure(&mut || assert!(!c.delete(0, b"b")));
    measure(&mut || _ = c.arith(0, b"n", 1, true));
    measure(&mut || assert!(c.touch(0, b"a", 1_000_000)));
    measure(&mut || assert_eq!(c.get_multi(0, &[b"a", b"n"]).iter().flatten().count(), 2));
    measure(&mut || {
        let ops = [
            StoreOp { mode: StoreMode::Set, key: b"x", value: b"vx", flags: 0, exptime: 0 },
            StoreOp { mode: StoreMode::Add, key: b"a", value: b"no", flags: 0, exptime: 0 },
        ];
        c.store_batch(0, &ops);
    });
    // This worker's gets so far: warm, hit, miss, append's, two batched.
    // Two more make the next one the eighth — the default LRU-bump slot.
    // "s" is not its LRU's head, so the bump section always writes.
    c.get(0, b"zz");
    c.get(0, b"zz");
    measure(&mut || assert!(c.get(0, b"s").is_some()));
    measure(&mut || c.flush_all(0));
    out
}

/// Recorded at the parent of the PR that introduced the mutation pipeline
/// (commit 79eaf59) and unchanged since.
#[rustfmt::skip]
const GOLDEN: &[(&str, [Shape; 16])] = &[
    ("Baseline", [(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)]),
    ("Semaphore", [(0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)]),
    ("IP", [(4, 0, 0, 0), (4, 0, 0, 0), (6, 0, 2, 0), (6, 0, 2, 0), (6, 0, 2, 0), (6, 0, 2, 0), (6, 0, 2, 0), (10, 0, 2, 0), (5, 0, 1, 0), (5, 0, 1, 0), (4, 0, 0, 0), (4, 0, 0, 0), (8, 0, 0, 0), (12, 0, 4, 0), (5, 1, 0, 0), (2, 0, 0, 0)]),
    ("IT", [(1, 0, 1, 0), (1, 0, 1, 0), (3, 0, 3, 0), (3, 0, 3, 0), (3, 0, 3, 0), (3, 0, 3, 0), (3, 0, 3, 0), (4, 0, 4, 0), (1, 0, 1, 0), (1, 0, 1, 0), (1, 0, 1, 0), (3, 0, 1, 0), (1, 0, 1, 0), (3, 0, 3, 0), (2, 1, 1, 0), (2, 0, 0, 0)]),
    ("IP-Callable", [(4, 0, 0, 0), (4, 0, 0, 0), (6, 0, 2, 0), (6, 0, 2, 0), (6, 0, 2, 0), (6, 0, 2, 0), (6, 0, 2, 0), (10, 0, 2, 0), (5, 0, 1, 0), (5, 0, 1, 0), (4, 0, 0, 0), (4, 0, 0, 0), (8, 0, 0, 0), (12, 0, 4, 0), (5, 1, 0, 0), (2, 0, 0, 0)]),
    ("IT-Callable", [(1, 0, 1, 0), (1, 0, 1, 0), (3, 0, 3, 0), (3, 0, 3, 0), (3, 0, 3, 0), (3, 0, 3, 0), (3, 0, 3, 0), (4, 0, 4, 0), (1, 0, 1, 0), (1, 0, 1, 0), (1, 0, 1, 0), (3, 0, 1, 0), (1, 0, 1, 0), (3, 0, 3, 0), (2, 1, 1, 0), (2, 0, 0, 0)]),
    ("IP-Max", [(4, 0, 0, 0), (4, 0, 0, 0), (6, 2, 0, 0), (6, 2, 0, 0), (6, 2, 0, 0), (6, 2, 0, 0), (6, 2, 0, 0), (10, 2, 0, 0), (5, 1, 0, 0), (5, 0, 0, 1), (4, 0, 0, 0), (4, 0, 0, 0), (8, 0, 0, 0), (12, 3, 0, 0), (5, 1, 0, 0), (2, 0, 0, 0)]),
    ("IT-Max", [(1, 1, 0, 0), (1, 0, 0, 1), (3, 2, 1, 0), (3, 2, 1, 0), (3, 2, 1, 0), (3, 2, 1, 0), (3, 2, 1, 0), (4, 3, 1, 0), (1, 1, 0, 0), (1, 0, 0, 0), (1, 1, 0, 0), (3, 1, 0, 0), (1, 1, 0, 0), (3, 2, 1, 0), (2, 2, 0, 0), (2, 0, 0, 0)]),
    ("IP-Lib", [(4, 0, 0, 0), (4, 0, 0, 0), (6, 0, 0, 0), (6, 0, 0, 1), (6, 0, 0, 0), (6, 0, 0, 0), (6, 0, 0, 1), (10, 0, 0, 0), (5, 0, 0, 0), (5, 0, 0, 1), (4, 0, 0, 0), (4, 0, 0, 0), (8, 0, 0, 0), (12, 0, 0, 1), (5, 0, 0, 0), (2, 0, 0, 0)]),
    ("IT-Lib", [(1, 0, 0, 0), (1, 0, 0, 1), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (3, 0, 0, 0), (1, 0, 0, 0), (3, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0)]),
    ("IP-onCommit", [(4, 0, 0, 0), (4, 0, 0, 0), (6, 0, 0, 0), (6, 0, 0, 1), (6, 0, 0, 0), (6, 0, 0, 0), (6, 0, 0, 1), (10, 0, 0, 0), (5, 0, 0, 0), (5, 0, 0, 1), (4, 0, 0, 0), (4, 0, 0, 0), (8, 0, 0, 0), (12, 0, 0, 1), (5, 0, 0, 0), (2, 0, 0, 0)]),
    ("IT-onCommit", [(1, 0, 0, 0), (1, 0, 0, 1), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (3, 0, 0, 0), (1, 0, 0, 0), (3, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0)]),
    ("IP-NoLock", [(4, 0, 0, 0), (4, 0, 0, 0), (6, 0, 0, 0), (6, 0, 0, 1), (6, 0, 0, 0), (6, 0, 0, 0), (6, 0, 0, 1), (10, 0, 0, 0), (5, 0, 0, 0), (5, 0, 0, 1), (4, 0, 0, 0), (4, 0, 0, 0), (8, 0, 0, 0), (12, 0, 0, 1), (5, 0, 0, 0), (2, 0, 0, 0)]),
    ("IT-NoLock", [(1, 0, 0, 0), (1, 0, 0, 1), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (3, 0, 0, 0), (4, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (3, 0, 0, 0), (1, 0, 0, 0), (3, 0, 0, 0), (2, 0, 0, 0), (2, 0, 0, 0)]),
    ("IT-onCommit+mag64", [(1, 0, 0, 0), (1, 0, 0, 1), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (3, 0, 0, 0), (1, 0, 0, 0), (1, 0, 0, 0), (2, 0, 0, 0), (3, 0, 0, 0)]),
];

#[test]
fn every_op_on_every_branch_keeps_its_transaction_shape() {
    let mut configs: Vec<(String, Branch, usize)> =
        Branch::all().into_iter().map(|b| (b.to_string(), b, 0)).collect();
    configs.push(("IT-onCommit+mag64".into(), Branch::It(Stage::OnCommit), 64));

    let actual: Vec<(String, [Shape; 16])> =
        configs.into_iter().map(|(name, b, mag)| (name, shapes(b, mag))).collect();
    let mut diffs = Vec::new();
    for (k, (name, row)) in actual.iter().enumerate() {
        match GOLDEN.get(k) {
            Some((gname, grow)) if gname == name => {
                for (op, (got, want)) in OPS.iter().zip(row.iter().zip(grow)) {
                    if got != want {
                        diffs.push(format!("{name} / {op}: got {got:?}, recorded {want:?}"));
                    }
                }
            }
            _ => diffs.push(format!("{name}: no recorded row")),
        }
    }
    if !diffs.is_empty() || actual.len() != GOLDEN.len() {
        let mut table = String::new();
        for (name, row) in &actual {
            table.push_str(&format!("    ({name:?}, {row:?}),\n"));
        }
        panic!(
            "transaction shapes moved (txns, in-flight, start-serial, read-only):\n{}\nfull table:\n{table}",
            diffs.join("\n")
        );
    }
}
