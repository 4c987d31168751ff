//! End-to-end integration: the memslap-style workload driven through every
//! branch of the cache, with payload verification and bookkeeping
//! invariants checked afterwards.

use std::sync::Arc;

use mcache::{Branch, McCache, McConfig, SlabConfig};
use workload::{Op, OpMix, Workload};

fn config(branch: Branch, workers: usize) -> McConfig {
    McConfig {
        branch,
        workers,
        slab: SlabConfig {
            mem_limit: 8 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 7,
        hash_power_max: 10,
        item_lock_power: 6,
        ..Default::default()
    }
}

fn drive(branch: Branch, threads: usize, ops: usize) -> Arc<McCache> {
    let wl = Arc::new(
        Workload::builder()
            .concurrency(threads)
            .execute_number(ops)
            .key_count(300)
            .value_size(128)
            .mix(OpMix {
                get: 8,
                set: 2,
                delete: 1,
                incr: 0,
            })
            .build(),
    );
    let handle = McCache::start(config(branch, threads));
    let cache = handle.cache().clone();
    for i in 0..wl.key_count() {
        cache.set(0, wl.key(i), &wl.value(i), 0, 0);
    }
    std::thread::scope(|s| {
        for w in 0..threads {
            let cache = cache.clone();
            let wl = wl.clone();
            s.spawn(move || {
                for op in wl.stream(w) {
                    match op {
                        Op::Get(k) => {
                            if let Some(v) = cache.get(w, wl.key(k)) {
                                assert!(
                                    wl.verify_value(k, &v.data),
                                    "{branch}: corrupt payload for key {k}: {} bytes",
                                    v.data.len()
                                );
                            }
                        }
                        Op::Set(k) => {
                            cache.set(w, wl.key(k), &wl.value(k), 0, 0);
                        }
                        Op::Delete(k) => {
                            cache.delete(w, wl.key(k));
                        }
                        Op::Incr(k, d) => {
                            cache.arith(w, wl.key(k), d, true);
                        }
                    }
                }
            });
        }
    });
    cache
}

#[test]
fn lock_branches_end_to_end() {
    for branch in [Branch::Baseline, Branch::Semaphore] {
        let cache = drive(branch, 4, 400);
        let s = cache.stats();
        // 4 threads x 400 ops + the 300 preload sets.
        assert_eq!(s.threads.total_cmds(), 1900, "{branch}");
        assert!(s.threads.get_hits > 0, "{branch}");
        assert_eq!(cache.tm_stats().commits, 0, "{branch} must not run transactions");
    }
}

#[test]
fn transactional_branches_end_to_end() {
    use mcache::Stage;
    for branch in [
        Branch::Ip(Stage::Plain),
        Branch::It(Stage::Plain),
        Branch::Ip(Stage::Max),
        Branch::It(Stage::Max),
        Branch::Ip(Stage::Lib),
        Branch::It(Stage::Lib),
        Branch::Ip(Stage::OnCommit),
        Branch::It(Stage::OnCommit),
    ] {
        let cache = drive(branch, 4, 250);
        let s = cache.stats();
        // 4 threads x 250 ops + the 300 preload sets.
        assert_eq!(s.threads.total_cmds(), 1300, "{branch}");
        let tm = cache.tm_stats();
        assert!(tm.commits > 0, "{branch}");
        // Bookkeeping: begins = commits + aborts + cancels.
        assert_eq!(
            tm.begins,
            tm.commits + tm.aborts + tm.cancels,
            "{branch}: attempt accounting broken: {tm:?}"
        );
    }
}

#[test]
fn nolock_branches_never_serialize() {
    for branch in [Branch::IpNoLock, Branch::ItNoLock] {
        let cache = drive(branch, 4, 250);
        let tm = cache.tm_stats();
        assert_eq!(tm.in_flight_switch, 0, "{branch}: {tm:?}");
        assert_eq!(tm.start_serial, 0, "{branch}: {tm:?}");
        assert_eq!(tm.abort_serial, 0, "{branch}: {tm:?}");
        assert_eq!(tm.irrevocable_commits, 0, "{branch}: {tm:?}");
    }
}

#[test]
fn oncommit_branch_uses_handlers_not_serialization() {
    use mcache::Stage;
    let cache = drive(Branch::It(Stage::OnCommit), 2, 400);
    let tm = cache.tm_stats();
    assert_eq!(tm.in_flight_switch + tm.start_serial, 0, "{tm:?}");
    assert!(
        tm.commit_handlers_run > 0,
        "sem_post must have moved to onCommit handlers: {tm:?}"
    );
}

#[test]
fn counters_are_consistent_after_load() {
    use mcache::Stage;
    for branch in [Branch::Baseline, Branch::Ip(Stage::OnCommit), Branch::ItNoLock] {
        let cache = drive(branch, 2, 500);
        let s = cache.stats();
        // curr_items is bounded by total_items and by the keyspace (no
        // phantom items).
        assert!(s.global.curr_items <= s.global.total_items, "{branch}: {s:?}");
        assert!(s.global.curr_items <= 300 + 1, "{branch}: {s:?}");
        assert_eq!(
            s.threads.get_cmds,
            s.threads.get_hits + s.threads.get_misses,
            "{branch}"
        );
        assert_eq!(s.global.cmd_total, s.threads.total_cmds(), "{branch}");
    }
}

#[test]
fn all_algorithms_run_the_cache() {
    use tm::Algorithm;
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        let mut cfg = config(Branch::IpNoLock, 2);
        cfg.algorithm = algo;
        let handle = McCache::start(cfg);
        let c = handle.cache().clone();
        std::thread::scope(|s| {
            for w in 0..2 {
                let c = c.clone();
                s.spawn(move || {
                    for i in 0..200u32 {
                        let key = format!("algo-{}", i % 20);
                        if i % 3 == 0 {
                            c.set(w, key.as_bytes(), b"payload", 0, 0);
                        } else {
                            c.get(w, key.as_bytes());
                        }
                    }
                });
            }
        });
        assert!(c.tm_stats().commits > 0, "{algo}");
        assert!(c.get(0, b"algo-0").is_some() || c.get(0, b"algo-1").is_some(), "{algo}");
    }
}

/// Empty values whose items fill their chunk exactly: the rendered
/// suffix's C terminator must not land on the next chunk's link word
/// (it used to, and the next lookup tripped the hash-chain cycle assert).
#[test]
fn empty_values_in_exactly_fitting_chunks() {
    // 72-byte header + 18-byte key + " 0 0\r\n" = 96, the smallest chunk.
    let key = |i: usize| format!("key-{i:014}");
    for branch in [Branch::Baseline, Branch::IpNoLock, Branch::ItNoLock] {
        let c = McCache::start(config(branch, 1));
        for i in 0..500 {
            c.set(0, key(i).as_bytes(), b"", 0, 0);
        }
        for i in 0..500 {
            let hit = c.get(0, key(i).as_bytes());
            assert!(hit.is_some_and(|v| v.data.is_empty()), "{branch}: {}", key(i));
        }
    }
}
