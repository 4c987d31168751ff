//! Maintenance-thread behavior: hash-table expansion and slab rebalancing
//! under live traffic, in both condition-synchronization styles (§3.2) and
//! the transactional branches.

use std::time::{Duration, Instant};

use mcache::{Branch, McCache, McConfig, McHandle, SlabConfig, Stage, StoreMode, StoreOp, StoreStatus};

fn small(branch: Branch, hash_power: u32, hash_power_max: u32, mem: usize) -> McHandle {
    McCache::start(McConfig {
        branch,
        workers: 4,
        slab: SlabConfig {
            mem_limit: mem,
            page_size: 32 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power,
        hash_power_max,
        item_lock_power: 5,
        ..Default::default()
    })
}

fn wait_until(deadline: Duration, mut pred: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if pred() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    pred()
}

/// Expansion completes while workers keep hammering the table, and no key
/// is lost — for each condition-synchronization style.
fn expansion_under_load(branch: Branch) {
    let handle = small(branch, 5, 9, 8 << 20);
    let c = handle.cache().clone();
    // Fill well past the load factor from several threads.
    std::thread::scope(|s| {
        for w in 0..4usize {
            let c = c.clone();
            s.spawn(move || {
                for i in 0..150 {
                    let key = format!("load-{w}-{i}");
                    assert_eq!(
                        c.set(w, key.as_bytes(), b"payload-bytes", 0, 0),
                        mcache::StoreStatus::Stored
                    );
                }
            });
        }
    });
    // The maintenance thread must finish every pending migration.
    assert!(
        wait_until(Duration::from_secs(5), || c.stats().global.expansions >= 1),
        "{branch}: expansion never completed: {:?}",
        c.stats().global
    );
    // Nothing lost.
    for w in 0..4usize {
        for i in 0..150 {
            let key = format!("load-{w}-{i}");
            assert!(
                c.get(0, key.as_bytes()).is_some(),
                "{branch}: lost {key} across expansion"
            );
        }
    }
}

#[test]
fn expansion_under_load_baseline_condvars() {
    expansion_under_load(Branch::Baseline);
}

#[test]
fn expansion_under_load_semaphores() {
    expansion_under_load(Branch::Semaphore);
}

#[test]
fn expansion_under_load_transactional() {
    expansion_under_load(Branch::It(Stage::OnCommit));
}

#[test]
fn expansion_under_load_nolock() {
    expansion_under_load(Branch::IpNoLock);
}

/// The slab rebalancer moves a free page from a rich class to a needy one
/// when eviction pressure raises the signal.
fn rebalance_under_pressure(branch: Branch) {
    let handle = small(branch, 8, 9, 512 << 10);
    let c = handle.cache().clone();
    // Phase 1: fill with small values (small class takes the whole pool),
    // then delete them all (the class is now rich in free pages).
    for i in 0..800 {
        let key = format!("small-{i}");
        c.set(0, key.as_bytes(), &[1u8; 64], 0, 0);
    }
    for i in 0..800 {
        let key = format!("small-{i}");
        c.delete(0, key.as_bytes());
    }
    // Phase 2: demand a big class; the pool is exhausted so eviction and
    // the rebalance signal kick in.
    for i in 0..200 {
        let key = format!("big-{i}");
        let st = c.set(0, key.as_bytes(), &[2u8; 4000], 0, 0);
        let _ = st; // some may be OutOfMemory until the rebalancer helps
        std::thread::yield_now();
    }
    let moved = wait_until(Duration::from_secs(5), || {
        c.stats().global.rebalances >= 1 || {
            // Keep the pressure on while waiting.
            let st = c.set(0, b"big-extra", &[2u8; 4000], 0, 0);
            let _ = st;
            false
        }
    });
    assert!(
        moved,
        "{branch}: rebalancer never moved a page: {:?}",
        c.stats().global
    );
    // After rebalancing, big stores succeed.
    assert!(
        wait_until(Duration::from_secs(2), || c
            .set(0, b"big-final", &[3u8; 4000], 0, 0)
            == mcache::StoreStatus::Stored),
        "{branch}: big store still failing after rebalance"
    );
}

#[test]
fn rebalance_under_pressure_baseline() {
    rebalance_under_pressure(Branch::Baseline);
}

#[test]
fn rebalance_under_pressure_transactional() {
    rebalance_under_pressure(Branch::It(Stage::OnCommit));
}

#[test]
fn rebalance_under_pressure_semaphores() {
    rebalance_under_pressure(Branch::Semaphore);
}

#[test]
fn rebalance_under_pressure_nolock() {
    rebalance_under_pressure(Branch::IpNoLock);
}

/// One worker on a 256 KiB pool whose hash table never expands: only an
/// eviction could wake a maintenance thread.
fn evicting_pool(branch: Branch, magazine: usize, maintenance: bool) -> McHandle {
    McCache::start(McConfig {
        branch,
        workers: 1,
        slab: SlabConfig { mem_limit: 256 << 10, page_size: 32 << 10, chunk_min: 96, growth_factor: 1.5 },
        hash_power: 10,
        hash_power_max: 10,
        item_lock_power: 5,
        maintenance,
        magazine,
        ..Default::default()
    })
}

/// An eviction raises the rebalance request and wakes nobody. Once a small
/// pool evicts, a phase of evicting stores, lone and batched and every one
/// answered `Stored`, posts no maintenance signal: through the lock
/// branches' and IP's link section, IT's lone and batched stores, and the
/// magazine refill.
#[test]
fn evictions_wake_no_thread() {
    let configs = [
        (Branch::Baseline, 0),
        (Branch::Semaphore, 0),
        (Branch::IpNoLock, 0),
        (Branch::It(Stage::OnCommit), 0),
        (Branch::ItNoLock, 16),
    ];
    let value = [5u8; 1000];
    for (branch, magazine) in configs {
        let handle = evicting_pool(branch, magazine, true);
        let c = handle.cache();
        let keys: Vec<String> = (0..2000).map(|i| format!("evict-{i}")).collect();
        let mut keys = keys.iter().map(|k| k.as_bytes());
        while c.stats().global.evictions == 0 {
            assert_eq!(c.set(0, keys.next().expect("the pool fills"), &value, 0, 0), StoreStatus::Stored);
        }
        let before = c.stats().global;
        for _ in 0..100 {
            assert_eq!(c.set(0, keys.next().unwrap(), &value, 0, 0), StoreStatus::Stored, "{branch}");
            let ops: Vec<StoreOp<'_>> = keys
                .by_ref()
                .take(3)
                .map(|key| StoreOp { mode: StoreMode::Set, key, value: &value, flags: 0, exptime: 0 })
                .collect();
            assert_eq!(c.store_batch(0, &ops), [StoreStatus::Stored; 3], "{branch}");
        }
        let after = c.stats().global;
        assert!(after.evictions >= before.evictions + 100, "{branch}/mag{magazine}: {after:?}");
        assert_eq!(
            after.maintenance_signals, before.maintenance_signals,
            "{branch}/mag{magazine}: an eviction woke a maintenance thread"
        );
    }
}

/// With maintenance off, a SET that evicts runs the transactions of one
/// that does not: the `set` column of `tx_shapes.rs`.
#[test]
fn an_evicting_set_runs_the_transactions_of_any_set() {
    for (branch, txns) in [(Branch::IpNoLock, 6), (Branch::ItNoLock, 3)] {
        let handle = evicting_pool(branch, 0, false);
        let c = handle.cache();
        let mut evicting = 0;
        for i in 0..2000 {
            let (tm, evictions) = (c.tm_stats(), c.stats().global.evictions);
            let key = format!("evict-{i}");
            assert_eq!(c.set(0, key.as_bytes(), &[5u8; 1000], 0, 0), StoreStatus::Stored);
            assert_eq!(c.tm_stats().since(&tm).transactions(), txns, "{branch}: SET {i}");
            if c.stats().global.evictions > evictions {
                evicting += 1;
            }
        }
        assert!(evicting >= 1000, "{branch}: only {evicting} of the SETs evicted");
    }
}

/// Class B (2 000 B values) takes one page and five items; class A (300 B
/// values) takes the rest of the pool and then loses every item to
/// deletes, so it holds whole free pages. B's next stores evict B's own
/// items, every one answered `Stored` and none out of memory, and only
/// raise the rebalance request: the rebalancer's timed pass must still
/// move one of A's pages to B, with no maintenance signal posted.
fn rebalance_without_out_of_memory(branch: Branch, c: &McCache) {
    let store = |key: String, len: usize| {
        assert_eq!(c.set(0, key.as_bytes(), &vec![7u8; len], 0, 0), StoreStatus::Stored, "{branch}: {key}");
    };
    (0..5).for_each(|i| store(format!("b-{i}"), 2000));
    (0..1200).for_each(|i| store(format!("a-{i}"), 300));
    assert!(c.stats().global.evictions > 0, "{branch}: class A never filled the pool");
    for i in 0..1200 {
        c.delete(0, format!("a-{i}").as_bytes());
    }
    let before = c.stats().global;
    (5..100).for_each(|i| store(format!("b-{i}"), 2000));
    assert!(c.stats().global.evictions > before.evictions, "{branch}: class B never evicted");
    assert!(
        wait_until(Duration::from_secs(2), || c.stats().global.rebalances > before.rebalances),
        "{branch}: no page moved on a timed pass: {:?}",
        c.stats().global
    );
    assert_eq!(c.stats().global.maintenance_signals, before.maintenance_signals, "{branch}");
}

#[test]
fn rebalance_without_out_of_memory_semaphores() {
    rebalance_without_out_of_memory(Branch::Semaphore, &small(Branch::Semaphore, 10, 10, 512 << 10));
}

#[test]
fn rebalance_without_out_of_memory_nolock() {
    rebalance_without_out_of_memory(Branch::IpNoLock, &small(Branch::IpNoLock, 10, 10, 512 << 10));
}

#[test]
fn rebalance_without_out_of_memory_transactional() {
    let branch = Branch::It(Stage::OnCommit);
    rebalance_without_out_of_memory(branch, &small(branch, 10, 10, 512 << 10));
}

/// A rebalance pass that panics while it holds the rebalance lock (the
/// transactional boolean on these branches) lets go of it: the re-entered
/// loop still moves a page under pressure.
#[test]
fn a_panicking_rebalance_pass_releases_the_rebalance_lock() {
    for branch in [Branch::IpNoLock, Branch::It(Stage::OnCommit)] {
        let handle = small(branch, 10, 10, 512 << 10);
        handle.trip_slab_panic();
        assert!(
            wait_until(Duration::from_secs(5), || handle.maintenance_panics() >= 1),
            "{branch}: the trap never fired"
        );
        rebalance_without_out_of_memory(branch, &handle);
    }
}

#[test]
fn maintenance_threads_shut_down_cleanly() {
    // Handle drop must join both maintenance threads promptly even when
    // nothing signaled them.
    let started = Instant::now();
    for branch in [Branch::Baseline, Branch::Semaphore, Branch::ItNoLock] {
        let handle = small(branch, 6, 8, 1 << 20);
        handle.set(0, b"k", b"v", 0, 0);
        drop(handle);
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "shutdown took too long (maintenance threads stuck)"
    );
}

/// A panic inside either maintenance loop must not leave the cache without
/// its maintenance thread: the supervisor counts the panic and re-enters
/// the loop, and a hash expansion driven afterwards still completes.
#[test]
fn maintenance_threads_respawn_after_panic() {
    let handle = small(Branch::Semaphore, 5, 9, 8 << 20);
    let c = handle.cache().clone();
    assert_eq!(c.maintenance_panics(), 0);
    // Trip both loops; they wake on their poll timeouts (20/25 ms) even
    // without a signal, hit the trap, and get respawned.
    c.trip_assoc_panic();
    c.trip_slab_panic();
    assert!(
        wait_until(Duration::from_secs(5), || c.maintenance_panics() >= 2),
        "supervisor caught {} panics, expected 2",
        c.maintenance_panics()
    );
    // The respawned assoc thread still drives a real expansion to
    // completion under load.
    std::thread::scope(|s| {
        for w in 0..4usize {
            let c = c.clone();
            s.spawn(move || {
                for i in 0..150 {
                    let key = format!("respawn-{w}-{i}");
                    assert_eq!(
                        c.set(w, key.as_bytes(), b"payload-bytes", 0, 0),
                        mcache::StoreStatus::Stored
                    );
                }
            });
        }
    });
    assert!(
        wait_until(Duration::from_secs(5), || c.stats().global.expansions >= 1),
        "expansion never completed after respawn: {:?}",
        c.stats().global
    );
    assert!(
        c.get(0, b"respawn-0-0").is_some(),
        "data lost across the panicked maintenance wakeups"
    );
    assert_eq!(c.stats().maintenance_panics, 2);
}

#[test]
fn concurrent_expansion_and_deletes() {
    // Deleting while migrating must neither lose unrelated keys nor leave
    // phantoms.
    let handle = small(Branch::Ip(Stage::OnCommit), 5, 9, 8 << 20);
    let c = handle.cache().clone();
    let keep: Vec<String> = (0..200).map(|i| format!("keep-{i}")).collect();
    let churn: Vec<String> = (0..200).map(|i| format!("churn-{i}")).collect();
    for k in keep.iter().chain(churn.iter()) {
        c.set(0, k.as_bytes(), b"v", 0, 0);
    }
    std::thread::scope(|s| {
        let c1 = c.clone();
        let churn2 = churn.clone();
        s.spawn(move || {
            for k in &churn2 {
                c1.delete(1, k.as_bytes());
            }
        });
        let c2 = c.clone();
        s.spawn(move || {
            for i in 0..300 {
                // More inserts to drive expansion during the deletes.
                let key = format!("drive-{i}");
                c2.set(2, key.as_bytes(), b"v", 0, 0);
            }
        });
    });
    std::thread::sleep(Duration::from_millis(200));
    for k in &keep {
        assert!(c.get(0, k.as_bytes()).is_some(), "lost {k}");
    }
    for k in &churn {
        assert!(c.get(0, k.as_bytes()).is_none(), "phantom {k}");
    }
}
