//! Maintenance-thread behavior: hash-table expansion and slab rebalancing
//! under live traffic, in both condition-synchronization styles (§3.2) and
//! the transactional branches.

use std::time::{Duration, Instant};

use mcache::{Branch, McCache, McConfig, McHandle, SlabConfig, Stage};

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
