//! Qualitative invariants of the paper's Tables 1–4: which stage removes
//! which serialization cause, checked end-to-end through the cache.

use std::sync::Arc;

use mcache::{Branch, McCache, McConfig, SlabConfig, Stage};
use workload::{Op, Workload};
use tm::StatsSnapshot;

fn measure(branch: Branch) -> StatsSnapshot {
    let threads = 2;
    let wl = Arc::new(
        Workload::builder()
            .concurrency(threads)
            .execute_number(600)
            .key_count(400)
            .value_size(96)
            .build(),
    );
    let handle = McCache::start(McConfig {
        branch,
        workers: threads,
        slab: SlabConfig {
            mem_limit: 4 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        // Saturating table: the per-set maintenance-signal site fires, as
        // in the paper's Tables (one sem_post site per set).
        hash_power: 7,
        hash_power_max: 8,
        item_lock_power: 6,
        ..Default::default()
    });
    let cache = handle.cache().clone();
    for i in 0..wl.key_count() {
        cache.set(0, wl.key(i), &wl.value(i), 0, 0);
    }
    let before = cache.tm_stats();
    std::thread::scope(|s| {
        for w in 0..threads {
            let cache = cache.clone();
            let wl = wl.clone();
            s.spawn(move || {
                for op in wl.stream(w) {
                    match op {
                        Op::Get(k) => {
                            cache.get(w, wl.key(k));
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
    cache.tm_stats().since(&before)
}

/// Transactions that did work. A polling transaction — an IP worker that
/// finds its item lock held commits, yields and asks again — commits
/// *read-only*, a handful or tens of thousands per run depending on who
/// got descheduled holding what. Whole-runtime totals therefore cannot be
/// compared between two runs; this count is fixed by the workload.
fn working_txns(s: &StatsSnapshot) -> u64 {
    s.transactions() - s.read_only_commits
}

#[test]
fn table1_shape_plain_vs_callable() {
    // Paper Table 1: callable annotations change nothing measurable.
    let ip = measure(Branch::Ip(Stage::Plain));
    let ipc = measure(Branch::Ip(Stage::Callable));
    let it = measure(Branch::It(Stage::Plain));

    assert!(ip.start_serial > 0, "{ip:?}");
    assert!(it.start_serial > 0, "{it:?}");
    // IT's item transactions start serial far more often than IP's
    // (paper: 36.1% vs 5.6%).
    assert!(
        it.start_serial as f64 / working_txns(&it) as f64
            > 2.0 * ip.start_serial as f64 / working_txns(&ip) as f64,
        "IT {it:?} vs IP {ip:?}"
    );
    // IP runs more transactions (lock/unlock mini-transactions).
    assert!(working_txns(&ip) > working_txns(&it), "IP {ip:?} vs IT {it:?}");
    // Callable ~ Plain (within noise).
    let rate = |s: &StatsSnapshot| {
        (s.start_serial + s.in_flight_switch) as f64 / working_txns(s) as f64
    };
    assert!(
        (rate(&ip) - rate(&ipc)).abs() < 0.05,
        "callable changed serialization: {ip:?} vs {ipc:?}"
    );
}

#[test]
fn table2_shape_max_trades_start_serial_for_in_flight() {
    // Paper Table 2 + §3.3 text: the Max transformation removes IP's
    // start-serial transactions but they "still ultimately serialized"
    // in flight.
    let ip_plain = measure(Branch::Ip(Stage::Plain));
    let ip_max = measure(Branch::Ip(Stage::Max));
    assert!(ip_plain.start_serial > 0);
    assert_eq!(ip_max.start_serial, 0, "{ip_max:?}");
    assert!(
        ip_max.in_flight_switch > ip_plain.in_flight_switch,
        "Max must delay, not remove, serialization: {ip_max:?} vs {ip_plain:?}"
    );
    // IT-Max: the store transaction still begins with memcpy (libc), so
    // some transactions still start serial.
    let it_max = measure(Branch::It(Stage::Max));
    assert!(it_max.start_serial > 0, "{it_max:?}");
    assert!(it_max.in_flight_switch > 0, "{it_max:?}");
}

#[test]
fn table3_shape_lib_leaves_only_sem_post() {
    // Paper Table 3: after safe libraries, IP serializes only in flight
    // (sem_post mid-transaction), IT only at start (the hoisted signal
    // section), and far less than before.
    let ip = measure(Branch::Ip(Stage::Lib));
    let it = measure(Branch::It(Stage::Lib));
    assert_eq!(ip.start_serial, 0, "{ip:?}");
    assert!(ip.in_flight_switch > 0, "{ip:?}");
    assert_eq!(it.in_flight_switch, 0, "{it:?}");
    assert!(it.start_serial > 0, "{it:?}");
    let ip_max = measure(Branch::Ip(Stage::Max));
    assert!(
        ip.in_flight_switch < ip_max.in_flight_switch,
        "Lib must reduce serialization: {ip:?} vs {ip_max:?}"
    );
}

#[test]
fn table4_shape_oncommit_eliminates_serialization() {
    // Paper Table 4: "transactions no longer serialize at begin time, or
    // due to an unsafe call during their execution".
    for branch in [Branch::Ip(Stage::OnCommit), Branch::It(Stage::OnCommit)] {
        let s = measure(branch);
        assert_eq!(s.in_flight_switch, 0, "{branch}: {s:?}");
        assert_eq!(s.start_serial, 0, "{branch}: {s:?}");
        assert!(s.commit_handlers_run > 0, "{branch}: handlers must fire: {s:?}");
    }
}

#[test]
fn figure10_nolock_runs_without_serial_lock() {
    for branch in [Branch::IpNoLock, Branch::ItNoLock] {
        let s = measure(branch);
        assert_eq!(
            s.in_flight_switch + s.start_serial + s.abort_serial,
            0,
            "{branch}: {s:?}"
        );
        assert!(s.commits > 0, "{branch}");
    }
}
