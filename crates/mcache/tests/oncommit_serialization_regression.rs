//! Regression lock on the paper's headline result (Table 4): with safe
//! libraries *and* onCommit-deferred signaling, the memcached transactions
//! never serialize — no transaction starts on the serial path and none
//! switches to it in flight. This is the property the whole
//! transactionalization effort converges on, so it gets its own test at a
//! heavier scale than the table-shape checks: 4 workers, the full op mix
//! (get/set/delete/incr), and a payload-integrity sweep afterwards.

use std::sync::Arc;

use mcache::{Branch, McCache, McConfig, SlabConfig, Stage};
use workload::{Op, OpMix, Workload};

#[test]
fn oncommit_branches_never_serialize() {
    let threads = 4;
    let ops = std::env::var("MC_OPS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1_500);
    for branch in [Branch::Ip(Stage::OnCommit), Branch::It(Stage::OnCommit)] {
        let wl = Arc::new(
            Workload::builder()
                .concurrency(threads)
                .execute_number(ops)
                .key_count(600)
                .value_size(128)
                .mix(OpMix {
                    get: 8,
                    set: 1,
                    delete: 1,
                    incr: 1,
                })
                .build(),
        );
        let handle = McCache::start(McConfig {
            branch,
            workers: threads,
            slab: SlabConfig {
                mem_limit: 8 << 20,
                page_size: 64 << 10,
                chunk_min: 96,
                growth_factor: 1.5,
            },
            // Saturated table (key_count > 1.5 * 2^max buckets): every set
            // keeps hitting the maintenance-signal site, so the deferred
            // sem_post handlers stay exercised for the whole run.
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
        let s = cache.tm_stats().since(&before);

        // The regression being locked: zero serialization events of either
        // kind across the whole run. A single one is a fail — before the
        // onCommit stage these numbered in the hundreds per thousand ops.
        assert_eq!(s.start_serial, 0, "{branch}: start-serial crept back: {s:?}");
        assert_eq!(
            s.in_flight_switch, 0,
            "{branch}: in-flight switch crept back: {s:?}"
        );
        // (abort_serial is not asserted: serializing after 100 retries is
        // the GCC contention manager's policy, not a property of the code
        // transformation this test guards.)

        // ... while the workload really ran transactionally and the
        // deferred signal handlers really fired.
        assert!(
            s.commits >= (threads * ops) as u64,
            "{branch}: too few commits for {threads}x{ops} ops: {s:?}"
        );
        assert!(
            s.commit_handlers_run > 0,
            "{branch}: onCommit handlers never fired: {s:?}"
        );

        // Payload integrity: any surviving key must carry either its
        // deterministic value or a numeric incr result — never torn bytes.
        let mut checked = 0;
        for i in 0..wl.key_count() {
            if let Some(got) = cache.get(0, wl.key(i)) {
                let numeric = got
                    .data
                    .iter()
                    .all(|&b| b.is_ascii_digit() || b == b'\r' || b == b'\n' || b == b' ');
                assert!(
                    wl.verify_value(i, &got.data) || numeric,
                    "{branch}: torn value for key {i}: {:?}",
                    &got.data[..got.data.len().min(32)]
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "{branch}: nothing left to verify");
    }
}
