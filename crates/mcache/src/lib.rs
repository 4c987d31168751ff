//! # mcache — a memcached-1.4.15-like cache with every branch from
//! "Transactionalizing Legacy Code" (ASPLOS 2014)
//!
//! This crate rebuilds the system the paper modified: a slab-allocated,
//! LRU-evicting, chained-hash in-memory cache with memcached 1.4.15's
//! four-level lock hierarchy (item locks, `cache_lock`, `slabs_lock`,
//! `stats_lock` — acquired in that order, with the documented `trylock`
//! order violations), per-thread statistics, reference-counted items, a
//! hash-expansion maintenance thread, and a slab rebalancer.
//!
//! Every point of the paper's transactionalization history is selectable
//! as a [`Branch`]:
//!
//! | branch | meaning |
//! |---|---|
//! | `Baseline` | pthread-style locks + condition variables |
//! | `Semaphore` | condvars replaced by semaphores (§3.2) |
//! | `Ip(stage)` / `It(stage)` | locks replaced by transactions, item locks privatized (IP) or transactionalized (IT), at stage `Plain`/`Callable`/`Max`/`Lib`/`OnCommit` (§3.3–§3.5) |
//! | `IpNoLock` / `ItNoLock` | onCommit stage on a runtime without the global serial lock (§4) |
//!
//! ```
//! use mcache::{Branch, McCache, McConfig, Stage};
//!
//! let cache = McCache::start(McConfig {
//!     branch: Branch::Ip(Stage::OnCommit),
//!     workers: 2,
//!     ..Default::default()
//! });
//! assert_eq!(
//!     cache.set(0, b"greeting", b"hello", 0, 0),
//!     mcache::StoreStatus::Stored
//! );
//! let v = cache.get(1, b"greeting").expect("just stored");
//! assert_eq!(v.data, b"hello");
//! // Serialization accounting for the paper's tables:
//! let tm = cache.tm_stats();
//! assert_eq!(tm.start_serial + tm.in_flight_switch, 0, "onCommit stage never serializes");
//!
//! // The paper's final branch runs without the serial lock at all (§4):
//! let cache = McCache::start(McConfig { branch: Branch::IpNoLock, workers: 2, ..Default::default() });
//! cache.set(0, b"key", b"value", 0, 0);
//! assert_eq!(cache.get(1, b"key").unwrap().data, b"value");
//! assert_eq!(cache.tm_stats().serialization_rate(), 0.0);
//! ```

#![warn(missing_docs)]

pub mod assoc;
pub mod cache;
pub mod core;
pub mod ctx;
pub mod dur;
mod effect;
pub mod hashes;
pub mod item;
pub mod lru;
pub mod net;
pub mod policy;
pub mod proto;
pub mod sem;
pub mod slabs;
pub mod stats;

pub use cache::{
    ArithStatus, CacheStats, GetValue, McCache, McConfig, McHandle, StoreMode, StoreOp,
    StoreStatus, KEY_MAX,
};
pub use dur::{DurFsync, DurSnapshot};
pub use net::{NetConfig, NetSnapshot, Server};
pub use policy::{Branch, Category, ItemMode, Policy, SectionKind, Stage};
pub use slabs::SlabConfig;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn small_config(branch: Branch) -> McConfig {
        McConfig {
            branch,
            workers: 4,
            slab: SlabConfig {
                mem_limit: 4 << 20,
                page_size: 64 << 10,
                chunk_min: 96,
                growth_factor: 1.5,
            },
            hash_power: 8,
            hash_power_max: 12,
            item_lock_power: 6,
            ..Default::default()
        }
    }

    #[test]
    fn every_branch_does_basic_ops() {
        for branch in Branch::all() {
            let c = McCache::start(small_config(branch));
            assert_eq!(c.set(0, b"k1", b"v1", 7, 0), StoreStatus::Stored, "{branch}");
            let v = c.get(0, b"k1").unwrap_or_else(|| panic!("{branch}: lost k1"));
            assert_eq!(v.data, b"v1");
            assert_eq!(v.flags, 7);
            assert_eq!(c.add(0, b"k1", b"x", 0, 0), StoreStatus::NotStored, "{branch}");
            assert_eq!(c.add(0, b"k2", b"v2", 0, 0), StoreStatus::Stored, "{branch}");
            assert_eq!(c.replace(0, b"k2", b"v2b", 0, 0), StoreStatus::Stored);
            assert_eq!(c.replace(0, b"nope", b"x", 0, 0), StoreStatus::NotStored);
            assert!(c.delete(0, b"k2"), "{branch}");
            assert!(!c.delete(0, b"k2"), "{branch}");
            assert!(c.get(0, b"k2").is_none(), "{branch}");
        }
    }

    #[test]
    fn cas_semantics_per_branch() {
        for branch in [Branch::Baseline, Branch::Ip(Stage::Lib), Branch::ItNoLock] {
            let c = McCache::start(small_config(branch));
            c.set(0, b"k", b"v1", 0, 0);
            let cas = c.get(0, b"k").unwrap().cas;
            assert_eq!(c.cas(0, b"k", b"v2", 0, 0, cas), StoreStatus::Stored, "{branch}");
            assert_eq!(c.cas(0, b"k", b"v3", 0, 0, cas), StoreStatus::Exists, "{branch}");
            assert_eq!(
                c.cas(0, b"missing", b"v", 0, 0, cas),
                StoreStatus::NotFound,
                "{branch}"
            );
            assert_eq!(c.get(0, b"k").unwrap().data, b"v2");
        }
    }

    #[test]
    fn incr_decr_per_branch() {
        for branch in [Branch::Semaphore, Branch::It(Stage::Plain), Branch::IpNoLock] {
            let c = McCache::start(small_config(branch));
            c.set(0, b"n", b"10", 0, 0);
            assert_eq!(c.arith(0, b"n", 5, true), ArithStatus::Ok(15), "{branch}");
            assert_eq!(c.arith(0, b"n", 20, false), ArithStatus::Ok(0), "{branch}");
            assert_eq!(c.arith(0, b"missing", 1, true), ArithStatus::NotFound);
            c.set(0, b"s", b"word", 0, 0);
            assert_eq!(c.arith(0, b"s", 1, true), ArithStatus::NonNumeric, "{branch}");
        }
    }

    #[test]
    fn append_prepend() {
        let c = McCache::start(small_config(Branch::Baseline));
        c.set(0, b"k", b"mid", 0, 0);
        assert_eq!(c.append(0, b"k", b"-end"), StoreStatus::Stored);
        assert_eq!(c.prepend(0, b"k", b"start-"), StoreStatus::Stored);
        assert_eq!(c.get(0, b"k").unwrap().data, b"start-mid-end");
        assert_eq!(c.append(0, b"missing", b"x"), StoreStatus::NotStored);
    }

    #[test]
    fn a_panic_under_the_item_guard_releases_the_stripe() {
        // A request that panics mid-section is answered SERVER_ERROR and
        // the worker lives on — so its item lock must not outlive it. On IP
        // the lock is a transactional boolean that only the guard's drop
        // writes back; hand-paired lock/unlock left it `true` forever and
        // every later op on the stripe spun. The wait is bounded: a wedged
        // stripe fails the test instead of hanging it.
        for branch in [Branch::Baseline, Branch::Ip(Stage::OnCommit), Branch::IpNoLock] {
            let handle = McCache::start(small_config(branch));
            let c = handle.cache().clone();
            let stripe = 3;
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = crate::cache::ItemGuard::new(&c, stripe);
                panic!("request handler died holding the item lock");
            }));
            assert!(r.is_err());
            // A key on the same stripe (item_lock_power 6: 64 stripes).
            let key = (0u32..)
                .map(|i| format!("k{i}").into_bytes())
                .find(|k| crate::hashes::jenkins_hash(k, 0) as usize & 63 == stripe)
                .unwrap();
            let (tx, rx) = std::sync::mpsc::channel();
            let worker = {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let st = c.set(1, &key, b"v", 0, 0);
                    let _ = tx.send((st, c.get(1, &key).map(|v| v.data)));
                })
            };
            let got = rx.recv_timeout(std::time::Duration::from_secs(10));
            assert_eq!(
                got.ok(),
                Some((StoreStatus::Stored, Some(b"v".to_vec()))),
                "{branch}: stripe still locked after the panic unwound"
            );
            worker.join().unwrap();
        }
    }

    #[test]
    fn expired_items_die_lazily() {
        let c = McCache::start(small_config(Branch::It(Stage::OnCommit)));
        // exptime=1 is in the past (rel_time starts at 2): dead on arrival.
        c.set(0, b"k", b"v", 0, 1);
        assert!(c.get(0, b"k").is_none());
        // A future exptime stays alive.
        c.set(0, b"k2", b"v", 0, 1_000_000);
        assert!(c.get(0, b"k2").is_some());
    }

    #[test]
    fn touch_extends_lifetime() {
        let c = McCache::start(small_config(Branch::Ip(Stage::Max)));
        c.set(0, b"k", b"v", 0, 0);
        assert!(c.touch(0, b"k", 0));
        assert!(!c.touch(0, b"missing", 0));
        assert!(c.get(0, b"k").is_some());
    }

    #[test]
    fn flush_all_clears_visibility() {
        let c = McCache::start(small_config(Branch::Ip(Stage::Plain)));
        c.set(0, b"k", b"v", 0, 0);
        c.flush_all(0);
        std::thread::sleep(std::time::Duration::from_millis(1100));
        assert!(c.get(0, b"k").is_none(), "flushed item must die");
        c.set(0, b"k2", b"v2", 0, 0);
        // rel_time advanced past the watermark for the new item? The
        // watermark kills items whose last access <= flush time; a store
        // in the same second is an edge we avoid by sleeping above.
        assert!(c.get(0, b"k2").is_some());
    }

    #[test]
    fn concurrent_workers_all_branches_smoke() {
        for branch in Branch::all() {
            let handle = McCache::start(small_config(branch));
            let c = handle.cache().clone();
            let mut threads = vec![];
            for w in 0..4 {
                let c = Arc::clone(&c);
                threads.push(std::thread::spawn(move || {
                    for i in 0..120u32 {
                        let key = format!("k{}", (w * 37 + i as usize) % 50);
                        match i % 4 {
                            0 => {
                                c.set(w, key.as_bytes(), format!("val-{i}").as_bytes(), 0, 0);
                            }
                            3 if i % 12 == 3 => {
                                c.delete(w, key.as_bytes());
                            }
                            _ => {
                                if let Some(v) = c.get(w, key.as_bytes()) {
                                    assert!(
                                        v.data.starts_with(b"val-"),
                                        "{branch}: corrupt value {:?}",
                                        v.data
                                    );
                                }
                            }
                        }
                    }
                }));
            }
            for t in threads {
                t.join().unwrap_or_else(|_| panic!("worker died on {branch}"));
            }
            let s = handle.stats();
            assert_eq!(s.threads.total_cmds(), 480, "{branch}");
        }
    }

    #[test]
    fn multiget_all_branches_matches_per_key_gets() {
        for branch in Branch::all() {
            let c = McCache::start(small_config(branch));
            c.set(0, b"a", b"va", 1, 0);
            c.set(0, b"b", b"vb", 2, 0);
            let vals = c.get_multi(0, &[b"a", b"missing", b"b", b"a"]);
            assert_eq!(vals.len(), 4, "{branch}");
            assert_eq!(vals[0].as_ref().unwrap().data, b"va", "{branch}");
            assert!(vals[1].is_none(), "{branch}");
            assert_eq!(vals[2].as_ref().unwrap().data, b"vb", "{branch}");
            assert_eq!(vals[3].as_ref().unwrap().data, b"va", "{branch}");
            let s = c.stats();
            assert_eq!(s.threads.get_cmds, 4, "{branch}");
            assert_eq!(s.threads.get_hits, 3, "{branch}");
            assert_eq!(s.threads.get_misses, 1, "{branch}");
            assert_eq!(
                s.global.cmd_total,
                s.threads.total_cmds(),
                "{branch}: shards must fold into cmd_total"
            );
        }
    }

    #[test]
    fn transactional_get_path_rides_the_fast_lane() {
        // IT-onCommit with refcount elision: a warm GET hit writes nothing,
        // so every one must commit on the runtime's read-only fast lane.
        let mut cfg = small_config(Branch::It(Stage::OnCommit));
        cfg.refcount_elision = true;
        cfg.lru_bump_every = 0; // no LRU-bump writes on this profile
        let c = McCache::start(cfg);
        c.set(0, b"k", b"v", 0, 0);
        c.get(0, b"k"); // first fetch sets ITEM_FETCHED (a promotion)
        let before = c.tm_stats();
        for _ in 0..50 {
            assert!(c.get(0, b"k").is_some());
        }
        let after = c.tm_stats();
        assert!(
            after.ro_fast_commits >= before.ro_fast_commits + 50,
            "warm elided GETs must all commit fast-lane: {before:?} -> {after:?}"
        );
    }

    #[test]
    fn elided_readers_survive_concurrent_frees() {
        // Privatization safety at the cache level: with refcount elision a
        // fast-lane GET holds no reference, so a concurrent delete+reset
        // (the paper's item_free hazard) must be fenced by the STM alone.
        // Values are uniform byte-runs — any torn read would mix rounds.
        let mut cfg = small_config(Branch::It(Stage::OnCommit));
        cfg.refcount_elision = true;
        cfg.lru_bump_every = 0;
        let handle = McCache::start(cfg);
        let c = handle.cache().clone();
        let keys: Vec<Vec<u8>> = (0..4).map(|i| format!("rk{i}").into_bytes()).collect();

        std::thread::scope(|s| {
            {
                let (c, keys) = (Arc::clone(&c), keys.clone());
                s.spawn(move || {
                    for round in 0..400u32 {
                        let k = &keys[round as usize % keys.len()];
                        if round % 5 == 4 {
                            c.delete(0, k);
                        } else {
                            let fill = vec![b'a' + (round % 23) as u8; 64];
                            c.set(0, k, &fill, 0, 0);
                        }
                    }
                });
            }
            for w in 1..3usize {
                let (c, keys) = (Arc::clone(&c), keys.clone());
                s.spawn(move || {
                    for i in 0..400usize {
                        let check = |v: &crate::GetValue| {
                            assert_eq!(v.data.len(), 64, "torn length");
                            assert!(
                                v.data.iter().all(|&b| b == v.data[0]),
                                "torn value: a reader mixed two rounds: {:?}",
                                &v.data[..8]
                            );
                        };
                        if i % 3 == 0 {
                            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
                            for v in c.get_multi(w, &refs).iter().flatten() {
                                check(v);
                            }
                        } else if let Some(v) = c.get(w, &keys[i % keys.len()]) {
                            check(&v);
                        }
                    }
                });
            }
        });
        let s = handle.stats();
        assert_eq!(
            s.global.cmd_total,
            s.threads.total_cmds(),
            "shards must fold exactly even under concurrency"
        );
    }

    #[test]
    fn serialization_stats_shape_follows_stages() {
        // The qualitative content of Tables 1-4: serialization causes
        // shrink monotonically as the stages progress, and vanish at
        // onCommit.
        let run = |branch: Branch| {
            let c = McCache::start(small_config(branch));
            for i in 0..300u32 {
                let key = format!("key-{}", i % 40);
                if i % 10 == 0 {
                    c.set(0, key.as_bytes(), b"some-value-payload", 0, 0);
                } else {
                    c.get(0, key.as_bytes());
                }
            }
            c.tm_stats()
        };
        let plain = run(Branch::It(Stage::Plain));
        assert!(
            plain.start_serial > 0,
            "IT-Plain item sections must start serial: {plain:?}"
        );
        let max = run(Branch::It(Stage::Max));
        assert!(
            max.in_flight_switch > 0,
            "IT-Max must switch in flight on libc: {max:?}"
        );
        let oncommit = run(Branch::It(Stage::OnCommit));
        assert_eq!(oncommit.start_serial, 0, "{oncommit:?}");
        assert_eq!(oncommit.in_flight_switch, 0, "{oncommit:?}");
        assert!(oncommit.commit_handlers_run > 0 || oncommit.commits > 0);
        let ip_plain = run(Branch::Ip(Stage::Plain));
        assert!(
            ip_plain.transactions() > plain.transactions(),
            "IP multiplies transaction count vs IT (lock/unlock mini-txns): {} vs {}",
            ip_plain.transactions(),
            plain.transactions()
        );
    }

    #[test]
    fn lock_branch_contention_shows_in_profiler() {
        let handle = McCache::start(small_config(Branch::Baseline));
        let c = handle.cache().clone();
        let mut threads = vec![];
        for w in 0..4 {
            let c = Arc::clone(&c);
            threads.push(std::thread::spawn(move || {
                for i in 0..200u32 {
                    let key = format!("x{}", i % 10);
                    if i % 3 == 0 {
                        c.set(w, key.as_bytes(), b"v", 0, 0);
                    } else {
                        c.get(w, key.as_bytes());
                    }
                }
            }));
        }
        for t in threads {
            t.join().unwrap();
        }
        let report = handle.lock_report();
        assert!(report.contains("cache_lock"), "{report}");
        assert!(report.contains("stats_lock"), "{report}");
    }

    #[test]
    fn verbose_logging_is_counted_and_oncommit_defers() {
        let mut cfg = small_config(Branch::It(Stage::OnCommit));
        cfg.verbose = true;
        let c = McCache::start(cfg);
        c.set(0, b"k", b"v", 0, 0);
        c.get(0, b"k");
        let s = c.stats();
        assert!(s.log_lines >= 2, "verbose ops must log: {s:?}");
        assert!(c.tm_stats().commit_handlers_run > 0, "logs deferred to onCommit");
        assert_eq!(c.tm_stats().in_flight_switch, 0);
    }

    #[test]
    fn eviction_under_memory_pressure() {
        let mut cfg = small_config(Branch::Ip(Stage::OnCommit));
        cfg.slab.mem_limit = 512 << 10;
        let c = McCache::start(cfg);
        let value = vec![3u8; 2048];
        for i in 0..600 {
            let key = format!("pressure-{i}");
            let st = c.set(0, key.as_bytes(), &value, 0, 0);
            assert_eq!(st, StoreStatus::Stored, "at {i}");
        }
        let s = c.stats();
        assert!(s.global.evictions > 0, "{s:?}");
        assert!(c.get(0, b"pressure-599").is_some());
    }

    #[test]
    fn refcount_elision_preserves_semantics() {
        // §5 future-work: on IT, get's refcount RMW pair becomes a plain
        // transactional read; results must be indistinguishable.
        let mut cfg = small_config(Branch::ItNoLock);
        cfg.refcount_elision = true;
        let c = McCache::start(cfg);
        c.set(0, b"k", b"v", 3, 0);
        let v = c.get(0, b"k").unwrap();
        assert_eq!((v.data.as_slice(), v.flags), (b"v".as_slice(), 3));
        assert!(c.delete(0, b"k"));
        assert!(c.get(0, b"k").is_none());
        // Elision is a no-op on IP (privatized readers need refcounts).
        let mut cfg = small_config(Branch::IpNoLock);
        cfg.refcount_elision = true;
        let c = McCache::start(cfg);
        c.set(0, b"k", b"v", 0, 0);
        assert!(c.get(0, b"k").is_some());
    }

    #[test]
    fn magazine_store_semantics_match_plain() {
        // The magazine fast lane must be observably identical to the plain
        // 3-transaction IT store — only the transaction count changes.
        let mut cfg = small_config(Branch::It(Stage::OnCommit));
        cfg.magazine = 16;
        let c = McCache::start(cfg);
        assert!(c.magazines_on());
        assert_eq!(c.set(0, b"k1", b"v1", 7, 0), StoreStatus::Stored);
        let v = c.get(0, b"k1").unwrap();
        assert_eq!((v.data.as_slice(), v.flags), (b"v1".as_slice(), 7));
        assert_eq!(c.add(0, b"k1", b"x", 0, 0), StoreStatus::NotStored);
        assert_eq!(c.add(0, b"k2", b"v2", 0, 0), StoreStatus::Stored);
        assert_eq!(c.replace(0, b"k2", b"v2b", 0, 0), StoreStatus::Stored);
        assert_eq!(c.replace(0, b"nope", b"x", 0, 0), StoreStatus::NotStored);
        let cas = c.get(0, b"k2").unwrap().cas;
        assert_eq!(c.cas(0, b"k2", b"v2c", 0, 0, cas), StoreStatus::Stored);
        assert_eq!(c.cas(0, b"k2", b"v2d", 0, 0, cas), StoreStatus::Exists);
        assert_eq!(c.cas(0, b"gone", b"v", 0, 0, cas), StoreStatus::NotFound);
        assert!(c.delete(0, b"k2"));
        assert!(c.get(0, b"k2").is_none());
        let s = c.stats();
        assert!(s.global.magazine_refills > 0, "allocations came from refills: {s:?}");
        // An overwrite-heavy run recycles its chunk inside the worker: one
        // initial refill covers the whole loop.
        let before = c.stats().global.magazine_refills;
        for i in 0..100u32 {
            let val = format!("val-{i}");
            assert_eq!(c.set(0, b"hot", val.as_bytes(), 0, 0), StoreStatus::Stored);
        }
        let after = c.stats().global.magazine_refills;
        assert!(
            after - before <= 1,
            "overwrites must recycle via the magazine, not refill: {before} -> {after}"
        );
        assert_eq!(c.get(0, b"hot").unwrap().data, b"val-99");
        // flush_all drains every magazine back to the arena.
        c.flush_all(0);
        assert!(c.stats().global.magazine_flushes > 0);
    }

    #[test]
    fn magazine_readers_never_see_torn_values() {
        // The soundness argument for keeping magazine writes instrumented:
        // invisible fast-lane readers racing overwrites of recycled chunks
        // must never observe bytes from two different rounds.
        let mut cfg = small_config(Branch::It(Stage::OnCommit));
        cfg.magazine = 8;
        cfg.refcount_elision = true;
        cfg.lru_bump_every = 0;
        let handle = McCache::start(cfg);
        let c = handle.cache().clone();
        let keys: Vec<Vec<u8>> = (0..4).map(|i| format!("mk{i}").into_bytes()).collect();
        std::thread::scope(|s| {
            for w in 0..2usize {
                let (c, keys) = (Arc::clone(&c), keys.clone());
                s.spawn(move || {
                    for round in 0..400u32 {
                        let k = &keys[(round as usize + w) % keys.len()];
                        if round % 7 == 6 {
                            c.delete(w, k);
                        } else {
                            let fill = vec![b'a' + (round % 23) as u8; 64];
                            c.set(w, k, &fill, 0, 0);
                        }
                    }
                });
            }
            for w in 2..4usize {
                let (c, keys) = (Arc::clone(&c), keys.clone());
                s.spawn(move || {
                    for i in 0..600usize {
                        if let Some(v) = c.get(w, &keys[i % keys.len()]) {
                            assert_eq!(v.data.len(), 64, "torn length");
                            assert!(
                                v.data.iter().all(|&b| b == v.data[0]),
                                "torn value: reader mixed two rounds"
                            );
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn magazine_survives_eviction_pressure_and_rebalance() {
        // Magazine-held chunks look *allocated* to the rebalancer's
        // fully-free-page scan; this exercises refill-driven eviction and
        // page moves with magazines interposed on every store.
        let mut cfg = small_config(Branch::It(Stage::OnCommit));
        cfg.magazine = 16;
        cfg.slab.mem_limit = 512 << 10;
        let c = McCache::start(cfg);
        // Give the small class its page first: once memory is exhausted by
        // the large class, a brand-new class can only OOM (eviction is
        // per-class), magazines or not.
        for i in 0..200 {
            let key = format!("small-{i}");
            assert_eq!(c.set(0, key.as_bytes(), b"tiny", 0, 0), StoreStatus::Stored);
        }
        let value = vec![3u8; 2048];
        for i in 0..600 {
            let key = format!("pressure-{i}");
            assert_eq!(c.set(0, key.as_bytes(), &value, 0, 0), StoreStatus::Stored, "at {i}");
        }
        let s = c.stats();
        assert!(s.global.evictions > 0, "{s:?}");
        assert!(c.get(0, b"pressure-599").is_some());
        // The small class keeps serving stores (refills from its own page
        // or evicting within the class) with magazines interposed.
        for i in 0..200 {
            let key = format!("small2-{i}");
            assert_eq!(c.set(0, key.as_bytes(), b"tiny", 0, 0), StoreStatus::Stored);
        }
        assert!(c.get(0, b"small2-199").is_some());
    }

    #[test]
    fn store_batch_matches_singles() {
        for magazine in [0, 8] {
            let mut cfg = small_config(Branch::It(Stage::OnCommit));
            cfg.magazine = magazine;
            let c = McCache::start(cfg);
            c.set(0, b"seed", b"old", 0, 0);
            let cas = c.get(0, b"seed").unwrap().cas;
            let ops = [
                StoreOp { mode: StoreMode::Set, key: b"a", value: b"va", flags: 1, exptime: 0 },
                StoreOp { mode: StoreMode::Add, key: b"a", value: b"xx", flags: 0, exptime: 0 },
                StoreOp { mode: StoreMode::Replace, key: b"miss", value: b"x", flags: 0, exptime: 0 },
                StoreOp { mode: StoreMode::Cas(cas), key: b"seed", value: b"new", flags: 0, exptime: 0 },
                StoreOp { mode: StoreMode::Cas(cas), key: b"seed", value: b"zzz", flags: 0, exptime: 0 },
                StoreOp { mode: StoreMode::Set, key: b"b", value: b"vb", flags: 2, exptime: 0 },
            ];
            let st = c.store_batch(0, &ops);
            assert_eq!(
                st,
                vec![
                    StoreStatus::Stored,
                    StoreStatus::NotStored,
                    StoreStatus::NotStored,
                    StoreStatus::Stored,
                    StoreStatus::Exists,
                    StoreStatus::Stored,
                ],
                "magazine={magazine}"
            );
            assert_eq!(c.get(0, b"a").unwrap().data, b"va");
            assert_eq!(c.get(0, b"seed").unwrap().data, b"new");
            assert_eq!(c.get(0, b"b").unwrap().data, b"vb");
            let s = c.stats();
            assert_eq!(s.threads.set_cmds, 7, "every batched op counted");
            assert_eq!(s.global.cmd_total, s.threads.total_cmds() + s.global.flush_cmds);
        }
        // Lock branches fall back to per-op stores with identical results.
        let c = McCache::start(small_config(Branch::Baseline));
        let ops = [
            StoreOp { mode: StoreMode::Set, key: b"a", value: b"va", flags: 0, exptime: 0 },
            StoreOp { mode: StoreMode::Add, key: b"a", value: b"x", flags: 0, exptime: 0 },
        ];
        assert_eq!(
            c.store_batch(0, &ops),
            vec![StoreStatus::Stored, StoreStatus::NotStored]
        );
    }

    #[test]
    fn arith_wraparound_and_saturation_edges() {
        // memcached semantics at the numeric rim: incr wraps modulo 2^64,
        // decr saturates at zero.
        for branch in [Branch::Baseline, Branch::It(Stage::OnCommit)] {
            let c = McCache::start(small_config(branch));
            let max = u64::MAX.to_string();
            c.set(0, b"n", max.as_bytes(), 0, 0);
            assert_eq!(c.arith(0, b"n", 1, true), ArithStatus::Ok(0), "{branch}: wrap");
            assert_eq!(c.arith(0, b"n", 5, true), ArithStatus::Ok(5), "{branch}");
            assert_eq!(c.arith(0, b"n", 100, false), ArithStatus::Ok(0), "{branch}: saturate");
            assert_eq!(c.arith(0, b"n", u64::MAX, true), ArithStatus::Ok(u64::MAX), "{branch}");
            assert_eq!(
                c.arith(0, b"n", u64::MAX, true),
                ArithStatus::Ok(u64::MAX - 1),
                "{branch}: wrap by delta"
            );
        }
    }

    #[test]
    fn expansion_triggers_and_completes() {
        let mut cfg = small_config(Branch::Semaphore);
        cfg.hash_power = 6;
        let c = McCache::start(cfg);
        for i in 0..400 {
            let key = format!("grow-{i}");
            c.set(0, key.as_bytes(), b"v", 0, 0);
        }
        // Give the maintenance thread time to migrate.
        std::thread::sleep(std::time::Duration::from_millis(300));
        for i in 0..400 {
            let key = format!("grow-{i}");
            assert!(c.get(0, key.as_bytes()).is_some(), "lost {key} in expansion");
        }
        assert!(c.stats().global.maintenance_signals > 0);
    }
}
