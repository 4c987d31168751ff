//! Warm-restart conformance: a cache started on a redo-log directory
//! must replay exactly what the previous incarnation committed — across
//! branch families, with memcached's expiry / `flush_all` / CAS-uniqueness
//! semantics intact.

use std::path::PathBuf;
use std::time::Duration;

use mcache::dur::{DurLog, Record};
use mcache::{
    Branch, DurFsync, McCache, McConfig, McHandle, SlabConfig, Stage, StoreMode, StoreOp, StoreStatus,
};

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!(
        "mcache-durtest-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn config(branch: Branch, magazine: usize, dir: &PathBuf) -> McConfig {
    McConfig {
        branch,
        magazine,
        workers: 2,
        slab: SlabConfig {
            mem_limit: 8 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.25,
        },
        hash_power: 8,
        hash_power_max: 10,
        maintenance: true,
        dur_path: Some(dir.clone()),
        dur_fsync: DurFsync::Always,
        ..Default::default()
    }
}

fn start(branch: Branch, dir: &PathBuf) -> McHandle {
    McCache::start(config(branch, 0, dir))
}

/// Every store path a record can be emitted from: `(branch, magazine)`.
const STORE_PATHS: [(Branch, usize); 6] = [
    (Branch::Baseline, 0),
    (Branch::Ip(Stage::OnCommit), 0),
    (Branch::IpNoLock, 0),
    (Branch::It(Stage::OnCommit), 0),
    (Branch::ItNoLock, 0),
    (Branch::It(Stage::OnCommit), 64),
];

#[test]
fn warm_restart_replays_all_mutation_kinds() {
    for (branch, magazine) in STORE_PATHS {
        let tag = format!("{branch}+mag{magazine}");
        let dir = tmpdir(&format!("all-{tag}"));
        let far = 1_000_000; // rel-time seconds: alive for the whole test
        let old_cas;
        {
            let c = McCache::start(config(branch, magazine, &dir));
            assert_eq!(c.dur_stats().unwrap().recovered_items, 0);
            c.set(0, b"keep", b"v1", 7, 0);
            c.set(0, b"gone", b"x", 0, 0);
            c.set(0, b"num", b"10", 0, 0);
            assert!(c.delete(0, b"gone"));
            assert_eq!(c.arith(0, b"num", 5, true), mcache::ArithStatus::Ok(15));
            c.set(0, b"keep", b"v2", 7, 0); // overwrite: replay keeps last
            assert_eq!(c.add(0, b"added", b"a1", 1, 0), StoreStatus::Stored);
            assert_eq!(c.add(0, b"added", b"a2", 1, 0), StoreStatus::NotStored); // logs nothing
            assert_eq!(c.replace(0, b"added", b"a3", 2, 0), StoreStatus::Stored);
            let cas = c.get(0, b"keep").unwrap().cas;
            assert_eq!(c.cas(0, b"keep", b"v3", 7, 0, cas), StoreStatus::Stored);
            assert_eq!(c.cas(0, b"keep", b"v4", 7, 0, cas), StoreStatus::Exists); // logs nothing
            c.set(0, b"cat", b"mid", 3, far);
            assert_eq!(c.append(0, b"cat", b"-end"), StoreStatus::Stored);
            assert_eq!(c.prepend(0, b"cat", b"start-"), StoreStatus::Stored);
            c.set(0, b"brief", b"b", 0, 1); // expires at once...
            assert!(c.touch(0, b"brief", far)); // ...rescued
            let ops = [
                StoreOp { mode: StoreMode::Set, key: b"b1", value: b"one", flags: 0, exptime: 0 },
                StoreOp { mode: StoreMode::Add, key: b"keep", value: b"no", flags: 0, exptime: 0 },
                StoreOp { mode: StoreMode::Set, key: b"b1", value: b"two", flags: 4, exptime: 0 },
            ];
            c.store_batch(0, &ops);
            // CAS ids only grow, so the last store holds the highest one.
            old_cas = c.get(0, b"b1").unwrap().cas;
        } // drop seals the log
        let c = McCache::start(config(branch, magazine, &dir));
        let d = c.dur_stats().unwrap();
        assert_eq!(d.torn_records_dropped, 0, "{tag}: sealed log has no torn tail");
        assert_eq!(d.recovered_items, 6, "{tag}: {d:?}");
        // Recovery is not client traffic: the load counts items, not
        // commands, and evicts nothing that fits.
        let s = c.stats();
        assert_eq!(s.threads.set_cmds, 0, "{tag}: no client has spoken yet");
        assert_eq!(s.global.cmd_total, 0, "{tag}");
        assert_eq!((s.global.curr_items, s.global.total_items), (6, 6), "{tag}");
        assert_eq!(s.global.evictions, 0, "{tag}");
        for k in [&b"keep"[..], b"num", b"added", b"cat", b"brief", b"b1"] {
            assert!(c.get(0, k).unwrap().cas > old_cas, "{tag}: CAS ids clear the recovered floor");
        }
        let get = |k: &[u8]| c.get(0, k).map(|g| (g.data, g.flags));
        assert_eq!(get(b"keep"), Some((b"v3".to_vec(), 7)), "{tag}: last successful write wins");
        assert_eq!(get(b"gone"), None, "{tag}: delete replayed");
        assert_eq!(get(b"num"), Some((b"15".to_vec(), 0)), "{tag}: arith post-image replayed");
        assert_eq!(get(b"added"), Some((b"a3".to_vec(), 2)), "{tag}: add then replace");
        assert_eq!(get(b"cat"), Some((b"start-mid-end".to_vec(), 3)), "{tag}: append + prepend");
        assert!(c.get(0, b"cat").unwrap().exp != 0, "{tag}: the concatenation's TTL replayed");
        assert_eq!(get(b"brief"), Some((b"b".to_vec(), 0)), "{tag}: touch replayed");
        assert_eq!(get(b"b1"), Some((b"two".to_vec(), 4)), "{tag}: batch replays in order");
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn cas_ids_stay_unique_across_restart() {
    let dir = tmpdir("casfloor");
    let old_cas = {
        let c = start(Branch::It(Stage::OnCommit), &dir);
        for i in 0..50u32 {
            c.set(0, format!("k{i}").as_bytes(), b"v", 0, 0);
        }
        c.get(0, b"k49").unwrap().cas
    };
    let c = start(Branch::It(Stage::OnCommit), &dir);
    // A replayed item's id must already clear the floor...
    assert!(
        c.get(0, b"k49").unwrap().cas > old_cas,
        "replayed items re-link above the recovered floor"
    );
    // ...and so must the first brand-new store.
    c.set(0, b"fresh", b"v", 0, 0);
    assert!(
        c.get(0, b"fresh").unwrap().cas > old_cas,
        "post-restart CAS ids are strictly above every pre-crash id"
    );
    drop(c);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn expired_at_replay_entries_are_skipped() {
    // Craft the log directly: one live entry and one whose absolute
    // expiry is already in the past — no sleeping in the test.
    let dir = tmpdir("expiry");
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_secs();
    {
        let log = DurLog::open(&dir, DurFsync::Always, 4 << 20, 0).unwrap();
        log.append(
            1,
            &Record::Set {
                cas: 1,
                flags: 0,
                abs_exp: now.saturating_sub(60),
                stored_unix: now.saturating_sub(120),
                key: b"stale".to_vec(),
                value: b"dead".to_vec(),
            },
        );
        log.append(
            2,
            &Record::Set {
                cas: 2,
                flags: 0,
                abs_exp: now + 3600,
                stored_unix: now,
                key: b"live".to_vec(),
                value: b"ok".to_vec(),
            },
        );
        log.seal();
    }
    let c = start(Branch::It(Stage::OnCommit), &dir);
    assert_eq!(c.dur_stats().unwrap().recovered_items, 1);
    assert_eq!(c.get(0, b"stale"), None, "expired entry must not be replayed");
    assert_eq!(c.get(0, b"live").unwrap().data, b"ok");
    drop(c);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn touch_extends_expiry_across_restart() {
    let dir = tmpdir("touch");
    {
        let c = start(Branch::It(Stage::OnCommit), &dir);
        c.set(0, b"k", b"v", 0, 1); // expires almost immediately
        assert!(c.touch(0, b"k", 0)); // ...rescued: never expires
    }
    let c = start(Branch::It(Stage::OnCommit), &dir);
    assert_eq!(
        c.get(0, b"k").map(|g| g.data),
        Some(b"v".to_vec()),
        "replay must honor the touched expiry, not the original"
    );
    drop(c);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `(stamp, kind)` of every record under `dir`, segment by segment in file
/// order. The format is `dur`'s: a 32-byte segment header, then
/// `len:u32 crc:u32 payload` frames whose payload starts `stamp:u64 kind:u8`.
fn record_stamps(dir: &PathBuf) -> Vec<(u64, u8)> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.file_name().unwrap().to_string_lossy().starts_with("seg-"))
        .collect();
    segs.sort();
    let mut out = Vec::new();
    for seg in segs {
        let data = std::fs::read(seg).unwrap();
        let mut at = 32;
        while at + 8 <= data.len() {
            let len = u32::from_le_bytes(data[at..at + 4].try_into().unwrap()) as usize;
            let payload = &data[at + 8..at + 8 + len];
            out.push((u64::from_le_bytes(payload[..8].try_into().unwrap()), payload[8]));
            at += 8 + len;
        }
    }
    out
}

/// A `touch` that rewrites the times its item already has (same expiry,
/// same second) is a writer like any other: on every store path its
/// record's stamp is strictly above the store's it touched.
#[test]
fn identical_touch_logs_a_fresh_stamp() {
    const SET: u8 = 1;
    const TOUCH: u8 = 4;
    for (branch, magazine) in STORE_PATHS {
        let tag = format!("{branch}+mag{magazine}");
        let dir = tmpdir(&format!("touch-same-{tag}"));
        {
            let c = McCache::start(config(branch, magazine, &dir));
            c.set(0, b"k", b"v", 0, 0);
            assert!(c.touch(0, b"k", 0), "{tag}");
        }
        let recs = record_stamps(&dir);
        let stamp_of = |kind| {
            let rec = recs.iter().find(|r| r.1 == kind);
            rec.unwrap_or_else(|| panic!("{tag}: no record of kind {kind} in {recs:?}")).0
        };
        let (set, touch) = (stamp_of(SET), stamp_of(TOUCH));
        assert!(touch > set, "{tag}: touch stamped {touch}, not above its store's {set}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn flush_all_is_not_resurrected_by_replay() {
    for branch in [Branch::Baseline, Branch::It(Stage::OnCommit)] {
        let dir = tmpdir(&format!("flush-{branch}"));
        {
            let c = start(branch, &dir);
            c.set(0, b"pre", b"x", 0, 0);
            c.flush_all(0);
            // Cross the second boundary so the post-flush store is live by
            // memcached's own `last > watermark` rule (a same-second store
            // dies in the live cache too — replay must agree).
            std::thread::sleep(Duration::from_millis(1100));
            c.set(0, b"post", b"y", 0, 0);
            assert_eq!(c.get(0, b"pre"), None, "{branch}: flushed in live cache");
        }
        let c = start(branch, &dir);
        assert_eq!(c.get(0, b"pre"), None, "{branch}: flush_all replayed");
        assert_eq!(
            c.get(0, b"post").map(|g| g.data),
            Some(b"y".to_vec()),
            "{branch}: post-flush store survives"
        );
        assert_eq!(c.dur_stats().unwrap().recovered_items, 1, "{branch}");
        drop(c);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn double_restart_is_idempotent() {
    let dir = tmpdir("idem");
    {
        let c = start(Branch::It(Stage::OnCommit), &dir);
        for i in 0..20u32 {
            c.set(0, format!("k{i}").as_bytes(), format!("v{i}").as_bytes(), 0, 0);
        }
    }
    for round in 0..3 {
        let c = start(Branch::It(Stage::OnCommit), &dir);
        assert_eq!(c.dur_stats().unwrap().recovered_items, 20, "round {round}");
        for i in 0..20u32 {
            assert_eq!(
                c.get(0, format!("k{i}").as_bytes()).unwrap().data,
                format!("v{i}").as_bytes(),
                "round {round}"
            );
        }
        drop(c);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn batch_stores_replay_in_order() {
    let dir = tmpdir("batch");
    {
        let c = start(Branch::It(Stage::OnCommit), &dir);
        let ops: Vec<StoreOp<'_>> = (0..8)
            .map(|i| StoreOp {
                mode: StoreMode::Set,
                key: b"same",
                value: if i == 7 { b"final" } else { b"mid" },
                flags: 0,
                exptime: 0,
            })
            .collect();
        let st = c.store_batch(0, &ops);
        assert!(st.iter().all(|s| *s == StoreStatus::Stored));
    }
    let c = start(Branch::It(Stage::OnCommit), &dir);
    assert_eq!(
        c.get(0, b"same").unwrap().data,
        b"final",
        "equal-stamp batch records must replay in append order"
    );
    drop(c);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn log_off_cache_has_no_dur_surface() {
    let c = McCache::start(McConfig {
        workers: 1,
        ..Default::default()
    });
    assert!(!c.dur_enabled());
    assert!(c.dur_stats().is_none());
    c.set(0, b"k", b"v", 0, 0);
    assert_eq!(c.get(0, b"k").unwrap().data, b"v");
}

/// What a client can see of one key: `get`/`gets` (data, flags, whether
/// it expires), then `touch`, then `incr`.
fn observe(c: &McHandle, key: &[u8]) -> String {
    let got = c.get(0, key).map(|g| (g.data, g.flags, g.exp != 0));
    format!("{got:?} {} {:?}", c.touch(0, key, 1_000_000), c.arith(0, key, 1, true))
}

#[test]
fn direct_load_answers_like_a_cache_that_was_set() {
    let far = 1_000_000;
    let big = vec![b'x'; 3000];
    // The final state, and a history that reaches it the long way round.
    let state: [(&[u8], &[u8], u32, u32); 5] = [
        (b"plain", b"alpha", 1, 0),
        (b"num", b"41", 0, 0),
        (b"ttl", b"fades", 2, far),
        (b"big", &big, 3, 0),
        (b"empty", b"", 4, 0),
    ];
    for (branch, magazine) in STORE_PATHS {
        let tag = format!("{branch}+mag{magazine}");
        let dir = tmpdir(&format!("equiv-{tag}"));
        {
            let c = McCache::start(config(branch, magazine, &dir));
            c.set(0, b"plain", b"first draft", 9, 0);
            c.set(0, b"gone", b"x", 0, 0);
            c.set(0, b"num", b"40", 0, 0);
            assert_eq!(c.arith(0, b"num", 1, true), mcache::ArithStatus::Ok(41));
            c.set(0, b"ttl", b"fades", 2, 1);
            assert!(c.touch(0, b"ttl", far));
            for (k, v, f, e) in [state[0], state[3], state[4]] {
                c.set(0, k, v, f, e); // the rest arrived by incr and touch
            }
            assert!(c.delete(0, b"gone"));
        }
        let loaded = McCache::start(config(branch, magazine, &dir));
        assert_eq!(loaded.dur_stats().unwrap().recovered_items, state.len() as u64, "{tag}");
        let was_set = McCache::start(config(branch, magazine, &tmpdir(&format!("equiv-set-{tag}"))));
        for &(k, v, f, e) in &state {
            assert_eq!(was_set.set(0, k, v, f, e), StoreStatus::Stored);
        }
        for key in state.iter().map(|s| s.0).chain([&b"gone"[..], b"never"]) {
            let key_s = String::from_utf8_lossy(key);
            assert_eq!(observe(&loaded, key), observe(&was_set, key), "{tag}: {key_s}");
        }
        // A loaded cache logs like any other: a set and the incr above
        // survive the next restart.
        assert_eq!(loaded.set(0, b"plain", b"beta", 5, 0), StoreStatus::Stored);
        drop(loaded);
        let again = McCache::start(config(branch, magazine, &dir));
        let get = |k: &[u8]| again.get(0, k).map(|g| (g.data, g.flags));
        assert_eq!(get(b"plain"), Some((b"beta".to_vec(), 5)), "{tag}");
        assert_eq!(get(b"num"), Some((b"42".to_vec(), 0)), "{tag}");
        assert_eq!(get(b"big"), Some((big.clone(), 3)), "{tag}");
        assert_eq!(again.dur_stats().unwrap().recovered_items, state.len() as u64, "{tag}");
        drop((again, was_set));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// A recovered set four times the memory limit starts, serves, and keeps
/// the newest-stamped items — whatever order the records sit in the file.
#[test]
fn oversized_recovery_keeps_the_newest_stamps() {
    let dir = tmpdir("oversized");
    let n = 4096u64;
    let value = vec![b'v'; 1000];
    {
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        // Newest stamp first in the file: file order is the wrong answer.
        for i in (0..n).rev() {
            let key = format!("k{i:05}").into_bytes();
            let set = Record::Set { cas: i + 1, flags: 0, abs_exp: 0, stored_unix: 1, key, value: value.clone() };
            log.append(i + 1, &set);
        }
        log.seal();
    }
    let mut cfg = config(Branch::IpNoLock, 0, &dir);
    cfg.slab.mem_limit = 1 << 20; // ~4 MB of live values
    let c = McCache::start(cfg);
    let s = c.stats();
    assert_eq!(c.dur_stats().unwrap().recovered_items, n, "every entry was stored in its turn");
    assert_eq!(s.global.total_items, n);
    assert!(s.global.curr_items < n / 2, "most of the set cannot fit: {s:?}");
    assert_eq!(s.global.evictions, n - s.global.curr_items, "evictions are real ones only");
    let held = |i: u64| c.get(0, format!("k{i:05}").as_bytes()).is_some();
    let newest = s.global.curr_items / 2;
    assert!((n - newest..n).all(held), "the newest {newest} stamps survive");
    assert!(!(0..n / 2).any(held), "the oldest half was evicted");
    assert_eq!(c.set(0, b"fresh", &value, 0, 0), StoreStatus::Stored);
    assert_eq!(c.get(0, b"fresh").unwrap().data, value);
    drop(c);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Presizing lands on the generation a cold cache grows to — no further,
/// and not pinned there: the same inserts after it cost the same
/// expansions.
#[test]
fn presized_table_expands_no_more_than_a_cold_one() {
    let n = 700u32; // 256 buckets grow once (past 384 items) to hold these
    let fill = |c: &McHandle, keys: std::ops::Range<u32>, want: u64| {
        for i in keys {
            assert_eq!(c.set(0, format!("k{i}").as_bytes(), b"v", 0, 0), StoreStatus::Stored);
        }
        // The maintainer migrates behind the inserts; anything beyond
        // `want` would show within the extra wait too.
        for _ in 0..500 {
            if c.stats().global.expansions >= want {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        std::thread::sleep(Duration::from_millis(100));
        c.stats().global.expansions
    };
    let dir = tmpdir("presize");
    let cold = start(Branch::IpNoLock, &dir);
    assert_eq!(fill(&cold, 0..n, 1), 1, "cold: one expansion to hold n");
    drop(cold);
    let warm = start(Branch::IpNoLock, &dir);
    assert_eq!(warm.dur_stats().unwrap().recovered_items, n as u64);
    assert_eq!(warm.stats().global.expansions, 0, "recovered: none, the table was presized");
    // n/2 more cross 768 items: the cold cache would expand once more, and
    // so must this one — once.
    assert_eq!(fill(&warm, n..n + n / 2, 1), 1);
    drop(warm);
    std::fs::remove_dir_all(&dir).unwrap();
}
