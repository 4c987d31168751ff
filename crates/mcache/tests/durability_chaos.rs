//! Graceful degradation: a redo-log I/O failure must leave the cache
//! fully serving (cache-only mode), tick `log_write_errors`, and never
//! panic or block a commit.
//!
//! Lives in its own integration-test binary because the chaos triggers
//! are process-global statics; sharing a process with the other
//! durability tests would inject failures into their logs. For the same
//! reason every test here holds [`CHAOS`] for as long as it appends.

use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Mutex;

use mcache::dur::{recover, DurLog, Record, APPEND_COUNTER, CHAOS_FAIL_AFTER};
use mcache::{Branch, DurFsync, McCache, McConfig, SlabConfig, Stage};

/// Serialises the tests of this binary: an armed `CHAOS_FAIL_AFTER` fails
/// every append in the process, whichever log it was meant for.
static CHAOS: Mutex<()> = Mutex::new(());

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mcache-durchaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The writer alone, no cache on top: the first failed append degrades
/// the log, and it stays degraded after the fault goes away.
#[test]
fn chaos_fail_degrades_to_cache_only_once() {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("writer");
    let set = |key: &[u8], cas: u64| Record::Set {
        cas,
        flags: 7,
        abs_exp: 0,
        stored_unix: 100,
        key: key.to_vec(),
        value: b"v".to_vec(),
    };
    let log = DurLog::open(&dir, DurFsync::Always, 1 << 20, 0).unwrap();
    log.append(1, &set(b"a", 1));
    CHAOS_FAIL_AFTER.store(APPEND_COUNTER.load(Ordering::SeqCst), Ordering::SeqCst);
    log.append(2, &set(b"b", 2));
    log.append(3, &set(b"c", 3));
    CHAOS_FAIL_AFTER.store(u64::MAX, Ordering::SeqCst);
    // Degradation is sticky even after the chaos window closes.
    log.append(4, &set(b"d", 4));
    assert!(log.is_failed());
    let s = log.stats().snapshot();
    assert_eq!(s.appends, 1, "no append lands after degradation");
    assert_eq!(s.log_write_errors, 3);
    assert_eq!(recover(&dir).unwrap().entries.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn log_write_failure_degrades_to_cache_only() {
    let _serial = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let dir = tmpdir("cache");

    let c = McCache::start(McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: 2,
        slab: SlabConfig {
            mem_limit: 8 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.25,
        },
        hash_power: 8,
        hash_power_max: 10,
        dur_path: Some(dir.clone()),
        dur_fsync: DurFsync::Always,
        ..Default::default()
    });
    c.set(0, b"before", b"v", 0, 0);
    assert!(c.dur_enabled());

    // Every append from here on fails as if the disk returned EIO.
    CHAOS_FAIL_AFTER.store(APPEND_COUNTER.load(Ordering::SeqCst), Ordering::SeqCst);
    for i in 0..50u32 {
        c.set(0, format!("k{i}").as_bytes(), b"v", 0, 0);
    }
    assert!(c.delete(0, b"k0"));
    CHAOS_FAIL_AFTER.store(u64::MAX, Ordering::SeqCst);

    // The cache itself never noticed: every op served normally.
    assert_eq!(c.get(0, b"k1").unwrap().data, b"v");
    assert_eq!(c.get(0, b"k0"), None);
    assert!(!c.dur_enabled(), "log must be in cache-only mode");
    let d = c.dur_stats().unwrap();
    assert!(
        d.log_write_errors >= 51,
        "each dropped append must tick log_write_errors: {d:?}"
    );
    // Degradation is sticky: post-chaos appends stay dropped.
    c.set(0, b"late", b"v", 0, 0);
    let d2 = c.dur_stats().unwrap();
    assert!(d2.log_write_errors > d.log_write_errors);
    assert_eq!(d2.appends, d.appends, "no append lands after degradation");

    drop(c);
    let _ = std::fs::remove_dir_all(&dir);
}
