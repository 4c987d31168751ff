//! Allocation guards for the write path — the magazine fast lane, the
//! redo-log append — and the allocation ceiling of log recovery.
//!
//! ISSUE 5's acceptance criterion: once a worker's slab magazine is warm,
//! a steady-state overwrite SET must perform **no heap allocation at
//! all** — not in the cache layer (magazine pop, item init, hash relink),
//! not in tmstd (the snprintf clones render into stack buffers), and not
//! in the STM (log arenas are reused across transactions). A counting
//! global allocator proves it the hard way.

use mcache::dur::{recover, DurLog, Record};
use mcache::{Branch, DurFsync, McCache, McConfig, SlabConfig, Stage, StoreStatus};
use testkit::alloc::thread_allocs;

#[global_allocator]
static ALLOC: testkit::alloc::Counting = testkit::alloc::Counting;

fn config() -> McConfig {
    McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: 2,
        slab: SlabConfig {
            mem_limit: 4 << 20,
            page_size: 64 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 8,
        hash_power_max: 8, // no expansion mid-measurement
        item_lock_power: 6,
        magazine: 32,
        lru_bump_every: 0,
        ..Default::default()
    }
}

#[test]
fn warm_magazine_sets_never_allocate() {
    let c = McCache::start(config());

    // Warm everything the hot path touches: the worker magazine (one
    // refill), the reusable STM log arenas, and the stats shards. An
    // overwrite SET recycles its own chunk, so steady state never goes
    // back to the shared freelist.
    let mut value = [7u8; 64];
    for i in 0..300u32 {
        value[0] = i as u8;
        assert_eq!(c.set(0, b"hot-key", &value, 0, 0), StoreStatus::Stored);
    }

    let before = thread_allocs();
    for i in 0..100u32 {
        value[0] = i as u8;
        let st = c.set(0, b"hot-key", &value, 0, 0);
        debug_assert_eq!(st, StoreStatus::Stored);
    }
    let after = thread_allocs();
    assert_eq!(
        after - before,
        0,
        "steady-state SET on a warm magazine must be allocation-free"
    );

    // The values really landed.
    let v = c.get(0, b"hot-key").unwrap();
    assert_eq!(v.data[0], 99);
    assert!(v.data[1..].iter().all(|&b| b == 7));
}

#[test]
fn plain_transactional_sets_do_allocate_without_magazines() {
    // Control arm: with the magazine off, the same workload goes through
    // the 3-transaction freelist path, which is not allocation-free.
    // This keeps the zero-alloc test honest — if the counter were broken,
    // both tests would pass vacuously.
    let mut cfg = config();
    cfg.magazine = 0;
    let c = McCache::start(cfg);
    let mut value = [7u8; 64];
    for i in 0..300u32 {
        value[0] = i as u8;
        assert_eq!(c.set(0, b"hot-key", &value, 0, 0), StoreStatus::Stored);
    }
    let before = thread_allocs();
    for i in 0..100u32 {
        value[0] = i as u8;
        c.set(0, b"hot-key", &value, 0, 0);
    }
    // GETs allocate their return Vec either way; make sure the counter
    // itself moves on this thread.
    let _ = c.get(0, b"hot-key");
    assert!(thread_allocs() > before, "counting allocator must be live");
}

fn log_dir(tag: &str) -> std::path::PathBuf {
    let d = std::env::temp_dir().join(format!("mcache-writepath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn set_record(key: u32, version: u32) -> Record {
    Record::Set {
        cas: 1,
        flags: 0,
        abs_exp: 0,
        stored_unix: 100,
        key: format!("key-{key:06}").into_bytes(),
        value: format!("{version:0100}").into_bytes(),
    }
}

#[test]
fn warm_log_appends_never_allocate() {
    let dir = log_dir("append");
    let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
    let rec = set_record(1, 1);
    log.append(1, &rec); // grows this thread's frame buffer once
    let before = thread_allocs();
    for stamp in 2..102 {
        log.append(stamp, &rec);
    }
    assert_eq!(thread_allocs() - before, 0, "a steady-state append encodes in place");
    assert_eq!(log.stats().snapshot().appends, 101);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery pays for what survives, not for what was logged: a record
/// that loses the fold is only ever a slice of its segment's buffer.
#[test]
fn recover_allocates_per_live_entry_not_per_record() {
    let dir = log_dir("recover");
    let (live, records) = (1000u32, 10_000u32);
    let log = DurLog::open(&dir, DurFsync::Off, 128 << 10, 0).unwrap();
    for i in 0..records {
        log.append(i as u64 + 1, &set_record(i % live, i));
    }
    log.seal();
    drop(log);
    let before = thread_allocs();
    let rec = recover(&dir).unwrap();
    let allocs = thread_allocs() - before;
    assert_eq!((rec.entries.len() as u32, rec.records_scanned as u32), (live, records));
    assert!(rec.segments >= 8, "the ceiling has to hold across segments: {}", rec.segments);
    // Key and value per live entry; per segment its path, buffer, slot
    // list and scan thread; a handful for the merged index and the map.
    let ceiling = 2 * live as u64 + 32 * rec.segments + 64;
    assert!(allocs <= ceiling, "{allocs} allocations for {live} live of {records} records");
    assert!(allocs < records as u64, "fewer allocations than records: {allocs}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Recovery's entries are positions in the segment images it keeps, so
/// what it allocates follows the segments and the fold map, not the live
/// count: two logs of the same records, one over 1 000 keys and one over
/// 10 000, stay under one ceiling that no per-entry copy fits in.
#[test]
fn recover_allocates_per_segment_not_per_live_entry() {
    let records = 10_000u32;
    let mut counts = Vec::new();
    for live in [1000u32, 10_000] {
        let dir = log_dir(&format!("recover-{live}"));
        let log = DurLog::open(&dir, DurFsync::Off, 128 << 10, 0).unwrap();
        for i in 0..records {
            log.append(i as u64 + 1, &set_record(i % live, i));
        }
        log.seal();
        drop(log);
        let before = thread_allocs();
        let rec = recover(&dir).unwrap();
        let allocs = thread_allocs() - before;
        assert_eq!(rec.entries.len() as u32, live);
        assert!(rec.segments >= 8, "the ceiling has to hold across segments: {}", rec.segments);
        counts.push((live, allocs, rec.segments));
        std::fs::remove_dir_all(&dir).unwrap();
    }
    // Both logs hold the same records, so the same segments. Per segment
    // its path, buffer, slot list and scan thread; a handful for the
    // merged slots, the fold map's growth and the entry table.
    let ceiling = 32 * counts[0].2 + 64;
    assert_eq!(counts[0].2, counts[1].2, "same records, same segments: {counts:?}");
    for &(live, allocs, _) in &counts {
        assert!(allocs <= ceiling, "{allocs} allocations for {live} live, ceiling {ceiling}");
    }
}

/// A binary GET hit through the calls a server worker makes between its
/// read and its write — `parse_frame`, `execute`, `encode` — on the branch
/// the system benchmark runs. The ceiling is what the protocol layer
/// allocated when it had one executor per protocol (the owned key, the
/// value out of the cache, the response frame: three per GET, measured
/// at commit 73b91ce): a run of one must not pay for a run's buffers.
#[test]
fn binary_get_hit_allocates_no_more_than_before() {
    use mcache::proto::binary::{execute, parse_frame, Opcode, Request};
    const CEILING: u64 = 300;
    let c = McCache::start(McConfig { branch: Branch::IpNoLock, magazine: 0, ..config() });
    assert_eq!(c.set(0, b"hot-key", &[7u8; 100], 0, 0), StoreStatus::Stored);
    let get = Request {
        opcode: Opcode::Get,
        opaque: 1,
        cas: 0,
        key: b"hot-key".to_vec(),
        value: Vec::new(),
        extra: 0,
    }
    .encode();
    let hit = || execute(&c, 0, &parse_frame(&get).expect("a GET frame")).encode();
    for _ in 0..100 {
        hit();
    }
    let before = thread_allocs();
    for _ in 0..100 {
        assert_eq!(hit().len(), 24 + 4 + 100);
    }
    let allocs = thread_allocs() - before;
    assert!(allocs <= CEILING, "{allocs} allocations per 100 GET hits, ceiling {CEILING}");
}
