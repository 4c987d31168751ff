//! Durability-path benches: what the commit-time redo log costs on the
//! mutation path, and what a warm restart buys.
//!
//! Groups:
//!
//! * `durpath_set` — single-key overwrite SETs through the transactional
//!   store, four arms: no log at all, log attached with `fsync=off`
//!   (encode + writer mutex + page-cache write per commit), `every:32`
//!   group commit, and `always` (one deduplicated `fdatasync` per
//!   commit). The nolog/fsync-off pair runs interleaved via
//!   `bench_pair`, so their ratio — the pure logging overhead with the
//!   disk out of the picture — is stable across host-noise epochs.
//! * `durpath_recovery` — a full `McCache::start` on a sealed log: segment
//!   scan, checksum verify, fold, direct load into slab/assoc, CAS-floor
//!   restore. Three arms: 2 000 items (dominated by `start`'s fixed cost);
//!   the sysbench `dur_set_nofsync` fixture shape — 100k live keys under
//!   250k records, 40 MB, so the start also compacts; and the start after
//!   that one, on the compacted log. This is the cold-start price of a
//!   warm cache.
//!
//! Gates: `fsync=always` must cost at least as much as no log at all
//! (an inversion means the bench or the log stopped doing work), and
//! every recovery must replay exactly the expected item count with zero
//! torn records. The committed `BENCH_durpath_*.json` are the recorded
//! numbers; end-to-end drift is sysbench's `dur_set_nofsync` pairs.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use mcache::dur::{DurLog, Record};
use mcache::{Branch, DurFsync, McCache, McConfig, McHandle, SlabConfig, Stage};
use testkit::bench::{BenchStats, Criterion};
use testkit::{criterion_group, criterion_main};

const KEYS: usize = 64;
const VALUE: &[u8] = &[0x7d; 100];

fn key(i: usize) -> String {
    format!("durbench:{i:04}")
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("stm-durpath-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).expect("create bench log dir");
    d
}

fn cache(dur: Option<(&PathBuf, DurFsync)>) -> McHandle {
    let handle = McCache::start(McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: 1,
        dur_path: dur.map(|(d, _)| d.clone()),
        dur_fsync: dur.map_or(DurFsync::Off, |(_, f)| f),
        ..Default::default()
    });
    for i in 0..KEYS {
        assert_eq!(
            handle.set(0, key(i).as_bytes(), VALUE, 0, 0),
            mcache::StoreStatus::Stored
        );
    }
    handle
}

fn median_of(stats: &[BenchStats], suffix: &str) -> f64 {
    stats
        .iter()
        .find(|s| s.name.ends_with(suffix))
        .unwrap_or_else(|| panic!("no bench named *{suffix}"))
        .median_ns
}

fn bench_set(c: &mut Criterion) {
    let nolog = cache(None);
    let dir_off = tmpdir("off");
    let log_off = cache(Some((&dir_off, DurFsync::Off)));
    let dir_n = tmpdir("every32");
    let log_n = cache(Some((&dir_n, DurFsync::EveryN(32))));
    let dir_always = tmpdir("always");
    let log_always = cache(Some((&dir_always, DurFsync::Always)));

    let mut g = c.benchmark_group("durpath_set");
    g.sample_size(20);
    let mut i = 0usize;
    let mut j = 0usize;
    g.bench_pair(
        "set/nolog",
        |b| {
            b.iter(|| {
                i = (i + 1) % KEYS;
                black_box(nolog.set(0, key(i).as_bytes(), VALUE, 0, 0))
            })
        },
        "set/log_fsync_off",
        |b| {
            b.iter(|| {
                j = (j + 1) % KEYS;
                black_box(log_off.set(0, key(j).as_bytes(), VALUE, 0, 0))
            })
        },
    );
    let mut m = 0usize;
    g.bench_function("set/log_every32", |b| {
        b.iter(|| {
            m = (m + 1) % KEYS;
            black_box(log_n.set(0, key(m).as_bytes(), VALUE, 0, 0))
        })
    });
    let mut n = 0usize;
    g.bench_function("set/log_always", |b| {
        b.iter(|| {
            n = (n + 1) % KEYS;
            black_box(log_always.set(0, key(n).as_bytes(), VALUE, 0, 0))
        })
    });
    let stats = g.finish();

    // Sanity: the logged arms actually logged (no silent degradation).
    for (name, h) in [("fsync_off", &log_off), ("every32", &log_n), ("always", &log_always)] {
        let d = h.dur_stats().expect("log attached");
        assert!(h.dur_enabled(), "{name}: log degraded during the bench");
        assert!(d.appends > 0, "{name}: no appends recorded");
        assert_eq!(d.log_write_errors, 0, "{name}: write errors during the bench");
    }
    // Inversion gate: paying an fdatasync per commit can never beat the
    // log-free store. (The interesting number — fsync_off vs nolog — is
    // reported and baselined, but the disk-free overhead is small enough
    // that a hard ratio floor would just flake on shared hosts.)
    let always = median_of(&stats, "set/log_always");
    let free = median_of(&stats, "set/nolog");
    assert!(
        always >= free,
        "fsync=always ({always:.0}ns) beat nolog ({free:.0}ns) — the log is not syncing"
    );

    drop(nolog);
    drop(log_off);
    drop(log_n);
    drop(log_always);
    for d in [dir_off, dir_n, dir_always] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

fn bench_recovery(c: &mut Criterion) {
    const ITEMS: usize = 2000;
    let dir = tmpdir("recovery");
    let recover_cfg = || McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: 1,
        dur_path: Some(dir.clone()),
        dur_fsync: DurFsync::Off,
        ..Default::default()
    };
    {
        let h = McCache::start(recover_cfg());
        for i in 0..ITEMS {
            h.set(0, format!("rkey:{i:06}").as_bytes(), VALUE, 0, 0);
        }
    } // drop seals
    let mut g = c.benchmark_group("durpath_recovery");
    g.sample_size(10);
    g.bench_function("recover/2000_items", |b| {
        b.iter(|| {
            let h = McCache::start(recover_cfg());
            let d = h.dur_stats().expect("log attached");
            assert_eq!(d.recovered_items, ITEMS as u64, "replay must be exact");
            assert_eq!(d.torn_records_dropped, 0, "sealed log has no torn tail");
            black_box(h)
        })
    });
    let _ = std::fs::remove_dir_all(&dir);

    // The sysbench fixture shape, written the way sysbench writes it.
    const LIVE: usize = 100_000;
    const RECORDS: usize = 250_000;
    let fixture = tmpdir("recovery-fixture");
    let compacted = tmpdir("recovery-compacted");
    let work = tmpdir("recovery-work");
    let big_cfg = |dir: &Path| McConfig {
        branch: Branch::IpNoLock,
        workers: 2,
        slab: SlabConfig { mem_limit: 64 << 20, ..SlabConfig::default() },
        dur_path: Some(dir.to_path_buf()),
        dur_fsync: DurFsync::Off,
        ..Default::default()
    };
    {
        let segment_bytes = McConfig::default().dur_segment_bytes;
        let log = DurLog::open(&fixture, DurFsync::Off, segment_bytes, 0).expect("fixture log");
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for i in 0..RECORDS {
            // Each key once, then xorshift-chosen overwrites.
            let k = if i < LIVE {
                i
            } else {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % LIVE as u64) as usize
            };
            let set = Record::Set {
                cas: i as u64 + 1,
                flags: 0,
                abs_exp: 0,
                stored_unix: 1,
                key: format!("rkey:{k:012}").into_bytes(),
                value: VALUE.to_vec(),
            };
            log.append(i as u64 + 1, &set);
        }
        log.seal();
        assert!(!log.is_failed(), "writing the fixture log failed");
    }
    // One timed `start` per iteration on a fresh copy of `from` (a start
    // that compacts consumes its input); the copy and the drop are not
    // timed.
    let timed_start = |from: &Path, compactions: u64, iters: u64| {
        let mut elapsed = Duration::ZERO;
        for _ in 0..iters {
            copy_dir(from, &work);
            let t = Instant::now();
            let h = McCache::start(big_cfg(&work));
            elapsed += t.elapsed();
            let d = h.dur_stats().expect("log attached");
            assert_eq!(d.recovered_items, LIVE as u64, "replay must be exact");
            assert_eq!(d.torn_records_dropped, 0, "sealed log has no torn tail");
            assert_eq!(d.compactions, compactions);
            assert_eq!(h.stats().global.expansions, 0, "the table was presized");
            black_box(h);
        }
        elapsed
    };
    g.bench_function("recover/100k_live_250k_records", |b| {
        b.iter_custom(|iters| timed_start(&fixture, 1, iters))
    });
    copy_dir(&fixture, &compacted);
    drop(McCache::start(big_cfg(&compacted)));
    g.bench_function("recover/100k_sealed_compacted", |b| {
        b.iter_custom(|iters| timed_start(&compacted, 0, iters))
    });
    g.finish();
    for d in [fixture, compacted, work] {
        let _ = std::fs::remove_dir_all(&d);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create bench work dir");
    for entry in std::fs::read_dir(from).expect("read bench fixture dir") {
        let entry = entry.expect("read bench fixture dir");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy bench fixture");
    }
}

criterion_group!(benches, bench_set, bench_recovery);
criterion_main!(benches);
