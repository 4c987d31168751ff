//! The slab pool commits memory when pages are carved, not when the cache
//! starts, and gives it back when the cache is dropped. The only test in
//! its file, so it runs in a process of its own and the resident-set
//! readings see no other test's allocations. Linux only: it reads
//! `VmRSS` from `/proc/self/status`.

#![cfg(target_os = "linux")]

use mcache::{McCache, McConfig, SlabConfig, StoreStatus};

const MIB: u64 = 1 << 20;

/// This process's resident set, in bytes.
fn rss() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmRSS line in kB");
    kb * 1024
}

#[test]
fn slab_memory_is_committed_on_carve_and_returned_on_drop() {
    let base = rss();
    // The default hash-table geometry: a debug build writes every
    // preallocated bucket generation, and that must fit the bound too.
    let cache = McCache::start(McConfig {
        slab: SlabConfig {
            mem_limit: 1 << 30,
            ..SlabConfig::default()
        },
        maintenance: false,
        ..McConfig::default()
    });
    let started = rss();
    assert!(
        started < base + 32 * MIB,
        "starting a 1 GiB cache grew RSS by {} MiB",
        (started - base) / MIB
    );

    let value = [b'v'; 100];
    for i in 0..20_000 {
        let key = format!("key{i}");
        assert_eq!(
            cache.set(0, key.as_bytes(), &value, 0, 0),
            StoreStatus::Stored
        );
    }
    let malloced = cache.stats().total_malloced;
    assert!(malloced > 0 && malloced < 1 << 30, "{malloced}");
    let stored = rss();
    assert!(
        stored <= started + malloced + 16 * MIB,
        "20 000 SETs grew RSS by {} MiB with {} MiB malloced",
        stored.saturating_sub(started) / MIB,
        malloced / MIB
    );

    drop(cache);
    let dropped = rss();
    assert!(
        dropped < base + 16 * MIB,
        "RSS after the drop is {} MiB above the start",
        dropped.saturating_sub(base) / MIB
    );
}
