//! Recovery-semantics conformance against a REAL `mcached` process over
//! TCP: kill it (gracefully and un-gracefully), start a new process on
//! the same redo-log directory, and check what the wire serves.
//!
//! What a warm restart must and must not preserve:
//!
//! * last-write-wins values, flags, and the durability stats surface
//! * CAS uniqueness ACROSS processes — every post-restart id is strictly
//!   above every pre-crash id (the recovered floor)
//! * expired-at-replay entries are skipped, not resurrected
//! * `flush_all` is logged, so replay cannot resurrect flushed items
//! * `SIGTERM` drains, seals the segment, and prints the final counters

mod support;

use std::path::{Path, PathBuf};
use std::time::Duration;

use bench::wire::WireConn;
use support::Daemon;

/// `mcached` on an ephemeral port with the redo log in `dur_dir`.
fn start(dur_dir: &Path, fsync: &str) -> Daemon {
    let dir = dur_dir.to_str().expect("utf-8 temp path");
    Daemon::spawn(&[
        "--port",
        "0",
        "--threads",
        "2",
        "--branch",
        "it-oncommit",
        "--dur-path",
        dir,
        "--dur-fsync",
        fsync,
    ])
}

/// The `name=value` fields of a `RECOVERED` banner, in order.
fn banner_fields(banner: &str) -> Vec<(&str, u64)> {
    let fields = banner.strip_prefix("RECOVERED ").expect("a RECOVERED banner");
    fields
        .split(' ')
        .map(|f| {
            let (name, value) = f.split_once('=').expect("name=value");
            (name, value.parse().expect("a count"))
        })
        .collect()
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("recovery-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    d
}

fn set(conn: &mut WireConn, key: &str, value: &[u8], flags: u32, exptime: u32) {
    let mut req = format!("set {key} {flags} {exptime} {}\r\n", value.len()).into_bytes();
    req.extend_from_slice(value);
    req.extend_from_slice(b"\r\n");
    assert_eq!(conn.ascii_line(&req).expect("set"), b"STORED");
}

fn stat(conn: &mut WireConn, name: &str) -> u64 {
    conn.ascii_stats()
        .expect("stats")
        .into_iter()
        .find(|(k, _)| k == name)
        .unwrap_or_else(|| panic!("stats missing {name}"))
        .1
}

#[test]
fn sigterm_restart_preserves_values_cas_floor_and_expiry() {
    let dir = tmpdir("sigterm");
    let d = start(&dir, "always");
    let fields = banner_fields(d.recovered_banner.as_deref().expect("log attached"));
    let names: Vec<&str> = fields.iter().map(|&(name, _)| name).collect();
    assert_eq!(
        names,
        ["items", "torn_records_dropped", "scan_us", "fold_us", "load_us", "compact_us"],
        "the banner counts, then the recovery's phases"
    );
    assert_eq!(
        fields[..2],
        [("items", 0), ("torn_records_dropped", 0)],
        "a fresh directory recovers nothing"
    );
    assert_eq!(fields[5], ("compact_us", 0), "nothing to compact");
    let old_cas;
    {
        let mut c = d.conn();
        set(&mut c, "keep", b"v1", 9, 0);
        set(&mut c, "keep", b"v2", 9, 0); // overwrite: replay keeps last
        set(&mut c, "brief", b"x", 0, 1); // expires while we sleep below
        assert_eq!(c.ascii_line(b"incr absent 1\r\n").expect("incr"), b"NOT_FOUND");
        let hits = c.ascii_get(&[b"keep"], true).expect("gets");
        old_cas = hits[0].cas;
        assert!(stat(&mut c, "dur_appends") >= 3, "every mutation logged");
        assert_eq!(stat(&mut c, "log_write_errors"), 0);
    }
    let out = d.stop_via_sigterm();
    assert!(
        out.contains("shutdown: total_connections="),
        "SIGTERM must print the final wire counters: {out:?}"
    );
    assert!(
        out.contains("durability: dur_appends="),
        "SIGTERM must print the durability counters: {out:?}"
    );

    // Let `brief` pass its 1s expiry so replay must drop it.
    std::thread::sleep(Duration::from_millis(1300));

    let d = start(&dir, "always");
    let banner = d.recovered_banner.clone().expect("log attached");
    assert_eq!(
        banner_fields(&banner)[1],
        ("torn_records_dropped", 0),
        "sealed log recovers without torn records: {banner}"
    );
    {
        let mut c = d.conn();
        assert_eq!(stat(&mut c, "recovered_items"), 1, "only `keep` is live at replay");
        let hits = c.ascii_get(&[b"keep", b"brief"], true).expect("gets");
        assert_eq!(hits.len(), 1, "expired entry must not be resurrected");
        assert_eq!(hits[0].data, b"v2", "last write wins across restart");
        assert_eq!(hits[0].flags, 9, "flags replayed");
        assert!(
            hits[0].cas > old_cas,
            "replayed CAS {} must clear the pre-crash id {old_cas}",
            hits[0].cas
        );
        set(&mut c, "fresh", b"y", 0, 0);
        let fresh = c.ascii_get(&[b"fresh"], true).expect("gets");
        assert!(
            fresh[0].cas > old_cas,
            "post-restart CAS ids stay strictly above every pre-crash id"
        );
    }
    d.stop_via_pipe();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn flush_all_is_logged_and_not_resurrected() {
    let dir = tmpdir("flush");
    let d = start(&dir, "every:8");
    {
        let mut c = d.conn();
        set(&mut c, "pre", b"doomed", 0, 0);
        assert_eq!(c.ascii_line(b"flush_all\r\n").expect("flush"), b"OK");
        // Cross the second boundary so the post-flush store is live under
        // memcached's `last > watermark` rule in BOTH incarnations.
        std::thread::sleep(Duration::from_millis(1100));
        set(&mut c, "post", b"alive", 0, 0);
        let hits = c.ascii_get(&[b"pre", b"post"], false).expect("get");
        assert_eq!(hits.len(), 1, "flush took `pre` in the live cache");
    }
    let out = d.stop_via_pipe();
    assert!(out.contains("durability:"), "pipe shutdown prints counters too: {out:?}");

    let d = start(&dir, "every:8");
    {
        let mut c = d.conn();
        let hits = c.ascii_get(&[b"pre", b"post"], false).expect("get");
        assert_eq!(hits.len(), 1, "replay must not resurrect flushed items");
        assert_eq!(hits[0].key, b"post");
        assert_eq!(hits[0].data, b"alive");
    }
    d.stop_via_pipe();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hard_kill_recovers_synced_prefix() {
    let dir = tmpdir("kill9");
    let d = start(&dir, "always");
    {
        let mut c = d.conn();
        for i in 0..20 {
            set(&mut c, &format!("k{i}"), b"v", 0, 0);
        }
        assert_eq!(stat(&mut c, "dur_appends"), 20);
    }
    // SIGKILL: no drain, no seal. With fsync=always every append was
    // synced before its STORED went out, so nothing may be lost.
    d.kill_hard();
    let d = start(&dir, "always");
    {
        let mut c = d.conn();
        assert_eq!(
            stat(&mut c, "recovered_items"),
            20,
            "fsync=always loses nothing on SIGKILL"
        );
        let keys: Vec<String> = (0..20).map(|i| format!("k{i}")).collect();
        let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_bytes()).collect();
        assert_eq!(c.ascii_get(&refs, false).expect("get").len(), 20);
    }
    d.stop_via_pipe();
    let _ = std::fs::remove_dir_all(&dir);
}
