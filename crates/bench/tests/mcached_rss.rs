//! An idle `mcached` keeps its slab pool uncommitted: the real binary,
//! started with its defaults, is resident in well under the pool's size.
//! Linux only: it reads the child's `VmRSS` from `/proc/<pid>/status`.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

#[test]
fn idle_mcached_commits_no_slab_pages() {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_mcached"));
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("MC_") {
            cmd.env_remove(k);
        }
    }
    let mut child = cmd
        .args(["--port", "0"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn mcached");
    let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
    let mut line = String::new();
    while !line.starts_with("LISTENING ") {
        line.clear();
        let n = stdout.read_line(&mut line).expect("read startup banner");
        assert!(n > 0, "mcached exited before LISTENING");
    }

    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id()))
        .expect("read the child's /proc status");
    let rss_kb: u64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|v| v.trim().parse().ok())
        .expect("a VmRSS line in kB");

    drop(child.stdin.take()); // EOF on stdin stops the server
    let exit = child.wait().expect("wait for mcached");
    assert!(exit.success(), "{exit:?}");
    assert!(rss_kb < 16 << 10, "idle mcached is resident in {rss_kb} kB");
}
