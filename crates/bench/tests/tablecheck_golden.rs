//! `reproduce tablecheck` prints Tables 1–4 from one worker with the
//! maintenance thread off, where every serialization decision is a pure
//! function of the workload seed. Its output is recorded in
//! `scripts/tablecheck.golden`; any byte that differs is a changed
//! serialization profile, not noise. Re-record only for a change that
//! means to move a transaction shape.

use std::process::Command;

#[test]
fn tablecheck_matches_the_golden_byte_for_byte() {
    let golden = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scripts/tablecheck.golden");
    let golden = std::fs::read(golden).expect("read scripts/tablecheck.golden");
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_reproduce"));
    // The golden is recorded at the default scale.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MC_") {
            cmd.env_remove(key);
        }
    }
    let out = cmd.arg("tablecheck").output().expect("spawn reproduce");
    assert!(out.status.success(), "reproduce tablecheck: {:?}", out.status);
    assert!(
        out.stdout == golden,
        "reproduce tablecheck differs from scripts/tablecheck.golden:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
