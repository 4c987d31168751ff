//! The wire smoke: one real `mcached` on ephemeral TCP + UDP + Unix
//! transports, `mcslap` over every socket target plus the two
//! connection-scale scenarios. Each run asserts every response against
//! the workload oracle and `frame_errors=0` server-side (and exits
//! non-zero otherwise); the server must then shut down cleanly through
//! its pipe, still at zero frame errors.

mod support;

use std::process::Command;

use support::Daemon;

/// Runs `mcslap` with `args`, which must exit 0; returns its stdout.
fn mcslap(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_mcslap")).args(args).output().expect("spawn mcslap");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "mcslap {args:?} failed: {:?}\n{stdout}{stderr}", out.status);
    stdout
}

/// The `keys_touched=N/K` figure of a report: distinct keys the op stream
/// drew.
fn keys_touched(report: &str) -> usize {
    let tail = report.split("keys_touched=").nth(1).expect("report names keys_touched");
    tail.split('/').next().expect("N/K").parse().expect("a count")
}

#[test]
fn every_socket_target_and_scenario_runs_clean() {
    let sock = std::env::temp_dir().join(format!("mcslap-wire-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&sock);
    let sock = sock.to_str().expect("utf-8 temp path");
    let d = Daemon::spawn(&["--port", "0", "--udp", "0", "--unix", sock, "--threads", "2"]);
    let tcp = d.addr.as_str();
    let udp = d.udp_addr.as_deref().expect("mcached printed LISTENING-UDP");

    // Stream ASCII + multiget; stream binary + multiget + SETQ pipeline.
    mcslap(&["--tcp", tcp, "-x", "5000", "-c", "4", "--read-ratio", "90", "--multiget", "8"]);
    mcslap(&[
        "--tcp", tcp, "-x", "5000", "-c", "4", "--read-ratio", "50", "--binary", "--multiget", "4",
        "--setq-pipeline", "8",
    ]);
    mcslap(&["--unix", sock, "-x", "3000", "-c", "2", "--read-ratio", "80"]);
    let report = mcslap(&["--udp", udp, "-x", "2000", "--connections", "2", "--read-ratio", "90"]);
    assert!(report.contains("latency_us[udp-roundtrip]"), "{report}");
    // 4 000-byte values: every GET hit reassembles from several datagrams.
    mcslap(&[
        "--udp", udp, "-x", "500", "--connections", "2", "--keys", "100", "--value-size", "4000",
    ]);

    // Churn: 4 workers x 50 lifecycles, each a set and a must-hit get.
    let report = mcslap(&["--tcp", tcp, "--churn", "4", "-x", "50", "--keys", "200"]);
    assert!(report.contains("churn: 200 connection lifecycles"), "{report}");
    assert!(report.contains("latency_us[conn-lifecycle]"), "{report}");
    assert!(report.contains("(n=200)"), "one latency sample per lifecycle: {report}");
    // Fan-in: a gets-only stream, so `fanin-get` times nothing but GETs
    // and the server's miss counter must not move.
    let misses = |report: &str| {
        let tail = report.split("get_misses=").nth(1).expect("server line names get_misses");
        tail.split(' ').next().expect("a value").parse::<u64>().expect("a count")
    };
    let before = misses(&report);
    let report =
        mcslap(&["--tcp", tcp, "--fanin", "200", "-c", "4", "-x", "400", "--keys", "200"]);
    assert!(report.contains("100% reads"), "{report}");
    assert!(report.contains("fan-in: 200 held connections"), "{report}");
    assert!(report.contains("latency_us[fanin-get]"), "{report}");
    // Skewed multigets repeat keys inside one batch; every one must hit.
    let report = mcslap(&[
        "--unix", sock, "--fanin", "16", "-c", "2", "-x", "400", "--multiget", "8", "--zipf", "0.9",
    ]);
    assert_eq!(misses(&report), before, "a fan-in GET missed: {report}");

    // --zipf shapes the stream on a socket target too: the skewed run
    // draws far fewer distinct keys than the uniform one.
    let skewed = keys_touched(&mcslap(&["--tcp", tcp, "-x", "500", "--zipf", "0.9"]));
    let uniform = keys_touched(&mcslap(&["--tcp", tcp, "-x", "500", "--zipf", "0"]));
    assert!(skewed * 10 < uniform * 9, "zipf 0.9 touched {skewed} keys, uniform {uniform}");

    let out = d.stop_via_pipe();
    assert!(out.contains(" frame_errors=0 "), "server counted frame errors: {out:?}");
    assert!(out.contains(" request_panics=0"), "a handler panicked: {out:?}");
}
