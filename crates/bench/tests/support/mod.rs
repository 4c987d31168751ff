//! A real `mcached` child process for the wire tests: spawned on ephemeral
//! ports, addressed through its `LISTENING*` banner, stopped through its
//! stdin pipe or a signal.
#![allow(dead_code)] // each test binary uses its own subset

use std::io::{BufRead, BufReader, Read, Write};
use std::process::{Child, ChildStdout, Command, Stdio};

use bench::wire::WireConn;

pub struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The bound TCP address.
    pub addr: String,
    /// The bound UDP address, when started with `--udp`.
    pub udp_addr: Option<String>,
    /// The `RECOVERED items=N torn_records_dropped=M scan_us=…` banner, when the
    /// server started with a log attached.
    pub recovered_banner: Option<String>,
}

impl Daemon {
    /// Spawns `mcached` with `args` and waits for the `LISTENING` line of
    /// every transport they ask for (TCP, then `--udp`, then `--unix`).
    pub fn spawn(args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mcached"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn mcached");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let last = if args.contains(&"--unix") {
            "LISTENING-UNIX "
        } else if args.contains(&"--udp") {
            "LISTENING-UDP "
        } else {
            "LISTENING "
        };
        let (mut recovered_banner, mut addr, mut udp_addr) = (None, None, None);
        for _ in 0..64 {
            let mut line = String::new();
            if stdout.read_line(&mut line).expect("read startup banner") == 0 {
                break;
            }
            let line = line.trim();
            if line.starts_with("RECOVERED ") {
                recovered_banner = Some(line.to_string());
            } else if let Some(a) = line.strip_prefix("LISTENING ") {
                addr = Some(a.to_string());
            } else if let Some(a) = line.strip_prefix("LISTENING-UDP ") {
                udp_addr = Some(a.to_string());
            }
            if line.starts_with(last) {
                break;
            }
        }
        Daemon {
            child,
            stdout,
            addr: addr.expect("mcached printed LISTENING"),
            udp_addr,
            recovered_banner,
        }
    }

    pub fn conn(&self) -> WireConn {
        WireConn::connect(&self.addr).expect("connect to mcached")
    }

    /// Graceful stop through the stdin pipe; returns the full remaining
    /// stdout (the shutdown counters).
    pub fn stop_via_pipe(mut self) -> String {
        self.child
            .stdin
            .take()
            .expect("piped stdin")
            .write_all(b"shutdown\n")
            .expect("write shutdown");
        self.wait_and_drain()
    }

    /// Graceful stop via SIGTERM; returns the full remaining stdout.
    pub fn stop_via_sigterm(mut self) -> String {
        let ok = Command::new("kill")
            .args(["-TERM", &self.child.id().to_string()])
            .status()
            .expect("run kill")
            .success();
        assert!(ok, "kill -TERM failed");
        self.wait_and_drain()
    }

    /// Hard kill — no seal, no drain; the log keeps whatever the OS has.
    pub fn kill_hard(mut self) {
        self.child.kill().expect("SIGKILL mcached");
        let _ = self.child.wait();
    }

    fn wait_and_drain(&mut self) -> String {
        let status = self.child.wait().expect("wait for mcached");
        assert!(
            status.success(),
            "graceful shutdown must exit 0: {status:?}"
        );
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("drain stdout");
        rest
    }
}
