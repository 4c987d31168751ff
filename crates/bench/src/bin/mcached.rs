//! `mcached`: the transactionalized cache behind a real TCP server.
//!
//! ```console
//! $ cargo run --release -p bench --bin mcached -- \
//!       --port 11311 --threads 4 --branch it-oncommit --magazine 16 \
//!       --dur-path /var/tmp/mcached.d --dur-fsync every:32
//! LISTENING 127.0.0.1:11311
//! $ printf 'set greeting 0 0 5\r\nhello\r\nget greeting\r\nstats\r\nquit\r\n' | nc 127.0.0.1 11311
//! ```
//!
//! Runs until stdin reaches EOF, a line reading `shutdown` arrives (so a
//! harness can stop it cleanly through a pipe), or `SIGTERM`/`SIGINT` is
//! delivered. All three paths drain the workers, seal the redo log (when
//! `--dur-path` is set), print the final wire counters, and exit 0.
//! `--port 0` binds an ephemeral port; the `LISTENING` line reports the
//! real one. `--udp PORT` and `--unix PATH` open the extra transports
//! (each gets its own `LISTENING-UDP` / `LISTENING-UNIX` line). Starting
//! on a `--dur-path` that already holds a log replays it before the
//! socket opens. A flag that is unknown, or whose value is missing or
//! malformed, is a usage error: one line on stderr, exit 2; so is
//! `--magazine N` (N > 0) on a lock or IP branch, where it would do
//! nothing.

use std::io::BufRead;
use std::sync::atomic::{AtomicBool, Ordering};

use bench::cli::{branch_usage, num, parse_branch, refuse_magazine_off_it, value};
use mcache::net::{NetConfig, Server};
use mcache::{Branch, DurFsync, McCache, McConfig};

struct Args {
    host: String,
    port: u16,
    threads: usize,
    branch: Branch,
    magazine: usize,
    dur_path: Option<std::path::PathBuf>,
    dur_fsync: DurFsync,
    udp_port: Option<u16>,
    unix_path: Option<std::path::PathBuf>,
    idle_timeout_ms: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        host: "127.0.0.1".to_string(),
        port: 11311,
        threads: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
        branch: Branch::IpNoLock,
        magazine: 0,
        dur_path: None,
        dur_fsync: DurFsync::EveryN(32),
        udp_port: None,
        unix_path: None,
        idle_timeout_ms: 0,
    };
    let path = |s: &str| Some(std::path::PathBuf::from(s));
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--host" => args.host = value(&flag, it, "a host", |s| Some(s.to_string())),
            "--port" | "-p" => args.port = value(&flag, it, "a port (0 = ephemeral)", num),
            "--threads" | "-t" => {
                args.threads = value::<usize>(&flag, it, "a thread count", num).max(1)
            }
            "--magazine" => args.magazine = value(&flag, it, "a slot count", num),
            "--branch" => args.branch = value(&flag, it, &branch_usage(), parse_branch),
            "--dur-path" => args.dur_path = Some(value(&flag, it, "a directory", path)),
            "--dur-fsync" => {
                args.dur_fsync = value(&flag, it, "always | every:N | off", DurFsync::parse)
            }
            "--udp" | "-U" => args.udp_port = Some(value(&flag, it, "a port (0 = ephemeral)", num)),
            "--unix" | "-s" => args.unix_path = Some(value(&flag, it, "a socket path", path)),
            "--idle-timeout-ms" => {
                args.idle_timeout_ms = value(&flag, it, "milliseconds (0 = off)", num)
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    refuse_magazine_off_it(args.magazine, args.branch);
    args
}

/// Set by the signal handler; polled by the main loop. A relaxed store
/// on a static `AtomicBool` is async-signal-safe.
static STOP: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_sig: i32) {
    STOP.store(true, Ordering::Relaxed);
}

/// Installs `on_signal` for SIGINT and SIGTERM through the raw
/// `signal(2)` symbol — the workspace is hermetic (no `libc` crate), and
/// these two constants are identical across the platforms we target.
fn install_signal_handlers() {
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    let handler = on_signal as extern "C" fn(i32) as usize;
    unsafe {
        signal(SIGINT, handler);
        signal(SIGTERM, handler);
    }
}

fn main() {
    let args = parse_args();
    install_signal_handlers();
    let handle = McCache::start(McConfig {
        branch: args.branch,
        workers: args.threads,
        magazine: args.magazine,
        dur_path: args.dur_path,
        dur_fsync: args.dur_fsync,
        ..Default::default()
    });
    if let Some(d) = handle.dur_stats() {
        println!(
            "RECOVERED items={} torn_records_dropped={} \
             scan_us={} fold_us={} load_us={} compact_us={}",
            d.recovered_items,
            d.torn_records_dropped,
            d.recover_scan_us,
            d.recover_fold_us,
            d.recover_load_us,
            d.recover_compact_us
        );
    }
    let mut server = Server::start(
        handle,
        NetConfig {
            addr: format!("{}:{}", args.host, args.port),
            workers: args.threads,
            udp_addr: args.udp_port.map(|p| format!("{}:{}", args.host, p)),
            unix_path: args.unix_path,
            idle_timeout_ms: args.idle_timeout_ms,
            ..Default::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("server start failed: {e}");
        std::process::exit(1);
    });
    // The harness contract: one LISTENING line per bound transport, then
    // serve until the pipe or a signal says stop.
    println!("LISTENING {}", server.local_addr());
    if let Some(u) = server.udp_addr() {
        println!("LISTENING-UDP {u}");
    }
    if let Some(p) = server.unix_path() {
        println!("LISTENING-UNIX {}", p.display());
    }
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    // Stdin lives on its own thread so the main loop can also watch the
    // signal flag; `read_line` can't be interrupted portably.
    std::thread::spawn(|| {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            match line {
                Ok(l) if l.trim() == "shutdown" => break,
                Ok(_) => {}
                Err(_) => break,
            }
        }
        STOP.store(true, Ordering::Relaxed);
    });
    while !STOP.load(Ordering::Relaxed) {
        std::thread::sleep(std::time::Duration::from_millis(25));
    }

    // Graceful teardown: stop accepting, drain in-flight connections,
    // then seal the redo log so the next start skips the torn-tail scan.
    server.shutdown();
    server.cache().shutdown();
    let ns = server.net_stats();
    let s = server.cache().stats();
    println!(
        "shutdown: total_connections={} curr_connections={} bytes_read={} bytes_written={} \
         frame_errors={} accept_errors={} conn_timeouts={} cmd_get={} cmd_set={} \
         request_panics={}",
        ns.total_connections,
        ns.curr_connections,
        ns.bytes_read,
        ns.bytes_written,
        ns.frame_errors,
        ns.accept_errors,
        ns.conn_timeouts,
        s.threads.get_cmds,
        s.threads.set_cmds,
        s.request_panics,
    );
    if let Some(d) = server.cache().dur_stats() {
        println!(
            "durability: dur_appends={} dur_fsyncs={} dur_bytes={} log_write_errors={}",
            d.appends, d.fsyncs, d.bytes, d.log_write_errors
        );
    }
}
