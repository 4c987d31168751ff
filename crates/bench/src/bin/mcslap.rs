//! `mcslap`: a memslap-flag-compatible load generator that drives the
//! cache through the **binary protocol** layer (encode → decode →
//! dispatch for every operation), end to end.
//!
//! ```console
//! $ cargo run --release -p bench --bin mcslap -- \
//!       --concurrency 4 --execute-number 10000 --binary --branch ip-nolock
//! ```
//!
//! With `--tcp HOST:PORT` the same workloads run over real sockets
//! against a running `mcached` instead of an in-process cache — every
//! GET hit is verified against the deterministic workload oracle, and
//! the run ends by asserting the server saw zero frame errors:
//!
//! ```console
//! $ cargo run --release -p bench --bin mcslap -- \
//!       --tcp 127.0.0.1:11311 --connections 4 --multiget 8
//! ```
//!
//! `--unix PATH` and `--udp HOST:PORT` run the same oracle-checked
//! workload over the other transports; socket modes report p50/p95/p99
//! roundtrip latency. Two connection-scale scenarios ride on the stream
//! transports: `--churn N` (N workers × `--execute-number` full
//! connect → set → get → quit lifecycles) and `--fanin N` (N held
//! connections, a thin get stream rotating across them, and a final
//! per-connection liveness sweep).

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bench::cli::{num, parse_branch, value};
use bench::wire::{UdpClient, WireConn};
use mcache::proto::binary::{self, Opcode, Request, Status};
use mcache::{Branch, McCache, McConfig, StoreMode, StoreOp};
use tm::{Algorithm, ContentionManager};
use workload::{Op, OpMix, Workload};

struct Args {
    concurrency: usize,
    execute_number: usize,
    binary: bool,
    branch: Branch,
    value_size: usize,
    keys: usize,
    /// Run over TCP against this `HOST:PORT` instead of in-process.
    tcp: Option<String>,
    /// Run over UDP (memcached frame headers) against this `HOST:PORT`.
    udp: Option<String>,
    /// Run over a Unix-domain socket at this path.
    unix: Option<std::path::PathBuf>,
    /// Connection-churn storm: each worker runs `--execute-number`
    /// connect → set → get → quit cycles against the `--tcp`/`--unix`
    /// target. 0 = off.
    churn: usize,
    /// Connection fan-in: hold this many mostly-idle connections open
    /// while a thin stream of gets rotates across them, then prove every
    /// one still answers. 0 = off.
    fanin: usize,
    /// Client connections in `--tcp` mode (each with its own thread and
    /// workload stream); 0 = `--concurrency`.
    connections: usize,
    /// Percent of operations that are GETs (the rest are SETs).
    read_ratio: usize,
    /// Batch consecutive GETs n-at-a-time through the multiget path
    /// (ASCII-style `get k1 .. kn` via the API, pipelined quiet GETKQ
    /// frames under `--binary`). 1 = no batching.
    multiget: usize,
    /// Batch consecutive SETs n-at-a-time through the single-transaction
    /// store path (`store_batch` via the API, pipelined quiet SETQ frames
    /// under `--binary`). 1 = no batching.
    setq_pipeline: usize,
    /// Upper bound for uniform per-key value sizes; 0 = fixed
    /// `--value-size` for every key.
    value_size_max: usize,
    /// Per-worker slab magazine capacity (transactional-item branches
    /// only); 0 = off, the 3-transaction store.
    magazine: usize,
    /// Warm-restart mode: load the keyspace with the redo log attached,
    /// shut down (sealing the log), restart on the same directory, and
    /// verify + time the recovery.
    restart: bool,
    /// Redo-log directory for `--restart`; a fresh temp dir when unset.
    dur_path: Option<std::path::PathBuf>,
    /// Fsync policy for `--restart`.
    dur_fsync: mcache::DurFsync,
    /// Zipfian key-popularity exponent in `[0, 1)`; 0 = uniform.
    zipf: f64,
    /// Pin the STM algorithm (`--algorithm eager|lazy|norec`); None =
    /// the cache default.
    algorithm: Option<Algorithm>,
    /// Pin the contention manager (`--cm none|gcc-default|backoff:N|
    /// serialize-after:N|hourglass:N`); None = the branch default.
    cm: Option<ContentionManager>,
}

fn parse_cm(name: &str) -> Option<ContentionManager> {
    if name == "none" {
        return Some(ContentionManager::None);
    }
    if name == "gcc-default" {
        return Some(ContentionManager::GCC_DEFAULT);
    }
    if let Some(n) = name.strip_prefix("serialize-after:") {
        return Some(ContentionManager::SerializeAfter(n.parse().ok()?));
    }
    if let Some(n) = name.strip_prefix("backoff:") {
        return Some(ContentionManager::Backoff { max_shift: n.parse().ok()? });
    }
    if let Some(n) = name.strip_prefix("hourglass:") {
        return Some(ContentionManager::Hourglass(n.parse().ok()?));
    }
    None
}

fn parse_args() -> Args {
    let mut args = Args {
        concurrency: 4,
        execute_number: 10_000,
        binary: false,
        branch: Branch::IpNoLock,
        value_size: 256,
        keys: 2000,
        tcp: None,
        udp: None,
        unix: None,
        churn: 0,
        fanin: 0,
        connections: 0,
        read_ratio: 90,
        multiget: 1,
        setq_pipeline: 1,
        value_size_max: 0,
        magazine: 0,
        restart: false,
        dur_path: None,
        dur_fsync: mcache::DurFsync::EveryN(32),
        zipf: 0.0,
        algorithm: None,
        cm: None,
    };
    let text = |s: &str| Some(s.to_string());
    let path = |s: &str| Some(std::path::PathBuf::from(s));
    let count = "a count";
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--concurrency" | "-c" => {
                args.concurrency = value::<usize>(&flag, it, "a thread count", num).max(1)
            }
            "--execute-number" | "-x" => args.execute_number = value(&flag, it, count, num),
            "--value-size" => args.value_size = value::<usize>(&flag, it, "a byte count", num).max(1),
            "--keys" => args.keys = value::<usize>(&flag, it, count, num).max(1),
            "--read-ratio" => {
                args.read_ratio = value::<usize>(&flag, it, "a percentage", num).min(100)
            }
            // memslap has no such flag, but every setpath arm is
            // write-shaped; --write-ratio 70 == --read-ratio 30.
            "--write-ratio" => {
                args.read_ratio = 100 - value::<usize>(&flag, it, "a percentage", num).min(100)
            }
            "--value-size-max" => args.value_size_max = value(&flag, it, "a byte count", num),
            "--setq-pipeline" => args.setq_pipeline = value::<usize>(&flag, it, count, num).max(1),
            "--magazine" => args.magazine = value(&flag, it, "a slot count", num),
            "--multiget" => args.multiget = value::<usize>(&flag, it, count, num).max(1),
            "--binary" => args.binary = true,
            "--restart" => args.restart = true,
            "--zipf" => {
                args.zipf = value(&flag, it, "a theta in [0, 1)", |s| {
                    num::<f64>(s).filter(|t| (0.0..1.0).contains(t))
                })
            }
            "--dur-path" => args.dur_path = Some(value(&flag, it, "a directory", path)),
            "--dur-fsync" => {
                args.dur_fsync = value(&flag, it, "always | every:N | off", mcache::DurFsync::parse)
            }
            "--tcp" => args.tcp = Some(value(&flag, it, "HOST:PORT", text)),
            "--udp" => args.udp = Some(value(&flag, it, "HOST:PORT", text)),
            "--unix" => args.unix = Some(value(&flag, it, "a socket path", path)),
            "--churn" => args.churn = value::<usize>(&flag, it, count, num).max(1),
            "--fanin" => args.fanin = value::<usize>(&flag, it, count, num).max(1),
            "--connections" => args.connections = value::<usize>(&flag, it, count, num).max(1),
            "--algorithm" => {
                args.algorithm = Some(value(&flag, it, "eager | lazy | norec", |s| match s {
                    "eager" => Some(Algorithm::Eager),
                    "lazy" => Some(Algorithm::Lazy),
                    "norec" => Some(Algorithm::Norec),
                    _ => None,
                }))
            }
            "--cm" => {
                let what = "none | gcc-default | serialize-after:N | backoff:N | hourglass:N";
                args.cm = Some(value(&flag, it, what, parse_cm))
            }
            "--branch" => {
                let what = "a branch name; see examples/cache_server.rs";
                args.branch = value(&flag, it, what, parse_branch)
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    if args.restart {
        run_restart(&args);
        return;
    }
    if let Some(addr) = args.udp.clone() {
        run_udp(&args, &addr);
        return;
    }
    if let Some(target) = StreamTarget::from_args(&args) {
        if args.churn > 0 {
            run_churn(&args, &target);
        } else if args.fanin > 0 {
            run_fanin(&args, &target);
        } else {
            run_stream(&args, &target);
        }
        return;
    }
    if args.churn > 0 || args.fanin > 0 {
        eprintln!("--churn/--fanin need a --tcp or --unix target");
        std::process::exit(2);
    }
    let wl = Arc::new(
        Workload::builder()
            .concurrency(args.concurrency)
            .execute_number(args.execute_number)
            .key_count(args.keys)
            .value_size_range(
                args.value_size,
                args.value_size_max.max(args.value_size),
            )
            .binary(args.binary)
            .zipf(args.zipf)
            .mix(OpMix {
                get: args.read_ratio as u32,
                set: 100 - args.read_ratio as u32,
                delete: 0,
                incr: 0,
            })
            .build(),
    );
    let handle = McCache::start(McConfig {
        branch: args.branch,
        workers: args.concurrency,
        magazine: args.magazine,
        algorithm: args.algorithm.unwrap_or_default(),
        contention: args.cm,
        ..Default::default()
    });
    let cache = handle.cache().clone();
    for i in 0..wl.key_count() {
        cache.set(0, wl.key(i), &wl.value(i), 0, 0);
    }

    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..args.concurrency {
            let cache = cache.clone();
            let wl = wl.clone();
            let binary = args.binary;
            let multiget = args.multiget;
            let setq_pipeline = args.setq_pipeline;
            s.spawn(move || {
                // --multiget batching: consecutive GETs accumulate here and
                // flush n-at-a-time through the single-transaction multiget
                // path; any interleaved write flushes the partial batch
                // first, preserving per-thread order.
                let mut batch: Vec<usize> = Vec::new();
                // --setq-pipeline batching: the write twin — consecutive
                // SETs flush n-at-a-time through the single-transaction
                // store path (quiet SETQ frames on the wire under
                // --binary, `store_batch` through the API).
                let mut set_batch: Vec<usize> = Vec::new();
                let flush_sets = |set_batch: &mut Vec<usize>| {
                    if set_batch.is_empty() {
                        return;
                    }
                    if binary {
                        // Full wire path: encode and decode every quiet
                        // SETQ frame, then dispatch the run as one batch;
                        // successes are silent by protocol.
                        let decoded: Vec<Request> = set_batch
                            .iter()
                            .map(|&k| {
                                let req = Request {
                                    opcode: Opcode::SetQ,
                                    opaque: w as u32,
                                    cas: 0,
                                    key: wl.key(k).to_vec(),
                                    value: wl.value(k),
                                    extra: 0,
                                };
                                Request::decode(&req.encode()).expect("self-encoded frame")
                            })
                            .collect();
                        for resp in binary::execute_pipeline(&cache, w, &decoded) {
                            assert_eq!(resp.opaque, w as u32);
                        }
                    } else {
                        let values: Vec<Vec<u8>> =
                            set_batch.iter().map(|&k| wl.value(k)).collect();
                        let ops: Vec<StoreOp> = set_batch
                            .iter()
                            .zip(&values)
                            .map(|(&k, v)| StoreOp {
                                mode: StoreMode::Set,
                                key: wl.key(k),
                                value: v,
                                flags: 0,
                                exptime: 0,
                            })
                            .collect();
                        cache.store_batch(w, &ops);
                    }
                    set_batch.clear();
                };
                let flush = |batch: &mut Vec<usize>| {
                    if batch.is_empty() {
                        return;
                    }
                    if binary {
                        // Full wire path for the whole pipeline: encode and
                        // decode every quiet-get frame, then dispatch the
                        // run as one batch.
                        let decoded: Vec<Request> = batch
                            .iter()
                            .map(|&k| {
                                let req = Request {
                                    opcode: Opcode::GetKQ,
                                    opaque: w as u32,
                                    cas: 0,
                                    key: wl.key(k).to_vec(),
                                    value: vec![],
                                    extra: 0,
                                };
                                Request::decode(&req.encode()).expect("self-encoded frame")
                            })
                            .collect();
                        for resp in binary::execute_pipeline(&cache, w, &decoded) {
                            assert_eq!(resp.opaque, w as u32);
                        }
                    } else {
                        let keys: Vec<&[u8]> =
                            batch.iter().map(|&k| wl.key(k).as_ref()).collect();
                        cache.get_multi(w, &keys);
                    }
                    batch.clear();
                };
                for op in wl.stream(w) {
                    if multiget > 1 {
                        if let Op::Get(k) = op {
                            flush_sets(&mut set_batch);
                            batch.push(k);
                            if batch.len() == multiget {
                                flush(&mut batch);
                            }
                            continue;
                        }
                        flush(&mut batch);
                    }
                    if setq_pipeline > 1 {
                        if let Op::Set(k) = op {
                            set_batch.push(k);
                            if set_batch.len() == setq_pipeline {
                                flush_sets(&mut set_batch);
                            }
                            continue;
                        }
                        flush_sets(&mut set_batch);
                    }
                    if binary {
                        // Full wire path: encode, decode, dispatch.
                        let req = match op {
                            Op::Get(k) => Request {
                                opcode: Opcode::Get,
                                opaque: w as u32,
                                cas: 0,
                                key: wl.key(k).to_vec(),
                                value: vec![],
                                extra: 0,
                            },
                            Op::Set(k) => Request {
                                opcode: Opcode::Set,
                                opaque: w as u32,
                                cas: 0,
                                key: wl.key(k).to_vec(),
                                value: wl.value(k),
                                extra: 0,
                            },
                            Op::Delete(k) => Request {
                                opcode: Opcode::Delete,
                                opaque: w as u32,
                                cas: 0,
                                key: wl.key(k).to_vec(),
                                value: vec![],
                                extra: 0,
                            },
                            Op::Incr(k, d) => Request {
                                opcode: Opcode::Increment,
                                opaque: w as u32,
                                cas: 0,
                                key: wl.key(k).to_vec(),
                                value: vec![],
                                extra: d,
                            },
                        };
                        let wire = req.encode();
                        let decoded = Request::decode(&wire).expect("self-encoded frame");
                        let resp = binary::execute(&cache, w, &decoded);
                        assert_eq!(resp.opaque, w as u32);
                    } else {
                        match op {
                            Op::Get(k) => {
                                cache.get(w, wl.key(k));
                            }
                            Op::Set(k) => {
                                cache.set(w, wl.key(k), &wl.value(k), 0, 0);
                            }
                            Op::Delete(k) => {
                                cache.delete(w, wl.key(k));
                            }
                            Op::Incr(k, d) => {
                                cache.arith(w, wl.key(k), d, true);
                            }
                        }
                    }
                }
                flush(&mut batch);
                flush_sets(&mut set_batch);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total_ops = args.concurrency * args.execute_number;
    let stats = cache.stats();
    let tm = cache.tm_stats();
    println!(
        "{} ops in {:.3}s = {:.0} ops/s  ({} threads, {} branch, {}, {}% reads, \
         multiget {}, setq-pipeline {}, magazine {})",
        total_ops,
        secs,
        total_ops as f64 / secs,
        args.concurrency,
        args.branch,
        if args.binary { "binary" } else { "api" },
        args.read_ratio,
        args.multiget,
        args.setq_pipeline,
        args.magazine,
    );
    println!(
        "hits={} misses={} evictions={} expansions={} rebalances={}",
        stats.threads.get_hits,
        stats.threads.get_misses,
        stats.global.evictions,
        stats.global.expansions,
        stats.global.rebalances,
    );
    println!("tm: {tm}");
}

/// The `--restart` mode: memslap meets `kill -TERM`. Loads the whole
/// keyspace with the redo log attached, shuts down gracefully (sealing
/// the log), restarts a second cache on the same directory, and verifies
/// every key against the workload oracle — timing each phase so warm
/// restarts are a measured artifact, not folklore.
fn run_restart(args: &Args) {
    let owned_tmp = args.dur_path.is_none();
    let dir = args.dur_path.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("mcslap-restart-{}", std::process::id()))
    });
    if owned_tmp {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create restart dir");
    }
    let wl = Workload::builder()
        .concurrency(args.concurrency)
        .execute_number(args.execute_number)
        .key_count(args.keys)
        .value_size_range(args.value_size, args.value_size_max.max(args.value_size))
        .binary(args.binary)
        .mix(OpMix { get: 0, set: 100, delete: 0, incr: 0 })
        .build();
    let cfg = || McConfig {
        branch: args.branch,
        workers: args.concurrency,
        magazine: args.magazine,
        dur_path: Some(dir.clone()),
        dur_fsync: args.dur_fsync,
        ..Default::default()
    };

    // Phase 1: load. One loud set per key, all workers.
    let load_start = Instant::now();
    let handle = McCache::start(cfg());
    let cache = handle.cache().clone();
    std::thread::scope(|s| {
        for w in 0..args.concurrency {
            let cache = cache.clone();
            let wl = &wl;
            s.spawn(move || {
                for i in (w..wl.key_count()).step_by(args.concurrency) {
                    cache.set(w, wl.key(i), &wl.value(i), 0, 0);
                }
            });
        }
    });
    let d = cache.dur_stats().expect("restart mode always logs");
    let load_secs = load_start.elapsed().as_secs_f64();
    println!(
        "restart: loaded {} keys in {:.3}s = {:.0} sets/s ({} branch, fsync={}, \
         dur_appends={} dur_fsyncs={} dur_bytes={})",
        args.keys,
        load_secs,
        args.keys as f64 / load_secs,
        args.branch,
        args.dur_fsync,
        d.appends,
        d.fsyncs,
        d.bytes,
    );

    // Phase 2: graceful shutdown seals the segment.
    let seal_start = Instant::now();
    drop(handle);
    println!("restart: sealed + shut down in {:.3}s", seal_start.elapsed().as_secs_f64());

    // Phase 3: warm restart — recovery runs inside `start`, before the
    // cache accepts its first operation.
    let boot_start = Instant::now();
    let handle = McCache::start(cfg());
    let boot_secs = boot_start.elapsed().as_secs_f64();
    let d = handle.dur_stats().expect("restart mode always logs");
    assert_eq!(
        d.torn_records_dropped, 0,
        "a sealed log must recover without torn records"
    );
    println!(
        "restart: recovered {} items in {:.3}s = {:.0} items/s (torn={})",
        d.recovered_items,
        boot_secs,
        d.recovered_items as f64 / boot_secs.max(1e-9),
        d.torn_records_dropped,
    );

    // Phase 4: verify every key against the oracle.
    let mut verified = 0usize;
    for i in 0..wl.key_count() {
        let got = handle.get(0, wl.key(i)).unwrap_or_else(|| {
            panic!("key index {i} lost across restart")
        });
        assert!(wl.verify_value(i, &got.data), "key index {i} recovered wrong bytes");
        verified += 1;
    }
    println!("restart: verified {verified}/{} keys", wl.key_count());
    drop(handle);
    if owned_tmp {
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A stream-transport target: TCP address or Unix socket path. The
/// protocol is byte-identical on both, so every socket mode runs against
/// either through one connect seam.
#[derive(Clone)]
enum StreamTarget {
    Tcp(String),
    #[cfg(unix)]
    Unix(std::path::PathBuf),
}

impl StreamTarget {
    fn from_args(args: &Args) -> Option<StreamTarget> {
        #[cfg(unix)]
        if let Some(p) = args.unix.clone() {
            return Some(StreamTarget::Unix(p));
        }
        #[cfg(not(unix))]
        if args.unix.is_some() {
            eprintln!("--unix is only supported on Unix platforms");
            std::process::exit(2);
        }
        args.tcp.clone().map(StreamTarget::Tcp)
    }

    fn connect(&self) -> std::io::Result<WireConn> {
        match self {
            StreamTarget::Tcp(addr) => WireConn::connect(addr),
            #[cfg(unix)]
            StreamTarget::Unix(path) => WireConn::connect_unix(path),
        }
    }

    /// Connects with retry — the churn storm and the 10k fan-in can
    /// outrun the server's accept backlog, which surfaces as transient
    /// refusals/resets rather than queueing.
    fn connect_retry(&self) -> WireConn {
        let mut delay = std::time::Duration::from_millis(1);
        for _ in 0..200 {
            match self.connect() {
                Ok(c) => return c,
                Err(_) => {
                    std::thread::sleep(delay);
                    delay = (delay * 2).min(std::time::Duration::from_millis(100));
                }
            }
        }
        panic!("could not connect to {} after retries", self.describe());
    }

    fn describe(&self) -> String {
        match self {
            StreamTarget::Tcp(addr) => format!("tcp {addr}"),
            #[cfg(unix)]
            StreamTarget::Unix(path) => format!("unix {}", path.display()),
        }
    }
}

/// Sorts nanosecond samples and prints p50/p95/p99 in microseconds.
fn print_latency(label: &str, mut ns: Vec<u64>) {
    if ns.is_empty() {
        return;
    }
    ns.sort_unstable();
    let pick = |p: f64| ns[((ns.len() - 1) as f64 * p).round() as usize] as f64 / 1000.0;
    println!(
        "latency_us[{label}]: p50={:.1} p95={:.1} p99={:.1} (n={})",
        pick(0.50),
        pick(0.95),
        pick(0.99),
        ns.len(),
    );
}

/// Per-worker latency samples drain into one shared sink at thread exit.
fn drain_latency(sink: &Mutex<Vec<u64>>, local: Vec<u64>) {
    sink.lock().expect("latency sink").extend(local);
}

/// Sentinel opaque for the trailing Noop in quiet pipelines; key
/// indices (the other opaques in flight) can never reach it.
const NOOP_OPAQUE: u32 = u32::MAX;

/// The `--tcp`/`--unix` mode: same workloads, real sockets against a
/// running `mcached`. Every GET hit is verified against the workload
/// oracle (values are a pure function of the key index), the report
/// includes per-roundtrip latency percentiles, and the run asserts the
/// server counted zero frame errors.
fn run_stream(args: &Args, target: &StreamTarget) {
    let workers = if args.connections > 0 {
        args.connections
    } else {
        args.concurrency
    };
    let wl = Arc::new(
        Workload::builder()
            .concurrency(workers)
            .execute_number(args.execute_number)
            .key_count(args.keys)
            .value_size_range(args.value_size, args.value_size_max.max(args.value_size))
            .binary(args.binary)
            .mix(OpMix {
                get: args.read_ratio as u32,
                set: 100 - args.read_ratio as u32,
                delete: 0,
                incr: 0,
            })
            .build(),
    );

    // Preload the whole keyspace through one connection: noreply sets
    // in bulk writes, then a version roundtrip as the sync point.
    {
        let mut conn = target.connect().expect("connect for preload");
        let mut buf = Vec::new();
        for i in 0..wl.key_count() {
            let value = wl.value(i);
            buf.extend_from_slice(
                format!(
                    "set {} 0 0 {} noreply\r\n",
                    String::from_utf8_lossy(wl.key(i)),
                    value.len()
                )
                .as_bytes(),
            );
            buf.extend_from_slice(&value);
            buf.extend_from_slice(b"\r\n");
            if buf.len() > 256 << 10 {
                conn.send(&buf).expect("preload send");
                buf.clear();
            }
        }
        conn.send(&buf).expect("preload send");
        let v = conn.ascii_line(b"version\r\n").expect("preload sync");
        assert!(v.starts_with(b"VERSION"), "unexpected preload sync: {v:?}");
    }

    let lat = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let wl = wl.clone();
            let lat = &lat;
            s.spawn(move || run_stream_worker(args, target, &wl, w, lat));
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total_ops = workers * args.execute_number;

    let mut conn = target.connect().expect("connect for stats");
    let stats = conn.ascii_stats().expect("final stats");
    let stat = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("server stats missing {k}"))
    };
    println!(
        "{} ops in {:.3}s = {:.0} ops/s  ({} connections, {}, {}, {}% reads, \
         multiget {}, setq-pipeline {})",
        total_ops,
        secs,
        total_ops as f64 / secs,
        workers,
        target.describe(),
        if args.binary { "binary" } else { "ascii" },
        args.read_ratio,
        args.multiget,
        args.setq_pipeline,
    );
    print_latency("roundtrip", lat.into_inner().expect("latency sink"));
    println!(
        "server: hits={} misses={} curr_connections={} bytes_read={} bytes_written={} \
         frame_errors={}",
        stat("get_hits"),
        stat("get_misses"),
        stat("curr_connections"),
        stat("bytes_read"),
        stat("bytes_written"),
        stat("frame_errors"),
    );
    assert_eq!(stat("frame_errors"), 0, "clean run must not desync frames");
    assert_eq!(stat("request_panics"), 0, "no handler may have panicked");
}

fn run_stream_worker(
    args: &Args,
    target: &StreamTarget,
    wl: &Workload,
    w: usize,
    lat_sink: &Mutex<Vec<u64>>,
) {
    let mut conn = target.connect().expect("worker connect");
    let mut lat: Vec<u64> = Vec::new();
    let mut get_batch: Vec<usize> = Vec::new();
    let mut set_batch: Vec<usize> = Vec::new();
    for op in wl.stream(w) {
        if args.multiget > 1 {
            if let Op::Get(k) = op {
                flush_tcp_sets(args, &mut conn, wl, &mut set_batch, &mut lat);
                get_batch.push(k);
                if get_batch.len() == args.multiget {
                    flush_tcp_gets(args, &mut conn, wl, &mut get_batch, &mut lat);
                }
                continue;
            }
            flush_tcp_gets(args, &mut conn, wl, &mut get_batch, &mut lat);
        }
        if args.setq_pipeline > 1 {
            if let Op::Set(k) = op {
                set_batch.push(k);
                if set_batch.len() == args.setq_pipeline {
                    flush_tcp_sets(args, &mut conn, wl, &mut set_batch, &mut lat);
                }
                continue;
            }
            flush_tcp_sets(args, &mut conn, wl, &mut set_batch, &mut lat);
        }
        let op_start = Instant::now();
        if args.binary {
            let req = match op {
                Op::Get(k) => Request {
                    opcode: Opcode::Get,
                    opaque: k as u32,
                    cas: 0,
                    key: wl.key(k).to_vec(),
                    value: vec![],
                    extra: 0,
                },
                Op::Set(k) => Request {
                    opcode: Opcode::Set,
                    opaque: k as u32,
                    cas: 0,
                    key: wl.key(k).to_vec(),
                    value: wl.value(k),
                    extra: 0,
                },
                Op::Delete(k) => Request {
                    opcode: Opcode::Delete,
                    opaque: k as u32,
                    cas: 0,
                    key: wl.key(k).to_vec(),
                    value: vec![],
                    extra: 0,
                },
                Op::Incr(k, d) => Request {
                    opcode: Opcode::Increment,
                    opaque: k as u32,
                    cas: 0,
                    key: wl.key(k).to_vec(),
                    value: vec![],
                    extra: d,
                },
            };
            let resp = conn.binary_roundtrip(&req).expect("binary roundtrip");
            assert_eq!(resp.opaque, req.opaque, "opaque echo");
            match op {
                Op::Get(k) => match resp.status {
                    Status::Ok => assert!(
                        wl.verify_value(k, &resp.value),
                        "GET returned wrong bytes for key index {k}"
                    ),
                    Status::KeyNotFound => {}
                    other => panic!("GET answered {other:?}"),
                },
                Op::Set(_) => assert_eq!(resp.status, Status::Ok, "SET must store"),
                Op::Delete(_) => assert!(
                    matches!(resp.status, Status::Ok | Status::KeyNotFound),
                    "DELETE answered {:?}",
                    resp.status
                ),
                Op::Incr(..) => {}
            }
        } else {
            match op {
                Op::Get(k) => {
                    let hits = conn.ascii_get(&[wl.key(k).as_ref()], false).expect("get");
                    if let Some(hit) = hits.first() {
                        assert!(
                            wl.verify_value(k, &hit.data),
                            "GET returned wrong bytes for key index {k}"
                        );
                    }
                }
                Op::Set(k) => {
                    let value = wl.value(k);
                    let mut req = format!(
                        "set {} 0 0 {}\r\n",
                        String::from_utf8_lossy(wl.key(k)),
                        value.len()
                    )
                    .into_bytes();
                    req.extend_from_slice(&value);
                    req.extend_from_slice(b"\r\n");
                    let line = conn.ascii_line(&req).expect("set");
                    assert_eq!(line, b"STORED", "SET must store");
                }
                Op::Delete(k) => {
                    let req = format!("delete {}\r\n", String::from_utf8_lossy(wl.key(k)));
                    let line = conn.ascii_line(req.as_bytes()).expect("delete");
                    assert!(
                        line == b"DELETED" || line == b"NOT_FOUND",
                        "DELETE answered {:?}",
                        String::from_utf8_lossy(&line)
                    );
                }
                Op::Incr(k, d) => {
                    let req = format!("incr {} {}\r\n", String::from_utf8_lossy(wl.key(k)), d);
                    conn.ascii_line(req.as_bytes()).expect("incr");
                }
            }
        }
        lat.push(op_start.elapsed().as_nanos() as u64);
    }
    flush_tcp_gets(args, &mut conn, wl, &mut get_batch, &mut lat);
    flush_tcp_sets(args, &mut conn, wl, &mut set_batch, &mut lat);
    drain_latency(lat_sink, lat);
}

/// Flushes a `--multiget` batch over the wire: one `get k1 .. kn` line
/// (ASCII) or a GETKQ burst terminated by a Noop (binary). Every hit is
/// verified against the oracle.
fn flush_tcp_gets(
    args: &Args,
    conn: &mut WireConn,
    wl: &Workload,
    batch: &mut Vec<usize>,
    lat: &mut Vec<u64>,
) {
    if batch.is_empty() {
        return;
    }
    let flush_start = Instant::now();
    if args.binary {
        let mut reqs: Vec<Request> = batch
            .iter()
            .map(|&k| Request {
                opcode: Opcode::GetKQ,
                opaque: k as u32,
                cas: 0,
                key: wl.key(k).to_vec(),
                value: vec![],
                extra: 0,
            })
            .collect();
        reqs.push(Request {
            opcode: Opcode::Noop,
            opaque: NOOP_OPAQUE,
            cas: 0,
            key: vec![],
            value: vec![],
            extra: 0,
        });
        let resps = conn.binary_pipeline(&reqs, NOOP_OPAQUE).expect("multiget");
        for resp in &resps[..resps.len() - 1] {
            assert_eq!(resp.status, Status::Ok, "quiet get only answers hits");
            let k = resp.opaque as usize;
            assert_eq!(resp.key.as_slice(), wl.key(k).as_ref(), "GETKQ echoes its key");
            assert!(
                wl.verify_value(k, &resp.value),
                "multiget returned wrong bytes for key index {k}"
            );
        }
    } else {
        let keys: Vec<&[u8]> = batch.iter().map(|&k| wl.key(k).as_ref()).collect();
        let hits = conn.ascii_get(&keys, false).expect("multiget");
        for hit in hits {
            let k = batch
                .iter()
                .copied()
                .find(|&k| wl.key(k).as_ref() == hit.key.as_slice())
                .expect("hit echoes a requested key");
            assert!(
                wl.verify_value(k, &hit.data),
                "multiget returned wrong bytes for key index {k}"
            );
        }
    }
    lat.push(flush_start.elapsed().as_nanos() as u64);
    batch.clear();
}

/// Flushes a `--setq-pipeline` batch: a concatenated burst of loud sets
/// (ASCII) or quiet SETQ frames terminated by a Noop (binary).
fn flush_tcp_sets(
    args: &Args,
    conn: &mut WireConn,
    wl: &Workload,
    batch: &mut Vec<usize>,
    lat: &mut Vec<u64>,
) {
    if batch.is_empty() {
        return;
    }
    let flush_start = Instant::now();
    if args.binary {
        let mut reqs: Vec<Request> = batch
            .iter()
            .map(|&k| Request {
                opcode: Opcode::SetQ,
                opaque: k as u32,
                cas: 0,
                key: wl.key(k).to_vec(),
                value: wl.value(k),
                extra: 0,
            })
            .collect();
        reqs.push(Request {
            opcode: Opcode::Noop,
            opaque: NOOP_OPAQUE,
            cas: 0,
            key: vec![],
            value: vec![],
            extra: 0,
        });
        let resps = conn.binary_pipeline(&reqs, NOOP_OPAQUE).expect("setq burst");
        assert_eq!(
            resps.len(),
            1,
            "quiet sets must all succeed silently: {resps:?}"
        );
    } else {
        let mut wire = Vec::new();
        for &k in batch.iter() {
            let value = wl.value(k);
            wire.extend_from_slice(
                format!(
                    "set {} 0 0 {}\r\n",
                    String::from_utf8_lossy(wl.key(k)),
                    value.len()
                )
                .as_bytes(),
            );
            wire.extend_from_slice(&value);
            wire.extend_from_slice(b"\r\n");
        }
        conn.send(&wire).expect("pipelined sets");
        for _ in batch.iter() {
            let line = conn.read_line().expect("set reply");
            assert_eq!(line, b"STORED", "pipelined SET must store");
        }
    }
    lat.push(flush_start.elapsed().as_nanos() as u64);
    batch.clear();
}

/// Parses the reassembled ASCII response to a single-key UDP `get`:
/// `Some(data)` on a hit, `None` on a clean miss. Panics on anything
/// else — UDP responses are whole by construction once reassembled.
fn parse_udp_get(resp: &[u8]) -> Option<Vec<u8>> {
    if resp == b"END\r\n" {
        return None;
    }
    let header_end = resp.windows(2).position(|w| w == b"\r\n").expect("VALUE line");
    let header = String::from_utf8_lossy(&resp[..header_end]);
    let mut parts = header.split_whitespace();
    assert_eq!(parts.next(), Some("VALUE"), "unexpected UDP get response: {header:?}");
    let _key = parts.next().expect("key");
    let _flags = parts.next().expect("flags");
    let len: usize = parts.next().expect("len").parse().expect("len parses");
    let data_start = header_end + 2;
    let data = resp[data_start..data_start + len].to_vec();
    assert_eq!(
        &resp[data_start + len..],
        b"\r\nEND\r\n",
        "UDP get response must end cleanly"
    );
    Some(data)
}

/// The `--udp` mode: the ASCII workload over memcached-framed UDP
/// datagrams. Each request is one datagram; responses reassemble from
/// sequenced datagrams (large values fan out across several). Every hit
/// is oracle-verified and the run asserts zero server frame errors.
fn run_udp(args: &Args, addr: &str) {
    let workers = if args.connections > 0 {
        args.connections
    } else {
        args.concurrency
    };
    let wl = Arc::new(
        Workload::builder()
            .concurrency(workers)
            .execute_number(args.execute_number)
            .key_count(args.keys)
            .value_size_range(args.value_size, args.value_size_max.max(args.value_size))
            .mix(OpMix {
                get: args.read_ratio as u32,
                set: 100 - args.read_ratio as u32,
                delete: 0,
                incr: 0,
            })
            .build(),
    );

    // Preload serially through one client — loud sets, each acked, so
    // the keyspace is fully resident before the clock starts.
    {
        let mut client = UdpClient::connect(addr).expect("udp connect for preload");
        for i in 0..wl.key_count() {
            let value = wl.value(i);
            let mut req = format!(
                "set {} 0 0 {}\r\n",
                String::from_utf8_lossy(wl.key(i)),
                value.len()
            )
            .into_bytes();
            req.extend_from_slice(&value);
            req.extend_from_slice(b"\r\n");
            let resp = client.roundtrip(&req).expect("preload set");
            assert_eq!(resp, b"STORED\r\n", "preload SET must store");
        }
    }

    let lat = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let wl = wl.clone();
            let lat = &lat;
            s.spawn(move || {
                let mut client = UdpClient::connect(addr).expect("udp worker connect");
                let mut local: Vec<u64> = Vec::new();
                for op in wl.stream(w) {
                    let op_start = Instant::now();
                    match op {
                        Op::Get(k) => {
                            let req = format!("get {}\r\n", String::from_utf8_lossy(wl.key(k)));
                            let resp = client.roundtrip(req.as_bytes()).expect("udp get");
                            if let Some(data) = parse_udp_get(&resp) {
                                assert!(
                                    wl.verify_value(k, &data),
                                    "UDP GET returned wrong bytes for key index {k}"
                                );
                            }
                        }
                        Op::Set(k) => {
                            let value = wl.value(k);
                            let mut req = format!(
                                "set {} 0 0 {}\r\n",
                                String::from_utf8_lossy(wl.key(k)),
                                value.len()
                            )
                            .into_bytes();
                            req.extend_from_slice(&value);
                            req.extend_from_slice(b"\r\n");
                            let resp = client.roundtrip(&req).expect("udp set");
                            assert_eq!(resp, b"STORED\r\n", "UDP SET must store");
                        }
                        Op::Delete(k) => {
                            let req =
                                format!("delete {}\r\n", String::from_utf8_lossy(wl.key(k)));
                            client.roundtrip(req.as_bytes()).expect("udp delete");
                        }
                        Op::Incr(k, d) => {
                            let req = format!(
                                "incr {} {}\r\n",
                                String::from_utf8_lossy(wl.key(k)),
                                d
                            );
                            client.roundtrip(req.as_bytes()).expect("udp incr");
                        }
                    }
                    local.push(op_start.elapsed().as_nanos() as u64);
                }
                drain_latency(lat, local);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total_ops = workers * args.execute_number;

    let mut client = UdpClient::connect(addr).expect("udp connect for stats");
    let resp = client.roundtrip(b"stats\r\n").expect("final stats");
    let mut stats: Vec<(String, u64)> = Vec::new();
    for line in resp.split(|&b| b == b'\n') {
        let text = String::from_utf8_lossy(line);
        let mut parts = text.split_whitespace();
        if let (Some("STAT"), Some(k), Some(v)) = (parts.next(), parts.next(), parts.next()) {
            stats.push((k.to_string(), v.parse().expect("stat value")));
        }
    }
    let stat = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("server stats missing {k}"))
    };
    println!(
        "{} ops in {:.3}s = {:.0} ops/s  ({} clients, udp {}, ascii, {}% reads)",
        total_ops,
        secs,
        total_ops as f64 / secs,
        workers,
        addr,
        args.read_ratio,
    );
    print_latency("udp-roundtrip", lat.into_inner().expect("latency sink"));
    println!(
        "server: hits={} misses={} udp_datagrams_rx={} udp_datagrams_tx={} frame_errors={}",
        stat("get_hits"),
        stat("get_misses"),
        stat("udp_datagrams_rx"),
        stat("udp_datagrams_tx"),
        stat("frame_errors"),
    );
    assert_eq!(stat("frame_errors"), 0, "clean UDP run must not desync frames");
    assert_eq!(stat("request_panics"), 0, "no handler may have panicked");
}

/// The `--churn` storm: every worker runs `--execute-number` full
/// connection lifecycles — connect, one oracle-checked set + get, `quit`,
/// wait for the server's FIN. Exercises accept, registration, and
/// teardown at rates steady-state workloads never reach; the latency
/// report is per whole lifecycle.
fn run_churn(args: &Args, target: &StreamTarget) {
    let workers = args.churn;
    let cycles = args.execute_number;
    let wl = Workload::builder()
        .concurrency(workers)
        .execute_number(1)
        .key_count(args.keys)
        .value_size_range(args.value_size, args.value_size_max.max(args.value_size))
        .build();

    let lat = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|s| {
        for w in 0..workers {
            let wl = &wl;
            let lat = &lat;
            s.spawn(move || {
                let mut local: Vec<u64> = Vec::new();
                for c in 0..cycles {
                    let k = (w * cycles + c) % wl.key_count();
                    let cycle_start = Instant::now();
                    let mut conn = target.connect_retry();
                    let value = wl.value(k);
                    let mut req = format!(
                        "set {} 0 0 {}\r\n",
                        String::from_utf8_lossy(wl.key(k)),
                        value.len()
                    )
                    .into_bytes();
                    req.extend_from_slice(&value);
                    req.extend_from_slice(b"\r\n");
                    let line = conn.ascii_line(&req).expect("churn set");
                    assert_eq!(line, b"STORED", "churn SET must store");
                    let hits = conn.ascii_get(&[wl.key(k).as_ref()], false).expect("churn get");
                    assert!(
                        wl.verify_value(k, &hits[0].data),
                        "churn GET returned wrong bytes for key index {k}"
                    );
                    conn.send(b"quit\r\n").expect("churn quit");
                    // The server closes after `quit`; reading the FIN
                    // proves the teardown path ran, not just our drop.
                    assert!(conn.read_line().is_err(), "server must close after quit");
                    local.push(cycle_start.elapsed().as_nanos() as u64);
                }
                drain_latency(lat, local);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let total = workers * cycles;

    let mut conn = target.connect_retry();
    let stats = conn.ascii_stats().expect("final stats");
    let stat = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("server stats missing {k}"))
    };
    println!(
        "{} connection lifecycles in {:.3}s = {:.0} conns/s  ({} churn workers, {})",
        total,
        secs,
        total as f64 / secs,
        workers,
        target.describe(),
    );
    print_latency("conn-lifecycle", lat.into_inner().expect("latency sink"));
    println!(
        "server: total_connections={} curr_connections={} accept_errors={} frame_errors={}",
        stat("total_connections"),
        stat("curr_connections"),
        stat("accept_errors"),
        stat("frame_errors"),
    );
    assert!(
        stat("total_connections") >= total as u64,
        "server must have seen every churned connection"
    );
    assert_eq!(stat("frame_errors"), 0, "clean churn must not desync frames");
    assert_eq!(stat("request_panics"), 0, "no handler may have panicked");
}

/// The `--fanin` scenario: hold N mostly-idle connections open at once
/// while a thin stream of oracle-checked gets rotates across them, then
/// prove every single connection still answers a `version` roundtrip.
/// This is the readiness-notification showcase — a polling loop pays for
/// all N sockets every iteration; epoll pays only for the active ones.
fn run_fanin(args: &Args, target: &StreamTarget) {
    let total_conns = args.fanin;
    let threads = args.concurrency.min(total_conns).max(1);
    let wl = Workload::builder()
        .concurrency(threads)
        .execute_number(1)
        .key_count(args.keys)
        .value_size_range(args.value_size, args.value_size_max.max(args.value_size))
        .build();

    // Preload through one connection so the rotating gets can hit.
    {
        let mut conn = target.connect_retry();
        let mut buf = Vec::new();
        for i in 0..wl.key_count() {
            let value = wl.value(i);
            buf.extend_from_slice(
                format!(
                    "set {} 0 0 {} noreply\r\n",
                    String::from_utf8_lossy(wl.key(i)),
                    value.len()
                )
                .as_bytes(),
            );
            buf.extend_from_slice(&value);
            buf.extend_from_slice(b"\r\n");
            if buf.len() > 256 << 10 {
                conn.send(&buf).expect("fanin preload send");
                buf.clear();
            }
        }
        conn.send(&buf).expect("fanin preload send");
        let v = conn.ascii_line(b"version\r\n").expect("fanin preload sync");
        assert!(v.starts_with(b"VERSION"), "unexpected preload sync: {v:?}");
    }

    let lat = Mutex::new(Vec::new());
    let opened = Mutex::new(0usize);
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let wl = &wl;
            let lat = &lat;
            let opened = &opened;
            s.spawn(move || {
                // This thread's share of the fan-in set.
                let share = total_conns / threads + usize::from(t < total_conns % threads);
                let mut conns: Vec<WireConn> = Vec::with_capacity(share);
                for _ in 0..share {
                    conns.push(target.connect_retry());
                }
                *opened.lock().expect("opened") += conns.len();
                let mut local: Vec<u64> = Vec::new();
                // A thin stream of gets rotates over the set: every
                // connection is touched at least once when
                // execute_number >= share, the rest stay idle — the
                // server must keep them all registered without burning
                // CPU on their silence.
                for i in 0..args.execute_number {
                    let conn = &mut conns[i % share];
                    let k = (t * args.execute_number + i) % wl.key_count();
                    let op_start = Instant::now();
                    let hits = conn.ascii_get(&[wl.key(k).as_ref()], false).expect("fanin get");
                    assert!(
                        wl.verify_value(k, &hits[0].data),
                        "fan-in GET returned wrong bytes for key index {k}"
                    );
                    local.push(op_start.elapsed().as_nanos() as u64);
                }
                // Liveness sweep: every held connection must still answer.
                for conn in &mut conns {
                    let v = conn.ascii_line(b"version\r\n").expect("fanin liveness");
                    assert!(v.starts_with(b"VERSION"), "fan-in connection went dead: {v:?}");
                }
                drain_latency(lat, local);
            });
        }
    });
    let secs = start.elapsed().as_secs_f64();
    let opened = opened.into_inner().expect("opened");
    assert_eq!(opened, total_conns, "every fan-in connection must open");
    let total_ops = threads * args.execute_number;

    let mut conn = target.connect_retry();
    let stats = conn.ascii_stats().expect("final stats");
    let stat = |k: &str| {
        stats
            .iter()
            .find(|(n, _)| n == k)
            .map(|&(_, v)| v)
            .unwrap_or_else(|| panic!("server stats missing {k}"))
    };
    println!(
        "{} gets across {} held connections in {:.3}s = {:.0} ops/s  ({} threads, {})",
        total_ops,
        total_conns,
        secs,
        total_ops as f64 / secs,
        threads,
        target.describe(),
    );
    print_latency("fanin-get", lat.into_inner().expect("latency sink"));
    println!(
        "server: curr_connections={} total_connections={} accept_errors={} \
         conn_timeouts={} frame_errors={}",
        stat("curr_connections"),
        stat("total_connections"),
        stat("accept_errors"),
        stat("conn_timeouts"),
        stat("frame_errors"),
    );
    assert_eq!(stat("frame_errors"), 0, "clean fan-in must not desync frames");
    assert_eq!(stat("request_panics"), 0, "no handler may have panicked");
}
