//! `mcslap`: a memslap-flag-compatible load generator — one workload,
//! one op loop, five targets.
//!
//! ```console
//! $ cargo run --release -p bench --bin mcslap -- \
//!       --concurrency 4 --execute-number 10000 --binary --branch ip-nolock
//! $ cargo run --release -p bench --bin mcslap -- \
//!       --tcp 127.0.0.1:11311 --connections 4 --multiget 8 --zipf 0.9
//! $ for b in baseline ip-nolock; do target/release/mcslap --branch $b -c 4 -x 5000; done
//! ```
//!
//! In-process runs end with the `tm:` serialization line; on the lock
//! branches (`baseline`, `semaphore`) they also print the top of the
//! mutrace-style lock table of §3.1, the profile that picked `cache_lock` and
//! `stats_lock` as the locks worth transactionalizing.
//!
//! The workload flags (`--concurrency`, `--execute-number`, `--keys`,
//! `--value-size[-max]`, `--read-ratio`/`--write-ratio`, `--zipf`,
//! `--multiget`, `--setq-pipeline`, `--binary`) build one [`Workload`] and
//! shape one loop, whatever it is pointed at:
//!
//! | target | selected by | a flush is |
//! |---|---|---|
//! | cache API | (default) | `get`/`get_multi`, `set`/`store_batch` calls |
//! | in-process binary | `--binary` | frames encoded → decoded → dispatched |
//! | stream ASCII | `--tcp ADDR` / `--unix PATH` | `get k1 .. kn`, a burst of `set`s |
//! | stream binary | … plus `--binary` | GETKQ/SETQ runs closed by a Noop |
//! | UDP | `--udp ADDR` | one ASCII request per datagram |
//!
//! `--branch`, `--magazine`, `--algorithm` and `--cm` configure the
//! in-process cache and are refused with a socket target (they belong on
//! `mcached`'s command line), and `--magazine N` (N > 0) is refused on a
//! lock or IP branch, where it would do nothing; `--connections`,
//! `--churn` and `--fanin` need a socket. Everything that crosses a socket is verified against
//! the deterministic workload oracle (values are a pure function of the
//! key index), reports p50/p95/p99 roundtrip latency, and ends by
//! asserting the server counted zero frame errors and zero handler panics.
//!
//! Two connection-scale scenarios ride on the stream targets' connect
//! seam, each fixing the op mix and the worker count it is defined by
//! (flags that would change either are refused, not dropped): `--churn N`
//! — N workers, every op of the stream one connection lifecycle: connect,
//! `set` the key, `get` it back (a miss fails), `quit`, wait for the
//! server's FIN — and `--fanin N` — N held connections, a gets-only stream
//! from `--concurrency` threads rotating across them (a miss fails), and a
//! final per-connection liveness sweep.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use bench::cli::{branch_usage, num, parse_branch, refuse_magazine_off_it, value};
use bench::wire::{parse_stat_line, UdpClient, WireConn};
use mcache::proto::binary::{self, Opcode, Request, Response, Status};
use mcache::{Branch, McCache, McConfig, McHandle, StoreMode, StoreOp};
use tm::{Algorithm, ContentionManager};
use workload::{Op, OpMix, Workload};

struct Args {
    concurrency: usize,
    execute_number: usize,
    binary: bool,
    branch: Branch,
    value_size: usize,
    /// Upper bound for uniform per-key value sizes; 0 = fixed
    /// `--value-size` for every key.
    value_size_max: usize,
    keys: usize,
    /// Percent of operations that are GETs (the rest are SETs).
    read_ratio: u32,
    /// Zipfian key-popularity exponent in `[0, 1)`; 0 = uniform.
    zipf: f64,
    /// Flush consecutive GETs n-at-a-time. 1 = no batching.
    multiget: usize,
    /// Flush consecutive SETs n-at-a-time. 1 = no batching.
    setq_pipeline: usize,
    tcp: Option<String>,
    udp: Option<String>,
    unix: Option<PathBuf>,
    /// Client connections, each with its own thread and op stream; 0 =
    /// `--concurrency`.
    connections: usize,
    /// Churn workers; 0 = off.
    churn: usize,
    /// Held fan-in connections; 0 = off.
    fanin: usize,
    /// Per-worker slab magazine capacity of the in-process cache
    /// (transactional-item branches only); 0 = the 3-transaction store.
    magazine: usize,
    /// The in-process cache's STM algorithm; None = its default.
    algorithm: Option<Algorithm>,
    /// The in-process cache's contention manager; None = the branch default.
    cm: Option<ContentionManager>,
    /// Every flag as typed, for the which-side-of-the-socket checks.
    given: Vec<String>,
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
        return Some(ContentionManager::Backoff {
            max_shift: n.parse().ok()?,
        });
    }
    if let Some(n) = name.strip_prefix("hourglass:") {
        return Some(ContentionManager::Hourglass(n.parse().ok()?));
    }
    None
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        concurrency: 4,
        execute_number: 10_000,
        binary: false,
        branch: Branch::IpNoLock,
        value_size: 256,
        value_size_max: 0,
        keys: 2000,
        read_ratio: 90,
        zipf: 0.0,
        multiget: 1,
        setq_pipeline: 1,
        tcp: None,
        udp: None,
        unix: None,
        connections: 0,
        churn: 0,
        fanin: 0,
        magazine: 0,
        algorithm: None,
        cm: None,
        given: Vec::new(),
    };
    let text = |s: &str| Some(s.to_string());
    let path = |s: &str| Some(PathBuf::from(s));
    let positive = |s: &str| num::<usize>(s).filter(|&n| n >= 1);
    let percent = |s: &str| num::<u32>(s).filter(|&p| p <= 100);
    let count = "a count of at least 1";
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let it = &mut it;
        match flag.as_str() {
            "--concurrency" | "-c" => {
                args.concurrency = value(&flag, it, "a thread count of at least 1", positive)
            }
            "--execute-number" | "-x" => args.execute_number = value(&flag, it, "a count", num),
            "--value-size" => {
                args.value_size = value(&flag, it, "a byte count of at least 1", positive)
            }
            "--value-size-max" => args.value_size_max = value(&flag, it, "a byte count", num),
            "--keys" => args.keys = value(&flag, it, count, positive),
            "--read-ratio" => args.read_ratio = value(&flag, it, "a percentage 0..=100", percent),
            // memslap has no such flag, but every setpath arm is
            // write-shaped; --write-ratio 70 == --read-ratio 30.
            "--write-ratio" => {
                args.read_ratio = 100 - value(&flag, it, "a percentage 0..=100", percent)
            }
            "--zipf" => {
                args.zipf = value(&flag, it, "a theta in [0, 1)", |s| {
                    num::<f64>(s).filter(|t| (0.0..1.0).contains(t))
                })
            }
            "--multiget" => args.multiget = value(&flag, it, count, positive),
            "--setq-pipeline" => args.setq_pipeline = value(&flag, it, count, positive),
            "--binary" => args.binary = true,
            "--tcp" => args.tcp = Some(value(&flag, it, "HOST:PORT", text)),
            "--udp" => args.udp = Some(value(&flag, it, "HOST:PORT", text)),
            "--unix" => args.unix = Some(value(&flag, it, "a socket path", path)),
            "--connections" => args.connections = value(&flag, it, count, positive),
            "--churn" => args.churn = value(&flag, it, count, positive),
            "--fanin" => args.fanin = value(&flag, it, count, positive),
            "--magazine" => args.magazine = value(&flag, it, "a slot count", num),
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
            "--branch" => args.branch = value(&flag, it, &branch_usage(), parse_branch),
            other => usage_error(&format!("unknown flag {other}")),
        }
        args.given.push(flag);
    }
    args
}

/// Where the op loop's requests go.
enum Target {
    /// The in-process cache: API calls, or with `--binary` every request
    /// encoded, decoded and dispatched as a binary frame.
    InProcess(McHandle),
    /// A running `mcached` over a stream transport. The protocol is
    /// byte-identical on TCP and Unix sockets, so both share every path
    /// past `connect`.
    Tcp(String),
    #[cfg(unix)]
    Unix(PathBuf),
    /// A running `mcached` over memcached-framed UDP datagrams.
    Udp(String),
}

impl Target {
    /// Picks the target, refusing every flag it cannot honour: a flag that
    /// is accepted means something on the chosen side of the socket.
    fn from_args(args: &Args) -> Target {
        let given = |names: &[&str]| args.given.iter().find(|f| names.contains(&f.as_str()));
        let target = match (&args.tcp, &args.unix, &args.udp) {
            (None, None, None) => {
                if let Some(flag) = given(&["--connections", "--churn", "--fanin"]) {
                    usage_error(&format!(
                        "{flag} needs a socket target (--tcp or --unix; --connections also takes --udp)"
                    ));
                }
                refuse_magazine_off_it(args.magazine, args.branch);
                return Target::InProcess(McCache::start(McConfig {
                    branch: args.branch,
                    workers: args.concurrency,
                    magazine: args.magazine,
                    algorithm: args.algorithm.unwrap_or_default(),
                    contention: args.cm,
                    ..Default::default()
                }));
            }
            (Some(addr), None, None) => Target::Tcp(addr.clone()),
            #[cfg(unix)]
            (None, Some(path), None) => Target::Unix(path.clone()),
            #[cfg(not(unix))]
            (None, Some(_), None) => usage_error("--unix is only supported on Unix platforms"),
            (None, None, Some(addr)) => {
                let stream_only = [
                    "--binary",
                    "--multiget",
                    "--setq-pipeline",
                    "--churn",
                    "--fanin",
                ];
                if let Some(flag) = given(&stream_only) {
                    usage_error(&format!(
                        "{flag} does not apply: --udp is ASCII, one request per datagram"
                    ));
                }
                Target::Udp(addr.clone())
            }
            _ => usage_error("pick one target: --tcp, --unix or --udp"),
        };
        if let Some(flag) = given(&["--branch", "--magazine", "--algorithm", "--cm"]) {
            usage_error(&format!(
                "{flag} configures the in-process cache; pass it to mcached"
            ));
        }
        // A flag that fixes the mix or the worker count refuses the flags
        // it would otherwise silently override.
        let fixes: [(&str, &[&str], &str); 3] = [
            (
                "--churn",
                &[
                    "--fanin",
                    "--binary",
                    "--connections",
                    "--concurrency",
                    "-c",
                    "--read-ratio",
                    "--write-ratio",
                    "--multiget",
                    "--setq-pipeline",
                ],
                "--churn N is N workers, each op one ASCII connection lifecycle: \
                 connect, set, get, quit",
            ),
            (
                "--fanin",
                &["--connections", "--read-ratio", "--write-ratio", "--setq-pipeline"],
                "--fanin N is a gets-only stream from --concurrency threads over N held connections",
            ),
            (
                "--connections",
                &["--concurrency", "-c"],
                "--connections is the worker count",
            ),
        ];
        for (fixer, refused, why) in fixes {
            if let (Some(_), Some(flag)) = (given(&[fixer]), given(refused)) {
                usage_error(&format!("{flag} does not apply: {why}"));
            }
        }
        target
    }

    fn remote(&self) -> bool {
        !matches!(self, Target::InProcess(_))
    }

    /// Opens a stream connection, with retry — the churn storm and the
    /// 10k fan-in can outrun the server's accept backlog, which surfaces
    /// as transient refusals/resets rather than queueing.
    fn connect_retry(&self) -> WireConn {
        let mut delay = Duration::from_millis(1);
        for _ in 0..200 {
            let conn = match self {
                Target::Tcp(addr) => WireConn::connect(addr),
                #[cfg(unix)]
                Target::Unix(path) => WireConn::connect_unix(path),
                Target::InProcess(_) | Target::Udp(_) => unreachable!("not a stream target"),
            };
            if let Ok(conn) = conn {
                return conn;
            }
            std::thread::sleep(delay);
            delay = (delay * 2).min(Duration::from_millis(100));
        }
        panic!("could not connect to {} after retries", self.describe());
    }

    fn describe(&self) -> String {
        match self {
            Target::InProcess(_) => "in-process".into(),
            Target::Tcp(addr) => format!("tcp {addr}"),
            #[cfg(unix)]
            Target::Unix(path) => format!("unix {}", path.display()),
            Target::Udp(addr) => format!("udp {addr}"),
        }
    }

    /// The server's `stats`, over a fresh ASCII exchange.
    fn server_stats(&self) -> Vec<(String, u64)> {
        match self {
            Target::Udp(addr) => {
                let mut client = UdpClient::connect(addr).expect("udp connect for stats");
                let resp = client.roundtrip(b"stats\r\n").expect("final stats");
                resp.split(|&b| b == b'\n')
                    .filter_map(parse_stat_line)
                    .collect()
            }
            _ => self.connect_retry().ascii_stats().expect("final stats"),
        }
    }
}

/// One run: the flags, the one workload they describe, and its target.
struct Run {
    args: Args,
    wl: Workload,
    target: Target,
}

/// One worker's end of the target.
enum Link {
    Cache(std::sync::Arc<McCache>),
    /// Stream connections, used in rotation: one ordinarily, the worker's
    /// share of the held set under `--fanin`, none under `--churn` (every
    /// flush then opens and retires its own; see [`Client::flush`]).
    Stream {
        conns: Vec<WireConn>,
        next: usize,
    },
    Udp(UdpClient),
}

struct Client<'a> {
    run: &'a Run,
    /// Worker index: the cache's worker slot in-process.
    w: usize,
    link: Link,
    /// Per-flush roundtrip latency, nanoseconds (socket targets only).
    lat: Vec<u64>,
}

/// Sentinel opaque for the Noop closing a quiet binary burst; key indices
/// (every other opaque in flight) can never reach it.
const NOOP_OPAQUE: u32 = u32::MAX;

/// The binary frame for `opcode` on key index `k` (`None`: a keyless
/// frame). The opaque names the key, so a response finds its oracle value.
fn request(wl: &Workload, opcode: Opcode, k: Option<usize>) -> Request {
    Request {
        opcode,
        opaque: k.map_or(NOOP_OPAQUE, |k| k as u32),
        cas: 0,
        key: k.map_or(Vec::new(), |k| wl.key(k).to_vec()),
        value: match (opcode, k) {
            (Opcode::Set | Opcode::SetQ, Some(k)) => wl.value(k),
            _ => Vec::new(),
        },
        extra: 0,
    }
}

/// Appends the ASCII `set` for key index `k`.
fn ascii_set(wl: &Workload, k: usize, out: &mut Vec<u8>) {
    let value = wl.value(k);
    let key = String::from_utf8_lossy(wl.key(k));
    out.extend_from_slice(format!("set {key} 0 0 {}\r\n", value.len()).as_bytes());
    out.extend_from_slice(&value);
    out.extend_from_slice(b"\r\n");
}

/// Parses the reassembled ASCII response to a single-key UDP `get`:
/// `Some(data)` on a hit, `None` on a clean miss. Panics on anything
/// else — UDP responses are whole by construction once reassembled.
fn parse_udp_get(resp: &[u8]) -> Option<Vec<u8>> {
    if resp == b"END\r\n" {
        return None;
    }
    let header_end = resp
        .windows(2)
        .position(|w| w == b"\r\n")
        .expect("VALUE line");
    let header = String::from_utf8_lossy(&resp[..header_end]);
    let mut parts = header.split_whitespace();
    assert_eq!(
        parts.next(),
        Some("VALUE"),
        "unexpected UDP get response: {header:?}"
    );
    let len: usize = parts.nth(2).expect("len").parse().expect("len parses");
    let data_start = header_end + 2;
    let data = resp[data_start..data_start + len].to_vec();
    assert_eq!(
        &resp[data_start + len..],
        b"\r\nEND\r\n",
        "UDP get response must end cleanly"
    );
    Some(data)
}

impl<'a> Client<'a> {
    /// Worker `w`'s end of the target, holding `held` stream connections.
    fn open(run: &'a Run, w: usize, held: usize) -> Client<'a> {
        let link = match &run.target {
            Target::InProcess(handle) => Link::Cache(handle.cache().clone()),
            Target::Udp(addr) => Link::Udp(UdpClient::connect(addr).expect("udp connect")),
            stream => Link::Stream {
                conns: (0..held).map(|_| stream.connect_retry()).collect(),
                next: 0,
            },
        };
        Client {
            run,
            w,
            link,
            lat: Vec::new(),
        }
    }

    /// Runs `f` on the next held connection in rotation.
    fn on_conn<R>(&mut self, f: impl FnOnce(&mut WireConn) -> R) -> R {
        let Link::Stream { conns, next } = &mut self.link else {
            unreachable!("only stream links hold connections")
        };
        *next = (*next + 1) % conns.len();
        f(&mut conns[*next])
    }

    /// One `--binary` flush: a lone key goes as one `loud` frame, a batch
    /// as `quiet` frames closed by a Noop. In-process the frames take the
    /// full wire path short of the socket: encode, decode, dispatch.
    /// Returns the responses that name a key.
    fn binary(&mut self, keys: &[usize], loud: Opcode, quiet: Opcode) -> Vec<Response> {
        let wl = &self.run.wl;
        let (reqs, stop): (Vec<Request>, u32) = match keys {
            [k] => (vec![request(wl, loud, Some(*k))], *k as u32),
            _ => {
                let burst = keys.iter().map(|&k| request(wl, quiet, Some(k)));
                (
                    burst.chain([request(wl, Opcode::Noop, None)]).collect(),
                    NOOP_OPAQUE,
                )
            }
        };
        let mut resps = if let Link::Cache(cache) = &self.link {
            let decoded: Vec<Request> = reqs
                .iter()
                .map(|r| Request::decode(&r.encode()).expect("self-encoded frame"))
                .collect();
            binary::execute_pipeline(cache, self.w, &decoded)
        } else {
            self.on_conn(|c| c.binary_pipeline(&reqs, stop).expect("binary burst"))
        };
        if keys.len() > 1 {
            assert_eq!(
                resps.pop().map(|r| r.opaque),
                Some(NOOP_OPAQUE),
                "burst ends in its Noop"
            );
        }
        resps
    }

    /// GETs `keys` in one flush; every hit that crossed a socket is
    /// verified against the oracle.
    fn gets(&mut self, keys: &[usize]) {
        let wl = &self.run.wl;
        let hits: Vec<(usize, Vec<u8>)> = if self.run.args.binary {
            let loud = keys.len() == 1;
            let found = |r: Response| match r.status {
                Status::Ok => Some((r.opaque as usize, r.value)),
                // A quiet get answers hits only.
                Status::KeyNotFound if loud => None,
                other => panic!("GET answered {other:?}"),
            };
            self.binary(keys, Opcode::Get, Opcode::GetKQ)
                .into_iter()
                .filter_map(found)
                .collect()
        } else {
            match &mut self.link {
                Link::Cache(cache) => {
                    // The API hands back what the cache holds; there is no
                    // wire to desync, so hit counts are the check.
                    match keys {
                        [k] => drop(cache.get(self.w, wl.key(*k))),
                        _ => {
                            let keys: Vec<&[u8]> =
                                keys.iter().map(|&k| wl.key(k).as_ref()).collect();
                            cache.get_multi(self.w, &keys);
                        }
                    }
                    return;
                }
                Link::Udp(client) => keys
                    .iter()
                    .filter_map(|&k| {
                        let req = format!("get {}\r\n", String::from_utf8_lossy(wl.key(k)));
                        let resp = client.roundtrip(req.as_bytes()).expect("udp get");
                        parse_udp_get(&resp).map(|data| (k, data))
                    })
                    .collect(),
                Link::Stream { .. } => {
                    let names: Vec<&[u8]> = keys.iter().map(|&k| wl.key(k).as_ref()).collect();
                    let index = |name: &[u8]| {
                        let at = names.iter().position(|&n| n == name);
                        keys[at.expect("hit echoes a requested key")]
                    };
                    self.on_conn(|c| c.ascii_get(&names, false).expect("get"))
                        .into_iter()
                        .map(|hit| (index(&hit.key), hit.data))
                        .collect()
                }
            }
        };
        if self.run.target.remote() {
            // The scenarios read only what was stored and acknowledged.
            let must_hit = self.run.args.churn > 0 || self.run.args.fanin > 0;
            assert!(
                !must_hit || hits.len() == keys.len(),
                "GET missed a stored key among indices {keys:?}"
            );
            for (k, data) in hits {
                assert!(
                    wl.verify_value(k, &data),
                    "GET returned wrong bytes for key index {k}"
                );
            }
        }
    }

    /// SETs `keys` in one flush; every store that crosses a socket must
    /// succeed (in-process the hit counts are the check, on both paths).
    fn sets(&mut self, keys: &[usize]) {
        let wl = &self.run.wl;
        if self.run.args.binary {
            // A quiet set answers failures only.
            for r in self.binary(keys, Opcode::Set, Opcode::SetQ) {
                assert!(
                    !self.run.target.remote() || (keys.len() == 1 && r.status == Status::Ok),
                    "SET must store: {r:?}"
                );
            }
            return;
        }
        match &mut self.link {
            Link::Cache(cache) => {
                let values: Vec<Vec<u8>> = keys.iter().map(|&k| wl.value(k)).collect();
                let ops: Vec<StoreOp> = keys
                    .iter()
                    .zip(&values)
                    .map(|(&k, value)| StoreOp {
                        mode: StoreMode::Set,
                        key: wl.key(k),
                        value,
                        flags: 0,
                        exptime: 0,
                    })
                    .collect();
                match ops[..] {
                    [op] => drop(cache.set(self.w, op.key, op.value, 0, 0)),
                    _ => drop(cache.store_batch(self.w, &ops)),
                }
            }
            Link::Udp(client) => {
                for &k in keys {
                    let mut req = Vec::new();
                    ascii_set(wl, k, &mut req);
                    let resp = client.roundtrip(&req).expect("udp set");
                    assert_eq!(resp, b"STORED\r\n", "UDP SET must store");
                }
            }
            Link::Stream { .. } => {
                let mut burst = Vec::new();
                keys.iter().for_each(|&k| ascii_set(wl, k, &mut burst));
                self.on_conn(|c| {
                    c.send(&burst).expect("sets");
                    for _ in keys {
                        assert_eq!(
                            c.read_line().expect("set reply"),
                            b"STORED",
                            "SET must store"
                        );
                    }
                });
            }
        }
    }

    /// One churn lifecycle's payload: store the key, read it back.
    fn set_then_get(&mut self, keys: &[usize]) {
        self.sets(keys);
        self.gets(keys);
    }

    /// Sends a pending batch, timing the roundtrip on socket targets. A
    /// stream worker holding no connection (`--churn`) gives the flush a
    /// connection of its own and times the whole lifecycle: connect, send,
    /// `quit`, the server's FIN.
    fn flush(&mut self, batch: &mut Vec<usize>, send: fn(&mut Self, &[usize])) {
        if batch.is_empty() {
            return;
        }
        let start = self.run.target.remote().then(Instant::now);
        let lifecycle = matches!(&self.link, Link::Stream { conns, .. } if conns.is_empty());
        if let (true, Link::Stream { conns, .. }) = (lifecycle, &mut self.link) {
            conns.push(self.run.target.connect_retry());
        }
        send(self, batch);
        if let (true, Link::Stream { conns, .. }) = (lifecycle, &mut self.link) {
            let mut conn = conns.pop().expect("the lifecycle's connection");
            conn.send(b"quit\r\n").expect("churn quit");
            // The server closes after `quit`; reading the FIN proves the
            // teardown path ran, not just our drop.
            assert!(conn.read_line().is_err(), "server must close after quit");
        }
        self.lat
            .extend(start.map(|s| s.elapsed().as_nanos() as u64));
        batch.clear();
    }

    /// Ends the worker: every held connection must still answer. Returns
    /// the latency samples.
    fn finish(mut self) -> Vec<u64> {
        let (wl, binary) = (&self.run.wl, self.run.args.binary);
        if let Link::Stream { conns, .. } = &mut self.link {
            for conn in conns {
                let alive = if binary {
                    let version = request(wl, Opcode::Version, None);
                    conn.binary_roundtrip(&version)
                        .is_ok_and(|r| r.status == Status::Ok)
                } else {
                    conn.ascii_line(b"version\r\n")
                        .is_ok_and(|v| v.starts_with(b"VERSION"))
                };
                assert!(alive, "a held connection went dead");
            }
        }
        self.lat
    }
}

/// The op loop: worker `w`'s stream, with consecutive GETs flushed
/// `--multiget` at a time and consecutive SETs `--setq-pipeline` at a
/// time. A write flushes the pending reads first and vice versa, so
/// per-thread order is preserved. Under `--churn` every op is one
/// lifecycle on the key it names. Returns the latency samples and which
/// keys the stream touched.
fn work(run: &Run, w: usize, held: usize) -> (Vec<u64>, Vec<bool>) {
    let mut client = Client::open(run, w, held);
    let mut touched = vec![false; run.wl.key_count()];
    let (mut gets, mut sets) = (Vec::new(), Vec::new());
    for op in run.wl.stream(w) {
        touched[op.key_index()] = true;
        match op {
            Op::Get(k) | Op::Set(k) if run.args.churn > 0 => {
                sets.push(k);
                client.flush(&mut sets, Client::set_then_get);
            }
            Op::Get(k) => {
                client.flush(&mut sets, Client::sets);
                gets.push(k);
                if gets.len() >= run.args.multiget {
                    client.flush(&mut gets, Client::gets);
                }
            }
            Op::Set(k) => {
                client.flush(&mut gets, Client::gets);
                sets.push(k);
                if sets.len() >= run.args.setq_pipeline {
                    client.flush(&mut sets, Client::sets);
                }
            }
            Op::Delete(_) | Op::Incr(..) => unreachable!("the mix below is get/set only"),
        }
    }
    client.flush(&mut gets, Client::gets);
    client.flush(&mut sets, Client::sets);
    (client.finish(), touched)
}

fn main() {
    let args = parse_args();
    let target = Target::from_args(&args);
    let workers = if args.churn > 0 {
        args.churn
    } else if args.fanin > 0 {
        args.concurrency.min(args.fanin)
    } else if args.connections > 0 {
        args.connections
    } else {
        args.concurrency
    };
    // The scenarios fix the mix: a churn lifecycle is one set and one get,
    // fan-in is gets only.
    let reads = match (args.churn, args.fanin) {
        (0, 0) => args.read_ratio,
        (0, _) => 100,
        _ => 50,
    };
    let wl = Workload::builder()
        .concurrency(workers)
        .execute_number(args.execute_number)
        .key_count(args.keys)
        .value_size_range(args.value_size, args.value_size_max.max(args.value_size))
        .binary(args.binary)
        .zipf(args.zipf)
        .mix(OpMix {
            get: reads,
            set: 100 - reads,
            delete: 0,
            incr: 0,
        })
        .build();
    let run = Run { args, wl, target };
    let (args, wl, target) = (&run.args, &run.wl, &run.target);
    // The stream connections worker `w` holds: none under --churn, its
    // share of the set under --fanin.
    let held = |w: usize| match (args.churn, args.fanin) {
        (0, 0) => 1,
        (0, fanin) => fanin / workers + usize::from(w < fanin % workers),
        _ => 0,
    };

    // Preload the whole keyspace through one client, in acknowledged
    // bursts, so every GET can hit before the clock starts.
    let mut loader = Client::open(&run, 0, 1);
    let all_keys: Vec<usize> = (0..wl.key_count()).collect();
    all_keys.chunks(64).for_each(|burst| loader.sets(burst));
    loader.finish();

    let start = Instant::now();
    let results: Vec<(Vec<u64>, Vec<bool>)> = std::thread::scope(|s| {
        let run = &run;
        let handles: Vec<_> = (0..workers)
            .map(|w| s.spawn(move || work(run, w, held(w))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();

    let total_ops = workers * args.execute_number;
    let mut lat: Vec<u64> = results.iter().flat_map(|(lat, _)| lat).copied().collect();
    let touched = (0..wl.key_count())
        .filter(|&k| results.iter().any(|(_, t)| t[k]))
        .count();
    let scenario = if args.churn > 0 {
        format!(", churn: {} connection lifecycles", lat.len())
    } else if args.fanin > 0 {
        format!(", fan-in: {} held connections", args.fanin)
    } else {
        String::new()
    };
    println!(
        "{total_ops} ops in {secs:.3}s = {:.0} ops/s  ({workers} workers, {}, {}, {}% reads, \
         zipf {}, multiget {}, setq-pipeline {}, keys_touched={touched}/{}{scenario})",
        total_ops as f64 / secs,
        target.describe(),
        match (args.binary, target.remote()) {
            (true, _) => "binary",
            (false, true) => "ascii",
            (false, false) => "api",
        },
        reads,
        args.zipf,
        args.multiget,
        args.setq_pipeline,
        wl.key_count(),
    );
    if let Target::InProcess(handle) = target {
        let stats = handle.stats();
        println!(
            "hits={} misses={} evictions={} expansions={} rebalances={}  ({} branch, magazine {})",
            stats.threads.get_hits,
            stats.threads.get_misses,
            stats.global.evictions,
            stats.global.expansions,
            stats.global.rebalances,
            args.branch,
            args.magazine,
        );
        println!("tm: {}", handle.tm_stats());
        if matches!(args.branch, Branch::Baseline | Branch::Semaphore) {
            // §3.1's first step: which locks contend under this load. Ties
            // go to the hotter lock, so the item-lock stripes trail.
            let mut rows = handle.profiler().report();
            rows.sort_by_key(|r| std::cmp::Reverse((r.contended, r.acquisitions)));
            rows.iter().take(6).for_each(|row| println!("lock: {row}"));
        }
        return;
    }

    lat.sort_unstable();
    if !lat.is_empty() {
        let pick = |p: f64| lat[((lat.len() - 1) as f64 * p).round() as usize] as f64 / 1000.0;
        let label = match target {
            Target::Udp(_) => "udp-roundtrip",
            _ if args.churn > 0 => "conn-lifecycle",
            _ if args.fanin > 0 => "fanin-get",
            _ => "roundtrip",
        };
        println!(
            "latency_us[{label}]: p50={:.1} p95={:.1} p99={:.1} (n={})",
            pick(0.50),
            pick(0.95),
            pick(0.99),
            lat.len(),
        );
    }
    let stats = target.server_stats();
    let stat = |name: &str| {
        stats
            .iter()
            .find(|(n, _)| n == name)
            .map_or_else(|| panic!("server stats missing {name}"), |s| s.1)
    };
    let shown = [
        "get_hits",
        "get_misses",
        "total_connections",
        "curr_connections",
        "accept_errors",
        "conn_timeouts",
        "bytes_read",
        "bytes_written",
        "udp_datagrams_rx",
        "udp_datagrams_tx",
        "frame_errors",
    ];
    let line: Vec<String> = shown
        .iter()
        .map(|name| format!("{name}={}", stat(name)))
        .collect();
    println!("server: {}", line.join(" "));
    assert!(
        args.churn == 0 || stat("total_connections") >= lat.len() as u64,
        "server must have seen every churned connection"
    );
    assert_eq!(
        stat("frame_errors"),
        0,
        "a clean run must not desync frames"
    );
    assert_eq!(stat("request_panics"), 0, "no handler may have panicked");
}
