//! Running a workload: set-up, the timed closed loop, transports and the
//! counters read from outside each layer.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use mcache::dur::{DurLog, Record};
use mcache::proto::{self, binary, FrameScan};
use mcache::{Branch, DurFsync, McCache, McConfig, McHandle, SlabConfig};
use tm::StatsSnapshot;

use crate::cpu;
use crate::gen::{Fail, KeyDist, KeySpace, Op, Stream, Tally, Values};
use crate::spec::{Mode, Workload, QUICK_KEYS};
use crate::trace::{Name, NoProbe, Probe};
use crate::wire::{report_field, Checker, Conn, Proto, RequestBuilder, ServerChild, BURST};

/// Everything a run is given from outside.
pub struct Context {
    pub seed: u64,
    pub quick: bool,
    pub mcached: PathBuf,
    /// Where traces, `result.json` and the redo logs go.
    pub out_dir: PathBuf,
}

/// The seeded inputs of one workload.
pub struct Tables {
    pub keys: Arc<KeySpace>,
    pub values: Values,
    pub dist: KeyDist,
    pub builder: RequestBuilder,
    pub checker: Checker,
    seed: u64,
    set_permille: u32,
}

impl Tables {
    pub fn new(w: &Workload, ctx: &Context) -> Tables {
        let n = if ctx.quick { QUICK_KEYS } else { w.keys };
        let keys = Arc::new(KeySpace::new(ctx.seed, n));
        let values = Values::new(ctx.seed, w.value);
        Tables {
            dist: if w.zipf {
                KeyDist::zipf(n, 0.9)
            } else {
                KeyDist::Uniform
            },
            builder: RequestBuilder::new(w.proto, keys.clone(), values),
            checker: Checker::new(w.proto, keys.clone(), values, w.misses_legal),
            keys,
            values,
            seed: ctx.seed,
            set_permille: w.set_permille,
        }
    }

    pub fn stream(&self, thread: usize, threads: usize, pass: u64) -> Stream {
        Stream::new(
            self.seed,
            thread as u64,
            threads as u64,
            pass,
            self.keys.len(),
            self.dist.clone(),
            self.set_permille,
        )
    }
}

/// Carries request bytes to the program under test and checks the reply.
/// `None` means the transport can no longer be used.
pub trait Transport {
    fn roundtrip<P: Probe>(
        &mut self,
        req: &[u8],
        ops: &[Op],
        checker: &Checker,
        probe: &mut P,
    ) -> Option<Tally>;
}

/// In-process: the calls a server worker makes between its socket read
/// and its socket write — `scan_frame`, then `parse_frame` → `execute` →
/// `encode` (binary) or `execute_ascii_run` (ASCII, which batches a
/// 16-key `get` into one `get_multi` and 16 `set`s into one
/// `store_batch`).
pub struct Inproc {
    pub cache: Arc<McCache>,
    pub worker: usize,
    pub proto: Proto,
}

impl Inproc {
    pub fn new(handle: &McHandle, worker: usize, proto: Proto) -> Inproc {
        Inproc {
            cache: handle.cache().clone(),
            worker,
            proto,
        }
    }
}

impl Transport for Inproc {
    fn roundtrip<P: Probe>(
        &mut self,
        req: &[u8],
        ops: &[Op],
        checker: &Checker,
        probe: &mut P,
    ) -> Option<Tally> {
        let reply = match self.proto {
            Proto::Binary => {
                let FrameScan::Binary { len } = proto::scan_frame(req) else {
                    return None;
                };
                probe.mark(Name::Scan);
                match binary::parse_frame(&req[..len]) {
                    Ok(request) => {
                        probe.mark(Name::Parse);
                        let response = binary::execute(&self.cache, self.worker, &request);
                        probe.mark(Name::Execute);
                        let bytes = response.encode();
                        probe.mark(Name::Encode);
                        bytes
                    }
                    Err(error_frame) => error_frame,
                }
            }
            Proto::Ascii16 => {
                let mut frames: Vec<&[u8]> = Vec::with_capacity(BURST);
                let mut at = 0;
                while at < req.len() {
                    let FrameScan::Ascii { len } = proto::scan_frame(&req[at..]) else {
                        return None;
                    };
                    frames.push(&req[at..at + len]);
                    at += len;
                }
                probe.mark(Name::Scan);
                let bytes = proto::execute_ascii_run(&self.cache, self.worker, &frames);
                probe.mark(Name::Execute);
                bytes
            }
        };
        let verdict = match checker.check(ops, &reply) {
            crate::wire::Check::Complete { tally, .. } => Some(tally),
            _ => None,
        };
        probe.mark(Name::Verify);
        verdict
    }
}

impl Transport for Conn {
    fn roundtrip<P: Probe>(
        &mut self,
        req: &[u8],
        ops: &[Op],
        checker: &Checker,
        _probe: &mut P,
    ) -> Option<Tally> {
        Conn::roundtrip(self, req, ops, checker).ok()
    }
}

/// One request through `transport`; a dead transport fails every
/// operation in it as I/O.
fn request<T: Transport, P: Probe>(
    transport: &mut T,
    req: &[u8],
    ops: &[Op],
    checker: &Checker,
    probe: &mut P,
    tally: &mut Tally,
) -> bool {
    match transport.roundtrip(req, ops, checker, probe) {
        Some(t) => {
            tally.add(&t);
            true
        }
        None => {
            tally.attempted += ops.len() as u64;
            tally.failed[Fail::Io as usize] += ops.len() as u64;
            false
        }
    }
}

/// SETs version 0 of every key (`set`) or GETs every key once, in key
/// order. Returns false if the transport died.
pub fn sequential<T: Transport>(
    tables: &Tables,
    transport: &mut T,
    set: bool,
    tally: &mut Tally,
) -> bool {
    let mut builder = tables.builder.share();
    let mut first = 0;
    while (first as usize) < tables.keys.len() {
        let (req, ops) = builder.sequential(first, set);
        first += ops.len() as u32;
        if !request(transport, req, ops, &tables.checker, &mut NoProbe, tally) {
            return false;
        }
    }
    true
}

/// Warm-up, then back-to-back slices.
#[derive(Clone, Copy)]
pub struct Plan {
    pub warmup: Duration,
    pub slice: Duration,
    pub slices: usize,
}

pub struct Slice {
    pub ops: u64,
    pub secs: f64,
    /// Latency samples, one per sampled request.
    pub lat_ns: Vec<u32>,
}

pub struct Timed {
    pub slices: Vec<Slice>,
    pub tally: Tally,
    pub user_bytes: u64,
}

/// One caller's closed loop. Every `sample_every`-th request (a power of
/// two) is timed; slice boundaries are checked on those readings, so an
/// untimed request costs no clock read. A slice's rate uses its own
/// measured length.
pub fn run_timed<T: Transport>(
    plan: &Plan,
    sample_every: u64,
    tables: &Tables,
    stream: &mut Stream,
    transport: &mut T,
) -> Timed {
    let mut builder = tables.builder.share();
    let mut out = Timed {
        slices: Vec::with_capacity(plan.slices),
        tally: Tally::default(),
        user_bytes: 0,
    };
    let start = Instant::now();
    let mut boundary = start + plan.warmup;
    let mut slice_start = start;
    let mut warm = false;
    let mut ops_before = 0;
    let mut lat_ns: Vec<u32> = Vec::with_capacity(1 << 19);
    let mut n = 0u64;
    loop {
        let (req, ops) = builder.next(stream);
        let sampled = n & (sample_every - 1) == 0;
        n += 1;
        let t0 = sampled.then(Instant::now);
        if !request(
            transport,
            req,
            ops,
            &tables.checker,
            &mut NoProbe,
            &mut out.tally,
        ) {
            break;
        }
        let Some(t0) = t0 else { continue };
        let t1 = Instant::now();
        lat_ns.push((t1 - t0).as_nanos().min(u32::MAX as u128) as u32);
        if t1 < boundary {
            continue;
        }
        if warm {
            out.slices.push(Slice {
                ops: out.tally.attempted - ops_before,
                secs: (t1 - slice_start).as_secs_f64(),
                lat_ns: std::mem::replace(&mut lat_ns, Vec::with_capacity(1 << 19)),
            });
            if out.slices.len() == plan.slices {
                break;
            }
        }
        warm = true;
        lat_ns.clear();
        ops_before = out.tally.attempted;
        slice_start = t1;
        boundary += plan.slice;
    }
    out.user_bytes = builder.user_bytes;
    out
}

/// A fixed number of requests through `transport`, probed. Returns the
/// seconds it took.
pub fn run_pass<T: Transport, P: Probe>(
    requests: u32,
    tables: &Tables,
    stream: &mut Stream,
    transport: &mut T,
    probe: &mut P,
    tally: &mut Tally,
) -> f64 {
    let mut builder = tables.builder.share();
    let start = Instant::now();
    for id in 0..requests {
        probe.begin(id);
        let (req, ops) = builder.next(stream);
        probe.mark(Name::Build);
        let alive = request(transport, req, ops, &tables.checker, probe, tally);
        probe.end();
        if !alive {
            break;
        }
    }
    start.elapsed().as_secs_f64()
}

/// Counters read from outside the layers, as monotonic totals.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub gets: u64,
    pub hits: u64,
    pub sets: u64,
    pub evictions: u64,
    pub expansions: u64,
    pub hot_hits: u64,
    pub request_panics: u64,
    pub dur_appends: u64,
    pub dur_fsyncs: u64,
    pub dur_bytes: u64,
    pub log_write_errors: u64,
    pub net_bytes_read: u64,
    pub net_bytes_written: u64,
    pub frame_errors: u64,
}

impl Counters {
    pub fn of_cache(cache: &McCache) -> Counters {
        let s = cache.stats();
        let d = cache.dur_stats().unwrap_or_default();
        Counters {
            gets: s.threads.get_cmds,
            hits: s.threads.get_hits,
            sets: s.threads.set_cmds,
            evictions: s.global.evictions,
            expansions: s.global.expansions,
            hot_hits: s.hot_hits,
            request_panics: s.request_panics,
            dur_appends: d.appends,
            dur_fsyncs: d.fsyncs,
            dur_bytes: d.bytes,
            log_write_errors: d.log_write_errors,
            ..Counters::default()
        }
    }

    pub fn of_wire(stats: &BTreeMap<String, u64>) -> Counters {
        let get = |k: &str| stats.get(k).copied().unwrap_or(0);
        Counters {
            gets: get("cmd_get"),
            hits: get("get_hits"),
            sets: get("cmd_set"),
            evictions: get("evictions"),
            expansions: get("hash_expansions"),
            hot_hits: get("hot_hits"),
            request_panics: get("request_panics"),
            net_bytes_read: get("bytes_read"),
            net_bytes_written: get("bytes_written"),
            frame_errors: get("frame_errors"),
            // `mcached` runs without a redo log here.
            ..Counters::default()
        }
    }

    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            gets: self.gets - earlier.gets,
            hits: self.hits - earlier.hits,
            sets: self.sets - earlier.sets,
            evictions: self.evictions - earlier.evictions,
            expansions: self.expansions - earlier.expansions,
            hot_hits: self.hot_hits - earlier.hot_hits,
            request_panics: self.request_panics - earlier.request_panics,
            dur_appends: self.dur_appends - earlier.dur_appends,
            dur_fsyncs: self.dur_fsyncs - earlier.dur_fsyncs,
            dur_bytes: self.dur_bytes - earlier.dur_bytes,
            log_write_errors: self.log_write_errors - earlier.log_write_errors,
            net_bytes_read: self.net_bytes_read - earlier.net_bytes_read,
            net_bytes_written: self.net_bytes_written - earlier.net_bytes_written,
            frame_errors: self.frame_errors - earlier.frame_errors,
        }
    }

    /// Server-side failures that no single reply shows.
    pub fn errors(&self) -> u64 {
        self.request_panics + self.log_write_errors + self.frame_errors
    }
}

/// The cache a workload runs against: `ip-nolock` (the `mcached` default
/// and the paper's Fig. 10 end state), every other option at its default
/// except the ones the workload names.
pub fn cache_config(w: &Workload, workers: usize, dur_dir: Option<&Path>) -> McConfig {
    McConfig {
        branch: Branch::IpNoLock,
        workers,
        slab: SlabConfig {
            mem_limit: w.mem_limit,
            ..SlabConfig::default()
        },
        dur_path: dur_dir.map(Path::to_path_buf),
        dur_fsync: DurFsync::Off,
        ..McConfig::default()
    }
}

/// A directory under the output directory that is removed when dropped.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(ctx: &Context, name: &str) -> io::Result<ScratchDir> {
        let path = ctx
            .out_dir
            .join("tmp")
            .join(format!("{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir(path))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Records per live item in the fixture log: each key once at version 0,
/// then seeded overwrites, so that less than half of the log is live and
/// recovery has to compact it.
const FIXTURE_RECORDS_PER_KEY: f64 = 2.5;

/// Version the fixture's overwrites start from; the timed passes write
/// versions below 2^62.
const FIXTURE_VERSION: u64 = 1 << 62;

/// Writes and seals the redo log a `dur` workload recovers from, through
/// `DurLog::append`; with a tracer, every append is a `dur.append` span.
pub fn write_fixture(
    tables: &Tables,
    dir: &Path,
    mut tracer: Option<&mut crate::trace::Tracer>,
) -> io::Result<()> {
    let log = DurLog::open(dir, DurFsync::Off, McConfig::default().dur_segment_bytes, 0)?;
    let n = tables.keys.len();
    let records = (n as f64 * FIXTURE_RECORDS_PER_KEY) as usize;
    let mut rng = crate::gen::SplitMix64::new(crate::gen::mix(tables.seed ^ 0xF1C5));
    let stored_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    for i in 0..records {
        let (key, version) = if i < n {
            (i as u32, 0)
        } else {
            (rng.below(n as u64) as u32, FIXTURE_VERSION + i as u64)
        };
        let mut value = Vec::new();
        tables.values.append(key as u64, version, &mut value);
        let record = Record::Set {
            cas: i as u64 + 1,
            flags: 0,
            abs_exp: 0,
            stored_unix,
            key: tables.keys.key(key).to_vec(),
            value,
        };
        let stamp = i as u64 + 1;
        match tracer.as_deref_mut() {
            Some(t) => t.lone(Name::DurAppend, i as u32, || log.append(stamp, &record)),
            None => log.append(stamp, &record),
        }
    }
    log.seal();
    if log.is_failed() {
        return Err(io::Error::other("writing the fixture redo log failed"));
    }
    Ok(())
}

pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// The program under test, ready to serve.
#[allow(clippy::large_enum_variant)] // one value exists at a time
pub enum Target {
    Inproc {
        handle: McHandle,
        _log: Option<ScratchDir>,
    },
    /// Client and server share the one CPU `_pin` holds (see `cpu`).
    Wire {
        child: ServerChild,
        conn: Conn,
        _pin: cpu::Pinned,
    },
}

/// Process or cache start → ready to serve, preload (or log recovery)
/// included. Returns the target, the seconds it took and the preload's
/// tally.
pub fn set_up(
    w: &Workload,
    tables: &Tables,
    ctx: &Context,
    fixture: Option<&Path>,
) -> io::Result<(Target, f64, Tally)> {
    let mut tally = Tally::default();
    // Copying the fixture is not part of starting the cache.
    let log = match fixture {
        Some(fixture) => {
            let dir = ScratchDir::new(ctx, &format!("{}-log", w.name))?;
            copy_dir(fixture, &dir.0)?;
            Some(dir)
        }
        None => None,
    };
    let start = Instant::now();
    let target = match w.mode {
        Mode::Inproc { threads } => {
            let handle = McCache::start(cache_config(
                w,
                threads,
                log.as_ref().map(|d| d.0.as_path()),
            ));
            if log.is_none() {
                sequential(
                    tables,
                    &mut Inproc::new(&handle, 0, w.proto),
                    true,
                    &mut tally,
                );
            }
            Target::Inproc { handle, _log: log }
        }
        Mode::Wire => {
            // Pinned before the spawn, so the child inherits the CPU.
            let pin = cpu::pin(cpu::allowed().last().copied().unwrap_or(0));
            let child = ServerChild::spawn(&ctx.mcached, 1)?;
            let mut conn = Conn::connect(child.addr)?;
            sequential(tables, &mut conn, true, &mut tally);
            Target::Wire {
                child,
                conn,
                _pin: pin,
            }
        }
    };
    Ok((target, start.elapsed().as_secs_f64(), tally))
}

impl Target {
    pub fn counters(&mut self) -> io::Result<Counters> {
        match self {
            Target::Inproc { handle, .. } => Ok(Counters::of_cache(handle)),
            Target::Wire { conn, .. } => Ok(Counters::of_wire(&conn.stats()?)),
        }
    }

    pub fn tm_stats(&self) -> Option<StatsSnapshot> {
        match self {
            Target::Inproc { handle, .. } => Some(handle.tm_stats()),
            Target::Wire { .. } => None,
        }
    }

    /// Waits until the hash table has stopped growing: `hash_expansions`
    /// (bumped when a migration completes) unchanged for 200 ms. The last
    /// expansion starts as the preload ends, and on `ip-nolock` a GET can
    /// miss a key whose bucket is being migrated (README, "Findings"), so
    /// the first GET waits for the migration. Returns the milliseconds
    /// after which the counter last moved.
    pub fn settle(&mut self) -> io::Result<u128> {
        const STILL: Duration = Duration::from_millis(200);
        let start = Instant::now();
        let mut seen = self.counters()?.expansions;
        let mut moved_at = start;
        while moved_at.elapsed() < STILL && start.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(10));
            let now = self.counters()?.expansions;
            if now != seen {
                seen = now;
                moved_at = Instant::now();
            }
        }
        Ok((moved_at - start).as_millis())
    }

    /// `VmRSS` of the serving process, in MB.
    pub fn rss_mb(&self) -> f64 {
        let pid = match self {
            Target::Inproc { .. } => std::process::id(),
            Target::Wire { child, .. } => child.pid(),
        };
        let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
        let kb = status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|l| l.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
        kb.unwrap_or(0.0) / 1024.0
    }

    /// GETs every key once and checks it.
    pub fn sweep(&mut self, w: &Workload, tables: &Tables, tally: &mut Tally) {
        match self {
            Target::Inproc { handle, .. } => {
                sequential(tables, &mut Inproc::new(handle, 0, w.proto), false, tally);
            }
            Target::Wire { conn, .. } => {
                sequential(tables, conn, false, tally);
            }
        }
    }

    /// The timed closed loop: one caller per thread (in-process) or the
    /// one connection (wire). Returns one [`Timed`] per caller.
    pub fn run(&mut self, w: &Workload, tables: &Tables, plan: &Plan) -> Vec<Timed> {
        match self {
            Target::Inproc { handle, .. } => {
                let Mode::Inproc { threads } = w.mode else {
                    unreachable!("in-process target")
                };
                let barrier = Barrier::new(threads);
                let handle = &*handle;
                let cpus = cpu::allowed();
                std::thread::scope(|s| {
                    let callers: Vec<_> = (0..threads)
                        .map(|t| {
                            let (barrier, cpus) = (&barrier, &cpus);
                            s.spawn(move || {
                                let _pin =
                                    (!cpus.is_empty()).then(|| cpu::pin(cpus[t % cpus.len()]));
                                let mut stream = tables.stream(t, threads, 0);
                                let mut transport = Inproc::new(handle, t, w.proto);
                                barrier.wait();
                                // 1 in 16 requests is timed: a clock pair
                                // costs a tenth of an in-process request.
                                run_timed(plan, 16, tables, &mut stream, &mut transport)
                            })
                        })
                        .collect();
                    callers
                        .into_iter()
                        .map(|c| c.join().expect("caller thread panicked"))
                        .collect()
                })
            }
            Target::Wire { conn, .. } => {
                vec![run_timed(
                    plan,
                    1,
                    tables,
                    &mut tables.stream(0, 1, 0),
                    conn,
                )]
            }
        }
    }

    /// Stops the target. Returns the server-side error count that only
    /// shows at shutdown (the child's exit report).
    pub fn tear_down(self) -> io::Result<u64> {
        match self {
            // Dropping the handle stops and joins the maintenance threads.
            Target::Inproc { .. } => Ok(0),
            Target::Wire { child, conn, .. } => {
                drop(conn);
                let report = child.shutdown()?;
                Ok(["frame_errors", "request_panics", "log_write_errors"]
                    .iter()
                    .filter_map(|f| report_field(&report, f))
                    .sum())
            }
        }
    }
}
