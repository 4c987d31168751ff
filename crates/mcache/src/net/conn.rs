//! Per-connection state machine: buffer management, incremental frame
//! scanning, and coalesced dispatch into the protocol layer.
//!
//! The same state machine serves TCP and Unix-domain streams (the
//! [`Stream`] enum). The worker loop pumps on readiness edges and uses
//! the [`Pump::repump`] signal to keep draining work that a single
//! pump capped (edge-triggered epoll only re-notifies on new bytes, so
//! capped work must be carried by the worker, not the kernel).

use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::sync::atomic::Ordering;
use std::time::Instant;

use crate::cache::McCache;
use crate::proto::{self, FrameScan};

use super::event::{fd_of, RawFd};
use super::Shared;

/// Bytes per `read(2)` into a connection buffer.
const READ_CHUNK: usize = 16 << 10;

/// Upper bound on bytes a single pump ingests before dispatching, so
/// one fire-hosing client cannot grow its buffer unboundedly between
/// dispatches.
const MAX_READS_PER_PUMP: usize = 16;

/// Upper bound on frames per run buffer. Runs normally end at the
/// client's real burst boundary; this cap only bites on degenerate
/// bursts, keeping one run's responses (and one batched transaction)
/// bounded so the dispatch output budget is checked at least this
/// often.
const MAX_FRAMES_PER_RUN: usize = 64;

/// A connected byte stream: TCP or Unix-domain. Both are nonblocking
/// and drive the identical frame scanner and dispatcher.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }

    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    /// The raw fd, for poller registration.
    fn raw_fd(&self) -> RawFd {
        match self {
            Stream::Tcp(s) => fd_of(s),
            #[cfg(unix)]
            Stream::Unix(s) => fd_of(s),
        }
    }
}

/// What one pump did and what the worker owes the connection next.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Pump {
    /// Keep the connection registered (false = close it now).
    pub(crate) keep: bool,
    /// Work remains that no readiness edge will announce: the read cap
    /// stopped short of `WouldBlock`, or dispatch hit its output budget
    /// with complete frames still buffered. The worker must pump again
    /// without waiting.
    pub(crate) repump: bool,
}

impl Pump {
    const CLOSED: Pump = Pump { keep: false, repump: false };
}

pub(crate) struct Connection {
    stream: Stream,
    /// Unconsumed request bytes; the head is always a frame boundary
    /// (or the inside of a swallowed block, tracked by `swallow`).
    rbuf: Vec<u8>,
    /// Pending response bytes from `wpos` on.
    wbuf: Vec<u8>,
    wpos: usize,
    /// Bytes still to discard as they arrive (an oversized data block).
    swallow: usize,
    /// Close once `wbuf` drains (after `quit` or an unsyncable error).
    close_after_flush: bool,
    /// Last moment any bytes moved on this connection — the idle
    /// reaper's clock.
    pub(crate) last_activity: Instant,
    /// Whether this connection is currently registered with `EPOLLOUT`
    /// armed (tracked here so the worker issues `epoll_ctl` only on
    /// arm/disarm edges, not every pump).
    pub(crate) epollout_armed: bool,
    /// Whether this connection sits in the worker's hot (repump) list,
    /// so the list stays duplicate-free.
    pub(crate) hot: bool,
}

impl Connection {
    pub(crate) fn new(stream: Stream) -> Connection {
        Connection {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            swallow: 0,
            close_after_flush: false,
            last_activity: Instant::now(),
            epollout_armed: false,
            hot: false,
        }
    }

    /// The raw fd, for poller registration.
    pub(crate) fn raw_fd(&self) -> RawFd {
        self.stream.raw_fd()
    }

    /// Response bytes still owed to the peer — EPOLLOUT wants arming
    /// while this is nonzero.
    pub(crate) fn pending_out(&self) -> usize {
        self.wbuf.len() - self.wpos
    }

    /// One pump round: flush pending writes, drain the socket, dispatch
    /// every complete frame, flush again. See [`Pump`] for what the
    /// worker does with the result.
    pub(crate) fn pump(&mut self, cache: &McCache, w: usize, shared: &Shared) -> Pump {
        let mut busy = false;
        if !self.flush(shared, &mut busy) {
            return Pump::CLOSED;
        }
        // Backpressure: a client that pipelines requests but does not
        // drain responses parks here — no reads, no dispatch — until
        // its backlog flushes below the high-water mark, so `wbuf`
        // cannot grow without bound (memcached's conn state machine
        // does the same by leaving conn_mwrite until the buffer
        // drains). Parking is edge-safe: parked implies the last write
        // hit `WouldBlock`, so an EPOLLOUT edge is guaranteed and the
        // next pump starts with the flush above.
        if self.pending_out() >= shared.cfg.wbuf_high_water.max(1) {
            shared
                .stats
                .backpressure_stalls
                .fetch_add(1, Ordering::Relaxed);
            if busy {
                self.last_activity = Instant::now();
            }
            return Pump { keep: true, repump: false };
        }
        let mut chunk = vec![0u8; READ_CHUNK];
        let mut peer_closed = false;
        let mut hit_read_cap = true;
        for _ in 0..MAX_READS_PER_PUMP {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    peer_closed = true;
                    hit_read_cap = false;
                    break;
                }
                Ok(n) => {
                    busy = true;
                    shared.stats.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                    self.rbuf.extend_from_slice(&chunk[..n]);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    hit_read_cap = false;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return Pump::CLOSED,
            }
        }
        let more_frames = self.dispatch(cache, w, shared);
        if !self.flush(shared, &mut busy) {
            return Pump::CLOSED;
        }
        if busy {
            self.last_activity = Instant::now();
        }
        if peer_closed {
            // Whatever could be answered was; a half-open client gets
            // the remaining responses dropped with the connection, as
            // memcached does.
            return Pump::CLOSED;
        }
        if self.close_after_flush && self.wpos == self.wbuf.len() {
            return Pump::CLOSED;
        }
        Pump {
            keep: true,
            // The read cap stopping short of `WouldBlock` means bytes
            // may still sit in the socket buffer with no future edge to
            // announce them; budget-capped dispatch leaves complete
            // frames in `rbuf` the same way.
            repump: hit_read_cap || more_frames,
        }
    }

    /// Nonblocking write of the pending response bytes. Returns `false`
    /// when the connection died.
    fn flush(&mut self, shared: &Shared, busy: &mut bool) -> bool {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    *busy = true;
                    self.wpos += n;
                    shared.stats.bytes_written.fetch_add(n as u64, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        true
    }

    /// Executes every complete frame at the head of `rbuf`. Returns
    /// whether complete frames may remain buffered (the dispatch output
    /// budget stopped the run early).
    ///
    /// A swallow ends a run, not the dispatch: the frames already buffered
    /// behind a wholly buffered oversized block run now, since no readiness
    /// edge would announce them. Each extra round consumes a whole block of
    /// more than [`proto::ASCII_VALUE_MAX`] bytes, so the rounds are bounded
    /// by what one pump reads.
    fn dispatch(&mut self, cache: &McCache, w: usize, shared: &Shared) -> bool {
        loop {
            let n = self.swallow.min(self.rbuf.len());
            self.rbuf.drain(..n);
            self.swallow -= n;
            if self.swallow > 0 || self.rbuf.is_empty() {
                return false;
            }
            let outcome = run_frames(cache, w, shared, &self.rbuf);
            self.wbuf.extend_from_slice(&outcome.out);
            self.rbuf.drain(..outcome.consumed);
            self.swallow = outcome.swallow;
            if outcome.close {
                self.close_after_flush = true;
                return false;
            }
            if outcome.swallow == 0 {
                return outcome.more;
            }
        }
    }
}

pub(crate) struct DispatchOutcome {
    pub(crate) out: Vec<u8>,
    pub(crate) consumed: usize,
    pub(crate) swallow: usize,
    pub(crate) close: bool,
    /// The run stopped on its output budget with bytes (possibly whole
    /// frames) left unconsumed — the caller must run again without
    /// waiting for more input.
    pub(crate) more: bool,
}

/// Scans `buf` frame by frame and executes what it holds through the one
/// request pipeline: every frame, ASCII or binary, is decoded in place
/// into one run buffer ([`proto::decode`]), which [`proto::run`] executes
/// when it is full, before a frame error is answered, and at the end — so
/// its runs are exactly the client's burst. `stats` reports this layer's
/// counters after the cache's; `quit` closes. Shared by the stream
/// transports (via [`Connection`]) and the UDP endpoint (one datagram
/// payload = one run).
pub(crate) fn run_frames(cache: &McCache, w: usize, shared: &Shared, buf: &[u8]) -> DispatchOutcome {
    let mut out = Vec::new();
    let (mut consumed, mut swallow, mut close, mut more) = (0, 0, false, false);
    let (mut reqs, mut keys) = (Vec::new(), Vec::new());
    let flush = |reqs: &mut Vec<_>, keys: &mut Vec<_>, out: &mut Vec<u8>| {
        proto::run(cache, w, reqs, keys, &shared.stats.snapshot().stat_pairs(), out);
        reqs.clear();
        keys.clear();
    };

    // One dispatch may produce at most a high-water mark's worth of
    // responses (plus one run): past that the remaining frames stay
    // buffered for later pumps, where the backpressure gate decides
    // whether they run. Without this, the frames already ingested into
    // `rbuf` could amplify into an arbitrarily large `out` in a single
    // dispatch — budget-checking only future reads would not bound it.
    let out_budget = shared.cfg.wbuf_high_water.max(1);
    loop {
        if out.len() >= out_budget {
            more = consumed < buf.len();
            break;
        }
        if reqs.len() >= MAX_FRAMES_PER_RUN {
            flush(&mut reqs, &mut keys, &mut out);
            continue;
        }
        match proto::decode(&buf[consumed..], &mut keys) {
            Ok((len, req)) => {
                consumed += len;
                close = req.closes();
                reqs.push(req);
                if close {
                    break;
                }
            }
            Err(FrameScan::Error {
                consumed: c,
                swallow: s,
                close: cl,
                response,
            }) => {
                // Answer in order. A bad frame that is delimited leaves
                // the stream in sync; a swallow or a close ends the run.
                flush(&mut reqs, &mut keys, &mut out);
                shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                out.extend_from_slice(&response);
                consumed += c;
                if cl || s > 0 {
                    (swallow, close) = (s, cl);
                    break;
                }
            }
            Err(_incomplete) => break,
        }
    }
    flush(&mut reqs, &mut keys, &mut out);
    DispatchOutcome {
        out,
        consumed,
        swallow,
        close,
        more,
    }
}

#[cfg(all(test, unix))]
mod tests {
    //! The dispatcher fed the way a worker feeds it: seeded pipelines of
    //! mixed ASCII and binary frames, cut at seeded points into reads,
    //! through the real [`Connection::dispatch`].

    use std::cell::RefCell;
    use std::os::unix::net::UnixStream;
    use std::sync::atomic::AtomicBool;

    use testkit::prop::{self, CaseResult};
    use testkit::rng::{Rng, SmallRng};

    use super::*;
    use crate::cache::{McConfig, McHandle};
    use crate::net::{NetConfig, NetStats};
    use crate::policy::{Branch, Stage};

    fn cache(branch: Branch, magazine: usize) -> McHandle {
        McCache::start(McConfig {
            branch,
            magazine,
            workers: 1,
            hash_power: 8,
            hash_power_max: 10,
            item_lock_power: 4,
            maintenance: false,
            slab: crate::SlabConfig {
                mem_limit: 4 << 20,
                page_size: 64 << 10,
                chunk_min: 96,
                growth_factor: 1.5,
            },
            ..Default::default()
        })
    }

    /// The configurations the fingerprints pin: a lock branch and a
    /// privatizing one (where `get_multi`/`store_batch` run per request),
    /// and a transactional one with magazines, where a run is one
    /// transaction and `stats` shows it.
    fn caches() -> [McHandle; 3] {
        [
            cache(Branch::Baseline, 0),
            cache(Branch::Ip(Stage::OnCommit), 0),
            cache(Branch::It(Stage::OnCommit), 16),
        ]
    }

    /// Every response byte one connection sends for `wire` arriving in
    /// the pieces `cuts` leave (each cut taken modulo the length): each
    /// piece is one read, dispatched until no complete frame is left, and
    /// a close ends the stream.
    fn transcript(cache: &McHandle, wire: &[u8], cuts: &[u32]) -> Vec<u8> {
        let shared = Shared {
            cache: cache.cache().clone(),
            stats: NetStats::default(),
            shutdown: AtomicBool::new(false),
            cfg: NetConfig::default(),
        };
        let (sock, _peer) = UnixStream::pair().expect("socket pair");
        let mut conn = Connection::new(Stream::Unix(sock));
        let mut ends: Vec<usize> = cuts.iter().map(|&c| c as usize % (wire.len() + 1)).collect();
        ends.push(wire.len());
        ends.sort_unstable();
        let mut from = 0;
        for to in ends {
            conn.rbuf.extend_from_slice(&wire[from..to]);
            from = to;
            while conn.dispatch(cache, 0, &shared) {}
            if conn.close_after_flush {
                break;
            }
        }
        std::mem::take(&mut conn.wbuf)
    }

    /// Frames that arrive in the same read as a whole oversized block are
    /// answered by that read's dispatch, not left for the client's next
    /// bytes (which, under edge-triggered epoll, may never come).
    #[test]
    fn frames_behind_a_buffered_swallow_run_in_the_same_dispatch() {
        let c = cache(Branch::Baseline, 0);
        c.set(0, b"k", b"v", 0, 0);
        let n = crate::proto::ASCII_VALUE_MAX + 1;
        let mut wire = format!("set big 0 0 {n}\r\n").into_bytes();
        wire.resize(wire.len() + n, b'x');
        wire.extend_from_slice(b"\r\nget k\r\n");
        let out = transcript(&c, &wire, &[]);
        assert_eq!(
            String::from_utf8_lossy(&out),
            "SERVER_ERROR object too large for cache\r\nVALUE k 0 1\r\nv\r\nEND\r\n"
        );
    }

    fn fnv1a(h: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *h = (*h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Keys the pipelines draw from: few, so commands meet.
    const KEYS: [&[u8]; 5] = [b"a", b"b", b"n", b"key-3", b"k4"];

    fn key(rng: &mut SmallRng) -> &'static [u8] {
        KEYS[rng.gen_range(0..KEYS.len())]
    }

    fn text(rng: &mut SmallRng) -> String {
        String::from_utf8_lossy(key(rng)).into_owned()
    }

    /// A value: decimal half the time (so `incr` finds numbers), any bytes
    /// otherwise.
    fn value(rng: &mut SmallRng) -> Vec<u8> {
        if rng.gen_bool(0.5) {
            return rng.gen_range(0..1000u32).to_string().into_bytes();
        }
        let mut v = vec![0; rng.gen_range(0..12)];
        rng.fill_bytes(&mut v);
        v
    }

    fn pick<T: Copy>(rng: &mut SmallRng, from: &[T]) -> T {
        from[rng.gen_range(0..from.len())]
    }

    fn noreply(rng: &mut SmallRng) -> &'static str {
        if rng.gen_bool(0.3) {
            " noreply"
        } else {
            ""
        }
    }

    /// An ASCII storage frame. `set`/`add`/`replace`/`cas` ones are
    /// well formed, so they batch.
    fn ascii_store(cmd: &str, rng: &mut SmallRng) -> Vec<u8> {
        let v = value(rng);
        let (k, flags, exp) = (text(rng), rng.gen_range(0..20u32), pick(rng, &[0, 1, 100_000]));
        let cas = if cmd == "cas" { format!(" {}", rng.gen_range(0..40u32)) } else { String::new() };
        let mut f = format!("{cmd} {k} {flags} {exp} {}{cas}{}\r\n", v.len(), noreply(rng)).into_bytes();
        f.extend_from_slice(&v);
        f.extend_from_slice(b"\r\n");
        f
    }

    /// A hand-assembled binary request: spec header, then extras, key,
    /// value.
    fn bin(op: u8, key: &[u8], extras: &[u8], value: &[u8], rng: &mut SmallRng) -> Vec<u8> {
        let cas = if rng.gen_bool(0.2) { rng.gen_range(1..40u64) } else { 0 };
        let mut f = vec![0x80, op];
        f.extend_from_slice(&(key.len() as u16).to_be_bytes());
        f.extend_from_slice(&[extras.len() as u8, 0, 0, 0]);
        f.extend_from_slice(&((extras.len() + key.len() + value.len()) as u32).to_be_bytes());
        f.extend_from_slice(&rng.next_u32().to_be_bytes());
        f.extend_from_slice(&cas.to_be_bytes());
        f.extend_from_slice(extras);
        f.extend_from_slice(key);
        f.extend_from_slice(value);
        f
    }

    /// A spec store frame: zero flags and exptime, the layout both the
    /// spec and this server's earlier private one read the same way.
    fn bin_store(op: u8, rng: &mut SmallRng) -> Vec<u8> {
        let (k, v) = (key(rng), value(rng));
        bin(op, k, &[0; 8], &v, rng)
    }

    #[derive(Clone, Copy, PartialEq)]
    enum Class {
        Get,
        Store,
        Alone,
    }

    /// One piece of a pipeline: a get-class or store-class run exactly as
    /// the run rule groups it, or one request that runs alone.
    fn piece(rng: &mut SmallRng) -> (Class, Vec<Vec<u8>>) {
        let run = rng.gen_range(1..4);
        match rng.gen_range(0..23) {
            0 | 1 => {
                let keys: Vec<String> = (0..rng.gen_range(1..5)).map(|_| text(rng)).collect();
                let cmd = pick(rng, &["get", "gets"]);
                (Class::Get, vec![format!("{cmd} {}\r\n", keys.join(" ")).into_bytes()])
            }
            2 => (Class::Get, (0..run).map(|_| bin(pick(rng, &[0x09, 0x0d]), key(rng), &[], &[], rng)).collect()),
            3 => (Class::Get, vec![bin(pick(rng, &[0x00, 0x0c]), key(rng), &[], &[], rng)]),
            4 | 5 => {
                let frames = (0..run).map(|_| ascii_store(pick(rng, &["set", "add", "replace", "cas"]), rng));
                (Class::Store, frames.collect())
            }
            6 => (Class::Store, (0..run).map(|_| bin_store(0x11, rng)).collect()),
            7 => (Class::Store, vec![bin_store(pick(rng, &[0x01, 0x02, 0x03]), rng)]),
            n => (Class::Alone, vec![alone(rng, n)]),
        }
    }

    /// A request that never batches: the remaining commands and opcodes,
    /// malformed lines, bad data chunks, unknown opcodes and bad layouts.
    fn alone(rng: &mut SmallRng, n: u32) -> Vec<u8> {
        let long_key = "x".repeat(crate::cache::KEY_MAX + 1);
        let k = text(rng);
        match n {
            8 => ascii_store(pick(rng, &["append", "prepend"]), rng),
            9 => format!("delete {k}{}\r\n", noreply(rng)).into_bytes(),
            10 => {
                let cmd = pick(rng, &["incr", "decr"]);
                format!("{cmd} {k} {}{}\r\n", rng.gen_range(0..100u32), noreply(rng)).into_bytes()
            }
            11 => format!("touch {k} {}{}\r\n", pick(rng, &[0, 1, 100_000]), noreply(rng)).into_bytes(),
            12 if rng.gen_bool(0.3) => format!("flush_all{}\r\n", noreply(rng)).into_bytes(),
            12 | 13 => pick(rng, &[&b"stats\r\n"[..], b"version\r\n"]).to_vec(),
            14 => {
                let lines: [&[u8]; 10] = [
                    b"bogus k\r\n",
                    b"\r\n",
                    b"get\r\n",
                    b"set k a b c\r\n",
                    b"set k 0 0\r\n",
                    b"incr n\r\n",
                    b"incr n x\r\n",
                    b"delete\r\n",
                    b"touch k\r\n",
                    b"cas k 0 0 1\r\nX\r\n",
                ];
                pick(rng, &lines).to_vec()
            }
            15 => match rng.gen_range(0..3) {
                0 => format!("get a {long_key}\r\n").into_bytes(),
                1 => format!("set {long_key} 0 0 1\r\nZ\r\n").into_bytes(),
                _ => format!("delete {long_key}\r\n").into_bytes(),
            },
            // A data block longer than declared: a bad chunk, then what
            // is left of it as a line of its own.
            16 => format!("set {k} 0 0 2\r\nabcd\r\n").into_bytes(),
            17 => bin(pick(rng, &[0x04, 0x14]), key(rng), &[], &[], rng),
            18 => {
                // Delta 0: the one increment the old 8-byte layout and the
                // spec's 20-byte one agree on.
                let mut extras = [0u8; 20];
                extras[8..16].copy_from_slice(&rng.next_u64().to_be_bytes());
                bin(pick(rng, &[0x05, 0x06]), key(rng), &extras, &[], rng)
            }
            19 => bin(pick(rng, &[0x0a, 0x0b]), &[], &[], &[], rng),
            20 => bin(0x10, if rng.gen_bool(0.3) { key(rng) } else { &[] }, &[], &[], rng),
            21 => bin(pick(rng, &[0x07, 0x08, 0x1c, 0x42]), key(rng), &[], &[], rng),
            _ => {
                // Known opcode, key longer than the body.
                let mut f = bin(0x00, b"abc", &[], &[], rng);
                f[2..4].copy_from_slice(&10u16.to_be_bytes());
                f
            }
        }
    }

    /// What may end a pipeline: nothing, `quit`, a torn frame, an
    /// oversized data block (swallowed), or input no frame can resync.
    fn tail(rng: &mut SmallRng, frames: &[Vec<u8>]) -> Option<Vec<u8>> {
        Some(match rng.gen_range(0..10) {
            0 => b"quit\r\n".to_vec(),
            1 => {
                let f = &frames[rng.gen_range(0..frames.len())];
                f[..rng.gen_range(1..f.len().max(2))].to_vec()
            }
            2 => {
                let mut f = format!("set big 0 0 {}\r\n", crate::proto::ASCII_VALUE_MAX + 1).into_bytes();
                f.resize(f.len() + rng.gen_range(0..3000), b'v');
                f
            }
            3 => format!("set big 0 0 {}\r\n", crate::proto::ASCII_SWALLOW_MAX + 1).into_bytes(),
            4 => vec![b'x'; crate::proto::ASCII_LINE_MAX + 2],
            5 => {
                let mut f = bin(0x01, b"big", &[0; 8], &[], rng);
                f[8..12].copy_from_slice(&(crate::proto::BINARY_BODY_MAX as u32 + 1).to_be_bytes());
                f
            }
            _ => return None,
        })
    }

    /// A seeded pipeline and the cut points a socket splits it at.
    /// Frames of a get-class or store-class run are kept apart from the
    /// next run of the same class by a lone request, so every run is the
    /// run the grouping rule of each protocol executor draws; a pipeline
    /// stays under one dispatch's 64-frame cap.
    fn pipeline(rng: &mut SmallRng) -> (Vec<Vec<u8>>, Vec<u32>) {
        let mut frames = Vec::new();
        let mut last = Class::Alone;
        let target = rng.gen_range(4..40);
        while frames.len() < target {
            let (class, piece) = piece(rng);
            if class == last && class != Class::Alone {
                frames.push(if rng.gen_bool(0.5) { b"version\r\n".to_vec() } else { bin(0x0a, &[], &[], &[], rng) });
            }
            last = class;
            frames.extend(piece);
        }
        if let Some(f) = tail(rng, &frames) {
            frames.push(f);
        }
        let cuts = (0..rng.gen_range(0..8)).map(|_| rng.next_u32()).collect();
        (frames, cuts)
    }

    /// `(TESTKIT_SEED, TESTKIT_CASES)` → the FNV-1a of every case's
    /// transcript, per configuration of [`caches`], recorded at commit
    /// 73b91ce, where each protocol had its own executor and
    /// `run_frames` its own run loop, and re-recorded twice since, each
    /// time only because `stats` changed: when it gained its
    /// `orec_lock_waits` pair, and when it lost its `silent_store_elisions`
    /// and `seqlock_bump_elisions` pairs and value-equal stores started
    /// moving its clock counters (with every `STAT` value masked, that
    /// change and its parent gave equal fingerprints on both rows). The
    /// second row is `scripts/verify.sh`'s protocol stage.
    const RECORDED: [(u64, u32, [u64; 3]); 2] = [
        (prop::DEFAULT_SEED, 24, [0xc3a049a69f181962, 0x4bf3862824269520, 0x997b4c2815a6a585]),
        (23, 5000, [0x98e54889f525841d, 0x27be91b1a598bf5a, 0x0683d32db4858b4a]),
    ];

    /// The one pipeline answers every generated pipeline byte for byte as
    /// the two executors it replaced did, on three branches, fed at seeded
    /// split points. The generator leaves out only what changed on
    /// purpose: `quit`/`stats` with trailing tokens (recognised by their
    /// first token now), binary extras off the spec layout or carrying
    /// flags or a delta (the old private layout read those differently),
    /// binary keys the cache cannot hold (refused at decode now, a caught
    /// panic before), a bare CR inside a command line (the old executor
    /// cut the line there), and adjacent runs of one class that the old
    /// executors kept apart ([`runs_keep_their_transaction_shapes`] pins
    /// the regrouping).
    #[test]
    fn transcripts_match_the_recorded_fingerprints() {
        let cfg = prop::Config::from_env().with_cases(24);
        let fingerprints = RefCell::new([FNV_OFFSET; 3]);
        let name = "transcripts_match_the_recorded_fingerprints";
        prop::check(name, cfg, pipeline, |(frames, cuts)| -> CaseResult {
            let wire = frames.concat();
            for (h, cache) in fingerprints.borrow_mut().iter_mut().zip(caches()) {
                let out = transcript(&cache, &wire, cuts);
                testkit::prop_assert_eq!(cache.request_panics(), 0);
                fnv1a(h, &(out.len() as u64).to_le_bytes());
                fnv1a(h, &out);
            }
            Ok(())
        });
        let got = fingerprints.into_inner();
        let recorded = RECORDED.iter().find(|r| (r.0, r.1) == (cfg.seed, cfg.cases));
        match recorded {
            Some(&(.., want)) if cfg.replay.is_none() => assert!(
                got == want,
                "transcripts moved: seed {:#x} x {} cases gave {got:#018x?}, recorded {want:#018x?}",
                cfg.seed,
                cfg.cases
            ),
            // Any other seed checks only what every case asserts.
            _ => eprintln!("unrecorded seed {:#x} x {} cases: {got:#018x?}", cfg.seed, cfg.cases),
        }
    }

    /// One burst, whole, through a fresh `it-oncommit` cache holding
    /// `k0`..`k15`: the transactions it commits and its response bytes.
    fn shape(wire: &[u8]) -> (u64, u64) {
        let c = cache(Branch::It(Stage::OnCommit), 0);
        for i in 0..16 {
            c.set(0, format!("k{i}").as_bytes(), b"v", 0, 0);
        }
        let before = c.tm_stats().commits;
        let out = transcript(&c, wire, &[]);
        let mut h = FNV_OFFSET;
        fnv1a(&mut h, &out);
        (c.tm_stats().commits - before, h)
    }

    fn bursts() -> [(&'static str, Vec<u8>); 7] {
        use crate::proto::binary::{Opcode, Request};
        let req = |opcode, i: usize| {
            let key = if opcode == Opcode::Noop { Vec::new() } else { format!("k{i}").into_bytes() };
            let value = if opcode == Opcode::SetQ || opcode == Opcode::Set { b"w".to_vec() } else { Vec::new() };
            Request { opcode, opaque: i as u32, cas: 0, key, value, extra: 0 }.encode()
        };
        let many = |opcode| (0..16).map(|i| req(opcode, i)).collect::<Vec<_>>().concat();
        let keys: Vec<String> = (0..16).map(|i| format!("k{i}")).collect();
        [
            ("ascii get x16 keys", format!("get {}\r\n", keys.join(" ")).into_bytes()),
            ("ascii set x16", keys.iter().map(|k| format!("set {k} 0 0 1\r\nw\r\n")).collect::<String>().into_bytes()),
            ("getkq x16 + noop", [many(Opcode::GetKQ), req(Opcode::Noop, 99)].concat()),
            ("setq x16 + noop", [many(Opcode::SetQ), req(Opcode::Noop, 99)].concat()),
            ("lone binary get", req(Opcode::Get, 3)),
            ("lone binary set", req(Opcode::Set, 3)),
            ("loud binary get x16", many(Opcode::Get)),
        ]
    }

    /// Transactions committed and response bytes per burst on
    /// `it-oncommit`, recorded at commit 73b91ce. One shape moves on
    /// purpose: sixteen pipelined loud GETs are one get run now and commit
    /// like GETKQ×16 (18 commits at that commit, one run each); their
    /// bytes stay.
    #[test]
    fn runs_keep_their_transaction_shapes() {
        const RECORDED: [(u64, u64); 7] = [
            (3, 0x23c8979819406303),
            (17, 0x657242230e4199a5),
            (3, 0x500695cb4c85d575),
            (17, 0xb2c4c157d972cbcf),
            (2, 0xf34c7b28dfbab360),
            (3, 0xbb6e00c0bbe670d2),
            (3, 0x82261ae99bff6195),
        ];
        let got: Vec<(u64, u64)> = bursts().iter().map(|(_, wire)| shape(wire)).collect();
        for ((name, _), (got, want)) in bursts().iter().zip(got.iter().zip(RECORDED)) {
            assert_eq!(*got, want, "{name}: (commits, response FNV-1a)");
        }
        assert_eq!(got[6].0, got[2].0, "loud GETs commit like GETKQ");
    }
}
