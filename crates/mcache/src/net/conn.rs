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
use crate::proto::{self, binary, FrameScan};

use super::event::{fd_of, RawFd};
use super::Shared;

/// Upper bound on bytes a single pump ingests before dispatching, so
/// one fire-hosing client cannot grow its buffer unboundedly between
/// dispatches.
const MAX_READS_PER_PUMP: usize = 16;

/// Upper bound on frames per coalesced run. Runs normally end at the
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
        let mut chunk = vec![0u8; shared.cfg.read_chunk];
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
    fn dispatch(&mut self, cache: &McCache, w: usize, shared: &Shared) -> bool {
        if self.swallow > 0 {
            let n = self.swallow.min(self.rbuf.len());
            self.rbuf.drain(..n);
            self.swallow -= n;
            if self.swallow > 0 {
                return false;
            }
        }
        if self.rbuf.is_empty() {
            return false;
        }
        let outcome = run_frames(cache, w, shared, &self.rbuf);
        self.wbuf.extend_from_slice(&outcome.out);
        self.rbuf.drain(..outcome.consumed);
        self.swallow = outcome.swallow;
        if outcome.close {
            self.close_after_flush = true;
        }
        outcome.more && !outcome.close
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

/// Scans `buf` frame by frame and executes coalesced runs: consecutive
/// ASCII frames via [`proto::execute_ascii_run`] (consecutive stores →
/// one batched transaction), consecutive binary frames via
/// [`binary::execute_pipeline`] (GETQ/GETKQ and SETQ runs batch). The
/// batch boundary is exactly the bytes the client's burst put in the
/// buffer. Shared by the stream transports (via [`Connection`]) and the
/// UDP endpoint (one datagram payload = one run).
pub(crate) fn run_frames(cache: &McCache, w: usize, shared: &Shared, buf: &[u8]) -> DispatchOutcome {
    let mut out = Vec::new();
    let mut consumed = 0;
    let mut swallow = 0;
    let mut close = false;
    let mut more = false;
    let mut ascii_run: Vec<&[u8]> = Vec::new();
    let mut bin_run: Vec<binary::Request> = Vec::new();

    // Flushes whichever run is pending (at most one is non-empty).
    macro_rules! flush_runs {
        () => {
            if !ascii_run.is_empty() {
                out.extend_from_slice(&proto::execute_ascii_run(cache, w, &ascii_run));
                ascii_run.clear();
            }
            if !bin_run.is_empty() {
                for r in binary::execute_pipeline(cache, w, &bin_run) {
                    out.extend_from_slice(&r.encode());
                }
                bin_run.clear();
            }
        };
    }

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
        if ascii_run.len() >= MAX_FRAMES_PER_RUN || bin_run.len() >= MAX_FRAMES_PER_RUN {
            flush_runs!();
            continue;
        }
        match proto::scan_frame(&buf[consumed..]) {
            FrameScan::Incomplete => break,
            FrameScan::Ascii { len } => {
                let frame = &buf[consumed..consumed + len];
                consumed += len;
                // Connection-level commands the protocol layer cannot
                // answer alone: `quit`, and `stats`, which also reports
                // this layer's counters.
                if frame == b"quit\r\n" {
                    flush_runs!();
                    close = true;
                    break;
                }
                if frame == b"stats\r\n" {
                    flush_runs!();
                    let net = shared.stats.snapshot().stat_pairs();
                    out.extend_from_slice(&proto::execute_ascii_ext(cache, w, frame, &net));
                    continue;
                }
                if !bin_run.is_empty() {
                    flush_runs!();
                }
                ascii_run.push(frame);
            }
            FrameScan::Binary { len } => {
                let frame = &buf[consumed..consumed + len];
                consumed += len;
                if !ascii_run.is_empty() {
                    flush_runs!();
                }
                match binary::parse_frame(frame) {
                    Ok(req) if req.opcode == binary::Opcode::Stat => {
                        flush_runs!();
                        let net = shared.stats.snapshot().stat_pairs();
                        for r in binary::stat_responses(cache, &req, &net) {
                            out.extend_from_slice(&r.encode());
                        }
                    }
                    Ok(req) => bin_run.push(req),
                    Err(resp) => {
                        // Answer in order, then keep going: a bad frame
                        // is delimited, the connection stays synced.
                        flush_runs!();
                        shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                        out.extend_from_slice(&resp);
                    }
                }
            }
            FrameScan::Error {
                consumed: c,
                swallow: s,
                close: cl,
                response,
            } => {
                flush_runs!();
                shared.stats.frame_errors.fetch_add(1, Ordering::Relaxed);
                out.extend_from_slice(&response);
                consumed += c;
                swallow = s;
                close = cl;
                // Bytes may remain past the swallow region; with no
                // further reads guaranteed, the caller re-runs once the
                // swallow drains. A spurious re-run costs one
                // `scan_frame` returning `Incomplete`.
                more = !cl && swallow == 0 && consumed < buf.len();
                break;
            }
        }
    }
    flush_runs!();
    DispatchOutcome {
        out,
        consumed,
        swallow,
        close,
        more,
    }
}
