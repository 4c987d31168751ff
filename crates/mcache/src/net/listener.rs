//! The worker loop: sharded accept plus connection service, driven by
//! one readiness source per worker.
//!
//! Each worker owns one [`Poller`] holding its listener clones, the
//! shared UDP socket, and every connection it accepted — readiness
//! wakes exactly the owning worker, idle workers sleep in the poller's
//! `wait`, and write interest is armed only while a connection owes
//! response bytes. The loop is the same whichever poller the platform
//! provides ([`event::DefaultPoller`](super::event::DefaultPoller)):
//! it only ever assumes that a reported token *may* be ready and
//! drains to `WouldBlock`.

use std::net::{TcpListener, UdpSocket};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use super::conn::{Connection, Stream, READ_CHUNK};
use super::event::{fd_of, Poller, RawFd};
use super::udp::{pump_udp, RECV_BUF};
use super::Shared;

/// Datagrams drained from the shared UDP socket per service round, so
/// one UDP burst cannot starve the stream connections.
const UDP_BATCH: usize = 64;

/// How long `accept` stands down after the process runs out of file
/// descriptors (EMFILE/ENFILE). Without the pause, a full fd table
/// turns the accept loop into a hot error spin: the listener stays
/// readable because the queue never drains.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(50);

/// Base wait timeout: long enough that an idle worker burns ~10
/// wakeups a second (the shutdown-flag poll), short enough that
/// shutdown and reaper sweeps stay responsive.
const BASE_WAIT_MS: i32 = 100;

/// Registration tokens. Connection slots use their index directly; the
/// non-connection sockets sit at the top of the token space, acceptor
/// `i` at `TOKEN_ACCEPT - i`.
const TOKEN_UDP: u64 = u64::MAX;
const TOKEN_ACCEPT: u64 = u64::MAX - 1;
const MAX_ACCEPTORS: u64 = 2;

/// A listening stream socket: TCP or Unix-domain, the accept-side twin
/// of [`Stream`].
pub(crate) enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

impl Listener {
    /// Accepts one connection, nonblocking and (for TCP) with Nagle off.
    fn accept(&self) -> std::io::Result<Stream> {
        match self {
            Listener::Tcp(l) => {
                let (s, _peer) = l.accept()?;
                s.set_nonblocking(true)?;
                let _ = s.set_nodelay(true);
                Ok(Stream::Tcp(s))
            }
            #[cfg(unix)]
            Listener::Unix(l) => {
                let (s, _peer) = l.accept()?;
                s.set_nonblocking(true)?;
                Ok(Stream::Unix(s))
            }
        }
    }

    fn raw_fd(&self) -> RawFd {
        match self {
            Listener::Tcp(l) => fd_of(l),
            #[cfg(unix)]
            Listener::Unix(l) => fd_of(l),
        }
    }
}

/// One listener plus its accept state: the edge-carry flag and the
/// fd-exhaustion backoff window.
struct Acceptor {
    listener: Listener,
    /// The accept queue may hold connections no future edge will
    /// announce: a readiness edge arrived, or a backoff cut the last
    /// drain short.
    owed: bool,
    backoff_until: Option<Instant>,
}

impl Acceptor {
    /// Drains the accept queue to `WouldBlock`. An accept error is
    /// counted and ends the drain; fd exhaustion (EMFILE 24 / ENFILE
    /// 23) additionally arms the backoff, because that queue will NOT
    /// drain by itself — the worker keeps serving existing connections
    /// and retries after the pause, by which time the reaper or
    /// departing clients may have freed descriptors.
    fn drain(&mut self, shared: &Shared) -> Vec<Stream> {
        let mut out = Vec::new();
        loop {
            match self.listener.accept() {
                Ok(s) => out.push(s),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) => {
                    shared.stats.accept_errors.fetch_add(1, Ordering::Relaxed);
                    if matches!(e.raw_os_error(), Some(23) | Some(24)) {
                        self.backoff_until = Some(Instant::now() + ACCEPT_BACKOFF);
                    }
                    break;
                }
            }
        }
        // Backoff armed mid-drain: retry after the pause.
        self.owed = self.backoff_until.is_some();
        out
    }
}

/// Reaper sweep cadence for a given timeout: often enough that a
/// connection overstays by at most ~25%, never more than 10Hz.
fn sweep_interval(idle_timeout_ms: u64) -> Duration {
    Duration::from_millis((idle_timeout_ms / 4).clamp(10, 100))
}

/// One network worker. All cache traffic from this thread uses worker
/// slot `w`, keeping STM descriptors, stat shards and slab magazines
/// thread-private.
pub(crate) struct Worker<P: Poller> {
    shared: Arc<Shared>,
    w: usize,
    poller: P,
    acceptors: Vec<Acceptor>,
    udp: Option<UdpSocket>,
    /// Connection slots; the poller token IS the slot index, so a
    /// readiness event routes straight to its connection.
    slots: Vec<Option<Connection>>,
    free: Vec<usize>,
    /// Slots owed a pump that no readiness edge will announce (capped
    /// reads, budget-capped dispatch, swallow tails). While non-empty,
    /// the wait timeout is zero.
    hot: Vec<usize>,
    /// Receive scratch, allocated once and lent to every pump: a stream
    /// reads [`READ_CHUNK`] bytes at a time into it, the UDP pump one
    /// whole datagram.
    scratch: Box<[u8]>,
}

const _: () = assert!(READ_CHUNK <= RECV_BUF);

impl<P: Poller> Worker<P> {
    /// Registers the worker's sockets with its poller. Runs on the
    /// starting thread, so a registration failure fails
    /// [`Server::start`](super::Server::start) instead of a worker.
    pub(crate) fn new(
        shared: Arc<Shared>,
        w: usize,
        mut poller: P,
        listeners: Vec<Listener>,
        udp: Option<UdpSocket>,
    ) -> std::io::Result<Worker<P>> {
        assert!(listeners.len() as u64 <= MAX_ACCEPTORS);
        let mut acceptors = Vec::with_capacity(listeners.len());
        for (i, listener) in listeners.into_iter().enumerate() {
            poller.add(listener.raw_fd(), TOKEN_ACCEPT - i as u64, false)?;
            acceptors.push(Acceptor {
                listener,
                owed: false,
                backoff_until: None,
            });
        }
        if let Some(us) = &udp {
            poller.add(fd_of(us), TOKEN_UDP, false)?;
        }
        Ok(Worker {
            shared,
            w,
            poller,
            acceptors,
            udp,
            slots: Vec::new(),
            free: Vec::new(),
            hot: Vec::new(),
            scratch: vec![0u8; RECV_BUF].into_boxed_slice(),
        })
    }

    fn push_hot(&mut self, slot: usize) {
        if let Some(c) = self.slots[slot].as_mut() {
            if !c.hot {
                c.hot = true;
                self.hot.push(slot);
            }
        }
    }

    /// Pumps one slot and applies the verdict: close, EPOLLOUT
    /// arm/disarm, or hot-list re-queue.
    fn pump_slot(&mut self, slot: usize) {
        let Some(c) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
            return; // closed earlier in this same event batch
        };
        let p = c.pump(&self.shared.cache, self.w, &self.shared, &mut self.scratch);
        if !p.keep {
            self.close_slot(slot);
            return;
        }
        let c = self.slots[slot].as_mut().expect("kept connection");
        // The EPOLLOUT arm/disarm protocol: write interest exists
        // exactly while response bytes are pending, so a writable
        // idle socket never wakes the worker, and a parked
        // (backpressured) connection is guaranteed its wakeup —
        // parking implies the last write hit WouldBlock.
        let want_out = c.pending_out() > 0;
        if want_out != c.epollout_armed {
            let fd = c.raw_fd();
            if self.poller.modify(fd, slot as u64, want_out).is_ok() {
                c.epollout_armed = want_out;
            }
        }
        if p.repump {
            self.push_hot(slot);
        }
    }

    fn close_slot(&mut self, slot: usize) {
        if let Some(c) = self.slots[slot].take() {
            self.poller.delete(c.raw_fd(), slot as u64);
            self.shared
                .stats
                .curr_connections
                .fetch_sub(1, Ordering::Relaxed);
            self.free.push(slot);
        }
    }

    /// Registers an accepted stream and gives it its first pump —
    /// bytes may already be waiting (and the first pump is what
    /// makes an accept-then-talk client's latency independent of
    /// the next readiness edge).
    fn adopt(&mut self, stream: Stream) {
        let conn = Connection::new(stream);
        let fd = conn.raw_fd();
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s] = Some(conn);
                s
            }
            None => {
                self.slots.push(Some(conn));
                self.slots.len() - 1
            }
        };
        if self.poller.add(fd, slot as u64, false).is_err() {
            // Registration failed (fd pressure): drop the client.
            self.slots[slot] = None;
            self.free.push(slot);
            self.shared
                .stats
                .accept_errors
                .fetch_add(1, Ordering::Relaxed);
            return;
        }
        self.shared
            .stats
            .curr_connections
            .fetch_add(1, Ordering::Relaxed);
        self.shared
            .stats
            .total_connections
            .fetch_add(1, Ordering::Relaxed);
        self.pump_slot(slot);
    }

    /// Idle-connection reaper sweep: close connections with no traffic
    /// for the configured window, so slow-loris partial frames cannot
    /// pin connection slots forever.
    fn reap(&mut self) {
        let cutoff = Duration::from_millis(self.shared.cfg.idle_timeout_ms);
        for slot in 0..self.slots.len() {
            let expired = self.slots[slot]
                .as_ref()
                .is_some_and(|c| c.last_activity.elapsed() >= cutoff);
            if expired {
                self.shared
                    .stats
                    .conn_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                self.close_slot(slot);
            }
        }
    }

    /// The readiness-driven worker loop; returns at shutdown.
    pub(crate) fn run(mut self) {
        let mut ready: Vec<u64> = Vec::new();
        // Edge-carry flag: a capped UDP drain must re-run without a
        // fresh kernel edge.
        let mut udp_pending = false;
        let idle_timeout_ms = self.shared.cfg.idle_timeout_ms;
        let mut last_sweep = Instant::now();

        while !self.shared.shutdown.load(Ordering::SeqCst) {
            // Wait: zero when carried work is owed, else bounded by the
            // shutdown poll, the reaper cadence, and any accept backoff.
            let mut timeout = BASE_WAIT_MS;
            if idle_timeout_ms > 0 {
                timeout = timeout.min(sweep_interval(idle_timeout_ms).as_millis() as i32);
            }
            for t in self.acceptors.iter().filter_map(|a| a.backoff_until) {
                let ms = t.saturating_duration_since(Instant::now()).as_millis() as i32;
                timeout = timeout.min(ms.max(1));
            }
            if !self.hot.is_empty() || udp_pending {
                timeout = 0;
            }
            ready.clear();
            if self.poller.wait(&mut ready, timeout).is_err() {
                // Transient wait failure: breathe, retry. (EINTR is
                // already absorbed by the poller.)
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }

            // Phase 1: last round's carried work. Taken first so a slot
            // that also shows up in this batch's events is pumped with
            // its flag already cleared (the event pump is then a no-op
            // WouldBlock read, not double work).
            for slot in std::mem::take(&mut self.hot) {
                let owed = self.slots[slot].as_mut().is_some_and(|c| {
                    let was = c.hot;
                    c.hot = false;
                    was
                });
                if owed {
                    self.pump_slot(slot);
                }
            }

            // Phase 2: readiness events. Accept edges are deferred to
            // phase 3 so a slot freed here is safe to reuse there —
            // every stale same-batch event has been skipped by then.
            for &token in &ready {
                match token {
                    TOKEN_UDP => udp_pending = true,
                    t if t > TOKEN_ACCEPT - MAX_ACCEPTORS => {
                        self.acceptors[(TOKEN_ACCEPT - t) as usize].owed = true;
                    }
                    slot => self.pump_slot(slot as usize),
                }
            }

            // Phase 3: accepts and the shared UDP socket. An expired
            // backoff clears here and its owed drain runs at once.
            let now = Instant::now();
            for i in 0..self.acceptors.len() {
                let a = &mut self.acceptors[i];
                if a.backoff_until.is_some_and(|t| now >= t) {
                    a.backoff_until = None;
                }
                if a.owed && a.backoff_until.is_none() {
                    for s in a.drain(&self.shared) {
                        self.adopt(s);
                    }
                }
            }
            if let (true, Some(us)) = (udp_pending, &self.udp) {
                udp_pending = !pump_udp(
                    us,
                    &self.shared.cache,
                    self.w,
                    &self.shared,
                    UDP_BATCH,
                    &mut self.scratch,
                );
            }

            // Phase 4: reaper.
            if idle_timeout_ms > 0 && last_sweep.elapsed() >= sweep_interval(idle_timeout_ms) {
                last_sweep = Instant::now();
                self.reap();
            }
        }
        // Shutdown closes whatever is still connected.
        for slot in 0..self.slots.len() {
            self.close_slot(slot);
        }
    }
}
