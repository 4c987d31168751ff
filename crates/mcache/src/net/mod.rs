//! The wire front end: puts the transactionalized cache on the wire.
//!
//! Architecture (DESIGN §12, §16):
//!
//! - **Sharded accept, thread-per-core workers.** The nonblocking
//!   listeners are cloned into every worker thread; each worker
//!   accepts directly off the shared sockets (the kernel load-balances
//!   `accept` across the clones) and owns the connections it accepted
//!   for their whole life. Worker `w` drives the cache exclusively
//!   through worker slot `w`, so the STM's per-worker descriptors,
//!   stats shards and slab magazines all stay thread-private — no
//!   cross-thread handoff anywhere on the request path.
//! - **Readiness-driven service, one loop.** Each worker owns one
//!   poller (`event.rs`): its listener clones, the shared UDP socket,
//!   and its connections are registered edge-triggered, read interest
//!   is permanent, and `EPOLLOUT` is armed only while a connection owes
//!   response bytes (the PR 7 backpressure marks double as the
//!   arm/disarm signal). On Linux the poller is a raw epoll instance:
//!   idle workers sleep in `epoll_wait` — near-zero idle CPU, no
//!   sleep-quantum tail latency, and scale to 10k mostly-idle
//!   connections. Elsewhere the same loop runs over a std-only sweep
//!   poller that reports everything ready after a short nap. The
//!   platform picks; there is no option.
//! - **Three transports, one state machine.** TCP and Unix-domain
//!   streams share `conn::Connection` verbatim; the UDP endpoint
//!   (`udp.rs`) frames each datagram with memcached's 8-byte UDP
//!   header and runs its payload through the same coalesced frame
//!   dispatcher, fanning responses out as sequenced datagrams.
//! - **Incremental framing, one pipeline.** Reads land in a
//!   per-connection buffer, and the protocol layer's decoders delimit
//!   and decode each complete frame in place (`proto::decode`, whose
//!   framing [`proto::scan_frame`] exposes), auto-detecting ASCII vs
//!   binary per frame. Partial frames (a `set`
//!   whose data block straddles two socket reads) simply stay buffered;
//!   oversized data blocks are swallowed without buffering.
//! - **Coalescing from the buffer.** Whatever complete frames sit in
//!   the buffer at dispatch time form one run buffer that `proto::run`
//!   executes under one run rule for both protocols:
//!   consecutive gets (ASCII `get`/`gets`, binary GET/GETK/GETQ/GETKQ)
//!   → one read-only multiget transaction, consecutive stores (ASCII
//!   `set`/`add`/`replace`/`cas`, binary SET/SETQ/ADD/REPLACE) → one
//!   batched store. The batch boundary is the client's real burst,
//!   exactly as memcached's `conn` state machine drains what `read(2)`
//!   returned.
//! - **Write-side backpressure.** A connection whose pending response
//!   bytes reach [`NetConfig::wbuf_high_water`] is parked — no reads,
//!   no dispatch — until the backlog flushes below the mark, and a
//!   single dispatch's response output is budgeted by the same mark.
//!   A client that pipelines requests but never reads responses
//!   (small `get`s fanning out to megabyte values) therefore cannot
//!   run the server out of memory; stalls are observable as the
//!   `backpressure_stalls` stat.
//! - **Self-defense.** `accept` hitting fd exhaustion backs off instead
//!   of error-spinning (`accept_errors`), and the optional idle reaper
//!   ([`NetConfig::idle_timeout_ms`]) closes connections with no
//!   traffic so slow-loris partial frames cannot pin connection slots
//!   (`conn_timeouts`).
//!
//! Everything is `std::net` + raw `epoll` syscalls — no async runtime,
//! no external crates — so the server builds offline and hermetic.
//!
//! [`proto::scan_frame`]: crate::proto::scan_frame

mod conn;
mod event;
mod listener;
pub mod udp;

use std::io;
use std::net::{SocketAddr, TcpListener, UdpSocket};
#[cfg(unix)]
use std::os::unix::net::UnixListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::cache::{McCache, McHandle};

/// Configuration for [`Server::start`].
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// Address to bind, e.g. `"127.0.0.1:0"` (port 0 = ephemeral).
    pub addr: String,
    /// Network worker threads. `0` means one per cache worker slot.
    /// Must not exceed [`McCache::worker_slots`] — each worker owns one
    /// slot.
    pub workers: usize,
    /// Backpressure high-water mark: once a connection's pending
    /// response bytes reach this, the worker stops reading (and
    /// answering) that connection until the backlog flushes below it —
    /// a client that pipelines requests without draining responses
    /// cannot grow the write buffer without bound. Per-dispatch
    /// response output is budgeted by the same mark, so the buffer
    /// overshoots it by at most one coalesced run. Stalls are counted
    /// in [`NetSnapshot::backpressure_stalls`]. The same state is the
    /// `EPOLLOUT` arm/disarm signal.
    pub wbuf_high_water: usize,
    /// UDP endpoint (e.g. `"127.0.0.1:0"`); `None` = no UDP transport.
    /// Serves the memcached UDP frame protocol ([`udp`]) on a socket
    /// shared by every worker.
    pub udp_addr: Option<String>,
    /// Unix-domain-socket listener path for co-located clients; `None`
    /// = no Unix transport. A stale socket file at the path is
    /// replaced; the file is removed again at shutdown.
    pub unix_path: Option<PathBuf>,
    /// Idle-connection reaper: close connections with no traffic for
    /// this many milliseconds. `0` (default) disables the reaper.
    /// Timeouts are counted in [`NetSnapshot::conn_timeouts`].
    pub idle_timeout_ms: u64,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            wbuf_high_water: 4 << 20,
            udp_addr: None,
            unix_path: None,
            idle_timeout_ms: 0,
        }
    }
}

crate::stats::counters! {
    /// Server-wide wire counters, updated lock-free by the workers and
    /// reported by `stats` on both protocols after the cache's own.
    struct NetStats(AtomicU64) {
        /// Connections currently open.
        curr_connections,
        /// Connections ever accepted.
        total_connections,
        /// Payload bytes read off sockets.
        bytes_read,
        /// Payload bytes written to sockets.
        bytes_written,
        /// Frames that failed to scan or decode (oversized values,
        /// unknown opcodes, unterminated lines, bad UDP headers, ...).
        frame_errors,
        /// Pump rounds that skipped reading a connection because its
        /// pending responses sat at or above
        /// [`NetConfig::wbuf_high_water`] (a slow- or never-reading
        /// client being held back).
        backpressure_stalls,
        /// `accept` failures — dominated by fd exhaustion
        /// (EMFILE/ENFILE), which additionally pauses the accept loop so
        /// it cannot hot-spin while the table is full.
        accept_errors,
        /// Connections closed by the idle reaper
        /// ([`NetConfig::idle_timeout_ms`]).
        conn_timeouts,
        /// UDP request datagrams received.
        udp_datagrams_rx,
        /// UDP response datagrams sent (a large response counts once per
        /// sequenced datagram).
        udp_datagrams_tx,
    } snapshot NetSnapshot
}

/// State shared by every network worker.
pub(crate) struct Shared {
    pub(crate) cache: Arc<McCache>,
    pub(crate) stats: NetStats,
    pub(crate) shutdown: AtomicBool,
    pub(crate) cfg: NetConfig,
}

/// A running wire server owning the cache it serves.
///
/// Dropping the server (or calling [`Server::shutdown`]) stops the
/// workers, closes every connection, removes the Unix socket file, and
/// then shuts the cache down via its [`McHandle`].
pub struct Server {
    handle: Option<McHandle>,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    local_addr: SocketAddr,
    udp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
}

impl Server {
    /// Binds the configured transports, builds one poller per worker
    /// and registers the worker's sockets with it, then spawns the
    /// worker threads. Any of those steps failing — including a poller
    /// that cannot be created — is an error here; no thread starts.
    ///
    /// # Panics
    /// If `cfg.workers` exceeds the cache's worker slots.
    pub fn start(cache: McHandle, cfg: NetConfig) -> io::Result<Server> {
        Self::start_on(cache, cfg, event::DefaultPoller::new)
    }

    /// [`Server::start`] over an explicit poller constructor, called
    /// once per worker. The unit tests run the loop over each poller
    /// through this.
    fn start_on<P: event::Poller>(
        cache: McHandle,
        cfg: NetConfig,
        new_poller: impl Fn() -> io::Result<P>,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let udp = match &cfg.udp_addr {
            Some(addr) => {
                let sock = UdpSocket::bind(addr)?;
                sock.set_nonblocking(true)?;
                Some(sock)
            }
            None => None,
        };
        let udp_addr = udp.as_ref().map(|s| s.local_addr()).transpose()?;
        #[cfg(unix)]
        let unix = match &cfg.unix_path {
            Some(path) => {
                // A stale socket file from a crashed run blocks bind;
                // replace it. (A *live* server's file is a user error —
                // they race on the same path either way.)
                let _ = std::fs::remove_file(path);
                let l = UnixListener::bind(path)?;
                l.set_nonblocking(true)?;
                Some(l)
            }
            None => None,
        };
        #[cfg(not(unix))]
        if cfg.unix_path.is_some() {
            return Err(io::Error::new(
                io::ErrorKind::Unsupported,
                "unix-domain sockets need a unix platform",
            ));
        }
        let unix_path = cfg.unix_path.clone();
        let workers = if cfg.workers == 0 {
            cache.worker_slots()
        } else {
            cfg.workers
        };
        assert!(
            workers >= 1 && workers <= cache.worker_slots(),
            "net workers ({workers}) must fit the cache's worker slots ({})",
            cache.worker_slots()
        );
        let shared = Arc::new(Shared {
            cache: cache.cache().clone(),
            stats: NetStats::default(),
            shutdown: AtomicBool::new(false),
            cfg,
        });
        let mut net_workers = Vec::with_capacity(workers);
        for w in 0..workers {
            let mut listeners = vec![listener::Listener::Tcp(listener.try_clone()?)];
            #[cfg(unix)]
            if let Some(l) = &unix {
                listeners.push(listener::Listener::Unix(l.try_clone()?));
            }
            let udp = udp.as_ref().map(|s| s.try_clone()).transpose()?;
            net_workers.push(listener::Worker::new(
                Arc::clone(&shared),
                w,
                new_poller()?,
                listeners,
                udp,
            )?);
        }
        let mut threads = Vec::with_capacity(workers);
        for (w, worker) in net_workers.into_iter().enumerate() {
            threads.push(
                std::thread::Builder::new()
                    .name(format!("mc-net-{w}"))
                    .spawn(move || worker.run())?,
            );
        }
        Ok(Server {
            handle: Some(cache),
            shared,
            threads,
            local_addr,
            udp_addr,
            unix_path,
        })
    }

    /// The bound TCP address (resolves the ephemeral port from
    /// `addr:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound UDP address, when [`NetConfig::udp_addr`] was set.
    pub fn udp_addr(&self) -> Option<SocketAddr> {
        self.udp_addr
    }

    /// The Unix socket path, when [`NetConfig::unix_path`] was set.
    pub fn unix_path(&self) -> Option<&std::path::Path> {
        self.unix_path.as_deref()
    }

    /// The cache behind the server.
    pub fn cache(&self) -> &Arc<McCache> {
        &self.shared.cache
    }

    /// Wire-level counters.
    pub fn net_stats(&self) -> NetSnapshot {
        self.shared.stats.snapshot()
    }

    /// Stops the workers (closing every connection) and shuts the cache
    /// down. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(path) = self.unix_path.take() {
            let _ = std::fs::remove_file(path);
        }
        self.handle.take(); // McHandle drop stops the cache
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
#[path = "../../tests/support/wire_script.rs"]
mod wire_script;

#[cfg(test)]
mod tests {
    //! The one worker loop over each poller: the platform's
    //! ([`event::DefaultPoller`] — epoll on Linux) and the portable
    //! [`event::SweepPoller`], which is the byte-equivalence reference.

    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    use super::event::{DefaultPoller, Poller, SweepPoller};
    use super::*;
    use crate::cache::McConfig;
    use crate::policy::{Branch, Stage};

    use super::wire_script::{read_until_version, wire_script};

    fn server_on<P: Poller>(
        new_poller: fn() -> io::Result<P>,
        net: NetConfig,
    ) -> io::Result<Server> {
        let handle = McCache::start(McConfig {
            branch: Branch::It(Stage::OnCommit),
            workers: net.workers,
            slab: crate::SlabConfig {
                mem_limit: 16 << 20,
                page_size: 256 << 10,
                chunk_min: 96,
                growth_factor: 1.5,
            },
            hash_power: 8,
            hash_power_max: 10,
            item_lock_power: 5,
            maintenance: false,
            ..Default::default()
        });
        Server::start_on(handle, net, new_poller)
    }

    fn script_bytes<P: Poller>(new_poller: fn() -> io::Result<P>) -> Vec<u8> {
        let net = NetConfig {
            workers: 2,
            ..NetConfig::default()
        };
        let srv = server_on(new_poller, net).expect("bind ephemeral server");
        let mut s = TcpStream::connect(srv.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(&wire_script()).expect("script");
        read_until_version(&mut s)
    }

    #[test]
    fn one_loop_serves_identical_bytes_over_both_pollers() {
        assert_eq!(
            script_bytes(DefaultPoller::new),
            script_bytes(SweepPoller::new),
            "the loop must be byte-identical over the platform and sweep pollers"
        );
    }

    fn reaper_closes_stale_connection<P: Poller>(new_poller: fn() -> io::Result<P>, which: &str) {
        let net = NetConfig {
            workers: 1,
            idle_timeout_ms: 50,
            ..NetConfig::default()
        };
        let srv = server_on(new_poller, net).expect("bind ephemeral server");
        let mut s = TcpStream::connect(srv.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        // A partial frame parks the connection mid-request; only the
        // reaper can ever close it.
        s.write_all(b"get never-finis").expect("partial frame");
        let mut buf = [0u8; 64];
        let n = s.read(&mut buf).expect("reaped connection reads EOF");
        assert_eq!(n, 0, "the idle connection must be closed ({which})");
        let ns = srv.net_stats();
        assert!(
            ns.conn_timeouts >= 1,
            "conn_timeouts={} must count the reap ({which})",
            ns.conn_timeouts
        );
        assert_eq!(ns.curr_connections, 0, "slot must be released ({which})");
    }

    #[test]
    fn idle_reaper_closes_stale_connections_over_both_pollers() {
        reaper_closes_stale_connection(DefaultPoller::new, "platform poller");
        reaper_closes_stale_connection(SweepPoller::new, "sweep poller");
    }

    #[test]
    fn poller_construction_failure_is_an_error_from_start() {
        let no_poller = || Err::<SweepPoller, _>(io::Error::other("no poller for you"));
        let net = NetConfig {
            workers: 1,
            ..NetConfig::default()
        };
        let err = match server_on(no_poller, net) {
            Ok(_) => panic!("start must fail when a worker's poller cannot be built"),
            Err(e) => e,
        };
        assert_eq!(err.to_string(), "no poller for you");
    }
}
