//! Readiness notification: the [`Poller`] operations the one worker
//! loop is written against, and the two implementations behind them.
//!
//! - [`EpollPoller`] (Linux): a thin std-only wrapper over the raw
//!   `epoll` interface. The workspace is hermetic — no `libc` crate —
//!   so the three epoll entry points are declared as raw `extern "C"`
//!   symbols against the C library `std` already links, the same
//!   technique `mcached` uses for `signal(2)`.
//! - [`SweepPoller`] (everywhere else): reports every registered token
//!   ready after a fixed nap. Spurious readiness is always safe under
//!   the drain-to-`WouldBlock` discipline below, so the same loop runs
//!   over it unchanged — only slower.
//!
//! [`DefaultPoller`] picks between them by `cfg(target_os)`; there is
//! no user-facing choice. The sweep poller is also compiled into Linux
//! test builds, where the unit tests run the loop over both as the
//! byte-equivalence reference.
//!
//! Registration protocol (DESIGN §16):
//!
//! - every fd is registered **edge-triggered** (`EPOLLET`), so the
//!   kernel wakes a worker exactly once per readiness transition and
//!   the worker must drain until `WouldBlock` — which the connection
//!   state machine's pump already does;
//! - read interest (`EPOLLIN | EPOLLRDHUP`) is permanent for the life
//!   of the fd;
//! - write interest (`EPOLLOUT`) is armed only while a connection has
//!   pending response bytes and disarmed the moment the buffer drains,
//!   so an idle writable socket never wakes anybody (the arm/disarm
//!   signal is exactly the backpressure state from PR 7).

use std::io;

/// A socket's registration handle. Only the epoll poller looks at it.
pub(crate) type RawFd = i32;

/// The fd behind a std socket.
#[cfg(unix)]
pub(crate) fn fd_of(sock: &impl std::os::unix::io::AsRawFd) -> RawFd {
    sock.as_raw_fd()
}

/// Non-unix hosts have no fd to offer and need none: they run the
/// sweep poller, which keys registrations by token.
#[cfg(not(unix))]
pub(crate) fn fd_of<S>(_sock: &S) -> RawFd {
    -1
}

/// What the worker loop needs from a readiness source. Each network
/// worker owns exactly one, so its ready set only ever names sockets
/// that worker owns.
pub(crate) trait Poller: Send + 'static {
    /// Registers `fd` edge-triggered with permanent read interest;
    /// `writable` arms write interest too.
    fn add(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()>;

    /// Re-registers `fd` — the EPOLLOUT arm/disarm edge.
    fn modify(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()>;

    /// Deregisters `fd`. The worker deregisters before the stream drop
    /// so a same-batch stale event can never land on a reused slot.
    fn delete(&mut self, fd: RawFd, token: u64);

    /// Waits up to `timeout_ms` (0 = poll) and appends the token of
    /// every ready registration to `out`. Which edge fired is not
    /// reported: readable, writable, error and hangup all call for the
    /// same pump, which flushes, reads, and observes EOF or the error
    /// for itself.
    fn wait(&mut self, out: &mut Vec<u64>, timeout_ms: i32) -> io::Result<()>;
}

#[cfg(target_os = "linux")]
mod sys {
    use super::{Poller, RawFd};
    use std::io;

    // <sys/epoll.h>, x86_64/aarch64 Linux ABI. The event struct is
    // packed on x86_64 (the kernel ABI predates natural alignment).
    #[repr(C, packed)]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    /// One epoll instance.
    pub(crate) struct EpollPoller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    impl EpollPoller {
        pub(crate) fn new() -> io::Result<EpollPoller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(EpollPoller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: EPOLLIN | EPOLLRDHUP | EPOLLET | if writable { EPOLLOUT } else { 0 },
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }
    }

    impl Poller for EpollPoller {
        fn add(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, writable)
        }

        fn modify(&mut self, fd: RawFd, token: u64, writable: bool) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, writable)
        }

        fn delete(&mut self, fd: RawFd, _token: u64) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        /// EINTR reads as an empty set.
        fn wait(&mut self, out: &mut Vec<u64>, timeout_ms: i32) -> io::Result<()> {
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            out.extend(self.buf[..n as usize].iter().map(|ev| ev.data));
            Ok(())
        }
    }

    impl Drop for EpollPoller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }
}

#[cfg(target_os = "linux")]
pub(crate) use sys::EpollPoller;

/// The poller [`Server::start`](super::Server::start) gives every
/// worker on this platform.
#[cfg(target_os = "linux")]
pub(crate) type DefaultPoller = EpollPoller;
#[cfg(not(target_os = "linux"))]
pub(crate) type DefaultPoller = SweepPoller;

/// The portable poller: no kernel readiness source, so every `wait`
/// naps and then reports every registered token.
/// The worker pumps them all and each pump ends in `WouldBlock` — one
/// full sweep per nap, with cost linear in the connection count.
#[cfg(any(test, not(target_os = "linux")))]
pub(crate) struct SweepPoller {
    tokens: Vec<u64>,
}

#[cfg(any(test, not(target_os = "linux")))]
impl SweepPoller {
    /// Nap per blocking `wait`: the latency floor of this poller, and
    /// shorter than any nonzero timeout the worker asks for.
    const NAP: std::time::Duration = std::time::Duration::from_micros(200);

    pub(crate) fn new() -> io::Result<SweepPoller> {
        Ok(SweepPoller { tokens: Vec::new() })
    }
}

#[cfg(any(test, not(target_os = "linux")))]
impl Poller for SweepPoller {
    fn add(&mut self, _fd: RawFd, token: u64, _writable: bool) -> io::Result<()> {
        self.tokens.push(token);
        Ok(())
    }

    /// Write readiness is always reported; there is nothing to arm.
    fn modify(&mut self, _fd: RawFd, _token: u64, _writable: bool) -> io::Result<()> {
        Ok(())
    }

    fn delete(&mut self, _fd: RawFd, token: u64) {
        self.tokens.retain(|&t| t != token);
    }

    fn wait(&mut self, out: &mut Vec<u64>, timeout_ms: i32) -> io::Result<()> {
        if timeout_ms != 0 {
            std::thread::sleep(Self::NAP);
        }
        out.extend_from_slice(&self.tokens);
        Ok(())
    }
}
