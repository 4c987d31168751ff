//! The global readers/writer *serial lock* and serial-irrevocable mode.
//!
//! GCC's TM runtime makes every transaction acquire a single global
//! readers/writer lock in read mode at begin, releasing it at commit or
//! abort; a transaction that must *serialize* (perform an unsafe operation,
//! or give up after repeated aborts) upgrades to write mode, draining every
//! in-flight transaction first. The paper identifies this lock as the
//! dominant scalability bottleneck once serialization is rare (§4, Fig. 10),
//! and removes it — reproduced here as [`SerialLockMode::None`].

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use crate::sync_count::{self, SyncSite};

/// Whether transactions take the global serial lock at begin.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum SerialLockMode {
    /// GCC default: every transaction holds the lock shared for its whole
    /// lifetime; serialization acquires it exclusively.
    #[default]
    ReaderWriter,
    /// Paper §4 ("NoLock"): the lock is removed entirely. Serialization is
    /// impossible; requesting it is a programming error (the program must
    /// contain no relaxed transactions).
    None,
}

const WRITER: u64 = 1 << 63;

/// A writer-preferring readers/writer spinlock with the contention profile
/// of GCC's `gtm_serial_lock`: one shared cache line touched by every
/// transaction begin/end — and, being `align(64)`, no other word of the
/// runtime on it.
#[derive(Default)]
#[repr(align(64))]
pub struct SerialLock {
    /// Bit 63: writer held or pending. Low bits: active reader count.
    state: AtomicU64,
}

impl SerialLock {
    /// Creates an unheld lock.
    pub const fn new() -> Self {
        SerialLock {
            state: AtomicU64::new(0),
        }
    }

    /// Acquires the lock in read (shared) mode. Blocks while a writer holds
    /// or awaits the lock (writer preference prevents serializing
    /// transactions from starving).
    pub fn read_acquire(&self) {
        let mut spins = 0u32;
        loop {
            let s = self.state.load(Ordering::Acquire);
            if s & WRITER == 0 {
                sync_count::rmw(SyncSite::SerialLock);
                if self
                    .state
                    .compare_exchange_weak(s, s + 1, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return;
                }
            }
            backoff(&mut spins);
        }
    }

    /// Releases a read acquisition.
    pub fn read_release(&self) {
        sync_count::rmw(SyncSite::SerialLock);
        let prev = self.state.fetch_sub(1, Ordering::AcqRel);
        debug_assert_ne!(prev & !WRITER, 0, "read_release without read_acquire");
    }

    /// Acquires the lock in write (exclusive) mode: claims the writer bit,
    /// then drains active readers.
    pub fn write_acquire(&self) {
        // Claim the writer bit, waiting out any current writer.
        let mut spins = 0u32;
        loop {
            sync_count::rmw(SyncSite::SerialLock);
            let s = self.state.fetch_or(WRITER, Ordering::AcqRel);
            if s & WRITER == 0 {
                break;
            }
            backoff(&mut spins);
        }
        self.drain_readers();
    }

    /// Upgrades the caller's read acquisition to write mode, as libitm's
    /// `write_upgrade`: claims the writer bit while still counted as a
    /// reader, then drains the other readers. Returns `false`, still
    /// holding read mode, if another writer holds or awaits the lock: its
    /// whole serial section would run before this upgrade could complete,
    /// so the caller must abort (rolling back while it still holds read
    /// mode, before that section runs) and restart.
    pub fn write_upgrade(&self) -> bool {
        sync_count::rmw(SyncSite::SerialLock);
        if self.state.fetch_or(WRITER, Ordering::AcqRel) & WRITER != 0 {
            return false;
        }
        self.read_release();
        self.drain_readers();
        true
    }

    fn drain_readers(&self) {
        let mut spins = 0u32;
        while self.state.load(Ordering::Acquire) & !WRITER != 0 {
            backoff(&mut spins);
        }
    }

    /// Releases a write acquisition.
    pub fn write_release(&self) {
        sync_count::rmw(SyncSite::SerialLock);
        let prev = self.state.fetch_and(!WRITER, Ordering::AcqRel);
        debug_assert_ne!(prev & WRITER, 0, "write_release without write_acquire");
    }
}

impl fmt::Debug for SerialLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.state.load(Ordering::Relaxed);
        f.debug_struct("SerialLock")
            .field("writer", &(s & WRITER != 0))
            .field("readers", &(s & !WRITER))
            .finish()
    }
}

/// The runtime's one wait step, taken between re-checks of a word another
/// thread must change: the serial lock here, a held orec after an abort
/// ([`crate::orec::OrecTable::wait_for_change`]), the hourglass gate
/// ([`crate::cm::Hourglass::wait_at_begin`]). The first 31 steps spin once
/// each, every later one yields. The caller re-loads its word after every
/// step, so a release is seen within one step.
#[inline]
pub(crate) fn backoff(spins: &mut u32) {
    *spins = spins.saturating_add(1);
    if *spins < 32 {
        std::hint::spin_loop();
    } else {
        // Oversubscribed hosts (the common case for this reproduction) make
        // pure spinning pathological; yield to let the lock holder run.
        thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn read_read_share() {
        let l = SerialLock::new();
        l.read_acquire();
        l.read_acquire();
        l.read_release();
        l.read_release();
    }

    #[test]
    fn write_excludes_write() {
        let l = Arc::new(SerialLock::new());
        let counter = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..4 {
            let l = l.clone();
            let c = counter.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..200 {
                    l.write_acquire();
                    let v = c.load(Ordering::Relaxed);
                    thread::yield_now();
                    c.store(v + 1, Ordering::Relaxed);
                    l.write_release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 800);
    }

    #[test]
    fn write_drains_readers() {
        let l = Arc::new(SerialLock::new());
        let in_read = Arc::new(AtomicUsize::new(0));
        let mut handles = vec![];
        for _ in 0..3 {
            let l = l.clone();
            let r = in_read.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..500 {
                    l.read_acquire();
                    r.fetch_add(1, Ordering::SeqCst);
                    r.fetch_sub(1, Ordering::SeqCst);
                    l.read_release();
                }
            }));
        }
        for _ in 0..100 {
            l.write_acquire();
            assert_eq!(
                in_read.load(Ordering::SeqCst),
                0,
                "writer saw an active reader"
            );
            l.write_release();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Of two readers upgrading at once, the second loses and keeps its
    /// read mode; the winner's upgrade completes once the loser lets go.
    #[test]
    fn second_upgrade_loses_and_keeps_read_mode() {
        let l = Arc::new(SerialLock::new());
        l.read_acquire();
        l.read_acquire();
        let winner = {
            let l = l.clone();
            thread::spawn(move || {
                assert!(l.write_upgrade());
                l.write_release();
            })
        };
        while l.state.load(Ordering::Acquire) & WRITER == 0 {
            thread::yield_now();
        }
        assert!(!l.write_upgrade());
        l.read_release();
        winner.join().unwrap();
        assert_eq!(l.state.load(Ordering::Acquire), 0);
    }
}
