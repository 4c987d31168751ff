//! Contention management policies (paper §4, Figure 11).
//!
//! The runtime consults the contention manager between attempts of a
//! transaction. Four policies from the paper are provided:
//!
//! * [`ContentionManager::SerializeAfter`] — GCC's default: after N
//!   consecutive aborts the transaction restarts in serial-irrevocable mode
//!   (requires the serial lock; counted as "Abort Serial" in Tables 1–4).
//! * [`ContentionManager::None`] — no policy beyond waiting for the lock
//!   that aborted the attempt ("GCC-NoCM").
//! * [`ContentionManager::Backoff`] — randomized exponential backoff.
//! * [`ContentionManager::Hourglass`] — after N consecutive aborts the
//!   starving transaction closes a global gate that blocks *new*
//!   transactions from beginning until it commits (Liu & Spear's "toxic
//!   transactions" / hourglass scheme).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

use crate::serial::backoff;
use crate::sync_count::{self, SyncSite};

/// Which policy the runtime applies between transaction attempts.
///
/// Every policy runs after the runtime's own retry rule: an attempt aborted
/// by an orec another transaction holds first waits, with loads only,
/// until that orec word changes (DESIGN §9).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ContentionManager {
    /// No policy beyond waiting for the lock that aborted the attempt;
    /// never serialize (paper: "GCC-NoCM").
    None,
    /// Serialize after this many consecutive aborts (GCC default: 100).
    SerializeAfter(u32),
    /// Randomized exponential backoff, capped at `max_shift` doublings.
    Backoff {
        /// log2 of the maximum backoff (in ~spin units).
        max_shift: u32,
    },
    /// Close the begin gate after this many consecutive aborts
    /// (paper configuration: 128).
    Hourglass(u32),
}

impl Default for ContentionManager {
    /// GCC's default policy.
    fn default() -> Self {
        ContentionManager::SerializeAfter(100)
    }
}

impl ContentionManager {
    /// GCC's default: serialize after 100 consecutive aborts.
    pub const GCC_DEFAULT: ContentionManager = ContentionManager::SerializeAfter(100);

    /// The paper's hourglass configuration (block new transactions after
    /// 128 consecutive aborts).
    pub const HOURGLASS_128: ContentionManager = ContentionManager::Hourglass(128);
}

impl fmt::Display for ContentionManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ContentionManager::None => write!(f, "no-cm"),
            ContentionManager::SerializeAfter(n) => write!(f, "serialize-after-{n}"),
            ContentionManager::Backoff { max_shift } => write!(f, "backoff-{max_shift}"),
            ContentionManager::Hourglass(n) => write!(f, "hourglass-{n}"),
        }
    }
}

/// The hourglass gate: a single global slot naming the starving transaction
/// allowed to make progress while new transactions wait.
///
/// Alone on its cache line: closing or opening the gate must not invalidate
/// the runtime's read-mostly configuration words under every beginning
/// transaction. On the transaction path the word is only *loaded* (and only
/// under [`ContentionManager::Hourglass`]); the two RMWs below are issued
/// solely by a transaction that closes the gate.
#[derive(Default)]
#[repr(align(64))]
pub struct Hourglass {
    /// 0 = open; otherwise the tx id that closed the gate.
    holder: AtomicU64,
}

impl Hourglass {
    /// Creates an open gate.
    pub const fn new() -> Self {
        Hourglass {
            holder: AtomicU64::new(0),
        }
    }

    /// Blocks until the gate is open or held by `tx_id`.
    ///
    /// Waiters take the runtime's one wait step ([`backoff`]): 31 spins,
    /// then a `thread::yield_now` per re-check — on a one-core host a
    /// closed gate must hand the core to the holder instead of burning it.
    pub fn wait_at_begin(&self, tx_id: u64) {
        let mut spins = 0u32;
        loop {
            let h = self.holder.load(Ordering::Acquire);
            if h == 0 || h == tx_id {
                return;
            }
            backoff(&mut spins);
        }
    }

    /// Attempts to close the gate for `tx_id`. Returns `true` if `tx_id`
    /// now holds it (including if it already did).
    pub fn try_close(&self, tx_id: u64) -> bool {
        debug_assert_ne!(tx_id, 0, "tx id 0 is reserved for the open gate");
        sync_count::rmw(SyncSite::Hourglass);
        self.holder
            .compare_exchange(0, tx_id, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
            || self.holder.load(Ordering::Acquire) == tx_id
    }

    /// Opens the gate if held by `tx_id`.
    pub fn open_if_held(&self, tx_id: u64) {
        sync_count::rmw(SyncSite::Hourglass);
        let _ = self
            .holder
            .compare_exchange(tx_id, 0, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Current holder (0 = open). Diagnostic only.
    pub fn holder(&self) -> u64 {
        self.holder.load(Ordering::Acquire)
    }
}

impl fmt::Debug for Hourglass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hourglass")
            .field("holder", &self.holder())
            .finish()
    }
}

/// Spins/yields for a randomized exponential backoff after `attempt`
/// consecutive aborts. `seed` decorrelates threads.
pub(crate) fn exponential_backoff(attempt: u32, max_shift: u32, seed: u64) {
    let shift = attempt.min(max_shift);
    // xorshift on (seed, attempt) for a cheap random fraction.
    let mut x = seed ^ ((attempt as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    let max = 1u64 << shift;
    let units = (x % max) + 1;
    for _ in 0..units {
        // One "unit" is a short spin; past a threshold we also yield so the
        // backoff behaves under preemption (the paper observes backoff
        // "performs poorly due to preemption" at high thread counts — the
        // yield is what a real spinning backoff degenerates to there).
        for _ in 0..16 {
            std::hint::spin_loop();
        }
        if units > 64 {
            thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_gcc_policy() {
        assert_eq!(
            ContentionManager::default(),
            ContentionManager::SerializeAfter(100)
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(ContentionManager::None.to_string(), "no-cm");
        assert_eq!(
            ContentionManager::SerializeAfter(100).to_string(),
            "serialize-after-100"
        );
        assert_eq!(
            ContentionManager::Backoff { max_shift: 10 }.to_string(),
            "backoff-10"
        );
        assert_eq!(
            ContentionManager::Hourglass(128).to_string(),
            "hourglass-128"
        );
    }

    #[test]
    fn hourglass_close_open() {
        let h = Hourglass::new();
        assert_eq!(h.holder(), 0);
        assert!(h.try_close(7));
        assert!(h.try_close(7), "idempotent for the holder");
        assert!(!h.try_close(8), "second closer must fail");
        h.open_if_held(8);
        assert_eq!(h.holder(), 7, "non-holder cannot open");
        h.open_if_held(7);
        assert_eq!(h.holder(), 0);
    }

    #[test]
    fn hourglass_holder_passes_gate() {
        let h = Hourglass::new();
        assert!(h.try_close(3));
        // Must not deadlock: the holder passes its own gate.
        h.wait_at_begin(3);
        h.open_if_held(3);
        h.wait_at_begin(4);
    }

    #[test]
    fn backoff_terminates() {
        for attempt in 0..12 {
            exponential_backoff(attempt, 8, 42);
        }
    }
}
