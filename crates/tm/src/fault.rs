//! Deterministic, seed-driven fault injection for chaos testing the
//! runtime (compiled in only with the `fault` cargo feature).
//!
//! The runtime calls `inject` at five structurally interesting points —
//! the [`FaultSite`]s. With the `fault` feature **disabled** (the
//! default), `inject` is an `#[inline(always)]` no-op that the optimizer
//! erases entirely: release builds carry zero cost and zero allocations
//! (guarded by the chaos zero-alloc test in `testkit`).
//!
//! With the feature enabled, a thread that has been armed via
//! `arm_thread` draws from a private xorshift stream at every visited
//! site and, per the armed [`FaultPlan`], either:
//!
//! * returns a **spurious [`Abort::Conflict`]** (the attempt retries
//!   through the normal abort path),
//! * spins/yields for a **bounded delay** (widening race windows), or
//! * **panics** (exercising the unwind-safety machinery: undo-log replay,
//!   orec/serial-lock release, hourglass reopen).
//!
//! Faults are a pure function of `(seed, visit sequence)` per thread, so a
//! chaos schedule replays exactly from its seed. Threads that never arm
//! (or that disarm) observe nothing.
//!
//! Injection sites are placed only where every action is recoverable: a
//! panic is never injected while NOrec holds the global sequence lock or
//! after any engine has begun publishing a buffered write set.

use crate::error::Abort;

/// Where in the runtime a fault may be injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Encounter-time or commit-time ownership-record acquisition.
    OrecAcquire,
    /// Read-set validation (eager/lazy orec revalidation, NOrec
    /// value-based validation).
    Validate,
    /// Entry to an engine's commit protocol (before any lock or the
    /// global sequence lock is taken).
    CommitLock,
    /// Global-clock advance at commit time.
    ClockTick,
    /// `onCommit` / `onAbort` handler execution (spurious-abort draws are
    /// meaningless here and are ignored by the caller).
    Handler,
}

impl FaultSite {
    /// All five sites, for building masks.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::OrecAcquire,
        FaultSite::Validate,
        FaultSite::CommitLock,
        FaultSite::ClockTick,
        FaultSite::Handler,
    ];

    /// This site's bit in a [`FaultPlan::sites`] mask.
    pub const fn bit(self) -> u8 {
        match self {
            FaultSite::OrecAcquire => 1 << 0,
            FaultSite::Validate => 1 << 1,
            FaultSite::CommitLock => 1 << 2,
            FaultSite::ClockTick => 1 << 3,
            FaultSite::Handler => 1 << 4,
        }
    }
}

/// Per-thread injection policy: which sites fire, and the probability of
/// each action in parts per 65536 per visited site. Actions are drawn in
/// the order panic → abort → delay from a single 16-bit draw, so the
/// rates must sum to at most 65536.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Bitmask of [`FaultSite::bit`]s at which faults may fire.
    pub sites: u8,
    /// Probability of a spurious [`Abort::Conflict`], per 65536.
    pub abort_per_64k: u16,
    /// Probability of a bounded spin/yield delay, per 65536.
    pub delay_per_64k: u16,
    /// Probability of an injected panic, per 65536.
    pub panic_per_64k: u16,
}

impl FaultPlan {
    /// A plan that never fires (arming with it is equivalent to not
    /// arming).
    pub const fn disabled() -> Self {
        FaultPlan {
            sites: 0,
            abort_per_64k: 0,
            delay_per_64k: 0,
            panic_per_64k: 0,
        }
    }

    /// A plan covering every site with the given action rates.
    pub const fn all_sites(abort_per_64k: u16, delay_per_64k: u16, panic_per_64k: u16) -> Self {
        FaultPlan {
            sites: 0x1F,
            abort_per_64k,
            delay_per_64k,
            panic_per_64k,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

#[cfg(feature = "fault")]
mod armed {
    use super::{Abort, FaultPlan, FaultSite};
    use std::cell::Cell;

    thread_local! {
        /// `(xorshift state, plan)` for this thread; `None` = disarmed.
        /// Const-initialized `Cell` so reading it never allocates (the
        /// hot path must stay zero-alloc even with the feature compiled).
        static STATE: Cell<Option<(u64, FaultPlan)>> = const { Cell::new(None) };
        /// Count of actions (aborts + delays + panics) injected on this
        /// thread since it was last armed.
        static INJECTED: Cell<u64> = const { Cell::new(0) };
    }

    /// Arms fault injection on the calling thread. Deterministic: the
    /// action sequence is a pure function of `seed` and the order in
    /// which this thread visits injection sites.
    pub fn arm_thread(seed: u64, plan: FaultPlan) {
        // xorshift has a fixed point at zero; displace an all-zero seed.
        let state = if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed };
        STATE.with(|s| s.set(Some((state, plan))));
        INJECTED.with(|c| c.set(0));
    }

    /// Disarms fault injection on the calling thread.
    pub fn disarm_thread() {
        STATE.with(|s| s.set(None));
    }

    /// Actions injected on this thread since the last [`arm_thread`].
    pub fn injected_count() -> u64 {
        INJECTED.with(Cell::get)
    }

    #[inline]
    pub(crate) fn inject(site: FaultSite) -> Result<(), Abort> {
        let Some((mut rng, plan)) = STATE.with(Cell::get) else {
            return Ok(());
        };
        if plan.sites & site.bit() == 0 {
            return Ok(());
        }
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        STATE.with(|s| s.set(Some((rng, plan))));
        let draw = (rng & 0xFFFF) as u16;
        let panic_edge = plan.panic_per_64k;
        let abort_edge = panic_edge.saturating_add(plan.abort_per_64k);
        let delay_edge = abort_edge.saturating_add(plan.delay_per_64k);
        if draw < panic_edge {
            INJECTED.with(|c| c.set(c.get() + 1));
            panic!("tm::fault injected panic at {site:?}");
        } else if draw < abort_edge {
            INJECTED.with(|c| c.set(c.get() + 1));
            Err(Abort::Conflict)
        } else if draw < delay_edge {
            INJECTED.with(|c| c.set(c.get() + 1));
            // Bounded delay: a short seed-derived spin, occasionally a
            // yield (the interesting schedules on a one-core host).
            let spins = (rng >> 16) & 0x3F;
            for _ in 0..spins {
                std::hint::spin_loop();
            }
            if rng & (1 << 22) != 0 {
                std::thread::yield_now();
            }
            Ok(())
        } else {
            Ok(())
        }
    }
}

#[cfg(feature = "fault")]
pub use armed::{arm_thread, disarm_thread, injected_count};

#[cfg(feature = "fault")]
pub(crate) use armed::inject;

/// Fault-injection hook, compiled to nothing without the `fault` feature.
#[cfg(not(feature = "fault"))]
#[inline(always)]
pub(crate) fn inject(_site: FaultSite) -> Result<(), Abort> {
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_bits_are_distinct() {
        let mut seen = 0u8;
        for s in FaultSite::ALL {
            assert_eq!(seen & s.bit(), 0, "{s:?} bit collides");
            seen |= s.bit();
        }
        assert_eq!(seen, 0x1F);
    }

    #[test]
    fn disabled_plan_is_default() {
        assert_eq!(FaultPlan::default(), FaultPlan::disabled());
        assert_eq!(FaultPlan::all_sites(1, 2, 3).sites, 0x1F);
    }

    #[test]
    fn unarmed_inject_is_a_noop() {
        for s in FaultSite::ALL {
            assert_eq!(inject(s), Ok(()));
        }
    }

    #[cfg(feature = "fault")]
    #[test]
    fn armed_aborts_are_deterministic() {
        let run = || {
            arm_thread(42, FaultPlan::all_sites(32768, 0, 0));
            let seq: Vec<bool> = (0..64)
                .map(|_| inject(FaultSite::Validate).is_err())
                .collect();
            disarm_thread();
            seq
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed must inject the same sequence");
        assert!(a.iter().any(|&x| x), "half-rate plan must abort sometimes");
        assert!(!a.iter().all(|&x| x), "half-rate plan must pass sometimes");
    }

    #[cfg(feature = "fault")]
    #[test]
    fn masked_sites_never_fire() {
        arm_thread(
            7,
            FaultPlan {
                sites: FaultSite::Validate.bit(),
                abort_per_64k: u16::MAX,
                delay_per_64k: 0,
                panic_per_64k: 0,
            },
        );
        for _ in 0..32 {
            assert_eq!(inject(FaultSite::OrecAcquire), Ok(()));
            assert!(inject(FaultSite::Validate).is_err());
        }
        disarm_thread();
        assert_eq!(inject(FaultSite::Validate), Ok(()));
    }

    #[cfg(feature = "fault")]
    #[test]
    fn injected_count_tracks_actions() {
        arm_thread(9, FaultPlan::all_sites(u16::MAX, 0, 0));
        assert_eq!(injected_count(), 0);
        for _ in 0..5 {
            let _ = inject(FaultSite::CommitLock);
        }
        assert_eq!(injected_count(), 5);
        disarm_thread();
    }
}
