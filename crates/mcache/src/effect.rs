//! The tail of the mutation pipeline: what a mutation did ([`Effect`]) and
//! the one place that tells anyone about it ([`Effects::emit`]).
//!
//! The paper's §3.5 lesson is that an unsafe side effect inside a
//! transaction is written once, as "register an onCommit handler, or run
//! it now if no transaction is open". The cache has one such side effect
//! on every mutation — the redo-log append (DESIGN §14) — and it lives
//! behind this module's private field, so "did every mutation path log?"
//! has one answer: it did if it emitted, and a mutation body that drops
//! its [`Effect`] does not compile quietly.

use std::sync::{Arc, OnceLock};

use tm::{Abort, TmRuntime};

use crate::core::CacheCore;
use crate::ctx::Ctx;
use crate::dur::{DurLog, DurSnapshot, Record};
use crate::item::ItemHandle;

/// What one mutation section did — the only thing the redo log ever hears
/// about.
#[must_use = "an effect that is not emitted is a mutation the redo log never hears about"]
#[derive(Debug)]
pub(crate) enum Effect<'v> {
    /// A fresh item was linked under the key (its CAS id already assigned).
    Stored {
        /// The linked item; `emit` reads its CAS id and times.
        h: ItemHandle,
        /// The value the caller wrote into it.
        value: &'v [u8],
        /// Client flags.
        flags: u32,
    },
    /// The key's item was unlinked.
    Deleted,
    /// incr/decr rewrote the value in place.
    Arith {
        /// New numeric value.
        value: u64,
        /// CAS id the rewrite assigned.
        cas: u64,
    },
    /// The key's expiry and last-access time were set (rel-time seconds).
    Touched {
        /// New expiry, 0 = never.
        exp: u32,
        /// Touch time.
        now: u32,
    },
    /// `flush_all` at rel-time `now`.
    FlushedAll {
        /// The watermark.
        now: u32,
    },
}

/// The subscriber of [`Effect`]: the redo log.
#[derive(Debug)]
pub(crate) struct Effects {
    /// The redo-log writer; empty while recovery replays (replayed inserts
    /// must not re-log) and forever when durability is off.
    dur: OnceLock<Arc<DurLog>>,
    /// Unix seconds at `rel_time() == 0`: redo records carry wall-clock
    /// times so they survive a restart.
    unix_base: u64,
}

impl Effects {
    pub(crate) fn new(unix_base: u64) -> Effects {
        Effects { dur: OnceLock::new(), unix_base }
    }

    /// Unix seconds at `rel_time() == 0`.
    pub(crate) fn unix_base(&self) -> u64 {
        self.unix_base
    }

    /// Stages `effect` for the redo log at this section's commit: one
    /// read of the item's CAS id and times, one copy of key and value, one
    /// [`Ctx::defer_or_run`] handler. Inside a transaction the handler
    /// rides the §3.5 onCommit hook — after every runtime lock is
    /// released, stamped with [`tm::last_commit_stamp`], before the
    /// client's reply.
    /// Under a held lock (lock branches, IP-privatized item data,
    /// recovery) it runs immediately with a freshly minted stamp from the
    /// same time base, while the caller still holds the item lock — so
    /// same-key records land in the file in lock order. Must run inside
    /// the mutating section, after a link assigned the CAS id.
    pub(crate) fn emit<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        core: &'e CacheCore,
        rt: &TmRuntime,
        key: &[u8],
        effect: Effect<'_>,
    ) -> Result<(), Abort> {
        let Some(dur) = self.dur.get() else {
            return Ok(());
        };
        let abs = |rel: u32| {
            if rel == 0 {
                0
            } else {
                self.unix_base + rel as u64
            }
        };
        let key = key.to_vec();
        let rec = match effect {
            Effect::Stored { h, value, flags } => {
                let it = core.arena.resolve(h);
                let cas = it.cas(ctx)?;
                let (exp, last) = it.times(ctx)?;
                let (abs_exp, stored_unix) = (abs(exp), abs(last));
                Record::Set { cas, flags, abs_exp, stored_unix, key, value: value.to_vec() }
            }
            Effect::Deleted => Record::Del { key },
            Effect::Arith { value, cas } => Record::Arith { cas, value, key },
            Effect::Touched { exp, now } => {
                Record::Touch { abs_exp: abs(exp), touched_unix: abs(now), key }
            }
            Effect::FlushedAll { now } => Record::FlushAll { flush_unix: abs(now) },
        };
        let minted = (!ctx.in_transaction()).then(|| rt.mint_commit_stamp());
        let dur = dur.clone();
        ctx.defer_or_run(move || {
            dur.append(minted.unwrap_or_else(tm::last_commit_stamp), &rec);
        });
        Ok(())
    }

    /// Attaches the writer once recovery has replayed; everything emitted
    /// after this point is logged.
    pub(crate) fn attach_log(&self, log: DurLog) {
        let _ = self.dur.set(Arc::new(log));
    }

    /// Seals the log so the next start recovers without the torn-tail
    /// heuristic.
    pub(crate) fn seal_log(&self) {
        if let Some(d) = self.dur.get() {
            d.seal();
        }
    }

    /// Whether the redo log is attached (and not yet failed).
    pub(crate) fn dur_enabled(&self) -> bool {
        self.dur.get().is_some_and(|d| !d.is_failed())
    }

    /// Durability counters, `None` without a log.
    pub(crate) fn dur_stats(&self) -> Option<DurSnapshot> {
        self.dur.get().map(|d| d.stats().snapshot())
    }
}
