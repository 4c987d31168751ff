//! The tail of the mutation pipeline: what a mutation did ([`Effect`]) and
//! the one place that tells anyone about it ([`Effects::emit`]).
//!
//! The paper's §3.5 lesson is that an unsafe side effect inside a
//! transaction is written once, as "register an onCommit handler, or run
//! it now if no transaction is open". The cache has two such side effects
//! on every mutation — the redo-log append (DESIGN §14) and the hot-key
//! publication (DESIGN §15.4) — and both live behind this module's private
//! fields, so "did every mutation path log and publish?" has one answer:
//! it did if it emitted, and a mutation body that drops its [`Effect`]
//! does not compile quietly.

use std::sync::{Arc, OnceLock};

use tm::{Abort, TmRuntime};

use crate::core::CacheCore;
use crate::ctx::Ctx;
use crate::dur::{DurLog, DurSnapshot, Record};
use crate::hot::{HotLookup, HotSet, HotState};
use crate::item::ItemHandle;

/// What one mutation section did — the only thing the redo log and the hot
/// set ever hear about.
#[must_use = "an effect that is not emitted is a mutation the redo log and the hot set never hear about"]
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
    /// Items vanished without a per-key effect (eviction, a reassigned
    /// slab page): nothing to log, everything privatized is suspect.
    Invalidated,
}

/// Proof that a mutation section was entered: the hot set's invalidation
/// generation as of entry, *before* the body ran — which is what
/// `hot.rs`'s max-stamp-wins argument needs from every publisher.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Entered(u64);

/// The GET path's view of one armed hot key: probe and repopulate, never
/// invalidate.
#[derive(Clone, Copy, Debug)]
pub(crate) struct HotKey<'a> {
    set: &'a HotSet,
    hv: u32,
}

impl HotKey<'_> {
    /// Probes the privatized copy.
    pub(crate) fn lookup(&self, key: &[u8], now: u32) -> HotLookup {
        self.set.lookup(self.hv, key, now)
    }

    /// Repopulation metadata, to capture BEFORE the lookup transaction:
    /// any writer committing after this observation stamp mints a strictly
    /// larger one, and any eviction committing after this generation bumps
    /// it — either way the repopulation can never mask a newer state.
    pub(crate) fn observe(&self, rt: &TmRuntime) -> (Entered, u64) {
        (Entered(self.set.current_gen()), rt.observation_stamp())
    }

    /// Publishes what the lookup transaction saw.
    pub(crate) fn repopulate(&self, key: &[u8], (at, stamp): (Entered, u64), state: HotState) {
        self.set.publish(self.hv, key, at.0, stamp, state);
    }
}

/// Privatized-GET counters, for `stats`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct HotCounters {
    pub(crate) hits: u64,
    pub(crate) installs: u64,
    pub(crate) invalidations: u64,
    pub(crate) armed: u64,
}

/// The subscribers of [`Effect`]: the redo log and the hot-key set.
#[derive(Debug)]
pub(crate) struct Effects {
    /// The redo-log writer; empty while recovery replays (replayed inserts
    /// must not re-log) and forever when durability is off.
    dur: OnceLock<Arc<DurLog>>,
    /// Hot-key privatization table; present iff `hot_slots > 0` on an IT
    /// branch.
    hot: Option<Arc<HotSet>>,
    /// Unix seconds at `rel_time() == 0`: redo records carry wall-clock
    /// times so they survive a restart.
    unix_base: u64,
}

impl Effects {
    pub(crate) fn new(hot_slots: usize, unix_base: u64) -> Effects {
        Effects {
            dur: OnceLock::new(),
            hot: (hot_slots > 0).then(|| Arc::new(HotSet::new(hot_slots))),
            unix_base,
        }
    }

    /// Unix seconds at `rel_time() == 0`.
    pub(crate) fn unix_base(&self) -> u64 {
        self.unix_base
    }

    /// Marks a mutation section's entry; call before the body runs.
    pub(crate) fn enter(&self) -> Entered {
        Entered(self.hot.as_deref().map_or(0, HotSet::current_gen))
    }

    /// Stages `effect` for both subscribers at this section's commit: one
    /// read of the item's CAS id and times, one copy of key and value, one
    /// [`Ctx::defer_or_run`] handler. Inside a transaction the handler
    /// rides the §3.5 onCommit hook — after every runtime lock is
    /// released, stamped with [`tm::last_commit_stamp`], before the
    /// client's reply (which is what makes hot reads read-your-writes).
    /// Under a held lock (lock branches, IP-privatized item data,
    /// recovery) it runs immediately with a freshly minted stamp from the
    /// same time base, while the caller still holds the item lock — so
    /// same-key records land in the file in lock order. Must run inside
    /// the mutating section, after a link assigned the CAS id.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit<'e>(
        &'e self,
        ctx: &mut Ctx<'_, 'e>,
        core: &'e CacheCore,
        rt: &TmRuntime,
        at: Entered,
        key: &[u8],
        hv: u32,
        effect: Effect<'_>,
    ) -> Result<(), Abort> {
        let keyless = matches!(effect, Effect::FlushedAll { .. } | Effect::Invalidated);
        let dur = self.dur.get().filter(|_| !matches!(effect, Effect::Invalidated));
        let hot = self.hot.as_ref().filter(|h| keyless || h.is_tagged(hv));
        if dur.is_none() && hot.is_none() {
            return Ok(());
        }
        let abs = |rel: u32| {
            if rel == 0 {
                0
            } else {
                self.unix_base + rel as u64
            }
        };
        let key = key.to_vec();
        let mut rel_exp = 0;
        let rec = match effect {
            Effect::Stored { h, value, flags } => {
                let it = core.arena.resolve(h);
                let cas = it.cas(ctx)?;
                let (exp, last) = it.times(ctx)?;
                rel_exp = exp;
                let (abs_exp, stored_unix) = (abs(exp), abs(last));
                Some(Record::Set { cas, flags, abs_exp, stored_unix, key, value: value.to_vec() })
            }
            Effect::Deleted => Some(Record::Del { key }),
            Effect::Arith { value, cas } => Some(Record::Arith { cas, value, key }),
            Effect::Touched { exp, now } => {
                if dur.is_some() && ctx.in_transaction() {
                    // A touch that rewrites identical times commits with an
                    // elided (read-only) stamp; bump the nonce so the
                    // engine mints a fresh one for the record.
                    ctx.fetch_add_word(core.dur_nonce.word(), 1)?;
                }
                Some(Record::Touch { abs_exp: abs(exp), touched_unix: abs(now), key })
            }
            Effect::FlushedAll { now } => Some(Record::FlushAll { flush_unix: abs(now) }),
            Effect::Invalidated => None,
        };
        let minted = (!ctx.in_transaction()).then(|| rt.mint_commit_stamp());
        let (dur, hot) = (dur.cloned(), hot.cloned());
        ctx.defer_or_run(move || {
            let stamp = minted.unwrap_or_else(tm::last_commit_stamp);
            if let (Some(d), Some(rec)) = (&dur, &rec) {
                d.append(stamp, rec);
            }
            let Some(hot) = hot else { return };
            let (key, state) = match rec {
                Some(Record::Set { key, value, flags, cas, .. }) => {
                    (key, HotState::Present { value, flags, cas, exp: rel_exp })
                }
                Some(Record::Del { key }) => (key, HotState::Absent),
                // No re-renderable value in hand (the new decimal text, the
                // new expiry): never served, but it fences out repopulation
                // from pre-mutation observations.
                Some(Record::Arith { key, .. } | Record::Touch { key, .. }) => {
                    (key, HotState::Unknown)
                }
                // Keyless: invalidate wholesale.
                _ => return hot.bump_gen(),
            };
            hot.publish(hv, &key, at.0, stamp, state);
        });
        Ok(())
    }

    // -- redo log: recovery attach, shutdown, stats ----------------------

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

    // -- hot set: GET-side probe, controller arming, stats ---------------

    /// Whether a hot set exists at all (feeds the popularity sketch).
    pub(crate) fn hot_on(&self) -> bool {
        self.hot.is_some()
    }

    /// The read-side handle for `hv`, if it is an armed hot hash — one
    /// relaxed load, the only hot-set cost a cold key's GET ever pays.
    pub(crate) fn hot_key(&self, hv: u32) -> Option<HotKey<'_>> {
        let set = self.hot.as_deref().filter(|h| h.is_tagged(hv))?;
        Some(HotKey { set, hv })
    }

    /// Arms exactly `tags` (hottest first); no-op without a hot set.
    pub(crate) fn hot_retune(&self, tags: &[u32]) {
        if let Some(h) = &self.hot {
            h.retune(tags);
        }
    }

    pub(crate) fn hot_counters(&self) -> HotCounters {
        use std::sync::atomic::Ordering::Relaxed;
        self.hot.as_deref().map_or_else(HotCounters::default, |h| HotCounters {
            hits: h.hits.load(Relaxed),
            installs: h.installs.load(Relaxed),
            invalidations: h.invalidations.load(Relaxed),
            armed: h.armed() as u64,
        })
    }
}
