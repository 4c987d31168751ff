//! Hot-key privatization: the adaptive runtime's answer to skewed
//! (Zipfian) GET traffic.
//!
//! The paper's §3.3 observation — privatized data needs no instrumentation
//! — applied to *keys* instead of code paths: when the controller sees a
//! handful of keys dominating the read mix, it installs them in a small
//! direct-mapped [`HotSet`]. A GET for an installed key is then served
//! from the privatized copy with two atomic loads and a reader lock,
//! touching neither the hash table nor the STM metadata; everything else
//! falls through to the ordinary transactional path.
//!
//! # Consistency argument (DESIGN.md §15.4)
//!
//! Every published entry carries a commit-time stamp from the runtime's
//! time base, and replacement is strictly-greater ("max-stamp-wins"):
//!
//! * **Writers** (SET/delete) publish from an onCommit handler stamped
//!   with [`tm::last_commit_stamp`] — after the store is globally
//!   visible, before the client's reply. Two racing writers' handlers may
//!   run in either order, but their stamps order them; the newer value
//!   can never be overwritten by the older.
//! * **Readers** repopulate a stale slot with the value they observed,
//!   stamped with [`tm::TmRuntime::observation_stamp`] captured *before*
//!   their transaction began. Any writer that commits after that capture
//!   mints a strictly larger stamp, so a repopulation can never clobber a
//!   newer write — and any writer with a smaller stamp was already
//!   visible to the read, so the reader's value is at least as new.
//! * **Mutations without a full value** (incr/decr, touch) publish a
//!   [`HotState::Unknown`] marker at their commit stamp: never served,
//!   but it occupies the slot so a slower reader cannot repopulate the
//!   pre-mutation value over it. Tag churn simply clears the slot; an
//!   empty slot is always safe (the next GET takes the transactional
//!   path and repopulates).
//! * **Evictions, slab reassignment, and `flush_all`** bypass per-key
//!   publication entirely, so they invalidate wholesale: a generation
//!   counter is bumped, and entries from an older generation are never
//!   served. Publishers pass the generation they read *before* their
//!   critical section ([`HotSet::current_gen`]); the bump runs *after*
//!   the evicting transaction commits, so any value that was current
//!   when its publisher captured the generation either carries the new
//!   generation (it observed post-eviction state) or is fenced off by
//!   the bump.
//!
//! A served hot hit therefore always returns a committed state at least
//! as new as any state whose writer had replied when the GET began —
//! which is exactly the linearizability contract the transactional path
//! provides. Read-your-writes holds because a writer's publication
//! precedes its reply.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use crate::cache::GetValue;

/// What a hot-set probe produced.
#[derive(Debug)]
pub(crate) enum HotLookup {
    /// Privatized hit: serve this value without a transaction.
    Hit(GetValue),
    /// Privatized miss: the key is known absent (deleted or observed
    /// missing) as of the entry's stamp.
    Absent,
    /// The key is installed but the slot has no serviceable entry (never
    /// populated, stale generation, expired, or tag collision) — take the
    /// transactional path and repopulate.
    Stale,
}

/// A publishable key state.
#[derive(Clone, Debug)]
pub(crate) enum HotState {
    /// The key maps to this value.
    Present {
        /// Value bytes.
        value: Vec<u8>,
        /// Client flags.
        flags: u32,
        /// CAS id.
        cas: u64,
        /// Relative expiry (0 = never).
        exp: u32,
    },
    /// The key is absent.
    Absent,
    /// The key changed in a way the committer could not re-render (an
    /// incr/decr's new decimal string, a touch's new expiry). Never
    /// served — but it holds the slot at the mutation's commit stamp so
    /// an older observation cannot repopulate over it.
    Unknown,
}

#[derive(Debug)]
struct HotEntry {
    key: Box<[u8]>,
    stamp: u64,
    gen: u64,
    state: HotState,
}

/// Tag word: `hv << 1 | 1`, so an armed tag for hash 0 is distinguishable
/// from an empty slot (0).
fn tag_word(hv: u32) -> u64 {
    ((hv as u64) << 1) | 1
}

#[derive(Debug, Default)]
struct HotSlot {
    tag: AtomicU64,
    entry: RwLock<Option<HotEntry>>,
}

/// The privatized hot-key table: direct-mapped, controller-armed.
#[derive(Debug)]
pub(crate) struct HotSet {
    slots: Box<[HotSlot]>,
    /// Wholesale-invalidation generation; bumped by evictions, slab
    /// rebalancing, and `flush_all`.
    gen: AtomicU64,
    /// GETs served (hit or known-absent) from the privatized copy.
    pub(crate) hits: AtomicU64,
    /// Keys armed by the controller.
    pub(crate) installs: AtomicU64,
    /// Wholesale generation invalidations.
    pub(crate) invalidations: AtomicU64,
}

impl HotSet {
    pub(crate) fn new(slots: usize) -> HotSet {
        let n = slots.next_power_of_two().max(2);
        HotSet {
            slots: (0..n).map(|_| HotSlot::default()).collect(),
            gen: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            installs: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    fn slot(&self, hv: u32) -> &HotSlot {
        &self.slots[hv as usize & (self.slots.len() - 1)]
    }

    /// One relaxed load: is `hv` an armed hot hash? The only hot-set cost
    /// a cold key's GET ever pays.
    #[inline]
    pub(crate) fn is_tagged(&self, hv: u32) -> bool {
        self.slot(hv).tag.load(Ordering::Acquire) == tag_word(hv)
    }

    /// Probes the privatized copy for an armed key.
    pub(crate) fn lookup(&self, hv: u32, key: &[u8], now: u32) -> HotLookup {
        let gen = self.gen.load(Ordering::Acquire);
        let guard = self.slot(hv).entry.read().unwrap();
        let Some(e) = guard.as_ref() else {
            return HotLookup::Stale;
        };
        if e.gen != gen || &*e.key != key {
            return HotLookup::Stale;
        }
        match &e.state {
            HotState::Present { value, flags, cas, exp } => {
                if *exp != 0 && *exp <= now {
                    return HotLookup::Stale;
                }
                self.hits.fetch_add(1, Ordering::Relaxed);
                HotLookup::Hit(GetValue {
                    data: value.clone(),
                    flags: *flags,
                    cas: *cas,
                    exp: *exp,
                })
            }
            HotState::Absent => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                HotLookup::Absent
            }
            HotState::Unknown => HotLookup::Stale,
        }
    }

    /// The invalidation generation publishers must capture *before* the
    /// critical section that observes or produces the state they publish.
    pub(crate) fn current_gen(&self) -> u64 {
        self.gen.load(Ordering::Acquire)
    }

    /// Publishes a key state observed (readers) or produced (writers) at
    /// `stamp`, under the generation the publisher captured before its
    /// critical section. Newest-wins: an existing entry is only replaced
    /// by a newer generation, or the same generation with a strictly
    /// larger stamp.
    pub(crate) fn publish(&self, hv: u32, key: &[u8], gen: u64, stamp: u64, state: HotState) {
        let slot = self.slot(hv);
        if slot.tag.load(Ordering::Acquire) != tag_word(hv) {
            return;
        }
        let mut guard = slot.entry.write().unwrap();
        if let Some(e) = guard.as_ref() {
            if e.gen > gen || (e.gen == gen && e.stamp >= stamp) {
                return;
            }
        }
        *guard = Some(HotEntry {
            key: key.into(),
            stamp,
            gen,
            state,
        });
    }

    /// Wholesale invalidation: evictions, slab reassignment, `flush_all`.
    /// Entries from older generations are never served again.
    pub(crate) fn bump_gen(&self) {
        self.gen.fetch_add(1, Ordering::AcqRel);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Arms exactly `tags` (hottest first — on a direct-map collision the
    /// earlier, hotter hash keeps the slot). Slots whose tag changes drop
    /// their entry; already-armed tags keep theirs warm.
    pub(crate) fn retune(&self, tags: &[u32]) {
        let mut claimed = vec![false; self.slots.len()];
        let mut keep = vec![0u64; self.slots.len()];
        for &hv in tags {
            let i = hv as usize & (self.slots.len() - 1);
            if !claimed[i] {
                claimed[i] = true;
                keep[i] = tag_word(hv);
            }
        }
        for (slot, &want) in self.slots.iter().zip(&keep) {
            let cur = slot.tag.load(Ordering::Acquire);
            if cur == want {
                continue;
            }
            // Disarm before clearing so a concurrent publish for the old
            // tag cannot land after the clear.
            slot.tag.store(0, Ordering::Release);
            *slot.entry.write().unwrap() = None;
            if want != 0 {
                slot.tag.store(want, Ordering::Release);
                self.installs.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Number of currently armed slots (diagnostics).
    pub(crate) fn armed(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.tag.load(Ordering::Acquire) != 0)
            .count()
    }
}

/// One worker's lossy key-popularity sketch: a direct-mapped row of
/// `(hash, count)` pairs maintained MJRTY-style (match: count up;
/// empty: claim; mismatch: count down). Single-writer (its worker), so
/// plain relaxed load/store pairs suffice; the controller drains it with
/// swaps each epoch.
#[derive(Debug)]
pub(crate) struct HotSketch {
    rows: Box<[AtomicU64]>,
}

const SKETCH_ROWS: usize = 64;

impl Default for HotSketch {
    fn default() -> Self {
        HotSketch {
            rows: (0..SKETCH_ROWS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl HotSketch {
    /// Records one access to `hv`. Two relaxed atomics on the GET path.
    #[inline]
    pub(crate) fn note(&self, hv: u32) {
        let row = &self.rows[hv as usize & (SKETCH_ROWS - 1)];
        let cur = row.load(Ordering::Relaxed);
        let (tag, cnt) = ((cur >> 32) as u32, cur as u32);
        let next = if tag == hv || cnt == 0 {
            ((hv as u64) << 32) | (cnt.saturating_add(1) as u64)
        } else {
            ((tag as u64) << 32) | (cnt - 1) as u64
        };
        row.store(next, Ordering::Relaxed);
    }

    /// Drains the sketch, returning surviving `(hash, count)` pairs and
    /// zeroing the rows for the next epoch.
    pub(crate) fn drain(&self) -> Vec<(u32, u32)> {
        self.rows
            .iter()
            .filter_map(|r| {
                let v = r.swap(0, Ordering::Relaxed);
                (v != 0).then(|| ((v >> 32) as u32, v as u32))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn present(v: &[u8], cas: u64) -> HotState {
        HotState::Present {
            value: v.to_vec(),
            flags: 0,
            cas,
            exp: 0,
        }
    }

    #[test]
    fn untagged_keys_never_serve_or_publish() {
        let h = HotSet::new(8);
        assert!(!h.is_tagged(42));
        h.publish(42, b"k", 0, 10, present(b"v", 1));
        assert!(matches!(h.lookup(42, b"k", 5), HotLookup::Stale));
    }

    #[test]
    fn publish_then_lookup_roundtrip() {
        let h = HotSet::new(8);
        h.retune(&[42]);
        assert!(h.is_tagged(42));
        assert!(matches!(h.lookup(42, b"k", 5), HotLookup::Stale));
        h.publish(42, b"k", h.current_gen(), 10, present(b"v1", 7));
        match h.lookup(42, b"k", 5) {
            HotLookup::Hit(v) => {
                assert_eq!(v.data, b"v1");
                assert_eq!(v.cas, 7);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        assert_eq!(h.hits.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn max_stamp_wins() {
        let h = HotSet::new(8);
        h.retune(&[1]);
        let g = h.current_gen();
        h.publish(1, b"k", g, 20, present(b"new", 2));
        h.publish(1, b"k", g, 10, present(b"old", 1)); // late, older: ignored
        match h.lookup(1, b"k", 5) {
            HotLookup::Hit(v) => assert_eq!(v.data, b"new"),
            other => panic!("{other:?}"),
        }
        h.publish(1, b"k", g, 20, present(b"tie", 3)); // equal stamp: ignored
        match h.lookup(1, b"k", 5) {
            HotLookup::Hit(v) => assert_eq!(v.data, b"new"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tombstones_serve_known_absence() {
        let h = HotSet::new(8);
        h.retune(&[1]);
        let g = h.current_gen();
        h.publish(1, b"k", g, 10, present(b"v", 1));
        h.publish(1, b"k", g, 11, HotState::Absent);
        assert!(matches!(h.lookup(1, b"k", 5), HotLookup::Absent));
    }

    #[test]
    fn unknown_blocks_stale_repopulation_but_never_serves() {
        let h = HotSet::new(8);
        h.retune(&[1]);
        let g = h.current_gen();
        h.publish(1, b"k", g, 10, present(b"old", 1));
        // incr committed at stamp 20: the cached copy is wrong now.
        h.publish(1, b"k", g, 20, HotState::Unknown);
        assert!(matches!(h.lookup(1, b"k", 5), HotLookup::Stale));
        // A reader that observed the pre-incr value cannot resurrect it…
        h.publish(1, b"k", g, 15, present(b"old", 1));
        assert!(matches!(h.lookup(1, b"k", 5), HotLookup::Stale));
        // …but a fresh observation taken after the incr can.
        h.publish(1, b"k", g, 25, present(b"new", 2));
        assert!(matches!(h.lookup(1, b"k", 5), HotLookup::Hit(_)));
    }

    #[test]
    fn generation_bump_invalidates_everything() {
        let h = HotSet::new(8);
        h.retune(&[1, 2]);
        let g0 = h.current_gen();
        h.publish(1, b"a", g0, 10, present(b"v", 1));
        h.bump_gen();
        assert!(matches!(h.lookup(1, b"a", 5), HotLookup::Stale));
        // A publisher still holding the pre-bump generation is fenced out…
        h.publish(1, b"a", g0, 50, present(b"stale", 9));
        assert!(matches!(h.lookup(1, b"a", 5), HotLookup::Stale));
        // …while one that captured the new generation lands even with a
        // smaller stamp (stamps only order within a generation).
        h.publish(1, b"a", h.current_gen(), 5, present(b"w", 2));
        assert!(matches!(h.lookup(1, b"a", 5), HotLookup::Hit(_)));
    }

    #[test]
    fn expiry_is_checked_on_the_fast_path() {
        let h = HotSet::new(8);
        h.retune(&[1]);
        h.publish(
            1,
            b"k",
            h.current_gen(),
            10,
            HotState::Present {
                value: b"v".to_vec(),
                flags: 0,
                cas: 1,
                exp: 100,
            },
        );
        assert!(matches!(h.lookup(1, b"k", 99), HotLookup::Hit(_)));
        assert!(matches!(h.lookup(1, b"k", 100), HotLookup::Stale));
    }

    #[test]
    fn retune_keeps_survivors_and_clears_churn() {
        let h = HotSet::new(8);
        h.retune(&[1, 2]);
        let g = h.current_gen();
        h.publish(1, b"a", g, 10, present(b"v", 1));
        h.publish(2, b"b", g, 10, present(b"w", 2));
        h.retune(&[1, 10]); // 2 disarmed, 1 survives (entry kept warm)
        assert!(matches!(h.lookup(1, b"a", 5), HotLookup::Hit(_)));
        assert!(!h.is_tagged(2));
        assert!(h.is_tagged(10));
        assert_eq!(h.armed(), 2);
    }

    #[test]
    fn direct_map_collision_prefers_hotter() {
        let h = HotSet::new(8); // mask 7: 3 and 11 collide
        h.retune(&[3, 11]);
        assert!(h.is_tagged(3), "hotter (listed first) keeps the slot");
        assert!(!h.is_tagged(11));
    }

    #[test]
    fn tag_zero_hash_is_armable() {
        let h = HotSet::new(8);
        assert!(!h.is_tagged(0), "empty slot must not match hash 0");
        h.retune(&[0]);
        assert!(h.is_tagged(0));
    }

    #[test]
    fn sketch_finds_the_heavy_hitter() {
        let s = HotSketch::default();
        for i in 0..1000u32 {
            s.note(7);
            s.note(i.wrapping_mul(2654435761)); // noise
        }
        let top = s.drain();
        let seven = top.iter().find(|(hv, _)| *hv == 7);
        assert!(seven.is_some_and(|&(_, c)| c > 100), "lost the heavy hitter: {top:?}");
        assert!(s.drain().is_empty(), "drain must reset");
    }
}
