//! Per-thread, retry-reusable log arenas.
//!
//! Before this module existed, every transaction *attempt* allocated fresh
//! `Vec` read/write logs plus a `std::collections::HashMap` write-map, and
//! dropped them on commit or abort — so the hot path paid the allocator and
//! SipHash on every attempt, drowning the algorithmic differences the
//! paper's §4 measures (the redo-log tax of Lazy/NOrec on `memcpy`-heavy
//! transactions) in constant-factor noise.
//!
//! The arena fixes the constant factor without touching semantics:
//!
//! * [`LogBufs`] owns every per-attempt log (read set, redo log, held-lock
//!   list, undo log) plus the [`WriteMap`]. Buffers are **cleared, never
//!   freed** between attempts, and returned to a thread-local slot between
//!   transactions, so a steady-state transaction performs zero heap
//!   allocations.
//! * [`WriteMap`] replaces the `HashMap<usize, usize>` redo-log index: an
//!   open-addressed, linear-probing table over a power-of-two slab, with
//!   generation-stamped slots (clearing is a counter bump, not a memset).
//!   Transactions with at most [`SMALL_WRITES`] distinct writes — the tiny
//!   IP lock-acquire transactions that dominate the paper's Table 1 — never
//!   touch the table at all: the redo log itself is scanned inline.
//! * `onCommit`/`onAbort` handler vectors keep their backing storage across
//!   retries *and* across transactions (the `'env`-erased allocation is
//!   cached while empty; see [`Arena::take_handler_vecs`]).
//! * [`ThreadCtx`] is the crate's one thread-local: the cached arena plus
//!   the few words a transaction needs from its thread (ordinal, tx-id
//!   block, last commit stamp, commit/abort tally). `run_loop` looks it up
//!   once per transaction; what an engine needs per operation (the stat
//!   deltas) rides in the arena it takes from it.

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::stats::{StatDeltas, ThreadTally};
use crate::sync_count::{self, SyncSite};

/// Write-set size up to which the redo log is scanned inline instead of
/// consulting the [`WriteMap`]. Eight entries cover the paper's small
/// transactions (item-lock acquire/release touches 1–2 words) while a
/// linear scan still fits in a couple of cache lines.
pub(crate) const SMALL_WRITES: usize = 8;

/// Read-set size up to which the read log is scanned inline for the
/// duplicate-read check, mirroring [`SMALL_WRITES`].
pub(crate) const SMALL_READS: usize = 8;

/// One slot of the open-addressed write-map. `gen` stamps liveness: a slot
/// whose generation differs from the table's is vacant, which makes
/// clearing O(1).
#[derive(Clone, Copy, Default)]
struct Slot {
    gen: u32,
    idx: u32,
    addr: usize,
}

/// Open-addressed `word address -> redo-log index` map: linear probing over
/// a power-of-two slab, generation-stamped clearing, grow-on-spill.
pub(crate) struct WriteMap {
    slots: Box<[Slot]>,
    mask: usize,
    len: usize,
    gen: u32,
}

impl Default for WriteMap {
    fn default() -> Self {
        WriteMap::new()
    }
}

impl WriteMap {
    const INITIAL_SLOTS: usize = 64;

    pub(crate) fn new() -> Self {
        WriteMap {
            slots: Box::default(),
            mask: 0,
            len: 0,
            gen: 1,
        }
    }

    /// Fibonacci hash over the raw key, high bits folded into the probe
    /// start. The key is a word address for the write map and NOrec's read
    /// map but an **orec index** for eager/lazy read maps — so no
    /// alignment pre-shift here: stripping low bits would collapse eight
    /// consecutive orec indices into one probe cluster, and the multiply
    /// mixes zeroed alignment bits fine on its own.
    #[inline]
    fn probe_start(&self, addr: usize) -> usize {
        let h = addr.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 24) & self.mask
    }

    /// Looks up the redo-log index recorded for `addr`.
    #[inline]
    pub(crate) fn get(&self, addr: usize) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mut i = self.probe_start(addr);
        loop {
            let s = self.slots[i];
            if s.gen != self.gen {
                return None;
            }
            if s.addr == addr {
                return Some(s.idx as usize);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Records `addr -> idx`. The caller must have checked `addr` is absent
    /// (the redo log keeps one entry per address).
    pub(crate) fn insert(&mut self, addr: usize, idx: usize) {
        if self.len + 1 > self.slots.len() / 4 * 3 {
            self.grow();
        }
        let mut i = self.probe_start(addr);
        loop {
            let s = &mut self.slots[i];
            if s.gen != self.gen {
                *s = Slot {
                    gen: self.gen,
                    idx: idx as u32,
                    addr,
                };
                self.len += 1;
                return;
            }
            debug_assert_ne!(s.addr, addr, "WriteMap::insert of a present address");
            i = (i + 1) & self.mask;
        }
    }

    /// Single-probe lookup-or-insert: returns the index already recorded
    /// for `addr`, or records `addr -> idx` in the vacant slot the probe
    /// ended on and returns `None`. One probe sequence where a
    /// [`WriteMap::get`] miss followed by [`WriteMap::insert`] would pay
    /// two — the spilled read path does this once per read.
    #[inline]
    pub(crate) fn get_or_insert(&mut self, addr: usize, idx: usize) -> Option<usize> {
        if self.len + 1 > self.slots.len() / 4 * 3 {
            self.grow();
        }
        let mut i = self.probe_start(addr);
        loop {
            let s = &mut self.slots[i];
            if s.gen != self.gen {
                *s = Slot {
                    gen: self.gen,
                    idx: idx as u32,
                    addr,
                };
                self.len += 1;
                return None;
            }
            if s.addr == addr {
                return Some(s.idx as usize);
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Populates the table from a deduplicated redo log (the spill path
    /// when a transaction outgrows the inline small-write scan).
    pub(crate) fn rebuild(&mut self, writes: &[(usize, u64)]) {
        self.clear();
        for (idx, &(addr, _)) in writes.iter().enumerate() {
            self.insert(addr, idx);
        }
    }

    fn grow(&mut self) {
        let new_cap = (self.slots.len() * 2).max(Self::INITIAL_SLOTS);
        let old = std::mem::replace(
            &mut self.slots,
            vec![Slot::default(); new_cap].into_boxed_slice(),
        );
        let old_gen = self.gen;
        self.mask = new_cap - 1;
        self.gen = 1;
        self.len = 0;
        for s in old.iter().filter(|s| s.gen == old_gen) {
            self.insert(s.addr, s.idx as usize);
        }
    }

    /// Empties the table in O(1) by bumping the generation stamp.
    pub(crate) fn clear(&mut self) {
        self.len = 0;
        if self.gen == u32::MAX {
            self.slots.iter_mut().for_each(|s| *s = Slot::default());
            self.gen = 1;
        } else {
            self.gen += 1;
        }
    }

    /// Number of live entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

impl fmt::Debug for WriteMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteMap")
            .field("len", &self.len)
            .field("slots", &self.slots.len())
            .finish()
    }
}

/// The per-attempt log buffers, shared by both engines (the orec engine
/// and NOrec). Which fields an engine uses (and what the `u64` payload
/// means) differs per engine; the arena only cares that all of them are
/// `(usize, u64)` pairs whose storage is worth keeping.
#[derive(Debug, Default)]
pub(crate) struct LogBufs {
    /// Read set: the orec engine records `(orec index, observed
    /// OrecValue)`, NOrec `(word address, value read)`.
    pub(crate) reads: Vec<(usize, u64)>,
    /// Redo log in program order, one entry per distinct address:
    /// `(word address, buffered value)`. Empty under eager, which writes
    /// in place.
    pub(crate) writes: Vec<(usize, u64)>,
    /// Orecs held `(orec index, pre-lock value)`: taken when a word is
    /// first written under eager, at commit under lazy. Unused by NOrec.
    pub(crate) locks: Vec<(usize, u64)>,
    /// Undo log `(word address, previous value)` of eager's in-place
    /// writes. Empty under lazy and NOrec.
    pub(crate) undo: Vec<(usize, u64)>,
    /// Redo-log index for [`LogBufs::writes`] past the inline window.
    pub(crate) wmap: WriteMap,
    /// Read-set index for [`LogBufs::reads`] past the inline window, keyed
    /// the same way as the read log (orec index or word address).
    pub(crate) rmap: WriteMap,
    /// Counters this attempt has bumped (read-log dedup hits, snapshot
    /// extensions, elisions, begin/commit/abort, ...), private until the
    /// runtime flushes them into the thread's stat block when the attempt
    /// ends. They survive [`LogBufs::clear`], which engines call before the
    /// runtime gets to flush.
    pub(crate) stats: StatDeltas,
    /// `(orec index, locked value seen)` of the orec another transaction
    /// held when this attempt aborted on it (eager and lazy only). Like the
    /// stat deltas it survives [`LogBufs::clear`]; the retry loop takes it
    /// and waits for that orec word to change before the next attempt.
    pub(crate) blocked_on: Option<(usize, u64)>,
    /// High-watermark log sizes observed on this thread, updated as each
    /// attempt's logs are cleared. [`LogBufs::prewarm`] reserves to these
    /// marks up front, so a workload's steady-state transaction shape never
    /// reallocates mid-attempt — the mutation fast lane's "pre-sized
    /// redo/undo reservation" hints.
    peak_reads: usize,
    peak_writes: usize,
    peak_undo: usize,
}

impl LogBufs {
    /// Clears every log, keeping all backing storage (and the unflushed
    /// stat deltas); the high-watermark size hints are refreshed here,
    /// where the attempt's final log sizes are still visible.
    pub(crate) fn clear(&mut self) {
        self.peak_reads = self.peak_reads.max(self.reads.len());
        self.peak_writes = self.peak_writes.max(self.writes.len());
        self.peak_undo = self.peak_undo.max(self.undo.len());
        self.reads.clear();
        self.writes.clear();
        self.locks.clear();
        self.undo.clear();
        self.wmap.clear();
        self.rmap.clear();
    }

    /// Reserves log capacity up to the high-watermarks recorded by previous
    /// attempts on this thread. A no-op at steady state (cleared vectors
    /// keep their capacity); after a fresh arena or a workload shape change
    /// it front-loads the growth so no log reallocates mid-attempt.
    pub(crate) fn prewarm(&mut self) {
        if self.reads.capacity() < self.peak_reads {
            self.reads.reserve(self.peak_reads - self.reads.len());
        }
        if self.writes.capacity() < self.peak_writes {
            self.writes.reserve(self.peak_writes - self.writes.len());
            // A redo log past the inline window will index itself; size the
            // map for the expected spill instead of growing it in-flight.
            self.locks.reserve(self.peak_writes.saturating_sub(self.locks.len()));
        }
        if self.undo.capacity() < self.peak_undo {
            self.undo.reserve(self.peak_undo - self.undo.len());
        }
    }

    /// Duplicate-check-and-append in one pass: returns `Some(slot)` when
    /// the read log already holds `key` (orec index for eager/lazy, word
    /// address for NOrec — the caller refreshes the logged observation),
    /// otherwise appends `key -> v` and returns `None`. Reads at most
    /// [`SMALL_READS`] scan the log inline and never build the index; past
    /// the window the index is probed exactly once per read, where a
    /// lookup-miss-then-insert pair would pay two probe walks.
    #[inline]
    pub(crate) fn read_slot_or_append(&mut self, key: usize, v: u64) -> Option<usize> {
        if self.reads.len() <= SMALL_READS {
            if let Some(slot) = self.reads.iter().position(|&(k, _)| k == key) {
                return Some(slot);
            }
            if self.reads.len() == SMALL_READS {
                // Spilling past the inline window: index everything so far.
                self.rmap.rebuild(&self.reads);
                self.rmap.insert(key, self.reads.len());
            }
            self.reads.push((key, v));
            None
        } else {
            match self.rmap.get_or_insert(key, self.reads.len()) {
                Some(slot) => Some(slot),
                None => {
                    self.reads.push((key, v));
                    None
                }
            }
        }
    }

    /// Looks up the buffered value for `addr` in the redo log.
    ///
    /// Small-write fast path: transactions with at most [`SMALL_WRITES`]
    /// distinct writes scan the log inline and never build the map.
    #[inline]
    pub(crate) fn redo_lookup(&self, addr: usize) -> Option<u64> {
        if self.writes.len() <= SMALL_WRITES {
            self.writes
                .iter()
                .find(|&&(a, _)| a == addr)
                .map(|&(_, v)| v)
        } else {
            self.wmap.get(addr).map(|i| self.writes[i].1)
        }
    }

    /// Buffers `addr -> v`, overwriting an existing entry for the same
    /// address (the redo log holds one entry per address, so `writes.len()`
    /// *is* the deduplicated write-set size).
    #[inline]
    pub(crate) fn redo_record(&mut self, addr: usize, v: u64) {
        if self.writes.len() <= SMALL_WRITES {
            if let Some(e) = self.writes.iter_mut().find(|e| e.0 == addr) {
                e.1 = v;
                return;
            }
            self.writes.push((addr, v));
            if self.writes.len() == SMALL_WRITES + 1 {
                // Spilled past the inline window: index everything so far.
                self.wmap.rebuild(&self.writes);
            }
        } else {
            match self.wmap.get(addr) {
                Some(i) => self.writes[i].1 = v,
                None => {
                    self.wmap.insert(addr, self.writes.len());
                    self.writes.push((addr, v));
                }
            }
        }
    }
}

/// A type-erased (empty) handler vector: only the allocation is reused,
/// never any `'env` contents.
type HandlerVec = Vec<Box<dyn FnOnce()>>;

/// The per-thread transaction arena: log buffers plus the cached backing
/// storage of the `onCommit`/`onAbort` handler vectors.
#[derive(Default)]
pub(crate) struct Arena {
    pub(crate) logs: LogBufs,
    commit_handlers: HandlerVec,
    abort_handlers: HandlerVec,
}

impl fmt::Debug for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Arena").field("logs", &self.logs).finish_non_exhaustive()
    }
}

/// Re-lifetimes an empty handler vector. Sound because the vector holds no
/// elements: only the raw allocation (pointer + capacity) is carried
/// across, and `Box<dyn FnOnce() + 'a>` has the same layout for every
/// `'a`.
fn relifetime<'from, 'to>(mut v: Vec<Box<dyn FnOnce() + 'from>>) -> Vec<Box<dyn FnOnce() + 'to>> {
    v.clear();
    let cap = v.capacity();
    let ptr = v.as_mut_ptr();
    std::mem::forget(v);
    // SAFETY: len is 0, so no element is ever read at the new lifetime;
    // ptr/cap describe the same allocation with an identical element
    // layout (lifetimes do not affect layout).
    unsafe { Vec::from_raw_parts(ptr.cast::<Box<dyn FnOnce() + 'to>>(), 0, cap) }
}

impl Arena {
    /// Borrows the cached `onCommit`/`onAbort` handler storage at the
    /// transaction's environment lifetime. Must be paired with
    /// [`ThreadCtx::release`].
    pub(crate) fn take_handler_vecs<'env>(
        &mut self,
    ) -> (
        Vec<Box<dyn FnOnce() + 'env>>,
        Vec<Box<dyn FnOnce() + 'env>>,
    ) {
        (
            relifetime(std::mem::take(&mut self.commit_handlers)),
            relifetime(std::mem::take(&mut self.abort_handlers)),
        )
    }
}

/// Process-wide thread ordinal source. A thread keeps one ordinal for
/// life; each runtime's statistics mask it down to a block.
static THREAD_ORDINALS: AtomicU64 = AtomicU64::new(0);

/// Transaction ids are handed out in per-thread blocks of this many.
const TX_ID_BLOCK: u64 = 1 << 20;

/// Next unclaimed id block. Block 0 is never issued: id 0 means "open" to
/// the hourglass gate.
static TX_ID_BLOCKS: AtomicU64 = AtomicU64::new(1);

/// Everything a transaction needs from the thread it runs on, behind the
/// crate's single `thread_local!`. All interior-mutable through `Cell`s,
/// so a reentrant transaction (begun from a handler or a transaction body)
/// shares it freely; only the arena is exclusive, and a reentrant taker
/// simply finds the slot empty and builds a fresh one.
pub(crate) struct ThreadCtx {
    /// This thread's process-wide ordinal.
    pub(crate) ord: u64,
    /// The next transaction id this thread will issue; a multiple of
    /// [`TX_ID_BLOCK`] means the block is spent (or was never claimed).
    next_tx_id: Cell<u64>,
    /// Commit stamp of this thread's most recent committed attempt.
    pub(crate) last_commit_stamp: Cell<u64>,
    /// Commits/aborts since the last [`crate::take_thread_tally`].
    pub(crate) tally: Cell<ThreadTally>,
    arena: Cell<Option<Box<Arena>>>,
}

thread_local! {
    static CTX: ThreadCtx = ThreadCtx {
        ord: THREAD_ORDINALS.fetch_add(1, Ordering::Relaxed),
        next_tx_id: Cell::new(0),
        last_commit_stamp: Cell::new(0),
        tally: Cell::new(ThreadTally { commits: 0, aborts: 0 }),
        arena: Cell::new(None),
    };
}

impl ThreadCtx {
    /// Runs `f` with the calling thread's context.
    #[inline]
    pub(crate) fn with<R>(f: impl FnOnce(&ThreadCtx) -> R) -> R {
        CTX.with(f)
    }

    /// A transaction id no other transaction of this process has or will
    /// have, and never 0 — all the runtime asks of one (orec ownership,
    /// the hourglass gate). Ids come from a thread-private block, so
    /// minting touches shared memory once per [`TX_ID_BLOCK`] transactions
    /// and the scheme holds for any number of threads or transactions.
    #[inline]
    pub(crate) fn mint_tx_id(&self) -> u64 {
        let mut id = self.next_tx_id.get();
        if id.is_multiple_of(TX_ID_BLOCK) {
            sync_count::rmw(SyncSite::TxId);
            id = TX_ID_BLOCKS.fetch_add(1, Ordering::Relaxed) * TX_ID_BLOCK;
        }
        self.next_tx_id.set(id + 1);
        id
    }

    /// Takes this thread's cached arena, or a fresh one if none is cached
    /// (first transaction on the thread, or a reentrant transaction). The
    /// logs come back pre-reserved to this thread's high-watermark hints.
    pub(crate) fn take_arena(&self) -> Box<Arena> {
        let mut a = self.arena.take().unwrap_or_default();
        a.logs.prewarm();
        a
    }

    /// Returns an arena (plus the handler vectors borrowed from it) to the
    /// thread's cache, clearing everything but keeping all storage. The
    /// handler vectors must already be empty (drained by commit or abort);
    /// any stragglers are dropped here before the lifetime is erased. At
    /// most one arena is cached: one a reentrant transaction left in the
    /// slot is dropped in favour of this one.
    pub(crate) fn release<'env>(
        &self,
        mut arena: Box<Arena>,
        commit_handlers: Vec<Box<dyn FnOnce() + 'env>>,
        abort_handlers: Vec<Box<dyn FnOnce() + 'env>>,
    ) {
        debug_assert!(commit_handlers.is_empty() && abort_handlers.is_empty());
        arena.commit_handlers = relifetime(commit_handlers);
        arena.abort_handlers = relifetime(abort_handlers);
        arena.logs.clear();
        self.arena.set(Some(arena));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writemap_insert_get_roundtrip() {
        let mut m = WriteMap::new();
        for i in 0..200usize {
            m.insert(0x1000 + i * 8, i);
        }
        assert_eq!(m.len(), 200);
        for i in 0..200usize {
            assert_eq!(m.get(0x1000 + i * 8), Some(i));
        }
        assert_eq!(m.get(0x1000 + 200 * 8), None);
    }

    #[test]
    fn writemap_clear_is_generation_bump() {
        let mut m = WriteMap::new();
        m.insert(0x2000, 0);
        let slots_before = m.slots.len();
        m.clear();
        assert_eq!(m.get(0x2000), None);
        assert_eq!(m.len(), 0);
        assert_eq!(m.slots.len(), slots_before, "clear must not free the slab");
        m.insert(0x2000, 7);
        assert_eq!(m.get(0x2000), Some(7));
    }

    #[test]
    fn writemap_survives_generation_wraparound() {
        let mut m = WriteMap::new();
        m.insert(0x3000, 1);
        m.gen = u32::MAX - 1;
        m.clear(); // -> MAX
        m.insert(0x3000, 2);
        assert_eq!(m.get(0x3000), Some(2));
        m.clear(); // wraps: full rezero
        assert_eq!(m.gen, 1);
        assert_eq!(m.get(0x3000), None);
        m.insert(0x3000, 3);
        assert_eq!(m.get(0x3000), Some(3));
    }

    #[test]
    fn redo_log_stays_deduplicated_across_the_spill() {
        let mut b = LogBufs::default();
        // Fill the inline window, overwriting one address repeatedly.
        for i in 0..SMALL_WRITES {
            b.redo_record(0x4000 + i * 8, i as u64);
            b.redo_record(0x4000, 100 + i as u64);
        }
        assert_eq!(b.writes.len(), SMALL_WRITES, "overwrites must not grow the log");
        // Spill well past the window.
        for i in SMALL_WRITES..100 {
            b.redo_record(0x4000 + i * 8, i as u64);
        }
        assert_eq!(b.writes.len(), 100);
        assert_eq!(b.wmap.len(), 100, "wmap and writes must agree after the spill");
        // Every address maps to its (unique) log entry, via both paths.
        for i in 0..100usize {
            let expect = if i == 0 {
                100 + SMALL_WRITES as u64 - 1
            } else {
                i as u64
            };
            assert_eq!(b.redo_lookup(0x4000 + i * 8), Some(expect), "addr {i}");
        }
        // Overwrite through the map path; the log must not grow.
        b.redo_record(0x4000 + 50 * 8, 999);
        assert_eq!(b.writes.len(), 100);
        assert_eq!(b.redo_lookup(0x4000 + 50 * 8), Some(999));
        b.clear();
        assert!(b.writes.is_empty());
        assert_eq!(b.redo_lookup(0x4000), None);
    }

    #[test]
    fn writemap_get_or_insert_is_single_probe_equivalent() {
        let mut m = WriteMap::new();
        // Miss inserts and reports None; hit returns the recorded index
        // without disturbing it. Orec-index-shaped keys (small, dense)
        // must spread, not cluster.
        for i in 0..100usize {
            assert_eq!(m.get_or_insert(i, i * 3), None, "first probe of {i}");
        }
        for i in 0..100usize {
            assert_eq!(m.get_or_insert(i, 777), Some(i * 3), "key {i}");
            assert_eq!(m.get(i), Some(i * 3), "get after hit {i}");
        }
        assert_eq!(m.len(), 100);
    }

    #[test]
    fn read_log_stays_deduplicated_across_the_spill() {
        let mut b = LogBufs::default();
        // Inline window: duplicates refresh in place, no index is built.
        for i in 0..SMALL_READS {
            assert_eq!(b.read_slot_or_append(i, i as u64), None);
            assert_eq!(b.read_slot_or_append(i, 0), Some(i));
        }
        assert_eq!(b.reads.len(), SMALL_READS);
        assert_eq!(b.rmap.len(), 0, "inline window must not touch the index");
        // A duplicate at exactly the window edge still resolves inline.
        assert_eq!(b.read_slot_or_append(0, 0), Some(0));
        assert_eq!(b.rmap.len(), 0);
        // Spill well past the window; dedup must keep working via the map.
        for i in SMALL_READS..100 {
            assert_eq!(b.read_slot_or_append(i, i as u64), None, "fresh key {i}");
        }
        assert_eq!(b.reads.len(), 100);
        assert_eq!(b.rmap.len(), 100, "rmap and reads must agree after the spill");
        for i in 0..100usize {
            assert_eq!(b.read_slot_or_append(i, 0), Some(i), "spilled dup {i}");
        }
        assert_eq!(b.reads.len(), 100, "duplicates must not grow the log");
        b.clear();
        assert!(b.reads.is_empty());
        assert_eq!(b.read_slot_or_append(5, 1), None, "fresh after clear");
    }

    #[test]
    fn prewarm_reserves_to_the_high_watermark() {
        let mut b = LogBufs::default();
        for i in 0..50usize {
            b.reads.push((i, 0));
            b.writes.push((i, 0));
            b.undo.push((i, 0));
        }
        b.clear();
        // A fresh arena has no capacity yet but inherits the hints.
        b.reads = Vec::new();
        b.writes = Vec::new();
        b.undo = Vec::new();
        b.prewarm();
        assert!(b.reads.capacity() >= 50, "reads hint not applied");
        assert!(b.writes.capacity() >= 50, "writes hint not applied");
        assert!(b.undo.capacity() >= 50, "undo hint not applied");
        // Steady state: prewarm against retained capacity must not shrink.
        let cap = b.reads.capacity();
        b.prewarm();
        assert_eq!(b.reads.capacity(), cap);
    }

    #[test]
    fn stat_deltas_survive_clear() {
        use crate::stats::Counter;
        let mut b = LogBufs::default();
        b.stats.bump(Counter::read_log_dedup_hits);
        b.reads.push((1, 2));
        b.clear();
        assert!(b.reads.is_empty());
        assert_eq!(b.stats.get(Counter::read_log_dedup_hits), 1);
    }

    #[test]
    fn arena_take_release_reuses_capacity() {
        ThreadCtx::with(|tc| {
            // Prime the thread's cached arena with grown buffers.
            let mut a = tc.take_arena();
            a.logs.reads.reserve(1024);
            let cap = a.logs.reads.capacity();
            let (ch, ah) = a.take_handler_vecs();
            tc.release(a, ch, ah);
            // The next take on this thread sees the same storage.
            let mut a2 = tc.take_arena();
            assert!(a2.logs.reads.capacity() >= cap, "capacity must survive release/take");
            let (ch, ah) = a2.take_handler_vecs();
            assert!(ch.is_empty() && ah.is_empty());
            tc.release(a2, ch, ah);
        });
    }

    #[test]
    fn handler_storage_survives_relifetime() {
        ThreadCtx::with(|tc| {
            let mut a = tc.take_arena();
            let (mut ch, ah) = a.take_handler_vecs();
            ch.reserve(32);
            let cap = ch.capacity();
            ch.push(Box::new(|| {}));
            ch.clear();
            tc.release(a, ch, ah);
            let mut a = tc.take_arena();
            let (ch, _ah) = a.take_handler_vecs();
            assert!(ch.capacity() >= cap, "handler allocation must be reused");
        });
    }

    #[test]
    fn reentrant_take_builds_a_fresh_arena_and_one_stays_cached() {
        ThreadCtx::with(|tc| {
            let mut outer = tc.take_arena();
            outer.logs.reads.reserve(512);
            // The slot is empty while `outer` is out: a transaction begun
            // from a handler gets its own, fresh arena.
            let mut inner = tc.take_arena();
            assert_eq!(inner.logs.reads.capacity(), 0);
            let (ch, ah) = inner.take_handler_vecs();
            tc.release(inner, ch, ah);
            let (ch, ah) = outer.take_handler_vecs();
            tc.release(outer, ch, ah);
            // The outer (grown) arena replaced the inner one in the slot.
            assert!(tc.take_arena().logs.reads.capacity() >= 512);
        });
    }

    #[test]
    fn tx_ids_are_unique_nonzero_and_block_local() {
        let mine: Vec<u64> = ThreadCtx::with(|tc| (0..1000).map(|_| tc.mint_tx_id()).collect());
        assert!(mine.windows(2).all(|w| w[1] == w[0] + 1), "ids run consecutively in a block");
        let theirs: Vec<u64> = std::thread::spawn(|| {
            ThreadCtx::with(|tc| (0..1000).map(|_| tc.mint_tx_id()).collect())
        })
        .join()
        .unwrap();
        assert!(mine.iter().chain(&theirs).all(|&id| id != 0 && id < 1 << 62));
        assert_ne!(mine[0] / TX_ID_BLOCK, theirs[0] / TX_ID_BLOCK, "threads draw from distinct blocks");
    }

    #[test]
    fn a_spent_id_block_is_replaced() {
        ThreadCtx::with(|tc| {
            let first = tc.mint_tx_id();
            // Jump to the last id of the block instead of minting 2^20.
            let last = first / TX_ID_BLOCK * TX_ID_BLOCK + TX_ID_BLOCK - 1;
            tc.next_tx_id.set(last);
            assert_eq!(tc.mint_tx_id(), last);
            let next = tc.mint_tx_id();
            assert_eq!(next % TX_ID_BLOCK, 0, "a fresh block starts at its base");
            assert_ne!(next / TX_ID_BLOCK, first / TX_ID_BLOCK);
            assert_eq!(tc.mint_tx_id(), next + 1);
        });
    }
}
