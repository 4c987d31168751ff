//! `mcache::dur` — the commit-time redo log and its replay recovery
//! (DESIGN §14).
//!
//! Durability rides the paper's §3.5 onCommit machinery: every mutation
//! that commits registers (via [`crate::ctx::Ctx::defer_or_run`]) a
//! handler that appends one redo record to an append-only segmented log,
//! labelled with the transaction's *commit stamp*
//! ([`tm::last_commit_stamp`]). Because onCommit handlers run after the
//! runtime has released every lock, the log write is outside every
//! transactional critical section — exactly the property the paper used
//! for `fprintf` — and because stamps are minted from the runtime's own
//! time base, sorting surviving records by `(epoch, stamp, file order)`
//! reproduces a serialization of the pre-crash history.
//!
//! On-disk format (all little-endian):
//!
//! ```text
//! segment   := header record*
//! header    := "MCDURSEG" version:u32 epoch:u64 cas_floor:u64 crc:u32
//! record    := len:u32 crc:u32 payload      (crc over payload)
//! payload   := stamp:u64 kind:u8 body
//! ```
//!
//! Torn tails — a record cut short by `kill -9` or a checksum mismatch —
//! end the segment scan silently (counted in `torn_records_dropped`); a
//! [`Record::Seal`] record marks a cleanly closed segment, so sealed
//! segments recover without trusting the tail heuristic.
//!
//! Failure policy: a failed append or fsync permanently drops the log
//! into **cache-only mode** — `log_write_errors` ticks, a warning prints
//! once, and every later append is a no-op. A durability fault never
//! panics a worker and never blocks a commit.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Segment filename prefix; full name is `seg-{epoch:016x}-{index:08}.log`.
const SEG_PREFIX: &str = "seg-";
/// Segment magic.
const SEG_MAGIC: &[u8; 8] = b"MCDURSEG";
/// Format version.
const SEG_VERSION: u32 = 1;
/// Header bytes: magic + version + epoch + cas_floor + crc.
const HEADER_BYTES: u64 = 8 + 4 + 8 + 8 + 4;
/// Upper bound on a single record payload — anything larger in a scan is
/// garbage (the cache itself caps values far below this).
const MAX_PAYLOAD: u32 = 64 << 20;

// ---------------------------------------------------------------------
// CRC-32 (IEEE), table-driven; no external dependency.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 (IEEE 802.3) over `data`.
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in data {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------
// Chaos injection (test-only, but compiled in: the crash harness drives a
// release child). Scoped to *writer appends* — recovery and compaction
// are never injected.

/// Appends attempted process-wide; the chaos triggers index into this.
#[doc(hidden)]
pub static APPEND_COUNTER: AtomicU64 = AtomicU64::new(0);
/// Appends with index >= this value fail as if the disk returned EIO.
#[doc(hidden)]
pub static CHAOS_FAIL_AFTER: AtomicU64 = AtomicU64::new(u64::MAX);
/// The append index at which the process aborts (`kill -9` analogue).
#[doc(hidden)]
pub static CHAOS_KILL_AT: AtomicU64 = AtomicU64::new(u64::MAX);
/// 0 = abort before writing, 1 = abort after half the frame (a torn
/// record), 2 = abort after the full frame.
#[doc(hidden)]
pub static CHAOS_KILL_MODE: AtomicU64 = AtomicU64::new(0);

// ---------------------------------------------------------------------
// Configuration & stats.

/// When the log writer calls `fdatasync`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DurFsync {
    /// Group commit: after every append, deduplicated — an append whose
    /// bytes another thread's sync already covered skips the syscall.
    Always,
    /// Sync once per N appends (and on rotation/seal).
    EveryN(u32),
    /// Never sync; the OS page cache is the only barrier. Survives
    /// process death (`kill -9`), not machine death.
    Off,
}

impl DurFsync {
    /// Parses `always`, `off`, `every:N` (or a bare integer = `every:N`).
    pub fn parse(s: &str) -> Option<DurFsync> {
        match s {
            "always" => Some(DurFsync::Always),
            "off" => Some(DurFsync::Off),
            _ => {
                let n = s.strip_prefix("every:").unwrap_or(s);
                n.parse::<u32>().ok().filter(|&n| n > 0).map(DurFsync::EveryN)
            }
        }
    }
}

impl std::fmt::Display for DurFsync {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurFsync::Always => write!(f, "always"),
            DurFsync::EveryN(n) => write!(f, "every:{n}"),
            DurFsync::Off => write!(f, "off"),
        }
    }
}

/// Durability counters, spliced into the ASCII `stats` response.
#[derive(Debug, Default)]
pub struct DurStats {
    pub(crate) appends: AtomicU64,
    pub(crate) fsyncs: AtomicU64,
    pub(crate) bytes: AtomicU64,
    pub(crate) write_errors: AtomicU64,
    pub(crate) recovered_items: AtomicU64,
    pub(crate) torn_records_dropped: AtomicU64,
    pub(crate) compactions: AtomicU64,
}

/// A point-in-time copy of [`DurStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DurSnapshot {
    /// Redo records appended (excluding seals).
    pub appends: u64,
    /// `fdatasync` calls issued.
    pub fsyncs: u64,
    /// Frame bytes written.
    pub bytes: u64,
    /// Appends dropped by I/O failure (cache-only mode) — includes the
    /// append that triggered degradation.
    pub log_write_errors: u64,
    /// Items replayed into the cache at the last startup.
    pub recovered_items: u64,
    /// Torn/corrupt records dropped during the last recovery scan.
    pub torn_records_dropped: u64,
    /// Log compactions performed at recovery.
    pub compactions: u64,
}

impl DurStats {
    /// Snapshots the counters.
    pub fn snapshot(&self) -> DurSnapshot {
        DurSnapshot {
            appends: self.appends.load(Ordering::Relaxed),
            fsyncs: self.fsyncs.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            log_write_errors: self.write_errors.load(Ordering::Relaxed),
            recovered_items: self.recovered_items.load(Ordering::Relaxed),
            torn_records_dropped: self.torn_records_dropped.load(Ordering::Relaxed),
            compactions: self.compactions.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------
// Records.

/// One redo record. Times are Unix seconds (`McCache::unix_time`), so a
/// replay in a fresh process — whose relative clock restarts at 2 — can
/// still order stores against `flush_all` watermarks and real expiry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Record {
    /// A committed store (set/add/replace/cas/append/prepend all land
    /// here: the record carries the full post-image).
    Set {
        /// CAS id the live cache assigned (feeds the recovery CAS floor).
        cas: u64,
        /// Client flags.
        flags: u32,
        /// Absolute expiry, Unix seconds; 0 = never.
        abs_exp: u64,
        /// Store time, Unix seconds (`flush_all` watermark comparisons).
        stored_unix: u64,
        /// Key bytes.
        key: Vec<u8>,
        /// Value bytes.
        value: Vec<u8>,
    },
    /// A committed delete.
    Del {
        /// Key bytes.
        key: Vec<u8>,
    },
    /// A committed incr/decr: the post-image is the decimal text of
    /// `value`. Does not touch expiry or store time (memcached
    /// semantics: `do_add_delta` rewrites in place).
    Arith {
        /// CAS id assigned by the arith (feeds the CAS floor).
        cas: u64,
        /// New numeric value.
        value: u64,
        /// Key bytes.
        key: Vec<u8>,
    },
    /// A committed touch: new expiry, and the item's last-access time
    /// moves (which is what `flush_all` compares against).
    Touch {
        /// Absolute expiry, Unix seconds; 0 = never.
        abs_exp: u64,
        /// Touch time, Unix seconds.
        touched_unix: u64,
        /// Key bytes.
        key: Vec<u8>,
    },
    /// A committed `flush_all`: everything stored at or before
    /// `flush_unix` is dead.
    FlushAll {
        /// Watermark, Unix seconds.
        flush_unix: u64,
    },
    /// Clean end-of-segment marker (graceful shutdown / compaction).
    Seal,
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.0.len() < n {
            return None;
        }
        let (a, b) = self.0.split_at(n);
        self.0 = b;
        Some(a)
    }
    fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }
    fn u32(&mut self) -> Option<u32> {
        self.take(4).map(|b| u32::from_le_bytes(b.try_into().unwrap()))
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(|b| u64::from_le_bytes(b.try_into().unwrap()))
    }
    fn bytes(&mut self) -> Option<Vec<u8>> {
        let n = self.u32()?;
        if n > MAX_PAYLOAD {
            return None;
        }
        self.take(n as usize).map(|b| b.to_vec())
    }
}

impl Record {
    fn kind(&self) -> u8 {
        match self {
            Record::Set { .. } => 1,
            Record::Del { .. } => 2,
            Record::Arith { .. } => 3,
            Record::Touch { .. } => 4,
            Record::FlushAll { .. } => 5,
            Record::Seal => 6,
        }
    }

    /// Encodes `stamp` + this record as a record payload.
    pub fn encode(&self, stamp: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_u64(&mut out, stamp);
        out.push(self.kind());
        match self {
            Record::Set { cas, flags, abs_exp, stored_unix, key, value } => {
                put_u64(&mut out, *cas);
                put_u32(&mut out, *flags);
                put_u64(&mut out, *abs_exp);
                put_u64(&mut out, *stored_unix);
                put_bytes(&mut out, key);
                put_bytes(&mut out, value);
            }
            Record::Del { key } => put_bytes(&mut out, key),
            Record::Arith { cas, value, key } => {
                put_u64(&mut out, *cas);
                put_u64(&mut out, *value);
                put_bytes(&mut out, key);
            }
            Record::Touch { abs_exp, touched_unix, key } => {
                put_u64(&mut out, *abs_exp);
                put_u64(&mut out, *touched_unix);
                put_bytes(&mut out, key);
            }
            Record::FlushAll { flush_unix } => put_u64(&mut out, *flush_unix),
            Record::Seal => {}
        }
        out
    }

    /// Decodes a record payload; `None` on any structural mismatch.
    pub fn decode(payload: &[u8]) -> Option<(u64, Record)> {
        let mut r = Reader(payload);
        let stamp = r.u64()?;
        let rec = match r.u8()? {
            1 => Record::Set {
                cas: r.u64()?,
                flags: r.u32()?,
                abs_exp: r.u64()?,
                stored_unix: r.u64()?,
                key: r.bytes()?,
                value: r.bytes()?,
            },
            2 => Record::Del { key: r.bytes()? },
            3 => Record::Arith { cas: r.u64()?, value: r.u64()?, key: r.bytes()? },
            4 => Record::Touch {
                abs_exp: r.u64()?,
                touched_unix: r.u64()?,
                key: r.bytes()?,
            },
            5 => Record::FlushAll { flush_unix: r.u64()? },
            6 => Record::Seal,
            _ => return None,
        };
        r.0.is_empty().then_some((stamp, rec))
    }
}

/// Frames a payload: `len crc payload`.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + payload.len());
    put_u32(&mut out, payload.len() as u32);
    put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

fn segment_name(epoch: u64, index: u32) -> String {
    format!("{SEG_PREFIX}{epoch:016x}-{index:08}.log")
}

/// Parses `seg-{epoch}-{index}.log`; `None` for foreign files.
fn parse_segment_name(name: &str) -> Option<(u64, u32)> {
    let rest = name.strip_prefix(SEG_PREFIX)?.strip_suffix(".log")?;
    let (e, i) = rest.split_once('-')?;
    Some((u64::from_str_radix(e, 16).ok()?, i.parse().ok()?))
}

fn header_bytes(epoch: u64, cas_floor: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES as usize);
    out.extend_from_slice(SEG_MAGIC);
    put_u32(&mut out, SEG_VERSION);
    put_u64(&mut out, epoch);
    put_u64(&mut out, cas_floor);
    let crc = crc32(&out[8..]);
    put_u32(&mut out, crc);
    out
}

/// Segment files under `dir`, sorted by `(epoch, index)`.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, u32, PathBuf)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some((epoch, index)) = name.to_str().and_then(parse_segment_name) {
            segs.push((epoch, index, entry.path()));
        }
    }
    segs.sort_by_key(|&(e, i, _)| (e, i));
    Ok(segs)
}

// ---------------------------------------------------------------------
// Writer.

struct WriterInner {
    file: File,
    seg_index: u32,
    seg_bytes: u64,
    /// Appends written (monotone).
    seq: u64,
    /// Appends known durable; the group-commit dedup floor.
    synced_seq: u64,
    appends_since_sync: u32,
}

/// The append-only log writer. One per cache; shared by every worker
/// through an `Arc`. All methods are infallible by contract: an I/O
/// error degrades to cache-only mode instead of surfacing.
pub struct DurLog {
    dir: PathBuf,
    epoch: u64,
    fsync: DurFsync,
    segment_bytes: u64,
    cas_floor: u64,
    inner: Mutex<WriterInner>,
    failed: AtomicBool,
    sealed: AtomicBool,
    stats: DurStats,
}

impl std::fmt::Debug for DurLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurLog")
            .field("dir", &self.dir)
            .field("epoch", &self.epoch)
            .field("fsync", &self.fsync)
            .finish_non_exhaustive()
    }
}

impl DurLog {
    /// Opens a fresh log epoch under `dir` (created if missing): one past
    /// the highest epoch already present, so this run's records sort
    /// after everything recovery just replayed. `cas_floor` is stamped
    /// into every segment header this writer creates.
    pub fn open(
        dir: &Path,
        fsync: DurFsync,
        segment_bytes: u64,
        cas_floor: u64,
    ) -> io::Result<DurLog> {
        fs::create_dir_all(dir)?;
        let epoch = list_segments(dir)?.iter().map(|&(e, _, _)| e).max().unwrap_or(0) + 1;
        let log = DurLog {
            dir: dir.to_path_buf(),
            epoch,
            fsync,
            // Floor low enough for tests, high enough to hold any record.
            segment_bytes: segment_bytes.max(4 * HEADER_BYTES),
            cas_floor,
            inner: Mutex::new(WriterInner {
                file: File::open("/dev/null")?, // placeholder, replaced below
                seg_index: 0,
                seg_bytes: 0,
                seq: 0,
                synced_seq: 0,
                appends_since_sync: 0,
            }),
            failed: AtomicBool::new(false),
            sealed: AtomicBool::new(false),
            stats: DurStats::default(),
        };
        let file = log.create_segment(0)?;
        {
            let mut g = log.inner.lock().unwrap();
            g.file = file;
            g.seg_bytes = HEADER_BYTES;
        }
        Ok(log)
    }

    /// Durability counters.
    pub fn stats(&self) -> &DurStats {
        &self.stats
    }

    /// True once an I/O failure dropped the log into cache-only mode.
    pub fn is_failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
    }

    /// Records the recovery outcome in this writer's stats (the writer
    /// outlives the recovery scan; the cache surfaces one stat block).
    pub fn note_recovery(&self, recovered_items: u64, torn: u64, compactions: u64) {
        self.stats.recovered_items.store(recovered_items, Ordering::Relaxed);
        self.stats.torn_records_dropped.store(torn, Ordering::Relaxed);
        self.stats.compactions.store(compactions, Ordering::Relaxed);
    }

    fn create_segment(&self, index: u32) -> io::Result<File> {
        let path = self.dir.join(segment_name(self.epoch, index));
        let mut file = OpenOptions::new().create_new(true).write(true).open(path)?;
        file.write_all(&header_bytes(self.epoch, self.cas_floor))?;
        Ok(file)
    }

    fn degrade(&self, what: &str, err: &io::Error) {
        self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
        if !self.failed.swap(true, Ordering::SeqCst) {
            eprintln!(
                "mcache: durability {what} failed ({err}); redo log disabled, \
                 continuing in cache-only mode"
            );
        }
    }

    /// Appends one record at `stamp`. Never blocks a commit on anything
    /// but the (short) writer critical section; never panics; after an
    /// I/O failure every call is a counted no-op.
    pub fn append(&self, stamp: u64, rec: &Record) {
        if self.failed.load(Ordering::Relaxed) {
            self.stats.write_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let payload = rec.encode(stamp);
        let buf = frame(&payload);
        // Chaos window: indexed per attempted append, before any byte
        // lands, so a seed-chosen kill point is deterministic in the
        // number of *operations*, not in fsync timing.
        let n = APPEND_COUNTER.fetch_add(1, Ordering::SeqCst);
        let kill_here = n == CHAOS_KILL_AT.load(Ordering::Relaxed);
        let kill_mode = CHAOS_KILL_MODE.load(Ordering::Relaxed);
        if kill_here && kill_mode == 0 {
            std::process::abort();
        }
        if n >= CHAOS_FAIL_AFTER.load(Ordering::Relaxed) {
            self.degrade(
                "append (chaos)",
                &io::Error::new(io::ErrorKind::Other, "injected I/O error"),
            );
            return;
        }
        let my_seq;
        let mut need_sync = false;
        {
            let mut g = self.inner.lock().unwrap();
            // Rotate before the frame would overflow the segment budget.
            if g.seg_bytes + buf.len() as u64 > self.segment_bytes && g.seg_bytes > HEADER_BYTES {
                if self.fsync != DurFsync::Off {
                    if let Err(e) = g.file.sync_data() {
                        drop(g);
                        self.degrade("rotation fsync", &e);
                        return;
                    }
                    self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                }
                match self.create_segment(g.seg_index + 1) {
                    Ok(f) => {
                        g.file = f;
                        g.seg_index += 1;
                        g.seg_bytes = HEADER_BYTES;
                        g.synced_seq = g.seq;
                        g.appends_since_sync = 0;
                    }
                    Err(e) => {
                        drop(g);
                        self.degrade("segment rotation", &e);
                        return;
                    }
                }
            }
            let write_res = if kill_here && kill_mode == 1 {
                // A torn record: half the frame, then death.
                let _ = g.file.write_all(&buf[..buf.len() / 2]);
                let _ = g.file.sync_data();
                std::process::abort();
            } else {
                g.file.write_all(&buf)
            };
            if let Err(e) = write_res {
                drop(g);
                self.degrade("append", &e);
                return;
            }
            g.seg_bytes += buf.len() as u64;
            g.seq += 1;
            my_seq = g.seq;
            self.stats.appends.fetch_add(1, Ordering::Relaxed);
            self.stats.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
            match self.fsync {
                DurFsync::Always => need_sync = true,
                DurFsync::EveryN(k) => {
                    g.appends_since_sync += 1;
                    if g.appends_since_sync >= k {
                        g.appends_since_sync = 0;
                        need_sync = true;
                    }
                }
                DurFsync::Off => {}
            }
        }
        if kill_here && kill_mode == 2 {
            std::process::abort();
        }
        if need_sync {
            // Group commit: re-acquire and skip the syscall if another
            // thread's sync already covered our bytes while we queued.
            let mut g = self.inner.lock().unwrap();
            if g.synced_seq < my_seq {
                match g.file.sync_data() {
                    Ok(()) => {
                        g.synced_seq = g.seq;
                        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        drop(g);
                        self.degrade("fsync", &e);
                    }
                }
            }
        }
    }

    /// Seals the current segment: appends a [`Record::Seal`] marker and
    /// syncs, regardless of fsync policy. Graceful-shutdown path; a
    /// sealed segment recovers without the torn-tail heuristic.
    pub fn seal(&self) {
        if self.failed.load(Ordering::Relaxed) || self.sealed.swap(true, Ordering::SeqCst) {
            return;
        }
        let buf = frame(&Record::Seal.encode(0));
        let mut g = self.inner.lock().unwrap();
        if let Err(e) = g.file.write_all(&buf).and_then(|()| g.file.sync_data()) {
            drop(g);
            self.degrade("seal", &e);
            return;
        }
        g.seg_bytes += buf.len() as u64;
        self.stats.fsyncs.fetch_add(1, Ordering::Relaxed);
        self.stats.bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Recovery.

/// One live entry reconstructed from the log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RecoveredEntry {
    /// Key bytes.
    pub key: Vec<u8>,
    /// Client flags.
    pub flags: u32,
    /// Absolute expiry, Unix seconds; 0 = never. Callers skip entries
    /// already expired at replay time.
    pub abs_exp: u64,
    /// Last store/touch time, Unix seconds.
    pub stored_unix: u64,
    /// Value bytes.
    pub value: Vec<u8>,
}

/// The outcome of a recovery scan.
#[derive(Debug, Default)]
pub struct Recovery {
    /// Live entries (flush watermark applied; expiry left to the
    /// caller's clock), in no particular order.
    pub entries: Vec<RecoveredEntry>,
    /// Highest CAS id observed across records and segment headers; the
    /// restarted cache must allocate strictly above this.
    pub cas_floor: u64,
    /// Records dropped as torn/corrupt (including corrupt headers).
    pub torn_records_dropped: u64,
    /// Intact records scanned.
    pub records_scanned: u64,
    /// Segment files visited.
    pub segments: u64,
    /// Highest epoch present (0 = empty log).
    pub max_epoch: u64,
    /// Total log bytes on disk (compaction trigger input).
    pub log_bytes: u64,
    /// True if the final segment ended in a clean [`Record::Seal`].
    pub sealed_tail: bool,
}

/// Scans every segment under `dir`, drops torn/corrupt tails, sorts the
/// survivors by `(epoch, stamp, append order)` and folds them into the
/// final key → entry map. A missing directory is an empty log.
pub fn recover(dir: &Path) -> io::Result<Recovery> {
    let mut out = Recovery::default();
    let segs = match list_segments(dir) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    // (epoch, stamp, scan_seq) -> record; scan_seq makes the sort's
    // equal-stamp tie-break the file append order (same-key appends under
    // one item lock are written in lock order).
    let mut records: Vec<(u64, u64, u64, Record)> = Vec::new();
    let mut seq = 0u64;
    for &(epoch, _, ref path) in &segs {
        out.segments += 1;
        out.max_epoch = out.max_epoch.max(epoch);
        let mut data = Vec::new();
        File::open(path)?.read_to_end(&mut data)?;
        out.log_bytes += data.len() as u64;
        out.sealed_tail = false;
        // Header.
        if data.len() < HEADER_BYTES as usize
            || &data[..8] != SEG_MAGIC
            || u32::from_le_bytes(data[8..12].try_into().unwrap()) != SEG_VERSION
            || crc32(&data[8..28]) != u32::from_le_bytes(data[28..32].try_into().unwrap())
        {
            out.torn_records_dropped += 1;
            continue;
        }
        let hdr_epoch = u64::from_le_bytes(data[12..20].try_into().unwrap());
        let hdr_floor = u64::from_le_bytes(data[20..28].try_into().unwrap());
        out.cas_floor = out.cas_floor.max(hdr_floor);
        let mut rest = &data[HEADER_BYTES as usize..];
        loop {
            if rest.is_empty() {
                break; // clean EOF without seal (crash with intact tail)
            }
            let torn = |out: &mut Recovery| out.torn_records_dropped += 1;
            if rest.len() < 8 {
                torn(&mut out);
                break;
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
            let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
            if len > MAX_PAYLOAD || rest.len() < 8 + len as usize {
                torn(&mut out);
                break;
            }
            let payload = &rest[8..8 + len as usize];
            if crc32(payload) != crc {
                torn(&mut out);
                break;
            }
            let Some((stamp, rec)) = Record::decode(payload) else {
                torn(&mut out);
                break;
            };
            rest = &rest[8 + len as usize..];
            if rec == Record::Seal {
                out.sealed_tail = rest.is_empty();
                break;
            }
            out.records_scanned += 1;
            records.push((hdr_epoch, stamp, seq, rec));
            seq += 1;
        }
    }
    // Serialization order: epoch (process run), then commit stamp, then
    // append order for equal stamps (norec direct-path ties).
    records.sort_by_key(|&(e, s, q, _)| (e, s, q));
    let mut map: HashMap<Vec<u8>, RecoveredEntry> = HashMap::new();
    // `flush_all` is time-based like the live cache's `is_live`: the max
    // watermark kills every entry stored at or before it, regardless of
    // replay position (a store in the flush second dies even if its
    // commit stamped after the flush — exactly memcached's rule).
    let mut flush_watermark = 0u64;
    for (_, _, _, rec) in records {
        match rec {
            Record::Set { cas, flags, abs_exp, stored_unix, key, value } => {
                out.cas_floor = out.cas_floor.max(cas);
                map.insert(
                    key.clone(),
                    RecoveredEntry { key, flags, abs_exp, stored_unix, value },
                );
            }
            Record::Del { key } => {
                map.remove(&key);
            }
            Record::Arith { cas, value, key } => {
                out.cas_floor = out.cas_floor.max(cas);
                if let Some(e) = map.get_mut(&key) {
                    e.value = value.to_string().into_bytes();
                }
            }
            Record::Touch { abs_exp, touched_unix, key } => {
                if let Some(e) = map.get_mut(&key) {
                    e.abs_exp = abs_exp;
                    e.stored_unix = touched_unix;
                }
            }
            Record::FlushAll { flush_unix } => {
                flush_watermark = flush_watermark.max(flush_unix);
            }
            Record::Seal => unreachable!("seals never enter the record list"),
        }
    }
    out.entries = map
        .into_values()
        .filter(|e| flush_watermark == 0 || e.stored_unix > flush_watermark)
        .collect();
    Ok(out)
}

/// Rewrites the log as one sealed segment (epoch `max_epoch + 1`)
/// holding exactly `entries`, then deletes the older segments. Returns
/// the epoch written. Called only at recovery time, before the writer
/// opens, so there is no concurrent appender.
pub fn compact(dir: &Path, rec: &Recovery, unix_now: u64) -> io::Result<u64> {
    let epoch = rec.max_epoch + 1;
    let path = dir.join(segment_name(epoch, 0));
    let mut file = OpenOptions::new().create_new(true).write(true).open(&path)?;
    let mut buf = header_bytes(epoch, rec.cas_floor);
    for (i, e) in rec.entries.iter().enumerate() {
        let r = Record::Set {
            cas: 0, // floor already carried by the header
            flags: e.flags,
            abs_exp: e.abs_exp,
            stored_unix: e.stored_unix.min(unix_now),
            key: e.key.clone(),
            value: e.value.clone(),
        };
        buf.extend_from_slice(&frame(&r.encode(i as u64 + 1)));
    }
    buf.extend_from_slice(&frame(&Record::Seal.encode(0)));
    file.write_all(&buf)?;
    file.sync_data()?;
    drop(file);
    // Directory durability for the create+unlinks, best-effort.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    for (e, _, p) in list_segments(dir)? {
        if e < epoch {
            let _ = fs::remove_file(p);
        }
    }
    Ok(epoch)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "mcache-dur-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn set(key: &[u8], value: &[u8], cas: u64, stored: u64) -> Record {
        Record::Set {
            cas,
            flags: 7,
            abs_exp: 0,
            stored_unix: stored,
            key: key.to_vec(),
            value: value.to_vec(),
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn record_roundtrip_all_kinds() {
        let records = [
            set(b"k", b"v", 42, 100),
            Record::Del { key: b"k".to_vec() },
            Record::Arith { cas: 9, value: 123, key: b"n".to_vec() },
            Record::Touch { abs_exp: 55, touched_unix: 50, key: b"k".to_vec() },
            Record::FlushAll { flush_unix: 77 },
            Record::Seal,
        ];
        for (i, r) in records.iter().enumerate() {
            let enc = r.encode(i as u64 + 10);
            let (stamp, dec) = Record::decode(&enc).expect("roundtrip");
            assert_eq!(stamp, i as u64 + 10);
            assert_eq!(&dec, r);
            // Any flipped byte must fail the crc at frame level.
            let f = frame(&enc);
            let payload = &f[8..];
            assert_eq!(crc32(payload), u32::from_le_bytes(f[4..8].try_into().unwrap()));
        }
        assert!(Record::decode(b"").is_none());
        assert!(Record::decode(&[0; 9]).is_none());
    }

    #[test]
    fn fsync_policy_parse() {
        assert_eq!(DurFsync::parse("always"), Some(DurFsync::Always));
        assert_eq!(DurFsync::parse("off"), Some(DurFsync::Off));
        assert_eq!(DurFsync::parse("every:8"), Some(DurFsync::EveryN(8)));
        assert_eq!(DurFsync::parse("16"), Some(DurFsync::EveryN(16)));
        assert_eq!(DurFsync::parse("every:0"), None);
        assert_eq!(DurFsync::parse("sometimes"), None);
        assert_eq!(DurFsync::EveryN(8).to_string(), "every:8");
    }

    #[test]
    fn write_then_recover_roundtrip() {
        let dir = tmpdir("roundtrip");
        let log = DurLog::open(&dir, DurFsync::Always, 1 << 20, 0).unwrap();
        log.append(10, &set(b"a", b"1", 1, 100));
        log.append(11, &set(b"b", b"2", 2, 101));
        log.append(12, &Record::Del { key: b"a".to_vec() });
        log.append(13, &Record::Arith { cas: 3, value: 5, key: b"b".to_vec() });
        log.seal();
        let s = log.stats().snapshot();
        assert_eq!(s.appends, 4);
        assert!(s.fsyncs >= 4, "always policy must sync: {s:?}");
        assert!(s.bytes > 0);
        drop(log);

        let rec = recover(&dir).unwrap();
        assert!(rec.sealed_tail, "sealed shutdown must be recognized");
        assert_eq!(rec.torn_records_dropped, 0);
        assert_eq!(rec.records_scanned, 4);
        assert_eq!(rec.cas_floor, 3);
        assert_eq!(rec.entries.len(), 1);
        let e = &rec.entries[0];
        assert_eq!(e.key, b"b");
        assert_eq!(e.value, b"5", "arith must replace the value text");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_silently() {
        let dir = tmpdir("torn");
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        log.append(10, &set(b"a", b"1", 1, 100));
        log.append(11, &set(b"b", b"2", 2, 100));
        drop(log);
        // Cut the last record in half.
        let (_, _, path) = list_segments(&dir).unwrap().pop().unwrap();
        let data = fs::read(&path).unwrap();
        fs::write(&path, &data[..data.len() - 5]).unwrap();
        let rec = recover(&dir).unwrap();
        assert!(!rec.sealed_tail);
        assert_eq!(rec.torn_records_dropped, 1);
        assert_eq!(rec.records_scanned, 1);
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].key, b"a");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_record_drops_rest_of_segment_only() {
        let dir = tmpdir("corrupt");
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        log.append(10, &set(b"a", b"1", 1, 100));
        log.append(11, &set(b"b", b"2", 2, 100));
        log.append(12, &set(b"c", b"3", 3, 100));
        drop(log);
        // Flip a byte inside record 2's payload.
        let (_, _, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut data = fs::read(&path).unwrap();
        let hdr = HEADER_BYTES as usize;
        let rec1_len = u32::from_le_bytes(data[hdr..hdr + 4].try_into().unwrap()) as usize + 8;
        data[hdr + rec1_len + 12] ^= 0xFF;
        fs::write(&path, &data).unwrap();
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.torn_records_dropped, 1, "one corrupt stop, not per-record");
        assert_eq!(rec.records_scanned, 1, "records after the corruption are gone");
        assert_eq!(rec.entries.len(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stamp_order_wins_over_file_order_across_interleaved_keys() {
        let dir = tmpdir("order");
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        // Two writers' handlers raced to the file: key k's newer stamp
        // landed first in the file. Replay must keep the newer value.
        log.append(20, &set(b"k", b"new", 2, 100));
        log.append(10, &set(b"k", b"old", 1, 100));
        drop(log);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries[0].value, b"new");
        fs::remove_dir_all(&dir).unwrap();

        // Equal stamps (norec ties): file order breaks the tie.
        let dir = tmpdir("order-tie");
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        log.append(10, &set(b"k", b"first", 1, 100));
        log.append(10, &set(b"k", b"second", 2, 100));
        drop(log);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries[0].value, b"second");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_all_kills_by_time_not_position() {
        let dir = tmpdir("flush");
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        log.append(10, &set(b"before", b"1", 1, 50));
        log.append(20, &Record::FlushAll { flush_unix: 100 });
        // Stored in the flush second, commit-stamped after the flush:
        // dead (memcached's `last <= watermark` rule).
        log.append(30, &set(b"same-second", b"2", 2, 100));
        log.append(40, &set(b"after", b"3", 3, 101));
        drop(log);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].key, b"after");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn touch_moves_expiry_and_flush_liveness() {
        let dir = tmpdir("touch");
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        log.append(10, &set(b"k", b"v", 1, 50));
        log.append(20, &Record::Touch { abs_exp: 500, touched_unix: 120, key: b"k".to_vec() });
        log.append(30, &Record::FlushAll { flush_unix: 100 });
        drop(log);
        let rec = recover(&dir).unwrap();
        // The touch moved last-access past the watermark: survives.
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.entries[0].abs_exp, 500);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_rotation_and_multi_epoch_recovery() {
        let dir = tmpdir("rotate");
        let log = DurLog::open(&dir, DurFsync::Off, 256, 0).unwrap();
        for i in 0..32u64 {
            log.append(10 + i, &set(format!("k{i}").as_bytes(), b"xxxxxxxxxxxxxxxx", i, 100));
        }
        drop(log);
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "tiny segment budget must rotate"
        );
        // Second epoch overwrites half the keys.
        let log = DurLog::open(&dir, DurFsync::Off, 256, 0).unwrap();
        for i in 0..16u64 {
            // Smaller stamps than epoch 1's: epoch ordering must dominate.
            log.append(1 + i, &set(format!("k{i}").as_bytes(), b"NEW", 100 + i, 200));
        }
        drop(log);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries.len(), 32);
        for e in &rec.entries {
            let i: u64 = std::str::from_utf8(&e.key[1..]).unwrap().parse().unwrap();
            if i < 16 {
                assert_eq!(e.value, b"NEW", "epoch 2 must win for k{i}");
            } else {
                assert_eq!(e.value, b"xxxxxxxxxxxxxxxx");
            }
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_rewrites_live_set_and_drops_old_segments() {
        let dir = tmpdir("compact");
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        for i in 0..64u64 {
            log.append(10 + i, &set(b"hot", format!("v{i}").as_bytes(), i + 1, 100));
        }
        log.append(100, &set(b"cold", b"keep", 65, 100));
        drop(log);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.entries.len(), 2);
        let live: u64 = rec.entries.iter().map(|e| (e.key.len() + e.value.len()) as u64).sum();
        assert!(live < rec.log_bytes / 2, "mostly-dead log: {live} vs {}", rec.log_bytes);
        let epoch = compact(&dir, &rec, 200).unwrap();
        assert_eq!(epoch, 2);
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1, "old segments must be deleted: {segs:?}");
        let rec2 = recover(&dir).unwrap();
        assert!(rec2.sealed_tail);
        assert_eq!(rec2.cas_floor, rec.cas_floor, "floor must ride the header");
        let mut vals: Vec<_> = rec2.entries.iter().map(|e| e.value.clone()).collect();
        vals.sort();
        assert_eq!(vals, vec![b"keep".to_vec(), b"v63".to_vec()]);
        // A new writer opens above the compacted epoch.
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        assert_eq!(log.epoch, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_dedups_fsyncs_across_threads() {
        let dir = tmpdir("group");
        let log = std::sync::Arc::new(DurLog::open(&dir, DurFsync::Always, 1 << 20, 0).unwrap());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = std::sync::Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..64u64 {
                        log.append(t * 1000 + i, &set(b"k", b"v", 1, 100));
                    }
                });
            }
        });
        let s = log.stats().snapshot();
        assert_eq!(s.appends, 256);
        assert!(
            s.fsyncs <= s.appends,
            "dedup must never sync more than once per append: {s:?}"
        );
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.records_scanned, 256);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_policy_batches_syncs() {
        let dir = tmpdir("everyn");
        let log = DurLog::open(&dir, DurFsync::EveryN(16), 1 << 20, 0).unwrap();
        for i in 0..64u64 {
            log.append(i, &set(b"k", b"v", 1, 100));
        }
        let s = log.stats().snapshot();
        assert_eq!(s.appends, 64);
        assert_eq!(s.fsyncs, 4, "64 appends / every:16 = 4 syncs: {s:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_dir_recovers_empty() {
        let rec = recover(Path::new("/definitely/not/a/real/mcache/dir")).unwrap();
        assert_eq!(rec.entries.len(), 0);
        assert_eq!(rec.segments, 0);
    }
}
