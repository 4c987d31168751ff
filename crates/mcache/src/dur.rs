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

use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasher, BuildHasherDefault, Hash, Hasher};
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
// CRC-32 (IEEE), slicing-by-8; no external dependency. The one CRC of the
// writer and of recovery: a 40 MB recovery scan is mostly this loop.

/// `T[0]` is the classic byte-wise table; `T[k][b]` is the CRC of byte `b`
/// followed by `k` zero bytes, which lets eight input bytes fold per step.
const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = t[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3) over `data`: the carry-less-multiply kernel where
/// the CPU has one, the tables elsewhere. Both are tested against each
/// other and against a byte-at-a-time reference.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_clmul(data).unwrap_or_else(|| crc32_table(data))
}

/// CRC-32 over `data` by the slicing-by-8 tables alone.
pub(crate) fn crc32_table(data: &[u8]) -> u32 {
    !crc32_update(!0, data)
}

/// Advances the (uninverted) CRC register `c` over `data`, eight bytes
/// per step, the rest one at a time.
fn crc32_update(mut c: u32, data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut chunks = data.chunks_exact(8);
    for ch in &mut chunks {
        let lo = u32::from_le_bytes([ch[0], ch[1], ch[2], ch[3]]) ^ c;
        let hi = u32::from_le_bytes([ch[4], ch[5], ch[6], ch[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC-32 over `data` by the PCLMULQDQ folding kernel; `None` where the
/// CPU lacks PCLMULQDQ or SSE4.1 (or is not x86-64).
pub(crate) fn crc32_clmul(data: &[u8]) -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("pclmulqdq") && std::is_x86_feature_detected!("sse4.1") {
        // SAFETY: both target features were just detected.
        return Some(unsafe { clmul::crc32(data) });
    }
    let _ = data;
    None
}

/// Folding CRC-32 with carry-less multiplication (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ Instruction",
/// Intel 2009), bit-reflected variant: four 128-bit lanes fold 64 bytes
/// per step, then one lane 16 bytes per step, then a Barrett reduction
/// to 32 bits; the tables take the last `len % 16` bytes.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };

    // x^k mod P(x), bit-reflected and shifted left by one, for the fold
    // distances used below: 4 lanes (K1, K2), 1 lane (K3, K4), 64 → 32
    // bits (K5); then P(x) and floor(x^64 / P(x)) for the reduction.
    const K1: i64 = 0x1_5444_2bd4;
    const K2: i64 = 0x1_c6e4_1596;
    const K3: i64 = 0x1_7519_97d0;
    const K4: i64 = 0x0_ccaa_009e;
    const K5: i64 = 0x1_63cd_6124;
    const P_X: i64 = 0x1_db71_0641;
    const U_PRIME: i64 = 0x1_f701_1641;

    /// # Safety
    ///
    /// The CPU must support PCLMULQDQ and SSE4.1.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    pub(super) unsafe fn crc32(mut data: &[u8]) -> u32 {
        if data.len() < 16 {
            return !super::crc32_update(!0, data);
        }
        let init = _mm_cvtsi32_si128(!0);
        let k3k4 = _mm_set_epi64x(K4, K3);
        let mut x = if data.len() >= 64 {
            let first = _mm_xor_si128(next(&mut data), init);
            let mut lanes = [first, next(&mut data), next(&mut data), next(&mut data)];
            let k1k2 = _mm_set_epi64x(K2, K1);
            while data.len() >= 64 {
                for lane in &mut lanes {
                    *lane = fold(*lane, next(&mut data), k1k2);
                }
            }
            let [x3, x2, x1, x0] = lanes;
            fold(fold(fold(x3, x2, k3k4), x1, k3k4), x0, k3k4)
        } else {
            _mm_xor_si128(next(&mut data), init)
        };
        while data.len() >= 16 {
            x = fold(x, next(&mut data), k3k4);
        }
        // 128 → 64 bits, then 64 → 32.
        let low32 = _mm_set_epi32(0, 0, 0, !0);
        x = _mm_xor_si128(_mm_clmulepi64_si128(x, k3k4, 0x10), _mm_srli_si128(x, 8));
        x = _mm_xor_si128(
            _mm_clmulepi64_si128(_mm_and_si128(x, low32), _mm_set_epi64x(0, K5), 0x00),
            _mm_srli_si128(x, 4),
        );
        // Barrett reduction; the reflected result is the upper half.
        let pu = _mm_set_epi64x(U_PRIME, P_X);
        let t1 = _mm_clmulepi64_si128(_mm_and_si128(x, low32), pu, 0x10);
        let t2 = _mm_clmulepi64_si128(_mm_and_si128(t1, low32), pu, 0x00);
        let c = _mm_extract_epi32(_mm_xor_si128(x, t2), 1) as u32;
        !super::crc32_update(c, data)
    }

    /// The next 16 bytes of `data`, which the caller checked are there.
    fn next(data: &mut &[u8]) -> __m128i {
        let (head, rest) = data.split_at(16);
        *data = rest;
        // SAFETY: `head` holds 16 bytes; the load is unaligned.
        unsafe { _mm_loadu_si128(head.as_ptr().cast::<__m128i>()) }
    }

    /// Folds lane `a` forward over the 128 bits that follow it and adds
    /// them: `a.lo * k.lo ^ a.hi * k.hi ^ b`.
    #[target_feature(enable = "pclmulqdq,sse4.1")]
    fn fold(a: __m128i, b: __m128i, k: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(b, _mm_clmulepi64_si128(a, k, 0x00)),
            _mm_clmulepi64_si128(a, k, 0x11),
        )
    }
}

// ---------------------------------------------------------------------
// Chaos injection (test-only, but compiled in: the crash harness drives a
// release child). Scoped to *writer appends* — recovery and compaction
// are never injected.

/// Appends attempted process-wide while a chaos trigger is armed; the
/// triggers index into this.
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

crate::stats::counters! {
    /// Durability counters, reported by `stats` while the log is attached.
    struct DurStats(AtomicU64) {
        /// Redo records appended (excluding seals).
        appends,
        /// `fdatasync` calls issued.
        fsyncs,
        /// Frame bytes written.
        bytes,
        /// Appends dropped by I/O failure (cache-only mode) — includes the
        /// append that triggered degradation.
        log_write_errors,
        /// Items replayed into the cache at the last startup.
        recovered_items,
        /// Torn/corrupt records dropped during the last recovery scan.
        torn_records_dropped,
        /// Log compactions performed at recovery.
        compactions,
        /// The last recovery's scan: segments read, checked and hashed, µs.
        recover_scan_us,
        /// The last recovery's fold: sort, last-writer-wins and entry
        /// build, µs.
        recover_fold_us,
        /// The last recovery's load into the cache, µs.
        recover_load_us,
        /// The last recovery's log compaction (0 when none ran), µs; it
        /// overlaps the load.
        recover_compact_us,
    } snapshot DurSnapshot
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
/// The little-endian word at the head of `b`.
fn le32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))
}
fn le64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8 bytes"))
}

const KIND_SET: u8 = 1;
const KIND_DEL: u8 = 2;
const KIND_ARITH: u8 = 3;
const KIND_TOUCH: u8 = 4;
const KIND_FLUSH_ALL: u8 = 5;
const KIND_SEAL: u8 = 6;

/// A [`Record`] with key and value borrowed: what the encoder writes from
/// (the compactor has entries, not records) and what recovery decodes to
/// (slices of the segment buffer a frame was read into, so a record that
/// loses the fold is never copied).
#[derive(Clone, Copy, Debug)]
enum RecordRef<'a> {
    Set { cas: u64, flags: u32, abs_exp: u64, stored_unix: u64, key: &'a [u8], value: &'a [u8] },
    Del { key: &'a [u8] },
    Arith { cas: u64, value: u64, key: &'a [u8] },
    Touch { abs_exp: u64, touched_unix: u64, key: &'a [u8] },
    FlushAll { flush_unix: u64 },
    Seal,
}

impl Record {
    fn as_ref(&self) -> RecordRef<'_> {
        match *self {
            Record::Set { cas, flags, abs_exp, stored_unix, ref key, ref value } => {
                RecordRef::Set { cas, flags, abs_exp, stored_unix, key, value }
            }
            Record::Del { ref key } => RecordRef::Del { key },
            Record::Arith { cas, value, ref key } => RecordRef::Arith { cas, value, key },
            Record::Touch { abs_exp, touched_unix, ref key } => {
                RecordRef::Touch { abs_exp, touched_unix, key }
            }
            Record::FlushAll { flush_unix } => RecordRef::FlushAll { flush_unix },
            Record::Seal => RecordRef::Seal,
        }
    }

    /// Appends this record at `stamp` to `out` as one frame
    /// (`len crc payload`).
    pub fn encode_framed_into(&self, stamp: u64, out: &mut Vec<u8>) {
        self.as_ref().encode_framed_into(stamp, out);
    }
}

impl RecordRef<'_> {
    /// The one framed encoder — of the writer, the seal and the
    /// compactor: reserves the `len crc` header, writes the payload in
    /// place behind it, patches the header. Nothing is allocated unless
    /// `out` has to grow.
    fn encode_framed_into(&self, stamp: u64, out: &mut Vec<u8>) {
        let at = out.len();
        out.extend_from_slice(&[0; 8]);
        put_u64(out, stamp);
        match *self {
            RecordRef::Set { cas, flags, abs_exp, stored_unix, key, value } => {
                out.push(KIND_SET);
                put_u64(out, cas);
                put_u32(out, flags);
                put_u64(out, abs_exp);
                put_u64(out, stored_unix);
                put_bytes(out, key);
                put_bytes(out, value);
            }
            RecordRef::Del { key } => {
                out.push(KIND_DEL);
                put_bytes(out, key);
            }
            RecordRef::Arith { cas, value, key } => {
                out.push(KIND_ARITH);
                put_u64(out, cas);
                put_u64(out, value);
                put_bytes(out, key);
            }
            RecordRef::Touch { abs_exp, touched_unix, key } => {
                out.push(KIND_TOUCH);
                put_u64(out, abs_exp);
                put_u64(out, touched_unix);
                put_bytes(out, key);
            }
            RecordRef::FlushAll { flush_unix } => {
                out.push(KIND_FLUSH_ALL);
                put_u64(out, flush_unix);
            }
            RecordRef::Seal => out.push(KIND_SEAL),
        }
        let len = (out.len() - at - 8) as u32;
        let crc = crc32(&out[at + 8..]);
        out[at..at + 4].copy_from_slice(&len.to_le_bytes());
        out[at + 4..at + 8].copy_from_slice(&crc.to_le_bytes());
    }
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
        self.take(4).map(le32)
    }
    fn u64(&mut self) -> Option<u64> {
        self.take(8).map(le64)
    }
    fn bytes(&mut self) -> Option<&'a [u8]> {
        let n = self.u32()?;
        if n > MAX_PAYLOAD {
            return None;
        }
        self.take(n as usize)
    }
}

impl<'a> RecordRef<'a> {
    /// Decodes a record payload into `(stamp, record)`; `None` on any
    /// structural mismatch.
    fn decode(payload: &'a [u8]) -> Option<(u64, RecordRef<'a>)> {
        let mut r = Reader(payload);
        let stamp = r.u64()?;
        let rec = match r.u8()? {
            KIND_SET => RecordRef::Set {
                cas: r.u64()?,
                flags: r.u32()?,
                abs_exp: r.u64()?,
                stored_unix: r.u64()?,
                key: r.bytes()?,
                value: r.bytes()?,
            },
            KIND_DEL => RecordRef::Del { key: r.bytes()? },
            KIND_ARITH => RecordRef::Arith { cas: r.u64()?, value: r.u64()?, key: r.bytes()? },
            KIND_TOUCH => RecordRef::Touch {
                abs_exp: r.u64()?,
                touched_unix: r.u64()?,
                key: r.bytes()?,
            },
            KIND_FLUSH_ALL => RecordRef::FlushAll { flush_unix: r.u64()? },
            KIND_SEAL => RecordRef::Seal,
            _ => return None,
        };
        r.0.is_empty().then_some((stamp, rec))
    }

    /// The key a record changes; `None` for `FlushAll` and `Seal`.
    fn key(&self) -> Option<&'a [u8]> {
        match *self {
            RecordRef::Set { key, .. }
            | RecordRef::Del { key }
            | RecordRef::Arith { key, .. }
            | RecordRef::Touch { key, .. } => Some(key),
            RecordRef::FlushAll { .. } | RecordRef::Seal => None,
        }
    }
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

thread_local! {
    /// The appending thread's frame buffer: an append encodes into it and
    /// writes from it, so the steady state allocates nothing.
    static FRAME_BUF: std::cell::RefCell<Vec<u8>> = const { std::cell::RefCell::new(Vec::new()) };
}

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
    pub fn note_recovery(
        &self,
        recovered_items: u64,
        torn: u64,
        compactions: u64,
        phases: RecoveryPhases,
    ) {
        let s = &self.stats;
        s.recovered_items.store(recovered_items, Ordering::Relaxed);
        s.torn_records_dropped.store(torn, Ordering::Relaxed);
        s.compactions.store(compactions, Ordering::Relaxed);
        s.recover_scan_us.store(phases.scan_us, Ordering::Relaxed);
        s.recover_fold_us.store(phases.fold_us, Ordering::Relaxed);
        s.recover_load_us.store(phases.load_us, Ordering::Relaxed);
        s.recover_compact_us.store(phases.compact_us, Ordering::Relaxed);
    }

    fn create_segment(&self, index: u32) -> io::Result<File> {
        let path = self.dir.join(segment_name(self.epoch, index));
        let mut file = OpenOptions::new().create_new(true).write(true).open(path)?;
        file.write_all(&header_bytes(self.epoch, self.cas_floor))?;
        Ok(file)
    }

    fn degrade(&self, what: &str, err: &io::Error) {
        self.stats.log_write_errors.fetch_add(1, Ordering::Relaxed);
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
            self.stats.log_write_errors.fetch_add(1, Ordering::Relaxed);
            return;
        }
        FRAME_BUF.with(|buf| {
            let mut buf = buf.borrow_mut();
            buf.clear();
            rec.encode_framed_into(stamp, &mut buf);
            self.append_frame(&buf);
        });
    }

    /// Writes one encoded frame: chaos window, rotation, write, fsync
    /// policy.
    fn append_frame(&self, buf: &[u8]) {
        // Chaos window: indexed per attempted append, before any byte
        // lands, so a seed-chosen kill point is deterministic in the
        // number of *operations*, not in fsync timing. The shared counter
        // is taken only while a trigger is armed — unarmed (production)
        // appends read two never-written words and touch no shared line.
        let armed = CHAOS_KILL_AT.load(Ordering::Relaxed) != u64::MAX
            || CHAOS_FAIL_AFTER.load(Ordering::Relaxed) != u64::MAX;
        let (mut kill_here, mut kill_mode) = (false, 0);
        if armed {
            let n = APPEND_COUNTER.fetch_add(1, Ordering::SeqCst);
            kill_here = n == CHAOS_KILL_AT.load(Ordering::Relaxed);
            kill_mode = CHAOS_KILL_MODE.load(Ordering::Relaxed);
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
                g.file.write_all(buf)
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
        let mut buf = Vec::new();
        Record::Seal.encode_framed_into(0, &mut buf);
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

/// One live entry reconstructed from the log: its metadata, and where its
/// key and value sit in the [`Recovery`] it came from
/// ([`Recovery::key`], [`Recovery::value`]).
#[derive(Clone, Copy, Debug)]
pub struct RecoveredEntry {
    /// Client flags.
    pub flags: u32,
    /// Absolute expiry, Unix seconds; 0 = never. Callers skip entries
    /// already expired at replay time.
    pub abs_exp: u64,
    /// Last store/touch time, Unix seconds.
    pub stored_unix: u64,
    key: Span,
    value: Span,
}

/// Bytes `off..off + len` of one of a [`Recovery`]'s two images.
#[derive(Clone, Copy, Debug)]
struct Span {
    off: u64,
    len: u32,
    image: Image,
}

/// Which of a [`Recovery`]'s images a [`Span`] reads.
#[derive(Clone, Copy, Debug)]
enum Image {
    /// The segments, read end to end.
    Log,
    /// The decimal text of the surviving `Arith` post-images.
    Rendered,
}

impl Span {
    /// Where `part`, a slice of the log image `log`, sits in it.
    fn of(log: &[u8], part: &[u8]) -> Span {
        let off = part.as_ptr() as usize - log.as_ptr() as usize;
        debug_assert!(off + part.len() <= log.len());
        Span { off: off as u64, len: part.len() as u32, image: Image::Log }
    }
}

/// How long each phase of a recovery took, in microseconds. [`recover`]
/// times the scan and the fold; the cache that loads the entries times
/// the load and the compaction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPhases {
    /// Reading, checking and hashing every segment.
    pub scan_us: u64,
    /// Sorting, folding and building the entries.
    pub fold_us: u64,
    /// Loading the entries into the cache.
    pub load_us: u64,
    /// Rewriting the log (0 when it was not compacted).
    pub compact_us: u64,
}

/// The outcome of a recovery scan.
#[derive(Default)]
pub struct Recovery {
    /// Live entries (flush watermark applied; expiry left to the
    /// caller's clock), ordered by `(epoch, commit stamp, append order)`
    /// of the last record that changed each — loading them front to back
    /// rebuilds the LRU oldest-first.
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
    /// The scan's and the fold's times (the load's and the compaction's
    /// are the caller's to fill in).
    pub phases: RecoveryPhases,
    /// What the entries point into: every segment file, end to end in
    /// segment order, in one allocation.
    log: Vec<u8>,
    /// The rest of what they point into (see [`Image::Rendered`]).
    rendered: Vec<u8>,
}

impl Recovery {
    fn bytes(&self, s: Span) -> &[u8] {
        let image = match s.image {
            Image::Log => &self.log,
            Image::Rendered => &self.rendered,
        };
        &image[s.off as usize..][..s.len as usize]
    }

    /// The key bytes of `e`, one of this recovery's entries.
    pub fn key(&self, e: &RecoveredEntry) -> &[u8] {
        self.bytes(e.key)
    }

    /// The value bytes of `e`, one of this recovery's entries.
    pub fn value(&self, e: &RecoveredEntry) -> &[u8] {
        self.bytes(e.value)
    }
}

impl std::fmt::Debug for Recovery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recovery")
            .field("entries", &self.entries.len())
            .field("cas_floor", &self.cas_floor)
            .field("torn_records_dropped", &self.torn_records_dropped)
            .field("records_scanned", &self.records_scanned)
            .field("segments", &self.segments)
            .field("max_epoch", &self.max_epoch)
            .field("log_bytes", &self.log_bytes)
            .field("sealed_tail", &self.sealed_tail)
            .finish_non_exhaustive()
    }
}

/// One intact record of a scanned segment: where its payload sits in the
/// log image, the two words the fold orders by, and the keyed hash of its
/// key (0 for a keyless record). 40 bytes — the sort moves these, never a
/// key or a value.
#[derive(Clone, Copy)]
struct Slot {
    epoch: u64,
    stamp: u64,
    hash: u64,
    off: u64,
    len: u32,
}

const _: () = assert!(std::mem::size_of::<Slot>() == 40, "a Slot is 40 bytes");

/// What the walk of one segment found.
#[derive(Default)]
struct Segment {
    /// `cas_floor` from the header (0 under a bad one).
    hdr_floor: u64,
    /// Intact records in file order.
    slots: Vec<Slot>,
    /// The walk stopped at a torn or corrupt frame (or a bad header).
    torn: bool,
    /// The walk stopped at a seal that is the file's last byte.
    sealed: bool,
}

/// The intact frame starting at `rest`: `(stamp, record, payload bytes)`;
/// `None` for a torn, oversized, corrupt or undecodable one.
fn frame_at(rest: &[u8]) -> Option<(u64, RecordRef<'_>, usize)> {
    if rest.len() < 8 {
        return None;
    }
    let (len, crc) = (le32(rest), le32(&rest[4..]));
    if len > MAX_PAYLOAD || rest.len() - 8 < len as usize {
        return None;
    }
    let payload = &rest[8..8 + len as usize];
    if crc32(payload) != crc {
        return None;
    }
    let (stamp, rec) = RecordRef::decode(payload)?;
    Some((stamp, rec, payload.len()))
}

/// Reads the segment at `path` into `data`, its part of the log image
/// (which starts at log offset `base`), and walks it: header check, then
/// frames until a seal, a clean end (a crash that left the tail intact),
/// or the first bad frame — which ends this segment only. Each record's
/// key is hashed here, under `keys`, so the fold never hashes.
fn scan_segment(
    path: &Path,
    base: usize,
    data: &mut [u8],
    keys: &RandomState,
) -> io::Result<Segment> {
    File::open(path)?.read_exact(data)?;
    let mut out = Segment::default();
    if data.len() < HEADER_BYTES as usize
        || &data[..8] != SEG_MAGIC
        || le32(&data[8..]) != SEG_VERSION
        || crc32(&data[8..28]) != le32(&data[28..])
    {
        out.torn = true;
        return Ok(out);
    }
    let epoch = le64(&data[12..]);
    out.hdr_floor = le64(&data[20..]);
    let mut at = HEADER_BYTES as usize;
    while at < data.len() {
        let Some((stamp, rec, len)) = frame_at(&data[at..]) else {
            out.torn = true;
            break;
        };
        at += 8 + len;
        if matches!(rec, RecordRef::Seal) {
            out.sealed = at == data.len();
            break;
        }
        let hash = rec.key().map_or(0, |key| keys.hash_one(key));
        let off = (base + at - len) as u64;
        out.slots.push(Slot { epoch, stamp, hash, off, len: len as u32 });
    }
    Ok(out)
}

/// Reads every segment into one log image and scans them, in parallel:
/// `available_parallelism()` workers (never more than there are
/// segments, the caller being one of them) each take the next unscanned
/// file. The walks come back in segment order, whichever worker scanned
/// what.
///
/// The image is one allocation, made here: a log past glibc's largest
/// mmap threshold (32 MiB) is a mapping of its own, which freeing unmaps
/// at once, where segment-sized buffers would be carved from the scan
/// workers' malloc arenas, whose tops `malloc_trim` keeps resident.
fn scan_segments(
    segs: &[(u64, u32, PathBuf)],
    keys: &RandomState,
) -> io::Result<(Vec<u8>, Vec<Segment>)> {
    let mut lens = Vec::with_capacity(segs.len());
    for (_, _, path) in segs {
        lens.push(fs::metadata(path)?.len() as usize);
    }
    let mut log = vec![0u8; lens.iter().sum()];
    let mut parts = Vec::with_capacity(segs.len());
    let (mut rest, mut base) = (&mut log[..], 0);
    for (&len, (_, _, path)) in lens.iter().zip(segs) {
        let (part, tail) = std::mem::take(&mut rest).split_at_mut(len);
        parts.push((path, base, part));
        (rest, base) = (tail, base + len);
    }
    let next = Mutex::new(parts.into_iter().enumerate());
    let worker = || {
        let mut mine = Vec::new();
        loop {
            let Some((i, (path, base, data))) = next.lock().unwrap().next() else {
                return mine;
            };
            mine.push((i, scan_segment(path, base, data, keys)));
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(segs.len());
    let mut scanned = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers).map(|_| s.spawn(worker)).collect();
        let mut scanned = worker();
        for h in helpers {
            scanned.extend(h.join().expect("a segment scan panicked"));
        }
        scanned
    });
    scanned.sort_unstable_by_key(|&(i, _)| i);
    let walks = scanned.into_iter().map(|(_, seg)| seg).collect::<io::Result<_>>()?;
    Ok((log, walks))
}

/// A key as the fold's map holds it: borrowed from the log image, with
/// the keyed hash the scan computed for it.
struct Hashed<'a> {
    hash: u64,
    key: &'a [u8],
}

impl Hash for Hashed<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for Hashed<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl Eq for Hashed<'_> {}

/// The fold map's hasher: it is only ever fed a [`Hashed`]'s stored hash,
/// and hands it back.
#[derive(Default)]
struct StoredHash(u64);

impl Hasher for StoredHash {
    fn write(&mut self, _: &[u8]) {
        unreachable!("the fold hashes nothing but stored hashes");
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// What the fold knows about a live key: where its key and post-image
/// sit in the log image.
struct Live {
    /// Fold position of the last record that changed the entry.
    at: usize,
    flags: u32,
    abs_exp: u64,
    stored_unix: u64,
    key: Span,
    /// `Err` = an arith post-image, rendered only if the entry survives.
    value: Result<Span, u64>,
}

/// Scans every segment under `dir`, drops torn/corrupt tails, orders the
/// survivors by `(epoch, stamp, append order)` and folds them,
/// last-writer-wins, into the live entries. A missing directory is an
/// empty log.
///
/// The scan hashes each record's key with SipHash under a key drawn for
/// this recovery, so a crafted log cannot flood the fold; the fold probes
/// on those stored hashes, and the sort moves a 40-byte `Slot` per record.
/// The returned [`Recovery`] keeps the log image, and each entry is a
/// position in it: nothing is copied per record or per entry.
pub fn recover(dir: &Path) -> io::Result<Recovery> {
    let mut out = Recovery::default();
    let segs = match list_segments(dir) {
        Ok(s) => s,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(e),
    };
    let scan = std::time::Instant::now();
    let (log, walks) = scan_segments(&segs, &RandomState::new())?;
    out.phases.scan_us = scan.elapsed().as_micros() as u64;
    let fold = std::time::Instant::now();
    out.log_bytes = log.len() as u64;
    let mut slots = Vec::with_capacity(walks.iter().map(|s| s.slots.len()).sum());
    for (&(epoch, _, _), seg) in segs.iter().zip(walks) {
        out.segments += 1;
        out.max_epoch = out.max_epoch.max(epoch);
        out.torn_records_dropped += seg.torn as u64;
        out.cas_floor = out.cas_floor.max(seg.hdr_floor);
        out.sealed_tail = seg.sealed;
        slots.extend(seg.slots);
    }
    out.records_scanned = slots.len() as u64;
    // Serialization order: epoch (process run), then commit stamp; the
    // sort is stable, so equal stamps (norec direct-path ties, batches)
    // keep file append order — same-key appends under one item lock are
    // written in lock order.
    slots.sort_by_key(|s| (s.epoch, s.stamp));
    let mut live: HashMap<Hashed<'_>, Live, BuildHasherDefault<StoredHash>> = HashMap::default();
    // `flush_all` is time-based like the live cache's `is_live`: the max
    // watermark kills every entry stored at or before it, regardless of
    // replay position (a store in the flush second dies even if its
    // commit stamped after the flush — exactly memcached's rule).
    let mut flush_watermark = 0u64;
    for (at, slot) in slots.iter().enumerate() {
        let payload = &log[slot.off as usize..][..slot.len as usize];
        let (_, rec) = RecordRef::decode(payload).expect("the scan decoded this payload");
        let hashed = |key| Hashed { hash: slot.hash, key };
        match rec {
            RecordRef::Set { cas, flags, abs_exp, stored_unix, key, value } => {
                out.cas_floor = out.cas_floor.max(cas);
                let (key_at, value) = (Span::of(&log, key), Span::of(&log, value));
                let e = Live { at, flags, abs_exp, stored_unix, key: key_at, value: Ok(value) };
                live.insert(hashed(key), e);
            }
            RecordRef::Del { key } => {
                live.remove(&hashed(key));
            }
            RecordRef::Arith { cas, value, key } => {
                out.cas_floor = out.cas_floor.max(cas);
                if let Some(e) = live.get_mut(&hashed(key)) {
                    (e.at, e.value) = (at, Err(value));
                }
            }
            RecordRef::Touch { abs_exp, touched_unix, key } => {
                if let Some(e) = live.get_mut(&hashed(key)) {
                    (e.at, e.abs_exp, e.stored_unix) = (at, abs_exp, touched_unix);
                }
            }
            RecordRef::FlushAll { flush_unix } => {
                flush_watermark = flush_watermark.max(flush_unix);
            }
            RecordRef::Seal => unreachable!("seals never enter the slot list"),
        }
    }
    // Each fold position changed one key at most, so a table indexed by
    // position puts the winners in fold order without a sort.
    let mut winners = Vec::with_capacity(live.len());
    winners.extend(
        live.into_values()
            .filter(|e| flush_watermark == 0 || e.stored_unix > flush_watermark),
    );
    let mut by_at = vec![0u32; slots.len()];
    drop(slots);
    for (i, e) in winners.iter().enumerate() {
        by_at[e.at] = i as u32 + 1;
    }
    let rendered = &mut out.rendered;
    out.entries = Vec::with_capacity(winners.len());
    out.entries.extend(by_at.iter().filter(|&&i| i != 0).map(|&i| {
        let e = &winners[i as usize - 1];
        let value = e.value.unwrap_or_else(|n| {
            let off = rendered.len();
            write!(rendered, "{n}").expect("a Vec takes every write");
            Span { off: off as u64, len: (rendered.len() - off) as u32, image: Image::Rendered }
        });
        RecoveredEntry {
            flags: e.flags,
            abs_exp: e.abs_exp,
            stored_unix: e.stored_unix,
            key: e.key,
            value,
        }
    }));
    out.log = log;
    out.phases.fold_us = fold.elapsed().as_micros() as u64;
    Ok(out)
}

/// The compactor hands its buffer to the file whenever it holds this much.
const COMPACT_CHUNK: usize = 1 << 20;

/// The name a compaction writes its rewrite under until the rewrite is
/// synced; `list_segments` ignores it.
fn rewrite_tmp_name(epoch: u64) -> String {
    format!("{}.tmp", segment_name(epoch, 0))
}

/// Rewrites the log as one sealed segment (epoch `max_epoch + 1`)
/// holding exactly `rec.entries`, in their order, then deletes the older
/// segments. The rewrite is written under a temporary name and renamed
/// to its segment name once synced, so a crash at any point leaves either
/// the old segments or the whole rewrite (beside old segments not yet
/// deleted) to recover from — never a prefix of the rewrite, whose
/// entries would load as the newest. A temporary file left by an earlier
/// crash is overwritten. Returns the epoch written. Called only at
/// recovery time, before the writer opens, so there is no concurrent
/// appender; frames stream through one reused buffer.
pub fn compact(dir: &Path, rec: &Recovery, unix_now: u64) -> io::Result<u64> {
    let epoch = rec.max_epoch + 1;
    let tmp = dir.join(rewrite_tmp_name(epoch));
    let mut file = OpenOptions::new().create(true).truncate(true).write(true).open(&tmp)?;
    let mut buf = header_bytes(epoch, rec.cas_floor);
    buf.reserve(COMPACT_CHUNK);
    for (i, e) in rec.entries.iter().enumerate() {
        let set = RecordRef::Set {
            cas: 0, // floor already carried by the header
            flags: e.flags,
            abs_exp: e.abs_exp,
            stored_unix: e.stored_unix.min(unix_now),
            key: rec.key(e),
            value: rec.value(e),
        };
        set.encode_framed_into(i as u64 + 1, &mut buf);
        if buf.len() >= COMPACT_CHUNK {
            file.write_all(&buf)?;
            buf.clear();
        }
    }
    RecordRef::Seal.encode_framed_into(0, &mut buf);
    file.write_all(&buf)?;
    file.sync_data()?;
    drop(file);
    fs::rename(&tmp, dir.join(segment_name(epoch, 0)))?;
    // Directory durability for the rename before the unlinks, best-effort.
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

    /// The recovery the pipeline above replaced, kept as the differential
    /// oracle and sharing nothing with it: a byte-at-a-time CRC, a decoder
    /// that owns what it decodes, a full sort of owned records, a fold
    /// into an owned map keyed by owned keys, and a sort of the winners by
    /// the fold position of the last record that changed each.
    mod reference {
        use super::super::*;
        use super::{outcome, Outcome, Owned};
        use std::io::Read;

        pub fn crc32(data: &[u8]) -> u32 {
            let mut c = !0u32;
            for &b in data {
                c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
            }
            !c
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

        pub fn recover(dir: &Path) -> io::Result<Outcome> {
            let mut out = Recovery::default();
            let segs = match list_segments(dir) {
                Ok(s) => s,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(outcome(out)),
                Err(e) => return Err(e),
            };
            let mut records: Vec<(u64, u64, u64, Record)> = Vec::new();
            let mut seq = 0u64;
            for &(epoch, _, ref path) in &segs {
                out.segments += 1;
                out.max_epoch = out.max_epoch.max(epoch);
                let mut data = Vec::new();
                File::open(path)?.read_to_end(&mut data)?;
                out.log_bytes += data.len() as u64;
                out.sealed_tail = false;
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
                        break;
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
                    let Some((stamp, rec)) = decode(payload) else {
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
            records.sort_by_key(|&(e, s, q, _)| (e, s, q));
            // Each live key's entry and the position of its last change.
            let mut map: HashMap<Vec<u8>, (usize, Owned)> = HashMap::new();
            let mut flush_watermark = 0u64;
            for (at, (_, _, _, rec)) in records.into_iter().enumerate() {
                match rec {
                    Record::Set { cas, flags, abs_exp, stored_unix, key, value } => {
                        out.cas_floor = out.cas_floor.max(cas);
                        let e = Owned { key: key.clone(), value, flags, abs_exp, stored_unix };
                        map.insert(key, (at, e));
                    }
                    Record::Del { key } => {
                        map.remove(&key);
                    }
                    Record::Arith { cas, value, key } => {
                        out.cas_floor = out.cas_floor.max(cas);
                        if let Some((last, e)) = map.get_mut(&key) {
                            *last = at;
                            e.value = value.to_string().into_bytes();
                        }
                    }
                    Record::Touch { abs_exp, touched_unix, key } => {
                        if let Some((last, e)) = map.get_mut(&key) {
                            *last = at;
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
            let mut live: Vec<(usize, Owned)> = map
                .into_values()
                .filter(|(_, e)| flush_watermark == 0 || e.stored_unix > flush_watermark)
                .collect();
            live.sort_by_key(|&(at, _)| at);
            let mut got = outcome(out);
            got.0 = live.into_iter().map(|(_, e)| e).collect();
            Ok(got)
        }
    }

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
            let mut f = Vec::new();
            r.encode_framed_into(i as u64 + 10, &mut f);
            let payload = &f[8..];
            assert_eq!(le32(&f) as usize, payload.len());
            assert_eq!(le32(&f[4..]), crc32(payload));
            let (stamp, dec) = reference::decode(payload).expect("roundtrip");
            assert_eq!(stamp, i as u64 + 10);
            assert_eq!(&dec, r);
            // The borrowing decoder reads the same frame the same way.
            let (stamp, _, len) = frame_at(&f).expect("intact frame");
            assert_eq!((stamp, len), (i as u64 + 10, payload.len()));
            // Any flipped byte must fail the crc at frame level.
            f[8] ^= 1;
            assert!(frame_at(&f).is_none());
        }
        assert!(reference::decode(b"").is_none());
        assert!(reference::decode(&[0; 9]).is_none());
        assert!(RecordRef::decode(b"").is_none());
        assert!(RecordRef::decode(&[0; 9]).is_none());
    }

    #[test]
    fn crc32_slicing_matches_bytewise() {
        use testkit::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0xC4C);
        // Every length 0..=64 at every alignment 0..8 of the input.
        let mut buf = [0u8; 64 + 8];
        rng.fill_bytes(&mut buf);
        for align in 0..8 {
            for len in 0..=64 {
                let data = &buf[align..align + len];
                assert_eq!(crc32(data), reference::crc32(data), "len {len} align {align}");
            }
        }
        for _ in 0..16 {
            let mut page = vec![0u8; 4096];
            rng.fill_bytes(&mut page);
            assert_eq!(crc32(&page), reference::crc32(&page));
        }
    }

    #[test]
    fn crc32_kernel_matches_the_tables_and_the_reference() {
        use testkit::rng::{Rng, SmallRng};
        let kernel = crc32_clmul(b"").is_some();
        if !kernel {
            eprintln!("crc32 kernel arm skipped: this CPU lacks PCLMULQDQ or SSE4.1");
        }
        let check = |data: &[u8], what: &str| {
            let want = reference::crc32(data);
            assert_eq!(crc32_table(data), want, "tables, {what}");
            assert_eq!(crc32(data), want, "crc32, {what}");
            if kernel {
                assert_eq!(crc32_clmul(data), Some(want), "kernel, {what}");
            }
        };
        let mut rng = SmallRng::seed_from_u64(0xC1C);
        // Every length 0..=1100 at every start offset 0..16.
        let mut buf = vec![0u8; 1100 + 16];
        rng.fill_bytes(&mut buf);
        for offset in 0..16 {
            for len in 0..=1100 {
                check(&buf[offset..offset + len], &format!("len {len} offset {offset}"));
            }
        }
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
        check(b"123456789", "the check vector");
        let mut big = vec![0u8; 40 << 20];
        rng.fill_bytes(&mut big);
        check(&big, "40 MB");
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
        assert_eq!(rec.key(e), b"b");
        assert_eq!(rec.value(e), b"5", "arith must replace the value text");
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
        assert_eq!(rec.key(&rec.entries[0]), b"a");
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
        assert_eq!(rec.value(&rec.entries[0]), b"new");
        fs::remove_dir_all(&dir).unwrap();

        // Equal stamps (norec ties): file order breaks the tie.
        let dir = tmpdir("order-tie");
        let log = DurLog::open(&dir, DurFsync::Off, 1 << 20, 0).unwrap();
        log.append(10, &set(b"k", b"first", 1, 100));
        log.append(10, &set(b"k", b"second", 2, 100));
        drop(log);
        let rec = recover(&dir).unwrap();
        assert_eq!(rec.value(&rec.entries[0]), b"second");
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
        assert_eq!(rec.key(&rec.entries[0]), b"after");
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
            let i: u64 = std::str::from_utf8(&rec.key(e)[1..]).unwrap().parse().unwrap();
            if i < 16 {
                assert_eq!(rec.value(e), b"NEW", "epoch 2 must win for k{i}");
            } else {
                assert_eq!(rec.value(e), b"xxxxxxxxxxxxxxxx");
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
        let live: u64 =
            rec.entries.iter().map(|e| (rec.key(e).len() + rec.value(e).len()) as u64).sum();
        assert!(live < rec.log_bytes / 2, "mostly-dead log: {live} vs {}", rec.log_bytes);
        let epoch = compact(&dir, &rec, 200).unwrap();
        assert_eq!(epoch, 2);
        let segs = list_segments(&dir).unwrap();
        assert_eq!(segs.len(), 1, "old segments must be deleted: {segs:?}");
        let rec2 = recover(&dir).unwrap();
        assert!(rec2.sealed_tail);
        assert_eq!(rec2.cas_floor, rec.cas_floor, "floor must ride the header");
        let mut vals: Vec<_> = rec2.entries.iter().map(|e| rec2.value(e).to_vec()).collect();
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

    /// A recovered entry with its key and value copied out.
    #[derive(Debug, PartialEq, Eq)]
    struct Owned {
        key: Vec<u8>,
        value: Vec<u8>,
        flags: u32,
        abs_exp: u64,
        stored_unix: u64,
    }

    /// Everything the differential oracle compares: the entries in load
    /// order, the counts, the sealed-tail flag.
    type Outcome = (Vec<Owned>, [u64; 6], bool);

    fn outcome(rec: Recovery) -> Outcome {
        let entries = rec
            .entries
            .iter()
            .map(|e| Owned {
                key: rec.key(e).to_vec(),
                value: rec.value(e).to_vec(),
                flags: e.flags,
                abs_exp: e.abs_exp,
                stored_unix: e.stored_unix,
            })
            .collect();
        let counts = [
            rec.cas_floor,
            rec.torn_records_dropped,
            rec.records_scanned,
            rec.log_bytes,
            rec.segments,
            rec.max_epoch,
        ];
        (entries, counts, rec.sealed_tail)
    }

    /// Writes the random log seed `seed` names: one to three epochs of
    /// tiny segments over 64 keys, all six record kinds, stamps drawn
    /// from a window narrow enough to collide within a batch and to
    /// interleave across segments, `FlushAll` watermarks inside the range
    /// of store times — then damages it: a torn tail, a corrupt frame
    /// mid-segment, a bad header.
    fn write_random_log(dir: &Path, seed: u64) {
        use testkit::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        let key = |rng: &mut SmallRng| format!("key-{}", rng.gen_range(0..64u32)).into_bytes();
        for _epoch in 0..rng.gen_range(1..4u32) {
            let log = DurLog::open(dir, DurFsync::Off, rng.gen_range(128..512u64), 0).unwrap();
            for i in 0..rng.gen_range(0..60u64) {
                let stamp = i / 4 * 3 + rng.gen_range(0..8u64);
                let rec = match rng.gen_range(0..16u32) {
                    0..=6 => Record::Set {
                        cas: rng.gen_range(1..1000u64),
                        flags: rng.gen_range(0..4u32),
                        abs_exp: rng.gen_range(0..3u64) * 1000,
                        stored_unix: rng.gen_range(100..110u64),
                        key: key(&mut rng),
                        value: vec![b'v'; rng.gen_range(0..40usize)],
                    },
                    7 | 8 => Record::Del { key: key(&mut rng) },
                    9 | 10 => Record::Arith {
                        cas: rng.gen_range(1..1000u64),
                        value: rng.next_u64(),
                        key: key(&mut rng),
                    },
                    11 | 12 => Record::Touch {
                        abs_exp: rng.gen_range(0..3u64) * 1000,
                        touched_unix: rng.gen_range(100..110u64),
                        key: key(&mut rng),
                    },
                    13 | 14 => Record::FlushAll { flush_unix: rng.gen_range(98..106u64) },
                    _ => Record::Seal,
                };
                log.append(stamp, &rec);
            }
            if rng.gen_bool(0.5) {
                log.seal();
            }
        }
        let segs = list_segments(dir).unwrap();
        let mut damage = |f: &mut dyn FnMut(&mut SmallRng, &mut Vec<u8>)| {
            if rng.gen_bool(0.5) {
                let path = &segs[rng.gen_range(0..segs.len())].2;
                let mut data = fs::read(path).unwrap();
                f(&mut rng, &mut data);
                fs::write(path, data).unwrap();
            }
        };
        damage(&mut |rng, data| data.truncate(data.len() - rng.gen_range(0..data.len().min(24))));
        damage(&mut |rng, data| {
            let at = rng.gen_range(0..data.len());
            data[at] ^= 1 << rng.gen_range(0..8u32);
        });
        damage(&mut |rng, data| {
            let at = rng.gen_range(0..data.len().min(HEADER_BYTES as usize));
            data[at] ^= 0xFF;
        });
    }

    testkit::proptest! {
        #![cases(300)]

        #[test]
        fn recover_matches_the_reference_fold(seed in testkit::prop::gen::any_u64()) {
            let dir = tmpdir("differential");
            write_random_log(&dir, seed);
            let got = outcome(recover(&dir).unwrap());
            let want = reference::recover(&dir).unwrap();
            fs::remove_dir_all(&dir).unwrap();
            testkit::prop_assert_eq!(got, want);
        }
    }

    #[test]
    fn entries_come_out_in_commit_stamp_order() {
        let dir = tmpdir("stamp-order");
        let log = DurLog::open(&dir, DurFsync::Off, 128, 0).unwrap();
        // File order is the reverse of stamp order, across segments; a
        // touch and an arith move their keys to the back, a delete and a
        // losing overwrite move nothing.
        for (stamp, key) in [(50, "e"), (40, "d"), (30, "c"), (20, "b"), (10, "a")] {
            log.append(stamp, &set(key.as_bytes(), b"1", stamp, 100));
        }
        log.append(5, &set(b"c", b"older", 1, 100));
        log.append(60, &Record::Touch { abs_exp: 0, touched_unix: 101, key: b"b".to_vec() });
        log.append(70, &Record::Arith { cas: 9, value: 2, key: b"a".to_vec() });
        log.append(80, &Record::Del { key: b"d".to_vec() });
        drop(log);
        assert!(list_segments(&dir).unwrap().len() > 1);
        let rec = recover(&dir).unwrap();
        let keys: Vec<&[u8]> = rec.entries.iter().map(|e| rec.key(e)).collect();
        assert_eq!(keys, [b"c", b"e", b"b", b"a"]);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A compaction that dies before its rename leaves the old segments
    /// plus a prefix of the rewrite under its temporary name: every such
    /// prefix — cut at each frame boundary and in the middle of each
    /// frame — must recover the live set the compaction started from, in
    /// the same load order. So must a compaction that dies after the
    /// rename, before the old segments are deleted.
    #[test]
    fn interrupted_compaction_recovers_the_same_live_set() {
        let dir = tmpdir("interrupted");
        let log = DurLog::open(&dir, DurFsync::Off, 256, 0).unwrap();
        for i in 0..24u64 {
            let key = format!("k{}", i % 12);
            log.append(10 + i, &set(key.as_bytes(), format!("v{i}").as_bytes(), i + 1, 100));
        }
        log.append(40, &Record::Del { key: b"k3".to_vec() });
        log.append(41, &Record::Arith { cas: 30, value: 77, key: b"k4".to_vec() });
        log.append(42, &Record::Touch { abs_exp: 9000, touched_unix: 105, key: b"k5".to_vec() });
        log.append(43, &Record::FlushAll { flush_unix: 99 });
        log.seal();
        drop(log);
        let rec = recover(&dir).unwrap();
        let live = outcome(recover(&dir).unwrap()).0;
        assert_eq!(live.len(), 11);

        // Compact a copy to get the rewrite's bytes; `dir` keeps the old
        // segments.
        let scratch = tmpdir("interrupted-scratch");
        for (_, _, path) in list_segments(&dir).unwrap() {
            fs::copy(&path, scratch.join(path.file_name().unwrap())).unwrap();
        }
        let epoch = compact(&scratch, &rec, u64::MAX).unwrap();
        let (name, tmp) = (segment_name(epoch, 0), rewrite_tmp_name(epoch));
        let rewrite = fs::read(scratch.join(&name)).unwrap();
        assert!(!scratch.join(&tmp).exists());
        assert_eq!(outcome(recover(&scratch).unwrap()).0, live, "the finished compaction");

        let mut cuts = vec![0, HEADER_BYTES as usize / 2];
        let mut at = HEADER_BYTES as usize;
        while at < rewrite.len() {
            let frame = 8 + le32(&rewrite[at..]) as usize;
            cuts.extend([at, at + 4, at + frame / 2]);
            at += frame;
        }
        cuts.push(rewrite.len());
        assert!(cuts.len() > 3 * live.len());
        for cut in cuts {
            fs::write(dir.join(&tmp), &rewrite[..cut]).unwrap();
            let got = recover(&dir).unwrap();
            assert_eq!(got.cas_floor, rec.cas_floor, "cut at {cut}");
            assert_eq!(outcome(got).0, live, "cut at {cut}");
        }
        fs::rename(dir.join(&tmp), dir.join(&name)).unwrap();
        let got = recover(&dir).unwrap();
        assert_eq!(got.cas_floor, rec.cas_floor, "renamed, old segments kept");
        assert_eq!(outcome(got).0, live, "renamed, old segments kept");
        fs::remove_dir_all(&dir).unwrap();
        fs::remove_dir_all(&scratch).unwrap();
    }
}
