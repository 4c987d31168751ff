//! Transactional storage: [`TWord`], [`TCell`], and [`TBytes`].
//!
//! All transactional state in this runtime lives in atomic 64-bit words.
//! This mirrors GCC libitm's word-based instrumentation and — crucially for
//! a Rust implementation — keeps the *eager, write-through* algorithm sound:
//! a doomed transaction may publish values that a concurrent transaction
//! observes before validation catches the conflict, so every access must be
//! an atomic (not plain) memory operation to avoid undefined behavior.
//! Validation, not the type system, provides isolation.

use std::fmt;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::word::Word;

/// One transactional machine word: the unit of instrumentation, conflict
/// detection, and logging. [`TCell`] and [`TBytes`] are built from these.
#[repr(transparent)]
#[derive(Default)]
pub struct TWord(pub(crate) AtomicU64);

impl TWord {
    /// Creates a word holding `v`.
    pub const fn new(v: u64) -> Self {
        TWord(AtomicU64::new(v))
    }

    /// The stable address used to map this word onto an ownership record.
    #[inline]
    pub(crate) fn addr(&self) -> usize {
        self as *const TWord as usize
    }

    /// Non-transactional load. Only meaningful when the caller has external
    /// reasons to believe no transaction is mid-flight on this word (e.g.
    /// single-threaded setup, or data privatized by a lock in the paper's
    /// "IP" branch).
    #[inline]
    pub fn load_direct(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }

    /// Non-transactional store; see [`TWord::load_direct`] for when this is
    /// appropriate.
    #[inline]
    pub fn store_direct(&self, v: u64) {
        self.0.store(v, Ordering::Release);
    }

    /// Non-transactional atomic read-modify-write add, returning the
    /// previous value. This models memcached's `lock incr` inline-assembly
    /// reference counting — the operation the paper classifies as *unsafe*
    /// inside transactions until the "Max" stage replaces it.
    #[inline]
    pub fn fetch_add_direct(&self, v: u64) -> u64 {
        self.0.fetch_add(v, Ordering::AcqRel)
    }
}

impl fmt::Debug for TWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TWord").field(&self.load_direct()).finish()
    }
}

/// A typed transactional cell holding one [`Word`]-packable value.
///
/// `TCell` is the reproduction's analogue of a shared variable accessed
/// inside a GCC `__transaction` block. Transactions read it with
/// [`crate::Transaction::read`] and write it with
/// [`crate::Transaction::write`]; lock-based code (the paper's baseline
/// branches) uses the `*_direct` accessors.
///
/// # Examples
///
/// ```
/// use tm::{TCell, TmRuntime, Transaction};
///
/// let rt = TmRuntime::default_runtime();
/// let counter = TCell::new(0u64);
/// rt.atomic(|tx| {
///     let v = tx.read(&counter)?;
///     tx.write(&counter, v + 1)
/// });
/// assert_eq!(counter.load_direct(), 1);
/// ```
pub struct TCell<T> {
    word: TWord,
    _marker: PhantomData<T>,
}

impl<T: Word> TCell<T> {
    /// Creates a cell holding `v`.
    pub fn new(v: T) -> Self {
        TCell {
            word: TWord::new(v.to_word()),
            _marker: PhantomData,
        }
    }

    /// The underlying transactional word.
    #[inline]
    pub fn word(&self) -> &TWord {
        &self.word
    }

    /// Non-transactional typed load; see [`TWord::load_direct`].
    #[inline]
    pub fn load_direct(&self) -> T {
        T::from_word(self.word.load_direct())
    }

    /// Non-transactional typed store; see [`TWord::store_direct`].
    #[inline]
    pub fn store_direct(&self, v: T) {
        self.word.store_direct(v.to_word());
    }
}

impl<T: Word + Default> Default for TCell<T> {
    fn default() -> Self {
        TCell::new(T::default())
    }
}

impl<T: Word + fmt::Debug> fmt::Debug for TCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("TCell").field(&self.load_direct()).finish()
    }
}

/// A fixed-length transactional byte buffer.
///
/// Bytes are stored packed into 64-bit words (little-endian within each
/// word), so conflict detection and logging happen at word granularity —
/// exactly the property that made `memcpy`-heavy memcached transactions
/// expensive for buffered-update algorithms in the paper ("the need to
/// buffer byte-by-byte stores ... and then read them later as words
/// necessitated an expensive logging mechanism", §4).
///
/// # Examples
///
/// ```
/// use tm::{TBytes, TmRuntime, Transaction};
///
/// let rt = TmRuntime::default_runtime();
/// let buf = TBytes::zeroed(16);
/// rt.atomic(|tx| {
///     tx.write_byte(&buf, 3, b'x')?;
///     Ok(())
/// });
/// assert_eq!(buf.load_byte_direct(3), b'x');
/// ```
pub struct TBytes {
    words: Box<[TWord]>,
    len: usize,
}

impl TBytes {
    /// Creates a zero-filled buffer of `len` bytes.
    ///
    /// The words come zeroed from the allocator (`calloc`), with no pass
    /// that writes them. The C library serves a large request from a fresh
    /// mapping, whose pages the kernel commits, already zero, on first
    /// touch: an untouched tail costs address space, not memory.
    pub fn zeroed(len: usize) -> Self {
        // SAFETY: `TWord` is a `repr(transparent)` `AtomicU64`, for which
        // all-zero bytes are a valid value (0).
        let words = unsafe { Box::<[TWord]>::new_zeroed_slice(len.div_ceil(8)).assume_init() };
        TBytes { words, len }
    }

    /// Creates a buffer initialized from `src`.
    pub fn from_slice(src: &[u8]) -> Self {
        let b = TBytes::zeroed(src.len());
        b.store_slice_direct(0, src);
        b
    }

    /// Buffer length in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of backing 64-bit words.
    #[inline]
    pub fn word_count(&self) -> usize {
        self.words.len()
    }

    /// The backing word at index `wi`.
    ///
    /// # Panics
    ///
    /// Panics if `wi >= self.word_count()`.
    #[inline]
    pub fn word(&self, wi: usize) -> &TWord {
        &self.words[wi]
    }

    /// Splits a byte index into (word index, shift-in-bits).
    #[inline]
    pub(crate) fn locate(i: usize) -> (usize, u32) {
        (i / 8, (i % 8) as u32 * 8)
    }

    /// Non-transactional load of the backing word at `wi` (8 bytes,
    /// little-endian; padding bytes past `len()` are zero).
    ///
    /// # Panics
    ///
    /// Panics if `wi >= self.word_count()`.
    #[inline]
    pub fn load_word_direct(&self, wi: usize) -> u64 {
        self.words[wi].load_direct()
    }

    /// Non-transactional byte load.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn load_byte_direct(&self, i: usize) -> u8 {
        assert!(i < self.len, "TBytes index {i} out of bounds ({})", self.len);
        let (wi, sh) = Self::locate(i);
        (self.words[wi].load_direct() >> sh) as u8
    }

    /// Non-transactional byte store.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn store_byte_direct(&self, i: usize, b: u8) {
        assert!(i < self.len, "TBytes index {i} out of bounds ({})", self.len);
        let (wi, sh) = Self::locate(i);
        self.merge_word_direct(wi, (b as u64) << sh, 0xff << sh);
    }

    /// Stores the bits of `bits` under `mask` into word `wi`, keeping the
    /// rest. Non-transactional callers are expected to hold a lock
    /// (baseline branches), so a plain load/store pair is the
    /// memcached-faithful behavior; we use a CAS loop anyway so direct
    /// mode is never the source of lost updates in mixed tests, nor when
    /// two writers own different bytes of one word.
    fn merge_word_direct(&self, wi: usize, bits: u64, mask: u64) {
        let w = &self.words[wi].0;
        let mut cur = w.load(Ordering::Acquire);
        loop {
            let merged = (cur & !mask) | bits;
            match w.compare_exchange_weak(cur, merged, Ordering::AcqRel, Ordering::Acquire) {
                Ok(_) => return,
                Err(c) => cur = c,
            }
        }
    }

    /// Non-transactional bulk copy out of the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `offset + dst.len() > self.len()`.
    pub fn load_slice_direct(&self, offset: usize, dst: &mut [u8]) {
        assert!(
            offset.checked_add(dst.len()).is_some_and(|e| e <= self.len),
            "TBytes range {offset}..{} out of bounds ({})",
            offset + dst.len(),
            self.len
        );
        // Word-granular: one atomic load per 8 bytes, byte extraction at
        // the unaligned head/tail.
        let mut i = 0;
        while i < dst.len() {
            let (wi, sh) = Self::locate(offset + i);
            let first = (sh / 8) as usize;
            let n = (8 - first).min(dst.len() - i);
            let bytes = self.words[wi].load_direct().to_le_bytes();
            dst[i..i + n].copy_from_slice(&bytes[first..first + n]);
            i += n;
        }
    }

    /// Non-transactional bulk copy into the buffer.
    ///
    /// # Panics
    ///
    /// Panics if `offset + src.len() > self.len()`.
    pub fn store_slice_direct(&self, offset: usize, src: &[u8]) {
        assert!(
            offset.checked_add(src.len()).is_some_and(|e| e <= self.len),
            "TBytes range {offset}..{} out of bounds ({})",
            offset + src.len(),
            self.len
        );
        // Whole covered words are stored blind (the caller owns every byte
        // of them); a partial head or tail word is merged with one masked
        // CAS, so neighboring bytes outside the range are preserved.
        let mut i = 0;
        while i < src.len() {
            let (wi, sh) = Self::locate(offset + i);
            let first = (sh / 8) as usize;
            let n = (8 - first).min(src.len() - i);
            if n == 8 {
                let bytes = src[i..i + 8].try_into().expect("eight bytes");
                self.words[wi].store_direct(u64::from_le_bytes(bytes));
            } else {
                let mut bytes = [0u8; 8];
                bytes[first..first + n].copy_from_slice(&src[i..i + n]);
                let mask = (u64::MAX >> (64 - 8 * n)) << sh;
                self.merge_word_direct(wi, u64::from_le_bytes(bytes), mask);
            }
            i += n;
        }
    }

    /// Non-transactional snapshot of the whole buffer.
    pub fn to_vec_direct(&self) -> Vec<u8> {
        let mut v = vec![0u8; self.len];
        self.load_slice_direct(0, &mut v);
        v
    }
}

impl fmt::Debug for TBytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TBytes").field("len", &self.len).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tword_direct_ops() {
        let w = TWord::new(5);
        assert_eq!(w.load_direct(), 5);
        w.store_direct(9);
        assert_eq!(w.load_direct(), 9);
        assert_eq!(w.fetch_add_direct(1), 9);
        assert_eq!(w.load_direct(), 10);
    }

    #[test]
    fn tcell_typed_roundtrip() {
        let c = TCell::new(-42i32);
        assert_eq!(c.load_direct(), -42);
        c.store_direct(17);
        assert_eq!(c.load_direct(), 17);
    }

    #[test]
    fn tcell_default() {
        let c: TCell<u32> = TCell::default();
        assert_eq!(c.load_direct(), 0);
    }

    #[test]
    fn tbytes_byte_addressing() {
        let b = TBytes::zeroed(13);
        assert_eq!(b.len(), 13);
        assert_eq!(b.word_count(), 2);
        for i in 0..13 {
            b.store_byte_direct(i, i as u8 + 1);
        }
        for i in 0..13 {
            assert_eq!(b.load_byte_direct(i), i as u8 + 1);
        }
    }

    #[test]
    fn tbytes_from_slice_roundtrip() {
        let b = TBytes::from_slice(b"hello transactional world");
        assert_eq!(b.to_vec_direct(), b"hello transactional world");
    }

    #[test]
    fn tbytes_slice_window() {
        let b = TBytes::from_slice(b"0123456789");
        let mut mid = [0u8; 4];
        b.load_slice_direct(3, &mut mid);
        assert_eq!(&mid, b"3456");
        b.store_slice_direct(3, b"abcd");
        assert_eq!(b.to_vec_direct(), b"012abcd789");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tbytes_oob_load_panics() {
        TBytes::zeroed(4).load_byte_direct(4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn tbytes_oob_slice_panics() {
        let mut d = [0u8; 3];
        TBytes::zeroed(4).load_slice_direct(2, &mut d);
    }

    #[test]
    fn tbytes_empty() {
        let b = TBytes::zeroed(0);
        assert!(b.is_empty());
        assert_eq!(b.to_vec_direct(), Vec::<u8>::new());
    }
}
