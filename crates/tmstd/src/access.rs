//! The [`ByteAccess`] abstraction: one function body, two "clones".
//!
//! The Draft C++ TM Specification requires the transactional and
//! non-transactional versions of a `transaction_safe` function to be
//! generated from the same source (the paper complains this forbids
//! hand-optimized assembly in either clone). This crate reproduces that
//! property literally: every memory routine is written once, generic over
//! [`ByteAccess`]. The cache's execution context (`mcache::Ctx`) is the one
//! implementation: its direct arm is the uninstrumented clone (plain atomic
//! loads and stores, for lock-held or privatized data) and its transaction
//! arms are the instrumented clone (every byte logged and validated).

use tm::{Abort, TBytes, TWord};

/// How a memory routine touches [`TBytes`] buffers and [`TWord`]s.
///
/// The `'env` lifetime ties buffers to the enclosing transaction's
/// environment, exactly as in [`tm::Transaction`].
pub trait ByteAccess<'env> {
    /// Reads `dst.len()` bytes starting at `off`.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access; never for direct.
    fn get_range(&mut self, b: &'env TBytes, off: usize, dst: &mut [u8]) -> Result<(), Abort>;

    /// Writes `src` starting at `off`.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access; never for direct.
    fn put_range(&mut self, b: &'env TBytes, off: usize, src: &[u8]) -> Result<(), Abort>;

    /// Reads one whole [`TWord`] (header fields, pointers, counters).
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    fn get_word(&mut self, w: &'env TWord) -> Result<u64, Abort>;

    /// Writes one whole [`TWord`].
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    fn put_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort>;
}

/// Test adaptors for the two clones: [`clones::Direct`] is the
/// uninstrumented one, and a live [`tm::AtomicTx`] is the instrumented one.
#[cfg(test)]
pub(crate) mod clones {
    use super::ByteAccess;
    use tm::{Abort, AtomicTx, TBytes, TWord, Transaction};

    /// Uninstrumented access (every method returns `Ok`).
    pub(crate) struct Direct;

    impl<'env> ByteAccess<'env> for Direct {
        fn get_range(&mut self, b: &'env TBytes, off: usize, dst: &mut [u8]) -> Result<(), Abort> {
            b.load_slice_direct(off, dst);
            Ok(())
        }
        fn put_range(&mut self, b: &'env TBytes, off: usize, src: &[u8]) -> Result<(), Abort> {
            b.store_slice_direct(off, src);
            Ok(())
        }
        fn get_word(&mut self, w: &'env TWord) -> Result<u64, Abort> {
            Ok(w.load_direct())
        }
        fn put_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort> {
            w.store_direct(v);
            Ok(())
        }
    }

    impl<'env> ByteAccess<'env> for AtomicTx<'env> {
        fn get_range(&mut self, b: &'env TBytes, off: usize, dst: &mut [u8]) -> Result<(), Abort> {
            self.read_bytes(b, off, dst)
        }
        fn put_range(&mut self, b: &'env TBytes, off: usize, src: &[u8]) -> Result<(), Abort> {
            self.write_bytes(b, off, src)
        }
        fn get_word(&mut self, w: &'env TWord) -> Result<u64, Abort> {
            self.read_word(w)
        }
        fn put_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort> {
            self.write_word(w, v)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::clones::Direct;
    use super::*;
    use tm::TmRuntime;

    #[test]
    fn direct_access_roundtrip() {
        let b = TBytes::zeroed(8);
        let mut a = Direct;
        a.put_range(&b, 2, b"abc").unwrap();
        let mut out = [0u8; 3];
        a.get_range(&b, 2, &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn tx_access_roundtrip() {
        let rt = TmRuntime::default_runtime();
        let b = TBytes::zeroed(8);
        rt.atomic(|tx| {
            tx.put_range(&b, 1, b"xyz")?;
            let mut out = [0u8; 3];
            tx.get_range(&b, 1, &mut out)?;
            assert_eq!(&out, b"xyz");
            Ok(())
        });
        assert_eq!(b.load_byte_direct(2), b'y');
    }
}
