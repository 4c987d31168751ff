//! Transaction-safe reimplementations of the two untyped-memory functions
//! memcached calls inside its critical sections (paper §3.4): `memcmp` on
//! a lookup key and `memcpy` of a value in or out. The other operand is
//! always thread-local, so each is written against a private slice.

use tm::{Abort, TBytes};

use crate::access::ByteAccess;

/// `memcmp` where the second operand is thread-local (a key the worker is
/// looking up — the common shape in memcached's `assoc_find`).
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memcmp_slice<'e, A: ByteAccess<'e>>(
    a: &mut A,
    x: &'e TBytes,
    xoff: usize,
    y: &[u8],
) -> Result<i32, Abort> {
    // Chunked bulk reads keep the instrumented clone word-wise.
    let mut buf = [0u8; 32];
    let mut k = 0;
    while k < y.len() {
        let n = (y.len() - k).min(buf.len());
        a.get_range(x, xoff + k, &mut buf[..n])?;
        for j in 0..n {
            let xb = buf[j];
            let yb = y[k + j];
            if xb != yb {
                return Ok(xb as i32 - yb as i32);
            }
        }
        k += n;
    }
    Ok(0)
}

/// Copies a thread-local slice into shared memory (the store path of a
/// memcached `set`).
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memcpy_from_slice<'e, A: ByteAccess<'e>>(
    a: &mut A,
    dst: &'e TBytes,
    doff: usize,
    src: &[u8],
) -> Result<(), Abort> {
    a.put_range(dst, doff, src)
}

/// Copies shared memory into a thread-local slice (the read path of a
/// memcached `get` building its response).
///
/// # Errors
///
/// [`Abort::Conflict`] under transactional access.
pub fn memcpy_to_slice<'e, A: ByteAccess<'e>>(
    a: &mut A,
    src: &'e TBytes,
    soff: usize,
    dst: &mut [u8],
) -> Result<(), Abort> {
    a.get_range(src, soff, dst)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::clones::Direct;
    use tm::TmRuntime;

    #[test]
    fn memcmp_matches_libc_semantics() {
        let x = TBytes::from_slice(b"abcdef");
        let y = TBytes::from_slice(b"abcxef");
        let mut a = Direct;
        assert_eq!(memcmp_slice(&mut a, &x, 0, b"abc").unwrap(), 0);
        assert!(memcmp_slice(&mut a, &x, 0, b"abcxef").unwrap() < 0);
        assert!(memcmp_slice(&mut a, &y, 0, b"abcdef").unwrap() > 0);
        assert_eq!(memcmp_slice(&mut a, &x, 4, b"ef").unwrap(), 0);
    }

    #[test]
    fn memcmp_slice_long_keys_chunked() {
        let key: Vec<u8> = (0..100u8).collect();
        let x = TBytes::from_slice(&key);
        let mut a = Direct;
        assert_eq!(memcmp_slice(&mut a, &x, 0, &key).unwrap(), 0);
        let mut other = key.clone();
        other[63] ^= 0xFF;
        assert_ne!(memcmp_slice(&mut a, &x, 0, &other).unwrap(), 0);
    }

    #[test]
    fn memcpy_transactional_clone() {
        let rt = TmRuntime::default_runtime();
        let dst = TBytes::zeroed(100);
        rt.atomic(|tx| memcpy_from_slice(tx, &dst, 0, &[7u8; 100]));
        assert_eq!(dst.to_vec_direct(), vec![7u8; 100]);
    }

    #[test]
    fn slice_copies() {
        let b = TBytes::zeroed(8);
        let mut a = Direct;
        memcpy_from_slice(&mut a, &b, 1, b"abc").unwrap();
        let mut out = [0u8; 3];
        memcpy_to_slice(&mut a, &b, 1, &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }
}
