//! Edge cases for the §3.4 library-safety layer: marshaling and the
//! reimplemented memory functions at their boundaries — empty inputs,
//! capacity-length renderings, and non-ASCII bytes. The clone-agreement
//! tests live next to each routine; here the uninstrumented clone is a
//! local [`DirectAccess`] adaptor.

use tm::{Abort, TBytes, TWord};
use tmstd::{
    memcmp_slice, memcpy_from_slice, memcpy_to_slice, parse_u64, snprintf_item_suffix, ByteAccess,
};

/// The uninstrumented clone: plain loads and stores.
struct DirectAccess;

impl<'env> ByteAccess<'env> for DirectAccess {
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

// --- empty slices ---------------------------------------------------------

#[test]
fn empty_buffers_compare_equal_and_copy_nothing() {
    let empty = TBytes::from_slice(b"");
    let mut a = DirectAccess;
    assert_eq!(memcmp_slice(&mut a, &empty, 0, b"").unwrap(), 0);
    // Zero-length copies touch no bytes, even at offset 0 of an empty buffer.
    memcpy_from_slice(&mut a, &empty, 0, b"").unwrap();
    memcpy_to_slice(&mut a, &empty, 0, &mut []).unwrap();
    assert_eq!(empty.to_vec_direct(), b"");
}

#[test]
fn empty_parse_inputs_are_rejected_not_mangled() {
    assert_eq!(parse_u64(b""), None);
    assert_eq!(parse_u64(b"   "), None, "whitespace only");
}

// --- max-length strings ---------------------------------------------------

#[test]
fn forty_digit_value_saturates_but_stays_total() {
    let s: Vec<u8> = std::iter::repeat(b'9').take(40).collect();
    assert_eq!(parse_u64(&s), Some((u64::MAX, 40)));
}

#[test]
fn snprintf_exact_capacity_boundaries() {
    // memcached renders the item suffix into a private buffer and copies
    // the rendered bytes out; the NUL stays in the buffer.
    // cap == len + 1: fits exactly, nothing truncated.
    let mut d = [0xEE; 16];
    assert_eq!(snprintf_item_suffix(&mut d[..8], 7, 11), 7);
    assert_eq!(&d[..9], b" 7 11\r\n\0\xEE");
    // cap == len: C semantics lose the last byte to the NUL.
    let mut e = [0xEE; 16];
    assert_eq!(snprintf_item_suffix(&mut e[..7], 7, 11), 7);
    assert_eq!(&e[..8], b" 7 11\r\0\xEE");
}

// --- non-ASCII bytes ------------------------------------------------------

#[test]
fn memcmp_treats_bytes_as_unsigned() {
    // In C, memcmp compares unsigned chars: 0xFF > 0x01. A signed-char
    // slip would invert this.
    let hi = TBytes::from_slice(&[0xFF]);
    let mut a = DirectAccess;
    assert!(memcmp_slice(&mut a, &hi, 0, &[0x01]).unwrap() > 0);
}

#[test]
fn non_ascii_keys_survive_string_functions() {
    // Keys are arbitrary bytes in memcached's binary protocol.
    // Keys are length-counted, so an embedded NUL does not end one.
    let key = [0xC3u8, 0xA9, 0x80, 0xFE, 0x01, 0x00, 0xAA];
    let dst = TBytes::zeroed(9);
    let mut a = DirectAccess;
    memcpy_from_slice(&mut a, &dst, 1, &key).unwrap();
    assert_eq!(memcmp_slice(&mut a, &dst, 1, &key).unwrap(), 0);
    assert!(
        memcmp_slice(&mut a, &dst, 1, &[0xC3, 0xA9, 0x80, 0xFE, 0x01, 0x00, 0xAB]).unwrap() < 0
    );
    let mut out = [0u8; 7];
    memcpy_to_slice(&mut a, &dst, 1, &mut out).unwrap();
    assert_eq!(out, key);
}

#[test]
fn non_ascii_bytes_do_not_parse_as_digits() {
    // 0xB2 is SUPERSCRIPT TWO in latin-1; is_ascii_digit must reject it
    // (C's isdigit with a locale could not be trusted here).
    assert_eq!(parse_u64(&[0xC2, 0xB2]), None);
    assert_eq!(parse_u64(&[0xB9, 0xB2, 0xB3]), None);
    assert_eq!(parse_u64(b"12\xC2\xB2"), Some((12, 2)), "stops at the first");
}
