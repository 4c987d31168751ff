//! Safety via marshaling (paper §3.4, Figure 7).
//!
//! Functions that were not worth reimplementing transactionally — the
//! paper lists `isspace`, `strtol`, `strtoull`, `atoi`, `snprintf` and
//! `htons` — were made callable from transactions by *marshaling*: copy
//! the shared-memory arguments onto the stack with instrumented reads,
//! invoke a `transaction_pure` wrapper around the library function on the
//! private copy, and marshal any output back with instrumented writes.
//!
//! The pure computations here are honest reimplementations (no libc), but
//! the structure is the paper's: [`pure`] marks the uninstrumented call,
//! and every entry point performs explicit marshal-in / marshal-out around
//! it. Variable-argument `snprintf` is handled the way the paper did —
//! "manually clone and replace every variable-argument function with a
//! unique version for every combination of parameters that appeared in the
//! program": memcached's one `snprintf` inside a transaction is
//! [`snprintf_item_suffix`], which renders into a private buffer that the
//! caller copies out. Its `strtoull` is [`parse_u64`] over a marshaled
//! copy (`mcache`'s `arith`).

/// Marks an uninstrumented call from transactional context — the
/// `[[transaction_pure]]` extension. The closure must be genuinely pure
/// with respect to shared memory: it may only touch the thread-local data
/// marshaled for it.
///
/// # Examples
///
/// ```
/// let n = tmstd::pure(|| b"123".iter().filter(|b| b.is_ascii_digit()).count());
/// assert_eq!(n, 3);
/// ```
#[inline]
pub fn pure<R>(f: impl FnOnce() -> R) -> R {
    f()
}

/// `isspace` from `<ctype.h>` (C locale). Pure: a byte predicate needs no
/// marshaling at all.
#[inline]
pub fn isspace(b: u8) -> bool {
    matches!(b, b' ' | b'\t' | b'\n' | b'\r' | 0x0b | 0x0c)
}

/// `isdigit` from `<ctype.h>` (C locale).
#[inline]
fn isdigit(b: u8) -> bool {
    b.is_ascii_digit()
}

/// The pure core of `strtoull` (base 10): parses leading whitespace then
/// digits from a private byte slice. Returns `(value, bytes_consumed)`, or
/// `None` if no digits were found. Saturates on overflow (memcached's
/// `incr` wraps separately; saturation keeps the parse total).
pub fn parse_u64(buf: &[u8]) -> Option<(u64, usize)> {
    let mut i = 0;
    while i < buf.len() && isspace(buf[i]) {
        i += 1;
    }
    let start = i;
    let mut v: u64 = 0;
    while i < buf.len() && isdigit(buf[i]) {
        v = v
            .saturating_mul(10)
            .saturating_add((buf[i] - b'0') as u64);
        i += 1;
    }
    if i == start {
        None
    } else {
        Some((v, i))
    }
}

/// Copies `text` (formatted privately) into `out` with C `snprintf`
/// truncation semantics: at most `out.len() - 1` bytes plus a NUL, nothing
/// at all into an empty `out`. Returns the untruncated length, like C.
fn snprintf_out(out: &mut [u8], text: &[u8]) -> usize {
    if let Some(room) = out.len().checked_sub(1) {
        let n = text.len().min(room);
        out[..n].copy_from_slice(&text[..n]);
        out[n] = 0;
    }
    text.len()
}

/// Decimal digit count of `v` (1 for 0): the allocation-free length
/// computation the snprintf clone and `item_make_header` sizing share.
#[inline]
fn dec_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        v.ilog10() as usize + 1
    }
}

/// Renders `v` in decimal at the start of `out`, returning the length.
/// Stack-only on purpose: C's `snprintf` formats into caller storage
/// without touching the heap, and the clone must match — a hidden
/// allocation here would put a malloc on every store.
fn fmt_u64(mut v: u64, out: &mut [u8]) -> usize {
    let n = dec_len(v);
    let mut i = n;
    loop {
        i -= 1;
        out[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    n
}

/// Length `snprintf(.., " %u %u\r\n", flags, nbytes)` would produce —
/// the sizing half of `item_make_header`, computed without rendering.
#[inline]
pub fn item_suffix_len(flags: u32, nbytes: u32) -> usize {
    4 + dec_len(flags as u64) + dec_len(nbytes as u64)
}

/// `snprintf(buf, buf.len(), " %u %u\r\n", flags, nbytes)` — the clone
/// memcached's `item_make_header` calls to render each item's cached
/// response suffix at store time. Like memcached, it formats into a
/// private buffer: the caller marshals the `nsuffix` rendered bytes out
/// with [`crate::memcpy_from_slice`], and the terminating NUL never
/// reaches the item.
pub fn snprintf_item_suffix(buf: &mut [u8], flags: u32, nbytes: u32) -> usize {
    // " " + 10 digits + " " + 10 digits + "\r\n" = 24 bytes max.
    let mut stack = [0u8; 24];
    let mut n = 0;
    stack[n] = b' ';
    n += 1;
    n += fmt_u64(flags as u64, &mut stack[n..]);
    stack[n] = b' ';
    n += 1;
    n += fmt_u64(nbytes as u64, &mut stack[n..]);
    stack[n] = b'\r';
    stack[n + 1] = b'\n';
    n += 2;
    snprintf_out(buf, &stack[..n])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctype_predicates() {
        assert!(isspace(b' ') && isspace(b'\t') && isspace(b'\n'));
        assert!(!isspace(b'a') && !isspace(b'0'));
        assert!(isdigit(b'0') && isdigit(b'9'));
        assert!(!isdigit(b'a'));
    }

    #[test]
    fn parse_u64_cases() {
        assert_eq!(parse_u64(b"123"), Some((123, 3)));
        assert_eq!(parse_u64(b"  42xyz"), Some((42, 4)));
        assert_eq!(parse_u64(b"xyz"), None);
        assert_eq!(parse_u64(b""), None);
        assert_eq!(
            parse_u64(b"99999999999999999999999999"),
            Some((u64::MAX, 26)),
            "saturating overflow"
        );
    }

    #[test]
    fn snprintf_truncates_like_c() {
        let mut d = [0xEE; 8];
        let full = snprintf_item_suffix(&mut d[..5], 7, 1024);
        assert_eq!(full, 9, "returns untruncated length");
        assert_eq!(&d[..6], b" 7 1\0\xEE");
    }

    #[test]
    fn snprintf_zero_cap_writes_nothing() {
        let mut d = [9; 4];
        assert_eq!(snprintf_item_suffix(&mut d[..0], 7, 1024), 9);
        assert_eq!(d, [9; 4]);
    }

    #[test]
    fn item_suffix_clone() {
        let mut d = [0xEE; 32];
        let n = snprintf_item_suffix(&mut d, 7, 1024);
        assert_eq!(&d[..n + 1], b" 7 1024\r\n\0");
        assert_eq!(n, item_suffix_len(7, 1024));
    }
}
