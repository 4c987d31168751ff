//! # tmstd — the transaction-safe libc routines memcached calls
//!
//! The paper's §3.4 ("Making Libraries Safe") identifies the unsafe libc
//! calls that kept memcached transactions serializing, and removes them in
//! two ways:
//!
//! 1. **Safety via reimplementation.** The paper rewrote `memcmp`,
//!    `memcpy`, `strlen`, `strncmp`, `strncpy`, `strchr` and a naive
//!    `realloc` as `transaction_safe` functions. The spec requires both
//!    clones of a safe function, transactional and not, to come from one
//!    source; this crate writes each routine once, generic over
//!    [`ByteAccess`], and `mcache::Ctx` instantiates both clones.
//! 2. **Safety via marshaling.** The paper wrapped `isspace`, `strtol`,
//!    `strtoull`, `atoi`, `snprintf` and `htons` in `transaction_pure`
//!    calls on explicitly marshaled private copies ([`pure`]; the
//!    [`marshal`] module; the paper's Figure 7 pattern). `htons` "did not
//!    require any marshaling, since its input and return values are both
//!    integers".
//!
//! This rebuild keeps only the routines its cache calls:
//!
//! * `memcmp` on a lookup key → [`memcmp_slice`] (`key_eq`);
//! * `memcpy` of a value in or out → [`memcpy_from_slice`] /
//!   [`memcpy_to_slice`] (`write_value`, `read_value`, `arith`);
//! * `snprintf(" %u %u\r\n")` into a private buffer →
//!   [`snprintf_item_suffix`], and its sizing half [`item_suffix_len`]
//!   (`item_make_header`; the rendered bytes go out through `memcpy`);
//! * `strtoull` → [`parse_u64`] and [`isspace`] on a marshaled copy
//!   (`arith`, and the protocol tokenizer).
//!
//! Its keys and values are length-counted, so nothing calls `strlen`,
//! `strncmp`, `strncpy`, `strchr` or `realloc`; no signed number is parsed,
//! so nothing calls `strtol` or `atoi`; and the binary protocol's encoders
//! run outside any transaction and use `to_be_bytes` where memcached calls
//! `htons`/`htonl`.
//!
//! ```
//! // memcached's safe_strtoull, on a marshaled private copy:
//! let parsed = tmstd::pure(|| tmstd::parse_u64(b" 42\r\n"));
//! assert_eq!(parsed, Some((42, 3)));
//! assert!(tmstd::isspace(b'\r'));
//! assert_eq!(tmstd::item_suffix_len(7, 1024), b" 7 1024\r\n".len());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod access;
pub mod marshal;
mod mem;

pub use access::ByteAccess;
pub use marshal::{isspace, item_suffix_len, parse_u64, pure, snprintf_item_suffix};
pub use mem::{memcmp_slice, memcpy_from_slice, memcpy_to_slice};

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::access::clones::Direct;
    use testkit::prop::gen;
    use testkit::{prop_assert_eq, proptest};
    use tm::{TBytes, TmRuntime};

    proptest! {
        #![cases(64)]

        /// The two clones of each reimplemented function agree on arbitrary
        /// inputs — the property the single-source requirement exists for.
        #[test]
        fn clones_agree_memcmp(x in gen::bytes(1..64), y in gen::bytes(1..64)) {
            let n = x.len().min(y.len());
            let xb = TBytes::from_slice(&x);
            let rt = TmRuntime::default_runtime();
            let tx_result = rt.atomic(|tx| memcmp_slice(tx, &xb, 0, &y[..n]));
            let direct = memcmp_slice(&mut Direct, &xb, 0, &y[..n]).unwrap();
            prop_assert_eq!(tx_result.signum(), direct.signum());
            prop_assert_eq!(direct.signum(), x[..n].cmp(&y[..n]) as i32);
        }

        #[test]
        fn memcpy_roundtrip(data in gen::bytes(0..256), pad in gen::range(0usize..16)) {
            let dst = TBytes::zeroed(data.len() + pad);
            let rt = TmRuntime::default_runtime();
            let tx_out = rt.atomic(|tx| {
                memcpy_from_slice(tx, &dst, pad, &data)?;
                let mut out = vec![0u8; data.len()];
                memcpy_to_slice(tx, &dst, pad, &mut out)?;
                Ok(out)
            });
            let mut direct_out = vec![0u8; data.len()];
            memcpy_to_slice(&mut Direct, &dst, pad, &mut direct_out).unwrap();
            prop_assert_eq!(&tx_out, &data);
            prop_assert_eq!(&direct_out, &data);
        }

        #[test]
        fn parse_u64_matches_std(v in gen::any_u64(), ws in gen::range(0usize..4)) {
            let s = format!("{}{}", " ".repeat(ws), v);
            let parsed = parse_u64(s.as_bytes());
            prop_assert_eq!(parsed, Some((v, s.len())));
        }
    }
}
