//! Protocol front-ends: the memcached ASCII protocol and the binary
//! protocol memslap exercises with `--binary`.
//!
//! Parsing happens on private connection buffers — memcached does not
//! parse inside critical sections — but it runs through the *same*
//! `tmstd` string routines (`strncmp`, `isspace`, `strtol`, `strchr`) in
//! their uninstrumented clones, keeping the single-source property
//! end-to-end.

use std::panic::{catch_unwind, AssertUnwindSafe};

use tm::TBytes;
use tmstd::DirectAccess;

use crate::cache::{ArithStatus, McCache, StoreMode, StoreOp, StoreStatus};

/// The response a worker sends when a request handler panics: memcached's
/// catch-all `SERVER_ERROR`, so one poisoned request costs one connection
/// one error line instead of the whole process.
pub const SERVER_ERROR_PANIC: &[u8] = b"SERVER_ERROR internal error for this request\r\n";

/// Executes one complete ASCII request (command line and, for storage
/// commands, the data block) against `cache` as worker `w`, returning the
/// wire response.
///
/// Supported: `get`/`gets` (multi-key), `set`, `add`, `replace`,
/// `append`, `prepend`, `cas`, `delete`, `incr`, `decr`, `touch`,
/// `flush_all`, `stats`, `version`.
///
/// A panic unwinding out of the handler (a cache invariant tripped, an
/// injected fault, ...) is caught here, counted in
/// [`McCache::request_panics`], and answered with
/// [`SERVER_ERROR_PANIC`] — the worker thread survives to serve the next
/// request.
pub fn execute_ascii(cache: &McCache, w: usize, request: &[u8]) -> Vec<u8> {
    execute_ascii_ext(cache, w, request, &[])
}

/// [`execute_ascii`] for a caller with counters of its own: `stats`
/// reports `extra_stats` after the cache's [`stat_pairs`]. The wire
/// front end passes its connection-layer counters here.
pub(crate) fn execute_ascii_ext(
    cache: &McCache,
    w: usize,
    request: &[u8],
    extra_stats: &[(&'static str, u64)],
) -> Vec<u8> {
    let run = || execute_ascii_inner(cache, w, request, extra_stats);
    match catch_unwind(AssertUnwindSafe(run)) {
        Ok(resp) => resp,
        Err(_panic) => {
            cache.note_request_panic();
            SERVER_ERROR_PANIC.to_vec()
        }
    }
}

/// The cache's half of the `stats` surface both protocols expose: one
/// `(name, counter)` pair per statistic, in a stable order. The ASCII
/// handler renders them as `STAT name value` lines; the binary handler
/// ([`binary::stat_responses`]) as one key/value response packet each.
/// Both append whatever pairs the calling layer passes down (the wire
/// front end's connection counters), so the two protocols always report
/// the same names. The `dur_*` block appears only when the durability
/// log is attached.
pub fn stat_pairs(cache: &McCache) -> Vec<(&'static str, u64)> {
    let s = cache.stats();
    let tm = cache.tm_stats();
    let mut pairs = vec![
        ("cmd_get", s.threads.get_cmds),
        ("get_hits", s.threads.get_hits),
        ("get_misses", s.threads.get_misses),
        ("cmd_set", s.threads.set_cmds),
        ("curr_items", s.global.curr_items),
        ("total_items", s.global.total_items),
        ("evictions", s.global.evictions),
        ("hash_expansions", s.global.expansions),
        ("slab_reassigns", s.global.rebalances),
        ("request_panics", s.request_panics),
        ("maintenance_panics", s.maintenance_panics),
        // Write-path overdrive gauges: the STM's mutation fast lane
        // and the per-worker slab magazines.
        ("silent_store_elisions", tm.silent_store_elisions),
        ("clock_tick_elisions", tm.clock_tick_elisions),
        ("clock_cas_retries", tm.clock_cas_retries),
        // Contention-path gauges: orec conflicts and NOrec's
        // seqlock-bump elision.
        ("orec_stripe_conflicts", tm.orec_stripe_conflicts),
        ("seqlock_bump_elisions", tm.seqlock_bump_elisions),
        ("magazine_refills", s.global.magazine_refills),
        ("magazine_flushes", s.global.magazine_flushes),
    ];
    if let Some(d) = cache.dur_stats() {
        pairs.extend([
            ("dur_appends", d.appends),
            ("dur_fsyncs", d.fsyncs),
            ("dur_bytes", d.bytes),
            ("log_write_errors", d.log_write_errors),
            ("recovered_items", d.recovered_items),
            ("torn_records_dropped", d.torn_records_dropped),
            ("dur_compactions", d.compactions),
        ]);
    }
    pairs
}

/// `true` when `key` is a protocol-legal key: nonempty and at most
/// [`KEY_MAX`](crate::cache::KEY_MAX) bytes. The cache layer *asserts*
/// these bounds, so the protocol layer must reject violations first —
/// otherwise an oversized key on the wire costs a caught panic and a
/// `SERVER_ERROR` instead of the `CLIENT_ERROR` memcached answers.
fn valid_key(key: &[u8]) -> bool {
    !key.is_empty() && key.len() <= crate::cache::KEY_MAX
}

const BAD_LINE: &[u8] = b"CLIENT_ERROR bad command line format\r\n";

fn execute_ascii_inner(
    cache: &McCache,
    w: usize,
    request: &[u8],
    extra_stats: &[(&'static str, u64)],
) -> Vec<u8> {
    if cache.take_request_panic_trap() {
        panic!("test trap: request panic");
    }
    let buf = TBytes::from_slice(request);
    let mut a = DirectAccess;
    let line_end = match tmstd::strchr(&mut a, &buf, 0, b'\r').expect("direct") {
        Some(i) => i,
        None => return b"ERROR\r\n".to_vec(),
    };
    let line = &request[..line_end];
    let mut parts = Tokens::new(line);
    let Some(cmd) = parts.next() else {
        return b"ERROR\r\n".to_vec();
    };
    match cmd {
        b"get" | b"gets" => {
            let with_cas = cmd == b"gets";
            // One request line, one batch: on transactional branches the
            // whole multiget runs as a single read-only fast-lane
            // transaction (see `McCache::get_multi`).
            let keys: Vec<&[u8]> = parts.collect();
            if keys.is_empty() || keys.iter().any(|k| !valid_key(k)) {
                return if keys.is_empty() {
                    b"ERROR\r\n".to_vec()
                } else {
                    BAD_LINE.to_vec()
                };
            }
            let vals = cache.get_multi(w, &keys);
            let mut out = Vec::new();
            for (key, v) in keys.iter().zip(vals) {
                if let Some(v) = v {
                    out.extend_from_slice(b"VALUE ");
                    out.extend_from_slice(key);
                    if with_cas {
                        out.extend_from_slice(
                            format!(" {} {} {}\r\n", v.flags, v.data.len(), v.cas).as_bytes(),
                        );
                    } else {
                        out.extend_from_slice(
                            format!(" {} {}\r\n", v.flags, v.data.len()).as_bytes(),
                        );
                    }
                    out.extend_from_slice(&v.data);
                    out.extend_from_slice(b"\r\n");
                }
            }
            out.extend_from_slice(b"END\r\n");
            out
        }
        b"set" | b"add" | b"replace" | b"append" | b"prepend" | b"cas" => {
            let Some(key) = parts.next() else {
                return BAD_LINE.to_vec();
            };
            let (Some(flags), Some(exptime), Some(nbytes)) =
                (parts.next_u64(), parts.next_u64(), parts.next_u64())
            else {
                return BAD_LINE.to_vec();
            };
            let cas_id = if cmd == b"cas" {
                match parts.next_u64() {
                    Some(c) => c,
                    None => return BAD_LINE.to_vec(),
                }
            } else {
                0
            };
            let noreply = matches!(parts.next(), Some(b"noreply"));
            if !valid_key(key) {
                return BAD_LINE.to_vec();
            }
            // Bound nbytes by the request itself before any usize
            // arithmetic: a header declaring a length near u64::MAX must
            // not overflow the data-block offsets.
            if nbytes > request.len() as u64 {
                return b"CLIENT_ERROR bad data chunk\r\n".to_vec();
            }
            let data_start = line_end + 2;
            let data_end = data_start + nbytes as usize;
            if request.len() < data_end + 2 || &request[data_end..data_end + 2] != b"\r\n" {
                return b"CLIENT_ERROR bad data chunk\r\n".to_vec();
            }
            let data = &request[data_start..data_end];
            let st = match cmd {
                b"set" => cache.set(w, key, data, flags as u32, exptime as u32),
                b"add" => cache.add(w, key, data, flags as u32, exptime as u32),
                b"replace" => cache.replace(w, key, data, flags as u32, exptime as u32),
                b"append" => cache.append(w, key, data),
                b"prepend" => cache.prepend(w, key, data),
                b"cas" => cache.cas(w, key, data, flags as u32, exptime as u32, cas_id),
                _ => unreachable!(),
            };
            if noreply {
                Vec::new()
            } else {
                store_reply(st).to_vec()
            }
        }
        b"delete" => {
            let Some(key) = parts.next() else {
                return BAD_LINE.to_vec();
            };
            let noreply = matches!(parts.next(), Some(b"noreply"));
            if !valid_key(key) {
                return BAD_LINE.to_vec();
            }
            let deleted = cache.delete(w, key);
            if noreply {
                Vec::new()
            } else if deleted {
                b"DELETED\r\n".to_vec()
            } else {
                b"NOT_FOUND\r\n".to_vec()
            }
        }
        b"incr" | b"decr" => {
            let (Some(key), Some(delta)) = (parts.next(), parts.next_u64()) else {
                return BAD_LINE.to_vec();
            };
            let noreply = matches!(parts.next(), Some(b"noreply"));
            if !valid_key(key) {
                return BAD_LINE.to_vec();
            }
            let st = cache.arith(w, key, delta, cmd == b"incr");
            if noreply {
                return Vec::new();
            }
            match st {
                ArithStatus::Ok(v) => format!("{v}\r\n").into_bytes(),
                ArithStatus::NotFound => b"NOT_FOUND\r\n".to_vec(),
                ArithStatus::NonNumeric => {
                    b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n".to_vec()
                }
            }
        }
        b"touch" => {
            let (Some(key), Some(exp)) = (parts.next(), parts.next_u64()) else {
                return BAD_LINE.to_vec();
            };
            let noreply = matches!(parts.next(), Some(b"noreply"));
            if !valid_key(key) {
                return BAD_LINE.to_vec();
            }
            let touched = cache.touch(w, key, exp as u32);
            if noreply {
                Vec::new()
            } else if touched {
                b"TOUCHED\r\n".to_vec()
            } else {
                b"NOT_FOUND\r\n".to_vec()
            }
        }
        b"flush_all" => {
            let noreply = matches!(parts.next(), Some(b"noreply"));
            cache.flush_all(w);
            if noreply {
                Vec::new()
            } else {
                b"OK\r\n".to_vec()
            }
        }
        b"stats" => {
            let mut out = String::new();
            for (k, v) in stat_pairs(cache).iter().chain(extra_stats) {
                out.push_str(&format!("STAT {k} {v}\r\n"));
            }
            out.push_str("END\r\n");
            out.into_bytes()
        }
        b"version" => format!("VERSION 1.4.15-tm ({})\r\n", cache.branch()).into_bytes(),
        _ => b"ERROR\r\n".to_vec(),
    }
}

/// Executes a run of pre-split COMPLETE ASCII requests, as delimited
/// by [`scan_frame`] — the connection dispatcher feeds it exactly the
/// frames sitting in a connection's read buffer — and returns the
/// concatenated responses in order.
///
/// Runs of consecutive simple storage commands (`set`/`add`/`replace`/
/// `cas`) execute as ONE batched store transaction via
/// [`McCache::store_batch`] — the write-path twin of the multiget batch —
/// so a bulk load pays one begin/commit fence for the whole run;
/// `noreply` ops inside a batch keep their quiet semantics (the store
/// happens, the reply is suppressed). Every other command (including
/// `append`/`prepend`, which are get+CAS retry loops) dispatches
/// one-by-one through [`execute_ascii`], keeping its per-request panic
/// guard. A panic inside a batched run is caught here and answered with
/// one [`SERVER_ERROR_PANIC`] per batched command.
pub fn execute_ascii_run(cache: &McCache, w: usize, cmds: &[&[u8]]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < cmds.len() {
        let Some((op, noreply)) = parse_store_op(cmds[i]) else {
            out.extend_from_slice(&execute_ascii(cache, w, cmds[i]));
            i += 1;
            continue;
        };
        let mut ops = vec![op];
        let mut quiet = vec![noreply];
        let mut j = i + 1;
        while j < cmds.len() {
            let Some((op, noreply)) = parse_store_op(cmds[j]) else { break };
            ops.push(op);
            quiet.push(noreply);
            j += 1;
        }
        let statuses = catch_unwind(AssertUnwindSafe(|| {
            if cache.take_request_panic_trap() {
                panic!("test trap: request panic");
            }
            cache.store_batch(w, &ops)
        }));
        match statuses {
            Ok(sts) => {
                for (st, &q) in sts.into_iter().zip(&quiet) {
                    if !q {
                        out.extend_from_slice(store_reply(st));
                    }
                }
            }
            Err(_panic) => {
                cache.note_request_panic();
                for &q in &quiet {
                    if !q {
                        out.extend_from_slice(SERVER_ERROR_PANIC);
                    }
                }
            }
        }
        i = j;
    }
    out
}

/// Result of scanning a connection read buffer for one complete frame
/// (see [`scan_frame`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FrameScan {
    /// No complete frame yet: keep the bytes and read more.
    Incomplete,
    /// One complete ASCII request occupies the first `len` bytes.
    Ascii {
        /// Frame length: command line plus any data block, CRLFs included.
        len: usize,
    },
    /// One complete binary request occupies the first `len` bytes.
    Binary {
        /// Frame length: the 24-byte header plus body.
        len: usize,
    },
    /// The buffer head is not a servable frame. `response` goes to the
    /// client, `consumed` bytes leave the buffer now, the next `swallow`
    /// bytes (which may not have arrived yet) are discarded as they
    /// stream in, and `close` marks the connection beyond resync.
    Error {
        /// Bytes to drop from the front of the buffer immediately.
        consumed: usize,
        /// Further bytes to discard as they arrive — an oversized data
        /// block still in flight, kept off the heap entirely.
        swallow: usize,
        /// Whether to drop the connection once the response flushes.
        close: bool,
        /// Error line (ASCII) or error frame (binary) to send.
        response: Vec<u8>,
    },
}

/// Longest accepted ASCII command line, CRLF excluded (memcached's
/// fixed command-line read buffer). A longer line without a CRLF can
/// never resynchronize, so the connection closes.
pub const ASCII_LINE_MAX: usize = 2048;

/// Largest accepted ASCII data block: memcached's default 1 MiB item
/// cap. A bigger store answers `SERVER_ERROR object too large for
/// cache` and the in-flight data block is swallowed byte-for-byte,
/// keeping the connection synchronized without buffering the payload.
pub const ASCII_VALUE_MAX: usize = 1 << 20;

/// Largest accepted binary request body. Past this the header cannot
/// be trusted (there is no CRLF to hunt for), so the connection closes.
pub const BINARY_BODY_MAX: usize = 2 << 20;

/// Largest oversized ASCII data block the server will swallow to keep a
/// connection synchronized. A declared length past this (memcached's
/// `-I` ceiling is 1 GiB) is treated as a lying or hostile header, not
/// a real payload: swallowing it would pin the connection for an
/// unbounded stream — and a length near `u64::MAX` does not even fit
/// `usize` arithmetic — so the connection closes instead, mirroring the
/// [`BINARY_BODY_MAX`] path.
pub const ASCII_SWALLOW_MAX: u64 = 1 << 30;

/// Scans the head of a connection read buffer for one complete frame,
/// auto-detecting the protocol per frame: a leading
/// [`binary::REQ_MAGIC`] byte means binary, anything else ASCII.
///
/// This is the incremental-parsing entry point the server's connection
/// state machine drives. It never copies and never executes; it only
/// reports exact byte counts, so a request split across socket reads —
/// a `set` whose data block straddles two reads, a binary header cut
/// mid-word — is simply [`FrameScan::Incomplete`] until the rest
/// arrives.
pub fn scan_frame(buf: &[u8]) -> FrameScan {
    let Some(&first) = buf.first() else {
        return FrameScan::Incomplete;
    };
    if first == binary::REQ_MAGIC {
        if buf.len() < 24 {
            return FrameScan::Incomplete;
        }
        let body_len = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
        if body_len > BINARY_BODY_MAX {
            let opaque = u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]);
            return FrameScan::Error {
                consumed: buf.len(),
                swallow: 0,
                close: true,
                response: binary::error_frame(buf[1], opaque, binary::Status::ValueTooLarge),
            };
        }
        return if buf.len() < 24 + body_len {
            FrameScan::Incomplete
        } else {
            FrameScan::Binary { len: 24 + body_len }
        };
    }
    let line_end = match buf.windows(2).position(|w| w == b"\r\n") {
        Some(i) => i,
        None => {
            return if buf.len() > ASCII_LINE_MAX {
                FrameScan::Error {
                    consumed: buf.len(),
                    swallow: 0,
                    close: true,
                    response: BAD_LINE.to_vec(),
                }
            } else {
                FrameScan::Incomplete
            };
        }
    };
    let mut parts = Tokens::new(&buf[..line_end]);
    let is_store = matches!(
        parts.next(),
        Some(b"set" | b"add" | b"replace" | b"append" | b"prepend" | b"cas")
    );
    if !is_store {
        return FrameScan::Ascii { len: line_end + 2 };
    }
    // Storage header: key flags exptime nbytes [cas] [noreply]. If it
    // doesn't parse, the line alone is the frame — the single-request
    // path answers CLIENT_ERROR, exactly as a desynchronized memcached
    // connection would.
    let nbytes = (|| {
        parts.next()?; // key
        parts.next_u64()?; // flags
        parts.next_u64()?; // exptime
        parts.next_u64() // nbytes
    })();
    let Some(nbytes) = nbytes else {
        return FrameScan::Ascii { len: line_end + 2 };
    };
    if nbytes > ASCII_VALUE_MAX as u64 {
        if nbytes > ASCII_SWALLOW_MAX {
            return FrameScan::Error {
                consumed: line_end + 2,
                swallow: 0,
                close: true,
                response: b"SERVER_ERROR object too large for cache\r\n".to_vec(),
            };
        }
        return FrameScan::Error {
            consumed: line_end + 2,
            swallow: nbytes as usize + 2,
            close: false,
            response: b"SERVER_ERROR object too large for cache\r\n".to_vec(),
        };
    }
    let total = line_end + 2 + nbytes as usize + 2;
    if buf.len() < total {
        // A data block straddling two socket reads: not a frame yet.
        // (A bad trailing CRLF still frames as `total` bytes — the
        // executor answers `CLIENT_ERROR bad data chunk`.)
        FrameScan::Incomplete
    } else {
        FrameScan::Ascii { len: total }
    }
}

/// Parses one complete request as a batchable storage op: `set`/`add`/
/// `replace`/`cas` with a well-formed command line and data block. The
/// second element is the `noreply` flag — a quiet op still joins the
/// batch, its reply is simply suppressed.
fn parse_store_op(req: &[u8]) -> Option<(StoreOp<'_>, bool)> {
    let line_end = req.windows(2).position(|w| w == b"\r\n")?;
    let mut parts = Tokens::new(&req[..line_end]);
    let cmd = parts.next()?;
    if !matches!(cmd, b"set" | b"add" | b"replace" | b"cas") {
        return None;
    }
    let key = parts.next()?;
    let flags = parts.next_u64()?;
    let exptime = parts.next_u64()?;
    let nbytes = parts.next_u64()?;
    if nbytes > req.len() as u64 {
        return None; // the data block cannot be present; keep usize math exact
    }
    let nbytes = nbytes as usize;
    let mode = match cmd {
        b"set" => StoreMode::Set,
        b"add" => StoreMode::Add,
        b"replace" => StoreMode::Replace,
        _ => StoreMode::Cas(parts.next_u64()?),
    };
    let noreply = matches!(parts.next(), Some(b"noreply"));
    if key.is_empty() || key.len() > crate::cache::KEY_MAX {
        return None;
    }
    let data_start = line_end + 2;
    let data_end = data_start + nbytes;
    if req.len() != data_end + 2 || &req[data_end..] != b"\r\n" {
        return None;
    }
    Some((
        StoreOp {
            mode,
            key,
            value: &req[data_start..data_end],
            flags: flags as u32,
            exptime: exptime as u32,
        },
        noreply,
    ))
}

fn store_reply(st: StoreStatus) -> &'static [u8] {
    match st {
        StoreStatus::Stored => b"STORED\r\n",
        StoreStatus::NotStored => b"NOT_STORED\r\n",
        StoreStatus::Exists => b"EXISTS\r\n",
        StoreStatus::NotFound => b"NOT_FOUND\r\n",
        StoreStatus::TooLarge => b"SERVER_ERROR object too large for cache\r\n",
        StoreStatus::OutOfMemory => b"SERVER_ERROR out of memory storing object\r\n",
    }
}

/// Whitespace tokenizer using the ctype helper from `tmstd` (the C
/// tokenizer's `isspace` walk).
struct Tokens<'a> {
    rest: &'a [u8],
}

impl<'a> Tokens<'a> {
    fn new(line: &'a [u8]) -> Self {
        Tokens { rest: line }
    }

    fn next_u64(&mut self) -> Option<u64> {
        let tok = self.next()?;
        tmstd::parse_u64(tok).and_then(|(v, used)| (used == tok.len()).then_some(v))
    }
}

impl<'a> Iterator for Tokens<'a> {
    type Item = &'a [u8];
    fn next(&mut self) -> Option<&'a [u8]> {
        let mut i = 0;
        while i < self.rest.len() && tmstd::isspace(self.rest[i]) {
            i += 1;
        }
        if i == self.rest.len() {
            self.rest = &[];
            return None;
        }
        let start = i;
        while i < self.rest.len() && !tmstd::isspace(self.rest[i]) {
            i += 1;
        }
        let tok = &self.rest[start..i];
        self.rest = &self.rest[i..];
        Some(tok)
    }
}

/// The binary protocol (memslap `--binary`).
pub mod binary {
    use super::*;

    /// Binary request magic.
    pub const REQ_MAGIC: u8 = 0x80;
    /// Binary response magic.
    pub const RES_MAGIC: u8 = 0x81;

    /// Binary opcodes (the subset memslap and our examples use).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(u8)]
    #[allow(missing_docs)]
    pub enum Opcode {
        Get = 0x00,
        Set = 0x01,
        Add = 0x02,
        Replace = 0x03,
        Delete = 0x04,
        Increment = 0x05,
        Decrement = 0x06,
        /// Quiet GET: misses send no response, no key echo on hits.
        /// Pipelined runs batch exactly like [`Opcode::GetKQ`].
        GetQ = 0x09,
        Noop = 0x0a,
        Version = 0x0b,
        /// GET returning the key in the response body.
        GetK = 0x0c,
        /// Quiet GETK: misses send no response, so a client can pipeline
        /// `GETKQ k1 .. GETKQ kn, Noop` as one multiget
        /// (see [`execute_pipeline`]).
        GetKQ = 0x0d,
        /// STAT: answered by a *series* of response packets, one per
        /// statistic (key = stat name, value = decimal counter), closed
        /// by a packet with an empty key and empty value. Dispatched in
        /// [`execute_pipeline`] via [`stat_responses`] — the only opcode
        /// whose single request fans out to multiple responses.
        Stat = 0x10,
        /// Quiet SET: successes send no response, so a client can pipeline
        /// `SETQ k1 .. SETQ kn, Noop` as one bulk load — the write-path
        /// twin of the GETKQ multiget; [`execute_pipeline`] runs the whole
        /// run as one batched store transaction.
        SetQ = 0x11,
        /// Quiet DELETE: successes send no response.
        DeleteQ = 0x14,
    }

    /// Binary status codes.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    #[repr(u16)]
    #[allow(missing_docs)]
    pub enum Status {
        Ok = 0x0000,
        KeyNotFound = 0x0001,
        KeyExists = 0x0002,
        ValueTooLarge = 0x0003,
        /// 0x0004: a known opcode with a malformed frame layout.
        InvalidArguments = 0x0004,
        NotStored = 0x0005,
        NonNumeric = 0x0006,
        OutOfMemory = 0x0082,
        UnknownCommand = 0x0081,
        /// 0x0084: the handler panicked and was recovered by the
        /// per-request guard.
        InternalError = 0x0084,
    }

    impl Opcode {
        /// Decodes a wire opcode byte.
        pub fn from_u8(b: u8) -> Option<Opcode> {
            Some(match b {
                0x00 => Opcode::Get,
                0x01 => Opcode::Set,
                0x02 => Opcode::Add,
                0x03 => Opcode::Replace,
                0x04 => Opcode::Delete,
                0x05 => Opcode::Increment,
                0x06 => Opcode::Decrement,
                0x09 => Opcode::GetQ,
                0x0a => Opcode::Noop,
                0x0b => Opcode::Version,
                0x0c => Opcode::GetK,
                0x0d => Opcode::GetKQ,
                0x10 => Opcode::Stat,
                0x11 => Opcode::SetQ,
                0x14 => Opcode::DeleteQ,
                _ => return None,
            })
        }
    }

    impl Status {
        /// Decodes a wire status code.
        pub fn from_u16(v: u16) -> Option<Status> {
            Some(match v {
                0x0000 => Status::Ok,
                0x0001 => Status::KeyNotFound,
                0x0002 => Status::KeyExists,
                0x0003 => Status::ValueTooLarge,
                0x0004 => Status::InvalidArguments,
                0x0005 => Status::NotStored,
                0x0006 => Status::NonNumeric,
                0x0081 => Status::UnknownCommand,
                0x0082 => Status::OutOfMemory,
                0x0084 => Status::InternalError,
                _ => return None,
            })
        }
    }

    /// A decoded binary request.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Request {
        /// Command.
        pub opcode: Opcode,
        /// Opaque echoed back in the response.
        pub opaque: u32,
        /// CAS precondition (0 = none).
        pub cas: u64,
        /// Key bytes.
        pub key: Vec<u8>,
        /// Value bytes (stores).
        pub value: Vec<u8>,
        /// Client flags (stores) or delta (arithmetic).
        pub extra: u64,
    }

    /// A binary response.
    #[derive(Clone, Debug, PartialEq, Eq)]
    pub struct Response {
        /// Outcome.
        pub status: Status,
        /// The request opcode this answers (drives wire framing: get-class
        /// hits carry a 4-byte flags extras block).
        pub opcode: Opcode,
        /// Echoed opaque.
        pub opaque: u32,
        /// Stored item's CAS (stores/gets).
        pub cas: u64,
        /// Item client flags (get-class hits; 0 otherwise).
        pub flags: u32,
        /// Key echo (GETK/GETKQ hits; empty otherwise).
        pub key: Vec<u8>,
        /// Value (gets, arithmetic results, version).
        pub value: Vec<u8>,
    }

    impl Request {
        /// Encodes to the 24-byte-header wire format. `htons`-family
        /// conversions come from `tmstd`, as in the paper's §3.4 inventory.
        pub fn encode(&self) -> Vec<u8> {
            let keylen = self.key.len() as u16;
            let extlen: u8 = match self.opcode {
                Opcode::Set | Opcode::SetQ | Opcode::Add | Opcode::Replace => 8,
                Opcode::Increment | Opcode::Decrement => 8,
                _ => 0,
            };
            let body_len = self.key.len() + self.value.len() + extlen as usize;
            let mut out = Vec::with_capacity(24 + body_len);
            out.push(REQ_MAGIC);
            out.push(self.opcode as u8);
            out.extend_from_slice(&tmstd::htons(keylen).to_ne_bytes());
            out.push(extlen);
            out.push(0); // data type
            out.extend_from_slice(&tmstd::htons(0).to_ne_bytes()); // vbucket
            out.extend_from_slice(&tmstd::htonl(body_len as u32).to_ne_bytes());
            out.extend_from_slice(&tmstd::htonl(self.opaque).to_ne_bytes());
            out.extend_from_slice(&self.cas.to_be_bytes());
            if extlen == 8 {
                out.extend_from_slice(&self.extra.to_be_bytes());
            }
            out.extend_from_slice(&self.key);
            out.extend_from_slice(&self.value);
            out
        }

        /// Decodes from the wire format.
        pub fn decode(buf: &[u8]) -> Option<Request> {
            if buf.len() < 24 || buf[0] != REQ_MAGIC {
                return None;
            }
            let opcode = Opcode::from_u8(buf[1])?;
            let keylen = u16::from_be_bytes([buf[2], buf[3]]) as usize;
            let extlen = buf[4] as usize;
            let body_len = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
            let opaque = u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]);
            let cas = u64::from_be_bytes(buf[16..24].try_into().ok()?);
            if buf.len() < 24 + body_len || body_len < keylen + extlen {
                return None;
            }
            let extra = if extlen == 8 {
                u64::from_be_bytes(buf[24..32].try_into().ok()?)
            } else {
                0
            };
            let key = buf[24 + extlen..24 + extlen + keylen].to_vec();
            let value = buf[24 + extlen + keylen..24 + body_len].to_vec();
            Some(Request {
                opcode,
                opaque,
                cas,
                key,
                value,
                extra,
            })
        }
    }

    impl Response {
        /// Encodes to the wire format (magic [`RES_MAGIC`]). Get-class
        /// hits carry the item's client flags as the canonical 4-byte
        /// extras block; everything else has no extras.
        pub fn encode(&self) -> Vec<u8> {
            let is_get = matches!(
                self.opcode,
                Opcode::Get | Opcode::GetQ | Opcode::GetK | Opcode::GetKQ
            );
            let extlen: u8 = if is_get && self.status == Status::Ok { 4 } else { 0 };
            let body_len = extlen as usize + self.key.len() + self.value.len();
            let mut out = Vec::with_capacity(24 + body_len);
            out.push(RES_MAGIC);
            out.push(self.opcode as u8);
            out.extend_from_slice(&tmstd::htons(self.key.len() as u16).to_ne_bytes());
            out.push(extlen);
            out.push(0); // data type
            out.extend_from_slice(&tmstd::htons(self.status as u16).to_ne_bytes());
            out.extend_from_slice(&tmstd::htonl(body_len as u32).to_ne_bytes());
            out.extend_from_slice(&tmstd::htonl(self.opaque).to_ne_bytes());
            out.extend_from_slice(&self.cas.to_be_bytes());
            if extlen == 4 {
                out.extend_from_slice(&self.flags.to_be_bytes());
            }
            out.extend_from_slice(&self.key);
            out.extend_from_slice(&self.value);
            out
        }

        /// Decodes one response frame from the front of `buf`, returning
        /// it plus the frame length. `None` if the frame is incomplete,
        /// not a response, or carries an opcode/status this module does
        /// not know.
        pub fn decode(buf: &[u8]) -> Option<(Response, usize)> {
            if buf.len() < 24 || buf[0] != RES_MAGIC {
                return None;
            }
            let opcode = Opcode::from_u8(buf[1])?;
            let keylen = u16::from_be_bytes([buf[2], buf[3]]) as usize;
            let extlen = buf[4] as usize;
            let status = Status::from_u16(u16::from_be_bytes([buf[6], buf[7]]))?;
            let body_len = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
            let opaque = u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]);
            let cas = u64::from_be_bytes(buf[16..24].try_into().ok()?);
            if buf.len() < 24 + body_len || body_len < keylen + extlen {
                return None;
            }
            let flags = if extlen >= 4 {
                u32::from_be_bytes(buf[24..28].try_into().ok()?)
            } else {
                0
            };
            let key = buf[24 + extlen..24 + extlen + keylen].to_vec();
            let value = buf[24 + extlen + keylen..24 + body_len].to_vec();
            Some((
                Response {
                    status,
                    opcode,
                    opaque,
                    cas,
                    flags,
                    key,
                    value,
                },
                24 + body_len,
            ))
        }
    }

    /// Builds a raw error response frame for a request that could not
    /// even be decoded: the raw opcode byte and opaque echo back so a
    /// pipelining client can correlate, with a short human-readable
    /// message body as real memcached sends.
    pub fn error_frame(raw_opcode: u8, opaque: u32, status: Status) -> Vec<u8> {
        let msg: &[u8] = match status {
            Status::UnknownCommand => b"Unknown command",
            Status::InvalidArguments => b"Invalid arguments",
            Status::ValueTooLarge => b"Too large",
            _ => b"Error",
        };
        let mut out = Vec::with_capacity(24 + msg.len());
        out.push(RES_MAGIC);
        out.push(raw_opcode);
        out.extend_from_slice(&tmstd::htons(0).to_ne_bytes());
        out.push(0);
        out.push(0); // data type
        out.extend_from_slice(&tmstd::htons(status as u16).to_ne_bytes());
        out.extend_from_slice(&tmstd::htonl(msg.len() as u32).to_ne_bytes());
        out.extend_from_slice(&tmstd::htonl(opaque).to_ne_bytes());
        out.extend_from_slice(&0u64.to_be_bytes());
        out.extend_from_slice(msg);
        out
    }

    /// Decodes one COMPLETE binary frame (as delimited by
    /// [`super::scan_frame`]) into a [`Request`], or produces the error
    /// response frame a real server answers without dropping the
    /// connection: [`Status::UnknownCommand`] for an unrecognized
    /// opcode, [`Status::InvalidArguments`] for a known opcode whose
    /// header lengths don't add up.
    pub fn parse_frame(frame: &[u8]) -> Result<Request, Vec<u8>> {
        debug_assert!(frame.len() >= 24 && frame[0] == REQ_MAGIC);
        let opaque = u32::from_be_bytes([frame[12], frame[13], frame[14], frame[15]]);
        if Opcode::from_u8(frame[1]).is_none() {
            return Err(error_frame(frame[1], opaque, Status::UnknownCommand));
        }
        Request::decode(frame).ok_or_else(|| error_frame(frame[1], opaque, Status::InvalidArguments))
    }

    /// Dispatches one binary request.
    ///
    /// Like [`super::execute_ascii`], a panicking handler is caught,
    /// counted, and turned into a [`Status::InternalError`] response.
    pub fn execute(cache: &McCache, w: usize, req: &Request) -> Response {
        match catch_unwind(AssertUnwindSafe(|| execute_inner(cache, w, req))) {
            Ok(resp) => resp,
            Err(_panic) => {
                cache.note_request_panic();
                Response {
                    status: Status::InternalError,
                    opcode: req.opcode,
                    opaque: req.opaque,
                    cas: 0,
                    flags: 0,
                    key: Vec::new(),
                    value: Vec::new(),
                }
            }
        }
    }

    /// Answers one [`Opcode::Stat`] request with the full multi-packet
    /// dump: one [`Status::Ok`] response per statistic from
    /// [`super::stat_pairs`] and then from `extra_stats`, the calling
    /// layer's own counters (key = stat name, value = the counter in
    /// decimal ASCII), then the canonical terminator — an empty-key,
    /// empty-value packet. A non-empty request key selects a stat
    /// subgroup, which this server does not implement: it answers a
    /// single [`Status::KeyNotFound`], as real memcached does for an
    /// unknown stat group. Panics are caught and answered like
    /// [`execute`]'s.
    pub fn stat_responses(
        cache: &McCache,
        req: &Request,
        extra_stats: &[(&'static str, u64)],
    ) -> Vec<Response> {
        let mk = |key: Vec<u8>, value: Vec<u8>| Response {
            status: Status::Ok,
            opcode: req.opcode,
            opaque: req.opaque,
            cas: 0,
            flags: 0,
            key,
            value,
        };
        if !req.key.is_empty() {
            let mut r = mk(Vec::new(), Vec::new());
            r.status = Status::KeyNotFound;
            return vec![r];
        }
        let dump = catch_unwind(AssertUnwindSafe(|| {
            if cache.take_request_panic_trap() {
                panic!("test trap: request panic");
            }
            super::stat_pairs(cache)
        }));
        let Ok(pairs) = dump else {
            cache.note_request_panic();
            let mut r = mk(Vec::new(), Vec::new());
            r.status = Status::InternalError;
            return vec![r];
        };
        let mut out: Vec<Response> = pairs
            .iter()
            .chain(extra_stats)
            .map(|(k, v)| mk(k.as_bytes().to_vec(), v.to_string().into_bytes()))
            .collect();
        out.push(mk(Vec::new(), Vec::new()));
        out
    }

    /// Dispatches a pipelined batch of binary requests.
    ///
    /// Runs of consecutive quiet gets ([`Opcode::GetKQ`]/[`Opcode::GetQ`])
    /// — the binary protocol's multiget idiom — execute as ONE read-only
    /// fast-lane transaction via [`McCache::get_multi`], and, per the quiet
    /// semantics, misses produce no response at all. Runs of consecutive
    /// quiet sets ([`Opcode::SetQ`]) — the bulk-load idiom — execute as
    /// ONE batched store transaction via [`McCache::store_batch`], and
    /// successes produce no response. Quiet deletes ([`Opcode::DeleteQ`])
    /// suppress their success responses. Every other opcode (including
    /// the terminating `Noop`) dispatches one-by-one through [`execute`].
    /// A panic inside a batch is caught here and answered with one
    /// [`Status::InternalError`] per batched request.
    pub fn execute_pipeline(cache: &McCache, w: usize, reqs: &[Request]) -> Vec<Response> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < reqs.len() {
            if reqs[i].opcode == Opcode::SetQ {
                let mut j = i + 1;
                // CAS-carrying SETQs keep their per-op dispatch (store_batch
                // handles them, but the run stays simple without).
                while j < reqs.len() && reqs[j].opcode == Opcode::SetQ {
                    j += 1;
                }
                let batch = &reqs[i..j];
                let statuses = catch_unwind(AssertUnwindSafe(|| {
                    if cache.take_request_panic_trap() {
                        panic!("test trap: request panic");
                    }
                    let ops: Vec<StoreOp<'_>> = batch
                        .iter()
                        .map(|r| StoreOp {
                            mode: if r.cas != 0 { StoreMode::Cas(r.cas) } else { StoreMode::Set },
                            key: &r.key,
                            value: &r.value,
                            flags: r.extra as u32,
                            exptime: 0,
                        })
                        .collect();
                    cache.store_batch(w, &ops)
                }));
                match statuses {
                    Ok(statuses) => {
                        for (r, st) in batch.iter().zip(statuses) {
                            // Quiet set: success sends nothing.
                            let status = match st {
                                StoreStatus::Stored => continue,
                                StoreStatus::NotStored => Status::NotStored,
                                StoreStatus::Exists => Status::KeyExists,
                                StoreStatus::NotFound => Status::KeyNotFound,
                                StoreStatus::TooLarge => Status::ValueTooLarge,
                                StoreStatus::OutOfMemory => Status::OutOfMemory,
                            };
                            out.push(Response {
                                status,
                                opcode: r.opcode,
                                opaque: r.opaque,
                                cas: 0,
                                flags: 0,
                                key: Vec::new(),
                                value: Vec::new(),
                            });
                        }
                    }
                    Err(_panic) => {
                        cache.note_request_panic();
                        for r in batch {
                            out.push(Response {
                                status: Status::InternalError,
                                opcode: r.opcode,
                                opaque: r.opaque,
                                cas: 0,
                                flags: 0,
                                key: Vec::new(),
                                value: Vec::new(),
                            });
                        }
                    }
                }
                i = j;
                continue;
            }
            if reqs[i].opcode == Opcode::DeleteQ {
                let r = execute(cache, w, &reqs[i]);
                if r.status != Status::Ok {
                    out.push(r);
                }
                i += 1;
                continue;
            }
            if reqs[i].opcode == Opcode::Stat {
                // One request, many responses: the stat dump plus its
                // empty-key terminator.
                out.extend(stat_responses(cache, &reqs[i], &[]));
                i += 1;
                continue;
            }
            if !matches!(reqs[i].opcode, Opcode::GetKQ | Opcode::GetQ) {
                out.push(execute(cache, w, &reqs[i]));
                i += 1;
                continue;
            }
            let mut j = i + 1;
            while j < reqs.len() && matches!(reqs[j].opcode, Opcode::GetKQ | Opcode::GetQ) {
                j += 1;
            }
            let batch = &reqs[i..j];
            let vals = catch_unwind(AssertUnwindSafe(|| {
                if cache.take_request_panic_trap() {
                    panic!("test trap: request panic");
                }
                let keys: Vec<&[u8]> = batch.iter().map(|r| r.key.as_slice()).collect();
                cache.get_multi(w, &keys)
            }));
            match vals {
                Ok(vals) => {
                    for (r, v) in batch.iter().zip(vals) {
                        // Quiet get: a miss sends nothing. Only GETKQ
                        // echoes the key.
                        if let Some(v) = v {
                            out.push(Response {
                                status: Status::Ok,
                                opcode: r.opcode,
                                opaque: r.opaque,
                                cas: v.cas,
                                flags: v.flags,
                                key: if r.opcode == Opcode::GetKQ {
                                    r.key.clone()
                                } else {
                                    Vec::new()
                                },
                                value: v.data,
                            });
                        }
                    }
                }
                Err(_panic) => {
                    cache.note_request_panic();
                    for r in batch {
                        out.push(Response {
                            status: Status::InternalError,
                            opcode: r.opcode,
                            opaque: r.opaque,
                            cas: 0,
                            flags: 0,
                            key: Vec::new(),
                            value: Vec::new(),
                        });
                    }
                }
            }
            i = j;
        }
        out
    }

    fn execute_inner(cache: &McCache, w: usize, req: &Request) -> Response {
        if cache.take_request_panic_trap() {
            panic!("test trap: request panic");
        }
        let mut resp = Response {
            status: Status::Ok,
            opcode: req.opcode,
            opaque: req.opaque,
            cas: 0,
            flags: 0,
            key: Vec::new(),
            value: Vec::new(),
        };
        match req.opcode {
            Opcode::Get | Opcode::GetQ | Opcode::GetK | Opcode::GetKQ => {
                match cache.get(w, &req.key) {
                    Some(v) => {
                        resp.cas = v.cas;
                        resp.flags = v.flags;
                        resp.value = v.data;
                        if matches!(req.opcode, Opcode::GetK | Opcode::GetKQ) {
                            resp.key = req.key.clone();
                        }
                    }
                    None => resp.status = Status::KeyNotFound,
                }
            }
            Opcode::Set | Opcode::SetQ | Opcode::Add | Opcode::Replace => {
                let st = if req.cas != 0 {
                    cache.cas(w, &req.key, &req.value, req.extra as u32, 0, req.cas)
                } else {
                    match req.opcode {
                        Opcode::Set | Opcode::SetQ => {
                            cache.set(w, &req.key, &req.value, req.extra as u32, 0)
                        }
                        Opcode::Add => cache.add(w, &req.key, &req.value, req.extra as u32, 0),
                        _ => cache.replace(w, &req.key, &req.value, req.extra as u32, 0),
                    }
                };
                resp.status = match st {
                    StoreStatus::Stored => Status::Ok,
                    StoreStatus::NotStored => Status::NotStored,
                    StoreStatus::Exists => Status::KeyExists,
                    StoreStatus::NotFound => Status::KeyNotFound,
                    StoreStatus::TooLarge => Status::ValueTooLarge,
                    StoreStatus::OutOfMemory => Status::OutOfMemory,
                };
            }
            Opcode::Delete | Opcode::DeleteQ => {
                if !cache.delete(w, &req.key) {
                    resp.status = Status::KeyNotFound;
                }
            }
            Opcode::Increment | Opcode::Decrement => {
                match cache.arith(w, &req.key, req.extra, req.opcode == Opcode::Increment) {
                    ArithStatus::Ok(v) => resp.value = v.to_be_bytes().to_vec(),
                    ArithStatus::NotFound => resp.status = Status::KeyNotFound,
                    ArithStatus::NonNumeric => resp.status = Status::NonNumeric,
                }
            }
            Opcode::Noop => {}
            Opcode::Stat => {
                // The server answers STAT through stat_responses (one
                // request, many packets). A lone dispatch answers only
                // the terminator packet.
            }
            Opcode::Version => {
                resp.value = format!("1.4.15-tm ({})", cache.branch()).into_bytes();
            }
        }
        resp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{McCache, McConfig};
    use crate::policy::{Branch, Stage};

    fn cache() -> crate::cache::McHandle {
        McCache::start(McConfig {
            branch: Branch::Ip(Stage::OnCommit),
            workers: 1,
            hash_power: 8,
            hash_power_max: 10,
            slab: crate::SlabConfig {
                mem_limit: 2 << 20,
                page_size: 64 << 10,
                chunk_min: 96,
                growth_factor: 1.5,
            },
            ..Default::default()
        })
    }

    #[test]
    fn ascii_set_get_roundtrip() {
        let c = cache();
        let r = execute_ascii(&c, 0, b"set mykey 42 0 5\r\nhello\r\n");
        assert_eq!(r, b"STORED\r\n");
        let r = execute_ascii(&c, 0, b"get mykey\r\n");
        assert_eq!(r, b"VALUE mykey 42 5\r\nhello\r\nEND\r\n");
        let r = execute_ascii(&c, 0, b"get missing\r\n");
        assert_eq!(r, b"END\r\n");
    }

    #[test]
    fn ascii_gets_reports_cas_and_cas_store() {
        let c = cache();
        execute_ascii(&c, 0, b"set k 0 0 1\r\nA\r\n");
        let r = execute_ascii(&c, 0, b"gets k\r\n");
        let text = String::from_utf8(r).unwrap();
        assert!(text.starts_with("VALUE k 0 1 "), "{text}");
        let cas: u64 = text
            .lines()
            .next()
            .unwrap()
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let r = execute_ascii(&c, 0, format!("cas k 0 0 1 {cas}\r\nB\r\n").into_bytes().as_slice());
        assert_eq!(r, b"STORED\r\n");
        let r = execute_ascii(&c, 0, format!("cas k 0 0 1 {cas}\r\nC\r\n").into_bytes().as_slice());
        assert_eq!(r, b"EXISTS\r\n");
    }

    #[test]
    fn ascii_multi_get() {
        let c = cache();
        execute_ascii(&c, 0, b"set a 0 0 1\r\nA\r\n");
        execute_ascii(&c, 0, b"set b 0 0 1\r\nB\r\n");
        let r = execute_ascii(&c, 0, b"get a b missing\r\n");
        let text = String::from_utf8(r).unwrap();
        assert!(text.contains("VALUE a 0 1\r\nA"), "{text}");
        assert!(text.contains("VALUE b 0 1\r\nB"), "{text}");
        assert!(text.ends_with("END\r\n"));
    }

    #[test]
    fn ascii_arith_delete_touch() {
        let c = cache();
        execute_ascii(&c, 0, b"set n 0 0 2\r\n41\r\n");
        assert_eq!(execute_ascii(&c, 0, b"incr n 1\r\n"), b"42\r\n");
        assert_eq!(execute_ascii(&c, 0, b"decr n 2\r\n"), b"40\r\n");
        assert_eq!(execute_ascii(&c, 0, b"incr missing 1\r\n"), b"NOT_FOUND\r\n");
        assert_eq!(execute_ascii(&c, 0, b"touch n 100\r\n"), b"TOUCHED\r\n");
        assert_eq!(execute_ascii(&c, 0, b"delete n\r\n"), b"DELETED\r\n");
        assert_eq!(execute_ascii(&c, 0, b"delete n\r\n"), b"NOT_FOUND\r\n");
    }

    #[test]
    fn ascii_request_panic_becomes_server_error() {
        let c = cache();
        execute_ascii(&c, 0, b"set k 0 0 1\r\nA\r\n");
        c.trip_request_panic();
        let r = execute_ascii(&c, 0, b"get k\r\n");
        assert_eq!(r, SERVER_ERROR_PANIC);
        assert_eq!(c.request_panics(), 1);
        // The worker survives: the very next request succeeds.
        let r = execute_ascii(&c, 0, b"get k\r\n");
        assert_eq!(r, b"VALUE k 0 1\r\nA\r\nEND\r\n");
        let stats = String::from_utf8(execute_ascii(&c, 0, b"stats\r\n")).unwrap();
        assert!(stats.contains("STAT request_panics 1"), "{stats}");
    }

    #[test]
    fn binary_request_panic_becomes_internal_error() {
        let c = cache();
        let get = binary::Request {
            opcode: binary::Opcode::Get,
            opaque: 0xDEAD_BEEF,
            cas: 0,
            key: b"k".to_vec(),
            value: Vec::new(),
            extra: 0,
        };
        c.trip_request_panic();
        let resp = binary::execute(&c, 0, &get);
        assert_eq!(resp.status, binary::Status::InternalError);
        assert_eq!(resp.opaque, 0xDEAD_BEEF, "opaque still echoed");
        assert_eq!(c.request_panics(), 1);
        // Recovered: a normal miss afterwards.
        let resp = binary::execute(&c, 0, &get);
        assert_eq!(resp.status, binary::Status::KeyNotFound);
    }

    #[test]
    fn ascii_errors() {
        let c = cache();
        assert_eq!(execute_ascii(&c, 0, b"bogus\r\n"), b"ERROR\r\n");
        assert_eq!(execute_ascii(&c, 0, b"no crlf"), b"ERROR\r\n");
        assert!(execute_ascii(&c, 0, b"set k x y z\r\n").starts_with(b"CLIENT_ERROR"));
        assert!(execute_ascii(&c, 0, b"set k 0 0 10\r\nshort\r\n").starts_with(b"CLIENT_ERROR"));
    }

    #[test]
    fn ascii_stats_and_version() {
        let c = cache();
        execute_ascii(&c, 0, b"set k 0 0 1\r\nA\r\n");
        execute_ascii(&c, 0, b"get k\r\n");
        let stats = String::from_utf8(execute_ascii(&c, 0, b"stats\r\n")).unwrap();
        assert!(stats.contains("STAT cmd_get 1"), "{stats}");
        assert!(stats.contains("STAT curr_items 1"), "{stats}");
        let v = String::from_utf8(execute_ascii(&c, 0, b"version\r\n")).unwrap();
        assert!(v.contains("1.4.15-tm"), "{v}");
        assert!(v.contains("IP-onCommit"), "{v}");
    }

    #[test]
    fn binary_roundtrip() {
        let c = cache();
        let set = binary::Request {
            opcode: binary::Opcode::Set,
            opaque: 99,
            cas: 0,
            key: b"bkey".to_vec(),
            value: b"bval".to_vec(),
            extra: 3,
        };
        // Wire encode/decode roundtrip.
        let decoded = binary::Request::decode(&set.encode()).unwrap();
        assert_eq!(decoded, set);
        let resp = binary::execute(&c, 0, &decoded);
        assert_eq!(resp.status, binary::Status::Ok);
        assert_eq!(resp.opaque, 99);
        let get = binary::Request {
            opcode: binary::Opcode::Get,
            opaque: 7,
            cas: 0,
            key: b"bkey".to_vec(),
            value: vec![],
            extra: 0,
        };
        let resp = binary::execute(&c, 0, &get);
        assert_eq!(resp.status, binary::Status::Ok);
        assert_eq!(resp.value, b"bval");
        let del = binary::Request {
            opcode: binary::Opcode::Delete,
            opaque: 1,
            cas: 0,
            key: b"bkey".to_vec(),
            value: vec![],
            extra: 0,
        };
        assert_eq!(binary::execute(&c, 0, &del).status, binary::Status::Ok);
        assert_eq!(
            binary::execute(&c, 0, &del).status,
            binary::Status::KeyNotFound
        );
    }

    #[test]
    fn binary_arith() {
        let c = cache();
        execute_ascii(&c, 0, b"set n 0 0 1\r\n5\r\n");
        let incr = binary::Request {
            opcode: binary::Opcode::Increment,
            opaque: 0,
            cas: 0,
            key: b"n".to_vec(),
            value: vec![],
            extra: 10,
        };
        let resp = binary::execute(&c, 0, &incr);
        assert_eq!(resp.status, binary::Status::Ok);
        assert_eq!(u64::from_be_bytes(resp.value.try_into().unwrap()), 15);
    }

    #[test]
    fn binary_getk_echoes_key() {
        let c = cache();
        execute_ascii(&c, 0, b"set k 0 0 1\r\nA\r\n");
        let getk = binary::Request {
            opcode: binary::Opcode::GetK,
            opaque: 3,
            cas: 0,
            key: b"k".to_vec(),
            value: vec![],
            extra: 0,
        };
        let decoded = binary::Request::decode(&getk.encode()).unwrap();
        assert_eq!(decoded, getk);
        let resp = binary::execute(&c, 0, &decoded);
        assert_eq!(resp.status, binary::Status::Ok);
        assert_eq!(resp.key, b"k");
        assert_eq!(resp.value, b"A");
    }

    #[test]
    fn binary_quiet_multiget_pipeline() {
        let c = cache();
        execute_ascii(&c, 0, b"set a 0 0 1\r\nA\r\n");
        execute_ascii(&c, 0, b"set b 0 0 1\r\nB\r\n");
        let q = |key: &[u8], opaque| binary::Request {
            opcode: binary::Opcode::GetKQ,
            opaque,
            cas: 0,
            key: key.to_vec(),
            value: vec![],
            extra: 0,
        };
        let noop = binary::Request {
            opcode: binary::Opcode::Noop,
            opaque: 99,
            cas: 0,
            key: vec![],
            value: vec![],
            extra: 0,
        };
        let reqs = [q(b"a", 1), q(b"missing", 2), q(b"b", 3), noop];
        let resps = binary::execute_pipeline(&c, 0, &reqs);
        // The miss is silent; only two hits plus the Noop answer.
        assert_eq!(resps.len(), 3);
        assert_eq!((resps[0].opaque, resps[0].key.as_slice()), (1, &b"a"[..]));
        assert_eq!(resps[0].value, b"A");
        assert_eq!((resps[1].opaque, resps[1].key.as_slice()), (3, &b"b"[..]));
        assert_eq!(resps[1].value, b"B");
        assert_eq!(resps[2].opaque, 99);
        // Three gets went through, batched or not.
        let s = c.stats();
        assert_eq!(s.threads.get_cmds, 3);
        assert_eq!(s.threads.get_hits, 2);
        assert_eq!(s.threads.get_misses, 1);
        assert_eq!(s.global.cmd_total, s.threads.total_cmds(), "shards folded in");
    }

    #[test]
    fn binary_pipeline_panic_answers_whole_batch() {
        let c = cache();
        let q = |key: &[u8], opaque| binary::Request {
            opcode: binary::Opcode::GetKQ,
            opaque,
            cas: 0,
            key: key.to_vec(),
            value: vec![],
            extra: 0,
        };
        c.trip_request_panic();
        let resps = binary::execute_pipeline(&c, 0, &[q(b"a", 1), q(b"b", 2)]);
        assert_eq!(resps.len(), 2);
        assert!(resps.iter().all(|r| r.status == binary::Status::InternalError));
        assert_eq!(c.request_panics(), 1);
    }

    #[test]
    fn binary_decode_rejects_garbage() {
        assert!(binary::Request::decode(b"short").is_none());
        assert!(binary::Request::decode(&[0x81; 30]).is_none(), "wrong magic");
    }

    fn magazine_cache() -> crate::cache::McHandle {
        McCache::start(McConfig {
            branch: Branch::It(Stage::OnCommit),
            workers: 1,
            hash_power: 8,
            hash_power_max: 10,
            magazine: 16,
            slab: crate::SlabConfig {
                mem_limit: 2 << 20,
                page_size: 64 << 10,
                chunk_min: 96,
                growth_factor: 1.5,
            },
            ..Default::default()
        })
    }

    /// What the connection dispatcher does with an all-ASCII buffer:
    /// delimit with `scan_frame`, execute the complete frames as one
    /// run. Returns the responses, the bytes consumed, and the scan
    /// result that ended the run.
    fn scan_and_run(c: &McCache, buf: &[u8]) -> (Vec<u8>, usize, FrameScan) {
        let mut frames = Vec::new();
        let mut consumed = 0;
        let end = loop {
            match scan_frame(&buf[consumed..]) {
                FrameScan::Ascii { len } => {
                    frames.push(&buf[consumed..consumed + len]);
                    consumed += len;
                }
                other => break other,
            }
        };
        (execute_ascii_run(c, 0, &frames), consumed, end)
    }

    #[test]
    fn ascii_run_batches_storage_commands() {
        for c in [cache(), magazine_cache()] {
            let buf = b"set a 1 0 2\r\nAA\r\n\
                        set b 2 0 2\r\nBB\r\n\
                        add a 0 0 1\r\nX\r\n\
                        get a b\r\n\
                        set c 0 0 1\r\nC\r\n\
                        delete c\r\n";
            let (out, consumed, end) = scan_and_run(&c, buf);
            assert_eq!((consumed, end), (buf.len(), FrameScan::Incomplete));
            let text = String::from_utf8(out).unwrap();
            assert_eq!(
                text,
                "STORED\r\nSTORED\r\nNOT_STORED\r\n\
                 VALUE a 1 2\r\nAA\r\nVALUE b 2 2\r\nBB\r\nEND\r\n\
                 STORED\r\nDELETED\r\n",
                "responses stay in request order"
            );
            // The three consecutive storage commands went through one batch:
            // still counted per-op.
            assert_eq!(c.stats().threads.set_cmds, 4);
        }
    }

    #[test]
    fn ascii_run_answers_malformed_tail_like_a_single_request() {
        let c = cache();
        let (out, ..) = scan_and_run(&c, b"set k 0 0 1\r\nA\r\nbogus cmd\r\n");
        assert_eq!(out, b"STORED\r\nERROR\r\n");
        // A data block that overruns its declared length frames as the
        // declared bytes; the executor answers CLIENT_ERROR for the bad
        // terminator, exactly as the single-request path does.
        let buf = b"get k\r\nset x 0 0 3\r\nshort\r\n";
        let (out, consumed, _) = scan_and_run(&c, buf);
        assert_eq!(consumed, buf.len());
        assert_eq!(
            out,
            b"VALUE k 0 1\r\nA\r\nEND\r\nCLIENT_ERROR bad data chunk\r\nERROR\r\n"
        );
        // An unparseable storage header is a frame of its own.
        let (out, ..) = scan_and_run(&c, b"get k\r\nset x y z\r\n");
        assert_eq!(out, [&b"VALUE k 0 1\r\nA\r\nEND\r\n"[..], BAD_LINE].concat());
    }

    #[test]
    fn binary_setq_pipeline_is_quiet_on_success() {
        for c in [cache(), magazine_cache()] {
            let setq = |key: &[u8], value: &[u8], cas: u64, opaque| binary::Request {
                opcode: binary::Opcode::SetQ,
                opaque,
                cas,
                key: key.to_vec(),
                value: value.to_vec(),
                extra: 9,
            };
            // Wire roundtrip for the new opcode.
            let decoded = binary::Request::decode(&setq(b"k", b"v", 0, 5).encode()).unwrap();
            assert_eq!(decoded.opcode, binary::Opcode::SetQ);
            assert_eq!(decoded.extra, 9);

            let noop = binary::Request {
                opcode: binary::Opcode::Noop,
                opaque: 77,
                cas: 0,
                key: vec![],
                value: vec![],
                extra: 0,
            };
            let reqs = [
                setq(b"qa", b"va", 0, 1),
                setq(b"qb", b"vb", 0, 2),
                setq(b"qa", b"clash", 999_999, 3), // CAS mismatch: must answer
                noop,
            ];
            let resps = binary::execute_pipeline(&c, 0, &reqs);
            assert_eq!(resps.len(), 2, "two quiet successes: {resps:?}");
            assert_eq!(resps[0].status, binary::Status::KeyExists);
            assert_eq!(resps[0].opaque, 3);
            assert_eq!(resps[1].opaque, 77);
            // Both stores really landed, with the SetQ extras as flags.
            let out = execute_ascii(&c, 0, b"get qa qb\r\n");
            let text = String::from_utf8(out).unwrap();
            assert!(text.contains("VALUE qa 9 2\r\nva"), "{text}");
            assert!(text.contains("VALUE qb 9 2\r\nvb"), "{text}");
            assert_eq!(c.stats().threads.set_cmds, 3, "quiet ops still counted");
        }
    }

    #[test]
    fn binary_deleteq_quiet_on_hit_loud_on_miss() {
        let c = cache();
        execute_ascii(&c, 0, b"set k 0 0 1\r\nA\r\n");
        let delq = |key: &[u8], opaque| binary::Request {
            opcode: binary::Opcode::DeleteQ,
            opaque,
            cas: 0,
            key: key.to_vec(),
            value: vec![],
            extra: 0,
        };
        let resps = binary::execute_pipeline(&c, 0, &[delq(b"k", 1), delq(b"missing", 2)]);
        assert_eq!(resps.len(), 1, "hit is silent: {resps:?}");
        assert_eq!(resps[0].status, binary::Status::KeyNotFound);
        assert_eq!(resps[0].opaque, 2);
        assert!(c.get(0, b"k").is_none());
    }

    #[test]
    fn ascii_noreply_suppresses_responses() {
        let c = cache();
        assert_eq!(execute_ascii(&c, 0, b"set k 7 0 1 noreply\r\nA\r\n"), b"");
        assert_eq!(execute_ascii(&c, 0, b"get k\r\n"), b"VALUE k 7 1\r\nA\r\nEND\r\n");
        assert_eq!(execute_ascii(&c, 0, b"set n 0 0 1 noreply\r\n5\r\n"), b"");
        assert_eq!(execute_ascii(&c, 0, b"incr n 1 noreply\r\n"), b"");
        assert_eq!(execute_ascii(&c, 0, b"get n\r\n"), b"VALUE n 0 1\r\n6\r\nEND\r\n");
        assert_eq!(execute_ascii(&c, 0, b"touch n 10 noreply\r\n"), b"");
        assert_eq!(execute_ascii(&c, 0, b"delete n noreply\r\n"), b"");
        assert_eq!(execute_ascii(&c, 0, b"get n\r\n"), b"END\r\n");
        // Quiet ops inside a batched pipeline stay quiet; loud ones answer.
        let (out, ..) = scan_and_run(
            &c,
            b"set a 0 0 1 noreply\r\nA\r\nset b 0 0 1\r\nB\r\nset c 0 0 1 noreply\r\nC\r\n",
        );
        assert_eq!(out, b"STORED\r\n");
        assert_eq!(execute_ascii(&c, 0, b"get a c\r\n").len(), b"VALUE a 0 1\r\nA\r\nVALUE c 0 1\r\nC\r\nEND\r\n".len());
    }

    #[test]
    fn ascii_oversized_key_is_client_error_not_panic() {
        let c = cache();
        let big = vec![b'x'; crate::cache::KEY_MAX + 1];
        let mut req = b"set ".to_vec();
        req.extend_from_slice(&big);
        req.extend_from_slice(b" 0 0 1\r\nA\r\n");
        assert!(execute_ascii(&c, 0, &req).starts_with(b"CLIENT_ERROR"));
        let mut req = b"get ".to_vec();
        req.extend_from_slice(&big);
        req.extend_from_slice(b"\r\n");
        assert!(execute_ascii(&c, 0, &req).starts_with(b"CLIENT_ERROR"));
        assert!(execute_ascii(&c, 0, b"delete \r\n").starts_with(b"CLIENT_ERROR"));
        assert_eq!(c.request_panics(), 0, "rejected at the protocol layer");
    }

    #[test]
    fn scan_frame_reports_exact_lengths() {
        assert_eq!(scan_frame(b""), FrameScan::Incomplete);
        assert_eq!(scan_frame(b"get k"), FrameScan::Incomplete);
        assert_eq!(scan_frame(b"get k\r\n"), FrameScan::Ascii { len: 7 });
        assert_eq!(scan_frame(b"get k\r\nget j\r\n"), FrameScan::Ascii { len: 7 });
        // A set's frame spans the data block; short data is Incomplete.
        assert_eq!(scan_frame(b"set k 0 0 5\r\nhel"), FrameScan::Incomplete);
        assert_eq!(
            scan_frame(b"set k 0 0 5\r\nhello\r\n"),
            FrameScan::Ascii { len: 20 }
        );
        // Unparseable storage header: the line alone is the frame.
        assert_eq!(scan_frame(b"set k x y z\r\n"), FrameScan::Ascii { len: 13 });
        // Binary framing: header then body.
        let req = binary::Request {
            opcode: binary::Opcode::Set,
            opaque: 1,
            cas: 0,
            key: b"k".to_vec(),
            value: b"v".to_vec(),
            extra: 0,
        }
        .encode();
        assert_eq!(scan_frame(&req[..10]), FrameScan::Incomplete);
        assert_eq!(scan_frame(&req[..24]), FrameScan::Incomplete);
        assert_eq!(scan_frame(&req), FrameScan::Binary { len: req.len() });
    }

    #[test]
    fn scan_frame_oversized_and_unsyncable_inputs() {
        // Oversized ASCII value: error now, swallow the in-flight block.
        let line = format!("set k 0 0 {}\r\n", ASCII_VALUE_MAX + 1);
        match scan_frame(line.as_bytes()) {
            FrameScan::Error {
                consumed,
                swallow,
                close,
                response,
            } => {
                assert_eq!(consumed, line.len());
                assert_eq!(swallow, ASCII_VALUE_MAX + 3);
                assert!(!close, "oversized value keeps the connection");
                assert!(response.starts_with(b"SERVER_ERROR object too large"));
            }
            other => panic!("expected Error, got {other:?}"),
        }
        // A command line that can never terminate closes the connection.
        let junk = vec![b'a'; ASCII_LINE_MAX + 1];
        match scan_frame(&junk) {
            FrameScan::Error { close, .. } => assert!(close),
            other => panic!("expected Error, got {other:?}"),
        }
        // An absurd declared length — up to u64::MAX, which would
        // overflow `swallow + 2` — is unsyncable: no swallow, close.
        for n in [ASCII_SWALLOW_MAX + 1, u64::MAX - 1, u64::MAX] {
            let line = format!("set k 0 0 {n}\r\n");
            match scan_frame(line.as_bytes()) {
                FrameScan::Error {
                    consumed,
                    swallow,
                    close,
                    response,
                } => {
                    assert_eq!(consumed, line.len());
                    assert_eq!(swallow, 0, "nothing swallowable about {n} bytes");
                    assert!(close, "a lying header is beyond resync");
                    assert!(response.starts_with(b"SERVER_ERROR object too large"));
                }
                other => panic!("expected Error for nbytes {n}, got {other:?}"),
            }
        }
        // The same headers through the single-request executor and the
        // batch parser: answered / rejected without offset overflow.
        let c = cache();
        let huge = format!("set k 0 0 {}\r\nx\r\n", u64::MAX);
        assert_eq!(
            execute_ascii(&c, 0, huge.as_bytes()),
            b"CLIENT_ERROR bad data chunk\r\n".to_vec()
        );
        assert!(parse_store_op(huge.as_bytes()).is_none());
        // A binary header promising a huge body closes too.
        let mut frame = vec![0u8; 24];
        frame[0] = binary::REQ_MAGIC;
        frame[1] = 0x01;
        frame[8..12].copy_from_slice(&(BINARY_BODY_MAX as u32 + 1).to_be_bytes());
        match scan_frame(&frame) {
            FrameScan::Error { close, response, .. } => {
                assert!(close);
                assert_eq!(response[0], binary::RES_MAGIC);
            }
            other => panic!("expected Error, got {other:?}"),
        }
    }

    #[test]
    fn ascii_run_leaves_straddled_set_unconsumed() {
        let c = cache();
        // First socket read ends mid-data-block: nothing consumed.
        let part = b"get missing\r\nset s 0 0 5\r\nhel";
        let (out, consumed, end) = scan_and_run(&c, part);
        assert_eq!(consumed, 13, "only the get consumed");
        assert_eq!(out, b"END\r\n");
        assert_eq!(end, FrameScan::Incomplete);
        // Second read completes the block: the set executes.
        let full = b"set s 0 0 5\r\nhello\r\nget s\r\n";
        let (out, consumed, _) = scan_and_run(&c, full);
        assert_eq!(consumed, full.len());
        assert_eq!(out, b"STORED\r\nVALUE s 0 5\r\nhello\r\nEND\r\n");
    }

    #[test]
    fn ascii_run_stops_at_error_frame_with_its_swallow_and_close_state() {
        let c = cache();
        let buf = format!("set ok 0 0 1\r\nA\r\nset big 0 0 {}\r\n", ASCII_VALUE_MAX + 1);
        let (out, consumed, end) = scan_and_run(&c, buf.as_bytes());
        assert_eq!(out, b"STORED\r\n");
        let FrameScan::Error {
            consumed: c2,
            swallow,
            close,
            response,
        } = end
        else {
            panic!("expected Error, got {end:?}");
        };
        assert_eq!(consumed + c2, buf.len());
        assert_eq!(swallow, ASCII_VALUE_MAX + 3);
        assert!(!close);
        assert!(response.starts_with(b"SERVER_ERROR object too large"));
    }

    #[test]
    fn binary_response_wire_roundtrip() {
        let resp = binary::Response {
            status: binary::Status::Ok,
            opcode: binary::Opcode::GetK,
            opaque: 0xABCD,
            cas: 77,
            flags: 42,
            key: b"k".to_vec(),
            value: b"hello".to_vec(),
        };
        let wire = resp.encode();
        let (decoded, used) = binary::Response::decode(&wire).unwrap();
        assert_eq!(used, wire.len());
        assert_eq!(decoded, resp);
        // Non-get responses carry no extras and flags decode as 0.
        let resp = binary::Response {
            status: binary::Status::KeyExists,
            opcode: binary::Opcode::Set,
            opaque: 9,
            cas: 0,
            flags: 0,
            key: Vec::new(),
            value: Vec::new(),
        };
        let wire = resp.encode();
        assert_eq!(wire.len(), 24);
        let (decoded, _) = binary::Response::decode(&wire).unwrap();
        assert_eq!(decoded, resp);
    }

    #[test]
    fn binary_parse_frame_answers_unknown_and_malformed() {
        // Unknown opcode: UnknownCommand, opaque echoed, connection keeps.
        let mut frame = vec![0u8; 24];
        frame[0] = binary::REQ_MAGIC;
        frame[1] = 0x7f;
        frame[12..16].copy_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        let err = binary::parse_frame(&frame).unwrap_err();
        assert_eq!(err[0], binary::RES_MAGIC);
        assert_eq!(u16::from_be_bytes([err[6], err[7]]), 0x0081);
        assert_eq!(u32::from_be_bytes([err[12], err[13], err[14], err[15]]), 0xDEAD_BEEF);
        // Known opcode, bogus layout (keylen > body): InvalidArguments.
        let mut frame = vec![0u8; 24];
        frame[0] = binary::REQ_MAGIC;
        frame[1] = 0x00; // Get
        frame[2..4].copy_from_slice(&10u16.to_be_bytes());
        let err = binary::parse_frame(&frame).unwrap_err();
        assert_eq!(u16::from_be_bytes([err[6], err[7]]), 0x0004);
    }

    #[test]
    fn binary_getq_is_quiet_and_batches() {
        let c = cache();
        execute_ascii(&c, 0, b"set a 5 0 1\r\nA\r\n");
        let q = |key: &[u8], opaque| binary::Request {
            opcode: binary::Opcode::GetQ,
            opaque,
            cas: 0,
            key: key.to_vec(),
            value: vec![],
            extra: 0,
        };
        let noop = binary::Request {
            opcode: binary::Opcode::Noop,
            opaque: 9,
            cas: 0,
            key: vec![],
            value: vec![],
            extra: 0,
        };
        let resps = binary::execute_pipeline(&c, 0, &[q(b"a", 1), q(b"missing", 2), noop]);
        assert_eq!(resps.len(), 2, "miss is silent: {resps:?}");
        assert_eq!(resps[0].opaque, 1);
        assert_eq!(resps[0].value, b"A");
        assert_eq!(resps[0].flags, 5);
        assert!(resps[0].key.is_empty(), "GETQ does not echo the key");
        assert_eq!(resps[1].opaque, 9);
        assert_eq!(c.stats().threads.get_cmds, 2, "both gets went through");
    }

    #[test]
    fn ascii_stats_reports_write_path_counters() {
        let c = magazine_cache();
        execute_ascii(&c, 0, b"set k 0 0 1\r\nA\r\n");
        // A silent store: same key, same bytes.
        execute_ascii(&c, 0, b"set k 0 0 1\r\nA\r\n");
        let stats = String::from_utf8(execute_ascii(&c, 0, b"stats\r\n")).unwrap();
        for key in [
            "silent_store_elisions",
            "clock_tick_elisions",
            "clock_cas_retries",
            "orec_stripe_conflicts",
            "seqlock_bump_elisions",
            "magazine_refills",
            "magazine_flushes",
        ] {
            assert!(stats.contains(&format!("STAT {key} ")), "missing {key}: {stats}");
        }
        let refills: u64 = stats
            .lines()
            .find_map(|l| l.strip_prefix("STAT magazine_refills "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert!(refills > 0, "magazine cache must have refilled: {stats}");
    }
}
