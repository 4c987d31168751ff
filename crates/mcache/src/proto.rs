//! Protocol front-ends: the memcached ASCII protocol and the binary
//! protocol memslap exercises with `--binary`, as one request pipeline.
//!
//! 1. **Decode.** One framer-decoder per protocol delimits the frame at
//!    the head of a buffer and decodes it in the same pass into a request
//!    that borrows the buffer: a command and how to answer it (ASCII
//!    `noreply`/`gets`, or the binary opcode, opaque and quiet flag). An
//!    ASCII line is tokenized once; binary keys and values stay slices of
//!    the read buffer.
//! 2. **Execute.** One executor runs decoded requests in order under one
//!    run rule, whatever their protocol: consecutive get-class requests
//!    are one [`McCache::get_multi`], consecutive set/add/replace/cas
//!    stores one [`McCache::store_batch`], anything else runs alone. Each
//!    run has one panic guard.
//! 3. **Encode.** Each request's outcome goes to its protocol's encoder:
//!    ASCII text, or a binary [`binary::Response`].
//!
//! Parsing happens on private connection buffers — memcached does not
//! parse inside critical sections — but it runs through the *same*
//! `tmstd` routines (`isspace`, `parse_u64`) the transactions use,
//! keeping the single-source property end-to-end.
//! [`scan_frame`], [`execute_ascii`], [`execute_ascii_run`] and the
//! [`binary`] entry points are thin wrappers over the three stages; the
//! wire front end drives them directly.

use std::io::Write as _;
use std::mem::discriminant;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use crate::cache::{ArithStatus, GetValue, McCache, PerOp, StoreMode, StoreOp, StoreStatus};
use crate::net::NetStats;
use crate::policy::Branch;

use binary::{Opcode, Response};

/// The response a worker sends when a request handler panics: memcached's
/// catch-all `SERVER_ERROR`, so one poisoned request costs one connection
/// one error line instead of the whole process.
pub const SERVER_ERROR_PANIC: &[u8] = b"SERVER_ERROR internal error for this request\r\n";

const ERROR: &[u8] = b"ERROR\r\n";
const BAD_LINE: &[u8] = b"CLIENT_ERROR bad command line format\r\n";
const BAD_CHUNK: &[u8] = b"CLIENT_ERROR bad data chunk\r\n";
const TOO_LARGE: &[u8] = b"SERVER_ERROR object too large for cache\r\n";

/// Executes one complete ASCII request (command line and, for storage
/// commands, the data block) against `cache` as worker `w`, returning the
/// wire response.
///
/// Supported: `get`/`gets` (multi-key), `set`, `add`, `replace`,
/// `append`, `prepend`, `cas`, `delete`, `incr`, `decr`, `touch`,
/// `flush_all`, `stats`, `version`, and `quit` (no reply: closing is the
/// connection's business).
///
/// A panic unwinding out of the handler (a cache invariant tripped, an
/// injected fault, ...) is caught, counted in
/// [`McCache::request_panics`], and answered with
/// [`SERVER_ERROR_PANIC`] — the worker thread survives to serve the next
/// request.
pub fn execute_ascii(cache: &McCache, w: usize, request: &[u8]) -> Vec<u8> {
    execute_ascii_run(cache, w, &[request])
}

/// Executes a run of pre-split COMPLETE ASCII requests, as delimited
/// by [`scan_frame`], and returns the concatenated responses in order.
///
/// The requests run under the pipeline's one run rule: consecutive
/// `get`/`gets` lines are one multiget, consecutive `set`/`add`/
/// `replace`/`cas` one batched store — a `noreply` store still joins, its
/// reply is simply suppressed — and everything else (including
/// `append`/`prepend`, which are get+CAS retry loops) runs alone. A panic
/// inside a run is answered with one [`SERVER_ERROR_PANIC`] per request
/// in it.
pub fn execute_ascii_run(cache: &McCache, w: usize, cmds: &[&[u8]]) -> Vec<u8> {
    let mut keys = Vec::new();
    let reqs: Vec<Req<'_>> = cmds.iter().map(|f| decode_whole(f, &mut keys)).collect();
    let mut out = Vec::new();
    run(cache, w, &reqs, &keys, None, &mut out);
    out
}

/// Decodes a request handed over whole, with no stream behind it to wait
/// on: a line without its CRLF is no command, and a data block the framer
/// cannot deliver is a bad chunk.
fn decode_whole<'a>(frame: &'a [u8], keys: &mut Vec<&'a [u8]>) -> Req<'a> {
    match decode(frame, keys) {
        Ok((_, req)) => req,
        Err(_) if !frame.windows(2).any(|w| w == b"\r\n") => Req::reject(ERROR),
        Err(_) => Req::reject(BAD_CHUNK),
    }
}

/// `true` when `key` is a protocol-legal key: nonempty and at most
/// [`KEY_MAX`](crate::cache::KEY_MAX) bytes. The cache layer *asserts*
/// these bounds, so the decoders reject violations first — otherwise an
/// oversized key on the wire costs a caught panic and a `SERVER_ERROR`
/// instead of the client error memcached answers.
fn valid_key(key: &[u8]) -> bool {
    !key.is_empty() && key.len() <= crate::cache::KEY_MAX
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
/// This is the decoders' framing with the decoded request dropped: it
/// never copies and never executes, and reports exact byte counts, so a
/// request split across socket reads — a `set` whose data block straddles
/// two reads, a binary header cut mid-word — is simply
/// [`FrameScan::Incomplete`] until the rest arrives. A binary frame is
/// delimited by its header alone (an unknown opcode still frames as
/// [`FrameScan::Binary`]; [`binary::parse_frame`] answers it).
pub fn scan_frame(buf: &[u8]) -> FrameScan {
    let framed = if buf.first() == Some(&binary::REQ_MAGIC) {
        binary::frame_len(buf).map(|len| FrameScan::Binary { len })
    } else {
        decode_ascii(buf, &mut Vec::new()).map(|(len, _)| FrameScan::Ascii { len })
    };
    framed.unwrap_or_else(|scan| scan)
}

/// One decoded request: what to do, and how to answer. It borrows the
/// buffer it was decoded from; get keys sit in the decoder's key list.
pub(crate) struct Req<'a> {
    cmd: Cmd<'a>,
    reply: Reply,
}

/// What a request asks of the cache.
enum Cmd<'a> {
    /// `get`/`gets` and binary GET/GETK/GETQ/GETKQ: these entries of the
    /// key list.
    Get(Range<usize>),
    /// `set`/`add`/`replace`/`cas` and binary SET/SETQ/ADD/REPLACE.
    Store(StoreOp<'a>),
    /// `append` (`after`) or `prepend`.
    Concat { key: &'a [u8], data: &'a [u8], after: bool },
    Delete(&'a [u8]),
    Arith { key: &'a [u8], delta: u64, incr: bool },
    Touch { key: &'a [u8], exptime: u32 },
    FlushAll,
    /// `stats [group]`, and binary STAT, whose key names the group.
    Stats { group: &'a [u8] },
    Version,
    Noop,
    Quit,
    /// A malformed ASCII request, answered with this line.
    Reject(&'static [u8]),
}

/// How a request is answered. An ASCII `noreply` silences every reply to
/// its request, a panic reply included; what the decoder rejects is
/// always answered.
enum Reply {
    Ascii { noreply: bool, with_cas: bool },
    Binary { opcode: Opcode, opaque: u32, quiet: bool },
}

impl<'a> Req<'a> {
    fn ascii(cmd: Cmd<'a>, noreply: bool) -> Req<'a> {
        Req { cmd, reply: Reply::Ascii { noreply, with_cas: false } }
    }

    fn reject(line: &'static [u8]) -> Req<'a> {
        Req::ascii(Cmd::Reject(line), false)
    }

    /// Whether the connection closes once this request is answered.
    pub(crate) fn closes(&self) -> bool {
        matches!(self.cmd, Cmd::Quit)
    }
}

/// Delimits and decodes the frame at the head of `buf` in one pass,
/// returning its length and the request it holds, or the
/// [`FrameScan::Incomplete`] / [`FrameScan::Error`] that stands in its
/// place. The request borrows `buf`; a get's keys are appended to `keys`.
pub(crate) fn decode<'a>(
    buf: &'a [u8],
    keys: &mut Vec<&'a [u8]>,
) -> Result<(usize, Req<'a>), FrameScan> {
    if buf.first() == Some(&binary::REQ_MAGIC) {
        binary::decode(buf, keys)
    } else {
        decode_ascii(buf, keys)
    }
}

/// The ASCII framer-decoder. An unparseable storage header frames as the
/// line alone and answers `CLIENT_ERROR`, exactly as a desynchronized
/// memcached connection would; a parseable one frames its data block too,
/// and is incomplete until the block has arrived.
fn decode_ascii<'a>(
    buf: &'a [u8],
    keys: &mut Vec<&'a [u8]>,
) -> Result<(usize, Req<'a>), FrameScan> {
    let Some(line_end) = buf.windows(2).position(|w| w == b"\r\n") else {
        if buf.len() > ASCII_LINE_MAX {
            let response = BAD_LINE.to_vec();
            return Err(FrameScan::Error { consumed: buf.len(), swallow: 0, close: true, response });
        }
        return Err(FrameScan::Incomplete);
    };
    let mut len = line_end + 2;
    let mut t = Tokens { rest: &buf[..line_end] };
    let bad = |len, line| Ok((len, Req::reject(line)));
    let (cmd, key) = match t.next() {
        Some(name @ (b"get" | b"gets")) => {
            let first = keys.len();
            keys.extend(t);
            let line = match &keys[first..] {
                [] => ERROR,
                ks if !ks.iter().all(|k| valid_key(k)) => BAD_LINE,
                _ => {
                    let reply = Reply::Ascii { noreply: false, with_cas: name == b"gets" };
                    return Ok((len, Req { cmd: Cmd::Get(first..keys.len()), reply }));
                }
            };
            keys.truncate(first);
            return bad(len, line);
        }
        Some(name @ (b"set" | b"add" | b"replace" | b"append" | b"prepend" | b"cas")) => {
            let (Some(key), Some(flags), Some(exptime), Some(nbytes)) =
                (t.next(), t.next_u64(), t.next_u64(), t.next_u64())
            else {
                return bad(len, BAD_LINE);
            };
            if nbytes > ASCII_VALUE_MAX as u64 {
                // Swallow the block in flight, unless the header lies.
                let close = nbytes > ASCII_SWALLOW_MAX;
                let swallow = if close { 0 } else { nbytes as usize + 2 };
                let response = TOO_LARGE.to_vec();
                return Err(FrameScan::Error { consumed: len, swallow, close, response });
            }
            let start = len;
            len += nbytes as usize + 2;
            if buf.len() < len {
                return Err(FrameScan::Incomplete);
            }
            let mode = match name {
                b"set" => Some(StoreMode::Set),
                b"add" => Some(StoreMode::Add),
                b"replace" => Some(StoreMode::Replace),
                b"cas" => match t.next_u64() {
                    Some(id) => Some(StoreMode::Cas(id)),
                    None => return bad(len, BAD_LINE),
                },
                _ => None,
            };
            // A bad key outranks a bad chunk: it answers BAD_LINE below.
            if &buf[len - 2..len] != b"\r\n" && valid_key(key) {
                return bad(len, BAD_CHUNK);
            }
            let value = &buf[start..len - 2];
            let cmd = match mode {
                Some(mode) => {
                    let (flags, exptime) = (flags as u32, exptime as u32);
                    Cmd::Store(StoreOp { mode, key, value, flags, exptime })
                }
                None => Cmd::Concat { key, data: value, after: name == b"append" },
            };
            (cmd, Some(key))
        }
        Some(b"delete") => match t.next() {
            Some(key) => (Cmd::Delete(key), Some(key)),
            None => return bad(len, BAD_LINE),
        },
        Some(name @ (b"incr" | b"decr")) => match (t.next(), t.next_u64()) {
            (Some(key), Some(delta)) => (Cmd::Arith { key, delta, incr: name == b"incr" }, Some(key)),
            _ => return bad(len, BAD_LINE),
        },
        Some(b"touch") => match (t.next(), t.next_u64()) {
            (Some(key), Some(exptime)) => (Cmd::Touch { key, exptime: exptime as u32 }, Some(key)),
            _ => return bad(len, BAD_LINE),
        },
        Some(b"flush_all") => (Cmd::FlushAll, None),
        Some(b"stats") => {
            let group = t.next().unwrap_or_default();
            return Ok((len, Req::ascii(Cmd::Stats { group }, false)));
        }
        Some(b"version") => return Ok((len, Req::ascii(Cmd::Version, false))),
        // Nothing to answer: the connection closes.
        Some(b"quit") => return Ok((len, Req::ascii(Cmd::Quit, true))),
        _ => return bad(len, ERROR),
    };
    let noreply = t.next() == Some(b"noreply");
    if key.is_some_and(|k| !valid_key(k)) {
        return bad(len, BAD_LINE);
    }
    Ok((len, Req::ascii(cmd, noreply)))
}

/// Whitespace tokenizer using the ctype helper from `tmstd` (the C
/// tokenizer's `isspace` walk).
struct Tokens<'a> {
    rest: &'a [u8],
}

impl Tokens<'_> {
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

/// Where replies go: a wire byte stream, or [`binary::Response`] values
/// for the in-process binary entry points.
pub(crate) trait Sink {
    /// The byte stream ASCII replies are rendered into.
    fn text(&mut self) -> &mut Vec<u8> {
        unreachable!("ASCII replies need a byte sink")
    }

    /// Takes one binary response packet.
    fn packet(&mut self, r: Response);
}

impl Sink for Vec<u8> {
    fn text(&mut self) -> &mut Vec<u8> {
        self
    }

    fn packet(&mut self, r: Response) {
        r.encode_into(self);
    }
}

impl Sink for Vec<Response> {
    fn packet(&mut self, r: Response) {
        self.push(r);
    }
}

/// Keeps the last packet: [`binary::execute`]'s one response.
impl Sink for Option<Response> {
    fn packet(&mut self, r: Response) {
        *self = Some(r);
    }
}

/// Executes decoded requests in order and encodes every reply into `out`.
///
/// One run rule, whatever the protocol and whether quiet or loud:
/// consecutive get-class requests are one [`McCache::get_multi`] over all
/// their keys, consecutive set/add/replace/cas stores one
/// [`McCache::store_batch`], everything else runs alone. A lone get or
/// store is a run of one like any other. The executor calls the two
/// calls' drivers ([`McCache::read_run`], [`McCache::store_run`]), which
/// give a run of one the single request's transactions and keep its
/// answers on the stack rather than in a `Vec`. Each run has one panic
/// guard: a panic answers every request in the run with its protocol's
/// panic reply, and is counted in [`McCache::request_panics`] (a run's
/// cache call finishes before any of its replies is encoded, so none of
/// them is half out).
/// `stats` reads its counters when it executes, `net`'s among them behind
/// a server.
pub(crate) fn run(
    cache: &McCache,
    w: usize,
    reqs: &[Req<'_>],
    keys: &[&[u8]],
    net: Option<&NetStats>,
    out: &mut impl Sink,
) {
    let mut rest = reqs;
    while let Some(first) = rest.first() {
        // A get or a store takes its same-class successors along.
        let same = |r: &&Req<'_>| discriminant(&r.cmd) == discriminant(&first.cmd);
        let n = match first.cmd {
            Cmd::Get(_) | Cmd::Store(_) => 1 + rest[1..].iter().take_while(same).count(),
            _ => 1,
        };
        let (batch, tail) = rest.split_at(n);
        rest = tail;
        let ran = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(test)]
            if cache.take_request_panic_trap() {
                panic!("test trap: request panic");
            }
            execute(cache, w, batch, keys, net, out);
        }));
        if ran.is_err() {
            cache.note_request_panic();
            for r in batch {
                r.answer(Outcome::Panicked, out);
            }
        }
    }
}

/// Executes one run (see [`run`]) and hands each request its outcome.
fn execute(
    cache: &McCache,
    w: usize,
    batch: &[Req<'_>],
    keys: &[&[u8]],
    net: Option<&NetStats>,
    out: &mut impl Sink,
) {
    match (&batch[0].cmd, &batch[batch.len() - 1].cmd) {
        (Cmd::Get(first), Cmd::Get(last)) => {
            let mut values = &mut cache.read_run(w, &keys[first.start..last.end])[..];
            for r in batch {
                let Cmd::Get(ks) = &r.cmd else { unreachable!("a get run") };
                let (mine, later) = std::mem::take(&mut values).split_at_mut(ks.len());
                values = later;
                r.answer(Outcome::Values(&keys[ks.clone()], mine), out);
            }
        }
        (Cmd::Store(_), _) => {
            let ops = PerOp::new(batch.iter().map(|r| match r.cmd {
                Cmd::Store(op) => op,
                _ => unreachable!("a store run"),
            }));
            for (r, &st) in batch.iter().zip(cache.store_run(w, &ops).iter()) {
                r.answer(Outcome::Stored(st), out);
            }
        }
        (cmd, _) => {
            let outcome = match *cmd {
                Cmd::Concat { key, data, after: true } => Outcome::Stored(cache.append(w, key, data)),
                Cmd::Concat { key, data, after: false } => Outcome::Stored(cache.prepend(w, key, data)),
                Cmd::Delete(key) => Outcome::Found(cache.delete(w, key)),
                Cmd::Arith { key, delta, incr } => Outcome::Counted(cache.arith(w, key, delta, incr)),
                Cmd::Touch { key, exptime } => Outcome::Found(cache.touch(w, key, exptime)),
                Cmd::FlushAll => {
                    cache.flush_all(w);
                    Outcome::Done
                }
                // memcached 1.4.15's `process_stat`: the general list, or
                // no such group, answered before any counter is read.
                Cmd::Stats { group: [] } => Outcome::Stats(crate::stats::report(cache, net)),
                Cmd::Stats { .. } => Outcome::NoSuchGroup,
                Cmd::Version => Outcome::Version(cache.branch()),
                Cmd::Noop | Cmd::Quit => Outcome::Done,
                Cmd::Reject(line) => Outcome::Rejected(line),
                Cmd::Get(_) | Cmd::Store(_) => unreachable!("runs of their own class"),
            };
            batch[0].answer(outcome, out);
        }
    }
}

/// What executing one request produced, ready to encode.
enum Outcome<'v> {
    /// A get's keys and their values (the encoder takes the values).
    Values(&'v [&'v [u8]], &'v mut [Option<GetValue>]),
    Stored(StoreStatus),
    /// `delete`/`touch`: whether the key was there.
    Found(bool),
    Counted(ArithStatus),
    Stats(Vec<(&'static str, u64)>),
    /// `stats` naming a group this server does not keep.
    NoSuchGroup,
    Version(Branch),
    Done,
    Rejected(&'static [u8]),
    Panicked,
}

impl Req<'_> {
    /// Encodes this request's reply with its protocol's encoder.
    fn answer(&self, outcome: Outcome<'_>, out: &mut impl Sink) {
        match self.reply {
            Reply::Ascii { noreply: true, .. } => {}
            Reply::Ascii { with_cas, .. } => render(&self.cmd, with_cas, outcome, out.text()),
            Reply::Binary { opcode, opaque, quiet } => {
                binary::respond(opcode, opaque, quiet, outcome, out)
            }
        }
    }
}

/// The ASCII encoder: one outcome as memcached's text reply. (Writing
/// into a `Vec` cannot fail.)
fn render(cmd: &Cmd<'_>, with_cas: bool, outcome: Outcome<'_>, out: &mut Vec<u8>) {
    let line: &[u8] = match outcome {
        Outcome::Values(keys, values) => {
            for (key, v) in keys.iter().zip(values.iter()) {
                let Some(v) = v else { continue };
                out.extend_from_slice(b"VALUE ");
                out.extend_from_slice(key);
                let _ = write!(out, " {} {}", v.flags, v.data.len());
                if with_cas {
                    let _ = write!(out, " {}", v.cas);
                }
                out.extend_from_slice(b"\r\n");
                out.extend_from_slice(&v.data);
                out.extend_from_slice(b"\r\n");
            }
            b"END\r\n"
        }
        Outcome::Stored(StoreStatus::Stored) => b"STORED\r\n",
        Outcome::Stored(StoreStatus::NotStored) => b"NOT_STORED\r\n",
        Outcome::Stored(StoreStatus::Exists) => b"EXISTS\r\n",
        Outcome::Stored(StoreStatus::NotFound) => b"NOT_FOUND\r\n",
        Outcome::Stored(StoreStatus::TooLarge) => TOO_LARGE,
        Outcome::Stored(StoreStatus::OutOfMemory) => b"SERVER_ERROR out of memory storing object\r\n",
        Outcome::Found(false) | Outcome::Counted(ArithStatus::NotFound) => b"NOT_FOUND\r\n",
        Outcome::Found(true) if matches!(cmd, Cmd::Touch { .. }) => b"TOUCHED\r\n",
        Outcome::Found(true) => b"DELETED\r\n",
        Outcome::Counted(ArithStatus::Ok(v)) => {
            let _ = write!(out, "{v}\r\n");
            return;
        }
        Outcome::Counted(ArithStatus::NonNumeric) => {
            b"CLIENT_ERROR cannot increment or decrement non-numeric value\r\n"
        }
        Outcome::Stats(lines) => {
            for (k, v) in lines {
                let _ = write!(out, "STAT {k} {v}\r\n");
            }
            b"END\r\n"
        }
        Outcome::NoSuchGroup => ERROR,
        Outcome::Version(branch) => {
            let _ = write!(out, "VERSION 1.4.15-tm ({branch})\r\n");
            return;
        }
        Outcome::Done => b"OK\r\n",
        Outcome::Rejected(line) => line,
        Outcome::Panicked => SERVER_ERROR_PANIC,
    };
    out.extend_from_slice(line);
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
        /// by a packet with an empty key and empty value — the only
        /// opcode whose single request fans out to multiple responses.
        Stat = 0x10,
        /// Quiet SET: successes send no response, so a client can pipeline
        /// `SETQ k1 .. SETQ kn, Noop` as one bulk load — the write-path
        /// twin of the GETKQ multiget, run as one batched store.
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
        /// 0x0004: a known opcode with a malformed frame layout, extras
        /// of the wrong length, or (on the wire) an illegal key.
        InvalidArguments = 0x0004,
        NotStored = 0x0005,
        NonNumeric = 0x0006,
        OutOfMemory = 0x0082,
        UnknownCommand = 0x0081,
        /// 0x0084: the handler panicked and was recovered by the
        /// per-run guard.
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

        /// The extras block the protocol spec fixes for this opcode's
        /// request: flags `u32` + exptime `u32` for a store, delta `u64` +
        /// initial `u64` + exptime `u32` for arithmetic, none otherwise.
        fn extras_len(self) -> usize {
            match self {
                Opcode::Set | Opcode::SetQ | Opcode::Add | Opcode::Replace => 8,
                Opcode::Increment | Opcode::Decrement => 20,
                _ => 0,
            }
        }

        fn is_get(self) -> bool {
            matches!(self, Opcode::Get | Opcode::GetQ | Opcode::GetK | Opcode::GetKQ)
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
        /// The first extras field: client flags (stores, 32 bits) or
        /// delta (arithmetic). The exptime and initial fields are not
        /// kept: binary expiry and auto-create are unsupported.
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

    /// A request frame decoded in place: a [`Request`] whose key and
    /// value are slices of the frame.
    struct Frame<'a> {
        opcode: Opcode,
        opaque: u32,
        cas: u64,
        key: &'a [u8],
        value: &'a [u8],
        extra: u64,
    }

    fn be32(buf: &[u8], at: usize) -> u32 {
        u32::from_be_bytes(buf[at..at + 4].try_into().expect("4 bytes"))
    }

    fn be64(buf: &[u8], at: usize) -> u64 {
        u64::from_be_bytes(buf[at..at + 8].try_into().expect("8 bytes"))
    }

    impl<'a> Frame<'a> {
        /// The one binary request decoder: header, then the extras layout
        /// the spec fixes per opcode — any other length is
        /// [`Status::InvalidArguments`], as memcached answers — then key
        /// and value.
        #[inline]
        fn parse(buf: &'a [u8]) -> Result<Frame<'a>, Status> {
            if buf.len() < 24 || buf[0] != REQ_MAGIC {
                return Err(Status::InvalidArguments);
            }
            let opcode = Opcode::from_u8(buf[1]).ok_or(Status::UnknownCommand)?;
            let keylen = u16::from_be_bytes([buf[2], buf[3]]) as usize;
            let extlen = buf[4] as usize;
            let body_len = be32(buf, 8) as usize;
            if buf.len() < 24 + body_len || body_len < keylen + extlen || extlen != opcode.extras_len() {
                return Err(Status::InvalidArguments);
            }
            let (key, value) = buf[24 + extlen..24 + body_len].split_at(keylen);
            let extra = match extlen {
                8 => be32(buf, 24) as u64,
                20 => be64(buf, 24),
                _ => 0,
            };
            Ok(Frame { opcode, opaque: be32(buf, 12), cas: be64(buf, 16), key, value, extra })
        }

        #[inline]
        fn to_request(&self) -> Request {
            Request {
                opcode: self.opcode,
                opaque: self.opaque,
                cas: self.cas,
                key: self.key.to_vec(),
                value: self.value.to_vec(),
                extra: self.extra,
            }
        }

        /// The request this frame asks for. A get's key is entry `at` of
        /// the caller's key list.
        #[inline]
        fn req(&self, at: usize) -> Req<'a> {
            use Opcode::*;
            let (op, key) = (self.opcode, self.key);
            let cmd = match op {
                Get | GetQ | GetK | GetKQ => Cmd::Get(at..at + 1),
                Set | SetQ | Add | Replace => {
                    let mode = match (self.cas, op) {
                        (0, Add) => StoreMode::Add,
                        (0, Replace) => StoreMode::Replace,
                        (0, _) => StoreMode::Set,
                        (cas, _) => StoreMode::Cas(cas),
                    };
                    let (value, flags) = (self.value, self.extra as u32);
                    Cmd::Store(StoreOp { mode, key, value, flags, exptime: 0 })
                }
                Delete | DeleteQ => Cmd::Delete(key),
                Increment | Decrement => Cmd::Arith { key, delta: self.extra, incr: op == Increment },
                Noop => Cmd::Noop,
                Version => Cmd::Version,
                Stat => Cmd::Stats { group: key },
            };
            let quiet = matches!(op, GetQ | GetKQ | SetQ | DeleteQ);
            Req { cmd, reply: Reply::Binary { opcode: op, opaque: self.opaque, quiet } }
        }
    }

    impl Request {
        fn frame(&self) -> Frame<'_> {
            Frame {
                opcode: self.opcode,
                opaque: self.opaque,
                cas: self.cas,
                key: &self.key,
                value: &self.value,
                extra: self.extra,
            }
        }

        /// Encodes to the 24-byte-header wire format, with the spec's
        /// extras layout: a store's flags then a zero exptime, an
        /// arithmetic delta then a zero initial value and exptime.
        pub fn encode(&self) -> Vec<u8> {
            let extlen = self.opcode.extras_len();
            let mut extras = [0u8; 20];
            match extlen {
                8 => extras[..4].copy_from_slice(&(self.extra as u32).to_be_bytes()),
                20 => extras[..8].copy_from_slice(&self.extra.to_be_bytes()),
                _ => {}
            }
            let body_len = extlen + self.key.len() + self.value.len();
            let mut out = Vec::with_capacity(24 + body_len);
            out.push(REQ_MAGIC);
            out.push(self.opcode as u8);
            out.extend_from_slice(&(self.key.len() as u16).to_be_bytes());
            out.push(extlen as u8);
            out.push(0); // data type
            out.extend_from_slice(&0u16.to_be_bytes()); // vbucket
            out.extend_from_slice(&(body_len as u32).to_be_bytes());
            out.extend_from_slice(&self.opaque.to_be_bytes());
            out.extend_from_slice(&self.cas.to_be_bytes());
            out.extend_from_slice(&extras[..extlen]);
            out.extend_from_slice(&self.key);
            out.extend_from_slice(&self.value);
            out
        }

        /// Decodes from the wire format; `None` for anything
        /// [`parse_frame`] answers with an error frame.
        pub fn decode(buf: &[u8]) -> Option<Request> {
            Frame::parse(buf).ok().map(|f| f.to_request())
        }
    }

    impl Response {
        /// Encodes to the wire format (magic [`RES_MAGIC`]). Get-class
        /// hits carry the item's client flags as the canonical 4-byte
        /// extras block; everything else has no extras.
        pub fn encode(&self) -> Vec<u8> {
            let mut out = Vec::with_capacity(28 + self.key.len() + self.value.len());
            self.encode_into(&mut out);
            out
        }

        /// [`Response::encode`], appended to `out`.
        pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
            let extlen: u8 = if self.opcode.is_get() && self.status == Status::Ok { 4 } else { 0 };
            let body_len = extlen as usize + self.key.len() + self.value.len();
            out.push(RES_MAGIC);
            out.push(self.opcode as u8);
            out.extend_from_slice(&(self.key.len() as u16).to_be_bytes());
            out.push(extlen);
            out.push(0); // data type
            out.extend_from_slice(&(self.status as u16).to_be_bytes());
            out.extend_from_slice(&(body_len as u32).to_be_bytes());
            out.extend_from_slice(&self.opaque.to_be_bytes());
            out.extend_from_slice(&self.cas.to_be_bytes());
            if extlen == 4 {
                out.extend_from_slice(&self.flags.to_be_bytes());
            }
            out.extend_from_slice(&self.key);
            out.extend_from_slice(&self.value);
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
            let body_len = be32(buf, 8) as usize;
            if buf.len() < 24 + body_len || body_len < keylen + extlen {
                return None;
            }
            let flags = if extlen >= 4 { be32(buf, 24) } else { 0 };
            let key = buf[24 + extlen..24 + extlen + keylen].to_vec();
            let value = buf[24 + extlen + keylen..24 + body_len].to_vec();
            let response = Response { status, opcode, opaque: be32(buf, 12), cas: be64(buf, 16), flags, key, value };
            Some((response, 24 + body_len))
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
        let (opcode, cas, flags, key, value) = (Opcode::Noop, 0, 0, Vec::new(), msg.to_vec());
        let mut frame = Response { status, opcode, opaque, cas, flags, key, value }.encode();
        frame[1] = raw_opcode;
        frame
    }

    /// The binary framer: the frame at the head of `buf` is its 24-byte
    /// header plus the body length the header declares. A body past
    /// [`BINARY_BODY_MAX`] cannot be trusted, so the connection closes.
    pub(super) fn frame_len(buf: &[u8]) -> Result<usize, FrameScan> {
        if buf.len() < 24 {
            return Err(FrameScan::Incomplete);
        }
        let body_len = be32(buf, 8) as usize;
        if body_len > BINARY_BODY_MAX {
            let response = error_frame(buf[1], be32(buf, 12), Status::ValueTooLarge);
            return Err(FrameScan::Error { consumed: buf.len(), swallow: 0, close: true, response });
        }
        if buf.len() < 24 + body_len {
            return Err(FrameScan::Incomplete);
        }
        Ok(24 + body_len)
    }

    /// The binary framer-decoder. A frame that does not decode is a
    /// [`FrameScan::Error`] that consumes exactly the frame and keeps the
    /// connection: its error frame answers in order.
    pub(super) fn decode<'a>(
        buf: &'a [u8],
        keys: &mut Vec<&'a [u8]>,
    ) -> Result<(usize, Req<'a>), FrameScan> {
        let len = frame_len(buf)?;
        let status = match Frame::parse(&buf[..len]) {
            // A key the cache cannot hold is refused here, as memcached
            // does, not met by the cache's assertion.
            Ok(f) if valid_key(f.key) || matches!(f.opcode, Opcode::Noop | Opcode::Version | Opcode::Stat) => {
                let req = f.req(keys.len());
                keys.push(f.key);
                return Ok((len, req));
            }
            Ok(_) => Status::InvalidArguments,
            Err(status) => status,
        };
        let response = error_frame(buf[1], be32(buf, 12), status);
        Err(FrameScan::Error { consumed: len, swallow: 0, close: false, response })
    }

    /// Decodes one COMPLETE binary frame (as delimited by
    /// [`super::scan_frame`]) into a [`Request`], or produces the error
    /// response frame a real server answers without dropping the
    /// connection: [`Status::UnknownCommand`] for an unrecognized
    /// opcode, [`Status::InvalidArguments`] for a known opcode whose
    /// header lengths don't add up.
    pub fn parse_frame(frame: &[u8]) -> Result<Request, Vec<u8>> {
        debug_assert!(frame.len() >= 24 && frame[0] == REQ_MAGIC);
        Frame::parse(frame)
            .map(|f| f.to_request())
            .map_err(|status| error_frame(frame[1], be32(frame, 12), status))
    }

    /// Dispatches one binary request through the pipeline, answering even
    /// what a quiet opcode would leave unsaid on a pipeline (a GETQ miss,
    /// a SETQ success); a STAT answers with its closing packet only.
    ///
    /// Like [`super::execute_ascii`], a panicking handler is caught,
    /// counted, and turned into a [`Status::InternalError`] response — a
    /// key the cache cannot hold among them: the wire decoder refuses
    /// those before they get here.
    pub fn execute(cache: &McCache, w: usize, req: &Request) -> Response {
        let mut r = req.frame().req(0);
        if let Reply::Binary { quiet, .. } = &mut r.reply {
            *quiet = false;
        }
        let mut last = None;
        run(cache, w, std::slice::from_ref(&r), &[req.key.as_slice()], None, &mut last);
        last.expect("a loud request answers")
    }

    /// Dispatches a pipelined batch of binary requests under the
    /// pipeline's one run rule: consecutive gets — the GETQ/GETKQ
    /// multiget idiom, or loud GETs alike — execute as ONE read-only
    /// [`McCache::get_multi`], consecutive stores — the SETQ bulk-load
    /// idiom — as ONE [`McCache::store_batch`]. Quiet opcodes answer only
    /// what the client must hear: no get miss, no SETQ/DELETEQ success.
    /// Every other opcode (including the terminating `Noop`) runs alone.
    /// A panic inside a run is answered with one
    /// [`Status::InternalError`] per request in it.
    pub fn execute_pipeline(cache: &McCache, w: usize, reqs: &[Request]) -> Vec<Response> {
        let keys: Vec<&[u8]> = reqs.iter().map(|r| r.key.as_slice()).collect();
        let reqs: Vec<Req<'_>> = reqs.iter().enumerate().map(|(at, r)| r.frame().req(at)).collect();
        let mut out = Vec::new();
        run(cache, w, &reqs, &keys, None, &mut out);
        out
    }

    /// The binary encoder: one outcome as its response packets. A quiet
    /// opcode stays silent on a get miss and on any other success.
    pub(super) fn respond(opcode: Opcode, opaque: u32, quiet: bool, outcome: Outcome<'_>, out: &mut impl Sink) {
        let (cas, flags, key, value) = (0, 0, Vec::new(), Vec::new());
        let mut r = Response { status: Status::Ok, opcode, opaque, cas, flags, key, value };
        r.status = match outcome {
            Outcome::Values(keys, values) => match values[0].take() {
                Some(v) => {
                    (r.cas, r.flags, r.value) = (v.cas, v.flags, v.data);
                    if matches!(opcode, Opcode::GetK | Opcode::GetKQ) {
                        r.key = keys[0].to_vec();
                    }
                    Status::Ok
                }
                None => Status::KeyNotFound,
            },
            Outcome::Stored(StoreStatus::Stored) => Status::Ok,
            Outcome::Stored(StoreStatus::NotStored) => Status::NotStored,
            Outcome::Stored(StoreStatus::Exists) => Status::KeyExists,
            Outcome::Stored(StoreStatus::NotFound) => Status::KeyNotFound,
            Outcome::Stored(StoreStatus::TooLarge) => Status::ValueTooLarge,
            Outcome::Stored(StoreStatus::OutOfMemory) => Status::OutOfMemory,
            Outcome::Found(true) | Outcome::Done => Status::Ok,
            Outcome::Found(false) | Outcome::Counted(ArithStatus::NotFound) => Status::KeyNotFound,
            Outcome::Counted(ArithStatus::Ok(v)) => {
                r.value = v.to_be_bytes().to_vec();
                Status::Ok
            }
            Outcome::Counted(ArithStatus::NonNumeric) => Status::NonNumeric,
            Outcome::NoSuchGroup => Status::KeyNotFound,
            Outcome::Stats(lines) => {
                for (k, v) in lines {
                    let (key, value) = (k.as_bytes().to_vec(), v.to_string().into_bytes());
                    out.packet(Response { key, value, ..r.clone() });
                }
                Status::Ok // the empty closing packet
            }
            Outcome::Version(branch) => {
                r.value = format!("1.4.15-tm ({branch})").into_bytes();
                Status::Ok
            }
            Outcome::Rejected(_) => unreachable!("binary frames are refused by their decoder"),
            Outcome::Panicked => Status::InternalError,
        };
        let silent = if opcode.is_get() { Status::KeyNotFound } else { Status::Ok };
        if !(quiet && r.status == silent) {
            out.packet(r);
        }
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
        // The same header through the lone-request executor and the
        // decoder: answered / refused without offset overflow.
        let c = cache();
        let huge = format!("set k 0 0 {}\r\nx\r\n", u64::MAX);
        assert_eq!(
            execute_ascii(&c, 0, huge.as_bytes()),
            b"CLIENT_ERROR bad data chunk\r\n".to_vec()
        );
        assert!(matches!(
            decode(huge.as_bytes(), &mut Vec::new()),
            Err(FrameScan::Error { swallow: 0, close: true, .. })
        ));
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
        // An overwrite with the same bytes.
        execute_ascii(&c, 0, b"set k 0 0 1\r\nA\r\n");
        let stats = String::from_utf8(execute_ascii(&c, 0, b"stats\r\n")).unwrap();
        for key in [
            "clock_tick_elisions",
            "clock_cas_retries",
            "orec_stripe_conflicts",
            "orec_lock_waits",
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

    /// Decodes every frame of `buf` into one run buffer and runs it, as
    /// the wire front end does with what one read delivered.
    fn run_buffer(c: &McCache, buf: &[u8]) -> Vec<u8> {
        let (mut reqs, mut keys, mut at) = (Vec::new(), Vec::new(), 0);
        while let Ok((len, req)) = decode(&buf[at..], &mut keys) {
            reqs.push(req);
            at += len;
        }
        let mut out = Vec::new();
        run(c, 0, &reqs, &keys, None, &mut out);
        out
    }

    #[test]
    fn a_storage_line_decodes_once_into_slices_of_the_buffer() {
        let buf = b"set k 7 9 5 noreply\r\nhello\r\nget k\r\n";
        let (len, req) = decode(buf, &mut Vec::new()).unwrap();
        assert_eq!(len, 28);
        let Cmd::Store(op) = req.cmd else { panic!("a store") };
        assert_eq!((op.mode, op.key, op.value), (StoreMode::Set, &b"k"[..], &b"hello"[..]));
        assert_eq!((op.flags, op.exptime), (7, 9));
        assert!(std::ptr::eq(op.value, &buf[21..26]), "the value is not copied");
        assert!(matches!(req.reply, Reply::Ascii { noreply: true, .. }));
    }

    #[test]
    fn a_panicking_run_answers_each_request_in_its_own_protocol() {
        // ASCII and binary gets in one buffer are one get run.
        let getkq = binary::Request {
            opcode: binary::Opcode::GetKQ,
            opaque: 7,
            cas: 0,
            key: b"a".to_vec(),
            value: Vec::new(),
            extra: 0,
        };
        let internal = binary::Response {
            status: binary::Status::InternalError,
            opcode: binary::Opcode::GetKQ,
            opaque: 7,
            cas: 0,
            flags: 0,
            key: Vec::new(),
            value: Vec::new(),
        };
        let buf = [&b"get a b\r\n"[..], &getkq.encode(), b"gets c\r\n"].concat();
        for c in [cache(), magazine_cache()] {
            c.trip_request_panic();
            let want = [SERVER_ERROR_PANIC, &internal.encode(), SERVER_ERROR_PANIC].concat();
            assert_eq!(run_buffer(&c, &buf), want);
            assert_eq!(c.request_panics(), 1, "one run, one panic");
        }
    }
}
