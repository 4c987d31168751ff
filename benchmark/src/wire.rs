//! The benchmark's own wire client: request bytes, reply checking, a TCP
//! connection and the `mcached` child process.
//!
//! Requests are encoded and replies decoded here, not with the product's
//! `binary::Request::encode` / `Response::decode`, so a bug in either
//! cannot cancel itself out. In-process transports hand the same reply
//! bytes to the same checker as the socket does.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::gen::{Fail, KeySpace, Kind, Op, Stream, Tally, Values, KEY_LEN};

/// Operations per ASCII burst.
pub const BURST: usize = 16;

const REQ_MAGIC: u8 = 0x80;
const RES_MAGIC: u8 = 0x81;
const OP_GET: u8 = 0x00;
const OP_SET: u8 = 0x01;
const BIN_HEADER: usize = 24;
const SET_EXTRAS: usize = 8;
const GET_FRAME: usize = BIN_HEADER + KEY_LEN;

/// Which protocol a workload speaks, and so the shape of one request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Proto {
    /// One binary GET or SET per request.
    Binary,
    /// One ASCII burst per request: a 16-key `get` line or 16 pipelined
    /// `set`s.
    Ascii16,
}

fn put_bin_header(out: &mut Vec<u8>, opcode: u8, extras: usize, value: usize, opaque: u32) {
    out.push(REQ_MAGIC);
    out.push(opcode);
    out.extend_from_slice(&(KEY_LEN as u16).to_be_bytes());
    out.push(extras as u8);
    out.extend_from_slice(&[0, 0, 0]); // data type, vbucket
    out.extend_from_slice(&((extras + KEY_LEN + value) as u32).to_be_bytes());
    out.extend_from_slice(&opaque.to_be_bytes());
    out.extend_from_slice(&[0; 8]); // cas
}

/// Turns a [`Stream`] into request bytes plus the replies to expect.
pub struct RequestBuilder {
    proto: Proto,
    keys: Arc<KeySpace>,
    values: Values,
    /// Binary GET frames, pre-encoded: frame `i` asks for key `i` with
    /// opaque `i`.
    get_frames: Arc<Vec<u8>>,
    buf: Vec<u8>,
    ops: Vec<Op>,
    /// Key plus value bytes of every SET built — the denominator of the
    /// redo log's write amplification.
    pub user_bytes: u64,
}

impl RequestBuilder {
    pub fn new(proto: Proto, keys: Arc<KeySpace>, values: Values) -> Self {
        let mut get_frames = Vec::new();
        if proto == Proto::Binary {
            get_frames.reserve(keys.len() * GET_FRAME);
            for i in 0..keys.len() as u32 {
                put_bin_header(&mut get_frames, OP_GET, 0, 0, i);
                get_frames.extend_from_slice(keys.key(i));
            }
        }
        RequestBuilder::over(proto, keys, values, Arc::new(get_frames))
    }

    fn over(proto: Proto, keys: Arc<KeySpace>, values: Values, get_frames: Arc<Vec<u8>>) -> Self {
        RequestBuilder {
            proto,
            keys,
            values,
            get_frames,
            buf: Vec::with_capacity(64 << 10),
            ops: Vec::with_capacity(BURST),
            user_bytes: 0,
        }
    }

    /// Another builder over the same tables (one per thread).
    pub fn share(&self) -> Self {
        RequestBuilder::over(
            self.proto,
            self.keys.clone(),
            self.values,
            self.get_frames.clone(),
        )
    }

    fn push_set(&mut self, key: u32, version: u64) {
        match self.proto {
            Proto::Binary => {
                let header_at = self.buf.len();
                put_bin_header(&mut self.buf, OP_SET, SET_EXTRAS, 0, key);
                self.buf.extend_from_slice(&[0; SET_EXTRAS]); // flags, exptime
                self.buf.extend_from_slice(self.keys.key(key));
                let len = self.values.append(key as u64, version, &mut self.buf);
                let body = (SET_EXTRAS + KEY_LEN + len) as u32;
                self.buf[header_at + 8..header_at + 12].copy_from_slice(&body.to_be_bytes());
                self.user_bytes += (KEY_LEN + len) as u64;
            }
            Proto::Ascii16 => {
                let len = self.values.len(key as u64, version);
                self.buf.extend_from_slice(b"set ");
                self.buf.extend_from_slice(self.keys.key(key));
                self.buf
                    .extend_from_slice(format!(" 0 0 {len}\r\n").as_bytes());
                self.values.append(key as u64, version, &mut self.buf);
                self.buf.extend_from_slice(b"\r\n");
                self.user_bytes += (KEY_LEN + len) as u64;
            }
        }
        self.ops.push(Op {
            key,
            kind: Kind::Set(version),
        });
    }

    /// The next request of `stream`: its bytes and the operations in it.
    pub fn next(&mut self, stream: &mut Stream) -> (&[u8], &[Op]) {
        self.buf.clear();
        self.ops.clear();
        match self.proto {
            Proto::Binary => {
                let op = stream.op();
                if let Kind::Set(version) = op.kind {
                    self.push_set(op.key, version);
                } else {
                    self.ops.push(op);
                    let at = op.key as usize * GET_FRAME;
                    return (&self.get_frames[at..at + GET_FRAME], &self.ops);
                }
            }
            Proto::Ascii16 => {
                if stream.is_set() {
                    for _ in 0..BURST {
                        let key = stream.key();
                        let version = stream.version();
                        self.push_set(key, version);
                    }
                } else {
                    self.buf.extend_from_slice(b"get");
                    for _ in 0..BURST {
                        let key = stream.key();
                        self.buf.push(b' ');
                        self.buf.extend_from_slice(self.keys.key(key));
                        self.ops.push(Op {
                            key,
                            kind: Kind::Get,
                        });
                    }
                    self.buf.extend_from_slice(b"\r\n");
                }
            }
        }
        (&self.buf, &self.ops)
    }

    /// A request over consecutive keys `first..`: SETs of version 0 (the
    /// preload) or GETs (a sweep) — one key for binary, up to a burst for
    /// ASCII.
    pub fn sequential(&mut self, first: u32, set: bool) -> (&[u8], &[Op]) {
        self.buf.clear();
        self.ops.clear();
        let per_request = if self.proto == Proto::Binary {
            1
        } else {
            BURST
        };
        let end = (first as usize + per_request).min(self.keys.len()) as u32;
        if set {
            for key in first..end {
                self.push_set(key, 0);
            }
        } else {
            self.ops.extend((first..end).map(|key| Op {
                key,
                kind: Kind::Get,
            }));
            if self.proto == Proto::Binary {
                let at = first as usize * GET_FRAME;
                return (&self.get_frames[at..at + GET_FRAME], &self.ops);
            }
            self.buf.extend_from_slice(b"get");
            for key in first..end {
                self.buf.push(b' ');
                self.buf.extend_from_slice(self.keys.key(key));
            }
            self.buf.extend_from_slice(b"\r\n");
        }
        (&self.buf, &self.ops)
    }
}

/// What a reply buffer holds.
#[derive(Debug, PartialEq, Eq)]
pub enum Check {
    /// The reply has not fully arrived.
    Incomplete,
    /// A whole reply of `len` bytes; `tally` holds its operations.
    Complete { len: usize, tally: Tally },
    /// Bytes that cannot be framed: the connection is out of step.
    Broken,
}

/// Checks reply bytes against the operations that were asked.
#[derive(Clone)]
pub struct Checker {
    proto: Proto,
    keys: Arc<KeySpace>,
    values: Values,
    /// Whether a GET may miss (the live set exceeds the cache).
    misses_legal: bool,
}

/// Reply bytes that are not a reply.
struct Unframeable;

fn find_crlf(buf: &[u8]) -> Option<usize> {
    buf.windows(2).position(|w| w == b"\r\n")
}

/// No reply line is longer than this; past it the bytes are not a reply.
const LINE_MAX: usize = 256;

impl Checker {
    pub fn new(proto: Proto, keys: Arc<KeySpace>, values: Values, misses_legal: bool) -> Self {
        Checker {
            proto,
            keys,
            values,
            misses_legal,
        }
    }

    fn miss(&self, tally: &mut Tally) {
        if !self.misses_legal {
            tally.fail(Fail::Miss);
        }
    }

    pub fn check(&self, ops: &[Op], buf: &[u8]) -> Check {
        let mut tally = Tally {
            attempted: ops.len() as u64,
            ..Tally::default()
        };
        let len = match (self.proto, ops.first().map(|o| o.kind)) {
            (_, None) => Ok(Some(0)),
            (Proto::Binary, Some(_)) => self.check_binary(ops[0], buf, &mut tally),
            (Proto::Ascii16, Some(Kind::Get)) => self.check_ascii_get(ops, buf, &mut tally),
            (Proto::Ascii16, Some(Kind::Set(_))) => self.check_ascii_sets(ops, buf, &mut tally),
        };
        match len {
            Ok(Some(len)) => Check::Complete { len, tally },
            Ok(None) => Check::Incomplete,
            Err(Unframeable) => Check::Broken,
        }
    }

    // The three parsers return the reply's length, or `None` while it is
    // still arriving.

    fn check_binary(
        &self,
        op: Op,
        buf: &[u8],
        tally: &mut Tally,
    ) -> Result<Option<usize>, Unframeable> {
        if buf.len() < BIN_HEADER {
            return Ok(None);
        }
        if buf[0] != RES_MAGIC {
            return Err(Unframeable);
        }
        let key_len = u16::from_be_bytes([buf[2], buf[3]]) as usize;
        let extras = buf[4] as usize;
        let status = u16::from_be_bytes([buf[6], buf[7]]);
        let body = u32::from_be_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
        let opaque = u32::from_be_bytes([buf[12], buf[13], buf[14], buf[15]]);
        if body < key_len + extras || body > (2 << 20) {
            return Err(Unframeable);
        }
        if buf.len() < BIN_HEADER + body {
            return Ok(None);
        }
        let value = &buf[BIN_HEADER + extras + key_len..BIN_HEADER + body];
        match op.kind {
            _ if opaque != op.key => tally.fail(Fail::WrongKey),
            Kind::Get if buf[1] != OP_GET => tally.fail(Fail::WrongKey),
            Kind::Get if status == 1 => self.miss(tally),
            Kind::Get if status != 0 => tally.fail(Fail::Corrupt),
            Kind::Get => {
                if let Err(why) = self.values.verify(op.key as u64, value) {
                    tally.fail(why);
                }
            }
            Kind::Set(_) if buf[1] != OP_SET || status != 0 => tally.fail(Fail::NotStored),
            Kind::Set(_) => {}
        }
        Ok(Some(BIN_HEADER + body))
    }

    /// `VALUE <key> <flags> <bytes>\r\n<data>\r\n` per hit, in request
    /// order, then `END\r\n`. Keys the reply skips are misses.
    fn check_ascii_get(
        &self,
        ops: &[Op],
        buf: &[u8],
        tally: &mut Tally,
    ) -> Result<Option<usize>, Unframeable> {
        let (mut at, mut next) = (0, 0);
        loop {
            let rest = &buf[at..];
            if rest.starts_with(b"END\r\n") {
                for _ in next..ops.len() {
                    self.miss(tally);
                }
                return Ok(Some(at + 5));
            }
            let Some(eol) = find_crlf(rest) else {
                return if rest.len() > LINE_MAX {
                    Err(Unframeable)
                } else {
                    Ok(None)
                };
            };
            let mut words = rest[..eol].split(|&b| b == b' ');
            let (Some(b"VALUE"), Some(key), Some(_flags), Some(len)) =
                (words.next(), words.next(), words.next(), words.next())
            else {
                return Err(Unframeable);
            };
            let Some(len) = std::str::from_utf8(len)
                .ok()
                .and_then(|s| s.parse::<usize>().ok())
            else {
                return Err(Unframeable);
            };
            if len > (2 << 20) {
                return Err(Unframeable);
            }
            let data_at = eol + 2;
            if rest.len() < data_at + len + 2 {
                return Ok(None);
            }
            match ops[next..].iter().position(|o| self.keys.key(o.key) == key) {
                Some(skipped) => {
                    for _ in 0..skipped {
                        self.miss(tally);
                    }
                    let op = ops[next + skipped];
                    if let Err(why) = self
                        .values
                        .verify(op.key as u64, &rest[data_at..data_at + len])
                    {
                        tally.fail(why);
                    }
                    next += skipped + 1;
                }
                None => tally.fail(Fail::WrongKey),
            }
            at += data_at + len + 2;
        }
    }

    /// One `STORED\r\n` per SET; any other line is a failed store.
    fn check_ascii_sets(
        &self,
        ops: &[Op],
        buf: &[u8],
        tally: &mut Tally,
    ) -> Result<Option<usize>, Unframeable> {
        let mut at = 0;
        for _ in ops {
            let rest = &buf[at..];
            let Some(eol) = find_crlf(rest) else {
                return if rest.len() > LINE_MAX {
                    Err(Unframeable)
                } else {
                    Ok(None)
                };
            };
            if &rest[..eol] != b"STORED" {
                tally.fail(Fail::NotStored);
            }
            at += eol + 2;
        }
        Ok(Some(at))
    }
}

/// A reply did not arrive within this long: the operation failed.
pub const IO_TIMEOUT: Duration = Duration::from_secs(1);

/// One TCP connection with its reply buffer.
pub struct Conn {
    stream: TcpStream,
    rbuf: Vec<u8>,
    filled: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        Ok(Conn {
            stream,
            rbuf: vec![0; 256 << 10],
            filled: 0,
        })
    }

    /// Sends `req` and reads until `complete` reports the reply's length.
    /// The reply stays readable through [`Conn::reply`] until the next call.
    fn exchange(
        &mut self,
        req: &[u8],
        mut complete: impl FnMut(&[u8]) -> io::Result<Option<usize>>,
    ) -> io::Result<usize> {
        self.stream.write_all(req)?;
        self.filled = 0;
        loop {
            if self.filled == self.rbuf.len() {
                self.rbuf.resize(self.rbuf.len() * 2, 0);
            }
            let n = self.stream.read(&mut self.rbuf[self.filled..])?;
            if n == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            self.filled += n;
            if let Some(len) = complete(&self.rbuf[..self.filled])? {
                return Ok(len);
            }
        }
    }

    /// One request, its reply checked. `Err` means the connection is no
    /// longer usable (I/O error, timeout, unframeable bytes).
    pub fn roundtrip(&mut self, req: &[u8], ops: &[Op], checker: &Checker) -> io::Result<Tally> {
        let mut result = Tally::default();
        self.exchange(req, |buf| match checker.check(ops, buf) {
            Check::Incomplete => Ok(None),
            Check::Complete { len, tally } => {
                result = tally;
                Ok(Some(len))
            }
            Check::Broken => Err(io::ErrorKind::InvalidData.into()),
        })?;
        Ok(result)
    }

    /// The server's `stats` counters (ASCII, with the wire counters the
    /// connection layer splices in).
    pub fn stats(&mut self) -> io::Result<BTreeMap<String, u64>> {
        let len = self.exchange(b"stats\r\n", |buf| {
            Ok(buf.ends_with(b"END\r\n").then_some(buf.len()))
        })?;
        let text = String::from_utf8_lossy(&self.rbuf[..len]);
        Ok(text
            .lines()
            .filter_map(|line| {
                let mut words = line.split(' ');
                match (words.next(), words.next(), words.next()) {
                    (Some("STAT"), Some(k), Some(v)) => Some((k.to_string(), v.parse().ok()?)),
                    _ => None,
                }
            })
            .collect())
    }
}

/// A running `mcached` child. Dropping it kills the process if
/// [`ServerChild::shutdown`] has not already reaped it.
pub struct ServerChild {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl ServerChild {
    /// Starts `mcached --port 0 --threads <threads>` (every other option
    /// at its default, so the branch is `ip-nolock`) and waits for its
    /// `LISTENING` banner.
    pub fn spawn(mcached: &Path, threads: usize) -> io::Result<ServerChild> {
        let mut child = Command::new(mcached)
            .args(["--port", "0", "--threads", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(
                    "mcached exited before its LISTENING banner",
                ));
            }
            if let Some(addr) = line.strip_prefix("LISTENING ") {
                break addr
                    .trim()
                    .parse::<SocketAddr>()
                    .map_err(io::Error::other)?;
            }
        };
        Ok(ServerChild {
            child,
            stdin,
            stdout,
            addr,
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the child's stdin (its shutdown signal), waits for it to
    /// exit and returns what it printed on the way out. A child still
    /// running after five seconds is killed and reported as an error.
    pub fn shutdown(mut self) -> io::Result<String> {
        drop(self.stdin.take());
        let deadline = Instant::now() + Duration::from_secs(5);
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("mcached did not exit on stdin EOF"));
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut out = String::new();
        self.stdout.read_to_string(&mut out)?;
        if !status.success() {
            return Err(io::Error::other(format!("mcached exited with {status}")));
        }
        Ok(out)
    }
}

impl Drop for ServerChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Pulls `name=<n>` out of the child's shutdown report.
pub fn report_field(report: &str, name: &str) -> Option<u64> {
    let at = report.find(&format!("{name}="))? + name.len() + 1;
    let digits: String = report[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{KeyDist, ValueSpec};

    const SPEC: ValueSpec = ValueSpec {
        min_len: 100,
        max_len: 100,
    };

    fn setup(proto: Proto, seed: u64) -> (RequestBuilder, Checker, Stream) {
        let keys = Arc::new(KeySpace::new(seed, 1000));
        let values = Values::new(seed, SPEC);
        (
            RequestBuilder::new(proto, keys.clone(), values),
            Checker::new(proto, keys, values, false),
            Stream::new(seed, 0, 1, 0, 1000, KeyDist::Uniform, 100),
        )
    }

    fn emit(proto: Proto, seed: u64) -> Vec<u8> {
        let (mut builder, _, mut stream) = setup(proto, seed);
        let mut out = Vec::new();
        for first in (0..1000).step_by(if proto == Proto::Binary { 1 } else { BURST }) {
            out.extend_from_slice(builder.sequential(first, true).0);
        }
        for _ in 0..500 {
            out.extend_from_slice(builder.next(&mut stream).0);
        }
        out
    }

    #[test]
    fn one_seed_emits_identical_bytes() {
        for proto in [Proto::Binary, Proto::Ascii16] {
            assert_eq!(emit(proto, 1), emit(proto, 1));
            assert_ne!(emit(proto, 1), emit(proto, 2));
        }
    }

    fn binary_reply(opcode: u8, status: u16, opaque: u32, value: &[u8]) -> Vec<u8> {
        let extras = if opcode == OP_GET && status == 0 {
            4
        } else {
            0
        };
        let mut out = vec![RES_MAGIC, opcode, 0, 0, extras as u8, 0];
        out.extend_from_slice(&status.to_be_bytes());
        out.extend_from_slice(&((extras + value.len()) as u32).to_be_bytes());
        out.extend_from_slice(&opaque.to_be_bytes());
        out.extend_from_slice(&[0; 8]);
        out.extend_from_slice(&vec![0; extras]);
        out.extend_from_slice(value);
        out
    }

    fn failures(check: Check) -> [u64; 5] {
        match check {
            Check::Complete { tally, .. } => {
                assert_eq!(tally.attempted, 1);
                tally.failed
            }
            other => panic!("expected a complete reply, got {other:?}"),
        }
    }

    #[test]
    fn binary_checker_counts_each_failure_kind() {
        let (_, checker, _) = setup(Proto::Binary, 1);
        let values = Values::new(1, SPEC);
        let get = [Op {
            key: 5,
            kind: Kind::Get,
        }];
        let mut good = Vec::new();
        values.append(5, 9, &mut good);
        let reply = binary_reply(OP_GET, 0, 5, &good);
        assert_eq!(failures(checker.check(&get, &reply)), [0; 5]);
        // Every prefix of a good reply is incomplete, never a verdict.
        for cut in 0..reply.len() {
            assert_eq!(checker.check(&get, &reply[..cut]), Check::Incomplete);
        }
        let mut corrupt = good.clone();
        corrupt[50] ^= 0x40;
        assert_eq!(
            failures(checker.check(&get, &binary_reply(OP_GET, 0, 5, &corrupt))),
            [1, 0, 0, 0, 0]
        );
        let mut other_key = Vec::new();
        values.append(6, 9, &mut other_key);
        assert_eq!(
            failures(checker.check(&get, &binary_reply(OP_GET, 0, 5, &other_key))),
            [0, 1, 0, 0, 0]
        );
        assert_eq!(
            failures(checker.check(&get, &binary_reply(OP_GET, 1, 5, b"Not found"))),
            [0, 0, 1, 0, 0]
        );
        let set = [Op {
            key: 5,
            kind: Kind::Set(3),
        }];
        assert_eq!(
            failures(checker.check(&set, &binary_reply(OP_SET, 0, 5, b""))),
            [0; 5]
        );
        assert_eq!(
            failures(checker.check(&set, &binary_reply(OP_SET, 0x82, 5, b"Out of memory"))),
            [0, 0, 0, 1, 0]
        );
        assert_eq!(
            checker.check(&get, b"ERROR\r\n this is not a binary reply"),
            Check::Broken
        );
        // Where the live set exceeds the cache, a miss is legal.
        let (_, mut lenient, _) = setup(Proto::Binary, 1);
        lenient.misses_legal = true;
        assert_eq!(
            failures(lenient.check(&get, &binary_reply(OP_GET, 1, 5, b"Not found"))),
            [0; 5]
        );
    }

    #[test]
    fn ascii_checker_matches_values_to_keys_in_order() {
        let (_, checker, _) = setup(Proto::Ascii16, 1);
        let keys = KeySpace::new(1, 1000);
        let values = Values::new(1, SPEC);
        let ops: Vec<Op> = [3u32, 4, 3, 9]
            .iter()
            .map(|&key| Op {
                key,
                kind: Kind::Get,
            })
            .collect();
        let value_block = |name: u32, stamped: u32, flip: bool| {
            let mut v = Vec::new();
            values.append(stamped as u64, 1, &mut v);
            if flip {
                v[40] ^= 1;
            }
            let mut out = b"VALUE ".to_vec();
            out.extend_from_slice(keys.key(name));
            out.extend_from_slice(format!(" 0 {}\r\n", v.len()).as_bytes());
            out.extend_from_slice(&v);
            out.extend_from_slice(b"\r\n");
            out
        };
        let all: Vec<u8> = [
            value_block(3, 3, false),
            value_block(4, 4, false),
            value_block(3, 3, false),
            value_block(9, 9, false),
            b"END\r\n".to_vec(),
        ]
        .concat();
        let Check::Complete { len, tally } = checker.check(&ops, &all) else {
            panic!()
        };
        assert_eq!((len, tally.attempted, tally.failures()), (all.len(), 4, 0));
        for cut in 0..all.len() {
            assert_eq!(
                checker.check(&ops, &all[..cut]),
                Check::Incomplete,
                "cut {cut}"
            );
        }
        // Key 4 missing, the second 3 corrupt, 9 holding key 8's value.
        let bad: Vec<u8> = [
            value_block(3, 3, false),
            value_block(3, 3, true),
            value_block(9, 8, false),
            b"END\r\n".to_vec(),
        ]
        .concat();
        let Check::Complete { tally, .. } = checker.check(&ops, &bad) else {
            panic!()
        };
        assert_eq!(tally.failed, [1, 1, 1, 0, 0]);
        // Stores.
        let sets: Vec<Op> = (0..3)
            .map(|key| Op {
                key,
                kind: Kind::Set(1),
            })
            .collect();
        let Check::Complete { tally, .. } = checker.check(
            &sets,
            b"STORED\r\nSERVER_ERROR out of memory storing object\r\nSTORED\r\n",
        ) else {
            panic!()
        };
        assert_eq!(tally.failed, [0, 0, 0, 1, 0]);
        assert_eq!(
            checker.check(&sets, b"STORED\r\nSTORED\r\nSTOR"),
            Check::Incomplete
        );
    }

    #[test]
    fn shutdown_report_fields_parse() {
        let report = "shutdown: total_connections=3 frame_errors=0 request_panics=12\n";
        assert_eq!(report_field(report, "request_panics"), Some(12));
        assert_eq!(report_field(report, "frame_errors"), Some(0));
        assert_eq!(report_field(report, "log_write_errors"), None);
    }
}
