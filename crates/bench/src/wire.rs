//! A minimal blocking memcached wire client for loopback load
//! generation and tests: mcslap's `--tcp`/`--unix`/`--udp` targets and
//! the wire tests drive [`mcache::net::Server`] through real sockets with
//! this.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpStream, UdpSocket};
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use mcache::net::udp::{decode_header, encode_header, UDP_HEADER};
use mcache::proto::binary::{Request, Response};

/// The client end of a stream transport: TCP or Unix-domain.
enum ClientStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.read(buf),
        }
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.write_all(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.write_all(buf),
        }
    }
}

/// One blocking client connection with a response reassembly buffer.
pub struct WireConn {
    stream: ClientStream,
    rbuf: Vec<u8>,
    rpos: usize,
}

/// One ASCII `VALUE` block from a get response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AsciiValue {
    /// The key as echoed on the `VALUE` line.
    pub key: Vec<u8>,
    /// Client flags.
    pub flags: u32,
    /// CAS id (`gets` only; 0 for `get`).
    pub cas: u64,
    /// The data block.
    pub data: Vec<u8>,
}

impl WireConn {
    /// Connects over TCP (blocking, `TCP_NODELAY`).
    pub fn connect(addr: &str) -> io::Result<WireConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(WireConn {
            stream: ClientStream::Tcp(stream),
            rbuf: Vec::new(),
            rpos: 0,
        })
    }

    /// Connects over a Unix-domain socket. The protocol on the wire is
    /// byte-identical to TCP, so every method works unchanged.
    #[cfg(unix)]
    pub fn connect_unix(path: &std::path::Path) -> io::Result<WireConn> {
        let stream = UnixStream::connect(path)?;
        Ok(WireConn {
            stream: ClientStream::Unix(stream),
            rbuf: Vec::new(),
            rpos: 0,
        })
    }

    /// Sends raw bytes.
    pub fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.rpos > 0 && self.rpos == self.rbuf.len() {
            self.rbuf.clear();
            self.rpos = 0;
        }
        let mut chunk = [0u8; 16 << 10];
        let n = self.stream.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        self.rbuf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    /// Reads one CRLF-terminated line (CRLF stripped).
    pub fn read_line(&mut self) -> io::Result<Vec<u8>> {
        loop {
            let avail = &self.rbuf[self.rpos..];
            if let Some(i) = avail.windows(2).position(|w| w == b"\r\n") {
                let line = avail[..i].to_vec();
                self.rpos += i + 2;
                return Ok(line);
            }
            self.fill()?;
        }
    }

    /// Reads exactly `n` bytes.
    pub fn read_exact_bytes(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.rbuf.len() - self.rpos < n {
            self.fill()?;
        }
        let out = self.rbuf[self.rpos..self.rpos + n].to_vec();
        self.rpos += n;
        Ok(out)
    }

    /// Sends an ASCII request expecting a single-line response and
    /// returns that line (CRLF stripped): storage commands, `delete`,
    /// `incr`/`decr`, `touch`, `version`, errors.
    pub fn ascii_line(&mut self, request: &[u8]) -> io::Result<Vec<u8>> {
        self.send(request)?;
        self.read_line()
    }

    /// Sends `get`/`gets` for `keys` and parses the `VALUE` blocks up
    /// to the terminating `END`.
    pub fn ascii_get(&mut self, keys: &[&[u8]], with_cas: bool) -> io::Result<Vec<AsciiValue>> {
        let mut req: Vec<u8> = if with_cas { b"gets".to_vec() } else { b"get".to_vec() };
        for k in keys {
            req.push(b' ');
            req.extend_from_slice(k);
        }
        req.extend_from_slice(b"\r\n");
        self.send(&req)?;
        self.read_values()
    }

    /// Parses `VALUE` blocks up to the terminating `END` (the response
    /// to an already-sent get).
    pub fn read_values(&mut self) -> io::Result<Vec<AsciiValue>> {
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == b"END" {
                return Ok(out);
            }
            match parse_value_line(&line) {
                Some((key, flags, len, cas)) => {
                    let data = self.read_exact_bytes(len)?;
                    let crlf = self.read_exact_bytes(2)?;
                    if crlf != b"\r\n" {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            "missing data CRLF",
                        ));
                    }
                    out.push(AsciiValue { key, flags, cas, data });
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "unexpected get response line: {:?}",
                            String::from_utf8_lossy(&line)
                        ),
                    ))
                }
            }
        }
    }

    /// Sends `stats` and returns the `(name, value)` pairs.
    pub fn ascii_stats(&mut self) -> io::Result<Vec<(String, u64)>> {
        self.send(b"stats\r\n")?;
        let mut out = Vec::new();
        loop {
            let line = self.read_line()?;
            if line == b"END" {
                return Ok(out);
            }
            out.extend(parse_stat_line(&line));
        }
    }

    /// Reads one binary response frame.
    pub fn read_response(&mut self) -> io::Result<Response> {
        loop {
            if let Some((resp, used)) = Response::decode(&self.rbuf[self.rpos..]) {
                self.rpos += used;
                return Ok(resp);
            }
            self.fill()?;
        }
    }

    /// Sends one non-quiet binary request and reads its response.
    pub fn binary_roundtrip(&mut self, req: &Request) -> io::Result<Response> {
        self.send(&req.encode())?;
        self.read_response()
    }

    /// Sends a pipelined burst of binary requests as ONE write and
    /// reads responses until the sentinel — the response echoing
    /// `stop_opaque` (a trailing `Noop` per the quiet-op idiom).
    /// Returns every response up to and including the sentinel.
    pub fn binary_pipeline(
        &mut self,
        reqs: &[Request],
        stop_opaque: u32,
    ) -> io::Result<Vec<Response>> {
        let mut wire = Vec::new();
        for r in reqs {
            wire.extend_from_slice(&r.encode());
        }
        self.send(&wire)?;
        let mut out = Vec::new();
        loop {
            let resp = self.read_response()?;
            let done = resp.opaque == stop_opaque;
            out.push(resp);
            if done {
                return Ok(out);
            }
        }
    }
}

/// Parses one `VALUE <key> <flags> <len> [cas]` line.
fn parse_value_line(line: &[u8]) -> Option<(Vec<u8>, u32, usize, u64)> {
    let text = String::from_utf8_lossy(line);
    let mut parts = text.split_whitespace();
    let (Some("VALUE"), Some(key), Some(flags), Some(len)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return None;
    };
    let flags: u32 = flags.parse().ok()?;
    let len: usize = len.parse().ok()?;
    let cas: u64 = match parts.next() {
        Some(c) => c.parse().ok()?,
        None => 0,
    };
    Some((key.as_bytes().to_vec(), flags, len, cas))
}

/// Parses one `STAT <name> <counter>` line (trailing CR/LF tolerated, so
/// a reassembled UDP `stats` response can be split on newlines).
pub fn parse_stat_line(line: &[u8]) -> Option<(String, u64)> {
    let text = String::from_utf8_lossy(line);
    let mut parts = text.split_whitespace();
    let (Some("STAT"), Some(name), Some(value)) = (parts.next(), parts.next(), parts.next()) else {
        return None;
    };
    Some((name.to_string(), value.parse().ok()?))
}

// ---------------------------------------------------------------------
// UDP client
// ---------------------------------------------------------------------

/// A blocking UDP client speaking memcached's 8-byte UDP frame
/// protocol, with multi-datagram response reassembly that tolerates
/// out-of-order arrival across interleaved request ids.
pub struct UdpClient {
    sock: UdpSocket,
    next_rid: u16,
    /// Partially reassembled responses, keyed by request id:
    /// `(received_count, per-seq slots)`.
    partial: HashMap<u16, (usize, Vec<Option<Vec<u8>>>)>,
    /// Fully reassembled responses not yet handed out.
    ready: HashMap<u16, Vec<u8>>,
}

impl UdpClient {
    /// Binds an ephemeral local port and connects it to the server.
    pub fn connect(addr: &str) -> io::Result<UdpClient> {
        let sock = UdpSocket::bind("0.0.0.0:0")?;
        sock.connect(addr)?;
        sock.set_read_timeout(Some(Duration::from_secs(5)))?;
        Ok(UdpClient {
            sock,
            next_rid: 1,
            partial: HashMap::new(),
            ready: HashMap::new(),
        })
    }

    /// Sends one request datagram (`seq=0 total=1`) under a fresh
    /// request id and returns that id.
    pub fn send_request(&mut self, payload: &[u8]) -> io::Result<u16> {
        let rid = self.next_rid;
        self.next_rid = self.next_rid.wrapping_add(1).max(1);
        self.send_request_rid(rid, payload)?;
        Ok(rid)
    }

    /// Sends one request datagram under an explicit request id (the
    /// out-of-order conformance tests pick their own).
    pub fn send_request_rid(&mut self, rid: u16, payload: &[u8]) -> io::Result<()> {
        let mut wire = Vec::with_capacity(UDP_HEADER + payload.len());
        wire.extend_from_slice(&encode_header(rid, 0, 1));
        wire.extend_from_slice(payload);
        self.sock.send(&wire)?;
        Ok(())
    }

    /// Receives datagrams until the response for `rid` is fully
    /// reassembled, buffering completed responses for other in-flight
    /// request ids along the way.
    pub fn recv_response(&mut self, rid: u16) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; 64 << 10];
        loop {
            if let Some(full) = self.ready.remove(&rid) {
                return Ok(full);
            }
            let n = self.sock.recv(&mut buf)?;
            let Some((got_rid, seq, total)) = decode_header(&buf[..n]) else {
                continue; // runt datagram; UDP is lossy, keep waiting
            };
            if total == 0 || seq >= total {
                continue;
            }
            let (count, slots) = self
                .partial
                .entry(got_rid)
                .or_insert_with(|| (0, vec![None; total as usize]));
            if slots.len() != total as usize || slots[seq as usize].is_some() {
                continue; // header disagreement or duplicate: drop
            }
            slots[seq as usize] = Some(buf[UDP_HEADER..n].to_vec());
            *count += 1;
            if *count == slots.len() {
                let (_, slots) = self.partial.remove(&got_rid).expect("just inserted");
                let mut full = Vec::new();
                for s in slots {
                    full.extend_from_slice(&s.expect("all slots filled"));
                }
                self.ready.insert(got_rid, full);
            }
        }
    }

    /// One full roundtrip: send `payload`, reassemble the response.
    pub fn roundtrip(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let rid = self.send_request(payload)?;
        self.recv_response(rid)
    }
}
