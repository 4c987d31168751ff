//! Wire-level protocol conformance: a real [`mcache::net::Server`] on an
//! ephemeral loopback port, driven with raw byte streams — including
//! torn frames delivered one byte at a time, oversized keys and values,
//! and malformed input — asserting exact response bytes and whether the
//! connection survives.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use mcache::net::{NetConfig, Server};
use mcache::proto::binary::{Opcode, Request, Response, Status};
use mcache::proto::{ASCII_LINE_MAX, ASCII_VALUE_MAX};
use mcache::{Branch, McCache, McConfig, SlabConfig, Stage};

fn config(branch: Branch) -> McConfig {
    McConfig {
        branch,
        workers: 2,
        slab: SlabConfig {
            mem_limit: 8 << 20,
            page_size: 256 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 6,
        hash_power_max: 8,
        item_lock_power: 4,
        maintenance: false,
        ..Default::default()
    }
}

fn serve(cfg: McConfig) -> Server {
    let net = NetConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..NetConfig::default()
    };
    Server::start(McCache::start(cfg), net).expect("bind ephemeral port")
}

fn server(branch: Branch) -> Server {
    serve(config(branch))
}

/// A fresh directory for a redo log, named after this test thread.
fn dur_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mcache-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn connect(srv: &Server) -> TcpStream {
    let s = TcpStream::connect(srv.local_addr()).expect("connect");
    s.set_nodelay(true).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    s
}

/// Reads exactly `expected.len()` bytes and asserts they match.
fn expect_exact(s: &mut TcpStream, expected: &[u8]) {
    let mut got = vec![0u8; expected.len()];
    s.read_exact(&mut got).unwrap_or_else(|e| {
        panic!(
            "short read (wanted {:?}): {e}",
            String::from_utf8_lossy(expected)
        )
    });
    assert_eq!(
        got,
        expected,
        "wire bytes: got {:?}, wanted {:?}",
        String::from_utf8_lossy(&got),
        String::from_utf8_lossy(expected)
    );
}

/// Sends a request and asserts the exact response bytes.
fn roundtrip(s: &mut TcpStream, req: &[u8], expected: &[u8]) {
    s.write_all(req).unwrap();
    expect_exact(s, expected);
}

/// Asserts the server closed this connection (EOF, not timeout).
fn expect_closed(s: &mut TcpStream) {
    let mut b = [0u8; 64];
    loop {
        match s.read(&mut b) {
            Ok(0) => return,
            Ok(_) => continue, // drain any final error line
            Err(e) => panic!("expected EOF, got {e}"),
        }
    }
}

/// Reads one binary response frame; pipelined leftovers stay in `buf`
/// for the next call.
fn read_frame(s: &mut TcpStream, buf: &mut Vec<u8>) -> Response {
    let mut chunk = [0u8; 4096];
    loop {
        if let Some((resp, used)) = Response::decode(buf) {
            buf.drain(..used);
            return resp;
        }
        let n = s.read(&mut chunk).expect("read binary frame");
        assert!(n > 0, "connection closed mid-frame");
        buf.extend_from_slice(&chunk[..n]);
    }
}

/// Reads one raw binary response header + body, returning the status
/// field — for error frames whose opcode byte is garbage by design
/// (Response::decode rejects those).
fn read_raw_status(s: &mut TcpStream) -> u16 {
    let mut header = [0u8; 24];
    s.read_exact(&mut header).expect("read raw response header");
    assert_eq!(header[0], 0x81, "response magic");
    let body_len = u32::from_be_bytes([header[8], header[9], header[10], header[11]]) as usize;
    let mut body = vec![0u8; body_len];
    s.read_exact(&mut body).expect("read raw response body");
    u16::from_be_bytes([header[6], header[7]])
}

/// The ASCII script every transport variant must satisfy, in order.
fn ascii_script() -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut v: Vec<(&[u8], &[u8])> = vec![
        (b"set k1 5 0 3\r\nabc\r\n", b"STORED\r\n"),
        (b"get k1\r\n", b"VALUE k1 5 3\r\nabc\r\nEND\r\n"),
        (b"add k1 0 0 1\r\nZ\r\n", b"NOT_STORED\r\n"),
        (b"replace k1 0 0 3\r\nxyz\r\n", b"STORED\r\n"),
        (b"append k1 0 0 1\r\n!\r\n", b"STORED\r\n"),
        (b"prepend k1 0 0 1\r\n>\r\n", b"STORED\r\n"),
        (b"get k1\r\n", b"VALUE k1 0 5\r\n>xyz!\r\nEND\r\n"),
        (b"set k2 0 0 2\r\nhi\r\n", b"STORED\r\n"),
        // multiget: both keys, request order.
        (
            b"get k1 k2 missing\r\n",
            b"VALUE k1 0 5\r\n>xyz!\r\nVALUE k2 0 2\r\nhi\r\nEND\r\n",
        ),
        (b"delete k2\r\n", b"DELETED\r\n"),
        (b"delete k2\r\n", b"NOT_FOUND\r\n"),
        (b"set n 0 0 1\r\n5\r\n", b"STORED\r\n"),
        (b"incr n 10\r\n", b"15\r\n"),
        (b"decr n 20\r\n", b"0\r\n"),
        (b"touch n 100\r\n", b"TOUCHED\r\n"),
        (b"touch missing 100\r\n", b"NOT_FOUND\r\n"),
        (b"version\r\n", b"VERSION 1.4.15-tm (IT-onCommit)\r\n"),
        (b"bogus_command\r\n", b"ERROR\r\n"),
        (b"get\r\n", b"ERROR\r\n"),
        // nbytes bytes arrive but the data block's terminator is wrong:
        // the frame consumes exactly nbytes+2 so the stream stays synced.
        (b"set k3 0 0 3\r\nabXY\r", b"CLIENT_ERROR bad data chunk\r\n"),
    ];
    // noreply storage is silent; prove it by the very next response.
    v.push((b"set quiet 0 0 2 noreply\r\nqq\r\n", b""));
    v.push((b"get quiet\r\n", b"VALUE quiet 0 2\r\nqq\r\nEND\r\n"));
    v.push((b"delete quiet noreply\r\n", b""));
    v.push((b"get quiet\r\n", b"END\r\n"));
    v.into_iter()
        .map(|(a, b)| (a.to_vec(), b.to_vec()))
        .collect()
}

#[test]
fn ascii_script_over_the_wire() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    for (req, resp) in ascii_script() {
        roundtrip(&mut s, &req, &resp);
    }
}

#[test]
fn ascii_script_survives_one_byte_writes() {
    // The same script, every request delivered one byte per write: the
    // incremental scanner must frame identically no matter where the
    // socket reads land.
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    for (req, resp) in ascii_script() {
        for &b in req.iter() {
            s.write_all(&[b]).unwrap();
        }
        expect_exact(&mut s, &resp);
    }
}

#[test]
fn ascii_cas_over_the_wire() {
    let srv = server(Branch::ItNoLock);
    let mut s = connect(&srv);
    roundtrip(&mut s, b"set c 0 0 3\r\nv-1\r\n", b"STORED\r\n");

    // gets exposes the CAS id; parse it back out.
    s.write_all(b"gets c\r\n").unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    while !buf.ends_with(b"END\r\n") {
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-gets");
        buf.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8_lossy(&buf).to_string();
    assert!(text.starts_with("VALUE c 0 3 "), "gets response: {text:?}");
    let cas: u64 = text
        .split_whitespace()
        .nth(4)
        .and_then(|w| w.split('\r').next())
        .unwrap()
        .parse()
        .unwrap();

    let good = format!("cas c 0 0 3 {cas}\r\nv-2\r\n");
    roundtrip(&mut s, good.as_bytes(), b"STORED\r\n");
    // Stale CAS id loses.
    let stale = format!("cas c 0 0 3 {cas}\r\nv-3\r\n");
    roundtrip(&mut s, stale.as_bytes(), b"EXISTS\r\n");
    roundtrip(&mut s, b"cas ghost 0 0 1 9\r\nx\r\n", b"NOT_FOUND\r\n");
    roundtrip(&mut s, b"get c\r\n", b"VALUE c 0 3\r\nv-2\r\nEND\r\n");
}

#[test]
fn oversized_key_is_client_error_and_survivable() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    let big = "k".repeat(251);

    let req = format!("get {big}\r\n");
    roundtrip(
        &mut s,
        req.as_bytes(),
        b"CLIENT_ERROR bad command line format\r\n",
    );
    // A store with an oversized key frames as line + data block (the
    // data is consumed with the doomed command), answered once.
    let req = format!("set {big} 0 0 1\r\nx\r\n");
    roundtrip(
        &mut s,
        req.as_bytes(),
        b"CLIENT_ERROR bad command line format\r\n",
    );
    // The connection is still in sync.
    roundtrip(&mut s, b"set ok 0 0 2\r\nok\r\n", b"STORED\r\n");
    roundtrip(&mut s, b"get ok\r\n", b"VALUE ok 0 2\r\nok\r\nEND\r\n");
}

#[test]
fn oversized_value_is_swallowed_not_fatal() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);

    // nbytes over the cap: the server answers immediately and discards
    // the in-flight data block without buffering it.
    let n = ASCII_VALUE_MAX + 1;
    s.write_all(format!("set huge 0 0 {n}\r\n").as_bytes()).unwrap();
    expect_exact(&mut s, b"SERVER_ERROR object too large for cache\r\n");
    // Stream the doomed payload anyway — it must be swallowed so the
    // next command starts on a frame boundary.
    let chunk = vec![b'z'; 64 << 10];
    let mut sent = 0;
    while sent < n {
        let take = chunk.len().min(n - sent);
        s.write_all(&chunk[..take]).unwrap();
        sent += take;
    }
    s.write_all(b"\r\n").unwrap();
    roundtrip(&mut s, b"get huge\r\n", b"END\r\n");
    roundtrip(&mut s, b"set after 0 0 2\r\nok\r\n", b"STORED\r\n");
    assert!(srv.net_stats().frame_errors >= 1, "counted as a frame error");
}

#[test]
fn absurd_value_length_closes_without_killing_the_worker() {
    // `set k 0 0 18446744073709551615`: the declared length overflows
    // `swallow + 2` in usize arithmetic. The connection must be closed
    // as unsyncable — not panic the net worker (which owns every other
    // connection on its shard) or wrap the swallow count.
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    roundtrip(&mut s, b"set live 0 0 2\r\nok\r\n", b"STORED\r\n");
    s.write_all(format!("set k 0 0 {}\r\n", u64::MAX).as_bytes()).unwrap();
    expect_exact(&mut s, b"SERVER_ERROR object too large for cache\r\n");
    expect_closed(&mut s);
    assert!(srv.net_stats().frame_errors >= 1);
    // The worker survived: a fresh connection is served normally.
    let mut s2 = connect(&srv);
    roundtrip(&mut s2, b"get live\r\n", b"VALUE live 0 2\r\nok\r\nEND\r\n");
}

#[test]
fn slow_reader_backpressure_bounds_pending_responses() {
    // A client that pipelines gets of a fat value but never reads the
    // responses must be parked at the write-side high-water mark, not
    // amplified into an unbounded response buffer.
    let handle = McCache::start(McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: 2,
        slab: SlabConfig {
            mem_limit: 8 << 20,
            page_size: 256 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 6,
        hash_power_max: 8,
        item_lock_power: 4,
        maintenance: false,
        ..Default::default()
    });
    let srv = Server::start(
        handle,
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            wbuf_high_water: 32 << 10,
            ..NetConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let mut s = connect(&srv);

    let val = vec![b'v'; 16 << 10];
    let mut set = format!("set fat 0 0 {}\r\n", val.len()).into_bytes();
    set.extend_from_slice(&val);
    set.extend_from_slice(b"\r\n");
    roundtrip(&mut s, &set, b"STORED\r\n");

    // ~28 KiB of requests fanning out to ~67 MiB of responses; without
    // backpressure that all lands in the connection's write buffer.
    const GETS: usize = 4096;
    let burst = b"get fat\r\n".repeat(GETS);
    s.write_all(&burst).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while srv.net_stats().backpressure_stalls == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "server never stalled the non-reading client"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    // Draining the socket releases the backlog: every response arrives
    // complete and in order.
    let mut one = format!("VALUE fat 0 {}\r\n", val.len()).into_bytes();
    one.extend_from_slice(&val);
    one.extend_from_slice(b"\r\nEND\r\n");
    for i in 0..GETS {
        let mut got = vec![0u8; one.len()];
        s.read_exact(&mut got)
            .unwrap_or_else(|e| panic!("short read at response {i}: {e}"));
        assert!(got == one, "response {i} corrupted");
    }
    assert!(srv.net_stats().backpressure_stalls > 0);
}

#[test]
fn overlong_line_closes_the_connection() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    // An unterminated command line past the cap cannot be resynced.
    let junk = vec![b'a'; ASCII_LINE_MAX + 1];
    s.write_all(&junk).unwrap();
    expect_closed(&mut s);
    // The server itself is fine: new connections work.
    let mut s2 = connect(&srv);
    roundtrip(&mut s2, b"version\r\n", b"VERSION 1.4.15-tm (IT-onCommit)\r\n");
}

#[test]
fn quit_closes_after_flushing() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    // Pipelined: the set's reply must arrive before the close.
    s.write_all(b"set q 0 0 1\r\nx\r\nquit\r\n").unwrap();
    expect_exact(&mut s, b"STORED\r\n");
    expect_closed(&mut s);
}

#[test]
fn quit_is_recognised_by_its_first_token() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    // Trailing whitespace is no part of the command.
    s.write_all(b"set q 0 0 1\r\nx\r\nquit \r\n").unwrap();
    expect_exact(&mut s, b"STORED\r\n");
    expect_closed(&mut s);
}

/// One rule for `stats <group>` on both protocols, memcached 1.4.15's
/// `process_stat`: no group (a trailing space included) is the general
/// list, the wire counters among it; a named group this server does not
/// keep is ASCII `ERROR` and binary `KeyNotFound`, and the connection
/// serves on.
#[test]
fn stats_groups_follow_one_rule_on_both_protocols() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    s.write_all(b"stats \r\n").unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while !buf.ends_with(b"END\r\n") {
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-stats");
        buf.extend_from_slice(&chunk[..n]);
    }
    let text = String::from_utf8(buf).expect("stats are ASCII");
    for key in ["STAT cmd_get ", "STAT curr_connections 1\r\n", "STAT udp_datagrams_tx "] {
        assert!(text.contains(key), "missing {key:?} in:\n{text}");
    }
    roundtrip(&mut s, b"stats anything\r\n", b"ERROR\r\n");
    s.write_all(&bin_req(Opcode::Stat, 7, b"anything", b"").encode()).unwrap();
    let r = read_frame(&mut s, &mut Vec::new());
    assert_eq!((r.status, r.opaque), (Status::KeyNotFound, 7));
    assert!(ascii_stats(&mut s).contains("STAT cmd_get "), "connection survives");
}

/// The names `stats` reports are unique, and carry every counter the
/// benchmark's wire target parses by name (`Counters::of_wire` in
/// `benchmark/src/engine.rs`): a renamed row would silently zero a
/// per-layer metric there. The server has a redo log attached, so every
/// row of the table is on the list.
#[test]
fn stats_names_are_unique_and_cover_the_benchmark_parse() {
    let dir = dur_dir("statnames");
    let srv = serve(McConfig {
        dur_path: Some(dir.clone()),
        ..config(Branch::It(Stage::OnCommit))
    });
    let text = ascii_stats(&mut connect(&srv));
    let names: Vec<&str> = text
        .lines()
        .filter_map(|l| l.strip_prefix("STAT "))
        .map(|l| l.split(' ').next().unwrap())
        .collect();
    let unique: std::collections::HashSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate stat names in {names:?}");
    for k in [
        "cmd_get",
        "get_hits",
        "cmd_set",
        "evictions",
        "hash_expansions",
        "request_panics",
        "bytes_read",
        "bytes_written",
        "frame_errors",
    ] {
        assert!(unique.contains(k), "stats lost {k}, which the benchmark reads");
    }
    assert!(unique.contains("dur_appends"), "the log's rows are listed");
    drop(srv);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Sends ASCII `stats` and reads the dump through its `END`.
fn ascii_stats(s: &mut TcpStream) -> String {
    s.write_all(b"stats\r\n").unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    while !buf.ends_with(b"END\r\n") {
        let n = s.read(&mut chunk).unwrap();
        assert!(n > 0, "connection closed mid-stats");
        buf.extend_from_slice(&chunk[..n]);
    }
    String::from_utf8(buf).expect("stats are ASCII")
}

#[test]
fn stats_includes_net_counters() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    roundtrip(&mut s, b"set sk 0 0 2\r\nsv\r\n", b"STORED\r\n");
    let text = ascii_stats(&mut s);
    for key in [
        "STAT curr_connections 1",
        "STAT total_connections 1",
        "STAT bytes_read ",
        "STAT bytes_written ",
        "STAT frame_errors 0",
        "STAT cmd_set ",
    ] {
        assert!(text.contains(key), "stats missing {key:?} in:\n{text}");
    }
}

fn bin_req(opcode: Opcode, opaque: u32, key: &[u8], value: &[u8]) -> Request {
    Request {
        opcode,
        opaque,
        cas: 0,
        key: key.to_vec(),
        value: value.to_vec(),
        extra: 0,
    }
}

#[test]
fn binary_script_over_the_wire() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);

    let mut rb = Vec::new();
    s.write_all(&bin_req(Opcode::Set, 1, b"bk", b"bv").encode()).unwrap();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.status, r.opaque), (Status::Ok, 1));

    s.write_all(&bin_req(Opcode::Get, 2, b"bk", b"").encode()).unwrap();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.status, r.opaque), (Status::Ok, 2));
    assert_eq!(r.value, b"bv");
    assert_ne!(r.cas, 0, "get hits expose the item CAS");
    assert!(r.key.is_empty(), "plain GET does not echo the key");

    s.write_all(&bin_req(Opcode::GetK, 3, b"bk", b"").encode()).unwrap();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.status, r.opaque), (Status::Ok, 3));
    assert_eq!(r.key, b"bk");

    s.write_all(&bin_req(Opcode::Get, 4, b"ghost", b"").encode()).unwrap();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.status, r.opaque), (Status::KeyNotFound, 4));

    s.write_all(&bin_req(Opcode::Delete, 5, b"bk", b"").encode()).unwrap();
    assert_eq!(read_frame(&mut s, &mut rb).status, Status::Ok);
}

#[test]
fn binary_quiet_semantics_over_the_wire() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);

    // SETQ burst: quiet stores answer nothing on success; only the
    // terminating Noop comes back.
    let mut wire = Vec::new();
    for i in 0..4u32 {
        let key = format!("qk{i}");
        wire.extend_from_slice(
            &bin_req(Opcode::SetQ, i, key.as_bytes(), b"qv").encode(),
        );
    }
    wire.extend_from_slice(&bin_req(Opcode::Noop, 99, b"", b"").encode());
    s.write_all(&wire).unwrap();
    let mut rb = Vec::new();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.opcode, r.opaque), (Opcode::Noop, 99), "only the Noop answers");

    // GETQ (no key echo) and GETKQ (key echo) mix: misses are silent.
    let mut wire = Vec::new();
    wire.extend_from_slice(&bin_req(Opcode::GetQ, 10, b"qk0", b"").encode());
    wire.extend_from_slice(&bin_req(Opcode::GetQ, 11, b"ghost", b"").encode());
    wire.extend_from_slice(&bin_req(Opcode::GetKQ, 12, b"qk1", b"").encode());
    wire.extend_from_slice(&bin_req(Opcode::GetKQ, 13, b"ghost", b"").encode());
    wire.extend_from_slice(&bin_req(Opcode::Noop, 100, b"", b"").encode());
    s.write_all(&wire).unwrap();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.opaque, r.status), (10, Status::Ok));
    assert_eq!(r.value, b"qv");
    assert!(r.key.is_empty(), "GETQ hits do not echo the key");
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.opaque, r.status), (12, Status::Ok));
    assert_eq!(r.key, b"qk1", "GETKQ hits echo the key");
    let r = read_frame(&mut s, &mut rb);
    assert_eq!(r.opaque, 100, "misses were silent; Noop terminates");

    // DeleteQ: silent success, loud miss.
    let mut wire = Vec::new();
    wire.extend_from_slice(&bin_req(Opcode::DeleteQ, 20, b"qk0", b"").encode());
    wire.extend_from_slice(&bin_req(Opcode::DeleteQ, 21, b"ghost", b"").encode());
    wire.extend_from_slice(&bin_req(Opcode::Noop, 101, b"", b"").encode());
    s.write_all(&wire).unwrap();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.opaque, r.status), (21, Status::KeyNotFound));
    let r = read_frame(&mut s, &mut rb);
    assert_eq!(r.opaque, 101);
}

#[test]
fn binary_unknown_opcode_answers_without_closing() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);

    // Magic 0x80, opcode 0xEE, empty body: a well-framed unknown command.
    let mut frame = vec![0u8; 24];
    frame[0] = 0x80;
    frame[1] = 0xEE;
    s.write_all(&frame).unwrap();
    // The error frame echoes the raw unknown opcode, so only the raw
    // header reader can parse it.
    assert_eq!(read_raw_status(&mut s), Status::UnknownCommand as u16);

    // Connection still works, on both protocols.
    let mut rb = Vec::new();
    s.write_all(&bin_req(Opcode::Set, 7, b"still", b"here").encode()).unwrap();
    assert_eq!(read_frame(&mut s, &mut rb).status, Status::Ok);
    roundtrip(&mut s, b"get still\r\n", b"VALUE still 0 4\r\nhere\r\nEND\r\n");
    assert!(srv.net_stats().frame_errors >= 1);
}

#[test]
fn binary_torn_frames_one_byte_at_a_time() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    let reqs = [
        bin_req(Opcode::Set, 1, b"torn", b"value-bytes"),
        bin_req(Opcode::Get, 2, b"torn", b""),
    ];
    let mut rb = Vec::new();
    for req in &reqs {
        for &b in req.encode().iter() {
            s.write_all(&[b]).unwrap();
        }
        let r = read_frame(&mut s, &mut rb);
        assert_eq!((r.status, r.opaque), (Status::Ok, req.opaque));
    }
}

#[test]
fn binary_oversized_body_closes_with_error_frame() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    // Header advertising a body over the cap: answered with an error
    // frame, then closed — the body is not buffered or awaited.
    let mut frame = vec![0u8; 24];
    frame[0] = 0x80;
    frame[1] = Opcode::Set as u8;
    frame[8..12].copy_from_slice(&(64u32 << 20).to_be_bytes());
    s.write_all(&frame).unwrap();
    assert_eq!(read_raw_status(&mut s), Status::ValueTooLarge as u16);
    expect_closed(&mut s);
    assert!(srv.net_stats().frame_errors >= 1);
}

/// Binary STAT (0x10): a full stat dump — one packet per statistic with
/// the stat name as the key and the decimal counter as the value —
/// closed by the canonical empty-key/empty-value terminator. With a
/// durability log attached, the `dur_*` block must ride along, and the
/// counters themselves must reflect the traffic that preceded the dump.
#[test]
fn binary_stat_over_the_wire() {
    let dir = dur_dir("binstat");
    let srv = serve(McConfig {
        dur_path: Some(dir.clone()),
        ..config(Branch::It(Stage::OnCommit))
    });
    let mut s = connect(&srv);
    let mut rb = Vec::new();

    s.write_all(&bin_req(Opcode::Set, 1, b"sk", b"sv").encode()).unwrap();
    assert_eq!(read_frame(&mut s, &mut rb).status, Status::Ok);
    s.write_all(&bin_req(Opcode::Get, 2, b"sk", b"").encode()).unwrap();
    assert_eq!(read_frame(&mut s, &mut rb).status, Status::Ok);

    s.write_all(&bin_req(Opcode::Stat, 3, b"", b"").encode()).unwrap();
    let mut stats = std::collections::HashMap::new();
    loop {
        let r = read_frame(&mut s, &mut rb);
        assert_eq!((r.status, r.opcode, r.opaque), (Status::Ok, Opcode::Stat, 3));
        if r.key.is_empty() {
            assert!(r.value.is_empty(), "terminator carries no value");
            break;
        }
        let name = String::from_utf8(r.key).expect("stat names are ASCII");
        let val: u64 = String::from_utf8(r.value)
            .expect("stat values are ASCII")
            .parse()
            .expect("stat values are decimal");
        assert!(stats.insert(name, val).is_none(), "no duplicate stat keys");
    }
    assert!(stats["cmd_set"] >= 1, "the SET above must be counted");
    assert!(stats["cmd_get"] >= 1 && stats["get_hits"] >= 1);
    assert!(
        stats.contains_key("dur_appends") && stats["dur_appends"] >= 1,
        "durability counters must ride the binary STAT surface"
    );
    for k in ["dur_fsyncs", "dur_bytes", "dur_compactions"] {
        assert!(stats.contains_key(k), "missing stat {k}");
    }
    // Slab memory: whole pages, at least the SET's, within the pool.
    assert_eq!(stats["limit_maxbytes"], 8 << 20);
    let malloced = stats["total_malloced"];
    assert!((256 << 10..=8 << 20).contains(&malloced), "{malloced}");
    assert_eq!(malloced % (256 << 10), 0, "{malloced}");

    // An unknown stat subgroup answers a single KeyNotFound, connection
    // intact.
    s.write_all(&bin_req(Opcode::Stat, 4, b"slabs", b"").encode()).unwrap();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.status, r.opaque), (Status::KeyNotFound, 4));
    s.write_all(&bin_req(Opcode::Noop, 5, b"", b"").encode()).unwrap();
    assert_eq!(read_frame(&mut s, &mut rb).opaque, 5, "connection survives");

    drop(srv);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `stats` is one surface: a binary client must see every name an ASCII
/// client sees, in the same order — the connection layer's counters
/// (a binary-only client's sole view of `frame_errors`) included.
#[test]
fn ascii_and_binary_stats_report_the_same_names() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);

    let ascii: Vec<String> = ascii_stats(&mut s)
        .lines()
        .filter_map(|l| l.strip_prefix("STAT "))
        .map(|l| l.split(' ').next().unwrap().to_string())
        .collect();

    s.write_all(&bin_req(Opcode::Stat, 9, b"", b"").encode()).unwrap();
    let mut rb = Vec::new();
    let mut binary = Vec::new();
    loop {
        let r = read_frame(&mut s, &mut rb);
        assert_eq!((r.status, r.opaque), (Status::Ok, 9));
        if r.key.is_empty() {
            break;
        }
        binary.push(String::from_utf8(r.key).expect("stat names are ASCII"));
    }

    assert_eq!(ascii, binary);
    for k in [
        "curr_connections",
        "total_connections",
        "bytes_read",
        "bytes_written",
        "frame_errors",
        "backpressure_stalls",
        "accept_errors",
        "conn_timeouts",
        "udp_datagrams_rx",
        "udp_datagrams_tx",
    ] {
        assert!(binary.iter().any(|n| n == k), "binary STAT missing {k}");
    }
}

/// A binary request assembled by hand from the protocol spec — not by
/// this crate's encoder — with a zero CAS.
fn spec_frame(opcode: u8, opaque: u32, extras: &[u8], key: &[u8], value: &[u8]) -> Vec<u8> {
    let mut f = vec![0x80, opcode];
    f.extend_from_slice(&(key.len() as u16).to_be_bytes());
    f.extend_from_slice(&[extras.len() as u8, 0, 0, 0]);
    f.extend_from_slice(&((extras.len() + key.len() + value.len()) as u32).to_be_bytes());
    f.extend_from_slice(&opaque.to_be_bytes());
    f.extend_from_slice(&[0; 8]);
    f.extend_from_slice(extras);
    f.extend_from_slice(key);
    f.extend_from_slice(value);
    f
}

/// The spec's extras: SET/ADD/REPLACE carry flags `u32` + exptime `u32`,
/// INCR/DECR delta `u64` + initial `u64` + exptime `u32`, everything else
/// none; any other length is `InvalidArguments`, as memcached answers.
#[test]
fn binary_extras_follow_the_spec_layout() {
    let srv = server(Branch::It(Stage::OnCommit));
    let mut s = connect(&srv);
    let mut rb = Vec::new();
    s.write_all(&spec_frame(0x01, 1, &[0, 0, 0, 5, 0, 0, 0, 0], b"sk", b"41")).unwrap();
    assert_eq!(read_frame(&mut s, &mut rb).status, Status::Ok);
    roundtrip(&mut s, b"get sk\r\n", b"VALUE sk 5 2\r\n41\r\nEND\r\n");

    let mut extras = [0u8; 20];
    extras[7] = 10; // delta 10, initial 0, exptime 0
    s.write_all(&spec_frame(0x05, 2, &extras, b"sk", b"")).unwrap();
    let r = read_frame(&mut s, &mut rb);
    assert_eq!((r.status, r.opaque), (Status::Ok, 2));
    assert_eq!(r.value, 51u64.to_be_bytes());

    for (opcode, extlen) in [(0x01, 4), (0x02, 0), (0x05, 8), (0x00, 4)] {
        s.write_all(&spec_frame(opcode, 3, &vec![0; extlen], b"sk", b"")).unwrap();
        assert_eq!(read_raw_status(&mut s), Status::InvalidArguments as u16, "opcode {opcode:#x}");
    }
    roundtrip(&mut s, b"get sk\r\n", b"VALUE sk 5 2\r\n51\r\nEND\r\n");
}
