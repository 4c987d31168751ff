//! Event-driven front-end conformance: the UDP frame protocol
//! (multi-datagram reassembly, out-of-order request ids, malformed
//! headers), the Unix-domain transport, the idle-connection reaper, and
//! 64 connections trickling frames one byte at a time. (Byte-for-byte
//! equivalence of the loop over the epoll and sweep pollers is a unit
//! test inside `mcache::net`, which can name the pollers.)

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{TcpStream, UdpSocket};
use std::time::Duration;

use mcache::net::udp::{decode_header, encode_header, UDP_HEADER, UDP_PAYLOAD_MAX};
use mcache::net::{NetConfig, Server};
use mcache::{Branch, McCache, McConfig, SlabConfig, Stage};

#[path = "support/wire_script.rs"]
mod wire_script;
use wire_script::{read_until_version, wire_script};

fn server_with(net: NetConfig) -> Server {
    let workers = net.workers;
    let handle = McCache::start(McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers,
        slab: SlabConfig {
            mem_limit: 16 << 20,
            page_size: 256 << 10,
            chunk_min: 96,
            growth_factor: 1.5,
        },
        hash_power: 8,
        hash_power_max: 10,
        item_lock_power: 5,
        maintenance: false,
        ..Default::default()
    });
    Server::start(handle, net).expect("bind ephemeral server")
}

fn udp_server() -> Server {
    server_with(NetConfig {
        addr: "127.0.0.1:0".to_string(),
        udp_addr: Some("127.0.0.1:0".to_string()),
        workers: 2,
        ..NetConfig::default()
    })
}

fn udp_socket(srv: &Server) -> UdpSocket {
    let sock = UdpSocket::bind("127.0.0.1:0").expect("bind client udp");
    sock.connect(srv.udp_addr().expect("server has udp")).expect("connect udp");
    sock.set_read_timeout(Some(Duration::from_secs(10))).expect("timeout");
    sock
}

fn udp_send(sock: &UdpSocket, rid: u16, payload: &[u8]) {
    let mut wire = Vec::with_capacity(UDP_HEADER + payload.len());
    wire.extend_from_slice(&encode_header(rid, 0, 1));
    wire.extend_from_slice(payload);
    sock.send(&wire).expect("send datagram");
}

/// Receives datagrams until `want` distinct request ids have fully
/// reassembled, tolerating any arrival order within and across ids.
fn udp_collect(sock: &UdpSocket, want: usize) -> HashMap<u16, Vec<u8>> {
    let mut partial: HashMap<u16, (usize, Vec<Option<Vec<u8>>>)> = HashMap::new();
    let mut done: HashMap<u16, Vec<u8>> = HashMap::new();
    let mut buf = vec![0u8; 64 << 10];
    while done.len() < want {
        let n = sock.recv(&mut buf).expect("recv datagram");
        let (rid, seq, total) = decode_header(&buf[..n]).expect("response header");
        assert!(total >= 1, "response total must be positive");
        assert!(seq < total, "response seq must be within total");
        let (count, slots) = partial
            .entry(rid)
            .or_insert_with(|| (0, vec![None; total as usize]));
        assert_eq!(slots.len(), total as usize, "total must be stable per rid");
        assert!(slots[seq as usize].is_none(), "no duplicate seq per rid");
        slots[seq as usize] = Some(buf[UDP_HEADER..n].to_vec());
        *count += 1;
        if *count == slots.len() {
            let (_, slots) = partial.remove(&rid).unwrap();
            let mut full = Vec::new();
            for s in slots {
                full.extend_from_slice(&s.unwrap());
            }
            done.insert(rid, full);
        }
    }
    assert!(partial.is_empty(), "no half-reassembled responses left over");
    done
}

#[test]
fn udp_header_encode_decode_roundtrip() {
    for (rid, seq, total) in [(0, 0, 1), (1, 0, 1), (513, 2, 7), (u16::MAX, 41, 42)] {
        let h = encode_header(rid, seq, total);
        assert_eq!(h.len(), UDP_HEADER);
        // Big-endian on the wire, reserved bytes zero — the memcached
        // layout, byte for byte.
        assert_eq!(h[0], (rid >> 8) as u8);
        assert_eq!(h[1], (rid & 0xff) as u8);
        assert_eq!(h[6], 0);
        assert_eq!(h[7], 0);
        assert_eq!(decode_header(&h), Some((rid, seq, total)));
    }
    assert_eq!(decode_header(&[0u8; 7]), None, "short datagram has no header");
}

#[test]
fn udp_single_datagram_roundtrip() {
    let srv = udp_server();
    let sock = udp_socket(&srv);

    udp_send(&sock, 7, b"set alpha 0 0 5\r\nhello\r\n");
    let resp = udp_collect(&sock, 1);
    assert_eq!(resp[&7], b"STORED\r\n");

    udp_send(&sock, 8, b"get alpha\r\n");
    let resp = udp_collect(&sock, 1);
    assert_eq!(resp[&8], b"VALUE alpha 0 5\r\nhello\r\nEND\r\n");
}

#[test]
fn udp_large_value_reassembles_from_multiple_datagrams() {
    let srv = udp_server();
    let sock = udp_socket(&srv);

    // A value big enough that VALUE line + data + END spans >= 4
    // sequenced datagrams.
    let value: Vec<u8> = (0..4500u32).map(|i| (i % 251) as u8).collect();
    let mut set = format!("set big 0 0 {}\r\n", value.len()).into_bytes();
    set.extend_from_slice(&value);
    set.extend_from_slice(b"\r\n");
    udp_send(&sock, 1, &set);
    assert_eq!(udp_collect(&sock, 1)[&1], b"STORED\r\n");

    udp_send(&sock, 2, b"get big\r\n");
    let resp = &udp_collect(&sock, 1)[&2];
    let expected_len = resp.len();
    assert!(
        expected_len > 3 * UDP_PAYLOAD_MAX,
        "response must have spanned >= 4 datagrams, got {expected_len} bytes"
    );
    let mut expect = format!("VALUE big 0 {}\r\n", value.len()).into_bytes();
    expect.extend_from_slice(&value);
    expect.extend_from_slice(b"\r\nEND\r\n");
    assert_eq!(resp, &expect, "reassembled response must be byte-exact");
}

#[test]
fn udp_out_of_order_request_ids_answer_independently() {
    let srv = udp_server();
    let sock = udp_socket(&srv);

    udp_send(&sock, 3, b"set k1 0 0 3\r\none\r\n");
    udp_send(&sock, 3000, b"set k2 0 0 3\r\ntwo\r\n");
    assert_eq!(udp_collect(&sock, 2).len(), 2);

    // Fire a burst of gets under deliberately shuffled request ids; the
    // responses may arrive in any order (two workers race for the
    // socket) and must each carry their own rid's answer.
    let rids: [u16; 5] = [900, 4, 77, 65535, 30];
    for (i, &rid) in rids.iter().enumerate() {
        let key = if i % 2 == 0 { "k1" } else { "k2" };
        udp_send(&sock, rid, format!("get {key}\r\n").as_bytes());
    }
    let resp = udp_collect(&sock, rids.len());
    for (i, &rid) in rids.iter().enumerate() {
        let expect: &[u8] = if i % 2 == 0 {
            b"VALUE k1 0 3\r\none\r\nEND\r\n"
        } else {
            b"VALUE k2 0 3\r\ntwo\r\nEND\r\n"
        };
        assert_eq!(resp[&rid], expect, "rid {rid} must get its own response");
    }
}

#[test]
fn udp_malformed_frames_counted_not_answered() {
    let srv = udp_server();
    let sock = udp_socket(&srv);
    sock.set_read_timeout(Some(Duration::from_millis(300))).unwrap();

    // Short datagram (no full header), a multi-datagram request
    // (seq=1/total=2 — illegal for requests), and a truncated ASCII
    // frame (no CRLF so it can never complete without a stream).
    sock.send(&[0x01, 0x02, 0x03]).expect("runt send");
    let mut multi = encode_header(5, 1, 2).to_vec();
    multi.extend_from_slice(b"get k1\r\n");
    sock.send(&multi).expect("multi-datagram request send");
    udp_send(&sock, 6, b"get k1");

    let mut buf = [0u8; 2048];
    let err = sock.recv(&mut buf).expect_err("malformed frames answer nothing");
    assert!(
        matches!(err.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
        "unexpected recv error: {err:?}"
    );
    // All three were counted; a healthy request still works after.
    let ns = srv.net_stats();
    assert!(ns.frame_errors >= 3, "frame_errors={} must count all 3", ns.frame_errors);
    sock.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    udp_send(&sock, 9, b"version\r\n");
    assert!(udp_collect(&sock, 1)[&9].starts_with(b"VERSION"));
}

// ---------------------------------------------------------------------
// Stream transports
// ---------------------------------------------------------------------

#[cfg(unix)]
#[test]
fn unix_socket_serves_identical_bytes_to_tcp() {
    let dir = std::env::temp_dir().join(format!("mcache-unix-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join("netpath.sock");
    let script = wire_script();

    // Two fresh servers, one per transport, so both scripts run against
    // identical (empty) state and the byte streams are comparable.
    let tcp_bytes = {
        let srv = server_with(NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..NetConfig::default()
        });
        let mut tcp = TcpStream::connect(srv.local_addr()).expect("tcp connect");
        tcp.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        tcp.write_all(&script).expect("tcp script");
        read_until_version(&mut tcp)
    };
    let mut srv = server_with(NetConfig {
        addr: "127.0.0.1:0".to_string(),
        unix_path: Some(path.clone()),
        workers: 2,
        ..NetConfig::default()
    });
    let mut unix = std::os::unix::net::UnixStream::connect(&path).expect("unix connect");
    unix.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    unix.write_all(&script).expect("unix script");
    let unix_bytes = read_until_version(&mut unix);

    assert_eq!(
        tcp_bytes, unix_bytes,
        "the protocol must be transport-agnostic byte for byte"
    );
    srv.shutdown();
    assert!(!path.exists(), "shutdown must remove the socket file");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A script safe to run concurrently from many connections: values are
/// a pure function of the key (racing sets write identical bytes), no
/// deletes or arithmetic, fixed flags — so once every key exists, every
/// connection reads the same response stream no matter the interleaving.
fn concurrent_script() -> Vec<u8> {
    let mut script = Vec::new();
    for i in 0..40 {
        let j = i % 13;
        let value = format!("stable-{j:02}-{}", "y".repeat(j * 7));
        script.extend_from_slice(format!("set ckey{j} 0 0 {}\r\n", value.len()).as_bytes());
        script.extend_from_slice(value.as_bytes());
        script.extend_from_slice(b"\r\n");
        script.extend_from_slice(format!("get ckey{j} ckey{}\r\n", (i + 5) % 13).as_bytes());
    }
    script.extend_from_slice(b"version\r\n");
    script
}

/// 64 concurrent connections each trickling the full script one byte
/// per write — frames fragment at every possible boundary, and under
/// epoll every byte arrives as its own edge. Each connection must still
/// read exactly the reference response stream.
#[test]
fn sixty_four_connections_one_byte_at_a_time() {
    let srv = server_with(NetConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        ..NetConfig::default()
    });
    let script = concurrent_script();

    // Reference bytes from a well-behaved connection. The first pass
    // populates every key; the second pass's responses (all-hits) are
    // the steady state every concurrent connection must reproduce.
    let reference = {
        let mut s = TcpStream::connect(srv.local_addr()).expect("connect");
        s.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        s.write_all(&script).expect("first pass");
        read_until_version(&mut s);
        s.write_all(&script).expect("second pass");
        read_until_version(&mut s)
    };
    std::thread::scope(|scope| {
        for _ in 0..64 {
            let script = &script;
            let reference = &reference;
            let addr = srv.local_addr();
            scope.spawn(move || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.set_nodelay(true).unwrap();
                s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
                let (mut sent, mut got) = (0usize, Vec::new());
                let mut chunk = [0u8; 4096];
                // Interleave one-byte writes with opportunistic reads so
                // responses drain while the request trickles in.
                s.set_nonblocking(true).unwrap();
                while sent < script.len() {
                    s.write_all(&script[sent..sent + 1]).expect("one-byte write");
                    sent += 1;
                    match s.read(&mut chunk) {
                        Ok(n) => {
                            assert!(n > 0, "server closed mid-script");
                            got.extend_from_slice(&chunk[..n]);
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                        Err(e) => panic!("read failed: {e}"),
                    }
                }
                s.set_nonblocking(false).unwrap();
                while !(got.ends_with(b"\r\n") && {
                    let start = got[..got.len() - 2]
                        .windows(2)
                        .rposition(|w| w == b"\r\n")
                        .map_or(0, |i| i + 2);
                    got[start..].starts_with(b"VERSION")
                }) {
                    let n = s.read(&mut chunk).expect("drain responses");
                    assert!(n > 0, "server closed before version sync");
                    got.extend_from_slice(&chunk[..n]);
                }
                assert_eq!(
                    &got, reference,
                    "byte-trickled connection must read the reference stream"
                );
            });
        }
    });
    let ns = srv.net_stats();
    assert_eq!(ns.frame_errors, 0, "no trickled frame may desync");
}

#[test]
fn reaper_spares_active_connections() {
    let srv = server_with(NetConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        idle_timeout_ms: 400,
        ..NetConfig::default()
    });
    let mut s = TcpStream::connect(srv.local_addr()).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    // Keep touching the connection at a quarter of the timeout, so a
    // scheduling stall of most of a window cannot fake idleness; it must
    // survive four full timeout windows.
    for _ in 0..16 {
        std::thread::sleep(Duration::from_millis(100));
        s.write_all(b"version\r\n").expect("keepalive");
        let mut buf = [0u8; 256];
        let n = s.read(&mut buf).expect("keepalive answer");
        assert!(n > 0, "active connection must never be reaped");
        assert!(buf.starts_with(b"VERSION"));
    }
    assert_eq!(srv.net_stats().conn_timeouts, 0, "no false-positive reaps");
}
