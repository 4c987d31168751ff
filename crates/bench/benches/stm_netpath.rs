//! Net-path benches: the readiness loop at connection scale.
//!
//! * `netpath_conn` — one full connection lifecycle per iteration:
//!   connect → set → get → `quit` → observe the server's FIN. This is
//!   the accept/register/teardown path, the churn-storm shape.
//! * `netpath_fanin` — a single-key GET roundtrip while the server
//!   holds 256 idle connections: readiness pays only for the one that
//!   spoke.
//!
//! The committed `BENCH_netpath_*.json` baselines feed the
//! bench_compare regression gate, which catches the loop getting slower
//! against its own history. (The polling backend these arms used to be
//! paired against is gone; its last numbers are in EXPERIMENTS.md.)

use std::hint::black_box;

use bench::wire::WireConn;
use mcache::net::{NetConfig, Server};
use mcache::{Branch, McCache, McConfig, Stage};
use testkit::bench::Criterion;
use testkit::{criterion_group, criterion_main};

const KEYS: usize = 64;
const VALUE: &[u8] = &[0x5a; 100];
const IDLE_CONNS: usize = 256;

fn key(i: usize) -> String {
    format!("netbench:{i:04}")
}

/// One cache + server on an ephemeral loopback port, warmed with the
/// bench keyspace.
fn server() -> Server {
    let handle = McCache::start(McConfig {
        branch: Branch::It(Stage::OnCommit),
        workers: 2,
        magazine: 16,
        ..Default::default()
    });
    for i in 0..KEYS {
        assert_eq!(
            handle.set(0, key(i).as_bytes(), VALUE, 0, 0),
            mcache::StoreStatus::Stored
        );
    }
    Server::start(
        handle,
        NetConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            ..Default::default()
        },
    )
    .expect("bind ephemeral loopback port")
}

/// One full connection lifecycle: connect, an oracle-checked set + get,
/// `quit`, and the server's FIN (so teardown is inside the measurement).
fn lifecycle(addr: &str, i: usize) {
    let mut conn = WireConn::connect(addr).expect("lifecycle connect");
    let mut set = format!("set {} 0 0 {}\r\n", key(i), VALUE.len()).into_bytes();
    set.extend_from_slice(VALUE);
    set.extend_from_slice(b"\r\n");
    assert_eq!(conn.ascii_line(&set).expect("set"), b"STORED");
    let k = key(i);
    let hits = conn.ascii_get(&[k.as_bytes()], false).expect("get");
    assert_eq!(hits.len(), 1, "warm key must hit");
    conn.send(b"quit\r\n").expect("quit");
    assert!(conn.read_line().is_err(), "server closes after quit");
}

fn bench_conn(c: &mut Criterion) {
    let srv = server();
    let addr = srv.local_addr().to_string();
    let mut i = 0usize;

    let mut g = c.benchmark_group("netpath_conn");
    g.sample_size(20);
    g.bench_function("conn_lifecycle/epoll", |b| {
        b.iter(|| {
            i = (i + 1) % KEYS;
            black_box(lifecycle(&addr, i))
        })
    });
    g.finish();
}

fn bench_fanin(c: &mut Criterion) {
    let srv = server();
    let addr = srv.local_addr().to_string();

    // The fan-in backdrop: IDLE_CONNS held-open, silent connections.
    // They exist purely so the readiness machinery has a crowd to pick
    // the one active socket out of.
    let _idle: Vec<WireConn> = (0..IDLE_CONNS)
        .map(|_| WireConn::connect(&addr).expect("idle connect"))
        .collect();

    let mut conn = WireConn::connect(&addr).expect("active connect");
    let mut i = 0usize;

    let mut g = c.benchmark_group("netpath_fanin");
    g.sample_size(20);
    g.bench_function("get_under_256_idle/epoll", |b| {
        b.iter(|| {
            i = (i + 1) % KEYS;
            let k = key(i);
            let hits = conn.ascii_get(&[k.as_bytes()], false).expect("get");
            assert_eq!(hits.len(), 1, "warm key must hit");
            black_box(hits)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_conn, bench_fanin);
criterion_main!(benches);
