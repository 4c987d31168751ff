//! The names the benchmark emits: workloads, end-to-end metrics with
//! their bounds, per-layer metrics. `BENCHMARK.json` lists the same
//! names; `tests/quick.rs` fails if the two drift apart.

use crate::gen::ValueSpec;
use crate::wire::Proto;

/// Where the callers sit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Threads in this process, calling the protocol layer directly.
    Inproc { threads: usize },
    /// One TCP connection to an `mcached --threads 1` child.
    Wire,
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub mode: Mode,
    pub proto: Proto,
    pub keys: usize,
    /// SETs per thousand operations; the rest are GETs.
    pub set_permille: u32,
    /// Zipf(0.9) key choice; uniform otherwise.
    pub zipf: bool,
    pub value: ValueSpec,
    /// Slab memory for an in-process cache; `mcached` keeps its 32 MB.
    pub mem_limit: usize,
    /// Redo log on, `dur_fsync=off`; set-up is recovery of a fixture log.
    pub dur: bool,
    /// The live set exceeds the cache, so a GET may miss.
    pub misses_legal: bool,
}

const FIXED_100: ValueSpec = ValueSpec {
    min_len: 100,
    max_len: 100,
};

/// Closed loop everywhere (memcached callers each wait for their reply),
/// and never more callers than this host has cores (2).
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "inproc_read90",
        why: "2 threads in-process, 90% GET over 100k fitting keys: cache + tm do the work (about 4 small transactions per op), net and dur none; the paper's memslap shape, where shared commit-path lines bite",
        mode: Mode::Inproc { threads: 2 },
        proto: Proto::Binary,
        keys: 100_000,
        set_permille: 100,
        zipf: false,
        value: FIXED_100,
        mem_limit: 64 << 20,
        dur: false,
        misses_legal: false,
    },
    Workload {
        name: "inproc_write50_evict",
        why: "2 threads in-process, 50% SET, zipf 0.9, 64-1024 B values in 16 MB (live set ~4x the cache): write transactions, hot-key conflicts, slab allocation and LRU eviction",
        mode: Mode::Inproc { threads: 2 },
        proto: Proto::Binary,
        keys: 100_000,
        set_permille: 500,
        zipf: true,
        value: ValueSpec { min_len: 64, max_len: 1024 },
        mem_limit: 16 << 20,
        dur: false,
        misses_legal: true,
    },
    Workload {
        name: "wire_rr_read90",
        why: "1 TCP connection to mcached --threads 1, one binary request per roundtrip: net does ~80% of the work and the STM is uncontended, so a cache/tm gain is predicted not to move it",
        mode: Mode::Wire,
        proto: Proto::Binary,
        keys: 50_000,
        set_permille: 100,
        zipf: false,
        value: FIXED_100,
        mem_limit: 32 << 20,
        dur: false,
        misses_legal: false,
    },
    Workload {
        name: "wire_pipe16_read90",
        why: "same server, ASCII bursts of 16 (one 16-key get or 16 pipelined sets per write): the socket is amortised, so proto scan/parse and the batched get_multi/store_batch transactions dominate",
        mode: Mode::Wire,
        proto: Proto::Ascii16,
        keys: 50_000,
        set_permille: 100,
        zipf: false,
        value: FIXED_100,
        mem_limit: 32 << 20,
        dur: false,
        misses_legal: false,
    },
    Workload {
        name: "dur_set_nofsync",
        why: "2 threads in-process, 100% overwriting SET with the redo log on and fsync off; set-up is recovery + compaction of a 100k-item log: dur does the work, without fsync jitter",
        mode: Mode::Inproc { threads: 2 },
        proto: Proto::Binary,
        keys: 100_000,
        set_permille: 1000,
        zipf: false,
        value: FIXED_100,
        mem_limit: 64 << 20,
        dur: true,
        misses_legal: false,
    },
];

/// Key-set size of every workload under `--quick`.
pub const QUICK_KEYS: usize = 5_000;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// before a change is a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// The gated metrics. Failures are not among them: any failed operation
/// makes the run incorrect (`failed`/`attempted` in the result line).
/// The time-based bounds are this host's, not a wish: ten seeds of one
/// commit spread (first to third quartile) by up to 9% of the median on
/// `inproc_read90`, and a bound is at least three times that.
pub const END_TO_END: [Metric; 4] = [
    gated("ops_per_s", "ops/s", "higher", 0.25),
    gated("lat_p50_us", "us", "lower", 0.25),
    gated("setup_s", "s", "lower", 0.25),
    gated("rss_mb", "MB", "lower", 0.10),
];

/// Reported, not gated. `lat_p99_us` is here because it does not repeat
/// within a tenth on this host (ten seeds spread by 15% on
/// `inproc_read90` and 22% on `dur_set_nofsync`): the gated run prints
/// it, the traced run reports it from its end-to-end phase.
pub const PER_LAYER: [Metric; 32] = [
    layer("lat_p99_us", "us", "lower"),
    layer("tm.txns_per_op", "txn/op", "lower"),
    layer("tm.ro_fast_share", "ratio", "higher"),
    layer("tm.serial_per_op", "1/op", "lower"),
    layer("tm.aborts_per_commit", "ratio", "lower"),
    layer("tm.clock_cas_retries_per_commit", "ratio", "lower"),
    layer("tm.silent_elisions_per_set", "1/set", "lower"),
    layer("tm.ro_txn_ns", "ns", "lower"),
    layer("tm.rw_txn_ns", "ns", "lower"),
    layer("tm.floor_share", "ratio", "lower"),
    layer("cache.op_ns", "ns", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("lru.evictions_per_set", "1/set", "lower"),
    layer("assoc.expansions", "count", "lower"),
    layer("hot.hit_share", "ratio", "higher"),
    layer("proto.scan_ns", "ns", "lower"),
    layer("proto.parse_ns", "ns", "lower"),
    layer("proto.execute_ns", "ns", "lower"),
    layer("proto.dispatch_self_ns", "ns", "lower"),
    layer("proto.encode_ns", "ns", "lower"),
    layer("harness.self_ns", "ns", "lower"),
    layer("net.rt_self_us", "us", "lower"),
    layer("net.bytes_read_per_op", "B/op", "lower"),
    layer("net.bytes_written_per_op", "B/op", "lower"),
    layer("dur.append_ns", "ns", "lower"),
    layer("dur.bytes_per_user_byte", "ratio", "lower"),
    layer("dur.appends_per_set", "1/set", "lower"),
    layer("dur.fsyncs", "count", "lower"),
    layer("dur.recover_items_per_s", "items/s", "higher"),
    layer("trace.request_ns", "ns", "lower"),
    layer("trace.residual_pct", "%", "lower"),
    layer("trace.overhead_pct", "%", "lower"),
];
