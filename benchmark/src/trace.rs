//! Spans recorded from the benchmark's own files, around the calls into
//! each layer. Spans inside `mcache`/`tm` are a later change.
//!
//! A traced pass runs the same code as an untraced one: every transport
//! takes a [`Probe`], and [`NoProbe`] compiles to nothing. The [`Tracer`]
//! keeps spans in a preallocated `Vec` and writes them out once, when
//! the run ends.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Span names, in the order they are listed in a trace file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Name {
    /// Root: one request, from before it is built until it is verified.
    /// Its children cover it end to end, so its self time is zero.
    Request = 0,
    /// `proto::scan_frame` over the request bytes.
    Scan = 1,
    /// `binary::parse_frame` (binary only).
    Parse = 2,
    /// `binary::execute` / `proto::execute_ascii_run`.
    Execute = 3,
    /// `Response::encode` (binary only; the ASCII executor returns bytes).
    Encode = 4,
    /// Shadow pass: the `McCache` method the request comes down to.
    CacheOp = 5,
    /// `DurLog::append`, called directly.
    DurAppend = 6,
    /// `dur::recover` + `dur::compact`, called directly.
    DurRecover = 7,
    /// 1000 read-only 8-word transactions on a private runtime.
    TmRoTxnX1000 = 8,
    /// 1000 4-write transactions on a private runtime.
    TmRwTxnX1000 = 9,
    /// The benchmark's own work: drawing the operation, making its bytes.
    Build = 10,
    /// The benchmark's own work: checking the reply against the oracle.
    Verify = 11,
}

pub const NAMES: [&str; 12] = [
    "request",
    "proto.scan",
    "proto.parse",
    "proto.execute",
    "proto.encode",
    "cache.op",
    "dur.append",
    "dur.recover",
    "tm.ro_txn_x1000",
    "tm.rw_txn_x1000",
    "harness.build",
    "harness.verify",
];

/// What a transport tells about where it is. Timestamps are shared: the
/// end of one span is the start of the next.
pub trait Probe {
    /// A request starts; opens its root span.
    fn begin(&mut self, _request_id: u32) {}
    /// Time since the last call was spent in `name`.
    fn mark(&mut self, _name: Name) {}
    /// The request ended at the last mark; closes its root span.
    fn end(&mut self) {}
}

/// Tracing off.
pub struct NoProbe;

impl Probe for NoProbe {}

#[derive(Clone, Copy)]
struct Span {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    /// Index of the parent span, −1 for a root.
    parent: i32,
    request_id: u32,
}

/// Mean duration and mean self time (duration minus child spans) of
/// every span with one name, with the clock's own cost taken out.
#[derive(Clone, Copy, Debug, Default)]
pub struct Layer {
    pub count: u64,
    pub mean_ns: f64,
    pub self_ns: f64,
}

const CALIBRATION: usize = 20_000;

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    root: i32,
    request_id: u32,
    cursor: u64,
    /// Cost of one span boundary, measured at construction.
    pub clock_ns: f64,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Tracer {
        let mut t = Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans.max(CALIBRATION)),
            root: -1,
            request_id: 0,
            cursor: 0,
            clock_ns: 0.0,
        };
        // Back-to-back marks bracket no work: their mean length is what
        // one boundary (clock reading plus bookkeeping) costs.
        t.begin(0);
        for _ in 0..CALIBRATION - 1 {
            t.mark(Name::Scan);
        }
        t.end();
        let root = t.spans[0];
        t.clock_ns = (root.end_ns - root.start_ns) as f64 / (CALIBRATION - 1) as f64;
        t.spans.clear();
        t
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Forgets every span after the first `len`; keeps the allocation.
    pub fn truncate(&mut self, len: usize) {
        self.spans.truncate(len);
    }

    /// Per-name means. The interval between two clock readings holds one
    /// boundary's cost beyond the work it brackets, so a leaf span gives
    /// up `clock_ns` and a parent gives up one per child; the trace file
    /// keeps the raw timestamps.
    pub fn layers(&self) -> [Layer; NAMES.len()] {
        let raw = |s: &Span| s.end_ns.saturating_sub(s.start_ns) as f64;
        let mut children = vec![0u32; self.spans.len()];
        for s in &self.spans {
            if s.parent >= 0 {
                children[s.parent as usize] += 1;
            }
        }
        let dur: Vec<f64> = self
            .spans
            .iter()
            .zip(&children)
            .map(|(s, &n)| (raw(s) - self.clock_ns * n.max(1) as f64).max(0.0))
            .collect();
        let mut selfs = dur.clone();
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent >= 0 {
                selfs[s.parent as usize] -= dur[i];
            }
        }
        let mut out = [Layer::default(); NAMES.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let l = &mut out[s.name as usize];
            l.count += 1;
            l.mean_ns += dur[i];
            l.self_ns += selfs[i];
        }
        for l in &mut out {
            if l.count > 0 {
                l.mean_ns /= l.count as f64;
                l.self_ns /= l.count as f64;
            }
        }
        out
    }

    /// A span with no parent, for calls timed outside a request tree
    /// (the shadow pass and the direct `dur`/`tm` calls). Spans of one
    /// request still share its `request_id`.
    pub fn lone(&mut self, name: Name, request_id: u32, f: impl FnOnce()) {
        let start_ns = self.now();
        f();
        let end_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: -1,
            request_id,
        });
    }

    /// Writes every span as one row of `columns`.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        let names: Vec<String> = NAMES.iter().map(|n| format!("\"{n}\"")).collect();
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock_read_ns\":{:.2},\
             \"names\":[{}],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request_id\"],\
             \"spans\":[",
            self.clock_ns,
            names.join(",")
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\n[{},{},{},{},{}]",
                s.name as u8, s.start_ns, s.end_ns, s.parent, s.request_id
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

impl Probe for Tracer {
    fn begin(&mut self, request_id: u32) {
        let now = self.now();
        self.root = self.spans.len() as i32;
        self.request_id = request_id;
        self.cursor = now;
        self.spans.push(Span {
            name: Name::Request,
            start_ns: now,
            end_ns: now,
            parent: -1,
            request_id,
        });
    }

    fn mark(&mut self, name: Name) {
        let now = self.now();
        self.spans.push(Span {
            name,
            start_ns: self.cursor,
            end_ns: now,
            parent: self.root,
            request_id: self.request_id,
        });
        self.cursor = now;
    }

    fn end(&mut self) {
        if let Some(root) = self.spans.get_mut(self.root as usize) {
            root.end_ns = self.cursor;
        }
        self.root = -1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut t = Tracer::with_capacity(16);
        t.clock_ns = 0.0;
        let push = |t: &mut Tracer, name, start_ns, end_ns, parent| {
            t.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                request_id: 0,
            })
        };
        push(&mut t, Name::Request, 0, 1000, -1);
        push(&mut t, Name::Scan, 100, 150, 0);
        push(&mut t, Name::Execute, 150, 850, 0);
        push(&mut t, Name::Request, 2000, 2600, -1);
        push(&mut t, Name::Execute, 2100, 2500, 3);
        let layers = t.layers();
        let request = layers[Name::Request as usize];
        assert_eq!(
            (request.count, request.mean_ns, request.self_ns),
            (2, 800.0, 225.0)
        );
        let execute = layers[Name::Execute as usize];
        assert_eq!(
            (execute.count, execute.mean_ns, execute.self_ns),
            (2, 550.0, 550.0)
        );
        assert_eq!(layers[Name::Parse as usize].count, 0);
        // With a boundary cost, leaves give up one each and a root one per child.
        t.clock_ns = 10.0;
        let layers = t.layers();
        assert_eq!(layers[Name::Scan as usize].mean_ns, 40.0);
        assert_eq!(
            layers[Name::Request as usize].mean_ns,
            (980.0 + 590.0) / 2.0
        );
    }

    #[test]
    fn probe_calls_build_one_tree_per_request() {
        let mut t = Tracer::with_capacity(16);
        for id in 0..2 {
            t.begin(id);
            t.mark(Name::Scan);
            t.mark(Name::Execute);
            t.end();
        }
        t.lone(Name::CacheOp, 1, || {});
        assert_eq!(t.len(), 7);
        let s = &t.spans;
        assert_eq!(
            (s[1].parent, s[2].parent, s[4].parent, s[6].parent),
            (0, 0, 3, -1)
        );
        assert_eq!(s[1].end_ns, s[2].start_ns);
        assert!(s[0].start_ns == s[1].start_ns && s[2].end_ns == s[0].end_ns);
        assert_eq!((s[4].request_id, s[6].request_id), (1, 1));
        assert!(t.clock_ns > 0.0);
    }
}
