//! The two kinds of run: the gated run (end-to-end metrics, tracing off)
//! and the traced run (per-layer metrics).

use std::io;
use std::time::Duration;

use mcache::{dur, McCache, McConfig, StoreMode, StoreOp, StoreStatus};
use tm::{ContentionManager, SerialLockMode, StatsSnapshot, TCell, TmRuntime, Transaction};

use crate::engine::{
    cache_config, copy_dir, run_pass, sequential, set_up, write_fixture, Context, Counters, Inproc,
    Plan, ScratchDir, Tables, Target, Timed,
};
use crate::gen::{Fail, Kind, Stream, Tally};
use crate::spec::{Mode, Workload};
use crate::trace::{Name, NoProbe, Tracer};
use crate::wire::{Proto, BURST};

/// One reported number. `spread` is `(max − min) / median` over the
/// slices (or set-ups) the median was taken from.
pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub spread: Option<f64>,
}

pub struct Outcome {
    pub workload: &'static str,
    pub tally: Tally,
    /// Server-side failures no single reply shows: `frame_errors`,
    /// `request_panics`, `log_write_errors`.
    pub server_errors: u64,
    pub values: Vec<Value>,
    /// Lines for the reader: sample counts, the stacked budget.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.tally.failures() == 0 && self.server_errors == 0 && self.tally.attempted > 0
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn spread(values: &[f64]) -> f64 {
    let m = median(values);
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    if m == 0.0 {
        0.0
    } else {
        (max - min) / m
    }
}

fn summarised(name: &'static str, values: &[f64]) -> Value {
    Value {
        name,
        value: median(values),
        spread: Some(spread(values)),
    }
}

/// Mean of the sorted samples whose rank lies within `half_width` of
/// quantile `q`, so a percentile is not quantised to the clock's tick.
fn band_mean(sorted: &[u32], q: f64, half_width: f64) -> f64 {
    let n = sorted.len() as f64;
    let lo = (((q - half_width) * n) as usize).min(sorted.len().saturating_sub(1));
    let hi = (((q + half_width) * n) as usize).clamp(lo + 1, sorted.len().max(lo + 1));
    let band = &sorted[lo..hi.min(sorted.len())];
    band.iter().map(|&x| x as f64).sum::<f64>() / band.len().max(1) as f64
}

/// Per-slice `(ops/s, p50 µs, p99 µs, samples)` over all callers.
fn slice_metrics(callers: &mut [Timed], slices: usize) -> io::Result<Vec<(f64, f64, f64, usize)>> {
    if callers.iter().any(|c| c.slices.len() < slices) {
        return Err(io::Error::other(
            "a caller's transport died before the last slice",
        ));
    }
    Ok((0..slices)
        .map(|k| {
            let rate: f64 = callers
                .iter()
                .map(|c| c.slices[k].ops as f64 / c.slices[k].secs)
                .sum();
            let mut lat: Vec<u32> = Vec::new();
            for c in callers.iter_mut() {
                lat.append(&mut c.slices[k].lat_ns);
            }
            lat.sort_unstable();
            (
                rate,
                band_mean(&lat, 0.50, 0.005) / 1e3,
                band_mean(&lat, 0.99, 0.0005) / 1e3,
                lat.len(),
            )
        })
        .collect())
}

fn fold_tallies(into: &mut Tally, callers: &[Timed]) {
    for c in callers {
        into.add(&c.tally);
    }
}

/// The fixture redo log of a `dur` workload (untimed), or nothing.
fn fixture(
    w: &Workload,
    tables: &Tables,
    ctx: &Context,
    tracer: Option<&mut Tracer>,
) -> io::Result<Option<ScratchDir>> {
    if !w.dur {
        return Ok(None);
    }
    let dir = ScratchDir::new(ctx, &format!("{}-fixture", w.name))?;
    write_fixture(tables, &dir.0, tracer)?;
    Ok(Some(dir))
}

/// Set-up (several times; the median is `setup_s`) → warm-up → slices.
/// Every end-to-end metric is computed per slice and reported as the
/// median across slices.
pub fn gated(w: &Workload, ctx: &Context, seconds: f64) -> io::Result<Outcome> {
    const SLICES: usize = 5;
    let plan = if ctx.quick {
        Plan {
            warmup: Duration::from_millis(100),
            slice: Duration::from_millis(200),
            slices: SLICES,
        }
    } else {
        Plan {
            warmup: Duration::from_secs(2),
            slice: Duration::from_secs_f64(seconds / SLICES as f64),
            slices: SLICES,
        }
    };
    let tables = Tables::new(w, ctx);
    let fixture = fixture(w, &tables, ctx, None)?;
    let mut tally = Tally::default();
    let mut server_errors = 0;

    let mut setup_secs = Vec::new();
    let mut target: Option<Target> = None;
    for _ in 0..if ctx.quick { 1 } else { 3 } {
        if let Some(old) = target.take() {
            server_errors += old.tear_down()?;
        }
        let (t, secs, preload) = set_up(w, &tables, ctx, fixture.as_ref().map(|d| d.0.as_path()))?;
        tally.add(&preload);
        setup_secs.push(secs);
        target = Some(t);
    }
    let mut target = target.expect("at least one set-up");
    // Failures so far, after each phase.
    let mut failed_after = vec![tally.failures()];
    let settled_ms = target.settle()?;
    // What set-up loaded (or recovered) is all there and all correct.
    target.sweep(w, &tables, &mut tally);
    failed_after.push(tally.failures());

    let before = target.counters()?;
    let mut callers = target.run(w, &tables, &plan);
    let rss_mb = target.rss_mb();
    let after = target.counters()?;
    fold_tallies(&mut tally, &callers);
    failed_after.push(tally.failures());
    target.sweep(w, &tables, &mut tally);
    failed_after.push(tally.failures());
    server_errors += after.since(&before).errors() + target.tear_down()?;

    let slices = slice_metrics(&mut callers, plan.slices)?;
    let column = |f: fn(&(f64, f64, f64, usize)) -> f64| slices.iter().map(f).collect::<Vec<f64>>();
    let samples: Vec<usize> = slices.iter().map(|s| s.3).collect();
    Ok(Outcome {
        workload: w.name,
        tally,
        server_errors,
        values: vec![
            summarised("ops_per_s", &column(|s| s.0)),
            summarised("lat_p50_us", &column(|s| s.1)),
            summarised("lat_p99_us", &column(|s| s.2)),
            summarised("setup_s", &setup_secs),
            Value { name: "rss_mb", value: rss_mb, spread: None },
        ],
        notes: vec![
            format!(
                "{} slices of {:.2} s after {:.2} s warm-up; latency samples per slice: {samples:?}",
                plan.slices,
                plan.slice.as_secs_f64(),
                plan.warmup.as_secs_f64()
            ),
            format!("hash table last grew {settled_ms} ms after set-up"),
            format!(
                "failed by phase: set-up {}, sweep after set-up {}, warm-up and slices {}, final sweep {}",
                failed_after[0],
                failed_after[1] - failed_after[0],
                failed_after[2] - failed_after[1],
                failed_after[3] - failed_after[2]
            ),
        ],
    })
}

/// The shadow pass: the same stream against an identically configured
/// second cache, through the `McCache` methods a request comes down to.
fn shadow_pass(
    w: &Workload,
    requests: u32,
    tables: &Tables,
    stream: &mut Stream,
    cache: &McCache,
    tracer: &mut Tracer,
    tally: &mut Tally,
) {
    let mut builder = tables.builder.share();
    let mut values: Vec<Vec<u8>> = vec![Vec::new(); BURST];
    for id in 0..requests {
        let (_, ops) = builder.next(stream);
        tally.attempted += ops.len() as u64;
        for (op, value) in ops.iter().zip(values.iter_mut()) {
            if let Kind::Set(version) = op.kind {
                value.clear();
                tables.values.append(op.key as u64, version, value);
            }
        }
        let check_get = |key: u32, got: Option<&mcache::GetValue>, tally: &mut Tally| match got {
            Some(v) => {
                if let Err(why) = tables.values.verify(key as u64, &v.data) {
                    tally.fail(why);
                }
            }
            None if w.misses_legal => {}
            None => tally.fail(Fail::Miss),
        };
        match (w.proto, ops[0].kind) {
            (Proto::Binary, Kind::Get) => {
                let mut got = None;
                tracer.lone(Name::CacheOp, id, || {
                    got = cache.get(0, tables.keys.key(ops[0].key))
                });
                check_get(ops[0].key, got.as_ref(), tally);
            }
            (Proto::Binary, Kind::Set(_)) => {
                let mut status = StoreStatus::NotStored;
                tracer.lone(Name::CacheOp, id, || {
                    status = cache.set(0, tables.keys.key(ops[0].key), &values[0], 0, 0)
                });
                if status != StoreStatus::Stored {
                    tally.fail(Fail::NotStored);
                }
            }
            (Proto::Ascii16, Kind::Get) => {
                let keys: Vec<&[u8]> = ops.iter().map(|o| tables.keys.key(o.key)).collect();
                let mut got = Vec::new();
                tracer.lone(Name::CacheOp, id, || got = cache.get_multi(0, &keys));
                for (op, v) in ops.iter().zip(&got) {
                    check_get(op.key, v.as_ref(), tally);
                }
            }
            (Proto::Ascii16, Kind::Set(_)) => {
                let batch: Vec<StoreOp<'_>> = ops
                    .iter()
                    .zip(&values)
                    .map(|(o, value)| StoreOp {
                        mode: StoreMode::Set,
                        key: tables.keys.key(o.key),
                        value,
                        flags: 0,
                        exptime: 0,
                    })
                    .collect();
                let mut statuses = Vec::new();
                tracer.lone(Name::CacheOp, id, || {
                    statuses = cache.store_batch(0, &batch)
                });
                for s in statuses {
                    if s != StoreStatus::Stored {
                        tally.fail(Fail::NotStored);
                    }
                }
            }
        }
    }
}

/// Pass numbers keep every pass's SET versions apart (see `gen::Stream`);
/// the timed callers are pass 0.
const REPLAY_PASS: u64 = 1;

/// The bare-transaction floor: a private runtime configured like the
/// cache's, an 8-word read-only transaction and a 4-write transaction,
/// timed 1000 at a time.
fn tm_floor(tracer: &mut Tracer, batches: u32) {
    let cfg = McConfig::default();
    let rt = TmRuntime::builder()
        .algorithm(cfg.algorithm)
        .contention_manager(ContentionManager::None)
        .serial_lock(SerialLockMode::None)
        .clock_shards(cfg.clock_shards)
        .build();
    let cells: Vec<TCell<u64>> = (0..8).map(TCell::new).collect();
    for batch in 0..batches {
        tracer.lone(Name::TmRoTxnX1000, batch, || {
            for _ in 0..1000 {
                std::hint::black_box(rt.atomic_ro(|tx| {
                    let mut sum = 0u64;
                    for c in &cells {
                        sum = sum.wrapping_add(tx.read(c)?);
                    }
                    Ok(sum)
                }));
            }
        });
        tracer.lone(Name::TmRwTxnX1000, batch, || {
            for _ in 0..1000 {
                rt.atomic(|tx| {
                    for c in &cells[..4] {
                        let v = tx.read(c)?;
                        tx.write(c, v + 1)?;
                    }
                    Ok(())
                });
            }
        });
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The traced run, separate from the gated one:
///
/// 1. a short end-to-end phase (one set-up, one slice) for the counters
///    and the roundtrip median the network share is taken from;
/// 2. single-threaded in-process replays of the same seeded stream,
///    alternately untraced and traced, plus the shadow pass;
/// 3. the direct calls: bare transactions, `DurLog::append` (the fixture
///    is written through it), `dur::recover` + `dur::compact`.
pub fn traced(w: &Workload, ctx: &Context, seconds: f64) -> io::Result<Outcome> {
    let ops_per_request = if w.proto == Proto::Binary {
        1
    } else {
        BURST as u32
    };
    let requests = if ctx.quick { 20_000 } else { 200_000 } / ops_per_request;
    let tables = Tables::new(w, ctx);
    let mut tracer = Tracer::with_capacity(requests as usize * 8 + tables.keys.len() * 3 + 1024);
    let mut tally = Tally::default();
    let mut server_errors = 0;
    let fixture = fixture(w, &tables, ctx, Some(&mut tracer))?;

    // 1. End to end, tracing off.
    let plan = if ctx.quick {
        Plan {
            warmup: Duration::from_millis(100),
            slice: Duration::from_millis(200),
            slices: 1,
        }
    } else {
        Plan {
            warmup: Duration::from_secs(1),
            slice: Duration::from_secs_f64(seconds / 5.0),
            slices: 1,
        }
    };
    let (mut target, _, preload) =
        set_up(w, &tables, ctx, fixture.as_ref().map(|d| d.0.as_path()))?;
    tally.add(&preload);
    target.settle()?;
    let before = (target.counters()?, target.tm_stats());
    let mut callers = target.run(w, &tables, &plan);
    let after = (target.counters()?, target.tm_stats());
    fold_tallies(&mut tally, &callers);
    let user_bytes: u64 = callers.iter().map(|c| c.user_bytes).sum();
    let (_, lat_p50_us, lat_p99_us, _) = slice_metrics(&mut callers, 1)?[0];
    let e2e = after.0.since(&before.0);
    server_errors += e2e.errors() + target.tear_down()?;

    // 2. Replays: cache A takes the protocol path, cache B the shadow.
    let logs = [
        ScratchDir::new(ctx, "replay-a")?,
        ScratchDir::new(ctx, "replay-b")?,
    ];
    let replay_cache = |log: &ScratchDir| {
        let handle = McCache::start(cache_config(w, 1, w.dur.then_some(log.0.as_path())));
        let mut preload = Tally::default();
        sequential(
            &tables,
            &mut Inproc::new(&handle, 0, w.proto),
            true,
            &mut preload,
        );
        (handle, preload)
    };
    let (a, preload_a) = replay_cache(&logs[0]);
    let (b, preload_b) = replay_cache(&logs[1]);
    tally.add(&preload_a);
    tally.add(&preload_b);
    let mut transport = Inproc::new(&a, 0, w.proto);
    let replay_before = (Counters::of_cache(&a), a.tm_stats());
    let (mut untraced_secs, mut traced_secs) = (Vec::new(), Vec::new());
    let keep = tracer.len();
    let mut boundaries = 0.0;
    for round in 0..3 {
        let mut stream = tables.stream(0, 1, REPLAY_PASS + 3 * round);
        untraced_secs.push(run_pass(
            requests,
            &tables,
            &mut stream,
            &mut transport,
            &mut NoProbe,
            &mut tally,
        ));
        // Only the last round's spans are kept for the trace file.
        tracer.truncate(keep);
        let mut stream = tables.stream(0, 1, REPLAY_PASS + 3 * round + 1);
        traced_secs.push(run_pass(
            requests,
            &tables,
            &mut stream,
            &mut transport,
            &mut tracer,
            &mut tally,
        ));
        // Every span of a traced pass but the roots closes on a boundary.
        boundaries = (tracer.len() - keep) as f64 - requests as f64;
        let mut stream = tables.stream(0, 1, REPLAY_PASS + 3 * round + 2);
        shadow_pass(
            w,
            requests,
            &tables,
            &mut stream,
            &b,
            &mut tracer,
            &mut tally,
        );
    }
    let replay = (
        Counters::of_cache(&a).since(&replay_before.0),
        a.tm_stats().since(&replay_before.1),
    );
    // What tracing costs is measured, not assumed: the traced passes ran
    // the untraced passes' stream, so the extra time per request, shared
    // out over its span boundaries, is what one boundary cost in place
    // (more than back-to-back readings cost: each one also drains the
    // pipeline of the layer before it).
    let in_place_ns = (median(&traced_secs) - median(&untraced_secs)) * 1e9 / boundaries;
    if in_place_ns > tracer.clock_ns {
        tracer.clock_ns = in_place_ns;
    }
    server_errors += replay.0.errors() + Counters::of_cache(&b).errors();
    drop((a, b, transport));

    // 3. Direct calls.
    tm_floor(&mut tracer, if ctx.quick { 10 } else { 50 });
    let mut recovered_items = 0;
    if let Some(fixture) = &fixture {
        let dir = ScratchDir::new(ctx, "recover")?;
        copy_dir(&fixture.0, &dir.0)?;
        let mut result = Ok(0);
        tracer.lone(Name::DurRecover, 0, || {
            result = dur::recover(&dir.0).and_then(|rec| {
                dur::compact(&dir.0, &rec, u64::MAX)?;
                Ok(rec.entries.len())
            });
        });
        recovered_items = result?;
    }

    // Wire workloads take their STM counts from the replay: one thread
    // there is the server's one worker, running the same transactions.
    let (tm, tm_ops, tm_sets): (StatsSnapshot, u64, u64) = match (w.mode, before.1, after.1) {
        (Mode::Inproc { .. }, Some(b), Some(a)) => (a.since(&b), e2e.gets + e2e.sets, e2e.sets),
        _ => (replay.1, replay.0.gets + replay.0.sets, replay.0.sets),
    };
    let layers = tracer.layers();
    let per_op = |name: Name| layers[name as usize].mean_ns / ops_per_request as f64;
    let ops_per_pass = (requests * ops_per_request) as f64;
    let untraced_ns = median(&untraced_secs) / ops_per_pass * 1e9;
    let ro_txn_ns = layers[Name::TmRoTxnX1000 as usize].mean_ns / 1000.0;
    let rw_txn_ns = layers[Name::TmRwTxnX1000 as usize].mean_ns / 1000.0;
    let txns_per_op = ratio(tm.commits, tm_ops);
    let ro_share = ratio(tm.ro_fast_commits, tm.commits);
    let cache_op_ns = per_op(Name::CacheOp);
    let floor_ns = txns_per_op * (ro_share * ro_txn_ns + (1.0 - ro_share) * rw_txn_ns);
    let proto_ns =
        per_op(Name::Scan) + per_op(Name::Parse) + per_op(Name::Execute) + per_op(Name::Encode);
    let harness_ns = per_op(Name::Build) + per_op(Name::Verify);
    let wire = w.mode == Mode::Wire;
    let recover_secs = layers[Name::DurRecover as usize].mean_ns / 1e9;
    let e2e_ops = e2e.gets + e2e.sets;

    let trace_path = ctx.out_dir.join(format!("trace_{}.json", w.name));
    tracer.write_json(&trace_path, w.name, ctx.seed)?;

    let budget = [
        ("harness.self", harness_ns),
        ("proto.scan", per_op(Name::Scan)),
        ("proto.parse", per_op(Name::Parse)),
        ("proto.dispatch_self", per_op(Name::Execute) - cache_op_ns),
        ("cache.op", cache_op_ns),
        ("proto.encode", per_op(Name::Encode)),
    ];
    let stacked: f64 = budget.iter().map(|b| b.1).sum();
    let mut notes = vec![format!(
        "budget per op, single thread in-process ({} ops traced, boundary cost {:.1} ns taken out):",
        ops_per_pass, tracer.clock_ns
    )];
    for (name, ns) in budget {
        notes.push(format!(
            "  {name:<22}{ns:>10.1} ns {:>6.1}%",
            100.0 * ns / untraced_ns
        ));
    }
    notes.push(format!(
        "  {:<22}{stacked:>10.1} ns {:>6.1}%  of the untraced median {untraced_ns:.1} ns/op",
        "sum",
        100.0 * stacked / untraced_ns
    ));
    if wire {
        notes.push(format!(
            "  roundtrip p50 {lat_p50_us:.2} us per request, of which proto+cache {:.2} us",
            proto_ns * ops_per_request as f64 / 1e3
        ));
    }
    notes.push(format!(
        "{} spans written to {}",
        tracer.len(),
        trace_path.display()
    ));

    let v = |name: &'static str, value: f64| Value {
        name,
        value,
        spread: None,
    };
    Ok(Outcome {
        workload: w.name,
        tally,
        server_errors,
        values: vec![
            v("lat_p99_us", lat_p99_us),
            v("tm.txns_per_op", txns_per_op),
            v("tm.ro_fast_share", ro_share),
            v(
                "tm.serial_per_op",
                ratio(
                    tm.start_serial + tm.in_flight_switch + tm.abort_serial,
                    tm_ops,
                ),
            ),
            v("tm.aborts_per_commit", ratio(tm.aborts, tm.commits)),
            v(
                "tm.clock_cas_retries_per_commit",
                ratio(tm.clock_cas_retries, tm.commits),
            ),
            v(
                "tm.silent_elisions_per_set",
                ratio(tm.silent_store_elisions, tm_sets),
            ),
            v("tm.ro_txn_ns", ro_txn_ns),
            v("tm.rw_txn_ns", rw_txn_ns),
            v(
                "tm.floor_share",
                if cache_op_ns > 0.0 {
                    floor_ns / cache_op_ns
                } else {
                    0.0
                },
            ),
            v("cache.op_ns", cache_op_ns),
            v(
                "cache.hit_ratio",
                1.0 - ratio(e2e.gets - e2e.hits, e2e.gets),
            ),
            v("lru.evictions_per_set", ratio(e2e.evictions, e2e.sets)),
            v("assoc.expansions", e2e.expansions as f64),
            v("hot.hit_share", ratio(e2e.hot_hits, e2e.gets)),
            v("proto.scan_ns", per_op(Name::Scan)),
            v("proto.parse_ns", per_op(Name::Parse)),
            v("proto.execute_ns", per_op(Name::Execute)),
            v(
                "proto.dispatch_self_ns",
                per_op(Name::Execute) - cache_op_ns,
            ),
            v("proto.encode_ns", per_op(Name::Encode)),
            v("harness.self_ns", harness_ns),
            v(
                "net.rt_self_us",
                if wire {
                    lat_p50_us - proto_ns * ops_per_request as f64 / 1e3
                } else {
                    0.0
                },
            ),
            v("net.bytes_read_per_op", ratio(e2e.net_bytes_read, e2e_ops)),
            v(
                "net.bytes_written_per_op",
                ratio(e2e.net_bytes_written, e2e_ops),
            ),
            v("dur.append_ns", layers[Name::DurAppend as usize].mean_ns),
            v("dur.bytes_per_user_byte", ratio(e2e.dur_bytes, user_bytes)),
            v("dur.appends_per_set", ratio(e2e.dur_appends, e2e.sets)),
            v("dur.fsyncs", e2e.dur_fsyncs as f64),
            v(
                "dur.recover_items_per_s",
                if recover_secs > 0.0 {
                    recovered_items as f64 / recover_secs
                } else {
                    0.0
                },
            ),
            v("trace.request_ns", per_op(Name::Request)),
            v(
                "trace.residual_pct",
                100.0 * (untraced_ns - stacked) / untraced_ns,
            ),
            v(
                "trace.overhead_pct",
                100.0 * (median(&traced_secs) / median(&untraced_secs) - 1.0),
            ),
        ],
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_and_bands() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(spread(&[9.0, 10.0, 12.0]), 0.3);
        let sorted: Vec<u32> = (0..1000).collect();
        assert_eq!(band_mean(&sorted, 0.5, 0.005), 499.5);
        assert_eq!(band_mean(&sorted, 0.99, 0.0005), 989.0);
        assert_eq!(band_mean(&[7], 0.99, 0.0005), 7.0);
        assert_eq!(band_mean(&[], 0.5, 0.005), 0.0);
    }
}
