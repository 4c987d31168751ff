//! What each algorithm does to the runtime's counters and time base, step
//! by step, on one thread.
//!
//! One script — a read-only commit, a fast-lane read-only commit, a
//! promoted fast-lane transaction, a writer commit, a body that aborts
//! after writing and then commits on retry, a `try_atomic` cancel, and a
//! relaxed transaction that switches to irrevocable — runs on a fresh
//! runtime per `Algorithm` × serial-lock mode, with no contention
//! manager. After each step the non-zero `StatsSnapshot` delta and
//! `liveness()`'s `clock` / `seq` are compared against [`RECORDED`].
//! The rows pin the parts of each engine the stress oracles cannot see:
//! whether a rollback ticks the clock (eager does, to fail readers of its
//! undone writes; lazy and NOrec hold nothing while they run and do not),
//! whether a read-only commit stays off the clock, and which counters each
//! path bumps.
//!
//! On a mismatch the test prints the whole table as observed. Re-record
//! only for a change that means to move a shape.

use std::cell::Cell;

use tm::{
    Abort, Algorithm, ContentionManager, RelaxedPlan, SerialLockMode, TCell, TmRuntime, Transaction,
};

/// `(algorithm, serial lock, step, "counter=n ... | clock=c seq=s")`.
#[rustfmt::skip]
const RECORDED: &[(&str, &str, &str, &str)] = &[
    ("gcc-eager", "ReaderWriter", "ro", "begins=1 commits=1 read_only_commits=1 | clock=0 seq=0"),
    ("gcc-eager", "ReaderWriter", "ro_fast", "begins=1 commits=1 read_only_commits=1 ro_fast_commits=1 | clock=0 seq=0"),
    ("gcc-eager", "ReaderWriter", "promoted", "begins=1 commits=1 ro_promotions=1 clock_tick_elisions=1 | clock=1 seq=0"),
    ("gcc-eager", "ReaderWriter", "writer", "begins=1 commits=1 clock_tick_elisions=1 | clock=2 seq=0"),
    ("gcc-eager", "ReaderWriter", "abort_retry", "begins=2 commits=1 aborts=1 clock_tick_elisions=1 | clock=4 seq=0"),
    ("gcc-eager", "ReaderWriter", "cancel", "begins=1 cancels=1 | clock=5 seq=0"),
    ("gcc-eager", "ReaderWriter", "switch", "begins=1 commits=1 in_flight_switch=1 irrevocable_commits=1 | clock=6 seq=0"),
    ("gcc-eager", "None", "ro", "begins=1 commits=1 read_only_commits=1 | clock=0 seq=0"),
    ("gcc-eager", "None", "ro_fast", "begins=1 commits=1 read_only_commits=1 ro_fast_commits=1 | clock=0 seq=0"),
    ("gcc-eager", "None", "promoted", "begins=1 commits=1 ro_promotions=1 clock_tick_elisions=1 | clock=1 seq=0"),
    ("gcc-eager", "None", "writer", "begins=1 commits=1 clock_tick_elisions=1 | clock=2 seq=0"),
    ("gcc-eager", "None", "abort_retry", "begins=2 commits=1 aborts=1 clock_tick_elisions=1 | clock=4 seq=0"),
    ("gcc-eager", "None", "cancel", "begins=1 cancels=1 | clock=5 seq=0"),
    ("lazy", "ReaderWriter", "ro", "begins=1 commits=1 read_only_commits=1 | clock=0 seq=0"),
    ("lazy", "ReaderWriter", "ro_fast", "begins=1 commits=1 read_only_commits=1 ro_fast_commits=1 | clock=0 seq=0"),
    ("lazy", "ReaderWriter", "promoted", "begins=1 commits=1 ro_promotions=1 clock_tick_elisions=1 | clock=1 seq=0"),
    ("lazy", "ReaderWriter", "writer", "begins=1 commits=1 clock_tick_elisions=1 | clock=2 seq=0"),
    ("lazy", "ReaderWriter", "abort_retry", "begins=2 commits=1 aborts=1 clock_tick_elisions=1 | clock=3 seq=0"),
    ("lazy", "ReaderWriter", "cancel", "begins=1 cancels=1 | clock=3 seq=0"),
    ("lazy", "ReaderWriter", "switch", "begins=1 commits=1 in_flight_switch=1 irrevocable_commits=1 | clock=3 seq=0"),
    ("lazy", "None", "ro", "begins=1 commits=1 read_only_commits=1 | clock=0 seq=0"),
    ("lazy", "None", "ro_fast", "begins=1 commits=1 read_only_commits=1 ro_fast_commits=1 | clock=0 seq=0"),
    ("lazy", "None", "promoted", "begins=1 commits=1 ro_promotions=1 clock_tick_elisions=1 | clock=1 seq=0"),
    ("lazy", "None", "writer", "begins=1 commits=1 clock_tick_elisions=1 | clock=2 seq=0"),
    ("lazy", "None", "abort_retry", "begins=2 commits=1 aborts=1 clock_tick_elisions=1 | clock=3 seq=0"),
    ("lazy", "None", "cancel", "begins=1 cancels=1 | clock=3 seq=0"),
    ("norec", "ReaderWriter", "ro", "begins=1 commits=1 read_only_commits=1 | clock=0 seq=0"),
    ("norec", "ReaderWriter", "ro_fast", "begins=1 commits=1 read_only_commits=1 ro_fast_commits=1 | clock=0 seq=0"),
    ("norec", "ReaderWriter", "promoted", "begins=1 commits=1 ro_promotions=1 clock_tick_elisions=1 | clock=0 seq=2"),
    ("norec", "ReaderWriter", "writer", "begins=1 commits=1 clock_tick_elisions=1 | clock=0 seq=4"),
    ("norec", "ReaderWriter", "abort_retry", "begins=2 commits=1 aborts=1 clock_tick_elisions=1 | clock=0 seq=6"),
    ("norec", "ReaderWriter", "cancel", "begins=1 cancels=1 | clock=0 seq=6"),
    ("norec", "ReaderWriter", "switch", "begins=1 commits=1 in_flight_switch=1 irrevocable_commits=1 | clock=0 seq=8"),
    ("norec", "None", "ro", "begins=1 commits=1 read_only_commits=1 | clock=0 seq=0"),
    ("norec", "None", "ro_fast", "begins=1 commits=1 read_only_commits=1 ro_fast_commits=1 | clock=0 seq=0"),
    ("norec", "None", "promoted", "begins=1 commits=1 ro_promotions=1 clock_tick_elisions=1 | clock=0 seq=2"),
    ("norec", "None", "writer", "begins=1 commits=1 clock_tick_elisions=1 | clock=0 seq=4"),
    ("norec", "None", "abort_retry", "begins=2 commits=1 aborts=1 clock_tick_elisions=1 | clock=0 seq=6"),
    ("norec", "None", "cancel", "begins=1 cancels=1 | clock=0 seq=6"),
];

const STEPS: [&str; 7] = [
    "ro",
    "ro_fast",
    "promoted",
    "writer",
    "abort_retry",
    "cancel",
    "switch",
];

/// `name=value` for every non-zero field of `s`, in declaration order.
fn nonzero(s: &tm::StatsSnapshot) -> String {
    let dbg = format!("{s:?}");
    let body = dbg
        .trim_start_matches("StatsSnapshot {")
        .trim_end_matches('}');
    body.split(',')
        .filter_map(|f| {
            let (name, v) = f.split_once(':')?;
            let v = v.trim();
            (v != "0").then(|| format!("{}={v}", name.trim()))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Runs one script step on `rt`; returns whether the step ran (the
/// switch needs the serial lock).
fn step(rt: &TmRuntime, name: &str, a: &TCell<u64>, b: &TCell<u64>) -> bool {
    match name {
        "ro" => assert_eq!(rt.atomic(|tx| Ok(tx.read(a)? + tx.read(b)?)), 3),
        "ro_fast" => assert_eq!(rt.atomic_ro(|tx| Ok(tx.read(a)? + tx.read(b)?)), 3),
        "promoted" => rt.atomic_ro(|tx| {
            let v = tx.read(a)?;
            tx.write(b, v + 10)
        }),
        "writer" => rt.atomic(|tx| {
            tx.write(a, 5)?;
            tx.write(a, 6)?;
            let v = tx.read(a)?;
            tx.write(b, v + 1)
        }),
        "abort_retry" => {
            let attempt = Cell::new(0);
            rt.atomic(|tx| {
                attempt.set(attempt.get() + 1);
                tx.write(a, 100)?;
                tx.write(b, 200)?;
                if attempt.get() == 1 {
                    return Err(Abort::Conflict);
                }
                tx.write(a, 7)
            });
            assert_eq!(attempt.get(), 2);
        }
        "cancel" => {
            let r = rt.try_atomic(|tx| {
                tx.write(a, 300)?;
                tx.write(b, 400)?;
                tm::cancel::<()>()
            });
            assert!(r.is_err());
        }
        "switch" => {
            if rt.serial_lock_mode() == SerialLockMode::None {
                return false;
            }
            rt.relaxed(RelaxedPlan::new(), |tx| {
                tx.write(a, 8)?;
                tx.unsafe_op(|| ())?;
                tx.write(b, 9)
            });
        }
        _ => unreachable!(),
    }
    true
}

/// The values `a` and `b` hold after each step.
const AFTER: [(u64, u64); 7] = [(1, 2), (1, 2), (1, 11), (6, 7), (7, 200), (7, 200), (8, 9)];

#[test]
fn each_algorithm_keeps_its_recorded_shape() {
    let mut observed = Vec::new();
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        for lock in [SerialLockMode::ReaderWriter, SerialLockMode::None] {
            let rt = TmRuntime::builder()
                .algorithm(algo)
                .contention_manager(ContentionManager::None)
                .serial_lock(lock)
                .build();
            let (a, b) = (TCell::new(1u64), TCell::new(2u64));
            for (i, name) in STEPS.into_iter().enumerate() {
                let before = rt.stats();
                if !step(&rt, name, &a, &b) {
                    continue;
                }
                assert_eq!(
                    (a.load_direct(), b.load_direct()),
                    AFTER[i],
                    "{algo} {lock:?} {name}"
                );
                let l = rt.liveness();
                let shape = format!(
                    "{} | clock={} seq={}",
                    nonzero(&rt.stats().since(&before)),
                    l.clock,
                    l.seq
                );
                observed.push((algo.to_string(), format!("{lock:?}"), name, shape));
            }
        }
    }
    let matches = observed.len() == RECORDED.len()
        && observed
            .iter()
            .zip(RECORDED)
            .all(|(o, r)| (o.0.as_str(), o.1.as_str(), o.2, o.3.as_str()) == *r);
    if !matches {
        println!("observed:");
        for (algo, lock, name, shape) in &observed {
            println!("    ({algo:?}, {lock:?}, {name:?}, {shape:?}),");
        }
    }
    assert!(
        matches,
        "an engine's shape moved; the observed table is printed above"
    );
}
