//! Deterministic, seed-replayable concurrency stress schedules for the
//! `tm` runtime.
//!
//! The shape follows the systematic-testing literature (and the paper's
//! own evaluation): N threads run *random transactional programs* whose
//! content is a pure function of `(seed, thread, txn index)`, and the
//! final heap is checked against a **sequential model**. The oracle works
//! because STM promises serializability: every writing transaction
//! increments a shared ticket cell *inside* the transaction, so the
//! committed ticket values name the equivalent serial order exactly.
//! Replaying each transaction's operations in ticket order through a plain
//! `Vec<u64>` interpreter must land on the same final state, and a
//! read-only transaction that observed ticket `t` must have seen exactly
//! the model after the first `t` writers — any divergence is a runtime bug
//! (lost update, dirty read, torn snapshot, broken undo/redo log, ...).
//!
//! There is **one runner** ([`run`]), **one oracle** and **one matrix**
//! ([`run_matrix`], every `Algorithm` × `SerialLockMode` ×
//! `ContentionManager` combination the runtime supports). What varies is
//! data: a [`Schedule`] row in [`SCHEDULES`] names the program function,
//! which transaction slots write, promote or only read, and the one
//! post-condition the schedule adds to the oracle; an optional
//! [`FaultPlan`] arms `tm::fault` on every worker (the chaos tier). A new
//! stress shape is one program function and one table row.
//!
//! Interleavings are shaped, not fixed: threads advance in *barrier-stepped
//! rounds* (every thread starts round `r` together, with a seed-derived
//! stagger spin), which concentrates overlap far beyond free-running
//! threads. The schedule's *programs* are fully deterministic, so a
//! failing seed prints one line that reproduces the exact program set:
//!
//! ```text
//! [testkit] stress divergence (seed 0x000000000000002a, eager/rwlock/no-cm, mixed schedule) ...
//! [testkit] replay: cargo run --release -p testkit --bin stress -- --seed 0x2a ...
//! ```

use std::cell::Cell;
use std::fmt;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Barrier;

pub use tm::fault::FaultPlan;
use tm::{
    Abort, Algorithm, AtomicTx, ContentionManager, RelaxedPlan, SerialLockMode, TCell, TmRuntime,
    Transaction,
};

use crate::rng::{mix_seed, Rng, SmallRng, SplitMix64};

/// Size and combination parameters for one schedule.
#[derive(Clone, Debug)]
pub struct StressConfig {
    /// Worker threads.
    pub threads: usize,
    /// Shared transactional cells.
    pub cells: usize,
    /// Transactions per thread.
    pub txns_per_thread: usize,
    /// Upper bound on operations per transaction (the count is drawn per
    /// transaction from the seed).
    pub max_ops_per_txn: usize,
    /// STM algorithm under test.
    pub algorithm: Algorithm,
    /// Serial-lock mode under test.
    pub serial_lock: SerialLockMode,
    /// Contention manager under test.
    pub contention: ContentionManager,
}

impl StressConfig {
    /// A small schedule suitable for unit tests and smoke runs: enough
    /// contention to abort constantly, small enough to finish in
    /// milliseconds.
    pub fn smoke() -> Self {
        StressConfig {
            threads: 4,
            cells: 8,
            txns_per_thread: 60,
            max_ops_per_txn: 6,
            algorithm: Algorithm::Eager,
            serial_lock: SerialLockMode::ReaderWriter,
            contention: ContentionManager::GCC_DEFAULT,
        }
    }

    /// Short display label for the runtime combination.
    pub fn combo(&self) -> String {
        format!(
            "{}/{}/{}",
            self.algorithm,
            match self.serial_lock {
                SerialLockMode::ReaderWriter => "rwlock",
                SerialLockMode::None => "nolock",
            },
            self.contention
        )
    }
}

/// A passed run's measurements — and, summed with
/// [`StressReport::absorb`], a sweep's totals.
#[derive(Clone, Debug, Default)]
pub struct StressReport {
    /// The combination that ran.
    pub combo: String,
    /// Committed transactions (= threads × txns_per_thread; readers and
    /// writers both count).
    pub commits: u64,
    /// Aborted attempts observed by the runtime during the schedule.
    pub aborts: u64,
    /// Commit-time clock (or NOrec seqlock) CASes lost to a concurrent
    /// committer during the schedule.
    pub clock_cas_retries: u64,
    /// Committed transactions that held the read-only fast lane to the end.
    pub ro_fast_commits: u64,
    /// Attempts that entered read-only and promoted at their first write.
    pub ro_promotions: u64,
    /// Snapshot extensions the runtime performed during the schedule.
    pub snapshot_extensions: u64,
    /// Reader snapshots validated against the ticket-ordered model prefix.
    pub snapshots_checked: u64,
    /// Fault actions (aborts + delays + panics) injected across all worker
    /// threads; zero without a [`FaultPlan`].
    pub injected: u64,
    /// Attempts torn down by a panic unwinding through the runtime.
    pub panic_aborts: u64,
}

impl StressReport {
    /// Adds `other`'s counters into `self` (the label is left alone).
    pub fn absorb(&mut self, other: &StressReport) {
        self.commits += other.commits;
        self.aborts += other.aborts;
        self.clock_cas_retries += other.clock_cas_retries;
        self.ro_fast_commits += other.ro_fast_commits;
        self.ro_promotions += other.ro_promotions;
        self.snapshot_extensions += other.snapshot_extensions;
        self.snapshots_checked += other.snapshots_checked;
        self.injected += other.injected;
        self.panic_aborts += other.panic_aborts;
    }
}

/// A run whose concurrent outcome disagreed with the sequential model.
/// [`fmt::Display`] prints the seed and a replay command.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// The seed that reproduces the failing schedule.
    pub seed: u64,
    /// The runtime combination that diverged.
    pub combo: String,
    /// The [`Schedule::name`] that diverged.
    pub schedule: &'static str,
    /// Whether the run was armed with a [`FaultPlan`].
    pub chaos: bool,
    /// What disagreed.
    pub detail: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (tier, feature, flag) = match self.chaos {
            true => (", chaos", "--features chaos ", "--chaos "),
            false => ("", "", ""),
        };
        write!(
            f,
            "[testkit] stress divergence (seed {:#018x}, {}, {} schedule{tier}): {}\n\
             [testkit] replay: cargo run --release -p testkit {feature}--bin stress -- {flag}--seed {:#x}",
            self.seed, self.combo, self.schedule, self.detail, self.seed
        )
    }
}

impl std::error::Error for Divergence {}

/// One operation of a random transactional program. Every variant is a
/// pure function of its operands, so the sequential interpreter in
/// [`run`] replays it exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StressOp {
    /// Store a constant.
    Write(usize, u64),
    /// Add a constant (wrapping).
    Add(usize, u64),
    /// Copy cell `a` into cell `b`.
    Copy(usize, usize),
    /// Combine cells `a` and `b` into `b` (xor-rotate-add, so ordering
    /// mistakes cannot cancel out the way plain addition can).
    Mix(usize, usize),
}

/// How a schedule draws its per-transaction programs. Plain `fn` pointer so
/// worker threads can share it without capturing.
pub type ProgramFn = fn(u64, usize, usize, &StressConfig) -> Vec<StressOp>;

/// The program for transaction `txn` of thread `thread` — a pure function
/// of the schedule seed, replayable anywhere.
pub fn txn_program(seed: u64, thread: usize, txn: usize, cfg: &StressConfig) -> Vec<StressOp> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, thread as u64 + 1),
        txn as u64 + 1,
    ));
    let n = rng.gen_range(1..cfg.max_ops_per_txn.max(2));
    (0..n)
        .map(|_| match rng.gen_range(0u32..4) {
            0 => StressOp::Write(rng.gen_range(0..cfg.cells), rng.next_u64()),
            1 => StressOp::Add(rng.gen_range(0..cfg.cells), rng.gen_range(0u64..1000)),
            2 => StressOp::Copy(rng.gen_range(0..cfg.cells), rng.gen_range(0..cfg.cells)),
            _ => StressOp::Mix(rng.gen_range(0..cfg.cells), rng.gen_range(0..cfg.cells)),
        })
        .collect()
}

/// The **write-heavy** program for transaction `txn` of thread `thread`:
/// three quarters of the operations mutate, and two arms store a value
/// equal to the word's current one on purpose — a self-copy writes back
/// the value it just read, and a duplicated constant write repeats itself
/// — so undo-log and redo-log deduplication of rewritten words run
/// constantly while the ticket oracle checks serializability underneath.
pub fn wh_txn_program(seed: u64, thread: usize, txn: usize, cfg: &StressConfig) -> Vec<StressOp> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, 0x3717 + thread as u64),
        txn as u64 + 1,
    ));
    let n = rng.gen_range(2..cfg.max_ops_per_txn.max(3));
    let mut ops = Vec::with_capacity(n + 1);
    while ops.len() < n {
        match rng.gen_range(0u32..8) {
            0 | 1 | 2 => ops.push(StressOp::Write(rng.gen_range(0..cfg.cells), rng.next_u64())),
            3 | 4 => ops.push(StressOp::Add(rng.gen_range(0..cfg.cells), rng.gen_range(0u64..1000))),
            5 => {
                // Value-equal by construction: write the value just read.
                let i = rng.gen_range(0..cfg.cells);
                ops.push(StressOp::Copy(i, i));
            }
            6 => {
                // The second write of the pair stores what's already there.
                let i = rng.gen_range(0..cfg.cells);
                let v = rng.next_u64();
                ops.push(StressOp::Write(i, v));
                ops.push(StressOp::Write(i, v));
            }
            _ => ops.push(StressOp::Mix(rng.gen_range(0..cfg.cells), rng.gen_range(0..cfg.cells))),
        }
    }
    ops
}

/// The **contended-commit** program for transaction `txn` of thread
/// `thread`: every mutation lands in the thread's own block of cells
/// (`cells / threads` wide), so worker *write sets are disjoint by
/// construction* and the only shared write is the ticket cell — the
/// schedule contends on the commit machinery itself (the clock word, orec
/// stripes, the NOrec seqlock) rather than on data. Reads still cross
/// blocks: `Copy` and `Mix` pull a neighbour's cell into the own block,
/// so validation keeps real cross-thread edges to check.
///
/// Write-disjointness needs `cfg.cells >= cfg.threads`; with fewer cells
/// the blocks wrap and overlap (the schedule stays correct, just not
/// disjoint).
pub fn contended_txn_program(
    seed: u64,
    thread: usize,
    txn: usize,
    cfg: &StressConfig,
) -> Vec<StressOp> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, 0xC0D7 + thread as u64),
        txn as u64 + 1,
    ));
    let block = (cfg.cells / cfg.threads.max(1)).max(1);
    let lo = (thread * block) % cfg.cells;
    let width = block.min(cfg.cells - lo);
    let n = rng.gen_range(2..cfg.max_ops_per_txn.max(3));
    (0..n)
        .map(|_| {
            let own = lo + rng.gen_range(0..width);
            match rng.gen_range(0u32..8) {
                0 | 1 | 2 => StressOp::Write(own, rng.next_u64()),
                3 | 4 => StressOp::Add(own, rng.gen_range(0u64..1000)),
                5 | 6 => StressOp::Copy(rng.gen_range(0..cfg.cells), own),
                _ => StressOp::Mix(rng.gen_range(0..cfg.cells), own),
            }
        })
        .collect()
}

fn mix_values(a: u64, b: u64) -> u64 {
    (a ^ b).rotate_left(7).wrapping_add(0x9E37_79B9_7F4A_7C15)
}

fn apply_model(model: &mut [u64], op: StressOp) {
    match op {
        StressOp::Write(i, v) => model[i] = v,
        StressOp::Add(i, d) => model[i] = model[i].wrapping_add(d),
        StressOp::Copy(a, b) => model[b] = model[a],
        StressOp::Mix(a, b) => model[b] = mix_values(model[a], model[b]),
    }
}

/// Applies one op transactionally — the concurrent counterpart of
/// [`apply_model`], shared by every schedule flavor.
fn apply_tx<'env, Tx: Transaction<'env>>(
    tx: &mut Tx,
    cells: &'env [TCell<u64>],
    op: StressOp,
) -> Result<(), Abort> {
    match op {
        StressOp::Write(i, v) => tx.write(&cells[i], v),
        StressOp::Add(i, d) => tx.modify(&cells[i], |x| x.wrapping_add(d)).map(|_| ()),
        StressOp::Copy(a, b) => {
            let v = tx.read(&cells[a])?;
            tx.write(&cells[b], v)
        }
        StressOp::Mix(a, b) => {
            let va = tx.read(&cells[a])?;
            let vb = tx.read(&cells[b])?;
            tx.write(&cells[b], mix_values(va, vb))
        }
    }
}

fn initial_values(seed: u64, cells: usize) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(mix_seed(seed, 0xCE11));
    (0..cells).map(|_| rng.next_u64()).collect()
}

/// Whether transaction `txn` of thread `thread` in the read-mostly schedule
/// writes. A seed-derived quarter do — they enter through `atomic_ro` like
/// everyone else and promote mid-flight at their first write; the other
/// three quarters stay pure fast-lane readers end to end.
pub fn ro_txn_promotes(seed: u64, thread: usize, txn: usize) -> bool {
    mix_seed(mix_seed(seed, 0x6904 + thread as u64), txn as u64) & 3 == 0
}

/// The cells a promoter reads *before* its promoting write. These populate
/// the read log while the attempt is still on the fast lane, so the
/// promoted commit must carry them over and revalidate them like any other
/// read.
pub fn ro_pre_reads(seed: u64, thread: usize, txn: usize, cfg: &StressConfig) -> Vec<usize> {
    let mut rng = SmallRng::seed_from_u64(mix_seed(
        mix_seed(seed, 0x9E4D + thread as u64),
        txn as u64 + 1,
    ));
    let n = rng.gen_range(1usize..4);
    (0..n).map(|_| rng.gen_range(0..cfg.cells)).collect()
}

/// What a passing run of a schedule must have exercised.
#[derive(Clone, Copy, Debug)]
pub struct Demand {
    /// Whether the run's report shows it.
    pub met: fn(&StressReport) -> bool,
    /// The divergence detail when it does not.
    pub unmet: &'static str,
}

/// One stress shape, as data. Every row of [`SCHEDULES`] goes through the
/// same runner, the same oracle and the same 21-combo matrix, plain and
/// under fault injection; adding a shape is one program function and one
/// row.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    /// Display name, carried by reports and divergences.
    pub name: &'static str,
    /// Draws each writing slot's operations.
    pub program: ProgramFn,
    /// `None`: every slot is a writer entered through `atomic`.
    /// `Some(f)`: every slot begins on the read-only fast lane
    /// (`atomic_ro`); where `f(seed, thread, txn)` holds the slot reads
    /// [`ro_pre_reads`], then promotes by taking a ticket and running its
    /// program; elsewhere it is a snapshot reader of the ticket cell plus
    /// the whole heap.
    pub promotes: Option<fn(u64, usize, usize) -> bool>,
    /// Every slot is a [`Slot::Switcher`] (overrides `promotes`).
    pub switches: bool,
    /// The one post-condition the schedule adds to the oracle.
    pub demand: Option<Demand>,
    /// A deliberately injected bug: after the sequential replay the
    /// model's cell 0 is bumped by one — exactly what the concurrent state
    /// would look like had the runtime lost one update to that cell.
    /// Exists to prove, in tests and from the stress binary's
    /// `--inject-bug` flag, that a divergence is detected and reproduces
    /// deterministically from its printed seed.
    pub sabotage: bool,
}

/// Every schedule the stress tiers run, in sweep order.
///
/// * **mixed** — the plain ticket schedule over [`txn_program`].
/// * **read-mostly** — promotion coverage for the read-only fast lane: a
///   seed-derived quarter of the slots promote mid-flight (proving reads
///   accumulated *before* the promotion are still validated by the full
///   commit), the rest are position-checked snapshot readers. Fails unless
///   the run both committed on the fast lane and promoted.
/// * **write-heavy** — [`wh_txn_program`]'s value-equal rewrites: every
///   one is a store, so the undo and redo logs see words written twice in
///   one transaction, and under chaos a fault between the two writes must
///   roll back to the first one's pre-image.
/// * **contended-commit** — [`contended_txn_program`]'s disjoint write
///   blocks: the threads fight over the ticket cell and the commit
///   machinery (the clock word, orec stripes, the NOrec seqlock) instead
///   of data.
/// * **switch** — every slot is a relaxed transaction that switches to
///   serial-irrevocable mode in flight, so switchers race for the serial
///   lock with reads already logged: a switcher whose reads went stale
///   behind another's serial section (direct stores move no orec) must
///   restart, not commit them.
pub const SCHEDULES: [Schedule; 5] = [
    Schedule {
        name: "mixed",
        program: txn_program,
        promotes: None,
        switches: false,
        demand: None,
        sabotage: false,
    },
    Schedule {
        name: "read-mostly",
        program: txn_program,
        promotes: Some(ro_txn_promotes),
        switches: false,
        demand: Some(Demand {
            met: |r| r.ro_fast_commits > 0 && r.ro_promotions > 0,
            unmet: "the schedule failed to exercise the fast lane \
                    (no fast-lane commit, or no promotion)",
        }),
        sabotage: false,
    },
    Schedule {
        name: "write-heavy",
        program: wh_txn_program,
        promotes: None,
        switches: false,
        demand: None,
        sabotage: false,
    },
    Schedule {
        name: "contended-commit",
        program: contended_txn_program,
        promotes: None,
        switches: false,
        demand: None,
        sabotage: false,
    },
    Schedule {
        name: "switch",
        program: txn_program,
        promotes: None,
        switches: true,
        demand: None,
        sabotage: false,
    },
];

/// What one transaction slot of a schedule does.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Slot {
    /// Takes a ticket and runs `ops`.
    Writer {
        /// Enters through `atomic_ro` and promotes at its first write.
        ro_entry: bool,
        /// Cells read before the ticket is taken.
        pre_reads: Vec<usize>,
        /// The program.
        ops: Vec<StressOp>,
    },
    /// Snapshots the ticket cell and the whole heap on the fast lane.
    Reader,
    /// A relaxed transaction: runs the first half of `ops` instrumented,
    /// switches to serial-irrevocable mode (where the serial lock exists:
    /// without it serializing is a programming error), then takes its
    /// ticket and runs the rest.
    Switcher {
        /// The program.
        ops: Vec<StressOp>,
    },
}

impl Schedule {
    /// Slot `txn` of thread `thread` — like the programs, a pure function
    /// of the seed.
    pub fn slot(&self, seed: u64, thread: usize, txn: usize, cfg: &StressConfig) -> Slot {
        let ops = || (self.program)(seed, thread, txn, cfg);
        if self.switches {
            return Slot::Switcher { ops: ops() };
        }
        match self.promotes {
            None => Slot::Writer { ro_entry: false, pre_reads: Vec::new(), ops: ops() },
            Some(promotes) if promotes(seed, thread, txn) => Slot::Writer {
                ro_entry: true,
                pre_reads: ro_pre_reads(seed, thread, txn, cfg),
                ops: ops(),
            },
            Some(_) => Slot::Reader,
        }
    }
}

/// The plan the stress binary's `--chaos` mode uses: every site armed,
/// with per-site-visit rates of ~1.6% spurious abort, ~3% bounded delay,
/// and ~0.4% panic. A transaction visits a dozen-odd sites per attempt, so
/// most transactions see at least one fault while every retry loop still
/// terminates quickly.
pub const CHAOS_PLAN: FaultPlan = FaultPlan::all_sites(1024, 2048, 256);

/// Arming `tm::fault` on a worker thread — the harness's only
/// feature-gated code (`chaos` turns on `tm/fault`).
#[cfg(feature = "chaos")]
mod faults {
    use tm::fault::{self, FaultPlan};

    /// Arms the calling thread. Injected panics unwind through
    /// `catch_unwind` thousands of times per schedule and the default panic
    /// hook would print a backtrace header for each, so the first call
    /// installs a hook that swallows exactly the fault layer's own
    /// payloads and forwards everything else.
    pub(super) fn arm(seed: u64, plan: FaultPlan) {
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            let prev = std::panic::take_hook();
            std::panic::set_hook(Box::new(move |info| {
                let injected = info
                    .payload()
                    .downcast_ref::<String>()
                    .is_some_and(|s| s.contains("tm::fault injected panic"));
                if !injected {
                    prev(info);
                }
            }));
        });
        fault::arm_thread(seed, plan);
    }

    /// Disarms the calling thread; returns the faults injected on it.
    pub(super) fn disarm() -> u64 {
        fault::disarm_thread();
        fault::injected_count()
    }
}

#[cfg(not(feature = "chaos"))]
mod faults {
    pub(super) fn arm(_seed: u64, _plan: tm::fault::FaultPlan) {
        panic!("a fault plan needs testkit's `chaos` feature");
    }

    pub(super) fn disarm() -> u64 {
        0
    }
}

/// Enters a transaction on the read-only fast lane or the ordinary path.
fn enter<'env, R>(
    rt: &'env TmRuntime,
    ro: bool,
    f: impl FnMut(&mut AtomicTx<'env>) -> Result<R, Abort>,
) -> R {
    if ro {
        rt.atomic_ro(f)
    } else {
        rt.atomic(f)
    }
}

/// Runs `txn` until it has committed. Without faults that is one call.
/// Under fault injection a panic may unwind out of the runtime, and the
/// thread's commit tally classifies it: a panic whose attempt never
/// committed (body/validation/commit-path injection) was fully rolled
/// back, so the same program retries; a panic *after* the commit point (an
/// injected handler panic) carried the closure's result away — `None` —
/// but the data is committed and must appear in the serial order exactly
/// once.
fn until_committed<R>(armed: bool, mut txn: impl FnMut() -> R) -> Option<R> {
    loop {
        if armed {
            // Reset the tally so the commit delta covers exactly this call.
            let _ = tm::take_thread_tally();
        }
        match catch_unwind(AssertUnwindSafe(&mut txn)) {
            Ok(r) => return Some(r),
            Err(panic) if !armed => resume_unwind(panic),
            Err(_injected) if tm::take_thread_tally().commits > 0 => return None,
            Err(_injected) => {}
        }
    }
}

/// One run's identity: what a [`Divergence`] carries and what the oracle
/// needs to replay programs.
struct RunId<'a> {
    seed: u64,
    cfg: &'a StressConfig,
    schedule: &'a Schedule,
    chaos: bool,
}

impl RunId<'_> {
    fn diverge(&self, detail: String) -> Divergence {
        Divergence {
            seed: self.seed,
            combo: self.cfg.combo(),
            schedule: self.schedule.name,
            chaos: self.chaos,
            detail,
        }
    }
}

/// Runs one barrier-stepped `schedule` under `cfg`'s runtime combination
/// and checks it against the sequential model. With `faults`, every worker
/// thread arms `tm::fault` with a seed-derived stream, so the runtime is
/// bombarded with spurious aborts, bounded delays and injected panics at
/// its five fault sites while the same oracle stays on (needs the `chaos`
/// feature; a seed-derived quarter of the writers then also register no-op
/// handlers so the handler fault site — panics after the commit point —
/// is exercised too).
///
/// # Errors
///
/// Returns [`Divergence`] — carrying the replay seed — when the committed
/// state or a reader's snapshot disagrees with the model, or when the
/// schedule's own demand was not met. Under chaos a divergence means a
/// fault unwound the runtime into an inconsistent state (leaked orec,
/// half-applied undo, ...).
pub fn run(
    seed: u64,
    cfg: &StressConfig,
    schedule: &Schedule,
    faults: Option<FaultPlan>,
) -> Result<StressReport, Divergence> {
    assert!(cfg.threads > 0 && cfg.cells > 0 && cfg.txns_per_thread > 0);
    let armed = faults.is_some();
    let rt = TmRuntime::builder()
        .algorithm(cfg.algorithm)
        .serial_lock(cfg.serial_lock)
        .contention_manager(cfg.contention)
        .build();
    let init = initial_values(seed, cfg.cells);
    let cells: Vec<TCell<u64>> = init.iter().copied().map(TCell::new).collect();
    let ticket = TCell::new(0u64);

    // Barrier-stepped rounds: every thread enters round r together; the
    // round length is drawn from the seed so different seeds produce
    // differently-chunked interleavings.
    let mut round_rng = SplitMix64::seed_from_u64(mix_seed(seed, 0x0107));
    let per_round = round_rng.gen_range(1usize..5);
    let rounds = cfg.txns_per_thread.div_ceil(per_round);
    let barrier = Barrier::new(cfg.threads);

    let before = rt.stats();
    // (ticket, thread, txn) for every committed writer; (observed ticket,
    // heap snapshot) for every reader.
    let mut writes: Vec<(u64, usize, usize)> = Vec::new();
    let mut snaps: Vec<(u64, Vec<u64>)> = Vec::new();
    let mut injected = 0u64;
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..cfg.threads {
            let (rt, cells, ticket, barrier) = (&rt, &cells[..], &ticket, &barrier);
            handles.push(s.spawn(move || {
                if let Some(plan) = faults {
                    faults::arm(mix_seed(seed, 0xFA07 + t as u64), plan);
                }
                let mut my_writes = Vec::new();
                let mut my_snaps = Vec::new();
                let mut stagger = SplitMix64::seed_from_u64(mix_seed(seed, 0x57A6 + t as u64));
                // Ticket captured by the attempt that ends up committing,
                // read back when a post-commit handler panic carries the
                // ticket away from the transaction's return value.
                let taken = Cell::new(u64::MAX);
                for r in 0..rounds {
                    barrier.wait();
                    // A short seed-derived spin decorrelates which thread
                    // reaches the transactions first in each round.
                    for _ in 0..stagger.gen_range(0u32..64) {
                        std::hint::spin_loop();
                    }
                    let lo = r * per_round;
                    let hi = ((r + 1) * per_round).min(cfg.txns_per_thread);
                    for j in lo..hi {
                        match schedule.slot(seed, t, j, cfg) {
                            Slot::Writer { ro_entry, pre_reads, ops } => {
                                let with_handlers = armed
                                    && mix_seed(mix_seed(seed, 0x4A0D + t as u64), j as u64) & 3 == 0;
                                let tk = until_committed(armed, || {
                                    enter(rt, ro_entry, |tx| {
                                        // Fast-lane reads first: they must
                                        // survive the promotion and be
                                        // revalidated.
                                        let mut sink = 0u64;
                                        for &i in &pre_reads {
                                            sink = sink.wrapping_add(tx.read(&cells[i])?);
                                        }
                                        std::hint::black_box(sink);
                                        // First write of the attempt (the
                                        // promotion, on the fast lane).
                                        let tk = tx.fetch_add(ticket, 1)?;
                                        taken.set(tk);
                                        if with_handlers {
                                            tx.on_commit(|| {});
                                            tx.on_abort(|| {});
                                        }
                                        for &op in &ops {
                                            apply_tx(tx, cells, op)?;
                                        }
                                        Ok(tk)
                                    })
                                });
                                my_writes.push((tk.unwrap_or_else(|| taken.get()), t, j));
                            }
                            Slot::Switcher { ops } => {
                                let (before, after) = ops.split_at(ops.len() / 2);
                                let switch = cfg.serial_lock == SerialLockMode::ReaderWriter;
                                let tk = until_committed(armed, || {
                                    rt.relaxed(RelaxedPlan::new(), |tx| {
                                        for &op in before {
                                            apply_tx(tx, cells, op)?;
                                        }
                                        if switch {
                                            tx.unsafe_op(|| ())?;
                                        }
                                        let tk = tx.fetch_add(ticket, 1)?;
                                        taken.set(tk);
                                        for &op in after {
                                            apply_tx(tx, cells, op)?;
                                        }
                                        Ok(tk)
                                    })
                                });
                                my_writes.push((tk.unwrap_or_else(|| taken.get()), t, j));
                            }
                            // A reader whose snapshot a post-commit panic
                            // carried away just loses its sample (readers
                            // register no handlers: a defensive path).
                            Slot::Reader => my_snaps.extend(until_committed(armed, || {
                                enter(rt, true, |tx| {
                                    let tk = tx.read(ticket)?;
                                    let mut snap = Vec::with_capacity(cells.len());
                                    for c in cells {
                                        snap.push(tx.read(c)?);
                                    }
                                    Ok((tk, snap))
                                })
                            })),
                        }
                    }
                }
                (my_writes, my_snaps, faults::disarm())
            }));
        }
        for h in handles {
            let (w, sn, hits) = h.join().expect("stress worker panicked");
            writes.extend(w);
            snaps.extend(sn);
            injected += hits;
        }
    });
    let stats = rt.stats().since(&before);

    let id = RunId { seed, cfg, schedule, chaos: armed };
    let heap: Vec<u64> = cells.iter().map(TCell::load_direct).collect();
    let snapshots_checked = check_oracle(&id, init, ticket.load_direct(), &heap, writes, snaps)?;
    let report = StressReport {
        combo: cfg.combo(),
        commits: stats.commits,
        aborts: stats.aborts,
        clock_cas_retries: stats.clock_cas_retries,
        ro_fast_commits: stats.ro_fast_commits,
        ro_promotions: stats.ro_promotions,
        snapshot_extensions: stats.snapshot_extensions,
        snapshots_checked,
        injected,
        panic_aborts: stats.panic_aborts,
    };
    match schedule.demand {
        Some(demand) if !(demand.met)(&report) => Err(id.diverge(demand.unmet.to_string())),
        _ => Ok(report),
    }
}

/// The oracle: ticket contiguity for the writers, prefix-equality for the
/// reader snapshots, final heap against the sequential model. Returns how
/// many reader snapshots were checked.
///
/// * **Writers** — the committed tickets must be exactly `0..n` (a gap or
///   duplicate is a lost or doubled ticket update, itself a
///   serializability violation), and replaying their programs in ticket
///   order must land on the final heap.
/// * **Readers** — a fast-lane reader that observed ticket value `t`
///   serialized after exactly the writers holding tickets `0..t`, so its
///   snapshot must equal the model replayed through that prefix. A stale
///   snapshot extension, a torn read, or a write leaking from an
///   uncommitted writer all break the equality.
fn check_oracle(
    id: &RunId<'_>,
    init: Vec<u64>,
    final_ticket: u64,
    heap: &[u64],
    mut writes: Vec<(u64, usize, usize)>,
    mut snaps: Vec<(u64, Vec<u64>)>,
) -> Result<u64, Divergence> {
    let total = writes.len() as u64;
    writes.sort_unstable();
    for (expect, &(tk, t, j)) in writes.iter().enumerate() {
        if tk != expect as u64 {
            return Err(id.diverge(format!(
                "ticket sequence broken at position {expect}: got ticket {tk} \
                 (thread {t}, txn {j}) — lost or duplicated ticket update"
            )));
        }
    }
    if final_ticket != total {
        return Err(id.diverge(format!(
            "ticket cell ended at {final_ticket} after {total} writing transactions"
        )));
    }

    // Replay the writers in ticket order; each reader snapshot must equal
    // the model exactly at its observed prefix.
    snaps.sort_by_key(|s| s.0);
    let mut snaps = snaps.iter().peekable();
    let mut checked = 0u64;
    let mut model = init;
    for k in 0..=total {
        while let Some((tk, snap)) = snaps.next_if(|s| s.0 == k) {
            if let Some(i) = (0..model.len()).find(|&i| snap[i] != model[i]) {
                return Err(id.diverge(format!(
                    "fast-lane reader at ticket {tk}: cell {i} read {:#x} but the serial \
                     prefix says {:#x} — stale or torn snapshot",
                    snap[i], model[i]
                )));
            }
            checked += 1;
        }
        if let Some(&(_tk, t, j)) = writes.get(k as usize) {
            for op in (id.schedule.program)(id.seed, t, j, id.cfg) {
                apply_model(&mut model, op);
            }
        }
    }
    if let Some((tk, _)) = snaps.next() {
        return Err(id.diverge(format!(
            "fast-lane reader observed ticket {tk} but only {total} were issued"
        )));
    }

    if id.schedule.sabotage {
        model[0] = model[0].wrapping_add(1);
    }
    match (0..model.len()).find(|&i| heap[i] != model[i]) {
        Some(i) => Err(id.diverge(format!(
            "cell {i}: concurrent result {:#x} != sequential model {:#x}",
            heap[i], model[i]
        ))),
        None => Ok(checked),
    }
}

/// Every runtime combination the stress harness exercises.
/// `SerializeAfter` requires the serial lock, so it is only paired with
/// [`SerialLockMode::ReaderWriter`]; the other managers run under both
/// modes.
pub fn combos() -> Vec<(Algorithm, SerialLockMode, ContentionManager)> {
    let mut v = Vec::new();
    for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
        for cm in [
            ContentionManager::GCC_DEFAULT,
            ContentionManager::None,
            ContentionManager::Backoff { max_shift: 8 },
            ContentionManager::HOURGLASS_128,
        ] {
            v.push((algo, SerialLockMode::ReaderWriter, cm));
        }
        for cm in [
            ContentionManager::None,
            ContentionManager::Backoff { max_shift: 8 },
            ContentionManager::HOURGLASS_128,
        ] {
            v.push((algo, SerialLockMode::None, cm));
        }
    }
    v
}

/// [`run`] for `seed` across every [`combos`] combination, stopping at the
/// first divergence.
///
/// # Errors
///
/// Propagates the first [`Divergence`].
pub fn run_matrix(
    seed: u64,
    base: &StressConfig,
    schedule: &Schedule,
    faults: Option<FaultPlan>,
) -> Result<Vec<StressReport>, Divergence> {
    combos()
        .into_iter()
        .map(|(algorithm, serial_lock, contention)| {
            let cfg = StressConfig { algorithm, serial_lock, contention, ..base.clone() };
            run(seed, &cfg, schedule, faults)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Schedule = SCHEDULES[0];
    const READ_MOSTLY: Schedule = SCHEDULES[1];

    fn matrix_base(txns_per_thread: usize) -> StressConfig {
        StressConfig {
            threads: 3,
            cells: 6,
            txns_per_thread,
            max_ops_per_txn: 5,
            ..StressConfig::smoke()
        }
    }

    /// Per-schedule matrix seeds, `(plain, chaos)`, in [`SCHEDULES`] order.
    const MATRIX_SEEDS: [(u64, u64); 5] = [
        (0xA5A5, 0xC4A05),
        (0xB0B0, 0x2EAD),
        (0x3717, 0x3A17),
        (0xC047, 0xC4A0),
        (0x5317, 0x5C4A),
    ];

    /// The plain tier: every schedule passes the oracle and its own demand
    /// on all 21 combos — the read-mostly one really commits on the fast
    /// lane, really promotes and really position-checks reader snapshots.
    #[test]
    fn every_schedule_passes_on_every_combo() {
        for (schedule, (seed, _)) in SCHEDULES.iter().zip(MATRIX_SEEDS) {
            let reports = run_matrix(seed, &matrix_base(25), schedule, None)
                .unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(reports.len(), combos().len(), "{}", schedule.name);
            for r in &reports {
                let at = format!("{} schedule, {}", schedule.name, r.combo);
                assert_eq!(r.commits, 3 * 25, "{at}");
                assert_eq!((r.injected, r.panic_aborts), (0, 0), "{at}");
                if let Some(demand) = schedule.demand {
                    assert!((demand.met)(r), "{at}: {}", demand.unmet);
                }
                if schedule.promotes.is_some() {
                    assert!(r.snapshots_checked > 0, "{at}");
                }
            }
        }
    }

    /// The chaos tier: with panics, spurious aborts and delays injected at
    /// every fault site, every schedule still passes the oracle and its
    /// demand on all 21 combos (promotion keeps happening under fire) —
    /// and the faults really fired, the unwind path included.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_every_schedule_passes_on_every_combo() {
        for (schedule, (_, seed)) in SCHEDULES.iter().zip(MATRIX_SEEDS) {
            let reports = run_matrix(seed, &matrix_base(20), schedule, Some(CHAOS_PLAN))
                .unwrap_or_else(|d| panic!("{d}"));
            assert_eq!(reports.len(), combos().len(), "{}", schedule.name);
            let mut sum = StressReport::default();
            reports.iter().for_each(|r| sum.absorb(r));
            assert!(sum.injected > 0, "{} schedule injected no faults", schedule.name);
            match schedule.promotes {
                Some(_) => {
                    assert!(sum.ro_promotions > 0 && sum.snapshots_checked > 0, "{}", schedule.name)
                }
                None => assert!(
                    sum.panic_aborts > 0,
                    "{} schedule never exercised the unwind path \
                     ({} faults injected, none were panics)",
                    schedule.name,
                    sum.injected
                ),
            }
        }
    }

    /// With few cells, long transactions, and every thread fighting over
    /// the ticket cell, some run must abort — otherwise the harness is not
    /// stressing anything. Runs draw seeds, cycling the three algorithms,
    /// until the first abort: a run whose threads happen to be scheduled
    /// one after another can finish without one (a few in a hundred on two
    /// cores), but 64 such runs in a row mean there is no contention.
    #[test]
    fn schedules_actually_contend() {
        const ALGORITHMS: [Algorithm; 3] = [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec];
        let contended = (0..64u64).any(|seed| {
            let cfg = StressConfig {
                threads: 8,
                cells: 2,
                txns_per_thread: 300,
                max_ops_per_txn: 10,
                algorithm: ALGORITHMS[seed as usize % 3],
                contention: ContentionManager::None,
                ..StressConfig::smoke()
            };
            run(seed, &cfg, &MIXED, None).unwrap_or_else(|d| panic!("{d}")).aborts > 0
        });
        assert!(contended, "no aborts across 64 contended schedules");
    }

    #[test]
    fn programs_are_pure_functions_of_the_seed() {
        let cfg = StressConfig::smoke();
        assert_eq!(txn_program(9, 2, 17, &cfg), txn_program(9, 2, 17, &cfg));
        assert_ne!(txn_program(9, 2, 17, &cfg), txn_program(10, 2, 17, &cfg));
        assert_ne!(txn_program(9, 2, 17, &cfg), txn_program(9, 3, 17, &cfg));
        assert_eq!(wh_txn_program(9, 2, 17, &cfg), wh_txn_program(9, 2, 17, &cfg));
        assert_ne!(wh_txn_program(9, 2, 17, &cfg), wh_txn_program(10, 2, 17, &cfg));
        assert_eq!(
            contended_txn_program(9, 2, 17, &cfg),
            contended_txn_program(9, 2, 17, &cfg)
        );
        assert_ne!(
            contended_txn_program(9, 2, 17, &cfg),
            contended_txn_program(10, 2, 17, &cfg)
        );
    }

    fn fnv1a(hash: &mut u64, bytes: &[u8]) {
        for &b in bytes {
            *hash = (*hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// FNV-1a over every slot of `schedule` at `StressConfig::smoke()`:
    /// the slot kind (0 writer through `atomic`, 1 promoting writer through
    /// `atomic_ro`, 2 snapshot reader, 3 switcher), then for writers the
    /// pre-reads and the program, counts and operands as little-endian
    /// `u64`s.
    fn schedule_fingerprint(schedule: &Schedule, seed: u64) -> u64 {
        let cfg = StressConfig::smoke();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for t in 0..cfg.threads {
            for j in 0..cfg.txns_per_thread {
                let (kind, pre_reads, ops) = match schedule.slot(seed, t, j, &cfg) {
                    Slot::Writer { ro_entry, pre_reads, ops } => (u8::from(ro_entry), pre_reads, ops),
                    Slot::Switcher { ops } => (3, Vec::new(), ops),
                    Slot::Reader => {
                        fnv1a(&mut h, &[2]);
                        continue;
                    }
                };
                fnv1a(&mut h, &[kind]);
                fnv1a(&mut h, &(pre_reads.len() as u64).to_le_bytes());
                for i in pre_reads {
                    fnv1a(&mut h, &(i as u64).to_le_bytes());
                }
                fnv1a(&mut h, &(ops.len() as u64).to_le_bytes());
                for op in ops {
                    let (tag, a, b) = match op {
                        StressOp::Write(i, v) => (0u8, i as u64, v),
                        StressOp::Add(i, d) => (1, i as u64, d),
                        StressOp::Copy(a, b) => (2, a as u64, b as u64),
                        StressOp::Mix(a, b) => (3, a as u64, b as u64),
                    };
                    fnv1a(&mut h, &[tag]);
                    fnv1a(&mut h, &a.to_le_bytes());
                    fnv1a(&mut h, &b.to_le_bytes());
                }
            }
        }
        h
    }

    /// The schedule table executes what the four hand-written runners it
    /// replaced executed: these constants were computed at the commit
    /// before the collapse (38ed4ad) from `txn_program` / `wh_txn_program`
    /// / `contended_txn_program` and the read-mostly runner's
    /// `ro_txn_promotes` / `ro_pre_reads` decisions, seeds 1..=8; the
    /// switch row's were recorded when it was added. A change
    /// here means the stress tiers run different transactions — re-record
    /// only for a change that means to.
    #[test]
    fn schedule_fingerprints_match_the_recorded_runners() {
        #[rustfmt::skip]
        const RECORDED: [[u64; 8]; 5] = [
            [0x4c1d9d8c63da69e8, 0x18ddd9833dac5ba4, 0x360d3347524611ad, 0xd12973557fdac2a0,
             0xe25dc2e004f8a8e3, 0xe9a396b01b84e9f0, 0x8ec17b15819f076e, 0x9abc713331272b21],
            [0xae50415c92606264, 0xb536a139770a2fda, 0x9877383d5b31a079, 0xa07b6d8c3e67019b,
             0xe4c105be1017ec07, 0x7b8d044cb7eb6159, 0x59876fecb08ac607, 0xece7de05201fb5ed],
            [0x25aa8d1f4787397f, 0xbe89dbac265abbeb, 0x32d85265435ee9f7, 0xe0a0fc1c90c6c3eb,
             0x277bd4bab23e31a9, 0x4153c99277afb306, 0x81417e20ad16ad0c, 0x2221866270b6e444],
            [0xabd0a17f8bb6d4b9, 0x03bc578b5817e6f8, 0x2a54998c9bd4398f, 0xec07b98e8084389f,
             0x84811a5e670a05d4, 0x2dd140ceb3bf2b03, 0x45cb9157fe0921ad, 0x46d182d63b870d92],
            [0x90d47b2ed1f28148, 0x08cfada73becd904, 0x4c1c0af781ea941d, 0x0af3563002d029d6,
             0xcc42c610b17ed611, 0x212002837777dd4e, 0x906e303444465186, 0x971c85092a06a8ed],
        ];
        for (schedule, recorded) in SCHEDULES.iter().zip(RECORDED) {
            for (seed, want) in (1..=8).zip(recorded) {
                let got = schedule_fingerprint(schedule, seed);
                assert_eq!(got, want, "{} schedule, seed {seed}: {got:#018x}", schedule.name);
            }
        }
    }

    /// The contended programs really are write-disjoint: every mutation's
    /// destination lands in the issuing thread's own block, across a
    /// sample large enough to draw all four operation arms.
    #[test]
    fn contended_programs_write_only_their_own_block() {
        let cfg = StressConfig {
            threads: 4,
            cells: 8,
            ..StressConfig::smoke()
        };
        let block = cfg.cells / cfg.threads;
        let mut cross_reads = 0usize;
        for t in 0..cfg.threads {
            for j in 0..60 {
                for op in contended_txn_program(0xC0, t, j, &cfg) {
                    let (src, dst) = match op {
                        StressOp::Write(i, _) | StressOp::Add(i, _) => (None, i),
                        StressOp::Copy(a, b) | StressOp::Mix(a, b) => (Some(a), b),
                    };
                    assert!(
                        (t * block..(t + 1) * block).contains(&dst),
                        "thread {t} writes cell {dst} outside its block"
                    );
                    if src.is_some_and(|a| !(t * block..(t + 1) * block).contains(&a)) {
                        cross_reads += 1;
                    }
                }
            }
        }
        assert!(cross_reads > 0, "no cross-block reads drawn — validation has no edges");
    }

    /// The write-heavy programs really do manufacture value-equal stores:
    /// self-copies and duplicated constant writes appear across any
    /// reasonable sample of programs.
    #[test]
    fn write_heavy_programs_contain_value_equal_stores() {
        let cfg = StressConfig::smoke();
        let mut self_copies = 0;
        let mut dup_writes = 0;
        for t in 0..4 {
            for j in 0..60 {
                let ops = wh_txn_program(0xFEED, t, j, &cfg);
                self_copies += ops
                    .iter()
                    .filter(|op| matches!(op, StressOp::Copy(a, b) if a == b))
                    .count();
                dup_writes += ops
                    .windows(2)
                    .filter(|w| matches!(w, [StressOp::Write(a, x), StressOp::Write(b, y)] if a == b && x == y))
                    .count();
            }
        }
        assert!(self_copies > 0, "no self-copies drawn");
        assert!(dup_writes > 0, "no duplicated constant writes drawn");
    }

    /// The acceptance criterion's scratch-branch check, kept as a real
    /// test: with a bug injected (one lost update to cell 0), the harness
    /// must diverge, and replaying the printed seed must diverge again at
    /// the same place.
    #[test]
    fn injected_bug_reproduces_from_its_seed() {
        let cfg = StressConfig::smoke();
        let sabotaged = Schedule { sabotage: true, ..MIXED };
        let seed = 0x5EED;
        let first = run(seed, &cfg, &sabotaged, None).expect_err("sabotaged model must diverge");
        assert_eq!(first.seed, seed, "divergence must carry the replay seed");
        assert!(first.to_string().contains("--seed 0x5eed"), "{first}");
        assert!(first.detail.starts_with("cell 0:"), "{first}");
        let replay = run(first.seed, &cfg, &sabotaged, None)
            .expect_err("replaying the printed seed must diverge again");
        assert_eq!(replay.combo, first.combo);
        assert!(replay.detail.starts_with("cell 0:"), "{replay}");
        // And the clean harness passes the very same schedule.
        run(seed, &cfg, &MIXED, None).unwrap_or_else(|d| panic!("{d}"));
    }

    /// The reader half of the oracle has teeth too: on the read-mostly
    /// schedule a lost update to cell 0 diverges, replays from its printed
    /// seed, and the clean harness passes the identical schedule.
    #[test]
    fn read_mostly_injected_bug_reproduces_from_its_seed() {
        let cfg = StressConfig::smoke();
        let sabotaged = Schedule { sabotage: true, ..READ_MOSTLY };
        let seed = 0x0D0;
        let first = run(seed, &cfg, &sabotaged, None)
            .expect_err("sabotaged read-mostly model must diverge");
        assert_eq!(first.seed, seed);
        assert_eq!(first.schedule, "read-mostly");
        assert!(first.detail.starts_with("cell 0:"), "{first}");
        let replay = run(first.seed, &cfg, &sabotaged, None)
            .expect_err("replaying the printed seed must diverge again");
        assert_eq!(replay.combo, first.combo);
        assert!(replay.detail.starts_with("cell 0:"), "{replay}");
        run(seed, &cfg, &READ_MOSTLY, None).unwrap_or_else(|d| panic!("{d}"));
    }

    /// A disabled plan makes chaos mode equivalent to the plain schedule:
    /// zero injections, full commits.
    #[cfg(feature = "chaos")]
    #[test]
    fn chaos_with_disabled_plan_injects_nothing() {
        let cfg = StressConfig {
            threads: 2,
            txns_per_thread: 15,
            ..StressConfig::smoke()
        };
        let r = run(0xD15A, &cfg, &MIXED, Some(FaultPlan::disabled()))
            .unwrap_or_else(|d| panic!("{d}"));
        assert_eq!(r.injected, 0);
        assert_eq!(r.panic_aborts, 0);
        assert_eq!(r.commits, 2 * 15);
    }

    /// A chaos divergence prints a replay command that re-arms the faults.
    #[test]
    fn divergence_replay_command_names_its_tier() {
        let d = |chaos| Divergence {
            seed: 0x2a,
            combo: StressConfig::smoke().combo(),
            schedule: MIXED.name,
            chaos,
            detail: String::new(),
        };
        assert!(d(false).to_string().ends_with("-p testkit --bin stress -- --seed 0x2a"));
        assert!(d(true)
            .to_string()
            .ends_with("-p testkit --features chaos --bin stress -- --chaos --seed 0x2a"));
    }

    #[test]
    fn matrix_covers_all_serial_modes_and_managers() {
        let c = combos();
        assert_eq!(c.len(), 21);
        assert!(c.iter().any(|&(_, sl, _)| sl == SerialLockMode::None));
        assert!(c
            .iter()
            .any(|&(_, _, cm)| cm == ContentionManager::HOURGLASS_128));
        // SerializeAfter never runs without the serial lock.
        assert!(c.iter().all(|&(_, sl, cm)| !matches!(
            (sl, cm),
            (SerialLockMode::None, ContentionManager::SerializeAfter(_))
        )));
    }
}
