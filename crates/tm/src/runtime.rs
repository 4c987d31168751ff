//! The [`TmRuntime`]: algorithm × contention manager × serial-lock mode.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::algo::{Algorithm, Engine};
use crate::arena::{Arena, ThreadCtx};
use crate::clock::{Clock, SeqLock};
use crate::cm::{exponential_backoff, ContentionManager, Hourglass};
use crate::cell::TCell;
use crate::error::{Abort, Cancelled};
use crate::fault::{self, FaultSite};
use crate::orec::OrecTable;
use crate::serial::{SerialLock, SerialLockMode};
use crate::stats::{Counter, LivenessSnapshot, StatDeltas, StatsSnapshot, ThreadTally, TmStats};
use crate::txn::{AtomicTx, RelaxedPlan, RelaxedTx, Transaction, TxInner};

/// Shared state of one runtime. Engines and transactions hold `&RtInner`.
///
/// Every inline word a transaction *writes* — the serial lock, the
/// hourglass gate, the commit clock, the sequence lock — is an `align(64)`
/// type, so it owns its cache lines outright; the orecs and stat blocks
/// are separate allocations. What is left inline (the configuration words and
/// the pointers to those allocations) is read-mostly and stays shared in
/// every core's cache. [`CONFIG_WORDS_ISOLATED`] pins that.
pub(crate) struct RtInner {
    /// Fixed at build time, like the serial-lock mode: a runtime runs the
    /// algorithm and contention manager it was built with.
    pub(crate) algorithm: Algorithm,
    pub(crate) cm: ContentionManager,
    pub(crate) serial_mode: SerialLockMode,
    pub(crate) orecs: OrecTable,
    pub(crate) clock: Clock,
    pub(crate) seqlock: SeqLock,
    pub(crate) serial: SerialLock,
    pub(crate) hourglass: Hourglass,
    pub(crate) stats: TmStats,
}

/// Whether `RtInner`'s read-mostly configuration words share no cache line
/// with a word transactions write. Re-exported as
/// [`crate::layout::RT_CONFIG_WORDS_ISOLATED`].
pub(crate) const CONFIG_WORDS_ISOLATED: bool = {
    use std::mem::{offset_of, size_of};
    let config = [
        offset_of!(RtInner, algorithm),
        offset_of!(RtInner, cm),
        offset_of!(RtInner, serial_mode),
    ];
    // Each an `align(64)` type of exactly one line.
    let written = [
        offset_of!(RtInner, serial),
        offset_of!(RtInner, hourglass),
        offset_of!(RtInner, clock),
        offset_of!(RtInner, seqlock),
    ];
    let mut ok = size_of::<SerialLock>() == 64
        && size_of::<Hourglass>() == 64
        && size_of::<Clock>() == 64
        && size_of::<SeqLock>() == 64;
    let mut i = 0;
    while i < config.len() * written.len() {
        ok &= config[i / written.len()] / 64 != written[i % written.len()] / 64;
        i += 1;
    }
    ok
};
const _: () = assert!(CONFIG_WORDS_ISOLATED, "a config word shares a line with a written word");

/// A transactional memory runtime in the image of GCC's libitm.
///
/// Cheap to clone (the clone shares all state). Transactions of different
/// runtimes are invisible to each other — like processes linked against
/// separate TM libraries — so a program should funnel all accesses to a
/// given set of [`crate::TCell`]s through one runtime.
///
/// # Examples
///
/// ```
/// use tm::{Algorithm, ContentionManager, SerialLockMode, TCell, TmRuntime, Transaction};
///
/// // The configuration the paper calls "GCC-NoCM" (§4, Figure 11):
/// let rt = TmRuntime::builder()
///     .algorithm(Algorithm::Eager)
///     .contention_manager(ContentionManager::None)
///     .serial_lock(SerialLockMode::None)
///     .build();
/// let c = TCell::new(1u64);
/// rt.atomic(|tx| tx.fetch_add(&c, 41));
/// assert_eq!(c.load_direct(), 42);
/// ```
#[derive(Clone)]
pub struct TmRuntime {
    inner: Arc<RtInner>,
}

impl std::fmt::Debug for TmRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TmRuntime")
            .field("algorithm", &self.inner.algorithm)
            .field("cm", &self.inner.cm)
            .field("serial_mode", &self.inner.serial_mode)
            .finish()
    }
}

/// Configures and builds a [`TmRuntime`].
#[derive(Clone, Debug)]
pub struct TmRuntimeBuilder {
    algorithm: Algorithm,
    cm: ContentionManager,
    serial_mode: SerialLockMode,
    orec_log_size: u32,
}

impl Default for TmRuntimeBuilder {
    fn default() -> Self {
        TmRuntimeBuilder {
            algorithm: Algorithm::Eager,
            cm: ContentionManager::GCC_DEFAULT,
            serial_mode: SerialLockMode::ReaderWriter,
            orec_log_size: OrecTable::DEFAULT_LOG_SIZE,
        }
    }
}

impl TmRuntimeBuilder {
    /// Selects the STM algorithm (default: [`Algorithm::Eager`], GCC's).
    pub fn algorithm(mut self, a: Algorithm) -> Self {
        self.algorithm = a;
        self
    }

    /// Selects the contention manager (default: serialize after 100
    /// consecutive aborts, GCC's policy).
    pub fn contention_manager(mut self, cm: ContentionManager) -> Self {
        self.cm = cm;
        self
    }

    /// Keeps or removes the global readers/writer serial lock (default:
    /// kept, GCC's configuration; [`SerialLockMode::None`] reproduces the
    /// paper's "NoLock" runtime).
    pub fn serial_lock(mut self, m: SerialLockMode) -> Self {
        self.serial_mode = m;
        self
    }

    /// Sets log2 of the ownership-record table size.
    ///
    /// # Panics
    ///
    /// `build` panics if the value is outside `3..=28`.
    pub fn orec_log_size(mut self, log: u32) -> Self {
        self.orec_log_size = log;
        self
    }

    /// Compile shim for the frozen `benchmark/` package: the commit clock
    /// is one word, so 1 is the only value accepted. Delete with the next
    /// benchmark PR.
    #[doc(hidden)]
    pub fn clock_shards(self, n: usize) -> Self {
        assert_eq!(n, 1, "the commit clock is one word: clock_shards must be 1");
        self
    }

    /// Builds the runtime.
    ///
    /// # Panics
    ///
    /// Panics on an inconsistent configuration: a serializing contention
    /// manager ([`ContentionManager::SerializeAfter`]) cannot be combined
    /// with [`SerialLockMode::None`].
    pub fn build(self) -> TmRuntime {
        if matches!(self.cm, ContentionManager::SerializeAfter(_))
            && self.serial_mode == SerialLockMode::None
        {
            panic!(
                "ContentionManager::SerializeAfter requires the serial lock; \
                 use ContentionManager::None / Backoff / Hourglass with \
                 SerialLockMode::None"
            );
        }
        TmRuntime {
            inner: Arc::new(RtInner {
                algorithm: self.algorithm,
                cm: self.cm,
                serial_mode: self.serial_mode,
                orecs: OrecTable::new(self.orec_log_size),
                clock: Clock::new(),
                seqlock: SeqLock::new(),
                serial: SerialLock::new(),
                hourglass: Hourglass::new(),
                stats: TmStats::new(),
            }),
        }
    }
}

impl Default for TmRuntime {
    fn default() -> Self {
        TmRuntimeBuilder::default().build()
    }
}

/// Outcome of one attempt, for the retry loop.
enum AttemptOutcome<R> {
    Committed(R),
    Aborted,
    Cancelled,
}

impl TmRuntime {
    /// Starts configuring a runtime.
    pub fn builder() -> TmRuntimeBuilder {
        TmRuntimeBuilder::default()
    }

    /// The GCC-default configuration: eager algorithm, serialize-after-100
    /// contention policy, readers/writer serial lock.
    pub fn default_runtime() -> Self {
        TmRuntime::default()
    }

    /// The algorithm this runtime was built with.
    pub fn algorithm(&self) -> Algorithm {
        self.inner.algorithm
    }

    /// The contention manager this runtime was built with.
    pub fn contention_manager(&self) -> ContentionManager {
        self.inner.cm
    }

    /// The configured serial-lock mode.
    pub fn serial_lock_mode(&self) -> SerialLockMode {
        self.inner.serial_mode
    }

    /// A snapshot of the runtime's statistics counters (the raw material of
    /// the paper's Tables 1–4).
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats.snapshot()
    }

    /// Mints a commit stamp from the runtime's time base for an effect
    /// published *outside* a transaction (e.g. a direct update performed
    /// under an external lock). The stamp shares the space used by
    /// transactional commit stamps ([`last_commit_stamp`]): it is at
    /// least as large as every stamp already published, and every
    /// transactional writer that starts (or commits) after this call
    /// returns mints a larger or equal stamp — equal only for norec,
    /// where callers must break ties by append order.
    pub fn mint_commit_stamp(&self) -> u64 {
        let rt = &*self.inner;
        match rt.algorithm {
            // Advancing the clock (rather than just reading it) keeps the
            // invariant that a later `commit_tick` strictly exceeds this
            // stamp.
            Algorithm::Eager | Algorithm::Lazy => rt.clock.tick(),
            // No committer bump: the caller serializes same-data effects
            // externally (its lock), and any transactional commit that
            // begins after this read bumps to at least this value + 2.
            Algorithm::Norec => rt.seqlock.wait_even(),
        }
    }

    /// Runs `f` as a `__transaction_atomic` block, retrying on conflict
    /// until it commits, and returns its result.
    ///
    /// # Panics
    ///
    /// Panics if `f` cancels (use [`TmRuntime::try_atomic`] for
    /// cancellable transactions).
    pub fn atomic<'env, R, F>(&'env self, f: F) -> R
    where
        F: FnMut(&mut AtomicTx<'env>) -> Result<R, Abort>,
    {
        match self.try_atomic(f) {
            Ok(r) => r,
            Err(Cancelled) => {
                panic!("transaction cancelled inside TmRuntime::atomic; use try_atomic")
            }
        }
    }

    /// Runs `f` as a cancellable `__transaction_atomic` block.
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if `f` returned [`crate::cancel`]; all the
    /// transaction's effects have been rolled back.
    pub fn try_atomic<'env, R, F>(&'env self, mut f: F) -> Result<R, Cancelled>
    where
        F: FnMut(&mut AtomicTx<'env>) -> Result<R, Abort>,
    {
        self.run_loop(RelaxedPlan::new(), false, move |inner| f(AtomicTx::wrap_mut(inner)))
    }

    /// Runs `f` as a `__transaction_atomic` block *expected* to be
    /// read-only: the attempt takes the read-only fast lane — no orec is
    /// acquired, no undo/redo log entry is written, validation prefers
    /// timestamp-snapshot extension, and commit is a single fence (the
    /// engines' read-only commit path) counted in
    /// [`crate::StatsSnapshot::ro_fast_commits`].
    ///
    /// The hint is *safe*: if `f` writes after all, the attempt silently
    /// promotes to a full read-write transaction at the first write
    /// (counted in [`crate::StatsSnapshot::ro_promotions`]) and commits
    /// with identical semantics to [`TmRuntime::atomic`].
    ///
    /// # Panics
    ///
    /// Panics if `f` cancels (use [`TmRuntime::try_atomic_ro`]).
    pub fn atomic_ro<'env, R, F>(&'env self, f: F) -> R
    where
        F: FnMut(&mut AtomicTx<'env>) -> Result<R, Abort>,
    {
        match self.try_atomic_ro(f) {
            Ok(r) => r,
            Err(Cancelled) => {
                panic!("transaction cancelled inside TmRuntime::atomic_ro; use try_atomic_ro")
            }
        }
    }

    /// Cancellable variant of [`TmRuntime::atomic_ro`].
    ///
    /// # Errors
    ///
    /// Returns [`Cancelled`] if `f` returned [`crate::cancel`]; all the
    /// transaction's effects have been rolled back.
    pub fn try_atomic_ro<'env, R, F>(&'env self, mut f: F) -> Result<R, Cancelled>
    where
        F: FnMut(&mut AtomicTx<'env>) -> Result<R, Abort>,
    {
        self.run_loop(RelaxedPlan::new(), true, move |inner| f(AtomicTx::wrap_mut(inner)))
    }

    /// A *transaction expression* (Draft C++ TM Specification §2): reads
    /// one cell in its own atomic transaction. The paper used these to
    /// replace `volatile` reads without changing line counts (§3.3), and
    /// notes that "GCC currently does not optimize single-location
    /// transactions" — neither does this runtime, so the cost is a full
    /// begin/commit (measurable with the `stm_primitives` bench).
    ///
    /// The result carries at least the ordering guarantees of a
    /// `memory_order_seq_cst` atomic load, as the specification requires.
    pub fn expr_read<T: crate::Word>(&self, cell: &TCell<T>) -> T {
        self.atomic(|tx| tx.read(cell))
    }

    /// A transaction expression that writes one cell; see
    /// [`TmRuntime::expr_read`].
    pub fn expr_write<T: crate::Word>(&self, cell: &TCell<T>, v: T) {
        self.atomic(|tx| tx.write(cell, v));
    }

    /// A transaction expression for a single read-modify-write (the shape
    /// the paper gave memcached's reference counts in §3.3).
    pub fn expr_modify<T: crate::Word>(&self, cell: &TCell<T>, f: impl Fn(T) -> T) -> T {
        self.atomic(|tx| tx.modify(cell, &f))
    }

    /// Runs `f` as a `__transaction_relaxed` block. `plan` records whether
    /// the transaction must begin serially (every path unsafe / callees
    /// not annotated).
    ///
    /// # Panics
    ///
    /// Panics if `f` cancels: the Draft C++ TM Specification forbids
    /// relaxed transactions from cancelling (they may be irrevocable).
    pub fn relaxed<'env, R, F>(&'env self, plan: RelaxedPlan, mut f: F) -> R
    where
        F: FnMut(&mut RelaxedTx<'env>) -> Result<R, Abort>,
    {
        match self.run_loop(plan, false, move |inner| f(RelaxedTx::wrap_mut(inner))) {
            Ok(r) => r,
            Err(Cancelled) => {
                panic!("relaxed transactions cannot cancel (Draft C++ TM Specification)")
            }
        }
    }

    /// Runs `f` as a `__transaction_relaxed` block expected to be
    /// read-only; see [`TmRuntime::atomic_ro`] for the fast-lane and
    /// promotion semantics. A write promotes to a full transaction; an
    /// unsafe operation ([`RelaxedTx::unsafe_op`]) leaves the lane via the
    /// usual in-flight switch. A `plan` with `start_serial` set ignores
    /// the hint entirely — a serial attempt is never in the fast lane.
    ///
    /// # Panics
    ///
    /// Panics if `f` cancels: the Draft C++ TM Specification forbids
    /// relaxed transactions from cancelling (they may be irrevocable).
    pub fn relaxed_ro<'env, R, F>(&'env self, plan: RelaxedPlan, mut f: F) -> R
    where
        F: FnMut(&mut RelaxedTx<'env>) -> Result<R, Abort>,
    {
        match self.run_loop(plan, true, move |inner| f(RelaxedTx::wrap_mut(inner))) {
            Ok(r) => r,
            Err(Cancelled) => {
                panic!("relaxed transactions cannot cancel (Draft C++ TM Specification)")
            }
        }
    }

    /// The runtime's global time-base and gate words — commit clock,
    /// NOrec sequence lock, hourglass holder — one relaxed load each.
    pub fn liveness(&self) -> LivenessSnapshot {
        let rt = &*self.inner;
        LivenessSnapshot {
            clock: rt.clock.now(),
            seq: rt.seqlock.load(),
            hourglass_holder: rt.hourglass.holder(),
        }
    }

    /// The retry loop shared by all entry points. Like libitm's, it retries
    /// until the transaction commits; the only other ways out are a cancel
    /// and a resumed unwind. `run_loop` owns the `TxInner` and lends it to
    /// `body` each attempt (the entry points reinterpret the `&mut TxInner`
    /// as the `repr(transparent)` facade types), so that when a panic
    /// unwinds out of `body` or the engine's commit path, the loop still
    /// holds the transaction state and can tear it down — replay undo,
    /// release orecs and the serial lock, reopen the hourglass — before
    /// resuming the unwind.
    ///
    /// One retry rule runs under every contention manager: an attempt that
    /// aborted on an orec another transaction holds (eager and lazy record
    /// it in the arena) waits, with loads only, until that orec word
    /// changes, and only then does the manager's own step run. Under
    /// [`ContentionManager::None`] that wait is the whole policy.
    ///
    /// The loop's own bookkeeping stays on memory this thread owns: the
    /// transaction id comes from the thread's id block, every counter is
    /// accumulated in the arena and flushed to the thread's stat block once
    /// per attempt, and the hourglass word is written only by a transaction
    /// that closed the gate itself.
    fn run_loop<'env, R, B>(
        &'env self,
        plan: RelaxedPlan,
        ro: bool,
        mut body: B,
    ) -> Result<R, Cancelled>
    where
        B: FnMut(&mut TxInner<'env>) -> Result<R, Abort>,
    {
        // The transaction's one thread-local lookup.
        ThreadCtx::with(|tc| {
            let rt: &'env RtInner = &self.inner;
            let id = tc.mint_tx_id();
            let mut consecutive_aborts: u32 = 0;
            // Set once this transaction has closed the hourglass gate; only
            // then does finishing touch the gate word again.
            let mut holds_gate = false;
            // This thread's log arena: cleared — not freed — between attempts,
            // and returned to the thread's cache at the end, so retries and
            // successive transactions on one thread reuse all log storage (and
            // the handler vectors' backing allocation, lifetime-erased while
            // empty).
            let mut arena = tc.take_arena();
            let (mut commit_handlers, mut abort_handlers) = arena.take_handler_vecs();
            // Every way out of the loop — commit, cancel, a resumed unwind:
            // flush what the last attempt counted, reopen the gate if this
            // transaction closed it, cache the arena.
            let finish = |mut arena: Box<Arena>, ch, ah, holds_gate: bool| {
                rt.stats.flush(tc.ord, &mut arena.logs.stats);
                if holds_gate {
                    rt.hourglass.open_if_held(id);
                }
                tc.release(arena, ch, ah);
            };
            loop {
                if let ContentionManager::Hourglass(_) = rt.cm {
                    rt.hourglass.wait_at_begin(id);
                }
                let mut inner = self.begin_attempt(
                    rt,
                    id,
                    plan,
                    ro,
                    consecutive_aborts,
                    arena,
                    commit_handlers,
                    abort_handlers,
                );
                // Body and commit point run under one catch_unwind: a panic
                // anywhere before the commit point completes — user code, an
                // engine read/write, commit-time validation, an injected fault
                // — is recoverable because nothing has been published yet.
                let attempt: Result<AttemptOutcome<R>, Box<dyn Any + Send>> =
                    catch_unwind(AssertUnwindSafe(|| match body(&mut inner) {
                        Ok(r) => match self.commit_point(tc, &mut inner) {
                            Ok(()) => AttemptOutcome::Committed(r),
                            Err(_) => AttemptOutcome::Aborted,
                        },
                        Err(Abort::Conflict) => {
                            self.abort_point(tc, &mut inner, Counter::aborts);
                            AttemptOutcome::Aborted
                        }
                        Err(Abort::Cancelled) => {
                            self.cancel_point(&mut inner);
                            AttemptOutcome::Cancelled
                        }
                    }));
                let outcome = match attempt {
                    Ok(o) => o,
                    Err(payload) => {
                        // Panic unwinding out of the attempt: replay the undo
                        // log / drop buffered writes, release every orec and
                        // the serial lock, run onAbort handlers, reopen the
                        // hourglass, then resume the unwind with the runtime
                        // fully usable by other threads.
                        self.abort_point(tc, &mut inner, Counter::panic_aborts);
                        let _ = self.run_abort_handlers(&mut inner);
                        let ch = std::mem::take(&mut inner.commit_handlers);
                        let ah = std::mem::take(&mut inner.abort_handlers);
                        finish(inner.arena, ch, ah, holds_gate);
                        resume_unwind(payload);
                    }
                };
                // Handlers run outside the attempt's catch_unwind: by now the
                // outcome is sealed, so a panicking onCommit handler must not
                // (and cannot) roll back committed data. Each handler is
                // caught individually; the first payload is re-thrown below
                // after cleanup.
                let handler_panic = match &outcome {
                    AttemptOutcome::Committed(_) => self.run_commit_handlers(&mut inner),
                    AttemptOutcome::Aborted | AttemptOutcome::Cancelled => {
                        self.run_abort_handlers(&mut inner)
                    }
                };
                // Recover the reusable storage from the finished attempt (the
                // handler vectors were drained in place, keeping capacity).
                commit_handlers = std::mem::take(&mut inner.commit_handlers);
                abort_handlers = std::mem::take(&mut inner.abort_handlers);
                arena = inner.arena;
                if let Some(payload) = handler_panic {
                    finish(arena, commit_handlers, abort_handlers, holds_gate);
                    resume_unwind(payload);
                }
                let done = match outcome {
                    AttemptOutcome::Committed(r) => Ok(r),
                    AttemptOutcome::Cancelled => Err(Cancelled),
                    AttemptOutcome::Aborted => {
                        consecutive_aborts += 1;
                        let blocked_on = arena.logs.blocked_on.take();
                        if blocked_on.is_some() {
                            arena.logs.stats.bump(Counter::lock_waits);
                        }
                        // The attempt's counts become visible before the retry,
                        // so `stats()` shows an abort storm while it rages.
                        rt.stats.flush(tc.ord, &mut arena.logs.stats);
                        // The retry rule: an attempt that died on an orec
                        // another transaction holds cannot succeed until
                        // that lock is released, so wait for the word to
                        // change. Rollback has released every orec this
                        // transaction held, so the wait cannot close a cycle.
                        if let Some((idx, seen)) = blocked_on {
                            rt.orecs.wait_for_change(idx, seen);
                        }
                        match rt.cm {
                            ContentionManager::Backoff { max_shift } => {
                                exponential_backoff(consecutive_aborts, max_shift, id);
                            }
                            ContentionManager::Hourglass(limit) => {
                                if !holds_gate && consecutive_aborts >= limit {
                                    holds_gate = rt.hourglass.try_close(id);
                                }
                            }
                            ContentionManager::None | ContentionManager::SerializeAfter(_) => {}
                        }
                        continue;
                    }
                };
                finish(arena, commit_handlers, abort_handlers, holds_gate);
                return done;
            }
        })
    }

    #[allow(clippy::too_many_arguments)]
    fn begin_attempt<'env>(
        &'env self,
        rt: &'env RtInner,
        id: u64,
        plan: RelaxedPlan,
        ro: bool,
        consecutive_aborts: u32,
        mut arena: Box<Arena>,
        commit_handlers: Vec<Box<dyn FnOnce() + 'env>>,
        abort_handlers: Vec<Box<dyn FnOnce() + 'env>>,
    ) -> TxInner<'env> {
        debug_assert!(arena.logs.writes.is_empty() && arena.logs.reads.is_empty());
        // A body may swallow an engine abort and go on: a held orec seen by
        // an earlier attempt must not make this one wait.
        arena.logs.blocked_on = None;
        arena.logs.stats.bump(Counter::begins);
        let serialize_by_cm =
            matches!(rt.cm, ContentionManager::SerializeAfter(n) if consecutive_aborts >= n);
        let serialize = plan.start_serial || serialize_by_cm;
        if serialize {
            match rt.serial_mode {
                SerialLockMode::ReaderWriter => {}
                // INVARIANT: builder rejects SerializeAfter+None, and a
                // start-serial plan on a NoLock runtime is a branch-policy
                // configuration error, not a recoverable runtime state.
                SerialLockMode::None => panic!(
                    "a transaction must begin serially but the serial lock was \
                     removed (SerialLockMode::None)"
                ),
            }
            rt.serial.write_acquire();
            arena.logs.stats.bump(if plan.start_serial {
                Counter::start_serial
            } else {
                Counter::abort_serial
            });
            TxInner {
                rt,
                id,
                engine: Engine::Serial,
                arena,
                irrevocable: true,
                // A serial attempt runs uninstrumented; the RO hint is
                // meaningless there and must not suppress bookkeeping.
                ro: false,
                holds_read: false,
                holds_write: true,
                commit_handlers,
                abort_handlers,
            }
        } else {
            let holds_read = match rt.serial_mode {
                SerialLockMode::ReaderWriter => {
                    rt.serial.read_acquire();
                    true
                }
                SerialLockMode::None => false,
            };
            TxInner {
                rt,
                id,
                engine: Engine::begin(rt, id),
                arena,
                irrevocable: false,
                // Every retry re-enters the fast lane: a promotion is
                // per-attempt, and a fresh attempt has written nothing.
                ro,
                holds_read,
                holds_write: false,
                commit_handlers,
                abort_handlers,
            }
        }
    }

    /// The commit point: engine commit, serial-lock release, stats. On
    /// `Err` the attempt has been fully aborted (engine contract: a failed
    /// `commit` has already rolled back). Handlers run later, outside the
    /// attempt's `catch_unwind`.
    fn commit_point(&self, tc: &ThreadCtx, inner: &mut TxInner<'_>) -> Result<(), Abort> {
        let rt = inner.rt;
        let read_only = inner.engine.is_read_only(&inner.arena.logs) && !inner.irrevocable;
        let stamp = match inner.engine.commit(rt, &mut inner.arena.logs) {
            Ok(s) => s,
            Err(e) => {
                // Engine rolled itself back; finish the bookkeeping.
                self.abort_point(tc, inner, Counter::aborts);
                return Err(e);
            }
        };
        // A serial-irrevocable attempt (started serial, or promoted by
        // `make_irrevocable`) has no engine stamp; mint one from the
        // runtime's time base while the serial lock is still held
        // exclusively, so the stamp orders after every earlier commit and
        // every later committer mints a larger (or tie-broken-later) one.
        // Minted only when an onCommit handler might consume it — ticking
        // the global clock on every serial commit would be pure overhead.
        let stamp = if matches!(inner.engine, Engine::Serial) && !inner.commit_handlers.is_empty()
        {
            match rt.algorithm {
                Algorithm::Eager | Algorithm::Lazy => rt.clock.tick(),
                Algorithm::Norec => {
                    let s = rt.seqlock.wait_even();
                    // Cannot spin: no committer can hold the sequence lock
                    // while we hold the serial lock exclusively.
                    let bumped = rt.seqlock.try_begin_commit(s);
                    debug_assert!(bumped);
                    rt.seqlock.end_commit(s);
                    s + 2
                }
            }
        } else {
            stamp
        };
        tc.last_commit_stamp.set(stamp);
        inner.release_serial();
        let stats = &mut inner.arena.logs.stats;
        stats.bump(Counter::commits);
        if read_only {
            stats.bump(Counter::read_only_commits);
            if inner.ro {
                // Fast lane held to the end: never acquired an orec, never
                // logged an undo/redo entry, committed on the engines'
                // single-fence read-only path.
                stats.bump(Counter::ro_fast_commits);
            }
        }
        if inner.irrevocable {
            stats.bump(Counter::irrevocable_commits);
        }
        let t = tc.tally.get();
        tc.tally.set(ThreadTally { commits: t.commits + 1, ..t });
        Ok(())
    }

    /// Tears down an attempt that will not commit — a conflict
    /// (`Counter::aborts`) or a panic unwinding out of it
    /// (`Counter::panic_aborts`): replay the undo log / drop buffered
    /// writes and release every orec (engine rollback), release the serial
    /// lock, count the abort under `cause`.
    ///
    /// For a serial-irrevocable attempt the engine rollback is a no-op —
    /// uninstrumented direct writes cannot be undone, exactly like a panic
    /// inside a lock-based critical section — but the serial lock is
    /// released so every other thread keeps running.
    fn abort_point(&self, tc: &ThreadCtx, inner: &mut TxInner<'_>, cause: Counter) {
        inner.engine.rollback(inner.rt, &mut inner.arena.logs);
        inner.release_serial();
        inner.arena.logs.stats.bump(cause);
        let t = tc.tally.get();
        tc.tally.set(ThreadTally { aborts: t.aborts + 1, ..t });
    }

    fn cancel_point(&self, inner: &mut TxInner<'_>) {
        inner.engine.rollback(inner.rt, &mut inner.arena.logs);
        inner.release_serial();
        inner.arena.logs.stats.bump(Counter::cancels);
    }

    /// Runs (drains) the `onCommit` handlers. Each handler is caught
    /// individually: a panicking handler is counted in `handler_panics`,
    /// the remaining handlers still run, and the *first* payload is
    /// returned for the caller to re-throw after cleanup — a handler panic
    /// never rolls back the already-committed transaction.
    ///
    /// Handler vectors are drained in place (not `mem::take`n) so their
    /// backing storage survives into the next attempt / transaction.
    fn run_commit_handlers(&self, inner: &mut TxInner<'_>) -> Option<Box<dyn Any + Send>> {
        let stats = &mut inner.arena.logs.stats;
        stats.add(Counter::commit_handlers_run, inner.commit_handlers.len() as u64);
        inner.abort_handlers.clear();
        let mut first_panic = None;
        for h in inner.commit_handlers.drain(..) {
            run_handler(stats, h, &mut first_panic);
        }
        first_panic
    }

    /// Runs (drains) the `onAbort` handlers; same panic semantics as
    /// [`TmRuntime::run_commit_handlers`].
    fn run_abort_handlers(&self, inner: &mut TxInner<'_>) -> Option<Box<dyn Any + Send>> {
        let stats = &mut inner.arena.logs.stats;
        stats.add(Counter::abort_handlers_run, inner.abort_handlers.len() as u64);
        inner.commit_handlers.clear();
        let mut first_panic = None;
        for h in inner.abort_handlers.drain(..) {
            run_handler(stats, h, &mut first_panic);
        }
        first_panic
    }
}

/// The commit stamp of the calling thread's most recently committed
/// transaction.
///
/// Intended for `on_commit` handlers: by the time a handler runs, the
/// stamp of the transaction that registered it is the thread's latest,
/// so a handler can label externalized effects (e.g. redo-log records)
/// with their position in the runtime's commit order. Stamps from
/// transactions with overlapping write sets are ordered consistently
/// with their real-time commit order; two *equal* stamps (possible for
/// read-only commits and norec) must be tie-broken by the caller.
///
/// Returns 0 if the thread has never committed.
pub fn last_commit_stamp() -> u64 {
    ThreadCtx::with(|tc| tc.last_commit_stamp.get())
}

fn run_handler<'e>(
    stats: &mut StatDeltas,
    h: Box<dyn FnOnce() + 'e>,
    first_panic: &mut Option<Box<dyn Any + Send>>,
) {
    let r = catch_unwind(AssertUnwindSafe(move || {
        // Spurious-abort draws are meaningless once the outcome is sealed;
        // only the delay/panic actions of the fault plan matter here.
        let _ = fault::inject(FaultSite::Handler);
        h();
    }));
    if let Err(p) = r {
        stats.bump(Counter::handler_panics);
        if first_panic.is_none() {
            *first_panic = Some(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{orec, Algorithm, TCell, Transaction};

    fn small_rt(algo: Algorithm) -> TmRuntime {
        TmRuntime::builder()
            .algorithm(algo)
            .contention_manager(ContentionManager::None)
            .serial_lock(SerialLockMode::None)
            .orec_log_size(4)
            .build()
    }

    fn orec_snapshot(rt: &TmRuntime) -> Vec<u64> {
        let t = &rt.inner.orecs;
        (0..t.len()).map(|i| t.load(i)).collect()
    }

    /// The fast-lane promise, checked against the runtime's own metadata:
    /// a read-only `atomic_ro` leaves every orec untouched (and unlocked),
    /// does not advance the global clock, and does not move NOrec's
    /// sequence lock — while the same body under plain `atomic` is also
    /// quiescent (invisible readers), and a *writing* transaction moves
    /// the metadata, so the snapshot comparison is known to be sensitive.
    #[test]
    fn ro_fast_lane_acquires_no_orec_and_moves_no_clock() {
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            let rt = small_rt(algo);
            let cells: Vec<TCell<u64>> = (0..64).map(TCell::new).collect();
            // Two writes so orec versions are non-trivial before the
            // snapshot (the first commit can release at version 0).
            rt.atomic(|tx| tx.write(&cells[0], 6));
            rt.atomic(|tx| tx.write(&cells[0], 7));

            let orecs_before = orec_snapshot(&rt);
            if algo != Algorithm::Norec {
                assert!(
                    orecs_before.iter().any(|&v| v != 0),
                    "sanity: the priming writes must be visible in some orec"
                );
            }
            let clock_before = rt.inner.clock.now();
            let seq_before = rt.inner.seqlock.load();

            for round in 0..50u64 {
                let sum = rt.atomic_ro(|tx| {
                    let mut s = 0u64;
                    for c in &cells {
                        s = s.wrapping_add(tx.read(c)?);
                    }
                    Ok(s)
                });
                assert_eq!(sum, 7 + (1..64).sum::<u64>(), "round {round} ({algo})");
            }

            let orecs_after = orec_snapshot(&rt);
            assert_eq!(orecs_before, orecs_after, "{algo}: RO commits moved an orec");
            assert!(
                orecs_after.iter().all(|&v| !orec::is_locked(v)),
                "{algo}: an orec is still locked after RO commits"
            );
            assert_eq!(rt.inner.clock.now(), clock_before, "{algo}: clock moved");
            assert_eq!(rt.inner.seqlock.load(), seq_before, "{algo}: seqlock moved");

            let s = rt.stats();
            assert_eq!(s.ro_fast_commits, 50, "{algo}");
            assert_eq!(s.ro_promotions, 0, "{algo}");
            assert_eq!(s.aborts, 0, "{algo}");

            // Sensitivity check: a writing transaction must move the same
            // metadata the assertions above read.
            rt.atomic(|tx| tx.fetch_add(&cells[1], 1));
            match algo {
                Algorithm::Norec => {
                    assert_ne!(rt.inner.seqlock.load(), seq_before, "norec commit must bump");
                }
                _ => {
                    assert_ne!(orec_snapshot(&rt), orecs_after, "a write must bump an orec");
                    assert_ne!(rt.inner.clock.now(), clock_before, "a write must tick the clock");
                }
            }
        }
    }

    /// Promotion is the inverse promise: the moment the "read-only"
    /// transaction writes, it must behave exactly like a full transaction
    /// — locking orecs / bumping the clock (or seqlock) — and be counted
    /// as a promotion, not a fast commit.
    #[test]
    fn promoted_ro_transaction_commits_like_a_full_one() {
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            let rt = small_rt(algo);
            let c = TCell::new(1u64);
            let orecs_before = orec_snapshot(&rt);
            let seq_before = rt.inner.seqlock.load();

            let v = rt.atomic_ro(|tx| {
                let v = tx.read(&c)?;
                tx.write(&c, v + 1)?; // falls off the fast lane here
                Ok(v)
            });
            assert_eq!(v, 1);
            assert_eq!(c.load_direct(), 2, "{algo}: promoted write must commit");

            let s = rt.stats();
            assert_eq!(s.ro_promotions, 1, "{algo}");
            assert_eq!(s.ro_fast_commits, 0, "{algo}");
            match algo {
                Algorithm::Norec => assert_ne!(rt.inner.seqlock.load(), seq_before, "{algo}"),
                _ => assert_ne!(orec_snapshot(&rt), orecs_before, "{algo}"),
            }
            assert!(
                orec_snapshot(&rt).iter().all(|&o| !orec::is_locked(o)),
                "{algo}: promoted commit left an orec locked"
            );
        }
    }

    /// A write back to the committed value over an address already in the
    /// write set must land: the latest write — not committed memory — is
    /// what later reads and the commit observe.
    #[test]
    fn a_rewrite_to_the_committed_value_lands() {
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            let rt = small_rt(algo);
            let c = TCell::new(7u64);
            let seen = rt.atomic(|tx| {
                tx.write(&c, 5)?; // real write, enters the write set
                tx.write(&c, 7)?; // equals committed memory, but must land
                tx.read(&c)
            });
            assert_eq!(seen, 7, "{algo}: in-tx read must see the latest write");
            assert_eq!(c.load_direct(), 7, "{algo}");
        }
    }

    /// The retry rule, white-box: `x`'s orec is held locked straight through
    /// the table (by id 1, in the id block no thread is issued) until a
    /// transaction has aborted on it, and for about 20 ms more; then `x` is
    /// stored and the orec released at a fresh version. A transaction that
    /// meets the lock — a read (eager and lazy), an encounter-time write
    /// (eager), a commit-time acquisition (lazy) — aborts once, waits for
    /// the orec word to change and commits on its second attempt, which
    /// sees the released value. When an aborted attempt retried at once,
    /// the same body ran thousands of times in those 20 ms (EXPERIMENTS
    /// "Retry when the lock is free").
    #[test]
    fn an_attempt_aborted_by_a_held_orec_retries_once_the_lock_is_free() {
        for algo in [Algorithm::Eager, Algorithm::Lazy] {
            for write in [false, true] {
                let rt = small_rt(algo);
                let x = TCell::new(1u64);
                let (orecs, idx) = (&rt.inner.orecs, rt.inner.orecs.index_of(x.word().addr()));
                assert!(orecs.try_update(idx, orecs.load(idx), orec::locked_by(1)));
                let (attempts, seen) = std::thread::scope(|s| {
                    let txn = s.spawn(|| {
                        let mut attempts = 0u32;
                        let seen = rt.atomic(|tx| {
                            attempts += 1;
                            if write {
                                tx.write(&x, 7).map(|()| 0)
                            } else {
                                tx.read(&x)
                            }
                        });
                        (attempts, seen)
                    });
                    // An attempt's counts are flushed before it waits.
                    while rt.stats().aborts == 0 {
                        std::thread::yield_now();
                    }
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    x.word().store_direct(2);
                    orecs.release(idx, orec::unlocked_at(rt.inner.clock.tick()));
                    txn.join().unwrap()
                });
                let what = if write { "write" } else { "read" };
                assert_eq!(attempts, 2, "{algo} {what}: one abort on the lock, then one commit");
                assert_eq!(x.load_direct(), if write { 7 } else { 2 }, "{algo} {what}");
                if !write {
                    assert_eq!(seen, 2, "{algo}: the retry must see the released value");
                }
                let s = rt.stats();
                assert_eq!((s.aborts, s.lock_waits, s.commits), (1, 1, 1), "{algo} {what}");
            }
        }
    }

    /// No wait can close a cycle: a waiter has rolled back and released
    /// every orec before it waits. Two eager threads write `x` then `y` and
    /// `y` then `x`, 10 000 transactions each, under no contention manager;
    /// a yield while holding the first lock lets a one-core host interleave
    /// them too. Both finish, and some attempt waited on the other's lock.
    #[test]
    fn opposite_lock_orders_finish() {
        let rt = TmRuntime::builder()
            .algorithm(Algorithm::Eager)
            .contention_manager(ContentionManager::None)
            .serial_lock(SerialLockMode::None)
            .build();
        let (x, y) = (TCell::new(0u64), TCell::new(0u64));
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for (first, second) in [(&x, &y), (&y, &x)] {
                let (rt, start) = (&rt, &start);
                s.spawn(move || {
                    start.wait();
                    for i in 0..10_000u32 {
                        rt.atomic(|tx| {
                            tx.fetch_add(first, 1)?;
                            if i % 64 == 0 {
                                std::thread::yield_now();
                            }
                            tx.fetch_add(second, 1)
                        });
                    }
                });
            }
        });
        assert_eq!((x.load_direct(), y.load_direct()), (20_000, 20_000));
        let s = rt.stats();
        assert!(s.lock_waits > 0 && s.lock_waits <= s.aborts, "{s:?}");
    }

    /// Conflict-free commits (clock still at the snapshot) must take the
    /// GV5-style elided path — one CAS, no commit-time validation — and a
    /// commit whose snapshot went stale must be counted as a retry instead.
    #[test]
    fn conflict_free_commit_elides_the_clock_cas() {
        for algo in [Algorithm::Eager, Algorithm::Lazy, Algorithm::Norec] {
            let rt = small_rt(algo);
            let c = TCell::new(0u64);
            for i in 1..=40u64 {
                rt.atomic(|tx| tx.write(&c, i));
            }
            let s = rt.stats();
            assert_eq!(s.clock_tick_elisions, 40, "{algo}: uncontended commits must elide");
            assert_eq!(s.clock_cas_retries, 0, "{algo}");
            assert_eq!(s.aborts, 0, "{algo}");

            // Stale snapshot: move the global time base from inside the
            // transaction body (standing in for a concurrent committer),
            // so the commit-time CAS must lose and fall back to the full
            // tick-and-validate path.
            rt.atomic(|tx| {
                tx.write(&c, 1234)?;
                match algo {
                    Algorithm::Norec => {
                        let snap = rt.inner.seqlock.load();
                        assert!(rt.inner.seqlock.try_begin_commit(snap));
                        rt.inner.seqlock.end_commit(snap);
                    }
                    _ => {
                        rt.mint_commit_stamp();
                    }
                }
                Ok(())
            });
            assert_eq!(c.load_direct(), 1234, "{algo}");
            let s = rt.stats();
            assert_eq!(s.clock_tick_elisions, 40, "{algo}: stale commit must not elide");
            assert!(s.clock_cas_retries >= 1, "{algo}: stale commit must count a retry");
        }
    }
}
