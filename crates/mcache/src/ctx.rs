//! [`Ctx`]: the execution context a critical section runs under.
//!
//! Every piece of cache logic is written once, generic over how it touches
//! shared memory — under a held lock (direct access), inside an atomic
//! transaction, or inside a relaxed transaction. The context also carries
//! the paper's serialization sites: [`Ctx::unsafe_op`] is a call into
//! uninstrumented code (forcing an in-flight switch in a relaxed
//! transaction), and [`Ctx::defer_or_run`] is the onCommit-handler pattern
//! of §3.5, including the "check whether we are in a transaction" test the
//! paper had to expose from GCC's runtime.

use tm::{Abort, AtomicTx, RelaxedTx, TBytes, TWord, Transaction};
use tmstd::ByteAccess;

use crate::policy::{Category, Policy};

/// How the current critical section touches shared memory.
#[derive(Debug)]
pub enum Ctx<'a, 'e> {
    /// Locks are held (baseline branches, or IP-privatized item data):
    /// uninstrumented access.
    Direct,
    /// Inside a `__transaction_atomic` block.
    Atomic(&'a mut AtomicTx<'e>),
    /// Inside a `__transaction_relaxed` block.
    Relaxed(&'a mut RelaxedTx<'e>),
}

impl<'a, 'e> Ctx<'a, 'e> {
    /// Whether the section is running inside a transaction (GCC's
    /// `_ITM_inTransaction`, which the paper "made visible to the
    /// program").
    pub fn in_transaction(&self) -> bool {
        !matches!(self, Ctx::Direct)
    }

    /// Performs an *unsafe operation*: runs `f` uninstrumented. Under a
    /// relaxed transaction this forces the in-flight switch to
    /// serial-irrevocable mode; under direct access it just runs.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if the in-flight switch fails validation.
    ///
    /// # Panics
    ///
    /// Panics inside an atomic transaction: the branch policy must never
    /// route an unsafe operation into an atomic section (this is the
    /// type-level analogue of a `transaction_safe` violation, which GCC
    /// reports at compile time).
    pub fn unsafe_op<R>(&mut self, f: impl FnOnce() -> R) -> Result<R, Abort> {
        match self {
            Ctx::Direct => Ok(f()),
            Ctx::Relaxed(tx) => tx.unsafe_op(f),
            Ctx::Atomic(_) => panic!(
                "unsafe operation reached an atomic transaction: branch \
                 policy bug (would be a compile error under GCC)"
            ),
        }
    }

    /// The §3.5 pattern: defer `f` to an onCommit handler when inside a
    /// transaction, or run it immediately otherwise.
    pub fn defer_or_run(&mut self, f: impl FnOnce() + 'e) {
        match self {
            Ctx::Direct => f(),
            Ctx::Atomic(tx) => tx.on_commit(f),
            Ctx::Relaxed(tx) => tx.on_commit(f),
        }
    }

    /// A side effect of category `c` (`sem_post`, `fprintf`) on its way
    /// through the paper's stages: run now when no transaction is open, an
    /// unsafe operation (in-flight switch) inside one until
    /// [`crate::Stage::OnCommit`] defers `c`, an onCommit handler after.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if the in-flight switch fails validation.
    pub fn side_effect(
        &mut self,
        policy: &Policy,
        c: Category,
        f: impl FnOnce() + 'e,
    ) -> Result<(), Abort> {
        if self.in_transaction() && !policy.is_deferred(c) {
            return self.unsafe_op(f);
        }
        self.defer_or_run(f);
        Ok(())
    }

    /// An operation of category `c` (a `volatile` access, a refcount RMW,
    /// a libc call), unsafe inside a transaction until the paper's stage
    /// makes `c` safe. Both clones come from one `body`: it runs on `self`
    /// when no transaction is open or `c` is safe at this stage, and
    /// otherwise as an unsafe operation (in-flight switch) on
    /// [`Ctx::Direct`], the uninstrumented clone.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict or failed switch.
    pub fn unsafe_until<R>(
        &mut self,
        policy: &Policy,
        c: Category,
        body: impl FnOnce(&mut Ctx<'_, 'e>) -> Result<R, Abort>,
    ) -> Result<R, Abort> {
        if !self.in_transaction() || policy.is_safe(c) {
            body(self)
        } else {
            self.unsafe_op(|| body(&mut Ctx::Direct))?
        }
    }

    /// Reads a maintenance flag that memcached declares `volatile`.
    /// Unsafe until [`crate::Stage::Max`] re-declares it transactional.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict or failed switch.
    pub fn volatile_read(&mut self, policy: &Policy, w: &'e TWord) -> Result<u64, Abort> {
        self.unsafe_until(policy, Category::VolatileFlag, |c| c.get_word(w))
    }

    /// Writes a `volatile` maintenance flag; see [`Ctx::volatile_read`].
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict or failed switch.
    pub fn volatile_write(&mut self, policy: &Policy, w: &'e TWord, v: u64) -> Result<(), Abort> {
        self.unsafe_until(policy, Category::VolatileFlag, |c| c.put_word(w, v))
    }

    /// A `lock incr`-style reference-count adjustment (delta is signed via
    /// wrapping arithmetic). Returns the previous value. Unsafe until
    /// [`crate::Stage::Max`]; the uninstrumented clone keeps the real
    /// fetch-add, since privatized sections bump refcounts concurrently.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict or failed switch.
    pub fn refcount_add(
        &mut self,
        policy: &Policy,
        w: &'e TWord,
        delta: u64,
    ) -> Result<u64, Abort> {
        self.unsafe_until(policy, Category::RefcountRmw, |c| {
            c.fetch_add_word(w, delta)
        })
    }

    /// Read-modify-write add on a word. Direct contexts use a real atomic
    /// fetch-add (memcached bumps its CAS id outside any single lock);
    /// transactional contexts use an instrumented read/write pair.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] under transactional access.
    pub fn fetch_add_word(&mut self, w: &'e TWord, delta: u64) -> Result<u64, Abort> {
        match self {
            Ctx::Direct => Ok(w.fetch_add_direct(delta)),
            _ => {
                let old = self.get_word(w)?;
                self.put_word(w, old.wrapping_add(delta))?;
                Ok(old)
            }
        }
    }

    /// memcached's `assert`: evaluates the condition inline; the
    /// terminating branch is the unsafe part and never runs in a correct
    /// execution. From [`crate::Stage::OnCommit`] the terminator is a
    /// `transaction_pure` wrapper (§3.5: safe because the program ends and
    /// no `atexit` observer can see partial state).
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if the failing path forces a switch that fails.
    ///
    /// # Panics
    ///
    /// Panics (terminates) when `cond` is false.
    pub fn assert_that(
        &mut self,
        policy: &Policy,
        cond: bool,
        msg: &'static str,
    ) -> Result<(), Abort> {
        if cond {
            return Ok(());
        }
        self.unsafe_until(policy, Category::AssertAbort, |_| {
            tmstd::pure(|| panic!("assertion failed: {msg}"))
        })
    }
}

impl<'e> ByteAccess<'e> for Ctx<'_, 'e> {
    fn get_range(&mut self, b: &'e TBytes, off: usize, dst: &mut [u8]) -> Result<(), Abort> {
        match self {
            Ctx::Direct => {
                b.load_slice_direct(off, dst);
                Ok(())
            }
            Ctx::Atomic(tx) => tx.read_bytes(b, off, dst),
            Ctx::Relaxed(tx) => tx.read_bytes(b, off, dst),
        }
    }

    fn put_range(&mut self, b: &'e TBytes, off: usize, src: &[u8]) -> Result<(), Abort> {
        match self {
            Ctx::Direct => {
                b.store_slice_direct(off, src);
                Ok(())
            }
            Ctx::Atomic(tx) => tx.write_bytes(b, off, src),
            Ctx::Relaxed(tx) => tx.write_bytes(b, off, src),
        }
    }

    fn get_word(&mut self, w: &'e TWord) -> Result<u64, Abort> {
        match self {
            Ctx::Direct => Ok(w.load_direct()),
            Ctx::Atomic(tx) => tx.read_word(w),
            Ctx::Relaxed(tx) => tx.read_word(w),
        }
    }

    fn put_word(&mut self, w: &'e TWord, v: u64) -> Result<(), Abort> {
        match self {
            Ctx::Direct => {
                w.store_direct(v);
                Ok(())
            }
            Ctx::Atomic(tx) => tx.write_word(w, v),
            Ctx::Relaxed(tx) => tx.write_word(w, v),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Branch, Stage};
    use tm::{RelaxedPlan, TCell, TmRuntime};

    #[test]
    fn direct_ctx_word_ops() {
        let w = TWord::new(5);
        let mut ctx = Ctx::Direct;
        assert_eq!(ctx.get_word(&w).unwrap(), 5);
        ctx.put_word(&w, 9).unwrap();
        assert_eq!(w.load_direct(), 9);
        assert!(!ctx.in_transaction());
    }

    #[test]
    fn volatile_read_serializes_pre_max() {
        let rt = TmRuntime::default_runtime();
        let flag = TCell::new(1u64);
        let policy = Branch::It(Stage::Plain).policy();
        let v = rt.relaxed(RelaxedPlan::new(), |tx| {
            let mut ctx = Ctx::Relaxed(tx);
            ctx.volatile_read(&policy, flag.word())
        });
        assert_eq!(v, 1);
        assert_eq!(rt.stats().in_flight_switch, 1, "volatile must serialize pre-Max");
    }

    #[test]
    fn volatile_read_is_safe_at_max() {
        let rt = TmRuntime::default_runtime();
        let flag = TCell::new(1u64);
        let policy = Branch::It(Stage::Max).policy();
        rt.relaxed(RelaxedPlan::new(), |tx| {
            let mut ctx = Ctx::Relaxed(tx);
            ctx.volatile_read(&policy, flag.word())
        });
        assert_eq!(rt.stats().in_flight_switch, 0);
    }

    #[test]
    fn refcount_safe_at_max_is_transactional() {
        let rt = TmRuntime::default_runtime();
        let rc = TCell::new(2u64);
        let policy = Branch::It(Stage::Max).policy();
        let old = rt.atomic(|tx| {
            let mut ctx = Ctx::Atomic(tx);
            ctx.refcount_add(&policy, rc.word(), 1)
        });
        assert_eq!(old, 2);
        assert_eq!(rc.load_direct(), 3);
    }

    #[test]
    #[should_panic(expected = "branch policy bug")]
    fn unsafe_op_in_atomic_panics() {
        let rt = TmRuntime::default_runtime();
        rt.atomic(|tx| {
            let mut ctx = Ctx::Atomic(tx);
            ctx.unsafe_op(|| ()).map(|_| ())
        });
    }

    #[test]
    fn defer_or_run_defers_in_tx() {
        let rt = TmRuntime::default_runtime();
        let hits = std::sync::atomic::AtomicU32::new(0);
        rt.atomic(|tx| {
            let mut ctx = Ctx::Atomic(tx);
            ctx.defer_or_run(|| {
                hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            });
            assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 0);
            Ok(())
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 1);
        let mut d = Ctx::Direct;
        d.defer_or_run(|| {
            hits.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        });
        assert_eq!(hits.load(std::sync::atomic::Ordering::SeqCst), 2);
    }

    #[test]
    fn assert_that_passes_quietly() {
        let policy = Branch::It(Stage::OnCommit).policy();
        let mut ctx = Ctx::Direct;
        ctx.assert_that(&policy, true, "fine").unwrap();
    }

    #[test]
    #[should_panic(expected = "assertion failed: boom")]
    fn assert_that_terminates() {
        let policy = Branch::Baseline.policy();
        let mut ctx = Ctx::Direct;
        let _ = ctx.assert_that(&policy, false, "boom");
    }
}
