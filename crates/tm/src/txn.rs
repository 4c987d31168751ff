//! Transactions: the [`Transaction`] trait and the [`AtomicTx`] /
//! [`RelaxedTx`] capability types.
//!
//! The Draft C++ TM Specification distinguishes `__transaction_atomic`
//! (statically checked to contain no unsafe operations) from
//! `__transaction_relaxed` (may perform I/O and other unsafe operations by
//! becoming serial-irrevocable). This crate models the static check with
//! the type system instead of a compiler pass:
//!
//! * [`AtomicTx`] exposes only transactional reads/writes and handler
//!   registration — there is no way to reach an unsafe operation, which is
//!   the paper's "performance model": an atomic transaction can never force
//!   serialization (other than by the contention policy).
//! * [`RelaxedTx`] additionally offers [`RelaxedTx::unsafe_op`], which
//!   upgrades the transaction to serial-irrevocable mode before running
//!   arbitrary side-effecting code — GCC's *in-flight switch*.
//!
//! A function annotated `transaction_safe` in the paper corresponds here to
//! a function generic over `T: Transaction<'env>`: it can be called from
//! either kind of transaction and cannot perform unsafe operations.

use crate::algo::Engine;
use crate::arena::Arena;
use crate::cell::{TBytes, TCell, TWord};
use crate::error::Abort;
use crate::runtime::RtInner;
use crate::serial::SerialLockMode;
use crate::stats::Counter;
use crate::word::Word;

mod sealed {
    pub trait Sealed {}
    impl Sealed for super::AtomicTx<'_> {}
    impl Sealed for super::RelaxedTx<'_> {}
}

/// How a relaxed transaction is planned to begin — the runtime-visible
/// residue of the `transaction_callable` annotation story (§2, §3.3).
///
/// GCC starts a relaxed transaction in serial-irrevocable mode when every
/// code path through it performs an operation the compiler cannot prove
/// safe ("Start Serial" in Tables 1–4); otherwise the transaction starts
/// instrumented and switches in flight only if it actually reaches an
/// unsafe operation. Whether callees are annotated `callable` determines
/// which of the two applies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct RelaxedPlan {
    /// Begin directly in serial-irrevocable mode.
    pub start_serial: bool,
}

impl RelaxedPlan {
    /// An instrumented start (unsafe operations, if any, are on branches).
    pub const fn new() -> Self {
        RelaxedPlan {
            start_serial: false,
        }
    }

    /// A serial start: every path is unsafe, or callees are unannotated
    /// and must be presumed unsafe.
    pub const fn serial() -> Self {
        RelaxedPlan { start_serial: true }
    }
}

/// Operations available inside any transaction (atomic or relaxed).
///
/// This trait is sealed; the only implementors are [`AtomicTx`] and
/// [`RelaxedTx`]. The `'env` lifetime ties every accessed location to the
/// environment the transaction closure borrows from, which is what makes
/// the runtime's internal address-based logging sound.
///
/// # Examples
///
/// A `transaction_safe` function — callable from both transaction kinds:
///
/// ```
/// use tm::{Abort, TCell, TmRuntime, Transaction};
///
/// fn bump<'env, T: Transaction<'env>>(
///     tx: &mut T,
///     c: &'env TCell<u64>,
/// ) -> Result<u64, Abort> {
///     let v = tx.read(c)? + 1;
///     tx.write(c, v)?;
///     Ok(v)
/// }
///
/// let rt = TmRuntime::default_runtime();
/// let c = TCell::new(0u64);
/// assert_eq!(rt.atomic(|tx| bump(tx, &c)), 1);
/// assert_eq!(rt.relaxed(Default::default(), |tx| bump(tx, &c)), 2);
/// ```
pub trait Transaction<'env>: sealed::Sealed {
    /// Transactionally reads one word.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if the location conflicts with a concurrent
    /// transaction; propagate it with `?`.
    fn read_word(&mut self, w: &'env TWord) -> Result<u64, Abort>;

    /// Transactionally writes one word.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict; propagate it with `?`.
    fn write_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort>;

    /// Registers a handler to run after this transaction commits (after
    /// all runtime locks are released, matching GCC's `onCommit`).
    fn on_commit_boxed(&mut self, f: Box<dyn FnOnce() + 'env>);

    /// Registers a handler to run after this transaction's effects are
    /// undone by an abort, before it retries (GCC's `onAbort`).
    fn on_abort_boxed(&mut self, f: Box<dyn FnOnce() + 'env>);

    /// Typed read of a [`TCell`].
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    fn read<T: Word>(&mut self, c: &'env TCell<T>) -> Result<T, Abort>
    where
        Self: Sized,
    {
        Ok(T::from_word(self.read_word(c.word())?))
    }

    /// Typed write of a [`TCell`].
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    fn write<T: Word>(&mut self, c: &'env TCell<T>, v: T) -> Result<(), Abort>
    where
        Self: Sized,
    {
        self.write_word(c.word(), v.to_word())
    }

    /// Read-modify-write of a [`TCell`]; returns the previous value.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    fn modify<T: Word>(
        &mut self,
        c: &'env TCell<T>,
        f: impl FnOnce(T) -> T,
    ) -> Result<T, Abort>
    where
        Self: Sized,
    {
        let old = self.read(c)?;
        self.write(c, f(old))?;
        Ok(old)
    }

    /// Transactional counterpart of `fetch_add`; returns the previous
    /// value. This is what the paper's "Max" stage replaces memcached's
    /// `lock incr` reference counting with.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    fn fetch_add(&mut self, c: &'env TCell<u64>, delta: u64) -> Result<u64, Abort>
    where
        Self: Sized,
    {
        self.modify(c, |v| v.wrapping_add(delta))
    }

    /// Transactional counterpart of `fetch_sub`; returns the previous
    /// value.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    fn fetch_sub(&mut self, c: &'env TCell<u64>, delta: u64) -> Result<u64, Abort>
    where
        Self: Sized,
    {
        self.modify(c, |v| v.wrapping_sub(delta))
    }

    /// Transactionally reads one byte of a [`TBytes`].
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn read_byte(&mut self, b: &'env TBytes, i: usize) -> Result<u8, Abort>
    where
        Self: Sized,
    {
        assert!(i < b.len(), "TBytes index {i} out of bounds ({})", b.len());
        let (wi, sh) = TBytes::locate(i);
        Ok((self.read_word(b.word(wi))? >> sh) as u8)
    }

    /// Transactionally writes one byte of a [`TBytes`] (read-merge-write of
    /// the containing word — the byte-granularity logging cost the paper
    /// attributes to `memcpy` under buffered-update algorithms).
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn write_byte(&mut self, b: &'env TBytes, i: usize, v: u8) -> Result<(), Abort>
    where
        Self: Sized,
    {
        assert!(i < b.len(), "TBytes index {i} out of bounds ({})", b.len());
        let (wi, sh) = TBytes::locate(i);
        let w = self.read_word(b.word(wi))?;
        let merged = (w & !(0xffu64 << sh)) | ((v as u64) << sh);
        self.write_word(b.word(wi), merged)
    }

    /// Transactional bulk read from a [`TBytes`] window into `dst`.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if `offset + dst.len() > b.len()`.
    fn read_bytes(&mut self, b: &'env TBytes, offset: usize, dst: &mut [u8]) -> Result<(), Abort>
    where
        Self: Sized,
    {
        assert!(
            offset.checked_add(dst.len()).is_some_and(|e| e <= b.len()),
            "TBytes range {offset}..{} out of bounds ({})",
            offset + dst.len(),
            b.len()
        );
        let mut i = 0;
        while i < dst.len() {
            let (wi, sh) = TBytes::locate(offset + i);
            let first = (sh / 8) as usize;
            let n = (8 - first).min(dst.len() - i);
            let bytes = self.read_word(b.word(wi))?.to_le_bytes();
            dst[i..i + n].copy_from_slice(&bytes[first..first + n]);
            i += n;
        }
        Ok(())
    }

    /// Transactional bulk write into a [`TBytes`] window. Whole covered
    /// words are written blind; partial edge words are read-merged.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if `offset + src.len() > b.len()`.
    fn write_bytes(&mut self, b: &'env TBytes, offset: usize, src: &[u8]) -> Result<(), Abort>
    where
        Self: Sized,
    {
        assert!(
            offset.checked_add(src.len()).is_some_and(|e| e <= b.len()),
            "TBytes range {offset}..{} out of bounds ({})",
            offset + src.len(),
            b.len()
        );
        let mut i = 0;
        while i < src.len() {
            let (wi, sh) = TBytes::locate(offset + i);
            let first = (sh / 8) as usize;
            let n = (8 - first).min(src.len() - i);
            let mut bytes = if n == 8 {
                [0u8; 8]
            } else {
                self.read_word(b.word(wi))?.to_le_bytes()
            };
            bytes[first..first + n].copy_from_slice(&src[i..i + n]);
            self.write_word(b.word(wi), u64::from_le_bytes(bytes))?;
            i += n;
        }
        Ok(())
    }

    /// Transactional bulk copy of `src` into a [`TBytes`] window: the
    /// word-granular counterpart of a `memcpy` from private memory. Whole
    /// covered words cost one log entry each (written blind); the partial
    /// head/tail words, if any, are read-merged at byte granularity.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    ///
    /// # Panics
    ///
    /// Panics if `offset + src.len() > b.len()`.
    fn copy_from_slice(&mut self, b: &'env TBytes, offset: usize, src: &[u8]) -> Result<(), Abort>
    where
        Self: Sized,
    {
        self.write_bytes(b, offset, src)
    }

    /// Reads an entire [`TBytes`] buffer into a fresh `Vec`.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] on conflict.
    fn read_bytes_vec(&mut self, b: &'env TBytes) -> Result<Vec<u8>, Abort>
    where
        Self: Sized,
    {
        let mut v = vec![0u8; b.len()];
        self.read_bytes(b, 0, &mut v)?;
        Ok(v)
    }

    /// Convenience wrapper over [`Transaction::on_commit_boxed`].
    fn on_commit(&mut self, f: impl FnOnce() + 'env)
    where
        Self: Sized,
    {
        self.on_commit_boxed(Box::new(f));
    }

    /// Convenience wrapper over [`Transaction::on_abort_boxed`].
    fn on_abort(&mut self, f: impl FnOnce() + 'env)
    where
        Self: Sized,
    {
        self.on_abort_boxed(Box::new(f));
    }
}

/// Shared state of one transaction attempt. The log buffers (and the
/// backing storage of the handler vectors) live in `arena`, the thread's
/// reusable allocation pool; `run_loop` threads it through every attempt
/// and returns it to the thread-local cache when the transaction finishes.
pub(crate) struct TxInner<'env> {
    pub(crate) rt: &'env RtInner,
    pub(crate) id: u64,
    pub(crate) engine: Engine,
    pub(crate) arena: Box<Arena>,
    pub(crate) irrevocable: bool,
    /// Read-only fast lane: the attempt was opened through `atomic_ro` /
    /// `relaxed_ro` and has not written yet. While set, no orec is ever
    /// acquired and no undo/redo entry exists; the first write clears it
    /// (in-flight promotion to a full read-write transaction).
    pub(crate) ro: bool,
    pub(crate) holds_read: bool,
    pub(crate) holds_write: bool,
    pub(crate) commit_handlers: Vec<Box<dyn FnOnce() + 'env>>,
    pub(crate) abort_handlers: Vec<Box<dyn FnOnce() + 'env>>,
}

impl<'env> TxInner<'env> {
    #[inline]
    pub(crate) fn read_word(&mut self, w: &'env TWord) -> Result<u64, Abort> {
        self.engine.read_word(self.rt, &mut self.arena.logs, w.addr())
    }

    #[inline]
    pub(crate) fn write_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort> {
        if self.ro {
            // In-flight promotion: from here on this attempt is a full
            // read-write transaction. The read set gathered so far stays
            // valid (it is the same invisible-read log either way), so
            // promotion costs exactly one branch plus a stat.
            self.ro = false;
            self.arena.logs.stats.bump(Counter::ro_promotions);
        }
        self.engine.write_word(self.rt, &mut self.arena.logs, w.addr(), v)
    }

    /// GCC's in-flight switch to serial-irrevocable mode.
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if the switch-time validation fails; the attempt
    /// must then abort and retry.
    ///
    /// # Panics
    ///
    /// Panics if the runtime was built with [`SerialLockMode::None`]: with
    /// the serial lock removed (paper §4), serialization is impossible and
    /// requesting it is a programming error.
    pub(crate) fn become_irrevocable(&mut self) -> Result<(), Abort> {
        if self.irrevocable {
            return Ok(());
        }
        match self.rt.serial_mode {
            SerialLockMode::None => panic!(
                "serialization requested but the serial lock was removed \
                 (SerialLockMode::None): a NoLock runtime must contain no \
                 relaxed transactions that reach unsafe operations"
            ),
            SerialLockMode::ReaderWriter => {
                // Leaving the fast lane without a data write: serial mode
                // runs uninstrumented and may do anything, so the RO
                // invariants no longer hold. Not counted as a promotion —
                // `in_flight_switch` already records this transition.
                self.ro = false;
                // Upgrade without letting go: a release-then-acquire would
                // let another switcher run its whole serial section in the
                // gap, with direct stores that move no orec this attempt's
                // validation could see. The loser of a race restarts.
                debug_assert!(self.holds_read);
                if !self.rt.serial.write_upgrade() {
                    self.arena.logs.stats.bump(Counter::failed_switches);
                    return Err(Abort::Conflict);
                }
                // Held from here on, so the abort path releases it even if
                // the switch-time validation panics.
                self.holds_read = false;
                self.holds_write = true;
                match self.engine.make_irrevocable(self.rt, &mut self.arena.logs) {
                    Ok(()) => {
                        self.irrevocable = true;
                        self.arena.logs.stats.bump(Counter::in_flight_switch);
                        Ok(())
                    }
                    Err(e) => {
                        self.release_serial();
                        self.arena.logs.stats.bump(Counter::failed_switches);
                        Err(e)
                    }
                }
            }
        }
    }

    /// Releases whichever side of the serial lock this attempt holds.
    pub(crate) fn release_serial(&mut self) {
        if self.holds_write {
            self.rt.serial.write_release();
            self.holds_write = false;
        } else if self.holds_read {
            self.rt.serial.read_release();
            self.holds_read = false;
        }
    }
}

impl std::fmt::Debug for TxInner<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TxInner")
            .field("id", &self.id)
            .field("irrevocable", &self.irrevocable)
            .finish_non_exhaustive()
    }
}

macro_rules! impl_transaction {
    ($ty:ident) => {
        impl<'env> Transaction<'env> for $ty<'env> {
            #[inline]
            fn read_word(&mut self, w: &'env TWord) -> Result<u64, Abort> {
                self.0.read_word(w)
            }
            #[inline]
            fn write_word(&mut self, w: &'env TWord, v: u64) -> Result<(), Abort> {
                self.0.write_word(w, v)
            }
            fn on_commit_boxed(&mut self, f: Box<dyn FnOnce() + 'env>) {
                self.0.commit_handlers.push(f);
            }
            fn on_abort_boxed(&mut self, f: Box<dyn FnOnce() + 'env>) {
                self.0.abort_handlers.push(f);
            }
        }
    };
}

/// A `__transaction_atomic` body: statically unable to perform unsafe
/// operations, and therefore guaranteed never to force serialization
/// (beyond the contention policy) — the paper's "performance model".
// INVARIANT: repr(transparent) over TxInner — the attempt loop in
// runtime.rs reinterprets &mut TxInner as &mut AtomicTx (wrap_mut) so it
// keeps ownership of the transaction state across catch_unwind and can
// tear it down after a panic.
#[derive(Debug)]
#[repr(transparent)]
pub struct AtomicTx<'env>(pub(crate) TxInner<'env>);

/// A `__transaction_relaxed` body: may call [`RelaxedTx::unsafe_op`], which
/// serializes the transaction (GCC's in-flight switch) before running
/// arbitrary code.
// INVARIANT: repr(transparent) over TxInner — see AtomicTx.
#[derive(Debug)]
#[repr(transparent)]
pub struct RelaxedTx<'env>(pub(crate) TxInner<'env>);

impl_transaction!(AtomicTx);
impl_transaction!(RelaxedTx);

impl<'env> AtomicTx<'env> {
    /// Reinterprets a `&mut TxInner` as a `&mut AtomicTx` for the body
    /// closure while `run_loop` retains ownership of the `TxInner`.
    #[inline]
    pub(crate) fn wrap_mut<'a>(inner: &'a mut TxInner<'env>) -> &'a mut AtomicTx<'env> {
        // SAFETY: AtomicTx is repr(transparent) over TxInner, so the
        // layouts are identical and the lifetimes are carried unchanged.
        unsafe { &mut *(inner as *mut TxInner<'env> as *mut AtomicTx<'env>) }
    }
}

impl<'env> RelaxedTx<'env> {
    /// Reinterprets a `&mut TxInner` as a `&mut RelaxedTx`; see
    /// [`AtomicTx::wrap_mut`].
    #[inline]
    pub(crate) fn wrap_mut<'a>(inner: &'a mut TxInner<'env>) -> &'a mut RelaxedTx<'env> {
        // SAFETY: RelaxedTx is repr(transparent) over TxInner.
        unsafe { &mut *(inner as *mut TxInner<'env> as *mut RelaxedTx<'env>) }
    }
}

impl<'env> RelaxedTx<'env> {
    /// Performs an *unsafe operation* — I/O, a volatile/atomic access, a
    /// call into uninstrumented code. If the transaction is not already
    /// irrevocable it first switches to serial-irrevocable mode, draining
    /// all concurrent transactions (the scalability hazard the paper
    /// quantifies).
    ///
    /// # Errors
    ///
    /// [`Abort::Conflict`] if switch-time validation fails (the attempt
    /// retries; `f` is *not* run).
    ///
    /// # Panics
    ///
    /// Panics on a runtime built with [`SerialLockMode::None`].
    pub fn unsafe_op<R>(&mut self, f: impl FnOnce() -> R) -> Result<R, Abort> {
        self.0.become_irrevocable()?;
        Ok(f())
    }

    /// Whether this transaction is already serial-irrevocable.
    pub fn is_irrevocable(&self) -> bool {
        self.0.irrevocable
    }
}
