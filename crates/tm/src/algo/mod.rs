//! The STM algorithm engines evaluated in the paper's §4 (Figure 11).
//!
//! * [`orec_tx`] — the orec engine behind both orec algorithms: GCC's
//!   default *eager* (encounter-time orec locking, write-through, undo log)
//!   and the paper's *Lazy* (the same orec table, buffered redo-log updates,
//!   commit-time locking). The two differ only in [`Engine::write_word`].
//! * [`norec`] — NOrec \[Dalessandro et al., PPoPP 2010\]: no ownership
//!   records at all; a single global sequence lock plus value-based
//!   validation.
//!
//! Engines operate on raw word addresses. The public API (`Tx<'env>`)
//! guarantees every address passed in outlives the transaction, so the
//! internal `usize -> &TWord` casts are sound.

pub mod norec;
pub mod orec_tx;

use crate::arena::LogBufs;
use crate::cell::TWord;
use crate::error::Abort;
use crate::runtime::RtInner;

/// Which algorithm a runtime uses for instrumented transactions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Algorithm {
    /// GCC default: encounter-time locking, write-through, undo log.
    #[default]
    Eager,
    /// Commit-time locking over the same orec table, redo log.
    Lazy,
    /// Global sequence lock + value-based validation, redo log.
    Norec,
}

impl std::fmt::Display for Algorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Algorithm::Eager => write!(f, "gcc-eager"),
            Algorithm::Lazy => write!(f, "lazy"),
            Algorithm::Norec => write!(f, "norec"),
        }
    }
}

/// Reinterprets a stored word address. Soundness: addresses enter engines
/// only through `Tx<'env>` methods whose signatures force the referent to
/// outlive the transaction.
#[inline]
pub(crate) fn tword_at<'a>(addr: usize) -> &'a TWord {
    unsafe { &*(addr as *const TWord) }
}

/// Per-attempt algorithm state.
#[derive(Debug)]
pub(crate) enum Engine {
    Eager(orec_tx::OrecTx),
    Lazy(orec_tx::OrecTx),
    Norec(norec::NorecTx),
    /// Uninstrumented direct access: serial-irrevocable transactions.
    Serial,
}

impl Engine {
    pub(crate) fn begin(rt: &RtInner, tx_id: u64) -> Engine {
        match rt.algorithm {
            Algorithm::Eager => Engine::Eager(orec_tx::OrecTx::begin(rt, tx_id)),
            Algorithm::Lazy => Engine::Lazy(orec_tx::OrecTx::begin(rt, tx_id)),
            Algorithm::Norec => Engine::Norec(norec::NorecTx::begin(rt)),
        }
    }

    #[inline]
    pub(crate) fn read_word(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
    ) -> Result<u64, Abort> {
        match self {
            Engine::Eager(e) | Engine::Lazy(e) => e.read_word(rt, bufs, addr),
            Engine::Norec(e) => e.read_word(rt, bufs, addr),
            Engine::Serial => Ok(tword_at(addr).load_direct()),
        }
    }

    #[inline]
    pub(crate) fn write_word(
        &mut self,
        rt: &RtInner,
        bufs: &mut LogBufs,
        addr: usize,
        v: u64,
    ) -> Result<(), Abort> {
        match self {
            // The one step where the orec algorithms differ: eager takes
            // the orec now and writes in place.
            Engine::Eager(e) => e.write_through(rt, bufs, addr, v),
            // Buffered update: the write lands in the redo log and is
            // published at commit.
            Engine::Lazy(_) | Engine::Norec(_) => {
                bufs.redo_record(addr, v);
                Ok(())
            }
            Engine::Serial => {
                tword_at(addr).store_direct(v);
                Ok(())
            }
        }
    }

    /// True if this attempt has written nothing (read-only commit path).
    pub(crate) fn is_read_only(&self, bufs: &LogBufs) -> bool {
        match self {
            Engine::Eager(e) | Engine::Lazy(e) => e.is_read_only(bufs),
            Engine::Norec(e) => e.is_read_only(bufs),
            Engine::Serial => false,
        }
    }

    /// Attempts to commit. On `Err` the engine has already rolled back.
    ///
    /// On success returns the attempt's *commit stamp*: a position in the
    /// runtime's global time base (versioned clock for eager/lazy, sequence
    /// lock for norec) such that any two committed transactions with
    /// overlapping write sets carry stamps ordered consistently with their
    /// real-time commit order. Read-only commits reuse their snapshot. A
    /// serial-irrevocable attempt has no engine stamp; `commit_point` mints
    /// one while still holding the serial lock exclusively.
    pub(crate) fn commit(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<u64, Abort> {
        match self {
            Engine::Eager(e) | Engine::Lazy(e) => e.commit(rt, bufs),
            Engine::Norec(e) => e.commit(rt, bufs),
            Engine::Serial => Ok(0),
        }
    }

    /// Rolls back an attempt that will not commit. Must leave no lock
    /// held: this is also the panic-recovery path, invoked while an
    /// unwind is in flight.
    pub(crate) fn rollback(&mut self, rt: &RtInner, bufs: &mut LogBufs) {
        match self {
            Engine::Eager(e) | Engine::Lazy(e) => e.rollback(rt, bufs),
            Engine::Norec(e) => e.rollback(rt, bufs),
            // Serial-irrevocable effects are uninstrumented direct writes;
            // there is nothing to undo (documented: like a panic inside a
            // lock-based critical section).
            Engine::Serial => {}
        }
    }

    /// Upgrades to irrevocable mode. The caller must already hold the
    /// serial lock exclusively (all other transactions drained). On success
    /// the engine has published every buffered effect and `self` becomes
    /// [`Engine::Serial`]; on failure the attempt must be aborted.
    pub(crate) fn make_irrevocable(&mut self, rt: &RtInner, bufs: &mut LogBufs) -> Result<(), Abort> {
        match self {
            Engine::Eager(e) | Engine::Lazy(e) => e.make_irrevocable(rt, bufs)?,
            Engine::Norec(e) => e.make_irrevocable(rt, bufs)?,
            Engine::Serial => return Ok(()),
        }
        *self = Engine::Serial;
        Ok(())
    }
}
