//! Error and control-flow types for transactions.

use std::error::Error;
use std::fmt;

/// Why a transaction body is unwinding.
///
/// Transactional reads and writes return `Result<_, Abort>`; user code
/// propagates with `?`. [`Abort::Conflict`] is produced by the runtime and
/// triggers a retry; [`Abort::Cancelled`] is the Draft C++ TM
/// Specification's `transaction_cancel`, produced by [`crate::cancel`],
/// which rolls the transaction back *without* retrying.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Abort {
    /// The runtime detected a conflict; the attempt will be rolled back and
    /// retried.
    Conflict,
    /// The program requested `transaction_cancel`: roll back and return
    /// control without retrying. Only atomic transactions may cancel.
    Cancelled,
}

impl fmt::Display for Abort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Abort::Conflict => write!(f, "transaction conflict"),
            Abort::Cancelled => write!(f, "transaction cancelled"),
        }
    }
}

impl Error for Abort {}

/// Returned by [`crate::TmRuntime::try_atomic`] when the transaction body
/// cancelled itself (the `transaction_cancel` statement of the Draft C++ TM
/// Specification).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Cancelled;

impl fmt::Display for Cancelled {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "transaction cancelled by transaction_cancel")
    }
}

impl Error for Cancelled {}

/// Requests `transaction_cancel`: undo this transaction's effects and
/// return [`Cancelled`] from [`crate::TmRuntime::try_atomic`].
///
/// # Examples
///
/// ```
/// use tm::{TCell, TmRuntime, Transaction};
///
/// let rt = TmRuntime::default_runtime();
/// let c = TCell::new(0u32);
/// let r: Result<(), _> = rt.try_atomic(|tx| {
///     tx.write(&c, 99)?;
///     tm::cancel() // roll the write back
/// });
/// assert!(r.is_err());
/// assert_eq!(c.load_direct(), 0);
/// ```
pub fn cancel<R>() -> Result<R, Abort> {
    Err(Abort::Cancelled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(Abort::Conflict.to_string(), "transaction conflict");
        assert_eq!(Abort::Cancelled.to_string(), "transaction cancelled");
        assert!(Cancelled.to_string().contains("transaction_cancel"));
    }

    #[test]
    fn cancel_returns_cancelled() {
        let r: Result<(), Abort> = cancel();
        assert_eq!(r, Err(Abort::Cancelled));
    }
}
