//! Compile-time layout facts for the false-sharing-sensitive structures.
//!
//! The contention story of this runtime rests on a few structures being
//! exactly cache-line shaped: orec stripes (unrelated data blocks never
//! share an orec line), the words every transaction may write — commit
//! clock, NOrec seqlock, serial lock, hourglass gate — each alone on its
//! line, and the per-thread statistics blocks (whole lines only their own
//! threads write). The definitions carry
//! in-source `const` assertions; these public constants re-export
//! the measured layout so the `layout_guard` integration test — and any
//! downstream crate padding its own per-thread slots — can pin them from
//! outside without access to the private types.

use crate::clock::{Clock, SeqLock};
use crate::cm::Hourglass;
use crate::orec::OrecStripe;
use crate::serial::SerialLock;
use crate::stats::StatBlock;

/// The cache-line size every padded structure in this crate targets.
pub const CACHE_LINE: usize = 64;

/// Size in bytes of the commit clock (the timestamp word, padded).
pub const CLOCK_SIZE: usize = std::mem::size_of::<Clock>();

/// Alignment of the commit clock.
pub const CLOCK_ALIGN: usize = std::mem::align_of::<Clock>();

/// Size in bytes of one orec stripe (a full cache line of orecs).
pub const OREC_STRIPE_SIZE: usize = std::mem::size_of::<OrecStripe>();

/// Alignment of one orec stripe.
pub const OREC_STRIPE_ALIGN: usize = std::mem::align_of::<OrecStripe>();

/// Size in bytes of the NOrec sequence lock.
pub const SEQLOCK_SIZE: usize = std::mem::size_of::<SeqLock>();

/// Alignment of the NOrec sequence lock.
pub const SEQLOCK_ALIGN: usize = std::mem::align_of::<SeqLock>();

/// Alignment of the global serial lock (it owns its cache line).
pub const SERIAL_LOCK_ALIGN: usize = std::mem::align_of::<SerialLock>();

/// Alignment of the hourglass gate word (it owns its cache line).
pub const HOURGLASS_ALIGN: usize = std::mem::align_of::<Hourglass>();

/// Per-thread statistics blocks per runtime; a thread flushes its counters
/// into block `thread ordinal % STAT_BLOCKS`.
pub const STAT_BLOCKS: usize = crate::stats::STAT_BLOCKS;

/// Size in bytes of one statistics block (a whole number of cache lines).
pub const STAT_BLOCK_SIZE: usize = std::mem::size_of::<StatBlock>();

/// Alignment of one statistics block.
pub const STAT_BLOCK_ALIGN: usize = std::mem::align_of::<StatBlock>();

/// Whether the runtime's read-mostly configuration words (algorithm,
/// contention manager, serial-lock mode) share no cache line with a
/// word transactions write (serial lock, hourglass gate, clock, seqlock).
/// Also a build-time assertion next to the runtime's definition.
pub const RT_CONFIG_WORDS_ISOLATED: bool = crate::runtime::CONFIG_WORDS_ISOLATED;
