//! A counting global allocator for zero-allocation assertions.
//!
//! Wraps the system allocator and counts every allocation (and growing
//! reallocation) per thread, so a test can prove a steady-state code path
//! performs no heap allocation at all:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: testkit::alloc::Counting = testkit::alloc::Counting;
//!
//! #[test]
//! fn steady_state_is_allocation_free() {
//!     warm_up();
//!     let before = testkit::alloc::thread_allocs();
//!     hot_path();
//!     assert_eq!(testkit::alloc::thread_allocs() - before, 0);
//! }
//! ```
//!
//! The counter is thread-local (const-initialized, so reading it never
//! allocates and is safe inside the allocator itself), which keeps
//! measurements immune to allocations on other test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Number of allocations (`alloc`, `alloc_zeroed`, and growing `realloc`
/// calls) made by the current thread since it started, when [`Counting`]
/// is installed as the global allocator. Measure deltas around the code
/// under test.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

#[inline]
fn count_one() {
    // `try_with`: the allocator can be called during thread teardown after
    // the TLS slot is destroyed; losing those counts is fine.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

/// The counting allocator; install with `#[global_allocator]`. Defers all
/// actual work to [`System`].
#[derive(Debug, Default, Clone, Copy)]
pub struct Counting;

// SAFETY: defers verbatim to `System`, which upholds the GlobalAlloc
// contract; the TLS counter bump performs no allocation (const-initialized
// Cell) and so cannot reenter the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            count_one();
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Note: these tests exercise the counter helpers; the allocator itself
    // is installed (and asserted against) by `tm`'s
    // `tests/zero_alloc.rs` integration test, since only one global
    // allocator can exist per binary.

    #[test]
    fn thread_allocs_starts_readable() {
        let a = thread_allocs();
        let b = thread_allocs();
        assert!(b >= a);
    }

    #[test]
    fn count_one_increments() {
        let before = thread_allocs();
        count_one();
        assert_eq!(thread_allocs(), before + 1);
    }
}
