//! A counting global allocator for the test binaries that gate heap
//! allocations (`zero_alloc`, `budgets`). Each binary installs its own
//! (`#[global_allocator] static A: Counting = Counting;` — integration
//! tests are separate binaries), and it counts per thread, so the cases of
//! one binary can run in parallel without seeing each other.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations and reallocations made by this thread. `const`-initialised
    /// and without a destructor, so touching it never allocates itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes those allocations asked for (a reallocation counts its new
    /// size).
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

pub struct Counting;

/// Allocations and reallocations this thread has made so far.
pub fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread's allocations and reallocations have asked for so far.
#[allow(dead_code)] // one of the two binaries sharing this file measures bytes
pub fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

fn count(bytes: usize) {
    // A thread being torn down has no counter left; nothing measures there.
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is two thread-local
// counter bumps that neither allocate nor unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are passed on as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}
