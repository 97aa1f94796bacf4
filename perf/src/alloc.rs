//! A counting global allocator, so `allocs_per_frame` is measured rather
//! than inferred from pool counters.
//!
//! The type lives in the library; each binary that wants counts installs
//! it with `#[global_allocator]` (the `rb-perf` binary and the smoke
//! test do). Without it [`allocations`] stays 0 and [`installed`] says so.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

// Statistics only: the counts publish no other data, so `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator, counting `alloc` and `realloc` calls
/// from every thread.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter has no effect on the
// memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are exactly `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Heap allocations (including reallocations) made so far by all threads.
pub fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Whether the running binary installed [`CountingAlloc`].
pub fn installed() -> bool {
    let before = allocations();
    drop(std::hint::black_box(Box::new(0u8)));
    allocations() != before
}
