//! Regression: `TelemetrySender::{count, gauge}` built the record's name
//! `String` before checking for a receiver, so the disconnected sender
//! every pipeline starts with paid one heap allocation per call (the DAS
//! makes one per uplink merge). A binary of its own because the counting
//! allocator is process-wide.

// Test code is exempt from the crate's panic-vector denies.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use rb_core::telemetry::{self, TelemetrySender};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Only the measuring thread counts: the test harness's own threads
    // allocate whenever they like.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

struct Counting;

// SAFETY: defers every request unchanged to `System`; the only addition is
// a relaxed counter bump and a read of a const-initialised, destructor-free
// thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.load(Ordering::Relaxed) - before
}

#[test]
fn disconnected_sender_allocates_nothing() {
    let sender = TelemetrySender::disconnected("mb");
    let n = allocations_during(|| {
        for k in 0..100u64 {
            sender.count(k, "ul_merges", 1);
            sender.gauge(k, "pcie_util", 0.5);
        }
    });
    assert_eq!(n, 0, "no receiver, so no record and no name to build");

    // The counter itself works: a connected sender owns its records.
    let (sender, rx) = telemetry::channel("mb");
    let n = allocations_during(|| sender.count(0, "ul_merges", 1));
    assert!(n > 0, "a connected sender builds an owned record");
    assert_eq!(rx.drain().len(), 1);
}
