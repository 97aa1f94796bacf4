//! Regressions: a telemetry record costs no heap allocation, whether or
//! not anyone listens. `TelemetrySender::{count, gauge}` once built the
//! record's name `String` before checking for a receiver, and a connected
//! sender built that `String` and cloned its source `String` per record
//! (the DAS makes one per uplink merge). A binary of its own because the
//! counting allocator is process-wide.

// Test code is exempt from the crate's panic-vector denies.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use rb_core::telemetry::{self, TelemetryEvent, TelemetrySender};

thread_local! {
    // Per thread, so each test counts only itself: the harness's own
    // threads and the other test allocate whenever they like.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every request unchanged to `System`; the only addition is
// a bump of and a read of const-initialised, destructor-free thread-locals,
// neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
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
    let before = ALLOCS.with(Cell::get);
    COUNTING.with(|c| c.set(true));
    f();
    COUNTING.with(|c| c.set(false));
    ALLOCS.with(Cell::get) - before
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
    assert_eq!(n, 0, "no receiver, so no record");

    // The counter itself works.
    let n = allocations_during(|| drop(std::hint::black_box(Box::new(0u8))));
    assert_eq!(n, 1);
}

#[test]
fn connected_sender_allocates_nothing_per_record() {
    // A computed source, as the runtime's per-worker senders have.
    let (sender, rx) = telemetry::channel_with_capacity(format!("dp/w{}", 3), 1024);
    let n = allocations_during(|| {
        for k in 0..100u64 {
            sender.count(k, "ul_merges", 1);
            sender.gauge(k, "pcie_util", 0.5);
            sender.emit(
                k,
                TelemetryEvent::PrbUtilization { downlink: true, utilized: 1, total: 273 },
            );
        }
    });
    assert_eq!(n, 0, "static names, a shared source and preallocated slots");
    let got = rx.drain();
    assert_eq!(got.len(), 300);
    assert_eq!(&*got[0].source, "dp/w3");
    assert_eq!(got[0].event, TelemetryEvent::Counter { name: "ul_merges", delta: 1 });
}
