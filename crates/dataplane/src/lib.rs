//! # rb-dataplane — the RANBooster real-time execution runtime
//!
//! The simulator (`rb-netsim` + `rb-core`'s `MiddleboxHost`) answers *what
//! does this middlebox do to a flow*; this crate answers *how fast can it
//! do it on real packet I/O*. The same unmodified
//! [`rb_core::middlebox::Middlebox`] implementations run here on worker
//! threads fed by an RSS-style dispatcher, mirroring how the paper's
//! middleboxes run on DPDK/XDP cores behind the fronthaul switch (§3.3):
//!
//! * [`io`] — the [`io::FrameIo`] backend abstraction with batched rx
//!   *and* tx: pcap replay, an in-process loopback pair for tests, and
//!   (behind the non-default `af_packet` feature) a live-NIC Linux
//!   `AF_PACKET` backend batching via `recvmmsg`/`sendmmsg`, with the
//!   zero-copy AF_XDP slot reserved behind the same trait;
//! * [`dispatch`] — a cheap header peek (eAxC id + direction bit, no full
//!   parse) hashed onto N workers so every flow keeps per-flow ordering;
//! * [`ring`] — bounded SPSC rings between dispatcher and workers with a
//!   drop-oldest overload policy: the dispatcher never blocks, drops are
//!   counted per ring;
//! * [`pool`] — free-list buffer pools: frame payloads are
//!   [`pool::PooledBuf`]s that recycle themselves on drop, so the steady
//!   state datapath allocates nothing per frame;
//! * [`worker`] — the per-core loop: batched dequeue into the shared
//!   `MbPipeline` (the exact code path the simulator runs);
//! * [`runtime`] — assembles the above, drives I/O from the caller's
//!   thread and drains everything on shutdown;
//! * [`stats`] — per-worker counters plus batch-size / queue-depth
//!   histograms, exported over `rb_core::telemetry` and mergeable at
//!   join time so aggregation never shares a counter across threads;
//! * [`chaos`] — a deterministic fault-injection wrapper over any
//!   backend: seeded drop / duplicate / reorder / truncate / corrupt /
//!   jitter plus timed outages, replayable from a `(seed, config)` pair;
//! * [`bond`] — two backends bonded into one link: duplicate-and-dedup
//!   (a permanent single-link outage costs zero frames) or DWRR byte
//!   striping for aggregate capacity.

#![deny(missing_docs)]
// Safety wall: without the live-NIC backend, `unsafe` is unconditionally
// forbidden. The `af_packet` feature lowers the gate to `deny` so exactly
// the one audited FFI island — `afpacket` — can opt out with a scoped
// `allow`; everything else in the crate still cannot.
#![cfg_attr(not(feature = "af_packet"), forbid(unsafe_code))]
#![cfg_attr(feature = "af_packet", deny(unsafe_code))]
// The manifest denies clippy's panic-vector lints crate-wide; unit tests are
// exempt — asserting and unwrapping is what tests are for.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)
)]

#[cfg(feature = "af_packet")]
pub mod afpacket;
pub mod bond;
pub mod chaos;
pub mod dispatch;
pub mod io;
pub mod pool;
pub mod ring;
pub mod runtime;
pub mod stats;
pub mod sync;
pub mod worker;

#[cfg(feature = "af_packet")]
pub use afpacket::{AfPacketConfig, AfPacketIo, AfPacketStats};
pub use bond::{BondMode, BondStats, BondedIo};
pub use chaos::{ChaosConfig, ChaosIo, ChaosStats, Impairments, Outage};
pub use io::{FrameIo, Loopback, PcapReplay, RawFrame, RxPoll};
pub use pool::{BufferPool, PooledBuf};
pub use runtime::{Runtime, RuntimeConfig, RuntimeReport};
