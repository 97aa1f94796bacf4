//! # rb-core — the RANBooster middlebox framework
//!
//! RANBooster is a middlebox architecture for the O-RAN fronthaul: a
//! middlebox intercepts C-plane and U-plane traffic between one or more DUs
//! and RUs (an N-to-M mapping) and processes each packet with four
//! primitive actions (paper §3.2.1):
//!
//! * **A1** — packet redirection and drop ([`actions`]);
//! * **A2** — packet replication ([`actions`]);
//! * **A3** — packet caching keyed by symbol and antenna stream ([`cache`]);
//! * **A4** — payload inspection and modification (exposed through
//!   `rb_fronthaul`'s `UPlaneRepr`/`CPlaneRepr` plus helpers in
//!   [`actions`]).
//!
//! Middleboxes are written against the templated [`middlebox::Middlebox`]
//! trait (paper §3.2.2): implement two handlers (C-plane, U-plane), declare
//! the per-packet [`rb_netsim::cost::Work`] you perform, and the framework
//! supplies packet parsing/serialization, the symbol cache, sequence-number
//! management, telemetry ([`telemetry`]) and the runtime-updatable
//! forwarding rules of the management interface ([`mgmt`]).
//!
//! [`host::MiddleboxHost`] adapts any `Middlebox` into a
//! [`rb_netsim::engine::Node`], charging its CPU ledger per packet so the
//! same middlebox code yields both functional results and the
//! DPDK-vs-XDP utilization measurements of the paper's Figure 16.
//! [`chain`] wires middleboxes behind SR-IOV virtual functions
//! (paper Figure 8). Every map the frame path reads per frame is a
//! [`hash::StreamMap`] (per-stream state) or a [`hash::FrameMap`].

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// The manifest denies clippy's panic-vector lints crate-wide; unit tests are
// exempt — asserting and unwrapping is what tests are for.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)
)]

pub use rb_hotpath_macros::rb_hot_path;

pub mod actions;
pub mod cache;
pub mod chain;
pub mod hash;
pub mod host;
pub mod mgmt;
pub mod middlebox;
pub mod pipeline;
pub mod sync;
pub mod telemetry;
