//! # rb-netsim — discrete-event fronthaul network simulator
//!
//! The substrate that stands in for the paper's physical testbed network
//! (Arista 100 GbE switch, PTP-synchronized NICs, HPE servers):
//!
//! * [`time`] — simulated nanosecond clock.
//! * [`engine`] — the discrete event engine: nodes, ports, links, timers.
//! * [`switch`] — a MAC-learning Ethernet switch node.
//! * [`nic`] — SR-IOV NIC with virtual functions and an embedded switch,
//!   used to chain middleboxes (paper Figure 8).
//! * [`cost`] — datapath cost models for DPDK and XDP (per-packet cost,
//!   CPU-utilization accounting, slot-deadline checking).
//! * [`power`] — server power model (paper Figure 14).
//! * [`stats`] — the bounded log-linear histogram every sample in the
//!   workspace is summarised by.
//! * [`rng`] — the seeded splitmix64 stream every random draw in the
//!   workspace comes from.
//!
//! Determinism: events at equal timestamps are delivered in insertion
//! order, so a simulation run is reproducible bit-for-bit.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod cost;
pub mod engine;
pub mod nic;
pub mod power;
pub mod rng;
pub mod stats;
pub mod switch;
pub mod time;
