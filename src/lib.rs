//! # RANBooster — fronthaul middleboxes for advanced cellular connectivity
//!
//! A full Rust reproduction of *RANBooster: Democratizing advanced
//! cellular connectivity through fronthaul middleboxes* (SIGCOMM 2025):
//! the middlebox framework, the four reference applications (DAS, dMIMO,
//! RU sharing, real-time PRB monitoring) and the emulated testbed they
//! are evaluated on.
//!
//! This facade crate re-exports the workspace members and provides
//! [`scenario`] — `Deployment`, the one way a simulated testbed is wired,
//! with presets mirroring the paper's testbed configurations — used by the
//! examples, the integration tests and the `rb-bench` experiment harnesses.
//!
//! ```no_run
//! use ranbooster::scenario::{Deployment, floor_ru_positions};
//! use ranbooster::radio::cell::CellConfig;
//! use ranbooster::radio::channel::Position;
//!
//! // A 100 MHz cell distributed over four RUs with a DAS middlebox:
//! let cell = CellConfig::mhz100(1, 3_460_000_000, 4);
//! let mut dep = Deployment::das(cell, &floor_ru_positions(0));
//! let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
//! let rates = dep.measure_mbps(200, 450);
//! println!("UE {ue}: {:.0} Mbps down / {:.0} Mbps up", rates[ue].0, rates[ue].1);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use rb_apps as apps;
pub use rb_core as core;
pub use rb_dataplane as dataplane;
pub use rb_fronthaul as fronthaul;
pub use rb_netsim as netsim;
pub use rb_radio as radio;
pub use rb_recover as recover;

pub mod scenario;
pub mod scengen;
