//! # rb-bench — the RANBooster evaluation, regenerated
//!
//! One experiment module per table/figure of the paper's evaluation
//! (§6, §7, appendices). Each exposes `run(quick) -> Report`; the
//! [`report::Report`] prints the same rows/series the paper plots.
//! Absolute numbers come from the emulated testbed (see DESIGN.md for
//! the substitutions), so the *shape* — who wins, by what factor, where
//! crossovers fall — is the reproduction target.
//!
//! Run everything:
//!
//! ```sh
//! cargo run --release -p rb-bench --bin repro -- --all
//! cargo run --release -p rb-bench --bin repro -- fig10a table2 fig16
//! ```
//!
//! Criterion microbenchmarks (`cargo bench -p rb-bench`) cover the hot
//! packet-processing paths behind Figures 15b and the compression
//! ablations.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;
pub mod report;
