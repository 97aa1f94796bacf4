//! # rb-perf — the repository's benchmark
//!
//! Four workloads (`workload`), each taken through set-up, output
//! verification, a single-threaded service-time loop, a closed-loop
//! saturation run and an open-loop paced run (`phases`), driven by a
//! bench-owned `FrameIo` (`gen`); a traced run (`trace`) attributes the
//! time to this repository's layers from outside, by timing calls into
//! their public functions. `metrics` is the registry `BENCHMARK.json` is
//! printed from; `report` and `compare` write and read result files.
//!
//! README.md in this directory is the manual.

pub mod alloc;
pub mod compare;
pub mod gen;
pub mod host;
pub mod json;
pub mod metrics;
pub mod phases;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workload;
