//! # Seeded city-scale scenario generation
//!
//! `scengen` grows [`crate::scenario`]'s hand-built fixtures into a
//! composable generator: a [`ScenarioSpec`] describes a deployment —
//! dozens of DUs, hundreds of RUs across cell / DAS / dMIMO /
//! neutral-host / chained sites, hundreds of moving UEs with
//! SMARTHO-style handover events — and everything downstream is a pure
//! function of `(seed, spec)`:
//!
//! * [`Topology`] — MAC and eAxC layout ([`topo`] documents the
//!   allocation rules that keep the city worker-count independent),
//! * [`EventSchedule`] — the merged, fixed-up handover timeline,
//! * [`Capture`] — the wire frames, bit-identical for equal
//!   `(seed, spec)` on every platform (no `rand` dependency),
//! * [`CityMb`] — the whole city as one runtime-hostable middlebox.
//!
//! ## Determinism contract
//!
//! A capture replayed through [`run_capture`] produces a multiset of
//! output frames and per-stream counters that do not depend on the
//! worker count. Three properties make that hold, and the generator is
//! built around them:
//!
//! 1. every stateful middlebox interaction is scoped to one
//!    `(eAxC raw, direction)` flow — the dataplane's shard key — or to
//!    state that all of a flow's frames reach regardless of sharding;
//! 2. [`CityMb`] routes on the frame alone (source MAC, eAxC raw,
//!    symbol round), never on cross-flow state;
//! 3. the runtime runs [`SeqMode::Preserve`](crate::core::pipeline::SeqMode):
//!    the default restamp mode keeps per-`(dst, eAxC)` counters *per
//!    worker instance*, so its output bytes legitimately depend on how
//!    flows shard — byte-level equivalence is only claimed (and tested)
//!    under `Preserve`.
//!
//! ```no_run
//! use ranbooster::scengen::{Scenario, ScenarioSpec};
//!
//! let scn = Scenario::new(42, ScenarioSpec::city()).unwrap();
//! let capture = scn.capture();
//! let (report, _out) = ranbooster::scengen::run_capture(&scn, &capture, 4).unwrap();
//! assert_eq!(report.worker_failures, 0);
//! ```

pub mod citymb;
pub mod schedule;
pub mod spec;
pub mod topo;
pub mod traffic;

pub use citymb::{CellFwd, ChainMb, CityMb, SiteMb};
pub use schedule::EventSchedule;
pub use spec::{HandoverEvent, ScenarioSpec};
pub use topo::{Site, SiteKind, StreamDef, StreamKind, Topology, Ue};
pub use traffic::{symbol_for_round, Capture};

use rb_core::pipeline::{HostStats, MbPipeline, SeqMode};
use rb_dataplane::io::MemReplay;
use rb_dataplane::runtime::{Runtime, RuntimeConfig, RuntimeReport};

/// A fully laid-out scenario: spec, topology and mobility timeline.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The generating seed.
    pub seed: u64,
    /// The validated spec.
    pub spec: ScenarioSpec,
    /// The deterministic layout.
    pub topo: Topology,
    /// The resolved handover timeline.
    pub schedule: EventSchedule,
}

impl Scenario {
    /// Validate `spec` and lay out the scenario for `seed`.
    pub fn new(seed: u64, spec: ScenarioSpec) -> Result<Scenario, String> {
        spec.validate()?;
        let topo = Topology::build(seed, &spec);
        let schedule = EventSchedule::build(seed, &spec, &topo);
        Ok(Scenario { seed, spec, topo, schedule })
    }

    /// Generate the wire capture.
    pub fn capture(&self) -> Capture {
        traffic::generate(&self.spec, &self.topo, &self.schedule)
    }

    /// Build a fresh city middlebox instance (one per worker).
    ///
    /// Named `city_mb` rather than `middlebox`: the hot-path lint's
    /// name-based call graph would otherwise link
    /// `MbPipeline::middlebox()` call sites on the packet path to this
    /// cold constructor and flag everything `CityMb::build` reaches.
    pub fn city_mb(&self) -> CityMb {
        CityMb::build(&self.spec, &self.topo, &self.schedule)
    }

    /// The runtime configuration the determinism contract is stated
    /// for: gateway MAC, `SeqMode::Preserve`, `workers` threads.
    pub fn runtime_config(&self, workers: usize) -> RuntimeConfig {
        RuntimeConfig::new(self.topo.gateway).with_workers(workers).with_seq_mode(SeqMode::Preserve)
    }
}

/// Replay `capture` through the dataplane runtime on `workers` worker
/// threads; returns the run report and the transmitted frames (in
/// collection order — compare as a multiset across worker counts).
pub fn run_capture(
    scn: &Scenario,
    capture: &Capture,
    workers: usize,
) -> std::io::Result<(RuntimeReport, Vec<Vec<u8>>)> {
    // A memory replay is not paced by timestamps, so a correctness run
    // must make the rings lossless: size them to hold the whole capture
    // (overload shedding has its own tests).
    let cfg = scn
        .runtime_config(workers)
        .with_ring_capacity(capture.frames.len().saturating_add(64).next_power_of_two());
    let mut io = MemReplay::from_bytes(capture.to_pcap())?;
    let report = Runtime::run(&cfg, &mut io, |_| scn.city_mb())?;
    let out = io.take_tx().into_iter().map(|f| f.bytes[..].to_vec()).collect();
    Ok((report, out))
}

/// Replay `capture` through a single in-process [`MbPipeline`] — the
/// zero-concurrency reference the runtime's output is compared against.
/// Returns the emitted frames in order and the pipeline counters.
pub fn reference_run(scn: &Scenario, capture: &Capture) -> (Vec<Vec<u8>>, HostStats) {
    let mut pipeline = MbPipeline::new(scn.city_mb(), scn.topo.gateway);
    pipeline.set_seq_mode(SeqMode::Preserve);
    let mut out = Vec::new();
    let frames = capture.frames.iter().map(|(at_ns, frame)| (*at_ns, frame.as_slice()));
    pipeline.replay(frames, None, &mut |_, bytes: &[u8]| out.push(bytes.to_vec()));
    (out, pipeline.stats)
}
