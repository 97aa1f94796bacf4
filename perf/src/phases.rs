//! The phases one workload goes through, and the numbers each yields.
//!
//! ```text
//! setup     build the working set, construct the pipeline, run one warm-up
//!           cycle, timed piece by piece — repeated before every round and
//!           after the last; `setup_s` is the quiet cycle of the pieces
//! verify    one cycle through `Runtime::run` into a hashing sink; the
//!           output multiset must equal a single-threaded `MbPipeline`
//!           reference, or the run is incorrect and reports no metrics
//! svc       closed loop, one client, no queue: the caller feeds frames
//!           one at a time to `MbPipeline::process` (Fig 15b's quantity)
//! sat       closed loop, window W: `Runtime::run`, one worker, a frame is
//!           released only while the ingress pool has a free buffer
//! paced     open loop at the workload's frozen `rate_fps`: one symbol
//!           burst per period on a wall-clock schedule, latency from due
//!           time to `tx_batch`
//! trace     (traced runs only) the hand-assembled worker path with a
//!           span around every call into a layer — see `trace`
//! ```
//!
//! setup → svc → sat → paced is one *round* of about five seconds, and a run
//! is as many rounds as fit `--seconds`. Every phase cuts the replay cycle
//! into pieces about a millisecond long, measures each piece every time it
//! comes round, in every round, and reports the quiet cycle
//! (`stats::QuietCycle`): each piece's quiet level over its repetitions,
//! added up.
//!
//! One process, two threads: the caller (generator + dispatcher +
//! collector, which is how `Runtime::run` works) and one worker.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use rb_core::middlebox::Middlebox;
use rb_core::pipeline::{HostStats, MbPipeline};
use rb_dataplane::runtime::{Runtime, RuntimeConfig, RuntimeReport};
use rb_dataplane::stats::WorkerStats;
use rb_netsim::time::SimTime;

use crate::gen::{frame_hash, BurstLatency, Generator, Pace, Replayer, Sink, Stop};
use crate::stats::{LatencyHist, QuietCycle, QUIET};
use crate::trace::{self, Trace};
use crate::workload::{self, Kind, Size, WorkingSet, Workload, LAP_BYTES, MAPPING, RING_CAPACITY};
use crate::{alloc, host};

/// Seconds of one round of set-up → svc → sat → paced. Every metric's
/// samples are spread over all rounds of a run, so a spell of the host
/// shorter than the run leaves each of them some quiet repetitions.
const ROUND_SECONDS: f64 = 5.0;

/// `process` time a piece of the service-time phase should take, at the
/// speed of the warm-up cycle: long enough that the two clock reads around
/// it cost it a thousandth, short enough that pieces often pass between two
/// disturbances. The saturation phase, whose piece ends are seen by polling,
/// takes twice that.
const PIECE_NS: f64 = 500_000.0;

/// Most set-ups one round makes, however short they are.
const MAX_SETUPS: usize = 16;

/// The runtime's receive/dequeue batch (its default).
pub const BATCH: usize = 32;

/// How long each phase of one run lasts.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Working-set size.
    pub size: Size,
    /// Rounds of set-up → svc → sat → paced.
    pub rounds: u32,
    /// Per round, set-up is repeated until this much time is spent (once
    /// at least before the first round, where its products are used).
    pub setup: Duration,
    /// Service-time phase, per round.
    pub svc: Duration,
    /// Saturation phase, per round.
    pub sat: Duration,
    /// Paced phase, per round.
    pub paced: Duration,
    /// Start of every `Runtime::run` that is left out of the numbers:
    /// pools grow to their working size and the allocator settles.
    pub warm: Duration,
    /// Frames of the traced pass; `None` leaves tracing off.
    pub trace_frames: Option<u64>,
    /// Share of the workload's frozen `rate_fps` the paced phase offers:
    /// 1 in every measured run; the smoke size, which also runs in
    /// unoptimised test builds, offers a fiftieth.
    pub paced_rate_share: f64,
}

impl Plan {
    /// `seconds` cut into rounds; every round gives each phase its share.
    fn shares(seconds: f64, setup: f64, svc: f64, sat: f64, paced: f64) -> Plan {
        let rounds = (seconds / ROUND_SECONDS).round().max(1.0);
        let per_round = |share: f64| Duration::from_secs_f64(seconds * share / rounds);
        Plan {
            size: Size::Full,
            rounds: rounds as u32,
            setup: per_round(setup),
            svc: per_round(svc),
            sat: per_round(sat),
            paced: per_round(paced),
            warm: Duration::from_millis(100),
            trace_frames: None,
            paced_rate_share: 1.0,
        }
    }

    /// An untraced run measuring for `seconds` in total: the end-to-end
    /// metrics come from this. (The twentieth not shared out is `verify`
    /// and starting and stopping the runtime twice per round.)
    pub fn untraced(seconds: f64) -> Plan {
        Plan::shares(seconds, 0.10, 0.20, 0.30, 0.35)
    }

    /// A traced run measuring for `seconds` in total: shorter timed
    /// phases (their numbers feed `dataplane.overhead_ns` and the queue
    /// histograms), one set-up, and the traced pass, which fills the
    /// per-layer table.
    pub fn traced(seconds: f64) -> Plan {
        Plan { trace_frames: Some(20_000), ..Plan::shares(seconds, 0.0, 0.20, 0.20, 0.25) }
    }

    /// A seconds-long run over tiny working sets, for the tests.
    pub fn smoke(traced: bool) -> Plan {
        Plan {
            size: Size::Smoke,
            rounds: 1,
            setup: Duration::ZERO,
            svc: Duration::from_millis(80),
            sat: Duration::from_millis(80),
            paced: Duration::from_millis(150),
            warm: Duration::from_millis(10),
            trace_frames: traced.then_some(300),
            paced_rate_share: 0.02,
        }
    }
}

/// What one run of one workload produced.
pub struct Outcome {
    /// The workload.
    pub kind: Kind,
    /// Input frames offered to the program in the `verify`, `sat` and
    /// `paced` phases (those run the whole program; failures are counted
    /// against them).
    pub attempted: u64,
    /// Frames that failed: shed by a ring, refused by the sink, dropped by
    /// a parse/emit error or a rule, or due but never offered.
    pub failed: u64,
    /// Every metric this run measured, by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Sample counts and other remarks for the human-readable report.
    pub notes: Vec<String>,
    /// Outputs that differed from the reference and conservation
    /// identities that did not hold; empty for a correct run.
    pub errors: Vec<String>,
    /// The spans of the traced pass, when there was one.
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Every output matched the reference and every conservation
    /// identity held.
    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Counts an application keeps that must repeat exactly per seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppCounts {
    /// Uplink merges performed.
    pub merges: u64,
    /// Merges forced with a radio missing (expected 0).
    pub partial_merges: u64,
}

/// Run `kind` from `seed` through the phases of `plan`.
pub fn run(kind: Kind, seed: u64, plan: &Plan) -> Outcome {
    fn das_counts(s: rb_apps::das::DasStats) -> AppCounts {
        AppCounts { merges: s.ul_merges, partial_merges: s.ul_partial_merges }
    }
    match kind {
        Kind::FwdSmall => {
            run_with(kind, seed, plan, |_| workload::passthrough(), |_| AppCounts::default())
        }
        Kind::DasDl | Kind::DasUl => {
            run_with(kind, seed, plan, |_| workload::das(), |mb| das_counts(mb.stats))
        }
        Kind::CityMix => run_with(
            kind,
            seed,
            plan,
            |wl| wl.scenario.as_ref().expect("city_mix carries its scenario").city_mb(),
            |mb| das_counts(mb.das_stats_sum()),
        ),
    }
}

/// A pipeline configured the way `Runtime::run` configures its workers'.
pub fn pipeline<M: Middlebox>(wl: &Workload, mb: M) -> MbPipeline<M> {
    let mut p = MbPipeline::new(mb, wl.mac);
    p.set_mapping(MAPPING);
    p.set_seq_mode(wl.kind.seq_mode());
    p
}

fn runtime_config(wl: &Workload) -> RuntimeConfig {
    RuntimeConfig::new(wl.mac)
        .with_workers(1)
        .with_ring_capacity(RING_CAPACITY)
        .with_seq_mode(wl.kind.seq_mode())
}

/// Release cap per poll: what the collector's one batch per poll can
/// carry away again at the workload's largest fan-out.
fn per_call(wl: &Workload) -> usize {
    (BATCH / wl.kind.max_fanout()).max(1)
}

fn closed_pace(wl: &Workload) -> Pace {
    Pace::Closed { window: wl.window(), per_call: per_call(wl) }
}

/// Everything set-up leaves behind for the phases.
struct Ready<M: Middlebox> {
    wl: Workload,
    pipeline: MbPipeline<M>,
    replay: Replayer,
    /// Nanoseconds per frame of the warm-up cycle: sizes the pieces.
    warm_ns_per_frame: f64,
}

/// One set-up: the working set, the pipeline, one warm-up cycle. Returns
/// what it made and the nanoseconds each piece of the work took, on the
/// thread's CPU clock (`host::busy_ns`): the pieces of building the working
/// set (`Workload::build_in_laps`), constructing the pipeline, and the
/// warm-up cycle in pieces of [`LAP_BYTES`] of frames. The same pieces in
/// the same order every time.
fn setup<M: Middlebox>(
    kind: Kind,
    seed: u64,
    size: Size,
    make: &impl Fn(&Workload) -> M,
) -> (Ready<M>, Vec<f64>) {
    let mut laps = vec![host::busy_ns()];
    let mut wl = Workload::build_in_laps(kind, seed, size, &mut || laps.push(host::busy_ns()));
    let mut pipeline = pipeline(&wl, make(&wl));
    let mut replay = Replayer::new(&wl.ws);
    laps.push(host::busy_ns());
    let warm_from = laps.len() - 1;
    let mut start = 0;
    for end in wl.ws.pieces(|_, bytes| bytes >= LAP_BYTES) {
        for _ in start..end {
            let idx = replay.next_in_place(&mut wl.ws);
            pipeline.process(SimTime(0), &wl.ws.frames[idx].bytes, &mut |b: &[u8]| {
                black_box(b.len());
            });
        }
        start = end;
        laps.push(host::busy_ns());
    }
    let warm_ns = laps[laps.len() - 1] - laps[warm_from];
    let warm_ns_per_frame = warm_ns as f64 / wl.ws.frames.len() as f64;
    let pieces = laps.windows(2).map(|w| (w[1] - w[0]) as f64).collect();
    (Ready { wl, pipeline, replay, warm_ns_per_frame }, pieces)
}

/// The set-ups of one run, piece by piece.
#[derive(Default)]
struct Setups {
    quiet: QuietCycle,
    made: usize,
}

impl Setups {
    fn record(&mut self, pieces: &[f64]) {
        if self.made == 0 {
            self.quiet = QuietCycle::new(pieces.iter().map(|_| 1.0));
        }
        assert_eq!(pieces.len(), self.quiet.len(), "set-up is the same pieces every time");
        for (piece, &ns) in pieces.iter().enumerate() {
            self.quiet.record(piece, ns);
        }
        self.made += 1;
    }

    /// One round's set-ups: repeated until `plan.setup` is spent, at least
    /// `at_least` times. Returns the last one's products.
    fn round<M: Middlebox>(
        &mut self,
        kind: Kind,
        seed: u64,
        plan: &Plan,
        make: &impl Fn(&Workload) -> M,
        at_least: usize,
    ) -> Option<Ready<M>> {
        let start = Instant::now();
        let mut last = None;
        for made in 0..MAX_SETUPS {
            if made >= at_least && start.elapsed() >= plan.setup {
                break;
            }
            drop(last.take()); // one spare working set resident at a time
            let (ready, pieces) = setup(kind, seed, plan.size, make);
            self.record(&pieces);
            last = Some(ready);
        }
        last
    }
}

/// The single-threaded reference of one cycle.
struct Reference {
    hashes: Vec<u64>,
    stats: HostStats,
    counts: AppCounts,
}

fn reference<M: Middlebox>(
    wl: &mut Workload,
    mb: M,
    counts: &impl Fn(&M) -> AppCounts,
) -> Reference {
    let mut p = pipeline(wl, mb);
    let mut replay = Replayer::new(&wl.ws);
    let mut hashes = Vec::new();
    for _ in 0..wl.ws.frames.len() {
        let idx = replay.next_in_place(&mut wl.ws);
        p.process(SimTime(0), &wl.ws.frames[idx].bytes, &mut |b: &[u8]| hashes.push(frame_hash(b)));
    }
    hashes.sort_unstable();
    Reference { hashes, stats: p.stats, counts: counts(p.middlebox()) }
}

/// Failures a runtime report admits to, and the conservation identities
/// it must satisfy. Returns `(failed frames, violated identities)`.
fn audit(report: &RuntimeReport, gen: &Generator<'_>) -> (u64, Vec<String>) {
    let p = report.pipeline_totals();
    let failed = report.in_ring_dropped
        + report.out_ring_dropped
        + report.io_tx_errors
        + p.parse_errors
        + p.not_for_us
        + p.rule_drops
        + p.emit_errors
        + gen.never_offered;
    let mut broken = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            broken.push(what);
        }
    };
    check(report.worker_failures == 0, format!("{} worker(s) panicked", report.worker_failures));
    check(
        report.rx_frames == gen.released && report.dispatched == report.rx_frames,
        format!(
            "released {} != rx {} != dispatched {}",
            gen.released, report.rx_frames, report.dispatched
        ),
    );
    check(
        p.rx + report.in_ring_dropped == report.dispatched,
        format!(
            "pipeline rx {} + ingress shed {} != dispatched {}",
            p.rx, report.in_ring_dropped, report.dispatched
        ),
    );
    check(
        gen.transmitted == report.tx_frames,
        format!("sink saw {} frames, runtime sent {}", gen.transmitted, report.tx_frames),
    );
    for (w, c) in report.workers.iter().zip(&report.collectors) {
        check(
            c.collected + w.stats.tx_ring_dropped == w.stats.tx
                && c.collected == c.tx_frames + c.io_tx_errors,
            format!(
                "worker {}: collected {} + shed {} != tx {} (sent {} + errors {})",
                w.id, c.collected, w.stats.tx_ring_dropped, w.stats.tx, c.tx_frames, c.io_tx_errors
            ),
        );
    }
    (failed, broken)
}

/// Add a run's loss and growth counters to the per-layer totals (the sat
/// and paced phases both contribute).
fn count_shed(metrics: &mut BTreeMap<&'static str, f64>, report: &RuntimeReport) {
    for (name, v) in [
        ("dataplane.pool_grows", report.worker_totals().pool_grows),
        ("dataplane.in_ring_dropped", report.in_ring_dropped),
        ("dataplane.out_ring_dropped", report.out_ring_dropped),
        ("dataplane.io_tx_errors", report.io_tx_errors),
    ] {
        *metrics.entry(name).or_insert(0.0) += v as f64;
    }
}

/// Book one `Runtime::run` under `phase`: the frames it was offered, the
/// frames that failed, the identities that did not hold.
fn book(out: &mut Outcome, phase: &str, report: &RuntimeReport, gen: &Generator<'_>) {
    let (failed, broken) = audit(report, gen);
    out.attempted += gen.released + gen.never_offered;
    out.failed += failed;
    out.errors.extend(broken.into_iter().map(|b| format!("{phase}: {b}")));
}

fn run_with<M: Middlebox + Send>(
    kind: Kind,
    seed: u64,
    plan: &Plan,
    make: impl Fn(&Workload) -> M,
    counts: impl Fn(&M) -> AppCounts,
) -> Outcome {
    let mut out = Outcome {
        kind,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        notes: Vec::new(),
        errors: Vec::new(),
        trace: None,
    };
    if host::nproc() < 2 {
        out.notes.push(
            "host has 1 hardware thread: caller and worker time-share it, sat and paced \
             numbers describe the scheduler"
                .into(),
        );
    }

    // -- setup, before the first round -----------------------------------
    let mut setups = Setups::default();
    let Ready { mut wl, mut pipeline, mut replay, warm_ns_per_frame } =
        setups.round(kind, seed, plan, &make, 1).expect("at least one set-up was asked for");
    out.metrics.insert("scengen.capture_build_s", wl.capture_build_s);
    out.metrics.insert("scengen.frames", wl.ws.frames.len() as f64);
    out.metrics.insert("scengen.streams", wl.ws.streams as f64);
    let cycle = wl.ws.frames.len() as u64;

    // -- verify --------------------------------------------------------
    let mb = make(&wl);
    let reference = reference(&mut wl, mb, &counts);
    if let Some(scn) = &wl.scenario {
        // The city has a reference of its own; ours must agree with it,
        // which also proves the replayer reproduces the capture.
        let (frames, _) = ranbooster::scengen::reference_run(scn, &scn.capture());
        let mut theirs: Vec<u64> = frames.iter().map(|f| frame_hash(f)).collect();
        theirs.sort_unstable();
        if theirs != reference.hashes {
            out.errors.push("verify: reference differs from scengen::reference_run".into());
        }
    }
    {
        let mut gen = Generator::new(
            &wl.ws,
            closed_pace(&wl),
            Stop::Frames(cycle),
            Sink::Hashes(Vec::with_capacity(reference.hashes.len())),
        );
        gen.start();
        let report = Runtime::run(&runtime_config(&wl), &mut gen, |_| make(&wl))
            .expect("spawning one worker thread");
        book(&mut out, "verify", &report, &gen);
        let Sink::Hashes(mut got) = std::mem::replace(&mut gen.sink, Sink::Discard) else {
            unreachable!("the verify sink hashes");
        };
        got.sort_unstable();
        if got != reference.hashes {
            out.errors.push(format!(
                "verify: runtime output multiset ({} frames) differs from the single-threaded \
                 reference ({} frames)",
                got.len(),
                reference.hashes.len()
            ));
        }
        if report.pipeline_totals() != reference.stats {
            out.errors.push("verify: runtime pipeline counters differ from the reference".into());
        }
    }
    out.metrics.insert("apps.emits_per_frame", reference.hashes.len() as f64 / cycle as f64);
    out.metrics.insert("apps.merges", reference.counts.merges as f64);
    out.metrics.insert("apps.partial_merges", reference.counts.partial_merges as f64);
    if reference.counts.partial_merges > 0 {
        out.failed += reference.counts.partial_merges;
    }
    let s = reference.stats;
    for (name, v) in [
        ("core.parse_errors", s.parse_errors),
        ("core.not_for_us", s.not_for_us),
        ("core.rule_drops", s.rule_drops),
        ("core.emit_errors", s.emit_errors),
    ] {
        out.metrics.insert(name, v as f64);
    }
    if !out.errors.is_empty() {
        return out; // no metrics from a program whose output is wrong
    }

    // -- the rounds: svc → sat → paced → setup ---------------------------
    let mut svc = ServiceTime::new(&wl.ws, warm_ns_per_frame);
    let mut sat = Saturation::new(&wl.ws, warm_ns_per_frame);
    let mut paced = Paced::new(&wl, plan);
    for round in 0..plan.rounds {
        svc.round(&mut wl, &mut pipeline, &mut replay, plan.svc);
        sat.round(&wl, &make, plan, &mut out);
        paced.round(&wl, &make, plan, &mut out);
        if round == 0 {
            // Memory is read once every phase has run and before a second
            // working set is built beside the measured one.
            if let Some(rss) = host::peak_rss_mib() {
                out.metrics.insert("peak_rss_mib", rss);
            }
        }
        drop(setups.round(kind, seed, plan, &make, 0));
    }
    drop(pipeline);

    let svc_mean_ns = svc.quiet.per_weight(QUIET).unwrap_or(0.0);
    out.metrics.insert("svc_mean_ns", svc_mean_ns);
    out.metrics.insert("svc_p99_ns", svc.calls.quantile(0.99));
    out.metrics.insert("core.seq_gaps", svc.seq_gaps as f64);
    out.metrics.insert("core.seq_dups", svc.seq_dups as f64);
    out.notes.push(format!(
        "svc: {} frames; mean = quiet cycle of {} pieces, each timed {}..{} times (p{:.0}); p99 \
         of {} timed calls ({} beyond it); the timed cycles were on a CPU for {:.1} % of their \
         wall time",
        svc.frames,
        svc.quiet.len(),
        svc.quiet.repetitions().0,
        svc.quiet.repetitions().1,
        QUIET * 100.0,
        svc.calls.count(),
        svc.calls.samples_beyond(0.99),
        svc.cpu_ns as f64 * 100.0 / svc.wall_ns.max(1) as f64
    ));

    // Where no piece came round undisturbed even once (the smoke size),
    // the whole phase's average.
    let sat_fps = match sat.quiet.per_weight(QUIET) {
        Some(ns_per_frame) => 1e9 / ns_per_frame,
        None => sat.frames as f64 * 1e9 / sat.ns.max(1) as f64,
    };
    out.metrics.insert("sat_frames_per_s", sat_fps);
    if sat_fps > 0.0 {
        out.metrics.insert("dataplane.overhead_ns", 1e9 / sat_fps - svc_mean_ns);
    }
    if alloc::installed() {
        out.metrics.insert("allocs_per_frame", sat.allocs as f64 / sat.frames.max(1) as f64);
    }
    out.notes.push(format!(
        "sat: {} frames in, {} out, window W = {}; quiet cycle of {} pieces, each timed {}..{} \
         times (p{:.0}), {} more timings set aside (piece end seen late); whole phase {:.0} \
         frames/s",
        sat.released,
        sat.transmitted,
        wl.window(),
        sat.quiet.len(),
        sat.quiet.repetitions().0,
        sat.quiet.repetitions().1,
        QUIET * 100.0,
        sat.set_aside,
        sat.frames as f64 * 1e9 / sat.ns.max(1) as f64,
    ));

    let all = &paced.latency.all;
    let p50_ns = paced.latency.medians.per_weight(QUIET).unwrap_or_else(|| all.quantile(0.50));
    out.metrics.insert("paced_lat_p50_us", p50_ns / 1e3);
    out.metrics.insert("paced_lat_p99_us", all.quantile(0.99) / 1e3);
    out.metrics.insert("harness.gen_late_p99_us", paced.lateness.quantile(0.99) / 1e3);
    out.metrics.insert("dataplane.batch_mean", paced.workers.batch_size.mean());
    out.metrics
        .insert("dataplane.queue_depth_p50", paced.workers.queue_depth.quantile_bound(0.50) as f64);
    out.metrics
        .insert("dataplane.queue_depth_p99", paced.workers.queue_depth.quantile_bound(0.99) as f64);
    out.notes.push(format!(
        "paced: open loop at {:.0} frames/s ({} frames per burst every {:.1} us), {} frames in, {} \
         latency samples ({} beyond p99, whole-phase median {:.1} us); p50 = mean over the {} \
         burst positions of the burst's median, each seen {}..{} times (p{:.0})",
        kind.rate_fps() * plan.paced_rate_share,
        wl.ws.frames.len() / wl.ws.burst_ends.len(),
        paced.period_ns as f64 / 1e3,
        paced.released,
        all.count(),
        all.samples_beyond(0.99),
        all.quantile(0.50) / 1e3,
        paced.latency.medians.len(),
        paced.latency.medians.repetitions().0,
        paced.latency.medians.repetitions().1,
        QUIET * 100.0,
    ));

    out.metrics.insert(
        "fail_share",
        if out.attempted > 0 { out.failed as f64 / out.attempted as f64 } else { 0.0 },
    );

    // -- harness probes and the traced pass ------------------------------
    let calib = host::calib_ns();
    out.metrics.insert("harness.calib_ns", calib);
    out.metrics.insert("harness.clock_ns", host::clock_ns());
    out.metrics.insert("svc_mean_calib", svc_mean_ns / calib);
    if let Some(frames) = plan.trace_frames {
        let traced = trace::run(&wl, &make, frames, svc_mean_ns);
        for (name, v) in &traced.metrics {
            out.metrics.insert(name, *v);
        }
        out.notes.extend(traced.notes.iter().cloned());
        out.trace = Some(traced.trace);
    }

    let setup_ns = setups.quiet.total(QUIET).unwrap_or(0.0);
    out.metrics.insert("setup_s", setup_ns / 1e9);
    out.notes.push(format!(
        "setup: quiet cycle of {} pieces over {} set-ups spread over the run (p{:.0} of each)",
        setups.quiet.len(),
        setups.made,
        QUIET * 100.0,
    ));
    out
}

/// Piece ends for a phase whose pieces should take `ns` at the warm-up
/// cycle's speed.
fn pieces_of(ws: &WorkingSet, warm_ns_per_frame: f64, ns: f64) -> Vec<usize> {
    let min_frames = (ns / warm_ns_per_frame.max(1.0)).ceil() as usize;
    ws.pieces(|frames, _| frames >= min_frames)
}

/// The `svc` phase. Cycles alternate between two ways of timing the same
/// loop, because each spoils the other's number: three in four are timed
/// piece by piece on the thread's CPU clock (`host::busy_ns`), two reads
/// per piece, for the mean; every fourth reads the wall clock around every
/// `process` call, which the p99 needs.
struct ServiceTime {
    /// For every piece of the cycle, the index one past its last frame.
    ends: Vec<usize>,
    /// On-CPU nanoseconds of each piece, every time it was timed.
    quiet: QuietCycle,
    /// Every individually timed call.
    calls: LatencyHist,
    frames: u64,
    cycles: u64,
    /// On-CPU and wall nanoseconds of the piece-timed cycles: their ratio
    /// says how much of the phase the host withheld.
    cpu_ns: u64,
    wall_ns: u64,
    /// The pipeline's sequence findings after the last round (expected 0).
    seq_gaps: u64,
    seq_dups: u64,
}

impl ServiceTime {
    fn new(ws: &WorkingSet, warm_ns_per_frame: f64) -> ServiceTime {
        let ends = pieces_of(ws, warm_ns_per_frame, PIECE_NS);
        ServiceTime {
            quiet: QuietCycle::new(WorkingSet::piece_frames(&ends)),
            ends,
            calls: LatencyHist::new(),
            frames: 0,
            cycles: 0,
            cpu_ns: 0,
            wall_ns: 0,
            seq_gaps: 0,
            seq_dups: 0,
        }
    }

    /// Closed loop, one client, no queue: whole cycles for `duration`, and
    /// at least one of each kind.
    fn round<M: Middlebox>(
        &mut self,
        wl: &mut Workload,
        pipeline: &mut MbPipeline<M>,
        replay: &mut Replayer,
        duration: Duration,
    ) {
        let mut sink = |b: &[u8]| {
            black_box(b.len());
        };
        let deadline = Instant::now() + duration;
        let until = self.cycles + 2;
        while self.cycles < until || Instant::now() < deadline {
            debug_assert_eq!(replay.position(), 0, "rounds run whole cycles");
            if self.cycles % 4 == 1 {
                for _ in 0..wl.ws.frames.len() {
                    let idx = replay.next_in_place(&mut wl.ws);
                    let bytes = &wl.ws.frames[idx].bytes;
                    let t0 = Instant::now();
                    pipeline.process(SimTime(0), bytes, &mut sink);
                    self.calls.record(t0.elapsed().as_nanos() as u64);
                }
            } else {
                let wall = Instant::now();
                let first = host::busy_ns();
                let (mut last, mut start) = (first, 0);
                for (piece, &end) in self.ends.iter().enumerate() {
                    for _ in start..end {
                        let idx = replay.next_in_place(&mut wl.ws);
                        pipeline.process(SimTime(0), &wl.ws.frames[idx].bytes, &mut sink);
                    }
                    let now = host::busy_ns();
                    self.quiet.record(piece, (now - last) as f64);
                    (last, start) = (now, end);
                }
                self.cpu_ns += last - first;
                self.wall_ns += wall.elapsed().as_nanos() as u64;
            }
            self.frames += wl.ws.frames.len() as u64;
            self.cycles += 1;
        }
        self.seq_gaps = pipeline.stats.seq_gaps;
        self.seq_dups = pipeline.stats.seq_dups;
    }
}

/// The `sat` phase: per-piece times and counts of all its rounds.
struct Saturation {
    /// For every piece of the cycle, the index one past its last frame.
    ends: Vec<usize>,
    /// Wall nanoseconds the program took over each piece, every time the
    /// piece's two ends were both seen on time.
    quiet: QuietCycle,
    /// Timings left out because an end was seen late.
    set_aside: u64,
    /// Frames completed, nanoseconds and heap allocations after warm-up.
    frames: u64,
    ns: u64,
    allocs: u64,
    released: u64,
    transmitted: u64,
}

impl Saturation {
    fn new(ws: &WorkingSet, warm_ns_per_frame: f64) -> Saturation {
        let ends = pieces_of(ws, warm_ns_per_frame, 2.0 * PIECE_NS);
        Saturation {
            quiet: QuietCycle::new(WorkingSet::piece_frames(&ends)),
            ends,
            set_aside: 0,
            frames: 0,
            ns: 0,
            allocs: 0,
            released: 0,
            transmitted: 0,
        }
    }

    /// Closed loop, window W, one worker, for `plan.sat`.
    fn round<M: Middlebox + Send>(
        &mut self,
        wl: &Workload,
        make: &impl Fn(&Workload) -> M,
        plan: &Plan,
        out: &mut Outcome,
    ) {
        let mut gen = Generator::new(&wl.ws, closed_pace(wl), Stop::After(plan.sat), Sink::Discard)
            .with_pieces(self.ends.clone());
        gen.start();
        let report = Runtime::run(&runtime_config(wl), &mut gen, |_| make(wl))
            .expect("spawning one worker thread");
        book(out, "sat", &report, &gen);
        count_shed(&mut out.metrics, &report);
        self.released += gen.released;
        self.transmitted += gen.transmitted;

        let warm_ns = plan.warm.as_nanos() as u64;
        let warm = gen.checkpoints.iter().take_while(|c| c.ns < warm_ns).count();
        let cps = &gen.checkpoints[warm.min(gen.checkpoints.len() - 1)..];
        let (first, last) = (cps[0], cps[cps.len() - 1]);
        self.frames += last.completed - first.completed;
        self.ns += last.ns - first.ns;
        self.allocs += last.allocs - first.allocs;
        let piece_frames: Vec<f64> = WorkingSet::piece_frames(&self.ends).collect();
        for w in cps.windows(2) {
            let (a, b) = (w[0], w[1]);
            let dt = b.ns - a.ns;
            // The caller sees a piece end at its next poll. An end seen
            // more than a fiftieth of the piece late (the caller was
            // descheduled, or several pieces ended at once) would lengthen
            // this timing and shorten the next by as much.
            if b.boundary != a.boundary + 1 || a.gap_ns.max(b.gap_ns) > dt / 50 {
                self.set_aside += 1;
                continue;
            }
            // Frames that went through the whole program in `dt`: the
            // fewer of those released and those completed, so a backlog
            // being drained (or built up) does not count as speed.
            let through = (b.completed - a.completed).min(b.released - a.released);
            if through == 0 {
                self.set_aside += 1;
                continue;
            }
            let piece = ((b.boundary - 1) % self.ends.len() as u64) as usize;
            self.quiet.record(piece, dt as f64 * piece_frames[piece] / through as f64);
        }
    }
}

/// The `paced` phase: latencies and histograms of all its rounds.
struct Paced {
    /// Nanoseconds between symbol bursts.
    period_ns: u64,
    /// Every latency sample, and each burst position's medians.
    latency: BurstLatency,
    /// Every frame's release lateness.
    lateness: LatencyHist,
    /// The workers' batch-size and queue-depth histograms.
    workers: WorkerStats,
    released: u64,
}

impl Paced {
    fn new(wl: &Workload, plan: &Plan) -> Paced {
        let period_ns = (wl.burst_period_ns() as f64 / plan.paced_rate_share) as u64;
        Paced {
            period_ns,
            latency: Paced::sink(wl, period_ns, plan),
            lateness: LatencyHist::new(),
            workers: WorkerStats::default(),
            released: 0,
        }
    }

    fn sink(wl: &Workload, period_ns: u64, plan: &Plan) -> BurstLatency {
        BurstLatency::new(period_ns, wl.ws.burst_ends.len(), plan.warm.as_nanos() as u64)
    }

    /// Open loop at the workload's frozen rate, one worker, for
    /// `plan.paced`.
    fn round<M: Middlebox + Send>(
        &mut self,
        wl: &Workload,
        make: &impl Fn(&Workload) -> M,
        plan: &Plan,
        out: &mut Outcome,
    ) {
        let mut gen = Generator::new(
            &wl.ws,
            Pace::Open { period_ns: self.period_ns, window: wl.window(), per_call: per_call(wl) },
            Stop::After(plan.paced),
            Sink::Latency(Paced::sink(wl, self.period_ns, plan)),
        );
        gen.start();
        let report = Runtime::run(&runtime_config(wl), &mut gen, |_| make(wl))
            .expect("spawning one worker thread");
        book(out, "paced", &report, &gen);
        count_shed(&mut out.metrics, &report);
        let Sink::Latency(lat) = &gen.sink else { unreachable!("the paced sink times") };
        self.latency.absorb(lat);
        self.lateness.merge(&gen.lateness);
        self.workers.merge(&report.worker_totals());
        self.released += gen.released;
    }
}
