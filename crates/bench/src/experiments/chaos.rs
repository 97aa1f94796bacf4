//! `chaos` — middlebox behaviour under fronthaul impairment, measured
//! with the deterministic `ChaosIo` fault layer.
//!
//! Two questions the paper's middleboxes must answer before anyone puts
//! them inline on a live fronthaul:
//!
//! 1. **Degradation**: when the transport loses, reorders or corrupts
//!    frames, does the DAS merge path degrade gracefully (bounded partial
//!    merges, accurate gap/corruption accounting) instead of stalling?
//!    A (loss, reorder) sweep replays the same seq-stamped uplink capture
//!    through `ChaosIo` and records the pipeline's sequence-gap,
//!    duplicate and corruption counters plus the DAS partial-merge count
//!    at each point.
//! 2. **Recovery**: when a DU fails outright, how long until the
//!    resilience middlebox has the standby serving? A scripted permanent
//!    outage measures watchdog failover latency against its budget.
//!
//! Every impairment schedule derives from a fixed seed, so the whole
//! experiment is bit-reproducible; results land in
//! `results/BENCH_chaos.json`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use ranbooster::scengen::symbol_for_round;
use rb_apps::arq::{ArqReceiver, ArqSender};
use rb_apps::das::{Das, DasConfig};
use rb_apps::fec::{FecDecoderMb, FecEncoderMb};
use rb_apps::resilience::{Resilience, ResilienceConfig, WATCHDOG_TICK};
use rb_core::cache::SymbolCache;
use rb_core::chain;
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::pipeline::MbPipeline;
use rb_core::telemetry::{channel, TelemetryEvent, TelemetrySender};
use rb_dataplane::bond::{BondMode, BondedIo};
use rb_dataplane::chaos::{ChaosConfig, ChaosIo, Impairments, Outage};
use rb_dataplane::io::{FrameIo, Loopback, MemReplay, RawFrame, RxPoll};
use rb_dataplane::runtime::{Runtime, RuntimeConfig};
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::pcap::PcapWriter;
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;
use rb_netsim::rng::SplitMix64;
use rb_netsim::time::{SimDuration, SimTime};
use rb_recover::fec::FecConfig;

use crate::report::Report;

/// All impairment schedules derive from this seed.
const SEED: u64 = 42;
/// eAxC ports in the capture.
const PORTS: u8 = 8;
/// Constant bit-corruption probability at every impaired sweep point
/// (exercises the `frames_corrupt` accounting). The all-zero point stays
/// genuinely fault-free so it pins the baseline: a corrupted frame that
/// fails to parse is invisible to the sequence tracker and therefore
/// opens a gap, so corruption alone would already make `seq_gaps`
/// non-zero.
const CORRUPT: f64 = 0.01;
/// DAS uplink merge horizon, in symbols: a symbol missing one RU's
/// contribution is flushed partially once its stream is this far past it.
const MERGE_WINDOW: u64 = 4;
/// The (loss, reorder) sweep grid.
const SWEEP: &[(f64, f64)] =
    &[(0.0, 0.0), (0.01, 0.0), (0.05, 0.0), (0.10, 0.0), (0.0, 0.05), (0.01, 0.05)];

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn das() -> Das {
    Das::new(
        "das-chaos",
        DasConfig { mb_mac: mac(10), du_mac: mac(1), ru_macs: vec![mac(21), mac(22)] },
    )
    .with_merge_window(MERGE_WINDOW)
}

/// A PRB of the test pattern `(i, k + q0)`.
fn test_prb(i: i16, q0: i16) -> Prb {
    let mut prb = Prb::ZERO;
    for (k, s) in prb.0.iter_mut().enumerate() {
        *s = IqSample::new(i, k as i16 + q0);
    }
    prb
}

/// A DL C-plane frame to the middlebox at `mac(10)`.
fn cplane(src: EthernetAddress, port: u8, seq: u8, sym: SymbolId, num_prb: u16) -> FhMessage {
    let section = SectionFields::data(0, 0, num_prb, 1);
    let body = CPlaneRepr::single(Direction::Downlink, sym, CompressionMethod::BFP9, section);
    FhMessage::new(src, mac(10), Eaxc::port(port), seq, Body::CPlane(body))
}

/// A one-section BFP9 UL U-plane frame carrying `prbs` at symbol `round` (counted from the start of the run).
fn uplane(
    (src, dst): (EthernetAddress, EthernetAddress),
    port: u8,
    seq: u8,
    round: u32,
    prbs: &[Prb],
) -> FhMessage {
    let section = USection::from_prbs(0, 0, prbs, CompressionMethod::BFP9).expect("section fits");
    let body = UPlaneRepr::single(Direction::Uplink, symbol_for_round(round), section);
    FhMessage::new(src, dst, Eaxc::port(port), seq, Body::UPlane(body))
}

/// The replay capture: per symbol and eAxC port, one DL C-plane frame
/// from the DU and one UL U-plane frame from each RU. Unlike the
/// simulator workloads, every stream carries real per-(src, eAxC)
/// sequence numbers, so dropped and duplicated frames show up in the
/// pipeline's `seq_gaps` / `seq_dups` counters rather than as noise.
fn capture(rounds: u32) -> (Vec<u8>, u64) {
    let mapping = EaxcMapping::DEFAULT;
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory pcap header");
    let mut seq: HashMap<(EthernetAddress, u8), u8> = HashMap::new();
    let mut stamp = |src: EthernetAddress, port: u8| -> u8 {
        let s = seq.entry((src, port)).or_insert(0);
        let v = *s;
        *s = s.wrapping_add(1);
        v
    };
    let mut frames_in = 0u64;
    // One frame per microsecond, the first at 1 µs.
    let mut put = |msg: FhMessage| {
        frames_in += 1;
        w.write_frame(frames_in * 1_000, &msg.to_bytes(&mapping).expect("serialize"))
            .expect("write to memory");
    };
    let prbs = [test_prb(70, -6); 4];
    for round in 0..rounds {
        for p in 0..PORTS {
            put(cplane(mac(1), p, stamp(mac(1), p), symbol_for_round(round), 50));
            for ru in [mac(21), mac(22)] {
                put(uplane((ru, mac(10)), p, stamp(ru, p), round, &prbs));
            }
        }
    }
    (w.finish().expect("finish in-memory pcap"), frames_in)
}

/// One sweep point's outcome.
struct Point {
    drop: f64,
    reorder: f64,
    frames_in: u64,
    processed: u64,
    emitted: u64,
    rx_dropped: u64,
    rx_reordered: u64,
    rx_corrupted: u64,
    seq_gaps: u64,
    seq_dups: u64,
    frames_corrupt: u64,
    partial_merges: u64,
}

/// Replay the capture through a chaos-impaired 1-worker runtime. One
/// worker keeps the run fully deterministic (and matches this host); the
/// worker-count independence of the rx impairment schedule is asserted by
/// the equivalence suite, not re-measured here.
fn measure(cap: &[u8], frames_in: u64, drop: f64, reorder: f64) -> Point {
    let corrupt = if drop == 0.0 && reorder == 0.0 { 0.0 } else { CORRUPT };
    let mut chaos = ChaosConfig::new(SEED);
    chaos.rx = Impairments { drop, reorder, reorder_window: 4, corrupt, ..Impairments::NONE };
    let mut io = ChaosIo::new(MemReplay::from_bytes(cap.to_vec()).expect("valid capture"), chaos);
    let (tx, rx) = channel("chaos-bench");
    let cfg = RuntimeConfig::new(mac(10)).with_ring_capacity(1 << 15).with_telemetry(tx);
    let report = Runtime::run(&cfg, &mut io, |_| das()).expect("replay never fails");
    assert_eq!(report.worker_failures, 0, "no worker may panic under impairment");
    let totals = report.pipeline_totals();
    let partial_merges = rx
        .drain()
        .iter()
        .filter_map(|r| match &r.event {
            TelemetryEvent::Counter { name, delta } if *name == "das_partial_merge" => Some(*delta),
            _ => None,
        })
        .sum();
    let stats = io.stats();
    Point {
        drop,
        reorder,
        frames_in,
        processed: totals.rx,
        emitted: report.tx_frames,
        rx_dropped: stats.rx.dropped,
        rx_reordered: stats.rx.reordered,
        rx_corrupted: stats.rx.corrupted,
        seq_gaps: totals.seq_gaps,
        seq_dups: totals.seq_dups,
        frames_corrupt: totals.frames_corrupt,
        partial_merges,
    }
}

/// Which recovery middleboxes guard the lossy hop.
#[derive(Debug, Clone, Copy)]
pub struct Scheme {
    /// Row label in the report.
    pub name: &'static str,
    /// An ARQ sender/receiver pair brackets the hop.
    pub arq: bool,
    /// An FEC encoder/decoder pair brackets the hop.
    pub fec: bool,
}

const SCHEMES: &[Scheme] = &[
    Scheme { name: "baseline", arq: false, fec: false },
    Scheme { name: "arq", arq: true, fec: false },
    Scheme { name: "fec", arq: false, fec: true },
    Scheme { name: "arq+fec", arq: true, fec: true },
];

/// The recovery (loss, reorder) grid — each point runs every scheme.
const RECOVERY_SWEEP: &[(f64, f64)] = &[(0.01, 0.0), (0.05, 0.0), (0.05, 0.05)];

/// FEC geometry of the recovery sweep: 8 data frames, 2 parity lanes.
const FEC_WINDOW: u8 = 8;
const FEC_DEPTH: u8 = 2;

/// Stage addresses of the recovery chain, left to right, and the sink
/// behind it.
const ARQ_TX: u8 = 30;
const FEC_ENC: u8 = 31;
const LINK: u8 = 35;
const FEC_DEC: u8 = 32;
const ARQ_RX: u8 = 33;
const SINK: u8 = 40;
/// Surviving crossings a reordered frame is held back for.
const REORDER_HOLD: usize = 4;

/// The impaired hop as a chain stage: a seeded wire towards `next` that
/// drops what crosses it, or holds it back for reordering.
struct LossyLink {
    next: EthernetAddress,
    rng: SplitMix64,
    drop: f64,
    reorder: f64,
    // (surviving crossings still to pass, frame)
    holdback: Vec<(usize, FhMessage)>,
    dropped_first_tx: Vec<(u8, u8)>,
    wire_losses: u64,
}

impl LossyLink {
    fn cross(&mut self, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        msg.eth.dst = self.next;
        if self.rng.chance(self.drop) {
            self.wire_losses += 1;
            let key = (msg.eaxc.ru_port, msg.seq_id);
            if !matches!(msg.body, Body::Recovery(_)) && !self.dropped_first_tx.contains(&key) {
                self.dropped_first_tx.push(key);
            }
        } else if self.rng.chance(self.reorder) {
            self.holdback.push((REORDER_HOLD, msg));
        } else {
            out.push(msg);
            // A surviving crossing ages the held-back frames; all were held
            // for the same span, so the ones now due are the oldest.
            self.holdback.iter_mut().for_each(|(left, _)| *left -= 1);
            let due = self.holdback.iter().take_while(|(left, _)| *left == 0).count();
            out.extend(self.holdback.drain(..due).map(|(_, late)| late));
        }
    }
}

impl Middlebox for LossyLink {
    fn name(&self) -> &str {
        "lossy-link"
    }

    fn on_cplane(&mut self, _: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.cross(msg, out);
    }

    fn on_uplane(&mut self, _: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.cross(msg, out);
    }

    fn on_recovery(&mut self, _: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.cross(msg, out);
    }
}

/// The recovery deployment, in-process (drawn in
/// `tests/recovery_chain.rs`): ARQ sender, FEC encoder, the lossy link, FEC
/// decoder, ARQ receiver, routed by [`chain::steer`]. All five stages always
/// exist; a chain is purely addressing, so the [`Scheme`] only decides which
/// of them the next-hop MACs visit.
pub struct RecoveryChain {
    arq_tx: ArqSender,
    fec_enc: FecEncoderMb,
    link: LossyLink,
    fec_dec: FecDecoderMb,
    arq_rx: ArqReceiver,
    entry: EthernetAddress,
    cache: SymbolCache,
    telemetry: TelemetrySender,
    out: Vec<FhMessage>,
    /// Sink deliveries in arrival order: `(eAxC port, seq)`.
    pub delivered: Vec<(u8, u8)>,
}

impl RecoveryChain {
    /// Wire `scheme`'s stages around a hop that drops with probability
    /// `drop` and reorders with probability `reorder`, both drawn from
    /// `seed`.
    pub fn new(scheme: Scheme, seed: u64, drop: f64, reorder: f64, fec: FecConfig) -> Self {
        let after_dec = if scheme.arq { ARQ_RX } else { SINK };
        let after_link = if scheme.fec { FEC_DEC } else { after_dec };
        let after_tx = if scheme.fec { FEC_ENC } else { LINK };
        let entry = if scheme.arq { ARQ_TX } else { after_tx };
        RecoveryChain {
            arq_tx: ArqSender::new("arq-tx", mac(ARQ_TX), mac(after_tx), 128),
            fec_enc: FecEncoderMb::new("fec-enc", mac(FEC_ENC), mac(LINK), fec),
            link: LossyLink {
                next: mac(after_link),
                rng: SplitMix64::new(seed),
                drop,
                reorder,
                holdback: Vec::new(),
                dropped_first_tx: Vec::new(),
                wire_losses: 0,
            },
            fec_dec: FecDecoderMb::new("fec-dec", mac(FEC_DEC), mac(after_dec), 128),
            arq_rx: ArqReceiver::new("arq-rx", mac(ARQ_RX), mac(SINK), mac(ARQ_TX)),
            entry: mac(entry),
            cache: SymbolCache::new(64),
            telemetry: TelemetrySender::disconnected("recovery-chain"),
            out: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Where the DU addresses its frames: the chain's first stage.
    pub fn entry(&self) -> EthernetAddress {
        self.entry
    }

    /// `(port, seq)` of every data frame whose first crossing the link ate.
    pub fn dropped_first_tx(&self) -> &[(u8, u8)] {
        &self.link.dropped_first_tx
    }

    /// Frames the link ate in total (data, parity, retransmits).
    pub fn wire_losses(&self) -> u64 {
        self.link.wire_losses
    }

    /// Drive one DU frame through the chain until it is quiet.
    pub fn inject(&mut self, msg: FhMessage) {
        self.run(self.entry, msg);
    }

    /// The link goes quiet and lossless: held-back stragglers arrive.
    pub fn flush(&mut self) {
        (self.link.drop, self.link.reorder) = (0.0, 0.0);
        for (_, late) in std::mem::take(&mut self.link.holdback) {
            self.run(mac(LINK), late);
        }
    }

    fn run(&mut self, first: EthernetAddress, msg: FhMessage) {
        let mut ctx = MbContext {
            now: SimTime(1_000),
            cache: &mut self.cache,
            telemetry: &self.telemetry,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        };
        let mut stages: [(EthernetAddress, &mut dyn Middlebox); 5] = [
            (mac(ARQ_TX), &mut self.arq_tx),
            (mac(FEC_ENC), &mut self.fec_enc),
            (mac(LINK), &mut self.link),
            (mac(FEC_DEC), &mut self.fec_dec),
            (mac(ARQ_RX), &mut self.arq_rx),
        ];
        let first = stages.iter().position(|(at, _)| *at == first).expect("first is a stage");
        let looped = chain::steer(&mut ctx, &mut stages, first, msg, &mut self.out);
        assert_eq!(looped, 0, "a recovery exchange stays far below the hop cap");
        // Whatever left the chain went to the sink: no stage addresses anything else.
        self.delivered.extend(self.out.drain(..).map(|m| (m.eaxc.ru_port, m.seq_id)));
    }
}

/// One (scheme, loss, reorder) outcome of the recovery sweep.
struct RecoveryPoint {
    scheme: &'static str,
    drop: f64,
    reorder: f64,
    frames_in: u64,
    first_tx_losses: u64,
    recovered: u64,
    nacks: u64,
    retransmits: u64,
    fec_repairs: u64,
    delivered: u64,
}

/// Drive a seq-stamped U-plane workload through `scheme`'s
/// [`RecoveryChain`] — the deployment `crates/bench/tests/recovery_chain.rs`
/// gates — at one impairment point.
fn measure_recovery(
    scheme: Scheme,
    drop: f64,
    reorder: f64,
    frames: u32,
    ports: u8,
) -> RecoveryPoint {
    // Loss accounting keys on (port, seq): the 8-bit sequence space must
    // not wrap within a run, so scale load by adding ports, not frames.
    assert!(frames <= 256, "seq wrap would alias loss accounting");
    let fec = FecConfig::new(FEC_WINDOW, FEC_DEPTH).expect("valid geometry");
    let mut chain = RecoveryChain::new(scheme, SEED, drop, reorder, fec);
    let prb = test_prb(55, -3);
    for n in 0..frames {
        for p in 0..ports {
            chain.inject(uplane((mac(1), chain.entry()), p, n as u8, n, &[prb]));
        }
    }
    chain.flush();

    let lost = chain.dropped_first_tx();
    let recovered = lost.iter().filter(|key| chain.delivered.contains(key)).count() as u64;
    let first_tx_losses = lost.len() as u64;
    RecoveryPoint {
        scheme: scheme.name,
        drop,
        reorder,
        frames_in: u64::from(frames) * u64::from(ports),
        first_tx_losses,
        recovered,
        nacks: chain.arq_rx.stats.nacks_sent,
        retransmits: chain.arq_tx.stats.retransmits,
        fec_repairs: chain.fec_dec.stats.recovered,
        delivered: chain.delivered.len() as u64,
    }
}

/// Everything `io` delivers until end of capture, in arrival order.
fn drain(io: &mut impl FrameIo) -> Vec<RawFrame> {
    let mut frames = Vec::new();
    while !matches!(io.rx_batch(&mut frames, 64), RxPoll::Eof) {}
    frames
}

/// Bonded dual-link outcome under a scripted permanent member outage.
struct Bonded {
    frames_in: u64,
    delivered: u64,
    dedup_drops: u64,
    link_switches: u64,
}

/// Duplicate-and-dedup bonding over two loopback links, one of which
/// fails permanently mid-run: count what still arrives.
fn measure_bonded(frames: u32) -> Bonded {
    let (a_near, mut a_far) = Loopback::pair(8192);
    let (b_near, mut b_far) = Loopback::pair(8192);
    let mut cfg = ChaosConfig::new(SEED);
    // The outage starts halfway through the timestamp schedule.
    cfg.outage =
        Some(Outage { start_ns: u64::from(frames / 2) * 1_000, end_ns: u64::MAX, src: None });
    let mut bond = BondedIo::new(ChaosIo::new(a_near, cfg), b_near, BondMode::DuplicateDedup);
    let prb = test_prb(31, 0);
    for n in 0..frames {
        let msg = uplane((mac(21), mac(10)), 0, n as u8, n, &[prb]);
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).expect("serialize");
        let f = RawFrame { at_ns: u64::from(n) * 1_000, bytes: bytes.into() };
        a_far.tx(f.clone());
        b_far.tx(f);
    }
    drop(a_far);
    drop(b_far);
    let got = drain(&mut bond);
    let s = bond.stats();
    Bonded {
        frames_in: u64::from(frames),
        delivered: got.len() as u64,
        dedup_drops: s.dedup_drops,
        link_switches: s.link_switches,
    }
}

/// Failover measurement outcome.
struct Failover {
    outage_start_ns: u64,
    failover_at_ns: u64,
    recovery_ns: u64,
    budget_ns: u64,
    ul_after_failover: u64,
}

/// Script a permanent primary-DU outage through `ChaosIo` and measure how
/// long the watchdog needs to put the standby in charge. The runtime does
/// not drive middlebox timers, so the frames go through
/// [`MbPipeline::replay`] with a 1 ms watchdog tick — what a hosting node's
/// timer wheel would provide.
fn measure_failover() -> Failover {
    const MS: u64 = 1_000_000;
    const OUTAGE_START: u64 = 20 * MS;
    const TIMEOUT: u64 = 3 * MS;
    let mapping = EaxcMapping::DEFAULT;
    let frame = |src| cplane(src, 0, 0, SymbolId::ZERO, 10).to_bytes(&mapping).expect("serialize");
    let mut w = PcapWriter::new(Vec::new()).expect("in-memory pcap header");
    for ms in 1..=60u64 {
        w.write_frame(ms * MS, &frame(mac(1))).expect("write");
        w.write_frame(ms * MS + MS / 2, &frame(mac(9))).expect("write");
    }
    let mut chaos = ChaosConfig::new(SEED);
    chaos.outage = Some(Outage { start_ns: OUTAGE_START, end_ns: u64::MAX, src: Some(mac(1)) });
    let mut io = ChaosIo::new(
        MemReplay::from_bytes(w.finish().expect("finish")).expect("valid capture"),
        chaos,
    );
    let mut pipeline = MbPipeline::new(
        Resilience::new(
            "resil-chaos",
            ResilienceConfig {
                mb_mac: mac(10),
                primary_mac: mac(1),
                standby_mac: mac(2),
                ru_mac: mac(9),
                failure_timeout: SimDuration(TIMEOUT),
            },
        ),
        mac(10),
    );
    let mut ul_after_failover = 0u64;
    pipeline.replay(
        drain(&mut io).iter().map(|f| (f.at_ns, &f.bytes[..])),
        Some((MS, WATCHDOG_TICK)),
        &mut |_, b: &[u8]| {
            if FhMessage::parse(b, &mapping).is_ok_and(|m| m.eth.dst == mac(2)) {
                ul_after_failover += 1;
            }
        },
    );
    let failover_at_ns =
        pipeline.middlebox().last_failover().expect("permanent outage must trigger failover").0;
    Failover {
        outage_start_ns: OUTAGE_START,
        failover_at_ns,
        recovery_ns: failover_at_ns - OUTAGE_START,
        budget_ns: TIMEOUT + MS,
        ul_after_failover,
    }
}

/// Hand-rolled JSON: `results/BENCH_chaos.json` at the repo root.
fn write_json(
    points: &[Point],
    recovery: &[RecoveryPoint],
    bonded: &Bonded,
    fo: &Failover,
    quick: bool,
) -> std::io::Result<PathBuf> {
    let root = option_env!("CARGO_MANIFEST_DIR")
        .map(|m| PathBuf::from(m).join("../.."))
        .unwrap_or_else(|| PathBuf::from("."));
    let dir = root.join("results");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_chaos.json");
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"experiment\": \"chaos\",\n");
    s.push_str(
        "  \"workload\": \"seq-stamped DAS uplink merge, 8 eAxC flows, ChaosIo rx impairment\",\n",
    );
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"seed\": {SEED},");
    let _ = writeln!(s, "  \"corrupt_prob_at_impaired_points\": {CORRUPT},");
    let _ = writeln!(s, "  \"merge_window_symbols\": {MERGE_WINDOW},");
    s.push_str("  \"sweep\": [\n");
    for (k, p) in points.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"drop\": {:.2}, \"reorder\": {:.2}, \"frames_in\": {}, \
             \"frames_processed\": {}, \"frames_emitted\": {}, \"rx_dropped\": {}, \
             \"rx_reordered\": {}, \"rx_corrupted\": {}, \"seq_gaps\": {}, \"seq_dups\": {}, \
             \"frames_corrupt\": {}, \"das_partial_merges\": {}}}",
            p.drop,
            p.reorder,
            p.frames_in,
            p.processed,
            p.emitted,
            p.rx_dropped,
            p.rx_reordered,
            p.rx_corrupted,
            p.seq_gaps,
            p.seq_dups,
            p.frames_corrupt,
            p.partial_merges,
        );
        s.push_str(if k + 1 < points.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    let _ =
        writeln!(s, "  \"fec_geometry\": {{\"window\": {FEC_WINDOW}, \"depth\": {FEC_DEPTH}}},");
    s.push_str("  \"recovery\": [\n");
    for (k, p) in recovery.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"scheme\": \"{}\", \"drop\": {:.2}, \"reorder\": {:.2}, \
             \"frames_in\": {}, \"first_tx_losses\": {}, \"recovered\": {}, \
             \"residual_gaps\": {}, \"nacks\": {}, \"retransmits\": {}, \
             \"fec_repairs\": {}, \"delivered\": {}}}",
            p.scheme,
            p.drop,
            p.reorder,
            p.frames_in,
            p.first_tx_losses,
            p.recovered,
            p.first_tx_losses - p.recovered,
            p.nacks,
            p.retransmits,
            p.fec_repairs,
            p.delivered,
        );
        s.push_str(if k + 1 < recovery.len() { ",\n" } else { "\n" });
    }
    s.push_str("  ],\n");
    s.push_str("  \"bonded\": {\n");
    let _ = writeln!(s, "    \"mode\": \"duplicate-dedup, permanent single-link outage\",");
    let _ = writeln!(s, "    \"frames_in\": {},", bonded.frames_in);
    let _ = writeln!(s, "    \"delivered\": {},", bonded.delivered);
    let _ = writeln!(s, "    \"dedup_drops\": {},", bonded.dedup_drops);
    let _ = writeln!(s, "    \"link_switches\": {}", bonded.link_switches);
    s.push_str("  },\n");
    s.push_str("  \"failover\": {\n");
    let _ = writeln!(s, "    \"outage_start_ns\": {},", fo.outage_start_ns);
    let _ = writeln!(s, "    \"failover_at_ns\": {},", fo.failover_at_ns);
    let _ = writeln!(s, "    \"recovery_ns\": {},", fo.recovery_ns);
    let _ = writeln!(s, "    \"budget_ns\": {},", fo.budget_ns);
    let _ = writeln!(s, "    \"ul_frames_to_standby\": {}", fo.ul_after_failover);
    s.push_str("  }\n");
    s.push_str("}\n");
    std::fs::write(&path, s)?;
    Ok(path)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "chaos",
        "middlebox degradation and recovery under deterministic fault injection",
        "under seeded loss/reorder/corruption the DAS pipeline degrades \
         gracefully — partial merges stay bounded by the flush horizon and \
         every lost or mangled frame is accounted in seq_gaps/frames_corrupt — \
         and a permanent DU outage fails over within the watchdog budget",
    )
    .columns(vec![
        "drop",
        "reorder",
        "in",
        "processed",
        "emitted",
        "gaps",
        "dups",
        "corrupt",
        "partial",
    ]);

    let rounds = if quick { 40 } else { 400 };
    let (cap, frames_in) = capture(rounds);
    let points: Vec<Point> = SWEEP.iter().map(|&(d, o)| measure(&cap, frames_in, d, o)).collect();
    for p in &points {
        r.row(vec![
            format!("{:.0}%", p.drop * 100.0),
            format!("{:.0}%", p.reorder * 100.0),
            p.frames_in.to_string(),
            p.processed.to_string(),
            p.emitted.to_string(),
            p.seq_gaps.to_string(),
            p.seq_dups.to_string(),
            p.frames_corrupt.to_string(),
            p.partial_merges.to_string(),
        ]);
    }
    let (rec_frames, rec_ports) = if quick { (200, 2) } else { (250, 8) };
    let recovery: Vec<RecoveryPoint> = RECOVERY_SWEEP
        .iter()
        .flat_map(|&(d, o)| SCHEMES.iter().map(move |&s| (s, d, o)))
        .map(|(s, d, o)| measure_recovery(s, d, o, rec_frames, rec_ports))
        .collect();
    let bonded = measure_bonded(250);
    let fo = measure_failover();
    match write_json(&points, &recovery, &bonded, &fo, quick) {
        Ok(path) => r.note(format!("written to {}", path.display())),
        Err(e) => r.note(format!("could not write BENCH_chaos.json: {e}")),
    }
    for p in recovery.iter().filter(|p| p.drop == 0.05 && p.reorder == 0.0) {
        r.note(format!(
            "recovery @5% loss [{}]: {}/{} first-tx losses recovered, {} residual \
             ({} nacks, {} retransmits, {} fec repairs)",
            p.scheme,
            p.recovered,
            p.first_tx_losses,
            p.first_tx_losses - p.recovered,
            p.nacks,
            p.retransmits,
            p.fec_repairs,
        ));
    }
    r.note(format!(
        "bonded dup-dedup across a permanent single-link outage: {}/{} frames \
         delivered ({} dedup drops, {} link switches)",
        bonded.delivered, bonded.frames_in, bonded.dedup_drops, bonded.link_switches
    ));
    r.note(format!(
        "failover recovery {:.1} ms after a permanent DU outage (budget {:.1} ms: \
         3 ms silence threshold + 1 ms watchdog tick); {} uplink frames reached \
         the standby after the switch",
        fo.recovery_ns as f64 / 1e6,
        fo.budget_ns as f64 / 1e6,
        fo.ul_after_failover
    ));
    r.note(format!(
        "all impairment schedules replay from seed {SEED}; the clean point \
         (drop 0%, reorder 0%) pins the no-fault baseline: zero gaps, zero \
         partial merges"
    ));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_mode_sweeps_and_measures_failover() {
        let r = run(true);
        assert_eq!(r.rows.len(), SWEEP.len());
        // Clean baseline: nothing dropped, nothing partial. (Corruption
        // still fires at its constant probability.)
        let clean = &r.rows[0];
        assert_eq!(clean[5], "0", "no seq gaps without loss");
        assert_eq!(clean[8], "0", "no partial merges without loss");
        // 10% loss: gaps and partial merges must actually materialize.
        let lossy = &r.rows[3];
        assert_ne!(lossy[5], "0", "10% drop must open sequence gaps");
        let failover_note =
            r.notes.iter().find(|n| n.contains("failover recovery")).expect("failover note");
        assert!(failover_note.contains("budget 4.0 ms"));
    }

    #[test]
    fn recovery_sweep_meets_the_acceptance_bar_at_5_percent_loss() {
        let frames = 200;
        let baseline = measure_recovery(
            Scheme { name: "baseline", arq: false, fec: false },
            0.05,
            0.0,
            frames,
            2,
        );
        assert!(baseline.first_tx_losses > 0, "5% loss must fire");
        assert_eq!(baseline.recovered, 0, "nothing recovers without middleboxes");
        let both = measure_recovery(
            Scheme { name: "arq+fec", arq: true, fec: true },
            0.05,
            0.0,
            frames,
            2,
        );
        assert!(both.first_tx_losses > 0);
        let ratio = both.recovered as f64 / both.first_tx_losses as f64;
        assert!(
            ratio >= 0.90,
            "ARQ+FEC recovers >=90% of dropped frames: {}/{}",
            both.recovered,
            both.first_tx_losses
        );
        assert!(both.retransmits > 0 || both.fec_repairs > 0, "recovery machinery engaged");
    }

    #[test]
    fn bonded_outage_delivers_every_frame() {
        let b = measure_bonded(250);
        assert_eq!(b.delivered, b.frames_in, "dup-dedup bonding hides a permanent outage");
        assert!(b.dedup_drops > 0);
        assert!(b.link_switches >= 1);
    }
}
