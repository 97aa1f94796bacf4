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

use rb_apps::arq::{ArqReceiver, ArqSender};
use rb_apps::das::{Das, DasConfig};
use rb_apps::fec::{FecDecoderMb, FecEncoderMb};
use rb_apps::resilience::{Resilience, ResilienceConfig, WATCHDOG_TICK};
use rb_core::cache::SymbolCache;
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

/// Monotonically advancing symbol id: `round` counts symbols from the
/// start of the capture.
fn symbol_at(round: u32) -> SymbolId {
    SymbolId {
        frame: (round / 280 % 256) as u8,
        subframe: (round / 28 % 10) as u8,
        slot: (round / 14 % 2) as u8,
        symbol: (round % 14) as u8,
    }
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
    let mut at = 1_000u64;
    let mut frames_in = 0u64;
    let mut prb = Prb::ZERO;
    for (k, s) in prb.0.iter_mut().enumerate() {
        *s = IqSample::new(70, k as i16 - 6);
    }
    for round in 0..rounds {
        let sym = symbol_at(round);
        for p in 0..PORTS {
            let eaxc = Eaxc::port(p);
            let cp = FhMessage::new(
                mac(1),
                mac(10),
                eaxc,
                stamp(mac(1), p),
                Body::CPlane(CPlaneRepr::single(
                    Direction::Downlink,
                    sym,
                    CompressionMethod::BFP9,
                    SectionFields::data(0, 0, 50, 1),
                )),
            );
            w.write_frame(at, &cp.to_bytes(&mapping).expect("serialize C-plane"))
                .expect("write to memory");
            at += 1_000;
            frames_in += 1;
            for ru in [mac(21), mac(22)] {
                let section = USection::from_prbs(0, 0, &[prb; 4], CompressionMethod::BFP9)
                    .expect("section fits");
                let ul = FhMessage::new(
                    ru,
                    mac(10),
                    eaxc,
                    stamp(ru, p),
                    Body::UPlane(UPlaneRepr::single(Direction::Uplink, sym, section)),
                );
                w.write_frame(at, &ul.to_bytes(&mapping).expect("serialize U-plane"))
                    .expect("write to memory");
                at += 1_000;
                frames_in += 1;
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
#[derive(Clone, Copy)]
struct Scheme {
    name: &'static str,
    arq: bool,
    fec: bool,
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

/// One (scheme, loss, reorder) outcome of the recovery sweep.
struct RecoveryPoint {
    scheme: &'static str,
    drop: f64,
    reorder: f64,
    frames_in: u64,
    first_tx_losses: u64,
    recovered: u64,
    residual_gaps: u64,
    nacks: u64,
    retransmits: u64,
    fec_repairs: u64,
    delivered: u64,
}

/// Drive a seq-stamped U-plane workload through the configured recovery
/// chain with a seeded lossy-and-reordering hop in the middle, routing
/// middlebox output by destination MAC until quiescence — the same
/// deployment shape as the `recovery_chain` integration suite, swept
/// across schemes and impairment points.
fn measure_recovery(
    scheme: Scheme,
    drop: f64,
    reorder: f64,
    frames: u32,
    ports: u8,
) -> RecoveryPoint {
    const DU: u8 = 1;
    const ARQ_TX: u8 = 30;
    const FEC_ENC: u8 = 31;
    const FEC_DEC: u8 = 32;
    const ARQ_RX: u8 = 33;
    const SINK: u8 = 40;
    const REORDER_HOLD: usize = 4;
    // Loss accounting keys on (port, seq): the 8-bit sequence space must
    // not wrap within a run, so scale load by adding ports, not frames.
    assert!(frames <= 256, "seq wrap would alias loss accounting");

    // Wire the requested stages left-to-right; the lossy hop is the one
    // entering the first right-side stage.
    let (entry, lossy_dst) = match (scheme.arq, scheme.fec) {
        (false, false) => (SINK, SINK),
        (true, false) => (ARQ_TX, ARQ_RX),
        (false, true) => (FEC_ENC, FEC_DEC),
        (true, true) => (ARQ_TX, FEC_DEC),
    };
    let fec_cfg = FecConfig::new(FEC_WINDOW, FEC_DEPTH).expect("valid geometry");
    let mut arq_tx = scheme.arq.then(|| {
        let dst = if scheme.fec { FEC_ENC } else { ARQ_RX };
        ArqSender::new("bench-arq-tx", mac(ARQ_TX), mac(dst), 128)
    });
    let mut fec_enc =
        scheme.fec.then(|| FecEncoderMb::new("bench-fec-enc", mac(FEC_ENC), mac(FEC_DEC), fec_cfg));
    let mut fec_dec = scheme.fec.then(|| {
        let dst = if scheme.arq { ARQ_RX } else { SINK };
        FecDecoderMb::new("bench-fec-dec", mac(FEC_DEC), mac(dst), 128)
    });
    let mut arq_rx =
        scheme.arq.then(|| ArqReceiver::new("bench-arq-rx", mac(ARQ_RX), mac(SINK), mac(ARQ_TX)));

    let mut rng = SplitMix64::new(SEED);
    let mut cache = SymbolCache::new(64);
    let tele = TelemetrySender::disconnected("bench-recovery");
    let mapping = EaxcMapping::DEFAULT;
    let mut prb = Prb::ZERO;
    for (k, s) in prb.0.iter_mut().enumerate() {
        *s = IqSample::new(55, k as i16 - 3);
    }

    let mut delivered: Vec<(u8, u8)> = Vec::new();
    let mut dropped_first_tx: Vec<(u8, u8)> = Vec::new();
    // Held-back (reordered) crossings: (crossings still to pass, msg).
    let mut holdback: Vec<(usize, FhMessage)> = Vec::new();
    let mut frames_in = 0u64;

    let mut route = |m: FhMessage,
                     queue: &mut Vec<FhMessage>,
                     delivered: &mut Vec<(u8, u8)>,
                     cache: &mut SymbolCache| {
        if m.eth.dst == mac(SINK) {
            delivered.push((m.eaxc.ru_port, m.seq_id));
            return;
        }
        let mut ctx = MbContext {
            now: SimTime(1_000),
            cache,
            telemetry: &tele,
            mapping,
            charges: Vec::new(),
        };
        if m.eth.dst == mac(ARQ_TX) {
            arq_tx.as_mut().expect("routed to absent stage").handle_into(&mut ctx, m, queue);
        } else if m.eth.dst == mac(FEC_ENC) {
            fec_enc.as_mut().expect("routed to absent stage").handle_into(&mut ctx, m, queue);
        } else if m.eth.dst == mac(FEC_DEC) {
            fec_dec.as_mut().expect("routed to absent stage").handle_into(&mut ctx, m, queue);
        } else {
            arq_rx.as_mut().expect("routed to absent stage").handle_into(&mut ctx, m, queue);
        }
    };

    let mut inject = |msg: FhMessage,
                      delivered: &mut Vec<(u8, u8)>,
                      dropped: &mut Vec<(u8, u8)>,
                      holdback: &mut Vec<(usize, FhMessage)>,
                      cache: &mut SymbolCache,
                      rng: &mut SplitMix64| {
        let mut queue = vec![msg];
        while let Some(m) = queue.pop() {
            if m.eth.dst != mac(lossy_dst) {
                route(m, &mut queue, delivered, cache);
                continue;
            }
            // The impaired hop: drop, or hold back for reordering.
            if rng.chance(drop) {
                let key = (m.eaxc.ru_port, m.seq_id);
                if !matches!(m.body, Body::Recovery(_)) && !dropped.contains(&key) {
                    dropped.push(key);
                }
                continue;
            }
            if rng.chance(reorder) {
                holdback.push((REORDER_HOLD, m));
                continue;
            }
            route(m, &mut queue, delivered, cache);
            // A surviving crossing releases aged held-back frames.
            let mut k = 0;
            while k < holdback.len() {
                if holdback[k].0 <= 1 {
                    let (_, late) = holdback.swap_remove(k);
                    route(late, &mut queue, delivered, cache);
                } else {
                    holdback[k].0 -= 1;
                    k += 1;
                }
            }
        }
    };

    for n in 0..frames {
        let sym = symbol_at(n);
        for p in 0..ports {
            let section =
                USection::from_prbs(0, 0, &[prb], CompressionMethod::BFP9).expect("section fits");
            let msg = FhMessage::new(
                mac(DU),
                mac(entry),
                Eaxc::port(p),
                n as u8,
                Body::UPlane(UPlaneRepr::single(Direction::Uplink, sym, section)),
            );
            frames_in += 1;
            inject(msg, &mut delivered, &mut dropped_first_tx, &mut holdback, &mut cache, &mut rng);
        }
    }
    std::mem::drop(inject); // `drop` the fn is shadowed by `drop` the rate
                            // Drain the reorder buffer: the link goes quiet, stragglers arrive.
    for (_, late) in std::mem::take(&mut holdback) {
        let mut queue = vec![late];
        while let Some(m) = queue.pop() {
            route(m, &mut queue, &mut delivered, &mut cache);
        }
    }

    let recovered = dropped_first_tx.iter().filter(|key| delivered.contains(key)).count() as u64;
    let first_tx_losses = dropped_first_tx.len() as u64;
    RecoveryPoint {
        scheme: scheme.name,
        drop,
        reorder,
        frames_in,
        first_tx_losses,
        recovered,
        residual_gaps: first_tx_losses - recovered,
        nacks: arq_rx.as_ref().map_or(0, |rx| rx.stats.nacks_sent),
        retransmits: arq_tx.as_ref().map_or(0, |tx| tx.stats.retransmits),
        fec_repairs: fec_dec.as_ref().map_or(0, |dec| dec.stats.recovered),
        delivered: delivered.len() as u64,
    }
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
    let mapping = EaxcMapping::DEFAULT;
    let mut prb = Prb::ZERO;
    for (k, s) in prb.0.iter_mut().enumerate() {
        *s = IqSample::new(31, k as i16);
    }
    for n in 0..frames {
        let section =
            USection::from_prbs(0, 0, &[prb], CompressionMethod::BFP9).expect("section fits");
        let msg = FhMessage::new(
            mac(21),
            mac(10),
            Eaxc::port(0),
            n as u8,
            Body::UPlane(UPlaneRepr::single(Direction::Uplink, symbol_at(n), section)),
        );
        let bytes = msg.to_bytes(&mapping).expect("serialize");
        let f = RawFrame { at_ns: u64::from(n) * 1_000, bytes: bytes.into() };
        a_far.tx(f.clone());
        b_far.tx(f);
    }
    drop(a_far);
    drop(b_far);
    let mut got = Vec::new();
    loop {
        match bond.rx_batch(&mut got, 64) {
            RxPoll::Ready(_) => {}
            RxPoll::Idle | RxPoll::Eof => break,
        }
    }
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
/// not drive middlebox timers, so the pipeline is run by hand with a
/// 1 ms watchdog tick — what a hosting node's timer wheel would provide.
fn measure_failover() -> Failover {
    const MS: u64 = 1_000_000;
    const OUTAGE_START: u64 = 20 * MS;
    const TIMEOUT: u64 = 3 * MS;
    let mapping = EaxcMapping::DEFAULT;
    let frame = |src: EthernetAddress| {
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 1),
            )),
        )
        .to_bytes(&mapping)
        .expect("serialize")
    };
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
    let mut frames = Vec::new();
    let mut next_tick = MS;
    loop {
        frames.clear();
        match io.rx_batch(&mut frames, 32) {
            RxPoll::Ready(_) => {
                for f in frames.drain(..) {
                    while next_tick <= f.at_ns {
                        pipeline.tick(SimTime(next_tick), WATCHDOG_TICK, &mut |_b: &[u8]| {});
                        next_tick += MS;
                    }
                    pipeline.process(SimTime(f.at_ns), &f.bytes, &mut |b: &[u8]| {
                        if let Ok(m) = FhMessage::parse(b, &mapping) {
                            if m.eth.dst == mac(2) {
                                ul_after_failover += 1;
                            }
                        }
                    });
                }
            }
            RxPoll::Idle => continue,
            RxPoll::Eof => break,
        }
    }
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
            p.residual_gaps,
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
            p.residual_gaps,
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
