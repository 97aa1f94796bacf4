//! Sim/runtime equivalence: the same DAS workload through the simulator's
//! `MiddleboxHost` and through a 1-worker `rb-dataplane` runtime must
//! produce byte-identical output frames (modulo eCPRI sequence
//! renumbering, which each execution stamps independently per stream).
//! This is the contract that makes simulator results transferable to the
//! real dataplane: both paths execute the exact same `MbPipeline`.

use rb_apps::das::{Das, DasConfig};
use rb_core::host::MiddleboxHost;
use rb_core::pipeline::HostStats;
use rb_dataplane::chaos::{ChaosConfig, ChaosIo, ChaosStats, Impairments};
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
use rb_netsim::cost::CostModel;
use rb_netsim::engine::{port, Engine, Node, NodeEvent, Outbox};
use rb_netsim::time::{SimDuration, SimTime};

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn das() -> Das {
    Das::new(
        "das-eq",
        DasConfig { mb_mac: mac(10), du_mac: mac(1), ru_macs: vec![mac(21), mac(22)] },
    )
}

/// The workload: DL C-plane + DL U-plane from the DU (replicated to both
/// RUs) interleaved with UL U-plane from each RU (cached, then merged once
/// both RUs reported). Several eAxC ports and symbols so cache keys vary.
fn workload() -> Vec<(u64, Vec<u8>)> {
    let mapping = EaxcMapping::DEFAULT;
    let mut frames = Vec::new();
    let mut at = 1_000u64;
    for sym in 0..4u8 {
        for p in 0..3u8 {
            let eaxc = Eaxc::port(p);
            let dl_c = FhMessage::new(
                mac(1),
                mac(10),
                eaxc,
                0,
                Body::CPlane(CPlaneRepr::single(
                    Direction::Downlink,
                    SymbolId { frame: 0, subframe: 0, slot: 0, symbol: sym % 14 },
                    CompressionMethod::BFP9,
                    SectionFields::data(0, 0, 50, 14),
                )),
            );
            frames.push((at, dl_c.to_bytes(&mapping).unwrap()));
            at += 1_000;

            let mut prb = Prb::ZERO;
            for (k, s) in prb.0.iter_mut().enumerate() {
                *s = IqSample::new(100 + i16::from(sym), k as i16 - 6);
            }
            let dl_u_section =
                USection::from_prbs(0, 0, &[prb; 4], CompressionMethod::NoCompression).unwrap();
            let dl_u = FhMessage::new(
                mac(1),
                mac(10),
                eaxc,
                0,
                Body::UPlane(UPlaneRepr::single(
                    Direction::Downlink,
                    SymbolId { frame: 0, subframe: 0, slot: 0, symbol: sym % 14 },
                    dl_u_section,
                )),
            );
            frames.push((at, dl_u.to_bytes(&mapping).unwrap()));
            at += 1_000;

            // Uplink from both RUs: second arrival triggers the merge.
            for (ru, amp) in [(mac(21), 40i16), (mac(22), 7i16)] {
                let mut prb = Prb::ZERO;
                for (k, s) in prb.0.iter_mut().enumerate() {
                    *s = IqSample::new(amp, -(amp / 2) + k as i16);
                }
                let section =
                    USection::from_prbs(0, 0, &[prb; 4], CompressionMethod::NoCompression).unwrap();
                let ul = FhMessage::new(
                    ru,
                    mac(10),
                    eaxc,
                    0,
                    Body::UPlane(UPlaneRepr::single(
                        Direction::Uplink,
                        SymbolId { frame: 0, subframe: 0, slot: 0, symbol: sym % 14 },
                        section,
                    )),
                );
                frames.push((at, ul.to_bytes(&mapping).unwrap()));
                at += 1_000;
            }
        }
    }
    frames
}

struct Sink {
    got: Vec<Vec<u8>>,
}
impl Node for Sink {
    fn on_event(&mut self, ev: NodeEvent, _out: &mut Outbox) {
        if let NodeEvent::Packet { frame, .. } = ev {
            self.got.push(frame);
        }
    }
}

fn run_in_simulator(frames: &[(u64, Vec<u8>)]) -> Vec<Vec<u8>> {
    let mut engine = Engine::new();
    let host = MiddleboxHost::new(das(), mac(10), CostModel::dpdk(), 1);
    let host_id = engine.add_node(Box::new(host));
    let sink = engine.add_node(Box::new(Sink { got: vec![] }));
    engine.connect(port(host_id, 0), port(sink, 0), SimDuration::ZERO, 100.0);
    for (at, f) in frames {
        engine.inject(SimTime(*at), port(host_id, 0), f.clone());
    }
    engine.run_until(SimTime(1_000_000_000));
    std::mem::take(&mut engine.node_as_mut::<Sink>(sink).got)
}

fn run_in_dataplane(frames: &[(u64, Vec<u8>)], workers: usize) -> Vec<Vec<u8>> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for (at, f) in frames {
        w.write_frame(*at, f).unwrap();
    }
    let mut io = MemReplay::from_bytes(w.finish().unwrap()).unwrap();
    let cfg = RuntimeConfig::new(mac(10)).with_workers(workers);
    let report = Runtime::run(&cfg, &mut io, |_| das()).unwrap();
    assert_eq!(report.worker_failures, 0);
    assert_eq!(report.in_ring_dropped + report.out_ring_dropped, 0, "no overload in this test");
    io.take_tx().into_iter().map(|f| f.bytes.into_vec()).collect()
}

/// Zero the eCPRI sequence id so independently-stamped streams compare.
fn normalize(frame: &[u8]) -> Vec<u8> {
    let mapping = EaxcMapping::DEFAULT;
    let mut msg = FhMessage::parse(frame, &mapping).expect("runtime emitted unparsable frame");
    msg.seq_id = 0;
    msg.to_bytes(&mapping).unwrap()
}

#[test]
fn one_worker_runtime_matches_simulator_byte_for_byte() {
    let frames = workload();
    let sim: Vec<Vec<u8>> = run_in_simulator(&frames).iter().map(|f| normalize(f)).collect();
    let dp: Vec<Vec<u8>> = run_in_dataplane(&frames, 1).iter().map(|f| normalize(f)).collect();
    assert!(!sim.is_empty(), "workload must produce output");
    assert_eq!(sim.len(), dp.len(), "same number of emitted frames");
    for (k, (s, d)) in sim.iter().zip(dp.iter()).enumerate() {
        assert_eq!(s, d, "frame {k} differs between simulator and runtime");
    }
}

#[test]
fn multiworker_runtime_emits_the_same_frame_multiset() {
    let frames = workload();
    let mut sim: Vec<Vec<u8>> = run_in_simulator(&frames).iter().map(|f| normalize(f)).collect();
    let mut dp: Vec<Vec<u8>> = run_in_dataplane(&frames, 4).iter().map(|f| normalize(f)).collect();
    // Across workers only per-flow order is guaranteed, so compare as
    // multisets.
    sim.sort();
    dp.sort();
    assert_eq!(sim, dp);
}

/// Run the workload through a chaos-wrapped replay runtime; return the
/// surviving output frames plus both stats surfaces.
fn run_with_chaos(
    frames: &[(u64, Vec<u8>)],
    workers: usize,
    chaos: ChaosConfig,
) -> (Vec<Vec<u8>>, ChaosStats, HostStats) {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for (at, f) in frames {
        w.write_frame(*at, f).unwrap();
    }
    let inner = MemReplay::from_bytes(w.finish().unwrap()).unwrap();
    let mut io = ChaosIo::new(inner, chaos);
    let cfg = RuntimeConfig::new(mac(10)).with_workers(workers);
    let report = Runtime::run(&cfg, &mut io, |_| das()).unwrap();
    assert_eq!(report.worker_failures, 0);
    let totals = report.pipeline_totals();
    io.flush_tx();
    let stats = io.stats();
    let out = io.inner_mut().take_tx().into_iter().map(|f| f.bytes.into_vec()).collect();
    (out, stats, totals)
}

/// Rx-side impairments only: these are drawn on the I/O thread in replay
/// order, before the dispatcher shards frames, so the impairment decisions
/// are identical no matter how many workers consume the survivors.
fn rx_impairments(seed: u64) -> ChaosConfig {
    let mut cfg = ChaosConfig::new(seed);
    cfg.rx = Impairments {
        drop: 0.10,
        duplicate: 0.05,
        reorder: 0.10,
        reorder_window: 3,
        truncate: 0.05,
        corrupt: 0.05,
        ..Impairments::NONE
    };
    cfg
}

#[test]
fn chaos_impaired_runtime_is_worker_count_independent() {
    let frames = workload();
    let (one, stats1, totals1) = run_with_chaos(&frames, 1, rx_impairments(7));
    let (four, stats4, totals4) = run_with_chaos(&frames, 4, rx_impairments(7));
    assert_eq!(stats1, stats4, "rx impairment decisions must not depend on worker count");
    assert_eq!(totals1, totals4, "per-stream pipeline state shards cleanly");
    assert!(totals1.frames_corrupt > 0, "the corrupt knob must actually exercise the pipeline");
    assert!(stats1.rx.dropped > 0, "the drop knob must actually fire at 10%");
    let mut one: Vec<Vec<u8>> = one.iter().map(|f| normalize(f)).collect();
    let mut four: Vec<Vec<u8>> = four.iter().map(|f| normalize(f)).collect();
    assert!(!one.is_empty(), "most traffic survives 10% loss");
    one.sort();
    four.sort();
    assert_eq!(one, four, "surviving output multiset must be identical across worker counts");
}

/// A [`Loopback`] never reports EOF while its peer is alive, but the
/// runtime's drain loop needs one. With the whole workload preloaded,
/// an empty ring *is* the end of input.
struct EofOnIdle(Loopback);

impl FrameIo for EofOnIdle {
    fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll {
        match self.0.rx_batch(out, max) {
            RxPoll::Idle | RxPoll::Eof => RxPoll::Eof,
            ready => ready,
        }
    }
    fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize {
        self.0.tx_batch(frames)
    }
}

/// Same contract as [`run_with_chaos`], but over a live in-memory ring
/// pair instead of a pcap replay: the far end feeds the workload in and
/// collects whatever the runtime transmits.
fn run_chaos_loopback(
    frames: &[(u64, Vec<u8>)],
    workers: usize,
    chaos: ChaosConfig,
) -> (Vec<Vec<u8>>, ChaosStats, HostStats) {
    let (near, mut far) = Loopback::pair(4096);
    for (at, f) in frames {
        assert!(far.tx(RawFrame { at_ns: *at, bytes: f.clone().into() }), "preload fits the ring");
    }
    let mut io = ChaosIo::new(EofOnIdle(near), chaos);
    let cfg = RuntimeConfig::new(mac(10)).with_workers(workers);
    let report = Runtime::run(&cfg, &mut io, |_| das()).unwrap();
    assert_eq!(report.worker_failures, 0);
    let totals = report.pipeline_totals();
    io.flush_tx();
    let stats = io.stats();
    let mut out = Vec::new();
    loop {
        match far.rx_batch(&mut out, 64) {
            RxPoll::Ready(_) => {}
            RxPoll::Idle | RxPoll::Eof => break,
        }
    }
    (out.into_iter().map(|f| f.bytes.into_vec()).collect(), stats, totals)
}

#[test]
fn chaos_over_live_loopback_is_worker_count_independent() {
    let frames = workload();
    let (one, stats1, totals1) = run_chaos_loopback(&frames, 1, rx_impairments(21));
    let (four, stats4, totals4) = run_chaos_loopback(&frames, 4, rx_impairments(21));
    assert_eq!(stats1, stats4, "rx impairment decisions must not depend on worker count");
    assert_eq!(totals1, totals4, "per-stream pipeline state shards cleanly");
    assert!(stats1.rx.dropped > 0, "the schedule must actually impair");
    let mut one: Vec<Vec<u8>> = one.iter().map(|f| normalize(f)).collect();
    let mut four: Vec<Vec<u8>> = four.iter().map(|f| normalize(f)).collect();
    assert!(!one.is_empty(), "most traffic survives 10% loss");
    one.sort();
    four.sort();
    assert_eq!(one, four, "surviving output multiset must be identical across worker counts");
    // The impairment schedule is a function of (seed, config, frame
    // order) alone — the replay backend sees the exact same one.
    let (replay, stats_r, totals_r) = run_with_chaos(&frames, 1, rx_impairments(21));
    assert_eq!(stats1, stats_r, "schedule must not depend on the I/O backend");
    assert_eq!(totals1, totals_r);
    let mut replay: Vec<Vec<u8>> = replay.iter().map(|f| normalize(f)).collect();
    replay.sort();
    assert_eq!(one, replay, "backends agree on the surviving frames");
}

#[test]
fn chaos_is_bit_reproducible_from_seed_and_config() {
    // Both directions impaired this time; a single worker keeps the tx
    // call order deterministic, so two runs must agree on *everything*:
    // raw output bytes (no seq normalization), chaos stats, pipeline
    // totals. This is the replayability contract: (seed, config) is the
    // complete description of an impairment schedule.
    let mut chaos = rx_impairments(0xDEAD_BEEF);
    chaos.tx = Impairments { drop: 0.05, jitter: 0.2, jitter_ns: 500, ..Impairments::NONE };
    let frames = workload();
    let (out_a, stats_a, totals_a) = run_with_chaos(&frames, 1, chaos.clone());
    let (out_b, stats_b, totals_b) = run_with_chaos(&frames, 1, chaos);
    assert_eq!(out_a, out_b, "same (seed, config) must replay bit-identically");
    assert_eq!(stats_a, stats_b);
    assert_eq!(totals_a, totals_b);
    // And a different seed must actually change the schedule.
    let (out_c, stats_c, _) = run_with_chaos(&frames, 1, {
        let mut c = rx_impairments(0xDEAD_BEF0);
        c.tx = Impairments { drop: 0.05, jitter: 0.2, jitter_ns: 500, ..Impairments::NONE };
        c
    });
    assert!(out_c != out_a || stats_c != stats_a, "a different seed must diverge");
}

#[test]
fn sequence_numbers_are_renumbered_per_stream_in_both_executions() {
    let frames = workload();
    for out in [run_in_simulator(&frames), run_in_dataplane(&frames, 1)] {
        let mapping = EaxcMapping::DEFAULT;
        let mut next: std::collections::HashMap<(EthernetAddress, u16), u8> = Default::default();
        for f in &out {
            let msg = FhMessage::parse(f, &mapping).unwrap();
            let key = (msg.eth.dst, msg.eaxc.pack(&mapping));
            let expect = next.entry(key).or_insert(0);
            assert_eq!(msg.seq_id, *expect, "stream {key:?} skipped a sequence number");
            *expect = expect.wrapping_add(1);
        }
    }
}
