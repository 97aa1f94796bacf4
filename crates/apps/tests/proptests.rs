//! Property-based tests over the middlebox invariants:
//!
//! * DAS merging is exactly the element-wise saturating sum, for any
//!   RU count, PRB count and IQ content;
//! * dMIMO port mapping is a bijection between virtual ports and
//!   (RU, local port) pairs for any port split;
//! * RU-sharing placement puts every DU PRB at its exact spectral
//!   position for any aligned offset, and subcarrier-exactly for any
//!   misaligned one;
//! * the PRB monitor's estimate equals a manual exponent count;
//! * the three per-stream sequence trackers (pipeline gap counter, ARQ
//!   receive tracker, bond dedup window) classify every `(last, seq)`
//!   pair the way `ecpri::seq_step` does;
//! * every reference application charges for every frame it answers:
//!   a handler call that emits leaves an entry in `ctx.charges`;
//! * an RU-share → DAS chain emits the same frames whether `steer` routes
//!   it in-process or `build_chain` wires it onto a simulated SR-IOV NIC.

use proptest::prelude::*;

use rb_apps::arq::{ArqReceiver, ArqSender};
use rb_apps::das::{Das, DasConfig};
use rb_apps::dmimo::{Dmimo, DmimoConfig, PhysicalRu, SsbBand};
use rb_apps::fec::{FecDecoderMb, FecEncoderMb};
use rb_apps::prbmon::{PrbMon, PrbMonConfig};
use rb_apps::resilience::{Resilience, ResilienceConfig};
use rb_apps::rushare::{Alignment, CarrierSpec, RuShare, RuShareConfig, SharedDu};
use rb_apps::secmon::{SecMon, SecMonConfig};
use rb_apps::tap::{Tap, TapConfig};
use rb_core::cache::SymbolCache;
use rb_core::chain::{build_chain, steer, ChainSpec};
use rb_core::host::MiddleboxHost;
use rb_core::middlebox::{MbContext, Middlebox, Passthrough};
use rb_core::pipeline::MbPipeline;
use rb_core::telemetry::TelemetrySender;
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, Section3, SectionFields, Sections};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ecpri::{seq_step, SeqStep};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::freq;
use rb_fronthaul::iq::{IqSample, Prb, SAMPLES_PER_PRB};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::recovery::RecoveryRepr;
use rb_fronthaul::timing::{Numerology, SymbolId};
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;
use rb_netsim::cost::CostModel;
use rb_netsim::engine::{port, Engine, Node, NodeEvent, Outbox};
use rb_netsim::nic::{SriovNic, PHYS_PORT};
use rb_netsim::time::{SimDuration, SimTime};
use rb_recover::arq::{GapVerdict, RxTracker};
use rb_recover::dedup::DedupWindow;
use rb_recover::fec::FecConfig;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn with_ctx<R>(cache: &mut SymbolCache, f: impl FnOnce(&mut MbContext<'_>) -> R) -> R {
    let tel = TelemetrySender::disconnected("prop");
    let mut ctx = MbContext {
        now: SimTime(0),
        cache,
        telemetry: &tel,
        mapping: EaxcMapping::DEFAULT,
        charges: Vec::new(),
    };
    f(&mut ctx)
}

fn arb_prb() -> impl Strategy<Value = Prb> {
    proptest::collection::vec(any::<(i16, i16)>(), SAMPLES_PER_PRB).prop_map(|v| {
        let mut prb = Prb::ZERO;
        for (k, (i, q)) in v.into_iter().enumerate() {
            prb.0[k] = IqSample::new(i / 4, q / 4); // headroom for sums
        }
        prb
    })
}

fn ul_msg(src: EthernetAddress, prbs: &[Prb]) -> FhMessage {
    let section = USection::from_prbs(0, 0, prbs, CompressionMethod::NoCompression).unwrap();
    FhMessage::new(
        src,
        mac(10),
        Eaxc::port(0),
        0,
        Body::UPlane(UPlaneRepr::single(Direction::Uplink, SymbolId::ZERO, section)),
    )
}

/// Collects every frame that leaves a simulated chain on the wire side.
struct WireSink(Vec<Vec<u8>>);

impl Node for WireSink {
    fn on_event(&mut self, ev: NodeEvent, _out: &mut Outbox) {
        if let NodeEvent::Packet { frame, .. } = ev {
            self.0.push(frame);
        }
    }
}

/// One generated frame: `(sender, kind, downlink, port, seq, symbol,
/// start PRB, PRB count)`. Senders index [`PEERS`]; kinds are listed at
/// [`frame_of`].
type FrameSpec = (usize, u8, bool, u8, u8, u8, u16, u16);

/// DU A, DU B, RU A, RU B, a recovery peer and a stranger.
const PEERS: [u8; 6] = [1, 2, 21, 22, 30, 99];

fn arb_frames() -> impl Strategy<Value = Vec<FrameSpec>> {
    let frame =
        (0usize..6, 0u8..6, any::<bool>(), 0u8..4, any::<u8>(), 0u8..28, 0u16..110, 1u16..6);
    proptest::collection::vec(frame, 1..48)
}

/// Kinds: 0 data C-plane, 1 U-plane of a few PRBs, 2 full-spectrum U-plane
/// (what a shared RU returns), 3 PRACH C-plane (section type 3), 4 PRACH
/// U-plane response, 5 recovery NACK. Symbols span two slots so C-plane
/// state and the U-plane that needs it meet.
fn frame_of((src, kind, dl, port, seq, sym, start, num): FrameSpec) -> FhMessage {
    let dir = if dl { Direction::Downlink } else { Direction::Uplink };
    let symbol = (0..sym).fold(SymbolId::ZERO, |s, _| s.next(Numerology::Mu1));
    let bfp = CompressionMethod::BFP9;
    let zeros = |id: u16, start: u16, n: u16| {
        USection::from_prbs(id, start, &vec![Prb::ZERO; usize::from(n)], bfp).unwrap()
    };
    let body = match kind {
        0 => Body::CPlane(CPlaneRepr::single(
            dir,
            symbol,
            bfp,
            SectionFields::data(0, start, num, 14),
        )),
        1 => Body::UPlane(UPlaneRepr::single(dir, symbol, zeros(0, start, num))),
        2 => Body::UPlane(UPlaneRepr::single(dir, symbol, zeros(0, 0, 273))),
        3 => Body::CPlane(CPlaneRepr {
            direction: Direction::Uplink,
            filter_index: 1,
            symbol,
            sections: Sections::Type3 {
                time_offset: 0,
                frame_structure: 0xb1,
                cp_length: 0,
                comp: bfp,
                sections: vec![Section3 {
                    fields: SectionFields::data(0, 0, 12, 12),
                    frequency_offset: i32::from(start) * 6,
                }],
            },
        }),
        4 => Body::UPlane(UPlaneRepr {
            direction: Direction::Uplink,
            filter_index: 1,
            symbol,
            sections: vec![zeros(1, 0, 12), zeros(2, 0, 12)],
        }),
        _ => Body::Recovery(RecoveryRepr::nack(dir, seq, num | 1)),
    };
    // PRACH occasions are keyed by (slot, port): keep them on one port so
    // the DUs' requests and the RU's response meet.
    let port = if matches!(kind, 3 | 4) { 0 } else { port };
    FhMessage::new(mac(PEERS[src]), mac(10), Eaxc::port(port), seq, body)
}

/// DU A and DU B (106 PRBs each) sharing a 273-PRB RU at `ru_mac`; DU B's
/// carrier is moved `second_du_shift` Hz off its aligned position.
fn rushare_cfg(
    mb_mac: EthernetAddress,
    ru_mac: EthernetAddress,
    second_du_shift: i64,
) -> RuShareConfig {
    const RU_CENTER: i64 = 3_460_000_000;
    let shared = |mac, du_id, offset| SharedDu {
        mac,
        du_id,
        carrier: CarrierSpec {
            center_hz: freq::aligned_du_center_hz(RU_CENTER, 273, 106, offset, 30_000),
            num_prb: 106,
            scs_hz: 30_000,
        },
    };
    let mut dus = vec![shared(mac(1), 1, 0), shared(mac(2), 2, 106)];
    dus[1].carrier.center_hz += second_du_shift;
    let ru = CarrierSpec { center_hz: RU_CENTER, num_prb: 273, scs_hz: 30_000 };
    RuShareConfig { mb_mac, ru_mac, ru, dus }
}

/// Run `msg` through `mb` with a fresh context and return what it emitted;
/// fails the case if it emitted anything without charging for it.
fn handle_charged<M: Middlebox>(
    mb: &mut M,
    cache: &mut SymbolCache,
    msg: FhMessage,
) -> Result<Vec<FhMessage>, TestCaseError> {
    with_ctx(cache, |ctx| {
        let out = mb.handle(ctx, msg);
        prop_assert!(
            out.is_empty() || !ctx.charges.is_empty(),
            "{} emitted {} message(s) and charged nothing",
            mb.name(),
            out.len()
        );
        Ok(out)
    })
}

/// [`handle_charged`] over every frame, one symbol cache per middlebox.
fn all_charged<M: Middlebox>(mut mb: M, frames: &[FrameSpec]) -> Result<(), TestCaseError> {
    let mut cache = SymbolCache::new(256);
    for &spec in frames {
        handle_charged(&mut mb, &mut cache, frame_of(spec))?;
    }
    Ok(())
}

/// Drive a recovery pair over a lossy link: every generated frame enters
/// `near` as the next frame of its port's stream, what `near` emits crosses
/// to `far` unless the frame's `downlink` bit says the link ate it (control
/// frames always cross), and whatever `far` addresses back to `near` (NACKs)
/// is answered, the answer crossing loss-free.
fn pair_charged<A: Middlebox, B: Middlebox>(
    mut near: A,
    mut far: B,
    near_mac: EthernetAddress,
    frames: &[FrameSpec],
) -> Result<(), TestCaseError> {
    let (mut near_cache, mut far_cache) = (SymbolCache::new(256), SymbolCache::new(256));
    let mut next_seq = [0u8; 4];
    for &(src, kind, lost, port, _, sym, start, num) in frames {
        let seq = &mut next_seq[usize::from(port)];
        let msg = frame_of((src, kind % 2, true, port, *seq, sym, start, num));
        *seq = seq.wrapping_add(1);
        for crossing in handle_charged(&mut near, &mut near_cache, msg)? {
            if lost && !matches!(crossing.body, Body::Recovery(_)) {
                continue;
            }
            for back in handle_charged(&mut far, &mut far_cache, crossing)? {
                if back.eth.dst != near_mac {
                    continue;
                }
                for replay in handle_charged(&mut near, &mut near_cache, back)? {
                    handle_charged(&mut far, &mut far_cache, replay)?;
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_app_charges_for_every_frame_it_answers(frames in arb_frames()) {
        let (mb_mac, du, du_b, ru, ru_b) = (mac(10), mac(1), mac(2), mac(21), mac(22));
        all_charged(
            Das::new("das", DasConfig { mb_mac, du_mac: du, ru_macs: vec![ru, ru_b] }),
            &frames,
        )?;
        all_charged(
            Dmimo::new(
                "dmimo",
                DmimoConfig {
                    mb_mac,
                    du_mac: du,
                    rus: vec![PhysicalRu { mac: ru, ports: 2 }, PhysicalRu { mac: ru_b, ports: 2 }],
                    ssb_copy: true,
                    ssb: Some(SsbBand { start_prb: 0, num_prb: 273 }),
                },
            ),
            &frames,
        )?;
        for second_du_shift in [0, 6 * 30_000] {
            // Aligned, then DU B half a PRB off the RU grid.
            all_charged(RuShare::new("rushare", rushare_cfg(mb_mac, ru, second_du_shift)), &frames)?;
        }
        all_charged(PrbMon::new("prbmon", PrbMonConfig::standard(mb_mac, du, ru, 273)), &frames)?;
        all_charged(
            Tap::new("tap", TapConfig { mb_mac, du_mac: du, ru_mac: ru, ring_capacity: 8 }),
            &frames,
        )?;
        all_charged(
            SecMon::new(
                "secmon",
                SecMonConfig {
                    mb_mac,
                    du_macs: vec![du, du_b],
                    ru_macs: vec![ru, ru_b],
                    towards_ru: ru,
                    towards_du: du,
                    carrier_prbs: 273,
                },
            ),
            &frames,
        )?;
        all_charged(
            Resilience::new(
                "resilience",
                ResilienceConfig {
                    mb_mac,
                    primary_mac: du,
                    standby_mac: du_b,
                    ru_mac: ru,
                    failure_timeout: SimDuration::from_micros(500),
                },
            ),
            &frames,
        )?;
        // The recovery halves, each on arbitrary input first, then as a
        // pair so replays, NACKs, parity and repairs actually happen.
        let (near, far, beyond) = (mac(10), mac(33), mac(40));
        let fec = FecConfig::new(4, 2).unwrap();
        all_charged(ArqSender::new("arq-s", near, far, 64), &frames)?;
        all_charged(ArqReceiver::new("arq-r", near, beyond, mac(30)), &frames)?;
        all_charged(FecEncoderMb::new("fec-e", near, far, fec), &frames)?;
        all_charged(FecDecoderMb::new("fec-d", near, beyond, 64), &frames)?;
        pair_charged(
            ArqSender::new("arq-s", near, far, 64),
            ArqReceiver::new("arq-r", far, beyond, near),
            near,
            &frames,
        )?;
        pair_charged(
            FecEncoderMb::new("fec-e", near, far, fec),
            FecDecoderMb::new("fec-d", far, beyond, 64),
            near,
            &frames,
        )?;
    }

    #[test]
    fn a_chain_does_the_same_in_process_and_on_the_simulated_nic(frames in arb_frames()) {
        // RU-share → DAS, chained purely by addressing: RU-share believes
        // the DAS (`b`) is its RU, the DAS believes RU-share (`a`) is its DU.
        let (a, b) = (mac(10), mac(11));
        let stages = || {
            let das = DasConfig { mb_mac: b, du_mac: a, ru_macs: vec![mac(21), mac(22)] };
            (RuShare::new("rushare", rushare_cfg(a, b, 0)), Das::new("das", das))
        };
        // DUs address the RU-share stage, everyone else the DAS.
        let inputs: Vec<FhMessage> = frames
            .iter()
            .map(|&spec| {
                let mut msg = frame_of(spec);
                if spec.0 >= 2 {
                    msg.eth.dst = b;
                }
                msg
            })
            .collect();
        let wire = |mut msg: FhMessage| {
            msg.seq_id = 0; // the hosts restamp
            msg.to_bytes(&EaxcMapping::DEFAULT).unwrap()
        };

        // In-process: `steer` between the two stages.
        let (mut share, mut das) = stages();
        let (mut direct, mut looped) = (Vec::new(), 0);
        with_ctx(&mut SymbolCache::new(4096), |ctx| {
            for msg in inputs.iter().cloned() {
                let first = usize::from(msg.eth.dst == b);
                let mut table: [(EthernetAddress, &mut dyn Middlebox); 2] =
                    [(a, &mut share), (b, &mut das)];
                looped += steer(ctx, &mut table, first, msg, &mut direct);
            }
        });
        prop_assert_eq!(looped, 0);
        let mut direct: Vec<Vec<u8>> = direct.into_iter().map(wire).collect();

        // Simulator: one VF each on an SR-IOV NIC, a sink on the wire.
        let mut engine = Engine::new();
        let (share, das) = stages();
        let hosts: Vec<(Box<dyn Node>, EthernetAddress)> = vec![
            (Box::new(MiddleboxHost::new(share, a, CostModel::dpdk(), 1)), a),
            (Box::new(MiddleboxHost::new(das, b, CostModel::dpdk(), 1)), b),
        ];
        let chain = build_chain(&mut engine, "prop", ChainSpec::default(), hosts);
        let sink = engine.add_node(Box::new(WireSink(Vec::new())));
        engine.connect(chain.phys, port(sink, 0), SimDuration::ZERO, 100.0);
        for peer in PEERS {
            engine.node_as_mut::<SriovNic>(chain.nic).learn_static(mac(peer), PHYS_PORT);
        }
        for (k, msg) in inputs.iter().enumerate() {
            // A millisecond apart: each frame's hops finish before the next.
            let at = SimTime(k as u64 * 1_000_000);
            engine.inject(at, chain.phys, msg.to_bytes(&EaxcMapping::DEFAULT).unwrap());
        }
        engine.run_until(SimTime(inputs.len() as u64 * 1_000_000));
        prop_assert_eq!(engine.node_as::<SriovNic>(chain.nic).floods, 0);
        let mut via_nic: Vec<Vec<u8>> = engine
            .node_as::<WireSink>(sink)
            .0
            .iter()
            .map(|bytes| wire(FhMessage::parse(bytes, &EaxcMapping::DEFAULT).unwrap()))
            .collect();

        direct.sort();
        via_nic.sort();
        prop_assert_eq!(direct, via_nic);
    }

    #[test]
    fn das_merge_is_elementwise_sum(
        n_rus in 2usize..6,
        prbs in proptest::collection::vec(arb_prb(), 1..12),
    ) {
        let mut das = Das::new(
            "p",
            DasConfig {
                mb_mac: mac(10),
                du_mac: mac(1),
                ru_macs: (0..n_rus as u8).map(|k| mac(20 + k)).collect(),
            },
        );
        let mut cache = SymbolCache::new(256);
        let mut out = Vec::new();
        for k in 0..n_rus as u8 {
            // Each RU contributes the same shape with scaled content.
            let scaled: Vec<Prb> = prbs
                .iter()
                .map(|p| {
                    let mut q = *p;
                    for s in q.0.iter_mut() {
                        s.i = s.i.wrapping_add(k as i16);
                    }
                    q
                })
                .collect();
            out = with_ctx(&mut cache, |ctx| das.handle(ctx, ul_msg(mac(20 + k), &scaled)));
        }
        prop_assert_eq!(out.len(), 1, "merge fires on the last RU");
        let decoded = out[0].as_uplane().unwrap().sections[0].decode().unwrap();
        for (idx, (got, _)) in decoded.iter().enumerate() {
            for sc in 0..SAMPLES_PER_PRB {
                let mut expect = IqSample::ZERO;
                for k in 0..n_rus as i16 {
                    let mut s = prbs[idx].0[sc];
                    s.i = s.i.wrapping_add(k);
                    expect = expect.saturating_add(s);
                }
                prop_assert_eq!(got.0[sc], expect);
            }
        }
        prop_assert!(cache.is_empty());
    }

    #[test]
    fn dmimo_port_mapping_is_bijective(
        ports in proptest::collection::vec(1u8..4, 1..5),
    ) {
        let total: u8 = ports.iter().sum();
        prop_assume!(total <= 16);
        let mb = Dmimo::new(
            "p",
            DmimoConfig {
                mb_mac: mac(10),
                du_mac: mac(1),
                rus: ports
                    .iter()
                    .enumerate()
                    .map(|(k, &p)| PhysicalRu { mac: mac(20 + k as u8), ports: p })
                    .collect(),
                ssb_copy: false,
                ssb: Some(SsbBand { start_prb: 0, num_prb: 20 }),
            },
        );
        prop_assert_eq!(mb.virtual_ports(), total);
        for v in 0..total {
            let (ru, local) = mb.to_physical(v).expect("in range");
            prop_assert!(local < ports[ru]);
            prop_assert_eq!(mb.to_virtual(ru, local), Some(v));
        }
        prop_assert_eq!(mb.to_physical(total), None);
    }

    #[test]
    fn rushare_ul_demux_extracts_exact_spectrum(
        prb_offset in 0u16..160,
        start in 0u16..90,
        num in 1u16..16,
        seed in any::<i16>(),
    ) {
        const RU_CENTER: i64 = 3_460_000_000;
        let du_center = freq::aligned_du_center_hz(RU_CENTER, 273, 106, prb_offset, 30_000);
        prop_assume!(prb_offset + 106 <= 273);
        let mut mb = RuShare::new(
            "p",
            RuShareConfig {
                mb_mac: mac(10),
                ru_mac: mac(9),
                ru: CarrierSpec { center_hz: RU_CENTER, num_prb: 273, scs_hz: 30_000 },
                dus: vec![SharedDu {
                    mac: mac(1),
                    du_id: 1,
                    carrier: CarrierSpec { center_hz: du_center, num_prb: 106, scs_hz: 30_000 },
                }],
            },
        );
        prop_assert_eq!(mb.alignment()[0], Alignment::Aligned { prb_offset });
        let mut cache = SymbolCache::new(64);
        // DU requests [start, start+num).
        let cp = FhMessage::new(
            mac(1),
            mac(10),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Uplink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, start, num, 14),
            )),
        );
        with_ctx(&mut cache, |ctx| mb.handle(ctx, cp));
        // RU returns a full spectrum with per-PRB distinct tones.
        let spectrum: Vec<Prb> = (0..273)
            .map(|k| {
                let mut p = Prb::ZERO;
                for (sc, s) in p.0.iter_mut().enumerate() {
                    *s = IqSample::new(seed.wrapping_add(k as i16 * 13), sc as i16);
                }
                p
            })
            .collect();
        let section = USection::from_prbs(0, 0, &spectrum, CompressionMethod::BFP9).unwrap();
        let ru_msg = FhMessage::new(
            mac(9),
            mac(10),
            Eaxc::port(0),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Uplink, SymbolId::ZERO, section.clone())),
        );
        let out = with_ctx(&mut cache, |ctx| mb.handle(ctx, ru_msg));
        prop_assert_eq!(out.len(), 1);
        let s = &out[0].as_uplane().unwrap().sections[0];
        prop_assert_eq!(s.start_prb, start);
        prop_assert_eq!(s.num_prb(), num);
        // Bit-exact extraction from the RU grid at prb_offset + start.
        for k in 0..num {
            prop_assert_eq!(
                s.prb_bytes(k).unwrap(),
                section.prb_bytes(prb_offset + start + k).unwrap()
            );
        }
    }

    #[test]
    fn prbmon_counts_match_manual_scan(
        exps in proptest::collection::vec(0u8..8, 1..40),
    ) {
        let mut cfg = PrbMonConfig::standard(mac(10), mac(1), mac(9), 273);
        cfg.thr_dl = 0;
        let mut mb = PrbMon::new("p", cfg);
        let mut cache = SymbolCache::new(16);
        // Craft a BFP payload with the given exponents (mantissas zero).
        let method = CompressionMethod::BFP9;
        let per = method.prb_wire_bytes();
        let mut payload = vec![0u8; per * exps.len()];
        for (k, &e) in exps.iter().enumerate() {
            payload[k * per] = e & 0x0f;
        }
        let section = USection {
            section_id: 0,
            rb: false,
            sym_inc: false,
            start_prb: 0,
            method,
            payload: payload.as_slice().into(),
        };
        let msg = FhMessage::new(
            mac(1),
            mac(10),
            Eaxc::port(0),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Downlink, SymbolId::ZERO, section)),
        );
        let out = with_ctx(&mut cache, |ctx| mb.handle(ctx, msg));
        prop_assert_eq!(out.len(), 1, "monitor always forwards");
        let manual = exps.iter().filter(|&&e| e > 0).count() as u64;
        prop_assert_eq!(mb.stats.prbs_scanned, exps.len() as u64);
        // The window accumulator holds exactly the manual count.
        // (Flush it through a later packet at t > window.)
        let flushed = with_ctx(&mut cache, |ctx| {
            ctx.now = SimTime(2_000_000);
            mb.handle(ctx, FhMessage::new(
                mac(1),
                mac(10),
                Eaxc::port(1), // other port: forwarded, not counted
                0,
                Body::UPlane(UPlaneRepr::single(
                    Direction::Downlink,
                    SymbolId::ZERO,
                    USection::from_prbs(0, 0, &[Prb::ZERO], method).unwrap(),
                )),
            ))
        });
        prop_assert_eq!(flushed.len(), 1);
        let dl_report = mb
            .reports
            .iter()
            .find(|r| r.direction == Direction::Downlink)
            .expect("flushed");
        prop_assert_eq!(dl_report.utilized_prbs, manual);
    }

    #[test]
    fn seq_trackers_agree_with_seq_step(last in any::<u8>()) {
        // One pipeline, one stream (source MAC) per candidate `seq`.
        let mut pipe = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let (mut gaps, mut dups) = (0u64, 0u64);
        for seq in 0..=u8::MAX {
            let step = seq_step(last, seq);
            for s in [last, seq] {
                let mut m = ul_msg(mac(seq), &[Prb::ZERO]);
                m.seq_id = s;
                pipe.process(SimTime(0), &m.to_bytes(&EaxcMapping::DEFAULT).unwrap(), &mut |_| {});
            }
            match step {
                SeqStep::Next => {}
                SeqStep::Ahead { skipped } => gaps += u64::from(skipped),
                SeqStep::Repeat | SeqStep::Behind => dups += 1,
            }
            prop_assert_eq!((pipe.stats.seq_gaps, pipe.stats.seq_dups), (gaps, dups), "seq {}", seq);

            let mut t = RxTracker::new();
            t.observe(last);
            let verdict = match step {
                SeqStep::Next => GapVerdict::InOrder,
                SeqStep::Ahead { skipped } => {
                    GapVerdict::Ahead { first: last.wrapping_add(1), count: skipped }
                }
                SeqStep::Repeat | SeqStep::Behind => GapVerdict::Duplicate,
            };
            prop_assert_eq!(t.observe(seq), verdict, "seq {}", seq);

            let mut w = DedupWindow::new();
            w.admit(last);
            let (fresh, newest) = match step {
                SeqStep::Repeat => (false, last),
                SeqStep::Behind => (true, last), // a late first copy: the edge stays
                SeqStep::Next | SeqStep::Ahead { .. } => (true, seq),
            };
            prop_assert_eq!((w.admit(seq), w.newest()), (fresh, newest), "seq {}", seq);
        }
    }
}
