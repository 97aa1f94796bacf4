//! Wire-frame generation: the deterministic city capture.
//!
//! [`generate`] walks the schedule round by round (one fronthaul symbol
//! per round) and emits every site's and UE's frames in a fixed order:
//! sites by id, streams in site order, UEs by id. Sequence numbers are
//! stamped from per-`(src MAC, eAxC, direction)` wrapping counters, timestamps are
//! `symbol start + emit index` nanoseconds, and IQ payloads are derived
//! by a stateless mix of `(stream, round, leg)` — so the capture is a
//! pure function of `(seed, spec)` with no draw-order coupling between
//! streams, and per-flow frame order is monotonic in time.

use std::collections::HashMap;

use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::EaxcMapping;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::pcap::PcapWriter;
use rb_fronthaul::timing::{Numerology, SymbolId, SYMBOLS_PER_SLOT};
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;
use rb_netsim::rng::mix;

use super::schedule::EventSchedule;
use super::spec::ScenarioSpec;
use super::topo::{SiteKind, Topology, DU_NUM_PRB, RU_NUM_PRB};

/// The generated wire capture: `(timestamp ns, frame bytes)` in
/// dispatch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capture {
    /// Frames in dispatch order; timestamps strictly increase.
    pub frames: Vec<(u64, Vec<u8>)>,
}

impl Capture {
    /// Serialize as a pcap byte blob (the dataplane replay format).
    pub fn to_pcap(&self) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).expect("vec sink");
        for (at_ns, frame) in &self.frames {
            w.write_frame(*at_ns, frame).expect("vec sink");
        }
        w.finish().expect("vec sink")
    }
}

/// The `SymbolId` of round `r`: rounds count μ=1 symbols from the
/// origin, so round `r` is symbol `r % 14` of slot `(r / 14) % 2` of
/// subframe `(r / 28) % 10` of frame `(r / 280) % 256`.
pub fn symbol_for_round(r: u32) -> SymbolId {
    let sym = u8::try_from(r % u32::from(SYMBOLS_PER_SLOT)).expect("mod 14");
    let slots = r / u32::from(SYMBOLS_PER_SLOT);
    SymbolId {
        frame: ((slots / 2 / 10) % 256) as u8,
        subframe: ((slots / 2) % 10) as u8,
        slot: (slots % 2) as u8,
        symbol: sym,
    }
}

/// Compression used by every generated U-plane and C-plane.
const METHOD: CompressionMethod = CompressionMethod::BFP9;

struct Emitter {
    frames: Vec<(u64, Vec<u8>)>,
    // One wrapping counter per (src MAC, eAxC, direction) — the
    // dispatcher's flow identity and the pipeline gap detector's key, so
    // a loss-free capture replays with zero findings at any worker count.
    seq: HashMap<(EthernetAddress, u16, Direction), u8>,
    mapping: EaxcMapping,
    gateway: EthernetAddress,
    base_ns: u64,
    idx: u64,
}

impl Emitter {
    fn emit(&mut self, src: EthernetAddress, raw: u16, body: Body) {
        let seq = self.seq.entry((src, raw, body.direction())).or_insert(0);
        let msg = FhMessage::new(src, self.gateway, Topology::eaxc(raw), *seq, body);
        *seq = seq.wrapping_add(1);
        let bytes = msg.to_bytes(&self.mapping).expect("generated frames are well-formed");
        self.frames.push((self.base_ns + self.idx, bytes));
        self.idx += 1;
    }
}

fn tone(seed: u64) -> Prb {
    let mut p = Prb::ZERO;
    for (k, s) in p.0.iter_mut().enumerate() {
        let v = mix(seed, k as u64, 0x70_0e);
        *s = IqSample::new((v & 0x7ff) as i16 - 1024, ((v >> 16) & 0x7ff) as i16 - 1024);
    }
    p
}

fn payload(raw: u16, round: u32, leg: usize, prbs: usize) -> Vec<Prb> {
    (0..prbs).map(|p| tone(mix(u64::from(raw), u64::from(round), (leg * 131 + p) as u64))).collect()
}

fn uplane(dir: Direction, symbol: SymbolId, start: u16, prbs: &[Prb]) -> Body {
    let section = USection::from_prbs(0, start, prbs, METHOD).expect("payload fits");
    Body::UPlane(UPlaneRepr::single(dir, symbol, section))
}

fn cplane(dir: Direction, symbol: SymbolId, num_prb: u16, num_symbols: u8) -> Body {
    Body::CPlane(CPlaneRepr::single(
        dir,
        symbol,
        METHOD,
        SectionFields::data(0, 0, num_prb, num_symbols),
    ))
}

/// Generate the full capture for a laid-out scenario.
pub fn generate(spec: &ScenarioSpec, topo: &Topology, schedule: &EventSchedule) -> Capture {
    let mut em = Emitter {
        frames: Vec::new(),
        seq: HashMap::new(),
        mapping: EaxcMapping::DEFAULT,
        gateway: topo.gateway,
        base_ns: 0,
        idx: 0,
    };
    let prbs = spec.payload_prbs;
    for r in 0..schedule.rounds {
        let symbol = symbol_for_round(r);
        em.base_ns = symbol.to_ns(Numerology::Mu1);
        em.idx = 0;
        let slot_start = symbol.symbol == 0;
        for site in &topo.sites {
            let du = topo.dus[site.dus[0]];
            match site.kind {
                SiteKind::Cell | SiteKind::Das => {
                    for s in &site.streams {
                        em.emit(du, s.raw, cplane(Direction::Downlink, symbol, prbs as u16, 1));
                        em.emit(
                            du,
                            s.raw,
                            uplane(Direction::Downlink, symbol, 0, &payload(s.raw, r, 0, prbs)),
                        );
                        for (leg, ru) in site.rus.iter().enumerate() {
                            em.emit(
                                *ru,
                                s.raw,
                                uplane(
                                    Direction::Uplink,
                                    symbol,
                                    0,
                                    &payload(s.raw, r, leg + 1, prbs),
                                ),
                            );
                        }
                    }
                }
                SiteKind::Dmimo { .. } => {
                    for s in &site.streams {
                        em.emit(du, s.raw, cplane(Direction::Downlink, symbol, prbs as u16, 1));
                        em.emit(
                            du,
                            s.raw,
                            uplane(Direction::Downlink, symbol, 0, &payload(s.raw, r, 0, prbs)),
                        );
                    }
                    // Uplink: each radio transmits its local ports; the
                    // local-port raw lives in the same 16-raw tag block.
                    let block = site.streams[0].raw & !0xF;
                    for (i, ru) in site.rus.iter().enumerate() {
                        for p in 0..spec.dmimo_ports_per_ru {
                            let raw = block | p as u16;
                            em.emit(
                                *ru,
                                raw,
                                uplane(Direction::Uplink, symbol, 0, &payload(raw, r, i + 1, prbs)),
                            );
                        }
                    }
                }
                SiteKind::RuShare | SiteKind::ChainRuShareDas => {
                    for s in &site.streams {
                        // Per-slot C-plane from every operator DU — the
                        // middlebox forwards the first (maximized) and
                        // absorbs the rest, and caches each DU's uplink
                        // request ranges for the demux below.
                        if slot_start {
                            for &d in &site.dus {
                                let op_du = topo.dus[d];
                                em.emit(
                                    op_du,
                                    s.raw,
                                    cplane(
                                        Direction::Downlink,
                                        symbol,
                                        DU_NUM_PRB,
                                        SYMBOLS_PER_SLOT,
                                    ),
                                );
                                em.emit(
                                    op_du,
                                    s.raw,
                                    cplane(Direction::Uplink, symbol, DU_NUM_PRB, SYMBOLS_PER_SLOT),
                                );
                            }
                        }
                        for &d in &site.dus {
                            em.emit(
                                topo.dus[d],
                                s.raw,
                                uplane(
                                    Direction::Downlink,
                                    symbol,
                                    0,
                                    &payload(s.raw, r, d, prbs.min(usize::from(DU_NUM_PRB))),
                                ),
                            );
                        }
                        // The radio side: a full-carrier uplink symbol —
                        // from the shared RU directly, or one leg per
                        // DAS radio in the chained variant.
                        for (leg, ru) in site.rus.iter().enumerate() {
                            em.emit(
                                *ru,
                                s.raw,
                                uplane(
                                    Direction::Uplink,
                                    symbol,
                                    0,
                                    &payload(s.raw, r, 100 + leg, usize::from(RU_NUM_PRB)),
                                ),
                            );
                        }
                    }
                }
            }
        }
        for (u, ue) in topo.ues.iter().enumerate() {
            let Some(site_id) = schedule.site_of(topo, u, r) else {
                continue; // handover interruption: radio silence
            };
            let site = &topo.sites[site_id];
            let du = topo.dus[site.dus[0]];
            em.emit(du, ue.raw, cplane(Direction::Downlink, symbol, prbs as u16, 1));
            em.emit(
                du,
                ue.raw,
                uplane(Direction::Downlink, symbol, 0, &payload(ue.raw, r, 0, prbs)),
            );
            let legs = match schedule.cut_legs_of(u, r) {
                Some(cut) => usize::from(cut).min(site.rus.len()),
                None => site.rus.len(),
            };
            for (leg, ru) in site.rus.iter().take(legs).enumerate() {
                em.emit(
                    *ru,
                    ue.raw,
                    uplane(Direction::Uplink, symbol, 0, &payload(ue.raw, r, leg + 1, prbs)),
                );
            }
        }
        debug_assert!(
            em.idx < Numerology::Mu1.symbol_ns(),
            "round emits more frames than fit in one symbol's nanoseconds"
        );
    }
    Capture { frames: em.frames }
}
