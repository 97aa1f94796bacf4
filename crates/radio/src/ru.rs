//! The RU (Radio Unit) emulator.
//!
//! Stands in for the Foxconn RPQN-7800s: a Cat-A O-RAN radio that
//! faithfully does what the fronthaul tells it —
//!
//! * downlink U-plane packets are "radiated": their per-PRB activity
//!   (taken from the BFP exponents, no decompression needed) is deposited
//!   into the [`crate::medium`] at the RU's absolute frequencies;
//! * uplink C-plane (section type 1) schedules make the RU synthesize
//!   U-plane responses whose IQ amplitude follows the UEs actually
//!   transmitting at those frequencies, plus the thermal noise floor —
//!   so BFP exponents carry the energy signature Algorithm 1 relies on;
//! * PRACH (section type 3) schedules sample the window named by each
//!   section's `frequencyOffset` — a mistranslated offset (the RU-sharing
//!   pitfall of Appendix A.1.2) simply hears no preamble;
//! * packets for antenna ports the RU does not have are dropped (the
//!   behaviour the dMIMO middlebox's eAxC remap exists to avoid), and
//!   packets arriving after their slot has been processed are late-dropped
//!   (the strict timing window of §2.2).

use std::collections::HashMap;

use rb_fronthaul::cplane::Sections;
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::freq;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::{Numerology, SYMBOLS_PER_SLOT};
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;
use rb_netsim::engine::{Engine, Node, NodeEvent, NodeId, Outbox};
use rb_netsim::time::SimDuration;

use crate::cell::Pci;
use crate::channel::Position;
use crate::du::UL_NOISE_SIGMA;
use crate::iqgen::PrbTemplates;
use crate::medium::SharedMedium;
use crate::timebase;

/// Timer tag used for the RU slot tick.
pub const RU_TICK: u64 = 2;

/// RU configuration.
#[derive(Debug, Clone)]
pub struct RuConfig {
    /// The RU's fronthaul MAC address.
    pub mac: EthernetAddress,
    /// Where uplink traffic is sent: the DU, or a middlebox posing as one.
    pub fh_dst: EthernetAddress,
    /// Carrier center frequency, Hz.
    pub center_hz: i64,
    /// Carrier width in PRBs.
    pub num_prb: u16,
    /// Numerology.
    pub numerology: Numerology,
    /// Number of antenna ports (spatial streams).
    pub ports: u8,
    /// Physical placement.
    pub pos: Position,
    /// Cells this RU is deployed to serve (M-plane knowledge; used for
    /// interference bookkeeping in the medium).
    pub serves: Vec<Pci>,
    /// Transmit power per PRB per port, dBm.
    pub tx_dbm_per_prb: f64,
    /// Unique tag identifying this RU's streams.
    pub ru_tag: u64,
    /// eAxC mapping.
    pub mapping: EaxcMapping,
    /// How far into a slot the RU processes it (radiation + UL emission).
    pub tick_offset: SimDuration,
}

impl RuConfig {
    /// An RU matching `num_prb`/`center_hz` with sensible defaults.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        mac: EthernetAddress,
        fh_dst: EthernetAddress,
        center_hz: i64,
        num_prb: u16,
        ports: u8,
        pos: Position,
        serves: Vec<Pci>,
        ru_tag: u64,
    ) -> RuConfig {
        RuConfig {
            mac,
            fh_dst,
            center_hz,
            num_prb,
            numerology: Numerology::Mu1,
            ports,
            pos,
            serves,
            tx_dbm_per_prb: 0.0,
            ru_tag,
            mapping: EaxcMapping::DEFAULT,
            tick_offset: SimDuration::from_micros(150),
        }
    }
}

/// Aggregate RU counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuStats {
    /// Downlink U-plane packets accepted.
    pub dl_uplane_rx: u64,
    /// Downlink C-plane packets seen.
    pub dl_cplane_rx: u64,
    /// Uplink C-plane schedules accepted.
    pub ul_cplane_rx: u64,
    /// Packets dropped for missing the slot deadline.
    pub late_drops: u64,
    /// Packets dropped for naming a nonexistent antenna port.
    pub unknown_port_drops: u64,
    /// Uplink U-plane packets transmitted.
    pub ul_uplane_tx: u64,
    /// PRACH U-plane packets transmitted.
    pub prach_tx: u64,
    /// Slots in which this RU radiated downlink.
    pub radiated_slots: u64,
    /// Frames that failed to parse.
    pub parse_errors: u64,
}

#[derive(Debug, Clone, Copy)]
struct UlDataSched {
    port: u8,
    start_prb: u16,
    num_prb: u16,
}

#[derive(Debug, Clone, Copy)]
struct PrachSched {
    port: u8,
    section_id: u16,
    num_prb: u16,
    freq_offset: i32,
}

/// The RU emulator node.
pub struct Ru {
    cfg: RuConfig,
    medium: SharedMedium,
    cursor: u32,
    ul_sched: HashMap<u32, Vec<UlDataSched>>,
    prach_sched: HashMap<u32, Vec<PrachSched>>,
    dl_on: HashMap<u32, HashMap<u8, Vec<bool>>>,
    templates: PrbTemplates,
    seq: HashMap<u16, u8>,
    /// Counters.
    pub stats: RuStats,
}

impl Ru {
    /// Build an RU. `compression` sets the uplink U-plane encoding.
    pub fn new(cfg: RuConfig, medium: SharedMedium) -> Ru {
        let templates = PrbTemplates::new(
            rb_fronthaul::bfp::CompressionMethod::BFP9,
            UL_NOISE_SIGMA,
            cfg.ru_tag.wrapping_mul(0x9e37_79b9),
        );
        Ru {
            cfg,
            medium,
            cursor: 1,
            ul_sched: HashMap::new(),
            prach_sched: HashMap::new(),
            dl_on: HashMap::new(),
            templates,
            seq: HashMap::new(),
            stats: RuStats::default(),
        }
    }

    /// Schedule the RU's first slot tick.
    pub fn start(
        engine: &mut Engine,
        id: NodeId,
        numerology: Numerology,
        tick_offset: SimDuration,
    ) {
        let at = timebase::slot_start(numerology, 1) + tick_offset;
        engine.schedule_timer(id, at, RU_TICK);
    }

    /// The RU's configuration.
    pub fn config(&self) -> &RuConfig {
        &self.cfg
    }

    fn next_seq(&mut self, eaxc_raw: u16) -> u8 {
        let c = self.seq.entry(eaxc_raw).or_insert(0);
        let v = *c;
        *c = c.wrapping_add(1);
        v
    }

    fn send_uplane(&mut self, out: &mut Outbox, port: u8, up: UPlaneRepr) {
        let eaxc = Eaxc::port(port);
        let raw = eaxc.pack(&self.cfg.mapping);
        let seq = self.next_seq(raw);
        let msg = FhMessage::new(self.cfg.mac, self.cfg.fh_dst, eaxc, seq, Body::UPlane(up));
        if let Ok(bytes) = msg.to_bytes(&self.cfg.mapping) {
            out.send(0, bytes);
        }
    }

    fn prb_width(&self) -> i64 {
        freq::prb_width_hz(self.cfg.numerology.scs_hz()) as i64
    }

    fn carrier_lo(&self) -> i64 {
        freq::prb0_frequency_hz(self.cfg.center_hz, self.cfg.num_prb, self.cfg.numerology.scs_hz())
    }

    fn process_slot(&mut self, slot: u32, out: &mut Outbox) {
        // 1. Radiate the downlink spectrum received for this slot.
        if let Some(ports) = self.dl_on.remove(&slot) {
            let mut radiated = false;
            let mut m = self.medium.lock();
            for (port, prb_on) in ports {
                if prb_on.iter().any(|&b| b) {
                    m.radiate_dl(
                        slot,
                        &self.cfg.serves,
                        self.cfg.pos,
                        (self.cfg.ru_tag, port),
                        self.carrier_lo(),
                        self.prb_width(),
                        prb_on,
                        self.cfg.tx_dbm_per_prb,
                    );
                    radiated = true;
                }
            }
            if radiated {
                self.stats.radiated_slots += 1;
            }
        }

        // 2. Serve uplink data schedules.
        if let Some(scheds) = self.ul_sched.remove(&slot) {
            let profile = {
                let m = self.medium.lock();
                m.ul_profile(
                    slot,
                    self.cfg.pos,
                    self.carrier_lo(),
                    self.prb_width(),
                    self.cfg.num_prb,
                )
            };
            // One U-plane packet per (symbol, port) carrying every
            // scheduled section; oversized (> 255 PRB) sections sort last
            // so the numPrbu="all" wire encoding stays parseable.
            let mut by_port: HashMap<u8, Vec<UlDataSched>> = HashMap::new();
            for sched in scheds {
                by_port.entry(sched.port).or_default().push(sched);
            }
            for (port, mut port_scheds) in by_port {
                port_scheds.sort_by_key(|s| (s.num_prb > 255, s.start_prb));
                for sym in 0..SYMBOLS_PER_SLOT {
                    let mut sections = Vec::with_capacity(port_scheds.len());
                    for (sid, sched) in port_scheds.iter().enumerate() {
                        let mut payload = Vec::with_capacity(
                            sched.num_prb as usize * self.templates.wire_bytes(),
                        );
                        for prb in sched.start_prb..sched.start_prb + sched.num_prb {
                            let amp = profile.get(prb as usize).copied().unwrap_or(0.0);
                            payload.extend_from_slice(self.templates.fill(amp));
                        }
                        sections.push(USection {
                            section_id: sid as u16,
                            rb: false,
                            sym_inc: false,
                            start_prb: sched.start_prb,
                            method: self.templates.method(),
                            payload: payload.as_slice().into(),
                        });
                    }
                    let up = UPlaneRepr {
                        direction: Direction::Uplink,
                        filter_index: 0,
                        symbol: timebase::symbol_id(self.cfg.numerology, slot, sym),
                        sections,
                    };
                    self.send_uplane(out, port, up);
                    self.stats.ul_uplane_tx += 1;
                }
            }
        }

        // 3. Serve PRACH schedules: one packet with one section per cached
        // C-plane section (Algorithm 3 shape), each sampling its own
        // frequencyOffset window.
        if let Some(scheds) = self.prach_sched.remove(&slot) {
            let half_scs = self.cfg.numerology.scs_hz() as i64 / 2;
            let mut by_port: HashMap<u8, Vec<USection>> = HashMap::new();
            for sched in scheds {
                let lo = self.cfg.center_hz - sched.freq_offset as i64 * half_scs;
                let hi = lo + sched.num_prb as i64 * self.prb_width();
                let hits = {
                    let mut m = self.medium.lock();
                    m.prach_poll(slot, self.cfg.pos, &self.cfg.serves, lo, hi)
                };
                let amp = hits.iter().map(|(_, a)| *a).fold(0.0f64, f64::max);
                let mut payload = Vec::new();
                for _ in 0..sched.num_prb {
                    payload.extend_from_slice(self.templates.fill(amp));
                }
                by_port.entry(sched.port).or_default().push(USection {
                    section_id: sched.section_id,
                    rb: false,
                    sym_inc: false,
                    start_prb: 0,
                    method: self.templates.method(),
                    payload: payload.as_slice().into(),
                });
            }
            for (port, sections) in by_port {
                let up = UPlaneRepr {
                    direction: Direction::Uplink,
                    filter_index: 1,
                    symbol: timebase::symbol_id(self.cfg.numerology, slot, 0),
                    sections,
                };
                self.send_uplane(out, port, up);
                self.stats.prach_tx += 1;
            }
        }
    }

    fn on_cplane(&mut self, msg: &FhMessage) {
        let cp = msg.as_cplane().expect("checked by caller");
        if cp.direction == Direction::Downlink {
            self.stats.dl_cplane_rx += 1;
            return; // DL C-plane: transmission permission, no state needed.
        }
        let slot = timebase::absolute_slot(self.cfg.numerology, cp.symbol, self.cursor);
        if slot < self.cursor {
            self.stats.late_drops += 1;
            return;
        }
        let port = msg.eaxc.ru_port;
        self.stats.ul_cplane_rx += 1;
        match &cp.sections {
            // Idle-resource advertisements: nothing to schedule.
            Sections::Type0 { .. } => {}
            Sections::Type1 { sections, .. } => {
                for s in sections {
                    let num = s.resolved_num_prb(self.cfg.num_prb);
                    let start = s.start_prb.min(self.cfg.num_prb);
                    let num = num.min(self.cfg.num_prb - start);
                    if num == 0 {
                        continue;
                    }
                    self.ul_sched.entry(slot).or_default().push(UlDataSched {
                        port,
                        start_prb: start,
                        num_prb: num,
                    });
                }
            }
            Sections::Type3 { sections, .. } => {
                for s in sections {
                    self.prach_sched.entry(slot).or_default().push(PrachSched {
                        port,
                        section_id: s.fields.section_id,
                        num_prb: s.fields.resolved_num_prb(self.cfg.num_prb),
                        freq_offset: s.frequency_offset,
                    });
                }
            }
        }
    }

    fn on_dl_uplane(&mut self, msg: &FhMessage) {
        let up = msg.as_uplane().expect("checked by caller");
        let slot = timebase::absolute_slot(self.cfg.numerology, up.symbol, self.cursor);
        if slot < self.cursor {
            self.stats.late_drops += 1;
            return;
        }
        self.stats.dl_uplane_rx += 1;
        let port = msg.eaxc.ru_port;
        let on = self
            .dl_on
            .entry(slot)
            .or_default()
            .entry(port)
            .or_insert_with(|| vec![false; self.cfg.num_prb as usize]);
        for section in &up.sections {
            let Ok(exps) = section.exponents() else {
                // Uncompressed payloads: treat any nonzero PRB as active.
                for k in 0..section.num_prb() {
                    if let Ok(bytes) = section.prb_bytes(k) {
                        let active = bytes.iter().any(|&b| b != 0);
                        let idx = (section.start_prb + k) as usize;
                        if idx < on.len() {
                            on[idx] |= active;
                        }
                    }
                }
                continue;
            };
            for (k, &e) in exps.iter().enumerate() {
                let idx = section.start_prb as usize + k;
                if idx < on.len() {
                    on[idx] |= e > 0;
                }
            }
        }
    }
}

impl Node for Ru {
    fn on_event(&mut self, ev: NodeEvent, out: &mut Outbox) {
        match ev {
            NodeEvent::Timer { tag: RU_TICK } => {
                let slot = self.cursor;
                self.process_slot(slot, out);
                self.cursor += 1;
                let at =
                    timebase::slot_start(self.cfg.numerology, self.cursor) + self.cfg.tick_offset;
                out.schedule_at(at, RU_TICK);
            }
            NodeEvent::Timer { .. } => {}
            NodeEvent::Packet { frame, .. } => {
                let Ok(msg) = FhMessage::parse(&frame, &self.cfg.mapping) else {
                    self.stats.parse_errors += 1;
                    return;
                };
                if msg.eth.dst != self.cfg.mac {
                    return;
                }
                if msg.eaxc.ru_port >= self.cfg.ports {
                    self.stats.unknown_port_drops += 1;
                    return;
                }
                match (&msg.body, msg.body.direction()) {
                    (Body::CPlane(_), _) => self.on_cplane(&msg),
                    (Body::UPlane(_), Direction::Downlink) => self.on_dl_uplane(&msg),
                    (Body::UPlane(_), Direction::Uplink) => {}
                    // Recovery control that reaches the radio means a
                    // middlebox chain let it through; the RU just ignores it.
                    (Body::Recovery(_), _) => {}
                }
            }
        }
    }

    fn name(&self) -> &str {
        "ru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::CellConfig;
    use crate::medium::{self, Medium, MediumParams, UeAttach};
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, Section3, SectionFields};
    use rb_netsim::engine::{port, Engine};
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    struct Capture {
        frames: Vec<Vec<u8>>,
    }
    impl Node for Capture {
        fn on_event(&mut self, ev: NodeEvent, _out: &mut Outbox) {
            if let NodeEvent::Packet { frame, .. } = ev {
                self.frames.push(frame);
            }
        }
    }

    const CENTER: i64 = 3_460_000_000;

    fn setup() -> (Engine, NodeId, NodeId, SharedMedium) {
        let m = medium::shared(Medium::new(MediumParams::default()));
        m.lock().register_cell(CellConfig::mhz100(1, CENTER, 4));
        let cfg =
            RuConfig::new(mac(9), mac(1), CENTER, 273, 4, Position::new(10.0, 10.0, 0), vec![1], 7);
        let mut engine = Engine::new();
        let ru = engine.add_node(Box::new(Ru::new(cfg, m.clone())));
        let cap = engine.add_node(Box::new(Capture { frames: vec![] }));
        engine.connect(port(ru, 0), port(cap, 0), SimDuration::from_micros(5), 25.0);
        Ru::start(&mut engine, ru, Numerology::Mu1, SimDuration::from_micros(150));
        (engine, ru, cap, m)
    }

    fn ul_cplane_bytes(slot: u32, port: u8, start: u16, num: u16) -> Vec<u8> {
        let cp = CPlaneRepr {
            direction: Direction::Uplink,
            filter_index: 0,
            symbol: timebase::symbol_id(Numerology::Mu1, slot, 0),
            sections: Sections::Type1 {
                comp: CompressionMethod::BFP9,
                sections: vec![SectionFields::data(0, start, num, 14)],
            },
        };
        FhMessage::new(mac(1), mac(9), Eaxc::port(port), 0, Body::CPlane(cp))
            .to_bytes(&EaxcMapping::DEFAULT)
            .unwrap()
    }

    #[test]
    fn ul_cplane_yields_uplane_response() {
        let (mut engine, ru, cap, _m) = setup();
        // Schedule slot 8 UL on port 0, PRBs 0..106.
        engine.inject(SimTime(3_500_000), port(ru, 0), ul_cplane_bytes(8, 0, 0, 106));
        engine.run_until(SimTime(6_000_000));
        let frames = &engine.node_as::<Capture>(cap).frames;
        assert_eq!(frames.len(), 14, "one U-plane per symbol");
        let msg = FhMessage::parse(&frames[0], &EaxcMapping::DEFAULT).unwrap();
        let up = msg.as_uplane().unwrap();
        assert_eq!(up.direction, Direction::Uplink);
        assert_eq!(up.sections[0].num_prb(), 106);
        // No UEs transmit → noise only → exponents ≤ 2.
        assert!(up.sections[0].exponents().unwrap().iter().all(|&e| e <= 2));
        assert_eq!(engine.node_as::<Ru>(ru).stats.ul_uplane_tx, 14);
    }

    #[test]
    fn numprb_all_expands_to_full_carrier() {
        let (mut engine, _ru, cap, _m) = setup();
        engine.inject(SimTime(3_500_000), port(_ru, 0), ul_cplane_bytes(8, 0, 0, 0));
        engine.run_until(SimTime(6_000_000));
        let frames = &engine.node_as::<Capture>(cap).frames;
        let msg = FhMessage::parse(&frames[0], &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(msg.as_uplane().unwrap().sections[0].num_prb(), 273);
    }

    #[test]
    fn ul_response_carries_ue_signal_energy() {
        let (mut engine, ru, cap, m) = setup();
        // A UE transmits on PRBs 50..60 of the carrier in slot 8.
        {
            let mut med = m.lock();
            let ue = med.add_ue(Position::new(12.0, 10.0, 0), 4);
            let cell = med.cell(1).unwrap().clone();
            let (lo, hi) = cell.prb_freq_range(50, 10);
            med.deposit_ul(
                8,
                crate::medium::UlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 10 },
            );
        }
        engine.inject(SimTime(3_500_000), port(ru, 0), ul_cplane_bytes(8, 0, 0, 0));
        engine.run_until(SimTime(6_000_000));
        let frames = &engine.node_as::<Capture>(cap).frames;
        let msg = FhMessage::parse(&frames[0], &EaxcMapping::DEFAULT).unwrap();
        let exps = msg.as_uplane().unwrap().sections[0].exponents().unwrap();
        assert!(exps[55] > 2, "allocated PRB carries signal, exp {}", exps[55]);
        assert!(exps[10] <= 2, "idle PRB stays noisy, exp {}", exps[10]);
    }

    #[test]
    fn dl_uplane_radiates_into_medium() {
        let (mut engine, ru, _cap, m) = setup();
        // Add a UE so SSB detection has an observer; craft a DL U-plane
        // covering the SSB band at an SSB slot... simpler: verify the
        // radiation path via attach after a DAS-like broadcast.
        let ue = m.lock().add_ue(Position::new(12.0, 10.0, 0), 4);
        // Build a DL U-plane lighting the SSB band for slot 40 (SSB slot).
        let cell = m.lock().cell(1).unwrap().clone();
        let mut payload = Vec::new();
        let mut templ = PrbTemplates::new(CompressionMethod::BFP9, UL_NOISE_SIGMA, 1);
        for _ in 0..cell.ssb.num_prb {
            payload.extend_from_slice(templ.signal(4000.0));
        }
        let up = UPlaneRepr {
            direction: Direction::Downlink,
            filter_index: 0,
            symbol: timebase::symbol_id(Numerology::Mu1, 40, 2),
            sections: vec![USection {
                section_id: 0,
                rb: false,
                sym_inc: false,
                start_prb: cell.ssb.start_prb,
                method: CompressionMethod::BFP9,
                payload: payload.as_slice().into(),
            }],
        };
        let bytes = FhMessage::new(mac(1), mac(9), Eaxc::port(0), 0, Body::UPlane(up))
            .to_bytes(&EaxcMapping::DEFAULT)
            .unwrap();
        engine.inject(SimTime(19_800_000), port(ru, 0), bytes);
        engine.run_until(SimTime(25_000_000));
        let mut med = m.lock();
        med.resolve_through(45);
        assert_eq!(med.ue_stats(ue).attach, UeAttach::PrachPending(1));
        assert_eq!(engine.node_as::<Ru>(ru).stats.radiated_slots, 1);
    }

    #[test]
    fn unknown_port_dropped() {
        let (mut engine, ru, cap, _m) = setup();
        engine.inject(SimTime(3_500_000), port(ru, 0), ul_cplane_bytes(8, 7, 0, 106));
        engine.run_until(SimTime(6_000_000));
        assert_eq!(engine.node_as::<Ru>(ru).stats.unknown_port_drops, 1);
        assert!(engine.node_as::<Capture>(cap).frames.is_empty());
    }

    #[test]
    fn late_packets_dropped() {
        let (mut engine, ru, cap, _m) = setup();
        // Slot 3 is already processed by the time this arrives (t=4 ms →
        // cursor ≈ 8).
        engine.inject(SimTime(4_000_000), port(ru, 0), ul_cplane_bytes(3, 0, 0, 106));
        engine.run_until(SimTime(6_000_000));
        assert_eq!(engine.node_as::<Ru>(ru).stats.late_drops, 1);
        assert!(engine.node_as::<Capture>(cap).frames.is_empty());
    }

    #[test]
    fn prach_window_heard_only_with_correct_offset() {
        let (mut engine, ru, cap, m) = setup();
        let cell = m.lock().cell(1).unwrap().clone();
        // UE waiting to PRACH on cell 1.
        {
            let mut med = m.lock();
            let ue = med.add_ue(Position::new(12.0, 10.0, 0), 4);
            let ru_pos = Position::new(10.0, 10.0, 0);
            let (lo, _) = cell.carrier_freq_range();
            med.radiate_dl(0, &[1], ru_pos, (99, 0), lo, 360_000, vec![true; 273], 0.0);
            med.resolve_through(0);
            assert_eq!(med.ue_stats(ue).attach, UeAttach::PrachPending(1));
        }
        // ST3 with the correct freqOffset: section id 5 to check echo.
        let st3 = |slot: u32, fo: i32| -> Vec<u8> {
            let cp = CPlaneRepr {
                direction: Direction::Uplink,
                filter_index: 1,
                symbol: timebase::symbol_id(Numerology::Mu1, slot, 0),
                sections: Sections::Type3 {
                    time_offset: 0,
                    frame_structure: 0xb1,
                    cp_length: 0,
                    comp: CompressionMethod::BFP9,
                    sections: vec![Section3 {
                        fields: SectionFields::data(5, 0, cell.prach.num_prb, 12),
                        frequency_offset: fo,
                    }],
                },
            };
            FhMessage::new(mac(1), mac(9), Eaxc::port(0), 0, Body::CPlane(cp))
                .to_bytes(&EaxcMapping::DEFAULT)
                .unwrap()
        };
        // Wrong offset first (slot 8): window misses the PRACH band.
        engine.inject(SimTime(3_500_000), port(ru, 0), st3(8, 0));
        // Correct offset (slot 10).
        engine.inject(SimTime(4_500_000), port(ru, 0), st3(10, cell.prach_freq_offset()));
        engine.run_until(SimTime(7_000_000));
        let frames = &engine.node_as::<Capture>(cap).frames;
        assert_eq!(frames.len(), 2);
        let wrong = FhMessage::parse(&frames[0], &EaxcMapping::DEFAULT).unwrap();
        let right = FhMessage::parse(&frames[1], &EaxcMapping::DEFAULT).unwrap();
        let wrong_exp = wrong.as_uplane().unwrap().sections[0].exponents().unwrap();
        let right_exp = right.as_uplane().unwrap().sections[0].exponents().unwrap();
        assert!(wrong_exp.iter().all(|&e| e <= 2), "mistranslated offset hears nothing");
        assert!(right_exp.iter().any(|&e| e > 2), "correct offset hears the preamble");
        assert_eq!(right.as_uplane().unwrap().sections[0].section_id, 5, "section id echoed");
        assert_eq!(right.as_uplane().unwrap().filter_index, 1);
        assert_eq!(engine.node_as::<Ru>(ru).stats.prach_tx, 2);
    }
}
