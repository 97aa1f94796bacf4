//! The DU (Distributed Unit) emulator.
//!
//! Stands in for the paper's srsRAN/CapGemini/Radisys stacks. Per slot it:
//!
//! * accrues per-UE offered load ("iperf") into backlogs;
//! * runs a MAC scheduler: splits the carrier's PRBs among backlogged
//!   attached UEs, link-adapting with the CQI/rank feedback from the
//!   [`crate::medium`];
//! * emits spec-conformant C-plane and U-plane fronthaul packets (one
//!   C-plane per antenna port per slot, one U-plane per symbol per port),
//!   including the SSB broadcast on port 0 and PRACH section-type-3
//!   occasions;
//! * decodes uplink U-plane coming back through the middleboxes — data by
//!   per-PRB energy, PRACH by window energy — crediting UE throughput and
//!   completing attaches;
//! * keeps a per-slot scheduling log (the "MAC scheduling logs" used as
//!   ground truth for the paper's Figure 10c).
//!
//! Packets are transmitted [`DuConfig::tx_advance`] ahead of their slot,
//! and uplink packets arriving after [`DuConfig::ul_deadline`] past the
//! slot end are dropped — the strict fronthaul timing windows of §2.2.

use std::collections::HashMap;

use rb_fronthaul::bfp::decompress_prb_wire;
use rb_fronthaul::cplane::{CPlaneRepr, Section3, SectionFields, Sections};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::{SlotKind, SYMBOLS_PER_SLOT};
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;
use rb_netsim::engine::{Engine, Node, NodeEvent, NodeId, Outbox};
use rb_netsim::time::{SimDuration, SimTime};

use crate::cell::CellConfig;
use crate::iqgen::PrbTemplates;
use crate::mcs;
use crate::medium::{DlAlloc, SharedMedium, UeId, UlAlloc};
use crate::timebase;

/// Timer tag used for the DU slot tick.
pub const DU_TICK: u64 = 1;

/// The symbol index the DU samples to decode an uplink slot.
const DECODE_SYMBOL: u8 = 6;

/// Per-component noise deviation assumed by decode thresholds (matches
/// the RU's synthesis noise).
pub const UL_NOISE_SIGMA: f64 = 40.0;

/// Transmit amplitude of downlink IQ (Q15 counts).
pub const DL_TX_AMP: f64 = 4000.0;

/// DU configuration.
#[derive(Debug, Clone)]
pub struct DuConfig {
    /// The cell this DU runs.
    pub cell: CellConfig,
    /// The DU's fronthaul MAC address.
    pub mac: EthernetAddress,
    /// Where fronthaul traffic is sent: the RU, or a middlebox posing as
    /// one.
    pub fh_dst: EthernetAddress,
    /// eAxC bit allocation.
    pub mapping: EaxcMapping,
    /// How far ahead of a slot its packets are transmitted.
    pub tx_advance: SimDuration,
    /// How long after slot end uplink packets are still accepted.
    pub ul_deadline: SimDuration,
    /// Offered downlink load per attached UE, bits/s ("iperf -b").
    pub dl_demand_bps: f64,
    /// Offered uplink load per attached UE, bits/s.
    pub ul_demand_bps: f64,
}

impl DuConfig {
    /// Defaults: 300 µs advance, 400 µs uplink deadline, full-buffer DL
    /// and UL demand.
    pub fn new(cell: CellConfig, mac: EthernetAddress, fh_dst: EthernetAddress) -> DuConfig {
        DuConfig {
            cell,
            mac,
            fh_dst,
            mapping: EaxcMapping::DEFAULT,
            tx_advance: SimDuration::from_micros(300),
            ul_deadline: SimDuration::from_micros(400),
            dl_demand_bps: 2e9,
            ul_demand_bps: 2e8,
        }
    }
}

/// One slot's scheduling decision — the ground-truth log for Figure 10c.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotUsage {
    /// Absolute slot.
    pub slot: u32,
    /// Slot kind.
    pub kind: SlotKind,
    /// Data PRBs scheduled downlink this slot.
    pub dl_prbs: u16,
    /// Data PRBs scheduled uplink this slot.
    pub ul_prbs: u16,
}

/// Aggregate DU counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DuStats {
    /// Downlink slots prepared.
    pub dl_slots: u64,
    /// Uplink slots prepared.
    pub ul_slots: u64,
    /// Bits handed to the downlink scheduler.
    pub dl_bits_scheduled: u64,
    /// Uplink bits successfully decoded.
    pub ul_bits_decoded: u64,
    /// Uplink U-plane packets received.
    pub ul_packets: u64,
    /// Uplink packets discarded for missing the timing window.
    pub late_ul: u64,
    /// PRACH detections (UE attaches completed).
    pub prach_detections: u64,
    /// C-plane messages transmitted.
    pub cplane_tx: u64,
    /// U-plane messages transmitted.
    pub uplane_tx: u64,
    /// Uplink allocations that produced no decodable energy.
    pub ul_decode_failures: u64,
    /// Messages that failed to serialize (should stay zero).
    pub emit_errors: u64,
}

/// Split `[start, start+count)` into C-plane sections of ≤ 255 PRBs
/// (`numPrbc` is an 8-bit field).
fn chunk_sections(mut id: u16, start: u16, count: u16, symbols: u8) -> Vec<SectionFields> {
    let mut out = Vec::new();
    let mut s = start;
    let mut left = count;
    while left > 0 {
        let n = left.min(255);
        out.push(SectionFields::data(id, s, n, symbols));
        id += 1;
        s += n;
        left -= n;
    }
    out
}

#[derive(Debug, Clone, Copy)]
struct PendingUl {
    ue: UeId,
    start_prb: u16,
    num_prb: u16,
    bits: u64,
    done: bool,
}

/// The DU emulator node.
pub struct Du {
    cfg: DuConfig,
    medium: SharedMedium,
    cursor: u32,
    demands: HashMap<UeId, (f64, f64)>,
    dl_backlog: HashMap<UeId, f64>,
    ul_backlog: HashMap<UeId, f64>,
    ul_sinr_est: HashMap<UeId, f64>,
    pending_ul: HashMap<u32, Vec<PendingUl>>,
    templates: PrbTemplates,
    seq: HashMap<u16, u8>,
    halted: bool,
    /// Counters.
    pub stats: DuStats,
    /// Per-slot scheduling log (ground truth for PRB monitoring).
    pub sched_log: Vec<SlotUsage>,
}

impl Du {
    /// Build a DU and register its cell with the medium.
    pub fn new(cfg: DuConfig, medium: SharedMedium) -> Du {
        medium.lock().register_cell(cfg.cell.clone());
        let templates =
            PrbTemplates::new(cfg.cell.compression, UL_NOISE_SIGMA, cfg.cell.pci as u64);
        Du {
            cfg,
            medium,
            cursor: 1,
            demands: HashMap::new(),
            dl_backlog: HashMap::new(),
            ul_backlog: HashMap::new(),
            ul_sinr_est: HashMap::new(),
            pending_ul: HashMap::new(),
            templates,
            seq: HashMap::new(),
            halted: false,
            stats: DuStats::default(),
            sched_log: Vec::new(),
        }
    }

    /// Halt the DU: it stops emitting fronthaul traffic (a crash or a
    /// software-update drain, §8.1) but keeps its slot clock so
    /// [`Du::resume`] picks up cleanly.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Resume a halted DU.
    pub fn resume(&mut self) {
        self.halted = false;
    }

    /// Schedule the DU's first slot tick. Call once after adding the node.
    pub fn start(
        engine: &mut Engine,
        id: NodeId,
        cfg_numerology: rb_fronthaul::timing::Numerology,
    ) {
        let first = timebase::slot_start(cfg_numerology, 1);
        // First prepared slot is slot 1, transmitted tx_advance early.
        engine.schedule_timer(id, SimTime(first.as_nanos().saturating_sub(300_000)), DU_TICK);
    }

    /// The DU's configuration.
    pub fn config(&self) -> &DuConfig {
        &self.cfg
    }

    /// Set a UE's offered load (defaults apply otherwise).
    pub fn set_demand(&mut self, ue: UeId, dl_bps: f64, ul_bps: f64) {
        self.demands.insert(ue, (dl_bps, ul_bps));
    }

    /// Mean downlink PRB utilization across logged DL slots in
    /// `[from_slot, to_slot)` — the paper's ground-truth metric.
    pub fn dl_utilization(&self, from_slot: u32, to_slot: u32) -> f64 {
        let total = self.cfg.cell.num_prb as f64;
        let (sum, n) = self
            .sched_log
            .iter()
            .filter(|u| u.slot >= from_slot && u.slot < to_slot)
            .filter(|u| matches!(u.kind, SlotKind::Downlink | SlotKind::Special))
            .fold((0.0, 0u32), |(s, n), u| (s + u.dl_prbs as f64 / total, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    fn next_seq(&mut self, eaxc_raw: u16) -> u8 {
        let c = self.seq.entry(eaxc_raw).or_insert(0);
        let v = *c;
        *c = c.wrapping_add(1);
        v
    }

    fn send(&mut self, out: &mut Outbox, eaxc: Eaxc, body: Body) {
        let raw = eaxc.pack(&self.cfg.mapping);
        let seq = self.next_seq(raw);
        let msg = FhMessage::new(self.cfg.mac, self.cfg.fh_dst, eaxc, seq, body);
        match &msg.body {
            Body::CPlane(_) => self.stats.cplane_tx += 1,
            Body::UPlane(_) => self.stats.uplane_tx += 1,
            // The radio endpoints originate only C/U-plane traffic;
            // recovery control is a middlebox-to-middlebox concern.
            Body::Recovery(_) => {}
        }
        match msg.to_bytes(&self.cfg.mapping) {
            Ok(bytes) => out.send(0, bytes),
            Err(_) => self.stats.emit_errors += 1,
        }
    }

    fn prepare_slot(&mut self, slot: u32, out: &mut Outbox) {
        let cell = self.cfg.cell.clone();
        let tdd = cell.tdd();
        let kind = tdd.kind_at(slot);
        let slot_secs = cell.numerology.slot_ns() as f64 / 1e9;

        let attached: Vec<UeId> = {
            let mut m = self.medium.lock();
            m.resolve_through(slot.saturating_sub(2));
            m.attached_ues(cell.pci)
        };
        // Accrue offered load; cap backlogs at one second of demand.
        for &ue in &attached {
            let (dl, ul) = self
                .demands
                .get(&ue)
                .copied()
                .unwrap_or((self.cfg.dl_demand_bps, self.cfg.ul_demand_bps));
            // Backlogs cap at ~50 ms of offered load (a UDP sender's
            // buffer), so transients drain quickly rather than smearing
            // full-rate bursts across measurement windows.
            let dlb = self.dl_backlog.entry(ue).or_insert(0.0);
            *dlb = (*dlb + dl * slot_secs).min((dl * 0.05).max(1e5));
            let ulb = self.ul_backlog.entry(ue).or_insert(0.0);
            *ulb = (*ulb + ul * slot_secs).min((ul * 0.05).max(1e5));
        }
        self.dl_backlog.retain(|ue, _| attached.contains(ue));
        self.ul_backlog.retain(|ue, _| attached.contains(ue));

        match kind {
            SlotKind::Downlink => self.prepare_dl(slot, false, &attached, out),
            SlotKind::Special => self.prepare_dl(slot, true, &attached, out),
            SlotKind::Uplink => self.prepare_ul(slot, &attached, out),
        }
        // Expire stale pending uplink decodes.
        self.pending_ul.retain(|s, _| *s + 4 > slot);
    }

    fn prepare_dl(&mut self, slot: u32, special: bool, attached: &[UeId], out: &mut Outbox) {
        let cell = self.cfg.cell.clone();
        self.stats.dl_slots += 1;
        let data_symbols: u8 = if special { 7 } else { SYMBOLS_PER_SLOT };
        let scale = data_symbols as f64 / SYMBOLS_PER_SLOT as f64;
        let ssb_slot = cell.is_ssb_slot(slot);
        // In SSB slots data stays below the SSB band (rate matching).
        let usable = if ssb_slot { cell.ssb.start_prb } else { cell.num_prb };

        let mut backlogged: Vec<UeId> = attached
            .iter()
            .copied()
            .filter(|ue| self.dl_backlog.get(ue).copied().unwrap_or(0.0) >= 1.0)
            .collect();
        backlogged.sort_unstable();

        let mut cursor_prb: u16 = 0;
        {
            let mut m = self.medium.lock();
            let n = backlogged.len();
            for (k, &ue) in backlogged.iter().enumerate() {
                let remaining = usable - cursor_prb;
                let share = remaining / (n - k) as u16;
                if share == 0 {
                    break;
                }
                let fb = m.feedback(cell.pci, ue);
                let (sinr, rank) = fb.map(|f| (f.sinr_db, f.rank)).unwrap_or((30.0, cell.layers));
                let layers = cell.layers.min(rank.max(1));
                let capacity = (mcs::dl_bits_per_slot(share, cell.scs_hz(), layers, sinr) as f64
                    * scale) as u64;
                if capacity == 0 {
                    continue;
                }
                let backlog = self.dl_backlog.get_mut(&ue).expect("backlogged");
                let bits = (*backlog as u64).min(capacity);
                if bits == 0 {
                    continue;
                }
                let prbs = ((share as u64 * bits).div_ceil(capacity) as u16).clamp(1, share);
                let (lo, hi) = cell.prb_freq_range(cursor_prb, prbs);
                m.deposit_dl(
                    slot,
                    DlAlloc { pci: cell.pci, ue, freq_lo: lo, freq_hi: hi, prbs, bits, layers },
                );
                *backlog -= bits as f64;
                self.stats.dl_bits_scheduled += bits;
                cursor_prb += prbs;
            }
        }
        self.sched_log.push(SlotUsage {
            slot,
            kind: if special { SlotKind::Special } else { SlotKind::Downlink },
            dl_prbs: cursor_prb,
            ul_prbs: 0,
        });

        // Emit fronthaul packets.
        let used = cursor_prb;
        let sym_id0 = timebase::symbol_id(cell.numerology, slot, 0);
        for port in 0..cell.layers {
            let mut sections = Vec::new();
            if used > 0 {
                sections.extend(chunk_sections(0, 0, used, data_symbols));
            }
            if ssb_slot && port == 0 {
                sections.push(SectionFields::data(
                    100,
                    cell.ssb.start_prb,
                    cell.ssb.num_prb,
                    cell.ssb.num_symbols,
                ));
            }
            if sections.is_empty() {
                continue;
            }
            let cp = CPlaneRepr {
                direction: Direction::Downlink,
                filter_index: 0,
                symbol: sym_id0,
                sections: Sections::Type1 { comp: cell.compression, sections },
            };
            self.send(out, Eaxc::port(port), Body::CPlane(cp));

            for sym in 0..SYMBOLS_PER_SLOT {
                let mut usects = Vec::new();
                if used > 0 && sym < data_symbols {
                    usects.push(self.template_section(0, 0, used, true));
                }
                let in_ssb_symbols = sym >= cell.ssb.start_symbol
                    && sym < cell.ssb.start_symbol + cell.ssb.num_symbols;
                if ssb_slot && port == 0 && in_ssb_symbols {
                    usects.push(self.template_section(
                        1,
                        cell.ssb.start_prb,
                        cell.ssb.num_prb,
                        true,
                    ));
                }
                if usects.is_empty() {
                    continue;
                }
                let up = UPlaneRepr {
                    direction: Direction::Downlink,
                    filter_index: 0,
                    symbol: timebase::symbol_id(cell.numerology, slot, sym),
                    sections: usects,
                };
                self.send(out, Eaxc::port(port), Body::UPlane(up));
            }
        }
    }

    /// Build a U-plane section of `count` PRBs from the cached signal (or
    /// zero) template.
    fn template_section(&mut self, id: u16, start: u16, count: u16, signal: bool) -> USection {
        let template: Vec<u8> = if signal {
            self.templates.signal(DL_TX_AMP).to_vec()
        } else {
            self.templates.zero().to_vec()
        };
        let mut payload = Vec::with_capacity(template.len() * count as usize);
        for _ in 0..count {
            payload.extend_from_slice(&template);
        }
        USection {
            section_id: id,
            rb: false,
            sym_inc: false,
            start_prb: start,
            method: self.templates.method(),
            payload: payload.as_slice().into(),
        }
    }

    fn prepare_ul(&mut self, slot: u32, attached: &[UeId], out: &mut Outbox) {
        let cell = self.cfg.cell.clone();
        self.stats.ul_slots += 1;
        let prach_slot = cell.is_prach_slot(slot);
        // Keep the PRACH band free during occasions.
        let base = if prach_slot { cell.prach.start_prb + cell.prach.num_prb } else { 0 };
        let usable = cell.num_prb - base;

        let mut backlogged: Vec<UeId> = attached
            .iter()
            .copied()
            .filter(|ue| self.ul_backlog.get(ue).copied().unwrap_or(0.0) >= 1.0)
            .collect();
        backlogged.sort_unstable();

        let mut cursor_prb = base;
        let mut pend = Vec::new();
        {
            let mut m = self.medium.lock();
            let n = backlogged.len();
            for (k, &ue) in backlogged.iter().enumerate() {
                let remaining = base + usable - cursor_prb;
                let share = remaining / (n - k) as u16;
                if share == 0 {
                    break;
                }
                let sinr = self.ul_sinr_est.get(&ue).copied().unwrap_or(25.0);
                let capacity = mcs::ul_bits_per_slot(share, cell.scs_hz(), sinr);
                if capacity == 0 {
                    continue;
                }
                let backlog = self.ul_backlog.get_mut(&ue).expect("backlogged");
                let bits = (*backlog as u64).min(capacity);
                if bits == 0 {
                    continue;
                }
                let prbs = ((share as u64 * bits).div_ceil(capacity) as u16).clamp(1, share);
                let (lo, hi) = cell.prb_freq_range(cursor_prb, prbs);
                m.deposit_ul(slot, UlAlloc { pci: cell.pci, ue, freq_lo: lo, freq_hi: hi, prbs });
                pend.push(PendingUl {
                    ue,
                    start_prb: cursor_prb,
                    num_prb: prbs,
                    bits,
                    done: false,
                });
                *backlog -= bits as f64;
                cursor_prb += prbs;
            }
        }
        let used = cursor_prb - base;
        self.sched_log.push(SlotUsage { slot, kind: SlotKind::Uplink, dl_prbs: 0, ul_prbs: used });
        if !pend.is_empty() {
            self.pending_ul.insert(slot, pend);
        }

        let sym_id0 = timebase::symbol_id(cell.numerology, slot, 0);
        // Uplink data is SISO on port 0.
        if used > 0 {
            let cp = CPlaneRepr {
                direction: Direction::Uplink,
                filter_index: 0,
                symbol: sym_id0,
                sections: Sections::Type1 {
                    comp: cell.compression,
                    sections: chunk_sections(0, base, used, SYMBOLS_PER_SLOT),
                },
            };
            self.send(out, Eaxc::port(0), Body::CPlane(cp));
        }
        if prach_slot {
            let cp = CPlaneRepr {
                direction: Direction::Uplink,
                filter_index: 1,
                symbol: sym_id0,
                sections: Sections::Type3 {
                    time_offset: 0,
                    frame_structure: 0xb1,
                    cp_length: 0,
                    comp: cell.compression,
                    sections: vec![Section3 {
                        fields: SectionFields::data(0, 0, cell.prach.num_prb, 12),
                        frequency_offset: cell.prach_freq_offset(),
                    }],
                },
            };
            self.send(out, Eaxc::port(0), Body::CPlane(cp));
        }
    }

    fn on_ul_uplane(&mut self, now: SimTime, msg: &FhMessage) {
        let Some(up) = msg.as_uplane() else {
            return;
        };
        self.stats.ul_packets += 1;
        let cell = &self.cfg.cell;
        let slot = timebase::absolute_slot(cell.numerology, up.symbol, self.cursor);
        let deadline = timebase::slot_start(cell.numerology, slot + 1) + self.cfg.ul_deadline;
        if now > deadline {
            self.stats.late_ul += 1;
            return;
        }
        let noise_sample_energy = 2.0 * UL_NOISE_SIGMA * UL_NOISE_SIGMA;
        if up.filter_index == 1 {
            // PRACH: any section with energy well above the noise floor is
            // a detected preamble.
            for section in &up.sections {
                let energy = mean_sample_energy(section, None);
                if energy > 8.0 * noise_sample_energy
                    && self.medium.lock().prach_detect(cell.pci).is_some()
                {
                    self.stats.prach_detections += 1;
                }
            }
            return;
        }
        if up.symbol.symbol != DECODE_SYMBOL {
            return;
        }
        let Some(pending) = self.pending_ul.get_mut(&slot) else {
            return;
        };
        let mut decoded = Vec::new();
        for p in pending.iter_mut().filter(|p| !p.done) {
            let mut energy_sum = 0.0;
            let mut prbs_found = 0u16;
            for section in &up.sections {
                let s_start = section.start_prb;
                let s_end = s_start + section.num_prb();
                let lo = p.start_prb.max(s_start);
                let hi = (p.start_prb + p.num_prb).min(s_end);
                if hi <= lo {
                    continue;
                }
                energy_sum += mean_sample_energy(section, Some((lo - s_start, hi - s_start)))
                    * (hi - lo) as f64;
                prbs_found += hi - lo;
            }
            if prbs_found < p.num_prb {
                continue; // not all PRBs present in this packet
            }
            let mean = energy_sum / prbs_found as f64;
            let snr_lin = (mean / noise_sample_energy - 1.0).max(0.0);
            if snr_lin > 2.0 {
                p.done = true;
                let snr_db = 10.0 * snr_lin.log10();
                decoded.push((p.ue, p.bits, snr_db));
            } else {
                self.stats.ul_decode_failures += 1;
            }
        }
        let mut m = self.medium.lock();
        for (ue, bits, snr_db) in decoded {
            m.credit_ul(ue, bits);
            self.stats.ul_bits_decoded += bits;
            let est = self.ul_sinr_est.entry(ue).or_insert(snr_db);
            *est = 0.8 * *est + 0.2 * snr_db;
        }
    }
}

/// Mean per-sample energy over a section's PRBs (optionally a local PRB
/// sub-range).
fn mean_sample_energy(section: &USection, range: Option<(u16, u16)>) -> f64 {
    let (lo, hi) = range.unwrap_or((0, section.num_prb()));
    let mut total = 0.0f64;
    let mut samples = 0usize;
    for idx in lo..hi {
        let Ok(bytes) = section.prb_bytes(idx) else {
            continue;
        };
        if let Ok((prb, _, _)) = decompress_prb_wire(bytes, section.method) {
            total += prb.energy() as f64;
            samples += rb_fronthaul::iq::SAMPLES_PER_PRB;
        }
    }
    if samples == 0 {
        0.0
    } else {
        total / samples as f64
    }
}

impl Node for Du {
    fn on_event(&mut self, ev: NodeEvent, out: &mut Outbox) {
        match ev {
            NodeEvent::Timer { tag: DU_TICK } => {
                let slot = self.cursor;
                if !self.halted {
                    self.prepare_slot(slot, out);
                }
                self.cursor += 1;
                let next = timebase::slot_start(self.cfg.cell.numerology, self.cursor);
                let at = SimTime(next.as_nanos().saturating_sub(self.cfg.tx_advance.as_nanos()));
                out.schedule_at(at, DU_TICK);
            }
            NodeEvent::Timer { .. } => {}
            NodeEvent::Packet { frame, .. } => {
                let Ok(msg) = FhMessage::parse(&frame, &self.cfg.mapping) else {
                    return;
                };
                if msg.eth.dst != self.cfg.mac {
                    return;
                }
                if msg.body.direction() == Direction::Uplink {
                    let now = out.now();
                    self.on_ul_uplane(now, &msg);
                }
            }
        }
    }

    fn name(&self) -> &str {
        "du"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::medium::{self, Medium, MediumParams};
    use rb_netsim::engine::port;

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

    fn run_du_for(ms: u64) -> (Engine, NodeId, NodeId, SharedMedium) {
        let m = medium::shared(Medium::new(MediumParams::default()));
        let cell = CellConfig::mhz40(1, 3_430_000_000, 4);
        let cfg = DuConfig::new(cell, mac(1), mac(2));
        let mut engine = Engine::new();
        let du = engine.add_node(Box::new(Du::new(cfg, m.clone())));
        let cap = engine.add_node(Box::new(Capture { frames: vec![] }));
        engine.connect(port(du, 0), port(cap, 0), SimDuration::from_micros(5), 25.0);
        Du::start(&mut engine, du, rb_fronthaul::timing::Numerology::Mu1);
        engine.run_until(SimTime(ms * 1_000_000));
        (engine, du, cap, m)
    }

    fn parse_all(frames: &[Vec<u8>]) -> Vec<FhMessage> {
        frames.iter().map(|f| FhMessage::parse(f, &EaxcMapping::DEFAULT).unwrap()).collect()
    }

    #[test]
    fn idle_cell_emits_ssb_and_prach_only() {
        let (engine, du, cap, _m) = run_du_for(45);
        let msgs = parse_all(&engine.node_as::<Capture>(cap).frames);
        assert!(!msgs.is_empty());
        // No UEs → no data. Expect SSB C/U-plane on port 0 and PRACH ST3.
        let ssb_uplane: Vec<_> =
            msgs.iter().filter(|m| matches!(m.body, Body::UPlane(_))).collect();
        // SSB slots at 0(unprepared), 40, 80 → ≥ 2 slots × 4 symbols.
        assert!(ssb_uplane.len() >= 8, "got {}", ssb_uplane.len());
        for m in &ssb_uplane {
            let up = m.as_uplane().unwrap();
            assert_eq!(up.direction, Direction::Downlink);
            assert_eq!(m.eaxc.ru_port, 0, "SSB rides on port 0");
            let s = &up.sections[0];
            assert_eq!(s.start_prb, 43, "SSB band centered: (106-20)/2");
            assert_eq!(s.num_prb(), 20);
            // SSB PRBs are live signal (nonzero exponents).
            assert!(s.exponents().unwrap().iter().all(|&e| e > 0));
        }
        let prach: Vec<_> =
            msgs.iter().filter_map(|m| m.as_cplane()).filter(|c| c.filter_index == 1).collect();
        assert!(!prach.is_empty(), "PRACH occasions emitted");
        for c in prach {
            assert!(matches!(c.sections, Sections::Type3 { .. }));
        }
        let du_node = engine.node_as::<Du>(du);
        assert!(du_node.stats.dl_slots > 0 && du_node.stats.ul_slots > 0);
        assert_eq!(du_node.dl_utilization(0, 90), 0.0, "idle cell utilization 0");
    }

    #[test]
    fn attached_ue_gets_scheduled_full_carrier() {
        let (mut engine, du, cap, m) = run_du_for(5);
        // Attach a UE directly through the medium back door.
        let ue = {
            let mut med = m.lock();

            med.add_ue(crate::channel::Position::new(10.0, 10.0, 0), 4)
        };
        // Force attach: emulate a completed PRACH.
        {
            let mut med = m.lock();
            // Put the UE in flight, then detect.
            // (add_ue starts Idle; use the public API via prach_poll path is
            // heavyweight — drive state with SSB + poll.)
            let cell = med.cell(1).unwrap().clone();
            let ru = crate::channel::Position::new(10.0, 10.0, 0);
            let (lo, _) = cell.carrier_freq_range();
            med.radiate_dl(40, &[1], ru, (9, 0), lo, 360_000, vec![true; 106], 0.0);
            med.resolve_through(40);
            let (clo, chi) = cell.carrier_freq_range();
            med.prach_poll(41, ru, &[1], clo, chi);
            assert_eq!(med.prach_detect(1), Some(ue));
        }
        engine.run_until(SimTime(60_000_000));
        let du_node = engine.node_as::<Du>(du);
        assert!(du_node.stats.dl_bits_scheduled > 0, "data scheduled after attach");
        // Full-buffer demand → full carrier most DL slots.
        let util = du_node.dl_utilization(30, du_node.cursor);
        assert!(util > 0.8, "utilization {util}");
        let msgs = parse_all(&engine.node_as::<Capture>(cap).frames);
        // Data flows on all four ports now.
        let ports: std::collections::HashSet<u8> = msgs.iter().map(|m| m.eaxc.ru_port).collect();
        assert!(ports.contains(&3), "4-layer transmission uses port 3");
        // UL C-plane scheduled too.
        assert!(msgs
            .iter()
            .filter_map(|m| m.as_cplane())
            .any(|c| c.direction == Direction::Uplink && c.filter_index == 0));
    }

    #[test]
    fn partial_load_schedules_partial_prbs() {
        let m = medium::shared(Medium::new(MediumParams::default()));
        let cell = CellConfig::mhz100(1, 3_460_000_000, 4);
        let mut cfg = DuConfig::new(cell, mac(1), mac(2));
        cfg.dl_demand_bps = 100e6; // ~11 % of capacity
        let mut engine = Engine::new();
        let du = engine.add_node(Box::new(Du::new(cfg, m.clone())));
        let cap = engine.add_node(Box::new(Capture { frames: vec![] }));
        engine.connect(port(du, 0), port(cap, 0), SimDuration::from_micros(5), 25.0);
        {
            let mut med = m.lock();
            let ue = med.add_ue(crate::channel::Position::new(10.0, 10.0, 0), 4);
            let ru = crate::channel::Position::new(10.0, 10.0, 0);
            let (lo, _) = med.cell(1).unwrap().carrier_freq_range();
            med.radiate_dl(0, &[1], ru, (9, 0), lo, 360_000, vec![true; 273], 0.0);
            med.resolve_through(0);
            let (clo, chi) = med.cell(1).unwrap().carrier_freq_range();
            med.prach_poll(1, ru, &[1], clo, chi);
            med.prach_detect(1);
            let _ = ue;
        }
        Du::start(&mut engine, du, rb_fronthaul::timing::Numerology::Mu1);
        engine.run_until(SimTime(100_000_000));
        let du_node = engine.node_as::<Du>(du);
        let util = du_node.dl_utilization(50, du_node.cursor);
        assert!(util > 0.03 && util < 0.4, "partial utilization, got {util}");
    }
}
