//! The fronthaul security-monitoring middlebox (paper §8.1, "Security").
//!
//! The open fronthaul has no mandatory integrity protection; prior work
//! (cited in §8.1) shows spoofed C-plane messages can silence or hijack an
//! RU, and full cryptographic protection costs latency the fronthaul
//! cannot spare. The paper proposes RANBooster inspection-and-drop
//! (actions A1 + A4) as a lightweight mitigation — this middlebox
//! implements that:
//!
//! * **source allowlisting** — frames from MACs outside the deployment's
//!   DU/RU set are dropped;
//! * **direction asymmetry** — downlink from the RU side or uplink from
//!   the DU side is spoofing by construction;
//! * **C-plane plausibility** — scheduling requests outside the carrier's
//!   PRB space (the "resource exhaustion" attack shape) are dropped;
//! * **sequence-gap accounting** — per-stream eCPRI sequence jumps are
//!   counted as an injection/replay indicator and reported via telemetry.
//!
//! Everything else passes untouched, so the monitor chains in front of
//! any other middlebox.

use std::collections::HashMap;

use rb_core::actions;
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::counters;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::Direction;
use rb_netsim::cost::{Work, XdpPlacement};

/// Why a frame was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Violation {
    /// Source MAC not in the allowlist.
    UnknownSource,
    /// Direction inconsistent with the source's role (spoofing).
    DirectionSpoof,
    /// C-plane request outside the carrier's PRB space.
    ImplausibleSchedule,
}

/// Security monitor configuration.
#[derive(Debug, Clone)]
pub struct SecMonConfig {
    /// The middlebox's own MAC.
    pub mb_mac: EthernetAddress,
    /// The legitimate DU-side MACs.
    pub du_macs: Vec<EthernetAddress>,
    /// The legitimate RU-side MACs.
    pub ru_macs: Vec<EthernetAddress>,
    /// Where DU-side traffic is forwarded (RU or next middlebox).
    pub towards_ru: EthernetAddress,
    /// Where RU-side traffic is forwarded (DU or next middlebox).
    pub towards_du: EthernetAddress,
    /// The carrier's PRB count, for plausibility checks.
    pub carrier_prbs: u16,
}

/// Aggregate security counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SecMonStats {
    /// Frames passed.
    pub passed: u64,
    /// Drops by violation class.
    pub drops: HashMap<Violation, u64>,
    /// Sequence-number gaps observed per (source, eAxC) stream.
    pub seq_gaps: u64,
}

/// The security-monitoring middlebox.
pub struct SecMon {
    name: String,
    cfg: SecMonConfig,
    last_seq: HashMap<(EthernetAddress, u16), u8>,
    /// Counters.
    pub stats: SecMonStats,
}

impl SecMon {
    /// Build a monitor.
    pub fn new(name: impl Into<String>, cfg: SecMonConfig) -> SecMon {
        SecMon { name: name.into(), cfg, last_seq: HashMap::new(), stats: SecMonStats::default() }
    }

    /// The configuration.
    pub fn config(&self) -> &SecMonConfig {
        &self.cfg
    }

    /// Total drops across all violation classes.
    pub fn total_drops(&self) -> u64 {
        self.stats.drops.values().sum()
    }

    fn drop_with(&mut self, ctx: &mut MbContext<'_>, v: Violation) {
        counters::bump(self.stats.drops.entry(v).or_insert(0));
        ctx.telemetry.count(ctx.now_ns(), "sec_drop", 1);
    }

    fn inspect(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        ctx.charge(Work::InspectHeaders { prbs: 0 }, XdpPlacement::Kernel);
        let from_du = self.cfg.du_macs.contains(&msg.eth.src);
        let from_ru = self.cfg.ru_macs.contains(&msg.eth.src);
        if !from_du && !from_ru {
            return self.drop_with(ctx, Violation::UnknownSource);
        }
        // Role asymmetry: U-plane direction must match the source side
        // (DL IQ comes only from DUs, UL IQ only from RUs). C-plane flows
        // DU→RU in both directions, so only U-plane is checked.
        if matches!(msg.body, Body::UPlane(_)) {
            let dir = msg.body.direction();
            if (dir == Direction::Downlink && from_ru) || (dir == Direction::Uplink && from_du) {
                return self.drop_with(ctx, Violation::DirectionSpoof);
            }
        }
        if from_ru && matches!(msg.body, Body::CPlane(_)) {
            // RUs never originate C-plane.
            return self.drop_with(ctx, Violation::DirectionSpoof);
        }
        // C-plane plausibility: every section must fit the carrier.
        if let Some(cp) = msg.as_cplane() {
            for s in cp.sections.common_fields() {
                let num = s.resolved_num_prb(self.cfg.carrier_prbs);
                if s.start_prb >= self.cfg.carrier_prbs
                    || s.start_prb.saturating_add(num) > self.cfg.carrier_prbs
                {
                    return self.drop_with(ctx, Violation::ImplausibleSchedule);
                }
            }
        }
        // Sequence-gap accounting (replay/injection indicator, not a drop:
        // reordering happens legitimately under chaining). Stricter than
        // `ecpri::seq_step` on purpose: anything but the successor counts.
        let key = (msg.eth.src, msg.eaxc.pack(&ctx.mapping));
        if let Some(prev) = self.last_seq.insert(key, msg.seq_id) {
            if msg.seq_id != prev.wrapping_add(1) {
                counters::bump(&mut self.stats.seq_gaps);
            }
        }
        let dst = if from_du { self.cfg.towards_ru } else { self.cfg.towards_du };
        actions::redirect(&mut msg, self.cfg.mb_mac, dst);
        counters::bump(&mut self.stats.passed);
        actions::emit(out, msg);
    }
}

impl Middlebox for SecMon {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.inspect(ctx, msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.inspect(ctx, msg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::cache::SymbolCache;
    use rb_core::telemetry::TelemetrySender;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::iq::Prb;
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::uplane::{UPlaneRepr, USection};
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn secmon() -> SecMon {
        SecMon::new(
            "sec",
            SecMonConfig {
                mb_mac: mac(10),
                du_macs: vec![mac(1)],
                ru_macs: vec![mac(9)],
                towards_ru: mac(9),
                towards_du: mac(1),
                carrier_prbs: 106,
            },
        )
    }

    fn ctx<'a>(cache: &'a mut SymbolCache, tel: &'a TelemetrySender) -> MbContext<'a> {
        MbContext {
            now: SimTime(0),
            cache,
            telemetry: tel,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        }
    }

    fn cplane(src: EthernetAddress, seq: u8, start: u16, num: u16) -> FhMessage {
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(0),
            seq,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, start, num, 14),
            )),
        )
    }

    fn uplane(src: EthernetAddress, dir: Direction) -> FhMessage {
        let s = USection::from_prbs(0, 0, &[Prb::ZERO], CompressionMethod::BFP9).unwrap();
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(0),
            0,
            Body::UPlane(UPlaneRepr::single(dir, SymbolId::ZERO, s)),
        )
    }

    #[test]
    fn legitimate_traffic_passes_both_ways() {
        let mut m = secmon();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = m.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), 0, 0, 50));
        assert_eq!(out[0].eth.dst, mac(9));
        let out = m.handle(&mut ctx(&mut cache, &tel), uplane(mac(9), Direction::Uplink));
        assert_eq!(out[0].eth.dst, mac(1));
        assert_eq!(m.stats.passed, 2);
        assert_eq!(m.total_drops(), 0);
    }

    #[test]
    fn unknown_source_dropped() {
        let mut m = secmon();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = m.handle(&mut ctx(&mut cache, &tel), cplane(mac(66), 0, 0, 50));
        assert!(out.is_empty());
        assert_eq!(m.stats.drops[&Violation::UnknownSource], 1);
    }

    #[test]
    fn direction_spoofs_dropped() {
        let mut m = secmon();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        // "RU" sending downlink IQ — injected downlink.
        let out = m.handle(&mut ctx(&mut cache, &tel), uplane(mac(9), Direction::Downlink));
        assert!(out.is_empty());
        // "DU" sending uplink IQ — fabricated received signal.
        let out = m.handle(&mut ctx(&mut cache, &tel), uplane(mac(1), Direction::Uplink));
        assert!(out.is_empty());
        // RU-originated C-plane — scheduling hijack.
        let out = m.handle(&mut ctx(&mut cache, &tel), cplane(mac(9), 0, 0, 10));
        assert!(out.is_empty());
        assert_eq!(m.stats.drops[&Violation::DirectionSpoof], 3);
    }

    #[test]
    fn implausible_schedule_dropped() {
        let mut m = secmon();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        // 106-PRB carrier: a request for PRBs 100..200 is an attack shape.
        let out = m.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), 0, 100, 100));
        assert!(out.is_empty());
        assert_eq!(m.stats.drops[&Violation::ImplausibleSchedule], 1);
        // Boundary: exactly filling the carrier is fine.
        let out = m.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), 1, 0, 106));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn sequence_gaps_counted_not_dropped() {
        let mut m = secmon();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        for seq in [0u8, 1, 2, 7, 8] {
            let out = m.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), seq, 0, 50));
            assert_eq!(out.len(), 1, "gaps pass but are recorded");
        }
        assert_eq!(m.stats.seq_gaps, 1, "one jump (2→7)");
        // Wrapping 255→0 is not a gap.
        m.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), 255, 0, 50));
        m.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), 0, 0, 50));
        assert_eq!(m.stats.seq_gaps, 2, "255 after 8 is a gap; 0 after 255 is not");
    }

    #[test]
    fn drop_telemetry_flows() {
        let (tx, rx) = rb_core::telemetry::channel("sec");
        let mut m = secmon();
        let mut cache = SymbolCache::new(8);
        m.handle(&mut ctx(&mut cache, &tx), cplane(mac(66), 0, 0, 50));
        assert_eq!(rx.drain().len(), 1);
    }
}
