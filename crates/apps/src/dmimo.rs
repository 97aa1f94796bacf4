//! The distributed-MIMO middlebox (paper §4.2, Figure 5b).
//!
//! Several small RUs are stitched into one large *virtual* RU: the DU sees
//! a single radio with N antenna ports, each physical RU sees a DU that
//! only knows about its own M ports. For every fronthaul packet the
//! middlebox remaps the eAxC antenna-port id (action A4) and steers the
//! packet to the right radio (action A1):
//!
//! * downlink virtual port `v` maps to physical RU `k`, local port `p`;
//! * uplink `(k, p)` maps back to virtual `v`.
//!
//! The SSB problem: only virtual port 0 carries the SSB, so UEs far from
//! the primary RU would never synchronize. When `ssb_copy` is on, the
//! middlebox clones SSB-band U-plane sections from the primary's port-0
//! packets into extra port-0 packets for every secondary RU (action A4) —
//! disabling it reproduces the detach behaviour the paper warns about.

use rb_core::actions;
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::counters;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_netsim::cost::{Work, XdpPlacement};

/// One physical radio in the virtual RU.
#[derive(Debug, Clone, Copy)]
pub struct PhysicalRu {
    /// The radio's MAC address.
    pub mac: EthernetAddress,
    /// Number of antenna ports it exposes.
    pub ports: u8,
}

/// The SSB band, for the copy feature.
#[derive(Debug, Clone, Copy)]
pub struct SsbBand {
    /// First PRB of the SSB inside the cell grid.
    pub start_prb: u16,
    /// SSB width in PRBs.
    pub num_prb: u16,
}

/// dMIMO middlebox configuration.
#[derive(Debug, Clone)]
pub struct DmimoConfig {
    /// The middlebox's own MAC.
    pub mb_mac: EthernetAddress,
    /// The DU driving the virtual RU.
    pub du_mac: EthernetAddress,
    /// The physical radios, in virtual-port order.
    pub rus: Vec<PhysicalRu>,
    /// Clone the SSB to secondary radios (paper §4.2). Disable to
    /// reproduce the far-UE detach failure mode.
    pub ssb_copy: bool,
    /// The SSB band (needed when `ssb_copy` is on).
    pub ssb: Option<SsbBand>,
}

/// Aggregate dMIMO counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmimoStats {
    /// Downlink packets remapped and steered.
    pub dl_remapped: u64,
    /// Uplink packets remapped back.
    pub ul_remapped: u64,
    /// SSB copies injected towards secondary radios.
    pub ssb_copies: u64,
    /// Packets naming a virtual port outside the aggregate, dropped.
    pub bad_port: u64,
    /// Packets from unknown sources, dropped.
    pub unknown_src: u64,
}

/// The dMIMO middlebox.
pub struct Dmimo {
    name: String,
    cfg: DmimoConfig,
    /// Counters.
    pub stats: DmimoStats,
}

impl Dmimo {
    /// Build a dMIMO middlebox aggregating `rus` into one virtual RU.
    pub fn new(name: impl Into<String>, cfg: DmimoConfig) -> Dmimo {
        assert!(!cfg.rus.is_empty(), "dMIMO needs at least one RU");
        assert!(!cfg.ssb_copy || cfg.ssb.is_some(), "ssb_copy requires the SSB band");
        Dmimo { name: name.into(), cfg, stats: DmimoStats::default() }
    }

    /// The configuration.
    pub fn config(&self) -> &DmimoConfig {
        &self.cfg
    }

    /// Total virtual antenna ports.
    pub fn virtual_ports(&self) -> u8 {
        self.cfg.rus.iter().map(|r| r.ports).sum()
    }

    /// Map a virtual port to (RU index, local port).
    pub fn to_physical(&self, virtual_port: u8) -> Option<(usize, u8)> {
        let mut base = 0u8;
        for (k, ru) in self.cfg.rus.iter().enumerate() {
            let end = base.saturating_add(ru.ports);
            if virtual_port < end {
                // The check above plus the loop invariant (`base` is the
                // sum of all earlier RUs' ports) pin `virtual_port` to
                // `base..end`, so the subtraction cannot underflow.
                return Some((k, virtual_port.wrapping_sub(base)));
            }
            base = end;
        }
        None
    }

    /// Map (RU index, local port) to the virtual port.
    pub fn to_virtual(&self, ru_idx: usize, local_port: u8) -> Option<u8> {
        let ru = self.cfg.rus.get(ru_idx)?;
        if local_port >= ru.ports {
            return None;
        }
        let base: u8 = self.cfg.rus.get(..ru_idx)?.iter().map(|r| r.ports).sum();
        base.checked_add(local_port)
    }

    fn ru_index_of(&self, mac: EthernetAddress) -> Option<usize> {
        self.cfg.rus.iter().position(|r| r.mac == mac)
    }

    /// Extract SSB-band sections from a U-plane message, if any.
    fn ssb_sections(&self, up: &UPlaneRepr) -> Vec<USection> {
        let Some(band) = self.cfg.ssb else {
            return Vec::new();
        };
        up.sections
            .iter()
            .filter(|s| s.start_prb == band.start_prb && s.num_prb() == band.num_prb)
            .cloned()
            .collect()
    }

    fn downlink(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        let virtual_port = msg.eaxc.ru_port;
        let Some((ru_idx, local)) = self.to_physical(virtual_port) else {
            counters::bump(&mut self.stats.bad_port);
            return;
        };
        let Some(ru_mac) = self.cfg.rus.get(ru_idx).map(|r| r.mac) else {
            counters::bump(&mut self.stats.bad_port);
            return;
        };
        ctx.charge(Work::InspectHeaders { prbs: 0 }, XdpPlacement::Kernel);

        // SSB copy: clone SSB sections from virtual port 0 towards every
        // *other* radio's local port 0.
        let ssb_source =
            if self.cfg.ssb_copy && virtual_port == 0 { msg.as_uplane() } else { None };
        if let Some(header) = ssb_source {
            let ssb = self.ssb_sections(header);
            if let Some(first) = ssb.first() {
                let ssb_prbs = usize::from(first.num_prb());
                for (k, ru) in self.cfg.rus.iter().enumerate() {
                    if k == ru_idx {
                        continue;
                    }
                    // Header fields plus the shared SSB sections: the
                    // carrier's other sections are never copied.
                    let mut copy = FhMessage {
                        eth: msg.eth,
                        eaxc: msg.eaxc.with_ru_port(0),
                        seq_id: msg.seq_id,
                        body: Body::UPlane(UPlaneRepr { sections: ssb.clone(), ..*header }),
                    };
                    actions::redirect(&mut copy, self.cfg.mb_mac, ru.mac);
                    counters::bump(&mut self.stats.ssb_copies);
                    actions::emit(out, copy);
                }
                ctx.charge(Work::InspectHeaders { prbs: ssb_prbs }, XdpPlacement::Kernel);
            }
        }

        msg.eaxc = msg.eaxc.with_ru_port(local);
        actions::redirect(&mut msg, self.cfg.mb_mac, ru_mac);
        counters::bump(&mut self.stats.dl_remapped);
        actions::emit(out, msg);
    }

    fn uplink(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        let Some(ru_idx) = self.ru_index_of(msg.eth.src) else {
            counters::bump(&mut self.stats.unknown_src);
            return;
        };
        let Some(v) = self.to_virtual(ru_idx, msg.eaxc.ru_port) else {
            counters::bump(&mut self.stats.bad_port);
            return;
        };
        ctx.charge(Work::InspectHeaders { prbs: 0 }, XdpPlacement::Kernel);
        msg.eaxc = msg.eaxc.with_ru_port(v);
        actions::redirect(&mut msg, self.cfg.mb_mac, self.cfg.du_mac);
        counters::bump(&mut self.stats.ul_remapped);
        actions::emit(out, msg);
    }
}

impl Middlebox for Dmimo {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        if msg.eth.src == self.cfg.du_mac {
            self.downlink(ctx, msg, out);
        } else {
            self.uplink(ctx, msg, out);
        }
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        if msg.eth.src == self.cfg.du_mac {
            self.downlink(ctx, msg, out);
        } else {
            self.uplink(ctx, msg, out);
        }
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
    use rb_fronthaul::Direction;
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    /// Two 2-port radios → one virtual 4-port RU (the paper's example).
    fn dmimo() -> Dmimo {
        Dmimo::new(
            "dmimo-test",
            DmimoConfig {
                mb_mac: mac(10),
                du_mac: mac(1),
                rus: vec![
                    PhysicalRu { mac: mac(21), ports: 2 },
                    PhysicalRu { mac: mac(22), ports: 2 },
                ],
                ssb_copy: true,
                ssb: Some(SsbBand { start_prb: 126, num_prb: 20 }),
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

    fn dl_uplane(port: u8, start_prb: u16, num: u16) -> FhMessage {
        let section = USection::from_prbs(
            0,
            start_prb,
            &vec![Prb::ZERO; num as usize],
            CompressionMethod::BFP9,
        )
        .unwrap();
        FhMessage::new(
            mac(1),
            mac(10),
            Eaxc::port(port),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Downlink, SymbolId::ZERO, section)),
        )
    }

    fn ul_uplane(src: EthernetAddress, port: u8) -> FhMessage {
        let section = USection::from_prbs(0, 0, &[Prb::ZERO], CompressionMethod::BFP9).unwrap();
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(port),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Uplink, SymbolId::ZERO, section)),
        )
    }

    #[test]
    fn port_mapping_matches_paper_example() {
        let mb = dmimo();
        assert_eq!(mb.virtual_ports(), 4);
        // "Packets of the DU with antenna ports 1 and 2 go to RU 1
        // unmodified; ports 3 and 4 are remapped to 1 and 2 of RU 2."
        assert_eq!(mb.to_physical(0), Some((0, 0)));
        assert_eq!(mb.to_physical(1), Some((0, 1)));
        assert_eq!(mb.to_physical(2), Some((1, 0)));
        assert_eq!(mb.to_physical(3), Some((1, 1)));
        assert_eq!(mb.to_physical(4), None);
        assert_eq!(mb.to_virtual(1, 1), Some(3));
        assert_eq!(mb.to_virtual(1, 2), None);
        assert_eq!(mb.to_virtual(2, 0), None);
    }

    #[test]
    fn downlink_remap_and_steer() {
        let mut mb = dmimo();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        // Virtual port 1 → RU1 local 1, unmodified port value.
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(1, 0, 4));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].eth.dst, mac(21));
        assert_eq!(out[0].eaxc.ru_port, 1);
        // Virtual port 3 → RU2 local 1.
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(3, 0, 4));
        assert_eq!(out[0].eth.dst, mac(22));
        assert_eq!(out[0].eaxc.ru_port, 1);
        assert_eq!(mb.stats.dl_remapped, 2);
    }

    #[test]
    fn uplink_remap_back() {
        let mut mb = dmimo();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = mb.handle(&mut ctx(&mut cache, &tel), ul_uplane(mac(22), 1));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].eth.dst, mac(1));
        assert_eq!(out[0].eaxc.ru_port, 3, "RU2 local 1 → virtual 3");
    }

    #[test]
    fn ssb_is_cloned_to_secondary_radios() {
        let mut mb = dmimo();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        // An SSB-band packet on virtual port 0 (start 126, 20 PRBs).
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(0, 126, 20));
        assert_eq!(out.len(), 2, "original + one SSB copy");
        let copy = out.iter().find(|m| m.eth.dst == mac(22)).expect("copy to RU2");
        assert_eq!(copy.eaxc.ru_port, 0);
        assert_eq!(copy.as_uplane().unwrap().sections[0].start_prb, 126);
        assert_eq!(mb.stats.ssb_copies, 1);
        // The copy carries the original's SSB payload itself, not a copy.
        let original = out.iter().find(|m| m.eth.dst == mac(21)).expect("original to RU1");
        let payload = |m: &FhMessage| m.as_uplane().unwrap().sections[0].payload.clone();
        assert!(payload(copy).ptr_eq(&payload(original)));
        // Non-SSB port-0 traffic is not cloned.
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(0, 0, 50));
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn ssb_copy_can_be_disabled() {
        let mut cfg = dmimo().cfg;
        cfg.ssb_copy = false;
        let mut mb = Dmimo::new("no-copy", cfg);
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(0, 126, 20));
        assert_eq!(out.len(), 1, "no clone when disabled");
        assert_eq!(mb.stats.ssb_copies, 0);
    }

    #[test]
    fn bad_virtual_port_dropped() {
        let mut mb = dmimo();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(7, 0, 4));
        assert!(out.is_empty());
        assert_eq!(mb.stats.bad_port, 1);
    }

    #[test]
    fn cplane_takes_same_path() {
        let mut mb = dmimo();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let cp = FhMessage::new(
            mac(1),
            mac(10),
            Eaxc::port(2),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 50, 14),
            )),
        );
        let out = mb.handle(&mut ctx(&mut cache, &tel), cp);
        assert_eq!(out[0].eth.dst, mac(22));
        assert_eq!(out[0].eaxc.ru_port, 0);
    }

    #[test]
    fn remap_charges_kernel_header_work() {
        let mut mb = dmimo();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let mut c = ctx(&mut cache, &tel);
        mb.handle(&mut c, dl_uplane(2, 0, 4));
        // Header-only remapping runs in the kernel XDP program (Table 1).
        assert_eq!(c.charges, vec![(Work::InspectHeaders { prbs: 0 }, XdpPlacement::Kernel)]);
    }
}
