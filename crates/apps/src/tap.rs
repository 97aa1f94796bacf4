//! A transparent capture tap — the fronthaul equivalent of a mirror port.
//!
//! Sits inline between a DU-side and an RU-side peer, forwards everything
//! untouched (action A1 only), and records traffic into a bounded ring of
//! parsed messages plus, optionally, a pcap stream any Wireshark can open.
//! Chain it in front of any other middlebox to observe what that middlebox
//! receives or emits — the debugging workflow the paper's "vantage point"
//! argument (§3.1) enables.

use std::collections::VecDeque;

use rb_core::actions;
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::counters;
use rb_fronthaul::eaxc::EaxcMapping;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::FhMessage;
use rb_fronthaul::pcap::PcapWriter;
use rb_netsim::cost::{Work, XdpPlacement};

/// One captured message with its capture time.
#[derive(Debug, Clone)]
pub struct Captured {
    /// Simulated capture time in nanoseconds.
    pub at_ns: u64,
    /// The message as it arrived (before address rewriting).
    pub msg: FhMessage,
}

/// Tap configuration.
#[derive(Debug, Clone)]
pub struct TapConfig {
    /// The tap's own MAC.
    pub mb_mac: EthernetAddress,
    /// The DU-side peer.
    pub du_mac: EthernetAddress,
    /// The RU-side peer.
    pub ru_mac: EthernetAddress,
    /// How many messages the ring keeps.
    pub ring_capacity: usize,
}

/// The capture-tap middlebox.
pub struct Tap {
    name: String,
    cfg: TapConfig,
    ring: VecDeque<Captured>,
    pcap: Option<PcapWriter<Vec<u8>>>,
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames from unknown peers, dropped.
    pub unknown_src: u64,
}

impl Tap {
    /// Build a tap.
    pub fn new(name: impl Into<String>, cfg: TapConfig) -> Tap {
        assert!(cfg.ring_capacity >= 1);
        Tap {
            name: name.into(),
            cfg,
            ring: VecDeque::new(),
            pcap: None,
            forwarded: 0,
            unknown_src: 0,
        }
    }

    /// Also record into an in-memory pcap stream (retrieve it with
    /// [`Tap::take_pcap`]).
    pub fn with_pcap(mut self) -> Tap {
        self.pcap = Some(PcapWriter::new(Vec::new()).expect("vec sink"));
        self
    }

    /// The captured ring, oldest first.
    pub fn captured(&self) -> impl Iterator<Item = &Captured> {
        self.ring.iter()
    }

    /// Number of messages currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True if nothing was captured yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Detach the pcap bytes captured so far (a complete, openable file).
    pub fn take_pcap(&mut self) -> Option<Vec<u8>> {
        self.pcap.take().and_then(|w| w.finish().ok())
    }

    fn record(&mut self, at_ns: u64, msg: &FhMessage) {
        while self.ring.len() >= self.cfg.ring_capacity.max(1) {
            self.ring.pop_front();
        }
        self.ring.push_back(Captured { at_ns, msg: msg.clone() });
        if let Some(pcap) = &mut self.pcap {
            if let Ok(bytes) = msg.to_bytes(&EaxcMapping::DEFAULT) {
                let _ = pcap.write_frame(at_ns, &bytes);
            }
        }
    }

    fn forward(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        ctx.charge(Work::Forward, XdpPlacement::Kernel);
        self.record(ctx.now_ns(), &msg);
        let dst = if msg.eth.src == self.cfg.du_mac {
            self.cfg.ru_mac
        } else if msg.eth.src == self.cfg.ru_mac {
            self.cfg.du_mac
        } else {
            counters::bump(&mut self.unknown_src);
            return;
        };
        actions::redirect(&mut msg, self.cfg.mb_mac, dst);
        counters::bump(&mut self.forwarded);
        actions::emit(out, msg);
    }
}

impl Middlebox for Tap {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.forward(ctx, msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.forward(ctx, msg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::cache::SymbolCache;
    use rb_core::telemetry::TelemetrySender;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::Eaxc;
    use rb_fronthaul::msg::Body;
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::Direction;
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn tap(cap: usize) -> Tap {
        Tap::new(
            "tap",
            TapConfig { mb_mac: mac(10), du_mac: mac(1), ru_mac: mac(9), ring_capacity: cap },
        )
    }

    fn msg(src: u8, seq: u8) -> FhMessage {
        FhMessage::new(
            mac(src),
            mac(10),
            Eaxc::port(0),
            seq,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 14),
            )),
        )
    }

    fn ctx<'a>(cache: &'a mut SymbolCache, tel: &'a TelemetrySender) -> MbContext<'a> {
        MbContext {
            now: SimTime(42),
            cache,
            telemetry: tel,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        }
    }

    #[test]
    fn forwards_transparently_both_ways() {
        let mut t = tap(8);
        let mut cache = SymbolCache::new(4);
        let tel = TelemetrySender::disconnected("t");
        let out = t.handle(&mut ctx(&mut cache, &tel), msg(1, 0));
        assert_eq!(out[0].eth.dst, mac(9));
        let out = t.handle(&mut ctx(&mut cache, &tel), msg(9, 1));
        assert_eq!(out[0].eth.dst, mac(1));
        assert_eq!(t.forwarded, 2);
        assert_eq!(t.len(), 2);
        // Captured copies keep the original addressing.
        assert_eq!(t.captured().next().unwrap().msg.eth.src, mac(1));
        assert_eq!(t.captured().next().unwrap().at_ns, 42);
    }

    #[test]
    fn ring_is_bounded_oldest_out() {
        let mut t = tap(3);
        let mut cache = SymbolCache::new(4);
        let tel = TelemetrySender::disconnected("t");
        for seq in 0..5u8 {
            t.handle(&mut ctx(&mut cache, &tel), msg(1, seq));
        }
        assert_eq!(t.len(), 3);
        let seqs: Vec<u8> = t.captured().map(|c| c.msg.seq_id).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
    }

    #[test]
    fn pcap_stream_is_a_valid_capture() {
        let mut t = tap(8).with_pcap();
        let mut cache = SymbolCache::new(4);
        let tel = TelemetrySender::disconnected("t");
        t.handle(&mut ctx(&mut cache, &tel), msg(1, 0));
        t.handle(&mut ctx(&mut cache, &tel), msg(9, 1));
        let pcap = t.take_pcap().expect("pcap enabled");
        assert_eq!(u32::from_le_bytes(pcap[0..4].try_into().unwrap()), 0xa1b2_c3d4);
        let wire = msg(1, 0).to_bytes(&EaxcMapping::DEFAULT).unwrap();
        assert_eq!(pcap.len(), 24 + 2 * (16 + wire.len()));
        assert!(t.take_pcap().is_none(), "stream detached once");
    }

    #[test]
    fn unknown_peer_dropped_but_captured() {
        let mut t = tap(8);
        let mut cache = SymbolCache::new(4);
        let tel = TelemetrySender::disconnected("t");
        let out = t.handle(&mut ctx(&mut cache, &tel), msg(66, 0));
        assert!(out.is_empty());
        assert_eq!(t.unknown_src, 1);
        assert_eq!(t.len(), 1, "forensics: even dropped frames are recorded");
    }
}
