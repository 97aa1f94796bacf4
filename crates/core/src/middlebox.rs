//! The RANBooster middlebox template (paper §3.2.2).
//!
//! Developers implement [`Middlebox`]: two handler functions (one per
//! plane) that receive parsed fronthaul messages and a [`MbContext`] with
//! the framework services — the symbol cache (A3), telemetry, simulated
//! time and the eAxC mapping. Handlers emit the messages to transmit into
//! the caller's `out` buffer; emitting nothing drops the packet (A1),
//! emitting several replicates it (A2). All four reference applications of
//! the paper (and this repo) are written against this one trait.

use rb_fronthaul::eaxc::EaxcMapping;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_netsim::cost::{Work, XdpPlacement};
use rb_netsim::time::SimTime;

use crate::actions;
use crate::cache::SymbolCache;
use crate::telemetry::TelemetrySender;

/// Framework services available to a handler invocation.
pub struct MbContext<'a> {
    /// Current simulated time.
    pub now: SimTime,
    /// The symbol-keyed packet cache (action A3).
    pub cache: &'a mut SymbolCache,
    /// Telemetry event sink.
    pub telemetry: &'a TelemetrySender,
    /// The deployment's eAxC bit allocation.
    pub mapping: EaxcMapping,
    /// Work units the handler reported through [`MbContext::charge`]: the
    /// only record of what the frame cost. [`crate::host::MiddleboxHost`]
    /// prices them, and prices an empty ledger as one kernel-side forward.
    pub charges: Vec<(Work, XdpPlacement)>,
}

impl MbContext<'_> {
    /// Simulated time in nanoseconds (convenience for telemetry calls).
    pub fn now_ns(&self) -> u64 {
        self.now.as_nanos()
    }

    /// Report a unit of work actually performed while handling the current
    /// packet (e.g. a cache insert vs. a full IQ merge), and where it runs
    /// under an XDP deployment (paper Table 1), so CPU accounting reflects
    /// the stateful path taken, not just the packet type.
    pub fn charge(&mut self, work: Work, placement: XdpPlacement) {
        self.charges.push((work, placement));
    }
}

/// A RANBooster middlebox.
///
/// The framework guarantees: messages are parsed and validated before the
/// handler runs; emitted messages get fresh eCPRI sequence numbers per
/// (destination, eAxC) stream; malformed input never reaches handlers.
///
/// A handler accounts for its work by calling [`MbContext::charge`] on the
/// path it actually took; accounting never affects functionality. A handler
/// that charges nothing is priced by the simulator host as a kernel-side
/// forward (see [`crate::host::MiddleboxHost`]).
pub trait Middlebox: 'static {
    /// Middlebox instance name (used in telemetry attribution).
    fn name(&self) -> &str;

    /// Handle a C-plane message, emitting the messages to transmit into
    /// `out` (see [`crate::actions::emit`]).
    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>);

    /// Handle a U-plane message, emitting the messages to transmit into
    /// `out`.
    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>);

    /// Handle a recovery control message (ARQ NACK / FEC parity). Most
    /// middleboxes are not recovery peers: the default absorbs the message
    /// so recovery control never leaks past a non-participating hop.
    fn on_recovery(
        &mut self,
        _ctx: &mut MbContext<'_>,
        _msg: FhMessage,
        _out: &mut Vec<FhMessage>,
    ) {
    }

    /// Periodic housekeeping (cache purge etc.). Tags are forwarded from
    /// the hosting node's timers. Default: no-op.
    fn on_tick(&mut self, _ctx: &mut MbContext<'_>, _tag: u64, _out: &mut Vec<FhMessage>) {}

    /// Dispatch `msg` to the handler of its plane — the datapath entry
    /// point. `out` is the caller's reusable buffer, empty on entry when
    /// the caller is [`crate::pipeline::MbPipeline`]. Not meant to be
    /// overridden.
    fn handle_into(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        match msg.body {
            Body::CPlane(_) => self.on_cplane(ctx, msg, out),
            Body::UPlane(_) => self.on_uplane(ctx, msg, out),
            Body::Recovery(_) => self.on_recovery(ctx, msg, out),
        }
    }

    /// [`Middlebox::handle_into`] with a fresh vector per call: a
    /// convenience for tests. Not meant to be overridden.
    fn handle(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage) -> Vec<FhMessage> {
        let mut out = Vec::new();
        self.handle_into(ctx, msg, &mut out);
        out
    }
}

// Boxed middleboxes are middleboxes too: the dataplane runtime builds one
// instance per worker from a factory returning `Box<dyn Middlebox>`.
impl Middlebox for Box<dyn Middlebox> {
    fn name(&self) -> &str {
        self.as_ref().name()
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.as_mut().on_cplane(ctx, msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.as_mut().on_uplane(ctx, msg, out);
    }

    fn on_recovery(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.as_mut().on_recovery(ctx, msg, out);
    }

    fn on_tick(&mut self, ctx: &mut MbContext<'_>, tag: u64, out: &mut Vec<FhMessage>) {
        self.as_mut().on_tick(ctx, tag, out);
    }
}

/// A trivial middlebox that forwards everything to a fixed destination —
/// useful as a chain placeholder and in tests.
pub struct Passthrough {
    name: String,
    src: rb_fronthaul::ether::EthernetAddress,
    dst: rb_fronthaul::ether::EthernetAddress,
}

impl Passthrough {
    /// Forward everything from `src` (our address) to `dst`.
    pub fn new(
        name: impl Into<String>,
        src: rb_fronthaul::ether::EthernetAddress,
        dst: rb_fronthaul::ether::EthernetAddress,
    ) -> Passthrough {
        Passthrough { name: name.into(), src, dst }
    }

    fn forward(&self, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        actions::redirect(&mut msg, self.src, self.dst);
        actions::emit(out, msg);
    }
}

impl Middlebox for Passthrough {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, _ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.forward(msg, out);
    }

    fn on_uplane(&mut self, _ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.forward(msg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::Eaxc;
    use rb_fronthaul::ether::EthernetAddress;
    use rb_fronthaul::iq::Prb;
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::uplane::{UPlaneRepr, USection};
    use rb_fronthaul::Direction;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn ctx<'a>(cache: &'a mut SymbolCache, telemetry: &'a TelemetrySender) -> MbContext<'a> {
        MbContext {
            now: SimTime(1000),
            cache,
            telemetry,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        }
    }

    fn cmsg() -> FhMessage {
        FhMessage::new(
            mac(1),
            mac(2),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 1),
            )),
        )
    }

    fn umsg() -> FhMessage {
        let s = USection::from_prbs(0, 0, &[Prb::ZERO], CompressionMethod::BFP9).unwrap();
        FhMessage::new(
            mac(1),
            mac(2),
            Eaxc::port(0),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Downlink, SymbolId::ZERO, s)),
        )
    }

    #[test]
    fn handle_dispatches_by_plane() {
        struct Probe {
            c: u32,
            u: u32,
        }
        impl Middlebox for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn on_cplane(&mut self, _: &mut MbContext<'_>, m: FhMessage, out: &mut Vec<FhMessage>) {
                self.c += 1;
                out.push(m);
            }
            fn on_uplane(&mut self, _: &mut MbContext<'_>, m: FhMessage, out: &mut Vec<FhMessage>) {
                self.u += 1;
                out.push(m);
            }
        }
        let mut cache = SymbolCache::new(8);
        let telemetry = TelemetrySender::disconnected("t");
        let mut probe = Probe { c: 0, u: 0 };
        probe.handle(&mut ctx(&mut cache, &telemetry), cmsg());
        probe.handle(&mut ctx(&mut cache, &telemetry), umsg());
        probe.handle(&mut ctx(&mut cache, &telemetry), umsg());
        assert_eq!((probe.c, probe.u), (1, 2));
    }

    #[test]
    fn passthrough_redirects_both_planes() {
        let mut cache = SymbolCache::new(8);
        let telemetry = TelemetrySender::disconnected("t");
        let mut pt = Passthrough::new("pt", mac(10), mac(20));
        let out = pt.handle(&mut ctx(&mut cache, &telemetry), cmsg());
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].eth.dst, mac(20));
        let out = pt.handle(&mut ctx(&mut cache, &telemetry), umsg());
        assert_eq!(out[0].eth.src, mac(10));
    }

    #[test]
    fn handle_is_handle_into_with_a_fresh_vector() {
        let mut cache = SymbolCache::new(8);
        let telemetry = TelemetrySender::disconnected("t");
        let mut pt = Passthrough::new("pt", mac(10), mac(20));
        for msg in [cmsg(), umsg()] {
            // `handle_into` appends: what the caller left in `out` stays.
            let mut via_into = vec![msg.clone()];
            pt.handle_into(&mut ctx(&mut cache, &telemetry), msg.clone(), &mut via_into);
            let via_handle = pt.handle(&mut ctx(&mut cache, &telemetry), msg.clone());
            assert_eq!(via_into[0], msg);
            assert_eq!(via_into[1..], via_handle[..]);
            assert_eq!(via_handle.len(), 1);
        }
        // A boxed middlebox goes through the same provided dispatch.
        let mut boxed: Box<dyn Middlebox> = Box::new(Passthrough::new("pt", mac(10), mac(20)));
        let mut out = Vec::new();
        boxed.handle_into(&mut ctx(&mut cache, &telemetry), cmsg(), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].eth.dst, mac(20));
    }

    #[test]
    fn default_tick_is_noop() {
        let mut cache = SymbolCache::new(8);
        let telemetry = TelemetrySender::disconnected("t");
        let mut pt = Passthrough::new("pt", mac(1), mac(2));
        let mut out = Vec::new();
        pt.on_tick(&mut ctx(&mut cache, &telemetry), 0, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn charges_hold_exactly_what_the_handler_reported() {
        struct Charging;
        impl Middlebox for Charging {
            fn name(&self) -> &str {
                "charging"
            }
            fn on_cplane(&mut self, ctx: &mut MbContext<'_>, _: FhMessage, _: &mut Vec<FhMessage>) {
                ctx.charge(Work::Cache, XdpPlacement::Userspace);
                ctx.charge(Work::Forward, XdpPlacement::Kernel);
            }
            fn on_uplane(&mut self, _: &mut MbContext<'_>, _: FhMessage, _: &mut Vec<FhMessage>) {}
        }
        let mut cache = SymbolCache::new(8);
        let telemetry = TelemetrySender::disconnected("t");
        let mut c = ctx(&mut cache, &telemetry);
        Charging.handle(&mut c, cmsg());
        assert_eq!(
            c.charges,
            vec![(Work::Cache, XdpPlacement::Userspace), (Work::Forward, XdpPlacement::Kernel)]
        );
        // A handler that reports nothing leaves the ledger empty: the
        // forward default is the host's, not the trait's.
        let mut c = ctx(&mut cache, &telemetry);
        Charging.handle(&mut c, umsg());
        Passthrough::new("pt", mac(1), mac(2)).handle(&mut c, cmsg());
        assert!(c.charges.is_empty());
    }
}
