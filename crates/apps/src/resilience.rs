//! The RAN-resilience middlebox (paper §8.1, "RAN resilience").
//!
//! The paper sketches this as a natural RANBooster extension: "one could
//! detect RAN failures by monitoring inter-packet delays (action A4) and
//! re-routing the RU traffic to a new DU within a few milliseconds
//! (action A1)". This middlebox implements exactly that:
//!
//! * every downlink packet from the active DU refreshes a liveness
//!   timestamp;
//! * a periodic watchdog tick declares the DU dead once the inter-packet
//!   gap exceeds a threshold (a healthy DU emits C-plane and SSB traffic
//!   every few slots even when idle) and **fails over**: uplink traffic is
//!   steered to the standby DU, and downlink from the standby — previously
//!   absorbed — is passed through;
//! * if the primary resumes, an explicit management call can fail back.
//!
//! The same mechanism covers hitless RAN software updates (§8.1): drain
//! the primary, let the watchdog switch, upgrade, fail back.

use rb_core::actions;
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::counters;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::FhMessage;
use rb_netsim::cost::{Work, XdpPlacement};
use rb_netsim::time::{SimDuration, SimTime};

/// Which DU currently owns the RU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActiveDu {
    /// The primary DU is serving.
    Primary,
    /// The watchdog (or an operator) failed over to the standby.
    Standby,
}

/// Resilience middlebox configuration.
#[derive(Debug, Clone)]
pub struct ResilienceConfig {
    /// The middlebox's own MAC.
    pub mb_mac: EthernetAddress,
    /// The primary DU.
    pub primary_mac: EthernetAddress,
    /// The hot-standby DU.
    pub standby_mac: EthernetAddress,
    /// The RU (or downstream middlebox).
    pub ru_mac: EthernetAddress,
    /// Declare the active DU dead after this downlink silence.
    pub failure_timeout: SimDuration,
}

/// Aggregate resilience counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResilienceStats {
    /// Downlink packets forwarded from the active DU.
    pub dl_forwarded: u64,
    /// Uplink packets steered to the active DU.
    pub ul_forwarded: u64,
    /// Packets from the inactive DU, absorbed.
    pub standby_absorbed: u64,
    /// Failovers performed.
    pub failovers: u64,
    /// Explicit failbacks performed.
    pub failbacks: u64,
}

/// The resilience middlebox.
pub struct Resilience {
    name: String,
    cfg: ResilienceConfig,
    active: ActiveDu,
    last_dl: Option<SimTime>,
    last_failover: Option<SimTime>,
    /// Counters.
    pub stats: ResilienceStats,
}

/// Timer tag the hosting node should drive the watchdog with.
pub const WATCHDOG_TICK: u64 = 0x57;

impl Resilience {
    /// Build a resilience middlebox; the primary starts active.
    pub fn new(name: impl Into<String>, cfg: ResilienceConfig) -> Resilience {
        Resilience {
            name: name.into(),
            cfg,
            active: ActiveDu::Primary,
            last_dl: None,
            last_failover: None,
            stats: ResilienceStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &ResilienceConfig {
        &self.cfg
    }

    /// Which DU is currently active.
    pub fn active(&self) -> ActiveDu {
        self.active
    }

    /// When the watchdog last failed over to the standby (for recovery
    /// latency measurements); `None` until the first failover.
    pub fn last_failover(&self) -> Option<SimTime> {
        self.last_failover
    }

    /// When the active DU was last heard on the downlink.
    pub fn last_dl(&self) -> Option<SimTime> {
        self.last_dl
    }

    fn active_mac(&self) -> EthernetAddress {
        match self.active {
            ActiveDu::Primary => self.cfg.primary_mac,
            ActiveDu::Standby => self.cfg.standby_mac,
        }
    }

    /// Operator-initiated failback to the primary (management interface).
    pub fn fail_back(&mut self) {
        if self.active == ActiveDu::Standby {
            self.active = ActiveDu::Primary;
            self.last_dl = None;
            counters::bump(&mut self.stats.failbacks);
        }
    }

    fn route(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        ctx.charge(Work::Forward, XdpPlacement::Kernel);
        if msg.eth.src == self.active_mac() {
            // Downlink from the live DU: refresh liveness and forward.
            self.last_dl = Some(ctx.now);
            actions::redirect(&mut msg, self.cfg.mb_mac, self.cfg.ru_mac);
            counters::bump(&mut self.stats.dl_forwarded);
            return actions::emit(out, msg);
        }
        if msg.eth.src == self.cfg.ru_mac {
            // Uplink: steer to whichever DU is active right now (A1).
            actions::redirect(&mut msg, self.cfg.mb_mac, self.active_mac());
            counters::bump(&mut self.stats.ul_forwarded);
            return actions::emit(out, msg);
        }
        if msg.eth.src == self.cfg.primary_mac || msg.eth.src == self.cfg.standby_mac {
            // The inactive DU keeps transmitting into the void.
            counters::bump(&mut self.stats.standby_absorbed);
        }
    }
}

impl Middlebox for Resilience {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.route(ctx, msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.route(ctx, msg, out);
    }

    fn on_tick(&mut self, ctx: &mut MbContext<'_>, tag: u64, _out: &mut Vec<FhMessage>) {
        if tag != WATCHDOG_TICK || self.active != ActiveDu::Primary {
            return;
        }
        if let Some(last) = self.last_dl {
            if ctx.now.since(last) >= self.cfg.failure_timeout {
                self.active = ActiveDu::Standby;
                self.last_failover = Some(ctx.now);
                counters::bump(&mut self.stats.failovers);
                ctx.telemetry.count(ctx.now_ns(), "failover", 1);
            }
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
    use rb_fronthaul::msg::Body;
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::Direction;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn mb() -> Resilience {
        Resilience::new(
            "resil",
            ResilienceConfig {
                mb_mac: mac(10),
                primary_mac: mac(1),
                standby_mac: mac(2),
                ru_mac: mac(9),
                failure_timeout: SimDuration::from_millis(3),
            },
        )
    }

    fn msg(src: EthernetAddress, dir: Direction) -> FhMessage {
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                dir,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 14),
            )),
        )
    }

    fn ctx_at<'a>(cache: &'a mut SymbolCache, tel: &'a TelemetrySender, ns: u64) -> MbContext<'a> {
        MbContext {
            now: SimTime(ns),
            cache,
            telemetry: tel,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        }
    }

    #[test]
    fn healthy_primary_serves_and_standby_is_absorbed() {
        let mut r = mb();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = r.handle(&mut ctx_at(&mut cache, &tel, 0), msg(mac(1), Direction::Downlink));
        assert_eq!(out[0].eth.dst, mac(9));
        let out = r.handle(&mut ctx_at(&mut cache, &tel, 0), msg(mac(9), Direction::Uplink));
        assert_eq!(out[0].eth.dst, mac(1), "uplink → primary");
        let out = r.handle(&mut ctx_at(&mut cache, &tel, 0), msg(mac(2), Direction::Downlink));
        assert!(out.is_empty(), "standby absorbed");
        assert_eq!(r.stats.standby_absorbed, 1);
        assert_eq!(r.active(), ActiveDu::Primary);
    }

    #[test]
    fn watchdog_fails_over_after_silence() {
        let mut r = mb();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        // Primary alive at t=0.
        r.handle(&mut ctx_at(&mut cache, &tel, 0), msg(mac(1), Direction::Downlink));
        // Tick inside the timeout: still primary.
        r.on_tick(&mut ctx_at(&mut cache, &tel, 2_000_000), WATCHDOG_TICK, &mut Vec::new());
        assert_eq!(r.active(), ActiveDu::Primary);
        // Tick past the timeout: failover.
        r.on_tick(&mut ctx_at(&mut cache, &tel, 3_500_000), WATCHDOG_TICK, &mut Vec::new());
        assert_eq!(r.active(), ActiveDu::Standby);
        assert_eq!(r.stats.failovers, 1);
        // Uplink now steers to the standby; standby DL passes; primary
        // (if it babbles) is absorbed.
        let out =
            r.handle(&mut ctx_at(&mut cache, &tel, 4_000_000), msg(mac(9), Direction::Uplink));
        assert_eq!(out[0].eth.dst, mac(2));
        let out =
            r.handle(&mut ctx_at(&mut cache, &tel, 4_000_000), msg(mac(2), Direction::Downlink));
        assert_eq!(out[0].eth.dst, mac(9));
        let out =
            r.handle(&mut ctx_at(&mut cache, &tel, 4_000_000), msg(mac(1), Direction::Downlink));
        assert!(out.is_empty());
    }

    #[test]
    fn no_failover_before_first_packet() {
        let mut r = mb();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        // Watchdog with no liveness sample yet: don't flap at startup.
        r.on_tick(&mut ctx_at(&mut cache, &tel, 10_000_000), WATCHDOG_TICK, &mut Vec::new());
        assert_eq!(r.active(), ActiveDu::Primary);
    }

    #[test]
    fn failback_restores_primary() {
        let mut r = mb();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        r.handle(&mut ctx_at(&mut cache, &tel, 0), msg(mac(1), Direction::Downlink));
        r.on_tick(&mut ctx_at(&mut cache, &tel, 5_000_000), WATCHDOG_TICK, &mut Vec::new());
        assert_eq!(r.active(), ActiveDu::Standby);
        r.fail_back();
        assert_eq!(r.active(), ActiveDu::Primary);
        assert_eq!(r.stats.failbacks, 1);
        let out =
            r.handle(&mut ctx_at(&mut cache, &tel, 6_000_000), msg(mac(9), Direction::Uplink));
        assert_eq!(out[0].eth.dst, mac(1));
    }

    #[test]
    fn failover_telemetry_emitted() {
        let (tx, rx) = rb_core::telemetry::channel("resil");
        let mut r = mb();
        let mut cache = SymbolCache::new(8);
        r.handle(&mut ctx_at(&mut cache, &tx, 0), msg(mac(1), Direction::Downlink));
        r.on_tick(&mut ctx_at(&mut cache, &tx, 5_000_000), WATCHDOG_TICK, &mut Vec::new());
        let events = rx.drain();
        assert_eq!(events.len(), 1);
        assert_eq!(&*events[0].source, "resil");
    }
}
