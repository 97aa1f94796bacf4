//! The real-time PRB monitoring middlebox (paper §4.4, Algorithm 1).
//!
//! A passive inline monitor: every packet is forwarded unchanged between
//! the DU and the RU, and for each U-plane packet the per-PRB BFP
//! exponents are read **without decompressing anything** — a PRB is
//! marked utilized when its exponent exceeds a per-direction threshold
//! (`thr_dl = 0`, `thr_ul = 2` in the paper's setups). Utilization is
//! aggregated over a reporting window and exported over the telemetry
//! interface at sub-millisecond-capable granularity.
//!
//! For comparison (the overhead the paper's design avoids), an optional
//! *energy* estimator decompresses the payload and thresholds PRB energy —
//! `bench/prbmon_ablation` quantifies the cost difference.

use rb_core::actions;
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::{counters, TelemetryEvent};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::uplane::UPlaneRepr;
use rb_fronthaul::Direction;
use rb_netsim::cost::{Work, XdpPlacement};
use rb_netsim::time::SimDuration;

/// How utilization is estimated from the U-plane payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Estimator {
    /// Algorithm 1: threshold the BFP exponent, never decompressing.
    Exponent,
    /// The alternative the paper rejects as costly: decompress and
    /// threshold per-PRB energy.
    Energy {
        /// Mean per-sample energy above which a PRB counts as utilized.
        threshold: f64,
    },
}

/// PRB monitoring configuration.
#[derive(Debug, Clone)]
pub struct PrbMonConfig {
    /// The middlebox's own MAC.
    pub mb_mac: EthernetAddress,
    /// The DU side.
    pub du_mac: EthernetAddress,
    /// The RU side.
    pub ru_mac: EthernetAddress,
    /// Total PRBs of the monitored carrier.
    pub total_prb: u16,
    /// Downlink exponent threshold (`thr_dl`).
    pub thr_dl: u8,
    /// Uplink exponent threshold (`thr_ul`).
    pub thr_ul: u8,
    /// Telemetry reporting period.
    pub report_every: SimDuration,
    /// Expected downlink symbol observations per second (from the TDD
    /// pattern) — lets the estimator account for fully idle symbols that
    /// produce no packets at all.
    pub expected_dl_symbols_per_sec: f64,
    /// Expected uplink symbol observations per second.
    pub expected_ul_symbols_per_sec: f64,
    /// Only count this antenna port (data utilization, not MIMO copies).
    pub port: u8,
    /// The estimation strategy.
    pub estimator: Estimator,
}

impl PrbMonConfig {
    /// Defaults for a μ=1 `DDDDDDDSUU` cell of `total_prb` PRBs: paper
    /// thresholds, 1 ms reporting.
    pub fn standard(
        mb_mac: EthernetAddress,
        du_mac: EthernetAddress,
        ru_mac: EthernetAddress,
        total_prb: u16,
    ) -> PrbMonConfig {
        // 2000 slots/s: 7.5 DL-equivalent slots and 2 UL slots per 10.
        let dl_syms = 2000.0 * 0.75 * 14.0;
        let ul_syms = 2000.0 * 0.20 * 14.0;
        PrbMonConfig {
            mb_mac,
            du_mac,
            ru_mac,
            total_prb,
            thr_dl: 0,
            thr_ul: 2,
            report_every: SimDuration::from_millis(1),
            expected_dl_symbols_per_sec: dl_syms,
            expected_ul_symbols_per_sec: ul_syms,
            port: 0,
            estimator: Estimator::Exponent,
        }
    }
}

/// A finished utilization report for one window and direction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UtilizationReport {
    /// Window start, nanoseconds of simulated time.
    pub window_start_ns: u64,
    /// Direction.
    pub direction: Direction,
    /// Estimated utilization for this window, 0.0..=1.0 (clamped — TDD
    /// bursts can concentrate a period's symbols into one window).
    pub utilization: f64,
    /// Symbols observed (packets seen) during the window.
    pub observed_symbols: u64,
    /// Raw utilized-PRB count of the window.
    pub utilized_prbs: u64,
    /// Expected PRB observations for the window (symbols × carrier PRBs).
    pub expected_prbs: f64,
}

#[derive(Debug, Default, Clone, Copy)]
struct WindowAcc {
    utilized_prbs: u64,
    observed_symbols: u64,
}

/// Aggregate monitor counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrbMonStats {
    /// Packets forwarded.
    pub forwarded: u64,
    /// U-plane packets inspected.
    pub inspected: u64,
    /// PRB exponent (or energy) observations.
    pub prbs_scanned: u64,
}

/// The PRB monitoring middlebox.
pub struct PrbMon {
    name: String,
    cfg: PrbMonConfig,
    window_start_ns: u64,
    dl: WindowAcc,
    ul: WindowAcc,
    /// Completed reports, newest last (also emitted via telemetry).
    pub reports: Vec<UtilizationReport>,
    /// Counters.
    pub stats: PrbMonStats,
}

impl PrbMon {
    /// Build a monitor.
    pub fn new(name: impl Into<String>, cfg: PrbMonConfig) -> PrbMon {
        assert!(cfg.total_prb > 0);
        PrbMon {
            name: name.into(),
            cfg,
            window_start_ns: 0,
            dl: WindowAcc::default(),
            ul: WindowAcc::default(),
            reports: Vec::new(),
            stats: PrbMonStats::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PrbMonConfig {
        &self.cfg
    }

    /// Mean utilization across completed reports for `direction` within
    /// `[from_ns, to_ns)` — computed from raw counts (Σ utilized /
    /// Σ expected) so TDD burstiness across window boundaries averages
    /// out correctly.
    pub fn mean_utilization(&self, direction: Direction, from_ns: u64, to_ns: u64) -> f64 {
        let (utilized, expected) = self
            .reports
            .iter()
            .filter(|r| {
                r.direction == direction
                    && r.window_start_ns >= from_ns
                    && r.window_start_ns < to_ns
            })
            .fold((0u64, 0.0f64), |(u, e), r| (u + r.utilized_prbs, e + r.expected_prbs));
        if expected <= 0.0 {
            0.0
        } else {
            utilized as f64 / expected
        }
    }

    fn count_utilized(&mut self, up: &UPlaneRepr, thr: u8) -> u64 {
        let mut utilized = 0u64;
        for section in &up.sections {
            match self.cfg.estimator {
                Estimator::Exponent => {
                    if let Ok(exps) = section.exponents() {
                        counters::bump_by(
                            &mut self.stats.prbs_scanned,
                            counters::as_count(exps.len()),
                        );
                        let hot = exps.iter().filter(|&&e| e > thr).count();
                        utilized = utilized.saturating_add(counters::as_count(hot));
                    }
                }
                Estimator::Energy { threshold } => {
                    if let Ok(decoded) = section.decode() {
                        counters::bump_by(
                            &mut self.stats.prbs_scanned,
                            counters::as_count(decoded.len()),
                        );
                        let hot = decoded
                            .iter()
                            .filter(|(prb, _)| {
                                prb.energy() as f64 / rb_fronthaul::iq::SAMPLES_PER_PRB as f64
                                    > threshold
                            })
                            .count();
                        utilized = utilized.saturating_add(counters::as_count(hot));
                    }
                }
            }
        }
        utilized
    }

    fn flush_window(&mut self, ctx: &mut MbContext<'_>, now_ns: u64) {
        // Flushes are lazy (driven by packet arrivals), so by the time one
        // happens several reporting periods may have elapsed — after a
        // quiet gap the accumulated counts span the whole gap, and the
        // denominator must too, or utilization is over-reported N× after
        // N quiet periods. All accumulation happened inside the first
        // period (arrivals after a boundary flush before accumulating),
        // so scaling by whole elapsed periods honestly averages the gap.
        let period_ns = self.cfg.report_every.as_nanos().max(1);
        let elapsed_ns = now_ns.saturating_sub(self.window_start_ns);
        let periods = (elapsed_ns / period_ns).max(1);
        let window_ns = periods.saturating_mul(period_ns);
        let window_secs = window_ns as f64 / 1e9;
        for (direction, acc, expected_per_sec) in [
            (Direction::Downlink, self.dl, self.cfg.expected_dl_symbols_per_sec),
            (Direction::Uplink, self.ul, self.cfg.expected_ul_symbols_per_sec),
        ] {
            let expected_symbols = (expected_per_sec * window_secs).max(1.0);
            let expected_prbs = expected_symbols * self.cfg.total_prb as f64;
            let utilization = (acc.utilized_prbs as f64 / expected_prbs).min(1.0);
            let report = UtilizationReport {
                window_start_ns: self.window_start_ns,
                direction,
                utilization,
                observed_symbols: acc.observed_symbols,
                utilized_prbs: acc.utilized_prbs,
                expected_prbs,
            };
            ctx.telemetry.emit(
                now_ns,
                TelemetryEvent::PrbUtilization {
                    downlink: direction == Direction::Downlink,
                    utilized: u32::try_from(acc.utilized_prbs).unwrap_or(u32::MAX),
                    total: (expected_symbols * self.cfg.total_prb as f64) as u32,
                },
            );
            self.reports.push(report);
        }
        self.dl = WindowAcc::default();
        self.ul = WindowAcc::default();
        // Advance by whole periods (not to `now_ns`): window boundaries
        // stay aligned to the reporting grid instead of drifting by each
        // flush's position inside its period.
        self.window_start_ns = self.window_start_ns.saturating_add(window_ns);
    }

    fn maybe_flush(&mut self, ctx: &mut MbContext<'_>) {
        let now_ns = ctx.now_ns();
        if now_ns.saturating_sub(self.window_start_ns) >= self.cfg.report_every.as_nanos() {
            self.flush_window(ctx, now_ns);
        }
    }

    /// Forward a packet to the opposite side, unchanged except addressing.
    fn forward(&mut self, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        let dst = if msg.eth.src == self.cfg.du_mac {
            self.cfg.ru_mac
        } else if msg.eth.src == self.cfg.ru_mac {
            self.cfg.du_mac
        } else {
            return;
        };
        actions::redirect(&mut msg, self.cfg.mb_mac, dst);
        counters::bump(&mut self.stats.forwarded);
        actions::emit(out, msg);
    }
}

impl Middlebox for PrbMon {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.maybe_flush(ctx);
        ctx.charge(Work::Forward, XdpPlacement::Kernel);
        self.forward(msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.maybe_flush(ctx);
        let direction = msg.body.direction();
        if msg.eaxc.ru_port == self.cfg.port {
            if let Body::UPlane(up) = &msg.body {
                counters::bump(&mut self.stats.inspected);
                let prbs: usize = up.sections.iter().map(|s| usize::from(s.num_prb())).sum();
                ctx.charge(Work::InspectHeaders { prbs }, XdpPlacement::Kernel);
                let (thr, acc_is_dl) = match direction {
                    Direction::Downlink => (self.cfg.thr_dl, true),
                    Direction::Uplink => (self.cfg.thr_ul, false),
                };
                let utilized = self.count_utilized(up, thr);
                let acc = if acc_is_dl { &mut self.dl } else { &mut self.ul };
                counters::bump_by(&mut acc.utilized_prbs, utilized);
                counters::bump(&mut acc.observed_symbols);
            }
        } else {
            ctx.charge(Work::Forward, XdpPlacement::Kernel);
        }
        self.forward(msg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::cache::SymbolCache;
    use rb_core::telemetry::{self, TelemetrySender};
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::iq::{IqSample, Prb};
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::uplane::USection;
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn monitor() -> PrbMon {
        PrbMon::new("mon", PrbMonConfig::standard(mac(10), mac(1), mac(9), 10))
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

    fn loud_prb() -> Prb {
        let mut p = Prb::ZERO;
        for s in p.0.iter_mut() {
            *s = IqSample::new(4000, -4000);
        }
        p
    }

    /// A U-plane with `loud` active PRBs followed by `quiet` zero PRBs.
    fn uplane(
        direction: Direction,
        src: EthernetAddress,
        loud: usize,
        quiet: usize,
        port: u8,
    ) -> FhMessage {
        let mut prbs = vec![loud_prb(); loud];
        prbs.extend(vec![Prb::ZERO; quiet]);
        let section = USection::from_prbs(0, 0, &prbs, CompressionMethod::BFP9).unwrap();
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(port),
            0,
            Body::UPlane(UPlaneRepr::single(direction, SymbolId::ZERO, section)),
        )
    }

    #[test]
    fn forwards_both_directions() {
        let mut mb = monitor();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = mb
            .handle(&mut ctx_at(&mut cache, &tel, 0), uplane(Direction::Downlink, mac(1), 2, 2, 0));
        assert_eq!(out[0].eth.dst, mac(9), "DU→RU");
        let out =
            mb.handle(&mut ctx_at(&mut cache, &tel, 0), uplane(Direction::Uplink, mac(9), 2, 2, 0));
        assert_eq!(out[0].eth.dst, mac(1), "RU→DU");
        assert_eq!(mb.stats.forwarded, 2);
    }

    #[test]
    fn algorithm1_thresholds() {
        let mut mb = monitor();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        // DL: 3 loud + 7 zero → 3 utilized at thr 0.
        mb.handle(&mut ctx_at(&mut cache, &tel, 0), uplane(Direction::Downlink, mac(1), 3, 7, 0));
        assert_eq!(mb.dl.utilized_prbs, 3);
        assert_eq!(mb.dl.observed_symbols, 1);
        // UL loud PRBs have exponent > 2 → counted; zeros not.
        mb.handle(&mut ctx_at(&mut cache, &tel, 0), uplane(Direction::Uplink, mac(9), 4, 6, 0));
        assert_eq!(mb.ul.utilized_prbs, 4);
    }

    #[test]
    fn other_ports_not_inspected_but_forwarded() {
        let mut mb = monitor();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = mb
            .handle(&mut ctx_at(&mut cache, &tel, 0), uplane(Direction::Downlink, mac(1), 3, 0, 2));
        assert_eq!(out.len(), 1);
        assert_eq!(mb.stats.inspected, 0);
        assert_eq!(mb.dl.utilized_prbs, 0);
    }

    #[test]
    fn windows_flush_into_reports_and_telemetry() {
        let (tx, rx) = telemetry::channel("mon");
        let mut mb = monitor();
        let mut cache = SymbolCache::new(8);
        mb.handle(&mut ctx_at(&mut cache, &tx, 0), uplane(Direction::Downlink, mac(1), 5, 5, 0));
        // Crossing the 1 ms boundary flushes the previous window.
        mb.handle(
            &mut ctx_at(&mut cache, &tx, 1_100_000),
            uplane(Direction::Downlink, mac(1), 5, 5, 0),
        );
        assert_eq!(mb.reports.len(), 2, "one DL + one UL report");
        let dl = mb.reports.iter().find(|r| r.direction == Direction::Downlink).unwrap();
        assert!(dl.utilization > 0.0);
        let events = rx.drain();
        assert_eq!(events.len(), 2);
        assert!(events
            .iter()
            .any(|e| matches!(e.event, TelemetryEvent::PrbUtilization { downlink: true, .. })));
    }

    #[test]
    fn utilization_accounts_for_idle_symbols() {
        // Only one symbol observed in a window that expects many: the
        // estimate must be scaled down by the expected symbol count, not
        // report the single packet's ratio.
        let mut mb = monitor();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx_at(&mut cache, &tel, 0), uplane(Direction::Downlink, mac(1), 10, 0, 0));
        mb.handle(
            &mut ctx_at(&mut cache, &tel, 2_000_000),
            uplane(Direction::Downlink, mac(1), 0, 1, 0),
        );
        let dl = mb.reports.iter().find(|r| r.direction == Direction::Downlink).unwrap();
        // expected symbols/ms = 21; 10 of 21×10 PRBs utilized ≈ 4.8 %.
        assert!(dl.utilization < 0.1, "got {}", dl.utilization);
        assert!(dl.utilization > 0.02);
    }

    #[test]
    fn quiet_periods_scale_the_denominator() {
        // Regression: lazy flushes used one reporting period as the
        // denominator no matter how late they ran, so a window flushed
        // after N quiet periods over-reported utilization N×. Doubling
        // the gap before the flush must halve the reported utilization.
        let run = |gap_ns: u64| {
            let mut mb = monitor();
            let mut cache = SymbolCache::new(8);
            let tel = TelemetrySender::disconnected("t");
            mb.handle(
                &mut ctx_at(&mut cache, &tel, 0),
                uplane(Direction::Downlink, mac(1), 10, 0, 0),
            );
            mb.handle(
                &mut ctx_at(&mut cache, &tel, gap_ns),
                uplane(Direction::Downlink, mac(1), 0, 1, 0),
            );
            mb.reports.iter().find(|r| r.direction == Direction::Downlink).unwrap().utilization
        };
        let one_period = run(1_100_000);
        let two_periods = run(2_200_000);
        assert!(one_period > 0.0);
        assert!(
            (one_period / two_periods - 2.0).abs() < 1e-9,
            "2 ms gap must halve utilization: {one_period} vs {two_periods}"
        );
    }

    #[test]
    fn window_starts_advance_on_period_boundaries() {
        // Regression: `window_start_ns = now_ns` let boundaries drift by
        // wherever inside a period the flushing packet happened to land.
        let mut mb = monitor();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx_at(&mut cache, &tel, 0), uplane(Direction::Downlink, mac(1), 5, 5, 0));
        // Flush lands mid-period at 2.7 ms: the closed window spanned two
        // whole periods and the next one starts on the 2 ms boundary.
        mb.handle(
            &mut ctx_at(&mut cache, &tel, 2_700_000),
            uplane(Direction::Downlink, mac(1), 5, 5, 0),
        );
        let dl = mb.reports.iter().find(|r| r.direction == Direction::Downlink).unwrap();
        assert_eq!(dl.window_start_ns, 0);
        assert_eq!(mb.window_start_ns, 2_000_000, "grid-aligned, not 2_700_000");
    }

    #[test]
    fn energy_estimator_matches_exponent_on_clear_signals() {
        let mut cfg = PrbMonConfig::standard(mac(10), mac(1), mac(9), 10);
        cfg.estimator = Estimator::Energy { threshold: 100_000.0 };
        let mut mb = PrbMon::new("energy", cfg);
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx_at(&mut cache, &tel, 0), uplane(Direction::Downlink, mac(1), 3, 7, 0));
        assert_eq!(mb.dl.utilized_prbs, 3);
    }

    #[test]
    fn foreign_sources_dropped() {
        let mut mb = monitor();
        let mut cache = SymbolCache::new(8);
        let tel = TelemetrySender::disconnected("t");
        let out = mb.handle(
            &mut ctx_at(&mut cache, &tel, 0),
            uplane(Direction::Downlink, mac(77), 1, 0, 0),
        );
        assert!(out.is_empty());
    }

    #[test]
    fn mean_utilization_selector() {
        let mut mb = monitor();
        mb.reports = vec![
            UtilizationReport {
                window_start_ns: 0,
                direction: Direction::Downlink,
                utilization: 0.2,
                observed_symbols: 1,
                utilized_prbs: 20,
                expected_prbs: 100.0,
            },
            UtilizationReport {
                window_start_ns: 1_000_000,
                direction: Direction::Downlink,
                utilization: 0.4,
                observed_symbols: 1,
                utilized_prbs: 40,
                expected_prbs: 100.0,
            },
            UtilizationReport {
                window_start_ns: 1_000_000,
                direction: Direction::Uplink,
                utilization: 0.9,
                observed_symbols: 1,
                utilized_prbs: 90,
                expected_prbs: 100.0,
            },
        ];
        let m = mb.mean_utilization(Direction::Downlink, 0, 2_000_000);
        assert!((m - 0.3).abs() < 1e-9);
        assert_eq!(mb.mean_utilization(Direction::Uplink, 0, 1_000_000), 0.0);
    }
}
