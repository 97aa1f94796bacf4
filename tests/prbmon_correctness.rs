//! §6.2.4 / Figure 10c — PRB monitoring correctness.
//!
//! A 100 MHz cell with an inline PRB monitor. For several levels of
//! offered traffic, the middlebox's per-second utilization estimate
//! (Algorithm 1: BFP-exponent thresholds, no decompression) must track
//! the ground truth computed from the DU's own scheduling logs.

use ranbooster::apps::prbmon::PrbMon;
use ranbooster::core::host::MiddleboxHost;
use ranbooster::fronthaul::Direction;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::Deployment;

const CENTER: i64 = 3_460_000_000;

/// Run one load level; return (estimate, ground truth) DL utilization.
fn run_level(dl_mbps: f64) -> (f64, f64) {
    let cell = CellConfig::mhz100(1, CENTER, 4);
    let mut dep = Deployment::prbmon(cell, Position::new(10.0, 10.0, 0));
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    dep.set_demand(0, ue, dl_mbps * 1e6, 5e6);
    dep.run_ms(200); // attach and settle
    let from_slot = dep.slot_at_ms(200);
    dep.run_ms(500);
    let to_slot = dep.slot_at_ms(500);
    let truth = dep.du(0).dl_utilization(from_slot, to_slot);
    let host = dep.engine.node_as::<MiddleboxHost<PrbMon>>(dep.mbs[0]);
    let estimate = host.middlebox().mean_utilization(Direction::Downlink, 200_000_000, 500_000_000);
    (estimate, truth)
}

#[test]
fn estimates_track_ground_truth_across_loads() {
    // The Figure 10c sweep shape: 0 → 700 Mbps offered load.
    let mut rows = Vec::new();
    for load in [0.0, 100.0, 300.0, 700.0] {
        let (est, truth) = run_level(load);
        rows.push((load, est, truth));
    }
    for (load, est, truth) in &rows {
        // Estimates closely match ground truth at every level (the SSB
        // makes the estimate marginally higher than the data-only truth).
        assert!(
            (est - truth).abs() < 0.06,
            "load {load} Mbps: estimate {est:.3} vs truth {truth:.3}"
        );
    }
    // Monotone in load, saturating near 1.0 at 700 Mbps (cell tops out
    // around 900 Mbps but link adaptation keeps most PRBs busy).
    assert!(rows[0].2 < 0.02, "idle cell truth ≈ 0: {}", rows[0].2);
    assert!(rows[1].2 > 0.05 && rows[1].2 < 0.35, "100 Mbps: {}", rows[1].2);
    assert!(rows[3].2 > rows[1].2, "utilization grows with load");
}

#[test]
fn uplink_utilization_is_estimated_too() {
    let cell = CellConfig::mhz100(1, CENTER, 4);
    let mut dep = Deployment::prbmon(cell, Position::new(10.0, 10.0, 0));
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    dep.set_demand(0, ue, 10e6, 60e6); // UL-heavy
    dep.run_ms(500);
    let host = dep.engine.node_as::<MiddleboxHost<PrbMon>>(dep.mbs[0]);
    let ul = host.middlebox().mean_utilization(Direction::Uplink, 200_000_000, 500_000_000);
    // 60 of ~70 Mbps uplink capacity → high UL utilization.
    assert!(ul > 0.4, "ul estimate {ul}");
    let dl = host.middlebox().mean_utilization(Direction::Downlink, 200_000_000, 500_000_000);
    assert!(dl < 0.1, "light downlink: {dl}");
}

#[test]
fn monitor_is_transparent_to_throughput() {
    // The monitored cell performs like an unmonitored one.
    let cell = CellConfig::mhz100(1, CENTER, 4);
    let mut dep = Deployment::prbmon(cell, Position::new(10.0, 10.0, 0));
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    let rates = dep.measure_mbps(200, 400);
    assert!((rates[ue].0 - 898.0).abs() < 70.0, "dl {}", rates[ue].0);
    assert!((rates[ue].1 - 70.0).abs() < 12.0, "ul {}", rates[ue].1);
    let host = dep.engine.node_as::<MiddleboxHost<PrbMon>>(dep.mbs[0]);
    assert!(host.middlebox().stats.prbs_scanned > 1_000_000, "exponents scanned");
    assert_eq!(host.stats.parse_errors, 0);
}
