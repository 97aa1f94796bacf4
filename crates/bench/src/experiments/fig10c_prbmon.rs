//! Figure 10c — real-time PRB monitoring: middlebox-estimated average
//! PRB utilization per second vs ground truth from the DU's MAC
//! scheduling logs, across offered traffic levels.

use ranbooster::apps::prbmon::PrbMon;
use ranbooster::core::host::MiddleboxHost;
use ranbooster::fronthaul::Direction;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::Deployment;

use crate::report::{pct, Report};

const CENTER: i64 = 3_460_000_000;

fn one_level(dl_mbps: f64, ul_mbps: f64, quick: bool) -> (f64, f64, f64, f64) {
    let (settle, end) = if quick { (200, 350) } else { (200, 700) };
    let cell = CellConfig::mhz100(1, CENTER, 4);
    let mut dep = Deployment::prbmon(cell, Position::new(10.0, 10.0, 0));
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    dep.set_demand(0, ue, dl_mbps * 1e6, ul_mbps * 1e6);
    dep.run_ms(settle);
    let from_slot = dep.slot_at_ms(settle);
    dep.run_ms(end);
    let to_slot = dep.slot_at_ms(end);

    let du = dep.du(0);
    let truth_dl = du.dl_utilization(from_slot, to_slot);
    // Ground-truth uplink utilization from the same log.
    let (ul_sum, ul_n) = du
        .sched_log
        .iter()
        .filter(|u| u.slot >= from_slot && u.slot < to_slot)
        .filter(|u| matches!(u.kind, ranbooster::fronthaul::timing::SlotKind::Uplink))
        .fold((0.0, 0u32), |(s, n), u| (s + u.ul_prbs as f64 / 273.0, n + 1));
    let truth_ul = if ul_n == 0 { 0.0 } else { ul_sum / ul_n as f64 };

    let host = dep.engine.node_as::<MiddleboxHost<PrbMon>>(dep.mbs[0]);
    let est_dl =
        host.middlebox().mean_utilization(Direction::Downlink, settle * 1_000_000, end * 1_000_000);
    let est_ul =
        host.middlebox().mean_utilization(Direction::Uplink, settle * 1_000_000, end * 1_000_000);
    (est_dl, truth_dl, est_ul, truth_ul)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "fig10c",
        "PRB monitoring: estimated vs ground-truth utilization per traffic level",
        "estimates closely match the MAC-log ground truth for all load levels \
         (0–700 Mbps DL, uplink scaled alongside)",
    )
    .columns(vec!["offered DL Mbps", "DL est", "DL truth", "UL est", "UL truth"]);

    let levels: &[f64] =
        if quick { &[0.0, 300.0, 700.0] } else { &[0.0, 100.0, 200.0, 300.0, 500.0, 700.0] };
    let mut max_err = 0.0f64;
    for &dl in levels {
        let ul = dl / 10.0; // iperf UL alongside, scaled
        let (est_dl, truth_dl, est_ul, truth_ul) = one_level(dl, ul, quick);
        max_err = max_err.max((est_dl - truth_dl).abs());
        r.row(vec![format!("{dl:.0}"), pct(est_dl), pct(truth_dl), pct(est_ul), pct(truth_ul)]);
    }
    r.note(format!(
        "max |estimate − truth| on the downlink: {:.1} percentage points \
         (Algorithm 1, thr_dl=0 / thr_ul=2, no decompression)",
        max_err * 100.0
    ));
    r
}
