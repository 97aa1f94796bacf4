//! Figure 10a — DAS correctness: downlink/uplink throughput of a single
//! cell on one RU vs the same cell distributed over five RUs (one per
//! floor) by the RANBooster DAS middlebox, with all UEs active and with
//! one UE active at a time.

use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::Deployment;

use crate::report::{mbps, Report};

const CENTER: i64 = 3_460_000_000;

fn cell() -> CellConfig {
    CellConfig::mhz100(1, CENTER, 4)
}

fn windows(quick: bool) -> (u64, u64) {
    if quick {
        (200, 320)
    } else {
        (250, 600)
    }
}

/// Baseline: single RU, two close UEs, aggregate iperf.
fn baseline(quick: bool) -> (f64, f64) {
    let (a, b) = windows(quick);
    let mut dep = Deployment::single_cell(cell(), Position::new(25.0, 10.0, 0));
    dep.add_ue(Position::new(22.0, 10.0, 0), 4);
    dep.add_ue(Position::new(28.0, 10.0, 0), 4);
    let rates = dep.measure_mbps(a, b);
    (rates.iter().map(|r| r.0).sum(), rates.iter().map(|r| r.1).sum())
}

/// DAS over five floors; returns (all-active DL/UL, per-floor solo DL/UL,
/// attach count).
fn das_five_floors(quick: bool, solo_floor: Option<usize>) -> (f64, f64, usize) {
    let (a, b) = windows(quick);
    let ru_positions: Vec<Position> = (0..5).map(|f| Position::new(25.0, 10.0, f)).collect();
    let mut dep = Deployment::das(cell(), &ru_positions);
    let ues: Vec<_> = (0..5).map(|f| dep.add_ue(Position::new(27.0, 10.0, f), 4)).collect();
    if let Some(active) = solo_floor {
        for (f, &ue) in ues.iter().enumerate() {
            if f != active {
                // Attached but idle, as in the paper's second test.
                dep.set_demand(0, ue, 0.0, 0.0);
            }
        }
    }
    let rates = dep.measure_mbps(a, b);
    let attached =
        ues.iter().filter(|&&u| matches!(dep.ue_stats(u).attach, UeAttach::Attached(_))).count();
    (rates.iter().map(|r| r.0).sum(), rates.iter().map(|r| r.1).sum(), attached)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "fig10a",
        "DAS: single cell/1 RU vs RANBooster DAS/5 RUs (five floors)",
        "aggregate DL/UL identical in all cases (~898/70 Mbps); upper-floor \
         UEs attach only with the DAS",
    )
    .columns(vec!["configuration", "DL Mbps", "UL Mbps", "UEs attached"]);

    let (bl_dl, bl_ul) = baseline(quick);
    r.row(vec![
        "single cell, 1 RU, 2 near UEs".to_string(),
        mbps(bl_dl),
        mbps(bl_ul),
        "2/2".into(),
    ]);

    let (dl, ul, attached) = das_five_floors(quick, None);
    r.row(vec![
        "DAS 5 RUs, all 5 UEs transmitting".to_string(),
        mbps(dl),
        mbps(ul),
        format!("{attached}/5"),
    ]);

    for floor in [0usize, 2, 4] {
        let (dl, ul, attached) = das_five_floors(quick, Some(floor));
        r.row(vec![
            format!("DAS 5 RUs, only floor-{} UE active", floor + 1),
            mbps(dl),
            mbps(ul),
            format!("{attached}/5"),
        ]);
    }

    r.note(format!(
        "DAS aggregate within {:.1}% of the single-RU baseline (paper: identical)",
        ((dl - bl_dl) / bl_dl * 100.0).abs()
    ));
    r.note("without the DAS, floors 2-5 cannot attach at all (§6.2.1)");
    r
}
