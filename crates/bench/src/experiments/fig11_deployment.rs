//! Figure 11 — ease of use: downlink throughput of a mobile UE walking
//! across a four-RU floor under three deployment options:
//!
//! * **O1** — four 25 MHz cells on non-overlapping frequencies;
//! * **O2** — four 100 MHz cells reusing the same spectrum;
//! * **O3** — one 100 MHz cell distributed by the RANBooster DAS.
//!
//! A static UE near RU 1 receives 100 Mbps throughout; the mobile UE
//! runs a 700 Mbps downlink test at each position.

use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::{floor_ru_positions, Deployment};

use crate::report::Report;

const BAND_LO: i64 = 3_430_000_000;

fn walk_points(quick: bool) -> Vec<f64> {
    if quick {
        vec![4.0, 14.0, 25.0, 36.0, 46.0]
    } else {
        vec![2.0, 7.0, 12.0, 17.0, 22.0, 27.0, 32.0, 37.0, 42.0, 46.0]
    }
}

/// Drive the walk over a prepared deployment; the static UE is ue 0.
fn walk(dep: &mut Deployment, mobile: usize, quick: bool) -> Vec<f64> {
    let (settle, window) = if quick { (160u64, 120u64) } else { (250, 200) };
    let mut out = Vec::new();
    let mut now = 200u64; // initial attach period
    dep.run_ms(now);
    for x in walk_points(quick) {
        dep.move_ue(mobile, Position::new(x, 10.0, 0));
        now += settle;
        dep.run_ms(now);
        let before = dep.ue_stats(mobile).dl_bits;
        now += window;
        dep.run_ms(now);
        let after = dep.ue_stats(mobile).dl_bits;
        out.push((after - before) as f64 / (window as f64 / 1e3) / 1e6);
    }
    out
}

fn option1(quick: bool) -> Vec<f64> {
    // Four 25 MHz cells at disjoint centers.
    let cells: Vec<(CellConfig, Position)> = floor_ru_positions(0)
        .into_iter()
        .enumerate()
        .map(|(k, pos)| (CellConfig::mhz25(k as u16 + 1, BAND_LO + k as i64 * 25_000_000, 4), pos))
        .collect();
    let mut dep = Deployment::multi_cell(cells);
    let ru1 = floor_ru_positions(0)[0];
    let static_ue = dep.add_ue(Position::new(ru1.x + 1.0, ru1.y, 0), 4);
    let mobile = dep.add_ue(Position::new(2.0, 10.0, 0), 4);
    for du in 0..4 {
        dep.set_demand(du, static_ue, 100e6, 5e6);
        dep.set_demand(du, mobile, 700e6, 5e6);
    }
    walk(&mut dep, mobile, quick)
}

fn option2(quick: bool) -> Vec<f64> {
    // Four 100 MHz cells all on the same spectrum — co-channel.
    let cells: Vec<(CellConfig, Position)> = floor_ru_positions(0)
        .into_iter()
        .enumerate()
        .map(|(k, pos)| (CellConfig::mhz100(k as u16 + 1, 3_460_000_000, 4), pos))
        .collect();
    let mut dep = Deployment::multi_cell(cells);
    let ru1 = floor_ru_positions(0)[0];
    let static_ue = dep.add_ue(Position::new(ru1.x + 1.0, ru1.y, 0), 4);
    let mobile = dep.add_ue(Position::new(2.0, 10.0, 0), 4);
    for du in 0..4 {
        dep.set_demand(du, static_ue, 100e6, 5e6);
        dep.set_demand(du, mobile, 700e6, 5e6);
    }
    walk(&mut dep, mobile, quick)
}

fn option3(quick: bool) -> Vec<f64> {
    // One 100 MHz DAS cell over all four RUs.
    let cell = CellConfig::mhz100(1, 3_460_000_000, 4);
    let mut dep = Deployment::das(cell, &floor_ru_positions(0));
    let ru1 = floor_ru_positions(0)[0];
    let static_ue = dep.add_ue(Position::new(ru1.x + 1.0, ru1.y, 0), 4);
    let mobile = dep.add_ue(Position::new(2.0, 10.0, 0), 4);
    dep.set_demand(0, static_ue, 100e6, 5e6);
    dep.set_demand(0, mobile, 700e6, 5e6);
    walk(&mut dep, mobile, quick)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "fig11",
        "deployment options: mobile-UE DL across the floor (700 Mbps offered)",
        "O1 caps at ~200 Mbps (25 MHz); O2 dips at several locations from \
         inter-cell interference; O3 (DAS) sustains ~700 Mbps everywhere",
    )
    .columns(vec!["x (m)", "O1: 4×25MHz", "O2: 4×100MHz reuse", "O3: DAS"]);

    let o1 = option1(quick);
    let o2 = option2(quick);
    let o3 = option3(quick);
    for (k, x) in walk_points(quick).iter().enumerate() {
        r.row(vec![
            format!("{x:.0}"),
            format!("{:.0}", o1[k]),
            format!("{:.0}", o2[k]),
            format!("{:.0}", o3[k]),
        ]);
    }
    let max = |v: &[f64]| v.iter().cloned().fold(0.0f64, f64::max);
    let min_nonzero =
        |v: &[f64]| v.iter().cloned().filter(|&x| x > 1.0).fold(f64::INFINITY, f64::min);
    r.note(format!(
        "O1 peak {:.0} Mbps (spectrum-limited); O2 min/max {:.0}/{:.0} Mbps \
         (interference dips); O3 min {:.0} Mbps (seamless)",
        max(&o1),
        min_nonzero(&o2),
        max(&o2),
        min_nonzero(&o3),
    ));
    r
}
