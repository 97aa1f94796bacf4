//! Table 2 — dMIMO: average downlink throughput and UE rank indicator
//! for two- and four-antenna configurations, single-RU ground truth vs
//! two RUs combined by the RANBooster middlebox.

use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::Deployment;

use crate::report::{mbps, Report};

const CENTER: i64 = 3_460_000_000;

fn windows(quick: bool) -> (u64, u64) {
    if quick {
        (220, 340)
    } else {
        (250, 650)
    }
}

fn cell(layers: u8) -> CellConfig {
    CellConfig::mhz100(1, CENTER, layers)
}

fn single_ru(layers: u8, quick: bool) -> (f64, f64, u8) {
    let (a, b) = windows(quick);
    let mut dep = Deployment::single_cell(cell(layers), Position::new(22.0, 10.0, 0));
    let ue = dep.add_ue(Position::new(24.5, 10.0, 0), 4);
    let rates = dep.measure_mbps(a, b);
    (rates[ue].0, rates[ue].1, dep.ue_stats(ue).rank)
}

fn dmimo(per_ru_antennas: u8, quick: bool) -> (f64, f64, u8) {
    let (a, b) = windows(quick);
    let sites = [
        (Position::new(22.0, 10.0, 0), per_ru_antennas),
        (Position::new(27.0, 10.0, 0), per_ru_antennas),
    ];
    let mut dep = Deployment::dmimo(cell(2 * per_ru_antennas), &sites, true);
    let ue = dep.add_ue(Position::new(24.5, 10.0, 0), 4);
    let rates = dep.measure_mbps(a, b);
    (rates[ue].0, rates[ue].1, dep.ue_stats(ue).rank)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "table2",
        "dMIMO: DL throughput and rank, single RU vs two RUs via RANBooster",
        "2 layers: 653.4 vs 654.1 Mbps (rank 2); 4 layers: 898.2 vs 896.9 Mbps \
         (rank 4); uplink SISO ~70 Mbps throughout",
    )
    .columns(vec!["configuration", "DL Mbps", "UL Mbps", "rank"]);

    let (dl, ul, rank) = single_ru(2, quick);
    r.row(vec!["2-layer  single RU, 2 antennas".to_string(), mbps(dl), mbps(ul), rank.to_string()]);
    let (dl, ul, rank) = dmimo(1, quick);
    r.row(vec![
        "2-layer  two RUs, 1 antenna each (RANBooster)".to_string(),
        mbps(dl),
        mbps(ul),
        rank.to_string(),
    ]);
    let (dl, ul, rank) = single_ru(4, quick);
    r.row(vec!["4-layer  single RU, 4 antennas".to_string(), mbps(dl), mbps(ul), rank.to_string()]);
    let (dl, ul, rank) = dmimo(2, quick);
    r.row(vec![
        "4-layer  two RUs, 2 antennas each (RANBooster)".to_string(),
        mbps(dl),
        mbps(ul),
        rank.to_string(),
    ]);
    r.note("ranks equal the antenna counts in every configuration, as in the paper");
    r
}
