//! Figure 13 — boosting performance by swapping middleboxes: a SISO DAS
//! over four 1-antenna RUs (~250 Mbps) is replaced by a 4-layer dMIMO
//! middlebox over the *same* radios, raising downlink 2–3× depending on
//! location — with zero infrastructure changes.

use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::{floor_ru_positions, Deployment};

use crate::report::Report;

const CENTER: i64 = 3_460_000_000;

fn positions(quick: bool) -> Vec<f64> {
    if quick {
        vec![7.0, 25.0, 44.0]
    } else {
        vec![2.0, 7.0, 13.0, 19.0, 25.0, 32.0, 38.0, 44.0, 48.0]
    }
}

fn measure_at(dep: &mut Deployment, ue: usize, quick: bool) -> Vec<f64> {
    let (settle, window) = if quick { (160u64, 120u64) } else { (250, 200) };
    let mut now = 220u64;
    dep.run_ms(now);
    let mut out = Vec::new();
    for x in positions(quick) {
        dep.move_ue(ue, Position::new(x, 10.0, 0));
        now += settle;
        dep.run_ms(now);
        let before = dep.ue_stats(ue).dl_bits;
        now += window;
        dep.run_ms(now);
        out.push((dep.ue_stats(ue).dl_bits - before) as f64 / (window as f64 / 1e3) / 1e6);
    }
    out
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let rus = floor_ru_positions(0);
    let mut r = Report::new(
        "fig13",
        "DAS (SISO) vs dMIMO middlebox over the same 4×1-antenna RUs",
        "DAS ~250 Mbps everywhere; swapping in the dMIMO middlebox raises \
         downlink by 2–3× depending on location, software-only",
    )
    .columns(vec!["x (m)", "DAS SISO Mbps", "dMIMO Mbps", "gain"]);

    // Vendor A's DAS: SISO cell over the four 1-antenna radios.
    let mut das = Deployment::das(CellConfig::mhz100(1, CENTER, 1), &rus);
    let ue = das.add_ue(Position::new(2.0, 10.0, 0), 4);
    das.set_demand(0, ue, 2e9, 1e6);
    let das_rates = measure_at(&mut das, ue, quick);

    // Vendor B's dMIMO over the identical radios.
    let sites: Vec<(Position, u8)> = rus.iter().map(|p| (*p, 1)).collect();
    let mut dm = Deployment::dmimo(CellConfig::mhz100(1, CENTER, 4), &sites, true);
    let ue = dm.add_ue(Position::new(2.0, 10.0, 0), 4);
    dm.set_demand(0, ue, 2e9, 1e6);
    let dm_rates = measure_at(&mut dm, ue, quick);

    let mut gains = Vec::new();
    for (k, x) in positions(quick).iter().enumerate() {
        let gain = if das_rates[k] > 1.0 { dm_rates[k] / das_rates[k] } else { 0.0 };
        gains.push(gain);
        r.row(vec![
            format!("{x:.0}"),
            format!("{:.0}", das_rates[k]),
            format!("{:.0}", dm_rates[k]),
            format!("{gain:.1}×"),
        ]);
    }
    let (gmin, gmax) = gains
        .iter()
        .filter(|g| **g > 0.0)
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &g| (lo.min(g), hi.max(g)));
    r.note(format!(
        "gain range {gmin:.1}×–{gmax:.1}× by location (paper: \"factor of 2 \
         or 3, depending on the location\")"
    ));
    r
}
