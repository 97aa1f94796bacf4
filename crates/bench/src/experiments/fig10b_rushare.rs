//! Figure 10b — RU sharing: per-cell DL/UL throughput of 40 MHz cells on
//! a dedicated 40 MHz RU vs two 40 MHz cells sharing one 100 MHz RU
//! through the RANBooster middlebox.

use ranbooster::fronthaul::freq;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::Deployment;

use crate::report::{mbps, Report};

const RU_CENTER: i64 = 3_460_000_000;
const RU_PRBS: u16 = 273;
const DU_PRBS: u16 = 106;
const SCS: u64 = 30_000;

fn windows(quick: bool) -> (u64, u64) {
    if quick {
        (300, 420)
    } else {
        (350, 750)
    }
}

fn du_cell(pci: u16, offset: u16) -> CellConfig {
    CellConfig::new(
        pci,
        freq::aligned_du_center_hz(RU_CENTER, RU_PRBS, DU_PRBS, offset, SCS),
        DU_PRBS,
        4,
    )
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let (a, b) = windows(quick);
    let mut r = Report::new(
        "fig10b",
        "RU sharing: dedicated 40 MHz RU vs shared 100 MHz RU",
        "each shared cell matches the dedicated baseline (~330 DL / ~25 UL Mbps)",
    )
    .columns(vec!["configuration", "cell", "DL Mbps", "UL Mbps"]);

    // Baseline: dedicated 40 MHz RU.
    let mut dep = Deployment::single_cell(
        CellConfig::mhz40(1, 3_430_000_000, 4),
        Position::new(10.0, 10.0, 0),
    );
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    let rates = dep.measure_mbps(a, b);
    r.row(vec![
        "dedicated 40 MHz RU".to_string(),
        "A".into(),
        mbps(rates[ue].0),
        mbps(rates[ue].1),
    ]);

    // Shared: two 40 MHz cells on one 100 MHz RU.
    let cells = vec![du_cell(1, 0), du_cell(2, 160)];
    let mut dep = Deployment::rushare(RU_CENTER, RU_PRBS, cells, Position::new(10.0, 10.0, 0));
    let ue_a = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    let ue_b = dep.add_ue(Position::new(8.0, 10.0, 0), 4);
    dep.force_cell(ue_a, 1);
    dep.force_cell(ue_b, 2);
    let rates = dep.measure_mbps(a, b);
    r.row(vec![
        "shared 100 MHz RU (RANBooster)".to_string(),
        "A".into(),
        mbps(rates[ue_a].0),
        mbps(rates[ue_a].1),
    ]);
    r.row(vec![
        "shared 100 MHz RU (RANBooster)".to_string(),
        "B".into(),
        mbps(rates[ue_b].0),
        mbps(rates[ue_b].1),
    ]);

    let share = dep
        .engine
        .node_as::<ranbooster::core::host::MiddleboxHost<ranbooster::apps::rushare::RuShare>>(
            dep.mbs[0],
        );
    let s = share.middlebox().stats;
    r.note(format!(
        "middlebox: {} DL muxes, {} UL demuxes, {} PRACH merges — all on the \
         aligned fast path ({} compressed block copies, {} recompressions)",
        s.dl_muxes, s.ul_demuxes, s.prach_merges, s.aligned_copies, s.misaligned_copies
    ));
    r
}
