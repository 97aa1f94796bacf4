//! §6.2.1 / Figure 10a — DAS correctness.
//!
//! Baseline: a single 100 MHz 4×4 cell on one ground-floor RU; UEs near
//! it get full throughput, UEs on upper floors cannot attach at all.
//! With the DAS middlebox replicating the cell over one RU per floor,
//! every UE attaches and the aggregate throughput matches the baseline in
//! both directions — the middlebox expands coverage without costing
//! performance.

use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::Deployment;

const CENTER: i64 = 3_460_000_000;

fn cell() -> CellConfig {
    CellConfig::mhz100(1, CENTER, 4)
}

#[test]
fn baseline_single_ru_cell() {
    let mut dep = Deployment::single_cell(cell(), Position::new(25.0, 10.0, 0));
    let near_a = dep.add_ue(Position::new(22.0, 10.0, 0), 4);
    let near_b = dep.add_ue(Position::new(28.0, 10.0, 0), 4);
    let upstairs = dep.add_ue(Position::new(25.0, 10.0, 3), 4);
    let rates = dep.measure_mbps(200, 400);
    // Two attached UEs share the Table 2 aggregate.
    let agg_dl: f64 = rates[near_a].0 + rates[near_b].0;
    let agg_ul: f64 = rates[near_a].1 + rates[near_b].1;
    assert!((agg_dl - 898.0).abs() < 80.0, "aggregate dl {agg_dl}");
    assert!((agg_ul - 70.0).abs() < 12.0, "aggregate ul {agg_ul}");
    // "We try to attach other UEs located on the upper floors … they are
    // unable to do so, due to weak signal."
    assert_eq!(dep.ue_stats(upstairs).attach, UeAttach::Idle);
}

#[test]
fn das_extends_coverage_across_five_floors() {
    // One RU per floor, one UE per floor near its RU.
    let ru_positions: Vec<Position> = (0..5).map(|f| Position::new(25.0, 10.0, f)).collect();
    let mut dep = Deployment::das(cell(), &ru_positions);
    let ues: Vec<_> = (0..5).map(|f| dep.add_ue(Position::new(27.0, 10.0, f), 4)).collect();
    let rates = dep.measure_mbps(250, 450);
    // All five UEs attach through the replicated SSB + merged PRACH path.
    for &ue in &ues {
        assert_eq!(
            dep.ue_stats(ue).attach,
            UeAttach::Attached(1),
            "UE on floor {ue} attaches through the DAS"
        );
    }
    // Simultaneous iperf: aggregate equals the single-cell baseline.
    let agg_dl: f64 = rates.iter().map(|(d, _)| d).sum();
    let agg_ul: f64 = rates.iter().map(|(_, u)| u).sum();
    assert!((agg_dl - 898.0).abs() < 90.0, "aggregate dl {agg_dl}");
    assert!((agg_ul - 70.0).abs() < 12.0, "aggregate ul {agg_ul}");
    // The middlebox performed uplink merges and no unknown drops.
    let host = dep
        .engine
        .node_as::<ranbooster::core::host::MiddleboxHost<ranbooster::apps::das::Das>>(dep.mbs[0]);
    assert!(host.middlebox().stats.ul_merges > 1000);
    assert_eq!(host.middlebox().stats.merge_errors, 0);
    assert_eq!(host.stats.parse_errors, 0);
}

#[test]
fn das_individual_ue_gets_full_cell() {
    // One active UE per measurement (the paper's second test type): a
    // single UE on the top floor gets the whole cell's capacity.
    let ru_positions: Vec<Position> = (0..3).map(|f| Position::new(25.0, 10.0, f)).collect();
    let mut dep = Deployment::das(cell(), &ru_positions);
    let top = dep.add_ue(Position::new(27.0, 10.0, 2), 4);
    let rates = dep.measure_mbps(250, 450);
    assert!((rates[top].0 - 898.0).abs() < 80.0, "dl {}", rates[top].0);
    assert!((rates[top].1 - 70.0).abs() < 12.0, "ul {}", rates[top].1);
    // No medium-level losses: everything radiated reached the UE.
    assert_eq!(dep.medium.lock().counters.dl_unradiated, 0);
}
