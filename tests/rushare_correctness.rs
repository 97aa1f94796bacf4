//! §6.2.3 / Figure 10b — RU sharing correctness.
//!
//! Baseline: a 40 MHz cell on a dedicated 40 MHz RU (≈ 330 / 25 Mbps).
//! Shared: two 40 MHz cells multiplexed onto one 100 MHz RU through the
//! RU-sharing middlebox — each cell's UE must see the same throughput as
//! the dedicated baseline, and attach via the PRACH translation path
//! (Algorithm 3).

use ranbooster::apps::rushare::RuShare;
use ranbooster::core::host::MiddleboxHost;
use ranbooster::fronthaul::freq;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::Deployment;

const RU_CENTER: i64 = 3_460_000_000;
const RU_PRBS: u16 = 273;
const DU_PRBS: u16 = 106;
const SCS: u64 = 30_000;

fn du_cell(pci: u16, prb_offset: u16) -> CellConfig {
    let center = freq::aligned_du_center_hz(RU_CENTER, RU_PRBS, DU_PRBS, prb_offset, SCS);
    CellConfig::new(pci, center, DU_PRBS, 4)
}

#[test]
fn baseline_dedicated_40mhz() {
    let cell = CellConfig::mhz40(1, 3_430_000_000, 4);
    let mut dep = Deployment::single_cell(cell, Position::new(10.0, 10.0, 0));
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    let rates = dep.measure_mbps(200, 400);
    assert!((rates[ue].0 - 330.0).abs() < 40.0, "dl {}", rates[ue].0);
    assert!((rates[ue].1 - 25.0).abs() < 6.0, "ul {}", rates[ue].1);
}

#[test]
fn two_cells_sharing_one_ru_match_dedicated() {
    // Two 40 MHz DUs at aligned offsets 0 and 160 inside the 100 MHz RU.
    let cells = vec![du_cell(1, 0), du_cell(2, 160)];
    let mut dep = Deployment::rushare(RU_CENTER, RU_PRBS, cells, Position::new(10.0, 10.0, 0));
    // One UE per MNO — "we force the association of one UE to each cell
    // based on the physical cell id" (§6.2.3).
    let ue_a = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    let ue_b = dep.add_ue(Position::new(8.0, 10.0, 0), 4);
    dep.force_cell(ue_a, 1);
    dep.force_cell(ue_b, 2);
    let rates = dep.measure_mbps(300, 550);
    let st_a = dep.ue_stats(ue_a);
    let st_b = dep.ue_stats(ue_b);
    assert!(
        matches!(st_a.attach, UeAttach::Attached(_)),
        "UE A attached via translated PRACH: {:?}",
        st_a.attach
    );
    assert!(matches!(st_b.attach, UeAttach::Attached(_)), "{:?}", st_b.attach);
    // Each UE gets dedicated-40MHz-like service (Figure 10b): when both
    // camp on the same cell they share it instead, so check the total.
    let total_dl = rates[ue_a].0 + rates[ue_b].0;
    let total_ul = rates[ue_a].1 + rates[ue_b].1;
    assert_eq!(st_a.attach, UeAttach::Attached(1));
    assert_eq!(st_b.attach, UeAttach::Attached(2));
    // Figure 10b: each cell matches the dedicated-RU baseline.
    assert!((rates[ue_a].0 - 330.0).abs() < 45.0, "dl A {}", rates[ue_a].0);
    assert!((rates[ue_b].0 - 330.0).abs() < 45.0, "dl B {}", rates[ue_b].0);
    assert!((total_ul - 50.0).abs() < 10.0, "ul total {total_ul}");
    let _ = total_dl;

    let host = dep.engine.node_as::<MiddleboxHost<RuShare>>(dep.mbs[0]);
    let stats = host.middlebox().stats;
    assert!(stats.dl_muxes > 1000, "downlink multiplexed: {stats:?}");
    assert!(stats.ul_demuxes > 100, "uplink demultiplexed");
    assert!(stats.prach_merges > 0 && stats.prach_demuxes > 0, "Algorithm 3 ran");
    assert!(stats.cplane_maximized > 0 && stats.cplane_absorbed > 0, "Algorithm 2 ran");
    assert!(stats.aligned_copies > 0, "aligned fast path used");
    assert_eq!(stats.misaligned_copies, 0, "aligned deployment never recompresses");
}

#[test]
fn misaligned_sharing_still_works_via_recompression() {
    // Shift DU B by half a PRB: the middlebox must take the
    // decompress/shift/recompress path (Figure 6 right) and the cell
    // still serves traffic.
    let mut cell_b = du_cell(2, 120);
    cell_b.center_hz += 6 * SCS as i64;
    let cells = vec![du_cell(1, 0), cell_b];
    let mut dep = Deployment::rushare(RU_CENTER, RU_PRBS, cells, Position::new(10.0, 10.0, 0));
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    dep.force_cell(ue, 2); // the misaligned cell
    let rates = dep.measure_mbps(300, 500);
    let st = dep.ue_stats(ue);
    assert_eq!(st.attach, UeAttach::Attached(2), "{:?}", st.attach);
    assert!(rates[ue].0 > 200.0, "traffic flows through the misaligned path: {}", rates[ue].0);
    let host = dep.engine.node_as::<MiddleboxHost<RuShare>>(dep.mbs[0]);
    let stats = host.middlebox().stats;
    assert!(stats.misaligned_copies > 0, "{stats:?}");
}

#[test]
fn three_dus_share_one_wide_ru() {
    // Beyond the paper's two-operator demo: three 25 MHz-class cells
    // (65 PRBs each) on one 100 MHz RU, each at dedicated-like service.
    let mk = |pci: u16, offset: u16| {
        let center = freq::aligned_du_center_hz(RU_CENTER, RU_PRBS, 65, offset, SCS);
        CellConfig::new(pci, center, 65, 4)
    };
    let cells = vec![mk(1, 0), mk(2, 100), mk(3, 200)];
    let mut dep = Deployment::rushare(RU_CENTER, RU_PRBS, cells, Position::new(10.0, 10.0, 0));
    let ues: Vec<_> = (0..3)
        .map(|k| {
            let ue = dep.add_ue(Position::new(9.0 + k as f64, 10.0, 0), 4);
            dep.force_cell(ue, k as u16 + 1);
            ue
        })
        .collect();
    let rates = dep.measure_mbps(350, 600);
    for (k, &ue) in ues.iter().enumerate() {
        let st = dep.ue_stats(ue);
        assert_eq!(st.attach, UeAttach::Attached(k as u16 + 1), "{st:?}");
        // 65-PRB 4-layer cell ≈ 210 Mbps (the Figure 11 O1 class).
        assert!((rates[ue].0 - 210.0).abs() < 35.0, "cell {k}: {}", rates[ue].0);
    }
    let host = dep.engine.node_as::<MiddleboxHost<RuShare>>(dep.mbs[0]);
    let stats = host.middlebox().stats;
    assert!(stats.cplane_absorbed > stats.cplane_maximized, "N−1 of N requests absorbed");
    assert_eq!(stats.misaligned_copies, 0);
}
