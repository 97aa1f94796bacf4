//! §6.3.2 / Figure 12 — chaining RU sharing and DAS.
//!
//! Two MNOs' 40 MHz DUs share four 100 MHz RUs spread across a floor:
//! DU traffic flows through the RU-sharing middlebox (spectrum mux),
//! then the DAS middlebox (spatial replication/merge), then the radios.
//! Each MNO's UE gets seamless ~330 Mbps-class coverage anywhere on the
//! floor — "software updates only", no infrastructure change.

use ranbooster::apps::das::Das;
use ranbooster::apps::rushare::RuShare;
use ranbooster::core::host::MiddleboxHost;
use ranbooster::fronthaul::freq;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::{floor_ru_positions, Deployment};

const RU_CENTER: i64 = 3_460_000_000;
const RU_PRBS: u16 = 273;
const DU_PRBS: u16 = 106;
const SCS: u64 = 30_000;

fn du_cell(pci: u16, prb_offset: u16) -> CellConfig {
    let center = freq::aligned_du_center_hz(RU_CENTER, RU_PRBS, DU_PRBS, prb_offset, SCS);
    CellConfig::new(pci, center, DU_PRBS, 4)
}

#[test]
fn figure12_two_mnos_with_seamless_floor_coverage() {
    let cells = vec![du_cell(1, 0), du_cell(2, 160)];
    let rus = floor_ru_positions(0);
    let mut dep = Deployment::rushare_das_chain(RU_CENTER, RU_PRBS, cells, &rus);
    // One UE per MNO at opposite ends of the floor.
    let ue_a = dep.add_ue(Position::new(6.0, 10.0, 0), 4);
    let ue_b = dep.add_ue(Position::new(45.0, 10.0, 0), 4);
    dep.force_cell(ue_a, 1);
    dep.force_cell(ue_b, 2);
    let rates = dep.measure_mbps(350, 600);
    let st_a = dep.ue_stats(ue_a);
    let st_b = dep.ue_stats(ue_b);
    assert!(matches!(st_a.attach, UeAttach::Attached(_)), "{:?}", st_a.attach);
    assert!(matches!(st_b.attach, UeAttach::Attached(_)), "{:?}", st_b.attach);

    // "Each UE can achieve ~350 Mbps across the floor."
    assert_eq!(st_a.attach, UeAttach::Attached(1));
    assert_eq!(st_b.attach, UeAttach::Attached(2));
    assert!(rates[ue_a].0 > 260.0, "MNO A dl {}", rates[ue_a].0);
    assert!(rates[ue_b].0 > 260.0, "MNO B dl {}", rates[ue_b].0);

    // Both middleboxes actually processed the chain.
    let share = dep.engine.node_as::<MiddleboxHost<RuShare>>(dep.mbs[0]);
    assert!(share.middlebox().stats.dl_muxes > 500, "{:?}", share.middlebox().stats);
    assert!(share.middlebox().stats.ul_demuxes > 50);
    let das = dep.engine.node_as::<MiddleboxHost<Das>>(dep.mbs[1]);
    assert!(das.middlebox().stats.dl_replicated > 500, "{:?}", das.middlebox().stats);
    assert!(das.middlebox().stats.ul_merges > 50);
    assert_eq!(das.middlebox().stats.merge_errors, 0);
}
