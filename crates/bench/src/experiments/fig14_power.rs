//! Figure 14 — energy savings: five per-floor dMIMO cells on two servers
//! (≈ 400 W, ~650 Mbps per floor) vs a single building-wide cell built
//! from chained DAS + dMIMO middleboxes on one server (≈ 180 W, shared
//! capacity, bursts still reach the full rate on an active floor).

use ranbooster::apps::das::{Das, DasConfig};
use ranbooster::apps::dmimo::{Dmimo, DmimoConfig, PhysicalRu, SsbBand};
use ranbooster::netsim::cost::CostModel;
use ranbooster::netsim::power::{Rack, ServerPowerModel};
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::du::DuConfig;
use ranbooster::scenario::{du_mac, floor_ru_positions, mb_mac, ru_mac, Deployment};

use crate::report::Report;

const CENTER: i64 = 3_460_000_000;
const FLOORS: u8 = 5;
const RUS_PER_FLOOR: u8 = 4;

/// Four devices spread over `floor`.
fn add_floor_ues(dep: &mut Deployment, floor: u8) {
    for x in [6.0, 18.0, 31.0, 45.0] {
        dep.add_ue(Position::new(x, 10.0, i32::from(floor)), 4);
    }
}

/// Config (a): one dMIMO cell per floor. Floors are radio-isolated, so
/// each floor simulates independently; returns mean per-floor DL Mbps.
fn per_floor_dmimo(quick: bool) -> f64 {
    let (a, b) = if quick { (250u64, 370u64) } else { (300, 600) };
    let mut per_floor = Vec::new();
    for floor in 0..if quick { 2 } else { FLOORS } {
        let sites: Vec<(Position, u8)> =
            floor_ru_positions(i32::from(floor)).into_iter().map(|p| (p, 1)).collect();
        let cell = CellConfig::mhz100(u16::from(floor) + 1, CENTER, 4);
        let mut dep = Deployment::dmimo(cell, &sites, true);
        add_floor_ues(&mut dep, floor);
        let rates = dep.measure_mbps(a, b);
        per_floor.push(rates.iter().map(|r| r.0).sum::<f64>());
    }
    per_floor.iter().sum::<f64>() / per_floor.len() as f64
}

/// Config (b): one cell for the whole building — DAS across floors,
/// dMIMO within each floor. Returns (per-floor DL with all UEs active,
/// single-floor burst DL).
fn chained_single_cell(quick: bool) -> (f64, f64) {
    let (a, b) = if quick { (350u64, 470u64) } else { (400, 700) };
    let cell = CellConfig::mhz100(1, CENTER, 4);
    let carrier = (cell.center_hz, cell.num_prb);
    let ssb = SsbBand { start_prb: cell.ssb.start_prb, num_prb: cell.ssb.num_prb };
    let mut dep = Deployment::new();
    dep.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));

    // DAS fans the cell out to one dMIMO middlebox per floor.
    let dmimo_macs = (1..=FLOORS).map(mb_mac).collect();
    let das =
        Das::new("das", DasConfig { mb_mac: mb_mac(0), du_mac: du_mac(0), ru_macs: dmimo_macs });
    dep.add_mb(das, mb_mac(0), CostModel::dpdk(), 1);

    for floor in 0..FLOORS {
        let host = mb_mac(floor + 1);
        let first_ru = floor * RUS_PER_FLOOR;
        let dm = Dmimo::new(
            format!("dmimo-f{floor}"),
            DmimoConfig {
                mb_mac: host,
                du_mac: mb_mac(0),
                rus: (first_ru..first_ru + RUS_PER_FLOOR)
                    .map(|k| PhysicalRu { mac: ru_mac(k), ports: 1 })
                    .collect(),
                ssb_copy: true,
                ssb: Some(ssb),
            },
        );
        dep.add_mb(dm, host, CostModel::dpdk(), 1);
        for (k, pos) in (first_ru..).zip(floor_ru_positions(i32::from(floor))) {
            dep.add_ru(k, host, carrier, 1, pos, vec![1]);
        }
    }

    // Twenty devices: four per floor, UE ids in floor order.
    for floor in 0..FLOORS {
        add_floor_ues(&mut dep, floor);
    }
    let on_floor_3 = 2 * 4..3 * 4;

    // Phase 1: everyone active.
    let all = dep.measure_mbps(a, b);
    let per_floor_all = all.iter().map(|r| r.0).sum::<f64>() / f64::from(FLOORS);

    // Phase 2: only floor 3's UEs stay active — the burst case.
    for ue in (0..all.len()).filter(|ue| !on_floor_3.contains(ue)) {
        dep.set_demand(0, ue, 0.0, 0.0);
    }
    let b2 = b + if quick { 150 } else { 250 };
    let b3 = b2 + if quick { 120 } else { 250 };
    let burst = dep.measure_mbps(b2, b3)[on_floor_3].iter().map(|r| r.0).sum();
    (per_floor_all, burst)
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "fig14",
        "power vs capacity: five dMIMO cells (two servers) vs one chained \
         DAS+dMIMO cell (one server)",
        "(a) ~650 Mbps/floor at ~400 W; (b) shared cell, ~150 Mbps/floor when \
         all UEs active, bursts to full rate, ~180 W — a 16% network-level \
         power saving",
    )
    .columns(vec!["configuration", "per-floor DL Mbps", "burst DL Mbps", "server power W"]);

    let model = ServerPowerModel::default();
    // (a): 5 cells × (4 DU cores + 1 middlebox core), split 15/10.
    let rack_a = Rack::uniform(2, model);
    let power_a = rack_a.total_watts(&[(15, 0), (10, 0)]);
    let per_floor_a = per_floor_dmimo(quick);
    r.row(vec![
        "(a) one dMIMO cell per floor".to_string(),
        format!("{per_floor_a:.0}"),
        format!("{per_floor_a:.0}"),
        format!("{power_a:.0}"),
    ]);

    // (b): one server off; 1 DU (4 cores) + 6 middleboxes (2 cores used
    // by DAS+dMIMO work in the paper's accounting) + low-freq rest.
    let mut rack_b = Rack::uniform(2, model);
    rack_b.power_off(0);
    let power_b = rack_b.total_watts(&[(0, 0), (6, 16)]);
    let (per_floor_b, burst_b) = chained_single_cell(quick);
    r.row(vec![
        "(b) single cell, DAS+dMIMO chained".to_string(),
        format!("{per_floor_b:.0}"),
        format!("{burst_b:.0}"),
        format!("{power_b:.0}"),
    ]);

    r.note(format!(
        "server-side saving {:.0} W ({:.0}%); the paper reports this as a 16% \
         reduction of *total network* power (RUs and switch unchanged)",
        power_a - power_b,
        (power_a - power_b) / power_a * 100.0
    ));
    r.note("burst: a single active floor recovers most of the cell's full rate");
    r
}
