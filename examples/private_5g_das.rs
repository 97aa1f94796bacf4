//! The paper's §7 case study: a private 5G network covering a
//! multi-floor building with one DAS cell per floor and frequency reuse —
//! the Microsoft Research Cambridge deployment (four floors, four RUs per
//! floor, sixteen RUs, four cells).
//!
//! ```sh
//! cargo run --release --example private_5g_das
//! ```

use ranbooster::apps::das::{Das, DasConfig};
use ranbooster::netsim::cost::CostModel;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::du::DuConfig;
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::{du_mac, floor_ru_positions, mb_mac, ru_mac, Deployment};

const FLOORS: u8 = 4;
const RUS_PER_FLOOR: u8 = 4;

fn main() {
    // One DAS cell per floor, all on one fronthaul switch.
    let mut dep = Deployment::new();
    for floor in 0..FLOORS {
        // Frequency reuse across floors: same spectrum everywhere —
        // inter-floor isolation comes from the concrete.
        let pci = u16::from(floor) + 1;
        let cell = CellConfig::mhz100(pci, 3_460_000_000, 4);
        let carrier = (cell.center_hz, cell.num_prb);
        dep.add_du(DuConfig::new(cell, du_mac(floor), mb_mac(floor)));

        let first_ru = floor * RUS_PER_FLOOR;
        let das = Das::new(
            format!("das-floor{floor}"),
            DasConfig {
                mb_mac: mb_mac(floor),
                du_mac: du_mac(floor),
                ru_macs: (first_ru..first_ru + RUS_PER_FLOOR).map(ru_mac).collect(),
            },
        );
        dep.add_mb(das, mb_mac(floor), CostModel::dpdk(), 1);
        for (k, pos) in (first_ru..).zip(floor_ru_positions(i32::from(floor))) {
            dep.add_ru(k, mb_mac(floor), carrier, 4, pos, vec![pci]);
        }
    }

    // Researchers' devices: one UE per floor corner + one mid-floor.
    let mut ues = Vec::new();
    for floor in 0..i32::from(FLOORS) {
        for (x, y) in [(3.0, 3.0), (48.0, 18.0), (25.0, 10.0)] {
            ues.push((floor, dep.add_ue(Position::new(x, y, floor), 4)));
        }
    }

    println!("private 5G: {FLOORS} floors × {RUS_PER_FLOOR} RUs, one DAS cell per floor");
    println!("running 500 ms of simulated time...\n");
    let rates = dep.measure_mbps(250, 500);

    println!("{:<6} {:<18} {:>10} {:>12}", "floor", "position", "attach", "DL Mbps");
    let m = dep.medium.lock();
    for &(floor, ue) in &ues {
        let pos = m.ue_position(ue);
        let attach = match m.ue_stats(ue).attach {
            UeAttach::Attached(pci) => format!("cell {pci}"),
            other => format!("{other:?}"),
        };
        let dl = rates[ue].0;
        println!("{:<6} ({:>4.0},{:>4.0})        {:>10} {:>12.0}", floor, pos.x, pos.y, attach, dl);
    }
    let attached =
        ues.iter().filter(|&&(_, u)| matches!(m.ue_stats(u).attach, UeAttach::Attached(_))).count();
    println!(
        "\n{attached}/{} devices attached — full-building coverage, no cell planning",
        ues.len()
    );
}
