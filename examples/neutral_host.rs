//! Neutral-host deployment (paper §6.3.2 / Figure 12): two mobile
//! operators share one set of 100 MHz radios across a floor. RU-sharing
//! and DAS middleboxes are *chained* — each MNO's DU thinks it owns a
//! private RU; each RU thinks it talks to one DU.
//!
//! ```sh
//! cargo run --release --example neutral_host
//! ```

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
const DU_PRBS: u16 = 106; // 40 MHz per MNO

fn main() {
    // Pick each MNO's center frequency so its PRBs align with the RU grid
    // (Appendix A.1.1) — the compressed fast path end to end.
    let mno_a = CellConfig::new(
        1,
        freq::aligned_du_center_hz(RU_CENTER, RU_PRBS, DU_PRBS, 0, 30_000),
        DU_PRBS,
        4,
    );
    let mno_b = CellConfig::new(
        2,
        freq::aligned_du_center_hz(RU_CENTER, RU_PRBS, DU_PRBS, 160, 30_000),
        DU_PRBS,
        4,
    );
    println!("MNO A: 40 MHz at {:.4} GHz", mno_a.center_hz as f64 / 1e9);
    println!("MNO B: 40 MHz at {:.4} GHz", mno_b.center_hz as f64 / 1e9);
    println!("shared: 4 × 100 MHz RUs at {:.4} GHz\n", RU_CENTER as f64 / 1e9);

    let rus = floor_ru_positions(0);
    let mut dep = Deployment::rushare_das_chain(RU_CENTER, RU_PRBS, vec![mno_a, mno_b], &rus);

    // Subscribers roaming the floor — SIMs pin each to its operator.
    let ues = [
        dep.add_ue(Position::new(5.0, 5.0, 0), 4),
        dep.add_ue(Position::new(45.0, 15.0, 0), 4),
        dep.add_ue(Position::new(25.0, 10.0, 0), 4),
    ];
    dep.force_cell(ues[0], 1);
    dep.force_cell(ues[1], 2);
    dep.force_cell(ues[2], 1);
    println!("running 600 ms of simulated time...\n");
    let rates = dep.measure_mbps(350, 600);

    println!("{:<6} {:>12} {:>12} {:>12}", "UE", "operator", "DL Mbps", "UL Mbps");
    for &ue in &ues {
        let st = dep.ue_stats(ue);
        let op = match st.attach {
            UeAttach::Attached(1) => "MNO A".to_string(),
            UeAttach::Attached(2) => "MNO B".to_string(),
            other => format!("{other:?}"),
        };
        println!("{:<6} {:>12} {:>12.0} {:>12.1}", ue, op, rates[ue].0, rates[ue].1);
    }

    let share = dep.engine.node_as::<MiddleboxHost<RuShare>>(dep.mbs[0]);
    let das = dep.engine.node_as::<MiddleboxHost<Das>>(dep.mbs[1]);
    println!("\nRU-sharing middlebox: {:?}", share.middlebox().stats);
    println!("DAS middlebox:        {:?}", das.middlebox().stats);
    println!(
        "\nno infrastructure changed hands: the second operator was added with\n\
         software only (new DU + middlebox reconfiguration), as in the paper."
    );
}
