//! Quickstart: distribute one 5G cell over three floors with a DAS
//! middlebox, attach a UE per floor, and measure throughput.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use ranbooster::apps::das::Das;
use ranbooster::core::host::MiddleboxHost;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::Deployment;

fn main() {
    // A 100 MHz 4×4 cell in band n78 — the paper's headline config.
    let cell = CellConfig::mhz100(1, 3_460_000_000, 4);

    // One RU per floor; the DAS middlebox replicates the cell's downlink
    // to all of them and merges their uplink IQ back into one stream.
    let ru_positions: Vec<Position> =
        (0..3).map(|floor| Position::new(25.0, 10.0, floor)).collect();
    let mut dep = Deployment::das(cell, &ru_positions);

    // One UE per floor, near its RU.
    let ues: Vec<_> = (0..3).map(|floor| dep.add_ue(Position::new(27.0, 10.0, floor), 4)).collect();

    println!("running 450 ms of simulated time (attach + iperf)...");
    let rates = dep.measure_mbps(250, 450);

    println!("\n{:<8} {:>10} {:>14} {:>12}", "UE", "floor", "attach", "DL Mbps");
    for (floor, &ue) in ues.iter().enumerate() {
        let st = dep.ue_stats(ue);
        let attach = match st.attach {
            UeAttach::Attached(pci) => format!("cell {pci}"),
            other => format!("{other:?}"),
        };
        println!("{:<8} {:>10} {:>14} {:>12.0}", ue, floor, attach, rates[ue].0);
    }
    let agg_dl: f64 = rates.iter().map(|(d, _)| d).sum();
    let agg_ul: f64 = rates.iter().map(|(_, u)| u).sum();
    println!("\naggregate: {agg_dl:.0} Mbps down, {agg_ul:.0} Mbps up");
    println!("(paper baseline for the same cell on one RU: ~898 / ~70 Mbps)");

    let host = dep.engine.node_as::<MiddleboxHost<Das>>(dep.mbs[0]);
    let s = host.middlebox().stats;
    println!(
        "\nmiddlebox: {} downlink replications, {} uplink merges, {} errors",
        s.dl_replicated, s.ul_merges, s.merge_errors
    );
}
