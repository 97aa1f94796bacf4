//! Figure 15a — DAS middlebox scalability: fronthaul ingress/egress
//! traffic and CPU cores required as the number of 100 MHz RUs grows.
//!
//! Traffic is *measured* on the middlebox's port in the simulation; the
//! per-slot processing budget uses the calibrated DPDK cost model and
//! the 30 µs vRAN slot deadline of §6.4.1.

use ranbooster::netsim::cost::{CostModel, SlotDeadline, Work, XdpPlacement};
use ranbooster::netsim::engine::port;
use ranbooster::netsim::time::SimDuration;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::Deployment;

use crate::report::Report;

const CENTER: i64 = 3_460_000_000;

/// Measured (ingress, egress) Gbps of the DAS middlebox with `rus` RUs.
fn traffic(rus: usize, quick: bool) -> (f64, f64) {
    let (a, b) = if quick { (250u64, 350u64) } else { (300, 550) };
    let positions: Vec<Position> =
        (0..rus).map(|k| Position::new(10.0 + 8.0 * k as f64, 10.0, 0)).collect();
    let cell = CellConfig::mhz100(1, CENTER, 4);
    let mut dep = Deployment::das(cell, &positions);
    dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    dep.run_ms(a);
    dep.engine.reset_counters();
    dep.run_ms(b);
    let secs = (b - a) as f64 / 1e3;
    let c = dep.engine.port_counters(port(dep.mbs[0], 0));
    (c.rx_bytes as f64 * 8.0 / secs / 1e9, c.tx_bytes as f64 * 8.0 / secs / 1e9)
}

/// The §6.4.1 per-slot uplink processing budget for `rus` RUs.
fn slot_work(rus: usize) -> SimDuration {
    let m = CostModel::dpdk();
    let mut total = SimDuration::ZERO;
    // Per uplink slot: 3 cached U-plane packets per RU antenna stream and
    // one IQ merge per virtual antenna port.
    for _ in 0..3 * rus {
        total += m.packet_cost(Work::Cache, XdpPlacement::Kernel);
    }
    for _ in 0..4 {
        total += m.packet_cost(Work::MergeIq { prbs: 273, streams: rus }, XdpPlacement::Kernel);
    }
    total
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "fig15a",
        "DAS scalability: traffic and CPU cores vs number of 100 MHz RUs",
        "egress/ingress grow linearly with RUs, well under NIC capacity; one \
         core sustains up to four RUs, a second core is needed beyond that",
    )
    .columns(vec!["RUs", "ingress Gbps", "egress Gbps", "UL slot work µs", "cores needed"]);

    let deadline = SlotDeadline::default();
    let sweep: &[usize] = if quick { &[2, 4, 5] } else { &[2, 3, 4, 5, 6] };
    for &rus in sweep {
        let (ingress, egress) = traffic(rus, quick);
        let work = slot_work(rus);
        r.row(vec![
            rus.to_string(),
            format!("{ingress:.1}"),
            format!("{egress:.1}"),
            format!("{:.1}", work.as_micros_f64()),
            deadline.cores_needed(work).to_string(),
        ]);
    }
    r.note("egress grows ~linearly with RUs (downlink replication); ingress adds one uplink stream per RU");
    r.note(format!(
        "slot deadline budget {} per core; crossing it at 5 RUs forces the \
         second core, exactly as §6.4.1 describes",
        SimDuration::from_micros(30)
    ));
    r
}
