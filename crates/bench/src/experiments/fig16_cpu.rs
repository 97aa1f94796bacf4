//! Figure 16 — CPU utilization of DPDK vs XDP middlebox implementations
//! (DAS and dMIMO, 40 MHz cell) under three cell conditions: no UE,
//! UE attached but idle, UE receiving downlink at full rate.
//!
//! DPDK poll-mode pegs its core at 100 % regardless of load; XDP's
//! interrupt-driven utilization tracks traffic, and the DAS costs more
//! than dMIMO because its uplink merge runs in userspace behind an
//! AF_XDP context switch while dMIMO's header remap stays in-kernel.

use ranbooster::apps::das::{Das, DasConfig};
use ranbooster::apps::dmimo::{Dmimo, DmimoConfig, PhysicalRu, SsbBand};
use ranbooster::core::host::MiddleboxHost;
use ranbooster::core::middlebox::Middlebox;
use ranbooster::netsim::cost::{CostModel, Datapath};
use ranbooster::netsim::time::SimTime;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::du::DuConfig;
use ranbooster::scenario::{du_mac, mb_mac, ru_mac, Deployment};

use crate::report::{pct, Report};

const CENTER: i64 = 3_430_000_000;

#[derive(Clone, Copy, PartialEq)]
enum Condition {
    Idle,
    Attached,
    Traffic,
}

impl Condition {
    fn label(self) -> &'static str {
        match self {
            Condition::Idle => "no UE",
            Condition::Attached => "UE attached, idle",
            Condition::Traffic => "UE at full DL rate",
        }
    }
}

fn cell() -> CellConfig {
    CellConfig::mhz40(1, CENTER, 4)
}

fn windows(quick: bool) -> (u64, u64) {
    if quick {
        (250, 400)
    } else {
        (300, 700)
    }
}

/// Generic run: prepare the deployment, apply the condition, return the
/// middlebox host's mean CPU utilization over the measurement window.
fn run_condition<M, F>(mut dep: Deployment, cond: Condition, quick: bool, util: F) -> f64
where
    M: Middlebox,
    F: Fn(&Deployment, SimTime) -> f64,
{
    let (a, b) = windows(quick);
    match cond {
        Condition::Idle => {}
        Condition::Attached => {
            let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
            dep.set_demand(0, ue, 0.0, 0.0); // attached, no user traffic
        }
        Condition::Traffic => {
            let _ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
            // default full-buffer demand
        }
    }
    dep.run_ms(a);
    {
        let now = SimTime(a * 1_000_000);
        let host = dep.engine.node_as_mut::<MiddleboxHost<M>>(dep.mbs[0]);
        host.ledger_mut().reset(now);
    }
    dep.run_ms(b);
    util(&dep, SimTime(b * 1_000_000))
}

/// One 40 MHz cell whose DU talks to `mb`, hosted on one core charged at
/// `datapath`'s cost model, in front of two RUs of `ports` antennas each.
fn deployment<M: Middlebox>(mb: M, datapath: Datapath, ports: u8) -> Deployment {
    let cost = match datapath {
        Datapath::Dpdk => CostModel::dpdk(),
        Datapath::Xdp => CostModel::xdp(),
    };
    let cell = cell();
    let carrier = (cell.center_hz, cell.num_prb);
    let mut dep = Deployment::new();
    dep.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
    dep.add_mb(mb, mb_mac(0), cost, 1);
    for (k, x) in [(0, 10.0), (1, 30.0)] {
        dep.add_ru(k, mb_mac(0), carrier, ports, Position::new(x, 10.0, 0), vec![1]);
    }
    dep
}

fn das_util(datapath: Datapath, cond: Condition, quick: bool) -> f64 {
    let ru_macs = vec![ru_mac(0), ru_mac(1)];
    let das = Das::new("das", DasConfig { mb_mac: mb_mac(0), du_mac: du_mac(0), ru_macs });
    run_condition::<Das, _>(deployment(das, datapath, 4), cond, quick, |dep, now| {
        dep.engine.node_as::<MiddleboxHost<Das>>(dep.mbs[0]).ledger().mean_utilization(now)
    })
}

fn dmimo_util(datapath: Datapath, cond: Condition, quick: bool) -> f64 {
    let ssb = cell().ssb;
    let dmimo = Dmimo::new(
        "dmimo",
        DmimoConfig {
            mb_mac: mb_mac(0),
            du_mac: du_mac(0),
            rus: [0, 1].map(|k| PhysicalRu { mac: ru_mac(k), ports: 2 }).to_vec(),
            ssb_copy: true,
            ssb: Some(SsbBand { start_prb: ssb.start_prb, num_prb: ssb.num_prb }),
        },
    );
    run_condition::<Dmimo, _>(deployment(dmimo, datapath, 2), cond, quick, |dep, now| {
        dep.engine.node_as::<MiddleboxHost<Dmimo>>(dep.mbs[0]).ledger().mean_utilization(now)
    })
}

/// Run the experiment.
pub fn run(quick: bool) -> Report {
    let mut r = Report::new(
        "fig16",
        "CPU utilization: DPDK vs XDP middleboxes, 40 MHz cell",
        "DPDK pegs 100% always; XDP tracks traffic, with DAS ~25-30 points \
         above dMIMO under load (userspace IQ work + context switches)",
    )
    .columns(vec!["middlebox", "cell condition", "DPDK CPU", "XDP CPU"]);

    let conditions = [Condition::Idle, Condition::Attached, Condition::Traffic];
    let mut das_traffic_xdp = 0.0;
    let mut dmimo_traffic_xdp = 0.0;
    for cond in conditions {
        let dpdk = das_util(Datapath::Dpdk, cond, quick);
        let xdp = das_util(Datapath::Xdp, cond, quick);
        if cond == Condition::Traffic {
            das_traffic_xdp = xdp;
        }
        r.row(vec!["DAS".to_string(), cond.label().into(), pct(dpdk), pct(xdp)]);
    }
    for cond in conditions {
        let dpdk = dmimo_util(Datapath::Dpdk, cond, quick);
        let xdp = dmimo_util(Datapath::Xdp, cond, quick);
        if cond == Condition::Traffic {
            dmimo_traffic_xdp = xdp;
        }
        r.row(vec!["dMIMO".to_string(), cond.label().into(), pct(dpdk), pct(xdp)]);
    }
    r.note(format!(
        "under full traffic, XDP DAS runs {:.0} points hotter than XDP dMIMO \
         (paper: ~25–30 points)",
        (das_traffic_xdp - dmimo_traffic_xdp) * 100.0
    ));
    r
}
