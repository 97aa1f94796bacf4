//! End-to-end DU ↔ RU integration: no middleboxes, just the emulated
//! stack over a switch. Verifies that the substrate reproduces the
//! paper's baseline numbers before any middlebox enters the picture:
//! UEs attach via real SSB/PRACH packet flow, downlink hits the Table 2
//! anchors, uplink hits the §6.2 SISO anchor.

use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::timing::Numerology;
use rb_netsim::engine::{port, Engine};
use rb_netsim::switch::Switch;
use rb_netsim::time::{SimDuration, SimTime};
use rb_radio::cell::CellConfig;
use rb_radio::channel::Position;
use rb_radio::du::{Du, DuConfig};
use rb_radio::medium::{self, Medium, MediumParams, SharedMedium, UeAttach};
use rb_radio::ru::{Ru, RuConfig};

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

const CENTER: i64 = 3_460_000_000;

struct Testbed {
    engine: Engine,
    du: usize,
    #[allow(dead_code)]
    ru: usize,
    medium: SharedMedium,
}

/// One cell, one RU, directly wired through a 2-port switch.
fn single_cell(cell: CellConfig, ru_ports: u8) -> Testbed {
    let medium = medium::shared(Medium::new(MediumParams::default()));
    let mut engine = Engine::new();
    let du_cfg = DuConfig::new(cell.clone(), mac(1), mac(9));
    let du = engine.add_node(Box::new(Du::new(du_cfg, medium.clone())));
    let ru_cfg = RuConfig::new(
        mac(9),
        mac(1),
        cell.center_hz,
        cell.num_prb,
        ru_ports,
        Position::new(10.0, 10.0, 0),
        vec![cell.pci],
        1,
    );
    let ru = engine.add_node(Box::new(Ru::new(ru_cfg, medium.clone())));
    let sw = engine.add_node(Box::new(Switch::new("sw", 2)));
    engine.connect(port(sw, 0), port(du, 0), SimDuration::from_micros(5), 100.0);
    engine.connect(port(sw, 1), port(ru, 0), SimDuration::from_micros(5), 25.0);
    Du::start(&mut engine, du, Numerology::Mu1);
    Ru::start(&mut engine, ru, Numerology::Mu1, SimDuration::from_micros(150));
    Testbed { engine, du, ru, medium }
}

/// Run, measuring per-UE throughput between `warmup_ms` and `end_ms`.
fn measure(tb: &mut Testbed, warmup_ms: u64, end_ms: u64) -> Vec<(f64, f64)> {
    tb.engine.run_until(SimTime(warmup_ms * 1_000_000));
    let baseline: Vec<_> = {
        let m = tb.medium.lock();
        (0..m.num_ues()).map(|u| m.ue_stats(u)).collect()
    };
    tb.engine.run_until(SimTime(end_ms * 1_000_000));
    let secs = (end_ms - warmup_ms) as f64 / 1e3;
    let m = tb.medium.lock();
    (0..m.num_ues())
        .map(|u| {
            let s = m.ue_stats(u);
            (
                (s.dl_bits - baseline[u].dl_bits) as f64 / secs / 1e6,
                (s.ul_bits - baseline[u].ul_bits) as f64 / secs / 1e6,
            )
        })
        .collect()
}

#[test]
fn ue_attaches_via_packet_flow() {
    let mut tb = single_cell(CellConfig::mhz100(1, CENTER, 4), 4);
    let ue = tb.medium.lock().add_ue(Position::new(12.0, 10.0, 0), 4);
    tb.engine.run_until(SimTime(80_000_000));
    let st = tb.medium.lock().ue_stats(ue);
    assert_eq!(st.attach, UeAttach::Attached(1), "attach via SSB+PRACH packets");
    let du = tb.engine.node_as::<Du>(tb.du);
    assert_eq!(du.stats.prach_detections, 1);
}

#[test]
fn far_floor_ue_stays_idle() {
    let mut tb = single_cell(CellConfig::mhz100(1, CENTER, 4), 4);
    let ue = tb.medium.lock().add_ue(Position::new(10.0, 10.0, 1), 4);
    tb.engine.run_until(SimTime(80_000_000));
    assert_eq!(tb.medium.lock().ue_stats(ue).attach, UeAttach::Idle);
}

#[test]
fn downlink_hits_table2_four_layer_anchor() {
    let mut tb = single_cell(CellConfig::mhz100(1, CENTER, 4), 4);
    let _ue = tb.medium.lock().add_ue(Position::new(12.0, 10.0, 0), 4);
    let rates = measure(&mut tb, 150, 400);
    let (dl, ul) = rates[0];
    // Paper Table 2: 898.2 Mbps DL; §6.2.2: ~70 Mbps UL (SISO).
    assert!((dl - 898.0).abs() < 60.0, "dl {dl} Mbps");
    assert!((ul - 70.0).abs() < 10.0, "ul {ul} Mbps");
    let m = tb.medium.lock();
    assert_eq!(m.ue_stats(0).rank, 4);
    assert_eq!(m.counters.dl_unradiated, 0, "direct wiring loses nothing");
}

#[test]
fn downlink_hits_table2_two_layer_anchor() {
    // Single RU with 2 antennas: rank 2, ≈ 653 Mbps.
    let mut cell = CellConfig::mhz100(1, CENTER, 4);
    cell.layers = 2;
    let mut tb = single_cell(cell, 2);
    let _ue = tb.medium.lock().add_ue(Position::new(12.0, 10.0, 0), 4);
    let rates = measure(&mut tb, 150, 400);
    let (dl, _) = rates[0];
    assert!((dl - 653.0).abs() < 45.0, "dl {dl} Mbps");
    assert_eq!(tb.medium.lock().ue_stats(0).rank, 2);
}

#[test]
fn forty_mhz_cell_hits_figure_10b_baseline() {
    let mut tb = single_cell(CellConfig::mhz40(1, 3_430_000_000, 4), 4);
    let _ue = tb.medium.lock().add_ue(Position::new(12.0, 10.0, 0), 4);
    let rates = measure(&mut tb, 150, 400);
    let (dl, ul) = rates[0];
    // Paper Fig 10b: ≈ 330 / 25 Mbps.
    assert!((dl - 330.0).abs() < 40.0, "dl {dl} Mbps");
    assert!((ul - 25.0).abs() < 6.0, "ul {ul} Mbps");
}

#[test]
fn two_ues_share_the_cell() {
    let mut tb = single_cell(CellConfig::mhz100(1, CENTER, 4), 4);
    {
        let mut m = tb.medium.lock();
        m.add_ue(Position::new(12.0, 10.0, 0), 4);
        m.add_ue(Position::new(8.0, 10.0, 0), 4);
    }
    let rates = measure(&mut tb, 200, 450);
    let total_dl: f64 = rates.iter().map(|(d, _)| d).sum();
    assert!((total_dl - 898.0).abs() < 80.0, "aggregate dl {total_dl} Mbps");
    // Roughly fair split.
    assert!(rates[0].0 > 300.0 && rates[1].0 > 300.0, "{rates:?}");
}

#[test]
fn offered_load_below_capacity_is_delivered_exactly() {
    let mut tb = single_cell(CellConfig::mhz100(1, CENTER, 4), 4);
    let ue = tb.medium.lock().add_ue(Position::new(12.0, 10.0, 0), 4);
    // 100 Mbps DL, 10 Mbps UL offered.
    tb.engine.node_as_mut::<Du>(tb.du).set_demand(ue, 100e6, 10e6);
    let rates = measure(&mut tb, 150, 400);
    let (dl, ul) = rates[0];
    assert!((dl - 100.0).abs() < 12.0, "dl {dl} Mbps");
    assert!((ul - 10.0).abs() < 3.0, "ul {ul} Mbps");
}
