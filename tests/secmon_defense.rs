//! §8.1 "Security" end to end: a cell runs behind the security-monitoring
//! middlebox while an attacker injects spoofed fronthaul frames. The
//! attacks are dropped and accounted; the legitimate cell is unaffected.

use ranbooster::apps::secmon::{SecMon, SecMonConfig, Violation};
use ranbooster::core::host::MiddleboxHost;
use ranbooster::fronthaul::bfp::CompressionMethod;
use ranbooster::fronthaul::cplane::{CPlaneRepr, SectionFields};
use ranbooster::fronthaul::eaxc::{Eaxc, EaxcMapping};
use ranbooster::fronthaul::msg::{Body, FhMessage};
use ranbooster::fronthaul::timing::SymbolId;
use ranbooster::fronthaul::Direction;
use ranbooster::netsim::cost::CostModel;
use ranbooster::netsim::engine::port;
use ranbooster::netsim::time::SimTime;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::du::DuConfig;
use ranbooster::radio::medium::UeAttach;
use ranbooster::radio::ru::Ru;
use ranbooster::scenario::{du_mac, mac, mb_mac, ru_mac, Deployment};

const CENTER: i64 = 3_460_000_000;

#[test]
fn spoofed_frames_are_dropped_and_service_is_unaffected() {
    let mut dep = Deployment::new();
    dep.add_du(DuConfig::new(CellConfig::mhz100(1, CENTER, 4), du_mac(0), mb_mac(0)));

    let sec = SecMon::new(
        "sec",
        SecMonConfig {
            mb_mac: mb_mac(0),
            du_macs: vec![du_mac(0)],
            ru_macs: vec![ru_mac(0)],
            towards_ru: ru_mac(0),
            towards_du: du_mac(0),
            carrier_prbs: 273,
        },
    );
    let mb = dep.add_mb(sec, mb_mac(0), CostModel::dpdk(), 1);

    let ru = dep.add_ru(0, mb_mac(0), (CENTER, 273), 4, Position::new(10.0, 10.0, 0), vec![1]);
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    // The phases below drive the engine and read the medium directly.
    let Deployment { mut engine, medium, .. } = dep;

    // Attack traffic, injected straight at the middlebox every 2 ms:
    // 1) a C-plane flood from an unknown source (resource exhaustion);
    // 2) an "RU"-sourced C-plane (scheduling hijack — RUs never send C-plane);
    // 3) a DU-sourced request outside the carrier (implausible schedule).
    let attacker = mac(9, 99);
    let forged_cplane = |src, start, num| -> Vec<u8> {
        FhMessage::new(
            src,
            mb_mac(0),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Uplink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, start, num, 14),
            )),
        )
        .to_bytes(&EaxcMapping::DEFAULT)
        .unwrap()
    };
    for k in 0..100u64 {
        let t = SimTime(10_000_000 + k * 2_000_000);
        engine.inject(t, port(mb, 0), forged_cplane(attacker, 0, 100));
        engine.inject(t, port(mb, 0), forged_cplane(ru_mac(0), 0, 100));
        engine.inject(t, port(mb, 0), forged_cplane(du_mac(0), 300, 200));
    }

    engine.run_until(SimTime(250_000_000));
    assert_eq!(medium.lock().ue_stats(ue).attach, UeAttach::Attached(1));
    let before = medium.lock().ue_stats(ue).dl_bits;
    engine.run_until(SimTime(450_000_000));
    let after = medium.lock().ue_stats(ue).dl_bits;
    let mbps = (after - before) as f64 / 0.2 / 1e6;
    assert!((mbps - 898.0).abs() < 90.0, "cell at full rate under attack: {mbps}");

    let host = engine.node_as::<MiddleboxHost<SecMon>>(mb);
    let stats = &host.middlebox().stats;
    assert_eq!(stats.drops[&Violation::UnknownSource], 100);
    assert_eq!(stats.drops[&Violation::DirectionSpoof], 100);
    assert_eq!(stats.drops[&Violation::ImplausibleSchedule], 100);
    assert!(stats.passed > 10_000, "legitimate traffic flows: {}", stats.passed);
    // The forged schedule never reached the RU: it would have requested
    // PRBs 300..500 on a 273-PRB carrier.
    let ru_node = engine.node_as::<Ru>(ru);
    assert_eq!(ru_node.stats.parse_errors, 0);
}
