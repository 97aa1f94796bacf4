//! §8.1 "RAN resilience" end to end: a primary DU dies mid-run; the
//! resilience middlebox detects the silence from inter-packet gaps and
//! fails the RU over to a hot-standby DU. The UE loses its cell, re-
//! attaches to the standby's, and service resumes — all without touching
//! the RU.

use ranbooster::apps::resilience::{ActiveDu, Resilience, ResilienceConfig, WATCHDOG_TICK};
use ranbooster::core::host::MiddleboxHost;
use ranbooster::netsim::cost::CostModel;
use ranbooster::netsim::time::{SimDuration, SimTime};
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::du::{Du, DuConfig};
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::{du_mac, mb_mac, ru_mac, Deployment};

const CENTER: i64 = 3_460_000_000;

#[test]
fn standby_du_takes_over_after_primary_failure() {
    let mut dep = Deployment::new();

    // Primary cell 1 and standby cell 2 share the spectrum; the RU serves
    // whichever the middlebox lets through.
    let primary = dep.add_du(DuConfig::new(CellConfig::mhz100(1, CENTER, 4), du_mac(0), mb_mac(0)));
    // The standby cell shares the carrier but places its SSB at a
    // different GSCN (PRB offset) so UEs can tell the two cells apart.
    let mut standby_cell = CellConfig::mhz100(2, CENTER, 4);
    standby_cell.ssb.start_prb += 40;
    dep.add_du(DuConfig::new(standby_cell, du_mac(1), mb_mac(0)));

    let resil = Resilience::new(
        "resil",
        ResilienceConfig {
            mb_mac: mb_mac(0),
            primary_mac: du_mac(0),
            standby_mac: du_mac(1),
            ru_mac: ru_mac(0),
            // Must exceed an *idle* cell's inter-packet gap (PRACH every
            // 10 ms); a loaded DU emits every slot, so detection is
            // still fast.
            failure_timeout: SimDuration::from_millis(15),
        },
    );
    let host = MiddleboxHost::new(resil, mb_mac(0), CostModel::dpdk(), 1)
        .with_tick(SimDuration::from_millis(1), WATCHDOG_TICK);
    let mb = dep.add_host(host);

    dep.add_ru(0, mb_mac(0), (CENTER, 273), 4, Position::new(10.0, 10.0, 0), vec![1, 2]);
    let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
    // The phases below drive the engine and read the medium directly.
    let Deployment { mut engine, medium, .. } = dep;

    // Healthy phase: UE attaches to the primary's cell and gets traffic.
    engine.run_until(SimTime(250_000_000));
    assert_eq!(medium.lock().ue_stats(ue).attach, UeAttach::Attached(1));
    let bits_at_250 = medium.lock().ue_stats(ue).dl_bits;
    assert!(bits_at_250 > 0);

    // The primary crashes at t = 250 ms.
    engine.node_as_mut::<Du>(primary).halt();
    engine.run_until(SimTime(300_000_000));
    // Watchdog noticed within a few ms.
    {
        let host = engine.node_as::<MiddleboxHost<Resilience>>(mb);
        assert_eq!(host.middlebox().active(), ActiveDu::Standby);
        assert_eq!(host.middlebox().stats.failovers, 1);
    }

    // The UE drops the dead cell and re-attaches to the standby's.
    engine.run_until(SimTime(600_000_000));
    let st = medium.lock().ue_stats(ue);
    assert_eq!(st.attach, UeAttach::Attached(2), "re-attached to the standby cell");
    assert_eq!(st.detaches, 1, "one radio link failure");

    // Service resumed: fresh downlink bits flow at full rate again.
    let before = medium.lock().ue_stats(ue).dl_bits;
    engine.run_until(SimTime(800_000_000));
    let after = medium.lock().ue_stats(ue).dl_bits;
    let mbps = (after - before) as f64 / 0.2 / 1e6;
    assert!((mbps - 898.0).abs() < 90.0, "restored throughput {mbps}");
}
