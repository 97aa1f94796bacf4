//! Long-run stability: the on-wire frame counter is 8 bits and wraps
//! every 2.56 s at μ=1. A DAS deployment must run straight through the
//! wrap with no throughput glitch, no cache growth and no late drops.

use ranbooster::apps::das::Das;
use ranbooster::core::host::MiddleboxHost;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::scenario::Deployment;

#[test]
fn das_survives_the_frame_counter_wrap() {
    let rus = vec![Position::new(20.0, 10.0, 0), Position::new(30.0, 10.0, 0)];
    let mut dep = Deployment::das(CellConfig::mhz40(1, 3_430_000_000, 4), &rus);
    let ue = dep.add_ue(Position::new(22.0, 10.0, 0), 4);

    // Window A well before the wrap, window B straddling 2.56 s,
    // window C after it.
    let a = dep.measure_mbps(300, 800)[ue];
    let b = dep.measure_mbps(2_300, 2_800)[ue];
    let c = dep.measure_mbps(2_900, 3_400)[ue];
    for (label, (dl, ul)) in [("before", a), ("across", b), ("after", c)] {
        assert!((dl - 330.0).abs() < 40.0, "{label} wrap: dl {dl}");
        assert!((ul - 25.0).abs() < 6.0, "{label} wrap: ul {ul}");
    }

    let host = dep.engine.node_as::<MiddleboxHost<Das>>(dep.mbs[0]);
    assert_eq!(host.middlebox().stats.merge_errors, 0);
    assert_eq!(host.stats.parse_errors, 0);
    // The DU never declared uplink late across the wrap.
    assert_eq!(dep.du(0).stats.late_ul, 0);
    assert_eq!(dep.medium.lock().counters.dl_unradiated, 0);
}
