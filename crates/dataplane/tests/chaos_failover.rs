//! Failover-under-fault regression: a `Resilience` middlebox fed through
//! `ChaosIo` with a permanent outage of the primary DU must fail over to
//! the standby within its watchdog budget, keep steering uplink traffic,
//! and fail back cleanly when the operator asks.
//!
//! The dataplane runtime does not drive middlebox timers, so this test
//! pulls the frames out of the chaos-wrapped replay source and hands them
//! to `MbPipeline::replay`, which fires the watchdog tick once per
//! simulated millisecond — exactly what a hosting node's timer wheel
//! would do.

use rb_apps::resilience::{Resilience, ResilienceConfig, WATCHDOG_TICK};
use rb_core::pipeline::MbPipeline;
use rb_dataplane::chaos::{ChaosConfig, ChaosIo, Outage};
use rb_dataplane::io::{FrameIo, MemReplay, RawFrame, RxPoll};
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::pcap::PcapWriter;
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::Direction;
use rb_netsim::time::{SimDuration, SimTime};

const MS: u64 = 1_000_000;
/// The primary DU goes permanently silent at this instant.
const OUTAGE_START: u64 = 20 * MS;
/// Watchdog declares the DU dead after this much downlink silence.
const FAILURE_TIMEOUT: u64 = 3 * MS;
/// Watchdog tick period (the granularity failover detection pays).
const TICK: u64 = MS;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

fn resilience() -> Resilience {
    Resilience::new(
        "resil-chaos",
        ResilienceConfig {
            mb_mac: mac(10),
            primary_mac: mac(1),
            standby_mac: mac(2),
            ru_mac: mac(9),
            failure_timeout: SimDuration(FAILURE_TIMEOUT),
        },
    )
}

fn cplane(src: EthernetAddress, dir: Direction) -> Vec<u8> {
    FhMessage::new(
        src,
        mac(10),
        Eaxc::port(0),
        0,
        Body::CPlane(CPlaneRepr::single(
            dir,
            SymbolId::ZERO,
            CompressionMethod::BFP9,
            SectionFields::data(0, 0, 10, 14),
        )),
    )
    .to_bytes(&EaxcMapping::DEFAULT)
    .unwrap()
}

/// Everything `io` delivers until end of capture, in arrival order.
fn drain(io: &mut impl FrameIo) -> Vec<RawFrame> {
    let mut frames = Vec::new();
    while !matches!(io.rx_batch(&mut frames, 32), RxPoll::Eof) {}
    frames
}

/// 60 ms of healthy traffic: one DL frame from the primary and one UL
/// frame from the RU every millisecond.
fn capture() -> Vec<u8> {
    let mut w = PcapWriter::new(Vec::new()).unwrap();
    for ms in 1..=60u64 {
        w.write_frame(ms * MS, &cplane(mac(1), Direction::Downlink)).unwrap();
        w.write_frame(ms * MS + MS / 2, &cplane(mac(9), Direction::Uplink)).unwrap();
    }
    w.finish().unwrap()
}

#[test]
fn outage_triggers_failover_within_budget_and_failback_restores_primary() {
    let mut chaos = ChaosConfig::new(11);
    chaos.outage = Some(Outage { start_ns: OUTAGE_START, end_ns: u64::MAX, src: Some(mac(1)) });
    let mut io = ChaosIo::new(MemReplay::from_bytes(capture()).unwrap(), chaos);

    let mut pipeline = MbPipeline::new(resilience(), mac(10));
    let mapping = EaxcMapping::DEFAULT;
    // (emit time, destination) of every frame the middlebox produced.
    let mut routed: Vec<(u64, EthernetAddress)> = Vec::new();
    pipeline.replay(
        drain(&mut io).iter().map(|f| (f.at_ns, &f.bytes[..])),
        Some((TICK, WATCHDOG_TICK)),
        &mut |at, b: &[u8]| routed.push((at, FhMessage::parse(b, &mapping).unwrap().eth.dst)),
    );

    // The outage swallowed the primary's downlink but not the RU's uplink.
    let stats = io.stats();
    assert_eq!(stats.rx.outage_dropped, 41, "DL frames at 20..=60 ms are inside the window");
    assert_eq!(stats.rx.dropped, 0, "no random loss configured");

    // Failover happened, and within the watchdog budget: the last healthy
    // DL arrived just before the outage, so the standby must own the RU
    // no later than silence-start + timeout + one tick of slack.
    let failover = pipeline
        .middlebox()
        .last_failover()
        .expect("watchdog must have failed over during the outage")
        .0;
    assert!(failover >= OUTAGE_START + FAILURE_TIMEOUT - MS, "no premature failover");
    let recovery_ns = failover - OUTAGE_START;
    assert!(
        recovery_ns <= FAILURE_TIMEOUT + TICK,
        "recovery took {recovery_ns} ns, budget is {} ns",
        FAILURE_TIMEOUT + TICK
    );
    assert_eq!(pipeline.middlebox().stats.failovers, 1, "exactly one failover");

    // Uplink steering flipped at failover: primary before, standby after.
    assert!(routed.iter().any(|&(at, dst)| at < OUTAGE_START && dst == mac(1)));
    assert!(routed.iter().any(|&(at, dst)| at > failover && dst == mac(2)));
    assert!(
        routed.iter().all(|&(at, dst)| dst != mac(2) || at >= failover),
        "nothing may reach the standby before the failover instant"
    );
    // The RU kept receiving *something* after the failover (service
    // continuity is the whole point — here, its own uplink never stalled).
    let ul_after = routed.iter().filter(|&&(at, dst)| at > failover && dst == mac(2)).count();
    assert!(ul_after >= 30, "uplink kept flowing to the standby, got {ul_after}");

    // Operator fails back once the primary is repaired.
    pipeline.middlebox_mut().fail_back();
    let mut back_to: Vec<EthernetAddress> = Vec::new();
    pipeline.process(SimTime(61 * MS), &cplane(mac(9), Direction::Uplink), &mut |b: &[u8]| {
        back_to.push(FhMessage::parse(b, &mapping).unwrap().eth.dst);
    });
    assert_eq!(back_to, vec![mac(1)], "after failback the uplink steers to the primary again");
    assert_eq!(pipeline.middlebox().stats.failbacks, 1);
}

#[test]
fn no_failover_without_an_outage() {
    // Control run: same capture, same watchdog cadence, no chaos. The
    // watchdog must stay quiet for the full hour of traffic.
    let mut io = ChaosIo::new(MemReplay::from_bytes(capture()).unwrap(), ChaosConfig::new(11));
    let mut pipeline = MbPipeline::new(resilience(), mac(10));
    pipeline.replay(
        drain(&mut io).iter().map(|f| (f.at_ns, &f.bytes[..])),
        Some((TICK, WATCHDOG_TICK)),
        &mut |_, _| {},
    );
    assert_eq!(io.stats().rx.outage_dropped, 0);
    assert!(pipeline.middlebox().last_failover().is_none(), "healthy primary must keep the RU");
    assert_eq!(pipeline.middlebox().stats.failovers, 0);
}
