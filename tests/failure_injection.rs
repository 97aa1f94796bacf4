//! Failure injection: what happens when the fronthaul misbehaves.
//!
//! The medium only credits throughput for spectrum that actually radiated,
//! so injected faults must surface as measurable degradation — these tests
//! pin down that the emulation (and the middleboxes) fail loudly, not
//! silently.

use ranbooster::apps::das::Das;
use ranbooster::core::host::MiddleboxHost;
use ranbooster::core::mgmt::{Match, PlaneMatch, Rule, RuleAction};
use ranbooster::fronthaul::Direction;
use ranbooster::radio::cell::CellConfig;
use ranbooster::radio::channel::Position;
use ranbooster::radio::medium::UeAttach;
use ranbooster::scenario::{ru_mac, Deployment};

const CENTER: i64 = 3_460_000_000;

fn das_deployment() -> (Deployment, usize) {
    let rus: Vec<Position> = (0..3).map(|f| Position::new(25.0, 10.0, f)).collect();
    let mut dep = Deployment::das(CellConfig::mhz100(1, CENTER, 4), &rus);
    let ue = dep.add_ue(Position::new(27.0, 10.0, 1), 4);
    (dep, ue)
}

#[test]
fn dropping_uplink_stalls_merges_but_not_downlink() {
    let (mut dep, ue) = das_deployment();
    // Healthy warm-up.
    dep.run_ms(250);
    assert_eq!(dep.ue_stats(ue).attach, UeAttach::Attached(1));
    let healthy = dep.measure_mbps(300, 450);
    assert!(healthy[ue].1 > 50.0, "healthy uplink {}", healthy[ue].1);

    // Management plane injects a rule: drop everything the middlebox
    // would send to the DU (the merged uplink).
    {
        let host = dep.engine.node_as_mut::<MiddleboxHost<Das>>(dep.mbs[0]);
        host.rules().write().push(Rule {
            matcher: Match {
                direction: Some(Direction::Uplink),
                plane: Some(PlaneMatch::U),
                ..Match::any()
            },
            action: RuleAction::Drop,
        });
    }
    let faulty = dep.measure_mbps(500, 650);
    assert!(faulty[ue].1 < 1.0, "uplink dead under fault: {}", faulty[ue].1);
    assert!(faulty[ue].0 > 700.0, "downlink unaffected: {}", faulty[ue].0);
    let host = dep.engine.node_as::<MiddleboxHost<Das>>(dep.mbs[0]);
    assert!(host.stats.rule_drops > 100, "drops accounted: {}", host.stats.rule_drops);
}

#[test]
fn dropping_one_ru_uplink_starves_the_das_merge() {
    // Silence RU 2 (another floor than the UE): the DAS merge condition
    // (all RUs present) can never complete again, and the merge window
    // degrades instead of stalling (DESIGN §3.8) — every symbol is merged
    // from the two RUs that did report and counted as partial, so the
    // cell's uplink keeps flowing. Wait-forever is
    // `das::tests::zero_window_restores_wait_forever`.
    let (mut dep, ue) = das_deployment();
    dep.run_ms(250);
    assert_eq!(dep.ue_stats(ue).attach, UeAttach::Attached(1));
    let das_stats =
        |dep: &Deployment| dep.engine.node_as::<MiddleboxHost<Das>>(dep.mbs[0]).middlebox().stats;
    let healthy = das_stats(&dep);
    assert!(healthy.ul_merges > healthy.ul_partial_merges, "full merges while healthy");
    {
        let host = dep.engine.node_as_mut::<MiddleboxHost<Das>>(dep.mbs[0]);
        host.rules().write().push(Rule {
            matcher: Match { dst: Some(ru_mac(2)), ..Match::any() },
            action: RuleAction::Drop,
        });
    }
    // Let what RU 2 was already scheduled to send drain before measuring.
    dep.run_ms(300);
    let settled = das_stats(&dep);
    let faulty = dep.measure_mbps(450, 600);
    let degraded = das_stats(&dep);
    assert!(faulty[ue].1 > 10.0, "uplink survives on the two live RUs: ul {}", faulty[ue].1);
    assert!(degraded.ul_partial_merges > settled.ul_partial_merges + 100, "{degraded:?}");
    assert_eq!(
        degraded.ul_merges - degraded.ul_partial_merges,
        settled.ul_merges - settled.ul_partial_merges,
        "no full three-RU merge while the rule is installed"
    );
}

#[test]
fn steering_fault_redirects_downlink_into_the_void() {
    // Rewrite the DL destination to a nonexistent MAC: frames flood the
    // switch, every VF filter rejects them, throughput collapses, and the
    // medium's unradiated counter exposes the loss.
    let (mut dep, ue) = das_deployment();
    dep.run_ms(250);
    {
        let host = dep.engine.node_as_mut::<MiddleboxHost<Das>>(dep.mbs[0]);
        host.rules().write().push(Rule {
            matcher: Match {
                direction: Some(Direction::Downlink),
                plane: Some(PlaneMatch::U),
                ..Match::any()
            },
            action: RuleAction::SetDst(ranbooster::scenario::mac(9, 9)),
        });
    }
    let faulty = dep.measure_mbps(450, 600);
    assert!(faulty[ue].0 < 1.0, "downlink dead: {}", faulty[ue].0);
    assert!(dep.medium.lock().counters.dl_unradiated > 100, "loss is visible");
}

#[test]
fn recovery_after_rule_removal() {
    // Fault, then clear the rule table: service must come back without
    // restarting anything (the on-the-fly reconfiguration story).
    let (mut dep, ue) = das_deployment();
    dep.run_ms(250);
    let rules = {
        let host = dep.engine.node_as_mut::<MiddleboxHost<Das>>(dep.mbs[0]);
        host.rules()
    };
    rules.write().push(Rule { matcher: Match::any(), action: RuleAction::Drop });
    let faulty = dep.measure_mbps(400, 500);
    assert!(faulty[ue].0 < 1.0);
    rules.write().replace(vec![]);
    let recovered = dep.measure_mbps(700, 850);
    assert!(recovered[ue].0 > 700.0, "service restored: {}", recovered[ue].0);
    assert!(recovered[ue].1 > 50.0, "uplink restored: {}", recovered[ue].1);
}
