//! Property tests over the simulator invariants: event ordering, counter
//! conservation, histogram accuracy, cost-model monotonicity.

use proptest::prelude::*;
use rb_netsim::cost::{CostModel, SlotDeadline, Work, XdpPlacement};
use rb_netsim::engine::{port, Engine, Node, NodeEvent, Outbox};
use rb_netsim::stats::Histogram;
use rb_netsim::time::{SimDuration, SimTime};

/// Records (time, tag) of every timer it sees.
struct Recorder {
    seen: Vec<(u64, u64)>,
}

impl Node for Recorder {
    fn on_event(&mut self, ev: NodeEvent, out: &mut Outbox) {
        if let NodeEvent::Timer { tag } = ev {
            self.seen.push((out.now().as_nanos(), tag));
        }
    }
}

struct Sink {
    bytes: u64,
    frames: u64,
}

impl Node for Sink {
    fn on_event(&mut self, ev: NodeEvent, _out: &mut Outbox) {
        if let NodeEvent::Packet { frame, .. } = ev {
            self.bytes += frame.len() as u64;
            self.frames += 1;
        }
    }
}

/// Echoes frames out port 0 (for counter-conservation checks).
struct Echo;
impl Node for Echo {
    fn on_event(&mut self, ev: NodeEvent, out: &mut Outbox) {
        if let NodeEvent::Packet { frame, .. } = ev {
            out.send(0, frame);
        }
    }
}

/// Samples across the histogram's whole resolved range, small values as
/// likely as large ones.
fn arb_sample() -> impl Strategy<Value = u64> {
    (0u64..1 << 40, 0u32..40).prop_map(|(v, shift)| v >> shift)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn timers_fire_in_time_order(times in proptest::collection::vec(0u64..1_000_000, 1..50)) {
        let mut engine = Engine::new();
        let rec = engine.add_node(Box::new(Recorder { seen: vec![] }));
        for (k, &t) in times.iter().enumerate() {
            engine.schedule_timer(rec, SimTime(t), k as u64);
        }
        engine.run_until(SimTime(2_000_000));
        let seen = &engine.node_as::<Recorder>(rec).seen;
        prop_assert_eq!(seen.len(), times.len());
        for w in seen.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "non-decreasing delivery");
        }
        // Ties preserve insertion order.
        for w in seen.windows(2) {
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1);
            }
        }
    }

    #[test]
    fn byte_counters_are_conserved(
        sizes in proptest::collection::vec(1usize..2000, 1..30),
        latency_us in 0u64..50,
        gbps in 1u32..100,
    ) {
        let mut engine = Engine::new();
        let echo = engine.add_node(Box::new(Echo));
        let sink = engine.add_node(Box::new(Sink { bytes: 0, frames: 0 }));
        engine.connect(
            port(echo, 0),
            port(sink, 0),
            SimDuration::from_micros(latency_us),
            gbps as f64,
        );
        let total: u64 = sizes.iter().map(|s| *s as u64).sum();
        for (k, &s) in sizes.iter().enumerate() {
            engine.inject(SimTime(k as u64 * 1000), port(echo, 0), vec![0u8; s]);
        }
        engine.run_until(SimTime(1_000_000_000));
        let sink_node = engine.node_as::<Sink>(sink);
        prop_assert_eq!(sink_node.frames, sizes.len() as u64);
        prop_assert_eq!(sink_node.bytes, total);
        let c = engine.port_counters(port(echo, 0));
        prop_assert_eq!(c.tx_bytes, total);
        prop_assert_eq!(engine.port_counters(port(sink, 0)).rx_bytes, total);
        prop_assert_eq!(engine.dropped_unconnected, 0);
    }

    #[test]
    fn histogram_quantiles_bound_an_exact_sorted_reference(
        a in proptest::collection::vec(arb_sample(), 1..200),
        b in proptest::collection::vec(arb_sample(), 0..200),
        permille in proptest::collection::vec(0u32..=1000, 1..8),
    ) {
        let mut whole = Histogram::default();
        let (mut ha, mut hb) = (Histogram::default(), Histogram::default());
        for &s in &a {
            ha.record(s);
            whole.record(s);
        }
        for &s in &b {
            hb.record(s);
            whole.record(s);
        }
        ha.merge(&hb);
        prop_assert!(ha == whole, "merge is recording both populations into one");

        let mut sorted: Vec<u64> = a.iter().chain(&b).copied().collect();
        sorted.sort_unstable();
        let n = sorted.len();
        prop_assert_eq!(whole.count(), n as u64);
        prop_assert_eq!(whole.max(), sorted[n - 1]);
        prop_assert_eq!(whole.quantile_bound(1.0), whole.max());

        let mut permille = permille;
        permille.sort_unstable();
        let mut below = 0;
        for p in permille {
            let q = f64::from(p) / 1000.0;
            // The type's own rank rule: the sample of rank ⌈q·n⌉, at least 1.
            let rank = ((q * n as f64).ceil() as usize).max(1);
            let exact = sorted[rank - 1];
            let bound = whole.quantile_bound(q);
            prop_assert!(
                exact <= bound && bound <= exact + exact / 16 + 1,
                "q {} of {} samples: exact {}, bound {}", q, n, exact, bound
            );
            prop_assert!(below <= bound, "monotone in q");
            below = bound;
        }
    }

    #[test]
    fn cost_grows_with_work_size(prbs in 1usize..400, streams in 1usize..8) {
        let m = CostModel::dpdk();
        let small = m.packet_cost(Work::MergeIq { prbs, streams }, XdpPlacement::Kernel);
        let bigger = m.packet_cost(Work::MergeIq { prbs: prbs + 1, streams }, XdpPlacement::Kernel);
        let more_streams = m.packet_cost(Work::MergeIq { prbs, streams: streams + 1 }, XdpPlacement::Kernel);
        prop_assert!(bigger >= small);
        prop_assert!(more_streams >= small);
        let replicate = m.packet_cost(Work::Replicate { copies: streams }, XdpPlacement::Kernel);
        let replicate_more = m.packet_cost(Work::Replicate { copies: streams + 1 }, XdpPlacement::Kernel);
        prop_assert!(replicate_more >= replicate);
    }

    #[test]
    fn cores_needed_is_consistent_with_meets(us in 1u64..500) {
        let d = SlotDeadline::default();
        let work = SimDuration::from_micros(us);
        let n = d.cores_needed(work);
        prop_assert!(d.meets(work, n));
        if n > 1 {
            prop_assert!(!d.meets(work, n - 1));
        }
    }
}
