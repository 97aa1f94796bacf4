//! Hosting a [`Middlebox`] inside the network simulation.
//!
//! [`MiddleboxHost`] is the glue between a middlebox implementation and
//! the [`rb_netsim::engine`]: it owns the middlebox's VF-facing port and
//! drives the shared [`MbPipeline`] (parse, MAC filter, handlers,
//! management rules, sequence restamping, serialization) from simulated
//! packet events, charging the configured [`CostModel`] to a [`CpuLedger`]
//! so the same run yields both functional results and the CPU/latency
//! measurements of the paper's Figures 15–16. The identical pipeline runs
//! on real packet I/O in `rb-dataplane`.

use std::ops::{Deref, DerefMut};

use rb_fronthaul::ether::EthernetAddress;
use rb_netsim::cost::{CostModel, CpuLedger, Work, XdpPlacement};
use rb_netsim::engine::{Node, NodeEvent, Outbox};
use rb_netsim::stats::Histogram;

use crate::middlebox::Middlebox;
use crate::pipeline::{MbPipeline, ProcessOutcome};

pub use crate::pipeline::{HostStats, TrafficClass};

/// A network node wrapping a middlebox implementation.
///
/// Dereferences to the underlying [`MbPipeline`], so datapath state
/// (`stats`, `middlebox()`, `rules()`, …) reads the same whether the
/// pipeline runs under the simulator or under the dataplane runtime.
pub struct MiddleboxHost<M: Middlebox> {
    pipeline: MbPipeline<M>,
    cost: CostModel,
    ledger: CpuLedger,
    tick: Option<(rb_netsim::time::SimDuration, u64)>,
    /// Modeled per-packet processing latency in nanoseconds, one
    /// histogram per traffic class (slot [`TrafficClass::index`]).
    pub latency: [Histogram; TrafficClass::COUNT],
}

impl<M: Middlebox> MiddleboxHost<M> {
    /// Host `mb` at Ethernet address `mac`, charging `cost` to a ledger of
    /// `cores` cores.
    pub fn new(mb: M, mac: EthernetAddress, cost: CostModel, cores: usize) -> MiddleboxHost<M> {
        MiddleboxHost {
            pipeline: MbPipeline::new(mb, mac),
            ledger: CpuLedger::new(cost.datapath, cores),
            cost,
            tick: None,
            latency: Default::default(),
        }
    }

    /// Deliver a periodic tick with `tag` to the middlebox every `period`
    /// (watchdogs, cache purges). The host reschedules itself after each
    /// tick; the first is scheduled from [`Self::periodic_tick`] by whatever
    /// wires the host onto an engine (`scenario::Deployment::add_host`).
    pub fn with_tick(mut self, period: rb_netsim::time::SimDuration, tag: u64) -> Self {
        self.tick = Some((period, tag));
        self
    }

    /// The `(period, tag)` given to [`Self::with_tick`], if any.
    pub fn periodic_tick(&self) -> Option<(rb_netsim::time::SimDuration, u64)> {
        self.tick
    }

    /// The CPU ledger (utilization queries).
    pub fn ledger(&self) -> &CpuLedger {
        &self.ledger
    }

    /// Mutable ledger access (window resets).
    pub fn ledger_mut(&mut self) -> &mut CpuLedger {
        &mut self.ledger
    }

    fn process(&mut self, out: &mut Outbox, frame: Vec<u8>) {
        let now = out.now();
        // The emit slice borrows the pipeline's reused buffer; the engine
        // owns its packet events, so the simulator side copies here.
        let outcome =
            self.pipeline.process(now, &frame, &mut |bytes: &[u8]| out.send(0, bytes.to_vec()));
        if let ProcessOutcome::Handled { class } = outcome {
            // A frame that reached a handler cost at least a kernel-side
            // forward, whether or not the handler said so.
            let charges: &[(Work, XdpPlacement)] = match self.pipeline.last_charges() {
                [] => &[(Work::Forward, XdpPlacement::Kernel)],
                reported => reported,
            };
            let mut total = rb_netsim::time::SimDuration::ZERO;
            for &(work, placement) in charges {
                total = total.saturating_add(self.cost.packet_cost(work, placement));
            }
            self.ledger.charge_balanced(total);
            if let Some(h) = self.latency.get_mut(class.index()) {
                h.record(total.as_nanos());
            }
        }
    }
}

impl<M: Middlebox> Deref for MiddleboxHost<M> {
    type Target = MbPipeline<M>;

    fn deref(&self) -> &MbPipeline<M> {
        &self.pipeline
    }
}

impl<M: Middlebox> DerefMut for MiddleboxHost<M> {
    fn deref_mut(&mut self) -> &mut MbPipeline<M> {
        &mut self.pipeline
    }
}

impl<M: Middlebox> Node for MiddleboxHost<M> {
    fn on_event(&mut self, ev: NodeEvent, out: &mut Outbox) {
        match ev {
            NodeEvent::Packet { frame, .. } => self.process(out, frame),
            NodeEvent::Timer { tag } => {
                let now = out.now();
                self.pipeline.tick(now, tag, &mut |bytes: &[u8]| out.send(0, bytes.to_vec()));
                if let Some((period, tick_tag)) = self.tick {
                    if tag == tick_tag {
                        out.schedule(period, tick_tag);
                    }
                }
            }
        }
    }

    fn name(&self) -> &str {
        self.pipeline.middlebox().name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mgmt::{Match, Rule, RuleAction};
    use crate::middlebox::Passthrough;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::msg::{Body, FhMessage};
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::Direction;
    use rb_netsim::engine::{port, Engine};
    use rb_netsim::time::{SimDuration, SimTime};

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn cplane_bytes(dst: EthernetAddress, seq: u8) -> Vec<u8> {
        FhMessage::new(
            mac(1),
            dst,
            Eaxc::port(0),
            seq,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 1),
            )),
        )
        .to_bytes(&EaxcMapping::DEFAULT)
        .unwrap()
    }

    struct Sink {
        got: Vec<Vec<u8>>,
    }
    impl Node for Sink {
        fn on_event(&mut self, ev: NodeEvent, _out: &mut Outbox) {
            if let NodeEvent::Packet { frame, .. } = ev {
                self.got.push(frame);
            }
        }
    }

    fn wired_host() -> (Engine, usize, usize) {
        let mut engine = Engine::new();
        let host = MiddleboxHost::new(
            Passthrough::new("pt", mac(10), mac(20)),
            mac(10),
            CostModel::dpdk(),
            1,
        );
        let host_id = engine.add_node(Box::new(host));
        let sink = engine.add_node(Box::new(Sink { got: vec![] }));
        engine.connect(port(host_id, 0), port(sink, 0), SimDuration::ZERO, 100.0);
        (engine, host_id, sink)
    }

    #[test]
    fn parses_handles_and_reserializes() {
        let (mut engine, host_id, sink) = wired_host();
        engine.inject(SimTime::ZERO, port(host_id, 0), cplane_bytes(mac(10), 5));
        engine.run_until(SimTime(1_000_000));
        let got = &engine.node_as::<Sink>(sink).got;
        assert_eq!(got.len(), 1);
        let out = FhMessage::parse(&got[0], &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(out.eth.dst, mac(20));
        assert_eq!(out.eth.src, mac(10));
        let host = engine.node_as::<MiddleboxHost<Passthrough>>(host_id);
        assert_eq!(host.stats.rx, 1);
        assert_eq!(host.stats.tx, 1);
    }

    #[test]
    fn malformed_frames_counted_not_forwarded() {
        let (mut engine, host_id, sink) = wired_host();
        engine.inject(SimTime::ZERO, port(host_id, 0), vec![0u8; 20]);
        engine.run_until(SimTime(1_000_000));
        assert!(engine.node_as::<Sink>(sink).got.is_empty());
        let host = engine.node_as::<MiddleboxHost<Passthrough>>(host_id);
        assert_eq!(host.stats.parse_errors, 1);
        assert_eq!(host.stats.tx, 0);
    }

    #[test]
    fn sequence_numbers_are_per_stream_and_increment() {
        let (mut engine, host_id, sink) = wired_host();
        for k in 0..3 {
            engine.inject(SimTime(k), port(host_id, 0), cplane_bytes(mac(10), 99));
        }
        engine.run_until(SimTime(1_000_000));
        let got = &engine.node_as::<Sink>(sink).got;
        let seqs: Vec<u8> = got
            .iter()
            .map(|f| FhMessage::parse(f, &EaxcMapping::DEFAULT).unwrap().seq_id)
            .collect();
        assert_eq!(seqs, vec![0, 1, 2], "host restamps sequence numbers");
    }

    #[test]
    fn management_rules_apply_at_egress() {
        let (mut engine, host_id, sink) = wired_host();
        {
            let host = engine.node_as_mut::<MiddleboxHost<Passthrough>>(host_id);
            host.rules().write().push(Rule {
                matcher: Match { dst: Some(mac(20)), ..Match::any() },
                action: RuleAction::Drop,
            });
        }
        engine.inject(SimTime::ZERO, port(host_id, 0), cplane_bytes(mac(10), 0));
        engine.run_until(SimTime(1_000_000));
        assert!(engine.node_as::<Sink>(sink).got.is_empty());
        let host = engine.node_as::<MiddleboxHost<Passthrough>>(host_id);
        assert_eq!(host.stats.rule_drops, 1);
    }

    #[test]
    fn cpu_ledger_charged_per_packet() {
        let (mut engine, host_id, _sink) = wired_host();
        for k in 0..10 {
            engine.inject(SimTime(k), port(host_id, 0), cplane_bytes(mac(10), 0));
        }
        engine.run_until(SimTime(1_000_000));
        let host = engine.node_as::<MiddleboxHost<Passthrough>>(host_id);
        // Passthrough charges nothing, so the host's forward default
        // prices it: 10 packets × (io 80 + forward 90) = 1700 ns.
        assert_eq!(host.ledger().busy_time(0).as_nanos(), 1_700);
        let l = &host.latency[TrafficClass::DlCPlane.index()];
        assert_eq!((l.count(), l.max()), (10, 170));
    }

    #[test]
    fn traffic_class_of() {
        let m = FhMessage::parse(&cplane_bytes(mac(1), 0), &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(TrafficClass::of(&m), TrafficClass::DlCPlane);
    }
}
