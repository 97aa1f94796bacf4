//! Middlebox chaining over SR-IOV virtual functions (paper Figure 8).
//!
//! Several middleboxes share one physical NIC port: each gets a VF of the
//! NIC, and the NIC's embedded switch steers frames between the wire and
//! the VFs by MAC address. A chain `DU → mb1 → mb2 → RU` is expressed
//! purely through addressing — the DU targets mb1's MAC, mb1 emits towards
//! mb2's MAC, mb2 towards the RU — so chains can be re-formed on-the-fly
//! by management-rule updates, with no topology changes.
//!
//! The same addressing is served on both layers: [`build_chain`] wires it
//! onto a simulated [`SriovNic`], [`steer`] routes it in-process between
//! stages hosted by one pipeline.

use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::FhMessage;
use rb_netsim::engine::{port, Engine, Node, NodeId, PortAddr};
use rb_netsim::nic::{SriovNic, PHYS_PORT};
use rb_netsim::time::SimDuration;

use crate::middlebox::{MbContext, Middlebox};
use crate::telemetry::counters;

/// Parameters of the NIC used to host a chain.
#[derive(Debug, Clone, Copy)]
pub struct ChainSpec {
    /// One-way VF crossing latency.
    pub vf_latency: SimDuration,
    /// PCIe bandwidth shared by the VFs, gigabits/second.
    pub pcie_gbps: f64,
    /// Per-link bandwidth between the NIC and each VF host, Gb/s.
    pub link_gbps: f64,
}

impl Default for ChainSpec {
    fn default() -> Self {
        // Mellanox ConnectX-6 Dx-class defaults: ~1 µs VF hop, PCIe 4.0 ×16.
        ChainSpec { vf_latency: SimDuration::from_micros(1), pcie_gbps: 126.0, link_gbps: 100.0 }
    }
}

/// The result of building a chain: the NIC node and one VF port per
/// middlebox host.
#[derive(Debug, Clone)]
pub struct Chain {
    /// The NIC node id.
    pub nic: NodeId,
    /// The NIC's physical (wire-facing) port.
    pub phys: PortAddr,
    /// One (host node id, MAC) entry per chained middlebox, in VF order.
    pub members: Vec<(NodeId, EthernetAddress)>,
}

/// Build an SR-IOV NIC with one VF per middlebox host and wire everything
/// up. Static forwarding entries steer each host's MAC to its VF, so the
/// first frame already takes the right path (no flood-learning needed on
/// the latency-sensitive fronthaul).
pub fn build_chain(
    engine: &mut Engine,
    name: &str,
    spec: ChainSpec,
    hosts: Vec<(Box<dyn Node>, EthernetAddress)>,
) -> Chain {
    assert!(!hosts.is_empty(), "a chain needs at least one middlebox");
    let num_vfs = hosts.len();
    let mut nic = SriovNic::new(format!("{name}-nic"), num_vfs, spec.vf_latency, spec.pcie_gbps);
    for (k, (_, mac)) in hosts.iter().enumerate() {
        nic.learn_static(*mac, k + 1);
    }
    let nic_id = engine.add_node(Box::new(nic));
    let mut members = Vec::with_capacity(num_vfs);
    for (k, (host, mac)) in hosts.into_iter().enumerate() {
        let host_id = engine.add_node(host);
        engine.connect(port(nic_id, k + 1), port(host_id, 0), SimDuration::ZERO, spec.link_gbps);
        members.push((host_id, mac));
    }
    Chain { nic: nic_id, phys: port(nic_id, PHYS_PORT), members }
}

/// Most stage-to-stage hops one input message may cause before [`steer`]
/// stops re-dispatching: far above any real chain, low enough that a
/// mis-wired loop ends.
const MAX_HOPS: u64 = 256;

/// Route `msg` through in-process `stages` by destination MAC, as the
/// NIC's embedded switch would between VFs: stage `first` handles `msg`,
/// and from then on `out` is the hop queue. Everything before the cursor
/// has left the chain; a message at the cursor addressed to a stage's MAC
/// is taken out and handed to that stage, whose outputs join the back of
/// the queue; anything else leaves in emission order. Returns how many
/// internal messages the hop cap dropped (a routing loop is a bug in the
/// stage wiring; never expected).
pub fn steer(
    ctx: &mut MbContext<'_>,
    stages: &mut [(EthernetAddress, &mut dyn Middlebox)],
    first: usize,
    msg: FhMessage,
    out: &mut Vec<FhMessage>,
) -> u64 {
    let mut cursor = out.len();
    if let Some((_, stage)) = stages.get_mut(first) {
        stage.handle_into(ctx, msg, out);
    }
    let mut hops = 0u64;
    while let Some(dst) = out.get(cursor).map(|m| m.eth.dst) {
        let Some((_, stage)) = stages.iter_mut().find(|(mac, _)| *mac == dst) else {
            cursor = cursor.saturating_add(1);
            continue;
        };
        let m = out.remove(cursor);
        counters::bump(&mut hops);
        if hops <= MAX_HOPS {
            stage.handle_into(ctx, m, out);
        }
    }
    hops.saturating_sub(MAX_HOPS)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::MiddleboxHost;
    use crate::middlebox::Passthrough;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::msg::{Body, FhMessage};
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::Direction;
    use rb_netsim::cost::CostModel;
    use rb_netsim::engine::{NodeEvent, Outbox};
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
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

    #[test]
    fn two_stage_chain_delivers_end_to_end() {
        // wire → mb1 (mac 11 → mac 12) → mb2 (mac 12 → mac 99) → wire.
        let mut engine = Engine::new();
        let mb1 = MiddleboxHost::new(
            Passthrough::new("mb1", mac(11), mac(12)),
            mac(11),
            CostModel::dpdk(),
            1,
        );
        let mb2 = MiddleboxHost::new(
            Passthrough::new("mb2", mac(12), mac(99)),
            mac(12),
            CostModel::dpdk(),
            1,
        );
        let chain = build_chain(
            &mut engine,
            "test",
            ChainSpec::default(),
            vec![(Box::new(mb1), mac(11)), (Box::new(mb2), mac(12))],
        );
        // The wire side: a sink representing the RU behind the switch.
        let wire = engine.add_node(Box::new(Sink { got: vec![] }));
        engine.connect(chain.phys, port(wire, 0), SimDuration::from_nanos(500), 100.0);
        // Wire-side MACs are steered out of the physical port.
        engine
            .node_as_mut::<rb_netsim::nic::SriovNic>(chain.nic)
            .learn_static(mac(99), rb_netsim::nic::PHYS_PORT);

        let msg = FhMessage::new(
            mac(1),
            mac(11),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 1),
            )),
        );
        engine.inject(SimTime::ZERO, chain.phys, msg.to_bytes(&EaxcMapping::DEFAULT).unwrap());
        engine.run_until(SimTime(100_000_000));

        let got = &engine.node_as::<Sink>(wire).got;
        assert_eq!(got.len(), 1, "frame traversed both middleboxes back to the wire");
        let out = FhMessage::parse(&got[0], &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(out.eth.dst, mac(99));
        assert_eq!(out.eth.src, mac(12));
        // Three PCIe crossings: wire→VF1, VF1→VF2, VF2→wire.
        let nic = engine.node_as::<rb_netsim::nic::SriovNic>(chain.nic);
        assert!(nic.pcie_bytes > 0);
        assert_eq!(nic.floods, 0, "static steering avoids flooding");
    }

    #[test]
    fn steer_stops_a_two_stage_loop_at_the_hop_cap() {
        // A forwards to B and B back to A: nothing ever leaves, so the
        // one message in flight is re-dispatched until the cap drops it.
        let mut a = Passthrough::new("a", mac(11), mac(12));
        let mut b = Passthrough::new("b", mac(12), mac(11));
        let mut cache = crate::cache::SymbolCache::new(4);
        let telemetry = crate::telemetry::TelemetrySender::disconnected("loop");
        let mut ctx = MbContext {
            now: SimTime::ZERO,
            cache: &mut cache,
            telemetry: &telemetry,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        };
        let msg = FhMessage::new(
            mac(1),
            mac(11),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 1),
            )),
        );
        // Something already emitted by an earlier frame stays untouched,
        // even though it is addressed to a stage.
        let mut out = vec![msg.clone()];
        let dropped =
            steer(&mut ctx, &mut [(mac(11), &mut a), (mac(12), &mut b)], 0, msg, &mut out);
        assert_eq!(dropped, 1, "the looping message is dropped once, at the cap");
        assert_eq!(out.len(), 1, "nothing left the loop");

        // An acyclic two-stage chain drops nothing and emits in order.
        let mut b = Passthrough::new("b", mac(12), mac(99));
        let msg = out.pop().unwrap();
        let dropped =
            steer(&mut ctx, &mut [(mac(11), &mut a), (mac(12), &mut b)], 0, msg, &mut out);
        assert_eq!(dropped, 0);
        assert_eq!(
            out.iter().map(|m| (m.eth.src, m.eth.dst)).collect::<Vec<_>>(),
            [(mac(12), mac(99))]
        );
    }

    #[test]
    #[should_panic(expected = "at least one middlebox")]
    fn empty_chain_panics() {
        let mut engine = Engine::new();
        build_chain(&mut engine, "x", ChainSpec::default(), vec![]);
    }
}
