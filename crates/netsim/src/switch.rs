//! A MAC-learning Ethernet switch node.
//!
//! Stands in for the testbed's Arista 7050 fronthaul switch: frames are
//! forwarded by destination MAC, with source-MAC learning and flooding of
//! unknown/broadcast destinations to every port except the ingress.

use std::collections::HashMap;

use rb_fronthaul::ether::{EthernetAddress, Frame};

use crate::engine::{Node, NodeEvent, Outbox};

/// A learning Ethernet switch.
pub struct Switch {
    name: String,
    ports: usize,
    fdb: HashMap<EthernetAddress, usize>,
    /// Frames dropped because they were unparseable.
    pub malformed_drops: u64,
    /// Frames flooded because the destination was unknown or broadcast.
    pub floods: u64,
}

impl Switch {
    /// Create a switch with `ports` ports.
    pub fn new(name: impl Into<String>, ports: usize) -> Switch {
        Switch { name: name.into(), ports, fdb: HashMap::new(), malformed_drops: 0, floods: 0 }
    }

    /// Number of ports.
    pub fn ports(&self) -> usize {
        self.ports
    }

    /// Grow the switch by one port and return its index.
    pub fn add_port(&mut self) -> usize {
        self.ports += 1;
        self.ports - 1
    }

    /// The port a MAC was learned on, if any.
    pub fn lookup(&self, mac: EthernetAddress) -> Option<usize> {
        self.fdb.get(&mac).copied()
    }

    /// Install a static forwarding entry.
    pub fn learn_static(&mut self, mac: EthernetAddress, port: usize) {
        assert!(port < self.ports);
        self.fdb.insert(mac, port);
    }

    /// The one L2 forwarding decision of the simulator, shared with the
    /// embedded switch of [`crate::nic::SriovNic`]: learn the source on
    /// `in_port`, then hand `frame` to `send` once per egress port — the
    /// learned port for a known unicast destination (never back out of the
    /// ingress port, like a real switch), every other port for an unknown
    /// or broadcast one. Unparseable frames are counted and dropped.
    pub(crate) fn forward(
        &mut self,
        in_port: usize,
        frame: Vec<u8>,
        mut send: impl FnMut(usize, Vec<u8>),
    ) {
        let Ok(eth) = Frame::new_checked(&frame[..]) else {
            self.malformed_drops += 1;
            return;
        };
        let src = eth.src();
        let dst = eth.dst();
        if src.is_unicast() {
            self.fdb.insert(src, in_port);
        }
        match self.fdb.get(&dst) {
            Some(&out_port) if dst.is_unicast() => {
                if out_port != in_port {
                    send(out_port, frame);
                }
            }
            _ => {
                self.floods += 1;
                for p in (0..self.ports).filter(|&p| p != in_port) {
                    send(p, frame.clone());
                }
            }
        }
    }
}

impl Node for Switch {
    fn on_event(&mut self, ev: NodeEvent, out: &mut Outbox) {
        if let NodeEvent::Packet { port, frame } = ev {
            self.forward(port, frame, |p, f| out.send(p, f));
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{port, Engine, NodeEvent, Outbox};
    use crate::time::{SimDuration, SimTime};
    use rb_fronthaul::ether::{EtherType, FrameRepr};

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(0x02, 0, 0, 0, 0, last)
    }

    fn frame(src: EthernetAddress, dst: EthernetAddress) -> Vec<u8> {
        let repr = FrameRepr { dst, src, vlan: None, ethertype: EtherType::ECPRI };
        let mut buf = vec![0u8; repr.header_len() + 10];
        repr.emit(&mut rb_fronthaul::ether::Frame::new_unchecked(&mut buf[..])).unwrap();
        buf
    }

    /// Records every frame it receives.
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

    fn three_host_setup() -> (Engine, usize, [usize; 3]) {
        let mut engine = Engine::new();
        let sw = engine.add_node(Box::new(Switch::new("sw", 3)));
        let hosts = [0, 1, 2].map(|_| engine.add_node(Box::new(Sink { got: vec![] })));
        for (k, h) in hosts.iter().enumerate() {
            engine.connect(port(sw, k), port(*h, 0), SimDuration::from_nanos(100), 100.0);
        }
        (engine, sw, hosts)
    }

    #[test]
    fn unknown_destination_floods() {
        let (mut engine, sw, hosts) = three_host_setup();
        engine.inject(SimTime::ZERO, port(sw, 0), frame(mac(1), mac(2)));
        engine.run_until(SimTime(1_000_000));
        assert!(engine.node_as::<Sink>(hosts[0]).got.is_empty(), "no hairpin");
        assert_eq!(engine.node_as::<Sink>(hosts[1]).got.len(), 1);
        assert_eq!(engine.node_as::<Sink>(hosts[2]).got.len(), 1);
        assert_eq!(engine.node_as::<Switch>(sw).floods, 1);
    }

    #[test]
    fn learning_stops_flooding() {
        let (mut engine, sw, hosts) = three_host_setup();
        // Host 2 (on switch port 2) speaks first, teaching the switch.
        engine.inject(SimTime::ZERO, port(sw, 2), frame(mac(2), mac(1)));
        // Then host 1 replies: must be unicast-forwarded only to port 2.
        engine.inject(SimTime(10_000), port(sw, 0), frame(mac(1), mac(2)));
        engine.run_until(SimTime(1_000_000));
        assert_eq!(engine.node_as::<Sink>(hosts[2]).got.len(), 1);
        // Host 1's sink saw only the initial flood (1 frame), not the reply.
        assert_eq!(engine.node_as::<Sink>(hosts[1]).got.len(), 1);
        assert_eq!(engine.node_as::<Switch>(sw).lookup(mac(2)), Some(2));
    }

    #[test]
    fn static_entries_forward_without_learning() {
        let (mut engine, sw, hosts) = three_host_setup();
        engine.node_as_mut::<Switch>(sw).learn_static(mac(9), 1);
        engine.inject(SimTime::ZERO, port(sw, 0), frame(mac(1), mac(9)));
        engine.run_until(SimTime(1_000_000));
        assert_eq!(engine.node_as::<Sink>(hosts[1]).got.len(), 1);
        assert_eq!(engine.node_as::<Sink>(hosts[2]).got.len(), 0);
        assert_eq!(engine.node_as::<Switch>(sw).floods, 0);
    }

    #[test]
    fn broadcast_always_floods() {
        let (mut engine, sw, hosts) = three_host_setup();
        engine.inject(SimTime::ZERO, port(sw, 1), frame(mac(1), EthernetAddress::BROADCAST));
        engine.run_until(SimTime(1_000_000));
        assert_eq!(engine.node_as::<Sink>(hosts[0]).got.len(), 1);
        assert_eq!(engine.node_as::<Sink>(hosts[2]).got.len(), 1);
        assert_eq!(engine.node_as::<Sink>(hosts[1]).got.len(), 0);
    }

    #[test]
    fn malformed_frames_dropped() {
        let (mut engine, sw, hosts) = three_host_setup();
        engine.inject(SimTime::ZERO, port(sw, 0), vec![0u8; 5]);
        engine.run_until(SimTime(1_000_000));
        assert_eq!(engine.node_as::<Switch>(sw).malformed_drops, 1);
        assert!(engine.node_as::<Sink>(hosts[1]).got.is_empty());
    }
}
