//! SR-IOV NIC with virtual functions and an embedded switch.
//!
//! RANBooster chains middleboxes by giving each one a virtual function (VF)
//! of a physical NIC; the NIC's embedded switch forwards frames between the
//! VFs and the physical port (paper Figure 8). The number of middleboxes
//! that can be chained is constrained by PCIe throughput — modelled here as
//! a shared serialization resource that every VF crossing consumes, so
//! saturation shows up as growing forwarding latency.
//!
//! Port numbering: port 0 is the physical wire port; ports `1..=num_vfs`
//! are the VFs.

use std::collections::VecDeque;
use std::ops::{Deref, DerefMut};

use crate::engine::{Node, NodeEvent, Outbox};
use crate::switch::Switch;
use crate::time::{SimDuration, SimTime};

/// Index of the physical port on a [`SriovNic`].
pub const PHYS_PORT: usize = 0;

const FLUSH_TIMER: u64 = u64::MAX;

/// An SR-IOV capable NIC node: PCIe admission and VF latency in front of
/// an embedded [`Switch`], to which it dereferences — `learn_static`,
/// `lookup`, `ports`, `floods` and `malformed_drops` are the switch's.
pub struct SriovNic {
    switch: Switch,
    /// One-way latency of a VF crossing (DMA + doorbell), excluding PCIe
    /// serialization.
    vf_latency: SimDuration,
    /// PCIe bandwidth shared by all VF crossings, in gigabits per second.
    pcie_gbps: f64,
    pcie_busy_until: SimTime,
    pending: VecDeque<(SimTime, usize, Vec<u8>)>,
    /// Total bytes that crossed the PCIe bus.
    pub pcie_bytes: u64,
}

impl SriovNic {
    /// Create a NIC with `num_vfs` virtual functions.
    ///
    /// Typical values: `vf_latency` ≈ 1 µs, `pcie_gbps` ≈ 126 (PCIe 4.0
    /// ×16 minus overhead).
    pub fn new(
        name: impl Into<String>,
        num_vfs: usize,
        vf_latency: SimDuration,
        pcie_gbps: f64,
    ) -> SriovNic {
        assert!(num_vfs >= 1, "need at least one VF");
        assert!(pcie_gbps > 0.0);
        SriovNic {
            switch: Switch::new(name, num_vfs + 1),
            vf_latency,
            pcie_gbps,
            pcie_busy_until: SimTime::ZERO,
            pending: VecDeque::new(),
            pcie_bytes: 0,
        }
    }

    /// Every forwarded frame enters or leaves through a VF (there is one
    /// physical port and no hairpin), so each pays the PCIe crossing:
    /// serialization behind whatever already occupies the bus, then the
    /// VF latency.
    fn forward(&mut self, out: &mut Outbox, in_port: usize, frame: Vec<u8>) {
        let now = out.now();
        let SriovNic { switch, vf_latency, pcie_gbps, pcie_busy_until, pending, pcie_bytes } = self;
        switch.forward(in_port, frame, |out_port, f| {
            let start = (*pcie_busy_until).max(now);
            *pcie_busy_until = start + SimDuration::for_bytes_at_gbps(f.len(), *pcie_gbps);
            *pcie_bytes += f.len() as u64;
            let release = *pcie_busy_until + *vf_latency;
            pending.push_back((release, out_port, f));
            out.schedule_at(release, FLUSH_TIMER);
        });
    }

    /// Release what is due. The bus is a FIFO and the VF latency constant,
    /// so `pending` is ordered by release time.
    fn flush_due(&mut self, out: &mut Outbox) {
        let due = self.pending.partition_point(|(release, ..)| *release <= out.now());
        for (_, port, frame) in self.pending.drain(..due) {
            out.send(port, frame);
        }
    }
}

impl Deref for SriovNic {
    type Target = Switch;

    fn deref(&self) -> &Switch {
        &self.switch
    }
}

impl DerefMut for SriovNic {
    fn deref_mut(&mut self) -> &mut Switch {
        &mut self.switch
    }
}

impl Node for SriovNic {
    fn on_event(&mut self, ev: NodeEvent, out: &mut Outbox) {
        match ev {
            NodeEvent::Packet { port, frame } => self.forward(out, port, frame),
            NodeEvent::Timer { tag: FLUSH_TIMER } => self.flush_due(out),
            NodeEvent::Timer { .. } => {}
        }
    }

    fn name(&self) -> &str {
        self.switch.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{port, Engine};
    use rb_fronthaul::ether::{EtherType, EthernetAddress, Frame, FrameRepr};

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(0x02, 0, 0, 0, 0, last)
    }

    fn frame_bytes(src: EthernetAddress, dst: EthernetAddress, payload: usize) -> Vec<u8> {
        let repr = FrameRepr { dst, src, vlan: None, ethertype: EtherType::ECPRI };
        let mut buf = vec![0u8; repr.header_len() + payload];
        repr.emit(&mut Frame::new_unchecked(&mut buf[..])).unwrap();
        buf
    }

    struct Sink {
        arrivals: Vec<(SimTime, usize)>,
    }
    impl Node for Sink {
        fn on_event(&mut self, ev: NodeEvent, out: &mut Outbox) {
            if let NodeEvent::Packet { frame, .. } = ev {
                self.arrivals.push((out.now(), frame.len()));
            }
        }
    }

    fn setup(vfs: usize, pcie_gbps: f64) -> (Engine, usize, Vec<usize>) {
        let mut engine = Engine::new();
        let nic = engine.add_node(Box::new(SriovNic::new(
            "nic",
            vfs,
            SimDuration::from_micros(1),
            pcie_gbps,
        )));
        let mut sinks = Vec::new();
        for v in 0..=vfs {
            let s = engine.add_node(Box::new(Sink { arrivals: vec![] }));
            engine.connect(port(nic, v), port(s, 0), SimDuration::ZERO, 100.0);
            sinks.push(s);
        }
        (engine, nic, sinks)
    }

    #[test]
    fn vf_crossing_pays_latency_and_pcie() {
        let (mut engine, nic, sinks) = setup(2, 100.0);
        engine.node_as_mut::<SriovNic>(nic).learn_static(mac(9), 1);
        engine.inject(SimTime::ZERO, port(nic, PHYS_PORT), frame_bytes(mac(1), mac(9), 1000));
        engine.run_until(SimTime(10_000_000));
        let sink = engine.node_as::<Sink>(sinks[1]);
        assert_eq!(sink.arrivals.len(), 1);
        // PCIe ser (1014 B at 100 Gbps ≈ 82 ns) + 1 µs VF latency + egress
        // link serialization; must be at least 1 µs.
        assert!(sink.arrivals[0].0.as_nanos() >= 1_000);
        assert_eq!(engine.node_as::<SriovNic>(nic).pcie_bytes, 1014);
    }

    #[test]
    fn pcie_contention_delays_later_frames() {
        // A tiny PCIe pipe: 0.1 Gbps → 1000-byte frame takes 80 µs.
        let (mut engine, nic, sinks) = setup(2, 0.1);
        engine.node_as_mut::<SriovNic>(nic).learn_static(mac(9), 1);
        for k in 0..3 {
            engine.inject(
                SimTime(k as u64),
                port(nic, PHYS_PORT),
                frame_bytes(mac(1), mac(9), 1000),
            );
        }
        engine.run_until(SimTime(1_000_000_000));
        let sink = engine.node_as::<Sink>(sinks[1]);
        assert_eq!(sink.arrivals.len(), 3);
        let gap1 = (sink.arrivals[1].0 - sink.arrivals[0].0).as_nanos();
        // Each successive frame queues a full serialization behind the
        // previous one (≈ 81 µs at 0.1 Gbps).
        assert!(gap1 > 70_000, "gap {gap1}ns");
    }

    #[test]
    fn chain_through_vfs() {
        // phys → VF1 (learned), then VF1's host resends toward a MAC
        // learned on VF2, then VF2 → phys: the Figure 8 chaining path.
        let (mut engine, nic, sinks) = setup(2, 126.0);
        {
            let n = engine.node_as_mut::<SriovNic>(nic);
            n.learn_static(mac(11), 1);
            n.learn_static(mac(12), 2);
            n.learn_static(mac(1), PHYS_PORT);
        }
        engine.inject(SimTime::ZERO, port(nic, PHYS_PORT), frame_bytes(mac(1), mac(11), 500));
        engine.inject(SimTime(5_000), port(nic, 1), frame_bytes(mac(11), mac(12), 500));
        engine.inject(SimTime(10_000), port(nic, 2), frame_bytes(mac(12), mac(1), 500));
        engine.run_until(SimTime(1_000_000));
        assert_eq!(engine.node_as::<Sink>(sinks[1]).arrivals.len(), 1);
        assert_eq!(engine.node_as::<Sink>(sinks[2]).arrivals.len(), 1);
        assert_eq!(engine.node_as::<Sink>(sinks[0]).arrivals.len(), 1);
        // Three VF-involving hops crossed PCIe.
        assert_eq!(engine.node_as::<SriovNic>(nic).pcie_bytes, 3 * 514);
    }

    #[test]
    fn unknown_dst_floods_all_ports() {
        let (mut engine, nic, sinks) = setup(3, 126.0);
        engine.inject(SimTime::ZERO, port(nic, 1), frame_bytes(mac(5), mac(77), 100));
        engine.run_until(SimTime(1_000_000));
        assert_eq!(engine.node_as::<Sink>(sinks[0]).arrivals.len(), 1);
        assert_eq!(engine.node_as::<Sink>(sinks[1]).arrivals.len(), 0, "no hairpin");
        assert_eq!(engine.node_as::<Sink>(sinks[2]).arrivals.len(), 1);
        assert_eq!(engine.node_as::<Sink>(sinks[3]).arrivals.len(), 1);
        assert_eq!(engine.node_as::<SriovNic>(nic).floods, 1);
    }

    #[test]
    fn malformed_dropped() {
        let (mut engine, nic, _sinks) = setup(1, 126.0);
        engine.inject(SimTime::ZERO, port(nic, PHYS_PORT), vec![1, 2, 3]);
        engine.run_until(SimTime(1_000));
        assert_eq!(engine.node_as::<SriovNic>(nic).malformed_drops, 1);
    }
}
