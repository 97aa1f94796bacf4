//! Ready-made deployments mirroring the paper's testbed configurations.
//!
//! Every builder wires emulated DUs, RUs and middlebox hosts onto one
//! fronthaul switch (the testbed's Arista) over a shared radio
//! [`rb_radio::medium`], and returns a [`Deployment`] handle for adding
//! UEs, driving simulated time and measuring per-UE throughput — the
//! workflow of every §6 experiment.
//!
//! Geometry matches the testbed: 50.9 m × 20.9 m floors with four
//! ceiling-mounted RUs each ([`floor_ru_positions`]).

use rb_apps::das::{Das, DasConfig};
use rb_apps::dmimo::{Dmimo, DmimoConfig, PhysicalRu, SsbBand};
use rb_apps::prbmon::{PrbMon, PrbMonConfig};
use rb_apps::rushare::{CarrierSpec, RuShare, RuShareConfig, SharedDu};
use rb_core::chain::{build_chain, ChainSpec};
use rb_core::host::MiddleboxHost;
use rb_core::middlebox::Middlebox;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::timing::Numerology;
use rb_netsim::cost::CostModel;
use rb_netsim::engine::{port, Engine, Node, NodeId};
use rb_netsim::nic::{SriovNic, PHYS_PORT};
use rb_netsim::switch::Switch;
use rb_netsim::time::{SimDuration, SimTime};
use rb_radio::cell::CellConfig;
use rb_radio::channel::Position;
use rb_radio::du::{Du, DuConfig};
use rb_radio::medium::{self, Medium, MediumParams, SharedMedium, UeId, UeStats};
use rb_radio::ru::{Ru, RuConfig};

/// MAC address scheme: `02:00:00:00:<group>:<idx>`.
pub fn mac(group: u8, idx: u8) -> EthernetAddress {
    EthernetAddress::new(0x02, 0, 0, 0, group, idx)
}

/// DU k's MAC.
pub fn du_mac(k: u8) -> EthernetAddress {
    mac(1, k)
}

/// Middlebox k's MAC.
pub fn mb_mac(k: u8) -> EthernetAddress {
    mac(2, k)
}

/// RU k's MAC.
pub fn ru_mac(k: u8) -> EthernetAddress {
    mac(3, k)
}

/// The four ceiling-RU positions of one testbed floor (Figure 9a).
pub fn floor_ru_positions(floor: i32) -> Vec<Position> {
    [7.0, 19.5, 32.0, 44.0].iter().map(|&x| Position::new(x, 10.5, floor)).collect()
}

/// Link parameters used throughout (100 GbE switch fabric, 25 GbE RUs).
const SWITCH_LATENCY: SimDuration = SimDuration::from_micros(5);
const DU_GBPS: f64 = 100.0;
const MB_GBPS: f64 = 100.0;
const RU_GBPS: f64 = 25.0;

/// A built deployment: engine + shared medium + node ids.
pub struct Deployment {
    /// The event engine (drive with [`Deployment::run_ms`]).
    pub engine: Engine,
    /// The shared air interface.
    pub medium: SharedMedium,
    /// DU node ids, in builder order.
    pub dus: Vec<NodeId>,
    /// RU node ids, in builder order.
    pub rus: Vec<NodeId>,
    /// Middlebox host node ids, in builder order.
    pub mbs: Vec<NodeId>,
    /// The fronthaul switch node id.
    pub switch: NodeId,
    numerology: Numerology,
}

/// Incrementally wires nodes onto one switch.
struct Wiring {
    engine: Engine,
    medium: SharedMedium,
    switch: NodeId,
    next_port: usize,
    dus: Vec<NodeId>,
    rus: Vec<NodeId>,
    mbs: Vec<NodeId>,
}

impl Wiring {
    fn new(max_nodes: usize, seed: u64) -> Wiring {
        let medium = medium::shared(Medium::new(MediumParams::default(), seed));
        let mut engine = Engine::new();
        let switch = engine.add_node(Box::new(Switch::new("fronthaul-switch", max_nodes)));
        Wiring { engine, medium, switch, next_port: 0, dus: vec![], rus: vec![], mbs: vec![] }
    }

    fn attach(&mut self, node: NodeId, gbps: f64) {
        let p = self.next_port;
        self.next_port += 1;
        self.engine.connect(port(self.switch, p), port(node, 0), SWITCH_LATENCY, gbps);
    }

    fn add_du(&mut self, cfg: DuConfig) -> NodeId {
        let du = Du::new(cfg, self.medium.clone());
        let id = self.engine.add_node(Box::new(du));
        self.attach(id, DU_GBPS);
        Du::start(&mut self.engine, id, Numerology::Mu1);
        self.dus.push(id);
        id
    }

    /// RU `k` (MAC `ru_mac(k)`) with `ports` antenna ports at `pos`, on the
    /// carrier (`center_hz`, `num_prb`), serving `pcis` towards `peer`.
    fn add_ru(
        &mut self,
        k: u8,
        peer: EthernetAddress,
        (center_hz, num_prb): (i64, u16),
        ports: u8,
        pos: Position,
        pcis: Vec<u16>,
    ) -> NodeId {
        let tag = u64::from(k) + 1;
        let cfg = RuConfig::new(ru_mac(k), peer, center_hz, num_prb, ports, pos, pcis, tag);
        let tick = cfg.tick_offset;
        let ru = Ru::new(cfg, self.medium.clone());
        let id = self.engine.add_node(Box::new(ru));
        self.attach(id, RU_GBPS);
        Ru::start(&mut self.engine, id, Numerology::Mu1, tick);
        self.rus.push(id);
        id
    }

    fn add_mb<M: Middlebox>(
        &mut self,
        mb: M,
        mb_addr: EthernetAddress,
        cost: CostModel,
        cores: usize,
    ) -> NodeId {
        let host = MiddleboxHost::new(mb, mb_addr, cost, cores);
        let id = self.engine.add_node(Box::new(host));
        self.attach(id, MB_GBPS);
        self.mbs.push(id);
        id
    }

    /// The DU side of an RU-sharing deployment: one DU per cell, each
    /// believing the middlebox at `mb_mac(0)` is its RU, and the RU-sharing
    /// middlebox that muxes them onto the carrier (`ru_center_hz`,
    /// `ru_num_prb`) of whatever answers at `ru_mac`. Also returns the
    /// antenna ports and PCIs the radios behind it must serve.
    fn add_shared_dus(
        &mut self,
        (ru_center_hz, ru_num_prb): (i64, u16),
        du_cells: Vec<CellConfig>,
        ru_mac: EthernetAddress,
    ) -> (RuShare, u8, Vec<u16>) {
        let scs = du_cells[0].scs_hz();
        let ports = du_cells.iter().map(|c| c.layers).max().unwrap_or(1);
        let pcis = du_cells.iter().map(|c| c.pci).collect();
        let dus = du_cells
            .iter()
            .enumerate()
            .map(|(k, c)| SharedDu {
                mac: du_mac(k as u8),
                du_id: c.pci,
                carrier: CarrierSpec { center_hz: c.center_hz, num_prb: c.num_prb, scs_hz: scs },
            })
            .collect();
        for (k, cell) in du_cells.into_iter().enumerate() {
            self.add_du(DuConfig::new(cell, du_mac(k as u8), mb_mac(0)));
        }
        let ru = CarrierSpec { center_hz: ru_center_hz, num_prb: ru_num_prb, scs_hz: scs };
        let share = RuShare::new("rushare", RuShareConfig { mb_mac: mb_mac(0), ru_mac, ru, dus });
        (share, ports, pcis)
    }

    fn finish(self) -> Deployment {
        Deployment {
            engine: self.engine,
            medium: self.medium,
            dus: self.dus,
            rus: self.rus,
            mbs: self.mbs,
            switch: self.switch,
            numerology: Numerology::Mu1,
        }
    }
}

impl Deployment {
    /// Add a UE at `pos` supporting up to `layers` MIMO layers.
    pub fn add_ue(&mut self, pos: Position, layers: u8) -> UeId {
        self.medium.lock().add_ue(pos, layers)
    }

    /// Move a UE (mobility experiments).
    pub fn move_ue(&mut self, ue: UeId, pos: Position) {
        self.medium.lock().set_ue_position(ue, pos);
    }

    /// Force a UE's association to one cell (paper §6.2.3).
    pub fn force_cell(&mut self, ue: UeId, pci: u16) {
        self.medium.lock().set_preferred_cell(ue, Some(pci));
    }

    /// Run the simulation until absolute time `ms` milliseconds.
    pub fn run_ms(&mut self, ms: u64) {
        self.engine.run_until(SimTime(ms * 1_000_000));
    }

    /// Snapshot one UE's stats.
    pub fn ue_stats(&self, ue: UeId) -> UeStats {
        self.medium.lock().ue_stats(ue)
    }

    /// Set the offered load of `ue` at DU `du_idx` (bits/second).
    pub fn set_demand(&mut self, du_idx: usize, ue: UeId, dl_bps: f64, ul_bps: f64) {
        let id = self.dus[du_idx];
        self.engine.node_as_mut::<Du>(id).set_demand(ue, dl_bps, ul_bps);
    }

    /// Borrow DU `du_idx`.
    pub fn du(&self, du_idx: usize) -> &Du {
        self.engine.node_as::<Du>(self.dus[du_idx])
    }

    /// Run from the current time to `warmup_ms`, then measure each UE's
    /// (downlink, uplink) throughput in Mbps over `[warmup_ms, end_ms]`.
    pub fn measure_mbps(&mut self, warmup_ms: u64, end_ms: u64) -> Vec<(f64, f64)> {
        assert!(end_ms > warmup_ms);
        self.run_ms(warmup_ms);
        let baseline: Vec<UeStats> = {
            let m = self.medium.lock();
            (0..m.num_ues()).map(|u| m.ue_stats(u)).collect()
        };
        self.run_ms(end_ms);
        let secs = (end_ms - warmup_ms) as f64 / 1e3;
        let m = self.medium.lock();
        (0..m.num_ues())
            .map(|u| {
                let s = m.ue_stats(u);
                (
                    (s.dl_bits - baseline[u].dl_bits) as f64 / secs / 1e6,
                    (s.ul_bits - baseline[u].ul_bits) as f64 / secs / 1e6,
                )
            })
            .collect()
    }

    /// Current absolute slot (for scheduling-log queries).
    pub fn slot_at_ms(&self, ms: u64) -> u32 {
        rb_radio::timebase::slot_at(self.numerology, SimTime(ms * 1_000_000))
    }

    // ------------------------------------------------------------------
    // Builders
    // ------------------------------------------------------------------

    /// A single cell wired directly to one RU — the paper's baselines.
    pub fn single_cell(cell: CellConfig, ru_pos: Position, seed: u64) -> Deployment {
        let mut w = Wiring::new(2, seed);
        let (carrier, ports, pci) = ((cell.center_hz, cell.num_prb), cell.layers, cell.pci);
        w.add_du(DuConfig::new(cell, du_mac(0), ru_mac(0)));
        w.add_ru(0, du_mac(0), carrier, ports, ru_pos, vec![pci]);
        w.finish()
    }

    /// Several independent cells, each on its own RU (Figure 11 options
    /// O1/O2). Cell k uses DU k and RU k.
    pub fn multi_cell(cells: Vec<(CellConfig, Position)>, seed: u64) -> Deployment {
        let n = cells.len();
        let mut w = Wiring::new(2 * n, seed);
        for (k, (cell, pos)) in cells.into_iter().enumerate() {
            let k = k as u8;
            let (carrier, ports, pci) = ((cell.center_hz, cell.num_prb), cell.layers, cell.pci);
            w.add_du(DuConfig::new(cell, du_mac(k), ru_mac(k)));
            w.add_ru(k, du_mac(k), carrier, ports, pos, vec![pci]);
        }
        w.finish()
    }

    /// One cell distributed over `ru_positions` through a DAS middlebox
    /// (§6.2.1 / Figure 11 option O3).
    pub fn das(cell: CellConfig, ru_positions: &[Position], seed: u64) -> Deployment {
        Deployment::das_with_cost(cell, ru_positions, CostModel::dpdk(), 1, seed)
    }

    /// DAS with an explicit datapath cost model (Figures 15/16).
    pub fn das_with_cost(
        cell: CellConfig,
        ru_positions: &[Position],
        cost: CostModel,
        cores: usize,
        seed: u64,
    ) -> Deployment {
        let n = ru_positions.len();
        let mut w = Wiring::new(n + 2, seed);
        let (carrier, ports, pci) = ((cell.center_hz, cell.num_prb), cell.layers, cell.pci);
        let ru_macs: Vec<EthernetAddress> = (0..n as u8).map(ru_mac).collect();
        // The DU believes the middlebox is its RU; RUs believe it is the DU.
        w.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
        let das = Das::new("das", DasConfig { mb_mac: mb_mac(0), du_mac: du_mac(0), ru_macs });
        w.add_mb(das, mb_mac(0), cost, cores);
        for (k, pos) in ru_positions.iter().enumerate() {
            w.add_ru(k as u8, mb_mac(0), carrier, ports, *pos, vec![pci]);
        }
        w.finish()
    }

    /// A virtual RU built from several small radios through the dMIMO
    /// middlebox (§6.2.2). `rus` is (position, antenna ports) per radio;
    /// the cell's `layers` must equal the total.
    pub fn dmimo(
        cell: CellConfig,
        rus: &[(Position, u8)],
        ssb_copy: bool,
        seed: u64,
    ) -> Deployment {
        Deployment::dmimo_with_cost(cell, rus, ssb_copy, CostModel::dpdk(), 1, seed)
    }

    /// dMIMO with an explicit datapath cost model (Figure 16).
    pub fn dmimo_with_cost(
        cell: CellConfig,
        rus: &[(Position, u8)],
        ssb_copy: bool,
        cost: CostModel,
        cores: usize,
        seed: u64,
    ) -> Deployment {
        let total: u8 = rus.iter().map(|(_, p)| p).sum();
        assert_eq!(cell.layers, total, "cell layers must match aggregate ports");
        let mut w = Wiring::new(rus.len() + 2, seed);
        let (carrier, pci) = ((cell.center_hz, cell.num_prb), cell.pci);
        let ssb = SsbBand { start_prb: cell.ssb.start_prb, num_prb: cell.ssb.num_prb };
        w.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
        let mb = Dmimo::new(
            "dmimo",
            DmimoConfig {
                mb_mac: mb_mac(0),
                du_mac: du_mac(0),
                rus: rus
                    .iter()
                    .enumerate()
                    .map(|(k, (_, ports))| PhysicalRu { mac: ru_mac(k as u8), ports: *ports })
                    .collect(),
                ssb_copy,
                ssb: Some(ssb),
            },
        );
        w.add_mb(mb, mb_mac(0), cost, cores);
        for (k, (pos, ports)) in rus.iter().enumerate() {
            w.add_ru(k as u8, mb_mac(0), carrier, *ports, *pos, vec![pci]);
        }
        w.finish()
    }

    /// Several DUs sharing one wide RU through the RU-sharing middlebox
    /// (§6.2.3). The RU carrier is (`ru_center_hz`, `ru_num_prb`); each
    /// DU cell carries its own center frequency.
    pub fn rushare(
        ru_center_hz: i64,
        ru_num_prb: u16,
        du_cells: Vec<CellConfig>,
        ru_pos: Position,
        seed: u64,
    ) -> Deployment {
        let mut w = Wiring::new(du_cells.len() + 2, seed);
        let carrier = (ru_center_hz, ru_num_prb);
        let (share, ports, pcis) = w.add_shared_dus(carrier, du_cells, ru_mac(0));
        w.add_mb(share, mb_mac(0), CostModel::dpdk(), 1);
        w.add_ru(0, mb_mac(0), carrier, ports, ru_pos, pcis);
        w.finish()
    }

    /// A cell behind an inline PRB monitor (§6.2.4).
    pub fn prbmon(cell: CellConfig, ru_pos: Position, seed: u64) -> Deployment {
        let mut w = Wiring::new(3, seed);
        let (carrier, ports, pci) = ((cell.center_hz, cell.num_prb), cell.layers, cell.pci);
        w.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
        let mon = PrbMon::new(
            "prbmon",
            PrbMonConfig::standard(mb_mac(0), du_mac(0), ru_mac(0), carrier.1),
        );
        w.add_mb(mon, mb_mac(0), CostModel::dpdk(), 1);
        w.add_ru(0, mb_mac(0), carrier, ports, ru_pos, vec![pci]);
        w.finish()
    }

    /// Figure 12: two MNOs' DUs → RU-sharing middlebox → DAS middlebox →
    /// four shared RUs across a floor. The two middleboxes are chained the
    /// paper's way (§5, Figure 8): each on a VF of one SR-IOV NIC whose
    /// physical port hangs off the fronthaul switch, steered purely by MAC.
    /// Returns a deployment whose `mbs[0]` is the RU-share host and
    /// `mbs[1]` the DAS host.
    pub fn rushare_das_chain(
        ru_center_hz: i64,
        ru_num_prb: u16,
        du_cells: Vec<CellConfig>,
        ru_positions: &[Position],
        seed: u64,
    ) -> Deployment {
        let n_dus = du_cells.len();
        let mut w = Wiring::new(n_dus + ru_positions.len() + 1, seed);
        // RU-share's "RU" is the DAS middlebox, DAS's "DU" is RU-share.
        let carrier = (ru_center_hz, ru_num_prb);
        let (share, ports, pcis) = w.add_shared_dus(carrier, du_cells, mb_mac(1));
        let ru_macs: Vec<EthernetAddress> = (0..ru_positions.len() as u8).map(ru_mac).collect();
        let das = Das::new(
            "das",
            DasConfig { mb_mac: mb_mac(1), du_mac: mb_mac(0), ru_macs: ru_macs.clone() },
        );
        let hosts: Vec<(Box<dyn Node>, EthernetAddress)> = vec![
            (Box::new(MiddleboxHost::new(share, mb_mac(0), CostModel::dpdk(), 1)), mb_mac(0)),
            (Box::new(MiddleboxHost::new(das, mb_mac(1), CostModel::dpdk(), 1)), mb_mac(1)),
        ];
        let chain = build_chain(&mut w.engine, "fig12", ChainSpec::default(), hosts);
        w.attach(chain.nic, MB_GBPS);
        w.mbs.extend(chain.members.iter().map(|&(host, _)| host));
        // Everything that is not a VF is on the wire side: nothing floods.
        let nic = w.engine.node_as_mut::<SriovNic>(chain.nic);
        for wire_mac in (0..n_dus as u8).map(du_mac).chain(ru_macs.iter().copied()) {
            nic.learn_static(wire_mac, PHYS_PORT);
        }
        for (k, pos) in ru_positions.iter().enumerate() {
            w.add_ru(k as u8, mb_mac(1), carrier, ports, *pos, pcis.clone());
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mac_scheme_is_disjoint() {
        assert_ne!(du_mac(0), mb_mac(0));
        assert_ne!(mb_mac(0), ru_mac(0));
        assert_ne!(du_mac(1), du_mac(2));
    }

    #[test]
    fn floor_positions_fit_the_floor() {
        let ps = floor_ru_positions(2);
        assert_eq!(ps.len(), 4);
        for p in &ps {
            assert!(p.x > 0.0 && p.x < 50.9);
            assert!(p.y > 0.0 && p.y < 20.9);
            assert_eq!(p.floor, 2);
        }
    }

    #[test]
    fn single_cell_builder_runs() {
        let cell = CellConfig::mhz40(1, 3_430_000_000, 4);
        let mut dep = Deployment::single_cell(cell, Position::new(10.0, 10.0, 0), 1);
        let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
        dep.run_ms(80);
        assert!(matches!(dep.ue_stats(ue).attach, rb_radio::medium::UeAttach::Attached(1)));
    }
}
