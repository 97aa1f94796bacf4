//! Deployments mirroring the paper's testbed configurations.
//!
//! A [`Deployment`] wires emulated DUs, RUs and middlebox hosts onto one
//! fronthaul switch (the testbed's Arista) over a shared radio
//! [`rb_radio::medium`] — [`Deployment::new`] plus `add_du`, `add_ru`,
//! `add_mb` and `add_host`, which fix the link rates and start each node's
//! tick — and is the handle for adding UEs, driving simulated time and
//! measuring per-UE throughput: the workflow of every §6 experiment. The
//! presets (`single_cell` … `rushare_das_chain`) are short functions over
//! those five methods.
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

/// Every cell here runs at 30 kHz subcarrier spacing.
const NUMEROLOGY: Numerology = Numerology::Mu1;

/// One simulated testbed: DUs, middlebox hosts and RUs on one fronthaul
/// switch, over one shared air interface. Wire it with [`Deployment::new`]
/// and the `add_*` methods, or take one of the presets below.
pub struct Deployment {
    /// The event engine (drive with [`Deployment::run_ms`]).
    pub engine: Engine,
    /// The shared air interface.
    pub medium: SharedMedium,
    /// DU node ids, in the order added.
    pub dus: Vec<NodeId>,
    /// RU node ids, in the order added.
    pub rus: Vec<NodeId>,
    /// Middlebox host node ids, in the order added.
    pub mbs: Vec<NodeId>,
    /// The fronthaul switch node id.
    pub switch: NodeId,
}

impl Default for Deployment {
    fn default() -> Self {
        Self::new()
    }
}

impl Deployment {
    /// An empty testbed: the engine, the air interface and a fronthaul
    /// switch that grows a port per node added.
    pub fn new() -> Deployment {
        let medium = medium::shared(Medium::new(MediumParams::default()));
        let mut engine = Engine::new();
        let switch = engine.add_node(Box::new(Switch::new("fronthaul-switch", 0)));
        Deployment { engine, medium, dus: vec![], rus: vec![], mbs: vec![], switch }
    }

    /// Cable `node`'s port 0 to the next free switch port.
    fn attach(&mut self, node: NodeId, gbps: f64) {
        let p = self.engine.node_as_mut::<Switch>(self.switch).add_port();
        self.engine.connect(port(self.switch, p), port(node, 0), SWITCH_LATENCY, gbps);
    }

    /// Add a DU and start its slot tick.
    pub fn add_du(&mut self, cfg: DuConfig) -> NodeId {
        let du = Du::new(cfg, self.medium.clone());
        let id = self.engine.add_node(Box::new(du));
        self.attach(id, DU_GBPS);
        Du::start(&mut self.engine, id, NUMEROLOGY);
        self.dus.push(id);
        id
    }

    /// Add RU `k` (MAC `ru_mac(k)`, tag `k + 1`) with `ports` antenna ports
    /// at `pos`, on the carrier (`center_hz`, `num_prb`), serving `pcis`
    /// towards `peer`, and start its slot tick.
    pub fn add_ru(
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
        Ru::start(&mut self.engine, id, NUMEROLOGY, tick);
        self.rus.push(id);
        id
    }

    /// Add `mb` on a host at `mac`, charging `cost` to `cores` cores.
    pub fn add_mb<M: Middlebox>(
        &mut self,
        mb: M,
        mac: EthernetAddress,
        cost: CostModel,
        cores: usize,
    ) -> NodeId {
        self.add_host(MiddleboxHost::new(mb, mac, cost, cores))
    }

    /// Add a ready-made host; one built `with_tick` gets its first tick one
    /// period from now.
    pub fn add_host<M: Middlebox>(&mut self, host: MiddleboxHost<M>) -> NodeId {
        let tick = host.periodic_tick();
        let id = self.engine.add_node(Box::new(host));
        self.attach(id, MB_GBPS);
        if let Some((period, tag)) = tick {
            self.engine.schedule_timer(id, self.engine.now() + period, tag);
        }
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
        let mut dus = Vec::new();
        for (k, cell) in (0u8..).zip(du_cells) {
            dus.push(SharedDu {
                mac: du_mac(k),
                du_id: cell.pci,
                carrier: CarrierSpec {
                    center_hz: cell.center_hz,
                    num_prb: cell.num_prb,
                    scs_hz: scs,
                },
            });
            self.add_du(DuConfig::new(cell, du_mac(k), mb_mac(0)));
        }
        let ru = CarrierSpec { center_hz: ru_center_hz, num_prb: ru_num_prb, scs_hz: scs };
        let share = RuShare::new("rushare", RuShareConfig { mb_mac: mb_mac(0), ru_mac, ru, dus });
        (share, ports, pcis)
    }

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
        rb_radio::timebase::slot_at(NUMEROLOGY, SimTime(ms * 1_000_000))
    }

    // ------------------------------------------------------------------
    // Presets
    // ------------------------------------------------------------------

    /// A single cell wired directly to one RU — the paper's baselines.
    pub fn single_cell(cell: CellConfig, ru_pos: Position) -> Deployment {
        Deployment::multi_cell(vec![(cell, ru_pos)])
    }

    /// Several independent cells, each on its own RU (Figure 11 options
    /// O1/O2). Cell k uses DU k and RU k.
    pub fn multi_cell(cells: Vec<(CellConfig, Position)>) -> Deployment {
        let mut dep = Deployment::new();
        for (k, (cell, pos)) in (0u8..).zip(cells) {
            let (carrier, ports, pci) = ((cell.center_hz, cell.num_prb), cell.layers, cell.pci);
            dep.add_du(DuConfig::new(cell, du_mac(k), ru_mac(k)));
            dep.add_ru(k, du_mac(k), carrier, ports, pos, vec![pci]);
        }
        dep
    }

    /// One cell distributed over `ru_positions` through a DAS middlebox
    /// (§6.2.1 / Figure 11 option O3).
    pub fn das(cell: CellConfig, ru_positions: &[Position]) -> Deployment {
        let mut dep = Deployment::new();
        let (carrier, ports, pci) = ((cell.center_hz, cell.num_prb), cell.layers, cell.pci);
        let ru_macs = (0u8..).zip(ru_positions).map(|(k, _)| ru_mac(k)).collect();
        // The DU believes the middlebox is its RU; RUs believe it is the DU.
        dep.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
        let das = Das::new("das", DasConfig { mb_mac: mb_mac(0), du_mac: du_mac(0), ru_macs });
        dep.add_mb(das, mb_mac(0), CostModel::dpdk(), 1);
        for (k, pos) in (0u8..).zip(ru_positions) {
            dep.add_ru(k, mb_mac(0), carrier, ports, *pos, vec![pci]);
        }
        dep
    }

    /// A virtual RU built from several small radios through the dMIMO
    /// middlebox (§6.2.2). `rus` is (position, antenna ports) per radio;
    /// the cell's `layers` must equal the total.
    pub fn dmimo(cell: CellConfig, rus: &[(Position, u8)], ssb_copy: bool) -> Deployment {
        let total: u8 = rus.iter().map(|(_, p)| p).sum();
        assert_eq!(cell.layers, total, "cell layers must match aggregate ports");
        let mut dep = Deployment::new();
        let (carrier, pci) = ((cell.center_hz, cell.num_prb), cell.pci);
        let ssb = SsbBand { start_prb: cell.ssb.start_prb, num_prb: cell.ssb.num_prb };
        dep.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
        let mb = Dmimo::new(
            "dmimo",
            DmimoConfig {
                mb_mac: mb_mac(0),
                du_mac: du_mac(0),
                rus: (0u8..)
                    .zip(rus)
                    .map(|(k, &(_, ports))| PhysicalRu { mac: ru_mac(k), ports })
                    .collect(),
                ssb_copy,
                ssb: Some(ssb),
            },
        );
        dep.add_mb(mb, mb_mac(0), CostModel::dpdk(), 1);
        for (k, &(pos, ports)) in (0u8..).zip(rus) {
            dep.add_ru(k, mb_mac(0), carrier, ports, pos, vec![pci]);
        }
        dep
    }

    /// Several DUs sharing one wide RU through the RU-sharing middlebox
    /// (§6.2.3). The RU carrier is (`ru_center_hz`, `ru_num_prb`); each
    /// DU cell carries its own center frequency.
    pub fn rushare(
        ru_center_hz: i64,
        ru_num_prb: u16,
        du_cells: Vec<CellConfig>,
        ru_pos: Position,
    ) -> Deployment {
        let mut dep = Deployment::new();
        let carrier = (ru_center_hz, ru_num_prb);
        let (share, ports, pcis) = dep.add_shared_dus(carrier, du_cells, ru_mac(0));
        dep.add_mb(share, mb_mac(0), CostModel::dpdk(), 1);
        dep.add_ru(0, mb_mac(0), carrier, ports, ru_pos, pcis);
        dep
    }

    /// A cell behind an inline PRB monitor (§6.2.4).
    pub fn prbmon(cell: CellConfig, ru_pos: Position) -> Deployment {
        let mut dep = Deployment::new();
        let (carrier, ports, pci) = ((cell.center_hz, cell.num_prb), cell.layers, cell.pci);
        dep.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
        let mon = PrbMon::new(
            "prbmon",
            PrbMonConfig::standard(mb_mac(0), du_mac(0), ru_mac(0), carrier.1),
        );
        dep.add_mb(mon, mb_mac(0), CostModel::dpdk(), 1);
        dep.add_ru(0, mb_mac(0), carrier, ports, ru_pos, vec![pci]);
        dep
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
    ) -> Deployment {
        let mut dep = Deployment::new();
        // RU-share's "RU" is the DAS middlebox, DAS's "DU" is RU-share.
        let carrier = (ru_center_hz, ru_num_prb);
        let (share, ports, pcis) = dep.add_shared_dus(carrier, du_cells, mb_mac(1));
        let ru_macs: Vec<EthernetAddress> =
            (0u8..).zip(ru_positions).map(|(k, _)| ru_mac(k)).collect();
        let das = Das::new(
            "das",
            DasConfig { mb_mac: mb_mac(1), du_mac: mb_mac(0), ru_macs: ru_macs.clone() },
        );
        let hosts: Vec<(Box<dyn Node>, EthernetAddress)> = vec![
            (Box::new(MiddleboxHost::new(share, mb_mac(0), CostModel::dpdk(), 1)), mb_mac(0)),
            (Box::new(MiddleboxHost::new(das, mb_mac(1), CostModel::dpdk(), 1)), mb_mac(1)),
        ];
        let chain = build_chain(&mut dep.engine, "fig12", ChainSpec::default(), hosts);
        dep.attach(chain.nic, MB_GBPS);
        dep.mbs.extend(chain.members.iter().map(|&(host, _)| host));
        // Everything that is not a VF is on the wire side: nothing floods.
        let du_macs = (0u8..).zip(&dep.dus).map(|(k, _)| du_mac(k));
        let nic = dep.engine.node_as_mut::<SriovNic>(chain.nic);
        for wire_mac in du_macs.chain(ru_macs) {
            nic.learn_static(wire_mac, PHYS_PORT);
        }
        for (k, pos) in (0u8..).zip(ru_positions) {
            dep.add_ru(k, mb_mac(1), carrier, ports, *pos, pcis.clone());
        }
        dep
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::middlebox::MbContext;
    use rb_fronthaul::msg::FhMessage;

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

    /// Per-UE stats and the fronthaul switch's flood count.
    fn outcome(dep: &Deployment, ues: usize) -> (Vec<UeStats>, u64) {
        let stats = (0..ues).map(|ue| dep.ue_stats(ue)).collect();
        (stats, dep.engine.node_as::<Switch>(dep.switch).floods)
    }

    #[test]
    fn the_das_preset_is_the_public_methods_called_in_order() {
        let cell = CellConfig::mhz100(1, 3_460_000_000, 4);
        let positions = floor_ru_positions(0);
        let mut preset = Deployment::das(cell.clone(), &positions);

        let mut by_hand = Deployment::new();
        by_hand.add_du(DuConfig::new(cell, du_mac(0), mb_mac(0)));
        let ru_macs = (0..4).map(ru_mac).collect();
        let das = Das::new("das", DasConfig { mb_mac: mb_mac(0), du_mac: du_mac(0), ru_macs });
        by_hand.add_mb(das, mb_mac(0), CostModel::dpdk(), 1);
        for (k, pos) in (0..).zip(positions) {
            by_hand.add_ru(k, mb_mac(0), (3_460_000_000, 273), 4, pos, vec![1]);
        }

        for dep in [&mut preset, &mut by_hand] {
            dep.add_ue(Position::new(12.0, 10.0, 0), 4);
            dep.add_ue(Position::new(40.0, 10.0, 0), 4);
            dep.run_ms(120);
        }
        let got = outcome(&preset, 2);
        assert!(got.0.iter().all(|st| st.dl_bits > 0), "both UEs served: {got:?}");
        assert_eq!(got, outcome(&by_hand, 2));
    }

    #[test]
    fn the_fig12_chain_never_floods_its_nic() {
        use rb_fronthaul::freq::aligned_du_center_hz;
        let cells = [(1, 0), (2, 160)]
            .map(|(pci, offset)| {
                let center = aligned_du_center_hz(3_460_000_000, 273, 106, offset, 30_000);
                CellConfig::new(pci, center, 106, 4)
            })
            .to_vec();
        let mut dep =
            Deployment::rushare_das_chain(3_460_000_000, 273, cells, &floor_ru_positions(0));
        let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
        dep.run_ms(120);
        assert!(matches!(dep.ue_stats(ue).attach, rb_radio::medium::UeAttach::Attached(_)));
        // `build_chain` adds the NIC just before its hosts (a wrong id fails
        // the downcast).
        let nic = dep.mbs[0] - 1;
        assert_eq!(dep.engine.node_as::<SriovNic>(nic).floods, 0);
    }

    #[test]
    fn add_host_starts_a_ticking_hosts_tick() {
        struct CountTicks(u64);
        impl Middlebox for CountTicks {
            fn name(&self) -> &str {
                "count-ticks"
            }
            fn on_cplane(&mut self, _: &mut MbContext<'_>, _: FhMessage, _: &mut Vec<FhMessage>) {}
            fn on_uplane(&mut self, _: &mut MbContext<'_>, _: FhMessage, _: &mut Vec<FhMessage>) {}
            fn on_tick(&mut self, _: &mut MbContext<'_>, tag: u64, _: &mut Vec<FhMessage>) {
                self.0 += tag;
            }
        }
        let mut dep = Deployment::new();
        let host = MiddleboxHost::new(CountTicks(0), mb_mac(0), CostModel::dpdk(), 1)
            .with_tick(SimDuration::from_millis(1), 1);
        let id = dep.add_host(host);
        dep.run_ms(10);
        let ticks = dep.engine.node_as::<MiddleboxHost<CountTicks>>(id).middlebox().0;
        assert_eq!(ticks, 10, "one tick per period, the first one period in");
    }

    #[test]
    fn single_cell_builder_runs() {
        let cell = CellConfig::mhz40(1, 3_430_000_000, 4);
        let mut dep = Deployment::single_cell(cell, Position::new(10.0, 10.0, 0));
        let ue = dep.add_ue(Position::new(12.0, 10.0, 0), 4);
        dep.run_ms(80);
        assert!(matches!(dep.ue_stats(ue).attach, rb_radio::medium::UeAttach::Attached(1)));
    }
}
