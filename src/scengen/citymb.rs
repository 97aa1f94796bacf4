//! The composite city middlebox: every generated site behind one MAC.
//!
//! The dataplane runtime hosts exactly one middlebox per worker, so the
//! whole generated city is folded into a [`CityMb`] that routes each
//! frame to its site's middlebox instance and runs chained stages
//! internally. Routing is deterministic and shard-compatible:
//!
//! * frames from a radio are routed by **source MAC** (each RU belongs
//!   to exactly one site);
//! * frames from a DU are routed by **eAxC raw** (each baseline stream
//!   belongs to exactly one site);
//! * a UE's raw maps to a round-indexed segment table derived from the
//!   handover schedule — the composite plays the role of the SMO that
//!   repoints fronthaul routes at each SMARTHO handover.
//!
//! Because every rule depends only on the frame itself (never on
//! cross-flow state), a frame is handled identically whether the city
//! runs on one worker or sixteen.

use rb_apps::das::{Das, DasConfig, DasStats};
use rb_apps::dmimo::{Dmimo, DmimoConfig, PhysicalRu};
use rb_apps::rushare::{RuShare, RuShareConfig, SharedDu};
use rb_core::hash::{FrameMap, StreamKey, StreamMap};
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::{actions, chain};
use rb_fronthaul::eaxc::EaxcMapping;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::Numerology;

use super::schedule::EventSchedule;
use super::spec::ScenarioSpec;
use super::topo::{SiteKind, Topology};

/// Direction-aware forwarder for plain cell sites: DU-origin frames go
/// to the RU, RU-origin frames to the DU, everything re-sourced from
/// the gateway MAC.
#[derive(Debug, Clone)]
pub struct CellFwd {
    gw: EthernetAddress,
    du: EthernetAddress,
    ru: EthernetAddress,
    /// Frames forwarded.
    pub forwarded: u64,
    /// Frames from neither end, dropped.
    pub unknown_src: u64,
}

impl CellFwd {
    fn forward(&mut self, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        let dst = if msg.eth.src == self.du {
            self.ru
        } else if msg.eth.src == self.ru {
            self.du
        } else {
            self.unknown_src += 1;
            return;
        };
        self.forwarded += 1;
        actions::redirect(&mut msg, self.gw, dst);
        actions::emit(out, msg);
    }
}

impl Middlebox for CellFwd {
    fn name(&self) -> &str {
        "cellfwd"
    }

    fn on_cplane(&mut self, _ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.forward(msg, out);
    }

    fn on_uplane(&mut self, _ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.forward(msg, out);
    }
}

/// An RU-sharing stage feeding a DAS stage through chain-internal MACs:
/// the RU-sharing middlebox believes the DAS entry (`b`) is its RU, the
/// DAS believes the RU-sharing exit (`a`) is its DU. Outputs addressed
/// to an internal MAC are re-dispatched in place; everything else
/// leaves the chain.
pub struct ChainMb {
    /// The neutral-host stage.
    pub rushare: RuShare,
    /// The distribution stage.
    pub das: Das,
    a: EthernetAddress,
    b: EthernetAddress,
    dus: Vec<EthernetAddress>,
    /// Internal messages dropped by the hop cap (a routing loop would
    /// be a bug in the stage wiring; never expected).
    pub dropped_loops: u64,
}

impl ChainMb {
    /// Enter at the stage facing the sender (a DU's frame at the
    /// RU-sharing stage, a radio's at the DAS) and let
    /// [`chain::steer`] carry internal hops.
    fn enter(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        let first = usize::from(!self.dus.contains(&msg.eth.src));
        let mut stages: [(EthernetAddress, &mut dyn Middlebox); 2] =
            [(self.a, &mut self.rushare), (self.b, &mut self.das)];
        self.dropped_loops += chain::steer(ctx, &mut stages, first, msg, out);
    }
}

/// One site's middlebox instance inside the composite.
pub enum SiteMb {
    /// Plain cell forwarder.
    Cell(CellFwd),
    /// DAS site.
    Das(Das),
    /// dMIMO site.
    Dmimo(Dmimo),
    /// Neutral-host RU sharing.
    RuShare(RuShare),
    /// RU-sharing → DAS chain.
    Chain(ChainMb),
}

/// The whole generated city as one runtime-hostable middlebox.
pub struct CityMb {
    sites: Vec<SiteMb>,
    // Site per radio MAC (keyed with eAxC 0) and per stream raw (keyed with
    // the zero MAC).
    by_src_ru: StreamMap<usize>,
    by_raw: StreamMap<usize>,
    // Per-UE raw: (first round, serving site) segments, sorted.
    ue_routes: FrameMap<u16, Vec<(u32, usize)>>,
    mapping: EaxcMapping,
    /// Frames no routing rule claimed, dropped.
    pub unknown_route: u64,
}

impl CityMb {
    /// Build a fresh instance (one per worker) for a laid-out scenario.
    pub fn build(spec: &ScenarioSpec, topo: &Topology, schedule: &EventSchedule) -> CityMb {
        let gw = topo.gateway;
        let mut sites = Vec::with_capacity(topo.sites.len());
        let mut by_src_ru = StreamMap::default();
        let mut by_raw = StreamMap::default();
        for site in &topo.sites {
            for ru in &site.rus {
                by_src_ru.insert(ru_key(*ru), site.id);
            }
            for s in &site.streams {
                by_raw.insert(raw_key(s.raw), site.id);
            }
            let du = topo.dus[site.dus[0]];
            let name = format!("site{}", site.id);
            let mb = match site.kind {
                SiteKind::Cell => {
                    SiteMb::Cell(CellFwd { gw, du, ru: site.rus[0], forwarded: 0, unknown_src: 0 })
                }
                SiteKind::Das => SiteMb::Das(
                    Das::new(name, DasConfig { mb_mac: gw, du_mac: du, ru_macs: site.rus.clone() })
                        .with_merge_window(spec.das_merge_window),
                ),
                SiteKind::Dmimo { .. } => {
                    // The whole 16-raw tag block routes here: downlink
                    // virtual ports and uplink local ports share it.
                    let block = site.streams[0].raw & !0xF;
                    for k in 0..16 {
                        by_raw.insert(raw_key(block | k), site.id);
                    }
                    SiteMb::Dmimo(Dmimo::new(
                        name,
                        DmimoConfig {
                            mb_mac: gw,
                            du_mac: du,
                            rus: site
                                .rus
                                .iter()
                                .map(|&mac| PhysicalRu {
                                    mac,
                                    ports: spec.dmimo_ports_per_ru as u8,
                                })
                                .collect(),
                            ssb_copy: false,
                            ssb: None,
                        },
                    ))
                }
                SiteKind::RuShare => SiteMb::RuShare(RuShare::new(
                    name,
                    shared_cfg(topo, spec, &site.dus, gw, site.rus[0]),
                )),
                SiteKind::ChainRuShareDas => {
                    let (a, b) = (site.inner[0], site.inner[1]);
                    let rushare = RuShare::new(
                        format!("{name}-rushare"),
                        shared_cfg(topo, spec, &site.dus, a, b),
                    );
                    let das = Das::new(
                        format!("{name}-das"),
                        DasConfig { mb_mac: b, du_mac: a, ru_macs: site.rus.clone() },
                    )
                    .with_merge_window(spec.das_merge_window);
                    SiteMb::Chain(ChainMb {
                        rushare,
                        das,
                        a,
                        b,
                        dus: site.dus.iter().map(|&d| topo.dus[d]).collect(),
                        dropped_loops: 0,
                    })
                }
            };
            sites.push(mb);
        }
        let mut ue_routes = FrameMap::default();
        for (u, ue) in topo.ues.iter().enumerate() {
            let mut segs = vec![(0u32, ue.home_site)];
            for e in schedule.events.iter().filter(|e| e.ue == u) {
                segs.push((e.resume_round(), e.to_site));
            }
            ue_routes.insert(ue.raw, segs);
        }
        CityMb {
            sites,
            by_src_ru,
            by_raw,
            ue_routes,
            mapping: EaxcMapping::DEFAULT,
            unknown_route: 0,
        }
    }

    /// The per-site middlebox instances, in site-index order.
    pub fn sites(&self) -> &[SiteMb] {
        &self.sites
    }

    /// Field-wise sum of every DAS stage's counters (standalone sites
    /// and chain stages).
    pub fn das_stats_sum(&self) -> DasStats {
        let mut sum = DasStats::default();
        for site in &self.sites {
            match site {
                SiteMb::Das(d) => sum.merge(&d.stats),
                SiteMb::Chain(c) => sum.merge(&c.das.stats),
                _ => {}
            }
        }
        sum
    }

    fn route_of(&self, msg: &FhMessage) -> Option<usize> {
        if let Some(&s) = self.by_src_ru.find(ru_key(msg.eth.src)) {
            return Some(s);
        }
        let raw = msg.eaxc.pack(&self.mapping);
        if let Some(&s) = self.by_raw.find(raw_key(raw)) {
            return Some(s);
        }
        let segs = self.ue_routes.get(&raw)?;
        let round = match &msg.body {
            Body::CPlane(cp) => cp.symbol.absolute_symbol(Numerology::Mu1),
            Body::UPlane(up) => up.symbol.absolute_symbol(Numerology::Mu1),
            Body::Recovery(_) => return None,
        } as u32;
        let mut site = segs.first()?.1;
        for &(from, s) in segs {
            if from > round {
                break;
            }
            site = s;
        }
        Some(site)
    }

    fn dispatch(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        let Some(idx) = self.route_of(&msg) else {
            self.unknown_route += 1;
            return;
        };
        match &mut self.sites[idx] {
            SiteMb::Cell(f) => f.handle_into(ctx, msg, out),
            SiteMb::Das(d) => d.handle_into(ctx, msg, out),
            SiteMb::Dmimo(d) => d.handle_into(ctx, msg, out),
            SiteMb::RuShare(r) => r.handle_into(ctx, msg, out),
            SiteMb::Chain(c) => c.enter(ctx, msg, out),
        }
    }
}

impl Middlebox for CityMb {
    fn name(&self) -> &str {
        "city"
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.dispatch(ctx, msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.dispatch(ctx, msg, out);
    }
}

/// `CityMb::by_src_ru`'s key for a radio.
fn ru_key(mac: EthernetAddress) -> StreamKey {
    StreamKey::new(mac, 0)
}

/// `CityMb::by_raw`'s key for a stream.
fn raw_key(raw: u16) -> StreamKey {
    StreamKey::new(EthernetAddress([0; 6]), raw)
}

fn shared_cfg(
    topo: &Topology,
    spec: &ScenarioSpec,
    dus: &[usize],
    mb_mac: EthernetAddress,
    ru_mac: EthernetAddress,
) -> RuShareConfig {
    let (ru, carriers) = topo.shared_carriers(spec.operators);
    RuShareConfig {
        mb_mac,
        ru_mac,
        ru,
        dus: dus
            .iter()
            .zip(carriers)
            .map(|(&d, carrier)| SharedDu { mac: topo.dus[d], du_id: d as u16 + 1, carrier })
            .collect(),
    }
}
