//! Deterministic topology layout: MACs, sites, eAxC allocation.
//!
//! The layout is a pure function of `(seed, spec)`. The only seeded
//! degree of freedom is per-site structure that the spec gives as a
//! range (DAS RU counts); everything else — MAC addresses, eAxC raws,
//! site→DU assignment — is arithmetic on indexes, so captures generated
//! from equal `(seed, spec)` pairs are bit-identical on every platform.
//!
//! ## eAxC allocation rules
//!
//! The dataplane shards flows by `(eAxC raw, direction)` and several
//! middleboxes key internal state by eAxC fields, so the allocator
//! enforces three rules that make the generated city independent of the
//! worker count:
//!
//! 1. **RU-sharing sites get a 16-aligned block** and stream `k` uses
//!    raw `block + k`: the middlebox keys per-slot C-plane state by the
//!    4-bit `ru_port`, shared across the site's operator DUs, so all of
//!    a stream's planes must agree on `ru_port` and no two streams of
//!    one site may collide in it.
//! 2. **dMIMO raws live in a reserved tag space** `0xF000 | tag << 4 |
//!    port`: the middlebox rewrites only the low `ru_port` nibble when
//!    mapping virtual to physical ports, so the rewritten raw stays
//!    inside the site's own 16-raw block and never collides with
//!    another site's streams.
//! 3. **Everything else draws unique raws** from a sequential counter
//!    below [`crate::scengen::spec::EAXC_DMIMO_BASE`].

use rb_apps::rushare::CarrierSpec;
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::freq;
use rb_netsim::rng::SplitMix64;

use super::spec::{ScenarioSpec, EAXC_DMIMO_BASE};

/// Subcarrier spacing of every generated carrier (30 kHz, μ = 1).
pub const SCS_HZ: u64 = 30_000;
/// Center frequency of the shared RU in RU-sharing and chained sites.
pub const RU_CENTER_HZ: i64 = 3_460_000_000;
/// PRB width of the shared RU.
pub const RU_NUM_PRB: u16 = 48;
/// PRB width of each operator carrier inside the shared RU.
pub const DU_NUM_PRB: u16 = 12;

/// MAC group byte for the gateway (the runtime's receive MAC).
const MAC_GW: u8 = 0x01;
/// MAC group byte for DUs.
const MAC_DU: u8 = 0x02;
/// MAC group byte for RUs.
const MAC_RU: u8 = 0x03;
/// MAC group byte for chain-internal stage addresses.
const MAC_INNER: u8 = 0x04;

/// A locally-administered scenario MAC: `02:00:53:<group>:<hi>:<lo>`.
fn mac(group: u8, idx: u16) -> EthernetAddress {
    let [hi, lo] = idx.to_be_bytes();
    EthernetAddress::new(0x02, 0x00, 0x53, group, hi, lo)
}

/// What kind of middlebox serves a site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// Plain cell: one RU, direction-aware forwarding.
    Cell,
    /// Distributed antenna system over `rus`.
    Das,
    /// dMIMO virtual RU; the payload is the 8-bit site tag.
    Dmimo {
        /// Tag embedded in the site's reserved eAxC block.
        tag: u8,
    },
    /// Neutral-host RU sharing across the operator DUs.
    RuShare,
    /// RU-sharing stage feeding a DAS stage through internal MACs.
    ChainRuShareDas,
}

/// Who owns a generated eAxC stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Fixed site infrastructure traffic.
    Baseline,
    /// A moving UE's dedicated stream.
    Ue(usize),
}

/// One eAxC stream the generator drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamDef {
    /// Packed eAxC id (default 4/4/4/4 mapping).
    pub raw: u16,
    /// Owner.
    pub kind: StreamKind,
}

/// One deployed site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    /// Index in [`Topology::sites`].
    pub id: usize,
    /// Middlebox kind.
    pub kind: SiteKind,
    /// Serving DU indexes into [`Topology::dus`]. One entry except for
    /// RU-sharing and chained sites, which list all operator DUs.
    pub dus: Vec<usize>,
    /// The site's radios.
    pub rus: Vec<EthernetAddress>,
    /// Chain-internal stage MACs (`[rushare_out, das_in]`), empty
    /// elsewhere.
    pub inner: Vec<EthernetAddress>,
    /// Baseline streams the site's infrastructure drives.
    pub streams: Vec<StreamDef>,
}

/// A moving UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ue {
    /// Home site (always a cell site).
    pub home_site: usize,
    /// The UE's dedicated eAxC raw.
    pub raw: u16,
}

/// The deterministic layout of one generated deployment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    /// The gateway MAC every wire frame is addressed to (the runtime's
    /// VF filter address).
    pub gateway: EthernetAddress,
    /// DU fronthaul MACs.
    pub dus: Vec<EthernetAddress>,
    /// All sites, cells first, then DAS, dMIMO, RU-sharing, chains.
    pub sites: Vec<Site>,
    /// Moving UEs.
    pub ues: Vec<Ue>,
}

impl Topology {
    /// Lay out `spec` deterministically. `seed` only influences ranged
    /// structure (DAS RU counts). Panics on an invalid spec — call
    /// [`ScenarioSpec::validate`] first (the scenario builder does).
    pub fn build(seed: u64, spec: &ScenarioSpec) -> Topology {
        assert!(spec.validate().is_ok(), "invalid spec: {:?}", spec.validate());
        let mut rng = SplitMix64::new(seed ^ 0x7090_5c3a_11ab_00d1);
        let gateway = mac(MAC_GW, 0);
        let dus: Vec<EthernetAddress> = (0..spec.dus).map(|d| mac(MAC_DU, d as u16)).collect();
        let mut sites = Vec::with_capacity(spec.total_sites());
        let mut next_ru: u16 = 0;
        let mut next_inner: u16 = 0;
        let mut alloc = EaxcAlloc { next: 1 };
        let mut next_du = RoundRobin { next: 0, len: spec.dus };

        for _ in 0..spec.cell_sites {
            let id = sites.len();
            sites.push(Site {
                id,
                kind: SiteKind::Cell,
                dus: vec![next_du.take()],
                rus: take_rus(&mut next_ru, 1),
                inner: Vec::new(),
                streams: alloc.baseline(spec.streams_per_cell),
            });
        }
        for _ in 0..spec.das_sites {
            let id = sites.len();
            let n = spec.das_rus_min + rng.below(spec.das_rus_max - spec.das_rus_min + 1);
            sites.push(Site {
                id,
                kind: SiteKind::Das,
                dus: vec![next_du.take()],
                rus: take_rus(&mut next_ru, n),
                inner: Vec::new(),
                streams: alloc.baseline(spec.das_streams_per_site),
            });
        }
        for t in 0..spec.dmimo_sites {
            let id = sites.len();
            let tag = t as u8;
            // Downlink drives one stream per virtual port; uplink reuses
            // the same tag block with the per-radio local port in the low
            // nibble (the middlebox rewrite stays inside the block).
            let vports = spec.dmimo_rus_per_site * spec.dmimo_ports_per_ru;
            let streams = (0..vports)
                .map(|vp| StreamDef {
                    raw: EAXC_DMIMO_BASE | u16::from(tag) << 4 | vp as u16,
                    kind: StreamKind::Baseline,
                })
                .collect();
            sites.push(Site {
                id,
                kind: SiteKind::Dmimo { tag },
                dus: vec![next_du.take()],
                rus: take_rus(&mut next_ru, spec.dmimo_rus_per_site),
                inner: Vec::new(),
                streams,
            });
        }
        for _ in 0..spec.rushare_sites {
            let id = sites.len();
            sites.push(Site {
                id,
                kind: SiteKind::RuShare,
                dus: (0..spec.operators).collect(),
                rus: take_rus(&mut next_ru, 1),
                inner: Vec::new(),
                streams: alloc.block16(spec.rushare_streams_per_site),
            });
        }
        for _ in 0..spec.chain_sites {
            let id = sites.len();
            let inner = vec![mac(MAC_INNER, next_inner), mac(MAC_INNER, next_inner + 1)];
            next_inner += 2;
            sites.push(Site {
                id,
                kind: SiteKind::ChainRuShareDas,
                dus: (0..spec.operators).collect(),
                rus: take_rus(&mut next_ru, spec.chain_das_rus),
                inner,
                streams: alloc.block16(spec.rushare_streams_per_site),
            });
        }

        let ues = (0..spec.ues)
            .map(|u| Ue {
                home_site: if spec.cell_sites > 0 { u % spec.cell_sites } else { 0 },
                raw: alloc.take(),
            })
            .collect();
        Topology { gateway, dus, sites, ues }
    }

    /// Total radios across all sites.
    pub fn ru_count(&self) -> usize {
        self.sites.iter().map(|s| s.rus.len()).sum()
    }

    /// Directional `(eAxC raw, direction)` flow count the generator
    /// drives: two per baseline/UE stream except dMIMO sites, where the
    /// uplink reuses the tag block's low local-port raws.
    pub fn stream_count(&self, spec: &ScenarioSpec) -> usize {
        let site_flows: usize = self
            .sites
            .iter()
            .map(|s| match s.kind {
                SiteKind::Dmimo { .. } => s.streams.len() + spec.dmimo_ports_per_ru,
                _ => s.streams.len() * 2,
            })
            .sum();
        site_flows + self.ues.len() * 2
    }

    /// The operator carrier layout of RU-sharing (and chained) sites:
    /// `operators` aligned 12-PRB carriers inside one 48-PRB RU.
    pub fn shared_carriers(&self, operators: usize) -> (CarrierSpec, Vec<CarrierSpec>) {
        let ru = CarrierSpec { center_hz: RU_CENTER_HZ, num_prb: RU_NUM_PRB, scs_hz: SCS_HZ };
        let dus = (0..operators)
            .map(|j| {
                let offset = (j as u16) * DU_NUM_PRB;
                CarrierSpec {
                    center_hz: freq::aligned_du_center_hz(
                        RU_CENTER_HZ,
                        RU_NUM_PRB,
                        DU_NUM_PRB,
                        offset,
                        SCS_HZ,
                    ),
                    num_prb: DU_NUM_PRB,
                    scs_hz: SCS_HZ,
                }
            })
            .collect();
        (ru, dus)
    }

    /// Unpack a raw against the deployment's (default) mapping.
    pub fn eaxc(raw: u16) -> Eaxc {
        Eaxc::unpack(raw, &EaxcMapping::DEFAULT)
    }
}

fn take_rus(next: &mut u16, n: usize) -> Vec<EthernetAddress> {
    let base = *next;
    *next += n as u16;
    (base..base + n as u16).map(|i| mac(MAC_RU, i)).collect()
}

struct RoundRobin {
    next: usize,
    len: usize,
}

impl RoundRobin {
    fn take(&mut self) -> usize {
        let v = self.next;
        self.next = (self.next + 1) % self.len.max(1);
        v
    }
}

struct EaxcAlloc {
    next: u16,
}

impl EaxcAlloc {
    fn take(&mut self) -> u16 {
        let v = self.next;
        assert!(v < EAXC_DMIMO_BASE, "eAxC space exhausted");
        self.next += 1;
        v
    }

    fn baseline(&mut self, n: usize) -> Vec<StreamDef> {
        (0..n).map(|_| StreamDef { raw: self.take(), kind: StreamKind::Baseline }).collect()
    }

    /// A 16-aligned block for an RU-sharing site; stream `k` gets
    /// `block + k` so each stream owns a distinct `ru_port` nibble.
    fn block16(&mut self, n: usize) -> Vec<StreamDef> {
        let block = (self.next + 15) & !15;
        assert!(block + 16 <= EAXC_DMIMO_BASE, "eAxC space exhausted");
        self.next = block + 16;
        (0..n as u16).map(|k| StreamDef { raw: block + k, kind: StreamKind::Baseline }).collect()
    }
}
