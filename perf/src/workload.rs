//! The four workloads: what each feeds the middlebox, and why.
//!
//! A workload is a *working set* — one cycle of wire frames in arrival
//! order, grouped into per-symbol bursts — plus the middlebox it runs
//! through and the constants of its load shape. Everything is a pure
//! function of `(kind, seed, size)`; the program under test receives only
//! the generated frames.
//!
//! The generator replays the cycle for as long as a phase lasts. So that a
//! replay is seamless to the program, each frame knows its input stream
//! (`(source MAC, eAxC, direction)`, the pipeline's sequence-tracking
//! key) and the replayer stamps the eCPRI sequence byte from a per-stream
//! counter: `core.seq_gaps` and `core.seq_dups` stay 0 across the seam.

use std::collections::HashMap;

use ranbooster::scengen::{Scenario, ScenarioSpec, SiteKind};
use rb_apps::das::{Das, DasConfig};
use rb_core::middlebox::Passthrough;
use rb_core::pipeline::SeqMode;
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields, NUM_PRB_ALL};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::{self, EthernetAddress};
use rb_fronthaul::iq::{IqSample, Prb};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::{Numerology, SYMBOLS_PER_SLOT};
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;

/// Offset of the eCPRI `SeqId` byte in an untagged frame: Ethernet
/// header, 4-byte eCPRI common header, 2-byte eAxC id.
pub const SEQ_OFFSET: usize = ether::HEADER_LEN + 6;

/// The mapping every workload uses.
pub const MAPPING: EaxcMapping = EaxcMapping::DEFAULT;

/// Slots of the ingress and egress ring: the runtime's default.
pub const RING_CAPACITY: usize = 1_024;

/// PRBs of a 100 MHz carrier at 30 kHz: one U-plane frame is 7.7 KB.
const CARRIER_PRBS: usize = 273;

/// Which workload. The names are permanent: results are keyed by them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Bare forwarding of the smallest frames.
    FwdSmall,
    /// DAS downlink: replicate 7.7 KB frames to four radios.
    DasDl,
    /// DAS uplink: merge four radios' 7.7 KB frames into one.
    DasUl,
    /// The generated city: 1.2 k streams over every handler.
    CityMix,
}

impl Kind {
    /// All workloads, in reporting order.
    pub const ALL: [Kind; 4] = [Kind::FwdSmall, Kind::DasDl, Kind::DasUl, Kind::CityMix];

    /// The permanent name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::FwdSmall => "fwd_small",
            Kind::DasDl => "das_dl",
            Kind::DasUl => "das_ul",
            Kind::CityMix => "city_mix",
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Why this workload exists (the line `BENCHMARK.json` carries).
    pub fn why(self) -> &'static str {
        match self {
            Kind::FwdSmall => {
                "Passthrough, 16 eAxC flows of ~40 B DL C-plane frames: bare per-packet cost of \
                 rings, dispatch, parse and pipeline glue; BFP and payload copies do nothing"
            }
            Kind::DasDl => {
                "DAS 1 DU to 4 RUs, 273-PRB BFP9 DL frames (7.7 KB) replicated x4: copy-bound, \
                 no mantissa touched; payload sharing must show here, BFP kernels must not"
            }
            Kind::DasUl => {
                "Same DAS, 4 RUs x 4 ports of 7.7 KB UL frames merged 4 to 1: compute-bound and \
                 bimodal (3 cache inserts, 1 decompress-sum-recompress); BFP kernels show here"
            }
            Kind::CityMix => {
                "scengen city, 1212 streams over 72 sites of all five kinds, small frames: \
                 per-stream state 100x the other workloads; the generality check for every claim"
            }
        }
    }

    /// `rate_fps`: input frames per second of the open-loop (`paced`)
    /// phase. About half of the workload's `sat_frames_per_s` as first
    /// measured (2 significant digits), then frozen: a later commit is
    /// measured at the same offered load, never at a load derived from
    /// its own speed.
    pub fn rate_fps(self) -> f64 {
        match self {
            Kind::FwdSmall => 750_000.0,
            Kind::DasDl => 100_000.0,
            Kind::DasUl => 18_000.0,
            Kind::CityMix => 520_000.0,
        }
    }

    /// Most frames one input frame can turn into (sizes the closed-loop
    /// window so the egress ring cannot shed).
    pub fn max_fanout(self) -> usize {
        match self {
            Kind::FwdSmall | Kind::DasUl => 1,
            Kind::DasDl => DAS_RUS,
            // A DAS site of the city has up to `das_rus_max` radios.
            Kind::CityMix => ScenarioSpec::city().das_rus_max,
        }
    }

    /// Sequence policy of the pipeline: the city runs `Preserve`, the
    /// mode its determinism contract is stated for.
    pub fn seq_mode(self) -> SeqMode {
        match self {
            Kind::CityMix => SeqMode::Preserve,
            _ => SeqMode::Restamp,
        }
    }

    /// Names of the handler-time buckets of this workload, as per-layer
    /// metric names; [`Frame::class`] indexes them (see [`Kind::bucket`]).
    pub fn bucket_names(self) -> &'static [&'static str] {
        match self {
            Kind::FwdSmall => &[],
            Kind::DasDl => &["apps.das.dl_c_ns", "apps.das.dl_u_ns"],
            Kind::DasUl => &["apps.das.ul_cache_ns", "apps.das.ul_merge_ns"],
            Kind::CityMix => &[
                "apps.city.cell_ns",
                "apps.city.das_ns",
                "apps.city.dmimo_ns",
                "apps.city.rushare_ns",
                "apps.city.chain_ns",
            ],
        }
    }

    /// The bucket a handled frame's time is accounted to. `das_ul` splits
    /// by what the handler did (an uplink frame that completes its symbol
    /// emits the merge), the others by what the frame is.
    pub fn bucket(self, class: u8, emitted: usize) -> Option<usize> {
        match self {
            Kind::FwdSmall => None,
            Kind::DasUl => Some(usize::from(emitted > 0)),
            Kind::DasDl | Kind::CityMix => Some(usize::from(class)),
        }
    }
}

/// How much to generate: the benchmark's size, or a seconds-long one for
/// the tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// Working sets of tens of MB, larger than any cache they run in.
    Full,
    /// A few hundred frames per cycle.
    Smoke,
}

/// One wire frame of the working set.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The bytes, from the Ethernet header on.
    pub bytes: Vec<u8>,
    /// Index of the frame's input stream, for sequence stamping.
    pub stream: u32,
    /// Workload-specific class (see [`Kind::bucket_names`]).
    pub class: u8,
}

/// One replay cycle of a workload.
#[derive(Debug, Clone)]
pub struct WorkingSet {
    /// Frames in arrival order.
    pub frames: Vec<Frame>,
    /// For each symbol burst, the index one past its last frame.
    pub burst_ends: Vec<usize>,
    /// Distinct input streams (`Frame::stream` is below this).
    pub streams: usize,
}

impl WorkingSet {
    /// Cut the cycle into pieces of whole symbol bursts: a piece ends at
    /// the first burst end where `enough(frames, bytes)` of it holds, and
    /// what is left over at the end joins the last piece. Returns, for
    /// every piece, the index one past its last frame.
    pub fn pieces(&self, enough: impl Fn(usize, usize) -> bool) -> Vec<usize> {
        let mut ends = Vec::new();
        let (mut start, mut burst_start, mut bytes) = (0, 0, 0);
        for &end in &self.burst_ends {
            bytes += self.frames[burst_start..end].iter().map(|f| f.bytes.len()).sum::<usize>();
            burst_start = end;
            if enough(end - start, bytes) {
                ends.push(end);
                (start, bytes) = (end, 0);
            }
        }
        if start < self.frames.len() {
            ends.pop();
            ends.push(self.frames.len());
        }
        ends
    }

    /// Frames of each of `ends`' pieces.
    pub fn piece_frames(ends: &[usize]) -> impl Iterator<Item = f64> + '_ {
        std::iter::once(&0).chain(ends).zip(ends).map(|(start, end)| (end - start) as f64)
    }
}

/// A built workload: the working set plus what the phases need to host it.
pub struct Workload {
    /// Which one.
    pub kind: Kind,
    /// The seed it was built from.
    pub seed: u64,
    /// One replay cycle.
    pub ws: WorkingSet,
    /// The MAC the pipeline receives on.
    pub mac: EthernetAddress,
    /// The laid-out city (`city_mix` only): builds the middlebox.
    pub scenario: Option<Scenario>,
    /// Seconds `Scenario::new` + `capture` took (`city_mix` only).
    pub capture_build_s: f64,
}

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

const DU: u8 = 1;
const MB: u8 = 10;
const FWD_DST: u8 = 20;
const RU_BASE: u8 = 21;
const DAS_RUS: usize = 4;
const DAS_PORTS: u8 = 4;
const FWD_FLOWS: u8 = 16;

/// The forwarding middlebox of `fwd_small`.
pub fn passthrough() -> Passthrough {
    Passthrough::new("fwd", mac(MB), mac(FWD_DST))
}

/// The DAS middlebox of `das_dl` and `das_ul`: one DU, four radios.
pub fn das() -> Das {
    Das::new(
        "das",
        DasConfig {
            mb_mac: mac(MB),
            du_mac: mac(DU),
            ru_macs: (0..DAS_RUS).map(|r| mac(RU_BASE + r as u8)).collect(),
        },
    )
}

/// splitmix64 — the workload generator's only randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// One PRB of seeded samples. The per-PRB right shift spreads the
    /// block exponents over 0..=5 the way a loaded carrier does; the
    /// amplitude stays under a quarter of full scale so four radios sum
    /// without saturating.
    fn prb(&mut self) -> Prb {
        let shift = self.next() % 6;
        let mut p = Prb::ZERO;
        for s in &mut p.0 {
            let r = self.next();
            let i = ((r & 0x3fff) as i16 - 8192) >> shift;
            let q = (((r >> 16) & 0x3fff) as i16 - 8192) >> shift;
            *s = IqSample::new(i, q);
        }
        p
    }

    fn carrier(&mut self) -> Vec<Prb> {
        (0..CARRIER_PRBS).map(|_| self.prb()).collect()
    }
}

/// Bytes of frames generated between two laps of a timed build (about a
/// millisecond of generating 7.7 KB frames).
pub const LAP_BYTES: usize = 64 * 1024;

/// Collects frames into a working set, assigning stream indexes.
struct Builder<'a> {
    frames: Vec<Frame>,
    burst_ends: Vec<usize>,
    streams: HashMap<(EthernetAddress, u16, Direction), u32>,
    /// Called at the first burst end after every [`LAP_BYTES`] of frames:
    /// set-up is timed piece by piece (see `phases`).
    lap: &'a mut dyn FnMut(),
    bytes_since_lap: usize,
}

impl<'a> Builder<'a> {
    fn new(lap: &'a mut dyn FnMut()) -> Builder<'a> {
        Builder {
            frames: Vec::new(),
            burst_ends: Vec::new(),
            streams: HashMap::new(),
            lap,
            bytes_since_lap: 0,
        }
    }

    fn push_bytes(&mut self, bytes: Vec<u8>, class: u8) {
        let msg = FhMessage::parse(&bytes, &MAPPING).expect("generated frames parse");
        assert!(msg.eth.vlan.is_none(), "SEQ_OFFSET assumes untagged frames");
        assert_eq!(bytes[SEQ_OFFSET], msg.seq_id, "SEQ_OFFSET is the eCPRI SeqId byte");
        let key = (msg.eth.src, msg.eaxc.pack(&MAPPING), msg.body.direction());
        let next = self.streams.len() as u32;
        let stream = *self.streams.entry(key).or_insert(next);
        self.bytes_since_lap += bytes.len();
        self.frames.push(Frame { bytes, stream, class });
    }

    fn push(&mut self, src: u8, port: u8, body: Body, class: u8) {
        let msg = FhMessage::new(mac(src), mac(MB), Eaxc::port(port), 0, body);
        self.push_bytes(msg.to_bytes(&MAPPING).expect("generated frames serialize"), class);
    }

    fn end_burst(&mut self) {
        self.burst_ends.push(self.frames.len());
        if self.bytes_since_lap >= LAP_BYTES {
            self.bytes_since_lap = 0;
            (self.lap)();
        }
    }

    fn finish(self) -> WorkingSet {
        (self.lap)();
        WorkingSet { frames: self.frames, burst_ends: self.burst_ends, streams: self.streams.len() }
    }
}

fn uplane(dir: Direction, round: u32, prbs: &[Prb]) -> Body {
    let section =
        USection::from_prbs(0, 0, prbs, CompressionMethod::BFP9).expect("273 PRBs fit a section");
    Body::UPlane(UPlaneRepr::single(dir, ranbooster::scengen::symbol_for_round(round), section))
}

fn fwd_small(seed: u64, size: Size, lap: &mut dyn FnMut()) -> WorkingSet {
    let symbols = match size {
        Size::Full => 1_024,
        Size::Smoke => 28,
    };
    let mut rng = Rng(seed);
    let mut b = Builder::new(lap);
    for round in 0..symbols {
        let symbol = ranbooster::scengen::symbol_for_round(round);
        for flow in 0..FWD_FLOWS {
            let r = rng.next();
            let start = (r % 200) as u16;
            let num = 1 + ((r >> 16) % 72) as u16;
            b.push(
                DU,
                flow,
                Body::CPlane(CPlaneRepr::single(
                    Direction::Downlink,
                    symbol,
                    CompressionMethod::BFP9,
                    SectionFields::data((r >> 32) as u16 & 0xfff, start, num, 1),
                )),
                0,
            );
        }
        b.end_burst();
    }
    b.finish()
}

fn das_dl(seed: u64, size: Size, lap: &mut dyn FnMut()) -> WorkingSet {
    let slots = match size {
        Size::Full => 64,
        Size::Smoke => 1,
    };
    let mut rng = Rng(seed);
    let mut b = Builder::new(lap);
    for slot in 0..slots {
        for sym in 0..u32::from(SYMBOLS_PER_SLOT) {
            let round = slot * u32::from(SYMBOLS_PER_SLOT) + sym;
            if sym == 0 {
                // One C-plane per port schedules the whole slot.
                for port in 0..DAS_PORTS {
                    b.push(
                        DU,
                        port,
                        Body::CPlane(CPlaneRepr::single(
                            Direction::Downlink,
                            ranbooster::scengen::symbol_for_round(round),
                            CompressionMethod::BFP9,
                            SectionFields::data(0, 0, NUM_PRB_ALL, SYMBOLS_PER_SLOT),
                        )),
                        0,
                    );
                }
            }
            for port in 0..DAS_PORTS {
                b.push(DU, port, uplane(Direction::Downlink, round, &rng.carrier()), 1);
            }
            b.end_burst();
        }
    }
    b.finish()
}

fn das_ul(seed: u64, size: Size, lap: &mut dyn FnMut()) -> WorkingSet {
    let slots = match size {
        Size::Full => 16,
        Size::Smoke => 1,
    };
    let mut rng = Rng(seed);
    let mut b = Builder::new(lap);
    for round in 0..slots * u32::from(SYMBOLS_PER_SLOT) {
        // Radio-major: each radio's link delivers its four ports back to
        // back, so a symbol is 12 cache inserts, then 4 merges in a row.
        for ru in 0..DAS_RUS as u8 {
            for port in 0..DAS_PORTS {
                b.push(RU_BASE + ru, port, uplane(Direction::Uplink, round, &rng.carrier()), 0);
            }
        }
        b.end_burst();
    }
    b.finish()
}

/// Bucket index of a city site kind (order of `Kind::bucket_names`).
fn site_class(kind: SiteKind) -> u8 {
    match kind {
        SiteKind::Cell => 0,
        SiteKind::Das => 1,
        SiteKind::Dmimo { .. } => 2,
        SiteKind::RuShare => 3,
        SiteKind::ChainRuShareDas => 4,
    }
}

/// The city spec at benchmark size: `ScenarioSpec::city()` with more
/// rounds, handovers scaled so their density per round stays the city's.
pub fn city_spec(size: Size) -> ScenarioSpec {
    match size {
        Size::Full => {
            let base = ScenarioSpec::city();
            let rounds = 56; // four slots: a 115 k-frame, ~11 MB cycle
            ScenarioSpec {
                rounds,
                handovers: base.handovers * rounds as usize / base.rounds as usize,
                ..base
            }
        }
        Size::Smoke => ScenarioSpec::ci(),
    }
}

fn city_mix(scn: &Scenario, lap: &mut dyn FnMut()) -> WorkingSet {
    let topo = &scn.topo;
    // Which site serves a frame, by the rules `CityMb` routes with: a
    // radio's MAC, else a baseline stream's eAxC, else the UE's site in
    // that round. Only used to label handler time by site kind.
    let mut by_ru = HashMap::new();
    let mut by_raw = HashMap::new();
    for site in &topo.sites {
        for ru in &site.rus {
            by_ru.insert(*ru, site.id);
        }
        for s in &site.streams {
            by_raw.insert(s.raw, site.id);
        }
        if let SiteKind::Dmimo { .. } = site.kind {
            let block = site.streams[0].raw & !0xF;
            for k in 0..16 {
                by_raw.insert(block | k, site.id);
            }
        }
    }
    let ue_of: HashMap<u16, usize> =
        topo.ues.iter().enumerate().map(|(u, ue)| (ue.raw, u)).collect();
    let mut b = Builder::new(lap);
    let mut prev_at = None;
    for (at_ns, bytes) in scn.capture().frames {
        // Within a round timestamps step by 1 ns; a larger step starts
        // the next symbol.
        if prev_at.is_some_and(|p| at_ns != p + 1) {
            b.end_burst();
        }
        prev_at = Some(at_ns);
        let msg = FhMessage::parse(&bytes, &MAPPING).expect("generated frames parse");
        let raw = msg.eaxc.pack(&MAPPING);
        let round = match &msg.body {
            Body::CPlane(c) => c.symbol.absolute_symbol(Numerology::Mu1),
            Body::UPlane(u) => u.symbol.absolute_symbol(Numerology::Mu1),
            Body::Recovery(_) => 0,
        } as u32;
        let site = by_ru
            .get(&msg.eth.src)
            .or_else(|| by_raw.get(&raw))
            .copied()
            .or_else(|| ue_of.get(&raw).and_then(|&u| scn.schedule.site_of(topo, u, round)))
            .expect("every generated frame has a serving site");
        b.push_bytes(bytes, site_class(topo.sites[site].kind));
    }
    b.end_burst();
    b.finish()
}

impl Workload {
    /// Generate workload `kind` from `seed`.
    pub fn build(kind: Kind, seed: u64, size: Size) -> Workload {
        Workload::build_in_laps(kind, seed, size, &mut || {})
    }

    /// [`Workload::build`], calling `lap` after every piece of the work —
    /// about every [`LAP_BYTES`] of generated frames, and after laying out
    /// and capturing the city — so the caller can time the pieces. The
    /// number of laps depends on `kind`, `seed` and `size` only.
    pub fn build_in_laps(kind: Kind, seed: u64, size: Size, lap: &mut dyn FnMut()) -> Workload {
        let mut scenario = None;
        let mut capture_build_s = 0.0;
        let (ws, rx_mac) = match kind {
            Kind::FwdSmall => (fwd_small(seed, size, lap), mac(MB)),
            Kind::DasDl => (das_dl(seed, size, lap), mac(MB)),
            Kind::DasUl => (das_ul(seed, size, lap), mac(MB)),
            Kind::CityMix => {
                let t0 = std::time::Instant::now();
                let scn = Scenario::new(seed, city_spec(size)).expect("the city spec is valid");
                lap();
                let ws = city_mix(&scn, lap);
                capture_build_s = t0.elapsed().as_secs_f64();
                let gateway = scn.topo.gateway;
                scenario = Some(scn);
                (ws, gateway)
            }
        };
        assert!(ws.burst_ends.last() == Some(&ws.frames.len()), "bursts cover the cycle");
        Workload { kind, seed, ws, mac: rx_mac, scenario, capture_build_s }
    }

    /// Input frames in flight at most, in every phase. Half the ring
    /// divided by the largest fan-out, so that with the generator's
    /// per-call release cap (see `gen`) neither ring can shed.
    pub fn window(&self) -> usize {
        RING_CAPACITY / (2 * self.kind.max_fanout())
    }

    /// Seconds between symbol bursts in the open-loop phase: the cycle's
    /// mean burst size at `rate_fps`.
    pub fn burst_period_ns(&self) -> u64 {
        let mean_burst = self.ws.frames.len() as f64 / self.ws.burst_ends.len() as f64;
        (mean_burst / self.kind.rate_fps() * 1e9) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames of the largest burst.
    fn max_burst(ws: &WorkingSet) -> usize {
        let starts = std::iter::once(&0).chain(&ws.burst_ends);
        starts.zip(&ws.burst_ends).map(|(start, end)| end - start).max().unwrap_or(0)
    }

    #[test]
    fn names_round_trip_and_are_unique() {
        for k in Kind::ALL {
            assert_eq!(Kind::from_name(k.name()), Some(k));
            assert!(k.why().len() <= 200, "{} why is {} chars", k.name(), k.why().len());
            assert!(!k.why().contains('\n'));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn working_sets_have_the_documented_shape() {
        let w = Workload::build(Kind::FwdSmall, 1, Size::Smoke);
        assert_eq!(w.ws.streams, 16);
        assert_eq!(max_burst(&w.ws), 16);
        assert!(w.ws.frames.iter().all(|f| f.bytes.len() < 64));

        let w = Workload::build(Kind::DasDl, 1, Size::Smoke);
        assert_eq!(w.ws.streams, 4, "one DL stream per port");
        assert_eq!(w.ws.frames.len(), 4 * (1 + 14));
        assert_eq!(w.ws.burst_ends.len(), 14);
        assert!(w.ws.frames.iter().filter(|f| f.class == 1).all(|f| f.bytes.len() > 7_600));

        let w = Workload::build(Kind::DasUl, 1, Size::Smoke);
        assert_eq!(w.ws.streams, 16, "4 radios x 4 ports");
        assert_eq!(max_burst(&w.ws), 16);

        let w = Workload::build(Kind::CityMix, 1, Size::Smoke);
        let spec = city_spec(Size::Smoke);
        assert_eq!(w.ws.burst_ends.len(), spec.rounds as usize);
        let classes: std::collections::BTreeSet<u8> = w.ws.frames.iter().map(|f| f.class).collect();
        assert_eq!(classes.len(), 5, "every site kind appears");
    }

    #[test]
    fn pieces_are_whole_bursts_covering_the_cycle() {
        let w = Workload::build(Kind::DasDl, 1, Size::Smoke);
        let cycle = w.ws.frames.len();
        let ends = w.ws.pieces(|frames, _| frames >= 10);
        assert!(ends.len() > 1 && ends.last() == Some(&cycle));
        assert!(ends.iter().all(|e| w.ws.burst_ends.contains(e)), "cut at burst ends only");
        assert!(WorkingSet::piece_frames(&ends).all(|f| f >= 10.0), "left-overs join the last");
        assert_eq!(WorkingSet::piece_frames(&ends).sum::<f64>(), cycle as f64);
        let by_bytes = w.ws.pieces(|_, bytes| bytes >= 16 * 1024);
        assert!(by_bytes.len() > 1 && by_bytes.last() == Some(&cycle));
        assert_eq!(w.ws.pieces(|_, _| false), vec![cycle], "never enough: one piece");
    }

    #[test]
    fn a_build_laps_the_same_number_of_times_for_the_same_input() {
        for kind in Kind::ALL {
            let count = |seed| {
                let mut laps = 0;
                Workload::build_in_laps(kind, seed, Size::Smoke, &mut || laps += 1);
                laps
            };
            assert!(count(7) >= 1, "{}", kind.name());
            assert_eq!(count(7), count(7), "{}", kind.name());
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for kind in Kind::ALL {
            let a = Workload::build(kind, 7, Size::Smoke);
            let b = Workload::build(kind, 7, Size::Smoke);
            let c = Workload::build(kind, 8, Size::Smoke);
            let bytes = |w: &Workload| -> Vec<Vec<u8>> {
                w.ws.frames.iter().map(|f| f.bytes.clone()).collect()
            };
            assert_eq!(bytes(&a), bytes(&b), "{}", kind.name());
            assert_ne!(bytes(&a), bytes(&c), "{}", kind.name());
        }
    }

    #[test]
    fn full_city_is_the_issue_scale() {
        let spec = city_spec(Size::Full);
        let scn = Scenario::new(42, spec.clone()).unwrap();
        assert_eq!(spec.total_sites(), 72);
        assert!(scn.topo.stream_count(&spec) > 1200);
    }
}
