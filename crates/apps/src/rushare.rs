//! The RU-sharing middlebox (paper §4.3, Appendix A.1).
//!
//! One wide RU is shared by several narrower DUs (e.g. two 40 MHz cells
//! on a 100 MHz radio — Figure 6):
//!
//! * **C-plane (Algorithm 2).** Every C-plane message is cached per
//!   (slot, port, direction). The *first* message for a key is forwarded
//!   to the RU with its `numPrb` rewritten to "the whole RU spectrum"
//!   (the `numPrbc = 0` encoding), so any later request by another DU is
//!   already satisfied; the rest are absorbed. The cached requests
//!   remember which DU asked for which PRBs.
//! * **Downlink U-plane.** Packets are cached until every DU that issued
//!   a C-plane request for that symbol has delivered its IQ; then one
//!   RU-grid packet is assembled by copying each DU's PRBs to their
//!   spectral position. PRB-aligned DUs take a compressed byte-copy fast
//!   path; misaligned DUs are decompressed, shifted at subcarrier
//!   granularity and recompressed (the Figure 6 distinction).
//! * **Uplink U-plane.** The RU returns its full spectrum; the middlebox
//!   replicates it per requesting DU, carving out exactly the PRB ranges
//!   each DU asked for, translated back to that DU's grid.
//! * **PRACH (Algorithm 3).** Section-type-3 requests from all DUs are
//!   appended into one message whose per-section `frequencyOffset` is
//!   translated into the RU's spectrum (Appendix A.1.2) and whose section
//!   id is set to the DU's id; the uplink PRACH response is demultiplexed
//!   back by section id.

use std::collections::HashMap;

use rb_core::actions;
use rb_core::cache::{CacheKey, Plane};
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::counters;
use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, SectionFields, Sections, NUM_PRB_ALL};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::freq;
use rb_fronthaul::iq::{IqSample, Prb, SAMPLES_PER_PRB};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::timing::{SymbolId, SYMBOLS_PER_SLOT};
use rb_fronthaul::uplane::{Payload, UPlaneRepr, USection};
use rb_fronthaul::Direction;
use rb_netsim::cost::{Work, XdpPlacement};

/// [`SAMPLES_PER_PRB`] in the u64 domain the PRB-range checks work in.
const SAMPLES_PER_PRB_U64: u64 = SAMPLES_PER_PRB as u64;
/// Index of the last symbol in a slot.
const LAST_SYMBOL: u8 = SYMBOLS_PER_SLOT - 1;

/// Spectral description of a carrier (DU or RU side).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarrierSpec {
    /// Center frequency, Hz.
    pub center_hz: i64,
    /// Width in PRBs.
    pub num_prb: u16,
    /// Subcarrier spacing, Hz.
    pub scs_hz: u64,
}

impl CarrierSpec {
    /// Frequency of the lower edge of PRB 0.
    pub fn prb0_hz(&self) -> i64 {
        freq::prb0_frequency_hz(self.center_hz, self.num_prb, self.scs_hz)
    }
}

/// One DU sharing the RU.
#[derive(Debug, Clone, Copy)]
pub struct SharedDu {
    /// The DU's fronthaul MAC.
    pub mac: EthernetAddress,
    /// Operator/DU id used as the PRACH section id (Algorithm 3).
    pub du_id: u16,
    /// The DU's carrier.
    pub carrier: CarrierSpec,
}

/// RU-sharing middlebox configuration.
#[derive(Debug, Clone)]
pub struct RuShareConfig {
    /// The middlebox's own MAC.
    pub mb_mac: EthernetAddress,
    /// The shared RU.
    pub ru_mac: EthernetAddress,
    /// The RU's carrier.
    pub ru: CarrierSpec,
    /// The sharing DUs.
    pub dus: Vec<SharedDu>,
}

/// How a DU's grid relates to the RU's grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Alignment {
    /// DU PRB `k` occupies exactly RU PRB `prb_offset + k`.
    Aligned {
        /// RU PRB index of DU PRB 0.
        prb_offset: u16,
    },
    /// DU PRB 0 starts `sc_offset` subcarriers into the RU grid and
    /// straddles RU PRB boundaries.
    Misaligned {
        /// Subcarrier index of DU subcarrier 0 within the RU grid.
        sc_offset: u32,
    },
}

/// Aggregate RU-sharing counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuShareStats {
    /// C-plane messages forwarded with maximized `numPrb`.
    pub cplane_maximized: u64,
    /// C-plane messages absorbed (a peer already triggered the RU).
    pub cplane_absorbed: u64,
    /// Downlink symbols multiplexed towards the RU.
    pub dl_muxes: u64,
    /// Uplink packets demultiplexed towards DUs.
    pub ul_demuxes: u64,
    /// PRACH occasions merged (Algorithm 3 downstream).
    pub prach_merges: u64,
    /// PRACH responses demultiplexed (Algorithm 3 upstream).
    pub prach_demuxes: u64,
    /// Aligned fast-path PRB block copies.
    pub aligned_copies: u64,
    /// Misaligned decompress/shift/recompress operations.
    pub misaligned_copies: u64,
    /// Packets from unknown sources or with no matching state, dropped.
    pub dropped: u64,
    /// Packets forwarded unmodified because sharing state was missing or a
    /// requested PRB range fell outside the RU grid (degraded mode).
    pub pass_through: u64,
}

#[derive(Debug, Clone)]
struct DuRequest {
    du_idx: usize,
    /// DU-local (start_prb, num_prb) ranges requested.
    ranges: Vec<(u16, u16)>,
    /// Highest symbol index (exclusive) the request covers.
    max_symbols: u8,
}

#[derive(Debug, Default)]
struct CplaneSlotState {
    sent_to_ru: bool,
    requests: Vec<DuRequest>,
}

#[derive(Debug, Clone, Copy)]
struct PrachOrig {
    du_idx: usize,
    orig_section_id: u16,
}

/// The RU-sharing middlebox.
pub struct RuShare {
    name: String,
    cfg: RuShareConfig,
    alignment: Vec<Alignment>,
    /// (slot-start symbol, port, direction) → C-plane mux state.
    cplane: HashMap<(SymbolId, u8, Direction), CplaneSlotState>,
    /// (slot-start symbol, port) → pending PRACH sections per DU.
    prach_pending: HashMap<(SymbolId, u8), Vec<(usize, CPlaneRepr)>>,
    /// (slot-start symbol, port) → PRACH demux directory by du_id.
    prach_orig: HashMap<(SymbolId, u8), HashMap<u16, PrachOrig>>,
    /// Lazily built all-zero RU-grid section payloads per method.
    zero_payload: HashMap<u8, Payload>,
    /// Highest absolute symbol observed, for state-horizon purging.
    horizon: u64,
    /// Counters.
    pub stats: RuShareStats,
}

/// Slots a per-slot state entry survives behind the horizon before it is
/// purged (a lost C-plane packet poisons at most this many slots).
const SLOT_HORIZON: u64 = 8;

impl RuShare {
    /// Build an RU-sharing middlebox. Panics if a DU's spectrum does not
    /// fit inside the RU's, or is not whole-subcarrier aligned.
    pub fn new(name: impl Into<String>, cfg: RuShareConfig) -> RuShare {
        assert!(!cfg.dus.is_empty(), "RU sharing needs at least one DU");
        let alignment = cfg
            .dus
            .iter()
            .map(|du| {
                assert_eq!(du.carrier.scs_hz, cfg.ru.scs_hz, "mixed numerologies unsupported");
                let delta = du.carrier.prb0_hz() - cfg.ru.prb0_hz();
                assert!(delta >= 0, "DU {} spectrum below the RU's", du.du_id);
                let scs = cfg.ru.scs_hz as i64;
                assert_eq!(delta % scs, 0, "DU {} not subcarrier-aligned", du.du_id);
                let sc_offset = (delta / scs) as u32;
                let end_sc = sc_offset as u64 + du.carrier.num_prb as u64 * 12;
                assert!(
                    end_sc <= cfg.ru.num_prb as u64 * 12,
                    "DU {} spectrum exceeds the RU's",
                    du.du_id
                );
                if sc_offset.is_multiple_of(SAMPLES_PER_PRB as u32) {
                    Alignment::Aligned { prb_offset: (sc_offset / 12) as u16 }
                } else {
                    Alignment::Misaligned { sc_offset }
                }
            })
            .collect();
        RuShare {
            name: name.into(),
            cfg,
            alignment,
            cplane: HashMap::new(),
            prach_pending: HashMap::new(),
            prach_orig: HashMap::new(),
            zero_payload: HashMap::new(),
            horizon: 0,
            stats: RuShareStats::default(),
        }
    }

    /// Drop per-slot state older than a few slots behind `symbol` — sheds
    /// downlink-only keys and occasions a dead DU never completed, so a
    /// stalled peer cannot grow the maps without bound.
    fn advance_horizon(&mut self, symbol: SymbolId) {
        use rb_fronthaul::timing::Numerology;
        let n = Numerology::Mu1;
        let now = u64::from(symbol.absolute_slot(n));
        // Only move forward within the same hyperperiod (wraps reset).
        if now > self.horizon || now.saturating_add(64) < self.horizon {
            self.horizon = now;
        }
        let horizon = self.horizon;
        let stale = |sym: &SymbolId| {
            let s = u64::from(sym.absolute_slot(n));
            s.saturating_add(SLOT_HORIZON) < horizon
        };
        self.cplane.retain(|(sym, _, _), _| !stale(sym));
        self.prach_pending.retain(|(sym, _), _| !stale(sym));
        self.prach_orig.retain(|(sym, _), _| !stale(sym));
    }

    /// The configuration.
    pub fn config(&self) -> &RuShareConfig {
        &self.cfg
    }

    /// The computed alignment of each DU (index-parallel with the config).
    pub fn alignment(&self) -> &[Alignment] {
        &self.alignment
    }

    fn du_index(&self, mac: EthernetAddress) -> Option<usize> {
        self.cfg.dus.iter().position(|d| d.mac == mac)
    }

    /// Does a DU-local PRB range land inside the RU grid once remapped?
    fn range_fits_ru(&self, du_idx: usize, start: u16, num: u16) -> bool {
        let ru_scs = u64::from(self.cfg.ru.num_prb).saturating_mul(SAMPLES_PER_PRB_U64);
        match self.alignment.get(du_idx) {
            Some(Alignment::Aligned { prb_offset }) => {
                let end = u64::from(*prb_offset)
                    .saturating_add(u64::from(start))
                    .saturating_add(u64::from(num));
                end.saturating_mul(SAMPLES_PER_PRB_U64) <= ru_scs
            }
            Some(Alignment::Misaligned { sc_offset }) => {
                let end_sc = u64::from(*sc_offset).saturating_add(
                    u64::from(start)
                        .saturating_add(u64::from(num))
                        .saturating_mul(SAMPLES_PER_PRB_U64),
                );
                end_sc <= ru_scs
            }
            None => false,
        }
    }

    /// A full-RU all-zero section in the given compression method.
    fn zero_section(&mut self, method: CompressionMethod) -> USection {
        let key = method.to_comp_hdr();
        let num_prb = self.cfg.ru.num_prb;
        let payload = self
            .zero_payload
            .entry(key)
            .or_insert_with(|| {
                let per = method.prb_wire_bytes();
                let mut payload = Payload::zeroed(per.saturating_mul(usize::from(num_prb)));
                for prb in payload.chunks_exact_mut(per.max(1)) {
                    // On failure the PRB stays zeroed, which is itself a
                    // valid all-zero PRB in every supported method.
                    let _ = rb_fronthaul::bfp::compress_prb_wire(&Prb::ZERO, method, prb);
                }
                payload
            })
            .clone();
        USection { section_id: 0, rb: false, sym_inc: false, start_prb: 0, method, payload }
    }

    // ------------------------------------------------------------------
    // C-plane (Algorithm 2 + Algorithm 3 downstream)
    // ------------------------------------------------------------------

    fn cplane_from_du(
        &mut self,
        ctx: &mut MbContext<'_>,
        du_idx: usize,
        msg: FhMessage,
        out: &mut Vec<FhMessage>,
    ) {
        let Some(cp) = msg.as_cplane().cloned() else {
            counters::bump(&mut self.stats.dropped);
            return;
        };
        if matches!(cp.sections, Sections::Type3 { .. }) {
            return self.prach_from_du(ctx, du_idx, msg, cp, out);
        }
        if matches!(cp.sections, Sections::Type0 { .. }) {
            // Idle-resource advertisements carry no U-plane: pass them to
            // the RU untouched (A1); they never create mux state.
            let mut fwd = msg;
            actions::redirect(&mut fwd, self.cfg.mb_mac, self.cfg.ru_mac);
            ctx.charge(Work::Forward, XdpPlacement::Kernel);
            return actions::emit(out, fwd);
        }
        let key = (cp.symbol.slot_start(), msg.eaxc.ru_port, cp.direction);
        let sections = cp.sections.common_fields();
        let Some(du_prbs) = self.cfg.dus.get(du_idx).map(|d| d.carrier.num_prb) else {
            counters::bump(&mut self.stats.dropped);
            return;
        };
        let ranges: Vec<(u16, u16)> =
            sections.iter().map(|s| (s.start_prb, s.resolved_num_prb(du_prbs))).collect();
        // A request whose remapped PRB range would fall outside the RU grid
        // cannot be shared: degrade to pass-through (A1 untouched) so the
        // DU keeps connectivity, and count the event.
        if !ranges.iter().all(|&(start, num)| self.range_fits_ru(du_idx, start, num)) {
            counters::bump(&mut self.stats.pass_through);
            ctx.telemetry.count(ctx.now_ns(), "rushare_pass_through", 1);
            let mut fwd = msg;
            actions::redirect(&mut fwd, self.cfg.mb_mac, self.cfg.ru_mac);
            ctx.charge(Work::Forward, XdpPlacement::Kernel);
            return actions::emit(out, fwd);
        }
        let request = DuRequest {
            du_idx,
            ranges,
            max_symbols: sections.iter().map(|s| s.num_symbols).max().unwrap_or(0),
        };
        let state = self.cplane.entry(key).or_default();
        state.requests.push(request);
        ctx.charge(Work::InspectHeaders { prbs: 0 }, XdpPlacement::Userspace);
        if state.sent_to_ru {
            counters::bump(&mut self.stats.cplane_absorbed);
            return;
        }
        state.sent_to_ru = true;
        // Rewrite to "whole RU spectrum" and forward (Algorithm 2 line 5).
        let mut maximized = msg;
        if let Some(c) = maximized.as_cplane_mut() {
            if let Sections::Type1 { sections, comp } = &mut c.sections {
                let comp = *comp;
                *sections = vec![SectionFields::data(0, 0, NUM_PRB_ALL, SYMBOLS_PER_SLOT)];
                let _ = comp;
            }
        }
        actions::redirect(&mut maximized, self.cfg.mb_mac, self.cfg.ru_mac);
        counters::bump(&mut self.stats.cplane_maximized);
        actions::emit(out, maximized);
    }

    fn prach_from_du(
        &mut self,
        ctx: &mut MbContext<'_>,
        du_idx: usize,
        msg: FhMessage,
        cp: CPlaneRepr,
        out: &mut Vec<FhMessage>,
    ) {
        let key = (cp.symbol.slot_start(), msg.eaxc.ru_port);
        // Cache the raw packet for the occasion (A3); the filter field
        // keeps it apart from data C-plane at the same symbol.
        let cache_key = CacheKey {
            eaxc_raw: msg.eaxc.pack(&ctx.mapping),
            direction: Direction::Uplink,
            plane: Plane::C,
            filter: 1,
            symbol: cp.symbol.slot_start(),
        };
        ctx.cache.insert(cache_key, msg);
        ctx.charge(Work::Cache, XdpPlacement::Userspace);

        let pending = self.prach_pending.entry(key).or_default();
        pending.push((du_idx, cp));
        if pending.len() < self.cfg.dus.len() {
            return;
        }
        // All DUs reported: append sections into one message (Alg. 3).
        let Some(pending) = self.prach_pending.remove(&key) else {
            return;
        };
        let _ = ctx.cache.take(&cache_key);
        let mut merged_sections = Vec::new();
        let mut directory = HashMap::new();
        let mut header = None;
        for (idx, cp) in &pending {
            let Some(du) = self.cfg.dus.get(*idx) else {
                continue;
            };
            let Sections::Type3 { time_offset, frame_structure, cp_length, comp, sections } =
                &cp.sections
            else {
                continue;
            };
            header.get_or_insert((cp.symbol, *time_offset, *frame_structure, *cp_length, *comp));
            for s in sections {
                let Ok(fo) = freq::translate_prach_freq_offset(
                    s.frequency_offset,
                    du.carrier.center_hz,
                    self.cfg.ru.center_hz,
                    self.cfg.ru.scs_hz,
                ) else {
                    counters::bump(&mut self.stats.dropped);
                    continue;
                };
                directory.insert(
                    du.du_id,
                    PrachOrig { du_idx: *idx, orig_section_id: s.fields.section_id },
                );
                let mut fields = s.fields;
                fields.section_id = du.du_id;
                merged_sections
                    .push(rb_fronthaul::cplane::Section3 { fields, frequency_offset: fo });
            }
        }
        let Some((symbol, time_offset, frame_structure, cp_length, comp)) = header else {
            return;
        };
        self.prach_orig.insert(key, directory);
        let merged = CPlaneRepr {
            direction: Direction::Uplink,
            filter_index: 1,
            symbol,
            sections: Sections::Type3 {
                time_offset,
                frame_structure,
                cp_length,
                comp,
                sections: merged_sections,
            },
        };
        let merged = FhMessage::new(
            self.cfg.mb_mac,
            self.cfg.ru_mac,
            rb_fronthaul::eaxc::Eaxc::port(key.1),
            0,
            Body::CPlane(merged),
        );
        counters::bump(&mut self.stats.prach_merges);
        ctx.charge(Work::InspectHeaders { prbs: 0 }, XdpPlacement::Userspace);
        actions::emit(out, merged);
    }

    // ------------------------------------------------------------------
    // Downlink U-plane multiplexing
    // ------------------------------------------------------------------

    fn dl_uplane_from_du(
        &mut self,
        ctx: &mut MbContext<'_>,
        msg: FhMessage,
        out: &mut Vec<FhMessage>,
    ) {
        let Some(up) = msg.as_uplane() else {
            counters::bump(&mut self.stats.dropped);
            return;
        };
        let symbol = up.symbol;
        let port = msg.eaxc.ru_port;
        let slot_key = (symbol.slot_start(), port, Direction::Downlink);
        let cache_key = CacheKey {
            eaxc_raw: msg.eaxc.pack(&ctx.mapping),
            direction: Direction::Downlink,
            plane: Plane::U,
            filter: 0,
            symbol,
        };
        ctx.cache.insert(cache_key, msg);
        ctx.charge(Work::Cache, XdpPlacement::Userspace);

        // Which DUs are expected to deliver IQ for this symbol?
        let Some(state) = self.cplane.get(&slot_key) else {
            return; // no C-plane seen (yet) — hold in cache
        };
        let expected: Vec<usize> = state
            .requests
            .iter()
            .filter(|r| symbol.symbol < r.max_symbols)
            .map(|r| r.du_idx)
            .collect();
        if expected.is_empty() {
            return;
        }
        let cached = ctx.cache.get(&cache_key);
        let have: Vec<usize> = cached.iter().filter_map(|m| self.du_index(m.eth.src)).collect();
        if !expected.iter().all(|e| have.contains(e)) {
            return;
        }
        let cached = ctx.cache.take(&cache_key);
        self.mux_dl_symbol(ctx, symbol, port, cached, out);
    }

    fn mux_dl_symbol(
        &mut self,
        ctx: &mut MbContext<'_>,
        symbol: SymbolId,
        port: u8,
        cached: Vec<FhMessage>,
        out: &mut Vec<FhMessage>,
    ) {
        let method = cached
            .first()
            .and_then(|m| m.as_uplane())
            .and_then(|u| u.sections.first())
            .map(|s| s.method)
            .unwrap_or(CompressionMethod::BFP9);
        let mut dst = self.zero_section(method);
        let mut total_prbs = 0usize;
        let mut any_misaligned = false;
        for m in &cached {
            let Some(du_idx) = self.du_index(m.eth.src) else {
                continue;
            };
            let Some(up) = m.as_uplane() else {
                continue;
            };
            for s in &up.sections {
                total_prbs = total_prbs.saturating_add(usize::from(s.num_prb()));
                match self.alignment.get(du_idx).copied() {
                    Some(Alignment::Aligned { prb_offset }) => {
                        let Some(at) = prb_offset.checked_add(s.start_prb) else {
                            counters::bump(&mut self.stats.dropped);
                            continue;
                        };
                        if actions::copy_prbs(&mut dst, s, 0, at, s.num_prb()).is_ok() {
                            counters::bump(&mut self.stats.aligned_copies);
                        } else {
                            counters::bump(&mut self.stats.dropped);
                        }
                    }
                    Some(Alignment::Misaligned { sc_offset }) => {
                        any_misaligned = true;
                        if self.misaligned_place(&mut dst, s, sc_offset).is_ok() {
                            counters::bump(&mut self.stats.misaligned_copies);
                        } else {
                            counters::bump(&mut self.stats.dropped);
                        }
                    }
                    None => counters::bump(&mut self.stats.dropped),
                }
            }
        }
        ctx.charge(
            if any_misaligned {
                Work::MergeIq { prbs: total_prbs, streams: cached.len() }
            } else {
                Work::InspectHeaders { prbs: total_prbs }
            },
            XdpPlacement::Userspace,
        );
        let merged = UPlaneRepr {
            direction: Direction::Downlink,
            filter_index: 0,
            symbol,
            sections: vec![dst],
        };
        let muxed = FhMessage::new(
            self.cfg.mb_mac,
            self.cfg.ru_mac,
            rb_fronthaul::eaxc::Eaxc::port(port),
            0,
            Body::UPlane(merged),
        );
        counters::bump(&mut self.stats.dl_muxes);
        actions::emit(out, muxed);
    }

    /// Misaligned placement: decompress the DU section, write its samples
    /// at the subcarrier offset inside the RU grid, recompress the touched
    /// RU PRBs in place.
    fn misaligned_place(
        &self,
        dst: &mut USection,
        src: &USection,
        sc_offset: u32,
    ) -> rb_fronthaul::Result<()> {
        let decoded = src.decode()?;
        let start_sc = usize::try_from(sc_offset)
            .unwrap_or(usize::MAX)
            .saturating_add(usize::from(src.start_prb).saturating_mul(SAMPLES_PER_PRB));
        let first_prb = start_sc / SAMPLES_PER_PRB;
        let last_sc = start_sc
            .saturating_add(decoded.len().saturating_mul(SAMPLES_PER_PRB))
            .saturating_sub(1);
        let last_prb = last_sc / SAMPLES_PER_PRB;
        // Read the affected RU PRBs, overlay, re-write.
        let span = last_prb.saturating_sub(first_prb).saturating_add(1);
        let mut flat: Vec<IqSample> = Vec::with_capacity(span.saturating_mul(SAMPLES_PER_PRB));
        for prb in first_prb..=last_prb {
            let wire =
                dst.prb_bytes(u16::try_from(prb).map_err(|_| rb_fronthaul::Error::FieldRange)?)?;
            let (p, _) =
                rb_fronthaul::bfp::decompress_prb_wire(wire, dst.method).map(|(p, e, _)| (p, e))?;
            flat.extend_from_slice(&p.0);
        }
        // `first_prb = start_sc / SAMPLES_PER_PRB`, so this is `start_sc
        // mod SAMPLES_PER_PRB` and cannot underflow.
        let base = start_sc.saturating_sub(first_prb.saturating_mul(SAMPLES_PER_PRB));
        for (k, (prb, _)) in decoded.iter().enumerate() {
            let off = base.saturating_add(k.saturating_mul(SAMPLES_PER_PRB));
            flat.get_mut(off..off.saturating_add(SAMPLES_PER_PRB))
                .ok_or(rb_fronthaul::Error::FieldRange)?
                .copy_from_slice(&prb.0);
        }
        let prbs: Vec<Prb> = flat
            .chunks_exact(SAMPLES_PER_PRB)
            .map(|c| c.try_into().map(Prb).unwrap_or(Prb::ZERO))
            .collect();
        dst.write_prbs(
            u16::try_from(first_prb).map_err(|_| rb_fronthaul::Error::FieldRange)?,
            &prbs,
        )
    }

    // ------------------------------------------------------------------
    // Uplink U-plane demultiplexing
    // ------------------------------------------------------------------

    fn ul_uplane_from_ru(
        &mut self,
        ctx: &mut MbContext<'_>,
        msg: FhMessage,
        out: &mut Vec<FhMessage>,
    ) {
        let Some(up) = msg.as_uplane().cloned() else {
            counters::bump(&mut self.stats.dropped);
            return;
        };
        let port = msg.eaxc.ru_port;
        if up.filter_index == 1 {
            return self.prach_from_ru(ctx, port, up, out);
        }
        let slot_key = (up.symbol.slot_start(), port, Direction::Uplink);
        let Some(state) = self.cplane.get(&slot_key) else {
            // No C-plane state for this slot (late join, purged state, or
            // an unsolicited RU symbol): degrade to pass-through — every DU
            // gets the full-spectrum frame unmodified — instead of going
            // dark, and count the event.
            counters::bump(&mut self.stats.pass_through);
            ctx.telemetry.count(ctx.now_ns(), "rushare_pass_through", 1);
            ctx.charge(Work::Replicate { copies: self.cfg.dus.len() }, XdpPlacement::Kernel);
            let dsts: Vec<EthernetAddress> = self.cfg.dus.iter().map(|d| d.mac).collect();
            return actions::replicate_into(msg, self.cfg.mb_mac, &dsts, out);
        };
        let requests = state.requests.clone();
        let mut total_prbs = 0usize;
        let mut any_misaligned = false;
        for req in &requests {
            if up.symbol.symbol >= req.max_symbols {
                continue;
            }
            let (Some(du), Some(align)) =
                (self.cfg.dus.get(req.du_idx).copied(), self.alignment.get(req.du_idx).copied())
            else {
                counters::bump(&mut self.stats.dropped);
                continue;
            };
            let mut sections = Vec::with_capacity(req.ranges.len());
            for (sid, (start, num)) in req.ranges.iter().enumerate() {
                total_prbs = total_prbs.saturating_add(usize::from(*num));
                let section = match align {
                    Alignment::Aligned { prb_offset } => {
                        let ru_start = prb_offset.saturating_add(*start);
                        self.extract_aligned(
                            &up,
                            ru_start,
                            *start,
                            *num,
                            u16::try_from(sid).unwrap_or(u16::MAX),
                        )
                    }
                    Alignment::Misaligned { sc_offset } => {
                        any_misaligned = true;
                        self.extract_misaligned(
                            &up,
                            sc_offset,
                            *start,
                            *num,
                            u16::try_from(sid).unwrap_or(u16::MAX),
                        )
                    }
                };
                match section {
                    Some(s) => sections.push(s),
                    None => counters::bump(&mut self.stats.dropped),
                }
            }
            if sections.is_empty() {
                continue;
            }
            let demuxed = UPlaneRepr {
                direction: Direction::Uplink,
                filter_index: 0,
                symbol: up.symbol,
                sections,
            };
            let demuxed =
                FhMessage::new(self.cfg.mb_mac, du.mac, msg.eaxc, 0, Body::UPlane(demuxed));
            actions::emit(out, demuxed);
            counters::bump(&mut self.stats.ul_demuxes);
        }
        ctx.charge(
            if any_misaligned {
                Work::MergeIq { prbs: total_prbs, streams: 1 }
            } else {
                Work::InspectHeaders { prbs: total_prbs }
            },
            XdpPlacement::Userspace,
        );
        // End of slot: drop the slot's C-plane state.
        if up.symbol.symbol == LAST_SYMBOL {
            self.cplane.remove(&slot_key);
        }
    }

    /// Aligned extraction: compressed byte copy from the RU packet.
    fn extract_aligned(
        &mut self,
        up: &UPlaneRepr,
        ru_start: u16,
        du_start: u16,
        num: u16,
        section_id: u16,
    ) -> Option<USection> {
        for s in &up.sections {
            let s_end = u32::from(s.start_prb).saturating_add(u32::from(s.num_prb()));
            if ru_start >= s.start_prb
                && u32::from(ru_start).saturating_add(u32::from(num)) <= s_end
            {
                if let Ok(bytes) = s.prb_range_bytes(ru_start.saturating_sub(s.start_prb), num) {
                    counters::bump(&mut self.stats.aligned_copies);
                    return Some(USection {
                        section_id,
                        rb: false,
                        sym_inc: false,
                        start_prb: du_start,
                        method: s.method,
                        payload: Payload::from(bytes),
                    });
                }
            }
        }
        None
    }

    /// Misaligned extraction: decompress the covering RU PRBs, carve the
    /// DU's subcarriers, recompress on the DU grid.
    fn extract_misaligned(
        &mut self,
        up: &UPlaneRepr,
        sc_offset: u32,
        du_start: u16,
        num: u16,
        section_id: u16,
    ) -> Option<USection> {
        let start_sc = usize::try_from(sc_offset)
            .unwrap_or(usize::MAX)
            .saturating_add(usize::from(du_start).saturating_mul(SAMPLES_PER_PRB));
        let end_sc = start_sc.saturating_add(usize::from(num).saturating_mul(SAMPLES_PER_PRB));
        // `range_fits_ru` bounded both against the RU grid, far below u16.
        let first_prb = u16::try_from(start_sc / SAMPLES_PER_PRB).unwrap_or(u16::MAX);
        let last_prb =
            u16::try_from(end_sc.saturating_sub(1) / SAMPLES_PER_PRB).unwrap_or(u16::MAX);
        for s in &up.sections {
            let s_end = u32::from(s.start_prb).saturating_add(u32::from(s.num_prb()));
            if first_prb < s.start_prb || u32::from(last_prb) >= s_end {
                continue;
            }
            let span = usize::from(last_prb.saturating_sub(first_prb)).saturating_add(1);
            let mut flat = Vec::with_capacity(span.saturating_mul(SAMPLES_PER_PRB));
            for prb in first_prb..=last_prb {
                let bytes = s.prb_bytes(prb.saturating_sub(s.start_prb)).ok()?;
                let (p, _, _) = rb_fronthaul::bfp::decompress_prb_wire(bytes, s.method).ok()?;
                flat.extend_from_slice(&p.0);
            }
            // `first_prb = start_sc / SAMPLES_PER_PRB`, so this is the
            // intra-PRB remainder and cannot underflow.
            let base =
                start_sc.saturating_sub(usize::from(first_prb).saturating_mul(SAMPLES_PER_PRB));
            let samples = flat
                .get(base..base.saturating_add(usize::from(num).saturating_mul(SAMPLES_PER_PRB)))?;
            let prbs: Vec<Prb> = samples
                .chunks_exact(SAMPLES_PER_PRB)
                .map(|c| c.try_into().map(Prb).unwrap_or(Prb::ZERO))
                .collect();
            let section = USection::from_prbs(section_id, du_start, &prbs, s.method).ok()?;
            counters::bump(&mut self.stats.misaligned_copies);
            let mut section = section;
            section.section_id = section_id;
            return Some(section);
        }
        None
    }

    /// PRACH response demux (Algorithm 3 upstream): route each section to
    /// the DU whose id it carries, restoring the original section id.
    fn prach_from_ru(
        &mut self,
        ctx: &mut MbContext<'_>,
        port: u8,
        up: UPlaneRepr,
        out: &mut Vec<FhMessage>,
    ) {
        let key = (up.symbol.slot_start(), port);
        let Some(directory) = self.prach_orig.remove(&key) else {
            counters::bump(&mut self.stats.dropped);
            return;
        };
        ctx.charge(Work::Replicate { copies: directory.len() }, XdpPlacement::Userspace);
        for section in &up.sections {
            let Some(orig) = directory.get(&section.section_id) else {
                counters::bump(&mut self.stats.dropped);
                continue;
            };
            let Some(du) = self.cfg.dus.get(orig.du_idx).copied() else {
                counters::bump(&mut self.stats.dropped);
                continue;
            };
            let mut s = section.clone();
            s.section_id = orig.orig_section_id;
            let demuxed = UPlaneRepr {
                direction: Direction::Uplink,
                filter_index: 1,
                symbol: up.symbol,
                sections: vec![s],
            };
            let demuxed = FhMessage::new(
                self.cfg.mb_mac,
                du.mac,
                rb_fronthaul::eaxc::Eaxc::port(port),
                0,
                Body::UPlane(demuxed),
            );
            actions::emit(out, demuxed);
            counters::bump(&mut self.stats.prach_demuxes);
        }
    }
}

impl Middlebox for RuShare {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        if let Some(cp) = msg.as_cplane() {
            self.advance_horizon(cp.symbol);
        }
        match self.du_index(msg.eth.src) {
            Some(du_idx) => self.cplane_from_du(ctx, du_idx, msg, out),
            None => counters::bump(&mut self.stats.dropped),
        }
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        if let Some(up) = msg.as_uplane() {
            self.advance_horizon(up.symbol);
        }
        if msg.eth.src == self.cfg.ru_mac {
            self.ul_uplane_from_ru(ctx, msg, out);
        } else if self.du_index(msg.eth.src).is_some() {
            self.dl_uplane_from_du(ctx, msg, out);
        } else {
            counters::bump(&mut self.stats.dropped);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::cache::SymbolCache;
    use rb_core::telemetry::TelemetrySender;
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    const SCS: u64 = 30_000;
    const RU_CENTER: i64 = 3_460_000_000;

    fn ru_spec() -> CarrierSpec {
        CarrierSpec { center_hz: RU_CENTER, num_prb: 273, scs_hz: SCS }
    }

    /// Two 40 MHz DUs aligned at RU PRB offsets 0 and 106 (Figure 6 left).
    fn aligned_cfg() -> RuShareConfig {
        let du_center = |offset: u16| freq::aligned_du_center_hz(RU_CENTER, 273, 106, offset, SCS);
        RuShareConfig {
            mb_mac: mac(10),
            ru_mac: mac(9),
            ru: ru_spec(),
            dus: vec![
                SharedDu {
                    mac: mac(1),
                    du_id: 1,
                    carrier: CarrierSpec { center_hz: du_center(0), num_prb: 106, scs_hz: SCS },
                },
                SharedDu {
                    mac: mac(2),
                    du_id: 2,
                    carrier: CarrierSpec { center_hz: du_center(106), num_prb: 106, scs_hz: SCS },
                },
            ],
        }
    }

    /// DU B shifted by half a PRB (6 subcarriers) — Figure 6 right.
    fn misaligned_cfg() -> RuShareConfig {
        let mut cfg = aligned_cfg();
        cfg.dus[1].carrier.center_hz += 6 * SCS as i64;
        cfg
    }

    fn ctx<'a>(cache: &'a mut SymbolCache, tel: &'a TelemetrySender) -> MbContext<'a> {
        MbContext {
            now: SimTime(0),
            cache,
            telemetry: tel,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        }
    }

    fn symbol(sym: u8) -> SymbolId {
        SymbolId { frame: 0, subframe: 0, slot: 0, symbol: sym }
    }

    fn cplane(src: EthernetAddress, dir: Direction, start: u16, num: u16) -> FhMessage {
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                dir,
                symbol(0),
                CompressionMethod::BFP9,
                SectionFields::data(0, start, num, 14),
            )),
        )
    }

    fn tone(seed: i16) -> Prb {
        let mut p = Prb::ZERO;
        for (k, s) in p.0.iter_mut().enumerate() {
            *s = IqSample::new(seed.wrapping_add(k as i16 * 11), seed.wrapping_sub(k as i16 * 7));
        }
        p
    }

    fn dl_uplane(src: EthernetAddress, sym: u8, start: u16, prbs: &[Prb]) -> FhMessage {
        let section = USection::from_prbs(0, start, prbs, CompressionMethod::BFP9).unwrap();
        FhMessage::new(
            src,
            mac(10),
            Eaxc::port(0),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Downlink, symbol(sym), section)),
        )
    }

    #[test]
    fn alignment_detection() {
        let mb = RuShare::new("t", aligned_cfg());
        assert_eq!(mb.alignment()[0], Alignment::Aligned { prb_offset: 0 });
        assert_eq!(mb.alignment()[1], Alignment::Aligned { prb_offset: 106 });
        let mb = RuShare::new("t", misaligned_cfg());
        assert!(
            matches!(mb.alignment()[1], Alignment::Misaligned { sc_offset } if sc_offset % 12 == 6)
        );
    }

    #[test]
    fn first_cplane_is_maximized_rest_absorbed() {
        let mut mb = RuShare::new("t", aligned_cfg());
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        let out = mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), Direction::Downlink, 0, 50));
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].eth.dst, mac(9));
        let cp = out[0].as_cplane().unwrap();
        let s = &cp.sections.common_fields()[0];
        assert_eq!(s.num_prb, NUM_PRB_ALL, "numPrb maximized to the whole RU");
        assert_eq!(s.start_prb, 0);
        // Second DU's request for the same slot/port/direction is absorbed.
        let out =
            mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(2), Direction::Downlink, 10, 30));
        assert!(out.is_empty());
        assert_eq!(mb.stats.cplane_maximized, 1);
        assert_eq!(mb.stats.cplane_absorbed, 1);
    }

    #[test]
    fn dl_mux_waits_for_all_requesting_dus() {
        let mut mb = RuShare::new("t", aligned_cfg());
        let mut cache = SymbolCache::new(256);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), Direction::Downlink, 0, 4));
        mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(2), Direction::Downlink, 0, 4));
        let a = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(mac(1), 3, 0, &[tone(100); 4]));
        assert!(a.is_empty(), "waiting for DU B");
        let b = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(mac(2), 3, 0, &[tone(-50); 4]));
        assert_eq!(b.len(), 1, "both DUs present → mux");
        let muxed = b[0].as_uplane().unwrap();
        assert_eq!(b[0].eth.dst, mac(9));
        assert_eq!(muxed.sections[0].num_prb(), 273, "full RU grid");
        // DU A's PRBs at RU 0..4, DU B's at RU 106..110; elsewhere zero.
        let decoded = muxed.sections[0].decode().unwrap();
        assert!(!decoded[0].0.is_zero());
        assert!(!decoded[106].0.is_zero());
        assert!(decoded[50].0.is_zero());
        assert_eq!(mb.stats.dl_muxes, 1);
        assert!(mb.stats.aligned_copies >= 2);
    }

    #[test]
    fn dl_mux_places_prbs_at_correct_spectral_position() {
        let mut mb = RuShare::new("t", aligned_cfg());
        let mut cache = SymbolCache::new(256);
        let tel = TelemetrySender::disconnected("t");
        // Only DU B is active this slot.
        mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(2), Direction::Downlink, 10, 2));
        let src_prbs = [tone(500), tone(900)];
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(mac(2), 0, 10, &src_prbs));
        assert_eq!(out.len(), 1);
        let decoded = out[0].as_uplane().unwrap().sections[0].decode().unwrap();
        // DU B PRB 10 lands at RU PRB 106 + 10 = 116, bit-exact (aligned
        // fast path copies compressed bytes).
        let src_section = USection::from_prbs(0, 10, &src_prbs, CompressionMethod::BFP9).unwrap();
        let expect = src_section.decode().unwrap();
        assert_eq!(decoded[116].0, expect[0].0);
        assert_eq!(decoded[117].0, expect[1].0);
        assert!(decoded[10].0.is_zero(), "nothing at the DU-local index");
    }

    #[test]
    fn misaligned_mux_shifts_by_subcarriers() {
        let mut mb = RuShare::new("t", misaligned_cfg());
        let mut cache = SymbolCache::new(256);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(2), Direction::Downlink, 0, 1));
        let src = [tone(1000)];
        let out = mb.handle(&mut ctx(&mut cache, &tel), dl_uplane(mac(2), 0, 0, &src));
        assert_eq!(out.len(), 1);
        assert_eq!(mb.stats.misaligned_copies, 1);
        let decoded = out[0].as_uplane().unwrap().sections[0].decode().unwrap();
        // DU B PRB 0 starts at subcarrier 106×12+6: second half of RU PRB
        // 106 and first half of RU PRB 107.
        let src_dec =
            USection::from_prbs(0, 0, &src, CompressionMethod::BFP9).unwrap().decode().unwrap();
        let tol = 63; // two BFP round trips
        for k in 0..6 {
            let got = decoded[106].0 .0[6 + k];
            let want = src_dec[0].0 .0[k];
            assert!((got.i as i32 - want.i as i32).abs() <= tol, "sc {k}: {got:?} vs {want:?}");
        }
        for k in 0..6 {
            let got = decoded[107].0 .0[k];
            let want = src_dec[0].0 .0[6 + k];
            assert!((got.i as i32 - want.i as i32).abs() <= tol);
        }
    }

    #[test]
    fn ul_demux_replicates_per_requesting_du() {
        let mut mb = RuShare::new("t", aligned_cfg());
        let mut cache = SymbolCache::new(256);
        let tel = TelemetrySender::disconnected("t");
        mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(1), Direction::Uplink, 0, 4));
        mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(2), Direction::Uplink, 2, 3));
        // The RU returns the whole spectrum with distinct tones.
        let prbs: Vec<Prb> = (0..273).map(|k| tone(k as i16 * 3)).collect();
        let section = USection::from_prbs(0, 0, &prbs, CompressionMethod::BFP9).unwrap();
        let ru_msg = FhMessage::new(
            mac(9),
            mac(10),
            Eaxc::port(0),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Uplink, symbol(6), section.clone())),
        );
        let out = mb.handle(&mut ctx(&mut cache, &tel), ru_msg);
        assert_eq!(out.len(), 2);
        let to_a = out.iter().find(|m| m.eth.dst == mac(1)).unwrap();
        let to_b = out.iter().find(|m| m.eth.dst == mac(2)).unwrap();
        let sa = &to_a.as_uplane().unwrap().sections[0];
        let sb = &to_b.as_uplane().unwrap().sections[0];
        assert_eq!((sa.start_prb, sa.num_prb()), (0, 4));
        assert_eq!((sb.start_prb, sb.num_prb()), (2, 3));
        // DU A PRB 0 ↔ RU PRB 0; DU B PRB 2 ↔ RU PRB 108 — bit-exact.
        assert_eq!(sa.prb_bytes(0).unwrap(), section.prb_bytes(0).unwrap());
        assert_eq!(sb.prb_bytes(0).unwrap(), section.prb_bytes(108).unwrap());
        assert_eq!(mb.stats.ul_demuxes, 2);
    }

    #[test]
    fn prach_merge_translates_offsets_and_ids() {
        let mut mb = RuShare::new("t", aligned_cfg());
        let mut cache = SymbolCache::new(256);
        let tel = TelemetrySender::disconnected("t");
        let st3 = |src: EthernetAddress, fo: i32| {
            FhMessage::new(
                src,
                mac(10),
                Eaxc::port(0),
                0,
                Body::CPlane(CPlaneRepr {
                    direction: Direction::Uplink,
                    filter_index: 1,
                    symbol: symbol(0),
                    sections: Sections::Type3 {
                        time_offset: 0,
                        frame_structure: 0xb1,
                        cp_length: 0,
                        comp: CompressionMethod::BFP9,
                        sections: vec![rb_fronthaul::cplane::Section3 {
                            fields: SectionFields::data(0, 0, 12, 12),
                            frequency_offset: fo,
                        }],
                    },
                }),
            )
        };
        let out = mb.handle(&mut ctx(&mut cache, &tel), st3(mac(1), 600));
        assert!(out.is_empty(), "waits for all DUs");
        let out = mb.handle(&mut ctx(&mut cache, &tel), st3(mac(2), -300));
        assert_eq!(out.len(), 1, "merged occasion to the RU");
        let cp = out[0].as_cplane().unwrap();
        let Sections::Type3 { sections, .. } = &cp.sections else {
            panic!("expected type 3");
        };
        assert_eq!(sections.len(), 2);
        assert_eq!(sections[0].fields.section_id, 1, "section id = DU id");
        assert_eq!(sections[1].fields.section_id, 2);
        // Offsets translated: re0 frequency preserved per Appendix A.1.2.
        let du_a = &mb.config().dus[0];
        let half = SCS as i64 / 2;
        let re0_du = du_a.carrier.center_hz - 600 * half;
        let re0_ru = RU_CENTER - sections[0].frequency_offset as i64 * half;
        assert_eq!(re0_du, re0_ru);
        assert_eq!(mb.stats.prach_merges, 1);

        // The PRACH response demuxes by section id with ids restored.
        let resp_sections: Vec<USection> = vec![
            USection::from_prbs(1, 0, &[tone(5); 12], CompressionMethod::BFP9).unwrap(),
            USection::from_prbs(2, 0, &[Prb::ZERO; 12], CompressionMethod::BFP9).unwrap(),
        ];
        let resp = FhMessage::new(
            mac(9),
            mac(10),
            Eaxc::port(0),
            0,
            Body::UPlane(UPlaneRepr {
                direction: Direction::Uplink,
                filter_index: 1,
                symbol: symbol(0),
                sections: resp_sections,
            }),
        );
        let out = mb.handle(&mut ctx(&mut cache, &tel), resp);
        assert_eq!(out.len(), 2);
        let to_a = out.iter().find(|m| m.eth.dst == mac(1)).unwrap();
        assert_eq!(to_a.as_uplane().unwrap().sections[0].section_id, 0, "orig id restored");
        assert_eq!(to_a.as_uplane().unwrap().filter_index, 1);
        assert_eq!(mb.stats.prach_demuxes, 2);
    }

    #[test]
    fn unknown_sources_dropped() {
        let mut mb = RuShare::new("t", aligned_cfg());
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        let out = mb.handle(&mut ctx(&mut cache, &tel), cplane(mac(77), Direction::Downlink, 0, 4));
        assert!(out.is_empty());
        assert_eq!(mb.stats.dropped, 1);
    }

    #[test]
    #[should_panic(expected = "exceeds the RU")]
    fn du_spectrum_must_fit() {
        let mut cfg = aligned_cfg();
        cfg.dus[1].carrier.center_hz += 100 * 360_000; // push past the top
        RuShare::new("t", cfg);
    }

    #[test]
    fn ul_demux_only_for_covered_symbols() {
        let mut mb = RuShare::new("t", aligned_cfg());
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        // DU A requests only 7 symbols.
        let mut msg = cplane(mac(1), Direction::Uplink, 0, 4);
        if let Some(cp) = msg.as_cplane_mut() {
            if let Sections::Type1 { sections, .. } = &mut cp.sections {
                sections[0].num_symbols = 7;
            }
        }
        mb.handle(&mut ctx(&mut cache, &tel), msg);
        let prbs: Vec<Prb> = (0..273).map(|_| tone(9)).collect();
        let section = USection::from_prbs(0, 0, &prbs, CompressionMethod::BFP9).unwrap();
        let mk = |sym: u8| {
            FhMessage::new(
                mac(9),
                mac(10),
                Eaxc::port(0),
                0,
                Body::UPlane(UPlaneRepr::single(Direction::Uplink, symbol(sym), section.clone())),
            )
        };
        assert_eq!(mb.handle(&mut ctx(&mut cache, &tel), mk(3)).len(), 1);
        assert_eq!(mb.handle(&mut ctx(&mut cache, &tel), mk(10)).len(), 0, "beyond request");
    }
}

#[cfg(test)]
mod purge_tests {
    use super::*;
    use rb_core::cache::SymbolCache;
    use rb_core::telemetry::TelemetrySender;
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::timing::Numerology;
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn cfg() -> RuShareConfig {
        let du_center = freq::aligned_du_center_hz(3_460_000_000, 273, 106, 0, 30_000);
        RuShareConfig {
            mb_mac: mac(10),
            ru_mac: mac(9),
            ru: CarrierSpec { center_hz: 3_460_000_000, num_prb: 273, scs_hz: 30_000 },
            dus: vec![SharedDu {
                mac: mac(1),
                du_id: 1,
                carrier: CarrierSpec { center_hz: du_center, num_prb: 106, scs_hz: 30_000 },
            }],
        }
    }

    #[test]
    fn stale_slot_state_is_purged() {
        let mut mb = RuShare::new("purge", cfg());
        let mut cache = SymbolCache::new(64);
        let tel = TelemetrySender::disconnected("t");
        let n = Numerology::Mu1;
        // Feed DL C-plane for 100 consecutive slots without ever sending
        // U-plane (a half-dead DU): per-slot state must stay bounded.
        let mut symbol = SymbolId::ZERO;
        for _ in 0..100 {
            let msg = FhMessage::new(
                mac(1),
                mac(10),
                Eaxc::port(0),
                0,
                Body::CPlane(CPlaneRepr::single(
                    Direction::Downlink,
                    symbol,
                    CompressionMethod::BFP9,
                    SectionFields::data(0, 0, 50, 14),
                )),
            );
            let mut ctx = MbContext {
                now: SimTime(0),
                cache: &mut cache,
                telemetry: &tel,
                mapping: EaxcMapping::DEFAULT,
                charges: Vec::new(),
            };
            mb.handle(&mut ctx, msg);
            symbol = symbol.next_slot(n);
        }
        assert!(
            mb.cplane.len() <= 10,
            "per-slot C-plane state bounded by the horizon: {}",
            mb.cplane.len()
        );
    }
}
