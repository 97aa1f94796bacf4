//! The shared air interface ("medium").
//!
//! The medium is the meeting point of the three things a real radio
//! network couples physically:
//!
//! 1. **What was actually radiated.** RUs deposit, per slot and antenna
//!    stream, which absolute frequencies carried energy — derived from the
//!    U-plane packets they *really received through the middleboxes*.
//! 2. **What the schedulers intended.** DUs deposit downlink/uplink
//!    allocations (UE, frequency range, bits, layers).
//! 3. **Where the UEs are.** UE positions, attach state machines, SSB
//!    detection, PRACH attempts and CQI/rank feedback.
//!
//! Downlink credit happens at resolution time: an allocation only pays out
//! if a radiation *of its cell* covered its frequency range with energy,
//! reached the UE, and won the SINR battle against co-channel radiations
//! of other cells. A middlebox that drops, mis-steers or mangles packets
//! therefore shows up directly as lost throughput or failed attaches —
//! exactly how the paper's testbed would expose it.
//!
//! All state is deterministic; share a medium between nodes with
//! [`shared`].

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::cell::{CellConfig, Pci};
use crate::channel::{dbm_to_mw, ChannelParams, Position};
use crate::mcs;

/// UE identifier within a medium.
pub type UeId = usize;

/// A medium shared between simulation nodes.
#[derive(Clone)]
pub struct SharedMedium(Arc<Mutex<Medium>>);

impl SharedMedium {
    /// Lock the medium. Cannot fail: a lock poisoned by a panicking
    /// holder is taken over, since every `Medium` update leaves plain
    /// counters and maps that stay valid wherever it unwinds.
    pub fn lock(&self) -> MutexGuard<'_, Medium> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Wrap a medium for sharing.
pub fn shared(medium: Medium) -> SharedMedium {
    SharedMedium(Arc::new(Mutex::new(medium)))
}

/// Attach-state of a UE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UeAttach {
    /// Searching for a cell.
    Idle,
    /// Heard an SSB; will PRACH at the next occasion.
    PrachPending(Pci),
    /// PRACH transmitted, waiting for the DU to detect it.
    PrachInFlight(Pci),
    /// Attached to a cell.
    Attached(Pci),
}

/// Per-UE counters and link state, readable by harnesses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UeStats {
    /// Attach state.
    pub attach: UeAttach,
    /// Total downlink bits credited.
    pub dl_bits: u64,
    /// Total uplink bits credited.
    pub ul_bits: u64,
    /// Last resolved downlink SINR in dB.
    pub dl_sinr_db: f64,
    /// Current rank (usable MIMO streams).
    pub rank: u8,
    /// Times the UE attached.
    pub attaches: u32,
    /// Times the UE lost its cell (radio link failure).
    pub detaches: u32,
    /// Times the UE changed cells.
    pub handovers: u32,
}

/// CQI-style feedback a DU reads for scheduling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Feedback {
    /// Effective downlink SINR estimate, dB.
    pub sinr_db: f64,
    /// Usable MIMO rank.
    pub rank: u8,
}

/// A downlink allocation deposited by a DU scheduler.
#[derive(Debug, Clone, Copy)]
pub struct DlAlloc {
    /// The scheduling cell.
    pub pci: Pci,
    /// The scheduled UE.
    pub ue: UeId,
    /// Absolute frequency range `[lo, hi)` of the allocated PRBs, Hz.
    pub freq_lo: i64,
    /// Upper edge.
    pub freq_hi: i64,
    /// Number of PRBs.
    pub prbs: u16,
    /// Transport-block bits the DU scheduled.
    pub bits: u64,
    /// Spatial layers the DU transmitted with.
    pub layers: u8,
}

/// An uplink allocation deposited by a DU scheduler.
#[derive(Debug, Clone, Copy)]
pub struct UlAlloc {
    /// The scheduling cell.
    pub pci: Pci,
    /// The scheduled UE.
    pub ue: UeId,
    /// Absolute frequency range `[lo, hi)`, Hz.
    pub freq_lo: i64,
    /// Upper edge.
    pub freq_hi: i64,
    /// Number of PRBs.
    pub prbs: u16,
}

/// One antenna stream's radiated spectrum for one slot.
#[derive(Debug, Clone)]
struct Radiation {
    /// Cells this RU is deployed to serve (M-plane knowledge).
    pcis: Vec<Pci>,
    ru_pos: Position,
    /// Unique stream identity: (RU tag, antenna port).
    stream: (u64, u8),
    freq_lo: i64,
    prb_width: i64,
    prb_on: Vec<bool>,
    tx_dbm_per_prb: f64,
    /// True if this radiation is from antenna port 0 (SSB-capable).
    port0: bool,
}

impl Radiation {
    /// Fraction of `[lo, hi)` covered by lit PRBs.
    fn coverage(&self, lo: i64, hi: i64) -> f64 {
        if hi <= lo {
            return 0.0;
        }
        let mut lit: i64 = 0;
        for (k, on) in self.prb_on.iter().enumerate() {
            if !on {
                continue;
            }
            let p_lo = self.freq_lo + self.prb_width * k as i64;
            let p_hi = p_lo + self.prb_width;
            lit += (p_hi.min(hi) - p_lo.max(lo)).max(0);
        }
        lit as f64 / (hi - lo) as f64
    }
}

#[derive(Debug)]
struct UeEntry {
    pos: Position,
    max_layers: u8,
    attach: UeAttach,
    /// pci → (last slot heard, rsrp dBm).
    ssb_heard: HashMap<Pci, (u32, f64)>,
    /// pci → stream id → last slot seen (for rank estimation).
    streams: HashMap<Pci, HashMap<(u64, u8), u32>>,
    dl_bits: u64,
    ul_bits: u64,
    dl_sinr_db: f64,
    attaches: u32,
    detaches: u32,
    handovers: u32,
    prach_since: u32,
    preferred: Option<Pci>,
}

/// Tunable medium behaviour.
#[derive(Debug, Clone, Copy)]
pub struct MediumParams {
    /// Radio-channel constants.
    pub channel: ChannelParams,
    /// Slots an SSB sighting stays fresh (4 × 20 ms periods at μ=1).
    pub ssb_fresh_slots: u32,
    /// Slots after which a silent serving cell is declared lost.
    pub rlf_slots: u32,
    /// Slots a stream sighting counts towards rank.
    pub stream_fresh_slots: u32,
    /// Slots after which an undetected PRACH is retried.
    pub prach_timeout_slots: u32,
    /// Reference uplink IQ amplitude (Q15) at [`MediumParams::ul_ref_dbm`].
    pub ul_ref_amp: f64,
    /// Receive power producing [`MediumParams::ul_ref_amp`].
    pub ul_ref_dbm: f64,
}

impl Default for MediumParams {
    fn default() -> Self {
        MediumParams {
            channel: ChannelParams::default(),
            ssb_fresh_slots: 160,
            rlf_slots: 200,
            stream_fresh_slots: 40,
            prach_timeout_slots: 40,
            ul_ref_amp: 2000.0,
            ul_ref_dbm: -60.0,
        }
    }
}

/// Aggregate medium-level drop/loss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediumCounters {
    /// DL allocations with no covering radiation at all (middlebox loss).
    pub dl_unradiated: u64,
    /// DL allocations radiated but out of the UE's radio reach.
    pub dl_out_of_reach: u64,
    /// DL allocations credited (fully or partially).
    pub dl_credited: u64,
}

/// Orders SSB sightings by RSRP; equally strong cells (two carriers of one
/// shared RU) tie-break to the lower PCI, so the pick never depends on hash
/// order.
fn by_rsrp_then_pci(a: (&Pci, &(u32, f64)), b: (&Pci, &(u32, f64))) -> std::cmp::Ordering {
    a.1 .1.partial_cmp(&b.1 .1).expect("finite rsrp").then_with(|| b.0.cmp(a.0))
}

/// The shared air interface. See the module docs.
pub struct Medium {
    params: MediumParams,
    cells: HashMap<Pci, CellConfig>,
    ues: Vec<UeEntry>,
    radiations: HashMap<u32, Vec<Radiation>>,
    dl_allocs: HashMap<u32, Vec<DlAlloc>>,
    ul_allocs: HashMap<u32, Vec<UlAlloc>>,
    resolved_to: Option<u32>,
    /// Loss/credit counters.
    pub counters: MediumCounters,
}

impl Medium {
    /// A medium with the given parameters.
    pub fn new(params: MediumParams) -> Medium {
        Medium {
            params,
            cells: HashMap::new(),
            ues: Vec::new(),
            radiations: HashMap::new(),
            dl_allocs: HashMap::new(),
            ul_allocs: HashMap::new(),
            resolved_to: None,
            counters: MediumCounters::default(),
        }
    }

    /// The channel parameters in force.
    pub fn channel(&self) -> &ChannelParams {
        &self.params.channel
    }

    /// Register a cell (called by its DU at construction).
    pub fn register_cell(&mut self, cfg: CellConfig) {
        self.cells.insert(cfg.pci, cfg);
    }

    /// Look up a registered cell.
    pub fn cell(&self, pci: Pci) -> Option<&CellConfig> {
        self.cells.get(&pci)
    }

    /// Add a UE; returns its id.
    pub fn add_ue(&mut self, pos: Position, max_layers: u8) -> UeId {
        self.ues.push(UeEntry {
            pos,
            max_layers,
            attach: UeAttach::Idle,
            ssb_heard: HashMap::new(),
            streams: HashMap::new(),
            dl_bits: 0,
            ul_bits: 0,
            dl_sinr_db: 30.0,
            attaches: 0,
            detaches: 0,
            handovers: 0,
            prach_since: 0,
            preferred: None,
        });
        self.ues.len() - 1
    }

    /// Pin a UE to a specific cell ("forced association based on the
    /// physical cell id", paper §6.2.3). `None` restores free camping.
    pub fn set_preferred_cell(&mut self, ue: UeId, pci: Option<Pci>) {
        self.ues[ue].preferred = pci;
    }

    /// Move a UE (mobility experiments).
    pub fn set_ue_position(&mut self, ue: UeId, pos: Position) {
        self.ues[ue].pos = pos;
    }

    /// A UE's position.
    pub fn ue_position(&self, ue: UeId) -> Position {
        self.ues[ue].pos
    }

    /// Number of registered UEs.
    pub fn num_ues(&self) -> usize {
        self.ues.len()
    }

    /// Snapshot a UE's counters and state.
    pub fn ue_stats(&self, ue: UeId) -> UeStats {
        let e = &self.ues[ue];
        UeStats {
            attach: e.attach,
            dl_bits: e.dl_bits,
            ul_bits: e.ul_bits,
            dl_sinr_db: e.dl_sinr_db,
            rank: self.rank_of(ue),
            attaches: e.attaches,
            detaches: e.detaches,
            handovers: e.handovers,
        }
    }

    /// The UEs currently attached to `pci` (the DU's scheduling set).
    pub fn attached_ues(&self, pci: Pci) -> Vec<UeId> {
        self.ues
            .iter()
            .enumerate()
            .filter(|(_, e)| e.attach == UeAttach::Attached(pci))
            .map(|(k, _)| k)
            .collect()
    }

    /// CQI/rank feedback for an attached UE (the UCI side channel).
    pub fn feedback(&self, pci: Pci, ue: UeId) -> Option<Feedback> {
        let e = &self.ues[ue];
        if e.attach != UeAttach::Attached(pci) {
            return None;
        }
        Some(Feedback { sinr_db: e.dl_sinr_db, rank: self.rank_of(ue).max(1) })
    }

    fn rank_of(&self, ue: UeId) -> u8 {
        let e = &self.ues[ue];
        let pci = match e.attach {
            UeAttach::Attached(p) => p,
            _ => return 0,
        };
        let live = e.streams.get(&pci).map(|m| m.len()).unwrap_or(0);
        (live as u8).min(e.max_layers)
    }

    /// RU → medium: deposit one antenna stream's radiated spectrum for
    /// `slot`. `prb_on[k]` says whether the PRB starting at
    /// `freq_lo + k × prb_width` carried energy.
    #[allow(clippy::too_many_arguments)]
    pub fn radiate_dl(
        &mut self,
        slot: u32,
        pcis: &[Pci],
        ru_pos: Position,
        stream: (u64, u8),
        freq_lo: i64,
        prb_width: i64,
        prb_on: Vec<bool>,
        tx_dbm_per_prb: f64,
    ) {
        let rad = Radiation {
            pcis: pcis.to_vec(),
            ru_pos,
            stream,
            freq_lo,
            prb_width,
            prb_on,
            tx_dbm_per_prb,
            port0: stream.1 == 0,
        };
        // SSB detection: in an SSB slot, a port-0 radiation covering a
        // cell's SSB band is that cell's beacon.
        let cells: Vec<(Pci, (i64, i64), bool)> =
            self.cells.values().map(|c| (c.pci, c.ssb_freq_range(), c.is_ssb_slot(slot))).collect();
        if rad.port0 {
            for (pci, (lo, hi), is_ssb_slot) in cells {
                // A radiation beacons a cell's SSB only if the RU actually
                // serves that cell (the PCI is encoded in the waveform),
                // the slot is an SSB slot, and the band is fully lit.
                if !rad.pcis.contains(&pci) || !is_ssb_slot || rad.coverage(lo, hi) < 0.99 {
                    continue;
                }
                for e in self.ues.iter_mut() {
                    let rsrp =
                        rad.tx_dbm_per_prb - self.params.channel.path_loss_db(&rad.ru_pos, &e.pos);
                    if rsrp >= self.params.channel.attach_rsrp_dbm {
                        // Keep the freshest sighting; within one slot (DAS
                        // replicas) keep the strongest.
                        let entry = e.ssb_heard.entry(pci).or_insert((slot, rsrp));
                        if entry.0 < slot {
                            *entry = (slot, rsrp);
                        } else {
                            entry.1 = entry.1.max(rsrp);
                        }
                    }
                }
            }
        }
        self.radiations.entry(slot).or_default().push(rad);
    }

    /// DU → medium: deposit a downlink allocation for `slot`.
    pub fn deposit_dl(&mut self, slot: u32, alloc: DlAlloc) {
        self.dl_allocs.entry(slot).or_default().push(alloc);
    }

    /// DU → medium: deposit an uplink allocation for `slot`.
    pub fn deposit_ul(&mut self, slot: u32, alloc: UlAlloc) {
        self.ul_allocs.entry(slot).or_default().push(alloc);
    }

    /// RU → medium: per-PRB uplink signal amplitudes at an RU for `slot`.
    ///
    /// Returns an amplitude per PRB of the RU grid (0.0 = no UE transmits
    /// there). Amplitudes follow the UL link budget relative to the
    /// reference point in [`MediumParams`].
    pub fn ul_profile(
        &self,
        slot: u32,
        ru_pos: Position,
        freq_lo: i64,
        prb_width: i64,
        num_prb: u16,
    ) -> Vec<f64> {
        let mut out = vec![0.0; num_prb as usize];
        let Some(allocs) = self.ul_allocs.get(&slot) else {
            return out;
        };
        for a in allocs {
            let ue = &self.ues[a.ue];
            let rx_dbm = self.params.channel.ul_rx_dbm(&ue.pos, &ru_pos);
            let amp = self.params.ul_ref_amp * 10f64.powf((rx_dbm - self.params.ul_ref_dbm) / 20.0);
            for (k, slot_amp) in out.iter_mut().enumerate() {
                let p_lo = freq_lo + prb_width * k as i64;
                let p_hi = p_lo + prb_width;
                if p_lo >= a.freq_lo && p_hi <= a.freq_hi {
                    *slot_amp = slot_amp.max(amp);
                }
            }
        }
        out
    }

    /// RU → medium: UEs currently PRACHing into the window `[lo, hi)` that
    /// this RU can hear, for cells in `serves` (preambles are
    /// cell-specific, so an RU only detects attach attempts towards the
    /// cells it actually serves). Marks them in-flight. Returns
    /// (UE, amplitude).
    pub fn prach_poll(
        &mut self,
        slot: u32,
        ru_pos: Position,
        serves: &[Pci],
        lo: i64,
        hi: i64,
    ) -> Vec<(UeId, f64)> {
        let mut hits = Vec::new();
        let cells = &self.cells;
        let params = &self.params;
        for (id, e) in self.ues.iter_mut().enumerate() {
            let UeAttach::PrachPending(pci) = e.attach else {
                continue;
            };
            if !serves.contains(&pci) {
                continue;
            }
            let Some(cell) = cells.get(&pci) else {
                continue;
            };
            let (p_lo, p_hi) = cell.prach_freq_range();
            // The RU must be sampling the cell's PRACH window.
            if p_lo < lo || p_hi > hi {
                continue;
            }
            let rx_dbm = params.channel.ul_rx_dbm(&e.pos, &ru_pos);
            // PRACH has processing gain; give it 10 dB on top of data reach.
            if rx_dbm < params.channel.attach_rsrp_dbm - 10.0 {
                continue;
            }
            let amp = params.ul_ref_amp * 10f64.powf((rx_dbm - params.ul_ref_dbm) / 20.0);
            e.attach = UeAttach::PrachInFlight(pci);
            e.prach_since = slot;
            hits.push((id, amp));
        }
        hits
    }

    /// DU → medium: the DU detected PRACH energy for `pci`; complete the
    /// attach of one in-flight UE. Returns the attached UE.
    pub fn prach_detect(&mut self, pci: Pci) -> Option<UeId> {
        for (id, e) in self.ues.iter_mut().enumerate() {
            if e.attach == UeAttach::PrachInFlight(pci) {
                e.attach = UeAttach::Attached(pci);
                e.attaches += 1;
                return Some(id);
            }
        }
        None
    }

    /// DU → medium: credit decoded uplink bits to a UE.
    pub fn credit_ul(&mut self, ue: UeId, bits: u64) {
        self.ues[ue].ul_bits += bits;
    }

    /// Linear interference power (mW) at `ue_pos` over `[lo, hi)` from
    /// radiations in `slot` not serving `pci`.
    fn interference_mw(&self, slot: u32, pci: Pci, ue_pos: &Position, lo: i64, hi: i64) -> f64 {
        let Some(rads) = self.radiations.get(&slot) else {
            return 0.0;
        };
        let mut total = 0.0;
        for r in rads {
            if r.pcis.contains(&pci) {
                continue;
            }
            let cov = r.coverage(lo, hi);
            if cov <= 0.0 {
                continue;
            }
            let rx_dbm = r.tx_dbm_per_prb - self.params.channel.path_loss_db(&r.ru_pos, ue_pos);
            total += dbm_to_mw(rx_dbm) * cov;
        }
        total
    }

    /// Resolve all slots `≤ slot`: credit downlink allocations, advance UE
    /// attach state machines, prune old state. Idempotent; every DU calls
    /// it each slot and only the first call per slot does work.
    pub fn resolve_through(&mut self, slot: u32) {
        let from = match self.resolved_to {
            Some(r) if r >= slot => return,
            Some(r) => r + 1,
            None => 0,
        };
        for s in from..=slot {
            self.resolve_slot(s);
        }
        self.resolved_to = Some(slot);
        // Prune anything at or before the resolved horizon.
        self.radiations.retain(|k, _| *k > slot);
        self.dl_allocs.retain(|k, _| *k > slot);
        self.ul_allocs.retain(|k, _| *k > slot);
    }

    fn resolve_slot(&mut self, slot: u32) {
        self.credit_dl_slot(slot);
        self.advance_ue_state(slot);
    }

    fn credit_dl_slot(&mut self, slot: u32) {
        let Some(allocs) = self.dl_allocs.remove(&slot) else {
            return;
        };
        let scs = self.cells.values().next().map(|c| c.scs_hz()).unwrap_or(30_000);
        for a in allocs {
            let ue_pos = self.ues[a.ue].pos;
            // Carriers: radiations of this cell covering the allocation.
            let empty = Vec::new();
            let rads = self.radiations.get(&slot).unwrap_or(&empty);
            let mut best_rsrp = f64::NEG_INFINITY;
            let mut streams: Vec<(u64, u8)> = Vec::new();
            for r in rads {
                if !r.pcis.contains(&a.pci) || r.coverage(a.freq_lo, a.freq_hi) < 0.9 {
                    continue;
                }
                let rsrp = r.tx_dbm_per_prb - self.params.channel.path_loss_db(&r.ru_pos, &ue_pos);
                if rsrp >= self.params.channel.stream_rsrp_dbm && !streams.contains(&r.stream) {
                    streams.push(r.stream);
                }
                best_rsrp = best_rsrp.max(rsrp);
            }
            if streams.is_empty() && best_rsrp == f64::NEG_INFINITY {
                self.counters.dl_unradiated += 1;
                continue;
            }
            if best_rsrp < self.params.channel.attach_rsrp_dbm {
                self.counters.dl_out_of_reach += 1;
                continue;
            }
            // SINR against co-channel radiations of other cells.
            let i_mw = self.interference_mw(slot, a.pci, &ue_pos, a.freq_lo, a.freq_hi);
            let n_mw = dbm_to_mw(self.params.channel.noise_dbm_per_prb);
            let sinr_db = 10.0 * (dbm_to_mw(best_rsrp) / (n_mw + i_mw)).log10();

            let eff_layers = (streams.len() as u8).min(a.layers).max(1);
            // What the channel can actually deliver on these PRBs at this
            // SINR — over-scheduling is clipped here.
            let deliverable = mcs::dl_bits_per_slot(a.prbs, scs, eff_layers, sinr_db);
            let scaled = a.bits * eff_layers as u64 / a.layers.max(1) as u64;
            let credited = scaled.min(deliverable);
            let e = &mut self.ues[a.ue];
            e.dl_bits += credited;
            e.dl_sinr_db = sinr_db;
            let stream_map = e.streams.entry(a.pci).or_default();
            for s in streams {
                stream_map.insert(s, slot);
            }
            self.counters.dl_credited += 1;
        }
    }

    fn advance_ue_state(&mut self, slot: u32) {
        let params = self.params;
        for e in self.ues.iter_mut() {
            // Expire stale SSB sightings and stream sightings.
            e.ssb_heard.retain(|_, (s, _)| slot.saturating_sub(*s) <= params.ssb_fresh_slots);
            for m in e.streams.values_mut() {
                m.retain(|_, s| slot.saturating_sub(*s) <= params.stream_fresh_slots);
            }
            match e.attach {
                UeAttach::Idle => {
                    // Camp on the strongest freshly-heard cell (honouring
                    // a forced association if one is set).
                    if let Some((&pci, _)) = e
                        .ssb_heard
                        .iter()
                        .filter(|(p, _)| e.preferred.is_none() || e.preferred == Some(**p))
                        .max_by(|a, b| by_rsrp_then_pci(*a, *b))
                    {
                        e.attach = UeAttach::PrachPending(pci);
                        e.prach_since = slot;
                    }
                }
                UeAttach::PrachPending(pci) | UeAttach::PrachInFlight(pci) => {
                    // Give up and reselect if the cell faded away.
                    if !e.ssb_heard.contains_key(&pci) {
                        e.attach = UeAttach::Idle;
                    } else if matches!(e.attach, UeAttach::PrachInFlight(_))
                        && slot.saturating_sub(e.prach_since) > params.prach_timeout_slots
                    {
                        e.attach = UeAttach::PrachPending(pci);
                    }
                }
                UeAttach::Attached(pci) => {
                    match e.ssb_heard.get(&pci) {
                        None => {
                            // Radio link failure.
                            e.attach = UeAttach::Idle;
                            e.detaches += 1;
                            e.streams.remove(&pci);
                        }
                        Some(&(_, serving_rsrp)) => {
                            // Handover when a neighbour beats serving by
                            // the hysteresis.
                            let better = e
                                .ssb_heard
                                .iter()
                                .filter(|(p, _)| **p != pci)
                                .filter(|(p, _)| e.preferred.is_none() || e.preferred == Some(**p))
                                .filter(|(_, (_, r))| {
                                    *r > serving_rsrp + params.channel.handover_hysteresis_db
                                })
                                .max_by(|a, b| by_rsrp_then_pci(*a, *b))
                                .map(|(p, _)| *p);
                            if let Some(target) = better {
                                e.attach = UeAttach::PrachPending(target);
                                e.handovers += 1;
                                e.streams.remove(&pci);
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CENTER: i64 = 3_460_000_000;
    const PRBW: i64 = 360_000;

    fn medium_with_cell() -> (Medium, CellConfig) {
        let mut m = Medium::new(MediumParams::default());
        let cell = CellConfig::mhz100(1, CENTER, 4);
        m.register_cell(cell.clone());
        (m, cell)
    }

    fn full_radiation(
        cell: &CellConfig,
        _ru_pos: Position,
        _stream: (u64, u8),
    ) -> (i64, Vec<bool>) {
        let (lo, _) = cell.carrier_freq_range();
        (lo, vec![true; cell.num_prb as usize])
    }

    fn radiate_full(m: &mut Medium, cell: &CellConfig, slot: u32, ru: Position, stream: (u64, u8)) {
        let (lo, on) = full_radiation(cell, ru, stream);
        m.radiate_dl(slot, &[cell.pci], ru, stream, lo, PRBW, on, 0.0);
    }

    fn attach_ue(m: &mut Medium, cell: &CellConfig, ue: UeId, ru: Position) {
        // SSB slot 0 → pending; PRACH; DU detects.
        radiate_full(m, cell, 0, ru, (1, 0));
        m.resolve_through(0);
        assert_eq!(m.ue_stats(ue).attach, UeAttach::PrachPending(cell.pci));
        let (lo, hi) = cell.carrier_freq_range();
        let hits = m.prach_poll(19, ru, &[cell.pci], lo, hi);
        assert_eq!(hits.len(), 1);
        assert_eq!(m.prach_detect(cell.pci), Some(ue));
    }

    #[test]
    fn ssb_prach_attach_flow() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell, ue, ru);
        let st = m.ue_stats(ue);
        assert_eq!(st.attach, UeAttach::Attached(1));
        assert_eq!(st.attaches, 1);
        assert_eq!(m.attached_ues(1), vec![ue]);
    }

    #[test]
    fn out_of_range_ue_never_attaches() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(10.0, 10.0, 2), 4); // two floors up
        radiate_full(&mut m, &cell, 0, ru, (1, 0));
        m.resolve_through(0);
        assert_eq!(m.ue_stats(ue).attach, UeAttach::Idle);
    }

    #[test]
    fn ssb_requires_ssb_slot_and_port0() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        // Slot 1 is not an SSB slot.
        radiate_full(&mut m, &cell, 1, ru, (1, 0));
        m.resolve_through(1);
        assert_eq!(m.ue_stats(ue).attach, UeAttach::Idle);
        // Port 1 radiation in an SSB slot is not a beacon either.
        radiate_full(&mut m, &cell, 40, ru, (1, 1));
        m.resolve_through(40);
        assert_eq!(m.ue_stats(ue).attach, UeAttach::Idle);
        let _ = ue;
    }

    #[test]
    fn dl_credit_requires_radiation() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell, ue, ru);
        let (lo, hi) = cell.prb_freq_range(0, 100);
        // Alloc without radiation → unradiated.
        m.deposit_dl(
            100,
            DlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 100, bits: 100_000, layers: 4 },
        );
        m.resolve_through(100);
        assert_eq!(m.ue_stats(ue).dl_bits, 0);
        assert_eq!(m.counters.dl_unradiated, 1);
        // Alloc with radiation → credited.
        for port in 0..4u8 {
            radiate_full(&mut m, &cell, 101, ru, (1, port));
        }
        m.deposit_dl(
            101,
            DlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 100, bits: 100_000, layers: 4 },
        );
        m.resolve_through(101);
        assert_eq!(m.ue_stats(ue).dl_bits, 100_000);
        assert_eq!(m.counters.dl_credited, 1);
    }

    #[test]
    fn partial_streams_scale_credit() {
        // DU claims 4 layers but only 2 streams radiate (the dMIMO
        // middlebox missing): credit halves.
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell, ue, ru);
        let (lo, hi) = cell.prb_freq_range(0, 100);
        for port in 0..2u8 {
            radiate_full(&mut m, &cell, 100, ru, (1, port));
        }
        m.deposit_dl(
            100,
            DlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 100, bits: 100_000, layers: 4 },
        );
        m.resolve_through(100);
        assert_eq!(m.ue_stats(ue).dl_bits, 50_000);
    }

    #[test]
    fn interference_lowers_sinr_and_clips_credit() {
        let mut m = Medium::new(MediumParams::default());
        let cell_a = CellConfig::mhz100(1, CENTER, 4);
        let cell_b = CellConfig::mhz100(2, CENTER, 4); // co-channel!
        m.register_cell(cell_a.clone());
        m.register_cell(cell_b.clone());
        let ru_a = Position::new(5.0, 10.0, 0);
        let ru_b = Position::new(15.0, 10.0, 0);
        let ue = m.add_ue(Position::new(10.0, 10.0, 0), 4); // midway
        attach_ue(&mut m, &cell_a, ue, ru_a);

        // Clean slot: only cell A radiates.
        let (lo, hi) = cell_a.prb_freq_range(0, 273);
        let big = 10_000_000u64;
        for port in 0..4u8 {
            radiate_full(&mut m, &cell_a, 100, ru_a, (1, port));
        }
        m.deposit_dl(
            100,
            DlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 273, bits: big, layers: 4 },
        );
        m.resolve_through(100);
        let clean = m.ue_stats(ue).dl_bits;
        let clean_sinr = m.ue_stats(ue).dl_sinr_db;

        // Interfered slot: cell B radiates the same spectrum from nearby.
        for port in 0..4u8 {
            radiate_full(&mut m, &cell_a, 101, ru_a, (1, port));
            let (blo, on) = (cell_b.carrier_freq_range().0, vec![true; 273]);
            m.radiate_dl(101, &[2], ru_b, (2, port), blo, PRBW, on, 0.0);
        }
        m.deposit_dl(
            101,
            DlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 273, bits: big, layers: 4 },
        );
        m.resolve_through(101);
        let jammed = m.ue_stats(ue).dl_bits - clean;
        let jammed_sinr = m.ue_stats(ue).dl_sinr_db;
        assert!(jammed_sinr < clean_sinr - 20.0, "{jammed_sinr} vs {clean_sinr}");
        assert!(jammed < clean / 3, "jammed {jammed} clean {clean}");
    }

    #[test]
    fn das_multi_ru_radiation_is_single_carrier() {
        // Five RUs radiating the same cell: credit once, best server wins.
        let (mut m, cell) = medium_with_cell();
        let ru0 = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell, ue, ru0);
        let (lo, hi) = cell.prb_freq_range(0, 100);
        for floor in 0..5 {
            let ru = Position::new(10.0, 10.0, floor);
            radiate_full(&mut m, &cell, 100, ru, (floor as u64 + 1, 0));
        }
        m.deposit_dl(
            100,
            DlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 100, bits: 50_000, layers: 1 },
        );
        m.resolve_through(100);
        // Same-cell RUs never count as interference.
        assert_eq!(m.ue_stats(ue).dl_bits, 50_000);
        assert!(m.ue_stats(ue).dl_sinr_db > 30.0);
    }

    #[test]
    fn ul_profile_places_ue_signal_in_frequency() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell, ue, ru);
        let (alo, ahi) = cell.prb_freq_range(50, 10);
        m.deposit_ul(200, UlAlloc { pci: 1, ue, freq_lo: alo, freq_hi: ahi, prbs: 10 });
        let (clo, _) = cell.carrier_freq_range();
        let profile = m.ul_profile(200, ru, clo, PRBW, cell.num_prb);
        assert!(profile[49] == 0.0);
        assert!(profile[50] > 100.0, "signal amp {}", profile[50]);
        assert!(profile[59] > 100.0);
        assert_eq!(profile[60], 0.0);
        // A distant RU hears it much weaker.
        let far = m.ul_profile(200, Position::new(45.0, 10.0, 0), clo, PRBW, cell.num_prb);
        assert!(far[50] < profile[50] / 3.0);
    }

    #[test]
    fn prach_timeout_retries() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        radiate_full(&mut m, &cell, 0, ru, (1, 0));
        m.resolve_through(0);
        let (lo, hi) = cell.carrier_freq_range();
        m.prach_poll(19, ru, &[1], lo, hi);
        assert_eq!(m.ue_stats(ue).attach, UeAttach::PrachInFlight(1));
        // DU never detects (middlebox dropped it); keep SSB fresh and let
        // the timeout pass.
        radiate_full(&mut m, &cell, 40, ru, (1, 0));
        m.resolve_through(70);
        assert_eq!(m.ue_stats(ue).attach, UeAttach::PrachPending(1));
    }

    #[test]
    fn rlf_on_silent_cell() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell, ue, ru);
        // No SSB for far longer than the freshness horizon.
        m.resolve_through(400);
        let st = m.ue_stats(ue);
        assert_eq!(st.attach, UeAttach::Idle);
        assert_eq!(st.detaches, 1);
    }

    #[test]
    fn handover_to_stronger_cell() {
        let mut m = Medium::new(MediumParams::default());
        let cell_a = CellConfig::mhz100(1, CENTER, 4);
        let cell_b = CellConfig::mhz100(2, CENTER + 100_000_000, 4);
        m.register_cell(cell_a.clone());
        m.register_cell(cell_b.clone());
        let ru_a = Position::new(5.0, 10.0, 0);
        let ru_b = Position::new(45.0, 10.0, 0);
        let ue = m.add_ue(Position::new(6.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell_a, ue, ru_a);
        // UE walks next to RU B; both cells keep beaconing.
        m.set_ue_position(ue, Position::new(44.0, 10.0, 0));
        radiate_full(&mut m, &cell_a, 40, ru_a, (1, 0));
        radiate_full(&mut m, &cell_b, 40, ru_b, (2, 0));
        m.resolve_through(41);
        let st = m.ue_stats(ue);
        assert_eq!(st.attach, UeAttach::PrachPending(2));
        assert_eq!(st.handovers, 1);
    }

    #[test]
    fn feedback_reports_rank_from_streams() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell, ue, ru);
        let (lo, hi) = cell.prb_freq_range(0, 100);
        for port in 0..4u8 {
            radiate_full(&mut m, &cell, 100, ru, (1, port));
        }
        m.deposit_dl(
            100,
            DlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 100, bits: 1000, layers: 4 },
        );
        m.resolve_through(100);
        let fb = m.feedback(1, ue).unwrap();
        assert_eq!(fb.rank, 4);
        assert!(fb.sinr_db > 20.0);
        assert!(m.feedback(9, ue).is_none());
    }

    #[test]
    fn resolve_is_idempotent_and_prunes() {
        let (mut m, cell) = medium_with_cell();
        let ru = Position::new(10.0, 10.0, 0);
        let ue = m.add_ue(Position::new(12.0, 10.0, 0), 4);
        attach_ue(&mut m, &cell, ue, ru);
        let (lo, hi) = cell.prb_freq_range(0, 10);
        radiate_full(&mut m, &cell, 100, ru, (1, 0));
        m.deposit_dl(
            100,
            DlAlloc { pci: 1, ue, freq_lo: lo, freq_hi: hi, prbs: 10, bits: 777, layers: 1 },
        );
        m.resolve_through(100);
        m.resolve_through(100);
        m.resolve_through(99); // going backwards is a no-op
        assert_eq!(m.ue_stats(ue).dl_bits, 777);
        assert!(m.radiations.is_empty());
        assert!(m.dl_allocs.is_empty());
    }
}
