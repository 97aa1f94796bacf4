//! The engine-independent middlebox packet path.
//!
//! [`MbPipeline`] is the part of hosting a [`Middlebox`] that has nothing
//! to do with *where* the packets come from: parse the frame, apply the
//! VF MAC filter, invoke the handlers with an [`MbContext`], apply the
//! management forwarding rules, stamp fresh eCPRI sequence numbers per
//! output stream and serialize the results. Both execution environments
//! wrap it:
//!
//! * [`crate::host::MiddleboxHost`] drives it from the discrete-event
//!   simulator and adds modeled CPU/latency accounting;
//! * `rb-dataplane`'s workers drive it from a live packet path (pcap
//!   replay, loopback, later AF_XDP), one pipeline per worker thread.
//!
//! Keeping this glue in one place is what makes the sim-vs-runtime
//! equivalence tests meaningful: the only difference between the two
//! executions is the I/O and the clock, never the packet processing.

use std::collections::HashMap;

use rb_fronthaul::eaxc::EaxcMapping;
use rb_fronthaul::ecpri::{self, SeqStep};
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage, MsgRecycler};
use rb_fronthaul::Direction;
use rb_netsim::cost::{Work, XdpPlacement};
use rb_netsim::time::SimTime;

use crate::cache::SymbolCache;
use crate::mgmt::{self, RulesCache, SharedRules};
use crate::middlebox::{MbContext, Middlebox};
use crate::telemetry::{counters, TelemetrySender};

/// Traffic classes used for per-class latency accounting (Figure 15b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// Downlink C-plane.
    DlCPlane,
    /// Downlink U-plane.
    DlUPlane,
    /// Uplink C-plane.
    UlCPlane,
    /// Uplink U-plane.
    UlUPlane,
}

impl TrafficClass {
    /// Number of classes: the length of a per-class array.
    pub const COUNT: usize = 4;

    /// This class's slot in a `[_; TrafficClass::COUNT]`.
    pub fn index(self) -> usize {
        match self {
            TrafficClass::DlCPlane => 0,
            TrafficClass::DlUPlane => 1,
            TrafficClass::UlCPlane => 2,
            TrafficClass::UlUPlane => 3,
        }
    }

    /// Classify a parsed message.
    pub fn of(msg: &FhMessage) -> TrafficClass {
        match (msg.body.direction(), &msg.body) {
            (Direction::Downlink, Body::CPlane(_)) => TrafficClass::DlCPlane,
            (Direction::Downlink, Body::UPlane(_)) => TrafficClass::DlUPlane,
            (Direction::Uplink, Body::CPlane(_)) => TrafficClass::UlCPlane,
            (Direction::Uplink, Body::UPlane(_)) => TrafficClass::UlUPlane,
            // Recovery control (NACKs, parity) is small control-ish traffic:
            // account it with the C-plane class of its direction rather than
            // inventing a fifth latency bucket the paper's figures lack.
            (Direction::Downlink, Body::Recovery(_)) => TrafficClass::DlCPlane,
            (Direction::Uplink, Body::Recovery(_)) => TrafficClass::UlCPlane,
        }
    }
}

/// How [`MbPipeline::transmit`] assigns eCPRI sequence numbers to outgoing
/// frames.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeqMode {
    /// Stamp a fresh per-`(dst, eAxC)` counter on every outgoing frame
    /// (the default): each hop originates its own sequence space, which is
    /// what the gap detector downstream expects of a store-and-forward
    /// middlebox.
    #[default]
    Restamp,
    /// Keep the sequence number already in the message. Recovery
    /// deployments (ARQ replay caches, FEC windows) need the data frames
    /// to cross the lossy link byte-identical to what the sender cached,
    /// so the upstream stamp must survive the hop. Recovery *control*
    /// messages carry their own counters regardless of mode.
    Preserve,
}

/// Aggregate datapath statistics of one pipeline (one hosted middlebox).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct HostStats {
    /// Frames received.
    pub rx: u64,
    /// Frames transmitted.
    pub tx: u64,
    /// Frames that failed to parse.
    pub parse_errors: u64,
    /// Frames filtered out because they were not addressed to this host
    /// (the VF's MAC filter).
    pub not_for_us: u64,
    /// Messages dropped by management rules.
    pub rule_drops: u64,
    /// Messages that failed to serialize (handler produced invalid repr).
    pub emit_errors: u64,
    /// Missing eCPRI sequence numbers observed across all rx streams: a
    /// jump from 3 to 7 on one `(src, eAxC, direction)` stream adds 3.
    pub seq_gaps: u64,
    /// Repeated or late-replayed eCPRI sequence numbers observed.
    pub seq_dups: u64,
    /// Parse failures on frames that carried the eCPRI EtherType — damaged
    /// fronthaul traffic, as opposed to foreign protocols or line noise
    /// (a subset of [`HostStats::parse_errors`]).
    pub frames_corrupt: u64,
    /// Frames forwarded without gap/duplicate tracking because the rx
    /// sequence map already held its maximum of 65 536 other streams —
    /// non-zero only when a peer cycles source addresses.
    pub seq_untracked: u64,
}

impl HostStats {
    /// Add `other`'s counters to `self`'s (per-worker pipelines summed into
    /// run totals).
    pub fn merge(&mut self, other: &HostStats) {
        // Exhaustive on purpose: a new counter that is not summed here is
        // a compile error, not a total that silently reads zero.
        let HostStats {
            rx,
            tx,
            parse_errors,
            not_for_us,
            rule_drops,
            emit_errors,
            seq_gaps,
            seq_dups,
            frames_corrupt,
            seq_untracked,
        } = *other;
        counters::bump_by(&mut self.rx, rx);
        counters::bump_by(&mut self.tx, tx);
        counters::bump_by(&mut self.parse_errors, parse_errors);
        counters::bump_by(&mut self.not_for_us, not_for_us);
        counters::bump_by(&mut self.rule_drops, rule_drops);
        counters::bump_by(&mut self.emit_errors, emit_errors);
        counters::bump_by(&mut self.seq_gaps, seq_gaps);
        counters::bump_by(&mut self.seq_dups, seq_dups);
        counters::bump_by(&mut self.frames_corrupt, frames_corrupt);
        counters::bump_by(&mut self.seq_untracked, seq_untracked);
    }
}

/// Most `(src, eAxC, direction)` rx streams one pipeline tracks for
/// gaps and duplicates. The source MAC comes off the wire, so without a
/// bound a sender cycling addresses grows the map for as long as it likes;
/// the city scenario has 1 212 streams, and a full map is ~2 MiB.
const RX_SEQ_STREAMS_MAX: usize = 65_536;

/// What happened to one input frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProcessOutcome {
    /// The frame reached the handler. The work charges the handler
    /// reported (none, if it reported none) are available from
    /// [`MbPipeline::last_charges`] until the next call.
    Handled {
        /// Traffic class of the input message.
        class: TrafficClass,
    },
    /// The frame failed to parse (counted in
    /// [`HostStats::parse_errors`]).
    ParseError,
    /// The frame was not addressed to this pipeline's MAC (counted in
    /// [`HostStats::not_for_us`]).
    NotForUs,
}

/// The reusable middlebox execution core: everything between "a raw frame
/// arrived" and "these raw frames leave", independent of the hosting
/// environment. Emitted frames are handed to a caller-supplied sink so the
/// simulator can route them through [`rb_netsim::engine::Outbox`] while
/// the dataplane pushes them onto its transmit rings.
pub struct MbPipeline<M: Middlebox> {
    mb: M,
    mac: EthernetAddress,
    mapping: EaxcMapping,
    cache: SymbolCache,
    telemetry: TelemetrySender,
    rules: SharedRules,
    // Datapath-private clone of the rule table, refreshed only when the
    // management plane publishes a new generation — the steady-state
    // packet path never takes the shared table's lock.
    rules_cache: RulesCache,
    seq: HashMap<(EthernetAddress, u16), u8>,
    seq_mode: SeqMode,
    // Last eCPRI sequence number seen per (source MAC, eAxC, direction)
    // rx stream — the gap/duplicate detector the fault-injection suite
    // exercises. The key mirrors the dispatcher's flow definition (DL
    // and UL share an eAxC id but are independent flows), so the summed
    // findings are identical at every worker count even when one source
    // interleaves both directions on one eAxC.
    rx_seq: HashMap<(EthernetAddress, u16, Direction), u8>,
    // Per-pipeline scratch, cleared and reused across process() calls so
    // the steady-state packet path performs no heap allocation: the
    // serialization buffer, the handler's emit list, the work charges of
    // the most recent frame, and the body-buffer recycler feeding parses.
    tx_buf: Vec<u8>,
    emits: Vec<FhMessage>,
    charges: Vec<(Work, XdpPlacement)>,
    recycler: MsgRecycler,
    /// Aggregate counters.
    pub stats: HostStats,
}

impl<M: Middlebox> MbPipeline<M> {
    /// A pipeline for `mb`, receiving on Ethernet address `mac`, with the
    /// default eAxC mapping, a fresh rule table and disconnected
    /// telemetry.
    pub fn new(mb: M, mac: EthernetAddress) -> MbPipeline<M> {
        let telemetry = TelemetrySender::disconnected(mb.name());
        MbPipeline {
            mb,
            mac,
            mapping: EaxcMapping::DEFAULT,
            cache: SymbolCache::new(4096),
            telemetry,
            rules: mgmt::shared(),
            rules_cache: RulesCache::new(),
            seq: HashMap::new(),
            seq_mode: SeqMode::default(),
            rx_seq: HashMap::new(),
            tx_buf: Vec::new(),
            emits: Vec::new(),
            charges: Vec::new(),
            recycler: MsgRecycler::default(),
            stats: HostStats::default(),
        }
    }

    /// Replace the telemetry sender (e.g. a monitoring application
    /// subscribing to an already-deployed middlebox).
    pub fn set_telemetry(&mut self, telemetry: TelemetrySender) {
        self.telemetry = telemetry;
    }

    /// Use a non-default eAxC mapping.
    pub fn set_mapping(&mut self, mapping: EaxcMapping) {
        self.mapping = mapping;
    }

    /// Select how outgoing frames get their sequence numbers (see
    /// [`SeqMode`]). Recovery pipelines run [`SeqMode::Preserve`].
    pub fn set_seq_mode(&mut self, mode: SeqMode) {
        self.seq_mode = mode;
    }

    /// Share a management rule table (e.g. with an orchestrator).
    pub fn set_rules(&mut self, rules: SharedRules) {
        self.rules = rules;
        // The cached clone belongs to the previous table; force a refresh
        // on the next message even if the generations happen to collide.
        self.rules_cache.invalidate();
    }

    /// This pipeline's MAC address.
    pub fn mac(&self) -> EthernetAddress {
        self.mac
    }

    /// The deployment's eAxC mapping.
    pub fn mapping(&self) -> EaxcMapping {
        self.mapping
    }

    /// The hosted middlebox.
    pub fn middlebox(&self) -> &M {
        &self.mb
    }

    /// Mutable access to the hosted middlebox.
    pub fn middlebox_mut(&mut self) -> &mut M {
        &mut self.mb
    }

    /// The shared management rule table.
    pub fn rules(&self) -> SharedRules {
        self.rules.clone()
    }

    fn next_seq(&mut self, dst: EthernetAddress, eaxc_raw: u16) -> u8 {
        let counter = self.seq.entry((dst, eaxc_raw)).or_insert(0);
        let v = *counter;
        *counter = counter.wrapping_add(1);
        v
    }

    /// Track the incoming eCPRI sequence number of one
    /// `(src, eAxC, direction)` stream with 8-bit wrapping arithmetic: a
    /// forward jump of `d` records `d - 1` gaps, a repeat or a backward
    /// jump records a duplicate (late replays do not rewind the stream
    /// position). Once [`RX_SEQ_STREAMS_MAX`] streams are tracked, frames
    /// of any further stream are counted in [`HostStats::seq_untracked`]
    /// instead; the tracked ones are unaffected.
    fn observe_seq(&mut self, src: EthernetAddress, eaxc_raw: u16, dir: Direction, seq: u8) {
        match self.rx_seq.get_mut(&(src, eaxc_raw, dir)) {
            Some(last) => match ecpri::seq_step(*last, seq) {
                SeqStep::Next => *last = seq,
                SeqStep::Ahead { skipped } => {
                    counters::bump_by(&mut self.stats.seq_gaps, u64::from(skipped));
                    *last = seq;
                }
                SeqStep::Repeat | SeqStep::Behind => counters::bump(&mut self.stats.seq_dups),
            },
            None => {
                if self.rx_seq.len() < RX_SEQ_STREAMS_MAX {
                    self.rx_seq.insert((src, eaxc_raw, dir), seq);
                } else {
                    counters::bump(&mut self.stats.seq_untracked);
                }
            }
        }
    }

    /// The work charges recorded for the most recent
    /// [`MbPipeline::process`] call that returned
    /// [`ProcessOutcome::Handled`] (valid until the next call).
    pub fn last_charges(&self) -> &[(Work, XdpPlacement)] {
        &self.charges
    }

    /// Apply the rules to `msg`, restamp it, serialize it into `tx_buf` and
    /// hand the frame to `emit`. `in_buf` is the message whose frame `tx_buf`
    /// already holds, if any: when `msg` — *after* rules and restamp —
    /// shares its wire tail with it (an A2 replica: same body fields,
    /// pointer-identical payloads), only the Ethernet and eCPRI headers are
    /// rewritten. Pointer identity is enough because `in_buf` is still
    /// alive: a write to a shared payload lands in a fresh block, so the
    /// block is as it was serialized. Returns whether `tx_buf` now holds
    /// `msg`'s frame.
    fn transmit(
        &mut self,
        msg: &mut FhMessage,
        in_buf: Option<&FhMessage>,
        emit: &mut dyn FnMut(&[u8]),
    ) -> bool {
        let eaxc_raw = msg.eaxc.pack(&self.mapping);
        if !self.rules_cache.apply(&self.rules, msg, eaxc_raw) {
            counters::bump(&mut self.stats.rule_drops);
            return false;
        }
        // A rule may have rewritten the eAxC id (`SetEaxc`): sequence
        // streams are keyed by the *post-rule* (dst, eAxC) pair the frame
        // actually leaves on, so re-derive the raw id after the rules ran.
        let eaxc_raw = msg.eaxc.pack(&self.mapping);
        if self.seq_mode == SeqMode::Restamp {
            msg.seq_id = self.next_seq(msg.eth.dst, eaxc_raw);
        }
        let serialized = match in_buf {
            Some(prev) if msg.shares_wire_tail(prev) => {
                msg.serialize_headers_into(&self.mapping, &mut self.tx_buf)
            }
            _ => msg.serialize_into(&self.mapping, &mut self.tx_buf),
        };
        if serialized.is_ok() {
            counters::bump(&mut self.stats.tx);
            emit(&self.tx_buf);
        } else {
            counters::bump(&mut self.stats.emit_errors);
        }
        serialized.is_ok()
    }

    /// Run one raw frame through the full path: parse, MAC-filter, handle,
    /// apply rules, restamp sequence numbers, serialize. Every emitted
    /// frame is passed to `emit` in transmission order; the slice is only
    /// valid for the duration of the call (the buffer is reused).
    pub fn process(
        &mut self,
        now: SimTime,
        frame: &[u8],
        emit: &mut dyn FnMut(&[u8]),
    ) -> ProcessOutcome {
        counters::bump(&mut self.stats.rx);
        let msg = match self.recycler.parse(frame, &self.mapping) {
            Ok(m) => m,
            Err(_) => {
                counters::bump(&mut self.stats.parse_errors);
                if looks_like_ecpri(frame) {
                    counters::bump(&mut self.stats.frames_corrupt);
                }
                return ProcessOutcome::ParseError;
            }
        };
        // VF MAC filtering: only frames addressed to us (or broadcast)
        // reach the middlebox. This also breaks forwarding loops caused by
        // unknown-destination flooding in the embedded switch.
        if msg.eth.dst != self.mac && !msg.eth.dst.is_broadcast() {
            counters::bump(&mut self.stats.not_for_us);
            self.recycler.recycle(msg);
            return ProcessOutcome::NotForUs;
        }
        // Recovery control runs its own sequence space (NACK/parity
        // emitters keep private counters), so it must not pollute the
        // data-stream gap/duplicate statistics.
        if !matches!(msg.body, Body::Recovery(_)) {
            self.observe_seq(
                msg.eth.src,
                msg.eaxc.pack(&self.mapping),
                msg.body.direction(),
                msg.seq_id,
            );
        }
        let class = TrafficClass::of(&msg);
        self.run_handler(now, emit, |mb, ctx, out| mb.handle_into(ctx, msg, out));
        ProcessOutcome::Handled { class }
    }

    /// Deliver a timer tick to the middlebox, transmitting whatever it
    /// emits (watchdog reports, purge notifications).
    pub fn tick(&mut self, now: SimTime, tag: u64, emit: &mut dyn FnMut(&[u8])) {
        self.run_handler(now, emit, |mb, ctx, out| mb.on_tick(ctx, tag, out));
    }

    /// Replay timestamped `frames` through [`MbPipeline::process`] on the
    /// frames' own clock. With `tick = Some((period_ns, tag))` the
    /// middlebox also gets a periodic [`MbPipeline::tick`], first at
    /// `period_ns`: every tick due at or before a frame's timestamp is
    /// delivered before that frame — what a hosting node's timer wheel
    /// would do. `emit` receives each output with the time it was emitted.
    pub fn replay<'f>(
        &mut self,
        frames: impl IntoIterator<Item = (u64, &'f [u8])>,
        tick: Option<(u64, u64)>,
        emit: &mut dyn FnMut(u64, &[u8]),
    ) {
        let mut next_tick = tick.map_or(0, |(period, _)| period);
        for (at_ns, frame) in frames {
            if let Some((period, tag)) = tick {
                while next_tick <= at_ns {
                    self.tick(SimTime(next_tick), tag, &mut |b: &[u8]| emit(next_tick, b));
                    next_tick = next_tick.saturating_add(period.max(1));
                }
            }
            self.process(SimTime(at_ns), frame, &mut |b: &[u8]| emit(at_ns, b));
        }
    }

    /// Run one handler entry point with a fresh charge ledger and the
    /// (empty) emit scratch, then transmit what it emitted, in order, and
    /// recycle the bodies.
    fn run_handler(
        &mut self,
        now: SimTime,
        emit: &mut dyn FnMut(&[u8]),
        entry: impl FnOnce(&mut M, &mut MbContext<'_>, &mut Vec<FhMessage>),
    ) {
        self.charges.clear();
        // Drained below, so the scratch is empty whenever it is at rest.
        let mut emits = std::mem::take(&mut self.emits);
        let mut ctx = MbContext {
            now,
            cache: &mut self.cache,
            telemetry: &self.telemetry,
            mapping: self.mapping,
            charges: std::mem::take(&mut self.charges),
        };
        entry(&mut self.mb, &mut ctx, &mut emits);
        self.charges = ctx.charges;
        // The messages stay in `emits` until all are sent, so each can be
        // compared with the one before it; a single emit pays one `None`.
        let mut in_buf: Option<&FhMessage> = None;
        for m in &mut emits {
            in_buf = if self.transmit(m, in_buf, emit) { Some(m) } else { None };
        }
        for m in emits.drain(..) {
            self.recycler.recycle(m);
        }
        self.emits = emits;
    }
}

/// Best-effort check whether an unparseable frame was *meant* to be
/// fronthaul traffic: the eCPRI EtherType (`0xAEFE`), directly or behind
/// one VLAN tag (`0x8100`).
fn looks_like_ecpri(frame: &[u8]) -> bool {
    match frame.get(12..14) {
        Some(&[0xae, 0xfe]) => true,
        Some(&[0x81, 0x00]) => matches!(frame.get(16..18), Some(&[0xae, 0xfe])),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middlebox::Passthrough;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::Eaxc;
    use rb_fronthaul::timing::SymbolId;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn cplane_bytes(dst: EthernetAddress, seq: u8) -> Vec<u8> {
        cplane_bytes_port(dst, seq, 0)
    }

    fn cplane_bytes_port(dst: EthernetAddress, seq: u8, port: u8) -> Vec<u8> {
        FhMessage::new(
            mac(1),
            dst,
            Eaxc::port(port),
            seq,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 10, 1),
            )),
        )
        .to_bytes(&EaxcMapping::DEFAULT)
        .unwrap()
    }

    #[test]
    fn process_emits_and_counts() {
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let mut out = Vec::new();
        let outcome = p.process(SimTime(5), &cplane_bytes(mac(10), 9), &mut |bytes: &[u8]| {
            out.push(bytes.to_vec());
        });
        assert!(matches!(outcome, ProcessOutcome::Handled { class: TrafficClass::DlCPlane }));
        assert!(p.last_charges().is_empty(), "the ledger holds only what the handler reported");
        assert_eq!(out.len(), 1);
        assert_eq!(p.stats.rx, 1);
        assert_eq!(p.stats.tx, 1);
        let msg = FhMessage::parse(&out[0], &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(msg.eth.dst, mac(20));
        assert_eq!(msg.seq_id, 0, "sequence restamped from 0");
    }

    #[test]
    fn parse_error_and_mac_filter_outcomes() {
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let mut emit = |_bytes: &[u8]| panic!("nothing may be emitted");
        assert_eq!(p.process(SimTime(0), &[0u8; 11], &mut emit), ProcessOutcome::ParseError);
        let other = cplane_bytes(mac(77), 0);
        assert_eq!(p.process(SimTime(0), &other, &mut emit), ProcessOutcome::NotForUs);
        assert_eq!(p.stats.parse_errors, 1);
        assert_eq!(p.stats.not_for_us, 1);
        assert_eq!(p.stats.tx, 0);
    }

    #[test]
    fn sequence_numbers_per_stream() {
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let mut seqs = Vec::new();
        for _ in 0..3 {
            p.process(SimTime(0), &cplane_bytes(mac(10), 99), &mut |bytes: &[u8]| {
                seqs.push(FhMessage::parse(bytes, &EaxcMapping::DEFAULT).unwrap().seq_id);
            });
        }
        assert_eq!(seqs, vec![0, 1, 2]);
    }

    #[test]
    fn seq_counters_key_on_post_rule_eaxc() {
        use crate::mgmt::{Match, Rule, RuleAction};
        // Regression: the sequence key used the eAxC id packed *before*
        // management rules ran, so a rule remapping port 0 onto port 5 left
        // the merged output stream with two independent counters — emitting
        // duplicate sequence numbers on one (dst, eAxC) wire stream.
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let raw0 = Eaxc::port(0).pack(&EaxcMapping::DEFAULT);
        let raw5 = Eaxc::port(5).pack(&EaxcMapping::DEFAULT);
        p.rules().write().push(Rule {
            matcher: Match { eaxc_raw: Some(raw0), ..Match::any() },
            action: RuleAction::SetEaxc(Eaxc::port(5)),
        });
        let mut seqs = Vec::new();
        for port in [0u8, 5, 0, 5] {
            p.process(SimTime(0), &cplane_bytes_port(mac(10), 0, port), &mut |bytes: &[u8]| {
                let m = FhMessage::parse(bytes, &EaxcMapping::DEFAULT).unwrap();
                assert_eq!(m.eaxc.pack(&EaxcMapping::DEFAULT), raw5, "all remapped to port 5");
                seqs.push(m.seq_id);
            });
        }
        assert_eq!(seqs, vec![0, 1, 2, 3], "one counter for the merged post-rule stream");
    }

    #[test]
    fn seq_gap_and_dup_detection_per_stream() {
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let mut sink = |_: &[u8]| {};
        // In-order prefix: 0, 1 — no findings.
        for seq in [0u8, 1] {
            p.process(SimTime(0), &cplane_bytes(mac(10), seq), &mut sink);
        }
        assert_eq!((p.stats.seq_gaps, p.stats.seq_dups), (0, 0));
        // Jump 1 -> 5: three missing frames (2, 3, 4).
        p.process(SimTime(0), &cplane_bytes(mac(10), 5), &mut sink);
        assert_eq!(p.stats.seq_gaps, 3);
        // Exact repeat of 5: one duplicate.
        p.process(SimTime(0), &cplane_bytes(mac(10), 5), &mut sink);
        assert_eq!(p.stats.seq_dups, 1);
        // Late replay of 3 (backward jump): counted as duplicate, the
        // stream position stays at 5 so the following 6 is clean.
        p.process(SimTime(0), &cplane_bytes(mac(10), 3), &mut sink);
        assert_eq!(p.stats.seq_dups, 2);
        p.process(SimTime(0), &cplane_bytes(mac(10), 6), &mut sink);
        assert_eq!((p.stats.seq_gaps, p.stats.seq_dups), (3, 2));
        // A different eAxC port is an independent stream: its first frame
        // establishes a new counter without findings.
        p.process(SimTime(0), &cplane_bytes_port(mac(10), 200, 4), &mut sink);
        assert_eq!((p.stats.seq_gaps, p.stats.seq_dups), (3, 2));
    }

    #[test]
    fn rx_seq_map_is_bounded_against_cycling_source_macs() {
        // Regression: the key's source MAC comes off the wire, and every
        // fresh one inserted an entry that was never removed.
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let mut sink = |_: &[u8]| {};
        // A legitimate stream, tracked before the flood starts.
        for seq in [0u8, 1] {
            p.process(SimTime(0), &cplane_bytes(mac(10), seq), &mut sink);
        }
        let mut frame = cplane_bytes(mac(10), 0);
        const FLOOD: u64 = 100_000;
        for k in 0..FLOOD {
            // Source MAC is bytes 6..12; keep it clear of mac(1).
            let k = k.to_be_bytes();
            frame[6..12].copy_from_slice(&[6, 0, k[4], k[5], k[6], k[7]]);
            p.process(SimTime(0), &frame, &mut sink);
        }
        assert_eq!(p.rx_seq.len(), RX_SEQ_STREAMS_MAX);
        let tracked = RX_SEQ_STREAMS_MAX as u64 - 1;
        assert_eq!(p.stats.seq_untracked, FLOOD - tracked);
        assert_eq!(p.stats.tx, FLOOD + 2, "untracked frames are still forwarded");
        // The stream tracked before the flood still is: 1 -> 4 is two gaps.
        p.process(SimTime(0), &cplane_bytes(mac(10), 4), &mut sink);
        assert_eq!((p.stats.seq_gaps, p.stats.seq_dups), (2, 0));
    }

    #[test]
    fn host_stats_merge_sums_every_counter() {
        let a = HostStats {
            rx: 1,
            tx: 2,
            parse_errors: 3,
            not_for_us: 4,
            rule_drops: 5,
            emit_errors: 6,
            seq_gaps: 7,
            seq_dups: 8,
            frames_corrupt: 9,
            seq_untracked: 10,
        };
        let mut sum = a;
        sum.merge(&a);
        sum.merge(&HostStats::default());
        let want = HostStats {
            rx: 2,
            tx: 4,
            parse_errors: 6,
            not_for_us: 8,
            rule_drops: 10,
            emit_errors: 12,
            seq_gaps: 14,
            seq_dups: 16,
            frames_corrupt: 18,
            seq_untracked: 20,
        };
        assert_eq!(sum, want);
    }

    #[test]
    fn seq_wraparound_is_not_a_gap() {
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let mut sink = |_: &[u8]| {};
        for seq in [254u8, 255, 0, 1] {
            p.process(SimTime(0), &cplane_bytes(mac(10), seq), &mut sink);
        }
        assert_eq!((p.stats.seq_gaps, p.stats.seq_dups), (0, 0));
    }

    #[test]
    fn corrupt_ecpri_frames_are_counted_and_emit_nothing() {
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let mut emit = |_: &[u8]| panic!("corrupt frames must not emit");
        // A valid frame truncated mid-message still carries the eCPRI
        // EtherType: parse error *and* corrupt.
        let mut cut = cplane_bytes(mac(10), 0);
        cut.truncate(20);
        assert_eq!(p.process(SimTime(0), &cut, &mut emit), ProcessOutcome::ParseError);
        assert_eq!(p.stats.frames_corrupt, 1);
        // A bit-flipped version number is also corrupt fronthaul traffic.
        let mut flipped = cplane_bytes(mac(10), 1);
        flipped[14] ^= 0xf0;
        assert_eq!(p.process(SimTime(0), &flipped, &mut emit), ProcessOutcome::ParseError);
        assert_eq!(p.stats.frames_corrupt, 2);
        // Foreign garbage is a parse error but not "corrupt fronthaul".
        assert_eq!(p.process(SimTime(0), &[0u8; 40], &mut emit), ProcessOutcome::ParseError);
        assert_eq!(p.stats.parse_errors, 3);
        assert_eq!(p.stats.frames_corrupt, 2);
        assert_eq!(p.stats.tx, 0);
    }

    #[test]
    fn preserve_mode_keeps_upstream_sequence_numbers() {
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        p.set_seq_mode(SeqMode::Preserve);
        let mut seqs = Vec::new();
        for seq in [9u8, 200, 47] {
            p.process(SimTime(0), &cplane_bytes(mac(10), seq), &mut |bytes: &[u8]| {
                seqs.push(FhMessage::parse(bytes, &EaxcMapping::DEFAULT).unwrap().seq_id);
            });
        }
        assert_eq!(seqs, vec![9, 200, 47], "upstream stamps survive the hop");
    }

    #[test]
    fn recovery_messages_do_not_pollute_gap_stats() {
        use rb_fronthaul::recovery::RecoveryRepr;
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        let mut sink = |_: &[u8]| {};
        // Data stream at seq 0, 1.
        for seq in [0u8, 1] {
            p.process(SimTime(0), &cplane_bytes(mac(10), seq), &mut sink);
        }
        // A recovery NACK from the same source with a wildly different
        // sequence number: neither a gap nor a duplicate may be recorded.
        let nack = FhMessage::new(
            mac(1),
            mac(10),
            Eaxc::port(0),
            77,
            Body::Recovery(RecoveryRepr::nack(Direction::Uplink, 3, 0b101)),
        )
        .to_bytes(&EaxcMapping::DEFAULT)
        .unwrap();
        let outcome = p.process(SimTime(0), &nack, &mut sink);
        assert!(matches!(outcome, ProcessOutcome::Handled { class: TrafficClass::UlCPlane }));
        assert_eq!((p.stats.seq_gaps, p.stats.seq_dups), (0, 0));
        // The data stream continues cleanly at 2.
        p.process(SimTime(0), &cplane_bytes(mac(10), 2), &mut sink);
        assert_eq!((p.stats.seq_gaps, p.stats.seq_dups), (0, 0));
    }

    /// Emits one tagged C-plane frame per `(dst, port)` of `plan` from
    /// whichever entry point is called, and notes what it was handed.
    struct Scripted {
        plan: Vec<(EthernetAddress, u8)>,
        calls: Vec<&'static str>,
        leftovers: usize,
    }

    impl Scripted {
        fn run(&mut self, entry: &'static str, out: &mut Vec<FhMessage>) {
            self.calls.push(entry);
            self.leftovers += out.len();
            for (k, &(dst, port)) in self.plan.iter().enumerate() {
                let tag = SectionFields::data(k as u16, 0, 10, 1);
                let body = Body::CPlane(CPlaneRepr::single(
                    Direction::Downlink,
                    SymbolId::ZERO,
                    CompressionMethod::BFP9,
                    tag,
                ));
                // A stale stamp the pipeline must overwrite.
                crate::actions::emit(out, FhMessage::new(mac(10), dst, Eaxc::port(port), 99, body));
            }
        }
    }

    impl Middlebox for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn on_cplane(&mut self, _: &mut MbContext<'_>, _: FhMessage, out: &mut Vec<FhMessage>) {
            self.run("cplane", out);
        }
        fn on_uplane(&mut self, _: &mut MbContext<'_>, _: FhMessage, out: &mut Vec<FhMessage>) {
            self.run("uplane", out);
        }
        fn on_recovery(&mut self, _: &mut MbContext<'_>, _: FhMessage, out: &mut Vec<FhMessage>) {
            self.run("recovery", out);
        }
        fn on_tick(&mut self, _: &mut MbContext<'_>, _: u64, out: &mut Vec<FhMessage>) {
            self.run("tick", out);
        }
    }

    #[test]
    fn every_entry_point_emits_in_order_into_an_empty_buffer() {
        use rb_fronthaul::iq::Prb;
        use rb_fronthaul::recovery::RecoveryRepr;
        use rb_fronthaul::uplane::{UPlaneRepr, USection};

        let wire = |body: Body| {
            FhMessage::new(mac(1), mac(10), Eaxc::port(0), 0, body)
                .to_bytes(&EaxcMapping::DEFAULT)
                .unwrap()
        };
        let section = USection::from_prbs(0, 0, &[Prb::ZERO], CompressionMethod::BFP9).unwrap();
        let inputs = [
            ("cplane", Some(cplane_bytes(mac(10), 0))),
            (
                "uplane",
                Some(wire(Body::UPlane(UPlaneRepr::single(
                    Direction::Uplink,
                    SymbolId::ZERO,
                    section,
                )))),
            ),
            ("recovery", Some(wire(Body::Recovery(RecoveryRepr::nack(Direction::Uplink, 3, 1))))),
            ("tick", None),
        ];
        // 0, 1 and N frames; N revisits a stream and interleaves another
        // destination and another eAxC.
        let plans: [Vec<(EthernetAddress, u8)>; 3] = [
            vec![],
            vec![(mac(20), 0)],
            vec![(mac(20), 0), (mac(21), 0), (mac(20), 1), (mac(20), 0)],
        ];
        let scripted = Scripted { plan: Vec::new(), calls: Vec::new(), leftovers: 0 };
        let mut p = MbPipeline::new(scripted, mac(10));
        let mut next_seq: HashMap<(EthernetAddress, u8), u8> = HashMap::new();
        let mut calls = Vec::new();
        for (entry, frame) in &inputs {
            for plan in &plans {
                p.middlebox_mut().plan.clone_from(plan);
                let mut got = Vec::new();
                let mut emit = |bytes: &[u8]| {
                    let m = FhMessage::parse(bytes, &EaxcMapping::DEFAULT).unwrap();
                    let tag = m.as_cplane().unwrap().sections.common_fields()[0].section_id;
                    got.push((tag, m.eth.dst, m.eaxc.ru_port, m.seq_id));
                };
                match frame {
                    Some(frame) => {
                        let outcome = p.process(SimTime(0), frame, &mut emit);
                        assert!(matches!(outcome, ProcessOutcome::Handled { .. }), "{entry}");
                    }
                    None => p.tick(SimTime(0), 7, &mut emit),
                }
                calls.push(*entry);
                let want: Vec<_> = plan
                    .iter()
                    .enumerate()
                    .map(|(k, &(dst, port))| {
                        let seq = next_seq.entry((dst, port)).or_insert(0);
                        *seq += 1;
                        (k as u16, dst, port, *seq - 1)
                    })
                    .collect();
                assert_eq!(got, want, "{entry} emitting {} frame(s)", plan.len());
            }
        }
        assert_eq!(p.middlebox().calls, calls, "one dispatch per call, by plane");
        assert_eq!(p.middlebox().leftovers, 0, "`out` is empty on entry");
        assert_eq!(p.stats.tx, 4 * 5);
    }

    #[test]
    fn steady_state_emit_buffer_is_reused() {
        // The emit slice must always reflect the current frame even though
        // the underlying buffer is recycled across calls.
        let mut p = MbPipeline::new(Passthrough::new("pt", mac(10), mac(20)), mac(10));
        for seq in 0..4u8 {
            let mut emitted = 0;
            p.process(SimTime(0), &cplane_bytes(mac(10), seq), &mut |bytes: &[u8]| {
                let m = FhMessage::parse(bytes, &EaxcMapping::DEFAULT).unwrap();
                assert_eq!(m.seq_id, seq, "fresh restamp visible in the reused buffer");
                emitted += 1;
            });
            assert_eq!(emitted, 1);
        }
        assert_eq!(p.stats.tx, 4);
    }
}
