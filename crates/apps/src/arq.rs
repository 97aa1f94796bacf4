//! ARQ recovery middlebox pair (fronthaul retransmission).
//!
//! Deployed as a bump-in-the-wire pair around a lossy fronthaul segment:
//!
//! ```text
//! DU ──► ArqSender ══(lossy)══► ArqReceiver ──► RU
//!            ▲                        │
//!            └────────── NACK ────────┘
//! ```
//!
//! [`ArqSender`] forwards every data frame unchanged and keeps the
//! serialized bytes in a bounded per-eAxC [`ReplayCache`]. When the
//! receiver's NACK names sequence numbers still cached, the sender
//! replays the exact original frames.
//!
//! [`ArqReceiver`] tracks per-`(src, eAxC)` sequence numbers with an
//! [`RxTracker`]: forward jumps emit NACKs back to the sender (on the
//! vendor-reserved recovery eCPRI type, [`rb_fronthaul::recovery`]), a
//! late arrival of a missing number closes its gap and counts as an ARQ
//! recovery, and duplicate copies are absorbed so the downstream node
//! never sees the retransmission mechanics.
//!
//! Both ends require the hosting pipeline to run
//! [`rb_core::pipeline::SeqMode::Preserve`]: the cached bytes must cross
//! the wire byte-identical, and gap detection keys on the *upstream*
//! sequence stamps. Recovery control messages carry their own per-eAxC
//! counters.

use rb_core::actions;
use rb_core::hash::{FrameMap, StreamKey, StreamMap};
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::counters;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{FhMessage, MsgRecycler};
use rb_fronthaul::recovery::{RecoveryOp, RecoveryRepr};
use rb_netsim::cost::{Work, XdpPlacement};
use rb_recover::arq::{nack_chunks, nack_seqs, GapVerdict, RxTracker};
use rb_recover::cache::ReplayCache;

/// Aggregate counters of an [`ArqSender`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArqSenderStats {
    /// Data frames forwarded and cached.
    pub cached: u64,
    /// NACK messages received.
    pub nacks_received: u64,
    /// Frames replayed from the cache.
    pub retransmits: u64,
    /// NACKed sequence numbers no longer (or never) in the cache.
    pub cache_misses: u64,
}

/// The sender half: forward, cache, answer NACKs.
pub struct ArqSender {
    name: String,
    mac: EthernetAddress,
    dst: EthernetAddress,
    cache_frames: usize,
    caches: FrameMap<u16, ReplayCache>,
    recycler: MsgRecycler,
    wire: Vec<u8>,
    /// Aggregate counters.
    pub stats: ArqSenderStats,
}

impl ArqSender {
    /// A sender at `mac` forwarding to `dst`, caching the last
    /// `cache_frames` frames per eAxC stream.
    pub fn new(
        name: impl Into<String>,
        mac: EthernetAddress,
        dst: EthernetAddress,
        cache_frames: usize,
    ) -> ArqSender {
        ArqSender {
            name: name.into(),
            mac,
            dst,
            cache_frames,
            caches: FrameMap::default(),
            recycler: MsgRecycler::default(),
            wire: Vec::new(),
            stats: ArqSenderStats::default(),
        }
    }

    fn on_data(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        actions::redirect(&mut msg, self.mac, self.dst);
        let raw = msg.eaxc.pack(&ctx.mapping);
        // Cache exactly the bytes the preserving pipeline will emit.
        if msg.serialize_into(&ctx.mapping, &mut self.wire).is_ok() {
            let cap = self.cache_frames;
            self.caches
                .entry(raw)
                .or_insert_with(|| ReplayCache::new(cap))
                .insert(msg.seq_id, &self.wire);
            counters::bump(&mut self.stats.cached);
        }
        ctx.charge(Work::Cache, XdpPlacement::Userspace);
        actions::emit(out, msg);
    }
}

impl Middlebox for ArqSender {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.on_data(ctx, msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.on_data(ctx, msg, out);
    }

    fn on_recovery(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        let Some(RecoveryOp::Nack { base_seq, mask }) = msg.as_recovery().map(|r| r.op.clone())
        else {
            // Parity or unknown recovery traffic is not ours: absorb.
            return;
        };
        counters::bump(&mut self.stats.nacks_received);
        let raw = msg.eaxc.pack(&ctx.mapping);
        let mapping = ctx.mapping;
        let stats = &mut self.stats;
        let recycler = &mut self.recycler;
        if let Some(cache) = self.caches.get(&raw) {
            nack_seqs(base_seq, mask, |seq| match cache.get(seq) {
                Some(bytes) => {
                    // The cached bytes already carry our addressing and
                    // the preserved sequence number: replay verbatim.
                    if let Ok(replay) = recycler.parse(bytes, &mapping) {
                        actions::emit(out, replay);
                        counters::bump(&mut stats.retransmits);
                    }
                }
                None => counters::bump(&mut stats.cache_misses),
            });
        } else {
            counters::bump_by(&mut stats.cache_misses, u64::from(mask.count_ones()));
        }
        ctx.charge(Work::Cache, XdpPlacement::Userspace);
    }
}

/// Aggregate counters of an [`ArqReceiver`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ArqReceiverStats {
    /// Frames delivered in order.
    pub in_order: u64,
    /// Sequence numbers observed missing (gap width sum).
    pub gaps_detected: u64,
    /// NACK messages sent.
    pub nacks_sent: u64,
    /// Late arrivals that closed a gap (ARQ or FEC repaired).
    pub recovered: u64,
    /// Duplicate copies absorbed.
    pub duplicates_dropped: u64,
}

/// Most `(src, eAxC)` streams one [`ArqReceiver`] tracks (~3 MiB of
/// trackers): a sender cycling source addresses cannot grow the map past it.
const TRACKED_STREAMS_MAX: usize = 65_536;

/// The receiver half: detect gaps, request retransmission, dedup.
pub struct ArqReceiver {
    name: String,
    mac: EthernetAddress,
    dst: EthernetAddress,
    sender: EthernetAddress,
    trackers: StreamMap<RxTracker>,
    nack_seq: FrameMap<u16, u8>,
    /// Aggregate counters.
    pub stats: ArqReceiverStats,
}

impl ArqReceiver {
    /// A receiver at `mac` forwarding to `dst`, NACKing towards the
    /// [`ArqSender`] at `sender`.
    pub fn new(
        name: impl Into<String>,
        mac: EthernetAddress,
        dst: EthernetAddress,
        sender: EthernetAddress,
    ) -> ArqReceiver {
        ArqReceiver {
            name: name.into(),
            mac,
            dst,
            sender,
            trackers: StreamMap::default(),
            nack_seq: FrameMap::default(),
            stats: ArqReceiverStats::default(),
        }
    }

    /// Outstanding (missing, unrecovered) sequence numbers across all
    /// tracked streams.
    pub fn outstanding(&self) -> u32 {
        self.trackers.values().map(RxTracker::outstanding).sum()
    }

    fn on_data(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        let src = msg.eth.src;
        let raw = msg.eaxc.pack(&ctx.mapping);
        // `src` comes off the wire: past the cap, streams not already
        // tracked are forwarded as in-order, without gap recovery.
        let key = StreamKey::new(src, raw);
        let tracker = if self.trackers.len() < TRACKED_STREAMS_MAX {
            self.trackers.find_or_insert_with(key, RxTracker::default)
        } else {
            self.trackers.find_mut(key)
        };
        let verdict = tracker.map_or(GapVerdict::InOrder, |t| t.observe(msg.seq_id));
        ctx.charge(Work::Cache, XdpPlacement::Userspace);
        match verdict {
            GapVerdict::InOrder => {
                counters::bump(&mut self.stats.in_order);
                actions::redirect(&mut msg, self.mac, self.dst);
                actions::emit(out, msg);
            }
            GapVerdict::Ahead { first, count } => {
                counters::bump_by(&mut self.stats.gaps_detected, u64::from(count));
                // NACKs travel against the data stream.
                let nack_dir = msg.body.direction().flip();
                let eaxc = msg.eaxc;
                actions::redirect(&mut msg, self.mac, self.dst);
                actions::emit(out, msg);
                let counter = self.nack_seq.entry(raw).or_insert(0);
                let stats = &mut self.stats;
                let (mac, sender) = (self.mac, self.sender);
                nack_chunks(first, count, |base, nack_mask| {
                    let seq = *counter;
                    *counter = counter.wrapping_add(1);
                    let nack = RecoveryRepr::nack(nack_dir, base, nack_mask);
                    let body = rb_fronthaul::msg::Body::Recovery(nack);
                    actions::emit(out, FhMessage::new(mac, sender, eaxc, seq, body));
                    counters::bump(&mut stats.nacks_sent);
                });
            }
            GapVerdict::Recovered => {
                counters::bump(&mut self.stats.recovered);
                actions::redirect(&mut msg, self.mac, self.dst);
                actions::emit(out, msg);
            }
            GapVerdict::Duplicate => {
                counters::bump(&mut self.stats.duplicates_dropped);
            }
        }
    }
}

impl Middlebox for ArqReceiver {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_cplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.on_data(ctx, msg, out);
    }

    fn on_uplane(&mut self, ctx: &mut MbContext<'_>, msg: FhMessage, out: &mut Vec<FhMessage>) {
        self.on_data(ctx, msg, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::cache::SymbolCache;
    use rb_core::telemetry::TelemetrySender;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::iq::Prb;
    use rb_fronthaul::msg::Body;
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::uplane::{UPlaneRepr, USection};
    use rb_fronthaul::Direction;
    use rb_netsim::time::SimTime;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(2, 0, 0, 0, 0, last)
    }

    fn ctx<'a>(cache: &'a mut SymbolCache, telemetry: &'a TelemetrySender) -> MbContext<'a> {
        MbContext {
            now: SimTime(1000),
            cache,
            telemetry,
            mapping: EaxcMapping::DEFAULT,
            charges: Vec::new(),
        }
    }

    fn umsg(src: EthernetAddress, dst: EthernetAddress, seq: u8) -> FhMessage {
        let s = USection::from_prbs(0, 0, &[Prb::ZERO], CompressionMethod::BFP9).unwrap();
        FhMessage::new(
            src,
            dst,
            Eaxc::port(0),
            seq,
            Body::UPlane(UPlaneRepr::single(Direction::Downlink, SymbolId::ZERO, s)),
        )
    }

    #[test]
    fn sender_caches_and_replays_on_nack() {
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut tx = ArqSender::new("arq-s", mac(30), mac(33), 64);
        for seq in 0..5u8 {
            let out = tx.handle(&mut ctx(&mut cache, &tele), umsg(mac(1), mac(30), seq));
            assert_eq!(out.len(), 1);
            assert_eq!(out[0].eth.dst, mac(33), "forwarded");
            assert_eq!(out[0].seq_id, seq, "sequence preserved");
        }
        assert_eq!(tx.stats.cached, 5);
        // NACK for seqs 1 and 3.
        let nack = FhMessage::new(
            mac(33),
            mac(30),
            Eaxc::port(0),
            0,
            Body::Recovery(RecoveryRepr::nack(Direction::Uplink, 1, 0b101)),
        );
        let out = tx.handle(&mut ctx(&mut cache, &tele), nack);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].seq_id, 1);
        assert_eq!(out[1].seq_id, 3);
        assert_eq!(out[0].eth.dst, mac(33), "replay keeps original addressing");
        assert_eq!(tx.stats.retransmits, 2);
        assert_eq!(tx.stats.cache_misses, 0);
    }

    #[test]
    fn sender_counts_misses_for_evicted_frames() {
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut tx = ArqSender::new("arq-s", mac(30), mac(33), 4);
        for seq in 0..8u8 {
            tx.handle(&mut ctx(&mut cache, &tele), umsg(mac(1), mac(30), seq));
        }
        // Seq 0 was displaced by 4 in the 4-slot cache.
        let nack = FhMessage::new(
            mac(33),
            mac(30),
            Eaxc::port(0),
            0,
            Body::Recovery(RecoveryRepr::nack(Direction::Uplink, 0, 0b1)),
        );
        let out = tx.handle(&mut ctx(&mut cache, &tele), nack);
        assert!(out.is_empty());
        assert_eq!(tx.stats.cache_misses, 1);
    }

    #[test]
    fn receiver_nacks_gap_and_recovers_late_arrival() {
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut rx = ArqReceiver::new("arq-r", mac(33), mac(40), mac(30));
        let out = rx.handle(&mut ctx(&mut cache, &tele), umsg(mac(30), mac(33), 0));
        assert_eq!(out.len(), 1);
        // Seq 1, 2 lost; 3 arrives.
        let out = rx.handle(&mut ctx(&mut cache, &tele), umsg(mac(30), mac(33), 3));
        assert_eq!(out.len(), 2, "data + one NACK");
        assert_eq!(out[0].eth.dst, mac(40));
        let nack = out[1].as_recovery().unwrap();
        assert_eq!(out[1].eth.dst, mac(30), "NACK goes to the sender");
        assert_eq!(nack.direction, Direction::Uplink, "reverse of the downlink stream");
        assert_eq!(nack.op, RecoveryOp::Nack { base_seq: 1, mask: 0b11 });
        assert_eq!(rx.outstanding(), 2);
        // Retransmission of 1 arrives: recovered, forwarded.
        let out = rx.handle(&mut ctx(&mut cache, &tele), umsg(mac(30), mac(33), 1));
        assert_eq!(out.len(), 1);
        assert_eq!(rx.stats.recovered, 1);
        // A second copy of 1 is absorbed.
        let out = rx.handle(&mut ctx(&mut cache, &tele), umsg(mac(30), mac(33), 1));
        assert!(out.is_empty());
        assert_eq!(rx.stats.duplicates_dropped, 1);
        assert_eq!(rx.outstanding(), 1, "seq 2 still missing");
    }

    #[test]
    fn pair_end_to_end_closes_a_loss() {
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut tx = ArqSender::new("arq-s", mac(30), mac(33), 64);
        let mut rx = ArqReceiver::new("arq-r", mac(33), mac(40), mac(30));
        let mut delivered = Vec::new();
        let mut nacks = Vec::new();
        for seq in 0..6u8 {
            let sent = tx.handle(&mut ctx(&mut cache, &tele), umsg(mac(1), mac(30), seq));
            for m in sent {
                if m.seq_id == 2 {
                    continue; // the wire eats seq 2
                }
                for r in rx.handle(&mut ctx(&mut cache, &tele), m) {
                    if r.as_recovery().is_some() {
                        nacks.push(r);
                    } else {
                        delivered.push(r.seq_id);
                    }
                }
            }
        }
        assert_eq!(delivered, vec![0, 1, 3, 4, 5]);
        assert_eq!(nacks.len(), 1);
        // Deliver the NACK to the sender, its replay to the receiver.
        for replay in tx.handle(&mut ctx(&mut cache, &tele), nacks.remove(0)) {
            for r in rx.handle(&mut ctx(&mut cache, &tele), replay) {
                delivered.push(r.seq_id);
            }
        }
        assert_eq!(delivered, vec![0, 1, 3, 4, 5, 2], "loss closed late");
        assert_eq!(tx.stats.retransmits, 1);
        assert_eq!(rx.stats.recovered, 1);
        assert_eq!(rx.outstanding(), 0);
    }

    #[test]
    fn receiver_tracker_map_is_bounded_against_cycling_source_macs() {
        // Regression: one tracker per (source MAC, eAxC), and the MAC
        // comes off the wire.
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut rx = ArqReceiver::new("arq-r", mac(33), mac(40), mac(30));
        rx.handle(&mut ctx(&mut cache, &tele), umsg(mac(30), mac(33), 0));
        let flood = TRACKED_STREAMS_MAX + 1000;
        let mut m = umsg(mac(30), mac(33), 7);
        for k in 0..flood {
            let k = k.to_be_bytes();
            m.eth.src = EthernetAddress::new(6, 0, k[4], k[5], k[6], k[7]);
            let out = rx.handle(&mut ctx(&mut cache, &tele), m.clone());
            assert_eq!(out.len(), 1, "untracked streams are still forwarded");
        }
        assert_eq!(rx.trackers.len(), TRACKED_STREAMS_MAX);
        // The stream tracked before the flood still is: 0 -> 2 is a gap.
        rx.handle(&mut ctx(&mut cache, &tele), umsg(mac(30), mac(33), 2));
        assert_eq!(rx.stats.gaps_detected, 1);
        assert_eq!(rx.stats.nacks_sent, 1);
    }
}
