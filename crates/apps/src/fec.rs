//! Sliding-window FEC middlebox pair (fronthaul erasure coding).
//!
//! The proactive sibling of the ARQ pair in [`crate::arq`]: instead of
//! waiting a round trip for a NACK, the encoder sends redundancy ahead
//! of the loss.
//!
//! ```text
//! DU ──► FecEncoderMb ══(lossy)══► FecDecoderMb ──► RU
//!             │  parity frames ───────►│
//! ```
//!
//! [`FecEncoderMb`] forwards every data frame and folds its serialized
//! bytes into a per-eAxC [`FecEncoder`] window; when a window completes
//! it emits `depth` interleaved-parity recovery frames on the
//! vendor-reserved eCPRI type. [`FecDecoderMb`] keeps the last frames of
//! each stream in a [`ReplayCache`] keyed by the *as-received* bytes;
//! an arriving parity block whose lane is missing exactly one member is
//! XOR-repaired, re-parsed and injected downstream in the lost frame's
//! place.
//!
//! Both ends require [`rb_core::pipeline::SeqMode::Preserve`] and no
//! frame-mutating rules between them: repair works on exact wire bytes.

use std::collections::HashMap;

use rb_core::actions;
use rb_core::middlebox::{MbContext, Middlebox};
use rb_core::telemetry::counters;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::msg::{Body, FhMessage, MsgRecycler};
use rb_fronthaul::recovery::{RecoveryOp, RecoveryRepr};
use rb_netsim::cost::{Work, XdpPlacement};
use rb_recover::cache::ReplayCache;
use rb_recover::fec::{repair, EncodeAction, FecConfig, FecEncoder, ParityBlock, Repair};

/// Aggregate counters of a [`FecEncoderMb`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FecEncoderStats {
    /// Data frames folded into a window.
    pub protected: u64,
    /// Windows completed.
    pub windows: u64,
    /// Parity frames emitted.
    pub parities_sent: u64,
    /// Frames forwarded unprotected (retransmissions, oversize).
    pub unprotected: u64,
}

/// The encoder half: forward data, emit parity per completed window.
pub struct FecEncoderMb {
    name: String,
    mac: EthernetAddress,
    dst: EthernetAddress,
    cfg: FecConfig,
    encoders: HashMap<u16, FecEncoder>,
    parity_seq: HashMap<u16, u8>,
    wire: Vec<u8>,
    /// Aggregate counters.
    pub stats: FecEncoderStats,
}

impl FecEncoderMb {
    /// An encoder at `mac` forwarding to `dst`, protecting each eAxC
    /// stream with `cfg` (window length, interleave depth).
    pub fn new(
        name: impl Into<String>,
        mac: EthernetAddress,
        dst: EthernetAddress,
        cfg: FecConfig,
    ) -> FecEncoderMb {
        FecEncoderMb {
            name: name.into(),
            mac,
            dst,
            cfg,
            encoders: HashMap::new(),
            parity_seq: HashMap::new(),
            wire: Vec::new(),
            stats: FecEncoderStats::default(),
        }
    }

    /// The configured coding parameters.
    pub fn config(&self) -> FecConfig {
        self.cfg
    }

    fn on_data(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        // Redirect first: the decoder caches and repairs the bytes as
        // they cross the protected segment, addressing included.
        actions::redirect(&mut msg, self.mac, self.dst);
        let raw = msg.eaxc.pack(&ctx.mapping);
        let data_dir = msg.body.direction();
        let eaxc = msg.eaxc;
        let action = match msg.serialize_into(&ctx.mapping, &mut self.wire) {
            Ok(()) => {
                let cfg = self.cfg;
                self.encoders
                    .entry(raw)
                    .or_insert_with(|| FecEncoder::new(cfg))
                    .push(msg.seq_id, &self.wire)
            }
            Err(_) => EncodeAction::PassThrough,
        };
        actions::emit(out, msg);
        match action {
            EncodeAction::Absorbed | EncodeAction::Restarted => {
                counters::bump(&mut self.stats.protected);
            }
            EncodeAction::PassThrough => counters::bump(&mut self.stats.unprotected),
            EncodeAction::WindowComplete => {
                counters::bump(&mut self.stats.protected);
                counters::bump(&mut self.stats.windows);
                let counter = self.parity_seq.entry(raw).or_insert(0);
                let stats = &mut self.stats;
                let (mac, dst) = (self.mac, self.dst);
                if let Some(enc) = self.encoders.get_mut(&raw) {
                    enc.for_each_parity(|block: ParityBlock<'_>| {
                        let seq = *counter;
                        *counter = counter.wrapping_add(1);
                        let parity = RecoveryRepr {
                            direction: data_dir,
                            op: RecoveryOp::Parity {
                                base_seq: block.base_seq,
                                window: block.window,
                                depth: block.depth,
                                class: block.class,
                                payload: block.payload.to_vec(),
                            },
                        };
                        let body = Body::Recovery(parity);
                        actions::emit(out, FhMessage::new(mac, dst, eaxc, seq, body));
                        counters::bump(&mut stats.parities_sent);
                    });
                }
            }
        }
        ctx.charge(Work::Cache, XdpPlacement::Userspace);
    }
}

impl Middlebox for FecEncoderMb {
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

/// Aggregate counters of a [`FecDecoderMb`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FecDecoderStats {
    /// Data frames cached and forwarded.
    pub cached: u64,
    /// Parity frames examined.
    pub parities_seen: u64,
    /// Lost frames rebuilt and injected downstream.
    pub recovered: u64,
    /// Lanes whose members were all present (parity unneeded).
    pub lanes_complete: u64,
    /// Lanes missing more than one member (parity insufficient).
    pub unrecoverable: u64,
    /// Parity blocks inconsistent with the received frames.
    pub malformed: u64,
}

/// The decoder half: cache received frames, repair from parity.
pub struct FecDecoderMb {
    name: String,
    mac: EthernetAddress,
    dst: EthernetAddress,
    cache_frames: usize,
    caches: HashMap<u16, ReplayCache>,
    recycler: MsgRecycler,
    wire: Vec<u8>,
    scratch: Vec<u8>,
    /// Aggregate counters.
    pub stats: FecDecoderStats,
}

impl FecDecoderMb {
    /// A decoder at `mac` forwarding to `dst`, remembering the last
    /// `cache_frames` frames per eAxC stream for lane reconstruction.
    pub fn new(
        name: impl Into<String>,
        mac: EthernetAddress,
        dst: EthernetAddress,
        cache_frames: usize,
    ) -> FecDecoderMb {
        FecDecoderMb {
            name: name.into(),
            mac,
            dst,
            cache_frames,
            caches: HashMap::new(),
            recycler: MsgRecycler::default(),
            wire: Vec::new(),
            scratch: Vec::new(),
            stats: FecDecoderStats::default(),
        }
    }

    fn on_data(&mut self, ctx: &mut MbContext<'_>, mut msg: FhMessage, out: &mut Vec<FhMessage>) {
        // Cache the bytes as received — exactly what the encoder folded
        // into its lanes — before rewriting the addressing for the hop
        // downstream.
        if msg.serialize_into(&ctx.mapping, &mut self.wire).is_ok() {
            let raw = msg.eaxc.pack(&ctx.mapping);
            let cap = self.cache_frames;
            self.caches
                .entry(raw)
                .or_insert_with(|| ReplayCache::new(cap))
                .insert(msg.seq_id, &self.wire);
            counters::bump(&mut self.stats.cached);
        }
        actions::redirect(&mut msg, self.mac, self.dst);
        ctx.charge(Work::Cache, XdpPlacement::Userspace);
        actions::emit(out, msg);
    }
}

impl Middlebox for FecDecoderMb {
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
        let Some(repr) = msg.as_recovery() else {
            return;
        };
        let RecoveryOp::Parity { base_seq, window, depth, class, ref payload } = repr.op else {
            // NACKs belong to the ARQ pair: absorb quietly.
            return;
        };
        counters::bump(&mut self.stats.parities_seen);
        let raw = msg.eaxc.pack(&ctx.mapping);
        let block = ParityBlock { base_seq, window, depth, class, payload };
        let cache = self.caches.get(&raw);
        let outcome = repair(&block, |seq| cache.and_then(|c| c.get(seq)), &mut self.scratch);
        ctx.charge(Work::Cache, XdpPlacement::Userspace);
        match outcome {
            Repair::AllPresent => counters::bump(&mut self.stats.lanes_complete),
            Repair::Recovered { seq } => {
                if let Ok(mut rebuilt) = self.recycler.parse(&self.scratch, &ctx.mapping) {
                    let cap = self.cache_frames;
                    self.caches
                        .entry(raw)
                        .or_insert_with(|| ReplayCache::new(cap))
                        .insert(seq, &self.scratch);
                    actions::redirect(&mut rebuilt, self.mac, self.dst);
                    counters::bump(&mut self.stats.recovered);
                    ctx.telemetry.count(ctx.now_ns(), counters::FRAMES_RECOVERED_FEC, 1);
                    actions::emit(out, rebuilt);
                } else {
                    counters::bump(&mut self.stats.malformed);
                }
            }
            Repair::Unrecoverable { .. } => counters::bump(&mut self.stats.unrecoverable),
            Repair::Malformed => counters::bump(&mut self.stats.malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_core::cache::SymbolCache;
    use rb_core::telemetry::TelemetrySender;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
    use rb_fronthaul::iq::{IqSample, Prb};
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

    fn umsg(src: EthernetAddress, dst: EthernetAddress, seq: u8, fill: i16) -> FhMessage {
        let mut prb = Prb::ZERO;
        for (k, s) in prb.0.iter_mut().enumerate() {
            *s = IqSample::new(fill.wrapping_mul(16), -(fill.wrapping_add(k as i16 * 8)));
        }
        let s = USection::from_prbs(0, 0, &[prb], CompressionMethod::NoCompression).unwrap();
        FhMessage::new(
            src,
            dst,
            Eaxc::port(0),
            seq,
            Body::UPlane(UPlaneRepr::single(Direction::Downlink, SymbolId::ZERO, s)),
        )
    }

    fn cfg(window: u8, depth: u8) -> FecConfig {
        FecConfig::new(window, depth).unwrap()
    }

    #[test]
    fn encoder_emits_depth_parities_per_window() {
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut enc = FecEncoderMb::new("fec-e", mac(31), mac(32), cfg(4, 2));
        let mut parities = 0;
        for seq in 0..8u8 {
            let out = enc.handle(&mut ctx(&mut cache, &tele), umsg(mac(1), mac(31), seq, 7));
            for m in &out {
                assert_eq!(m.eth.dst, mac(32));
                if m.as_recovery().is_some() {
                    parities += 1;
                }
            }
        }
        assert_eq!(parities, 4, "two windows x depth 2");
        assert_eq!(enc.stats.windows, 2);
        assert_eq!(enc.stats.parities_sent, 4);
        assert_eq!(enc.stats.protected, 8);
    }

    #[test]
    fn pair_end_to_end_repairs_a_loss() {
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut enc = FecEncoderMb::new("fec-e", mac(31), mac(32), cfg(4, 2));
        let mut dec = FecDecoderMb::new("fec-d", mac(32), mac(40), 64);
        let mut delivered = Vec::new();
        for seq in 0..4u8 {
            let sent = enc.handle(
                &mut ctx(&mut cache, &tele),
                umsg(mac(1), mac(31), seq, 3 + i16::from(seq)),
            );
            for m in sent {
                if m.as_recovery().is_none() && m.seq_id == 2 {
                    continue; // the wire eats data frame 2
                }
                for r in dec.handle(&mut ctx(&mut cache, &tele), m) {
                    delivered.push(r);
                }
            }
        }
        let seqs: Vec<u8> = delivered.iter().map(|m| m.seq_id).collect();
        assert_eq!(seqs, vec![0, 1, 3, 2], "frame 2 rebuilt from parity, late");
        assert_eq!(dec.stats.recovered, 1);
        assert_eq!(dec.stats.lanes_complete, 1, "the other lane was intact");
        // The rebuilt frame carries the original payload.
        let rebuilt = delivered.last().unwrap();
        assert_eq!(rebuilt.eth.dst, mac(40), "forwarded downstream");
        let original = umsg(mac(1), mac(31), 2, 5);
        let (Body::UPlane(a), Body::UPlane(b)) = (&rebuilt.body, &original.body) else {
            panic!("expected U-plane bodies");
        };
        assert_eq!(a, b, "payload bit-identical");
    }

    #[test]
    fn burst_beyond_depth_is_unrecoverable() {
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut enc = FecEncoderMb::new("fec-e", mac(31), mac(32), cfg(4, 1));
        let mut dec = FecDecoderMb::new("fec-d", mac(32), mac(40), 64);
        for seq in 0..4u8 {
            let sent = enc.handle(&mut ctx(&mut cache, &tele), umsg(mac(1), mac(31), seq, 9));
            for m in sent {
                // Drop data frames 1 and 2: two losses in a depth-1 lane.
                if m.as_recovery().is_none() && (m.seq_id == 1 || m.seq_id == 2) {
                    continue;
                }
                dec.handle(&mut ctx(&mut cache, &tele), m);
            }
        }
        assert_eq!(dec.stats.recovered, 0);
        assert_eq!(dec.stats.unrecoverable, 1);
    }

    #[test]
    fn decoder_absorbs_parity_and_nacks() {
        let mut cache = SymbolCache::new(8);
        let tele = TelemetrySender::disconnected("t");
        let mut dec = FecDecoderMb::new("fec-d", mac(32), mac(40), 64);
        // A NACK passing by is not the decoder's business.
        let nack = FhMessage::new(
            mac(33),
            mac(30),
            Eaxc::port(0),
            0,
            Body::Recovery(RecoveryRepr::nack(Direction::Uplink, 1, 0b1)),
        );
        let out = dec.handle(&mut ctx(&mut cache, &tele), nack);
        assert!(out.is_empty());
        assert_eq!(dec.stats.parities_seen, 0);
    }
}
