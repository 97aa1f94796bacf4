//! Sliding-window interleaved-parity FEC.
//!
//! The encoder folds every protected frame into one of `depth` XOR
//! *lanes*: frame `idx` of the current window (position `0..window`)
//! belongs to lane `idx % depth`. When the window fills, one parity
//! block per lane is emitted and the window slides forward. A lane's
//! parity is the XOR of the length-prefixed member frames, zero-padded
//! to the longest member — so the decoder can rebuild exactly one
//! missing member per lane from the parity plus the surviving members,
//! including the missing frame's own length.
//!
//! `depth` independent lanes mean up to `depth` losses per window are
//! recoverable as long as no lane loses two — the interleave turns a
//! burst of up to `depth` consecutive losses into one loss per lane.
//! Overhead is `depth / window` parity frames per data frame.
//!
//! Encoding is deterministic and allocation-free in steady state: lanes
//! are fixed buffers cleared and re-XORed in place.

use rb_hotpath_macros::rb_hot_path;

use crate::SEQ_AHEAD_MAX;

/// Length of the per-frame length prefix folded into each lane.
const LEN_PREFIX: usize = 2;

/// Largest frame that can be length-prefixed into a wire parity payload.
const MAX_PROTECTED: usize = (u16::MAX as usize) - LEN_PREFIX;

/// FEC window geometry: `window` data frames protected by `depth` parity
/// frames (one per interleave lane).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FecConfig {
    /// Data frames per window (`1..=128`).
    pub window: u8,
    /// Interleave lanes — parity frames emitted per window (`1..=window`).
    pub depth: u8,
}

impl FecConfig {
    /// A validated configuration, or `None` if the geometry is out of
    /// range (`window` must be `1..=128`, `depth` `1..=window`).
    pub fn new(window: u8, depth: u8) -> Option<FecConfig> {
        let cfg = FecConfig { window, depth };
        cfg.is_valid().then_some(cfg)
    }

    /// Whether the geometry is in range.
    pub fn is_valid(&self) -> bool {
        (1..=SEQ_AHEAD_MAX).contains(&self.window) && (1..=self.window).contains(&self.depth)
    }

    /// Parity frames per data frame.
    pub fn overhead(&self) -> f64 {
        f64::from(self.depth) / f64::from(self.window)
    }
}

/// What [`FecEncoder::push`] did with a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodeAction {
    /// Folded into the current window.
    Absorbed,
    /// Folded in and the window is now full — call
    /// [`FecEncoder::for_each_parity`] to drain the parity blocks.
    WindowComplete,
    /// A frame from behind the window (an ARQ retransmission in flight):
    /// not folded in, forward it unprotected.
    PassThrough,
    /// A forward sequence jump discarded the partial window and started
    /// a fresh one at this frame.
    Restarted,
}

/// One parity block ready for the wire, borrowed from the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityBlock<'a> {
    /// First sequence number of the window.
    pub base_seq: u8,
    /// Window length in frames.
    pub window: u8,
    /// Interleave depth the window was encoded with.
    pub depth: u8,
    /// Which lane this block covers (`0..depth`).
    pub class: u8,
    /// XOR of the lane members' length-prefixed bytes.
    pub payload: &'a [u8],
}

/// The encoder half: feeds on the sender's outgoing frames.
#[derive(Debug, Clone)]
pub struct FecEncoder {
    cfg: FecConfig,
    base: u8,
    filled: u8,
    started: bool,
    lanes: Vec<Vec<u8>>,
}

impl FecEncoder {
    /// An encoder with the given geometry.
    pub fn new(cfg: FecConfig) -> FecEncoder {
        FecEncoder {
            cfg,
            base: 0,
            filled: 0,
            started: false,
            lanes: vec![Vec::new(); usize::from(cfg.depth)],
        }
    }

    /// The geometry.
    pub fn config(&self) -> FecConfig {
        self.cfg
    }

    /// Frames absorbed into the current (incomplete) window.
    pub fn filled(&self) -> u8 {
        self.filled
    }

    /// Fold the frame sent as sequence `seq` into the window.
    #[rb_hot_path]
    pub fn push(&mut self, seq: u8, frame: &[u8]) -> EncodeAction {
        if frame.len() > MAX_PROTECTED {
            // Cannot be length-prefixed into a wire parity payload:
            // leave the frame unprotected rather than corrupt the lane.
            return EncodeAction::PassThrough;
        }
        if !self.started {
            self.started = true;
            self.base = seq;
            self.filled = 0;
            self.absorb(frame);
            return self.completion(EncodeAction::Absorbed);
        }
        // Not `ecpri::seq_step`: the distance is measured from the number
        // the window *expects*, so 0 is the in-order case, not a repeat.
        let expected = self.base.wrapping_add(self.filled);
        let delta = seq.wrapping_sub(expected);
        if delta == 0 {
            self.absorb(frame);
            self.completion(EncodeAction::Absorbed)
        } else if delta > SEQ_AHEAD_MAX {
            EncodeAction::PassThrough
        } else {
            // Forward jump: the partial window can never complete (its
            // member numbers will not come again) — restart cleanly.
            self.reset_window(seq);
            self.absorb(frame);
            self.completion(EncodeAction::Restarted)
        }
    }

    /// Drain the parity blocks of the completed window (call exactly
    /// once after [`EncodeAction::WindowComplete`]), then slide the
    /// window forward. Draining an incomplete window emits the partial
    /// parities with `window` set to the filled count (useful at end of
    /// stream); lanes with no members are skipped.
    pub fn for_each_parity(&mut self, mut f: impl FnMut(ParityBlock<'_>)) {
        if self.filled == 0 {
            return;
        }
        for (class, lane) in self.lanes.iter().enumerate() {
            if !lane.is_empty() {
                f(ParityBlock {
                    base_seq: self.base,
                    window: self.filled,
                    depth: self.cfg.depth,
                    class: u8::try_from(class).unwrap_or(u8::MAX),
                    payload: lane.as_slice(),
                });
            }
        }
        let next_base = self.base.wrapping_add(self.filled);
        self.reset_window(next_base);
    }

    fn completion(&mut self, otherwise: EncodeAction) -> EncodeAction {
        if self.filled >= self.cfg.window {
            EncodeAction::WindowComplete
        } else {
            otherwise
        }
    }

    fn reset_window(&mut self, base: u8) {
        self.base = base;
        self.filled = 0;
        for lane in &mut self.lanes {
            lane.clear();
        }
    }

    fn absorb(&mut self, frame: &[u8]) {
        let class = usize::from(self.filled % self.cfg.depth);
        if let Some(lane) = self.lanes.get_mut(class) {
            // `push` rejected frames longer than MAX_PROTECTED, so neither
            // the sum nor the u16 conversion can actually saturate.
            let need = LEN_PREFIX.saturating_add(frame.len());
            if lane.len() < need {
                lane.resize(need, 0);
            }
            let len = u16::try_from(frame.len()).unwrap_or(u16::MAX);
            for (dst, src) in lane.iter_mut().zip(len.to_be_bytes()) {
                *dst ^= src;
            }
            for (dst, src) in lane.iter_mut().skip(LEN_PREFIX).zip(frame) {
                *dst ^= src;
            }
        }
        self.filled = self.filled.saturating_add(1);
    }
}

/// Outcome of a [`repair`] attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repair {
    /// Every member of the lane was present — nothing to do.
    AllPresent,
    /// The single missing member was rebuilt into the scratch buffer.
    Recovered {
        /// Sequence number of the rebuilt frame.
        seq: u8,
    },
    /// More than one member is missing — XOR parity cannot help.
    Unrecoverable {
        /// How many members are missing.
        missing: u8,
    },
    /// The parity block or a member frame is inconsistent with the
    /// declared geometry.
    Malformed,
}

/// Try to rebuild the missing member of one parity lane.
///
/// `lookup` maps a sequence number in `base_seq..base_seq + window` to
/// the received frame bytes (as transmitted, i.e. exactly what the
/// encoder folded in), or `None` if that frame is missing. On
/// [`Repair::Recovered`], `scratch` holds the rebuilt frame bytes.
#[rb_hot_path]
pub fn repair<'a, F>(block: &ParityBlock<'_>, mut lookup: F, scratch: &mut Vec<u8>) -> Repair
where
    F: FnMut(u8) -> Option<&'a [u8]>,
{
    if block.depth == 0
        || block.class >= block.depth
        || block.window == 0
        || block.payload.len() < LEN_PREFIX
    {
        return Repair::Malformed;
    }
    scratch.clear();
    scratch.extend_from_slice(block.payload);
    let mut missing = 0u8;
    let mut missing_seq = 0u8;
    for idx in 0..block.window {
        if idx % block.depth != block.class {
            continue;
        }
        let seq = block.base_seq.wrapping_add(idx);
        match lookup(seq) {
            Some(frame) => {
                if LEN_PREFIX.saturating_add(frame.len()) > scratch.len() {
                    // A member longer than the parity cannot have been
                    // folded into it by this encoder.
                    return Repair::Malformed;
                }
                let Ok(len) = u16::try_from(frame.len()) else {
                    return Repair::Malformed;
                };
                for (dst, src) in scratch.iter_mut().zip(len.to_be_bytes()) {
                    *dst ^= src;
                }
                for (dst, src) in scratch.iter_mut().skip(LEN_PREFIX).zip(frame) {
                    *dst ^= src;
                }
            }
            None => {
                missing = missing.saturating_add(1);
                missing_seq = seq;
            }
        }
    }
    match missing {
        0 => Repair::AllPresent,
        1 => {
            let len = usize::from(u16::from_be_bytes([
                scratch.first().copied().unwrap_or(0),
                scratch.get(1).copied().unwrap_or(0),
            ]));
            let frame_end = LEN_PREFIX.saturating_add(len);
            if frame_end > scratch.len() {
                return Repair::Malformed;
            }
            // Residual bytes past the rebuilt frame must be zero — a
            // nonzero tail means the lane membership did not match.
            if scratch.iter().skip(frame_end).any(|b| *b != 0) {
                return Repair::Malformed;
            }
            scratch.copy_within(LEN_PREFIX..frame_end, 0);
            scratch.truncate(len);
            Repair::Recovered { seq: missing_seq }
        }
        n => Repair::Unrecoverable { missing: n },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames(n: u8) -> Vec<Vec<u8>> {
        // Varied lengths so the padding paths are exercised.
        (0..n).map(|i| (0..=i.wrapping_mul(3) % 17).map(|b| b ^ i).collect()).collect()
    }

    /// Run a full window through the encoder, drop `erased` (indices
    /// into the window), and repair every lane. Returns the rebuilt
    /// frames as (seq, bytes).
    fn encode_drop_repair(
        cfg: FecConfig,
        base: u8,
        data: &[Vec<u8>],
        erased: &[u8],
    ) -> Result<Vec<(u8, Vec<u8>)>, Repair> {
        let mut enc = FecEncoder::new(cfg);
        let mut last = EncodeAction::Absorbed;
        for (idx, frame) in data.iter().enumerate() {
            last = enc.push(base.wrapping_add(idx as u8), frame);
        }
        assert_eq!(last, EncodeAction::WindowComplete);
        let mut parities = Vec::new();
        enc.for_each_parity(|b| {
            parities.push((b.base_seq, b.window, b.depth, b.class, b.payload.to_vec()));
        });
        assert_eq!(parities.len(), usize::from(cfg.depth));
        let mut rebuilt = Vec::new();
        let mut scratch = Vec::new();
        for (pbase, window, depth, class, payload) in &parities {
            let block = ParityBlock {
                base_seq: *pbase,
                window: *window,
                depth: *depth,
                class: *class,
                payload,
            };
            let outcome = repair(
                &block,
                |seq| {
                    let idx = seq.wrapping_sub(base);
                    if erased.contains(&idx) {
                        None
                    } else {
                        data.get(usize::from(idx)).map(|v| v.as_slice())
                    }
                },
                &mut scratch,
            );
            match outcome {
                Repair::Recovered { seq } => rebuilt.push((seq, scratch.clone())),
                Repair::AllPresent => {}
                other => return Err(other),
            }
        }
        Ok(rebuilt)
    }

    #[test]
    fn single_loss_every_position() {
        let cfg = FecConfig::new(8, 2).unwrap();
        let data = frames(8);
        for lost in 0..8u8 {
            let rebuilt = encode_drop_repair(cfg, 100, &data, &[lost]).unwrap();
            assert_eq!(rebuilt.len(), 1);
            let (seq, bytes) = &rebuilt[0];
            assert_eq!(*seq, 100 + lost);
            assert_eq!(bytes, &data[usize::from(lost)]);
        }
    }

    #[test]
    fn every_erasure_pattern_up_to_depth() {
        // Exhaustive over all erasure subsets of a window: recoverable
        // iff no lane loses two members. window=6, depth=2 → lanes are
        // {0,2,4} and {1,3,5}.
        let cfg = FecConfig::new(6, 2).unwrap();
        let data = frames(6);
        for pattern in 0u32..(1 << 6) {
            let erased: Vec<u8> = (0..6u8).filter(|i| pattern & (1 << i) != 0).collect();
            let per_lane = |class: u8| erased.iter().filter(|i| *i % 2 == class).count();
            let recoverable = per_lane(0) <= 1 && per_lane(1) <= 1;
            let result = encode_drop_repair(cfg, 0, &data, &erased);
            if recoverable {
                let rebuilt = result.unwrap();
                assert_eq!(rebuilt.len(), erased.len(), "pattern {pattern:b}");
                for (seq, bytes) in rebuilt {
                    assert_eq!(bytes, data[usize::from(seq)], "pattern {pattern:b}");
                }
            } else {
                assert!(
                    matches!(result, Err(Repair::Unrecoverable { .. })),
                    "pattern {pattern:b} must be unrecoverable"
                );
            }
        }
    }

    #[test]
    fn burst_of_depth_consecutive_losses_recovers() {
        // The interleave's whole point: depth consecutive losses land in
        // distinct lanes.
        let cfg = FecConfig::new(12, 3).unwrap();
        let data = frames(12);
        let rebuilt = encode_drop_repair(cfg, 50, &data, &[4, 5, 6]).unwrap();
        let mut seqs: Vec<u8> = rebuilt.iter().map(|(s, _)| *s).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![54, 55, 56]);
    }

    #[test]
    fn window_crossing_wraparound() {
        let cfg = FecConfig::new(8, 2).unwrap();
        let data = frames(8);
        let rebuilt = encode_drop_repair(cfg, 252, &data, &[6]).unwrap();
        assert_eq!(rebuilt[0].0, 2, "252 + 6 wraps to 2");
        assert_eq!(rebuilt[0].1, data[6]);
    }

    #[test]
    fn retransmission_passes_through_without_corrupting_the_lane() {
        let cfg = FecConfig::new(4, 1).unwrap();
        let mut enc = FecEncoder::new(cfg);
        assert_eq!(enc.push(10, b"aa"), EncodeAction::Absorbed);
        assert_eq!(enc.push(11, b"bb"), EncodeAction::Absorbed);
        assert_eq!(enc.push(5, b"old"), EncodeAction::PassThrough, "behind the window");
        assert_eq!(enc.filled(), 2, "lane untouched");
        assert_eq!(enc.push(12, b"cc"), EncodeAction::Absorbed);
        assert_eq!(enc.push(13, b"dd"), EncodeAction::WindowComplete);
    }

    #[test]
    fn forward_jump_restarts_the_window() {
        let cfg = FecConfig::new(4, 1).unwrap();
        let mut enc = FecEncoder::new(cfg);
        enc.push(0, b"aa");
        enc.push(1, b"bb");
        assert_eq!(enc.push(40, b"cc"), EncodeAction::Restarted);
        assert_eq!(enc.filled(), 1);
        enc.push(41, b"dd");
        enc.push(42, b"ee");
        assert_eq!(enc.push(43, b"ff"), EncodeAction::WindowComplete);
        let mut blocks = 0;
        enc.for_each_parity(|b| {
            assert_eq!(b.base_seq, 40);
            assert_eq!(b.window, 4);
            blocks += 1;
        });
        assert_eq!(blocks, 1);
    }

    #[test]
    fn partial_window_flush() {
        let cfg = FecConfig::new(8, 2).unwrap();
        let data = frames(3);
        let mut enc = FecEncoder::new(cfg);
        for (i, f) in data.iter().enumerate() {
            enc.push(i as u8, f);
        }
        let mut blocks = Vec::new();
        enc.for_each_parity(|b| blocks.push((b.window, b.class, b.payload.to_vec())));
        assert_eq!(blocks.len(), 2, "both lanes have members (idx 0,2 and 1)");
        assert_eq!(blocks[0].0, 3, "window field reports the filled count");
        // The partial parities still repair a loss.
        let mut scratch = Vec::new();
        let block =
            ParityBlock { base_seq: 0, window: 3, depth: 2, class: 0, payload: &blocks[0].2 };
        let outcome = repair(
            &block,
            |seq| if seq == 2 { None } else { data.get(usize::from(seq)).map(|v| v.as_slice()) },
            &mut scratch,
        );
        assert_eq!(outcome, Repair::Recovered { seq: 2 });
        assert_eq!(scratch, data[2]);
    }

    #[test]
    fn all_present_and_malformed_cases() {
        let cfg = FecConfig::new(4, 2).unwrap();
        let data = frames(4);
        assert_eq!(encode_drop_repair(cfg, 0, &data, &[]).unwrap().len(), 0);
        let mut scratch = Vec::new();
        let bad = ParityBlock { base_seq: 0, window: 4, depth: 2, class: 2, payload: &[0, 0] };
        assert_eq!(repair(&bad, |_| None, &mut scratch), Repair::Malformed, "class >= depth");
        let short = ParityBlock { base_seq: 0, window: 4, depth: 2, class: 0, payload: &[7] };
        assert_eq!(repair(&short, |_| None, &mut scratch), Repair::Malformed, "payload too short");
        // A member longer than the parity is inconsistent.
        let tiny = ParityBlock { base_seq: 0, window: 2, depth: 1, class: 0, payload: &[0, 1, 0] };
        let long = [0u8; 32];
        assert_eq!(repair(&tiny, |_| Some(&long), &mut scratch), Repair::Malformed);
    }

    #[test]
    fn zero_length_frames_round_trip() {
        let cfg = FecConfig::new(4, 2).unwrap();
        let data = vec![vec![], vec![1, 2, 3], vec![], vec![9]];
        for lost in 0..4u8 {
            let rebuilt = encode_drop_repair(cfg, 7, &data, &[lost]).unwrap();
            assert_eq!(rebuilt[0].1, data[usize::from(lost)]);
        }
    }

    #[test]
    fn config_validation() {
        assert!(FecConfig::new(0, 1).is_none());
        assert!(FecConfig::new(129, 1).is_none());
        assert!(FecConfig::new(4, 0).is_none());
        assert!(FecConfig::new(4, 5).is_none());
        let c = FecConfig::new(16, 4).unwrap();
        assert!((c.overhead() - 0.25).abs() < 1e-12);
    }
}
