//! Deterministic fault injection for any [`FrameIo`] backend.
//!
//! [`ChaosIo`] wraps an inner backend and applies seeded, per-direction
//! impairments — drop, duplicate, reorder (bounded displacement),
//! truncate, bit-corrupt and timestamp jitter — plus an optional timed
//! full-loss [`Outage`] window on the receive side. All randomness comes
//! from one owned [`SplitMix64`] stream per direction, seeded from the
//! config: there is no `std::time` or OS RNG anywhere, so a run is fully
//! replayable from its `(seed, config, input)` triple and works in offline
//! test harnesses.
//!
//! Impairments are applied in a fixed, documented order per frame:
//!
//! 1. **outage** (rx only) — frames inside the window (optionally filtered
//!    by source MAC) vanish before any other decision is drawn;
//! 2. **drop** — the frame vanishes;
//! 3. **truncate** — the frame is cut to a random length in `1..len`;
//! 4. **corrupt** — one random bit is flipped;
//! 5. **jitter** — `at_ns` is pushed forward by `1..=jitter_ns`;
//! 6. **duplicate** — a deep copy is emitted alongside the original;
//! 7. **reorder** — the frame is held back and re-inserted after a random
//!    number (`1..=reorder_window`) of later frames have passed it.
//!
//! Decisions are drawn in **stream order on the dispatcher side**, never
//! per worker, so the set of surviving frames is identical regardless of
//! how many workers consume them — the property the equivalence suite
//! asserts.
//!
//! Reordered frames on the tx lane are held until later transmissions
//! release them; call [`ChaosIo::flush_tx`] (or [`ChaosIo::into_inner`],
//! which flushes) before inspecting the inner sink.

use std::collections::VecDeque;

use rb_core::telemetry::counters::{as_count, bump};
use rb_fronthaul::ether::EthernetAddress;
use rb_netsim::rng::{mix, SplitMix64};

use crate::io::{FrameIo, RawFrame, RxPoll};

/// Per-direction impairment probabilities and parameters. All
/// probabilities are per-frame in `[0, 1]`; the all-zero default injects
/// nothing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Impairments {
    /// Probability a frame is silently dropped.
    pub drop: f64,
    /// Probability a frame is emitted twice (deep copy).
    pub duplicate: f64,
    /// Probability a frame is held back and re-inserted later.
    pub reorder: f64,
    /// Maximum displacement of a reordered frame, in frames that may
    /// overtake it (`0` disables reordering regardless of `reorder`).
    pub reorder_window: u64,
    /// Probability a frame is truncated to a random shorter length.
    pub truncate: f64,
    /// Probability a single random bit of the frame is flipped.
    pub corrupt: f64,
    /// Probability a frame's timestamp is pushed forward.
    pub jitter: f64,
    /// Maximum forward timestamp shift in nanoseconds (the shift is
    /// uniform in `1..=jitter_ns`; `0` disables jitter regardless of
    /// `jitter`, just as `reorder_window == 0` disables reordering).
    pub jitter_ns: u64,
}

impl Impairments {
    /// No impairments at all (the `Default`).
    pub const NONE: Impairments = Impairments {
        drop: 0.0,
        duplicate: 0.0,
        reorder: 0.0,
        reorder_window: 4,
        truncate: 0.0,
        corrupt: 0.0,
        jitter: 0.0,
        jitter_ns: 0,
    };
}

impl Default for Impairments {
    fn default() -> Impairments {
        Impairments::NONE
    }
}

/// A timed full-loss window on the receive lane: every frame whose
/// timestamp falls in `[start_ns, end_ns)` — optionally restricted to one
/// source MAC — is dropped before any probabilistic impairment is drawn.
/// Models the paper's §8.1 DU failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// First nanosecond of the outage (inclusive).
    pub start_ns: u64,
    /// End of the outage (exclusive); `u64::MAX` for a permanent failure.
    pub end_ns: u64,
    /// Only frames whose Ethernet source matches are lost; `None` loses
    /// every frame in the window.
    pub src: Option<EthernetAddress>,
}

/// Full configuration of a [`ChaosIo`]: the seed plus independent rx/tx
/// impairment sets and an optional rx outage window.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ChaosConfig {
    /// Seed for both direction generators (the tx stream is decorrelated
    /// from rx internally).
    pub seed: u64,
    /// Impairments applied to frames received from the inner backend.
    pub rx: Impairments,
    /// Impairments applied to frames transmitted to the inner backend.
    pub tx: Impairments,
    /// Optional full-loss window on the receive lane.
    pub outage: Option<Outage>,
}

impl ChaosConfig {
    /// A config with the given seed and no impairments.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig { seed, ..ChaosConfig::default() }
    }
}

/// Counters for one direction of a [`ChaosIo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Frames offered to this lane.
    pub frames: u64,
    /// Frames dropped by the `drop` impairment.
    pub dropped: u64,
    /// Frames lost to the outage window.
    pub outage_dropped: u64,
    /// Extra copies emitted by the `duplicate` impairment.
    pub duplicated: u64,
    /// Frames held back by the `reorder` impairment.
    pub reordered: u64,
    /// Frames shortened by the `truncate` impairment.
    pub truncated: u64,
    /// Frames with a bit flipped by the `corrupt` impairment.
    pub corrupted: u64,
    /// Frames whose timestamp was shifted by the `jitter` impairment.
    pub jittered: u64,
}

/// Counters for both directions of a [`ChaosIo`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Receive-lane counters (inner backend → runtime).
    pub rx: LaneStats,
    /// Transmit-lane counters (runtime → inner backend).
    pub tx: LaneStats,
}

/// A frame held back by the reorder impairment, releasable once the
/// lane's emission counter reaches `release_at`.
#[derive(Debug)]
struct Held {
    release_at: u64,
    frame: RawFrame,
}

/// Uniform draw in `1..=n` (callers check `n > 0`).
fn one_to(rng: &mut SplitMix64, n: u64) -> u64 {
    as_count(rng.below(usize::try_from(n).unwrap_or(usize::MAX))).saturating_add(1)
}

/// One direction's impairment state: RNG, counters and reorder holdback.
#[derive(Debug)]
struct Lane {
    imp: Impairments,
    rng: SplitMix64,
    stats: LaneStats,
    held: VecDeque<Held>,
    emitted: u64,
}

impl Lane {
    fn new(imp: Impairments, rng: SplitMix64) -> Lane {
        Lane { imp, rng, stats: LaneStats::default(), held: VecDeque::new(), emitted: 0 }
    }

    /// Run one frame through the impairment chain, appending survivors
    /// (and any released held frames) to `out`.
    fn offer(
        &mut self,
        mut frame: RawFrame,
        outage: Option<&Outage>,
        out: &mut impl Extend<RawFrame>,
    ) {
        bump(&mut self.stats.frames);

        if let Some(o) = outage {
            let in_window = frame.at_ns >= o.start_ns && frame.at_ns < o.end_ns;
            let src_hit = match o.src {
                None => true,
                Some(mac) => frame.bytes.get(6..12).is_some_and(|s| s == mac.0),
            };
            if in_window && src_hit {
                bump(&mut self.stats.outage_dropped);
                return;
            }
        }

        if self.rng.chance(self.imp.drop) {
            bump(&mut self.stats.dropped);
            return;
        }

        if self.rng.chance(self.imp.truncate) {
            let len = frame.bytes.len();
            if len >= 2 {
                let new_len = self.rng.below(len.saturating_sub(1)).saturating_add(1);
                frame.bytes.vec_mut().truncate(new_len);
                bump(&mut self.stats.truncated);
            }
        }

        if self.rng.chance(self.imp.corrupt) {
            let bits = frame.bytes.len().saturating_mul(8);
            if bits > 0 {
                let bit = self.rng.below(bits);
                if let Some(b) = frame.bytes.vec_mut().get_mut(bit / 8) {
                    *b ^= 0x80u8.wrapping_shr(u32::try_from(bit % 8).unwrap_or(0));
                    bump(&mut self.stats.corrupted);
                }
            }
        }

        // `jitter_ns == 0` disables jitter entirely (mirroring how
        // `reorder_window == 0` disables reorder): the chance draw is
        // short-circuited so a disabled impairment consumes no RNG state
        // and cannot perturb the decision stream of the enabled ones.
        // The old `.max(1)` spelling shifted every jittered frame by 1 ns
        // even when the configured range `1..=jitter_ns` was empty.
        if self.imp.jitter_ns > 0 && self.rng.chance(self.imp.jitter) {
            let shift = one_to(&mut self.rng, self.imp.jitter_ns);
            frame.at_ns = frame.at_ns.saturating_add(shift);
            bump(&mut self.stats.jittered);
        }

        let dup = if self.rng.chance(self.imp.duplicate) {
            bump(&mut self.stats.duplicated);
            Some(frame.clone())
        } else {
            None
        };

        if self.imp.reorder_window > 0 && self.rng.chance(self.imp.reorder) {
            // Hold the original back until `1..=reorder_window` later
            // frames have been emitted past it. The duplicate (if any)
            // still goes out now, which is itself a reordering.
            let displacement = one_to(&mut self.rng, self.imp.reorder_window);
            bump(&mut self.stats.reordered);
            self.held
                .push_back(Held { release_at: self.emitted.saturating_add(displacement), frame });
        } else {
            self.emit(frame, out);
        }
        if let Some(d) = dup {
            self.emit(d, out);
        }
    }

    /// Emit one frame and cascade any held frames that are now due.
    fn emit(&mut self, frame: RawFrame, out: &mut impl Extend<RawFrame>) {
        out.extend(Some(frame));
        self.emitted = self.emitted.saturating_add(1);
        loop {
            let due = self.held.iter().position(|h| h.release_at <= self.emitted);
            match due {
                Some(i) => {
                    if let Some(h) = self.held.remove(i) {
                        out.extend(Some(h.frame));
                        self.emitted = self.emitted.saturating_add(1);
                    }
                }
                None => break,
            }
        }
    }

    /// Release every held frame (end of stream), earliest deadline first.
    fn flush(&mut self, out: &mut impl Extend<RawFrame>) {
        while !self.held.is_empty() {
            let mut min_i = 0;
            for (i, h) in self.held.iter().enumerate() {
                if h.release_at < self.held.get(min_i).map(|m| m.release_at).unwrap_or(u64::MAX) {
                    min_i = i;
                }
            }
            if let Some(h) = self.held.remove(min_i) {
                out.extend(Some(h.frame));
                self.emitted = self.emitted.saturating_add(1);
            }
        }
    }
}

/// A deterministic fault-injection wrapper around any [`FrameIo`].
///
/// See the module docs for the impairment model. Construct with
/// [`ChaosIo::new`]; inspect counters with [`ChaosIo::stats`]; recover
/// the inner backend with [`ChaosIo::into_inner`] (which flushes held tx
/// frames) or reach it in place via [`ChaosIo::inner_mut`].
pub struct ChaosIo<Io: FrameIo> {
    inner: Io,
    outage: Option<Outage>,
    rx: Lane,
    tx: Lane,
    rx_ready: VecDeque<RawFrame>,
    /// What the tx lane has released and the inner backend has not been
    /// handed yet (empty between calls).
    tx_ready: Vec<RawFrame>,
    rx_scratch: Vec<RawFrame>,
    rx_eof: bool,
}

/// Coordinate [`mix`]ed into the seed for the tx lane so the two
/// directions draw from decorrelated streams. (Not an offset or xor of
/// the seed: splitmix states a few increments apart are one stream,
/// shifted.)
const TX_LANE: u64 = 1;

impl<Io: FrameIo> ChaosIo<Io> {
    /// Wrap `inner` with the impairments described by `cfg`.
    pub fn new(inner: Io, cfg: ChaosConfig) -> ChaosIo<Io> {
        ChaosIo {
            inner,
            outage: cfg.outage,
            rx: Lane::new(cfg.rx, SplitMix64::new(cfg.seed)),
            tx: Lane::new(cfg.tx, SplitMix64::new(mix(cfg.seed, TX_LANE, 0))),
            rx_ready: VecDeque::new(),
            tx_ready: Vec::new(),
            rx_scratch: Vec::new(),
            rx_eof: false,
        }
    }

    /// Impairment counters accumulated so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats { rx: self.rx.stats, tx: self.tx.stats }
    }

    /// Shared access to the wrapped backend.
    pub fn inner(&self) -> &Io {
        &self.inner
    }

    /// Mutable access to the wrapped backend (e.g. to take a memory
    /// sink's frames after a run). Call [`ChaosIo::flush_tx`] first if tx
    /// reordering is enabled.
    pub fn inner_mut(&mut self) -> &mut Io {
        &mut self.inner
    }

    /// Transmit every frame still held back by tx reordering.
    pub fn flush_tx(&mut self) {
        self.tx.flush(&mut self.tx_ready);
        self.send_released();
    }

    /// Hand everything the tx lane has released to the inner backend as
    /// one batch; returns how many of those frames it refused.
    fn send_released(&mut self) -> usize {
        let released = self.tx_ready.len();
        released.saturating_sub(self.inner.tx_batch(&mut self.tx_ready))
    }

    /// Flush held tx frames and return the inner backend.
    pub fn into_inner(mut self) -> Io {
        self.flush_tx();
        self.inner
    }

    /// Move up to `max` frames from the ready queue into `out`.
    fn drain_ready(&mut self, out: &mut Vec<RawFrame>, max: usize) -> usize {
        let mut n = 0;
        while n < max {
            match self.rx_ready.pop_front() {
                Some(f) => {
                    out.push(f);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }
}

impl<Io: FrameIo> FrameIo for ChaosIo<Io> {
    fn rx_batch(&mut self, out: &mut Vec<RawFrame>, max: usize) -> RxPoll {
        let mut n = self.drain_ready(out, max);
        while n < max && !self.rx_eof {
            self.rx_scratch.clear();
            match self.inner.rx_batch(&mut self.rx_scratch, max.max(1)) {
                RxPoll::Ready(_) => {
                    // Impair in stream order; survivors queue in rx_ready.
                    let mut scratch = std::mem::take(&mut self.rx_scratch);
                    for f in scratch.drain(..) {
                        self.rx.offer(f, self.outage.as_ref(), &mut self.rx_ready);
                    }
                    self.rx_scratch = scratch;
                    n += self.drain_ready(out, max - n);
                }
                RxPoll::Idle => break,
                RxPoll::Eof => {
                    self.rx_eof = true;
                    self.rx.flush(&mut self.rx_ready);
                    n += self.drain_ready(out, max - n);
                }
            }
        }
        if n > 0 {
            RxPoll::Ready(n)
        } else if self.rx_eof && self.rx_ready.is_empty() {
            RxPoll::Eof
        } else {
            RxPoll::Idle
        }
    }

    fn tx_batch(&mut self, frames: &mut Vec<RawFrame>) -> usize {
        // Impair in offer order, then hand everything released (possibly
        // fewer after drops/holds, possibly more after released reorder
        // backlog and duplicates) to the inner backend as one batch.
        // Failure attribution is aggregate: inner failures are charged
        // against this batch's offered count.
        let offered = frames.len();
        for f in frames.drain(..) {
            self.tx.offer(f, None, &mut self.tx_ready);
        }
        offered.saturating_sub(self.send_released())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::MemReplay;
    use rb_fronthaul::pcap::PcapWriter;

    /// Build a pcap with `n` distinct 60-byte frames, 1 µs apart.
    fn capture(n: usize) -> Vec<u8> {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        for k in 0..n {
            let mut frame = vec![0u8; 60];
            frame[0] = 0x02; // dst
            frame[5] = 0x02;
            frame[6] = 0x02; // src
            frame[11] = (k % 7) as u8 + 1;
            frame[12] = 0xae;
            frame[13] = 0xfe;
            frame[20] = k as u8;
            frame[21] = (k >> 8) as u8;
            w.write_frame(1_000 + k as u64 * 1_000, &frame).unwrap();
        }
        w.finish().unwrap()
    }

    fn collect(io: &mut dyn FrameIo) -> Vec<RawFrame> {
        let mut all = Vec::new();
        loop {
            match io.rx_batch(&mut all, 16) {
                RxPoll::Eof => break,
                RxPoll::Idle => std::thread::yield_now(),
                RxPoll::Ready(_) => {}
            }
        }
        all
    }

    fn chaos(cfg: ChaosConfig, n: usize) -> ChaosIo<MemReplay> {
        ChaosIo::new(MemReplay::from_bytes(capture(n)).unwrap(), cfg)
    }

    #[test]
    fn passthrough_when_disabled() {
        let mut io = chaos(ChaosConfig::new(1), 50);
        let frames = collect(&mut io);
        assert_eq!(frames.len(), 50);
        // Order and content preserved exactly.
        for (k, f) in frames.iter().enumerate() {
            assert_eq!(f.at_ns, 1_000 + k as u64 * 1_000);
            assert_eq!(f.bytes[20], k as u8);
        }
        let s = io.stats();
        assert_eq!(s.rx.frames, 50);
        assert_eq!(s.rx.dropped + s.rx.duplicated + s.rx.reordered, 0);
    }

    #[test]
    fn drop_all_loses_everything() {
        let mut cfg = ChaosConfig::new(2);
        cfg.rx.drop = 1.0;
        let mut io = chaos(cfg, 40);
        assert!(collect(&mut io).is_empty());
        assert_eq!(io.stats().rx.dropped, 40);
    }

    #[test]
    fn same_seed_is_bit_identical_and_distinct_seeds_differ() {
        let mut cfg = ChaosConfig::new(7);
        cfg.rx = Impairments {
            drop: 0.2,
            duplicate: 0.1,
            reorder: 0.2,
            reorder_window: 3,
            truncate: 0.1,
            corrupt: 0.1,
            jitter: 0.1,
            jitter_ns: 500,
        };
        let runs: Vec<(Vec<(u64, Vec<u8>)>, ChaosStats)> = [7u64, 7, 8]
            .iter()
            .map(|&seed| {
                let mut c = cfg;
                c.seed = seed;
                let mut io = chaos(c, 200);
                let frames =
                    collect(&mut io).into_iter().map(|f| (f.at_ns, f.bytes.to_vec())).collect();
                (frames, io.stats())
            })
            .collect();
        assert_eq!(runs[0].0, runs[1].0, "same seed must replay identically");
        assert_eq!(runs[0].1, runs[1].1);
        assert_ne!(runs[0].0, runs[2].0, "different seed should diverge");
    }

    #[test]
    fn reorder_holds_nothing_back_at_eof() {
        let mut cfg = ChaosConfig::new(11);
        cfg.rx.reorder = 0.5;
        cfg.rx.reorder_window = 8;
        let mut io = chaos(cfg, 100);
        let frames = collect(&mut io);
        assert_eq!(frames.len(), 100, "reorder must never lose frames");
        assert!(io.stats().rx.reordered > 0);
        // Displacement is bounded: frame k may move at most window+dups.
        let mut seen: Vec<u16> =
            frames.iter().map(|f| f.bytes[20] as u16 | ((f.bytes[21] as u16) << 8)).collect();
        assert_ne!(
            seen,
            (0..100).collect::<Vec<u16>>(),
            "with reorder=0.5 over 100 frames some displacement is expected"
        );
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<u16>>());
    }

    #[test]
    fn truncate_and_corrupt_change_bytes_but_not_counts() {
        let mut cfg = ChaosConfig::new(13);
        cfg.rx.truncate = 0.3;
        cfg.rx.corrupt = 0.3;
        let mut io = chaos(cfg, 100);
        let frames = collect(&mut io);
        assert_eq!(frames.len(), 100);
        let s = io.stats();
        assert!(s.rx.truncated > 0 && s.rx.corrupted > 0);
        assert!(frames.iter().all(|f| !f.bytes.is_empty()));
        assert!(frames.iter().any(|f| f.bytes.len() < 60));
    }

    #[test]
    fn duplicates_add_copies() {
        let mut cfg = ChaosConfig::new(17);
        cfg.rx.duplicate = 0.25;
        let mut io = chaos(cfg, 100);
        let frames = collect(&mut io);
        let s = io.stats();
        assert!(s.rx.duplicated > 0);
        assert_eq!(frames.len(), 100 + s.rx.duplicated as usize);
    }

    #[test]
    fn outage_window_filters_by_src_and_time() {
        let mut cfg = ChaosConfig::new(19);
        // Frames are 1 µs apart starting at 1 µs; cut 10 µs..=30 µs for
        // src ..:03 only (every 7th frame cycles src 1..=7).
        cfg.outage = Some(Outage {
            start_ns: 10_000,
            end_ns: 30_000,
            src: Some(EthernetAddress([0x02, 0, 0, 0, 0, 0x03])),
        });
        let mut io = chaos(cfg, 50);
        let frames = collect(&mut io);
        let lost = io.stats().rx.outage_dropped;
        assert!(lost > 0);
        assert_eq!(frames.len(), 50 - lost as usize);
        for f in &frames {
            let in_window = f.at_ns >= 10_000 && f.at_ns < 30_000;
            assert!(!(in_window && f.bytes[11] == 0x03), "outage frame survived");
        }
    }

    #[test]
    fn zero_jitter_ns_is_a_no_op() {
        // Regression: `jitter_ns == 0` used to shift every jittered frame
        // by 1 ns (`.max(1)`), contradicting the documented `1..=jitter_ns`
        // range. It must now disable jitter entirely — timestamps
        // untouched, no jitter counted, and (like reorder_window == 0)
        // no RNG state consumed, so the decision stream of the other
        // impairments is bit-identical to a config with jitter = 0.0.
        let mut with_dead_jitter = ChaosConfig::new(31);
        with_dead_jitter.rx.drop = 0.2;
        with_dead_jitter.rx.duplicate = 0.1;
        with_dead_jitter.rx.jitter = 0.9; // armed, but jitter_ns == 0
        with_dead_jitter.rx.jitter_ns = 0;
        let mut without_jitter = with_dead_jitter;
        without_jitter.rx.jitter = 0.0;

        let mut a = chaos(with_dead_jitter, 200);
        let mut b = chaos(without_jitter, 200);
        let got_a: Vec<(u64, Vec<u8>)> =
            collect(&mut a).into_iter().map(|f| (f.at_ns, f.bytes.to_vec())).collect();
        let got_b: Vec<(u64, Vec<u8>)> =
            collect(&mut b).into_iter().map(|f| (f.at_ns, f.bytes.to_vec())).collect();
        assert_eq!(a.stats().rx.jittered, 0, "no frame may count as jittered");
        assert_eq!(got_a, got_b, "dead jitter must not perturb other impairments");
        assert_eq!(a.stats(), b.stats());
        // And every surviving timestamp is exactly the capture timestamp.
        for f in &got_a {
            assert_eq!(f.0 % 1_000, 0, "timestamp shifted by dead jitter");
        }
    }

    #[test]
    fn tx_lane_schedule_is_independent_of_batch_boundaries() {
        let mut cfg = ChaosConfig::new(29);
        cfg.tx.drop = 0.2;
        cfg.tx.duplicate = 0.2;
        cfg.tx.reorder = 0.3;
        cfg.tx.reorder_window = 4;
        let frames: Vec<RawFrame> = (0..120u64)
            .map(|k| {
                let mut v = vec![0u8; 60];
                v[20] = k as u8;
                RawFrame { at_ns: k, bytes: v.into() }
            })
            .collect();
        let mut one = chaos(cfg, 0);
        for f in frames.clone() {
            one.tx(f);
        }
        one.flush_tx();
        let mut batched = chaos(cfg, 0);
        let mut batch = frames;
        batched.tx_batch(&mut batch);
        assert!(batch.is_empty());
        batched.flush_tx();
        let got_one: Vec<Vec<u8>> =
            one.inner_mut().take_tx().into_iter().map(|f| f.bytes.to_vec()).collect();
        let got_batched: Vec<Vec<u8>> =
            batched.inner_mut().take_tx().into_iter().map(|f| f.bytes.to_vec()).collect();
        assert_eq!(got_one, got_batched, "batching must not change the impairment schedule");
        assert_eq!(one.stats(), batched.stats());
        // The tx lane impairs (independently of rx, which saw nothing) and
        // nothing is left held back after the flush.
        let s = one.stats();
        assert_eq!((s.tx.frames, s.rx.frames), (120, 0));
        assert!(s.tx.dropped > 0 && s.tx.duplicated > 0 && s.tx.reordered > 0);
        assert_eq!(got_one.len(), 120 - s.tx.dropped as usize + s.tx.duplicated as usize);
    }
}
