//! Receiver-side ARQ: sequence-gap tracking and NACK bitmap chunking.
//!
//! [`RxTracker`] watches one `(src, eAxC)` stream's 8-bit sequence
//! numbers and classifies every arrival: in order, ahead of a gap (the
//! skipped numbers become *missing*), a recovery of a previously-missing
//! number (an ARQ retransmission or FEC repair landing late), or a plain
//! duplicate. The missing set is a 256-bit bitmap, so the tracker is
//! fixed-size and allocation-free.
//!
//! The NACK wire format ([`rb_fronthaul::recovery`]) carries a base
//! sequence plus a 16-bit bitmap; [`nack_chunks`] splits an arbitrary
//! gap into such chunks and [`nack_seqs`] walks a received bitmap on the
//! sender side.

use rb_fronthaul::ecpri::{seq_step, SeqStep};
use rb_hotpath_macros::rb_hot_path;

use crate::SeqBitmap;

/// How many sequence numbers one NACK message can cover.
pub const NACK_SPAN: u8 = 16;

/// Classification of one received sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GapVerdict {
    /// The next expected number (or the first ever seen).
    InOrder,
    /// A forward jump: the numbers `first..first + count` went missing.
    Ahead {
        /// First skipped sequence number.
        first: u8,
        /// How many numbers were skipped (`1..=127`).
        count: u8,
    },
    /// A late arrival of a number previously marked missing — the gap it
    /// left is now closed.
    Recovered,
    /// A repeat (or a late replay of a number that was never missing).
    Duplicate,
}

/// Per-stream receive-side sequence tracker.
#[derive(Debug, Clone, Copy, Default)]
pub struct RxTracker {
    last: u8,
    primed: bool,
    missing: SeqBitmap,
}

impl RxTracker {
    /// A tracker that has seen nothing yet.
    pub fn new() -> RxTracker {
        RxTracker::default()
    }

    /// Classify the arrival of sequence number `seq` and update the
    /// missing set.
    #[rb_hot_path]
    pub fn observe(&mut self, seq: u8) -> GapVerdict {
        if !self.primed {
            self.primed = true;
            self.last = seq;
            self.missing.clear(seq);
            return GapVerdict::InOrder;
        }
        match seq_step(self.last, seq) {
            SeqStep::Next => {
                self.last = seq;
                // Bitmap hygiene: the slot may still carry a never-recovered
                // loss from 256 sequence numbers ago.
                self.missing.clear(seq);
                GapVerdict::InOrder
            }
            SeqStep::Ahead { skipped: count } => {
                let first = self.last.wrapping_add(1);
                let mut s = first;
                for _ in 0..count {
                    self.missing.set(s);
                    s = s.wrapping_add(1);
                }
                self.last = seq;
                self.missing.clear(seq);
                GapVerdict::Ahead { first, count }
            }
            SeqStep::Behind if self.missing.get(seq) => {
                self.missing.clear(seq);
                GapVerdict::Recovered
            }
            SeqStep::Repeat | SeqStep::Behind => GapVerdict::Duplicate,
        }
    }

    /// Sequence numbers currently missing (gaps not yet closed).
    pub fn outstanding(&self) -> u32 {
        self.missing.count()
    }

    /// Whether `seq` is currently marked missing.
    pub fn is_missing(&self, seq: u8) -> bool {
        self.missing.get(seq)
    }
}

/// Split the gap `first..first + count` into NACK-sized `(base, mask)`
/// chunks, least-significant mask bit = `base`. Every chunk has a
/// non-zero mask (the wire format rejects empty NACKs).
#[rb_hot_path]
pub fn nack_chunks(first: u8, count: u8, mut f: impl FnMut(u8, u16)) {
    let mut base = first;
    let mut remaining = count;
    while remaining > 0 {
        let span = remaining.min(NACK_SPAN);
        // `span` is in `1..=15` on the else branch, so the shifted bit is
        // in range and non-zero: the decrement cannot underflow.
        let mask =
            if span >= 16 { u16::MAX } else { 1u16.wrapping_shl(u32::from(span)).wrapping_sub(1) };
        f(base, mask);
        base = base.wrapping_add(span);
        remaining = remaining.saturating_sub(span);
    }
}

/// Walk the sequence numbers named by a received NACK `(base, mask)`:
/// bit `i` of `mask` selects `base + i`.
#[rb_hot_path]
pub fn nack_seqs(base: u8, mask: u16, mut f: impl FnMut(u8)) {
    for bit in 0..16u8 {
        if mask & 1u16.wrapping_shl(u32::from(bit)) != 0 {
            f(base.wrapping_add(bit));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_order_stream() {
        let mut t = RxTracker::new();
        for seq in [7u8, 8, 9, 10] {
            assert_eq!(t.observe(seq), GapVerdict::InOrder);
        }
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn gap_then_late_recovery() {
        let mut t = RxTracker::new();
        assert_eq!(t.observe(0), GapVerdict::InOrder);
        assert_eq!(t.observe(4), GapVerdict::Ahead { first: 1, count: 3 });
        assert_eq!(t.outstanding(), 3);
        assert!(t.is_missing(2));
        assert_eq!(t.observe(2), GapVerdict::Recovered);
        assert_eq!(t.observe(2), GapVerdict::Duplicate, "recovered only once");
        assert_eq!(t.outstanding(), 2);
        assert_eq!(t.observe(5), GapVerdict::InOrder);
    }

    #[test]
    fn duplicate_of_delivered_number() {
        let mut t = RxTracker::new();
        t.observe(10);
        t.observe(11);
        assert_eq!(t.observe(11), GapVerdict::Duplicate);
        assert_eq!(t.observe(10), GapVerdict::Duplicate, "late replay, never missing");
    }

    #[test]
    fn gap_across_wraparound() {
        let mut t = RxTracker::new();
        assert_eq!(t.observe(254), GapVerdict::InOrder);
        assert_eq!(t.observe(1), GapVerdict::Ahead { first: 255, count: 2 });
        assert!(t.is_missing(255) && t.is_missing(0));
        assert_eq!(t.observe(255), GapVerdict::Recovered);
        assert_eq!(t.observe(0), GapVerdict::Recovered);
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn stale_missing_mark_cleared_on_next_generation() {
        let mut t = RxTracker::new();
        t.observe(0);
        assert_eq!(t.observe(2), GapVerdict::Ahead { first: 1, count: 1 });
        assert!(t.is_missing(1), "seq 1 lost and never recovered");
        // A full wrap later, the new generation's seq 1 arrives in order:
        // it must read as InOrder, not Recovered, and clear the stale bit.
        for seq in 3u16..=256 {
            t.observe(seq as u8);
        }
        assert_eq!(t.observe(1), GapVerdict::InOrder);
        assert!(!t.is_missing(1));
        assert_eq!(t.outstanding(), 0);
    }

    #[test]
    fn nack_chunking_round_trip() {
        // A 37-long gap starting near the wrap point → 3 chunks.
        let mut chunks = Vec::new();
        nack_chunks(240, 37, |base, mask| chunks.push((base, mask)));
        assert_eq!(chunks, vec![(240, u16::MAX), (0, u16::MAX), (16, 0b1_1111)]);
        // Walking the chunks re-enumerates exactly the gap.
        let mut seqs = Vec::new();
        for (base, mask) in chunks {
            nack_seqs(base, mask, |s| seqs.push(s));
        }
        let expect: Vec<u8> = (0u16..37).map(|i| (240 + i) as u8).collect();
        assert_eq!(seqs, expect);
    }

    #[test]
    fn nack_chunks_never_empty() {
        let mut called = 0;
        nack_chunks(5, 0, |_, _| called += 1);
        assert_eq!(called, 0, "no gap, no chunks");
        nack_chunks(5, 1, |base, mask| {
            assert_eq!((base, mask), (5, 1));
            called += 1;
        });
        assert_eq!(called, 1);
    }

    #[test]
    fn max_gap_is_tracked_in_full() {
        let mut t = RxTracker::new();
        t.observe(0);
        assert_eq!(t.observe(128), GapVerdict::Ahead { first: 1, count: 127 });
        assert_eq!(t.outstanding(), 127);
        let mut total = 0u32;
        nack_chunks(1, 127, |_, mask| total += u32::from(mask.count_ones()));
        assert_eq!(total, 127);
    }
}
