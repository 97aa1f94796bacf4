//! The bonded dual-link duplicate filter.
//!
//! In duplicate-and-dedup mode the bonded adapter transmits every frame
//! on both member links and must deliver exactly one copy upstream.
//! [`DedupWindow`] is the bounded per-stream filter: a 256-bit seen
//! bitmap indexed by the 8-bit sequence number, with a sliding window of
//! [`WINDOW`] numbers behind the newest one. Bits ahead of the window
//! edge are cleared as the edge advances ("clear on advance"), so a
//! recycled sequence number from the next 256-wrap generation is fresh
//! again by construction — no timestamps needed.

use rb_fronthaul::ecpri::{seq_step, SeqStep};
use rb_hotpath_macros::rb_hot_path;

use crate::{SeqBitmap, SEQ_AHEAD_MAX};

/// How far behind the newest sequence number a late copy can arrive and
/// still be recognized as a duplicate (half the 8-bit space).
pub const WINDOW: u8 = SEQ_AHEAD_MAX;

/// Per-stream duplicate filter for bonded links.
#[derive(Debug, Clone, Copy, Default)]
pub struct DedupWindow {
    newest: u8,
    primed: bool,
    seen: SeqBitmap,
}

impl DedupWindow {
    /// A filter that has seen nothing yet.
    pub fn new() -> DedupWindow {
        DedupWindow::default()
    }

    /// Decide the fate of a frame with sequence number `seq`: `true`
    /// means first copy (deliver), `false` means duplicate (drop).
    #[rb_hot_path]
    pub fn admit(&mut self, seq: u8) -> bool {
        if !self.primed {
            self.primed = true;
            self.newest = seq;
            self.seen = SeqBitmap::default();
            self.seen.set(seq);
            return true;
        }
        match seq_step(self.newest, seq) {
            SeqStep::Repeat => false,
            SeqStep::Next | SeqStep::Ahead { .. } => {
                // The window edge advances: every number it slides over
                // belongs to the new generation now, so its old mark (if
                // any) must go before the number can be judged.
                let mut s = self.newest;
                while s != seq {
                    s = s.wrapping_add(1);
                    self.seen.clear(s);
                }
                self.newest = seq;
                self.seen.set(seq);
                true
            }
            SeqStep::Behind => {
                // Behind the edge but within the window: a late copy.
                if self.seen.get(seq) {
                    false
                } else {
                    self.seen.set(seq);
                    true
                }
            }
        }
    }

    /// The newest sequence number admitted (meaningless before the first
    /// [`DedupWindow::admit`]).
    pub fn newest(&self) -> u8 {
        self.newest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_copies_are_dropped() {
        let mut w = DedupWindow::new();
        assert!(w.admit(5));
        assert!(!w.admit(5), "second copy of 5");
        assert!(w.admit(6));
        assert!(!w.admit(6));
        assert!(!w.admit(5), "late third copy still known");
    }

    #[test]
    fn reordered_first_copies_are_admitted_once() {
        let mut w = DedupWindow::new();
        assert!(w.admit(10));
        assert!(w.admit(13), "jump ahead");
        assert!(w.admit(11), "late first copy of 11");
        assert!(w.admit(12), "late first copy of 12");
        assert!(!w.admit(11), "second copy of 11");
        assert!(!w.admit(13));
    }

    #[test]
    fn generation_recycling_is_fresh() {
        let mut w = DedupWindow::new();
        assert!(w.admit(7));
        assert!(!w.admit(7));
        // Advance a full wrap in steps the window accepts.
        let mut s = 7u8;
        for _ in 0..4 {
            s = s.wrapping_add(64);
            assert!(w.admit(s));
        }
        assert_eq!(w.newest(), 7);
        assert!(!w.admit(7), "just admitted as the wrap landed on it");
        assert!(w.admit(8), "next generation's 8 is fresh again");
    }

    #[test]
    fn dual_link_interleave_delivers_each_exactly_once() {
        // Model the bonded case: both links carry 0..40, arbitrarily
        // interleaved with the copies offset, each number admitted once.
        let mut w = DedupWindow::new();
        let mut delivered = 0u32;
        for i in 0u8..40 {
            if w.admit(i) {
                delivered += 1;
            }
            if i >= 3 && w.admit(i - 3) {
                delivered += 1;
            }
        }
        for i in 37u8..40 {
            if w.admit(i) {
                delivered += 1;
            }
        }
        assert_eq!(delivered, 40);
    }
}
