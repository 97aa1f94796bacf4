//! # rb-recover — fronthaul loss-recovery primitives
//!
//! The deadline-bounded building blocks behind the recovery middleboxes
//! (`rb-apps`) and the bonded dual-link adapter (`rb-dataplane`):
//!
//! * [`cache`] — a bounded ARQ replay cache: the sender side keeps the
//!   last N serialized frames per stream and answers NACKs from it.
//! * [`arq`] — per-stream sequence-gap tracking ([`arq::RxTracker`]) and
//!   the NACK bitmap chunking helpers matching the wire format of
//!   [`rb_fronthaul::recovery`].
//! * [`fec`] — sliding-window interleaved-parity FEC: an encoder that
//!   folds every outgoing frame into one of `depth` XOR lanes, and a
//!   [`fec::repair`] routine that rebuilds a single missing frame per
//!   lane from the parity block.
//! * [`dedup`] — the bounded sequence-window duplicate filter used by the
//!   bonded dual-link `FrameIo` adapter in duplicate-and-dedup mode.
//!
//! Everything here is deterministic and allocation-free in steady state:
//! buffers are cleared and refilled in place (`clear` +
//! `extend_from_slice` / `resize`), never reallocated per frame, so the
//! routines are safe on the per-packet path under `cargo xtask lint
//! --deny-alloc`.
//!
//! All sequence arithmetic is 8-bit wrapping, matching the eCPRI
//! `ecpriSeqid` field: "ahead" means a forward distance of at most 128,
//! anything farther is treated as "behind" (a late replay or duplicate).

#![deny(missing_docs)]
#![forbid(unsafe_code)]
// The manifest denies clippy's panic-vector lints crate-wide; unit tests
// are exempt — asserting and unwrapping is what tests are for.
#![cfg_attr(
    test,
    allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)
)]

pub mod arq;
pub mod cache;
pub mod dedup;
pub mod fec;

pub use rb_fronthaul::ecpri::SEQ_AHEAD_MAX;

/// A 256-bit bitmap indexed by an 8-bit sequence number — the shared
/// substrate of the gap tracker and the dedup window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SeqBitmap {
    words: [u64; 4],
}

impl SeqBitmap {
    /// Single-bit mask for `seq` within its 64-bit word. The shift amount
    /// is masked to `0..64`, so `wrapping_shl` never actually wraps.
    fn bit(seq: u8) -> u64 {
        1u64.wrapping_shl(u32::from(seq & 63))
    }

    pub(crate) fn get(&self, seq: u8) -> bool {
        let word = self.words.get(usize::from(seq >> 6)).copied().unwrap_or(0);
        word & Self::bit(seq) != 0
    }

    pub(crate) fn set(&mut self, seq: u8) {
        if let Some(word) = self.words.get_mut(usize::from(seq >> 6)) {
            *word |= Self::bit(seq);
        }
    }

    pub(crate) fn clear(&mut self, seq: u8) {
        if let Some(word) = self.words.get_mut(usize::from(seq >> 6)) {
            *word &= !Self::bit(seq);
        }
    }

    pub(crate) fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bitmap_set_get_clear() {
        let mut b = SeqBitmap::default();
        assert_eq!(b.count(), 0);
        for seq in [0u8, 63, 64, 127, 128, 255] {
            assert!(!b.get(seq));
            b.set(seq);
            assert!(b.get(seq));
        }
        assert_eq!(b.count(), 6);
        b.clear(64);
        assert!(!b.get(64));
        assert!(b.get(63) && b.get(127));
        assert_eq!(b.count(), 5);
    }
}
