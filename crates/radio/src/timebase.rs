//! Mapping between simulated time, absolute slot counters and the
//! wrapping `SymbolId` carried on the wire.
//!
//! Nodes keep a monotonically increasing `u32` slot cursor; the wire
//! carries an 8-bit frame id that wraps every 2.56 s (at μ=1). These
//! helpers convert both ways, resolving the wrap against a cursor hint.

use rb_fronthaul::timing::{Numerology, SymbolId, SUBFRAMES_PER_FRAME};
use rb_netsim::time::SimTime;

/// Start time of an absolute slot.
pub fn slot_start(n: Numerology, slot: u32) -> SimTime {
    SimTime(slot as u64 * n.slot_ns())
}

/// The absolute slot containing `t`.
pub fn slot_at(n: Numerology, t: SimTime) -> u32 {
    (t.as_nanos() / n.slot_ns()) as u32
}

/// The wire `SymbolId` for (absolute slot, symbol).
pub fn symbol_id(n: Numerology, slot: u32, symbol: u8) -> SymbolId {
    let spsf = n.slots_per_subframe() as u32;
    let subframes = slot / spsf;
    SymbolId {
        frame: ((subframes / SUBFRAMES_PER_FRAME as u32) % 256) as u8,
        subframe: (subframes % SUBFRAMES_PER_FRAME as u32) as u8,
        slot: (slot % spsf) as u8,
        symbol,
    }
}

/// Recover the absolute slot a wire `SymbolId` refers to, choosing the
/// candidate closest to `hint` (handles the 256-frame wrap).
pub fn absolute_slot(n: Numerology, id: SymbolId, hint: u32) -> u32 {
    let hyper = 256u32 * SUBFRAMES_PER_FRAME as u32 * n.slots_per_subframe() as u32;
    let in_hyper = id.absolute_slot(n);
    let base = hint / hyper * hyper;
    let mut best = base + in_hyper;
    let mut best_dist = best.abs_diff(hint);
    for cand in [base.wrapping_sub(hyper).wrapping_add(in_hyper), base + hyper + in_hyper] {
        // base may be 0 → wrapping_sub would produce a huge value; skip it.
        if cand < hyper * 20_000 {
            let d = cand.abs_diff(hint);
            if d < best_dist {
                best = cand;
                best_dist = d;
            }
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_netsim::time::SimDuration;

    const MU1: Numerology = Numerology::Mu1;

    #[test]
    fn slot_time_roundtrip() {
        for slot in [0u32, 1, 19, 20, 5119, 5120, 100_000] {
            let t = slot_start(MU1, slot);
            assert_eq!(slot_at(MU1, t), slot);
            assert_eq!(slot_at(MU1, t + SimDuration::from_micros(499)), slot);
            assert_eq!(slot_at(MU1, t + SimDuration::from_micros(500)), slot + 1);
        }
    }

    #[test]
    fn symbol_id_roundtrip_within_hyperperiod() {
        for slot in [0u32, 7, 19, 20, 39, 5119] {
            let id = symbol_id(MU1, slot, 3);
            assert_eq!(absolute_slot(MU1, id, slot), slot);
            assert_eq!(id.symbol, 3);
        }
    }

    #[test]
    fn symbol_id_resolves_across_wrap() {
        // Hyperperiod at μ=1 is 5120 slots. A slot just past a wrap must
        // resolve against a hint just before it and vice versa.
        let slot = 5120 + 3;
        let id = symbol_id(MU1, slot, 0);
        assert_eq!(absolute_slot(MU1, id, 5118), slot);
        assert_eq!(absolute_slot(MU1, id, 5125), slot);
        let late = 5119;
        let id = symbol_id(MU1, late, 0);
        assert_eq!(absolute_slot(MU1, id, 5121), late);
    }

    #[test]
    fn symbol_id_fields_match_timing_layout() {
        // Slot 45 at μ=1: subframe counter 22 → frame 2, subframe 2, slot 1.
        let id = symbol_id(MU1, 45, 13);
        assert_eq!(id.frame, 2);
        assert_eq!(id.subframe, 2);
        assert_eq!(id.slot, 1);
    }
}
