//! Cell configuration.
//!
//! A cell couples a DU to spectrum: bandwidth (PRBs), numerology, center
//! frequency, MIMO layers, the TDD pattern, the U-plane compression in
//! use, and the placement of the SSB (the periodic synchronization
//! broadcast) and PRACH (the random-access window) inside the grid.

use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::freq;
use rb_fronthaul::timing::{Numerology, TddPattern};

/// Physical cell identity.
pub type Pci = u16;

/// SSB (synchronization signal block) placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SsbConfig {
    /// Broadcast period in milliseconds (typically 20).
    pub period_ms: u32,
    /// First PRB of the SSB inside the cell grid.
    pub start_prb: u16,
    /// SSB width in PRBs (20 PRBs for a real SSB).
    pub num_prb: u16,
    /// Symbols of the slot carrying the SSB (first..count).
    pub start_symbol: u8,
    /// Number of SSB symbols (4 for a real SSB).
    pub num_symbols: u8,
}

/// PRACH (random access) placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrachConfig {
    /// Occasion period in milliseconds (typically 10).
    pub period_ms: u32,
    /// First PRB of the PRACH window inside the cell grid.
    pub start_prb: u16,
    /// PRACH width in PRBs (12 for format B4-like).
    pub num_prb: u16,
}

/// Full cell configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Physical cell id.
    pub pci: Pci,
    /// Carrier center frequency in Hz.
    pub center_hz: i64,
    /// Carrier width in PRBs.
    pub num_prb: u16,
    /// Numerology (μ=1 / 30 kHz for all paper experiments).
    pub numerology: Numerology,
    /// Maximum downlink MIMO layers.
    pub layers: u8,
    /// TDD pattern as a `D`/`S`/`U` string.
    pub tdd_pattern: String,
    /// U-plane compression.
    pub compression: CompressionMethod,
    /// SSB placement.
    pub ssb: SsbConfig,
    /// PRACH placement.
    pub prach: PrachConfig,
}

impl CellConfig {
    /// A cell of `num_prb` PRBs at `center_hz` with `layers` DL layers and
    /// the paper's defaults (μ=1, BFP-9, `DDDDDDDSUU`, centered SSB,
    /// bottom-of-grid PRACH).
    pub fn new(pci: Pci, center_hz: i64, num_prb: u16, layers: u8) -> CellConfig {
        let ssb_prbs = 20.min(num_prb);
        CellConfig {
            pci,
            center_hz,
            num_prb,
            numerology: Numerology::Mu1,
            layers,
            tdd_pattern: "DDDDDDDSUU".to_string(),
            compression: CompressionMethod::BFP9,
            ssb: SsbConfig {
                period_ms: 20,
                start_prb: (num_prb - ssb_prbs) / 2,
                num_prb: ssb_prbs,
                start_symbol: 2,
                num_symbols: 4,
            },
            prach: PrachConfig { period_ms: 10, start_prb: 2, num_prb: 12.min(num_prb) },
        }
    }

    /// 100 MHz cell (273 PRBs at 30 kHz SCS) — the paper's wide config.
    pub fn mhz100(pci: Pci, center_hz: i64, layers: u8) -> CellConfig {
        CellConfig::new(pci, center_hz, 273, layers)
    }

    /// 40 MHz cell (106 PRBs) — used in the RU-sharing experiments.
    pub fn mhz40(pci: Pci, center_hz: i64, layers: u8) -> CellConfig {
        CellConfig::new(pci, center_hz, 106, layers)
    }

    /// 25 MHz cell (65 PRBs) — the Figure 11 option O1 config.
    pub fn mhz25(pci: Pci, center_hz: i64, layers: u8) -> CellConfig {
        CellConfig::new(pci, center_hz, 65, layers)
    }

    /// The parsed TDD pattern.
    pub fn tdd(&self) -> TddPattern {
        TddPattern::parse(&self.tdd_pattern).expect("valid TDD pattern")
    }

    /// Subcarrier spacing in Hz.
    pub fn scs_hz(&self) -> u64 {
        self.numerology.scs_hz()
    }

    /// Frequency range `[lo, hi)` of PRBs `start..start+count`, in Hz.
    pub fn prb_freq_range(&self, start: u16, count: u16) -> (i64, i64) {
        let prb0 = freq::prb0_frequency_hz(self.center_hz, self.num_prb, self.scs_hz());
        let w = freq::prb_width_hz(self.scs_hz()) as i64;
        (prb0 + w * start as i64, prb0 + w * (start + count) as i64)
    }

    /// Frequency range of the whole carrier.
    pub fn carrier_freq_range(&self) -> (i64, i64) {
        self.prb_freq_range(0, self.num_prb)
    }

    /// Frequency range of the SSB.
    pub fn ssb_freq_range(&self) -> (i64, i64) {
        self.prb_freq_range(self.ssb.start_prb, self.ssb.num_prb)
    }

    /// Frequency range of the PRACH window.
    pub fn prach_freq_range(&self) -> (i64, i64) {
        self.prb_freq_range(self.prach.start_prb, self.prach.num_prb)
    }

    /// The C-plane section-type-3 `frequencyOffset` for this cell's PRACH
    /// (half-subcarrier units; Appendix A.1.2:
    /// `freq_re0 = center − freqOffset × 0.5 × SCS`).
    pub fn prach_freq_offset(&self) -> i32 {
        let (lo, _) = self.prach_freq_range();
        let half = self.scs_hz() as i64 / 2;
        ((self.center_hz - lo) / half) as i32
    }

    /// Is `absolute_slot` an SSB slot? (First slot of each SSB period.)
    pub fn is_ssb_slot(&self, absolute_slot: u32) -> bool {
        let slots_per_period = self.ssb.period_ms * self.numerology.slots_per_subframe() as u32;
        absolute_slot.is_multiple_of(slots_per_period)
    }

    /// Is `absolute_slot` a PRACH occasion? (Last UL slot of each period.)
    pub fn is_prach_slot(&self, absolute_slot: u32) -> bool {
        let tdd = self.tdd();
        let slots_per_period = self.prach.period_ms * self.numerology.slots_per_subframe() as u32;
        if absolute_slot % slots_per_period != slots_per_period - 1 {
            return false;
        }
        matches!(tdd.kind_at(absolute_slot), rb_fronthaul::timing::SlotKind::Uplink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_fronthaul::timing::SlotKind;

    const CENTER: i64 = 3_460_000_000;

    #[test]
    fn bandwidth_presets() {
        assert_eq!(CellConfig::mhz100(1, CENTER, 4).num_prb, 273);
        assert_eq!(CellConfig::mhz40(1, CENTER, 4).num_prb, 106);
        assert_eq!(CellConfig::mhz25(1, CENTER, 4).num_prb, 65);
    }

    #[test]
    fn carrier_range_is_centered() {
        let c = CellConfig::mhz100(1, CENTER, 4);
        let (lo, hi) = c.carrier_freq_range();
        assert_eq!((lo + hi) / 2, CENTER);
        // 273 PRB × 360 kHz = 98.28 MHz occupied.
        assert_eq!(hi - lo, 273 * 360_000);
    }

    #[test]
    fn ssb_sits_mid_carrier() {
        let c = CellConfig::mhz100(1, CENTER, 4);
        let (lo, hi) = c.ssb_freq_range();
        assert_eq!(hi - lo, 20 * 360_000);
        assert!(lo > CENTER - 10_000_000 && hi < CENTER + 10_000_000);
    }

    #[test]
    fn prach_freq_offset_inverts_correctly() {
        // freq_re0 = center − offset × 0.5 × SCS must recover the PRACH
        // window's low edge.
        let c = CellConfig::mhz40(1, CENTER, 4);
        let offset = c.prach_freq_offset();
        let re0 = c.center_hz - offset as i64 * (c.scs_hz() as i64 / 2);
        assert_eq!(re0, c.prach_freq_range().0);
        // PRACH at the bottom of the grid → RE0 below center → positive.
        assert!(offset > 0);
    }

    #[test]
    fn ssb_slot_periodicity() {
        let c = CellConfig::mhz100(1, CENTER, 4);
        // 20 ms at μ=1 → every 40 slots.
        assert!(c.is_ssb_slot(0));
        assert!(!c.is_ssb_slot(1));
        assert!(c.is_ssb_slot(40));
        assert!(c.is_ssb_slot(80));
    }

    #[test]
    fn prach_slot_is_uplink() {
        let c = CellConfig::mhz100(1, CENTER, 4);
        let tdd = c.tdd();
        // 10 ms period at μ=1 → slot 19, 39, … and those must be UL.
        assert!(c.is_prach_slot(19));
        assert_eq!(tdd.kind_at(19), SlotKind::Uplink);
        assert!(!c.is_prach_slot(18));
        assert!(c.is_prach_slot(39));
    }

    #[test]
    fn prb_ranges_tile_the_carrier() {
        let c = CellConfig::mhz40(1, CENTER, 4);
        let (lo_a, hi_a) = c.prb_freq_range(0, 53);
        let (lo_b, hi_b) = c.prb_freq_range(53, 53);
        assert_eq!(hi_a, lo_b);
        assert_eq!(c.carrier_freq_range(), (lo_a, hi_b));
    }

    #[test]
    fn tdd_pattern_parses() {
        let c = CellConfig::mhz100(1, CENTER, 4);
        assert_eq!(c.tdd().period(), 10);
    }
}
