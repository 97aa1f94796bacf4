//! Indoor radio channel model.
//!
//! A log-distance indoor-office path loss (3GPP TR 38.901 InH-Office LOS
//! shaped) plus a strong per-floor penetration term. The constants are
//! picked so the paper's qualitative radio facts hold on the testbed
//! geometry (50.9 m × 20.9 m floors):
//!
//! * a UE anywhere on the same floor as an RU can attach;
//! * a UE one floor away cannot (motivating DAS, paper §6.2.1);
//! * close-range SINR saturates link adaptation (the throughput anchors);
//! * co-channel cells interfere strongly enough to dent throughput
//!   (Figure 11, option O2).

/// A position inside the building. `x`/`y` in meters, `floor` counted
/// from 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// Meters along the long building axis (0..50.9).
    pub x: f64,
    /// Meters along the short axis (0..20.9).
    pub y: f64,
    /// Floor index.
    pub floor: i32,
}

impl Position {
    /// Construct a position.
    pub const fn new(x: f64, y: f64, floor: i32) -> Position {
        Position { x, y, floor }
    }

    /// Horizontal distance to `other` in meters.
    pub fn distance_2d(&self, other: &Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }

    /// 3D distance assuming 3.5 m floor height.
    pub fn distance_3d(&self, other: &Position) -> f64 {
        let dz = (self.floor - other.floor) as f64 * 3.5;
        (self.distance_2d(other).powi(2) + dz * dz).sqrt()
    }

    /// Absolute floor separation.
    pub fn floors_apart(&self, other: &Position) -> u32 {
        (self.floor - other.floor).unsigned_abs()
    }
}

/// Channel and radio-budget parameters shared across a deployment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChannelParams {
    /// Carrier frequency in GHz (for the path-loss frequency term).
    pub carrier_ghz: f64,
    /// RU transmit power per PRB, dBm (per antenna port).
    pub tx_dbm_per_prb: f64,
    /// UE transmit power per PRB, dBm.
    pub ue_tx_dbm_per_prb: f64,
    /// Penetration loss per concrete floor, dB.
    pub floor_penetration_db: f64,
    /// Thermal-noise power per PRB (360 kHz at 30 kHz SCS) incl. noise
    /// figure, dBm.
    pub noise_dbm_per_prb: f64,
    /// Minimum per-PRB RSRP for a UE to hear the SSB and attach, dBm.
    pub attach_rsrp_dbm: f64,
    /// Minimum per-PRB RSRP to count an RU as a usable MIMO stream
    /// source (tighter than attach — governs the dMIMO rank by location).
    pub stream_rsrp_dbm: f64,
    /// Hysteresis before a handover/reselection is triggered, dB.
    pub handover_hysteresis_db: f64,
}

impl Default for ChannelParams {
    fn default() -> Self {
        ChannelParams {
            carrier_ghz: 3.5,
            tx_dbm_per_prb: 0.0,
            ue_tx_dbm_per_prb: -2.0,
            floor_penetration_db: 35.0,
            noise_dbm_per_prb: -111.4,
            attach_rsrp_dbm: -75.0,
            stream_rsrp_dbm: -68.0,
            handover_hysteresis_db: 3.0,
        }
    }
}

impl ChannelParams {
    /// Path loss between two positions in dB (always ≥ the 1 m free-space
    /// reference).
    pub fn path_loss_db(&self, a: &Position, b: &Position) -> f64 {
        let d = a.distance_3d(b).max(1.0);
        let pl = 32.4 + 17.3 * d.log10() + 20.0 * self.carrier_ghz.log10();
        pl + self.floor_penetration_db * a.floors_apart(b) as f64
    }

    /// Per-PRB downlink receive power at `ue` from an RU at `ru`, dBm.
    pub fn dl_rx_dbm(&self, ru: &Position, ue: &Position) -> f64 {
        self.tx_dbm_per_prb - self.path_loss_db(ru, ue)
    }

    /// Per-PRB uplink receive power at `ru` from a UE at `ue`, dBm.
    pub fn ul_rx_dbm(&self, ue: &Position, ru: &Position) -> f64 {
        self.ue_tx_dbm_per_prb - self.path_loss_db(ue, ru)
    }

    /// Downlink SNR (no interference) in dB.
    pub fn dl_snr_db(&self, ru: &Position, ue: &Position) -> f64 {
        self.dl_rx_dbm(ru, ue) - self.noise_dbm_per_prb
    }

    /// Can a UE at `ue` attach to a cell radiating from `ru`?
    pub fn can_attach(&self, ru: &Position, ue: &Position) -> bool {
        self.dl_rx_dbm(ru, ue) >= self.attach_rsrp_dbm
    }
}

/// Convert dBm to milliwatts.
pub fn dbm_to_mw(dbm: f64) -> f64 {
    10f64.powf(dbm / 10.0)
}

/// Convert milliwatts to dBm.
pub fn mw_to_dbm(mw: f64) -> f64 {
    10.0 * mw.max(1e-30).log10()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> ChannelParams {
        ChannelParams::default()
    }

    #[test]
    fn distance_math() {
        let a = Position::new(0.0, 0.0, 0);
        let b = Position::new(3.0, 4.0, 0);
        assert_eq!(a.distance_2d(&b), 5.0);
        let c = Position::new(3.0, 4.0, 2);
        assert!((a.distance_3d(&c) - (25.0f64 + 49.0).sqrt()).abs() < 1e-9);
        assert_eq!(a.floors_apart(&c), 2);
    }

    #[test]
    fn path_loss_grows_with_distance() {
        let p = params();
        let ru = Position::new(0.0, 0.0, 0);
        let near = p.path_loss_db(&ru, &Position::new(2.0, 0.0, 0));
        let far = p.path_loss_db(&ru, &Position::new(40.0, 0.0, 0));
        assert!(far > near + 15.0);
    }

    #[test]
    fn same_floor_attaches_everywhere() {
        // Testbed floor is 50.9 × 20.9 m; worst case is a full diagonal.
        let p = params();
        let ru = Position::new(0.0, 0.0, 0);
        let corner = Position::new(50.9, 20.9, 0);
        assert!(p.can_attach(&ru, &corner), "rsrp {}", p.dl_rx_dbm(&ru, &corner));
    }

    #[test]
    fn adjacent_floor_cannot_attach() {
        // §6.2.1: "we try to attach other UEs located on the upper floors
        // … and observe that they are unable to do so, due to weak signal".
        let p = params();
        let ru = Position::new(25.0, 10.0, 0);
        let above = Position::new(25.0, 10.0, 1);
        assert!(!p.can_attach(&ru, &above), "rsrp {}", p.dl_rx_dbm(&ru, &above));
    }

    #[test]
    fn close_range_snr_saturates_link_adaptation() {
        let p = params();
        let ru = Position::new(0.0, 0.0, 0);
        let ue = Position::new(5.0, 0.0, 0);
        assert!(p.dl_snr_db(&ru, &ue) > 30.0);
    }

    #[test]
    fn stream_threshold_is_tighter_than_attach() {
        let p = params();
        assert!(p.stream_rsrp_dbm > p.attach_rsrp_dbm);
    }

    #[test]
    fn dbm_mw_roundtrip() {
        for dbm in [-100.0, -30.0, 0.0, 20.0] {
            assert!((mw_to_dbm(dbm_to_mw(dbm)) - dbm).abs() < 1e-9);
        }
        assert_eq!(dbm_to_mw(0.0), 1.0);
        assert!((dbm_to_mw(10.0) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn uplink_budget_is_weaker_than_downlink() {
        let p = params();
        let ru = Position::new(0.0, 0.0, 0);
        let ue = Position::new(10.0, 0.0, 0);
        assert!(p.ul_rx_dbm(&ue, &ru) < p.dl_rx_dbm(&ru, &ue));
    }
}
