//! IQ samples and physical resource blocks.
//!
//! The U-plane payload is a sequence of complex baseband samples: `I` is the
//! real part, `Q` the imaginary part, one sample per subcarrier of the
//! frequency grid. Twelve consecutive subcarriers form one physical resource
//! block (PRB) — the minimum schedulable unit in the frequency dimension.
//!
//! Uncompressed samples are 16-bit signed fixed point per component (32 bits
//! per sample), matching the paper's description of jumbo U-plane frames.

use crate::{Error, Result};

/// Number of subcarriers (and therefore IQ samples) in one PRB.
pub const SAMPLES_PER_PRB: usize = 12;

/// Number of I/Q components in one PRB (12 samples × I and Q).
pub const COMPONENTS_PER_PRB: usize = SAMPLES_PER_PRB * 2;

/// Size in bytes of one uncompressed PRB (12 samples × 2 × 16 bits).
pub const UNCOMPRESSED_PRB_BYTES: usize = SAMPLES_PER_PRB * 4;

/// One PRB as a flat array in wire order (I0, Q0, I1, Q1, …): the form
/// the [`crate::bfp`] kernels and the DAS uplink sum work on.
pub type PrbComponents = [i16; COMPONENTS_PER_PRB];

/// Serialize components as 16-bit big-endian values — the uncompressed
/// PRB wire format.
pub fn write_components_be(v: &PrbComponents, out: &mut [u8]) -> Result<()> {
    let out = out.get_mut(..UNCOMPRESSED_PRB_BYTES).ok_or(Error::BufferTooSmall)?;
    for (pair, c) in out.chunks_exact_mut(2).zip(v.iter()) {
        pair.copy_from_slice(&c.to_be_bytes());
    }
    Ok(())
}

/// Parse components from 16-bit big-endian values.
pub fn read_components_be(data: &[u8]) -> Result<PrbComponents> {
    let data = data.get(..UNCOMPRESSED_PRB_BYTES).ok_or(Error::Truncated)?;
    let mut v = [0i16; COMPONENTS_PER_PRB];
    for (pair, c) in data.chunks_exact(2).zip(v.iter_mut()) {
        *c = <[u8; 2]>::try_from(pair).map_or(0, i16::from_be_bytes);
    }
    Ok(v)
}

/// One complex baseband sample in 16-bit fixed point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct IqSample {
    /// In-phase (real) component.
    pub i: i16,
    /// Quadrature (imaginary) component.
    pub q: i16,
}

impl IqSample {
    /// The zero sample.
    pub const ZERO: IqSample = IqSample { i: 0, q: 0 };

    /// Construct from components.
    pub const fn new(i: i16, q: i16) -> IqSample {
        IqSample { i, q }
    }

    /// Saturating complex addition (used when summing RU uplink signals).
    pub fn saturating_add(self, other: IqSample) -> IqSample {
        IqSample { i: self.i.saturating_add(other.i), q: self.q.saturating_add(other.q) }
    }

    /// Squared magnitude (energy) of the sample.
    pub fn energy(self) -> u64 {
        // |i|,|q| ≤ 2^15, so each square is ≤ 2^30 and the sum ≤ 2^31:
        // nothing here can wrap an i64, and the result is non-negative.
        let i = i64::from(self.i);
        let q = i64::from(self.q);
        let e = i.wrapping_mul(i).wrapping_add(q.wrapping_mul(q));
        u64::try_from(e).unwrap_or(0)
    }

    /// Interpret as a unit-scaled float pair (Q15 fixed point), as shown in
    /// the paper's Wireshark dissection.
    pub fn to_f32(self) -> (f32, f32) {
        (self.i as f32 / 32768.0, self.q as f32 / 32768.0)
    }

    /// Quantize a unit-scaled float pair into Q15 fixed point, saturating.
    pub fn from_f32(i: f32, q: f32) -> IqSample {
        let clamp = |x: f32| -> i16 { (x * 32768.0).round().clamp(-32768.0, 32767.0) as i16 };
        IqSample { i: clamp(i), q: clamp(q) }
    }
}

/// One PRB worth of IQ samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prb(pub [IqSample; SAMPLES_PER_PRB]);

impl Default for Prb {
    fn default() -> Self {
        Prb([IqSample::ZERO; SAMPLES_PER_PRB])
    }
}

impl Prb {
    /// A PRB of all-zero samples (an idle PRB on the air interface).
    pub const ZERO: Prb = Prb([IqSample::ZERO; SAMPLES_PER_PRB]);

    /// Element-wise saturating sum — the DAS uplink combining primitive:
    /// per-subcarrier addition of the signals received by different RUs.
    pub fn saturating_add(&self, other: &Prb) -> Prb {
        let mut out = Prb::ZERO;
        for ((slot, a), b) in out.0.iter_mut().zip(self.0.iter()).zip(other.0.iter()) {
            *slot = a.saturating_add(*b);
        }
        out
    }

    /// Accumulate `other` into `self` in place.
    pub fn add_assign_saturating(&mut self, other: &Prb) {
        for (dst, src) in self.0.iter_mut().zip(other.0.iter()) {
            *dst = dst.saturating_add(*src);
        }
    }

    /// Total energy across the 12 subcarriers.
    pub fn energy(&self) -> u64 {
        self.0.iter().map(|s| s.energy()).sum()
    }

    /// True if every sample is zero.
    pub fn is_zero(&self) -> bool {
        self.0.iter().all(|s| *s == IqSample::ZERO)
    }

    /// Largest absolute component value across the PRB — the quantity the
    /// BFP exponent is derived from.
    pub fn max_abs_component(&self) -> u16 {
        self.0.iter().map(|s| (s.i.unsigned_abs()).max(s.q.unsigned_abs())).max().unwrap_or(0)
    }

    /// Serialize to uncompressed big-endian wire bytes (I then Q, 16 bits
    /// each, per subcarrier).
    pub fn write_uncompressed(&self, out: &mut [u8]) -> Result<()> {
        write_components_be(&self.components(), out)
    }

    /// Parse from uncompressed big-endian wire bytes.
    pub fn read_uncompressed(data: &[u8]) -> Result<Prb> {
        read_components_be(data).map(|v| Prb::from_components(&v))
    }

    /// The 24 components in wire order (I0, Q0, I1, Q1, …).
    pub fn components(&self) -> PrbComponents {
        let mut v = [0i16; COMPONENTS_PER_PRB];
        for (pair, s) in v.chunks_exact_mut(2).zip(self.0.iter()) {
            pair.copy_from_slice(&[s.i, s.q]);
        }
        v
    }

    /// Rebuild a PRB from its components in wire order.
    pub fn from_components(v: &PrbComponents) -> Prb {
        let mut prb = Prb::ZERO;
        for (pair, s) in v.chunks_exact(2).zip(prb.0.iter_mut()) {
            if let [i, q] = *pair {
                *s = IqSample::new(i, q);
            }
        }
        prb
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_prb() -> Prb {
        let mut prb = Prb::ZERO;
        for (k, s) in prb.0.iter_mut().enumerate() {
            s.i = (k as i16) * 100 - 600;
            s.q = 500 - (k as i16) * 90;
        }
        prb
    }

    #[test]
    fn sample_saturating_add() {
        let a = IqSample::new(i16::MAX, i16::MIN);
        let b = IqSample::new(1, -1);
        let sum = a.saturating_add(b);
        assert_eq!(sum, IqSample::new(i16::MAX, i16::MIN));
    }

    #[test]
    fn sample_energy() {
        assert_eq!(IqSample::new(3, 4).energy(), 25);
        assert_eq!(IqSample::ZERO.energy(), 0);
        // The most negative values must not overflow.
        assert_eq!(IqSample::new(i16::MIN, i16::MIN).energy(), 2 * (32768u64 * 32768u64));
    }

    #[test]
    fn float_quantization_roundtrip() {
        let s = IqSample::from_f32(-0.046875, 0.015625);
        let (i, q) = s.to_f32();
        assert!((i + 0.046875).abs() < 1e-4);
        assert!((q - 0.015625).abs() < 1e-4);
    }

    #[test]
    fn float_quantization_saturates() {
        let s = IqSample::from_f32(2.0, -2.0);
        assert_eq!(s, IqSample::new(i16::MAX, i16::MIN));
    }

    #[test]
    fn prb_sum_is_elementwise() {
        let a = ramp_prb();
        let sum = a.saturating_add(&a);
        for k in 0..SAMPLES_PER_PRB {
            assert_eq!(sum.0[k].i, a.0[k].i * 2);
            assert_eq!(sum.0[k].q, a.0[k].q * 2);
        }
    }

    #[test]
    fn prb_add_assign_matches_add() {
        let a = ramp_prb();
        let mut acc = a;
        acc.add_assign_saturating(&a);
        assert_eq!(acc, a.saturating_add(&a));
    }

    #[test]
    fn prb_zero_detection_and_energy() {
        assert!(Prb::ZERO.is_zero());
        assert_eq!(Prb::ZERO.energy(), 0);
        let a = ramp_prb();
        assert!(!a.is_zero());
        assert!(a.energy() > 0);
    }

    #[test]
    fn max_abs_component() {
        let mut prb = Prb::ZERO;
        prb.0[5] = IqSample::new(-700, 123);
        prb.0[9] = IqSample::new(10, 650);
        assert_eq!(prb.max_abs_component(), 700);
        // i16::MIN must not overflow on abs().
        prb.0[0] = IqSample::new(i16::MIN, 0);
        assert_eq!(prb.max_abs_component(), 32768);
    }

    #[test]
    fn uncompressed_wire_roundtrip() {
        let prb = ramp_prb();
        let mut buf = [0u8; UNCOMPRESSED_PRB_BYTES];
        prb.write_uncompressed(&mut buf).unwrap();
        assert_eq!(Prb::read_uncompressed(&buf).unwrap(), prb);
    }

    #[test]
    fn components_are_wire_order_and_roundtrip() {
        let prb = ramp_prb();
        let v = prb.components();
        assert_eq!((v[0], v[1], v[2], v[23]), (prb.0[0].i, prb.0[0].q, prb.0[1].i, prb.0[11].q));
        assert_eq!(Prb::from_components(&v), prb);
    }

    #[test]
    fn uncompressed_wire_bounds() {
        let prb = ramp_prb();
        let mut small = [0u8; UNCOMPRESSED_PRB_BYTES - 1];
        assert_eq!(prb.write_uncompressed(&mut small).unwrap_err(), Error::BufferTooSmall);
        assert_eq!(Prb::read_uncompressed(&small).unwrap_err(), Error::Truncated);
    }
}
