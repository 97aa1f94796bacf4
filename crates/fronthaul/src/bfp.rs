//! Block Floating Point (BFP) U-plane payload compression.
//!
//! Uncompressed IQ samples are 32 bits each, which produces jumbo Ethernet
//! frames at wide cell bandwidths. BFP compresses the 24 components of a PRB
//! (12 samples × I/Q) to a shared 4-bit exponent plus `iq_width`-bit signed
//! mantissas: `component ≈ mantissa << exponent`.
//!
//! The per-PRB exponent byte (`udCompParam`) is exactly the side channel
//! RANBooster's PRB-monitoring middlebox exploits (paper Algorithm 1): a PRB
//! with near-zero content compresses with exponent 0, so utilization can be
//! estimated without decompressing anything.
//!
//! Supported methods: `BlockFloatingPoint` with mantissa widths 1..=16 (the
//! paper's deployments use 9) and `NoCompression` (16-bit passthrough, no
//! `udCompParam` byte).

use crate::iq::{
    read_components_be, write_components_be, Prb, PrbComponents, COMPONENTS_PER_PRB,
    SAMPLES_PER_PRB, UNCOMPRESSED_PRB_BYTES,
};
use crate::{Error, Result};

/// Compression method identifiers (`udCompMeth` wire values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressionMethod {
    /// No compression: 16-bit I and Q, no per-PRB parameter byte.
    NoCompression,
    /// Block floating point with the given mantissa width in bits (1..=16).
    BlockFloatingPoint {
        /// Signed mantissa width per I/Q component.
        iq_width: u8,
    },
}

impl CompressionMethod {
    /// The paper's configuration: BFP with 9-bit mantissas.
    pub const BFP9: CompressionMethod = CompressionMethod::BlockFloatingPoint { iq_width: 9 };

    /// `udCompMeth` wire value (lower nibble of `udCompHdr`).
    pub fn meth_raw(self) -> u8 {
        match self {
            CompressionMethod::NoCompression => 0,
            CompressionMethod::BlockFloatingPoint { .. } => 1,
        }
    }

    /// `udIqWidth` wire value (upper nibble of `udCompHdr`; 0 encodes 16).
    pub fn width_raw(self) -> u8 {
        match self {
            CompressionMethod::NoCompression => 0,
            CompressionMethod::BlockFloatingPoint { iq_width } => iq_width & 0x0f,
        }
    }

    /// Effective mantissa width in bits.
    pub fn iq_width(self) -> u8 {
        match self {
            CompressionMethod::NoCompression => 16,
            CompressionMethod::BlockFloatingPoint { iq_width } => iq_width,
        }
    }

    /// Encode into the single `udCompHdr` byte.
    pub fn to_comp_hdr(self) -> u8 {
        (self.width_raw() << 4) | self.meth_raw()
    }

    /// Decode from the `udCompHdr` byte.
    pub fn from_comp_hdr(hdr: u8) -> Result<CompressionMethod> {
        let width = hdr >> 4;
        match hdr & 0x0f {
            0 => Ok(CompressionMethod::NoCompression),
            1 => {
                let iq_width = if width == 0 { 16 } else { width };
                Ok(CompressionMethod::BlockFloatingPoint { iq_width })
            }
            _ => Err(Error::UnknownCompression),
        }
    }

    /// Validate the mantissa width.
    pub fn validate(self) -> Result<()> {
        match self {
            CompressionMethod::NoCompression => Ok(()),
            CompressionMethod::BlockFloatingPoint { iq_width } => {
                if (1..=16).contains(&iq_width) {
                    Ok(())
                } else {
                    Err(Error::BadIqWidth)
                }
            }
        }
    }

    /// Number of `udCompParam` bytes preceding each PRB's mantissas.
    pub fn param_bytes(self) -> usize {
        match self {
            CompressionMethod::NoCompression => 0,
            CompressionMethod::BlockFloatingPoint { .. } => 1,
        }
    }

    /// Bytes of packed mantissa data per PRB (excluding `udCompParam`).
    pub fn mantissa_bytes(self) -> usize {
        match self {
            CompressionMethod::NoCompression => UNCOMPRESSED_PRB_BYTES,
            CompressionMethod::BlockFloatingPoint { iq_width } => {
                // 12 samples × 2 components × ≤255 bits: at most 6 120,
                // nowhere near a usize wrap.
                SAMPLES_PER_PRB.wrapping_mul(2).wrapping_mul(usize::from(iq_width)).div_ceil(8)
            }
        }
    }

    /// Total on-wire bytes per PRB (`udCompParam` + mantissas).
    pub fn prb_wire_bytes(self) -> usize {
        self.param_bytes().saturating_add(self.mantissa_bytes())
    }
}

/// Smallest exponent such that every component, shifted right by it,
/// fits a signed `width`-bit mantissa (`width` in `1..=16`).
///
/// `c ^ (c >> 15)` folds a negative component onto the non-negative value
/// with the same magnitude bits, so one OR over the PRB finds its highest
/// set bit; a component of `b` magnitude bits needs `b − (width − 1)`
/// dropped to leave room for the sign bit.
fn exponent_of(v: &PrbComponents, width: u8) -> u8 {
    let folded = v.iter().fold(0i16, |acc, &c| acc | (c ^ c.wrapping_shr(15)));
    // `folded` is non-negative (bit 15 clear): 1..=16 leading zeros.
    let magnitude_bits = 16u32.saturating_sub(folded.leading_zeros());
    let spare_bits = u32::from(width).saturating_sub(1);
    u8::try_from(magnitude_bits.saturating_sub(spare_bits)).unwrap_or(0)
}

/// Pack kernel for one mantissa width `W` (`1..=16`): 24 mantissas of
/// `W` bits are three groups of eight, and eight mantissas are exactly
/// `W` whole bytes, so each group is assembled MSB-first in a `u128`
/// and its `W` bytes stored at once. `out` holds `3 × W` bytes. Returns
/// the exponent.
fn pack_mantissas<const W: u8>(v: &PrbComponents, out: &mut [u8]) -> u8 {
    let exp = exponent_of(v, W);
    let mask = 1u32.wrapping_shl(u32::from(W)).wrapping_sub(1);
    // Left-align the 8 × W packed bits so they are the first W bytes.
    let align = 128u32.saturating_sub(u32::from(W).saturating_mul(8));
    for (bytes, group) in out.chunks_exact_mut(usize::from(W)).zip(v.chunks_exact(8)) {
        let packed = group.iter().fold(0u128, |acc, &c| {
            let shifted = i32::from(c).wrapping_shr(u32::from(exp));
            acc.wrapping_shl(u32::from(W))
                | u128::from(u32::from_ne_bytes(shifted.to_ne_bytes()) & mask)
        });
        if let Some(src) = packed.wrapping_shl(align).to_be_bytes().get(..usize::from(W)) {
            bytes.copy_from_slice(src);
        }
    }
    exp
}

/// Unpack kernel for one mantissa width `W` (`1..=16`), the inverse of
/// [`pack_mantissas`]: each group's `W` bytes are loaded left-aligned
/// into a `u128`, whose top 32 bits then carry the next mantissa in
/// their high `W` bits — an arithmetic shift sign-extends it.
fn unpack_mantissas<const W: u8>(data: &[u8], exponent: u8) -> PrbComponents {
    let mut v = [0i16; COMPONENTS_PER_PRB];
    let sign_extend = 32u32.saturating_sub(u32::from(W));
    for (bytes, group) in data.chunks_exact(usize::from(W)).zip(v.chunks_exact_mut(8)) {
        let mut buf = [0u8; 16];
        if let Some(dst) = buf.get_mut(..usize::from(W)) {
            dst.copy_from_slice(bytes);
        }
        let mut bits = u128::from_be_bytes(buf);
        for c in group {
            let top = u32::try_from(bits.wrapping_shr(96)).unwrap_or(0);
            let mantissa = i32::from_ne_bytes(top.to_ne_bytes()).wrapping_shr(sign_extend);
            // Exponents beyond 15 only arrive from corrupt wire input; an
            // i32 shift wraps the amount modulo 32 and the clamp pins
            // whatever comes out (the conversion cannot fail after it).
            let value = mantissa.wrapping_shl(u32::from(exponent));
            *c = i16::try_from(value.clamp(i32::from(i16::MIN), i32::from(i16::MAX))).unwrap_or(0);
            bits = bits.wrapping_shl(u32::from(W));
        }
    }
    v
}

/// Mantissa `k` of a BFP-9 group starts `9k` bits in — bit `k` of byte `k`
/// — so it lies inside the big-endian 16-bit word at bytes `k`, `k + 1`,
/// `k` bits below the top: multiplying by `2^k` brings it to the top.
const LANE_UP: [u16; 8] = [1, 2, 4, 8, 16, 32, 64, 128];

/// BFP-9 unpack kernel, same contract as [`unpack_mantissas`]: each 9-byte
/// group is eight independent 16-bit lanes — no `u128`, no shift that
/// depends on the lane. Only this width has one: at any other, lane `k`'s
/// word does not start at byte `k` (written so, it measured 3–5× slower).
fn unpack9(data: &[u8], exponent: u8) -> PrbComponents {
    if exponent > 7 {
        // Corrupt input only: the shift can leave `i16`, which the generic
        // kernel's `i32` shift and clamp handle.
        return unpack_mantissas::<9>(data, exponent);
    }
    let mut v = [0i16; COMPONENTS_PER_PRB];
    for (bytes, group) in data.chunks_exact(9).zip(v.chunks_exact_mut(8)) {
        let (Some(hi), Some(lo)) = (bytes.get(..8), bytes.get(1..9)) else { continue };
        for (((c, &hi), &lo), &up) in group.iter_mut().zip(hi).zip(lo).zip(&LANE_UP) {
            let top = u16::from_be_bytes([hi, lo]).wrapping_mul(up);
            // |mantissa| ≤ 256 and 256 << 7 = 32 768: nothing to clamp.
            *c = (i16::from_ne_bytes(top.to_ne_bytes()) >> 7).wrapping_shl(u32::from(exponent));
        }
    }
    v
}

/// BFP-9 pack kernel, same contract as [`pack_mantissas`]. Four components
/// are the 16-bit lanes of a `u64`, and the low nine bits of `c >> exp` are
/// bits `exp..exp + 9` of `c` — inside the lane, as nine bits need
/// `exp ≤ 7` — so one shift and one mask make four mantissas. Gathered,
/// first on top, they are a 36-bit half group; two halves are the nine
/// bytes: the top 64 of their 72 bits, then the last eight.
fn pack9(v: &PrbComponents, out: &mut [u8]) -> u8 {
    let exp = exponent_of(v, 9);
    let half = |four: &[i16]| {
        let lanes = four
            .iter()
            .rev()
            .fold(0u64, |acc, &c| (acc << 16) | u64::from(u16::from_ne_bytes(c.to_ne_bytes())));
        let m = lanes.wrapping_shr(u32::from(exp)) & 0x01ff_01ff_01ff_01ff;
        ((m & 0x1ff) << 27) | ((m << 2) & (0x1ff << 18)) | ((m >> 23) & (0x1ff << 9)) | (m >> 48)
    };
    for (bytes, group) in out.chunks_exact_mut(9).zip(v.chunks_exact(8)) {
        let (front, back) = group.split_at(4);
        let (front, back) = (half(front), half(back));
        let Some((last, first)) = bytes.split_last_mut() else { continue };
        first.copy_from_slice(&((front << 28) | (back >> 8)).to_be_bytes());
        [.., *last] = back.to_be_bytes();
    }
    exp
}

/// Call the kernel instance for a runtime width: the BFP-9 kernel at the
/// paper's width, the `u128` kernel at every other. Callers validate the
/// width first; the last arm only catches 16.
macro_rules! kernel_for_width {
    ($width:expr, $kernel:ident, $kernel9:ident($($arg:expr),*)) => {
        match $width {
            1 => $kernel::<1>($($arg),*),
            2 => $kernel::<2>($($arg),*),
            3 => $kernel::<3>($($arg),*),
            4 => $kernel::<4>($($arg),*),
            5 => $kernel::<5>($($arg),*),
            6 => $kernel::<6>($($arg),*),
            7 => $kernel::<7>($($arg),*),
            8 => $kernel::<8>($($arg),*),
            9 => $kernel9($($arg),*),
            10 => $kernel::<10>($($arg),*),
            11 => $kernel::<11>($($arg),*),
            12 => $kernel::<12>($($arg),*),
            13 => $kernel::<13>($($arg),*),
            14 => $kernel::<14>($($arg),*),
            15 => $kernel::<15>($($arg),*),
            _ => $kernel::<16>($($arg),*),
        }
    };
}

/// Encode one PRB's components onto the wire with `method`, including
/// the leading `udCompParam` exponent byte when the method has one — the
/// form every compressing caller shares. Returns the bytes written.
pub fn pack_prb_wire(
    v: &PrbComponents,
    method: CompressionMethod,
    out: &mut [u8],
) -> Result<usize> {
    method.validate()?;
    let total = method.prb_wire_bytes();
    let out = out.get_mut(..total).ok_or(Error::BufferTooSmall)?;
    match method {
        CompressionMethod::NoCompression => write_components_be(v, out)?,
        CompressionMethod::BlockFloatingPoint { iq_width } => {
            let (param, mantissas) = out.split_first_mut().ok_or(Error::BufferTooSmall)?;
            *param = kernel_for_width!(iq_width, pack_mantissas, pack9(v, mantissas)) & 0x0f;
        }
    }
    Ok(total)
}

/// Decode one wire PRB (including `udCompParam` when the method has one)
/// into its components and exponent (0 for no compression) — the form
/// every decompressing caller shares.
pub fn unpack_prb_wire(data: &[u8], method: CompressionMethod) -> Result<(PrbComponents, u8)> {
    method.validate()?;
    let data = data.get(..method.prb_wire_bytes()).ok_or(Error::Truncated)?;
    match method {
        CompressionMethod::NoCompression => Ok((read_components_be(data)?, 0)),
        CompressionMethod::BlockFloatingPoint { iq_width } => {
            let (param, mantissas) = data.split_first().ok_or(Error::Truncated)?;
            let exp = *param & 0x0f;
            Ok((kernel_for_width!(iq_width, unpack_mantissas, unpack9(mantissas, exp)), exp))
        }
    }
}

/// Decode a run of consecutive wire PRBs, one per element of `out`, handing
/// each to `put` beside its slot; the paper's method goes straight to its kernel.
fn unpack_run(
    out: &mut [PrbComponents],
    wire: &[u8],
    method: CompressionMethod,
    put: impl Fn(&mut PrbComponents, PrbComponents),
) -> Result<()> {
    method.validate()?;
    let per = method.prb_wire_bytes();
    let wire = wire.get(..out.len().saturating_mul(per)).ok_or(Error::Truncated)?;
    let bfp9 = method == CompressionMethod::BFP9;
    for (slot, prb) in out.iter_mut().zip(wire.chunks_exact(per)) {
        let v = match prb.split_first() {
            Some((param, mantissas)) if bfp9 => unpack9(mantissas, *param & 0x0f),
            _ => unpack_prb_wire(prb, method)?.0,
        };
        put(slot, v);
    }
    Ok(())
}

/// Decode a run of consecutive wire PRBs into `out`, one per element.
pub fn unpack_prbs_wire(
    out: &mut [PrbComponents],
    wire: &[u8],
    method: CompressionMethod,
) -> Result<()> {
    unpack_run(out, wire, method, |slot, v| *slot = v)
}

/// Decode a run of consecutive wire PRBs and add them, saturating, into
/// `acc`, one per element — a further term of the DAS uplink sum.
pub fn accumulate_prbs_wire(
    acc: &mut [PrbComponents],
    wire: &[u8],
    method: CompressionMethod,
) -> Result<()> {
    unpack_run(acc, wire, method, |sum, v| {
        for (s, c) in sum.iter_mut().zip(v) {
            *s = s.saturating_add(c);
        }
    })
}

/// Encode `v` as consecutive wire PRBs over the front of `out`.
pub fn pack_prbs_wire(
    v: &[PrbComponents],
    method: CompressionMethod,
    out: &mut [u8],
) -> Result<()> {
    method.validate()?;
    let per = method.prb_wire_bytes();
    let out = out.get_mut(..v.len().saturating_mul(per)).ok_or(Error::BufferTooSmall)?;
    let bfp9 = method == CompressionMethod::BFP9;
    for (wire, prb) in out.chunks_exact_mut(per).zip(v) {
        match wire.split_first_mut() {
            Some((param, mantissas)) if bfp9 => *param = pack9(prb, mantissas),
            _ => {
                pack_prb_wire(prb, method, wire)?;
            }
        }
    }
    Ok(())
}

/// Pick the smallest exponent such that every component of `prb`, shifted
/// right by it, fits in a signed `width`-bit mantissa.
///
/// Rejects widths outside `1..=16` in release builds too.
pub fn exponent_for(prb: &Prb, width: u8) -> Result<u8> {
    CompressionMethod::BlockFloatingPoint { iq_width: width }.validate()?;
    Ok(exponent_of(&prb.components(), width))
}

/// Compress one PRB with BFP: returns the exponent and writes
/// [`CompressionMethod::mantissa_bytes`] packed bytes into `out`.
pub fn compress_prb(prb: &Prb, width: u8, out: &mut [u8]) -> Result<u8> {
    let method = CompressionMethod::BlockFloatingPoint { iq_width: width };
    method.validate()?;
    let out = out.get_mut(..method.mantissa_bytes()).ok_or(Error::BufferTooSmall)?;
    Ok(kernel_for_width!(width, pack_mantissas, pack9(&prb.components(), out)))
}

/// Decompress one PRB: `data` must hold the packed mantissas (not the
/// `udCompParam` byte — pass the exponent separately).
pub fn decompress_prb(data: &[u8], width: u8, exponent: u8) -> Result<Prb> {
    let method = CompressionMethod::BlockFloatingPoint { iq_width: width };
    method.validate()?;
    let data = data.get(..method.mantissa_bytes()).ok_or(Error::Truncated)?;
    Ok(Prb::from_components(&kernel_for_width!(width, unpack_mantissas, unpack9(data, exponent))))
}

/// Compress a PRB onto the wire including the leading `udCompParam`
/// exponent byte. Returns the number of bytes written.
pub fn compress_prb_wire(prb: &Prb, method: CompressionMethod, out: &mut [u8]) -> Result<usize> {
    pack_prb_wire(&prb.components(), method, out)
}

/// Parse one PRB from the wire (including `udCompParam` when present).
/// Returns the PRB, the exponent (0 for no compression) and the number of
/// bytes consumed.
pub fn decompress_prb_wire(data: &[u8], method: CompressionMethod) -> Result<(Prb, u8, usize)> {
    let (v, exp) = unpack_prb_wire(data, method)?;
    Ok((Prb::from_components(&v), exp, method.prb_wire_bytes()))
}

/// Read just the `udCompParam` exponent of a wire PRB without touching the
/// mantissas — the fast path of Algorithm 1.
pub fn peek_exponent(data: &[u8], method: CompressionMethod) -> Result<u8> {
    method.validate()?;
    match method {
        CompressionMethod::NoCompression => Err(Error::UnknownCompression),
        CompressionMethod::BlockFloatingPoint { .. } => {
            data.first().map(|b| *b & 0x0f).ok_or(Error::Truncated)
        }
    }
}

/// Maximum absolute quantization error of one BFP round trip at
/// `exponent`: `2^exponent − 1`, pinned at `i32::MAX` (which it equals at
/// 31) for the exponents only corrupt input carries.
pub fn max_quantization_error(exponent: u8) -> i32 {
    i32::MAX.wrapping_shr(31u32.saturating_sub(u32::from(exponent)))
}

/// Bit-at-a-time reference codec: the kernels' bit-exactness oracle,
/// shared with `tests/proptests.rs`.
#[cfg(test)]
#[path = "../tests/support/bfp_reference.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iq::IqSample;

    fn prb_with_amplitude(amp: i16) -> Prb {
        let mut prb = Prb::ZERO;
        for (k, s) in prb.0.iter_mut().enumerate() {
            let sign = if k % 2 == 0 { 1 } else { -1 };
            s.i = amp.saturating_mul(sign) / (k as i16 + 1);
            s.q = amp.saturating_mul(-sign) / (k as i16 + 2);
        }
        prb
    }

    #[test]
    fn comp_hdr_roundtrip() {
        for method in [
            CompressionMethod::NoCompression,
            CompressionMethod::BFP9,
            CompressionMethod::BlockFloatingPoint { iq_width: 14 },
            CompressionMethod::BlockFloatingPoint { iq_width: 16 },
        ] {
            let hdr = method.to_comp_hdr();
            assert_eq!(CompressionMethod::from_comp_hdr(hdr).unwrap(), method);
        }
    }

    #[test]
    fn unknown_method_rejected() {
        assert_eq!(CompressionMethod::from_comp_hdr(0x05).unwrap_err(), Error::UnknownCompression);
    }

    #[test]
    fn wire_sizes_match_paper() {
        // BFP-9: 24 × 9 = 216 bits = 27 bytes + 1 exponent byte = 28.
        assert_eq!(CompressionMethod::BFP9.prb_wire_bytes(), 28);
        // Uncompressed: 48 bytes, no parameter byte.
        assert_eq!(CompressionMethod::NoCompression.prb_wire_bytes(), 48);
    }

    #[test]
    fn zero_prb_compresses_with_zero_exponent() {
        let mut buf = [0u8; 64];
        let exp = compress_prb(&Prb::ZERO, 9, &mut buf).unwrap();
        assert_eq!(exp, 0);
        let back = decompress_prb(&buf, 9, exp).unwrap();
        assert_eq!(back, Prb::ZERO);
    }

    #[test]
    fn loud_prb_has_high_exponent() {
        let prb = prb_with_amplitude(i16::MAX);
        assert!(exponent_for(&prb, 9).unwrap() >= 7);
        let quiet = prb_with_amplitude(200);
        assert!(exponent_for(&quiet, 9).unwrap() <= 1);
    }

    #[test]
    fn bfp_roundtrip_error_is_bounded() {
        for amp in [50i16, 1000, 8000, i16::MAX] {
            let prb = prb_with_amplitude(amp);
            let mut buf = [0u8; 64];
            let exp = compress_prb(&prb, 9, &mut buf).unwrap();
            let back = decompress_prb(&buf, 9, exp).unwrap();
            let tol = max_quantization_error(exp);
            for k in 0..SAMPLES_PER_PRB {
                assert!((prb.0[k].i as i32 - back.0[k].i as i32).abs() <= tol);
                assert!((prb.0[k].q as i32 - back.0[k].q as i32).abs() <= tol);
            }
        }
    }

    #[test]
    fn width16_is_lossless() {
        let prb = prb_with_amplitude(i16::MAX);
        let mut buf = [0u8; 64];
        let exp = compress_prb(&prb, 16, &mut buf).unwrap();
        assert_eq!(exp, 0);
        assert_eq!(decompress_prb(&buf, 16, exp).unwrap(), prb);
    }

    #[test]
    fn wire_roundtrip_bfp() {
        let prb = prb_with_amplitude(5000);
        let mut buf = [0u8; 64];
        let n = compress_prb_wire(&prb, CompressionMethod::BFP9, &mut buf).unwrap();
        assert_eq!(n, 28);
        let (back, exp, consumed) = decompress_prb_wire(&buf, CompressionMethod::BFP9).unwrap();
        assert_eq!(consumed, 28);
        assert_eq!(exp, buf[0] & 0x0f);
        let tol = max_quantization_error(exp);
        for k in 0..SAMPLES_PER_PRB {
            assert!((prb.0[k].i as i32 - back.0[k].i as i32).abs() <= tol);
        }
    }

    #[test]
    fn wire_roundtrip_uncompressed() {
        let prb = prb_with_amplitude(5000);
        let mut buf = [0u8; 64];
        let n = compress_prb_wire(&prb, CompressionMethod::NoCompression, &mut buf).unwrap();
        assert_eq!(n, 48);
        let (back, exp, _) = decompress_prb_wire(&buf, CompressionMethod::NoCompression).unwrap();
        assert_eq!(exp, 0);
        assert_eq!(back, prb);
    }

    #[test]
    fn peek_exponent_fast_path() {
        let prb = prb_with_amplitude(20000);
        let mut buf = [0u8; 64];
        compress_prb_wire(&prb, CompressionMethod::BFP9, &mut buf).unwrap();
        let exp = peek_exponent(&buf, CompressionMethod::BFP9).unwrap();
        assert_eq!(exp, buf[0] & 0x0f);
        assert!(exp > 0);
        assert!(peek_exponent(&buf, CompressionMethod::NoCompression).is_err());
    }

    #[test]
    fn invalid_width_rejected() {
        let mut buf = [0u8; 64];
        assert_eq!(compress_prb(&Prb::ZERO, 0, &mut buf).unwrap_err(), Error::BadIqWidth);
        assert_eq!(compress_prb(&Prb::ZERO, 17, &mut buf).unwrap_err(), Error::BadIqWidth);
        assert_eq!(decompress_prb(&buf, 0, 0).unwrap_err(), Error::BadIqWidth);
    }

    #[test]
    fn exponent_for_rejects_bad_width_in_release() {
        // Regression: `width = 0` used to be guarded only by a
        // `debug_assert!` and wrapped `width - 1` in release builds.
        assert_eq!(exponent_for(&Prb::ZERO, 0).unwrap_err(), Error::BadIqWidth);
        assert_eq!(exponent_for(&Prb::ZERO, 17).unwrap_err(), Error::BadIqWidth);
        assert_eq!(exponent_for(&Prb::ZERO, u8::MAX).unwrap_err(), Error::BadIqWidth);
        for w in 1..=16u8 {
            assert!(exponent_for(&Prb::ZERO, w).is_ok());
        }
    }

    #[test]
    fn kernels_match_reference_at_the_extremes() {
        // Saturated, alternating and sign-boundary PRBs: where the folded
        // exponent and the sign extension are easiest to get wrong.
        let mut cases: Vec<PrbComponents> = vec![[i16::MIN; 24], [i16::MAX; 24], [-1; 24], [0; 24]];
        let mut alternating = [i16::MIN; 24];
        alternating.iter_mut().step_by(2).for_each(|c| *c = i16::MAX);
        cases.push(alternating);
        for bit in 0..15 {
            let mut v = [0i16; 24];
            v[7] = 1 << bit;
            v[16] = -(1 << bit) - 1;
            cases.push(v);
        }
        for v in &cases {
            let prb = Prb::from_components(v);
            for width in 1..=16u8 {
                let n = 3 * usize::from(width);
                let (mut got, mut want) = ([0xa5u8; 48], [0xa5u8; 48]);
                let exp = compress_prb(&prb, width, &mut got).unwrap();
                assert_eq!(exp, reference::compress(v, width, &mut want[..n]), "w={width}");
                assert_eq!(got, want, "w={width} v={v:?}");
                assert_eq!(exponent_for(&prb, width).unwrap(), reference::exponent_for(v, width));
                // Every u8 exponent, including the ones only corrupt
                // input carries.
                for exponent in 0..=u8::MAX {
                    let back = decompress_prb(&got, width, exponent).unwrap();
                    let oracle = reference::decompress(&got[..n], width, exponent);
                    assert_eq!(back.components(), oracle, "w={width} e={exponent}");
                }
            }
        }
    }

    #[test]
    fn bfp9_unpack_matches_reference_for_every_mantissa_lane_and_exponent() {
        // Every 9-bit value at each of the eight lane positions, its
        // neighbours holding the complement so a bit leaking across a lane
        // boundary shows, under every `u8` exponent.
        for value in 0u16..0x200 {
            for lane in 0..8 {
                let mut lanes = [!value & 0x1ff; 8];
                lanes[lane] = value;
                let bits = lanes.iter().fold(0u128, |acc, &m| (acc << 9) | u128::from(m));
                let mut data = [0u8; 27];
                for group in data.chunks_exact_mut(9) {
                    group.copy_from_slice(&bits.to_be_bytes()[7..]);
                }
                for exponent in 0..=u8::MAX {
                    let got = decompress_prb(&data, 9, exponent).unwrap().components();
                    let want = reference::decompress(&data, 9, exponent);
                    assert_eq!(got, want, "value={value:#x} lane={lane} e={exponent}");
                }
            }
        }
    }

    #[test]
    fn bfp9_pack_matches_reference_in_every_exponent_class() {
        // One loud component decides the exponent; it visits every lane
        // of every group, at both ends of each class and in both signs.
        for class in 0..8u32 {
            let (least, most) =
                (if class == 0 { 0 } else { 1i16 << (7 + class) }, i16::MAX >> (7 - class));
            for loud in [least, most, -least - 1, -most - 1] {
                for at in 0..COMPONENTS_PER_PRB {
                    let mut v: PrbComponents = std::array::from_fn(|k| (k as i16 * 37 - 400) % 256);
                    v[at] = loud;
                    let (mut got, mut want) = ([0xa5u8; 27], [0xa5u8; 27]);
                    let exp = compress_prb(&Prb::from_components(&v), 9, &mut got).unwrap();
                    assert_eq!(u32::from(exp), class, "loud={loud}");
                    assert_eq!(exp, reference::compress(&v, 9, &mut want));
                    assert_eq!(got, want, "loud={loud} at={at}");
                }
            }
        }
    }

    #[test]
    fn prb_runs_match_the_per_prb_codec() {
        let prbs: Vec<PrbComponents> = (0..5i16)
            .map(|p| std::array::from_fn(|k| (p * 3001 + k as i16 * 701 - 9000) >> p))
            .collect();
        for method in [
            CompressionMethod::NoCompression,
            CompressionMethod::BFP9,
            CompressionMethod::BlockFloatingPoint { iq_width: 14 },
        ] {
            let per = method.prb_wire_bytes();
            let mut wire = vec![0u8; prbs.len() * per];
            pack_prbs_wire(&prbs, method, &mut wire).unwrap();
            for (chunk, prb) in wire.chunks_exact(per).zip(&prbs) {
                let mut one = vec![0u8; per];
                pack_prb_wire(prb, method, &mut one).unwrap();
                assert_eq!(chunk, one);
            }
            if method.param_bytes() == 1 {
                // An exponent only corrupt input carries.
                wire[per] = 0x0b;
            }
            let decoded: Vec<PrbComponents> =
                wire.chunks_exact(per).map(|c| unpack_prb_wire(c, method).unwrap().0).collect();
            let mut acc = vec![[i16::MAX; COMPONENTS_PER_PRB]; prbs.len()];
            unpack_prbs_wire(&mut acc, &wire, method).unwrap();
            assert_eq!(acc, decoded, "the first term is stored, not added");
            accumulate_prbs_wire(&mut acc, &wire, method).unwrap();
            for (sum, v) in acc.iter().zip(&decoded) {
                assert_eq!(*sum, v.map(|c| c.saturating_add(c)));
            }
            // A short buffer is refused whole; a longer one is not read past the run.
            assert_eq!(unpack_prbs_wire(&mut acc, &wire[1..], method), Err(Error::Truncated));
            assert_eq!(accumulate_prbs_wire(&mut acc, &wire[1..], method), Err(Error::Truncated));
            let mut short = vec![0u8; wire.len() - 1];
            assert_eq!(pack_prbs_wire(&prbs, method, &mut short), Err(Error::BufferTooSmall));
            assert!(short.iter().all(|&b| b == 0));
        }
        let bad = CompressionMethod::BlockFloatingPoint { iq_width: 17 };
        assert_eq!(unpack_prbs_wire(&mut [], &[], bad), Err(Error::BadIqWidth));
        assert_eq!(pack_prbs_wire(&[], bad, &mut []), Err(Error::BadIqWidth));
    }

    #[test]
    fn max_quantization_error_is_total() {
        for exponent in 0..=u8::MAX {
            let want = (1i64 << exponent.min(31)) - 1;
            assert_eq!(i64::from(max_quantization_error(exponent)), want, "e={exponent}");
        }
    }

    #[test]
    fn buffer_too_small_rejected() {
        let mut small = [0u8; 10];
        assert_eq!(compress_prb(&Prb::ZERO, 9, &mut small).unwrap_err(), Error::BufferTooSmall);
        assert_eq!(decompress_prb(&small, 9, 0).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn negative_extremes_roundtrip() {
        let mut prb = Prb::ZERO;
        for s in prb.0.iter_mut() {
            *s = IqSample::new(i16::MIN, i16::MAX);
        }
        let mut buf = [0u8; 64];
        let exp = compress_prb(&prb, 9, &mut buf).unwrap();
        let back = decompress_prb(&buf, 9, exp).unwrap();
        let tol = max_quantization_error(exp);
        for s in back.0.iter() {
            assert!((s.i as i32 - i16::MIN as i32).abs() <= tol);
            assert!((s.q as i32 - i16::MAX as i32).abs() <= tol);
        }
    }
}
