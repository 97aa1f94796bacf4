//! O-RAN user-plane (U-plane) messages.
//!
//! U-plane messages carry the modulated radio signal as IQ samples, grouped
//! into PRBs, each optionally BFP-compressed with a per-PRB `udCompParam`
//! exponent byte (see [`crate::bfp`]). Downlink U-plane flows DU → RU;
//! uplink flows RU → DU.
//!
//! Wire layout (after the 8-byte eCPRI header):
//!
//! ```text
//! byte 0     dataDirection(1) | payloadVersion(3) | filterIndex(4)
//! byte 1     frameId
//! byte 2     subframeId(4) | slotId[5..2]
//! byte 3     slotId[1..0] | symbolId(6)
//! then one or more sections:
//!   sectionId(12) | rb(1) | symInc(1) | startPrbu(10)      (3 bytes)
//!   numPrbu(8)                                             (1 byte)
//!   udCompHdr(8) reserved(8)                               (2 bytes)
//!   numPrbu × [udCompParam?] [packed IQ mantissas]
//! ```
//!
//! `numPrbu == 0` encodes "all remaining PRBs" (needed for carriers wider
//! than 255 PRBs, e.g. the 100 MHz / 273-PRB cells of the paper, which ride
//! in a single jumbo frame); such a section must be the last in the message
//! and its PRB count is inferred from the remaining payload length.

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use crate::bfp::{self, CompressionMethod};
use crate::iq::Prb;
use crate::timing::{SymbolId, SYMBOLS_PER_SLOT};
use crate::{Direction, Error, Result};

/// Read the byte at `i`, or 0 if the buffer is too short.
fn read_1(d: &[u8], i: usize) -> u8 {
    d.get(i).copied().unwrap_or(0)
}

/// Copy `src` to `off`; a no-op if the buffer is too short (the emit path
/// length-checks up front).
fn write_at(d: &mut [u8], off: usize, src: &[u8]) {
    if let Some(s) = d.get_mut(off..off.saturating_add(src.len())) {
        s.copy_from_slice(src);
    }
}

/// `payloadVersion` value this crate emits.
pub const PAYLOAD_VERSION: u8 = 1;

/// Length of the U-plane application header (timing fields).
pub const APP_HDR_LEN: usize = 4;

/// Smallest parseable message: app header plus one section header.
const MIN_MSG_LEN: usize = APP_HDR_LEN + SECTION_HDR_LEN;

/// Per-section header length (section fields + numPrbu + udCompHdr + rsvd).
pub const SECTION_HDR_LEN: usize = 6;

/// A section's wire payload: bytes behind a copy-on-write reference count.
///
/// Cloning bumps the count instead of copying the bytes, which makes
/// replicating a 7.7 KB message (action A2) a header operation. The first
/// write through a shared handle (`DerefMut`) moves that handle onto a
/// private copy, so two handles on one block ([`Payload::ptr_eq`]) hold the
/// same bytes for as long as both exist. Count and bytes share one heap
/// block, so a fresh payload costs one allocation, as a `Vec<u8>` did;
/// `len` is the used prefix, so a recycled block takes any payload that fits.
#[derive(Clone)]
pub struct Payload {
    buf: Arc<[u8]>,
    len: usize,
}

impl Payload {
    /// `len` zero bytes.
    pub fn zeroed(len: usize) -> Payload {
        Payload { buf: std::iter::repeat_n(0u8, len).collect(), len }
    }

    /// Replace the contents with `data`: in place when no other handle
    /// shares the block and `data` fits it, in a fresh block otherwise — a
    /// shared block is never written through.
    pub fn refill(&mut self, data: &[u8]) {
        match Arc::get_mut(&mut self.buf).and_then(|b| b.get_mut(..data.len())) {
            Some(dst) => dst.copy_from_slice(data),
            None => self.buf = Arc::from(data),
        }
        self.len = data.len();
    }

    /// Shorten to at most `len` bytes (the block is kept).
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Whether both handles view the same bytes of the same block.
    pub fn ptr_eq(&self, other: &Payload) -> bool {
        Arc::ptr_eq(&self.buf, &other.buf) && self.len == other.len
    }
}

impl From<&[u8]> for Payload {
    fn from(data: &[u8]) -> Payload {
        Payload { buf: Arc::from(data), len: data.len() }
    }
}

impl Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.buf.get(..self.len).unwrap_or(&[])
    }
}

impl DerefMut for Payload {
    /// Copy-on-write: a shared block is left to the other handles.
    fn deref_mut(&mut self) -> &mut [u8] {
        Arc::make_mut(&mut self.buf).get_mut(..self.len).unwrap_or(&mut [])
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        **self == **other
    }
}

impl Eq for Payload {}

impl std::fmt::Debug for Payload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// One U-plane section: a contiguous PRB range and its (possibly
/// compressed) IQ payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct USection {
    /// Section id (12 bits) — matches the scheduling C-plane section.
    pub section_id: u16,
    /// Resource-block indicator (`false` = every RB).
    pub rb: bool,
    /// Symbol-number increment flag.
    pub sym_inc: bool,
    /// First PRB of the range (10 bits).
    pub start_prb: u16,
    /// Compression applied to `payload`.
    pub method: CompressionMethod,
    /// Raw wire payload: `num_prb ×` [`CompressionMethod::prb_wire_bytes`].
    pub payload: Payload,
}

impl USection {
    /// Build a section by compressing `prbs` with `method`.
    pub fn from_prbs(
        section_id: u16,
        start_prb: u16,
        prbs: &[Prb],
        method: CompressionMethod,
    ) -> Result<USection> {
        method.validate()?;
        let per = method.prb_wire_bytes();
        let mut payload = Payload::zeroed(prbs.len().saturating_mul(per));
        for (chunk, prb) in payload.chunks_exact_mut(per).zip(prbs.iter()) {
            bfp::compress_prb_wire(prb, method, chunk)?;
        }
        Ok(USection { section_id, rb: false, sym_inc: false, start_prb, method, payload })
    }

    /// Number of PRBs carried.
    pub fn num_prb(&self) -> u16 {
        // A section cannot carry more PRBs than its 8-bit wire field plus
        // the "all remaining" encoding allow; pin rather than wrap if a
        // hand-built payload is oversized.
        u16::try_from(self.payload.len() / self.method.prb_wire_bytes()).unwrap_or(u16::MAX)
    }

    /// The raw wire bytes of PRB `idx` within this section.
    pub fn prb_bytes(&self, idx: u16) -> Result<&[u8]> {
        self.prb_range_bytes(idx, 1)
    }

    /// Mutable raw wire bytes of PRB `idx`.
    pub fn prb_bytes_mut(&mut self, idx: u16) -> Result<&mut [u8]> {
        self.prb_range_bytes_mut(idx, 1)
    }

    /// Byte range of `count` PRBs starting at local index `idx`.
    fn prb_range(&self, idx: u16, count: u16) -> std::ops::Range<usize> {
        let per = self.method.prb_wire_bytes();
        // Saturation lands past the payload end and fails the range check.
        let start = usize::from(idx).saturating_mul(per);
        start..start.saturating_add(usize::from(count).saturating_mul(per))
    }

    /// The raw wire bytes of `count` PRBs starting at local index `idx`.
    pub fn prb_range_bytes(&self, idx: u16, count: u16) -> Result<&[u8]> {
        self.payload.get(self.prb_range(idx, count)).ok_or(Error::FieldRange)
    }

    /// Mutable raw wire bytes of `count` PRBs starting at `idx`.
    pub fn prb_range_bytes_mut(&mut self, idx: u16, count: u16) -> Result<&mut [u8]> {
        let range = self.prb_range(idx, count);
        self.payload.get_mut(range).ok_or(Error::FieldRange)
    }

    /// Decode every PRB (decompressing as needed) together with its
    /// BFP exponent (0 when uncompressed).
    pub fn decode(&self) -> Result<Vec<(Prb, u8)>> {
        let per = self.method.prb_wire_bytes();
        let mut out = Vec::with_capacity(usize::from(self.num_prb()));
        for chunk in self.payload.chunks_exact(per) {
            let (prb, exp, _) = bfp::decompress_prb_wire(chunk, self.method)?;
            out.push((prb, exp));
        }
        Ok(out)
    }

    /// Read only the per-PRB exponents without decompressing anything —
    /// the fast path used by Algorithm 1 (PRB monitoring).
    pub fn exponents(&self) -> Result<Vec<u8>> {
        let per = self.method.prb_wire_bytes();
        self.payload.chunks_exact(per).map(|chunk| bfp::peek_exponent(chunk, self.method)).collect()
    }

    /// Overwrite the PRBs starting at local index `at` with freshly
    /// compressed `prbs` — the payload-modification primitive (action A4).
    pub fn write_prbs(&mut self, at: u16, prbs: &[Prb]) -> Result<()> {
        let method = self.method;
        let count = u16::try_from(prbs.len()).map_err(|_| Error::FieldRange)?;
        let dst = self.prb_range_bytes_mut(at, count)?;
        for (chunk, prb) in dst.chunks_exact_mut(method.prb_wire_bytes()).zip(prbs.iter()) {
            bfp::compress_prb_wire(prb, method, chunk)?;
        }
        Ok(())
    }

    /// Copy the raw wire bytes of `count` PRBs starting at `src_idx` in
    /// `src` into `self` starting at `dst_idx`, without recompression.
    ///
    /// Both sections must use the same compression method — this is the
    /// RU-sharing *aligned* fast path. Use [`USection::decode`] +
    /// [`USection::write_prbs`] for the misaligned path.
    pub fn copy_prbs_from(
        &mut self,
        src: &USection,
        src_idx: u16,
        dst_idx: u16,
        count: u16,
    ) -> Result<()> {
        if self.method != src.method {
            return Err(Error::ShapeMismatch);
        }
        let src_bytes = src.prb_range_bytes(src_idx, count)?;
        self.prb_range_bytes_mut(dst_idx, count)?.copy_from_slice(src_bytes);
        Ok(())
    }

    /// Wire length of this section including its header.
    pub fn wire_len(&self) -> usize {
        SECTION_HDR_LEN.saturating_add(self.payload.len())
    }

    fn validate(&self) -> Result<()> {
        self.method.validate()?;
        if self.section_id > 0x0fff || self.start_prb > 0x03ff {
            return Err(Error::FieldRange);
        }
        if !self.payload.len().is_multiple_of(self.method.prb_wire_bytes()) {
            return Err(Error::Malformed);
        }
        Ok(())
    }
}

/// High-level representation of a complete U-plane message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UPlaneRepr {
    /// Data direction.
    pub direction: Direction,
    /// Filter index (0 for standard channels, 1 for PRACH).
    pub filter_index: u8,
    /// The symbol this payload belongs to.
    pub symbol: SymbolId,
    /// The sections.
    pub sections: Vec<USection>,
}

impl UPlaneRepr {
    /// Convenience constructor for a single-section message.
    pub fn single(direction: Direction, symbol: SymbolId, section: USection) -> UPlaneRepr {
        UPlaneRepr { direction, filter_index: 0, symbol, sections: vec![section] }
    }

    /// Byte length of the emitted message.
    pub fn wire_len(&self) -> usize {
        self.sections.iter().fold(APP_HDR_LEN, |acc, s| acc.saturating_add(s.wire_len()))
    }

    /// Whether `other` emits the same bytes as `self`, judged by header
    /// fields and payload *identity* ([`Payload::ptr_eq`]) — true of the
    /// replicas of one message, never of two separately built ones. Cheap
    /// enough to ask per emitted frame.
    pub fn shares_wire_bytes(&self, other: &UPlaneRepr) -> bool {
        let fields = |s: &USection| (s.section_id, s.rb, s.sym_inc, s.start_prb, s.method);
        (self.direction, self.filter_index, self.symbol, self.sections.len())
            == (other.direction, other.filter_index, other.symbol, other.sections.len())
            && self
                .sections
                .iter()
                .zip(&other.sections)
                .all(|(a, b)| fields(a) == fields(b) && a.payload.ptr_eq(&b.payload))
    }

    /// Validate field ranges and payload shapes.
    pub fn validate(&self) -> Result<()> {
        if self.filter_index > 0x0f {
            return Err(Error::FieldRange);
        }
        if self.sections.is_empty() {
            return Err(Error::Malformed);
        }
        for (k, s) in self.sections.iter().enumerate() {
            s.validate()?;
            // Only the final section may need the "all remaining" encoding.
            if s.num_prb() > 255 && k.saturating_add(1) != self.sections.len() {
                return Err(Error::Malformed);
            }
        }
        Ok(())
    }

    /// Emit the message into `out` (at least [`UPlaneRepr::wire_len`]
    /// bytes). Returns the bytes written.
    pub fn emit(&self, out: &mut [u8]) -> Result<usize> {
        self.validate()?;
        let len = self.wire_len();
        if out.len() < len {
            return Err(Error::BufferTooSmall);
        }
        write_at(
            out,
            0,
            &[
                (self.direction.bit() << 7)
                    | ((PAYLOAD_VERSION & 0x07) << 4)
                    | (self.filter_index & 0x0f),
                self.symbol.frame,
                (self.symbol.subframe << 4) | ((self.symbol.slot >> 2) & 0x0f),
                ((self.symbol.slot & 0x03) << 6) | (self.symbol.symbol & 0x3f),
            ],
        );
        let mut off = APP_HDR_LEN;
        for s in &self.sections {
            let num = s.num_prb();
            // Every conversion below is masked to its field width first,
            // so none of them can actually fail.
            let hdr = [
                u8::try_from((s.section_id >> 4) & 0xff).unwrap_or(0),
                u8::try_from(s.section_id & 0x0f).unwrap_or(0) << 4
                    | u8::from(s.rb) << 3
                    | u8::from(s.sym_inc) << 2
                    | u8::try_from((s.start_prb >> 8) & 0x03).unwrap_or(0),
                u8::try_from(s.start_prb & 0xff).unwrap_or(0),
                if num > 255 { 0 } else { u8::try_from(num).unwrap_or(0) },
                s.method.to_comp_hdr(),
                0, // reserved
            ];
            write_at(out, off, &hdr);
            off = off.saturating_add(SECTION_HDR_LEN);
            write_at(out, off, &s.payload);
            off = off.saturating_add(s.payload.len());
        }
        Ok(len)
    }

    /// Parse a U-plane message from the eCPRI payload bytes.
    pub fn parse(data: &[u8]) -> Result<UPlaneRepr> {
        let mut repr = UPlaneRepr::empty();
        repr.parse_into(data)?;
        Ok(repr)
    }

    /// An empty shell whose section and payload buffers a later
    /// [`UPlaneRepr::parse_into`] grows into. Not a valid message (zero
    /// sections) until parsed into.
    pub(crate) fn empty() -> UPlaneRepr {
        UPlaneRepr {
            direction: Direction::Downlink,
            filter_index: 0,
            symbol: SymbolId::ZERO,
            // Vec::new is capacity-0: building the shell never allocates.
            sections: Vec::new(),
        }
    }

    /// Parse into `self`, reusing its section and payload buffers.
    ///
    /// Behaves exactly like [`UPlaneRepr::parse`]. On error, `self`'s
    /// contents are unspecified but its buffers stay available for the
    /// next parse.
    pub fn parse_into(&mut self, data: &[u8]) -> Result<()> {
        if data.len() < MIN_MSG_LEN {
            return Err(Error::Truncated);
        }
        let direction = Direction::from_bit(read_1(data, 0) >> 7);
        let filter_index = read_1(data, 0) & 0x0f;
        let frame = read_1(data, 1);
        let subframe = read_1(data, 2) >> 4;
        let slot = ((read_1(data, 2) & 0x0f) << 2) | (read_1(data, 3) >> 6);
        let symbol = read_1(data, 3) & 0x3f;
        if subframe > 9 || symbol >= SYMBOLS_PER_SLOT {
            return Err(Error::FieldRange);
        }
        self.direction = direction;
        self.filter_index = filter_index;
        self.symbol = SymbolId { frame, subframe, slot, symbol };
        let mut used = 0usize;
        let mut off = APP_HDR_LEN;
        while off < data.len() {
            if off.saturating_add(SECTION_HDR_LEN) > data.len() {
                return Err(Error::Truncated);
            }
            let b0 = read_1(data, off);
            let b1 = read_1(data, off.saturating_add(1));
            let b2 = read_1(data, off.saturating_add(2));
            let b3 = read_1(data, off.saturating_add(3));
            let b4 = read_1(data, off.saturating_add(4));
            let section_id = (u16::from(b0) << 4) | u16::from(b1 >> 4);
            let rb = b1 & 0x08 != 0;
            let sym_inc = b1 & 0x04 != 0;
            let start_prb = (u16::from(b1 & 0x03) << 8) | u16::from(b2);
            let num_raw = b3;
            let method = CompressionMethod::from_comp_hdr(b4)?;
            off = off.saturating_add(SECTION_HDR_LEN);
            let per = method.prb_wire_bytes();
            let payload_len = if num_raw == 0 {
                // "All remaining PRBs": consume the rest of the message.
                // The loop condition guarantees `off < data.len()`.
                let rest = data.len().saturating_sub(off);
                if rest == 0 || !rest.is_multiple_of(per) {
                    return Err(Error::Malformed);
                }
                rest
            } else {
                usize::from(num_raw).saturating_mul(per)
            };
            let payload = data.get(off..off.saturating_add(payload_len)).ok_or(Error::Truncated)?;
            if let Some(s) = self.sections.get_mut(used) {
                // Steady state: refill the recycled section slot — in place
                // unless an emitted replica still shares its payload.
                s.section_id = section_id;
                s.rb = rb;
                s.sym_inc = sym_inc;
                s.start_prb = start_prb;
                s.method = method;
                s.payload.refill(payload);
            } else {
                // Cold start / section-count growth: materialize a slot.
                self.sections.push(USection {
                    section_id,
                    rb,
                    sym_inc,
                    start_prb,
                    method,
                    payload: Payload::from(payload),
                });
            }
            used = used.saturating_add(1);
            // `payload_len` ≥ 1 (per ≥ 1 and both branches reject zero),
            // so the cursor always advances.
            off = off.saturating_add(payload_len);
        }
        if used == 0 {
            return Err(Error::Malformed);
        }
        self.sections.truncate(used);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iq::IqSample;
    use crate::timing::Numerology;

    fn sym() -> SymbolId {
        SymbolId::new(Numerology::Mu1, 46, 9, 1, 13).unwrap()
    }

    fn prb(seed: i16) -> Prb {
        let mut p = Prb::ZERO;
        for (k, s) in p.0.iter_mut().enumerate() {
            *s = IqSample::new(seed.wrapping_mul(k as i16 + 1), seed.wrapping_sub(k as i16 * 7));
        }
        p
    }

    fn prbs(n: usize) -> Vec<Prb> {
        (0..n).map(|k| prb(100 + k as i16 * 13)).collect()
    }

    #[test]
    fn roundtrip_bfp_section() {
        let section = USection::from_prbs(0, 0, &prbs(106), CompressionMethod::BFP9).unwrap();
        let repr = UPlaneRepr::single(Direction::Uplink, sym(), section);
        let mut buf = vec![0u8; repr.wire_len()];
        repr.emit(&mut buf).unwrap();
        let parsed = UPlaneRepr::parse(&buf).unwrap();
        assert_eq!(parsed, repr);
        assert_eq!(parsed.sections[0].num_prb(), 106);
    }

    #[test]
    fn roundtrip_wide_carrier_all_prbs() {
        // 273 PRBs (> 255) forces the numPrbu=0 "all" encoding.
        let section = USection::from_prbs(0, 0, &prbs(273), CompressionMethod::BFP9).unwrap();
        let repr = UPlaneRepr::single(Direction::Downlink, sym(), section);
        let mut buf = vec![0u8; repr.wire_len()];
        repr.emit(&mut buf).unwrap();
        // A 100 MHz symbol really is a jumbo frame (> 7 KB with headers).
        assert!(repr.wire_len() > 7000);
        assert_eq!(buf[APP_HDR_LEN + 3], 0, "numPrbu must encode as ALL");
        let parsed = UPlaneRepr::parse(&buf).unwrap();
        assert_eq!(parsed.sections[0].num_prb(), 273);
        assert_eq!(parsed, repr);
    }

    #[test]
    fn oversized_section_must_be_last() {
        let s1 = USection::from_prbs(0, 0, &prbs(273), CompressionMethod::BFP9).unwrap();
        let s2 = USection::from_prbs(1, 273, &prbs(1), CompressionMethod::BFP9).unwrap();
        let repr = UPlaneRepr {
            direction: Direction::Downlink,
            filter_index: 0,
            symbol: sym(),
            sections: vec![s1, s2],
        };
        assert_eq!(repr.validate().unwrap_err(), Error::Malformed);
    }

    #[test]
    fn multi_section_roundtrip() {
        let s1 = USection::from_prbs(1, 0, &prbs(20), CompressionMethod::BFP9).unwrap();
        let s2 = USection::from_prbs(2, 50, &prbs(10), CompressionMethod::NoCompression).unwrap();
        let repr = UPlaneRepr {
            direction: Direction::Uplink,
            filter_index: 0,
            symbol: sym(),
            sections: vec![s1, s2],
        };
        let mut buf = vec![0u8; repr.wire_len()];
        repr.emit(&mut buf).unwrap();
        let parsed = UPlaneRepr::parse(&buf).unwrap();
        assert_eq!(parsed.sections.len(), 2);
        assert_eq!(parsed, repr);
    }

    #[test]
    fn decode_recovers_prbs_within_tolerance() {
        let original = prbs(8);
        let section = USection::from_prbs(0, 0, &original, CompressionMethod::BFP9).unwrap();
        let decoded = section.decode().unwrap();
        assert_eq!(decoded.len(), 8);
        for (k, (got, exp)) in decoded.iter().enumerate() {
            let tol = crate::bfp::max_quantization_error(*exp);
            for i in 0..12 {
                assert!((original[k].0[i].i as i32 - got.0[i].i as i32).abs() <= tol);
            }
        }
    }

    #[test]
    fn exponents_match_decoded() {
        let mut data = prbs(4);
        data[2] = Prb::ZERO; // idle PRB
        let section = USection::from_prbs(0, 0, &data, CompressionMethod::BFP9).unwrap();
        let exps = section.exponents().unwrap();
        let decoded = section.decode().unwrap();
        assert_eq!(exps.len(), 4);
        for (e, (_, de)) in exps.iter().zip(decoded.iter()) {
            assert_eq!(e, de);
        }
        assert_eq!(exps[2], 0, "idle PRB compresses with exponent 0");
        assert!(exps[0] > 0, "loud PRB has nonzero exponent");
    }

    #[test]
    fn write_prbs_in_place() {
        let mut section = USection::from_prbs(0, 0, &prbs(4), CompressionMethod::BFP9).unwrap();
        section.write_prbs(1, &[Prb::ZERO, Prb::ZERO]).unwrap();
        let exps = section.exponents().unwrap();
        assert_eq!(exps[1], 0);
        assert_eq!(exps[2], 0);
        assert!(section.write_prbs(3, &[Prb::ZERO, Prb::ZERO]).is_err());
    }

    #[test]
    fn copy_prbs_fast_path() {
        let src = USection::from_prbs(0, 0, &prbs(6), CompressionMethod::BFP9).unwrap();
        let mut dst =
            USection::from_prbs(0, 0, &vec![Prb::ZERO; 10], CompressionMethod::BFP9).unwrap();
        dst.copy_prbs_from(&src, 2, 5, 3).unwrap();
        let src_dec = src.decode().unwrap();
        let dst_dec = dst.decode().unwrap();
        for k in 0..3 {
            assert_eq!(dst_dec[5 + k].0, src_dec[2 + k].0);
        }
        // Untouched PRBs stay zero.
        assert!(dst_dec[0].0.is_zero());
    }

    #[test]
    fn copy_prbs_rejects_method_mismatch() {
        let src = USection::from_prbs(0, 0, &prbs(2), CompressionMethod::NoCompression).unwrap();
        let mut dst = USection::from_prbs(0, 0, &prbs(2), CompressionMethod::BFP9).unwrap();
        assert_eq!(dst.copy_prbs_from(&src, 0, 0, 1).unwrap_err(), Error::ShapeMismatch);
    }

    #[test]
    fn parse_rejects_truncated_payload() {
        let section = USection::from_prbs(0, 0, &prbs(10), CompressionMethod::BFP9).unwrap();
        let repr = UPlaneRepr::single(Direction::Uplink, sym(), section);
        let mut buf = vec![0u8; repr.wire_len()];
        repr.emit(&mut buf).unwrap();
        assert_eq!(UPlaneRepr::parse(&buf[..buf.len() - 5]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn parse_rejects_bad_timing() {
        let section = USection::from_prbs(0, 0, &prbs(1), CompressionMethod::BFP9).unwrap();
        let repr = UPlaneRepr::single(Direction::Uplink, sym(), section);
        let mut buf = vec![0u8; repr.wire_len()];
        repr.emit(&mut buf).unwrap();
        buf[2] = 0xa0; // subframe 10
        assert_eq!(UPlaneRepr::parse(&buf).unwrap_err(), Error::FieldRange);
    }

    #[test]
    fn prb_bytes_accessors() {
        let mut section = USection::from_prbs(0, 0, &prbs(3), CompressionMethod::BFP9).unwrap();
        assert_eq!(section.prb_bytes(0).unwrap().len(), 28);
        assert!(section.prb_bytes(3).is_err());
        section.prb_bytes_mut(2).unwrap()[0] = 0x05;
        assert_eq!(section.exponents().unwrap()[2], 5);
    }
}
