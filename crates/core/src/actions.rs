//! The RANBooster processing actions A1, A2 and A4 (paper §3.2.1).
//!
//! Actions are deliberately small, composable operations on parsed
//! [`FhMessage`]s; A3 (caching) lives in [`crate::cache`]. Handlers express
//! their result by [`emit`]ting messages into the buffer the framework
//! hands them — dropping a packet (part of A1) is simply not emitting it.

use rb_fronthaul::bfp;
use rb_fronthaul::ether::EthernetAddress;
use rb_fronthaul::iq::COMPONENTS_PER_PRB;
use rb_fronthaul::msg::FhMessage;
use rb_fronthaul::uplane::USection;
use rb_fronthaul::{Error, Result};

/// A1 — redirect: rewrite Ethernet source/destination (and optionally the
/// VLAN id) so the frame is steered to a different DU or RU.
pub fn redirect(msg: &mut FhMessage, src: EthernetAddress, dst: EthernetAddress) {
    msg.eth.src = src;
    msg.eth.dst = dst;
}

/// A1 — retag: change the VLAN id (None removes the tag).
pub fn retag(msg: &mut FhMessage, vlan: Option<u16>) {
    msg.eth.vlan = vlan;
}

/// Queue `msg` for transmission: append it to the handler's `out` buffer.
/// Every handler emits through here, so the framework's bound on `out` —
/// one frame's fan-out, drained by the pipeline before the next frame —
/// is argued once.
pub fn emit(out: &mut Vec<FhMessage>, msg: FhMessage) {
    out.push(msg);
}

/// A2 — replicate: emit one copy of `msg` per destination, in order, with
/// the addressing rewritten. Consumes `msg`: the last destination gets the
/// original, so N destinations cost N − 1 clones; none at all emit nothing.
/// A clone *shares* each section's payload ([`rb_fronthaul::uplane::Payload`]):
/// its cost does not depend on the payload size, and the pipeline serializes
/// the shared bytes once.
pub fn replicate_into(
    mut msg: FhMessage,
    src: EthernetAddress,
    dsts: &[EthernetAddress],
    out: &mut Vec<FhMessage>,
) {
    let Some((&last, rest)) = dsts.split_last() else {
        return;
    };
    for &dst in rest {
        let mut copy = msg.clone();
        redirect(&mut copy, src, dst);
        emit(out, copy);
    }
    redirect(&mut msg, src, last);
    emit(out, msg);
}

/// PRBs per pass of [`sum_sections_into`] and [`recompress_copy`]: a 64 × 48 B
/// = 3 KB stack scratch, small enough to stay in L1 beside the wire bytes.
pub const SUM_BLOCK_PRBS: usize = 64;

/// A4 — element-wise sum of the PRB payloads of several U-plane sections
/// covering the same PRB range (the DAS uplink combine), in place.
///
/// `dst` is the first term and receives the result; `other(k)` is the
/// k-th further term, `None` past the last. Each section is decompressed
/// with its own method, the components are summed per subcarrier with
/// saturation — sequentially, `dst` first, then the others in order — and
/// the sum is recompressed over `dst.payload` with `dst.method`. All
/// sections must have the same `start_prb` and PRB count; on any mismatch
/// `dst` is left untouched.
///
/// Nothing is allocated: each block of [`SUM_BLOCK_PRBS`] PRBs of `dst` is
/// decompressed into a stack scratch (stored, not added to zeros), every
/// other source is accumulated onto it, and the block is recompressed in a
/// pass of its own (packing a PRB straight after accumulating it stalls on
/// the accumulator's stores) — the run-level kernels of [`rb_fronthaul::bfp`].
pub fn sum_sections_into<'a>(
    dst: &mut USection,
    other: impl Fn(usize) -> Option<&'a USection>,
) -> Result<()> {
    // Walked once to validate and once per block, so not a plain iterator.
    let others = || (0usize..).map_while(&other);
    dst.method.validate()?;
    let num_prb = dst.num_prb();
    for s in others() {
        s.method.validate()?;
        if s.start_prb != dst.start_prb || s.num_prb() != num_prb {
            return Err(Error::ShapeMismatch);
        }
    }
    let per = dst.method.prb_wire_bytes();
    // Drop a ragged tail so the result is exactly `num_prb` wire PRBs.
    dst.payload.truncate(usize::from(num_prb).saturating_mul(per));
    let mut scratch = [[0i16; COMPONENTS_PER_PRB]; SUM_BLOCK_PRBS];
    let mut first_prb = 0u16;
    for block in dst.payload.chunks_mut(SUM_BLOCK_PRBS.saturating_mul(per)) {
        let count = u16::try_from(block.len() / per).unwrap_or(u16::MAX);
        let acc = scratch.get_mut(..usize::from(count)).ok_or(Error::FieldRange)?;
        bfp::unpack_prbs_wire(acc, block, dst.method)?;
        for s in others() {
            bfp::accumulate_prbs_wire(acc, s.prb_range_bytes(first_prb, count)?, s.method)?;
        }
        bfp::pack_prbs_wire(acc, dst.method, block)?;
        first_prb = first_prb.saturating_add(count);
    }
    Ok(())
}

/// A4 — copy a PRB range between two sections that may use different
/// compression or misaligned grids: decompress `count` PRBs of `src` a
/// block at a time, recompress each block into `dst` (the RU-sharing
/// *misaligned* path; see [`USection::copy_prbs_from`] for the aligned
/// fast path).
pub fn recompress_copy(
    dst: &mut USection,
    src: &USection,
    src_idx: u16,
    dst_idx: u16,
    count: u16,
) -> Result<()> {
    let (from_per, to_per) = (src.method.prb_wire_bytes(), dst.method.prb_wire_bytes());
    let from = src.prb_range_bytes(src_idx, count)?.chunks(SUM_BLOCK_PRBS.saturating_mul(from_per));
    let dst_method = dst.method;
    let to = dst.prb_range_bytes_mut(dst_idx, count)?;
    let mut scratch = [[0i16; COMPONENTS_PER_PRB]; SUM_BLOCK_PRBS];
    for (from, to) in from.zip(to.chunks_mut(SUM_BLOCK_PRBS.saturating_mul(to_per))) {
        let v = scratch.get_mut(..from.len() / from_per).ok_or(Error::FieldRange)?;
        bfp::unpack_prbs_wire(v, from, src.method)?;
        bfp::pack_prbs_wire(v, dst_method, to)?;
    }
    Ok(())
}

/// A4 — copy PRBs between sections choosing the aligned fast path when the
/// compression methods match, falling back to decompress/recompress.
pub fn copy_prbs(
    dst: &mut USection,
    src: &USection,
    src_idx: u16,
    dst_idx: u16,
    count: u16,
) -> Result<()> {
    if dst.method == src.method {
        dst.copy_prbs_from(src, src_idx, dst_idx, count)
    } else {
        recompress_copy(dst, src, src_idx, dst_idx, count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rb_fronthaul::bfp::CompressionMethod;
    use rb_fronthaul::cplane::{CPlaneRepr, SectionFields};
    use rb_fronthaul::eaxc::Eaxc;
    use rb_fronthaul::iq::{IqSample, Prb};
    use rb_fronthaul::msg::Body;
    use rb_fronthaul::timing::SymbolId;
    use rb_fronthaul::uplane::UPlaneRepr;
    use rb_fronthaul::Direction;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(0x02, 0, 0, 0, 0, last)
    }

    fn prb(seed: i16) -> Prb {
        let mut p = Prb::ZERO;
        for (k, s) in p.0.iter_mut().enumerate() {
            *s = IqSample::new(seed + k as i16 * 3, -seed + k as i16);
        }
        p
    }

    fn cplane_msg() -> FhMessage {
        FhMessage::new(
            mac(1),
            mac(2),
            Eaxc::port(0),
            0,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                SymbolId::ZERO,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 106, 1),
            )),
        )
    }

    #[test]
    fn redirect_rewrites_addresses() {
        let mut msg = cplane_msg();
        redirect(&mut msg, mac(5), mac(6));
        assert_eq!(msg.eth.src, mac(5));
        assert_eq!(msg.eth.dst, mac(6));
        // Body untouched.
        assert!(msg.as_cplane().is_some());
    }

    #[test]
    fn retag_sets_and_clears_vlan() {
        let mut msg = cplane_msg();
        retag(&mut msg, Some(6));
        assert_eq!(msg.eth.vlan, Some(6));
        retag(&mut msg, None);
        assert_eq!(msg.eth.vlan, None);
    }

    #[test]
    fn replicate_into_emits_one_copy_per_destination_in_order() {
        let msg = cplane_msg();
        for n in 0..=3u8 {
            let dsts: Vec<EthernetAddress> = (0..n).map(|k| mac(10 + k)).collect();
            // Appends: what the caller already queued stays in front.
            let mut out = vec![msg.clone()];
            replicate_into(msg.clone(), mac(9), &dsts, &mut out);
            assert_eq!(out.len(), 1 + dsts.len());
            assert_eq!(out[0], msg);
            for (copy, &dst) in out[1..].iter().zip(&dsts) {
                let mut want = msg.clone();
                redirect(&mut want, mac(9), dst);
                assert_eq!(*copy, want, "equal to the input except eth.src/eth.dst");
            }
        }
    }

    #[test]
    fn sum_sections_is_elementwise() {
        let a = USection::from_prbs(0, 0, &[prb(100), prb(200)], CompressionMethod::NoCompression)
            .unwrap();
        let b = USection::from_prbs(0, 0, &[prb(10), prb(20)], CompressionMethod::NoCompression)
            .unwrap();
        let mut sum = a.clone();
        sum_sections_into(&mut sum, |k| [&b].get(k).copied()).unwrap();
        let got = sum.decode().unwrap();
        let ea = a.decode().unwrap();
        let eb = b.decode().unwrap();
        for k in 0..2 {
            assert_eq!(got[k].0, ea[k].0.saturating_add(&eb[k].0));
        }
    }

    #[test]
    fn sum_sections_bfp_within_tolerance() {
        let a = USection::from_prbs(0, 0, &[prb(1000)], CompressionMethod::BFP9).unwrap();
        let b = USection::from_prbs(0, 0, &[prb(-400)], CompressionMethod::BFP9).unwrap();
        let mut sum = a.clone();
        sum_sections_into(&mut sum, |k| [&b].get(k).copied()).unwrap();
        let (got, exp) = sum.decode().unwrap()[0];
        let expect = a.decode().unwrap()[0].0.saturating_add(&b.decode().unwrap()[0].0);
        let tol = rb_fronthaul::bfp::max_quantization_error(exp) * 2;
        for k in 0..12 {
            assert!((got.0[k].i as i32 - expect.0[k].i as i32).abs() <= tol);
        }
    }

    #[test]
    fn sum_saturates_sequentially_in_source_order() {
        // +32767 +32767 −32768: saturating after every term gives −1; a
        // wide sum clamped once at the end would give 32766.
        let flat = |v: i16| {
            let p = Prb([IqSample::new(v, v); 12]);
            USection::from_prbs(0, 0, &[p], CompressionMethod::NoCompression).unwrap()
        };
        let (up, down) = (flat(i16::MAX), flat(i16::MIN));
        let mut sum = flat(i16::MAX);
        sum_sections_into(&mut sum, |k| [&up, &down].get(k).copied()).unwrap();
        assert_eq!(sum, flat(-1));
        // The same terms in another order saturate differently.
        let mut sum = flat(i16::MAX);
        sum_sections_into(&mut sum, |k| [&down, &up].get(k).copied()).unwrap();
        assert_eq!(sum, flat(i16::MAX - 1));
    }

    #[test]
    fn sum_sections_rejects_shape_mismatch_without_partial_output() {
        let a = USection::from_prbs(0, 0, &[prb(1), prb(2)], CompressionMethod::BFP9).unwrap();
        let ok = USection::from_prbs(0, 0, &[prb(3), prb(4)], CompressionMethod::BFP9).unwrap();
        let shifted =
            USection::from_prbs(0, 5, &[prb(1), prb(2)], CompressionMethod::BFP9).unwrap();
        let short = USection::from_prbs(0, 0, &[prb(1)], CompressionMethod::BFP9).unwrap();
        let bad_width = USection {
            method: CompressionMethod::BlockFloatingPoint { iq_width: 17 },
            ..ok.clone()
        };
        // The offender comes after a valid source: nothing may be summed
        // before every shape is known to agree.
        for bad in [&shifted, &short] {
            let mut dst = a.clone();
            let err = sum_sections_into(&mut dst, |k| [&ok, bad].get(k).copied()).unwrap_err();
            assert_eq!(err, Error::ShapeMismatch);
            assert_eq!(dst, a, "dst untouched");
        }
        let mut dst = a.clone();
        assert_eq!(
            sum_sections_into(&mut dst, |k| [&ok, &bad_width].get(k).copied()).unwrap_err(),
            Error::BadIqWidth
        );
        assert_eq!(dst, a, "dst untouched");
    }

    #[test]
    fn copy_prbs_aligned_is_bit_exact() {
        let src =
            USection::from_prbs(0, 0, &[prb(500), prb(600)], CompressionMethod::BFP9).unwrap();
        let mut dst = USection::from_prbs(0, 0, &[Prb::ZERO; 4], CompressionMethod::BFP9).unwrap();
        copy_prbs(&mut dst, &src, 0, 2, 2).unwrap();
        assert_eq!(dst.prb_bytes(2).unwrap(), src.prb_bytes(0).unwrap());
        assert_eq!(dst.prb_bytes(3).unwrap(), src.prb_bytes(1).unwrap());
    }

    #[test]
    fn copy_prbs_cross_method_recompresses() {
        let src = USection::from_prbs(0, 0, &[prb(500)], CompressionMethod::NoCompression).unwrap();
        let mut dst = USection::from_prbs(0, 0, &[Prb::ZERO; 2], CompressionMethod::BFP9).unwrap();
        copy_prbs(&mut dst, &src, 0, 1, 1).unwrap();
        let (got, exp) = dst.decode().unwrap()[1];
        let tol = rb_fronthaul::bfp::max_quantization_error(exp);
        let want = src.decode().unwrap()[0].0;
        for k in 0..12 {
            assert!((got.0[k].i as i32 - want.0[k].i as i32).abs() <= tol);
        }
    }

    #[test]
    fn recompress_copy_bounds_checked() {
        let src = USection::from_prbs(0, 0, &[prb(1)], CompressionMethod::BFP9).unwrap();
        let mut dst = USection::from_prbs(0, 0, &[Prb::ZERO; 2], CompressionMethod::BFP9).unwrap();
        assert!(recompress_copy(&mut dst, &src, 1, 0, 1).is_err());
        assert!(recompress_copy(&mut dst, &src, 0, 2, 1).is_err());
    }

    #[test]
    fn uplane_replicate_preserves_payload() {
        let section = USection::from_prbs(0, 0, &[prb(77)], CompressionMethod::BFP9).unwrap();
        let msg = FhMessage::new(
            mac(1),
            mac(2),
            Eaxc::port(0),
            3,
            Body::UPlane(UPlaneRepr::single(Direction::Uplink, SymbolId::ZERO, section)),
        );
        let mut copies = Vec::new();
        replicate_into(msg.clone(), mac(1), &[mac(3), mac(4)], &mut copies);
        assert_eq!(copies.len(), 2);
        for c in &copies {
            assert_eq!(c.as_uplane().unwrap().sections, msg.as_uplane().unwrap().sections);
        }
    }
}
