//! Property-based tests over the fronthaul wire codecs: every reachable
//! `Repr` must survive an emit/parse round trip, BFP must stay within its
//! quantization bound, and parsers must never panic on arbitrary bytes.

// Test code is exempt from the crate's panic-vector denies.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use proptest::prelude::*;
use rb_fronthaul::bfp::{self, CompressionMethod};
use rb_fronthaul::cplane::{CPlaneRepr, Section3, SectionFields, Sections};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::{EtherType, EthernetAddress, FrameRepr};
use rb_fronthaul::iq::{IqSample, Prb, SAMPLES_PER_PRB};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::recovery::{RecoveryOp, RecoveryRepr};
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;

/// Bit-at-a-time reference codec (shared with the unit tests in
/// `src/bfp.rs`): the kernels' bit-exactness oracle.
#[path = "support/bfp_reference.rs"]
mod reference;

/// Arbitrary PRBs, with the saturated ones (all-`MIN`, all-`MAX`) that
/// uniform draws would never produce mixed in.
fn arb_prb_or_extreme() -> impl Strategy<Value = Prb> {
    prop_oneof![
        arb_prb(),
        arb_prb(),
        Just(Prb([IqSample::new(i16::MIN, i16::MIN); SAMPLES_PER_PRB])),
        Just(Prb([IqSample::new(i16::MAX, i16::MAX); SAMPLES_PER_PRB])),
    ]
}

fn arb_prb() -> impl Strategy<Value = Prb> {
    proptest::collection::vec(any::<(i16, i16)>(), SAMPLES_PER_PRB).prop_map(|v| {
        let mut prb = Prb::ZERO;
        for (k, (i, q)) in v.into_iter().enumerate() {
            prb.0[k] = IqSample::new(i, q);
        }
        prb
    })
}

fn arb_symbol() -> impl Strategy<Value = SymbolId> {
    (any::<u8>(), 0u8..10, 0u8..2, 0u8..14).prop_map(|(frame, subframe, slot, symbol)| SymbolId {
        frame,
        subframe,
        slot,
        symbol,
    })
}

fn arb_method() -> impl Strategy<Value = CompressionMethod> {
    prop_oneof![
        Just(CompressionMethod::NoCompression),
        (1u8..=16).prop_map(|w| CompressionMethod::BlockFloatingPoint { iq_width: w }),
    ]
}

fn arb_direction() -> impl Strategy<Value = Direction> {
    prop_oneof![Just(Direction::Uplink), Just(Direction::Downlink)]
}

fn arb_section_fields() -> impl Strategy<Value = SectionFields> {
    (
        0u16..=0xfff,
        any::<bool>(),
        any::<bool>(),
        0u16..=0x3ff,
        0u16..=255,
        0u16..=0xfff,
        1u8..=14,
        0u16..=0x7fff,
    )
        .prop_map(
            |(section_id, rb, sym_inc, start_prb, num_prb, re_mask, num_symbols, beam_id)| {
                SectionFields {
                    section_id,
                    rb,
                    sym_inc,
                    start_prb,
                    num_prb,
                    re_mask,
                    num_symbols,
                    ef: false,
                    beam_id,
                }
            },
        )
}

/// A message body of any plane: C-plane type 1 and type 3, multi-section
/// U-plane, recovery NACK and parity.
fn arb_body() -> impl Strategy<Value = Body> {
    let cplane1 = (arb_method(), proptest::collection::vec(arb_section_fields(), 1..8))
        .prop_map(|(comp, sections)| Sections::Type1 { comp, sections });
    let cplane3 = (arb_section_fields(), -(1i32 << 23)..(1i32 << 23), any::<u16>(), any::<u16>())
        .prop_map(|(fields, frequency_offset, time_offset, cp_length)| Sections::Type3 {
            time_offset,
            frame_structure: 0xb1,
            cp_length,
            comp: CompressionMethod::BFP9,
            sections: vec![Section3 { fields, frequency_offset }],
        });
    let cplane = (arb_direction(), arb_symbol(), prop_oneof![cplane1, cplane3]).prop_map(
        |(direction, symbol, sections)| {
            Body::CPlane(CPlaneRepr { direction, filter_index: 0, symbol, sections })
        },
    );
    let usection = (arb_method(), proptest::collection::vec(arb_prb(), 1..12), 0u16..=0xfff);
    let uplane = (arb_direction(), arb_symbol(), proptest::collection::vec(usection, 1..4))
        .prop_map(|(direction, symbol, sections)| {
            let sections = sections
                .into_iter()
                .map(|(method, prbs, id)| USection::from_prbs(id, 0, &prbs, method).unwrap())
                .collect();
            Body::UPlane(UPlaneRepr { direction, filter_index: 0, symbol, sections })
        });
    let nack = (arb_direction(), any::<u8>(), 1u16..)
        .prop_map(|(dir, base_seq, mask)| Body::Recovery(RecoveryRepr::nack(dir, base_seq, mask)));
    let parity =
        (arb_direction(), any::<u8>(), 1u8..=32, proptest::collection::vec(any::<u8>(), 2..200))
            .prop_map(|(direction, base_seq, window, payload)| {
                let op = RecoveryOp::Parity { base_seq, window, depth: 1, class: 0, payload };
                Body::Recovery(RecoveryRepr { direction, op })
            });
    prop_oneof![cplane, uplane, nack, parity]
}

proptest! {
    #[test]
    fn bfp_roundtrip_within_tolerance(prb in arb_prb(), width in 1u8..=16) {
        let mut buf = vec![0u8; 64];
        let exp = bfp::compress_prb(&prb, width, &mut buf).unwrap();
        let back = bfp::decompress_prb(&buf, width, exp).unwrap();
        let tol = bfp::max_quantization_error(exp);
        for k in 0..SAMPLES_PER_PRB {
            prop_assert!((prb.0[k].i as i32 - back.0[k].i as i32).abs() <= tol);
            prop_assert!((prb.0[k].q as i32 - back.0[k].q as i32).abs() <= tol);
        }
    }

    #[test]
    fn kernel_compress_matches_reference(prb in arb_prb_or_extreme(), width in 1u8..=16, shift in 0u8..16) {
        // Arithmetic-shift the draw so every exponent (not just the high
        // ones full-scale samples need) is exercised.
        let v = prb.components().map(|c| c >> shift);
        let prb = Prb::from_components(&v);
        let n = 3 * usize::from(width);
        let mut got = vec![0x5au8; n];
        let mut want = vec![0x5au8; n];
        let exp = bfp::compress_prb(&prb, width, &mut got).unwrap();
        prop_assert_eq!(exp, reference::compress(&v, width, &mut want));
        prop_assert_eq!(got, want);
        prop_assert_eq!(bfp::exponent_for(&prb, width).unwrap(), reference::exponent_for(&v, width));
    }

    #[test]
    fn kernel_decompress_matches_reference(
        data in proptest::collection::vec(any::<u8>(), 48),
        width in 1u8..=16,
        exponent in any::<u8>(),
    ) {
        // Arbitrary mantissa bytes and any u8 exponent, not only the 4-bit
        // ones a well-formed udCompParam carries.
        let got = bfp::decompress_prb(&data, width, exponent).unwrap();
        let n = 3 * usize::from(width);
        prop_assert_eq!(got.components(), reference::decompress(&data[..n], width, exponent));
    }

    #[test]
    fn wire_codec_matches_reference(prb in arb_prb_or_extreme(), width in 1u8..=16) {
        let method = CompressionMethod::BlockFloatingPoint { iq_width: width };
        let per = method.prb_wire_bytes();
        let mut wire = vec![0u8; per];
        prop_assert_eq!(bfp::compress_prb_wire(&prb, method, &mut wire).unwrap(), per);
        let mut want = vec![0u8; per];
        want[0] = reference::compress(&prb.components(), width, &mut want[1..]);
        prop_assert_eq!(&wire, &want);
        let (back, exp, used) = bfp::decompress_prb_wire(&wire, method).unwrap();
        prop_assert_eq!((exp, used), (want[0], per));
        prop_assert_eq!(back.components(), reference::decompress(&want[1..], width, exp));
    }

    #[test]
    fn bfp_idempotent_after_first_pass(prb in arb_prb(), width in 4u8..=16) {
        // Compressing an already-quantized PRB again must be lossless.
        let mut buf = vec![0u8; 64];
        let exp = bfp::compress_prb(&prb, width, &mut buf).unwrap();
        let once = bfp::decompress_prb(&buf, width, exp).unwrap();
        let mut buf2 = vec![0u8; 64];
        let exp2 = bfp::compress_prb(&once, width, &mut buf2).unwrap();
        let twice = bfp::decompress_prb(&buf2, width, exp2).unwrap();
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn bad_widths_are_rejected_everywhere(prb in arb_prb(), width in prop_oneof![Just(0u8), Just(17u8), 18u8..]) {
        // Regression (release-mode guard): width 0 / > 16 must surface as a
        // clean Err from every public entry point, never wrap or panic.
        let mut buf = vec![0u8; 64];
        prop_assert!(bfp::exponent_for(&prb, width).is_err());
        prop_assert!(bfp::compress_prb(&prb, width, &mut buf).is_err());
        prop_assert!(bfp::decompress_prb(&buf, width, 1).is_err());
        let method = CompressionMethod::BlockFloatingPoint { iq_width: width };
        prop_assert!(method.validate().is_err());
        prop_assert!(bfp::compress_prb_wire(&prb, method, &mut buf).is_err());
        prop_assert!(bfp::decompress_prb_wire(&buf, method).is_err());
        prop_assert!(bfp::peek_exponent(&buf, method).is_err());
        prop_assert!(USection::from_prbs(0, 0, &[prb], method).is_err());
    }

    #[test]
    fn exponent_is_minimal(prb in arb_prb(), width in 2u8..=15) {
        let exp = bfp::exponent_for(&prb, width).unwrap();
        if exp > 0 {
            // One less must not fit.
            let limit_pos = (1i32 << (width - 1)) - 1;
            let limit_neg = -(1i32 << (width - 1));
            let fits = prb.0.iter().all(|s| {
                let i = (s.i as i32) >> (exp - 1);
                let q = (s.q as i32) >> (exp - 1);
                i >= limit_neg && i <= limit_pos && q >= limit_neg && q <= limit_pos
            });
            prop_assert!(!fits, "exponent {} not minimal", exp);
        }
    }

    #[test]
    fn uplane_roundtrip(
        dir in arb_direction(),
        symbol in arb_symbol(),
        method in arb_method(),
        prbs in proptest::collection::vec(arb_prb(), 1..40),
        start_prb in 0u16..=0x3ff,
        section_id in 0u16..=0xfff,
    ) {
        let section = USection::from_prbs(section_id, start_prb, &prbs, method).unwrap();
        let repr = UPlaneRepr::single(dir, symbol, section);
        let mut buf = vec![0u8; repr.wire_len()];
        repr.emit(&mut buf).unwrap();
        let parsed = UPlaneRepr::parse(&buf).unwrap();
        prop_assert_eq!(parsed, repr);
    }

    #[test]
    fn cplane_type1_roundtrip(
        dir in arb_direction(),
        symbol in arb_symbol(),
        method in arb_method(),
        sections in proptest::collection::vec(arb_section_fields(), 1..16),
    ) {
        let repr = CPlaneRepr {
            direction: dir,
            filter_index: 0,
            symbol,
            sections: Sections::Type1 { comp: method, sections },
        };
        let mut buf = vec![0u8; repr.wire_len()];
        repr.emit(&mut buf).unwrap();
        prop_assert_eq!(CPlaneRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn cplane_type3_roundtrip(
        symbol in arb_symbol(),
        fields in arb_section_fields(),
        freq_offset in -(1i32 << 23)..(1i32 << 23),
        time_offset in any::<u16>(),
        cp_length in any::<u16>(),
    ) {
        let repr = CPlaneRepr {
            direction: Direction::Uplink,
            filter_index: 1,
            symbol,
            sections: Sections::Type3 {
                time_offset,
                frame_structure: 0xb1,
                cp_length,
                comp: CompressionMethod::BFP9,
                sections: vec![Section3 { fields, frequency_offset: freq_offset }],
            },
        };
        let mut buf = vec![0u8; repr.wire_len()];
        repr.emit(&mut buf).unwrap();
        prop_assert_eq!(CPlaneRepr::parse(&buf).unwrap(), repr);
    }

    #[test]
    fn whole_frame_roundtrip(
        symbol in arb_symbol(),
        prbs in proptest::collection::vec(arb_prb(), 1..20),
        port in 0u8..16,
        seq in any::<u8>(),
        vlan in proptest::option::of(1u16..4095),
    ) {
        let section = USection::from_prbs(0, 0, &prbs, CompressionMethod::BFP9).unwrap();
        let msg = FhMessage {
            eth: FrameRepr {
                dst: EthernetAddress::new(2, 0, 0, 0, 0, 1),
                src: EthernetAddress::new(2, 0, 0, 0, 0, 2),
                vlan,
                ethertype: EtherType::ECPRI,
            },
            eaxc: Eaxc::port(port),
            seq_id: seq,
            body: Body::UPlane(UPlaneRepr::single(Direction::Uplink, symbol, section)),
        };
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        prop_assert_eq!(FhMessage::parse(&bytes, &EaxcMapping::DEFAULT).unwrap(), msg);
    }

    #[test]
    fn serialize_into_ignores_what_the_buffer_held(
        body in arb_body(),
        vlan in proptest::option::of(1u16..4095),
        seq in any::<u8>(),
        longer in 1usize..64,
    ) {
        let mut msg =
            FhMessage::new(EthernetAddress::new(2, 0, 0, 0, 0, 2), EthernetAddress::new(2, 0, 0, 0, 0, 1), Eaxc::port(3), seq, body);
        msg.eth.vlan = vlan;
        let want = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        // No byte of the frame is left to the buffer's previous contents,
        // reserved ones included: only growth is zero-filled.
        for stale in [0, want.len() / 2, want.len() - 1, want.len(), want.len() + longer] {
            let mut buf = vec![0xff; stale];
            msg.serialize_into(&EaxcMapping::DEFAULT, &mut buf).unwrap();
            prop_assert_eq!(&buf, &want, "over {} stale bytes", stale);
        }
    }

    #[test]
    fn parsers_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = FhMessage::parse(&data, &EaxcMapping::DEFAULT);
        let _ = CPlaneRepr::parse(&data);
        let _ = UPlaneRepr::parse(&data);
    }

    #[test]
    fn truncated_uplane_frames_never_panic(
        symbol in arb_symbol(),
        prbs in proptest::collection::vec(arb_prb(), 1..20),
        cut in any::<proptest::sample::Index>(),
    ) {
        // A valid eCPRI U-plane frame cut short anywhere must yield a clean
        // Err (the middlebox then drops and counts it) or, for cuts past the
        // last section, a shorter-but-valid parse — never a panic.
        let section = USection::from_prbs(0, 0, &prbs, CompressionMethod::BFP9).unwrap();
        let msg = FhMessage::new(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
            Eaxc::port(0),
            0,
            Body::UPlane(UPlaneRepr::single(Direction::Uplink, symbol, section)),
        );
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let cut = cut.index(bytes.len());
        if let Ok(short) = FhMessage::parse(&bytes[..cut], &EaxcMapping::DEFAULT) {
            // Whatever parsed must re-emit without panicking.
            let _ = short.to_bytes(&EaxcMapping::DEFAULT);
        }
    }

    #[test]
    fn truncated_cplane_frames_never_panic(
        symbol in arb_symbol(),
        sections in proptest::collection::vec(arb_section_fields(), 1..8),
        cut in any::<proptest::sample::Index>(),
    ) {
        let repr = CPlaneRepr {
            direction: Direction::Downlink,
            filter_index: 0,
            symbol,
            sections: Sections::Type1 { comp: CompressionMethod::BFP9, sections },
        };
        let msg = FhMessage::new(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
            Eaxc::port(0),
            0,
            Body::CPlane(repr),
        );
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let cut = cut.index(bytes.len());
        if let Ok(short) = FhMessage::parse(&bytes[..cut], &EaxcMapping::DEFAULT) {
            let _ = short.to_bytes(&EaxcMapping::DEFAULT);
        }
    }

    #[test]
    fn bitflipped_frames_never_panic(
        symbol in arb_symbol(),
        prbs in proptest::collection::vec(arb_prb(), 1..20),
        flip in any::<proptest::sample::Index>(),
        bit in 0u8..8,
        cplane in any::<bool>(),
    ) {
        // Single-bit corruption anywhere in a valid frame: header fields,
        // lengths, compression params — parse must be total (Ok or Err).
        let body = if cplane {
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                symbol,
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 106, 1),
            ))
        } else {
            let section = USection::from_prbs(0, 0, &prbs, CompressionMethod::BFP9).unwrap();
            Body::UPlane(UPlaneRepr::single(Direction::Uplink, symbol, section))
        };
        let msg = FhMessage::new(
            EthernetAddress::new(2, 0, 0, 0, 0, 1),
            EthernetAddress::new(2, 0, 0, 0, 0, 2),
            Eaxc::port(0),
            0,
            body,
        );
        let mut bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let at = flip.index(bytes.len());
        bytes[at] ^= 1 << bit;
        if let Ok(parsed) = FhMessage::parse(&bytes, &EaxcMapping::DEFAULT) {
            let _ = parsed.to_bytes(&EaxcMapping::DEFAULT);
        }
    }

    #[test]
    fn eaxc_roundtrip_any_raw(raw in any::<u16>()) {
        let id = Eaxc::unpack(raw, &EaxcMapping::DEFAULT);
        prop_assert_eq!(id.pack(&EaxcMapping::DEFAULT), raw);
    }

    #[test]
    fn prb_sum_commutes(a in arb_prb(), b in arb_prb()) {
        prop_assert_eq!(a.saturating_add(&b), b.saturating_add(&a));
    }

    #[test]
    fn prb_sum_zero_identity(a in arb_prb()) {
        prop_assert_eq!(a.saturating_add(&Prb::ZERO), a);
    }
}
