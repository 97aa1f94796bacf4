//! Golden-vector conformance suite.
//!
//! Each vector is a hand-built canonical O-RAN fronthaul frame, written
//! out byte by byte from the wire layout (O-RAN WG4 CUS §5/§6/§7, as
//! reproduced in the crate docs). The tests assert, per vector:
//!
//! 1. serializing the equivalent high-level repr produces **exactly**
//!    these bytes;
//! 2. parsing these bytes yields every annotated header field (so a codec
//!    regression fails naming the broken field, not with a hexdump diff);
//! 3. `parse → serialize_into` round-trips byte-exactly, whatever the
//!    buffer held before.

use rb_fronthaul::bfp::CompressionMethod;
use rb_fronthaul::cplane::{CPlaneRepr, Section3, SectionFields, Sections};
use rb_fronthaul::eaxc::{Eaxc, EaxcMapping};
use rb_fronthaul::ether::{EtherType, EthernetAddress};
use rb_fronthaul::msg::{Body, FhMessage};
use rb_fronthaul::recovery::{RecoveryOp, RecoveryRepr};
use rb_fronthaul::timing::SymbolId;
use rb_fronthaul::uplane::{UPlaneRepr, USection};
use rb_fronthaul::Direction;

fn mac(last: u8) -> EthernetAddress {
    EthernetAddress::new(2, 0, 0, 0, 0, last)
}

/// Parse, assert byte-exact re-serialization, and return the message.
fn round_trip(vector: &[u8]) -> FhMessage {
    let msg = FhMessage::parse(vector, &EaxcMapping::DEFAULT).expect("golden vector must parse");
    assert_eq!(msg.wire_len(), vector.len(), "wire_len disagrees with the vector length");
    // `serialize_into` does not clear what the buffer held: whatever was
    // there — nothing, a shorter, an equal or a longer frame's worth of
    // `0xff` — every byte of the result is the emitters' own.
    for stale in [0, vector.len() - 1, vector.len(), vector.len() + 9] {
        let mut buf = vec![0xff; stale];
        msg.serialize_into(&EaxcMapping::DEFAULT, &mut buf)
            .expect("golden vector must re-serialize");
        assert_eq!(buf, vector, "parse -> serialize_into over {stale} stale bytes");
    }
    msg
}

// ---------------------------------------------------------------------------
// Vector 1: C-plane section type 1 (downlink scheduling), BFP9.
// ---------------------------------------------------------------------------

#[rustfmt::skip]
const CPLANE_TYPE1: &[u8] = &[
    // Ethernet header (14 bytes)
    0x02, 0x00, 0x00, 0x00, 0x00, 0x02,             // dst 02:00:00:00:00:02
    0x02, 0x00, 0x00, 0x00, 0x00, 0x01,             // src 02:00:00:00:00:01
    0xae, 0xfe,                                     // EtherType eCPRI
    // eCPRI common header (8 bytes)
    0x10,                                           // version 1, no concat
    0x02,                                           // msgType 2 = rt control (C-plane)
    0x00, 0x14,                                     // payloadSize 20 = 16 app + 4
    0x12, 0x34,                                     // eAxC: du 1, bs 2, cc 3, port 4 (4/4/4/4)
    0x2a,                                           // seqId 42
    0x80,                                           // E bit set, subSeqId 0
    // C-plane section type 1 application header (8 bytes)
    0x90,                                           // dir DL (1), payloadVer 1, filter 0
    0x05,                                           // frameId 5
    0x60,                                           // subframe 6 | slot[5:2] (slot 1 -> 0)
    0x47,                                           // slot[1:0]=1 <<6 | startSymbol 7
    0x01,                                           // numberOfSections 1
    0x01,                                           // sectionType 1
    0x91,                                           // udCompHdr: width 9, meth 1 (BFP)
    0x00,                                           // reserved
    // Section (8 bytes)
    0x12,                                           // sectionId[11:4] (id 0x123)
    0x31,                                           // sectionId[3:0]<<4 | rb 0 | symInc 0 | startPrb[9:8]=1
    0x2c,                                           // startPrb[7:0] (start 300 = 0x12c)
    0x19,                                           // numPrb 25
    0xff,                                           // reMask[11:4] (0xfff)
    0xf7,                                           // reMask[3:0]<<4 | numSymbols 7
    0x00,                                           // ef 0 | beamId[14:8] 0
    0x45,                                           // beamId[7:0] = 0x45
];

#[test]
fn cplane_type1_serializes_to_golden_bytes() {
    let msg = FhMessage::new(
        mac(1),
        mac(2),
        Eaxc { du_port: 1, band_sector: 2, cc: 3, ru_port: 4 },
        42,
        Body::CPlane(CPlaneRepr::single(
            Direction::Downlink,
            SymbolId { frame: 5, subframe: 6, slot: 1, symbol: 7 },
            CompressionMethod::BFP9,
            SectionFields {
                section_id: 0x123,
                rb: false,
                sym_inc: false,
                start_prb: 300,
                num_prb: 25,
                re_mask: 0xfff,
                num_symbols: 7,
                ef: false,
                beam_id: 0x45,
            },
        )),
    );
    let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
    assert_eq!(bytes, CPLANE_TYPE1);
}

#[test]
fn cplane_type1_parses_every_field() {
    let msg = round_trip(CPLANE_TYPE1);
    assert_eq!(msg.eth.dst, mac(2));
    assert_eq!(msg.eth.src, mac(1));
    assert_eq!(msg.eth.ethertype, EtherType::ECPRI);
    assert_eq!(msg.eth.vlan, None);
    assert_eq!(msg.eaxc, Eaxc { du_port: 1, band_sector: 2, cc: 3, ru_port: 4 });
    assert_eq!(msg.seq_id, 42);
    let cp = msg.as_cplane().expect("C-plane body");
    assert_eq!(cp.direction, Direction::Downlink);
    assert_eq!(cp.filter_index, 0);
    assert_eq!(cp.symbol, SymbolId { frame: 5, subframe: 6, slot: 1, symbol: 7 });
    let Sections::Type1 { comp, sections } = &cp.sections else {
        panic!("expected a type-1 section block, got {:?}", cp.sections);
    };
    assert_eq!(*comp, CompressionMethod::BFP9);
    assert_eq!(sections.len(), 1);
    let s = &sections[0];
    assert_eq!(s.section_id, 0x123);
    assert!(!s.rb);
    assert!(!s.sym_inc);
    assert_eq!(s.start_prb, 300);
    assert_eq!(s.num_prb, 25);
    assert_eq!(s.re_mask, 0xfff);
    assert_eq!(s.num_symbols, 7);
    assert!(!s.ef);
    assert_eq!(s.beam_id, 0x45);
}

// ---------------------------------------------------------------------------
// Vector 2: C-plane section type 3 (PRACH), negative frequency offset.
// ---------------------------------------------------------------------------

#[rustfmt::skip]
const CPLANE_TYPE3_PRACH: &[u8] = &[
    // Ethernet header (14 bytes)
    0x02, 0x00, 0x00, 0x00, 0x00, 0x0a,             // dst: the middlebox
    0x02, 0x00, 0x00, 0x00, 0x00, 0x09,             // src: the RU
    0xae, 0xfe,                                     // EtherType eCPRI
    // eCPRI common header (8 bytes)
    0x10,                                           // version 1
    0x02,                                           // msgType 2 = C-plane
    0x00, 0x1c,                                     // payloadSize 28 = 24 app + 4
    0x00, 0x05,                                     // eAxC: port 5
    0x07,                                           // seqId 7
    0x80,                                           // E bit set
    // C-plane section type 3 application header (12 bytes)
    0x11,                                           // dir UL (0), payloadVer 1, filter 1 (PRACH)
    0x10,                                           // frameId 16
    0x90,                                           // subframe 9 | slot[5:2] (slot 1 -> 0)
    0x40,                                           // slot[1:0]=1 <<6 | startSymbol 0
    0x01,                                           // numberOfSections 1
    0x03,                                           // sectionType 3
    0x01, 0x02,                                     // timeOffset 0x0102
    0xb1,                                           // frameStructure: FFT 2^11, mu 1
    0x00, 0xc8,                                     // cpLength 200
    0x91,                                           // udCompHdr: width 9, meth 1 (BFP)
    // Section (12 bytes)
    0x00,                                           // sectionId[11:4] (id 1)
    0x10,                                           // sectionId[3:0]<<4, rb/symInc/startPrb[9:8] 0
    0x00,                                           // startPrb 0
    0x0c,                                           // numPrb 12
    0xff,                                           // reMask[11:4]
    0xf1,                                           // reMask[3:0]<<4 | numSymbols 1
    0x00, 0x00,                                     // ef 0, beamId 0
    0xff, 0xff, 0xfd,                               // freqOffset -3 (24-bit two's complement)
    0x00,                                           // reserved
];

#[test]
fn cplane_type3_prach_serializes_to_golden_bytes() {
    let msg = FhMessage::new(
        mac(9),
        mac(10),
        Eaxc::port(5),
        7,
        Body::CPlane(CPlaneRepr {
            direction: Direction::Uplink,
            filter_index: 1,
            symbol: SymbolId { frame: 16, subframe: 9, slot: 1, symbol: 0 },
            sections: Sections::Type3 {
                time_offset: 0x0102,
                frame_structure: 0xb1,
                cp_length: 200,
                comp: CompressionMethod::BFP9,
                sections: vec![Section3 {
                    fields: SectionFields::data(1, 0, 12, 1),
                    frequency_offset: -3,
                }],
            },
        }),
    );
    let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
    assert_eq!(bytes, CPLANE_TYPE3_PRACH);
}

#[test]
fn cplane_type3_prach_parses_every_field() {
    let msg = round_trip(CPLANE_TYPE3_PRACH);
    assert_eq!(msg.eth.dst, mac(10));
    assert_eq!(msg.eth.src, mac(9));
    assert_eq!(msg.eaxc, Eaxc::port(5));
    assert_eq!(msg.seq_id, 7);
    let cp = msg.as_cplane().expect("C-plane body");
    assert_eq!(cp.direction, Direction::Uplink);
    assert_eq!(cp.filter_index, 1, "filterIndex 1 marks PRACH");
    assert_eq!(cp.symbol, SymbolId { frame: 16, subframe: 9, slot: 1, symbol: 0 });
    let Sections::Type3 { time_offset, frame_structure, cp_length, comp, sections } = &cp.sections
    else {
        panic!("expected a type-3 section block, got {:?}", cp.sections);
    };
    assert_eq!(*time_offset, 0x0102);
    assert_eq!(*frame_structure, 0xb1);
    assert_eq!(*cp_length, 200);
    assert_eq!(*comp, CompressionMethod::BFP9);
    assert_eq!(sections.len(), 1);
    let s = &sections[0];
    assert_eq!(s.fields.section_id, 1);
    assert_eq!(s.fields.start_prb, 0);
    assert_eq!(s.fields.num_prb, 12);
    assert_eq!(s.fields.num_symbols, 1);
    assert_eq!(s.frequency_offset, -3, "negative 24-bit freqOffset sign-extends");
}

// ---------------------------------------------------------------------------
// Vector 3: U-plane uplink with one BFP9-compressed PRB.
//
// The PRB holds I = 1, Q = -1 in every sample: all components fit 9 bits
// directly, so the shared exponent is 0 and the mantissas are the raw
// 9-bit two's-complement patterns 0_0000_0001 and 1_1111_1111. Packed
// MSB-first, one (I, Q) pair is the 18-bit unit 000000001111111111; four
// units span exactly 9 bytes, so the 24-component PRB is that 9-byte
// pattern three times.
// ---------------------------------------------------------------------------

/// 9-byte MSB-first packing of four (I=1, Q=-1) 9-bit sample pairs.
const BFP9_UNIT: [u8; 9] = [0x00, 0xff, 0xc0, 0x3f, 0xf0, 0x0f, 0xfc, 0x03, 0xff];

#[rustfmt::skip]
const UPLANE_BFP9: &[u8] = &[
    // Ethernet header (14 bytes)
    0x02, 0x00, 0x00, 0x00, 0x00, 0x0a,             // dst: the middlebox
    0x02, 0x00, 0x00, 0x00, 0x00, 0x09,             // src: the RU
    0xae, 0xfe,                                     // EtherType eCPRI
    // eCPRI common header (8 bytes)
    0x10,                                           // version 1
    0x00,                                           // msgType 0 = IQ data (U-plane)
    0x00, 0x2a,                                     // payloadSize 42 = 38 app + 4
    0x00, 0x05,                                     // eAxC: port 5
    0x03,                                           // seqId 3
    0x80,                                           // E bit set
    // U-plane application header (4 bytes)
    0x10,                                           // dir UL (0), payloadVer 1, filter 0
    0x02,                                           // frameId 2
    0x30,                                           // subframe 3 | slot[5:2] (slot 0)
    0x0d,                                           // slot[1:0]<<6 | symbol 13
    // Section header (6 bytes)
    0x00,                                           // sectionId[11:4] (id 7)
    0x70,                                           // sectionId[3:0]<<4, rb/symInc/startPrb[9:8] 0
    0x28,                                           // startPrb 40
    0x01,                                           // numPrb 1
    0x91,                                           // udCompHdr: width 9, meth 1 (BFP)
    0x00,                                           // reserved
    // PRB payload (1 + 27 bytes)
    0x00,                                           // udCompParam: shared exponent 0
    0x00, 0xff, 0xc0, 0x3f, 0xf0, 0x0f, 0xfc, 0x03, 0xff, // samples 0-3
    0x00, 0xff, 0xc0, 0x3f, 0xf0, 0x0f, 0xfc, 0x03, 0xff, // samples 4-7
    0x00, 0xff, 0xc0, 0x3f, 0xf0, 0x0f, 0xfc, 0x03, 0xff, // samples 8-11
];

fn golden_prb() -> rb_fronthaul::iq::Prb {
    let mut prb = rb_fronthaul::iq::Prb::ZERO;
    for s in prb.0.iter_mut() {
        s.i = 1;
        s.q = -1;
    }
    prb
}

#[test]
fn uplane_bfp9_serializes_to_golden_bytes() {
    let section = USection::from_prbs(7, 40, &[golden_prb()], CompressionMethod::BFP9).unwrap();
    let msg = FhMessage::new(
        mac(9),
        mac(10),
        Eaxc::port(5),
        3,
        Body::UPlane(UPlaneRepr::single(
            Direction::Uplink,
            SymbolId { frame: 2, subframe: 3, slot: 0, symbol: 13 },
            section,
        )),
    );
    let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
    assert_eq!(bytes, UPLANE_BFP9);
}

#[test]
fn uplane_bfp9_parses_every_field_and_decodes() {
    let msg = round_trip(UPLANE_BFP9);
    assert_eq!(msg.eth.dst, mac(10));
    assert_eq!(msg.eth.src, mac(9));
    assert_eq!(msg.eaxc, Eaxc::port(5));
    assert_eq!(msg.seq_id, 3);
    let up = msg.as_uplane().expect("U-plane body");
    assert_eq!(up.direction, Direction::Uplink);
    assert_eq!(up.filter_index, 0);
    assert_eq!(up.symbol, SymbolId { frame: 2, subframe: 3, slot: 0, symbol: 13 });
    assert_eq!(up.sections.len(), 1);
    let s = &up.sections[0];
    assert_eq!(s.section_id, 7);
    assert_eq!(s.start_prb, 40);
    assert_eq!(s.num_prb(), 1);
    assert_eq!(s.method, CompressionMethod::BFP9);
    assert_eq!(s.payload.len(), 28, "1 exponent byte + 27 mantissa bytes");
    assert_eq!(&s.payload[1..10], &BFP9_UNIT, "hand-packed mantissa pattern");
    let decoded = s.decode().unwrap();
    assert_eq!(decoded.len(), 1);
    let (prb, exponent) = &decoded[0];
    assert_eq!(*exponent, 0, "components fit 9 bits, exponent 0");
    for sample in prb.0.iter() {
        assert_eq!((sample.i, sample.q), (1, -1));
    }
}

// ---------------------------------------------------------------------------
// Vector 4: U-plane PRACH occasion (filterIndex 1), BFP9.
// ---------------------------------------------------------------------------

#[rustfmt::skip]
const UPLANE_PRACH: &[u8] = &[
    // Ethernet header (14 bytes)
    0x02, 0x00, 0x00, 0x00, 0x00, 0x0a,             // dst: the middlebox
    0x02, 0x00, 0x00, 0x00, 0x00, 0x09,             // src: the RU
    0xae, 0xfe,                                     // EtherType eCPRI
    // eCPRI common header (8 bytes)
    0x10,                                           // version 1
    0x00,                                           // msgType 0 = IQ data
    0x00, 0x2a,                                     // payloadSize 42 = 38 app + 4
    0x00, 0x05,                                     // eAxC: port 5
    0x08,                                           // seqId 8
    0x80,                                           // E bit set
    // U-plane application header (4 bytes)
    0x11,                                           // dir UL (0), payloadVer 1, filter 1 (PRACH)
    0x10,                                           // frameId 16
    0x90,                                           // subframe 9 | slot[5:2] (slot 1 -> 0)
    0x40,                                           // slot[1:0]=1 <<6 | symbol 0
    // Section header (6 bytes)
    0x00,                                           // sectionId[11:4] (id 1)
    0x10,                                           // sectionId[3:0]<<4
    0x00,                                           // startPrb 0
    0x01,                                           // numPrb 1
    0x91,                                           // udCompHdr BFP9
    0x00,                                           // reserved
    // PRB payload (1 + 27 bytes)
    0x00,                                           // udCompParam: exponent 0
    0x00, 0xff, 0xc0, 0x3f, 0xf0, 0x0f, 0xfc, 0x03, 0xff,
    0x00, 0xff, 0xc0, 0x3f, 0xf0, 0x0f, 0xfc, 0x03, 0xff,
    0x00, 0xff, 0xc0, 0x3f, 0xf0, 0x0f, 0xfc, 0x03, 0xff,
];

#[test]
fn uplane_prach_round_trips_with_prach_markers() {
    let section = USection::from_prbs(1, 0, &[golden_prb()], CompressionMethod::BFP9).unwrap();
    let msg = FhMessage::new(
        mac(9),
        mac(10),
        Eaxc::port(5),
        8,
        Body::UPlane(UPlaneRepr {
            direction: Direction::Uplink,
            filter_index: 1,
            symbol: SymbolId { frame: 16, subframe: 9, slot: 1, symbol: 0 },
            sections: vec![section],
        }),
    );
    assert_eq!(msg.to_bytes(&EaxcMapping::DEFAULT).unwrap(), UPLANE_PRACH);
    let parsed = round_trip(UPLANE_PRACH);
    let up = parsed.as_uplane().expect("U-plane body");
    assert_eq!(up.filter_index, 1, "PRACH filter index survives the round trip");
    assert_eq!(up.symbol, SymbolId { frame: 16, subframe: 9, slot: 1, symbol: 0 });
    assert_eq!(up.sections[0].num_prb(), 1);
}

// ---------------------------------------------------------------------------
// Vector 5: recovery NACK (eCPRI vendor type 64, opcode 1).
//
// The ARQ receiver reports two holes in a downlink stream; the NACK itself
// travels uplink (back toward the sender), so the direction bit is 0.
// ---------------------------------------------------------------------------

#[rustfmt::skip]
const RECOVERY_NACK: &[u8] = &[
    // Ethernet header (14 bytes)
    0x02, 0x00, 0x00, 0x00, 0x00, 0x09,             // dst: the ARQ sender
    0x02, 0x00, 0x00, 0x00, 0x00, 0x0a,             // src: the ARQ receiver
    0xae, 0xfe,                                     // EtherType eCPRI
    // eCPRI common header (8 bytes)
    0x10,                                           // version 1, no concat
    0x40,                                           // msgType 64 = vendor (recovery)
    0x00, 0x08,                                     // payloadSize 8 = 4 app + 4
    0x00, 0x05,                                     // eAxC: port 5
    0x11,                                           // seqId 17
    0x80,                                           // E bit set, subSeqId 0
    // Recovery application payload (4 bytes)
    0x11,                                           // dir UL (0), payloadVer 1, opcode 1 (NACK)
    0x2a,                                           // baseSeq 42
    0x80, 0x01,                                     // missingMask: seqs 42 and 57 missing
];

#[test]
fn recovery_nack_serializes_to_golden_bytes() {
    let msg = FhMessage::new(
        mac(10),
        mac(9),
        Eaxc::port(5),
        17,
        Body::Recovery(RecoveryRepr::nack(Direction::Uplink, 42, 0x8001)),
    );
    let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
    assert_eq!(bytes, RECOVERY_NACK);
}

#[test]
fn recovery_nack_parses_every_field() {
    let msg = round_trip(RECOVERY_NACK);
    assert_eq!(msg.eth.dst, mac(9));
    assert_eq!(msg.eth.src, mac(10));
    assert_eq!(msg.eth.ethertype, EtherType::ECPRI);
    assert_eq!(msg.eaxc, Eaxc::port(5));
    assert_eq!(msg.seq_id, 17);
    let rec = msg.as_recovery().expect("recovery body");
    assert_eq!(rec.direction, Direction::Uplink, "a NACK travels against the stream it reports on");
    let RecoveryOp::Nack { base_seq, mask } = &rec.op else {
        panic!("expected a NACK, got {:?}", rec.op);
    };
    assert_eq!(*base_seq, 42);
    assert_eq!(*mask, 0x8001, "bits 0 and 15: seqs baseSeq and baseSeq+15 missing");
}

// ---------------------------------------------------------------------------
// Vector 6: recovery FEC parity (eCPRI vendor type 64, opcode 2).
//
// Class-1 parity of an 8-frame downlink window at interleave depth 2; the
// XOR payload covers the protected frames' length-prefixed wire bytes, so
// its first two bytes are the XOR of their length prefixes.
// ---------------------------------------------------------------------------

#[rustfmt::skip]
const RECOVERY_PARITY: &[u8] = &[
    // Ethernet header (14 bytes)
    0x02, 0x00, 0x00, 0x00, 0x00, 0x0a,             // dst: the FEC decoder
    0x02, 0x00, 0x00, 0x00, 0x00, 0x09,             // src: the FEC encoder
    0xae, 0xfe,                                     // EtherType eCPRI
    // eCPRI common header (8 bytes)
    0x10,                                           // version 1, no concat
    0x40,                                           // msgType 64 = vendor (recovery)
    0x00, 0x12,                                     // payloadSize 18 = 14 app + 4
    0x00, 0x05,                                     // eAxC: port 5
    0x07,                                           // seqId 7
    0x80,                                           // E bit set, subSeqId 0
    // Recovery application header (8 bytes)
    0x92,                                           // dir DL (1), payloadVer 1, opcode 2 (parity)
    0xf0,                                           // baseSeq 240 (window may wrap mod 256)
    0x08,                                           // window: 8 data frames
    0x02,                                           // depth: 2 parity classes
    0x01,                                           // class 1 (odd lanes)
    0x00,                                           // reserved
    0x00, 0x06,                                     // padLen 6
    // XOR payload (6 bytes)
    0x00, 0x04,                                     // XORed length prefixes
    0xde, 0xad, 0xbe, 0xef,                         // XORed padded frame bytes
];

#[test]
fn recovery_parity_serializes_to_golden_bytes() {
    let msg = FhMessage::new(
        mac(9),
        mac(10),
        Eaxc::port(5),
        7,
        Body::Recovery(RecoveryRepr {
            direction: Direction::Downlink,
            op: RecoveryOp::Parity {
                base_seq: 240,
                window: 8,
                depth: 2,
                class: 1,
                payload: vec![0x00, 0x04, 0xde, 0xad, 0xbe, 0xef],
            },
        }),
    );
    let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
    assert_eq!(bytes, RECOVERY_PARITY);
}

#[test]
fn recovery_parity_parses_every_field() {
    let msg = round_trip(RECOVERY_PARITY);
    assert_eq!(msg.eth.dst, mac(10));
    assert_eq!(msg.eth.src, mac(9));
    assert_eq!(msg.eaxc, Eaxc::port(5));
    assert_eq!(msg.seq_id, 7);
    let rec = msg.as_recovery().expect("recovery body");
    assert_eq!(rec.direction, Direction::Downlink, "parity direction matches the protected stream");
    let RecoveryOp::Parity { base_seq, window, depth, class, payload } = &rec.op else {
        panic!("expected a parity, got {:?}", rec.op);
    };
    assert_eq!(*base_seq, 240);
    assert_eq!(*window, 8);
    assert_eq!(*depth, 2);
    assert_eq!(*class, 1);
    assert_eq!(payload, &[0x00, 0x04, 0xde, 0xad, 0xbe, 0xef]);
}
