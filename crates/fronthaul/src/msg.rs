//! Whole-frame composition: Ethernet + eCPRI + O-RAN application message.
//!
//! [`FhMessage`] is the unit middleboxes and emulators work with: a fully
//! parsed fronthaul frame that can be inspected, modified and re-emitted.
//! The heavy IQ payload stays in the (possibly compressed) wire form inside
//! [`crate::uplane::USection`], so header-only operations (redirection,
//! eAxC remapping) never touch it.

use crate::cplane::CPlaneRepr;
use crate::eaxc::{Eaxc, EaxcMapping};
use crate::ecpri::{self, MessageType};
use crate::ether::{EtherType, EthernetAddress, Frame, FrameRepr};
use crate::recovery::RecoveryRepr;
use crate::uplane::UPlaneRepr;
use crate::{Direction, Error, Result};
use rb_hotpath_macros::rb_hot_path;

/// The O-RAN application body of a fronthaul frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Body {
    /// A control-plane message.
    CPlane(CPlaneRepr),
    /// A user-plane message.
    UPlane(UPlaneRepr),
    /// A recovery control message (ARQ NACK / FEC parity).
    Recovery(RecoveryRepr),
}

impl Body {
    /// Direction of the application message.
    pub fn direction(&self) -> Direction {
        match self {
            Body::CPlane(c) => c.direction,
            Body::UPlane(u) => u.direction,
            Body::Recovery(r) => r.direction,
        }
    }

    /// The eCPRI message type that carries this body.
    pub fn message_type(&self) -> MessageType {
        match self {
            Body::CPlane(_) => MessageType::RtControl,
            Body::UPlane(_) => MessageType::IqData,
            Body::Recovery(_) => MessageType::Recovery,
        }
    }

    /// Wire length of the application payload.
    pub fn wire_len(&self) -> usize {
        match self {
            Body::CPlane(c) => c.wire_len(),
            Body::UPlane(u) => u.wire_len(),
            Body::Recovery(r) => r.wire_len(),
        }
    }
}

/// A fully parsed fronthaul frame.
#[derive(Debug, Clone, PartialEq)]
pub struct FhMessage {
    /// Ethernet addressing (and optional VLAN).
    pub eth: FrameRepr,
    /// The eAxC id (antenna-carrier stream).
    pub eaxc: Eaxc,
    /// eCPRI sequence number.
    pub seq_id: u8,
    /// The application body.
    pub body: Body,
}

impl FhMessage {
    /// Build a message with the common defaults (no VLAN, eCPRI EtherType).
    pub fn new(
        src: EthernetAddress,
        dst: EthernetAddress,
        eaxc: Eaxc,
        seq_id: u8,
        body: Body,
    ) -> FhMessage {
        FhMessage {
            eth: FrameRepr { dst, src, vlan: None, ethertype: EtherType::ECPRI },
            eaxc,
            seq_id,
            body,
        }
    }

    /// Shorthand accessors for the body variants.
    pub fn as_cplane(&self) -> Option<&CPlaneRepr> {
        match &self.body {
            Body::CPlane(c) => Some(c),
            _ => None,
        }
    }

    /// The U-plane body, if this is a U-plane message.
    pub fn as_uplane(&self) -> Option<&UPlaneRepr> {
        match &self.body {
            Body::UPlane(u) => Some(u),
            _ => None,
        }
    }

    /// Mutable U-plane body access.
    pub fn as_uplane_mut(&mut self) -> Option<&mut UPlaneRepr> {
        match &mut self.body {
            Body::UPlane(u) => Some(u),
            _ => None,
        }
    }

    /// Mutable C-plane body access.
    pub fn as_cplane_mut(&mut self) -> Option<&mut CPlaneRepr> {
        match &mut self.body {
            Body::CPlane(c) => Some(c),
            _ => None,
        }
    }

    /// The recovery body, if this is a recovery control message.
    pub fn as_recovery(&self) -> Option<&RecoveryRepr> {
        match &self.body {
            Body::Recovery(r) => Some(r),
            _ => None,
        }
    }

    /// Total emitted frame length in bytes.
    pub fn wire_len(&self) -> usize {
        self.eth.header_len().saturating_add(ecpri::HEADER_LEN).saturating_add(self.body.wire_len())
    }

    /// Serialize the whole frame to bytes.
    ///
    /// Convenience form that allocates a fresh vector per call; the
    /// datapath uses [`FhMessage::serialize_into`] with a reused buffer.
    pub fn to_bytes(&self, mapping: &EaxcMapping) -> Result<Vec<u8>> {
        let mut buf = Vec::new();
        self.serialize_into(mapping, &mut buf)?;
        Ok(buf)
    }

    /// Serialize the whole frame into `buf`, reusing its capacity.
    ///
    /// `buf` is resized to [`FhMessage::wire_len`]; once the buffer has
    /// grown to the largest frame it has carried, repeated calls perform
    /// no heap allocation. Only growth is zero-filled: the emitters write
    /// every byte of their range, reserved ones included.
    #[rb_hot_path]
    pub fn serialize_into(&self, mapping: &EaxcMapping, buf: &mut Vec<u8>) -> Result<()> {
        buf.resize(self.wire_len(), 0);
        self.serialize_headers_into(mapping, buf)?;
        let app_off = self.eth.header_len().saturating_add(ecpri::HEADER_LEN);
        let app_buf = buf.get_mut(app_off..).ok_or(Error::BufferTooSmall)?;
        match &self.body {
            Body::CPlane(c) => {
                c.emit(app_buf)?;
            }
            Body::UPlane(u) => {
                u.emit(app_buf)?;
            }
            Body::Recovery(r) => {
                r.emit(app_buf)?;
            }
        }
        Ok(())
    }

    /// The header-only emit: write just the Ethernet and eCPRI headers
    /// over the front of `frame` — a whole serialization when `frame` holds
    /// a message this one [shares its wire tail](FhMessage::shares_wire_tail)
    /// with: an A2 replica costs ~22 bytes, whatever its payload size.
    #[rb_hot_path]
    pub fn serialize_headers_into(&self, mapping: &EaxcMapping, frame: &mut [u8]) -> Result<()> {
        let eth_len = self.eth.header_len();
        self.eth.emit(&mut Frame::new_unchecked(&mut *frame))?;
        let ecpri_repr = ecpri::Repr {
            message_type: self.body.message_type(),
            payload_size: ecpri::Repr::payload_size_for(self.body.wire_len())?,
            eaxc: self.eaxc,
            seq_id: self.seq_id,
            e_bit: true,
            sub_seq_id: 0,
        };
        let ecpri_buf = frame.get_mut(eth_len..).ok_or(Error::BufferTooSmall)?;
        ecpri_repr.emit(&mut ecpri::Packet::new_unchecked(ecpri_buf), mapping)
    }

    /// Whether every byte past the eCPRI header is the same in both frames
    /// *and at the same offset*: equal Ethernet header length and U-plane
    /// bodies that [share](UPlaneRepr::shares_wire_bytes) their payloads.
    /// Other planes answer `false`: cheaper to emit than to compare.
    pub fn shares_wire_tail(&self, other: &FhMessage) -> bool {
        match (&self.body, &other.body) {
            (Body::UPlane(a), Body::UPlane(b)) => {
                self.eth.header_len() == other.eth.header_len() && a.shares_wire_bytes(b)
            }
            _ => false,
        }
    }

    /// Parse a whole frame from bytes: [`MsgRecycler::parse`] with nothing
    /// to recycle.
    #[rb_hot_path]
    pub fn parse(data: &[u8], mapping: &EaxcMapping) -> Result<FhMessage> {
        MsgRecycler::default().parse(data, mapping)
    }
}

/// Parses frames while recycling message-body allocations across calls.
///
/// The datapath keeps one recycler per pipeline: [`MsgRecycler::parse`]
/// reuses the section and payload buffers of previously recycled bodies
/// (matched by plane), and [`MsgRecycler::recycle`] takes back a message
/// the caller is done with so its buffers feed the next parse. Steady-state
/// parsing of a mixed C-/U-plane stream touches the heap zero times once
/// one spare body per plane has warmed up.
#[derive(Debug, Default)]
pub struct MsgRecycler {
    c: Option<CPlaneRepr>,
    u: Option<UPlaneRepr>,
    r: Option<RecoveryRepr>,
}

impl MsgRecycler {
    /// Parse a whole frame, reusing recycled body buffers when possible.
    ///
    /// A warm recycler accepts, rejects and returns exactly what a fresh
    /// one ([`FhMessage::parse`]) does — only the allocation behaviour
    /// differs.
    #[rb_hot_path]
    pub fn parse(&mut self, data: &[u8], mapping: &EaxcMapping) -> Result<FhMessage> {
        let frame = Frame::new_checked(data)?;
        let eth = FrameRepr::parse(&frame)?;
        if eth.ethertype != EtherType::ECPRI {
            return Err(Error::WrongEtherType);
        }
        let packet = ecpri::Packet::new_checked(frame.payload())?;
        let ecpri_repr = ecpri::Repr::parse(&packet, mapping)?;
        let body = match ecpri_repr.message_type {
            MessageType::RtControl => {
                let mut c = self.c.take().unwrap_or_else(CPlaneRepr::empty);
                match c.parse_into(packet.payload()) {
                    Ok(()) => Body::CPlane(c),
                    Err(e) => {
                        // Keep the shell (and its buffers) for the next frame.
                        self.c = Some(c);
                        return Err(e);
                    }
                }
            }
            MessageType::IqData => {
                let mut u = self.u.take().unwrap_or_else(UPlaneRepr::empty);
                match u.parse_into(packet.payload()) {
                    Ok(()) => Body::UPlane(u),
                    Err(e) => {
                        self.u = Some(u);
                        return Err(e);
                    }
                }
            }
            MessageType::Recovery => {
                let mut r = self.r.take().unwrap_or_else(RecoveryRepr::empty);
                match r.parse_into(packet.payload()) {
                    Ok(()) => Body::Recovery(r),
                    Err(e) => {
                        self.r = Some(r);
                        return Err(e);
                    }
                }
            }
        };
        Ok(FhMessage { eth, eaxc: ecpri_repr.eaxc, seq_id: ecpri_repr.seq_id, body })
    }

    /// Return a finished message so its body buffers feed later parses.
    pub fn recycle(&mut self, msg: FhMessage) {
        self.recycle_body(msg.body);
    }

    /// Return just a body. At most one spare is kept per plane; extra
    /// recycles simply free their buffers.
    pub fn recycle_body(&mut self, body: Body) {
        match body {
            Body::CPlane(c) => {
                if self.c.is_none() {
                    self.c = Some(c);
                }
            }
            Body::UPlane(u) => {
                if self.u.is_none() {
                    self.u = Some(u);
                }
            }
            Body::Recovery(r) => {
                if self.r.is_none() {
                    self.r = Some(r);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfp::CompressionMethod;
    use crate::cplane::SectionFields;
    use crate::iq::Prb;
    use crate::timing::{Numerology, SymbolId};
    use crate::uplane::USection;

    fn mac(last: u8) -> EthernetAddress {
        EthernetAddress::new(0x02, 0, 0, 0, 0, last)
    }

    fn sym() -> SymbolId {
        SymbolId::new(Numerology::Mu1, 10, 3, 1, 4).unwrap()
    }

    fn cplane_msg() -> FhMessage {
        FhMessage::new(
            mac(1),
            mac(2),
            Eaxc::port(0),
            7,
            Body::CPlane(CPlaneRepr::single(
                Direction::Downlink,
                sym(),
                CompressionMethod::BFP9,
                SectionFields::data(0, 0, 106, 1),
            )),
        )
    }

    fn uplane_msg() -> FhMessage {
        let section =
            USection::from_prbs(0, 0, &vec![Prb::ZERO; 106], CompressionMethod::BFP9).unwrap();
        FhMessage::new(
            mac(1),
            mac(2),
            Eaxc::port(3),
            49,
            Body::UPlane(UPlaneRepr::single(Direction::Downlink, sym(), section)),
        )
    }

    #[test]
    fn cplane_frame_roundtrip() {
        let msg = cplane_msg();
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        assert_eq!(bytes.len(), msg.wire_len());
        let parsed = FhMessage::parse(&bytes, &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(parsed, msg);
        assert!(parsed.as_cplane().is_some());
        assert!(parsed.as_uplane().is_none());
    }

    #[test]
    fn uplane_frame_roundtrip() {
        let msg = uplane_msg();
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let parsed = FhMessage::parse(&bytes, &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(parsed, msg);
        assert_eq!(parsed.as_uplane().unwrap().sections[0].num_prb(), 106);
    }

    #[test]
    fn vlan_tagged_frame_roundtrip() {
        let mut msg = cplane_msg();
        msg.eth.vlan = Some(6);
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let parsed = FhMessage::parse(&bytes, &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(parsed.eth.vlan, Some(6));
        assert_eq!(parsed, msg);
    }

    #[test]
    fn wrong_ethertype_rejected() {
        let msg = cplane_msg();
        let mut bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        bytes[12] = 0x08;
        bytes[13] = 0x00;
        assert_eq!(
            FhMessage::parse(&bytes, &EaxcMapping::DEFAULT).unwrap_err(),
            Error::WrongEtherType
        );
    }

    #[test]
    fn ecpri_payload_size_is_consistent() {
        let msg = uplane_msg();
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let frame = Frame::new_checked(&bytes[..]).unwrap();
        let pkt = ecpri::Packet::new_checked(frame.payload()).unwrap();
        assert_eq!(pkt.payload_size() as usize, 4 + msg.body.wire_len());
    }

    #[test]
    fn serialize_into_reuses_buffer_and_matches_to_bytes() {
        let mut buf = Vec::new();
        for msg in [cplane_msg(), uplane_msg(), cplane_msg()] {
            msg.serialize_into(&EaxcMapping::DEFAULT, &mut buf).unwrap();
            assert_eq!(buf, msg.to_bytes(&EaxcMapping::DEFAULT).unwrap());
            assert_eq!(FhMessage::parse(&buf, &EaxcMapping::DEFAULT).unwrap(), msg);
        }
    }

    #[test]
    fn recycler_parse_matches_plain_parse() {
        let mut rec = MsgRecycler::default();
        let mut wires = Vec::new();
        for msg in [cplane_msg(), uplane_msg(), cplane_msg(), uplane_msg()] {
            wires.push(msg.to_bytes(&EaxcMapping::DEFAULT).unwrap());
        }
        for wire in &wires {
            let plain = FhMessage::parse(wire, &EaxcMapping::DEFAULT).unwrap();
            let pooled = rec.parse(wire, &EaxcMapping::DEFAULT).unwrap();
            assert_eq!(pooled, plain);
            rec.recycle(pooled);
        }
        // Errors are preserved too, and a failed parse keeps the spare.
        let mut bad = wires[0].clone();
        bad.truncate(bad.len() - 1);
        assert!(rec.parse(&bad, &EaxcMapping::DEFAULT).is_err());
        assert_eq!(
            rec.parse(&wires[0], &EaxcMapping::DEFAULT).unwrap(),
            FhMessage::parse(&wires[0], &EaxcMapping::DEFAULT).unwrap()
        );
    }

    #[test]
    fn header_rewrite_preserves_payload() {
        // Redirection (action A1) = reparse, rewrite eth/eaxc, re-emit.
        let msg = uplane_msg();
        let bytes = msg.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let mut parsed = FhMessage::parse(&bytes, &EaxcMapping::DEFAULT).unwrap();
        parsed.eth.dst = mac(9);
        parsed.eaxc = parsed.eaxc.with_ru_port(1);
        let bytes2 = parsed.to_bytes(&EaxcMapping::DEFAULT).unwrap();
        let reparsed = FhMessage::parse(&bytes2, &EaxcMapping::DEFAULT).unwrap();
        assert_eq!(reparsed.eth.dst, mac(9));
        assert_eq!(reparsed.eaxc.ru_port, 1);
        assert_eq!(reparsed.as_uplane().unwrap().sections, msg.as_uplane().unwrap().sections);
    }
}
