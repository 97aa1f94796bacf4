//! The eCPRI transport header.
//!
//! O-RAN fronthaul messages ride on eCPRI (IEEE 1914.3 flavour) directly
//! over Ethernet. The 4-byte common header is followed, for the two message
//! types the fronthaul uses, by the `ecpriPcid`/`ecpriRtcid` (the eAxC id)
//! and the `ecpriSeqid` fields, for a total of 8 bytes:
//!
//! ```text
//!  0               1               2               3
//! +---------------+---------------+---------------+---------------+
//! |ver=1|rsvd |C=0| message type  |       payload size            |
//! +---------------+---------------+---------------+---------------+
//! |        ecpriPcid / ecpriRtcid (eAxC id)       |
//! +---------------+---------------+---------------+---------------+
//! |    SeqId      |E|   SubSeqId  |
//! +---------------+---------------+
//! ```

use crate::eaxc::{Eaxc, EaxcMapping};
use crate::{Error, Result};

/// eCPRI protocol version implemented by this crate.
pub const VERSION: u8 = 1;

/// Total eCPRI header length for IQ-data and real-time-control messages.
pub const HEADER_LEN: usize = 8;

/// eCPRI message types used on the fronthaul.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageType {
    /// Type 0 — IQ data (U-plane).
    IqData,
    /// Type 2 — real-time control data (C-plane).
    RtControl,
    /// Type 64 — vendor-reserved recovery control (NACK / FEC parity).
    Recovery,
}

/// Wire value of the vendor-reserved recovery message type (64–255 are
/// reserved for vendor-specific use by eCPRI; we take the first one).
pub const RECOVERY_TYPE_RAW: u8 = 64;

impl MessageType {
    /// Wire value.
    pub fn raw(self) -> u8 {
        match self {
            MessageType::IqData => 0,
            MessageType::RtControl => 2,
            MessageType::Recovery => RECOVERY_TYPE_RAW,
        }
    }

    /// Parse a wire value.
    pub fn from_raw(raw: u8) -> Result<MessageType> {
        match raw {
            0 => Ok(MessageType::IqData),
            2 => Ok(MessageType::RtControl),
            RECOVERY_TYPE_RAW => Ok(MessageType::Recovery),
            _ => Err(Error::UnknownMessageType),
        }
    }
}

/// Half the 8-bit `ecpriSeqid` space: forward distances `1..=128` from
/// the last number seen count as "ahead", larger ones as "behind" (late
/// replay / duplicate).
pub const SEQ_AHEAD_MAX: u8 = 128;

/// Where a sequence number sits relative to the last one seen on its
/// stream, in 8-bit wrapping arithmetic (see [`seq_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeqStep {
    /// The successor of `last`.
    Next,
    /// `last` again.
    Repeat,
    /// Past the successor, at most [`SEQ_AHEAD_MAX`] ahead of `last`:
    /// `skipped` numbers (`1..=127`) lie in between.
    Ahead {
        /// How many sequence numbers were jumped over.
        skipped: u8,
    },
    /// More than [`SEQ_AHEAD_MAX`] ahead, which is to say behind `last`.
    Behind,
}

/// Classify `seq` against the `last` sequence number of the same stream:
/// the one wrap-around rule every per-stream tracker (the pipeline's gap
/// counter, the ARQ receive tracker, the bond dedup window) acts on.
#[inline]
pub fn seq_step(last: u8, seq: u8) -> SeqStep {
    match seq.wrapping_sub(last) {
        0 => SeqStep::Repeat,
        1 => SeqStep::Next,
        delta if delta <= SEQ_AHEAD_MAX => SeqStep::Ahead { skipped: delta.wrapping_sub(1) },
        _ => SeqStep::Behind,
    }
}

/// Read the byte at `i`, or 0 if the buffer is too short.
fn read_1(d: &[u8], i: usize) -> u8 {
    d.get(i).copied().unwrap_or(0)
}

/// Read a big-endian u16 at `off`, or 0 if the buffer is too short.
fn read_2(d: &[u8], off: usize) -> u16 {
    d.get(off..off.saturating_add(2))
        .and_then(|s| <[u8; 2]>::try_from(s).ok())
        .map_or(0, u16::from_be_bytes)
}

/// Copy `src` to `off`; silently a no-op if the buffer is too short (the
/// emit paths length-check before calling).
fn write_at(d: &mut [u8], off: usize, src: &[u8]) {
    if let Some(s) = d.get_mut(off..off.saturating_add(src.len())) {
        s.copy_from_slice(src);
    }
}

/// A read/write view of an eCPRI message backed by a byte buffer.
#[derive(Debug, Clone)]
pub struct Packet<T: AsRef<[u8]>> {
    buffer: T,
}

impl<T: AsRef<[u8]>> Packet<T> {
    /// Wrap a buffer without length checks.
    pub fn new_unchecked(buffer: T) -> Packet<T> {
        Packet { buffer }
    }

    /// Wrap a buffer, verifying header length, version and payload size.
    pub fn new_checked(buffer: T) -> Result<Packet<T>> {
        let packet = Packet::new_unchecked(buffer);
        packet.check()?;
        Ok(packet)
    }

    fn check(&self) -> Result<()> {
        let data = self.buffer.as_ref();
        if data.len() < HEADER_LEN {
            return Err(Error::Truncated);
        }
        if self.version() != VERSION {
            return Err(Error::BadVersion);
        }
        MessageType::from_raw(read_1(data, 1))?;
        // payload size counts bytes after the 4-byte common header
        if usize::from(self.payload_size()).saturating_add(4) > data.len() {
            return Err(Error::Malformed);
        }
        Ok(())
    }

    /// Recover the inner buffer.
    pub fn into_inner(self) -> T {
        self.buffer
    }

    /// Protocol version (upper 4 bits of byte 0).
    pub fn version(&self) -> u8 {
        read_1(self.buffer.as_ref(), 0) >> 4
    }

    /// Concatenation indicator bit.
    pub fn concatenated(&self) -> bool {
        read_1(self.buffer.as_ref(), 0) & 0x01 != 0
    }

    /// Message type.
    pub fn message_type(&self) -> Result<MessageType> {
        MessageType::from_raw(read_1(self.buffer.as_ref(), 1))
    }

    /// Declared payload size (bytes following the common header).
    pub fn payload_size(&self) -> u16 {
        read_2(self.buffer.as_ref(), 2)
    }

    /// Raw 16-bit eAxC id (`ecpriPcid` / `ecpriRtcid`).
    pub fn eaxc_raw(&self) -> u16 {
        read_2(self.buffer.as_ref(), 4)
    }

    /// Decoded eAxC id under the given mapping.
    pub fn eaxc(&self, mapping: &EaxcMapping) -> Eaxc {
        Eaxc::unpack(self.eaxc_raw(), mapping)
    }

    /// Sequence id.
    pub fn seq_id(&self) -> u8 {
        read_1(self.buffer.as_ref(), 6)
    }

    /// E-bit: last fragment of a fragmented message.
    pub fn e_bit(&self) -> bool {
        read_1(self.buffer.as_ref(), 7) & 0x80 != 0
    }

    /// Sub-sequence id (radio-transport fragmentation).
    pub fn sub_seq_id(&self) -> u8 {
        read_1(self.buffer.as_ref(), 7) & 0x7f
    }

    /// Payload following the 8-byte header (the O-RAN application message).
    /// Empty if the buffer is shorter than the header.
    pub fn payload(&self) -> &[u8] {
        self.buffer.as_ref().get(HEADER_LEN..).unwrap_or(&[])
    }
}

impl<T: AsRef<[u8]> + AsMut<[u8]>> Packet<T> {
    /// Set the raw eAxC id.
    pub fn set_eaxc_raw(&mut self, raw: u16) {
        write_at(self.buffer.as_mut(), 4, &raw.to_be_bytes());
    }

    /// Set the decoded eAxC id under the given mapping.
    pub fn set_eaxc(&mut self, eaxc: Eaxc, mapping: &EaxcMapping) {
        self.set_eaxc_raw(eaxc.pack(mapping));
    }

    /// Set the sequence id.
    pub fn set_seq_id(&mut self, seq: u8) {
        write_at(self.buffer.as_mut(), 6, &[seq]);
    }

    /// Set the declared payload size.
    pub fn set_payload_size(&mut self, size: u16) {
        write_at(self.buffer.as_mut(), 2, &size.to_be_bytes());
    }

    /// Mutable access to the payload after the header. Empty if the buffer
    /// is shorter than the header.
    pub fn payload_mut(&mut self) -> &mut [u8] {
        self.buffer.as_mut().get_mut(HEADER_LEN..).unwrap_or(&mut [])
    }
}

/// High-level representation of the eCPRI header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repr {
    /// Message type (IQ data or real-time control).
    pub message_type: MessageType,
    /// Bytes following the 4-byte common header (eAxC + seq + app payload).
    pub payload_size: u16,
    /// The eAxC id.
    pub eaxc: Eaxc,
    /// Sequence number (per eAxC stream).
    pub seq_id: u8,
    /// E-bit; `true` for unfragmented messages.
    pub e_bit: bool,
    /// Sub-sequence id, 0 when unfragmented.
    pub sub_seq_id: u8,
}

impl Repr {
    /// Parse the header of a checked packet.
    pub fn parse<T: AsRef<[u8]>>(packet: &Packet<T>, mapping: &EaxcMapping) -> Result<Repr> {
        packet.check()?;
        Ok(Repr {
            message_type: packet.message_type()?,
            payload_size: packet.payload_size(),
            eaxc: packet.eaxc(mapping),
            seq_id: packet.seq_id(),
            e_bit: packet.e_bit(),
            sub_seq_id: packet.sub_seq_id(),
        })
    }

    /// Compute the `payload_size` field for an application payload of
    /// `app_len` bytes (adds the 4 bytes of eAxC + seq fields). Fails with
    /// [`Error::Oversize`] when the result does not fit the 16-bit field
    /// (it used to wrap silently).
    pub fn payload_size_for(app_len: usize) -> Result<u16> {
        u16::try_from(app_len.saturating_add(4)).map_err(|_| Error::Oversize)
    }

    /// Emit the header. Fails with [`Error::BufferTooSmall`] if the buffer
    /// cannot hold [`HEADER_LEN`] bytes.
    pub fn emit<T: AsRef<[u8]> + AsMut<[u8]>>(
        &self,
        packet: &mut Packet<T>,
        mapping: &EaxcMapping,
    ) -> Result<()> {
        let data = packet.buffer.as_mut();
        if data.len() < HEADER_LEN {
            return Err(Error::BufferTooSmall);
        }
        write_at(data, 0, &[VERSION << 4, self.message_type.raw()]); // reserved + C bit zero
        write_at(data, 2, &self.payload_size.to_be_bytes());
        write_at(data, 4, &self.eaxc.pack(mapping).to_be_bytes());
        let tail = (if self.e_bit { 0x80 } else { 0 }) | (self.sub_seq_id & 0x7f);
        write_at(data, 6, &[self.seq_id, tail]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_repr() -> Repr {
        Repr {
            message_type: MessageType::IqData,
            payload_size: Repr::payload_size_for(16).unwrap(),
            eaxc: Eaxc::port(3),
            seq_id: 49,
            e_bit: true,
            sub_seq_id: 0,
        }
    }

    #[test]
    fn roundtrip() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + 16];
        repr.emit(&mut Packet::new_unchecked(&mut buf), &EaxcMapping::DEFAULT).unwrap();
        let packet = Packet::new_checked(&buf).unwrap();
        assert_eq!(Repr::parse(&packet, &EaxcMapping::DEFAULT).unwrap(), repr);
        assert_eq!(packet.payload().len(), 16);
    }

    #[test]
    fn rt_control_type() {
        let mut repr = sample_repr();
        repr.message_type = MessageType::RtControl;
        let mut buf = vec![0u8; HEADER_LEN + 16];
        repr.emit(&mut Packet::new_unchecked(&mut buf), &EaxcMapping::DEFAULT).unwrap();
        let packet = Packet::new_checked(&buf).unwrap();
        assert_eq!(packet.message_type().unwrap(), MessageType::RtControl);
    }

    #[test]
    fn bad_version_rejected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + 16];
        repr.emit(&mut Packet::new_unchecked(&mut buf), &EaxcMapping::DEFAULT).unwrap();
        buf[0] = 2 << 4;
        assert_eq!(Packet::new_checked(&buf).unwrap_err(), Error::BadVersion);
    }

    #[test]
    fn unknown_message_type_rejected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + 16];
        repr.emit(&mut Packet::new_unchecked(&mut buf), &EaxcMapping::DEFAULT).unwrap();
        buf[1] = 5;
        assert_eq!(Packet::new_checked(&buf).unwrap_err(), Error::UnknownMessageType);
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(Packet::new_checked(&[0u8; 7][..]).unwrap_err(), Error::Truncated);
    }

    #[test]
    fn oversized_payload_size_rejected() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + 16];
        repr.emit(&mut Packet::new_unchecked(&mut buf), &EaxcMapping::DEFAULT).unwrap();
        let mut packet = Packet::new_unchecked(&mut buf);
        packet.set_payload_size(1000);
        assert_eq!(Packet::new_checked(&buf).unwrap_err(), Error::Malformed);
    }

    #[test]
    fn eaxc_rewrite_in_place() {
        let repr = sample_repr();
        let mut buf = vec![0u8; HEADER_LEN + 16];
        repr.emit(&mut Packet::new_unchecked(&mut buf), &EaxcMapping::DEFAULT).unwrap();
        let mut packet = Packet::new_unchecked(&mut buf);
        let id = packet.eaxc(&EaxcMapping::DEFAULT).with_ru_port(1);
        packet.set_eaxc(id, &EaxcMapping::DEFAULT);
        let packet = Packet::new_checked(&buf).unwrap();
        assert_eq!(packet.eaxc(&EaxcMapping::DEFAULT).ru_port, 1);
    }

    #[test]
    fn sub_seq_and_e_bit_encoding() {
        let mut repr = sample_repr();
        repr.e_bit = false;
        repr.sub_seq_id = 0x7f;
        let mut buf = vec![0u8; HEADER_LEN + 16];
        repr.emit(&mut Packet::new_unchecked(&mut buf), &EaxcMapping::DEFAULT).unwrap();
        let packet = Packet::new_checked(&buf).unwrap();
        assert!(!packet.e_bit());
        assert_eq!(packet.sub_seq_id(), 0x7f);
    }

    #[test]
    fn seq_step_classifies_across_the_wrap() {
        assert_eq!(seq_step(7, 7), SeqStep::Repeat);
        assert_eq!(seq_step(255, 0), SeqStep::Next);
        assert_eq!(seq_step(250, 3), SeqStep::Ahead { skipped: 8 });
        assert_eq!(seq_step(0, SEQ_AHEAD_MAX), SeqStep::Ahead { skipped: 127 });
        assert_eq!(seq_step(0, SEQ_AHEAD_MAX + 1), SeqStep::Behind);
        assert_eq!(seq_step(3, 250), SeqStep::Behind);
    }
}
