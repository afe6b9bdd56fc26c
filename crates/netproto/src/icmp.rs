//! ICMPv4 (RFC 792) messages.

use crate::ipv4::internet_checksum;
use crate::{ParseError, PutBe};

/// Length of the fixed ICMP header (type, code, checksum, rest-of-header).
pub(crate) const HEADER_LEN: usize = 8;

/// ICMP message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IcmpType {
    /// Echo reply (0).
    EchoReply,
    /// Destination unreachable (3).
    DestinationUnreachable,
    /// Echo request (8).
    EchoRequest,
    /// Time exceeded (11).
    TimeExceeded,
    /// Any other type.
    Other(u8),
}

impl IcmpType {
    /// The raw type byte.
    pub fn to_u8(self) -> u8 {
        match self {
            IcmpType::EchoReply => 0,
            IcmpType::DestinationUnreachable => 3,
            IcmpType::EchoRequest => 8,
            IcmpType::TimeExceeded => 11,
            IcmpType::Other(v) => v,
        }
    }

    /// Classifies a raw type byte.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => IcmpType::EchoReply,
            3 => IcmpType::DestinationUnreachable,
            8 => IcmpType::EchoRequest,
            11 => IcmpType::TimeExceeded,
            v => IcmpType::Other(v),
        }
    }
}

/// An ICMPv4 message.
///
/// ```
/// use sentinel_netproto::icmp::{IcmpMessage, IcmpType};
///
/// let ping = IcmpMessage::echo_request(1, 0, b"connectivity-check".as_slice());
/// assert_eq!(ping.icmp_type, IcmpType::EchoRequest);
/// let mut buf = Vec::new();
/// ping.encode(&mut buf);
/// assert_eq!(IcmpMessage::parse(&buf).unwrap(), ping);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IcmpMessage {
    /// Message type.
    pub icmp_type: IcmpType,
    /// Message code.
    pub code: u8,
    /// The 4 "rest of header" bytes (identifier/sequence for echo).
    pub rest: [u8; 4],
    /// Message payload.
    pub payload: Box<[u8]>,
}

impl IcmpMessage {
    /// An echo request with the given identifier, sequence and payload.
    pub fn echo_request(identifier: u16, sequence: u16, payload: impl Into<Box<[u8]>>) -> Self {
        let mut rest = [0u8; 4];
        rest[..2].copy_from_slice(&identifier.to_be_bytes());
        rest[2..].copy_from_slice(&sequence.to_be_bytes());
        IcmpMessage {
            icmp_type: IcmpType::EchoRequest,
            code: 0,
            rest,
            payload: payload.into(),
        }
    }

    /// Wire length of the encoded message.
    pub(crate) fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Appends the message bytes to `buf`, then patches the checksum
    /// over them in place.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let start = buf.len();
        buf.push(self.icmp_type.to_u8());
        buf.push(self.code);
        buf.put_u16(0); // checksum, patched below
        buf.extend_from_slice(&self.rest);
        buf.extend_from_slice(&self.payload);
        let checksum = internet_checksum(&buf[start..]);
        buf[start + 2..start + 4].copy_from_slice(&checksum.to_be_bytes());
    }

    /// Parses an ICMPv4 message.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] on short input and
    /// [`ParseError::Invalid`] on checksum mismatch.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        check(bytes)?;
        Ok(IcmpMessage {
            icmp_type: IcmpType::from_u8(bytes[0]),
            code: bytes[1],
            // In bounds: `check` proved `HEADER_LEN` (8) bytes are present.
            rest: [bytes[4], bytes[5], bytes[6], bytes[7]],
            payload: bytes[HEADER_LEN..].into(),
        })
    }
}

/// Validates the header length and the checksum over the whole message.
pub(crate) fn check(bytes: &[u8]) -> Result<(), ParseError> {
    if bytes.len() < HEADER_LEN {
        return Err(ParseError::truncated("icmp", HEADER_LEN, bytes.len()));
    }
    if internet_checksum(bytes) != 0 {
        return Err(ParseError::invalid("icmp", "checksum mismatch"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let msg = IcmpMessage::echo_request(0x1234, 7, vec![1, 2, 3]);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        assert_eq!(IcmpMessage::parse(&buf).unwrap(), msg);
    }

    #[test]
    fn checksum_detects_corruption() {
        let msg = IcmpMessage::echo_request(1, 1, Vec::new());
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        buf[1] ^= 1;
        assert!(IcmpMessage::parse(&buf).is_err());
    }

    #[test]
    fn truncated_rejected() {
        assert!(IcmpMessage::parse(&[8, 0, 0]).is_err());
    }

    #[test]
    fn echo_request_encodes_id_and_seq() {
        let msg = IcmpMessage::echo_request(0xbeef, 0x0102, Vec::new());
        assert_eq!(msg.rest, [0xbe, 0xef, 0x01, 0x02]);
    }
}
