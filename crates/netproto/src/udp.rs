//! UDP datagram headers.

use crate::{ParseError, PutBe};

/// Length of a UDP header.
pub(crate) const HEADER_LEN: usize = 8;

/// A UDP header. Length is derived from the payload at encode time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Creates a header with the given ports.
    pub fn new(src_port: u16, dst_port: u16) -> Self {
        UdpHeader { src_port, dst_port }
    }

    /// Appends the 8 header bytes for a payload of `payload_len` bytes.
    pub fn encode(&self, buf: &mut Vec<u8>, payload_len: usize) {
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16((HEADER_LEN + payload_len) as u16);
        buf.put_u16(0); // checksum (not modeled)
    }

    /// Parses a header, returning it and the payload delimited by the
    /// length field.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] or [`ParseError::Invalid`] on
    /// malformed input.
    pub fn parse(bytes: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        if bytes.len() < HEADER_LEN {
            return Err(ParseError::truncated("udp", HEADER_LEN, bytes.len()));
        }
        let length = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
        if length < HEADER_LEN {
            return Err(ParseError::invalid("udp", "length field below 8"));
        }
        if bytes.len() < length {
            return Err(ParseError::truncated("udp", length, bytes.len()));
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([bytes[0], bytes[1]]),
                dst_port: u16::from_be_bytes([bytes[2], bytes[3]]),
            },
            &bytes[HEADER_LEN..length],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let hdr = UdpHeader::new(68, 67);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 4);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let (parsed, payload) = UdpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn length_field_bounds_payload() {
        let hdr = UdpHeader::new(5353, 5353);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 1);
        buf.extend_from_slice(&[7, 8, 9]);
        let (_, payload) = UdpHeader::parse(&buf).unwrap();
        assert_eq!(payload, &[7]);
    }

    #[test]
    fn undersized_length_rejected() {
        let bytes = [0, 68, 0, 67, 0, 4, 0, 0];
        assert!(UdpHeader::parse(&bytes).is_err());
    }
}
