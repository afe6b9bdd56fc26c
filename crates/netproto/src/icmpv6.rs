//! ICMPv6 (RFC 4443) including the Neighbor Discovery and MLD message
//! types IoT devices emit while bringing up their IPv6 stack.

use bytes::{BufMut, Bytes};
use serde::{Deserialize, Serialize};

use crate::ipv4::internet_checksum;
use crate::ParseError;

/// Length of the fixed ICMPv6 header.
pub const HEADER_LEN: usize = 4;

/// ICMPv6 message type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Icmpv6Type {
    /// Echo request (128).
    EchoRequest,
    /// Echo reply (129).
    EchoReply,
    /// Multicast Listener Report (131).
    MulticastListenerReport,
    /// Multicast Listener Report v2 (143).
    MulticastListenerReportV2,
    /// Router solicitation (133).
    RouterSolicitation,
    /// Neighbor solicitation (135).
    NeighborSolicitation,
    /// Neighbor advertisement (136).
    NeighborAdvertisement,
    /// Any other type.
    Other(u8),
}

impl Icmpv6Type {
    /// The raw type byte.
    pub fn to_u8(self) -> u8 {
        match self {
            Icmpv6Type::EchoRequest => 128,
            Icmpv6Type::EchoReply => 129,
            Icmpv6Type::MulticastListenerReport => 131,
            Icmpv6Type::RouterSolicitation => 133,
            Icmpv6Type::NeighborSolicitation => 135,
            Icmpv6Type::NeighborAdvertisement => 136,
            Icmpv6Type::MulticastListenerReportV2 => 143,
            Icmpv6Type::Other(v) => v,
        }
    }

    /// Classifies a raw type byte.
    pub fn from_u8(v: u8) -> Self {
        match v {
            128 => Icmpv6Type::EchoRequest,
            129 => Icmpv6Type::EchoReply,
            131 => Icmpv6Type::MulticastListenerReport,
            133 => Icmpv6Type::RouterSolicitation,
            135 => Icmpv6Type::NeighborSolicitation,
            136 => Icmpv6Type::NeighborAdvertisement,
            143 => Icmpv6Type::MulticastListenerReportV2,
            v => Icmpv6Type::Other(v),
        }
    }
}

/// An ICMPv6 message.
///
/// The checksum over the IPv6 pseudo-header is computed by the packet
/// encoder (it needs the addresses); standalone encoding writes a zero
/// checksum and parsing does not verify it.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Icmpv6Message {
    /// Message type.
    pub icmp_type: Icmpv6Type,
    /// Message code.
    pub code: u8,
    /// Message body (after the checksum).
    pub body: Bytes,
}

impl Icmpv6Message {
    /// Creates a message.
    pub fn new(icmp_type: Icmpv6Type, code: u8, body: impl Into<Bytes>) -> Self {
        Icmpv6Message {
            icmp_type,
            code,
            body: body.into(),
        }
    }

    /// A router solicitation (sent to `ff02::2` during SLAAC bring-up).
    pub fn router_solicitation() -> Self {
        Icmpv6Message::new(Icmpv6Type::RouterSolicitation, 0, vec![0u8; 4])
    }

    /// A neighbor solicitation for duplicate address detection.
    pub fn neighbor_solicitation(target: std::net::Ipv6Addr) -> Self {
        let mut body = vec![0u8; 4];
        body.extend_from_slice(&target.octets());
        Icmpv6Message::new(Icmpv6Type::NeighborSolicitation, 0, body)
    }

    /// An MLDv2 multicast listener report for `n_records` group records.
    pub fn mld2_report(n_records: u16) -> Self {
        let mut body = vec![0u8, 0u8]; // reserved
        body.extend_from_slice(&n_records.to_be_bytes());
        // Each record: type(1) aux(1) sources(2) group(16) — synthetic fill.
        body.extend(std::iter::repeat_n(0u8, n_records as usize * 20));
        Icmpv6Message::new(Icmpv6Type::MulticastListenerReportV2, 0, body)
    }

    /// Wire length of the encoded message.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.body.len()
    }

    /// Appends the message bytes to `buf` with a checksum over the given
    /// IPv6 pseudo-header fields.
    pub fn encode(&self, buf: &mut impl BufMut, src: std::net::Ipv6Addr, dst: std::net::Ipv6Addr) {
        let mut raw = Vec::with_capacity(self.wire_len());
        raw.put_u8(self.icmp_type.to_u8());
        raw.put_u8(self.code);
        raw.put_u16(0);
        raw.put_slice(&self.body);
        let mut pseudo = Vec::with_capacity(40 + raw.len());
        pseudo.extend_from_slice(&src.octets());
        pseudo.extend_from_slice(&dst.octets());
        pseudo.put_u32(raw.len() as u32);
        pseudo.put_u32(58); // next header
        pseudo.extend_from_slice(&raw);
        let checksum = internet_checksum(&pseudo);
        raw[2..4].copy_from_slice(&checksum.to_be_bytes());
        buf.put_slice(&raw);
    }

    /// Parses an ICMPv6 message (checksum not verified here; the packet
    /// parser lacks pseudo-header context at this layer boundary).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] on short input.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        check(bytes)?;
        Ok(Icmpv6Message {
            icmp_type: Icmpv6Type::from_u8(bytes[0]),
            code: bytes[1],
            body: Bytes::copy_from_slice(&bytes[HEADER_LEN..]),
        })
    }
}

/// Validates the header length (the checksum needs the pseudo-header
/// and is not verified).
pub(crate) fn check(bytes: &[u8]) -> Result<(), ParseError> {
    if bytes.len() < HEADER_LEN {
        return Err(ParseError::truncated("icmpv6", HEADER_LEN, bytes.len()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv6Addr;

    #[test]
    fn roundtrip() {
        let msg = Icmpv6Message::router_solicitation();
        let mut buf = Vec::new();
        msg.encode(&mut buf, Ipv6Addr::UNSPECIFIED, "ff02::2".parse().unwrap());
        assert_eq!(Icmpv6Message::parse(&buf).unwrap(), msg);
    }

    #[test]
    fn mld_report_scales_with_records() {
        let one = Icmpv6Message::mld2_report(1);
        let three = Icmpv6Message::mld2_report(3);
        assert_eq!(three.body.len() - one.body.len(), 40);
    }

    #[test]
    fn neighbor_solicitation_embeds_target() {
        let target: Ipv6Addr = "fe80::1234".parse().unwrap();
        let msg = Icmpv6Message::neighbor_solicitation(target);
        assert_eq!(&msg.body[4..20], &target.octets());
    }

    #[test]
    fn type_byte_roundtrip() {
        for raw in [128u8, 129, 131, 133, 135, 136, 143, 200] {
            assert_eq!(Icmpv6Type::from_u8(raw).to_u8(), raw);
        }
    }
}
