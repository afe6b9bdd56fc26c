//! Address Resolution Protocol (RFC 826) over Ethernet/IPv4.
//!
//! ARP probes and gratuitous announcements are among the first packets an
//! IoT device sends when it joins a network, making ARP one of the two
//! link-layer features in the paper's Table I.

use std::net::Ipv4Addr;

use bytes::BufMut;
use serde::{Deserialize, Serialize};

use crate::{MacAddr, ParseError};

/// Wire length of an Ethernet/IPv4 ARP packet.
pub const PACKET_LEN: usize = 28;

/// ARP operation code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArpOp {
    /// Who-has request (opcode 1).
    Request,
    /// Is-at reply (opcode 2).
    Reply,
    /// Any other opcode.
    Other(u16),
}

impl ArpOp {
    /// The raw 16-bit opcode.
    pub fn to_u16(self) -> u16 {
        match self {
            ArpOp::Request => 1,
            ArpOp::Reply => 2,
            ArpOp::Other(v) => v,
        }
    }

    /// Classifies a raw opcode.
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => ArpOp::Request,
            2 => ArpOp::Reply,
            v => ArpOp::Other(v),
        }
    }
}

/// An ARP packet for IPv4 over Ethernet.
///
/// ```
/// use sentinel_netproto::arp::{ArpOp, ArpPacket};
/// use sentinel_netproto::MacAddr;
///
/// let probe = ArpPacket::probe(MacAddr::new([1, 2, 3, 4, 5, 6]), "192.168.0.17".parse().unwrap());
/// assert_eq!(probe.op, ArpOp::Request);
/// assert!(probe.sender_ip.is_unspecified());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ArpPacket {
    /// Operation (request/reply).
    pub op: ArpOp,
    /// Sender hardware address.
    pub sender_mac: MacAddr,
    /// Sender protocol address.
    pub sender_ip: Ipv4Addr,
    /// Target hardware address (zero in requests).
    pub target_mac: MacAddr,
    /// Target protocol address.
    pub target_ip: Ipv4Addr,
}

impl ArpPacket {
    /// An ARP probe (RFC 5227): request with an all-zero sender IP, used by
    /// devices to check whether their DHCP-offered address is free.
    pub fn probe(sender_mac: MacAddr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip: Ipv4Addr::UNSPECIFIED,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// A gratuitous ARP announcement of `ip` by `mac`.
    pub fn announcement(mac: MacAddr, ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac: mac,
            sender_ip: ip,
            target_mac: MacAddr::ZERO,
            target_ip: ip,
        }
    }

    /// A who-has request from `sender` for `target_ip`.
    pub fn request(sender_mac: MacAddr, sender_ip: Ipv4Addr, target_ip: Ipv4Addr) -> Self {
        ArpPacket {
            op: ArpOp::Request,
            sender_mac,
            sender_ip,
            target_mac: MacAddr::ZERO,
            target_ip,
        }
    }

    /// Appends the 28 packet bytes to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u16(1); // htype: Ethernet
        buf.put_u16(0x0800); // ptype: IPv4
        buf.put_u8(6); // hlen
        buf.put_u8(4); // plen
        buf.put_u16(self.op.to_u16());
        buf.put_slice(&self.sender_mac.octets());
        buf.put_slice(&self.sender_ip.octets());
        buf.put_slice(&self.target_mac.octets());
        buf.put_slice(&self.target_ip.octets());
    }

    /// Parses an Ethernet/IPv4 ARP packet.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] on short input and
    /// [`ParseError::Invalid`] if the hardware/protocol types are not
    /// Ethernet/IPv4.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < PACKET_LEN {
            return Err(ParseError::truncated("arp", PACKET_LEN, bytes.len()));
        }
        let htype = u16::from_be_bytes([bytes[0], bytes[1]]);
        let ptype = u16::from_be_bytes([bytes[2], bytes[3]]);
        if htype != 1 || ptype != 0x0800 || bytes[4] != 6 || bytes[5] != 4 {
            return Err(ParseError::invalid("arp", "not ethernet/ipv4 arp"));
        }
        let op = ArpOp::from_u16(u16::from_be_bytes([bytes[6], bytes[7]]));
        let sender_mac = MacAddr::new(bytes[8..14].try_into().expect("slice of 6"));
        let sender_ip = Ipv4Addr::new(bytes[14], bytes[15], bytes[16], bytes[17]);
        let target_mac = MacAddr::new(bytes[18..24].try_into().expect("slice of 6"));
        let target_ip = Ipv4Addr::new(bytes[24], bytes[25], bytes[26], bytes[27]);
        Ok(ArpPacket {
            op,
            sender_mac,
            sender_ip,
            target_mac,
            target_ip,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ArpPacket {
        ArpPacket::request(
            MacAddr::new([1, 2, 3, 4, 5, 6]),
            Ipv4Addr::new(192, 168, 0, 10),
            Ipv4Addr::new(192, 168, 0, 1),
        )
    }

    #[test]
    fn roundtrip() {
        let pkt = sample();
        let mut buf = Vec::new();
        pkt.encode(&mut buf);
        assert_eq!(buf.len(), PACKET_LEN);
        assert_eq!(ArpPacket::parse(&buf).unwrap(), pkt);
    }

    #[test]
    fn probe_has_unspecified_sender() {
        let probe = ArpPacket::probe(MacAddr::ZERO, Ipv4Addr::new(10, 0, 0, 1));
        assert!(probe.sender_ip.is_unspecified());
        assert_eq!(probe.op, ArpOp::Request);
    }

    #[test]
    fn announcement_targets_own_ip() {
        let ip = Ipv4Addr::new(10, 0, 0, 9);
        let ann = ArpPacket::announcement(MacAddr::BROADCAST, ip);
        assert_eq!(ann.sender_ip, ip);
        assert_eq!(ann.target_ip, ip);
    }

    #[test]
    fn rejects_non_ethernet_arp() {
        let mut buf = Vec::new();
        sample().encode(&mut buf);
        buf[1] = 6; // htype = IEEE 802 networks
        assert!(matches!(
            ArpPacket::parse(&buf).unwrap_err(),
            ParseError::Invalid { layer: "arp", .. }
        ));
    }

    #[test]
    fn rejects_truncated() {
        assert!(ArpPacket::parse(&[0u8; 27]).is_err());
    }
}
