//! Ethernet II framing.

use crate::{MacAddr, ParseError, PutBe};

/// Length of an Ethernet II header in bytes.
pub(crate) const HEADER_LEN: usize = 14;

/// The EtherType (or IEEE 802.3 length) field of an Ethernet frame.
///
/// Values below `0x0600` are 802.3 length fields, meaning the frame carries
/// an LLC header instead of an EtherType-dispatched payload — this is how
/// the paper's `LLC` link-layer feature is detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (`0x0800`).
    Ipv4,
    /// ARP (`0x0806`).
    Arp,
    /// IPv6 (`0x86DD`).
    Ipv6,
    /// EAPoL / 802.1X authentication (`0x888E`).
    Eapol,
    /// An IEEE 802.3 length field (value < `0x0600`); payload starts with LLC.
    Length(u16),
    /// Any other EtherType.
    Other(u16),
}

impl EtherType {
    /// The raw 16-bit wire value.
    pub fn to_u16(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86dd,
            EtherType::Eapol => 0x888e,
            EtherType::Length(len) => len,
            EtherType::Other(v) => v,
        }
    }

    /// Classifies a raw 16-bit wire value.
    pub fn from_u16(value: u16) -> Self {
        match value {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86dd => EtherType::Ipv6,
            0x888e => EtherType::Eapol,
            v if v < 0x0600 => EtherType::Length(v),
            v => EtherType::Other(v),
        }
    }
}

impl From<EtherType> for u16 {
    fn from(et: EtherType) -> u16 {
        et.to_u16()
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> EtherType {
        EtherType::from_u16(v)
    }
}

/// An Ethernet II (or 802.3) frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct EthernetHeader {
    /// Destination MAC address.
    pub dst: MacAddr,
    /// Source MAC address.
    pub src: MacAddr,
    /// EtherType or 802.3 length.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Creates a header.
    pub(crate) fn new(dst: MacAddr, src: MacAddr, ethertype: EtherType) -> Self {
        EthernetHeader {
            dst,
            src,
            ethertype,
        }
    }

    /// Appends the 14 header bytes to `buf`.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(&self.dst.octets());
        buf.extend_from_slice(&self.src.octets());
        buf.put_u16(self.ethertype.to_u16());
    }

    /// Parses a header, returning it and the remaining payload bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if fewer than 14 bytes are given.
    pub(crate) fn parse(bytes: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        let Some((header, payload)) = bytes.split_first_chunk::<HEADER_LEN>() else {
            return Err(ParseError::truncated("ethernet", HEADER_LEN, bytes.len()));
        };
        // Two 6-byte MACs, then the 2-byte EtherType.
        let (macs, ethertype) = header.as_chunks::<6>();
        let ethertype = EtherType::from_u16(u16::from_be_bytes([ethertype[0], ethertype[1]]));
        Ok((
            EthernetHeader {
                dst: MacAddr::new(macs[0]),
                src: MacAddr::new(macs[1]),
                ethertype,
            },
            payload,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl EthernetHeader {
        fn to_bytes(self) -> Vec<u8> {
            let mut buf = Vec::with_capacity(HEADER_LEN);
            self.encode(&mut buf);
            buf
        }
    }

    fn sample() -> EthernetHeader {
        EthernetHeader::new(
            MacAddr::new([1, 2, 3, 4, 5, 6]),
            MacAddr::new([7, 8, 9, 10, 11, 12]),
            EtherType::Ipv4,
        )
    }

    #[test]
    fn encode_layout_is_big_endian() {
        let bytes = sample().to_bytes();
        assert_eq!(bytes.len(), HEADER_LEN);
        assert_eq!(&bytes[0..6], &[1, 2, 3, 4, 5, 6]);
        assert_eq!(&bytes[6..12], &[7, 8, 9, 10, 11, 12]);
        assert_eq!(&bytes[12..14], &[0x08, 0x00]);
    }

    #[test]
    fn parse_rejects_short_input() {
        let err = EthernetHeader::parse(&[0u8; 13]).unwrap_err();
        assert!(matches!(
            err,
            ParseError::Truncated {
                layer: "ethernet",
                ..
            }
        ));
    }

    #[test]
    fn parse_returns_remainder() {
        let mut bytes = sample().to_bytes();
        bytes.extend_from_slice(&[0xaa, 0xbb]);
        let (hdr, rest) = EthernetHeader::parse(&bytes).unwrap();
        assert_eq!(hdr, sample());
        assert_eq!(rest, &[0xaa, 0xbb]);
    }

    #[test]
    fn ethertype_classification() {
        assert_eq!(EtherType::from_u16(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::from_u16(0x0806), EtherType::Arp);
        assert_eq!(EtherType::from_u16(0x86dd), EtherType::Ipv6);
        assert_eq!(EtherType::from_u16(0x888e), EtherType::Eapol);
        assert_eq!(EtherType::from_u16(0x0100), EtherType::Length(0x0100));
        assert_eq!(EtherType::from_u16(0x9999), EtherType::Other(0x9999));
    }

    #[test]
    fn ethertype_u16_roundtrip() {
        for raw in [0x0800u16, 0x0806, 0x86dd, 0x888e, 0x0042, 0x1234] {
            assert_eq!(EtherType::from_u16(raw).to_u16(), raw);
        }
    }
}
