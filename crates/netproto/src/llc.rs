//! IEEE 802.2 Logical Link Control.
//!
//! LLC frames (Ethernet frames with a length field instead of an
//! EtherType) are one of the two link-layer protocol features in the
//! paper's Table I. Hub-style IoT gateways (e.g. spanning-tree BPDUs from
//! bridge-capable devices) emit them during setup.

use crate::ParseError;

/// Length of the basic (8-bit control) LLC header.
pub(crate) const HEADER_LEN: usize = 3;

/// Well-known LLC SAP (service access point) values.
pub mod sap {
    /// Spanning Tree Protocol BPDU.
    pub const STP: u8 = 0x42;
}

/// An IEEE 802.2 LLC header with unnumbered-format (8-bit) control field.
///
/// ```
/// use sentinel_netproto::llc::{LlcHeader, sap};
///
/// let hdr = LlcHeader::new(sap::STP, sap::STP, 0x03);
/// let mut buf = Vec::new();
/// hdr.encode(&mut buf);
/// let (parsed, _) = LlcHeader::parse(&buf).unwrap();
/// assert_eq!(parsed, hdr);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LlcHeader {
    /// Destination service access point.
    pub dsap: u8,
    /// Source service access point.
    pub ssap: u8,
    /// Control field (0x03 = unnumbered information).
    pub control: u8,
}

impl LlcHeader {
    /// Creates an LLC header.
    pub fn new(dsap: u8, ssap: u8, control: u8) -> Self {
        LlcHeader {
            dsap,
            ssap,
            control,
        }
    }

    /// An unnumbered-information header for the given SAP on both sides.
    pub fn unnumbered(sap: u8) -> Self {
        LlcHeader::new(sap, sap, 0x03)
    }

    /// Appends the 3 header bytes to `buf`.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.dsap);
        buf.push(self.ssap);
        buf.push(self.control);
    }

    /// Parses an LLC header, returning it and the remaining payload.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if fewer than 3 bytes are given.
    pub fn parse(bytes: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        if bytes.len() < HEADER_LEN {
            return Err(ParseError::truncated("llc", HEADER_LEN, bytes.len()));
        }
        Ok((
            LlcHeader {
                dsap: bytes[0],
                ssap: bytes[1],
                control: bytes[2],
            },
            &bytes[HEADER_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let hdr = LlcHeader::unnumbered(sap::STP);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert_eq!(buf, vec![0x42, 0x42, 0x03]);
        let (parsed, rest) = LlcHeader::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert!(rest.is_empty());
    }

    #[test]
    fn truncated_input_rejected() {
        assert!(matches!(
            LlcHeader::parse(&[0x42, 0x42]).unwrap_err(),
            ParseError::Truncated { layer: "llc", .. }
        ));
    }
}
