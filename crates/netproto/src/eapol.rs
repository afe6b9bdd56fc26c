//! EAP over LAN (IEEE 802.1X), including the WPA2 4-way handshake frames.
//!
//! Every WiFi device associating with the Security Gateway performs an
//! EAPoL key exchange, so EAPoL frames open virtually every setup-phase
//! capture — the paper lists EAPoL among its network-layer protocol
//! features (Table I).

use bytes::{BufMut, Bytes};
use serde::{Deserialize, Serialize};

use crate::ParseError;

/// Length of the fixed EAPoL header.
pub const HEADER_LEN: usize = 4;

/// EAPoL packet type field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EapolType {
    /// EAP-Packet (0): carries an EAP exchange.
    Eap,
    /// EAPOL-Start (1): supplicant initiates authentication.
    Start,
    /// EAPOL-Logoff (2).
    Logoff,
    /// EAPOL-Key (3): WPA2 4-way handshake messages.
    Key,
    /// Any other type value.
    Other(u8),
}

impl EapolType {
    /// The raw type byte.
    pub fn to_u8(self) -> u8 {
        match self {
            EapolType::Eap => 0,
            EapolType::Start => 1,
            EapolType::Logoff => 2,
            EapolType::Key => 3,
            EapolType::Other(v) => v,
        }
    }

    /// Classifies a raw type byte.
    pub fn from_u8(v: u8) -> Self {
        match v {
            0 => EapolType::Eap,
            1 => EapolType::Start,
            2 => EapolType::Logoff,
            3 => EapolType::Key,
            v => EapolType::Other(v),
        }
    }
}

/// An EAPoL (802.1X) frame.
///
/// ```
/// use sentinel_netproto::eapol::{EapolPacket, EapolType};
///
/// let msg1 = EapolPacket::key_handshake(1);
/// assert_eq!(msg1.packet_type, EapolType::Key);
/// let mut buf = Vec::new();
/// msg1.encode(&mut buf);
/// assert_eq!(EapolPacket::parse(&buf).unwrap(), msg1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EapolPacket {
    /// Protocol version (2 for 802.1X-2004).
    pub version: u8,
    /// Packet type.
    pub packet_type: EapolType,
    /// Opaque body (key descriptors are not interpreted by the gateway).
    pub body: Bytes,
}

impl EapolPacket {
    /// Creates an EAPoL frame with the given type and body.
    pub fn new(packet_type: EapolType, body: impl Into<Bytes>) -> Self {
        EapolPacket {
            version: 2,
            packet_type,
            body: body.into(),
        }
    }

    /// An EAPOL-Key frame standing in for message `n` (1–4) of the WPA2
    /// 4-way handshake. The body length (95 bytes of key descriptor plus a
    /// marker) matches real captures closely enough for size features.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not in `1..=4`.
    pub fn key_handshake(n: u8) -> Self {
        assert!((1..=4).contains(&n), "4-way handshake has messages 1-4");
        let mut body = vec![0u8; 95];
        body[0] = 0x02; // descriptor type: RSN key
        body[1] = n;
        EapolPacket::new(EapolType::Key, body)
    }

    /// Appends the frame bytes (header + body) to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.version);
        buf.put_u8(self.packet_type.to_u8());
        buf.put_u16(self.body.len() as u16);
        buf.put_slice(&self.body);
    }

    /// Wire length of the encoded frame.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.body.len()
    }

    /// Parses an EAPoL frame.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if the header or the body length
    /// it declares exceed the input.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        let total = check(bytes)?;
        Ok(EapolPacket {
            version: bytes[0],
            packet_type: EapolType::from_u8(bytes[1]),
            body: Bytes::copy_from_slice(&bytes[HEADER_LEN..total]),
        })
    }
}

/// Validates the header and the declared body length, returning the
/// frame's length (header + body; anything after it is not the frame's).
pub(crate) fn check(bytes: &[u8]) -> Result<usize, ParseError> {
    if bytes.len() < HEADER_LEN {
        return Err(ParseError::truncated("eapol", HEADER_LEN, bytes.len()));
    }
    let total = HEADER_LEN + u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
    if bytes.len() < total {
        return Err(ParseError::truncated("eapol", total, bytes.len()));
    }
    Ok(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let pkt = EapolPacket::new(EapolType::Start, Vec::new());
        let mut buf = Vec::new();
        pkt.encode(&mut buf);
        assert_eq!(buf, vec![2, 1, 0, 0]);
        assert_eq!(EapolPacket::parse(&buf).unwrap(), pkt);
    }

    #[test]
    fn handshake_messages_differ() {
        let m1 = EapolPacket::key_handshake(1);
        let m2 = EapolPacket::key_handshake(2);
        assert_ne!(m1, m2);
        assert_eq!(m1.wire_len(), m2.wire_len());
    }

    #[test]
    #[should_panic(expected = "4-way handshake")]
    fn handshake_message_number_validated() {
        let _ = EapolPacket::key_handshake(5);
    }

    #[test]
    fn declared_length_enforced() {
        // Header claims 10 body bytes but only 2 follow.
        let bytes = [2, 3, 0, 10, 0xaa, 0xbb];
        assert!(matches!(
            EapolPacket::parse(&bytes).unwrap_err(),
            ParseError::Truncated { layer: "eapol", .. }
        ));
    }

    #[test]
    fn type_byte_roundtrip() {
        for raw in 0..=5u8 {
            assert_eq!(EapolType::from_u8(raw).to_u8(), raw);
        }
    }
}
