//! Minimal TLS record framing.
//!
//! The gateway never decrypts traffic — the paper's fingerprint explicitly
//! avoids payload features so it works on encrypted flows. TLS records are
//! modeled only to the extent needed to synthesize realistically-sized
//! HTTPS setup traffic (ClientHello etc.) and classify it.

use bytes::{BufMut, Bytes};
use serde::{Deserialize, Serialize};

use crate::ParseError;

/// Length of the TLS record header.
pub const HEADER_LEN: usize = 5;

/// TLS record content type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ContentType {
    /// ChangeCipherSpec (20).
    ChangeCipherSpec,
    /// Alert (21).
    Alert,
    /// Handshake (22).
    Handshake,
    /// ApplicationData (23).
    ApplicationData,
    /// Any other content type.
    Other(u8),
}

impl ContentType {
    /// The raw content-type byte.
    pub fn to_u8(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
            ContentType::Other(v) => v,
        }
    }

    /// Classifies a raw content-type byte.
    pub fn from_u8(v: u8) -> Self {
        match v {
            20 => ContentType::ChangeCipherSpec,
            21 => ContentType::Alert,
            22 => ContentType::Handshake,
            23 => ContentType::ApplicationData,
            v => ContentType::Other(v),
        }
    }
}

/// A single TLS record with opaque payload.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TlsRecord {
    /// Record content type.
    pub content_type: ContentType,
    /// Protocol version bytes (0x0303 for TLS 1.2).
    pub version: u16,
    /// Opaque record payload.
    pub payload: Bytes,
}

impl TlsRecord {
    /// Creates a record.
    pub fn new(content_type: ContentType, payload: impl Into<Bytes>) -> Self {
        TlsRecord {
            content_type,
            version: 0x0303,
            payload: payload.into(),
        }
    }

    /// A handshake record sized like a typical ClientHello.
    pub fn client_hello(payload_len: usize) -> Self {
        let mut payload = vec![0u8; payload_len.max(4)];
        payload[0] = 1; // handshake type: client_hello
        TlsRecord::new(ContentType::Handshake, payload)
    }

    /// An application-data record of the given length.
    pub fn application_data(payload_len: usize) -> Self {
        TlsRecord::new(ContentType::ApplicationData, vec![0u8; payload_len])
    }

    /// Wire length of the encoded record.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Appends the record bytes to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8(self.content_type.to_u8());
        buf.put_u16(self.version);
        buf.put_u16(self.payload.len() as u16);
        buf.put_slice(&self.payload);
    }

    /// Parses a TLS record.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if the header or declared payload
    /// length exceed the input.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        let total = check(bytes)?;
        Ok(TlsRecord {
            content_type: ContentType::from_u8(bytes[0]),
            version: u16::from_be_bytes([bytes[1], bytes[2]]),
            payload: Bytes::copy_from_slice(&bytes[HEADER_LEN..total]),
        })
    }
}

/// Validates the header and the declared payload length, returning the
/// record's length (header + payload; trailing bytes are not the record's).
pub(crate) fn check(bytes: &[u8]) -> Result<usize, ParseError> {
    if bytes.len() < HEADER_LEN {
        return Err(ParseError::truncated("tls", HEADER_LEN, bytes.len()));
    }
    let total = HEADER_LEN + u16::from_be_bytes([bytes[3], bytes[4]]) as usize;
    if bytes.len() < total {
        return Err(ParseError::truncated("tls", total, bytes.len()));
    }
    Ok(total)
}

/// Strict structural sniff for a single well-formed TLS record on a port
/// that does not imply TLS: a valid content type, a TLS version byte
/// pair, and a length field matching the remaining bytes exactly.
pub(crate) fn looks_like_tls(bytes: &[u8]) -> bool {
    // The first three bytes turn almost every other payload away before
    // the length check has an error to build.
    matches!(bytes, [20..=23, 3, 0..=4, ..]) && check(bytes) == Ok(bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let record = TlsRecord::client_hello(180);
        let mut buf = Vec::new();
        record.encode(&mut buf);
        assert_eq!(TlsRecord::parse(&buf).unwrap(), record);
        assert_eq!(buf.len(), record.wire_len());
    }

    #[test]
    fn declared_length_enforced() {
        let bytes = [22, 3, 3, 0, 10, 1, 2];
        assert!(TlsRecord::parse(&bytes).is_err());
    }

    #[test]
    fn content_type_roundtrip() {
        for raw in [20u8, 21, 22, 23, 99] {
            assert_eq!(ContentType::from_u8(raw).to_u8(), raw);
        }
    }
}
