//! Network Time Protocol (RFC 5905) packets.
//!
//! Most IoT devices synchronize their clock immediately after joining a
//! network (TLS certificate validation needs correct time), making NTP a
//! reliable setup-phase marker — it is one of the eight application-layer
//! features in the paper's Table I.

use bytes::BufMut;
use serde::{Deserialize, Serialize};

use crate::ParseError;

/// Length of a basic NTP packet (no extensions).
pub const PACKET_LEN: usize = 48;

/// NTP association mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NtpMode {
    /// Symmetric active (1).
    SymmetricActive,
    /// Client (3).
    Client,
    /// Server (4).
    Server,
    /// Broadcast (5).
    Broadcast,
    /// Any other mode.
    Other(u8),
}

impl NtpMode {
    fn to_u8(self) -> u8 {
        match self {
            NtpMode::SymmetricActive => 1,
            NtpMode::Client => 3,
            NtpMode::Server => 4,
            NtpMode::Broadcast => 5,
            NtpMode::Other(v) => v & 0x07,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            1 => NtpMode::SymmetricActive,
            3 => NtpMode::Client,
            4 => NtpMode::Server,
            5 => NtpMode::Broadcast,
            v => NtpMode::Other(v),
        }
    }
}

/// An NTP packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NtpPacket {
    /// Protocol version (3 or 4).
    pub version: u8,
    /// Association mode.
    pub mode: NtpMode,
    /// Stratum (0 = unspecified for client requests).
    pub stratum: u8,
    /// Poll interval exponent.
    pub poll: i8,
    /// Precision exponent.
    pub precision: i8,
    /// Transmit timestamp (NTP 64-bit format).
    pub transmit_timestamp: u64,
}

impl NtpPacket {
    /// A typical SNTP client request.
    pub fn client_request(transmit_timestamp: u64) -> Self {
        NtpPacket {
            version: 4,
            mode: NtpMode::Client,
            stratum: 0,
            poll: 0,
            precision: 0,
            transmit_timestamp,
        }
    }

    /// Appends the 48 packet bytes to `buf`.
    pub fn encode(&self, buf: &mut impl BufMut) {
        buf.put_u8((self.version << 3) | self.mode.to_u8());
        buf.put_u8(self.stratum);
        buf.put_i8(self.poll);
        buf.put_i8(self.precision);
        buf.put_slice(&[0u8; 36]); // root delay/dispersion, ref id, ref/orig/recv timestamps
        buf.put_u64(self.transmit_timestamp);
    }

    /// Parses an NTP packet.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] on short input and
    /// [`ParseError::Invalid`] on an unknown protocol version.
    pub fn parse(bytes: &[u8]) -> Result<Self, ParseError> {
        if bytes.len() < PACKET_LEN {
            return Err(ParseError::truncated("ntp", PACKET_LEN, bytes.len()));
        }
        let version = (bytes[0] >> 3) & 0x07;
        if !(1..=4).contains(&version) {
            return Err(ParseError::invalid("ntp", "version outside 1-4"));
        }
        Ok(NtpPacket {
            version,
            mode: NtpMode::from_u8(bytes[0] & 0x07),
            stratum: bytes[1],
            poll: bytes[2] as i8,
            precision: bytes[3] as i8,
            transmit_timestamp: u64::from_be_bytes(bytes[40..48].try_into().expect("slice of 8")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let pkt = NtpPacket::client_request(0x1234_5678_9abc_def0);
        let mut buf = Vec::new();
        pkt.encode(&mut buf);
        assert_eq!(buf.len(), PACKET_LEN);
        assert_eq!(NtpPacket::parse(&buf).unwrap(), pkt);
    }

    #[test]
    fn rejects_bad_version() {
        let mut buf = Vec::new();
        NtpPacket::client_request(0).encode(&mut buf);
        buf[0] = 0x3b; // version 7
        assert!(NtpPacket::parse(&buf).is_err());
    }

    #[test]
    fn truncated_rejected() {
        assert!(NtpPacket::parse(&[0u8; 47]).is_err());
    }
}
