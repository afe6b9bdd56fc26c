//! TCP segment headers.

use crate::{ParseError, PutBe};

/// Length of a TCP header without options.
pub(crate) const MIN_HEADER_LEN: usize = 20;

/// TCP control flags.
///
/// A hand-rolled flag set (rather than a `bitflags` dependency) keeping the
/// same typesafe-or semantics:
///
/// ```
/// use sentinel_netproto::tcp::TcpFlags;
///
/// let synack = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(synack.contains(TcpFlags::SYN));
/// assert!(!synack.contains(TcpFlags::FIN));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(u8);

impl TcpFlags {
    /// FIN.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Constructs from the raw flag byte.
    pub const fn from_bits(bits: u8) -> Self {
        TcpFlags(bits)
    }

    /// The raw flag byte.
    pub const fn bits(&self) -> u8 {
        self.0
    }

    /// Returns `true` if all flags in `other` are set in `self`.
    pub const fn contains(&self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;

    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = [
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::URG, "URG"),
        ];
        let mut first = true;
        for (flag, name) in names {
            if self.contains(flag) {
                if !first {
                    f.write_str("|")?;
                }
                f.write_str(name)?;
                first = false;
            }
        }
        if first {
            f.write_str("(none)")?;
        }
        Ok(())
    }
}

/// A TCP header (options preserved as raw bytes, padded to 32 bits).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgment number.
    pub ack: u32,
    /// Control flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Raw option bytes (padded with NOPs to 32 bits at encode time).
    pub options: Vec<u8>,
}

impl TcpHeader {
    /// Creates a header with the given ports and flags.
    pub fn new(src_port: u16, dst_port: u16, flags: TcpFlags) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq: 0,
            ack: 0,
            flags,
            window: 65535,
            options: Vec::new(),
        }
    }

    /// A SYN segment with a typical MSS option, as the first packet of a
    /// device's TCP connection to its cloud endpoint.
    pub(crate) fn syn(src_port: u16, dst_port: u16, seq: u32) -> Self {
        let mut hdr = TcpHeader::new(src_port, dst_port, TcpFlags::SYN);
        hdr.seq = seq;
        hdr.options = vec![0x02, 0x04, 0x05, 0xb4]; // MSS 1460
        hdr
    }

    /// Length of the encoded header.
    pub(crate) fn header_len(&self) -> usize {
        MIN_HEADER_LEN + self.options.len().div_ceil(4) * 4
    }

    /// Appends the header bytes to `buf` (checksum left zero; the
    /// simulation does not verify transport checksums).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        let header_len = self.header_len();
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u32(self.seq);
        buf.put_u32(self.ack);
        buf.push(((header_len / 4) as u8) << 4);
        buf.push(self.flags.bits());
        buf.put_u16(self.window);
        buf.put_u16(0); // checksum (not modeled)
        buf.put_u16(0); // urgent pointer
        buf.extend_from_slice(&self.options);
        for _ in self.options.len()..(header_len - MIN_HEADER_LEN) {
            buf.push(0x01); // NOP padding
        }
    }

    /// Parses a header, returning it and the segment payload.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] or [`ParseError::Invalid`] on
    /// malformed input.
    pub fn parse(bytes: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        let (src_port, dst_port, data_offset) = check(bytes)?;
        Ok((
            TcpHeader {
                src_port,
                dst_port,
                seq: u32::from_be_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
                ack: u32::from_be_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
                flags: TcpFlags::from_bits(bytes[13]),
                window: u16::from_be_bytes([bytes[14], bytes[15]]),
                options: bytes[MIN_HEADER_LEN..data_offset].to_vec(),
            },
            &bytes[data_offset..],
        ))
    }
}

/// Validates the fixed header and the data offset, returning `(source
/// port, destination port, data offset)`. The offset is a multiple of 4
/// within `bytes`, so the raw options re-encode to the length they came
/// with.
pub(crate) fn check(bytes: &[u8]) -> Result<(u16, u16, usize), ParseError> {
    if bytes.len() < MIN_HEADER_LEN {
        return Err(ParseError::truncated("tcp", MIN_HEADER_LEN, bytes.len()));
    }
    let data_offset = (bytes[12] >> 4) as usize * 4;
    if data_offset < MIN_HEADER_LEN {
        return Err(ParseError::invalid("tcp", "data offset below 20 bytes"));
    }
    if bytes.len() < data_offset {
        return Err(ParseError::truncated("tcp", data_offset, bytes.len()));
    }
    let src_port = u16::from_be_bytes([bytes[0], bytes[1]]);
    let dst_port = u16::from_be_bytes([bytes[2], bytes[3]]);
    Ok((src_port, dst_port, data_offset))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_with_options() {
        let hdr = TcpHeader::syn(49152, 443, 1000);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        buf.extend_from_slice(b"hi");
        let (parsed, payload) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(payload, b"hi");
    }

    #[test]
    fn options_padded_to_word_boundary() {
        let mut hdr = TcpHeader::new(1, 2, TcpFlags::ACK);
        hdr.options = vec![0x01];
        assert_eq!(hdr.header_len(), 24);
        let mut buf = Vec::new();
        hdr.encode(&mut buf);
        assert_eq!(buf.len(), 24);
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::default().to_string(), "(none)");
    }

    #[test]
    fn bad_data_offset_rejected() {
        let mut buf = Vec::new();
        TcpHeader::new(1, 2, TcpFlags::SYN).encode(&mut buf);
        buf[12] = 0x10; // data offset 4 bytes < 20
        assert!(TcpHeader::parse(&buf).is_err());
    }

    #[test]
    fn truncated_rejected() {
        assert!(TcpHeader::parse(&[0u8; 19]).is_err());
    }
}
