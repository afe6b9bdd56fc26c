//! IPv4 headers including the two header options the paper's fingerprint
//! tracks: padding (NOP/EOL) and Router Alert (RFC 2113).

use std::net::Ipv4Addr;

use crate::{ParseError, PutBe};

/// Length of an IPv4 header without options.
pub(crate) const MIN_HEADER_LEN: usize = 20;

/// Length of an IPv4 header with the most options its IHL can count.
const MAX_HEADER_LEN: usize = 60;

/// IP protocol numbers carried in the IPv4 `protocol` / IPv6 `next header`
/// field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProtocol {
    /// ICMP (1).
    Icmp,
    /// IGMP (2).
    Igmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// ICMPv6 (58).
    Icmpv6,
    /// Any other protocol number.
    Other(u8),
}

impl IpProtocol {
    /// The raw protocol number.
    pub fn to_u8(self) -> u8 {
        match self {
            IpProtocol::Icmp => 1,
            IpProtocol::Igmp => 2,
            IpProtocol::Tcp => 6,
            IpProtocol::Udp => 17,
            IpProtocol::Icmpv6 => 58,
            IpProtocol::Other(v) => v,
        }
    }

    /// Classifies a raw protocol number.
    pub fn from_u8(v: u8) -> Self {
        match v {
            1 => IpProtocol::Icmp,
            2 => IpProtocol::Igmp,
            6 => IpProtocol::Tcp,
            17 => IpProtocol::Udp,
            58 => IpProtocol::Icmpv6,
            v => IpProtocol::Other(v),
        }
    }
}

/// An IPv4 header option.
///
/// Only the two options that are fingerprint features (Table I) are modeled
/// structurally; everything else is preserved as raw type/data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Ipv4Option {
    /// End of options list (type 0) — counted as padding.
    EndOfOptions,
    /// No-operation (type 1) — counted as padding.
    Nop,
    /// Router Alert (type 148, RFC 2113) with its 16-bit value.
    RouterAlert(u16),
    /// Any other option, kept verbatim.
    Other {
        /// Raw option type byte.
        kind: u8,
        /// Raw option data (excluding type and length bytes).
        data: Vec<u8>,
    },
}

impl Ipv4Option {
    /// Returns `true` for padding options (NOP / End-of-Options).
    pub(crate) fn is_padding(&self) -> bool {
        matches!(self, Ipv4Option::Nop | Ipv4Option::EndOfOptions)
    }

    /// Returns `true` for the Router Alert option.
    pub(crate) fn is_router_alert(&self) -> bool {
        matches!(self, Ipv4Option::RouterAlert(_))
    }

    fn encoded_len(&self) -> usize {
        match self {
            Ipv4Option::EndOfOptions | Ipv4Option::Nop => 1,
            Ipv4Option::RouterAlert(_) => 4,
            Ipv4Option::Other { data, .. } => 2 + data.len(),
        }
    }

    /// The option [`walk_options`] reports as `(kind, data)`.
    fn from_wire(kind: u8, data: &[u8]) -> Self {
        match (kind, data) {
            (END_OF_OPTIONS, _) => Ipv4Option::EndOfOptions,
            (NOP, _) => Ipv4Option::Nop,
            (ROUTER_ALERT, &[high, low]) => {
                Ipv4Option::RouterAlert(u16::from_be_bytes([high, low]))
            }
            _ => Ipv4Option::Other {
                kind,
                data: data.to_vec(),
            },
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Ipv4Option::EndOfOptions => buf.push(END_OF_OPTIONS),
            Ipv4Option::Nop => buf.push(NOP),
            Ipv4Option::RouterAlert(value) => {
                buf.push(ROUTER_ALERT);
                buf.push(4);
                buf.put_u16(*value);
            }
            Ipv4Option::Other { kind, data } => {
                buf.push(*kind);
                // `Ipv4Header::encode` has checked that the options fit in
                // 40 bytes, so the length byte cannot wrap.
                buf.push(2 + data.len() as u8);
                buf.extend_from_slice(data);
            }
        }
    }
}

/// An IPv4 header.
///
/// The `total_len` field is computed at encode time from the payload, not
/// stored, so headers cannot describe inconsistent lengths.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ipv4Header {
    /// Differentiated services code point + ECN byte.
    pub dscp_ecn: u8,
    /// Identification field.
    pub identification: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// Time to live.
    pub ttl: u8,
    /// Transport protocol of the payload.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Header options (padded to a 32-bit boundary at encode time).
    pub options: Vec<Ipv4Option>,
}

impl Ipv4Header {
    /// Creates a header with typical defaults (TTL 64, DF set, no options).
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, protocol: IpProtocol) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            identification: 0,
            dont_fragment: true,
            ttl: 64,
            protocol,
            src,
            dst,
            options: Vec::new(),
        }
    }

    /// Returns `true` if any option is padding (Table I `Padding` feature).
    pub(crate) fn has_padding_option(&self) -> bool {
        self.options.iter().any(Ipv4Option::is_padding)
    }

    /// Returns `true` if a Router Alert option is present (Table I
    /// `RouterAlert` feature).
    pub(crate) fn has_router_alert(&self) -> bool {
        self.options.iter().any(Ipv4Option::is_router_alert)
    }

    /// Length of the encoded header in bytes (options padded to 32 bits).
    pub(crate) fn header_len(&self) -> usize {
        padded_header_len(self.options.iter().map(Ipv4Option::encoded_len).sum())
    }

    /// Appends the header bytes to `buf`, computing length and checksum for
    /// a payload of `payload_len` bytes. The header is written with a zero
    /// checksum, which is then patched in place.
    ///
    /// # Panics
    ///
    /// Panics if the options encode to more than 40 bytes (the IHL field
    /// counts at most 60 header bytes, which also bounds every option's
    /// length byte) or if header and payload exceed the 65 535 bytes the
    /// total-length field counts: the wire cannot carry such a header,
    /// and writing it would wrap a field into a frame
    /// [`Ipv4Header::parse`] rejects.
    pub fn encode(&self, buf: &mut Vec<u8>, payload_len: usize) {
        let start = buf.len();
        let header_len = self.header_len();
        assert!(
            header_len <= MAX_HEADER_LEN,
            "IPv4 options take at most {} bytes",
            MAX_HEADER_LEN - MIN_HEADER_LEN
        );
        let total_len = u16::try_from(header_len + payload_len)
            .expect("an IPv4 datagram is at most 65 535 bytes");
        buf.push(0x40 | (header_len / 4) as u8);
        buf.push(self.dscp_ecn);
        buf.put_u16(total_len);
        buf.put_u16(self.identification);
        buf.push(if self.dont_fragment { 0x40 } else { 0 });
        buf.push(0); // fragment offset
        buf.push(self.ttl);
        buf.push(self.protocol.to_u8());
        buf.put_u16(0); // checksum, patched below
        buf.extend_from_slice(&self.src.octets());
        buf.extend_from_slice(&self.dst.octets());
        for opt in &self.options {
            opt.encode(buf);
        }
        buf.resize(start + header_len, 0); // end-of-options padding to 32-bit boundary
        let checksum = internet_checksum(&buf[start..]);
        buf[start + 10..start + 12].copy_from_slice(&checksum.to_be_bytes());
    }

    /// Parses a header, returning it and the payload slice delimited by the
    /// header's total-length field.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] if the input is shorter than the
    /// header or the declared total length, and [`ParseError::Invalid`] for
    /// a bad version, IHL, or checksum.
    pub fn parse(bytes: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        let (ihl, total_len) = check(bytes)?;
        let flags_frag = u16::from_be_bytes([bytes[6], bytes[7]]);
        let mut options = Vec::new();
        walk_options(&bytes[MIN_HEADER_LEN..ihl], |kind, data| {
            options.push(Ipv4Option::from_wire(kind, data));
        })?;
        let header = Ipv4Header {
            dscp_ecn: bytes[1],
            identification: u16::from_be_bytes([bytes[4], bytes[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            ttl: bytes[8],
            protocol: protocol(bytes),
            src: Ipv4Addr::new(bytes[12], bytes[13], bytes[14], bytes[15]),
            dst: dst(bytes),
            options,
        };
        Ok((header, &bytes[ihl..total_len]))
    }
}

const END_OF_OPTIONS: u8 = 0;
const NOP: u8 = 1;
const ROUTER_ALERT: u8 = 148;

/// Length of a header whose options encode to `options` bytes: the
/// options area is padded to a 32-bit boundary.
fn padded_header_len(options: usize) -> usize {
    MIN_HEADER_LEN + options.div_ceil(4) * 4
}

/// Validates the fixed header — version, IHL, checksum, total length —
/// and returns `(header length, total length)`, both within `bytes`.
pub(crate) fn check(bytes: &[u8]) -> Result<(usize, usize), ParseError> {
    if bytes.len() < MIN_HEADER_LEN {
        return Err(ParseError::truncated("ipv4", MIN_HEADER_LEN, bytes.len()));
    }
    if bytes[0] >> 4 != 4 {
        return Err(ParseError::invalid("ipv4", "version is not 4"));
    }
    let ihl = (bytes[0] & 0x0f) as usize * 4;
    if ihl < MIN_HEADER_LEN {
        return Err(ParseError::invalid("ipv4", "ihl below 20 bytes"));
    }
    if bytes.len() < ihl {
        return Err(ParseError::truncated("ipv4", ihl, bytes.len()));
    }
    if internet_checksum(&bytes[..ihl]) != 0 {
        return Err(ParseError::invalid("ipv4", "header checksum mismatch"));
    }
    let total_len = u16::from_be_bytes([bytes[2], bytes[3]]) as usize;
    if total_len < ihl || bytes.len() < total_len {
        return Err(ParseError::truncated("ipv4", total_len, bytes.len()));
    }
    Ok((ihl, total_len))
}

/// The payload protocol of a header [`check`] accepted.
pub(crate) fn protocol(header: &[u8]) -> IpProtocol {
    IpProtocol::from_u8(header[9])
}

/// The destination address of a header [`check`] accepted.
pub(crate) fn dst(header: &[u8]) -> Ipv4Addr {
    Ipv4Addr::new(header[16], header[17], header[18], header[19])
}

/// Walks an options area, reporting each option as `(kind, data)`.
/// End-of-options is reported once and ends the walk (what follows it is
/// padding); a NOP has no data.
fn walk_options<'a>(
    mut bytes: &'a [u8],
    mut option: impl FnMut(u8, &'a [u8]),
) -> Result<(), ParseError> {
    while let Some(&kind) = bytes.first() {
        match kind {
            END_OF_OPTIONS => {
                option(kind, &[]);
                break;
            }
            NOP => {
                option(kind, &[]);
                bytes = &bytes[1..];
            }
            _ => {
                if bytes.len() < 2 {
                    return Err(ParseError::truncated("ipv4 option", 2, bytes.len()));
                }
                let len = bytes[1] as usize;
                if len < 2 || bytes.len() < len {
                    return Err(ParseError::invalid("ipv4 option", "bad option length"));
                }
                option(kind, &bytes[2..len]);
                bytes = &bytes[len..];
            }
        }
    }
    Ok(())
}

/// What the feature scan reads off the options of a `header` [`check`]
/// accepted: `(re-encoded header length, padding seen, router alert
/// seen)`, by the rules of [`Ipv4Option::from_wire`] and
/// [`Ipv4Header::header_len`].
pub(crate) fn scan_options(header: &[u8]) -> Result<(usize, bool, bool), ParseError> {
    let (mut len, mut padding, mut router_alert) = (0, false, false);
    walk_options(&header[MIN_HEADER_LEN..], |kind, data| match kind {
        END_OF_OPTIONS | NOP => {
            padding = true;
            len += 1;
        }
        _ => {
            router_alert |= kind == ROUTER_ALERT && data.len() == 2;
            len += 2 + data.len();
        }
    })?;
    Ok((padded_header_len(len), padding, router_alert))
}

/// RFC 1071 internet checksum over `data`.
pub(crate) fn internet_checksum(data: &[u8]) -> u16 {
    fold_checksum(word_sum(data))
}

/// The sum of `data`'s big-endian 16-bit words, an odd last byte
/// padded with zero: what [`fold_checksum`] folds. Two sums add when
/// the first covers an even number of bytes.
pub(crate) fn word_sum(data: &[u8]) -> u32 {
    let mut sum = 0u32;
    let mut chunks = data.chunks_exact(2);
    for chunk in &mut chunks {
        sum += u16::from_be_bytes([chunk[0], chunk[1]]) as u32;
    }
    if let [last] = chunks.remainder() {
        sum += (*last as u32) << 8;
    }
    sum
}

/// Folds the carries of a 16-bit one's-complement sum and complements it.
pub(crate) fn fold_checksum(mut sum: u32) -> u16 {
    while sum > 0xffff {
        sum = (sum & 0xffff) + (sum >> 16);
    }
    !(sum as u16)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ipv4Header {
        /// Adds an option (builder style).
        #[must_use]
        fn with_option(mut self, option: Ipv4Option) -> Self {
            self.options.push(option);
            self
        }
    }

    fn sample() -> Ipv4Header {
        Ipv4Header::new(
            Ipv4Addr::new(192, 168, 0, 10),
            Ipv4Addr::new(192, 168, 0, 1),
            IpProtocol::Udp,
        )
    }

    #[test]
    fn roundtrip_no_options() {
        let hdr = sample();
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 3);
        buf.extend_from_slice(&[0xaa, 0xbb, 0xcc]);
        let (parsed, payload) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(payload, &[0xaa, 0xbb, 0xcc]);
    }

    #[test]
    fn roundtrip_router_alert() {
        let hdr = sample().with_option(Ipv4Option::RouterAlert(0));
        assert!(hdr.has_router_alert());
        assert_eq!(hdr.header_len(), 24);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 0);
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        assert!(parsed.has_router_alert());
        assert_eq!(parsed, hdr);
    }

    #[test]
    fn padding_options_detected_after_roundtrip() {
        let hdr = sample().with_option(Ipv4Option::Nop);
        assert!(hdr.has_padding_option());
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 0);
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        assert!(parsed.has_padding_option());
    }

    #[test]
    fn encode_refuses_a_header_the_wire_cannot_carry() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let other = |len: usize| Ipv4Option::Other {
            kind: 130,
            data: vec![0x5a; len],
        };
        let encodes = |hdr: &Ipv4Header, payload_len: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut buf = Vec::new();
                hdr.encode(&mut buf, payload_len);
                buf
            }))
            .is_ok()
        };
        // 40 option bytes are the most the IHL counts: a 15-word header
        // that parses back to itself.
        let widest = sample().with_option(other(38));
        assert_eq!(widest.header_len(), 60);
        let mut buf = Vec::new();
        widest.encode(&mut buf, 0);
        assert_eq!(buf[0], 0x4f);
        assert_eq!(Ipv4Header::parse(&buf).unwrap().0, widest);
        // 44 option bytes would write IHL 16 into the version nibble,
        // and a 254-byte option would wrap its length byte.
        assert!(!encodes(&sample().with_option(other(42)), 0));
        assert!(!encodes(&sample().with_option(other(254)), 0));
        // The total length counts 65 535 bytes and no more.
        assert!(encodes(&sample(), 65_535 - 20));
        assert!(!encodes(&sample(), 65_536 - 20));
        assert!(encodes(&widest, 65_535 - 60));
        assert!(!encodes(&widest, 65_536 - 60));
    }

    #[test]
    fn checksum_detects_corruption() {
        let mut buf = Vec::new();
        sample().encode(&mut buf, 0);
        buf[8] ^= 0xff; // flip TTL
        assert!(matches!(
            Ipv4Header::parse(&buf).unwrap_err(),
            ParseError::Invalid { layer: "ipv4", .. }
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        sample().encode(&mut buf, 0);
        buf[0] = 0x65; // version 6
        assert!(Ipv4Header::parse(&buf).is_err());
    }

    #[test]
    fn total_length_bounds_payload() {
        let mut buf = Vec::new();
        sample().encode(&mut buf, 2);
        buf.extend_from_slice(&[1, 2, 3, 4]); // two extra trailing bytes
        let (_, payload) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(payload.len(), 2, "payload must stop at total_len");
    }

    #[test]
    fn checksum_known_vector() {
        // RFC 1071 example data.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(internet_checksum(&data), !0xddf2);
    }

    #[test]
    fn protocol_number_roundtrip() {
        for raw in [1u8, 2, 6, 17, 58, 99] {
            assert_eq!(IpProtocol::from_u8(raw).to_u8(), raw);
        }
    }
}
