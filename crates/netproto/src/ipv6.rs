//! IPv6 headers with optional Hop-by-Hop options extension header.
//!
//! The hop-by-hop header can carry the Router Alert option (RFC 2711),
//! which — together with PadN — lets IPv6 traffic exercise the same two
//! IP-option fingerprint features as IPv4 (Table I). MLD membership
//! reports, which many mDNS-speaking IoT devices send during setup, use
//! exactly this combination.

use std::net::Ipv6Addr;

use crate::ipv4::IpProtocol;
use crate::{ParseError, PutBe};

/// Length of the fixed IPv6 header.
pub(crate) const HEADER_LEN: usize = 40;

/// Next-header value for the Hop-by-Hop options extension header.
const HOP_BY_HOP: u8 = 0;

/// Next-header value for the Fragment extension header (RFC 8200 §4.5).
const FRAGMENT: u8 = 44;

/// Length of the Fragment extension header.
const FRAGMENT_LEN: usize = 8;

/// Longest Hop-by-Hop header: its length byte counts up to 255 8-byte
/// units past the first.
const MAX_HBH_LEN: usize = 256 * 8;

const PAD1: u8 = 0;
const PADN: u8 = 1;
const ROUTER_ALERT: u8 = 5;

/// An option inside a Hop-by-Hop extension header.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum HopByHopOption {
    /// Pad1 (type 0) — one byte of padding.
    Pad1,
    /// PadN (type 1) with `n` data bytes of padding.
    PadN(u8),
    /// Router Alert (type 5, RFC 2711) with its 16-bit value.
    RouterAlert(u16),
    /// Any other option, kept verbatim.
    Other {
        /// Raw option type byte.
        kind: u8,
        /// Raw option data.
        data: Vec<u8>,
    },
}

impl HopByHopOption {
    /// Returns `true` for padding options (Pad1 / PadN).
    pub(crate) fn is_padding(&self) -> bool {
        matches!(self, HopByHopOption::Pad1 | HopByHopOption::PadN(_))
    }

    /// Returns `true` for the Router Alert option.
    pub(crate) fn is_router_alert(&self) -> bool {
        matches!(self, HopByHopOption::RouterAlert(_))
    }

    fn encoded_len(&self) -> usize {
        match self {
            HopByHopOption::Pad1 => 1,
            HopByHopOption::PadN(n) => 2 + *n as usize,
            HopByHopOption::RouterAlert(_) => 4,
            HopByHopOption::Other { data, .. } => 2 + data.len(),
        }
    }

    /// The option [`walk_hbh_options`] reports as `(kind, data)`.
    fn from_wire(kind: u8, data: &[u8]) -> Self {
        match (kind, data) {
            (PAD1, _) => HopByHopOption::Pad1,
            (PADN, _) => HopByHopOption::PadN(data.len() as u8),
            (ROUTER_ALERT, &[high, low]) => {
                HopByHopOption::RouterAlert(u16::from_be_bytes([high, low]))
            }
            _ => HopByHopOption::Other {
                kind,
                data: data.to_vec(),
            },
        }
    }

    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            HopByHopOption::Pad1 => buf.push(PAD1),
            HopByHopOption::PadN(n) => {
                buf.push(PADN);
                buf.push(*n);
                buf.resize(buf.len() + *n as usize, 0);
            }
            HopByHopOption::RouterAlert(value) => {
                buf.push(ROUTER_ALERT);
                buf.push(2);
                buf.put_u16(*value);
            }
            HopByHopOption::Other { kind, data } => {
                buf.push(*kind);
                buf.push(
                    u8::try_from(data.len())
                        .expect("a hop-by-hop option carries at most 255 data bytes"),
                );
                buf.extend_from_slice(data);
            }
        }
    }
}

/// An IPv6 header, optionally carrying a Hop-by-Hop options header.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ipv6Header {
    /// Traffic class byte.
    pub traffic_class: u8,
    /// Flow label (20 bits).
    pub flow_label: u32,
    /// Hop limit.
    pub hop_limit: u8,
    /// Transport protocol of the payload.
    pub protocol: IpProtocol,
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Hop-by-Hop options, if any (encoded as an extension header).
    pub hop_by_hop: Vec<HopByHopOption>,
    /// Identification field of an *atomic* Fragment extension header
    /// (RFC 6946: fragment offset 0, M flag clear — a datagram that was
    /// never actually split, emitted by stacks answering peers that
    /// advertise a sub-1280 MTU). When present, the transport after it
    /// is parsed normally. Genuinely fragmented datagrams (non-zero
    /// offset or M set) stay opaque: they degrade to
    /// [`IpProtocol::Other`]\(44\) with the fragment header kept
    /// verbatim in the raw payload, since their transport bytes are an
    /// arbitrary mid-datagram slice.
    pub atomic_fragment: Option<u32>,
}

impl Ipv6Header {
    /// Creates a header with typical defaults (hop limit 64... / no options).
    pub fn new(src: Ipv6Addr, dst: Ipv6Addr, protocol: IpProtocol) -> Self {
        Ipv6Header {
            traffic_class: 0,
            flow_label: 0,
            hop_limit: 255,
            protocol,
            src,
            dst,
            hop_by_hop: Vec::new(),
            atomic_fragment: None,
        }
    }

    /// Adds a Hop-by-Hop option (builder style).
    #[must_use]
    pub fn with_hop_by_hop(mut self, option: HopByHopOption) -> Self {
        self.hop_by_hop.push(option);
        self
    }

    /// Returns `true` if any Hop-by-Hop option is padding.
    pub(crate) fn has_padding_option(&self) -> bool {
        self.hop_by_hop.iter().any(HopByHopOption::is_padding)
    }

    /// Returns `true` if a Router Alert option is present.
    pub(crate) fn has_router_alert(&self) -> bool {
        self.hop_by_hop.iter().any(HopByHopOption::is_router_alert)
    }

    fn hbh_len(&self) -> usize {
        hbh_header_len(
            self.hop_by_hop
                .iter()
                .map(HopByHopOption::encoded_len)
                .sum(),
        )
    }

    /// Length of the encoded header including any extension headers.
    pub(crate) fn header_len(&self) -> usize {
        HEADER_LEN + self.hbh_len() + fragment_len(self.atomic_fragment)
    }

    /// Appends the header (and extension header) bytes for a payload of
    /// `payload_len` bytes. Extension headers follow the RFC 8200
    /// recommended order: Hop-by-Hop first, then Fragment.
    ///
    /// # Panics
    ///
    /// Panics if a [`HopByHopOption::Other`] carries more than 255 data
    /// bytes (its length byte), if the Hop-by-Hop header would exceed
    /// 2 048 bytes (its length byte counts 8-byte units past the first)
    /// or if extension headers and payload exceed the 65 535 bytes the
    /// payload-length field counts: the wire cannot carry such a header,
    /// and writing it would wrap a field into a frame
    /// [`Ipv6Header::parse`] reads differently or rejects.
    pub fn encode(&self, buf: &mut Vec<u8>, payload_len: usize) {
        let hbh_len = self.hbh_len();
        assert!(
            hbh_len <= MAX_HBH_LEN,
            "a hop-by-hop header is at most {MAX_HBH_LEN} bytes"
        );
        let frag_len = fragment_len(self.atomic_fragment);
        let ipv6_payload_len = u16::try_from(hbh_len + frag_len + payload_len)
            .expect("IPv6 extension headers and payload are at most 65 535 bytes");
        // Next-header chain: fixed header → hop-by-hop → fragment → transport.
        let after_hbh = if frag_len > 0 {
            FRAGMENT
        } else {
            self.protocol.to_u8()
        };
        let first_next = if hbh_len > 0 { HOP_BY_HOP } else { after_hbh };
        let first = 0x6000_0000 | ((self.traffic_class as u32) << 20) | (self.flow_label & 0xfffff);
        buf.put_u32(first);
        buf.put_u16(ipv6_payload_len);
        buf.push(first_next);
        buf.push(self.hop_limit);
        buf.extend_from_slice(&self.src.octets());
        buf.extend_from_slice(&self.dst.octets());
        if hbh_len > 0 {
            let start = buf.len();
            buf.push(after_hbh);
            buf.push((hbh_len / 8 - 1) as u8); // ≤ 255: checked above
            for opt in &self.hop_by_hop {
                opt.encode(buf);
            }
            buf.resize(start + hbh_len, 0); // Pad1 filler
        }
        if let Some(identification) = self.atomic_fragment {
            buf.push(self.protocol.to_u8());
            buf.push(0); // reserved
            buf.put_u16(0); // fragment offset 0, M clear (atomic)
            buf.put_u32(identification);
        }
    }

    /// Parses a header (plus any Hop-by-Hop extension), returning it and
    /// the payload slice delimited by the payload-length field.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Truncated`] or [`ParseError::Invalid`] on
    /// malformed input.
    pub fn parse(bytes: &[u8]) -> Result<(Self, &[u8]), ParseError> {
        let (protocol, hbh_options, atomic_fragment, payload) = check(bytes)?;
        let first = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        let src = bytes[8..24].as_chunks::<16>().0[0];
        let mut hop_by_hop = Vec::new();
        walk_hbh_options(hbh_options, |kind, data| {
            hop_by_hop.push(HopByHopOption::from_wire(kind, data));
        })?;
        let header = Ipv6Header {
            traffic_class: ((first >> 20) & 0xff) as u8,
            flow_label: first & 0xfffff,
            hop_limit: bytes[7],
            protocol,
            src: Ipv6Addr::from(src),
            dst: dst(bytes),
            hop_by_hop,
            atomic_fragment,
        };
        Ok((header, payload))
    }
}

/// Length of a Hop-by-Hop header whose options encode to `options`
/// bytes (none: no header): 2 fixed bytes + options, rounded up to a
/// multiple of 8.
fn hbh_header_len(options: usize) -> usize {
    if options == 0 {
        return 0;
    }
    (2 + options).div_ceil(8) * 8
}

/// What [`check`] reads off a datagram: `(transport protocol,
/// hop-by-hop options area, atomic fragment identification, payload)`.
type Checked<'a> = (IpProtocol, &'a [u8], Option<u32>, &'a [u8]);

/// Validates the fixed header and the extension chain this crate models
/// (Hop-by-Hop, then an atomic Fragment). The options area is empty
/// without a Hop-by-Hop header and is not walked here
/// ([`walk_hbh_options`]).
pub(crate) fn check(bytes: &[u8]) -> Result<Checked<'_>, ParseError> {
    if bytes.len() < HEADER_LEN {
        return Err(ParseError::truncated("ipv6", HEADER_LEN, bytes.len()));
    }
    if bytes[0] >> 4 != 6 {
        return Err(ParseError::invalid("ipv6", "version is not 6"));
    }
    let payload_len = u16::from_be_bytes([bytes[4], bytes[5]]) as usize;
    let mut next_header = bytes[6];
    let total = HEADER_LEN + payload_len;
    if bytes.len() < total {
        return Err(ParseError::truncated("ipv6", total, bytes.len()));
    }
    let mut offset = HEADER_LEN;
    let mut hbh_options: &[u8] = &[];
    if next_header == HOP_BY_HOP {
        if bytes.len() < offset + 2 {
            return Err(ParseError::truncated(
                "ipv6 hop-by-hop",
                offset + 2,
                bytes.len(),
            ));
        }
        next_header = bytes[offset];
        let ext_len = (bytes[offset + 1] as usize + 1) * 8;
        if bytes.len() < offset + ext_len {
            return Err(ParseError::truncated(
                "ipv6 hop-by-hop",
                offset + ext_len,
                bytes.len(),
            ));
        }
        // The extension header must fit inside the declared payload,
        // or the payload slice below would be inverted.
        if offset + ext_len > total {
            return Err(ParseError::invalid(
                "ipv6 hop-by-hop",
                "extension header exceeds the payload length",
            ));
        }
        hbh_options = &bytes[offset + 2..offset + ext_len];
        offset += ext_len;
    }
    let mut atomic_fragment = None;
    if next_header == FRAGMENT && offset + FRAGMENT_LEN <= total {
        // Consume the fragment header only for a canonical atomic
        // fragment (reserved bytes zero, offset 0, M clear) —
        // anything else stays `Other(44)` with the header verbatim
        // in the payload, so re-encoding is byte-stable.
        let reserved = bytes[offset + 1];
        let offset_flags = u16::from_be_bytes([bytes[offset + 2], bytes[offset + 3]]);
        if reserved == 0 && offset_flags == 0 {
            next_header = bytes[offset];
            atomic_fragment = Some(u32::from_be_bytes([
                bytes[offset + 4],
                bytes[offset + 5],
                bytes[offset + 6],
                bytes[offset + 7],
            ]));
            offset += FRAGMENT_LEN;
        }
    }
    let protocol = IpProtocol::from_u8(next_header);
    Ok((
        protocol,
        hbh_options,
        atomic_fragment,
        &bytes[offset..total],
    ))
}

/// The destination address of a header [`check`] accepted.
pub(crate) fn dst(header: &[u8]) -> Ipv6Addr {
    Ipv6Addr::from(header[24..40].as_chunks::<16>().0[0])
}

/// Walks a Hop-by-Hop options area, reporting each option as `(kind,
/// data)`. Pad1 bytes are reported only when another option follows
/// them: a trailing run is alignment filler added by `encode`, not
/// semantic options, and is dropped for roundtrip stability.
fn walk_hbh_options<'a>(
    mut bytes: &'a [u8],
    mut option: impl FnMut(u8, &'a [u8]),
) -> Result<(), ParseError> {
    let mut pending_pad1 = 0usize;
    while let Some(&kind) = bytes.first() {
        if kind == PAD1 {
            pending_pad1 += 1;
            bytes = &bytes[1..];
            continue;
        }
        for _ in 0..std::mem::take(&mut pending_pad1) {
            option(PAD1, &[]);
        }
        if bytes.len() < 2 {
            return Err(ParseError::truncated("ipv6 option", 2, bytes.len()));
        }
        let len = bytes[1] as usize;
        if bytes.len() < 2 + len {
            return Err(ParseError::invalid("ipv6 option", "bad option length"));
        }
        option(kind, &bytes[2..2 + len]);
        bytes = &bytes[2 + len..];
    }
    Ok(())
}

/// What the feature scan reads off the extension chain [`check`]
/// returned: `(re-encoded header length, padding seen, router alert
/// seen)`, by the rules of [`HopByHopOption::from_wire`] and
/// [`Ipv6Header::header_len`].
pub(crate) fn scan_options(
    hbh_options: &[u8],
    atomic_fragment: Option<u32>,
) -> Result<(usize, bool, bool), ParseError> {
    let (mut len, mut padding, mut router_alert) = (0, false, false);
    walk_hbh_options(hbh_options, |kind, data| {
        padding |= kind == PAD1 || kind == PADN;
        router_alert |= kind == ROUTER_ALERT && data.len() == 2;
        len += if kind == PAD1 { 1 } else { 2 + data.len() };
    })?;
    let header_len = HEADER_LEN + hbh_header_len(len) + fragment_len(atomic_fragment);
    Ok((header_len, padding, router_alert))
}

/// Length an atomic Fragment extension header adds to the header.
fn fragment_len(atomic_fragment: Option<u32>) -> usize {
    atomic_fragment.map_or(0, |_| FRAGMENT_LEN)
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Ipv6Header {
        /// Adds an atomic Fragment extension header with the given
        /// identification (builder style).
        #[must_use]
        pub(crate) fn with_atomic_fragment(mut self, identification: u32) -> Self {
            self.atomic_fragment = Some(identification);
            self
        }
    }

    fn sample() -> Ipv6Header {
        Ipv6Header::new(
            "fe80::1".parse().unwrap(),
            "ff02::fb".parse().unwrap(),
            IpProtocol::Udp,
        )
    }

    #[test]
    fn encode_refuses_a_header_the_wire_cannot_carry() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let other = |len: usize| HopByHopOption::Other {
            kind: 0x3e,
            data: vec![0x5a; len],
        };
        let encodes = |hdr: &Ipv6Header, payload_len: usize| {
            catch_unwind(AssertUnwindSafe(|| {
                let mut buf = Vec::new();
                hdr.encode(&mut buf, payload_len);
                buf
            }))
            .is_ok()
        };
        let roundtrips = |hdr: &Ipv6Header| {
            let mut buf = Vec::new();
            hdr.encode(&mut buf, 0);
            assert_eq!(&Ipv6Header::parse(&buf).unwrap().0, hdr);
        };
        // An option's length byte counts 255 data bytes and no more
        // (PadN(3) fills the header to its 8-byte boundary).
        roundtrips(
            &sample()
                .with_hop_by_hop(other(255))
                .with_hop_by_hop(HopByHopOption::PadN(3)),
        );
        assert!(!encodes(&sample().with_hop_by_hop(other(256)), 0));
        // The hop-by-hop length byte counts 2 048 bytes: seven 257-byte
        // options and one of 247 fill it, one Pad1 more needs 2 056.
        let widest = (0..7)
            .fold(sample(), |hdr, _| hdr.with_hop_by_hop(other(255)))
            .with_hop_by_hop(other(245));
        assert_eq!(widest.hbh_len(), 2_048);
        roundtrips(&widest);
        assert!(!encodes(
            &widest.clone().with_hop_by_hop(HopByHopOption::Pad1),
            0
        ));
        // The payload length counts extension headers and payload up to
        // 65 535 bytes.
        assert!(encodes(&sample(), 65_535));
        assert!(!encodes(&sample(), 65_536));
        let longest = widest.with_atomic_fragment(7);
        assert!(encodes(&longest, 65_535 - 2_048 - 8));
        assert!(!encodes(&longest, 65_536 - 2_048 - 8));
    }

    #[test]
    fn roundtrip_plain() {
        let hdr = sample();
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 2);
        buf.extend_from_slice(&[0xde, 0xad]);
        let (parsed, payload) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(payload, &[0xde, 0xad]);
    }

    #[test]
    fn roundtrip_mld_style_router_alert() {
        // MLD reports carry Router Alert + PadN(0), exactly 8 bytes of ext.
        let hdr = sample()
            .with_hop_by_hop(HopByHopOption::RouterAlert(0))
            .with_hop_by_hop(HopByHopOption::PadN(0));
        assert_eq!(hdr.header_len(), HEADER_LEN + 8);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 4);
        buf.extend_from_slice(&[1, 2, 3, 4]);
        let (parsed, payload) = Ipv6Header::parse(&buf).unwrap();
        assert!(parsed.has_router_alert());
        assert!(parsed.has_padding_option());
        assert_eq!(parsed, hdr);
        assert_eq!(payload, &[1, 2, 3, 4]);
    }

    #[test]
    fn roundtrip_atomic_fragment() {
        let hdr = sample().with_atomic_fragment(0xdead_beef);
        assert_eq!(hdr.header_len(), HEADER_LEN + 8);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 3);
        buf.extend_from_slice(&[7, 8, 9]);
        let (parsed, payload) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert_eq!(parsed.atomic_fragment, Some(0xdead_beef));
        assert_eq!(parsed.protocol, IpProtocol::Udp);
        assert_eq!(payload, &[7, 8, 9]);
    }

    #[test]
    fn roundtrip_hop_by_hop_then_atomic_fragment() {
        // RFC 8200 header order: hop-by-hop, then fragment, then transport.
        let hdr = sample()
            .with_hop_by_hop(HopByHopOption::RouterAlert(0))
            .with_hop_by_hop(HopByHopOption::PadN(0))
            .with_atomic_fragment(42);
        assert_eq!(hdr.header_len(), HEADER_LEN + 8 + 8);
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 2);
        buf.extend_from_slice(&[1, 2]);
        let (parsed, payload) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert!(parsed.has_router_alert());
        assert_eq!(payload, &[1, 2]);
    }

    #[test]
    fn non_atomic_fragment_stays_opaque() {
        // A real fragment (non-zero offset) cannot be parsed past: the
        // transport bytes are a mid-datagram slice. It degrades to
        // Other(44) with the fragment header verbatim in the payload.
        let mut buf = Vec::new();
        sample().with_atomic_fragment(7).encode(&mut buf, 2);
        buf.extend_from_slice(&[0xaa, 0xbb]);
        let frag_start = HEADER_LEN;
        buf[frag_start + 2..frag_start + 4].copy_from_slice(&(8u16 << 3).to_be_bytes());
        let (parsed, payload) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(parsed.atomic_fragment, None);
        assert_eq!(parsed.protocol, IpProtocol::Other(44));
        assert_eq!(payload.len(), 10, "fragment header stays in the payload");
    }

    #[test]
    fn more_fragments_flag_stays_opaque() {
        // Offset 0 but M set: the first piece of a split datagram — the
        // transport header may be complete, but the payload is not.
        let mut buf = Vec::new();
        sample().with_atomic_fragment(7).encode(&mut buf, 2);
        buf.extend_from_slice(&[0xaa, 0xbb]);
        buf[HEADER_LEN + 3] |= 1;
        let (parsed, _) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(parsed.atomic_fragment, None);
        assert_eq!(parsed.protocol, IpProtocol::Other(44));
    }

    #[test]
    fn rejects_wrong_version() {
        let mut buf = Vec::new();
        sample().encode(&mut buf, 0);
        buf[0] = 0x45;
        assert!(Ipv6Header::parse(&buf).is_err());
    }

    #[test]
    fn payload_length_bounds_payload() {
        let mut buf = Vec::new();
        sample().encode(&mut buf, 1);
        buf.extend_from_slice(&[9, 9, 9]);
        let (_, payload) = Ipv6Header::parse(&buf).unwrap();
        assert_eq!(payload, &[9]);
    }

    #[test]
    fn extension_past_declared_payload_is_an_error_not_a_panic() {
        // Regression: a buffer long enough to hold the extension header,
        // but whose declared payload length is shorter than the extension
        // claims, used to slice `bytes[offset..total]` with offset > total.
        let mut buf = Vec::new();
        sample()
            .with_hop_by_hop(HopByHopOption::RouterAlert(0))
            .encode(&mut buf, 0);
        buf[4..6].copy_from_slice(&4u16.to_be_bytes()); // payload 4 < ext 8
        buf.extend_from_slice(&[0u8; 8]); // keep the buffer long enough
        assert!(Ipv6Header::parse(&buf).is_err());
    }

    #[test]
    fn truncated_extension_rejected() {
        let hdr = sample().with_hop_by_hop(HopByHopOption::RouterAlert(0));
        let mut buf = Vec::new();
        hdr.encode(&mut buf, 0);
        buf.truncate(HEADER_LEN + 1);
        // Fix declared payload length so the failure is in the extension.
        buf[4..6].copy_from_slice(&1u16.to_be_bytes());
        assert!(Ipv6Header::parse(&buf).is_err());
    }
}
