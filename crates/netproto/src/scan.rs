//! Zero-copy single-pass wire scan for feature extraction.
//!
//! [`WireScan::scan`] walks one Ethernet frame **in place** — no `Bytes`
//! copies, no owned header structs, no payload buffers — and emits the
//! tiny [`RawFeatures`] record that Table I of the paper actually needs:
//! protocol-presence flags, the two IP-option flags, the re-encoded
//! packet size, the raw-data flag, destination IP and the port pair.
//!
//! The scanner is *certified*: it only returns
//! [`ScanOutcome::Features`] when the full decoder ([`Packet::parse`])
//! would succeed on the same frame **and** derive exactly the same
//! features, and it only returns [`ScanOutcome::Malformed`] when the
//! decoder would reject the frame. Whenever a frame is valid but not
//! canonical — the decoder would accept it yet re-encode it to a
//! different length, or resolve structure the scanner cannot follow
//! without allocating (e.g. compressed DNS names) — the scanner answers
//! [`ScanOutcome::NeedsDecode`] and the caller falls back to the full
//! decoder. Equivalence is enforced by differential property tests in
//! `tests/scan_equivalence.rs`.
//!
//! The subtle part is `packet_size`: the decode path reports
//! `Packet::wire_len()`, the length the decoded packet *re-encodes* to,
//! which drops trailing garbage, dropped padding options and other
//! non-canonical wiggle room. Both sides reach that number by the same
//! arithmetic and neither encodes anything: `wire_len()` sums the
//! lengths each decoded layer knows about itself, and the scanner sums
//! the same terms while walking, instead of trusting `frame.len()`.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use crate::classify::{Protocol, ProtocolSet};
use crate::error::ParseError;
use crate::ipv4::internet_checksum;
use crate::mac::MacAddr;
use crate::packet::Packet;
use crate::ports;
use crate::timestamp::Timestamp;

/// Everything the Table I feature vector needs from one frame, with no
/// allocation and no borrowed data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawFeatures {
    /// Protocol-presence indicators (the 16 binary features).
    pub protocols: ProtocolSet,
    /// An IP padding option (IPv4 NOP/EOL, IPv6 Pad1/PadN) was present.
    pub ip_option_padding: bool,
    /// An IP router-alert option was present.
    pub ip_option_router_alert: bool,
    /// Re-encoded wire length of the frame (`Packet::wire_len`).
    pub packet_size: u32,
    /// The packet carried unparsed payload bytes.
    pub raw_data: bool,
    /// Destination IP address, when the frame carried an IP header.
    pub dst_ip: Option<IpAddr>,
    /// TCP/UDP source port, when present.
    pub src_port: Option<u16>,
    /// TCP/UDP destination port, when present.
    pub dst_port: Option<u16>,
    /// Ethernet source address (the monitored device on ingress).
    pub src_mac: MacAddr,
    /// Ethernet destination address.
    pub dst_mac: MacAddr,
}

impl RawFeatures {
    /// Derives the same record from a fully decoded packet.
    ///
    /// This is the reference implementation the scanner is certified
    /// against, and the slow-path fallback for non-canonical frames.
    pub fn from_packet(packet: &Packet) -> Self {
        use crate::packet::PacketBody;
        let (padding, router_alert) = match &packet.body {
            PacketBody::Ipv4 { header, .. } => {
                (header.has_padding_option(), header.has_router_alert())
            }
            PacketBody::Ipv6 { header, .. } => {
                (header.has_padding_option(), header.has_router_alert())
            }
            _ => (false, false),
        };
        RawFeatures {
            protocols: packet.protocols(),
            ip_option_padding: padding,
            ip_option_router_alert: router_alert,
            packet_size: packet.wire_len() as u32,
            raw_data: packet.has_raw_data(),
            dst_ip: packet.dst_ip(),
            src_port: packet.src_port(),
            dst_port: packet.dst_port(),
            src_mac: packet.src_mac(),
            dst_mac: packet.dst_mac(),
        }
    }

    /// Extracts features from a raw frame: wire scan on the fast path,
    /// full decode when the scanner cannot certify the frame
    /// ([`WireScan::scan_or_decode`] without the path flag).
    ///
    /// Errors exactly when `Packet::parse` errors.
    pub fn from_frame(frame: &[u8]) -> Result<Self, ParseError> {
        WireScan::scan_or_decode(frame).map(|(raw, _)| raw)
    }
}

/// The scanner's verdict on one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutcome {
    /// The frame is valid and canonical; these are exactly the features
    /// the decode path would produce.
    Features(RawFeatures),
    /// `Packet::parse` would reject this frame.
    Malformed,
    /// The frame needs the full decoder (valid but non-canonical, or
    /// uses structure the scanner does not follow, e.g. compressed DNS
    /// names).
    NeedsDecode,
}

/// Zero-copy frame scanner (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct WireScan;

/// Why a walk stopped early (internal control flow).
enum Fail {
    /// The decoder would reject the frame.
    Malformed,
    /// The scanner cannot certify the frame; decode it.
    NeedsDecode,
}

type Scan<T> = Result<T, Fail>;

impl WireScan {
    /// Scans one Ethernet frame without allocating.
    pub fn scan(frame: &[u8]) -> ScanOutcome {
        match scan_frame(frame) {
            Ok(raw) => ScanOutcome::Features(raw),
            Err(Fail::Malformed) => ScanOutcome::Malformed,
            Err(Fail::NeedsDecode) => ScanOutcome::NeedsDecode,
        }
    }

    /// The one scan → decode fallback: the scanner's features when it
    /// certifies `frame`, otherwise whatever the owning decoder
    /// ([`Packet::parse`]) makes of it. The flag is `true` when the
    /// features came from the decoder (the scanner answered
    /// [`ScanOutcome::NeedsDecode`]).
    ///
    /// A frame the scanner calls malformed goes through the decoder too,
    /// for its error value — no more work than a `NeedsDecode` frame
    /// already costs.
    ///
    /// # Errors
    ///
    /// Errors exactly when `Packet::parse` errors, with its error.
    #[inline]
    pub fn scan_or_decode(frame: &[u8]) -> Result<(RawFeatures, bool), ParseError> {
        match Self::scan(frame) {
            ScanOutcome::Features(raw) => Ok((raw, false)),
            ScanOutcome::Malformed | ScanOutcome::NeedsDecode => {
                Packet::parse(frame, Timestamp::ZERO).map(|p| (RawFeatures::from_packet(&p), true))
            }
        }
    }
}

#[inline]
fn be16(bytes: &[u8], at: usize) -> u16 {
    u16::from_be_bytes([bytes[at], bytes[at + 1]])
}

fn scan_frame(frame: &[u8]) -> Scan<RawFeatures> {
    if frame.len() < 14 {
        return Err(Fail::Malformed);
    }
    let mut raw = RawFeatures {
        protocols: ProtocolSet::new(),
        ip_option_padding: false,
        ip_option_router_alert: false,
        packet_size: 0,
        raw_data: false,
        dst_ip: None,
        src_port: None,
        dst_port: None,
        src_mac: MacAddr::new(frame[6..12].try_into().expect("6 bytes")),
        dst_mac: MacAddr::new(frame[0..6].try_into().expect("6 bytes")),
    };
    let ethertype = be16(frame, 12);
    let body = &frame[14..];
    let body_encoded = match ethertype {
        0x0806 => scan_arp(body, &mut raw)?,
        0x0800 => scan_ipv4(body, &mut raw)?,
        0x86dd => scan_ipv6(body, &mut raw)?,
        0x888e => scan_eapol(body, &mut raw)?,
        t if t < 0x0600 => scan_llc(body, &mut raw)?,
        _ => {
            // Unknown ethertype: the decoder keeps the body verbatim.
            raw.raw_data = !body.is_empty();
            body.len()
        }
    };
    raw.packet_size = (14 + body_encoded) as u32;
    Ok(raw)
}

fn scan_arp(b: &[u8], raw: &mut RawFeatures) -> Scan<usize> {
    if b.len() < 28 {
        return Err(Fail::Malformed);
    }
    // Ethernet/IPv4 ARP only, like the decoder.
    if be16(b, 0) != 1 || be16(b, 2) != 0x0800 || b[4] != 6 || b[5] != 4 {
        return Err(Fail::Malformed);
    }
    raw.protocols.insert(Protocol::Arp);
    Ok(28) // trailing bytes are dropped on re-encode
}

fn scan_eapol(b: &[u8], raw: &mut RawFeatures) -> Scan<usize> {
    if b.len() < 4 {
        return Err(Fail::Malformed);
    }
    let body_len = be16(b, 2) as usize;
    if b.len() < 4 + body_len {
        return Err(Fail::Malformed);
    }
    raw.protocols.insert(Protocol::Eapol);
    Ok(4 + body_len)
}

fn scan_llc(b: &[u8], raw: &mut RawFeatures) -> Scan<usize> {
    if b.len() < 3 {
        return Err(Fail::Malformed);
    }
    raw.protocols.insert(Protocol::Llc);
    raw.raw_data = b.len() > 3;
    Ok(b.len())
}

fn scan_ipv4(b: &[u8], raw: &mut RawFeatures) -> Scan<usize> {
    if b.len() < 20 {
        return Err(Fail::Malformed);
    }
    if b[0] >> 4 != 4 {
        return Err(Fail::Malformed);
    }
    let ihl = ((b[0] & 0x0f) as usize) * 4;
    if ihl < 20 || ihl > b.len() {
        return Err(Fail::Malformed);
    }
    if internet_checksum(&b[..ihl]) != 0 {
        return Err(Fail::Malformed);
    }
    let total_len = be16(b, 2) as usize;
    if total_len < ihl || b.len() < total_len {
        return Err(Fail::Malformed);
    }
    // Walk the options area, mirroring the decoder: EOL is recorded once
    // and ends the walk, NOPs are recorded individually, RouterAlert is
    // only the (kind 148, len 4) form. The re-encoded header rounds the
    // summed option length up to a 4-byte boundary.
    let mut options_encoded = 0usize;
    let mut i = 20;
    while i < ihl {
        match b[i] {
            0 => {
                raw.ip_option_padding = true;
                options_encoded += 1;
                break;
            }
            1 => {
                raw.ip_option_padding = true;
                options_encoded += 1;
                i += 1;
            }
            kind => {
                if i + 2 > ihl {
                    return Err(Fail::Malformed);
                }
                let len = b[i + 1] as usize;
                if len < 2 || len > ihl - i {
                    return Err(Fail::Malformed);
                }
                if kind == 148 && len == 4 {
                    raw.ip_option_router_alert = true;
                }
                options_encoded += len;
                i += len;
            }
        }
    }
    raw.protocols.insert(Protocol::Ip);
    raw.dst_ip = Some(IpAddr::V4(Ipv4Addr::new(b[16], b[17], b[18], b[19])));
    let transport_encoded = scan_transport(b[9], &b[ihl..total_len], raw)?;
    Ok(20 + options_encoded.div_ceil(4) * 4 + transport_encoded)
}

fn scan_ipv6(b: &[u8], raw: &mut RawFeatures) -> Scan<usize> {
    if b.len() < 40 {
        return Err(Fail::Malformed);
    }
    if b[0] >> 4 != 6 {
        return Err(Fail::Malformed);
    }
    let payload_len = be16(b, 4) as usize;
    let total = 40 + payload_len;
    if b.len() < total {
        return Err(Fail::Malformed);
    }
    let mut next_header = b[6];
    let mut offset = 40usize;
    let mut hbh_encoded = 0usize;
    let mut hbh_recorded = false;
    if next_header == 0 {
        // Hop-by-hop extension header.
        if b.len() < 42 {
            return Err(Fail::Malformed);
        }
        next_header = b[40];
        let ext_len = (b[41] as usize + 1) * 8;
        if b.len() < 40 + ext_len || 40 + ext_len > total {
            return Err(Fail::Malformed);
        }
        // Option walk: trailing Pad1 runs are dropped by the decoder;
        // interior Pad1s and every PadN count as padding.
        let opts = &b[42..40 + ext_len];
        let mut i = 0usize;
        let mut pad1_run = 0usize;
        while i < opts.len() {
            let kind = opts[i];
            if kind == 0 {
                pad1_run += 1;
                i += 1;
                continue;
            }
            if pad1_run > 0 {
                raw.ip_option_padding = true;
                hbh_encoded += pad1_run;
                pad1_run = 0;
            }
            if i + 2 > opts.len() {
                return Err(Fail::Malformed);
            }
            let len = opts[i + 1] as usize;
            if i + 2 + len > opts.len() {
                return Err(Fail::Malformed);
            }
            match (kind, len) {
                (1, _) => raw.ip_option_padding = true,
                (5, 2) => raw.ip_option_router_alert = true,
                _ => {}
            }
            hbh_encoded += 2 + len;
            hbh_recorded = true;
            i += 2 + len;
        }
        offset = 40 + ext_len;
    }
    let hbh_len = if hbh_recorded {
        (2 + hbh_encoded).div_ceil(8) * 8
    } else {
        0
    };
    // Fragment extension header: the decoder consumes it only for a
    // canonical atomic fragment (reserved zero, offset 0, M clear) and
    // parses the inner transport; any other fragment stays an unknown
    // protocol with the header verbatim in the raw payload. Mirror both.
    let mut frag_len = 0usize;
    if next_header == 44 && offset + 8 <= total && b[offset + 1] == 0 && be16(b, offset + 2) == 0 {
        next_header = b[offset];
        offset += 8;
        frag_len = 8;
    }
    raw.protocols.insert(Protocol::Ip);
    let dst: [u8; 16] = b[24..40].try_into().expect("16 bytes");
    raw.dst_ip = Some(IpAddr::V6(Ipv6Addr::from(dst)));
    let transport_encoded = scan_transport(next_header, &b[offset..total], raw)?;
    Ok(40 + hbh_len + frag_len + transport_encoded)
}

fn scan_transport(protocol: u8, b: &[u8], raw: &mut RawFeatures) -> Scan<usize> {
    match protocol {
        6 => {
            // TCP: the header (incl. raw options) is length-preserving.
            if b.len() < 20 {
                return Err(Fail::Malformed);
            }
            let data_offset = ((b[12] >> 4) as usize) * 4;
            if data_offset < 20 || data_offset > b.len() {
                return Err(Fail::Malformed);
            }
            raw.protocols.insert(Protocol::Tcp);
            let (src, dst) = (be16(b, 0), be16(b, 2));
            raw.src_port = Some(src);
            raw.dst_port = Some(dst);
            let app = scan_app(&b[data_offset..], src, dst, false, raw)?;
            Ok(data_offset + app)
        }
        17 => {
            // UDP: bytes past the declared length are dropped on re-encode.
            if b.len() < 8 {
                return Err(Fail::Malformed);
            }
            let length = be16(b, 4) as usize;
            if length < 8 || length > b.len() {
                return Err(Fail::Malformed);
            }
            raw.protocols.insert(Protocol::Udp);
            let (src, dst) = (be16(b, 0), be16(b, 2));
            raw.src_port = Some(src);
            raw.dst_port = Some(dst);
            let app = scan_app(&b[8..length], src, dst, true, raw)?;
            Ok(8 + app)
        }
        1 => {
            // ICMP: checksum-verified over the whole message.
            if b.len() < 8 || internet_checksum(b) != 0 {
                return Err(Fail::Malformed);
            }
            raw.protocols.insert(Protocol::Icmp);
            raw.raw_data = b.len() > 8;
            Ok(b.len())
        }
        58 => {
            if b.len() < 4 {
                return Err(Fail::Malformed);
            }
            raw.protocols.insert(Protocol::Icmpv6);
            Ok(b.len())
        }
        _ => {
            // Unknown IP protocol: kept verbatim by the decoder.
            raw.raw_data = !b.is_empty();
            Ok(b.len())
        }
    }
}

/// Port-based fallback indicators for payloads the decoder keeps as
/// `AppPayload::Raw` or `AppPayload::Empty` (mirrors `classify_app`).
fn fallback_bits(src: u16, dst: u16, udp: bool, raw: &mut RawFeatures) {
    let port_is = |p: u16| src == p || dst == p;
    let protocol = if port_is(ports::HTTP) || port_is(ports::HTTP_ALT) {
        Some(Protocol::Http)
    } else if port_is(ports::HTTPS) {
        Some(Protocol::Https)
    } else if port_is(ports::DNS) {
        Some(Protocol::Dns)
    } else if udp && port_is(ports::MDNS) {
        Some(Protocol::Mdns)
    } else if udp && port_is(ports::SSDP) {
        Some(Protocol::Ssdp)
    } else if udp && port_is(ports::NTP) {
        Some(Protocol::Ntp)
    } else if udp && (port_is(ports::DHCP_SERVER) || port_is(ports::DHCP_CLIENT)) {
        Some(Protocol::Bootp)
    } else {
        None
    };
    if let Some(p) = protocol {
        raw.protocols.insert(p);
    }
}

/// The payload stays `Raw`: non-empty, length-preserving, port bits only.
fn raw_payload(b: &[u8], src: u16, dst: u16, udp: bool, raw: &mut RawFeatures) -> Scan<usize> {
    raw.raw_data = !b.is_empty();
    fallback_bits(src, dst, udp, raw);
    Ok(b.len())
}

fn scan_app(b: &[u8], src: u16, dst: u16, udp: bool, raw: &mut RawFeatures) -> Scan<usize> {
    let port_is = |p: u16| src == p || dst == p;
    if b.is_empty() {
        fallback_bits(src, dst, udp, raw);
        return Ok(0);
    }
    if port_is(ports::DHCP_SERVER) || port_is(ports::DHCP_CLIENT) {
        match scan_dhcp(b) {
            Some((encoded, is_dhcp)) => {
                raw.protocols.insert(Protocol::Bootp);
                if is_dhcp {
                    raw.protocols.insert(Protocol::Dhcp);
                }
                Ok(encoded)
            }
            None => raw_payload(b, src, dst, udp, raw),
        }
    } else if port_is(ports::DNS) || port_is(ports::MDNS) {
        match scan_dns(b) {
            DnsScan::Canonical(encoded) => {
                if udp && port_is(ports::MDNS) {
                    raw.protocols.insert(Protocol::Mdns);
                } else {
                    raw.protocols.insert(Protocol::Dns);
                }
                Ok(encoded)
            }
            DnsScan::ParseFails => raw_payload(b, src, dst, udp, raw),
            DnsScan::NeedsDecode => Err(Fail::NeedsDecode),
        }
    } else if port_is(ports::SSDP) || port_is(ports::HTTP) || port_is(ports::HTTP_ALT) {
        match scan_http(b) {
            HttpScan::Canonical => {
                if udp && port_is(ports::SSDP) {
                    raw.protocols.insert(Protocol::Ssdp);
                } else {
                    raw.protocols.insert(Protocol::Http);
                }
                Ok(b.len())
            }
            HttpScan::ParseFails => raw_payload(b, src, dst, udp, raw),
            HttpScan::NeedsDecode => Err(Fail::NeedsDecode),
        }
    } else if port_is(ports::HTTPS) {
        match scan_tls(b) {
            Some(encoded) => {
                raw.protocols.insert(Protocol::Https);
                Ok(encoded)
            }
            None => raw_payload(b, src, dst, udp, raw),
        }
    } else if port_is(ports::NTP) {
        if b.len() >= 48 && matches!((b[0] >> 3) & 0x7, 1..=4) {
            raw.protocols.insert(Protocol::Ntp);
            Ok(48) // everything past the fixed packet is dropped
        } else {
            raw_payload(b, src, dst, udp, raw)
        }
    } else if looks_like_tls(b) {
        // Opportunistic TLS sniff: the declared record length matches the
        // payload exactly, so the parse always succeeds length-preserving.
        raw.protocols.insert(Protocol::Https);
        Ok(b.len())
    } else {
        raw_payload(b, src, dst, udp, raw)
    }
}

/// Mirror of `packet::looks_like_tls`.
fn looks_like_tls(b: &[u8]) -> bool {
    b.len() >= 5
        && (20..=23).contains(&b[0])
        && b[1] == 3
        && b[2] <= 4
        && 5 + be16(b, 3) as usize == b.len()
}

/// TLS record on port 443: `Some(re-encoded length)` when the record
/// parses (trailing bytes dropped), `None` when it stays `Raw`.
fn scan_tls(b: &[u8]) -> Option<usize> {
    if b.len() < 5 {
        return None;
    }
    let declared = be16(b, 3) as usize;
    if 5 + declared > b.len() {
        return None;
    }
    Some(5 + declared)
}

/// BOOTP/DHCP: `Some((re-encoded length, is_dhcp))` when the message
/// parses, `None` when the decoder would fall back to `Raw`.
fn scan_dhcp(b: &[u8]) -> Option<(usize, bool)> {
    const MAGIC_COOKIE: [u8; 4] = [99, 130, 83, 99];
    if b.len() < 236 {
        return None;
    }
    if !(b[0] == 1 || b[0] == 2) || b[1] != 1 || b[2] != 6 {
        return None;
    }
    if b.len() < 240 || b[236..240] != MAGIC_COOKIE {
        return Some((236, false)); // plain BOOTP, options dropped
    }
    let mut encoded = 240usize;
    let mut i = 240usize;
    while i < b.len() {
        let code = b[i];
        if code == 255 {
            break; // END: everything after it is dropped
        }
        if code == 0 {
            i += 1; // PAD bytes are skipped and not re-encoded
            continue;
        }
        if i + 2 > b.len() {
            return None;
        }
        let len = b[i + 1] as usize;
        if i + 2 + len > b.len() {
            return None;
        }
        let data = &b[i + 2..i + 2 + len];
        let valid = match code {
            53 => len == 1 && (1..=8).contains(&data[0]),
            50 | 54 => len == 4,
            12 | 60 => std::str::from_utf8(data).is_ok(),
            57 => len == 2,
            _ => true,
        };
        if !valid {
            return None;
        }
        encoded += 2 + len;
        i += 2 + len;
    }
    Some((encoded + 1, true)) // the encoder always appends END
}

/// Outcome of the strict DNS walk.
enum DnsScan {
    /// Parses and re-encodes to exactly this many bytes.
    Canonical(usize),
    /// The decoder would fall back to `AppPayload::Raw`.
    ParseFails,
    /// Valid-but-non-canonical structure (e.g. name compression).
    NeedsDecode,
}

/// Outcome of one strict (pointer-free) DNS name walk.
enum NameScan {
    /// Name ends; next read position follows the terminator.
    Ok(usize),
    /// Compression pointer or dotted label: decode to resolve.
    NeedsDecode,
    /// The decoder's name parser would fail too.
    Fail,
}

fn scan_dns_name(b: &[u8], mut off: usize) -> NameScan {
    loop {
        let Some(&len) = b.get(off) else {
            return NameScan::Fail;
        };
        if len == 0 {
            return NameScan::Ok(off + 1);
        }
        if len & 0xc0 == 0xc0 {
            return NameScan::NeedsDecode; // compression pointer
        }
        if len >= 64 {
            return NameScan::Fail; // 0x40..=0xbf label kinds are invalid
        }
        let end = off + 1 + len as usize;
        let Some(label) = b.get(off + 1..end) else {
            return NameScan::Fail;
        };
        match std::str::from_utf8(label) {
            Ok(text) if text.contains('.') => return NameScan::NeedsDecode,
            Ok(_) => {}
            Err(_) => return NameScan::Fail,
        }
        off = end;
    }
}

fn scan_dns(b: &[u8]) -> DnsScan {
    if b.len() < 12 {
        return DnsScan::ParseFails;
    }
    let questions = be16(b, 4);
    let records = u32::from(be16(b, 6)) + u32::from(be16(b, 8)) + u32::from(be16(b, 10));
    let mut off = 12usize;
    for _ in 0..questions {
        off = match scan_dns_name(b, off) {
            NameScan::Ok(next) => next,
            NameScan::NeedsDecode => return DnsScan::NeedsDecode,
            NameScan::Fail => return DnsScan::ParseFails,
        };
        if b.len() < off + 4 {
            return DnsScan::ParseFails;
        }
        off += 4; // qtype + qclass (length-preserving)
    }
    for _ in 0..records {
        off = match scan_dns_name(b, off) {
            NameScan::Ok(next) => next,
            NameScan::NeedsDecode => return DnsScan::NeedsDecode,
            NameScan::Fail => return DnsScan::ParseFails,
        };
        if b.len() < off + 10 {
            return DnsScan::ParseFails;
        }
        let rtype = be16(b, off);
        let rdlen = be16(b, off + 8) as usize;
        off += 10;
        if b.len() < off + rdlen {
            return DnsScan::ParseFails;
        }
        match rtype {
            12 => {
                // PTR rdata is re-parsed as a name and re-encoded from it:
                // only a strict walk consuming exactly rdlen is canonical.
                match scan_dns_name(b, off) {
                    NameScan::Ok(end) if end == off + rdlen => {}
                    NameScan::Ok(_) | NameScan::NeedsDecode => return DnsScan::NeedsDecode,
                    NameScan::Fail => return DnsScan::ParseFails,
                }
            }
            16 => {
                // TXT: length-prefixed UTF-8 strings, length-preserving.
                let rdata = &b[off..off + rdlen];
                let mut i = 0usize;
                while i < rdata.len() {
                    let len = rdata[i] as usize;
                    if i + 1 + len > rdata.len() {
                        return DnsScan::ParseFails;
                    }
                    if std::str::from_utf8(&rdata[i + 1..i + 1 + len]).is_err() {
                        return DnsScan::ParseFails;
                    }
                    i += 1 + len;
                }
            }
            _ => {} // A/AAAA and raw rdata are length-preserving
        }
        off += rdlen;
    }
    DnsScan::Canonical(off) // trailing bytes are dropped on re-encode
}

/// Outcome of the HTTP canonicality check.
enum HttpScan {
    /// Parses and re-encodes byte-length-identically.
    Canonical,
    /// The decoder would fall back to `AppPayload::Raw`.
    ParseFails,
    /// Parses, but re-encoding would change the length (e.g. collapsed
    /// whitespace or a non-minimal status code).
    NeedsDecode,
}

fn decimal_len(v: u16) -> usize {
    match v {
        0..=9 => 1,
        10..=99 => 2,
        100..=999 => 3,
        1000..=9999 => 4,
        _ => 5,
    }
}

fn scan_http(b: &[u8]) -> HttpScan {
    let Some(head_end) = b.windows(4).position(|w| w == b"\r\n\r\n") else {
        return HttpScan::ParseFails;
    };
    let Ok(head) = std::str::from_utf8(&b[..head_end]) else {
        return HttpScan::ParseFails;
    };
    let mut lines = head.split("\r\n");
    let start = lines.next().unwrap_or("");
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return HttpScan::ParseFails;
        };
        // Headers re-encode as `name: value` with both sides trimmed.
        if line.len() != name.trim().len() + 2 + value.trim().len() {
            return HttpScan::NeedsDecode;
        }
    }
    if let Some(rest) = start
        .strip_prefix("HTTP/1.1 ")
        .or_else(|| start.strip_prefix("HTTP/1.0 "))
    {
        let (code, _reason) = rest.split_once(' ').unwrap_or((rest, ""));
        if code.parse::<u16>().is_err() {
            return HttpScan::ParseFails;
        }
        if rest.split_once(' ').is_none() {
            // Re-encoding appends a space before the (empty) reason.
            return HttpScan::NeedsDecode;
        }
        let status: u16 = code.parse().expect("checked above");
        if code.len() != decimal_len(status) {
            return HttpScan::NeedsDecode; // e.g. leading zeros
        }
        HttpScan::Canonical
    } else {
        let mut tokens = start.split(' ');
        let (Some(method), Some(target), Some(version)) =
            (tokens.next(), tokens.next(), tokens.next())
        else {
            return HttpScan::ParseFails;
        };
        if !version.starts_with("HTTP/") {
            return HttpScan::ParseFails;
        }
        // Request lines re-encode as `method target HTTP/1.1`.
        if start.len() != method.len() + target.len() + 10 {
            return HttpScan::NeedsDecode;
        }
        HttpScan::Canonical
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{AppPayload, Packet};
    use bytes::Bytes;

    fn mac(n: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, n])
    }

    fn assert_certified(packet: &Packet) {
        let frame = packet.encode();
        match WireScan::scan(&frame) {
            ScanOutcome::Features(raw) => {
                assert_eq!(raw, RawFeatures::from_packet(packet), "frame {frame:?}")
            }
            other => panic!("canonical frame not certified: {other:?}"),
        }
    }

    #[test]
    fn canonical_constructor_frames_certify() {
        let m = mac(1);
        let gw = mac(2);
        let ip = std::net::Ipv4Addr::new(10, 0, 0, 7);
        let peer = std::net::Ipv4Addr::new(93, 184, 216, 34);
        assert_certified(&Packet::dhcp_discover(m, 77, 1_000));
        assert_certified(&Packet::arp_probe(Timestamp::from_micros(2_000), m, ip));
        assert_certified(&Packet::eapol_key(Timestamp::from_micros(3_000), m, gw, 1));
        assert_certified(&Packet::tcp_syn(
            Timestamp::from_micros(4_000),
            m,
            gw,
            ip,
            peer,
            49_152,
            ports::HTTPS,
        ));
        assert_certified(&Packet::udp_ipv4(
            Timestamp::from_micros(5_000),
            m,
            gw,
            ip,
            peer,
            49_153,
            ports::NTP,
            AppPayload::Raw(Bytes::copy_from_slice(&[0u8; 48])),
        ));
    }

    #[test]
    fn truncated_prefixes_never_certify_wrongly() {
        let frame = Packet::dhcp_discover(mac(3), 9, 0).encode();
        for cut in 0..frame.len() {
            let prefix = &frame[..cut];
            match WireScan::scan(prefix) {
                ScanOutcome::Features(raw) => {
                    let packet = Packet::parse(prefix, Timestamp::ZERO)
                        .expect("certified prefix must decode");
                    assert_eq!(raw, RawFeatures::from_packet(&packet));
                }
                ScanOutcome::Malformed => {
                    assert!(Packet::parse(prefix, Timestamp::ZERO).is_err());
                }
                ScanOutcome::NeedsDecode => {}
            }
        }
    }

    #[test]
    fn from_frame_matches_decode_on_malformed_input() {
        let garbage = [0xffu8; 13];
        assert!(RawFeatures::from_frame(&garbage).is_err());
        assert!(Packet::parse(&garbage, Timestamp::ZERO).is_err());
    }

    #[test]
    fn compressed_dns_needs_decode() {
        // A DNS response whose answer name is a compression pointer.
        let mut payload = vec![0u8; 12];
        payload[5] = 1; // one question
        payload[7] = 1; // one answer
        payload.extend_from_slice(&[3, b'f', b'o', b'o', 0]); // question name
        payload.extend_from_slice(&[0, 1, 0, 1]); // qtype/qclass
        payload.extend_from_slice(&[0xc0, 12]); // answer name: pointer
        payload.extend_from_slice(&[0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 2, 3, 4]);
        let total = payload.len();
        let packet = Packet::udp_ipv4(
            Timestamp::ZERO,
            mac(4),
            mac(5),
            std::net::Ipv4Addr::new(10, 0, 0, 1),
            std::net::Ipv4Addr::new(10, 0, 0, 2),
            ports::DNS,
            49_000,
            AppPayload::Raw(Bytes::copy_from_slice(&payload)),
        );
        let mut frame = packet.encode();
        assert_eq!(&frame[frame.len() - total..], &payload[..]);
        assert_eq!(WireScan::scan(&frame), ScanOutcome::NeedsDecode);
        // The fallback path still agrees with the decoder.
        let via_scan = RawFeatures::from_frame(&frame).expect("valid frame");
        let decoded = Packet::parse(&frame, Timestamp::ZERO).expect("valid frame");
        assert_eq!(via_scan, RawFeatures::from_packet(&decoded));
        // Corrupting the IPv4 checksum makes the frame malformed.
        frame[25] ^= 0xff;
        assert_eq!(WireScan::scan(&frame), ScanOutcome::Malformed);
        assert!(Packet::parse(&frame, Timestamp::ZERO).is_err());
    }
}
