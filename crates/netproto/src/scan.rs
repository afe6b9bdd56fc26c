//! Zero-copy single-pass wire scan for feature extraction.
//!
//! [`WireScan::scan`] walks one Ethernet frame **in place** — no `Bytes`
//! copies, no owned header structs, no payload buffers — and emits the
//! tiny [`RawFeatures`] record that Table I of the paper actually needs:
//! protocol-presence flags, the two IP-option flags, the re-encoded
//! packet size, the raw-data flag, destination IP and the port pair.
//!
//! # One walk, two consumers
//!
//! The scanner owns no wire layout. Every validity rule and every offset
//! lives in the codec module of the header it describes, as a
//! non-allocating `check` (fixed part) or closure-taking walker
//! (options, names, header fields) that the module's owning `parse` is
//! itself written over; this module only strings those checks together
//! in the order [`Packet::parse`] does and sums what they report. So the
//! scanner is *total*: it has two verdicts, and on every frame
//!
//! * [`ScanOutcome::Features`] carries exactly
//!   `RawFeatures::from_packet(&Packet::parse(frame)?)`, and
//! * [`ScanOutcome::Malformed`] means `Packet::parse` rejects the frame —
//!   [`RawFeatures::from_frame`] returns the decoder's own error value.
//!
//! Nothing on this path allocates, for any input: not a certified frame,
//! not a payload that falls back to raw bytes, not a rejected frame (the
//! errors carry `&'static str` reasons). The differential property tests
//! in `tests/scan_equivalence.rs` hold the equivalence, `tests/alloc_scan.rs`
//! the allocation count.
//!
//! The subtle part is `packet_size`: the decode path reports
//! `Packet::wire_len()`, the length the decoded packet *re-encodes* to,
//! which drops trailing garbage and padding options, writes DNS names
//! uncompressed from their labels and HTTP heads from their trimmed
//! pieces. Both sides reach that number by the same arithmetic and
//! neither encodes anything: `wire_len()` sums the lengths each decoded
//! layer knows about itself, and the scanner sums the same terms — from
//! the same functions — while walking, instead of trusting `frame.len()`.

use std::net::IpAddr;

use crate::arp::{self, ArpPacket};
use crate::classify::{app_protocol, Protocol, ProtocolSet};
use crate::error::ParseError;
use crate::ethernet::{self, EtherType, EthernetHeader};
use crate::ipv4::{self, IpProtocol};
use crate::llc::{self, LlcHeader};
use crate::mac::MacAddr;
use crate::ntp::{self, NtpPacket};
use crate::packet::{AppCodec, Packet};
use crate::udp::{self, UdpHeader};
use crate::{dhcp, dns, eapol, http, icmp, icmpv6, ipv6, tcp, tls};

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
    /// Derives the same record from a fully decoded packet: the
    /// reference the scanner is held to, and the way in for callers that
    /// already hold a [`Packet`].
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

    /// Extracts features from a raw frame by the wire scan alone — the
    /// owning decoder never runs, and nothing is allocated.
    ///
    /// # Errors
    ///
    /// Errors exactly when `Packet::parse` errors, with its error.
    pub fn from_frame(frame: &[u8]) -> Result<Self, ParseError> {
        scan_frame(frame)
    }
}

/// The scanner's verdict on one frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOutcome {
    /// The frame is valid; these are exactly the features the decode
    /// path would produce.
    Features(RawFeatures),
    /// `Packet::parse` would reject this frame.
    Malformed,
}

/// Zero-copy frame scanner (see the module docs).
#[derive(Debug, Clone, Copy, Default)]
pub struct WireScan;

impl WireScan {
    /// Scans one Ethernet frame without allocating.
    pub fn scan(frame: &[u8]) -> ScanOutcome {
        match scan_frame(frame) {
            Ok(raw) => ScanOutcome::Features(raw),
            Err(_) => ScanOutcome::Malformed,
        }
    }
}

/// The walk behind both entry points: each layer's own check, in the
/// order `Packet::parse` applies them (so the first error is its error),
/// summing the length each layer re-encodes to.
fn scan_frame(frame: &[u8]) -> Result<RawFeatures, ParseError> {
    let (eth, body) = EthernetHeader::parse(frame)?;
    let mut raw = RawFeatures {
        protocols: ProtocolSet::new(),
        ip_option_padding: false,
        ip_option_router_alert: false,
        packet_size: 0,
        raw_data: false,
        dst_ip: None,
        src_port: None,
        dst_port: None,
        src_mac: eth.src,
        dst_mac: eth.dst,
    };
    let body_len = match eth.ethertype {
        EtherType::Arp => {
            ArpPacket::parse(body)?;
            raw.protocols.insert(Protocol::Arp);
            arp::PACKET_LEN // trailing bytes are dropped on re-encode
        }
        EtherType::Eapol => {
            raw.protocols.insert(Protocol::Eapol);
            eapol::check(body)?
        }
        EtherType::Length(_) => {
            LlcHeader::parse(body)?;
            raw.protocols.insert(Protocol::Llc);
            raw.raw_data = body.len() > llc::HEADER_LEN;
            body.len()
        }
        EtherType::Ipv4 => {
            let (ihl, total_len) = ipv4::check(body)?;
            let options = ipv4::scan_options(&body[..ihl])?;
            let dst = IpAddr::V4(ipv4::dst(body));
            let payload = &body[ihl..total_len];
            scan_ip(options, dst, ipv4::protocol(body), payload, &mut raw)?
        }
        EtherType::Ipv6 => {
            let (protocol, hbh_options, atomic_fragment, payload) = ipv6::check(body)?;
            let options = ipv6::scan_options(hbh_options, atomic_fragment)?;
            let dst = IpAddr::V6(ipv6::dst(body));
            scan_ip(options, dst, protocol, payload, &mut raw)?
        }
        EtherType::Other(_) => {
            // Unknown ethertype: the decoder keeps the body verbatim.
            raw.raw_data = !body.is_empty();
            body.len()
        }
    };
    raw.packet_size = (ethernet::HEADER_LEN + body_len) as u32;
    Ok(raw)
}

/// The part of an IP datagram both versions share, given what the
/// version's `scan_options` read off its header: `(re-encoded header
/// length, padding seen, router alert seen)`.
fn scan_ip(
    (header_len, padding, router_alert): (usize, bool, bool),
    dst: IpAddr,
    protocol: IpProtocol,
    payload: &[u8],
    raw: &mut RawFeatures,
) -> Result<usize, ParseError> {
    raw.protocols.insert(Protocol::Ip);
    raw.ip_option_padding = padding;
    raw.ip_option_router_alert = router_alert;
    raw.dst_ip = Some(dst);
    Ok(header_len + scan_transport(protocol, payload, raw)?)
}

fn scan_transport(
    protocol: IpProtocol,
    b: &[u8],
    raw: &mut RawFeatures,
) -> Result<usize, ParseError> {
    Ok(match protocol {
        IpProtocol::Tcp => {
            let (src, dst, data_offset) = tcp::check(b)?;
            raw.protocols.insert(Protocol::Tcp);
            data_offset + scan_app(&b[data_offset..], (src, dst), false, raw)
        }
        IpProtocol::Udp => {
            // The payload ends at the declared length; bytes past it are
            // dropped on re-encode.
            let (header, payload) = UdpHeader::parse(b)?;
            raw.protocols.insert(Protocol::Udp);
            let ports = (header.src_port, header.dst_port);
            udp::HEADER_LEN + scan_app(payload, ports, true, raw)
        }
        IpProtocol::Icmp => {
            icmp::check(b)?;
            raw.protocols.insert(Protocol::Icmp);
            raw.raw_data = b.len() > icmp::HEADER_LEN;
            b.len()
        }
        IpProtocol::Icmpv6 => {
            icmpv6::check(b)?;
            raw.protocols.insert(Protocol::Icmpv6);
            b.len()
        }
        _ => {
            // Unknown IP protocol: kept verbatim by the decoder.
            raw.raw_data = !b.is_empty();
            b.len()
        }
    })
}

/// A TCP/UDP payload: the length it re-encodes to under the codec that
/// accepts it — or its own length, flagged as raw data when there is
/// any, under none (`AppPayload::parse`'s fallback, never an error).
fn scan_app(b: &[u8], ports: (u16, u16), udp: bool, raw: &mut RawFeatures) -> usize {
    (raw.src_port, raw.dst_port) = (Some(ports.0), Some(ports.1));
    let parsed = if b.is_empty() {
        None
    } else {
        scan_codec(b, ports, raw)
    };
    raw.raw_data = parsed.is_none() && !b.is_empty();
    let codec = parsed.map(|(codec, _)| codec);
    raw.protocols.extend(app_protocol(codec, ports, udp));
    parsed.map_or(b.len(), |(_, len)| len)
}

/// The codec [`AppCodec::select`] names for a non-empty payload and the
/// length the payload re-encodes to under it; `None` when no codec is
/// named or the named one rejects the payload.
fn scan_codec(b: &[u8], ports: (u16, u16), raw: &mut RawFeatures) -> Option<(AppCodec, usize)> {
    let codec = AppCodec::select(b, ports.0, ports.1)?;
    let len = match codec {
        AppCodec::Dhcp => {
            let (len, is_dhcp) = dhcp::scan(b).ok()?;
            if is_dhcp {
                raw.protocols.insert(Protocol::Dhcp);
            }
            len
        }
        AppCodec::Dns => dns::encoded_len(b).ok()?,
        AppCodec::Http => http::encoded_len(b).ok()?,
        AppCodec::Tls => tls::check(b).ok()?,
        // Everything past the fixed packet is dropped on re-encode.
        AppCodec::Ntp => NtpPacket::parse(b).ok().map(|_| ntp::PACKET_LEN)?,
    };
    Some((codec, len))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::AppPayload;
    use crate::{ports, Timestamp};
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
            }
        }
    }

    #[test]
    fn from_frame_matches_decode_on_malformed_input() {
        let garbage = [0xffu8; 13];
        assert_eq!(
            RawFeatures::from_frame(&garbage).unwrap_err(),
            Packet::parse(&garbage, Timestamp::ZERO).unwrap_err()
        );
    }

    #[test]
    fn compressed_dns_certifies_to_the_decoded_features() {
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
        // The scanner follows the pointer itself: the answer's name
        // re-encodes uncompressed, three bytes longer than it arrived.
        let decoded = Packet::parse(&frame, Timestamp::ZERO).expect("valid frame");
        assert!(matches!(
            decoded.transport().and_then(|t| t.app_payload()),
            Some(AppPayload::Dns(_))
        ));
        assert_eq!(decoded.wire_len(), frame.len() + 3);
        let expected = RawFeatures::from_packet(&decoded);
        assert_eq!(WireScan::scan(&frame), ScanOutcome::Features(expected));
        assert_eq!(RawFeatures::from_frame(&frame), Ok(expected));
        // Corrupting the IPv4 checksum makes the frame malformed.
        frame[25] ^= 0xff;
        assert_eq!(WireScan::scan(&frame), ScanOutcome::Malformed);
        assert_eq!(
            RawFeatures::from_frame(&frame).unwrap_err(),
            Packet::parse(&frame, Timestamp::ZERO).unwrap_err()
        );
    }
}
