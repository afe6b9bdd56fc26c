//! Differential property tests: the zero-copy wire scanner must be
//! indistinguishable from the full decoder for feature extraction.
//!
//! The contract (see `sentinel_netproto::scan`):
//!   * `ScanOutcome::Features(raw)` ⇒ `Packet::parse` succeeds and
//!     derives exactly `raw` — on *any* input, canonical or not.
//!   * `ScanOutcome::Malformed` ⇒ `Packet::parse` fails.
//!   * `ScanOutcome::NeedsDecode` carries no claim; the fallback in
//!     `RawFeatures::from_frame` must still agree with the decoder.
//!   * Nothing ever panics, on garbage, truncations or bit flips.

use proptest::prelude::*;

use sentinel_netproto::dhcp::DhcpMessage;
use sentinel_netproto::dns::{DnsMessage, Question};
use sentinel_netproto::http::HttpMessage;
use sentinel_netproto::icmp::IcmpMessage;
use sentinel_netproto::icmpv6::Icmpv6Message;
use sentinel_netproto::ipv4::{IpProtocol, Ipv4Header, Ipv4Option};
use sentinel_netproto::ipv6::{HopByHopOption, Ipv6Header};
use sentinel_netproto::llc::LlcHeader;
use sentinel_netproto::ntp::NtpPacket;
use sentinel_netproto::tcp::{TcpFlags, TcpHeader};
use sentinel_netproto::tls::TlsRecord;
use sentinel_netproto::{
    AppPayload, MacAddr, Packet, PacketBody, RawFeatures, ScanOutcome, Timestamp, Transport,
    WireScan,
};

/// The differential invariant, checked on arbitrary bytes.
fn check_equivalence(frame: &[u8]) {
    let decoded = Packet::parse(frame, Timestamp::ZERO);
    if let Ok(packet) = &decoded {
        // `packet_size` is this length; it is computed, never measured.
        assert_eq!(packet.wire_len(), packet.encode().len(), "on {frame:02x?}");
    }
    match WireScan::scan(frame) {
        ScanOutcome::Features(raw) => {
            let packet = decoded.as_ref().unwrap_or_else(|e| {
                panic!("scan certified a frame the decoder rejects ({e}): {frame:02x?}")
            });
            assert_eq!(raw, RawFeatures::from_packet(packet), "on {frame:02x?}");
        }
        ScanOutcome::Malformed => {
            assert!(
                decoded.is_err(),
                "scan said malformed but the decoder accepted: {frame:02x?}"
            );
        }
        ScanOutcome::NeedsDecode => {}
    }
    // The public entry point must agree with the decoder in all cases.
    match (RawFeatures::from_frame(frame), decoded) {
        (Ok(raw), Ok(packet)) => {
            assert_eq!(raw, RawFeatures::from_packet(&packet), "on {frame:02x?}")
        }
        (Err(_), Err(_)) => {}
        (scan, decode) => {
            panic!("from_frame {scan:?} disagrees with decode {decode:?} on {frame:02x?}")
        }
    }
}

fn mac(n: u8) -> MacAddr {
    MacAddr::new([0x02, 0x42, 0, 0, 0, n])
}

fn v4(a: u8) -> std::net::Ipv4Addr {
    std::net::Ipv4Addr::new(10, 0, 0, a)
}

fn v6(a: u8) -> std::net::Ipv6Addr {
    std::net::Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, u16::from(a))
}

/// One canonical frame per scanner code path: every link/network/
/// transport/application branch is covered, including both IP option
/// features and the IPv6 hop-by-hop walk.
fn corpus() -> Vec<Packet> {
    let ts = Timestamp::from_micros(1_000);
    let mut packets = vec![
        Packet::dhcp_discover(mac(1), 0xdead_beef, 1_000),
        Packet::arp_probe(ts, mac(2), v4(9)),
        Packet::eapol_key(ts, mac(3), mac(0xfe), 2),
        Packet::tcp_syn(ts, mac(4), mac(0xfe), v4(4), v4(1), 49_200, 443),
        Packet::new(
            ts,
            mac(5),
            mac(0xfe),
            PacketBody::Llc {
                header: LlcHeader::unnumbered(0x42),
                payload: vec![1, 2, 3].into(),
            },
        ),
        Packet::new(
            ts,
            mac(6),
            mac(0xfe),
            PacketBody::Other {
                ethertype: 0x9100,
                payload: vec![9, 9, 9].into(),
            },
        ),
        // ICMP echo and an unknown IP protocol (IGMP-like).
        Packet::new(
            ts,
            mac(7),
            mac(0xfe),
            PacketBody::Ipv4 {
                header: Ipv4Header::new(v4(7), v4(1), IpProtocol::Icmp),
                transport: Transport::Icmp(IcmpMessage::echo_request(7, 1, vec![0xaa; 12])),
            },
        ),
        Packet::new(
            ts,
            mac(8),
            mac(0xfe),
            PacketBody::Ipv4 {
                header: Ipv4Header::new(v4(8), v4(1), IpProtocol::Igmp),
                transport: Transport::Other {
                    protocol: 2,
                    payload: vec![0x11; 8].into(),
                },
            },
        ),
        // IPv4 options: router alert and padding.
        Packet::new(
            ts,
            mac(9),
            mac(0xfe),
            PacketBody::Ipv4 {
                header: Ipv4Header::new(v4(9), v4(1), IpProtocol::Udp)
                    .with_option(Ipv4Option::RouterAlert(0))
                    .with_option(Ipv4Option::Nop),
                transport: Transport::Udp {
                    header: sentinel_netproto::udp::UdpHeader::new(5353, 5353),
                    payload: AppPayload::Dns(DnsMessage::query(7, [Question::a("cast.local")])),
                },
            },
        ),
        // IPv6 with hop-by-hop router alert, carrying ICMPv6 (MLD).
        Packet::new(
            ts,
            mac(10),
            mac(0xfe),
            PacketBody::Ipv6 {
                header: Ipv6Header::new(v6(10), v6(1), IpProtocol::Icmpv6)
                    .with_hop_by_hop(HopByHopOption::RouterAlert(0)),
                transport: Transport::Icmpv6(Icmpv6Message::mld2_report(1)),
            },
        ),
        // IPv6 UDP DNS without extension headers.
        Packet::new(
            ts,
            mac(11),
            mac(0xfe),
            PacketBody::Ipv6 {
                header: Ipv6Header::new(v6(11), v6(1), IpProtocol::Udp),
                transport: Transport::Udp {
                    header: sentinel_netproto::udp::UdpHeader::new(49_001, 53),
                    payload: AppPayload::Dns(DnsMessage::query(8, [Question::a("example.com")])),
                },
            },
        ),
        // IPv6 atomic fragment (RFC 6946) carrying TCP/TLS.
        Packet::new(
            ts,
            mac(15),
            mac(0xfe),
            PacketBody::Ipv6 {
                header: Ipv6Header::new(v6(15), v6(1), IpProtocol::Tcp)
                    .with_atomic_fragment(0x6001_cafe),
                transport: Transport::Tcp {
                    header: TcpHeader::new(49_500, 443, TcpFlags::PSH | TcpFlags::ACK),
                    payload: AppPayload::Tls(TlsRecord::client_hello(48)),
                },
            },
        ),
        // IPv6 hop-by-hop + atomic fragment chained before UDP.
        Packet::new(
            ts,
            mac(16),
            mac(0xfe),
            PacketBody::Ipv6 {
                header: Ipv6Header::new(v6(16), v6(1), IpProtocol::Udp)
                    .with_hop_by_hop(HopByHopOption::RouterAlert(0))
                    .with_hop_by_hop(HopByHopOption::PadN(0))
                    .with_atomic_fragment(7),
                transport: Transport::Udp {
                    header: sentinel_netproto::udp::UdpHeader::new(5353, 5353),
                    payload: AppPayload::Dns(DnsMessage::query(9, [Question::a("frag.local")])),
                },
            },
        ),
    ];
    // TCP application payloads: HTTP, TLS on 443, TLS by sniff, NTP, raw.
    for (sport, dport, payload) in [
        (
            49_300u16,
            80u16,
            AppPayload::Http(HttpMessage::get("host.example", "/index")),
        ),
        (49_301, 443, AppPayload::Tls(TlsRecord::client_hello(64))),
        (49_302, 49_303, AppPayload::Tls(TlsRecord::client_hello(32))),
        (123, 123, AppPayload::Ntp(NtpPacket::client_request(42))),
        (49_304, 49_305, AppPayload::Raw(vec![0x80; 24].into())),
        (49_306, 49_307, AppPayload::Empty),
    ] {
        packets.push(Packet::new(
            ts,
            mac(12),
            mac(0xfe),
            PacketBody::Ipv4 {
                header: Ipv4Header::new(v4(12), v4(1), IpProtocol::Tcp),
                transport: Transport::Tcp {
                    header: TcpHeader::new(sport, dport, TcpFlags::PSH | TcpFlags::ACK),
                    payload,
                },
            },
        ));
    }
    // SSDP over UDP 1900 and a BOOTP reply without the DHCP cookie path.
    packets.push(Packet::udp_ipv4(
        ts,
        mac(13),
        mac(0xfe),
        v4(13),
        v4(255),
        49_400,
        1900,
        AppPayload::Http(HttpMessage::get("239.255.255.250:1900", "*")),
    ));
    packets.push(Packet::udp_ipv4(
        ts,
        mac(14),
        mac(0xfe),
        v4(14),
        v4(255),
        67,
        68,
        AppPayload::Dhcp(DhcpMessage::discover(mac(14), 7)),
    ));
    packets
}

#[test]
fn corpus_frames_certify_and_match() {
    for packet in corpus() {
        let frame = packet.encode();
        match WireScan::scan(&frame) {
            ScanOutcome::Features(raw) => {
                assert_eq!(
                    raw,
                    RawFeatures::from_packet(&packet),
                    "feature mismatch for {packet:?}"
                );
            }
            other => panic!("canonical frame not certified ({other:?}) for {packet:?}"),
        }
    }
}

#[test]
fn corpus_truncations_at_every_boundary() {
    for packet in corpus() {
        let frame = packet.encode();
        for cut in 0..frame.len() {
            check_equivalence(&frame[..cut]);
        }
    }
}

#[test]
fn corpus_trailing_garbage() {
    for packet in corpus() {
        let mut frame = packet.encode();
        frame.extend_from_slice(&[0xfb; 7]);
        check_equivalence(&frame);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn random_generated_frames_certify(
        index in (0usize..corpus().len()),
        extra in proptest::collection::vec(any::<u8>(), 0..16),
    ) {
        // Canonical frame: must certify without falling back.
        let packet = corpus().swap_remove(index);
        let frame = packet.encode();
        prop_assert!(matches!(WireScan::scan(&frame), ScanOutcome::Features(_)));
        check_equivalence(&frame);
        // With trailing garbage it may fall back, but never disagree.
        let mut extended = frame.clone();
        extended.extend_from_slice(&extra);
        check_equivalence(&extended);
    }

    #[test]
    fn random_garbage_never_panics_or_disagrees(
        bytes in proptest::collection::vec(any::<u8>(), 0..300)
    ) {
        check_equivalence(&bytes);
    }

    #[test]
    fn bit_flips_never_disagree(
        index in (0usize..corpus().len()),
        flips in proptest::collection::vec((any::<usize>(), 0u8..8), 1..6),
    ) {
        let packet = corpus().swap_remove(index);
        let mut frame = packet.encode();
        for (pos, bit) in flips {
            let at = pos % frame.len();
            frame[at] ^= 1 << bit;
        }
        check_equivalence(&frame);
    }

    #[test]
    fn tcp_option_layouts_certify(
        options in proptest::collection::vec(any::<u8>(), 0..=40),
        sport in 1024u16..65535,
        dport in prop_oneof![Just(80u16), Just(443u16), Just(123u16), 1024u16..65535],
        payload_len in 0usize..32,
    ) {
        // Arbitrary option bytes — MSS/SACK/timestamps, NOP runs, EOL,
        // unknown kinds, unaligned lengths — are length-preserving on the
        // wire, so every layout must certify and agree with the decoder.
        let mut header = TcpHeader::new(sport, dport, TcpFlags::PSH | TcpFlags::ACK);
        header.options = options;
        let packet = Packet::new(
            Timestamp::ZERO,
            mac(20),
            mac(0xfe),
            PacketBody::Ipv4 {
                header: Ipv4Header::new(v4(20), v4(1), IpProtocol::Tcp),
                transport: Transport::Tcp {
                    header,
                    payload: AppPayload::Raw(vec![0x55; payload_len].into()),
                },
            },
        );
        let frame = packet.encode();
        prop_assert!(
            matches!(WireScan::scan(&frame), ScanOutcome::Features(_)),
            "canonical TCP option layout not certified"
        );
        check_equivalence(&frame);
    }

    #[test]
    fn ipv6_fragment_headers_never_disagree(
        reserved in any::<u8>(),
        offset_flags in any::<u16>(),
        ident in any::<u32>(),
        inner in prop_oneof![Just(6u8), Just(17u8), Just(58u8), any::<u8>()],
        tail in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        // Hand-built fragment header with arbitrary reserved/offset/M
        // bits: atomic fragments must certify to the decoded features,
        // genuine (non-atomic) fragments must degrade identically on
        // both paths.
        let mut frame = Vec::new();
        frame.extend_from_slice(&mac(0xfe).octets());
        frame.extend_from_slice(&mac(21).octets());
        frame.extend_from_slice(&0x86ddu16.to_be_bytes());
        let payload_len = (8 + tail.len()) as u16;
        frame.extend_from_slice(&[0x60, 0, 0, 0]);
        frame.extend_from_slice(&payload_len.to_be_bytes());
        frame.push(44); // next header: fragment
        frame.push(64); // hop limit
        frame.extend_from_slice(&v6(21).octets());
        frame.extend_from_slice(&v6(1).octets());
        frame.push(inner);
        frame.push(reserved);
        frame.extend_from_slice(&offset_flags.to_be_bytes());
        frame.extend_from_slice(&ident.to_be_bytes());
        frame.extend_from_slice(&tail);
        check_equivalence(&frame);
        for cut in 0..frame.len() {
            check_equivalence(&frame[..cut]);
        }
    }

    #[test]
    fn truncations_of_mutated_frames_never_disagree(
        index in (0usize..corpus().len()),
        cut in any::<usize>(),
        flip in any::<usize>(),
    ) {
        let packet = corpus().swap_remove(index);
        let mut frame = packet.encode();
        let at = flip % frame.len();
        frame[at] = frame[at].wrapping_add(1);
        let cut = cut % (frame.len() + 1);
        check_equivalence(&frame[..cut]);
    }
}
