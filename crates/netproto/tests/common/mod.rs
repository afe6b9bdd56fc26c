//! Frames shared by the scanner's differential tests
//! (`scan_equivalence`) and its allocation audit (`alloc_scan`).

#![allow(dead_code)] // each test binary uses its own subset

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
use sentinel_netproto::{AppPayload, MacAddr, Packet, PacketBody, Timestamp, Transport};

pub fn mac(n: u8) -> MacAddr {
    MacAddr::new([0x02, 0x42, 0, 0, 0, n])
}

pub fn v4(a: u8) -> std::net::Ipv4Addr {
    std::net::Ipv4Addr::new(10, 0, 0, a)
}

pub fn v6(a: u8) -> std::net::Ipv6Addr {
    std::net::Ipv6Addr::new(0xfe80, 0, 0, 0, 0, 0, 0, u16::from(a))
}

/// One canonical frame per scanner code path: every link/network/
/// transport/application branch is covered, including both IP option
/// features and the IPv6 hop-by-hop walk.
pub fn corpus() -> Vec<Packet> {
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

/// `payload`, verbatim, as a UDP datagram between the two ports.
pub fn udp_frame(sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    let payload = AppPayload::Raw(payload.to_vec().into());
    Packet::udp_ipv4(
        Timestamp::ZERO,
        mac(30),
        mac(0xfe),
        v4(30),
        v4(1),
        sport,
        dport,
        payload,
    )
    .encode()
}

/// `payload`, verbatim, as a TCP segment between the two ports.
pub fn tcp_frame(sport: u16, dport: u16, payload: &[u8]) -> Vec<u8> {
    Packet::tcp_ipv4(
        Timestamp::ZERO,
        mac(31),
        mac(0xfe),
        v4(31),
        v4(1),
        TcpHeader::new(sport, dport, TcpFlags::PSH | TcpFlags::ACK),
        AppPayload::Raw(payload.to_vec().into()),
    )
    .encode()
}

/// A DNS response header announcing the four section counts.
pub fn dns_header(counts: [u16; 4]) -> Vec<u8> {
    let mut header = vec![0, 1, 0x80, 0];
    for count in counts {
        header.extend_from_slice(&count.to_be_bytes());
    }
    header
}

/// An uncompressed name: the labels, then the root terminator.
pub fn dns_name(labels: &[&[u8]]) -> Vec<u8> {
    let mut name = Vec::new();
    for label in labels {
        name.push(label.len() as u8);
        name.extend_from_slice(label);
    }
    name.push(0);
    name
}

/// A compression pointer to offset `to` of the message.
pub fn dns_pointer(to: usize) -> [u8; 2] {
    [0xc0 | (to >> 8) as u8, to as u8]
}

/// A record: owner name, type, class IN, TTL 60, the *claimed* data
/// length and the data.
pub fn dns_record(name: &[u8], rtype: u16, rdlength: usize, rdata: &[u8]) -> Vec<u8> {
    let mut record = name.to_vec();
    record.extend_from_slice(&rtype.to_be_bytes());
    record.extend_from_slice(&[0, 1, 0, 0, 0, 60]);
    record.extend_from_slice(&(rdlength as u16).to_be_bytes());
    record.extend_from_slice(rdata);
    record
}

/// A question for an A record of the (already encoded) name.
pub fn dns_question(name: &[u8]) -> Vec<u8> {
    [name, &[0, 1, 0, 1]].concat()
}

/// A message: the header for `counts`, then the parts back to back.
pub fn dns_message(counts: [u16; 4], parts: &[&[u8]]) -> Vec<u8> {
    let mut msg = dns_header(counts);
    for part in parts {
        msg.extend_from_slice(part);
    }
    msg
}

/// The answer every real resolver sends: the owner name of the answer
/// is a pointer back to the question. Re-encodes 11 bytes longer.
pub fn compressed_dns_answer() -> Vec<u8> {
    dns_message(
        [1, 1, 0, 0],
        &[
            &dns_question(&dns_name(&[b"foo", b"example"])),
            &dns_record(&dns_pointer(12), 1, 4, &[1, 2, 3, 4]),
        ],
    )
}

/// Hand-built DNS messages the scanner used to hand to the decoder
/// (pointers of every kind, dotted and empty-piece labels, PTR and TXT
/// data that re-encode to another length) next to the malformed
/// neighbours of each, which must fall back to raw bytes on both paths.
pub fn odd_dns_messages() -> Vec<(&'static str, Vec<u8>)> {
    let asked = dns_name(&[b"foo", b"example"]);
    let svc = dns_name(&[b"svc", b"local"]);
    let www_then_pointer = [&[3, b'w', b'w', b'w'][..], &dns_pointer(12)].concat();
    vec![
        ("backward pointer", compressed_dns_answer()),
        (
            // The question's name points ahead, at the answer's owner.
            "forward pointer",
            dns_message(
                [1, 1, 0, 0],
                &[
                    &dns_question(&dns_pointer(18)),
                    &dns_record(&dns_name(&[b"fwd", b"local"]), 1, 4, &[1, 2, 3, 4]),
                ],
            ),
        ),
        (
            "label then pointer",
            dns_message(
                [1, 1, 0, 0],
                &[
                    &dns_question(&asked),
                    &dns_record(&www_then_pointer, 1, 4, &[9; 4]),
                ],
            ),
        ),
        (
            "self-pointing name",
            dns_message([1, 0, 0, 0], &[&dns_question(&dns_pointer(12))]),
        ),
        (
            "mutually pointing names",
            dns_message(
                [1, 0, 0, 0],
                &[&dns_pointer(14), &dns_question(&dns_pointer(12))],
            ),
        ),
        (
            // The second answer's owner points into the first one's PTR
            // data (owner `a`: 3 bytes, fields: 10).
            "pointer into rdata",
            dns_message(
                [0, 2, 0, 0],
                &[
                    &dns_record(&dns_name(&[b"a"]), 12, svc.len(), &svc),
                    &dns_record(&dns_pointer(12 + 3 + 10), 1, 4, &[1, 2, 3, 4]),
                ],
            ),
        ),
        (
            "pointer past the message",
            dns_message([1, 0, 0, 0], &[&dns_question(&dns_pointer(900))]),
        ),
        ("pointer cut in half", dns_message([1, 0, 0, 0], &[&[0xc0]])),
        (
            "dotted label",
            dns_message([1, 0, 0, 0], &[&dns_question(&dns_name(&[b"a.b", b"c"]))]),
        ),
        (
            "empty-piece labels",
            dns_message(
                [2, 0, 0, 0],
                &[
                    &dns_question(&dns_name(&[b".", b"x"])),
                    &dns_question(&dns_name(&[b"a..b", b"."])),
                ],
            ),
        ),
        (
            "non-utf-8 label",
            dns_message([1, 0, 0, 0], &[&dns_question(&dns_name(&[b"\xff\xfe"]))]),
        ),
        (
            "reserved label kind",
            dns_message([1, 0, 0, 0], &[&dns_question(&[0x41, b'a', 0])]),
        ),
        (
            "ptr data that is a pointer",
            dns_message(
                [1, 1, 0, 0],
                &[
                    &dns_question(&asked),
                    &dns_record(&dns_pointer(12), 12, 2, &dns_pointer(12)),
                ],
            ),
        ),
        (
            // The name in the data runs two bytes past the claimed length.
            "ptr data overrunning rdlength",
            dns_message(
                [0, 1, 0, 0],
                &[&dns_record(&svc, 12, 3, &[3, b'a', b'b', b'c', 0])],
            ),
        ),
        (
            "ptr data shorter than rdlength",
            dns_message(
                [0, 1, 0, 0],
                &[&dns_record(&svc, 12, 6, &[1, b'a', 0, 7, 7, 7])],
            ),
        ),
        (
            "txt strings",
            dns_message(
                [0, 2, 0, 0],
                &[
                    &dns_record(&svc, 16, 17, b"\x09md=Bridge\x06pv=1.0"),
                    &dns_record(&dns_pointer(12), 16, 0, &[]),
                ],
            ),
        ),
        (
            "txt string overrunning rdata",
            dns_message([0, 1, 0, 0], &[&dns_record(&svc, 16, 3, b"\x09ab")]),
        ),
        (
            "txt string not utf-8",
            dns_message([0, 1, 0, 0], &[&dns_record(&svc, 16, 3, b"\x02\xff\xfe")]),
        ),
        ("srv and over-long a", unmodelled_dns_records()),
        (
            "more answers announced than sent",
            dns_message(
                [1, 5, 0, 0],
                &[
                    &dns_question(&asked),
                    &dns_record(&dns_pointer(12), 1, 4, &[1; 4]),
                ],
            ),
        ),
        (
            "65 535 questions announced, none sent",
            dns_header([u16::MAX, 0, 0, 0]),
        ),
        (
            "rdlength past the message",
            dns_message([0, 1, 0, 0], &[&dns_record(&svc, 1, 400, &[1, 2])]),
        ),
    ]
}

/// A response holding two records this crate keeps as raw data: an SRV
/// (type 33) and an `A` whose data is five bytes long. Canonical: names
/// uncompressed, nothing trailing.
pub fn unmodelled_dns_records() -> Vec<u8> {
    let svc = dns_name(&[b"svc", b"local"]);
    dns_message(
        [0, 2, 0, 0],
        &[
            &dns_record(&svc, 33, 8, &[0, 0, 0, 0, 0x1f, 0x90, 1, 0]),
            &dns_record(&dns_name(&[b"host"]), 1, 5, &[1, 2, 3, 4, 5]),
        ],
    )
}

/// HTTP and SSDP heads that parse but re-encode to another length
/// (padding, `HTTP/1.0`, a missing reason phrase, a signed or
/// zero-padded status, surplus request-line tokens) next to the
/// malformed neighbours of each, which must stay raw bytes.
pub fn odd_http_heads() -> Vec<&'static [u8]> {
    vec![
        PADDED_HTTP_HEAD,
        b"HTTP/1.0 200 OK\r\nContent-Length:0\r\n\r\n",
        REASONLESS_HTTP_HEAD,
        LEADING_ZERO_HTTP_HEAD,
        b"HTTP/1.1 +200 OK\r\n\r\n",
        b"HTTP/1.1 65535 Edge\r\n\r\n",
        b"HTTP/1.1 65536 Past The Edge\r\n\r\n",
        b"HTTP/1.1 2x0 OK\r\n\r\n",
        b"HTTP/1.1  200 OK\r\n\r\n",
        b"HTTP/1.1 200 Two  Spaces \r\n\r\n",
        b"HTTP/2 200 OK\r\n\r\n",
        b"GET /\r\n\r\n",
        b"GET / HTTP/1.1 and more\r\nHost: x\r\n\r\n",
        b"GET / HTTP/2\r\n\r\n",
        b"GET / HTTP/1.0\r\nHost:x\r\n\r\n",
        b"GET  / HTTP/1.1\r\n\r\n",
        b"NOTIFY * HTTP/1.1\r\nHOST:239.255.255.250:1900\r\nNTS :ssdp:alive\r\nX:\r\n\r\n",
        b"GET / HTTP/1.1\r\nno colon here\r\n\r\n",
        b"GET / HTTP/1.1\r\nHost: never.terminated\r\n",
        b"GET / HTTP/1.1\r\nHost: \xff\xfe\r\n\r\n",
        b"\r\n\r\n",
        b"\r\n\r\n\r\n\r\n",
        HEADLESS_HTTP_BYTES,
    ]
}

/// A status line with padded header names and values.
pub const PADDED_HTTP_HEAD: &[u8] =
    b"HTTP/1.1 200 OK\r\nServer:  lighttpd \r\n ST : upnp:rootdevice\r\n\r\nbody";
/// A status line with no reason phrase (re-encodes with the space).
pub const REASONLESS_HTTP_HEAD: &[u8] = b"HTTP/1.1 204\r\n\r\n";
/// A status written with a leading zero (re-encodes without).
pub const LEADING_ZERO_HTTP_HEAD: &[u8] = b"HTTP/1.1 0200 OK\r\n\r\n";
/// TCP continuation bytes: no head at all, so the payload stays raw.
pub const HEADLESS_HTTP_BYTES: &[u8] =
    b"...the middle of somebody's response body, no start line, no blank line...";
