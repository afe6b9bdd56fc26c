//! Property tests: wire-format encode/parse roundtrips for every layer,
//! with randomly generated packets.

use proptest::prelude::*;

use sentinel_netproto::arp::ArpPacket;
use sentinel_netproto::dhcp::{DhcpMessage, DhcpOption};
use sentinel_netproto::dns::{DnsMessage, Question, RecordData, RecordType, ResourceRecord};
use sentinel_netproto::eapol::{EapolPacket, EapolType};
use sentinel_netproto::http::HttpMessage;
use sentinel_netproto::icmp::IcmpMessage;
use sentinel_netproto::ipv4::{IpProtocol, Ipv4Header, Ipv4Option};
use sentinel_netproto::ntp::NtpPacket;
use sentinel_netproto::pcap::{PcapReader, PcapWriter};
use sentinel_netproto::tcp::{TcpFlags, TcpHeader};
use sentinel_netproto::tls::{ContentType, TlsRecord};
use sentinel_netproto::{AppPayload, MacAddr, Packet, PacketBody, Timestamp};

fn mac_strategy() -> impl Strategy<Value = MacAddr> {
    any::<[u8; 6]>().prop_map(MacAddr::new)
}

fn ipv4_strategy() -> impl Strategy<Value = std::net::Ipv4Addr> {
    any::<[u8; 4]>().prop_map(std::net::Ipv4Addr::from)
}

fn dns_name_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec("[a-z0-9]{1,12}", 1..4).prop_map(|labels| labels.join("."))
}

/// Payloads paired with ports the parser dispatches on: a DHCP message on
/// a random high port would (correctly) come back as opaque bytes, so the
/// roundtrip property only holds for protocol-appropriate ports.
fn app_payload_strategy() -> impl Strategy<Value = (AppPayload, u16, u16)> {
    prop_oneof![
        (mac_strategy(), any::<u32>()).prop_map(|(mac, xid)| (
            AppPayload::Dhcp(DhcpMessage::discover(mac, xid)),
            68,
            67
        )),
        (any::<u16>(), dns_name_strategy(), 49160u16..65000).prop_map(|(id, name, sport)| (
            AppPayload::Dns(DnsMessage::query(id, [Question::a(name)])),
            sport,
            53
        )),
        (dns_name_strategy(), "[a-z/]{1,16}", 49160u16..65000).prop_map(|(host, path, sport)| (
            AppPayload::Http(HttpMessage::get(host, format!("/{path}"))),
            sport,
            80
        )),
        (1usize..400, 49160u16..65000).prop_map(|(len, sport)| (
            AppPayload::Tls(TlsRecord::client_hello(len)),
            sport,
            443
        )),
        any::<u64>().prop_map(|ts| (AppPayload::Ntp(NtpPacket::client_request(ts)), 123, 123)),
        // Raw payloads must not be mistakable for a TLS record: keep the
        // first byte outside the TLS content-type range and use neutral
        // ports.
        (
            proptest::collection::vec(any::<u8>(), 1..200),
            20000u16..40000
        )
            .prop_map(|(mut data, port)| {
                data[0] |= 0x80;
                (AppPayload::Raw(data.into()), port, port + 1)
            }),
        (20000u16..40000).prop_map(|port| (AppPayload::Empty, port, port + 1)),
    ]
}

fn packet_strategy() -> impl Strategy<Value = Packet> {
    let arp = (
        mac_strategy(),
        mac_strategy(),
        ipv4_strategy(),
        ipv4_strategy(),
        any::<u64>(),
    )
        .prop_map(|(src, dst, sip, tip, ts)| {
            Packet::new(
                Timestamp::from_micros(ts % 1_000_000_000),
                src,
                dst,
                PacketBody::Arp(ArpPacket::request(src, sip, tip)),
            )
        });
    let eapol =
        (mac_strategy(), mac_strategy(), 1u8..=4, any::<u64>()).prop_map(|(src, dst, n, ts)| {
            Packet::eapol_key(Timestamp::from_micros(ts % 1_000_000_000), src, dst, n)
        });
    let udp = (
        mac_strategy(),
        mac_strategy(),
        ipv4_strategy(),
        ipv4_strategy(),
        app_payload_strategy(),
    )
        .prop_map(|(src, dst, sip, dip, (payload, sport, dport))| {
            Packet::udp_ipv4(Timestamp::ZERO, src, dst, sip, dip, sport, dport, payload)
        });
    let tcp = (
        mac_strategy(),
        mac_strategy(),
        ipv4_strategy(),
        ipv4_strategy(),
        20000u16..40000,
        proptest::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(src, dst, sip, dip, port, data)| {
            Packet::tcp_ipv4(
                Timestamp::ZERO,
                src,
                dst,
                sip,
                dip,
                TcpHeader::new(port, port + 1, TcpFlags::PSH | TcpFlags::ACK),
                if data.is_empty() {
                    AppPayload::Empty
                } else {
                    AppPayload::Raw(data.into())
                },
            )
        });
    prop_oneof![arp, eapol, udp, tcp]
}

/// A DNS message's wire bytes.
fn encoded(msg: &DnsMessage) -> Vec<u8> {
    let mut bytes = Vec::new();
    msg.encode(&mut bytes);
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packet_wire_roundtrip(packet in packet_strategy()) {
        let bytes = packet.encode();
        prop_assert_eq!(packet.wire_len(), bytes.len());
        let parsed = Packet::parse(&bytes, packet.timestamp).expect("well-formed packet");
        prop_assert_eq!(parsed, packet);
    }

    #[test]
    fn packet_parse_never_panics_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Packet::parse(&bytes, Timestamp::ZERO);
    }

    #[test]
    fn pcap_roundtrip(packets in proptest::collection::vec(packet_strategy(), 0..8)) {
        let mut capture = Vec::new();
        let mut writer = PcapWriter::new(&mut capture).expect("header");
        for packet in &packets {
            writer.write_packet(packet).expect("record");
        }
        writer.finish().expect("flush");
        let mut reader = PcapReader::new(capture.as_slice()).expect("header");
        let replayed = reader.read_all().expect("records");
        prop_assert_eq!(replayed, packets);
    }

    #[test]
    fn ipv4_options_roundtrip(
        router_alert in any::<bool>(),
        nops in 0usize..3,
        src in ipv4_strategy(),
        dst in ipv4_strategy(),
        payload_len in 0usize..64,
    ) {
        let mut header = Ipv4Header::new(src, dst, IpProtocol::Udp);
        if router_alert {
            header.options.push(Ipv4Option::RouterAlert(0));
        }
        header.options.extend(std::iter::repeat_n(Ipv4Option::Nop, nops));
        let mut buf = Vec::new();
        header.encode(&mut buf, payload_len);
        buf.extend(std::iter::repeat_n(0xab, payload_len));
        let (parsed, rest) = Ipv4Header::parse(&buf).expect("header");
        prop_assert_eq!(rest.len(), payload_len);
        let has = |option: fn(&Ipv4Option) -> bool| parsed.options.iter().any(option);
        prop_assert_eq!(has(|o| matches!(o, Ipv4Option::RouterAlert(_))), router_alert);
        prop_assert_eq!(has(|o| matches!(o, Ipv4Option::Nop | Ipv4Option::EndOfOptions)), nops > 0);
    }

    #[test]
    fn dhcp_message_roundtrip(
        mac in mac_strategy(),
        xid in any::<u32>(),
        hostname in "[a-zA-Z0-9!.-]{0,24}",
    ) {
        let mut msg = DhcpMessage::discover(mac, xid);
        if !hostname.is_empty() {
            msg.options.push(DhcpOption::HostName(hostname));
        }
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        prop_assert_eq!(DhcpMessage::parse(&buf).expect("dhcp"), msg);
    }

    #[test]
    fn dns_message_roundtrip(
        id in any::<u16>(),
        names in proptest::collection::vec(dns_name_strategy(), 1..4),
        ttl in any::<u32>(),
    ) {
        let mut msg = DnsMessage::query(id, names.iter().map(|n| Question::a(n.clone())));
        msg.answers.push(ResourceRecord {
            name: names[0].clone(),
            ttl,
            cache_flush: false,
            data: RecordData::A(std::net::Ipv4Addr::new(10, 0, 0, 1)),
        });
        prop_assert_eq!(DnsMessage::parse(&encoded(&msg)).expect("dns"), msg);
    }

    #[test]
    fn dns_qtype_preserved(name in dns_name_strategy(), qtype_raw in 1u16..60) {
        let question = Question {
            name,
            qtype: RecordType::from_u16(qtype_raw),
            unicast_response: false,
        };
        let msg = DnsMessage::query(1, [question.clone()]);
        let parsed = DnsMessage::parse(&encoded(&msg)).expect("dns");
        prop_assert_eq!(&parsed.questions[0], &question);
    }

    #[test]
    fn eapol_roundtrip(body in proptest::collection::vec(any::<u8>(), 0..128), kind in 0u8..5) {
        let packet = EapolPacket::new(EapolType::from_u8(kind), body);
        let mut buf = Vec::new();
        packet.encode(&mut buf);
        prop_assert_eq!(EapolPacket::parse(&buf).expect("eapol"), packet);
    }

    #[test]
    fn icmp_roundtrip(id in any::<u16>(), seq in any::<u16>(), payload in proptest::collection::vec(any::<u8>(), 0..64)) {
        let msg = IcmpMessage::echo_request(id, seq, payload);
        let mut buf = Vec::new();
        msg.encode(&mut buf);
        prop_assert_eq!(IcmpMessage::parse(&buf).expect("icmp"), msg);
    }

    #[test]
    fn tls_roundtrip(kind in 20u8..24, len in 0usize..512) {
        let record = TlsRecord::new(ContentType::from_u8(kind), vec![0x5a; len]);
        let mut buf = Vec::new();
        record.encode(&mut buf);
        prop_assert_eq!(TlsRecord::parse(&buf).expect("tls"), record);
    }

    #[test]
    fn protocol_set_roundtrips_bits(bits in any::<u16>()) {
        let set = sentinel_netproto::ProtocolSet::from_bits(bits);
        prop_assert_eq!(set.bits(), bits);
        let rebuilt: sentinel_netproto::ProtocolSet = set.iter().collect();
        prop_assert_eq!(rebuilt, set);
    }
}
