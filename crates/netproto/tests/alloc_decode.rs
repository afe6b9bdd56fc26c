//! Counting-allocator audit of the owning decoder: what [`Packet::parse`]
//! allocates for a frame is a small fixed number of buffers, each
//! reserved once and sized from the bytes that arrived — one per owned
//! field of the message, not one per header line, label or option, and
//! never a buffer grown by doubling. The data plane decodes every packet
//! it enforces, so an allocation here is paid (and freed) per packet, and
//! a LAN host chooses how many lines or options its frames carry. The
//! encoder is held to its one buffer: a checksummed message is written
//! into it and patched there, with no staging copy.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_netproto::dhcp::{DhcpMessage, DhcpOption};
use sentinel_netproto::dns::{DnsMessage, Question, RecordData, ResourceRecord};
use sentinel_netproto::icmp::IcmpMessage;
use sentinel_netproto::icmpv6::Icmpv6Message;
use sentinel_netproto::ipv4::{IpProtocol, Ipv4Header};
use sentinel_netproto::ipv6::Ipv6Header;
use sentinel_netproto::llc::LlcHeader;
use sentinel_netproto::ntp::NtpPacket;
use sentinel_netproto::tcp::{TcpFlags, TcpHeader};
use sentinel_netproto::tls::TlsRecord;
use sentinel_netproto::{ssdp, AppPayload, Packet, PacketBody, Timestamp, Transport};

mod common;
use common::*;

/// Passes everything through to [`System`], counting every allocation
/// and reallocation and summing their sizes (deallocations are free and
/// uncounted).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` returns, and the `(allocations, bytes)` running it cost.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    let out = f();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before.1;
    (out, allocations, bytes)
}

/// The decoded frame, and the `(allocations, bytes)` decoding it cost.
fn decode(frame: &[u8], timestamp: Timestamp) -> (Packet, usize, usize) {
    counted(|| Packet::parse(frame, timestamp).expect("a well-formed frame"))
}

fn udp(sport: u16, dport: u16, payload: AppPayload) -> Packet {
    Packet::udp_ipv4(
        Timestamp::ZERO,
        mac(50),
        mac(0xfe),
        v4(50),
        v4(1),
        sport,
        dport,
        payload,
    )
}

/// One test, so nothing else in the process allocates while it counts.
#[test]
fn decoding_reserves_once_per_owned_field() {
    let ts = Timestamp::ZERO;
    // (a) Canonical frames: the most allocations each may cost, which is
    // the number of heap-owning fields the decoded packet has.
    let notify = ssdp::notify_alive("urn:Belkin:device:insight:1", "http://10.0.0.5:49153/s.xml");
    assert_eq!(notify.headers().iter().count(), 6);
    let mut dhcp_request = DhcpMessage::request(mac(5), 0xbeef, v4(33), v4(1));
    dhcp_request.options.extend([
        DhcpOption::HostName("EdimaxPlug".into()),
        DhcpOption::VendorClassId("udhcp 1.21.1".into()),
        DhcpOption::ParameterRequestList(vec![1, 3, 6, 15, 28]),
    ]);
    let canonical = [
        ("arp", Packet::arp_probe(ts, mac(1), v4(9)), 0),
        (
            "ntp",
            udp(123, 123, AppPayload::Ntp(NtpPacket::client_request(7))),
            0,
        ),
        (
            "eapol: key data",
            Packet::eapol_key(ts, mac(2), mac(0xfe), 2),
            1,
        ),
        (
            "tls record: fragment",
            Packet::tcp_ipv4(
                ts,
                mac(3),
                mac(0xfe),
                v4(3),
                v4(1),
                TcpHeader::new(49_200, 443, TcpFlags::PSH | TcpFlags::ACK),
                AppPayload::Tls(TlsRecord::client_hello(160)),
            ),
            1,
        ),
        (
            "raw udp: payload",
            udp(20_002, 20_002, AppPayload::Raw(vec![0x80; 48].into())),
            1,
        ),
        (
            "bare tcp syn: options",
            Packet::tcp_syn(ts, mac(4), mac(0xfe), v4(4), v4(1), 49_201, 443),
            1,
        ),
        ("llc: payload", corpus().swap_remove(4), 1),
        (
            "dns query: question list, name",
            udp(
                49_202,
                53,
                AppPayload::Dns(DnsMessage::query(
                    9,
                    [Question::a("iot.vendor-cloud.example")],
                )),
            ),
            2,
        ),
        (
            "dhcp discover: option list, parameter list",
            Packet::dhcp_discover(mac(5), 0xbeef, 0),
            2,
        ),
        (
            "ssdp notify, six headers: target, header section",
            udp(49_203, 1900, AppPayload::Http(notify)),
            2,
        ),
        (
            "dhcp request: option list, host name, vendor class, parameter list",
            udp(68, 67, AppPayload::Dhcp(dhcp_request)),
            4,
        ),
    ];
    for (what, packet, at_most) in canonical {
        let frame = packet.encode();
        let (decoded, allocations, _) = decode(&frame, packet.timestamp);
        assert_eq!(decoded, packet, "{what}");
        assert!(
            allocations <= at_most,
            "{what}: {allocations} allocations, at most {at_most} expected"
        );
    }

    // A raw payload owns exactly its bytes: 48 of them, with no shared
    // buffer's header beside them.
    let raw = udp(20_002, 20_002, AppPayload::Raw(vec![0x80; 48].into()));
    let (_, allocations, bytes) = decode(&raw.encode(), ts);
    assert_eq!((allocations, bytes), (1, 48), "raw udp payload");

    // An empty payload owns nothing, at every layer that keeps one.
    let empty = [
        PacketBody::Other {
            ethertype: 0x9100,
            payload: Box::default(),
        },
        PacketBody::Llc {
            header: LlcHeader::unnumbered(0x42),
            payload: Box::default(),
        },
        PacketBody::Ipv4 {
            header: Ipv4Header::new(v4(8), v4(1), IpProtocol::Igmp),
            transport: Transport::Other {
                protocol: 2,
                payload: Box::default(),
            },
        },
    ];
    for body in empty {
        let packet = Packet::new(ts, mac(6), mac(0xfe), body);
        let (decoded, allocations, _) = decode(&packet.encode(), ts);
        assert_eq!(decoded, packet);
        assert_eq!(allocations, 0, "empty payload: {packet:?}");
    }

    // Encoding patches each checksum into the bytes already written, so
    // an ICMP echo and an ICMPv6 MLD report go into a buffer with room
    // without a staging buffer.
    let echo = PacketBody::Ipv4 {
        header: Ipv4Header::new(v4(7), v4(1), IpProtocol::Icmp),
        transport: Transport::Icmp(IcmpMessage::echo_request(7, 1, vec![0xaa; 12])),
    };
    let mld = PacketBody::Ipv6 {
        header: Ipv6Header::new(v6(9), "ff02::16".parse().unwrap(), IpProtocol::Icmpv6),
        transport: Transport::Icmpv6(Icmpv6Message::mld2_report(2)),
    };
    let mut buf = Vec::with_capacity(1_500);
    for body in [echo, mld] {
        let packet = Packet::new(ts, mac(9), mac(0xfe), body);
        let ((), allocations, _) = counted(|| packet.encode_into(&mut buf));
        assert_eq!(allocations, 0, "encoding {packet:?}");
    }

    // The mDNS answer a device announces itself with: a PTR record and
    // an A record, the A record's owner a pointer to the PTR target, which
    // points back to the PTR record's owner. One answer list and three
    // names, however the names are compressed.
    let service = dns_name(&[b"_hap", b"_tcp", b"local"]);
    let target = [&[6][..], b"bridge", &dns_pointer(12)].concat();
    let target_at = 12 + service.len() + 10;
    let announcement = dns_message(
        [0, 2, 0, 0],
        &[
            &dns_record(&service, 12, target.len(), &target),
            &dns_record(&dns_pointer(target_at), 1, 4, &[192, 168, 0, 31]),
        ],
    );
    let (decoded, allocations, _) = decode(&udp_frame(5353, 5353, &announcement), ts);
    let Some(AppPayload::Dns(dns)) = decoded.transport().and_then(|t| t.app_payload()) else {
        panic!("the announcement parses: {decoded:?}");
    };
    let record = |name: &str, data| ResourceRecord {
        name: name.into(),
        ttl: 60,
        cache_flush: false,
        data,
    };
    let bridge = "bridge._hap._tcp.local";
    let a = RecordData::A(Ipv4Addr::new(192, 168, 0, 31));
    let answers = [
        record("_hap._tcp.local", RecordData::Ptr(bridge.into())),
        record(bridge, a),
    ];
    assert_eq!(dns.answers, answers);
    assert!(
        allocations <= 4,
        "compressed mdns answer: {allocations} allocations, at most 4 expected"
    );

    // (b) Hostile frames: with reservation up front, what a frame makes
    // the decoder reserve must follow the frame's length, as `alloc_dns`
    // demands of DNS counts. A 1 500-byte frame of `a:` lines is ≈ 360
    // header fields; a DHCP options area of 300 one-byte options is 300
    // entries of an option list.
    let mut head = b"NOTIFY * HTTP/1.1\r\n".to_vec();
    while head.len() < 1_450 {
        head.extend_from_slice(b"a:\r\n");
    }
    head.extend_from_slice(b"\r\n");
    let many_headers = udp_frame(49_400, 1900, &head);
    let (decoded, allocations, bytes) = decode(&many_headers, ts);
    let Some(AppPayload::Http(http)) = decoded.transport().and_then(|t| t.app_payload()) else {
        panic!("the head parses: {decoded:?}");
    };
    assert!(http.headers().iter().count() > 350);
    assert!(
        allocations <= 2 && bytes <= 8 * many_headers.len(),
        "{allocations} allocations, {bytes} bytes for a {}-byte frame",
        many_headers.len()
    );

    let mut dhcp = Vec::new();
    DhcpMessage::discover(mac(6), 7).encode(&mut dhcp);
    let end = dhcp.len() - 1;
    dhcp.splice(end..end, [224, 1, 0xaa].repeat(300)); // private-use option, one byte
    let many_options = udp_frame(68, 67, &dhcp);
    let (decoded, allocations, bytes) = decode(&many_options, ts);
    let Some(AppPayload::Dhcp(message)) = decoded.transport().and_then(|t| t.app_payload()) else {
        panic!("the options parse: {decoded:?}");
    };
    assert_eq!(message.options.len(), 303);
    // One option list, one buffer per option that owns its data — and
    // the list is 32 bytes an entry for 3 on the wire, which is what
    // puts this frame just past 8× (the list grown by doubling: 27×).
    assert!(
        allocations <= 302 && bytes <= 9 * many_options.len(),
        "{allocations} allocations, {bytes} bytes for a {}-byte frame",
        many_options.len()
    );
}
