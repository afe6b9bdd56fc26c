//! Counting-allocator audit of the owning decoder: what [`Packet::parse`]
//! allocates for a frame is a small fixed number of buffers, each
//! reserved once and sized from the bytes that arrived — one per owned
//! field of the message, not one per header line, label or option, and
//! never a buffer grown by doubling. The data plane decodes every packet
//! it enforces, so an allocation here is paid (and freed) per packet, and
//! a LAN host chooses how many lines or options its frames carry.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_netproto::dns::{DnsMessage, Question};
use sentinel_netproto::ntp::NtpPacket;
use sentinel_netproto::tcp::{TcpFlags, TcpHeader};
use sentinel_netproto::tls::TlsRecord;
use sentinel_netproto::{ssdp, AppPayload, Packet, Timestamp};

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

/// The decoded frame, and the `(allocations, bytes)` decoding it cost.
fn decode(frame: &[u8], timestamp: Timestamp) -> (Packet, usize, usize) {
    let before = (
        ALLOCATIONS.load(Ordering::Relaxed),
        ALLOCATED_BYTES.load(Ordering::Relaxed),
    );
    let packet = Packet::parse(frame, timestamp).expect("a well-formed frame");
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before.0;
    let bytes = ALLOCATED_BYTES.load(Ordering::Relaxed) - before.1;
    (packet, allocations, bytes)
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
    sentinel_netproto::dhcp::DhcpMessage::discover(mac(6), 7).encode(&mut dhcp);
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
