//! Counting-allocator audit of the data plane: a switched packet costs
//! one flow key, one table probe and an arithmetic wire length — never
//! a re-encoding of the packet it was just handed. With the flow table
//! warm, [`OvsSwitch::process`] must perform **zero** heap allocations
//! per packet whatever the packet carries; so must [`Packet::wire_len`]
//! on its own; and so must a packet-in once the table's capacity is
//! there (a rule change empties the table but keeps its buckets, so
//! re-deciding every live flow allocates nothing either).
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide — which is also why the audits
//! are one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_netproto::dhcp::DhcpMessage;
use sentinel_netproto::dns::{DnsMessage, Question};
use sentinel_netproto::http::HttpMessage;
use sentinel_netproto::tcp::{TcpFlags, TcpHeader};
use sentinel_netproto::tls::TlsRecord;
use sentinel_netproto::{ports, AppPayload, MacAddr, Packet, Timestamp};
use sentinel_sdn::{EnforcementModule, EnforcementRule, OvsSwitch};

/// Passes everything through to [`System`], counting every allocation
/// and reallocation (deallocations are free and uncounted).
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

const GATEWAY: MacAddr = MacAddr::new([0x02, 0x53, 0x47, 0x57, 0x00, 0x01]);
const CLOUD: Ipv4Addr = Ipv4Addr::new(52, 29, 100, 7);

/// One packet of each kind a device sends after setup, each its own
/// flow: DHCP, DNS, HTTP, TLS, ARP and a bare TCP SYN.
fn traffic_of(device: u8) -> [Packet; 6] {
    let ts = Timestamp::from_secs(500);
    let mac = MacAddr::new([0x02, 0, 0, 0, 0x10, device]);
    let ip = Ipv4Addr::new(192, 168, 0, device);
    let router = Ipv4Addr::new(192, 168, 0, 1);
    let udp = |dst_ip, dst_port, payload| {
        Packet::udp_ipv4(ts, mac, GATEWAY, ip, dst_ip, 50_000, dst_port, payload)
    };
    let tcp = |dst_port, flags, payload| {
        let header = TcpHeader::new(49_200, dst_port, flags);
        Packet::tcp_ipv4(ts, mac, GATEWAY, ip, CLOUD, header, payload)
    };
    let established = TcpFlags::PSH | TcpFlags::ACK;
    [
        udp(
            router,
            ports::DHCP_SERVER,
            AppPayload::Dhcp(DhcpMessage::request(mac, 7, ip, router)),
        ),
        udp(
            router,
            ports::DNS,
            AppPayload::Dns(DnsMessage::query(
                9,
                [Question::a("iot.vendor-cloud.example")],
            )),
        ),
        tcp(
            ports::HTTP,
            established,
            AppPayload::Http(HttpMessage::get("fw.vendor.example", "/check?v=1.2")),
        ),
        tcp(
            ports::HTTPS,
            established,
            AppPayload::Tls(TlsRecord::client_hello(160)),
        ),
        Packet::arp_probe(ts, mac, router),
        Packet::tcp_syn(ts, mac, GATEWAY, ip, CLOUD, 49_201, ports::HTTPS),
    ]
}

#[test]
fn switching_a_packet_never_touches_the_allocator() {
    const DEVICES: u8 = 32;
    const ROUNDS: usize = 6;
    let mut controller = EnforcementModule::new();
    for device in 0..DEVICES {
        // Alternate levels so both cached actions are exercised.
        let mac = traffic_of(device)[0].src_mac();
        controller.install_rule(if device % 2 == 0 {
            EnforcementRule::trusted(mac)
        } else {
            EnforcementRule::strict(mac)
        });
    }
    let packets: Vec<Packet> = (0..DEVICES).flat_map(traffic_of).collect();

    let before = allocations();
    let bytes: usize = packets.iter().map(Packet::wire_len).sum();
    assert_eq!(allocations() - before, 0, "Packet::wire_len allocated");
    assert!(bytes > packets.len() * 42);

    // Warm-up: one packet-in per flow sizes the table.
    let mut switch = OvsSwitch::lab();
    let reference: Vec<_> = packets
        .iter()
        .map(|packet| switch.process(packet, &mut controller).action)
        .collect();
    assert_eq!(switch.packet_ins(), packets.len() as u64);

    let before = allocations();
    let mut hits = 0;
    for _ in 0..ROUNDS {
        for (packet, &action) in packets.iter().zip(&reference) {
            let decision = switch.process(packet, &mut controller);
            assert!(!decision.packet_in && decision.action == action);
            hits += 1;
        }
    }
    assert!(hits >= 1000);
    assert_eq!(
        allocations() - before,
        0,
        "{hits} flow-table hits allocated"
    );

    // A rule change (here: device 0's rule installed again) sends every
    // live flow back to the controller; the table kept its capacity, so
    // the packet-ins allocate nothing.
    controller.install_rule(EnforcementRule::trusted(packets[0].src_mac()));
    let before = allocations();
    for (packet, &action) in packets.iter().zip(&reference) {
        let decision = switch.process(packet, &mut controller);
        assert!(decision.packet_in && decision.action == action);
    }
    assert_eq!(
        allocations() - before,
        0,
        "{} packet-ins into reserved capacity allocated",
        packets.len()
    );
}
