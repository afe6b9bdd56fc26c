//! Counting-allocator audit of the ingest path: [`WireScan::scan`] and
//! [`RawFeatures::from_frame`] allocate **nothing**, whatever the frame —
//! certified, certified to a length it does not have (compressed DNS
//! names, padded HTTP heads), carrying a payload its codec rejects (which
//! stays raw bytes, on the strength of an error value that is built and
//! dropped), or rejected outright. A LAN host chooses what it sends, so
//! a per-frame allocation on any of these is one it can trigger at will.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_netproto::{AppPayload, Packet, RawFeatures, ScanOutcome, Timestamp, WireScan};

mod common;
use common::*;

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

/// Allocations made by both faces of the scan on `frame`, and whether
/// the scan certified it.
fn scan_allocations(frame: &[u8]) -> (usize, bool) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let outcome = WireScan::scan(frame);
    let features = RawFeatures::from_frame(frame);
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let certified = matches!(outcome, ScanOutcome::Features(_));
    assert_eq!(certified, features.is_ok());
    (allocations, certified)
}

/// One test, so nothing else in the process allocates while it counts.
#[test]
fn scanning_any_frame_allocates_nothing() {
    // (a) Every frame of the differential corpus.
    for packet in corpus() {
        let frame = packet.encode();
        assert_eq!(scan_allocations(&frame), (0, true), "{packet:?}");
    }

    // (b) Frames certified to a length they do not have: the class the
    // scanner used to hand to the owning decoder (4+ allocations each).
    let relengthed = [
        (
            "compressed dns",
            udp_frame(53, 49_000, &compressed_dns_answer()),
        ),
        ("padded http", udp_frame(49_400, 1900, PADDED_HTTP_HEAD)),
        (
            "reason-less http",
            tcp_frame(49_300, 80, REASONLESS_HTTP_HEAD),
        ),
        (
            "leading-zero http",
            tcp_frame(8080, 49_301, LEADING_ZERO_HTTP_HEAD),
        ),
    ];
    for (what, frame) in &relengthed {
        assert_eq!(scan_allocations(frame), (0, true), "{what}");
        let packet = Packet::parse(frame, Timestamp::ZERO).expect(what);
        assert_ne!(
            packet.wire_len(),
            frame.len(),
            "{what} re-encodes as it came"
        );
    }

    // (c) Payloads the port's codec rejects: certified as raw bytes, the
    // codec's error built and dropped on the way.
    let mut dhcp = Vec::new();
    sentinel_netproto::dhcp::DhcpMessage::discover(mac(40), 7).encode(&mut dhcp);
    let end = dhcp.len() - 1;
    dhcp.splice(end..end, [53, 2, 1, 1]); // a message-type option two bytes long
    let non_utf8_label = dns_message([1, 0, 0, 0], &[&dns_question(&dns_name(&[b"\xff\xfe"]))]);
    let raw_fallbacks = [
        (
            "tcp continuation on :80",
            tcp_frame(49_300, 80, HEADLESS_HTTP_BYTES),
        ),
        (
            "non-utf-8 dns label",
            udp_frame(5353, 5353, &non_utf8_label),
        ),
        ("dhcp option 53 of length 2", udp_frame(68, 67, &dhcp)),
    ];
    for (what, frame) in &raw_fallbacks {
        assert_eq!(scan_allocations(frame), (0, true), "{what}");
        let packet = Packet::parse(frame, Timestamp::ZERO).expect(what);
        let payload = packet.transport().and_then(|t| t.app_payload());
        assert!(
            matches!(payload, Some(AppPayload::Raw(_))),
            "{what}: {payload:?}"
        );
    }

    // (d) Frames the decoder rejects (one `String` each, when rejecting
    // meant asking the decoder for its error).
    let good = Packet::dhcp_discover(mac(41), 9, 0).encode();
    let mut bad_checksum = good.clone();
    bad_checksum[25] ^= 0xff;
    let mut short_udp_length = good.clone();
    short_udp_length[38..40].copy_from_slice(&7u16.to_be_bytes());
    let mut long_udp_length = good.clone();
    long_udp_length[38..40].copy_from_slice(&u16::MAX.to_be_bytes());
    let mut bad_version = good.clone();
    bad_version[14] = 0x55;
    let malformed = [
        ("bad ipv4 checksum", &bad_checksum[..]),
        ("udp length below 8", &short_udp_length[..]),
        ("ipv4 version 5", &bad_version[..]),
        ("udp length past the datagram", &long_udp_length[..]),
        ("frame cut inside the datagram", &good[..good.len() - 40]),
        ("13-byte runt", &good[..13]),
    ];
    for (what, frame) in malformed {
        assert_eq!(scan_allocations(frame), (0, false), "{what}");
        assert!(Packet::parse(frame, Timestamp::ZERO).is_err(), "{what}");
    }
}
