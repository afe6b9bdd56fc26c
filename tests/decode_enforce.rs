//! The data plane end to end on one captured frame: an onboarded
//! device's SSDP `NOTIFY`, as its setup capture holds it, goes through
//! `Packet::parse` → `StreamRuntime::enforce` under a counting allocator.
//! Decoding it costs two allocations (the request target and the header
//! section, six fields in one buffer), deciding it costs none — so the
//! whole enforced packet is what `crates/netproto/tests/alloc_decode.rs`
//! and `crates/sdn/tests/alloc_enforce.rs` each pin for their half.
//!
//! ```text
//! cargo test -q --test decode_enforce -- --nocapture
//! ```
//! prints the decision and the count.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use iot_sentinel::devicesim::{catalog, Testbed};
use iot_sentinel::netproto::http::{HttpMessage, Method};
use iot_sentinel::netproto::{AppPayload, Packet};
use iot_sentinel::prelude::*;

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

fn is_notify(packet: &Packet) -> bool {
    let payload = packet.transport().and_then(|t| t.app_payload());
    matches!(
        payload,
        Some(AppPayload::Http(HttpMessage::Request {
            method: Method::Notify,
            ..
        }))
    )
}

#[test]
fn an_enforced_ssdp_notify_costs_its_two_decoded_buffers() {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 6, 42);
    let mut config = ServiceConfig::default();
    config.identifier.bank.forest = iot_sentinel::ml::ForestConfig::default().with_trees(15);
    let service = IoTSecurityService::train(&dataset, &config);

    // The first catalog device that announces itself over SSDP.
    let testbed = Testbed::new(790);
    let (trace, notify) = devices
        .iter()
        .find_map(|device| {
            let trace = testbed.setup_run(&device.profile, 0);
            let notify = trace.packets.iter().position(is_notify)?;
            Some((trace, notify))
        })
        .expect("some catalog device sends NOTIFY ssdp:alive");
    let frames = trace.frames();
    let (timestamp, frame) = &frames[notify];

    let mut runtime = StreamRuntime::new(&service);
    let mut reports = runtime.ingest_frames(&frames);
    reports.extend(runtime.flush());
    assert_eq!(reports.len(), 1, "onboarded");
    assert_eq!(reports[0].mac, trace.mac);
    // Warm the flow: the packet-in installs it, the count is a hit's.
    let first = runtime.enforce(&Packet::parse(frame, *timestamp).expect("captured frame"));
    assert!(first.packet_in);

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let packet = Packet::parse(frame, *timestamp).expect("captured frame");
    let decoded = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let decision = runtime.enforce(&packet);
    let enforced = ALLOCATIONS.load(Ordering::Relaxed) - before;

    println!(
        "{} byte NOTIFY from {}: {:?} (packet-in: {}), {decoded} allocations to decode, {} to decide",
        frame.len(),
        trace.mac,
        decision.action,
        decision.packet_in,
        enforced - decoded
    );
    assert_eq!(packet, trace.packets[notify]);
    assert_eq!((decision.action, decision.packet_in), (first.action, false));
    assert_eq!((decoded, enforced), (2, 2));
}
