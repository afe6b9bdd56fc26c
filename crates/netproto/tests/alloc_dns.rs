//! Counting-allocator audit of the DNS decoder against a hostile
//! header: the section counts are the sender's claim, so what
//! [`Packet::parse`] reserves must follow the bytes that arrived, not
//! the claim. A bare 12-byte DNS header on UDP/53 announcing 65 535
//! questions used to reserve 65 535 question slots (2 MiB) before the
//! first name failed to parse.
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_netproto::{ports, AppPayload, MacAddr, Packet, Timestamp};

/// Passes everything through to [`System`], summing the bytes of every
/// allocation and reallocation (deallocations are free and uncounted).
struct CountingAlloc;

static ALLOCATED_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATED_BYTES.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn question_count_beyond_the_frame_reserves_nothing() {
    let mut header = [0u8; 12];
    header[4..6].copy_from_slice(&u16::MAX.to_be_bytes());
    let frame = Packet::udp_ipv4(
        Timestamp::ZERO,
        MacAddr::new([2, 0, 0, 0, 0, 1]),
        MacAddr::new([2, 0, 0, 0, 0, 2]),
        Ipv4Addr::new(192, 168, 0, 9),
        Ipv4Addr::new(192, 168, 0, 1),
        50_321,
        ports::DNS,
        AppPayload::Raw(header.to_vec().into()),
    )
    .encode();
    assert_eq!(frame.len(), 54);

    let before = ALLOCATED_BYTES.load(Ordering::Relaxed);
    let packet = Packet::parse(&frame, Timestamp::ZERO).expect("the frame is well-formed UDP");
    let allocated = ALLOCATED_BYTES.load(Ordering::Relaxed) - before;

    // No question follows the header, so the DNS layer degrades to raw
    // bytes — having allocated for the frame it saw, not the count it
    // was told.
    let payload = packet.transport().and_then(|t| t.app_payload());
    assert!(
        matches!(payload, Some(AppPayload::Raw(bytes)) if bytes[..] == header),
        "{payload:?}"
    );
    assert!(
        allocated <= 4096,
        "a 54-byte frame made the decoder allocate {allocated} bytes"
    );
}
