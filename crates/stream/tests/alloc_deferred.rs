//! Counting-allocator audit of the pooled fleet tick path: once a
//! worker's [`StreamRuntime`] is warm — buckets, shard-id scratch and
//! the deferred completion buffer sized by a first pass — steady-state
//! [`StreamRuntime::ingest_frames_deferred`] ticks over already-
//! onboarded devices (the ignored-frame path) and empty ticks must
//! perform **zero** heap allocations. This pins the per-worker pooling
//! contract of the fleet's lockstep tick: a gateway that has settled
//! its homes' devices streams tick after tick without touching the
//! allocator.
//!
//! The same holds for the opposite extreme, a storm of new MACs against
//! a full session table: every first frame sheds the LRU session and
//! re-opens its slot in place, arena included, so shedding costs no
//! allocation either (second phase of the one test — a counting global
//! allocator cannot share its process with a parallel test).
//!
//! Lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_core::{FingerprintDataset, IoTSecurityService, ServiceConfig};
use sentinel_devicesim::{catalog, Testbed};
use sentinel_netproto::{MacAddr, Packet, Timestamp};
use sentinel_stream::{StreamConfig, StreamRuntime};

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

#[test]
fn steady_state_and_shed_churn_deferred_ticks_do_not_allocate() {
    let devices: Vec<_> = catalog().into_iter().take(3).collect();
    let dataset = FingerprintDataset::collect(&devices, 8, 5);
    let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());
    let mut runtime = StreamRuntime::with_config(
        &service,
        StreamConfig {
            max_sessions: 8,
            shards: 2,
            threads: 1,
            ..StreamConfig::default()
        },
    );

    let testbed = Testbed::new(42);
    let trace = testbed.setup_run(&devices[0].profile, 0);
    let frames = trace.frames();
    let mut completions = Vec::new();

    // Warm-up: complete the device's setup (sizing buckets, shard-id
    // scratch and the completion buffer), then flush so no session is
    // left in flight and the MAC is recorded as onboarded.
    runtime.ingest_frames_deferred(&frames, &mut completions);
    runtime.flush_deferred(&mut completions);
    assert_eq!(completions.len(), 1, "setup trace must complete once");
    assert_eq!(completions[0].mac, trace.mac);
    completions.clear();

    // Steady state: replaying the onboarded device's frames (the
    // ignored path) and empty ticks must not touch the heap.
    let before = allocations();
    for _ in 0..8 {
        let appended = runtime.ingest_frames_deferred(&frames, &mut completions);
        assert_eq!(appended, 0, "onboarded device must not re-complete");
        let empty = runtime.ingest_frames_deferred(&[], &mut completions);
        assert_eq!(empty, 0);
    }
    let spent = allocations() - before;
    assert_eq!(
        spent, 0,
        "deferred ingest allocated {spent} times over 16 steady-state ticks"
    );

    // The ignored path still counts: every replayed frame is observed.
    assert_eq!(
        runtime.stats().packets_in,
        (frames.len() * 9) as u64,
        "replayed frames must be counted as ingested"
    );

    // Shed churn: first frames of never-seen MACs. The first 64 fill
    // both shards' four slots and churn them long enough for each MAC
    // index to reach its steady size (residents are removed and inserted
    // one for one, so it stops growing once the table is full).
    let first_frame = |n: u32| -> (Timestamp, Vec<u8>) {
        let [_, a, b, c] = n.to_be_bytes();
        let packet = Packet::dhcp_discover(MacAddr::new([2, 0, 0, a, b, c]), n, 1_000_000);
        (packet.timestamp, packet.encode())
    };
    let storm: Vec<_> = (0..64 + 512).map(first_frame).collect();
    let (fill, churn) = storm.split_at(64);
    runtime.ingest_frames_deferred(fill, &mut completions);
    assert_eq!(runtime.resident_sessions(), 8, "table must be full");
    let opened = runtime.stats().sessions_opened;

    // From here every frame opens a session by shedding one: alone in
    // its call (the live-tap shape) or in a batch, no allocation. At the
    // parent commit this was one 4 KiB feature arena per open.
    let before = allocations();
    let (alone, batched) = churn.split_at(256);
    for frame in alone {
        runtime.ingest_frames_deferred(std::slice::from_ref(frame), &mut completions);
    }
    for batch in batched.chunks(16) {
        runtime.ingest_frames_deferred(batch, &mut completions);
    }
    let spent = allocations() - before;
    assert_eq!(spent, 0, "shedding 512 sessions allocated {spent} times");
    let stats = runtime.stats();
    assert_eq!(stats.sessions_opened - opened, 512);
    assert_eq!(stats.sessions_evicted, stats.sessions_opened - 1 - 8);
    assert_eq!(runtime.resident_sessions(), 8);
    assert!(completions.is_empty(), "one-frame sessions never complete");
    // What still allocates is the *completion* path, once per onboarded
    // device and by design: a finished session's arena is not copied but
    // moved into the `Fingerprint` the `Completion` hands out (with `F'`
    // built beside it), so it leaves the table for good and the session
    // that later takes the freed slot allocates a new one. Keeping spare
    // arenas instead was measured and rejected (DESIGN §9.3).
}
