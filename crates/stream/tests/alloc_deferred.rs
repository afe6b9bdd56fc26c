//! Counting-allocator audit of a gateway's per-tick path: once a
//! [`StreamRuntime`] is warm — session table and the deferred
//! completion buffer sized by a first pass — ticks over already-
//! onboarded devices (the ignored-frame path) and empty ticks perform
//! **zero** heap allocations, both through
//! [`StreamRuntime::ingest_frames_deferred`] and through the inline
//! [`StreamRuntime::ingest_frames`] a fleet home's pooled gateway runs
//! (which returns an empty report list without allocating). A gateway
//! that has settled its devices streams tick after tick without
//! touching the allocator.
//!
//! The same holds for the opposite extreme, a storm of new MACs against
//! a full session table: every first frame sheds the LRU session and
//! re-opens its slot in place, its extractor's allocations included, so
//! shedding costs no allocation either.
//!
//! The allocator also keeps the bytes currently live, which pins what a
//! resident session *holds*: the columns of `F` its setup has sent so far
//! inside a small reservation that grows by doubling — not the
//! detector's 256-packet worst case up front. A table full of one-frame
//! spoofed MACs, a catalog device mid-setup, a long setup of distinct
//! frames and one frame repeated to the packet cap each have a bound.
//! So does what an onboarded device leaves behind once the caller has
//! dropped its report: the gateway keeps the rule, not the report.
//!
//! All of it is one test: a counting global allocator cannot share its
//! process with a parallel test. It lives in its own integration-test
//! binary because a `#[global_allocator]` is process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::HashSet;
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use sentinel_core::{FingerprintDataset, IoTSecurityService, ServiceConfig};
use sentinel_devicesim::{catalog, interleave, Testbed};
use sentinel_fingerprint::extract_frames;
use sentinel_fingerprint::setup::SetupDetector;
use sentinel_netproto::{AppPayload, MacAddr, Packet, RawFeatures, Timestamp};
use sentinel_sdn::IsolationLevel;
use sentinel_stream::{Completion, Session, SessionEvent, StreamConfig, StreamRuntime};

/// Passes everything through to [`System`], counting every allocation
/// and reallocation (deallocations are free and uncounted) and the
/// requested bytes currently live.
struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> usize {
    ALLOCATIONS.load(Ordering::Relaxed)
}

fn live_bytes() -> usize {
    LIVE_BYTES.load(Ordering::Relaxed)
}

/// The first (and only) frame of spoofed device number `n`.
fn first_frame(n: u32) -> (Timestamp, Vec<u8>) {
    let [_, a, b, c] = n.to_be_bytes();
    let packet = Packet::dhcp_discover(MacAddr::new([2, 0, 0, a, b, c]), n, 1_000_000);
    (packet.timestamp, packet.encode())
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
            threads: 1,
            ..StreamConfig::default()
        },
    );

    let testbed = Testbed::new(42);
    let trace = testbed.setup_run(&devices[0].profile, 0);
    let frames = trace.frames();
    let mut completions = Vec::new();

    // Warm-up: complete the device's setup (sizing the table and the
    // completion buffer), then flush so no session is left in flight
    // and the MAC is recorded as onboarded.
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

    // The inline twin, the path a fleet home's gateway ticks through:
    // no completion means no assessment, no report and no allocation.
    let before = allocations();
    for _ in 0..8 {
        assert!(runtime.ingest_frames(&frames).is_empty());
        assert!(runtime.ingest_frames(&[]).is_empty());
    }
    let spent = allocations() - before;
    assert_eq!(
        spent, 0,
        "inline ingest allocated {spent} times over 16 steady-state ticks"
    );

    // The ignored path still counts: every replayed frame is observed.
    assert_eq!(
        runtime.stats().packets_in,
        (frames.len() * 17) as u64,
        "replayed frames must be counted as ingested"
    );

    // Shed churn: first frames of never-seen MACs. The first 64 fill
    // the eight slots and churn them long enough for the MAC index to
    // reach its steady size (residents are removed and inserted one for
    // one, so it stops growing once the table is full).
    let storm: Vec<_> = (0..64 + 512).map(first_frame).collect();
    let (fill, churn) = storm.split_at(64);
    runtime.ingest_frames_deferred(fill, &mut completions);
    assert_eq!(runtime.resident_sessions(), 8, "table must be full");
    let opened = runtime.stats().sessions_opened;

    // From here every frame opens a session by shedding one: alone in
    // its call (the live-tap shape) or in a batch, no allocation: the
    // victim's slot is re-opened with the allocations it already has.
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
    // device and by design: a finished session's columns are not copied
    // but moved into the `Fingerprint` the `Completion` hands out (with
    // `F'` built beside it), so they leave the table for good and the
    // session that later takes the freed slot reserves anew. Keeping
    // spares instead was measured and rejected (DESIGN §9.3).

    a_full_table_of_spoofed_macs_holds_a_reservation_per_session(&service);
    a_catalog_setup_mid_flight_fits_its_bound(&service);
    a_session_grows_with_distinct_columns_and_not_with_repeats();
    let dataset = FingerprintDataset::collect(&catalog(), 8, 5);
    let service = IoTSecurityService::train(&dataset, &ServiceConfig::default());
    an_onboarded_device_leaves_its_rule_and_not_its_report(&service);
    a_one_frame_onboarding_allocates_three_blocks(&service);
    a_round_of_a_lane_word_and_more_allocates_what_its_answers_own(&service);
}

/// Live heap a resident one-frame session may hold: its 16-column
/// reservation (16 × 12 B = 192 B) and the first growth of its
/// destination list (4 × 17 B) measure 260 B; the detector's whole
/// 256-packet window, reserved up front, was 4 164 B.
const ONE_FRAME_SESSION_BYTES: usize = 288;

/// Live heap a catalog device's session may hold mid-setup: the
/// chattier setups grow their destination list once (328 B measured).
const MID_SETUP_SESSION_BYTES: usize = 352;

/// Live bytes one batch of `frames` leaves in `runtime` above the same
/// runtime warm and empty: a first pass warms the slab, its recency links
/// and the MAC index, `reset` keeps them, and the second pass is the one
/// measured.
fn held_when_warm(
    runtime: &mut StreamRuntime<&IoTSecurityService>,
    frames: &[(Timestamp, Vec<u8>)],
    completions: &mut Vec<Completion>,
) -> usize {
    runtime.reset();
    runtime.ingest_frames_deferred(frames, completions);
    runtime.reset();
    let empty = live_bytes();
    runtime.ingest_frames_deferred(frames, completions);
    live_bytes() - empty
}

/// The hostile-LAN shape: a default-config runtime filled to its bound
/// with MACs that each sent one frame.
fn a_full_table_of_spoofed_macs_holds_a_reservation_per_session(service: &IoTSecurityService) {
    let config = StreamConfig::default();
    let capacity = config.effective_capacity();
    let mut runtime = StreamRuntime::with_config(service, config);
    let mut completions = Vec::new();
    let flood: Vec<_> = (0..capacity as u32).map(first_frame).collect();
    let held = held_when_warm(&mut runtime, &flood, &mut completions);
    assert_eq!(runtime.resident_sessions(), capacity, "table must be full");
    assert!(completions.is_empty(), "one-frame sessions never complete");
    assert!(
        held <= ONE_FRAME_SESSION_BYTES * capacity,
        "{} B of live heap per resident one-frame session",
        held / capacity
    );
}

/// The benign shape: every catalog device's whole setup absorbed and
/// not yet complete, alone in the runtime. None outgrows the
/// reservation; the chattier ones grow their destination list once.
fn a_catalog_setup_mid_flight_fits_its_bound(service: &IoTSecurityService) {
    let testbed = Testbed::new(42);
    let mut runtime = StreamRuntime::new(service);
    let mut completions = Vec::new();
    for device in catalog() {
        let frames = testbed.setup_run(&device.profile, 0).frames();
        let held = held_when_warm(&mut runtime, &frames, &mut completions);
        assert_eq!(runtime.resident_sessions(), 1, "{}", device.profile.name);
        assert!(completions.is_empty(), "{}", device.profile.name);
        assert!(
            held <= MID_SETUP_SESSION_BYTES,
            "{}: {held} B of live heap for {} frames mid-setup",
            device.profile.name,
            frames.len()
        );
    }
}

/// Live heap a warm gateway keeps per onboarded device once the caller
/// has dropped the reports: its 16-byte rule-cache entry (the rule,
/// stored once) and the table slack around it (21 B measured over the
/// catalog; a restricted device's whitelist is its type's, shared, and
/// its onboarded mark sits in the table's index, warm from the first
/// pass). A rule that copied its type's whitelist into a box of its
/// own held 32 B, an entry that also carried an LRU recency stamp 41
/// B, a rule with an inline `Vec` whitelist and port filter in a
/// MAC-keyed map 90 B, and a gateway that also kept a clone of every
/// report 131 B.
const ONBOARDED_DEVICE_BYTES: usize = 24;

/// What a gateway remembers of a device it onboarded: every catalog
/// device's setup, identified by a service trained on the whole catalog
/// and onboarded one after another by a warm runtime whose caller drops
/// each report. The live heap left behind is the rules.
fn an_onboarded_device_leaves_its_rule_and_not_its_report(service: &IoTSecurityService) {
    let testbed = Testbed::new(42);
    let setups: Vec<_> = catalog()
        .iter()
        .map(|device| testbed.setup_run(&device.profile, 0).frames())
        .collect();
    let onboard_all = |runtime: &mut StreamRuntime<&IoTSecurityService>| {
        let mut onboarded = 0;
        for frames in &setups {
            onboarded += runtime.ingest_frames(frames).len();
            onboarded += runtime.flush().len();
        }
        onboarded
    };
    // A first pass warms the table, its index and the assessment
    // scratch; `reset` keeps them and starts the rule cache over.
    let mut runtime = StreamRuntime::new(service);
    onboard_all(&mut runtime);
    runtime.reset();
    let empty = live_bytes();
    let onboarded = onboard_all(&mut runtime);
    let held = live_bytes() - empty;
    assert_eq!(onboarded, setups.len(), "every setup onboards once");
    assert_eq!(runtime.enforcement().cache().len(), onboarded);
    assert!(
        held <= ONBOARDED_DEVICE_BYTES * onboarded,
        "{} B of live heap per onboarded device",
        held / onboarded
    );
}

/// Blocks a warm gateway allocates for the one frame that completes a
/// trusted device's setup, with room in its rule table: `F'`, the
/// identification's candidates beside their scores, and the returned
/// report list. The completion buffer, the keyed batch's items and the
/// responses are warm state or stack; `F` is the session's own columns.
const ONE_FRAME_ONBOARDING_BLOCKS: usize = 3;

/// The cost of onboarding itself: a catalog device's setup, then one
/// frame a minute later — the idle gap that completes it — alone in
/// its `ingest_frames` call, the live-tap shape.
fn a_one_frame_onboarding_allocates_three_blocks(service: &IoTSecurityService) {
    let testbed = Testbed::new(42);
    let setups: Vec<_> = catalog()
        .iter()
        .map(|device| testbed.setup_run(&device.profile, 0).frames())
        .collect();
    // The setup's last frame again, after the detector's idle gap.
    let closing = |frames: &[(Timestamp, Vec<u8>)]| {
        let (at, frame) = frames.last().expect("a setup sends frames");
        (*at + Duration::from_secs(60), frame.clone())
    };
    let mut runtime = StreamRuntime::new(service);
    let trusted = (setups.iter())
        .position(|frames| {
            runtime.reset();
            let closing = closing(frames);
            if !runtime.ingest_frames(frames).is_empty() {
                return false;
            }
            let reports = runtime.ingest_frames(std::slice::from_ref(&closing));
            matches!(reports.as_slice(), [report]
                if report.response.verdict.isolation == IsolationLevel::Trusted
                    && !report.response.identification.candidates.is_empty())
        })
        .expect("some catalog device onboards as trusted");
    let other = &setups[(trusted + 1) % setups.len()];
    let frames = &setups[trusted];
    let closing = closing(frames);
    // The first pass warms the table, the completion buffer and the
    // assessment scratch; `reset` keeps them and starts the rule cache
    // over, and another device's rule gives it room. The second pass
    // is the one measured.
    for pass in 0..2 {
        runtime.reset();
        runtime.ingest_frames(other);
        runtime.flush();
        assert!(runtime.ingest_frames(frames).is_empty(), "pass {pass}");
        let before = allocations();
        let reports = runtime.ingest_frames(std::slice::from_ref(&closing));
        let spent = allocations() - before;
        assert_eq!(reports.len(), 1, "pass {pass}");
        if pass == 1 {
            assert!(
                spent <= ONE_FRAME_ONBOARDING_BLOCKS,
                "onboarding a trusted device took {spent} allocations"
            );
        }
    }
}

/// Completions in the measured round: a full lane word of the stage-1
/// scorer and a lane-kernel tail (64 + 21).
const ROUND: usize = 85;

/// [`ROUND`] devices' setups, interleaved, and the frames of the round
/// that completes them all.
struct Round {
    macs: Vec<MacAddr>,
    setups: Vec<(Timestamp, Vec<u8>)>,
    closing: Vec<(Timestamp, Vec<u8>)>,
}

/// [`ROUND`] catalog setups of `testbed` that complete by the idle gap,
/// and the round that completes them all: each device's last setup
/// frame again, a minute after the last.
fn round_of(testbed: &Testbed) -> Round {
    let devices = catalog();
    let min_packets = SetupDetector::default().min_packets;
    let traces: Vec<_> = (0..)
        .map(|i: usize| {
            testbed.setup_run(
                &devices[i % devices.len()].profile,
                (i / devices.len()) as u64,
            )
        })
        .filter(|trace| trace.packets.len() >= min_packets)
        .take(ROUND)
        .collect();
    let stream = interleave(&traces, Duration::from_millis(5));
    let end = stream.last().expect("frames").timestamp + Duration::from_secs(60);
    let closing = (traces.iter().enumerate())
        .map(|(i, trace)| {
            let last = trace.packets.last().expect("a setup sends frames");
            (end + Duration::from_micros(i as u64), last.encode())
        })
        .collect();
    Round {
        macs: traces.iter().map(|trace| trace.mac).collect(),
        setups: stream.iter().map(|p| (p.timestamp, p.encode())).collect(),
        closing,
    }
}

/// The cost of a whole round: [`ROUND`] setups completed by one
/// `ingest_frames` call on a warm gateway whose rule table has room.
/// Each completion allocates its `F'` and its identification's block
/// when it has candidates; the round allocates the returned report
/// list. A restricted device's rule shares its type's whitelist, so
/// installing rules allocates nothing (a rule that copied the list
/// took two blocks, 36 more in this round). The keyed batches' items
/// are a stack array and the responses, the completion buffer and the
/// assessment scratch are warm state, so nothing is allocated per
/// batch or per round beside the list: 85 `F'` + 83 identification
/// blocks + 1 list = 169.
fn a_round_of_a_lane_word_and_more_allocates_what_its_answers_own(service: &IoTSecurityService) {
    let (round, others) = (round_of(&Testbed::new(42)), round_of(&Testbed::new(7)));
    let distinct: HashSet<MacAddr> = round.macs.iter().chain(&others.macs).copied().collect();
    assert_eq!(distinct.len(), 2 * ROUND, "distinct MACs");
    let mut runtime = StreamRuntime::new(service);
    // The first pass warms the table, the completion buffer, the
    // responses and the assessment scratch at this round's shape;
    // `reset` keeps them. In each pass as many other devices onboard
    // and leave first, so the rule table has room for the round.
    for pass in 0..2 {
        runtime.reset();
        runtime.ingest_frames(&others.setups);
        assert_eq!(runtime.ingest_frames(&others.closing).len(), ROUND);
        for &mac in &others.macs {
            runtime.remove_device(mac);
        }
        assert!(
            runtime.ingest_frames(&round.setups).is_empty(),
            "pass {pass}"
        );
        let before = allocations();
        let reports = runtime.ingest_frames(&round.closing);
        let spent = allocations() - before;
        assert_eq!(reports.len(), ROUND, "pass {pass}: one round");
        // What the answers own: `F'` and the identification's block.
        let with_candidates = (reports.iter())
            .filter(|report| !report.response.identification.candidates.is_empty())
            .count();
        if pass == 1 {
            let owned = ROUND + with_candidates + 1;
            assert!(
                spent <= owned,
                "a round of {ROUND} took {spent} allocations; its answers own {owned}"
            );
        }
    }
}

/// Growth and its absence, on a bare [`Session`]: 60 pairwise-distinct
/// frames take the reservation through two doublings, 256 copies of one
/// frame through none — and both finish to the batch fingerprint.
fn a_session_grows_with_distinct_columns_and_not_with_repeats() {
    let mac = MacAddr::new([2, 9, 9, 9, 9, 9]);
    let udp_to = |host: u8| {
        Packet::udp_ipv4(
            Timestamp::ZERO,
            mac,
            MacAddr::ZERO,
            Ipv4Addr::new(192, 168, 0, 50),
            Ipv4Addr::new(10, 0, 0, host),
            50000,
            443,
            AppPayload::Empty,
        )
        .encode()
    };
    let detector = SetupDetector::default();
    let run = |frames: &[Vec<u8>]| {
        let empty = live_bytes();
        let mut session = Session::open(0, Timestamp::ZERO);
        let mut last = SessionEvent::Absorbed;
        for (seq, frame) in frames.iter().enumerate() {
            assert_eq!(last, SessionEvent::Absorbed, "frame {seq} after the end");
            let raw = RawFeatures::from_frame(frame).expect("valid frame");
            let at = Timestamp::from_micros(seq as u64);
            last = session.offer(&raw, at, seq as u64, &detector);
        }
        let held = live_bytes() - empty;
        assert_eq!(session.packets(), frames.len());
        let fingerprint = session.finish();
        assert_eq!(fingerprint, extract_frames(frames).expect("valid frames"));
        (last, held, fingerprint.len())
    };

    // Every destination is new, so every column differs in its counter.
    let distinct: Vec<Vec<u8>> = (0..60).map(udp_to).collect();
    let (last, held, columns) = run(&distinct);
    assert_eq!((last, columns), (SessionEvent::Absorbed, 60));
    // 64 columns × 12 B beside 64 destinations × 17 B.
    assert!((60 * 12..=64 * (12 + 17)).contains(&held), "{held} B");

    let repeated = vec![udp_to(1); detector.max_packets];
    let (last, held, columns) = run(&repeated);
    let cap = SessionEvent::CapComplete;
    assert_eq!((last, columns), (cap, 1), "256 packets, one column");
    assert!(held <= ONE_FRAME_SESSION_BYTES, "{held} B for one column");
}
