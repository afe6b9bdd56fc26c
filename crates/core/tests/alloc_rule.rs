//! Counting-allocator audit of the step from a verdict to a rule: a
//! restricted type's whitelist is built once, when the service builds
//! its verdicts, and [`ServiceResponse::rule_for`] puts a device's MAC
//! on a shared pointer to it. Two devices of one restricted type get
//! rules whose endpoint slices are the verdict's own memory, and making
//! a rule allocates nothing at any isolation level.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide: any neighbouring test running
//! concurrently would perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_core::{
    BankConfig, FingerprintDataset, IdentifierConfig, IoTSecurityService, SecurityService,
    ServiceConfig, ServiceResponse,
};
use sentinel_devicesim::{catalog, DeviceProfile, Phase, RawDest, Testbed};
use sentinel_fingerprint::{extract_frames, FixedFingerprint};
use sentinel_ml::ForestConfig;
use sentinel_netproto::MacAddr;
use sentinel_sdn::{EnforcementRule, IsolationLevel};

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

/// The service's answer for one setup run of `profile`.
fn assess(service: &IoTSecurityService, profile: &DeviceProfile, run: u64) -> ServiceResponse {
    let trace = Testbed::new(31).setup_run(profile, run);
    let frames: Vec<Vec<u8>> = trace.packets.iter().map(|packet| packet.encode()).collect();
    let full = extract_frames(&frames).expect("simulated frames scan");
    let fixed = FixedFingerprint::from_fingerprint(&full);
    service.assess(&full, &fixed)
}

#[test]
fn a_rule_shares_its_types_whitelist_and_allocates_nothing() {
    // Nine catalog types, so EdimaxCam (index 8, restricted) and Aria
    // (index 0, trusted) are known.
    let devices: Vec<_> = catalog().into_iter().take(9).collect();
    let dataset = FingerprintDataset::collect(&devices, 8, 5);
    let config = ServiceConfig {
        identifier: IdentifierConfig {
            bank: BankConfig {
                forest: ForestConfig::default().with_trees(25),
                ..BankConfig::default()
            },
            ..IdentifierConfig::default()
        },
    };
    let service = IoTSecurityService::train(&dataset, &config);
    let cam_a = assess(&service, &devices[8].profile, 1);
    let cam_b = assess(&service, &devices[8].profile, 2);
    let aria = assess(&service, &devices[0].profile, 0);
    let mut odd = DeviceProfile::new("OddBall", [9, 9, 9]);
    odd.extend_phases([
        Phase::UdpRaw {
            dest: RawDest::Broadcast,
            port: 7777,
            sizes: vec![700, 11, 700],
        },
        Phase::Ping { count: 3 },
    ]);
    let unknown = assess(&service, &odd, 0);
    let levels = [&unknown, &cam_a, &aria].map(|response| response.verdict.isolation);
    assert_eq!(
        levels,
        [
            IsolationLevel::Strict,
            IsolationLevel::Restricted,
            IsolationLevel::Trusted
        ]
    );
    assert_eq!(cam_b.verdict.isolation, IsolationLevel::Restricted);

    // Two devices of one restricted type: both rules read the verdict's
    // whitelist where it lies, and each is the rule that owns a copy.
    let (mac_a, mac_b) = (
        MacAddr::new([2, 0, 0, 0, 0, 1]),
        MacAddr::new([2, 0, 0, 0, 0, 2]),
    );
    let (rule_a, rule_b) = (cam_a.rule_for(mac_a), cam_b.rule_for(mac_b));
    let whitelist = &*cam_a.verdict.permitted_endpoints;
    assert!(!whitelist.is_empty());
    assert!(std::ptr::eq(
        rule_a.permitted_endpoints(),
        rule_b.permitted_endpoints()
    ));
    assert!(std::ptr::eq(rule_a.permitted_endpoints(), whitelist));
    assert!(std::ptr::eq(
        rule_b.permitted_endpoints(),
        &*cam_b.verdict.permitted_endpoints
    ));
    assert_eq!(
        rule_a,
        EnforcementRule::restricted(mac_a, whitelist.iter().copied())
    );

    // A rule at every isolation level costs the heap nothing.
    for response in [&unknown, &cam_a, &aria] {
        let before = allocations();
        for tail in 0..64u8 {
            drop(black_box(
                response.rule_for(MacAddr::new([2, 0, 0, 0, 1, tail])),
            ));
        }
        let spent = allocations() - before;
        assert_eq!(
            spent, 0,
            "64 {} rules took {spent} allocations",
            response.verdict.isolation
        );
    }
}
