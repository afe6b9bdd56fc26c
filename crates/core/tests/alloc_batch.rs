//! Counting-allocator audit of steady-state batched identification:
//! after one warm-up tick has sized the [`ClassifyScratch`] — stage 1's
//! leaf words and per-item candidate pool, stage 2's probe symbols,
//! sampled reference indices and their distances, mask table and lane
//! state — every subsequent [`Identifier::classify_batch_in`] tick over
//! a same-shaped batch (of 1, 64 or 512; before and after an `add_type`)
//! must perform **zero** heap allocations, every
//! [`Identifier::identify_keyed_batch_into`] tick (two-stage, and
//! edit-only against all 27 types) only the ones its `Identification`s
//! own, and every [`SecurityService::assess_keyed_batch_into`] tick over
//! a 512-row batch of repeated fingerprints only the ones its
//! `ServiceResponse`s own. This pins the contract behind the
//! caller-owned scratch — a gateway holds one and assesses tick after
//! tick without touching the allocator for working memory — and that
//! the service keeps nothing of the fingerprints it has seen.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide: any neighbouring test running
//! concurrently would perturb the counter — which is also why the three
//! audits below are one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_core::{
    AssessKey, AssessScratch, BankConfig, ClassifyScratch, FingerprintDataset, Identification,
    Identifier, IdentifierConfig, IdentifyMode, IoTSecurityService, SecurityService,
    ServiceResponse, TrainedModel,
};
use sentinel_devicesim::{catalog, confusable_groups, DeviceModel, Testbed};
use sentinel_fingerprint::{extract, Fingerprint, FixedFingerprint};
use sentinel_ml::ForestConfig;
use sentinel_netproto::MacAddr;

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
fn steady_state_batches_allocate_only_what_identifications_own() {
    batched_classification_does_not_allocate();
    // The ledger's model: the whole catalog, 10 runs per type, 25 trees.
    let dataset = FingerprintDataset::collect(&catalog(), 10, 42);
    let config = IdentifierConfig {
        bank: BankConfig {
            forest: ForestConfig::default().with_trees(25),
            ..BankConfig::default()
        },
        ..IdentifierConfig::default()
    };
    let identifier = Identifier::train(&dataset, &config);
    stage_two_allocates_per_identification_not_per_comparison(&identifier);
    the_service_keeps_no_per_fingerprint_state(IoTSecurityService::from_identifier(identifier));
}

fn batched_classification_does_not_allocate() {
    let devices: Vec<_> = catalog().into_iter().take(4).collect();
    let three = FingerprintDataset::collect(&devices[..3], 8, 5);
    let four = FingerprintDataset::collect(&devices, 8, 5);
    let config = IdentifierConfig {
        bank: BankConfig {
            forest: ForestConfig::default().with_trees(15),
            ..BankConfig::default()
        },
        ..IdentifierConfig::default()
    };
    let mut identifier = Identifier::train(&three, &config);
    let mut scratch = ClassifyScratch::default();

    // Rows are scored where they lie, so a warm tick costs the heap
    // nothing whatever the batch size.
    let mut warm_ticks_are_free = |identifier: &Identifier, what: &str| {
        for size in [1usize, 64, 512] {
            let fixed: Vec<&FixedFingerprint> =
                (0..size).map(|i| four.fixed(i % four.len())).collect();
            // Warm-up tick: stretches the leaf words to this model and
            // the candidate pool to this batch shape.
            let baseline: Vec<Vec<usize>> =
                identifier.classify_batch_in(&fixed, &mut scratch).to_vec();
            assert_eq!(baseline.len(), size);
            let before = allocations();
            for _ in 0..8 {
                let candidates = identifier.classify_batch_in(&fixed, &mut scratch);
                assert_eq!(candidates.len(), size);
            }
            let spent = allocations() - before;
            assert_eq!(
                spent, 0,
                "{what}: a batch of {size} allocated {spent} times over 8 steady-state ticks"
            );
            // And scratch reuse must not have drifted any verdict.
            let again = identifier.classify_batch_in(&fixed, &mut scratch).to_vec();
            assert_eq!(
                again, baseline,
                "{what}: warm-path candidates must not drift"
            );
        }
    };
    warm_ticks_are_free(&identifier, "three types");
    // A fourth type rebuilds the scorer with more trees: the same
    // scratch grows its word buffer once, then never again.
    identifier.add_type(devices[3].info.identifier, &four);
    warm_ticks_are_free(&identifier, "after add_type");
}

/// Stage 2 over the Table III confusable families (D-Link, TP-Link,
/// Edimax, Smarter): most probes are accepted by several sibling
/// classifiers, so discrimination runs `candidates × references_per_type`
/// edit distances per item — none of which may reach the allocator.
fn stage_two_allocates_per_identification_not_per_comparison(identifier: &Identifier) {
    let family: Vec<&str> = confusable_groups().into_iter().flatten().collect();
    let probes = holdout_probes(|device| family.contains(&device.info.identifier));
    let items: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = probes
        .iter()
        .enumerate()
        .map(|(i, (full, fixed))| (full, fixed, AssessKey::new(i as u64, MacAddr::ZERO)))
        .collect();

    let cold = warm_ticks_allocate_only_what_identifications_own(identifier, &items, "two-stage");
    assert!(
        cold.iter().filter(|id| id.discriminated).count() * 2 >= cold.len(),
        "the confusable families should discriminate on most probes: {:?}",
        cold.iter()
            .map(|id| id.candidates.len())
            .collect::<Vec<_>>()
    );

    // Edit-only scores every item against all 27 types × 5 references:
    // 27 lane groups per item, so lane state that grew per group or per
    // item would show here.
    let model = TrainedModel::from(identifier);
    let edit_only: Identifier = TrainedModel::from_parts(
        model.bank().clone(),
        model.references().to_vec(),
        IdentifierConfig {
            mode: IdentifyMode::EditOnly,
            ..model.config().clone()
        },
    )
    .expect("the trained parts")
    .into();
    let cold = warm_ticks_allocate_only_what_identifications_own(&edit_only, &items, "edit-only");
    assert!(cold.iter().all(|id| id.candidates.len() == 27));
}

/// Identifies `items` on a cold scratch per item (the drift reference),
/// then in warm batches on one scratch: every warm tick must allocate
/// exactly what its `Identification`s own and reproduce the cold ones.
fn warm_ticks_allocate_only_what_identifications_own(
    identifier: &Identifier,
    items: &[(&Fingerprint, &FixedFingerprint, AssessKey)],
    what: &str,
) -> Vec<Identification> {
    let cold: Vec<Identification> = items
        .iter()
        .map(|&(full, fixed, key)| identifier.identify_keyed(full, fixed, key))
        .collect();
    let comparisons: usize = cold
        .iter()
        .map(|id| id.candidates.len() * IdentifierConfig::default().references_per_type)
        .sum();
    let owned: usize = cold.iter().map(identification_owns).sum();

    let mut scratch = ClassifyScratch::default();
    let mut out = Vec::with_capacity(items.len());
    identifier.identify_keyed_batch_into(items, &mut scratch, &mut out);
    assert_eq!(
        out, cold,
        "{what}: batched identification differs from per-item"
    );

    for tick in 0..4 {
        out.clear();
        let before = allocations();
        identifier.identify_keyed_batch_into(items, &mut scratch, &mut out);
        let spent = allocations() - before;
        assert_eq!(
            spent,
            owned,
            "{what}, tick {tick}: {spent} allocations for {} items whose identifications own \
             {owned} ({comparisons} reference comparisons must contribute none)",
            items.len()
        );
        assert_eq!(
            out, cold,
            "{what}, tick {tick}: warm scratch drifted an identification"
        );
    }
    cold
}

/// A large batch through the service: 512 rows, each under its
/// own key, cycling over the held-out setups of every catalog type, so
/// most fingerprints arrive several times in one batch and again in
/// every tick. However often a fingerprint repeats, the service keeps
/// nothing of it: each warm tick allocates exactly what its responses
/// own, with `enable_verdict_cache(true)` called before every tick as
/// the benchmark does.
fn the_service_keeps_no_per_fingerprint_state(mut service: IoTSecurityService) {
    let probes = holdout_probes(|_| true);
    let items: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = (0..512usize)
        .map(|i| {
            let (full, fixed) = &probes[i % probes.len()];
            let mac = MacAddr::new([2, 0, 0, 0, (i >> 8) as u8, i as u8]);
            (full, fixed, AssessKey::new(i as u64, mac))
        })
        .collect();
    let cold: Vec<ServiceResponse> = items
        .iter()
        .map(|&(full, fixed, key)| service.assess_keyed(full, fixed, key))
        .collect();
    // What a response owns beyond its identification: the whitelist of
    // a restricted device and the removal notice of one isolation
    // cannot contain.
    let owned: usize = cold
        .iter()
        .map(|response| {
            identification_owns(&response.identification)
                + usize::from(!response.permitted_endpoints.is_empty())
                + usize::from(response.user_notification.is_some())
        })
        .sum();
    assert!(
        cold.iter().any(|r| !r.permitted_endpoints.is_empty())
            && cold.iter().any(|r| r.user_notification.is_some()),
        "the batch must carry a whitelist and a removal notice"
    );

    let mut scratch = AssessScratch::default();
    let mut out = Vec::with_capacity(items.len());
    service.enable_verdict_cache(true);
    service.assess_keyed_batch_into(&items, &mut scratch, &mut out);
    assert_eq!(out, cold, "batched assessment differs from per-item");

    for tick in 0..4 {
        service.enable_verdict_cache(true);
        out.clear();
        let before = allocations();
        service.assess_keyed_batch_into(&items, &mut scratch, &mut out);
        let spent = allocations() - before;
        assert_eq!(
            spent,
            owned,
            "service, tick {tick}: {spent} allocations for {} rows whose responses own {owned}",
            items.len()
        );
        assert_eq!(
            out, cold,
            "service, tick {tick}: warm scratch drifted a response"
        );
        assert_eq!(service.verdict_cache_stats(), (0, 0));
    }
}

/// Four held-out setup runs (a different campaign seed than the
/// training set) of every catalog device `keep` admits.
fn holdout_probes(keep: impl Fn(&DeviceModel) -> bool) -> Vec<(Fingerprint, FixedFingerprint)> {
    let holdout = Testbed::new(99);
    catalog()
        .iter()
        .filter(|device| keep(device))
        .flat_map(|device| (0..4).map(|run| holdout.setup_run(&device.profile, run)))
        .map(|trace| {
            let full = extract(&trace.packets);
            let fixed = FixedFingerprint::from_fingerprint(&full);
            (full, fixed)
        })
        .collect()
}

/// What an `Identification` owns: its candidate set and its scores
/// (both empty, hence unallocated, when no classifier accepted) and the
/// identified type's name.
fn identification_owns(id: &Identification) -> usize {
    match (id.candidates.is_empty(), id.label()) {
        (true, _) => 0,
        (false, None) => 2,
        (false, Some(_)) => 3,
    }
}
