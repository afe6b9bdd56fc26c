//! Counting-allocator audit of steady-state batched identification:
//! after one warm-up tick has sized the [`ClassifyScratch`] — stage 1's
//! leaf words and per-item candidate pool, stage 2's probe symbols,
//! sampled reference indices and their distances, mask table and lane
//! state — every subsequent [`Identifier::classify_batch_in`] tick over
//! a same-shaped batch (of 1, 64 or 512; before and after an `add_type`)
//! must perform **zero** heap allocations, and every
//! [`Identifier::identify_keyed_batch_into`] tick (two-stage, and
//! edit-only against all 27 types) only the ones its `Identification`s
//! own. This pins the contract behind the caller-owned
//! scratch: the streaming runtime's shards hold one scratch each and
//! assess tick after tick without touching the allocator for working
//! memory.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide: any neighbouring test running
//! concurrently would perturb the counter — which is also why the two
//! audits below are one `#[test]`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_core::{
    AssessKey, BankConfig, ClassifyScratch, FingerprintDataset, Identification, Identifier,
    IdentifierConfig, IdentifyMode, TrainedModel,
};
use sentinel_devicesim::{catalog, confusable_groups, Testbed};
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
    stage_two_allocates_per_identification_not_per_comparison();
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
fn stage_two_allocates_per_identification_not_per_comparison() {
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

    // Held-out runs: a different campaign seed than the training set.
    let holdout = Testbed::new(99);
    let family: Vec<&str> = confusable_groups().into_iter().flatten().collect();
    let probes: Vec<(Fingerprint, FixedFingerprint)> = catalog()
        .iter()
        .filter(|device| family.contains(&device.info.identifier))
        .flat_map(|device| (0..4).map(|run| holdout.setup_run(&device.profile, run)))
        .map(|trace| {
            let full = extract(&trace.packets);
            let fixed = FixedFingerprint::from_fingerprint(&full);
            (full, fixed)
        })
        .collect();
    let items: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = probes
        .iter()
        .enumerate()
        .map(|(i, (full, fixed))| (full, fixed, AssessKey::new(i as u64, MacAddr::ZERO)))
        .collect();

    let cold = warm_ticks_allocate_only_what_identifications_own(&identifier, &items, "two-stage");
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
    let model = TrainedModel::from(&identifier);
    let edit_only: Identifier = TrainedModel::from_parts(
        model.bank().clone(),
        model.references().to_vec(),
        IdentifierConfig {
            mode: IdentifyMode::EditOnly,
            ..config
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
    // What an `Identification` owns: its candidate set and its scores
    // (both empty, hence unallocated, when no classifier accepted) and
    // the identified type's name.
    let owned: usize = cold
        .iter()
        .map(|id| match (id.candidates.is_empty(), id.label()) {
            (true, _) => 0,
            (false, None) => 2,
            (false, Some(_)) => 3,
        })
        .sum();

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
