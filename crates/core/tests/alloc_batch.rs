//! Counting-allocator audit of steady-state batched classification:
//! after one warm-up tick has sized the [`ClassifyScratch`] — the
//! batch matrix, the per-forest verdict buffer and the
//! per-item candidate pool — every subsequent
//! [`Identifier::classify_batch_in`] tick over a same-shaped batch must
//! perform **zero** heap allocations. This pins the contract behind
//! the caller-owned scratch: the streaming runtime's shards hold
//! one scratch each and classify tick after tick without touching the
//! allocator.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide: any neighbouring test running
//! concurrently would perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_core::{
    BankConfig, ClassifyScratch, FingerprintDataset, Identifier, IdentifierConfig,
};
use sentinel_devicesim::catalog;
use sentinel_fingerprint::FixedFingerprint;
use sentinel_ml::ForestConfig;

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
fn steady_state_batched_classification_does_not_allocate() {
    let devices: Vec<_> = catalog().into_iter().take(3).collect();
    let dataset = FingerprintDataset::collect(&devices, 8, 5);
    let config = IdentifierConfig {
        bank: BankConfig {
            forest: ForestConfig::default().with_trees(15),
            ..BankConfig::default()
        },
        ..IdentifierConfig::default()
    };
    let identifier = Identifier::train(&dataset, &config);
    let fixed: Vec<&FixedFingerprint> = (0..dataset.len()).map(|i| dataset.fixed(i)).collect();

    // Warm-up tick: stretches the batch matrix, the verdict buffer and
    // every per-item candidate vector to this batch shape.
    let mut scratch = ClassifyScratch::default();
    let baseline: Vec<Vec<usize>> = identifier.classify_batch_in(&fixed, &mut scratch).to_vec();
    assert_eq!(baseline.len(), fixed.len());

    // Steady state: refilling the matrix and re-walking every packed
    // arena over it must not touch the heap.
    let before = allocations();
    for _ in 0..8 {
        let candidates = identifier.classify_batch_in(&fixed, &mut scratch);
        assert_eq!(candidates.len(), baseline.len());
    }
    let spent = allocations() - before;
    assert_eq!(
        spent, 0,
        "batched classification allocated {spent} times over 8 steady-state ticks"
    );

    // And scratch reuse must not have drifted any verdict.
    let again = identifier.classify_batch_in(&fixed, &mut scratch).to_vec();
    assert_eq!(again, baseline, "warm-path candidates must not drift");
}
