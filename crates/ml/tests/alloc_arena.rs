//! Counting-allocator audit of the arena fitting path: after one
//! warm-up fit has stretched the [`FitArena`] scratch buffers (and its
//! high-water marks), every subsequent tree fit must perform only the
//! handful of exact-sized output-array allocations — zero per-node
//! allocations in split search, leaf construction or partitioning.
//! The same audit covers the inference side: a warm
//! [`BankScorer::candidates_into`] (word and label buffers sized by one
//! earlier call) must allocate nothing at all.
//!
//! This lives in its own integration-test binary because a
//! `#[global_allocator]` is process-wide: any neighbouring test running
//! concurrently would perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sentinel_ml::{
    BankScorer, BinnedDataset, Dataset, DecisionTree, FitArena, ForestConfig, PinnedRng,
    RandomForest, TreeConfig,
};

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

/// A deterministic dataset with heavy per-column duplication (like the
/// bit-features of `F'`), built without consuming any RNG.
fn corpus() -> Dataset {
    let mut data = Dataset::new(12);
    let mut row = [0.0f64; 12];
    for i in 0..240usize {
        for (f, slot) in row.iter_mut().enumerate() {
            *slot = ((i * (f + 3) + f * f) % 7) as f64 * 0.5;
        }
        data.push(&row, i % 3);
    }
    data
}

// The output tree is seven exact-sized arrays (features, thresholds,
// lefts, rights, leaf_counts, plus the two returned-Vec spines inside
// the tree's leaf bookkeeping); everything else must come from the
// arena. A little headroom tolerates allocator-internal bookkeeping.
const STEADY_STATE_BUDGET: usize = 12;

#[test]
fn steady_state_tree_fits_do_not_allocate_per_node() {
    let data = corpus();
    let bins = BinnedDataset::build(&data);
    let indices: Vec<usize> = (0..data.len()).collect();
    let labels: Vec<usize> = (0..data.len()).map(|i| usize::from(i % 3 == 0)).collect();
    let config = TreeConfig {
        max_depth: 8,
        min_samples_split: 2,
        min_samples_leaf: 1,
        n_candidate_features: Some(4),
    };
    let mut arena = FitArena::new();

    let fit = |arena: &mut FitArena| {
        DecisionTree::fit_view_in(
            &data,
            &bins,
            &indices,
            &labels,
            2,
            &config,
            &mut PinnedRng::from_key(9, 0, 0),
            arena,
        )
    };

    // Warm-up: stretches every scratch buffer and records the
    // high-water marks that pre-size the output arrays.
    let warm = fit(&mut arena);

    // Steady state (the classifier bank's hot loop): identical fit,
    // warm arena.
    let before = allocations();
    let again = fit(&mut arena);
    let spent = allocations() - before;
    assert_eq!(warm, again, "arena reuse must not change the fit");
    assert!(
        spent <= STEADY_STATE_BUDGET,
        "tree fit allocated {spent} times in steady state (budget {STEADY_STATE_BUDGET})"
    );

    // Steady state, classification: after one warm-up row has sized the
    // word and label buffers, scoring rows must not touch the heap at
    // all.
    let mut binary = Dataset::new(12);
    let mut row = [0.0f64; 12];
    for i in 0..240usize {
        for (f, slot) in row.iter_mut().enumerate() {
            *slot = ((i * (f + 5) + f) % 11) as f64;
        }
        // Rows repeat with period 11; so must their labels.
        binary.push(&row, usize::from(i % 11 % 3 == 0));
    }
    let forests: Vec<RandomForest> = (0..3)
        .map(|seed| {
            RandomForest::fit(
                &binary,
                &ForestConfig::default().with_trees(15).with_seed(seed),
            )
        })
        .collect();
    let scorer = BankScorer::new(&forests);
    let mut words: Vec<u64> = Vec::new();
    let mut labels: Vec<usize> = Vec::new();
    let score_all = |words: &mut Vec<u64>, labels: &mut Vec<usize>| {
        labels.clear();
        for i in 0..64 {
            scorer.candidates_into(binary.row(i), words, labels);
        }
    };
    score_all(&mut words, &mut labels);
    let baseline = labels.clone();
    assert!(!baseline.is_empty(), "some forest accepts some row");
    let before = allocations();
    for _ in 0..8 {
        score_all(&mut words, &mut labels);
    }
    let spent = allocations() - before;
    assert_eq!(labels, baseline, "warm-path verdicts must not drift");
    assert_eq!(
        spent, 0,
        "warm scoring allocated {spent} times over 8 passes of 64 rows"
    );
}
