//! The sorted-scan split search: the reference the histogram sweeps in
//! `tree.rs` must reproduce bit for bit, and the differential tests
//! that hold them to it.
//!
//! Compiled under `#[cfg(test)]` only. A [`FitArena`] with
//! `sorted_scan` set routes `DecisionTree::build` here instead of to
//! `best_split`; everything else about the fit — the label gather, the
//! partition, the leaf rules, the RNG — is the one shared build, so a
//! tree-level inequality can only come from the split search.
//! Forest-level identities (thread counts, view vs. materialized copy)
//! are public-API properties and live in `tests/prop_histogram.rs`.

use proptest::prelude::*;

use super::{gini, DecisionTree, FitArena, FitContext, TreeConfig, LEAF};
use crate::binning::BinnedDataset;
use crate::pinned::PinnedRng;
use crate::Dataset;

impl DecisionTree {
    /// Finds the `(feature, threshold)` minimizing weighted Gini impurity
    /// over the candidate features, or `None` if no split improves, by
    /// sorting the node's column per candidate and scanning it.
    pub(super) fn best_split_sorted_scan(
        &self,
        ctx: &mut FitContext<'_>,
        indices: &[usize],
        config: &TreeConfig,
        rng: &mut PinnedRng,
    ) -> Option<(usize, f64, f64)> {
        let data = ctx.data;
        let FitArena {
            candidates,
            node_counts,
            node_labels,
            left_counts,
            right_counts,
            ..
        } = &mut *ctx.arena;
        let mut column: Vec<(f64, usize)> = Vec::with_capacity(indices.len());
        let n_features = data.n_features();
        candidates.clear();
        candidates.extend(0..n_features);
        let subsample = config.n_candidate_features.is_some();
        let limit = match config.n_candidate_features {
            Some(k) => k.max(1).min(n_features),
            None => n_features,
        };
        // Take the best split even at zero Gini gain (as CART splitters
        // do): greedy strict-improvement search cannot learn XOR-shaped
        // concepts whose first split is gain-free. Purity, depth and
        // min-samples rules bound the recursion instead.
        let mut best: Option<(f64, usize, f64)> = None;
        // Constant features do not count against the candidate budget —
        // like scikit-learn, keep drawing until `limit` splittable
        // features were examined or the feature set is exhausted.
        let mut examined = 0usize;
        // `node_counts` already holds this node's class counts (read-only
        // here: `build` reuses them after the search).
        let parent_counts: &[usize] = node_counts;
        left_counts.clear();
        left_counts.resize(self.n_classes, 0);
        right_counts.clear();
        right_counts.resize(self.n_classes, 0);
        for slot in 0..n_features {
            if examined >= limit {
                break;
            }
            // The v2 candidate draw: one `sample_step` per *inspected*
            // slot — the lazy form of `PinnedRng::sample_k`, consuming
            // exactly one pinned draw per slot actually looked at (the
            // v1 contract shuffled the whole pool up front). Constant
            // features still `continue` without touching `examined`, so
            // they cost a draw but never a budget slot — and because
            // every fit path makes identical constant-skip decisions,
            // the draw streams stay bit-identical across paths.
            let feature = if subsample {
                rng.sample_step(candidates, slot)
            } else {
                candidates[slot]
            };
            column.clear();
            column.extend(
                indices
                    .iter()
                    .zip(node_labels.iter())
                    .map(|(&i, &label)| (data.row(i)[feature], label as usize)),
            );
            column.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite features"));
            let total = column.len();
            if column[0].0 == column[total - 1].0 {
                continue; // constant feature: no threshold exists
            }
            examined += 1;
            left_counts.fill(0);
            right_counts.copy_from_slice(parent_counts);
            for pos in 0..total - 1 {
                let (value, label) = column[pos];
                left_counts[label] += 1;
                right_counts[label] -= 1;
                let next_value = column[pos + 1].0;
                if value == next_value {
                    continue; // cannot split between equal values
                }
                let n_left = pos + 1;
                let n_right = total - n_left;
                let weighted = (n_left as f64 * gini(left_counts, n_left)
                    + n_right as f64 * gini(right_counts, n_right))
                    / total as f64;
                if best.is_none_or(|(g, _, _)| weighted + 1e-12 < g) {
                    best = Some((weighted, feature, (value + next_value) / 2.0));
                }
            }
        }
        best.map(|(weighted, feature, threshold)| (feature, threshold, weighted))
    }
}

/// Fits the same view twice from the same RNG key — once through the
/// histogram sweeps, once through the sorted scan.
fn fit_both(
    data: &Dataset,
    indices: &[usize],
    labels: &[usize],
    n_classes: usize,
    config: &TreeConfig,
    seed: u64,
) -> (DecisionTree, DecisionTree) {
    let bins = BinnedDataset::build(data);
    let fit = |arena: &mut FitArena| {
        DecisionTree::fit_view_in(
            data,
            &bins,
            indices,
            labels,
            n_classes,
            config,
            &mut PinnedRng::from_key(seed, 0, 0),
            arena,
        )
    };
    let swept = fit(&mut FitArena::new());
    let scanned = fit(&mut FitArena {
        sorted_scan: true,
        ..FitArena::default()
    });
    (swept, scanned)
}

/// A corpus that stresses the binning — few distinct values per column
/// (heavy duplicates, like the Table I bit features), fractional values,
/// constant columns — with a bootstrap-style view over it: repeated row
/// indices and a per-row relabeling into 2 classes (packed sweep) or
/// 3–4 classes (generic sweep).
fn view_strategy() -> impl Strategy<Value = (Dataset, Vec<usize>, Vec<usize>, usize)> {
    (1usize..6, 4usize..48, 2usize..5).prop_flat_map(|(n_features, n_rows, n_classes)| {
        let row = proptest::collection::vec(
            prop_oneof![
                // Small integer pool → many duplicate values per column.
                (0u8..4).prop_map(f64::from),
                // Fractional values → midpoint thresholds are non-trivial.
                (0u8..8).prop_map(|v| f64::from(v) * 0.125),
            ],
            n_features,
        );
        (
            proptest::collection::vec(row, n_rows..n_rows + 1),
            proptest::collection::vec(0..n_rows, n_rows / 2..2 * n_rows),
            proptest::collection::vec(0..n_classes, n_rows..n_rows + 1),
        )
            .prop_map(move |(rows, indices, labels)| {
                let mut data = Dataset::new(n_features);
                for values in rows {
                    // The dataset's own labels are never the view's.
                    data.push(&values, 0);
                }
                (data, indices, labels, n_classes)
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn view_tree_is_bit_identical_to_the_sorted_scan(
        view in view_strategy(),
        seed in any::<u64>(),
    ) {
        let (data, indices, labels, n_classes) = view;
        let config = TreeConfig {
            max_depth: 8,
            min_samples_split: 2,
            min_samples_leaf: 1,
            // Subsample features so the RNG-consumption contract (the
            // pinned per-slot `sample_step` order, constant features
            // not counting against the budget) is exercised, not just
            // the arithmetic.
            n_candidate_features: Some((data.n_features() / 2).max(1)),
        };
        let (swept, scanned) = fit_both(&data, &indices, &labels, n_classes, &config, seed);
        prop_assert_eq!(&swept, &scanned, "histogram tree diverged from sorted-scan tree");
    }
}

/// The packed sweep is sound only while a node's counts fit 16 bits. A
/// two-class root with 70 000 bootstrap indices — more than 2^16 of them
/// in one bin, which a packed cell would wrap — must therefore take the
/// generic sweep, its children (below 2^16 rows) the packed one, and the
/// tree must equal the oracle's throughout.
#[test]
fn sweeps_switch_at_the_packed_counter_bound() {
    const ROWS: usize = 70_000;
    let mut data = Dataset::new(2);
    let mut labels = Vec::with_capacity(ROWS);
    for i in 0..ROWS {
        data.push(&[f64::from(i >= 69_000), (i % 5) as f64 * 0.5], 0);
        labels.push(usize::from((i % 5 >= 2) != (i % 11 == 0)));
    }
    // Repeats and gaps, like a bootstrap sample.
    let indices: Vec<usize> = (0..ROWS).map(|k| (k * k + 3 * k) % ROWS).collect();
    let crowded = indices.iter().filter(|&&i| i < 69_000).count();
    assert!(crowded >= 1 << 16, "one root bin must overflow 16 bits");
    let config = TreeConfig {
        max_depth: 3,
        ..TreeConfig::default()
    };
    let (swept, scanned) = fit_both(&data, &indices, &labels, 2, &config, 17);
    assert_eq!(swept, scanned);
    assert_eq!(swept.n_samples[0], ROWS, "root above the bound");
    for child in [swept.lefts[0], swept.rights[0]] {
        let child = child as usize;
        assert_ne!(swept.features[child], LEAF, "child must search a split");
        assert!(swept.n_samples[child] < 1 << 16, "child below the bound");
    }
}

/// The extreme just under the bound. Through a fit, the fullest packed
/// cell is 65 534 rows of class 1 beside one other present bin; filled
/// directly, 65 535 rows of class 1 in one bin make the cell
/// `0xFFFF_FFFF` — both halves full, neither carrying into the other.
#[test]
fn packed_cell_holds_the_largest_count_without_wrapping() {
    const ROWS: usize = (1 << 16) - 1;
    let mut data = Dataset::new(1);
    data.push(&[0.0], 0);
    data.push(&[1.0], 0);
    let labels = [0, 1];
    let mut indices = vec![1usize; ROWS];
    indices[0] = 0;
    let (swept, scanned) = fit_both(&data, &indices, &labels, 2, &TreeConfig::default(), 3);
    assert_eq!(swept, scanned);
    assert_eq!(swept.node_count(), 3, "one split separates the odd row out");

    let bins = BinnedDataset::build(&data);
    let mut arena = FitArena {
        node_counts: vec![0, ROWS],
        node_labels: vec![1; ROWS],
        ..FitArena::default()
    };
    let mut best = None;
    arena.sweep_packed(&bins, 0, &vec![1usize; ROWS], &mut best);
    assert_eq!(arena.hist.hist[..2], [0, 0xFFFF_FFFF]);
    assert_eq!(best, None, "a single present bin offers no threshold");
}
