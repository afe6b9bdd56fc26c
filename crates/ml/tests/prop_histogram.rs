//! Forest-level identities of the one training path, over the public
//! API: a forest fit over an index *view* of a corpus equals the forest
//! fit on a materialized copy of those rows, and both are the same
//! forest at every thread count. `PartialEq` on the fitted models
//! compares every feature index, threshold and leaf distribution, so
//! equality here is structural bit-identity. (That the histogram sweeps
//! equal a per-node sorted scan is a tree-level property, tested beside
//! the scan in `src/tree/sorted_scan.rs`.)

use proptest::prelude::*;

use sentinel_ml::{BinnedDataset, Dataset, FeatureSubsample, ForestConfig, RandomForest};

/// Datasets that stress the binning: few distinct values per column
/// (heavy duplicates, like the Table I bit features), fractional values,
/// constant columns, and 2-4 classes.
fn dataset_strategy() -> impl Strategy<Value = Dataset> {
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
        proptest::collection::vec((row, 0..n_classes), n_rows).prop_map(move |rows| {
            let mut data = Dataset::new(n_features);
            for (values, label) in rows {
                data.push(&values, label);
            }
            data
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The bank's corpus-shared training path: a forest fit over an
    /// index *view* of the full corpus (with the one-vs-rest label
    /// remap, against bins built over the whole corpus) must equal the
    /// forest fit on a materialized copy of those rows (bins built over
    /// the copy alone) — at every thread count. This is the
    /// losslessness claim of `RandomForest::fit_view`: corpus bins that
    /// are empty inside the view never contribute a candidate threshold.
    #[test]
    fn view_forest_is_bit_identical_to_materialized_subset(
        data in dataset_strategy(),
        seed in any::<u64>(),
    ) {
        let offset = (seed % 3) as usize;
        let mut rows: Vec<usize> = (0..data.len()).filter(|i| !(i + offset).is_multiple_of(3)).collect();
        if rows.is_empty() {
            rows = (0..data.len()).collect();
        }
        // Binary remap, exactly as the classifier bank applies it.
        let labels: Vec<usize> = rows.iter().map(|&i| usize::from(data.label(i) == 0)).collect();
        let mut subset = Dataset::new(data.n_features());
        for (&i, &label) in rows.iter().zip(&labels) {
            subset.push(data.row(i), label);
        }
        let base = ForestConfig {
            n_trees: 12,
            feature_subsample: FeatureSubsample::Sqrt,
            max_depth: 8,
            min_samples_split: 2,
            min_samples_leaf: 1,
            seed,
            threads: 1,
        };
        let materialized = RandomForest::fit(&subset, &base);
        let bins = BinnedDataset::build(&data);
        for threads in [1usize, 2, 8] {
            let view = RandomForest::fit_view(
                &data,
                &bins,
                &rows,
                &labels,
                &base.clone().with_threads(threads),
            );
            prop_assert_eq!(
                &materialized,
                &view,
                "corpus-shared view forest diverged at {} threads",
                threads
            );
        }
    }

    #[test]
    fn binned_forest_is_bit_identical_at_any_thread_count(
        data in dataset_strategy(),
        seed in any::<u64>(),
    ) {
        let base = ForestConfig {
            n_trees: 12,
            feature_subsample: FeatureSubsample::Sqrt,
            max_depth: 8,
            min_samples_split: 2,
            min_samples_leaf: 1,
            seed,
            threads: 1,
        };
        let sequential = RandomForest::fit(&data, &base);
        for threads in [2usize, 8] {
            let parallel = RandomForest::fit(&data, &base.clone().with_threads(threads));
            prop_assert_eq!(
                &sequential,
                &parallel,
                "forest fitted on {} threads diverged from the sequential fit",
                threads
            );
        }
    }
}
