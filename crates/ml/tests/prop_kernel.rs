//! Differential property tests for the stage-1 kernels: on random banks
//! of random forests, [`BankScorer::candidates_into`] must name exactly
//! the forests whose [`RandomForest::accepts`] says yes, in label order
//! — the contract `ClassifierBank::matches` states per fingerprint —
//! for 1–13 trees (even counts hit the tie → reject rule), depth-limited
//! and unlimited trees (depth 0 makes every root a leaf), and probes on
//! the training rows, exactly on split thresholds, off the training
//! manifold and with NaN (either sign), ±∞ and −0.0 cells. A second test
//! patches thresholds a model file could carry (NaN of either sign, ±∞,
//! −0.0) into fitted trees and holds the scorer to the same oracle; the
//! first also holds each forest's class-1 vote share
//! ([`BankScorer::vote_share`]) to `RandomForest::predict_proba_into`,
//! bit for bit, on banks with such thresholds and a walked forest. A
//! third holds [`BankScorer::candidates_batch_into`] — the lane kernel
//! from 20 rows up, the per-row kernel below — to both, batch by batch,
//! on banks that mix those models with a forest too wide for the lane
//! layout.

use proptest::prelude::*;

use sentinel_ml::{
    BankScorer, Dataset, DecisionTree, FeatureSubsample, ForestConfig, RandomForest,
};

/// A deterministic value hash (splitmix-style) so datasets come from a
/// few proptest scalars instead of giant generated vectors.
fn mix(seed: u64, i: u64, f: u64) -> u64 {
    let mut x =
        seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ (f.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x
}

/// Builds a deterministic dataset: integer-valued cells (midpoint
/// thresholds like `1.5`, as `F'` has) or multiples of `0.3`
/// (thresholds with long binary expansions).
fn dataset(seed: u64, rows: usize, features: usize, classes: usize, integer: bool) -> Dataset {
    let step = if integer { 1.0 } else { 0.3 };
    let mut data = Dataset::new(features);
    let mut row = vec![0.0f64; features];
    for i in 0..rows {
        for (f, slot) in row.iter_mut().enumerate() {
            *slot = (mix(seed, i as u64, f as u64) % 9) as f64 * step;
        }
        data.push(
            &row,
            (mix(seed, i as u64, 1 + features as u64) % classes as u64) as usize,
        );
    }
    data
}

/// Cell values no training row holds.
const ODD_CELLS: [f64; 5] = [f64::NAN, -f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];

/// The probes one case scores: every training row, rows moved exactly
/// onto split thresholds, rows off the manifold (negative, fractional,
/// far above the training range), and rows with non-finite cells.
fn probes(seed: u64, data: &Dataset, bank: &[RandomForest]) -> Vec<Vec<f64>> {
    let features = data.n_features();
    let mut probes: Vec<Vec<f64>> = (0..data.len()).map(|i| data.row(i).to_vec()).collect();
    let splits: Vec<(usize, f64)> = bank
        .iter()
        .flat_map(RandomForest::trees)
        .flat_map(|tree| {
            let parts = tree.to_parts();
            parts
                .features
                .into_iter()
                .zip(parts.thresholds)
                .filter(|&(feature, _)| feature != u32::MAX)
                .map(|(feature, threshold)| (feature as usize, threshold))
        })
        .collect();
    for k in 0..24u64 {
        let mut row = data
            .row((mix(seed, k, 77) % data.len() as u64) as usize)
            .to_vec();
        // Half the cells land exactly on some split's threshold.
        for &(feature, threshold) in splits.iter().skip(k as usize).step_by(3).take(features) {
            row[feature] = threshold;
        }
        probes.push(row);
        probes.push(
            (0..features as u64)
                .map(|f| (mix(seed, k, 100 + f) % 41) as f64 * 0.25 - 2.0)
                .collect(),
        );
        let mut odd = data.row(k as usize % data.len()).to_vec();
        odd[(k as usize) % features] = ODD_CELLS[k as usize % ODD_CELLS.len()];
        probes.push(odd);
    }
    for value in ODD_CELLS {
        probes.push(vec![value; features]);
    }
    probes
}

fn candidates(scorer: &BankScorer, row: &[f64], words: &mut Vec<u64>) -> Vec<usize> {
    let mut out = Vec::new();
    scorer.candidates_into(row, words, &mut out);
    out
}

/// `forest` with every split threshold but each seventh replaced, in
/// turn, by a value fitting never produces but `from_parts` accepts.
fn with_hostile_thresholds(forest: &RandomForest, n_features: usize) -> RandomForest {
    let hostile = [
        f64::NAN,
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        -0.0,
        0.0,
    ];
    let mut k = 0usize;
    let trees = forest
        .trees()
        .iter()
        .map(|tree| {
            let mut parts = tree.to_parts();
            for (at, &feature) in parts.features.iter().enumerate() {
                if feature != u32::MAX {
                    if k % 7 < hostile.len() {
                        parts.thresholds[at] = hostile[k % 7];
                    }
                    k += 1;
                }
            }
            DecisionTree::from_parts(parts, n_features).expect("only thresholds changed")
        })
        .collect();
    RandomForest::from_parts(trees, forest.oob_accuracy()).expect("same trees, same classes")
}

#[test]
fn hostile_thresholds_neither_panic_nor_change_a_verdict() {
    for seed in 0..6u64 {
        let data = dataset(seed, 50, 5, 2, seed % 2 == 0);
        let bank: Vec<RandomForest> = (0..4u64)
            .map(|label| {
                let config = ForestConfig::default()
                    .with_trees(9)
                    .with_seed(seed ^ label);
                with_hostile_thresholds(&RandomForest::fit(&data, &config), 5)
            })
            .collect();
        let scorer = BankScorer::new(&bank);
        let mut words = Vec::new();
        let mut accepted = 0;
        for (p, row) in probes(seed, &data, &bank).iter().enumerate() {
            let expected: Vec<usize> = (0..4).filter(|&l| bank[l].accepts(row)).collect();
            accepted += expected.len();
            assert_eq!(
                candidates(&scorer, row, &mut words),
                expected,
                "seed {seed} probe {p} {row:?}"
            );
        }
        assert!(
            accepted > 0,
            "seed {seed}: the patched bank still accepts something"
        );
    }
}

/// A forest over `features` columns with a tree of more than 64 leaves
/// (column 0 counts up and its parity is the class), which the scorer
/// can only walk.
fn too_wide_for_lanes(features: usize) -> RandomForest {
    let mut data = Dataset::new(features);
    let mut row = vec![0.0f64; features];
    for i in 0..400usize {
        row[0] = i as f64 * 0.5;
        for (f, cell) in row.iter_mut().enumerate().skip(1) {
            *cell = (mix(7, i as u64, f as u64) % 9) as f64;
        }
        data.push(&row, i % 2);
    }
    let config = ForestConfig {
        feature_subsample: FeatureSubsample::All,
        ..ForestConfig::default().with_trees(3).with_seed(3)
    };
    let forest = RandomForest::fit(&data, &config);
    let leaves = |tree: &DecisionTree| tree.node_count().div_ceil(2);
    assert!(forest.trees().iter().any(|tree| leaves(tree) > 64));
    forest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scorer_names_the_forests_that_accept_in_label_order(
        seed in any::<u64>(),
        rows in 20usize..60,
        features in 1usize..9,
        classes in 2usize..4,
        n_forests in 1usize..6,
        n_trees in 1usize..=13,
        max_depth in prop_oneof![Just(0usize), Just(1), Just(3), Just(24)],
        integer in any::<bool>(),
        hostile in any::<bool>(),
        wide_at in proptest::option::of(0usize..6),
    ) {
        let data = dataset(seed, rows, features, classes, integer);
        let mut bank: Vec<RandomForest> = (0..n_forests as u64)
            .map(|label| {
                let config = ForestConfig {
                    max_depth,
                    ..ForestConfig::default().with_trees(n_trees).with_seed(seed ^ label)
                };
                let forest = RandomForest::fit(&data, &config);
                if hostile {
                    with_hostile_thresholds(&forest, features)
                } else {
                    forest
                }
            })
            .collect();
        if let Some(at) = wide_at {
            bank.insert(at.min(bank.len()), too_wide_for_lanes(features));
        }
        let n_forests = bank.len();
        let scorer = BankScorer::new(&bank);
        let alone: Vec<BankScorer> = bank
            .iter()
            .map(|forest| BankScorer::new(std::slice::from_ref(forest)))
            .collect();
        // One word buffer across scorers of different sizes: scratch
        // carries nothing from call to call.
        let mut words = Vec::new();
        for (p, row) in probes(seed, &data, &bank).iter().enumerate() {
            let expected: Vec<usize> = (0..n_forests).filter(|&l| bank[l].accepts(row)).collect();
            prop_assert_eq!(candidates(&scorer, row, &mut words), expected, "probe {} {:?}", p, row);
            for (label, single) in alone.iter().enumerate() {
                let verdict = candidates(single, row, &mut words) == [0];
                prop_assert_eq!(verdict, bank[label].accepts(row), "forest {} probe {}", label, p);
                // The class-1 vote share `RfOnly` breaks ties with.
                let mut proba = vec![0.0; bank[label].n_classes()];
                bank[label].predict_proba_into(row, &mut proba);
                prop_assert_eq!(
                    scorer.vote_share(label, row, &mut words).to_bits(),
                    proba[1].to_bits(),
                    "forest {} probe {}", label, p
                );
            }
        }
    }

    #[test]
    fn batches_name_what_each_row_names_in_label_order(
        seed in any::<u64>(),
        rows in 20usize..60,
        features in 1usize..9,
        n_forests in 1usize..5,
        n_trees in 1usize..=13,
        max_depth in prop_oneof![Just(0usize), Just(1), Just(3), Just(24)],
        integer in any::<bool>(),
        hostile in any::<bool>(),
        wide_at in proptest::option::of(0usize..5),
        batch in 1usize..=130,
    ) {
        let data = dataset(seed, rows, features, 2, integer);
        let mut bank: Vec<RandomForest> = (0..n_forests as u64)
            .map(|label| {
                let config = ForestConfig {
                    max_depth,
                    ..ForestConfig::default().with_trees(n_trees).with_seed(seed ^ label)
                };
                let forest = RandomForest::fit(&data, &config);
                if hostile {
                    with_hostile_thresholds(&forest, features)
                } else {
                    forest
                }
            })
            .collect();
        if let Some(at) = wide_at {
            bank.insert(at.min(bank.len()), too_wide_for_lanes(features));
        }
        let scorer = BankScorer::new(&bank);
        let probes = probes(seed, &data, &bank);
        // More than 130 rows, so every batch size cuts them more than once.
        let n = probes.len().max(130) + 7;
        let rows: Vec<&[f64]> = probes.iter().cycle().take(n).map(Vec::as_slice).collect();
        let (mut words, mut expected) = (Vec::new(), Vec::new());
        for row in &rows {
            let accepted: Vec<usize> = (0..bank.len()).filter(|&l| bank[l].accepts(row)).collect();
            let mut per_row = Vec::new();
            scorer.candidates_into(row, &mut words, &mut per_row);
            prop_assert_eq!(&per_row, &accepted, "{:?}", row);
            expected.push(accepted);
        }
        // One word buffer across kernels and batch shapes: scratch
        // carries nothing from call to call.
        // Around the lane cutoff (20), alone and after a full word (84).
        for size in [15, 16, 17, 19, 20, 21, 63, 64, 65, 84, 128, batch] {
            for (at, chunk) in rows.chunks(size).enumerate() {
                let mut out = vec![Vec::new(); chunk.len()];
                scorer.candidates_batch_into(|i| chunk[i], &mut words, &mut out);
                for (i, labels) in out.iter().enumerate() {
                    prop_assert_eq!(
                        labels, &expected[at * size + i],
                        "batch of {}, row {} of {}", size, i, chunk.len()
                    );
                }
            }
        }
    }
}
