//! Random Forest (Breiman, 2001): bagged CART trees with per-split
//! feature subsampling.
//!
//! [`RandomForest::fit_view`] is the one forest fit: bootstrap samples
//! and per-tree seeds are drawn sequentially, then every tree is grown
//! by [`DecisionTree::fit_view_in`] over the same corpus and the same
//! [`BinnedDataset`], one warm [`FitArena`] per worker thread.

use crate::binning::BinnedDataset;
use crate::parallel;
use crate::pinned::PinnedRng;
use crate::sampling::bootstrap_indices_into;
use crate::tree::{argmax, FitArena};
use crate::{Dataset, DecisionTree, TreeConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How many candidate features each split considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureSubsample {
    /// `⌈√d⌉` random features per split (the Random Forest default).
    Sqrt,
    /// All features (pure bagging).
    All,
    /// A fixed number of random features per split.
    Fixed(usize),
}

impl FeatureSubsample {
    fn resolve(self, n_features: usize) -> Option<usize> {
        match self {
            FeatureSubsample::Sqrt => Some((n_features as f64).sqrt().ceil() as usize),
            FeatureSubsample::All => None,
            FeatureSubsample::Fixed(k) => Some(k.clamp(1, n_features)),
        }
    }
}

/// Training parameters for a [`RandomForest`].
#[derive(Debug, Clone, PartialEq)]
pub struct ForestConfig {
    /// Number of trees.
    pub n_trees: usize,
    /// Per-split feature subsampling strategy.
    pub feature_subsample: FeatureSubsample,
    /// Maximum depth of each tree.
    pub max_depth: usize,
    /// Minimum samples to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// RNG seed for bootstrap and feature sampling.
    pub seed: u64,
    /// Worker threads for fitting (`0` = auto via `SENTINEL_THREADS` /
    /// available parallelism, `1` = the exact sequential path). The
    /// fitted forest is bit-identical for every thread count: bootstrap
    /// samples and per-tree seeds are drawn sequentially up front, so
    /// threads only share out already-determined work.
    pub threads: usize,
}

impl Default for ForestConfig {
    /// Matches the Weka defaults the paper's evaluation would have used:
    /// 100 unpruned trees with √d features per split.
    fn default() -> Self {
        ForestConfig {
            n_trees: 100,
            feature_subsample: FeatureSubsample::Sqrt,
            max_depth: 24,
            min_samples_split: 2,
            min_samples_leaf: 1,
            seed: 0,
            threads: 0,
        }
    }
}

impl ForestConfig {
    /// Returns the config with a different seed (builder style).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns the config with a different tree count (builder style).
    #[must_use]
    pub fn with_trees(mut self, n_trees: usize) -> Self {
        self.n_trees = n_trees;
        self
    }

    /// Returns the config with a different thread count (builder style).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

/// A trained Random Forest classifier.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForest {
    trees: Vec<DecisionTree>,
    n_classes: usize,
    /// Out-of-bag accuracy estimated during training (`None` if some
    /// sample was never out-of-bag, e.g. with very few trees).
    oob_accuracy: Option<f64>,
}

impl RandomForest {
    /// Fits a forest on all rows of `data` with its own labels: bins
    /// `data` and calls [`RandomForest::fit_view`] with every row in
    /// view.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty or `config.n_trees` is zero.
    pub fn fit(data: &Dataset, config: &ForestConfig) -> Self {
        assert!(!data.is_empty(), "cannot fit a forest on an empty dataset");
        let rows: Vec<usize> = (0..data.len()).collect();
        let bins = BinnedDataset::build(data);
        Self::fit_view(data, &bins, &rows, data.labels(), config)
    }

    /// Fits a forest over a *view* of a shared corpus: `rows` selects
    /// distinct rows of `data`, `labels[k]` is the class of row
    /// `rows[k]`, and split search runs over `bins` built **once** from
    /// the full corpus (shared read-only by every tree, every worker
    /// thread and every view that trains over it — the one-vs-rest bank
    /// trains 27 forests against a single binned design matrix this
    /// way).
    ///
    /// Lossless versus copying the view into its own `Dataset` and
    /// calling [`RandomForest::fit`]: corpus bins absent from a node
    /// are empty in its histogram and the sweep skips empty bins, so
    /// thresholds, evaluation order, candidate budget and RNG stream
    /// are identical (pinned by `tests/prop_histogram.rs`).
    ///
    /// # Panics
    ///
    /// Panics if the view is empty, `rows` and `labels` disagree in
    /// length, `config.n_trees` is zero, or `bins` was not built from
    /// `data` (see [`DecisionTree::fit_view_in`]).
    pub fn fit_view(
        data: &Dataset,
        bins: &BinnedDataset,
        rows: &[usize],
        labels: &[usize],
        config: &ForestConfig,
    ) -> Self {
        assert!(config.n_trees > 0, "a forest needs at least one tree");
        assert_eq!(rows.len(), labels.len(), "every view row needs a label");
        assert!(!rows.is_empty(), "cannot fit a forest on an empty view");
        let n = rows.len();
        let n_classes = labels.iter().max().map_or(0, |&m| m + 1).max(2);
        let tree_config = TreeConfig {
            max_depth: config.max_depth,
            min_samples_split: config.min_samples_split,
            min_samples_leaf: config.min_samples_leaf,
            n_candidate_features: config.feature_subsample.resolve(data.n_features()),
        };
        let mut rng = StdRng::seed_from_u64(config.seed);
        // Draw every tree's bootstrap sample and seed sequentially from
        // the forest RNG first, then fit the (now fully determined)
        // trees on worker threads. Each tree gets an independent stream
        // so feature shuffling cannot correlate across trees. All
        // samples live back to back in one flat buffer (positions
        // `0..n` into the view).
        let mut samples: Vec<usize> = Vec::with_capacity(n * config.n_trees);
        let mut seeds: Vec<u64> = Vec::with_capacity(config.n_trees);
        for _ in 0..config.n_trees {
            bootstrap_indices_into(n, &mut rng, &mut samples);
            seeds.push(rng.gen());
        }
        // Trees look labels up by corpus row id; scatter the view labels
        // into a dense per-row array once per forest (rows outside the
        // view are never read — the bootstrap only draws view rows).
        let mut row_labels = vec![0usize; data.len()];
        for (&row, &label) in rows.iter().zip(labels) {
            row_labels[row] = label;
        }
        let threads = parallel::effective_threads(config.threads);
        // One scratch arena per worker thread, warm across all the
        // trees that worker claims (`FitArena` is pure scratch, so the
        // fitted forest stays bit-identical for every thread count).
        let fitted: Vec<(DecisionTree, Vec<(usize, usize)>)> =
            parallel::map_indexed_init(config.n_trees, threads, FitArena::new, |arena, t| {
                let positions = &samples[t * n..(t + 1) * n];
                // Per-tree candidate draws are pinned, keyed by (forest
                // seed, tree index, per-tree seed word) — the seed word
                // comes from the forest-level stream above, so streams
                // stay independent across trees.
                let mut tree_rng = PinnedRng::from_key(config.seed, t as u64, seeds[t]);
                // Map bootstrap positions to corpus row ids in the
                // arena's staging buffer.
                let mut sample = std::mem::take(&mut arena.sample);
                sample.clear();
                sample.extend(positions.iter().map(|&p| rows[p]));
                let tree = DecisionTree::fit_view_in(
                    data,
                    bins,
                    &sample,
                    &row_labels,
                    n_classes,
                    &tree_config,
                    &mut tree_rng,
                    arena,
                );
                arena.sample = sample;
                // Out-of-bag votes: each tree votes on the samples its
                // bootstrap missed, giving a free generalization
                // estimate (Breiman 2001).
                let in_bag = &mut arena.in_bag;
                in_bag.clear();
                in_bag.resize(n, false);
                for &p in positions {
                    in_bag[p] = true;
                }
                let oob: Vec<(usize, usize)> = (0..n)
                    .filter(|&p| !in_bag[p])
                    .map(|p| (p, tree.predict(data.row(rows[p]))))
                    .collect();
                (tree, oob)
            });
        let mut oob_votes = vec![vec![0usize; n_classes]; n];
        let mut trees = Vec::with_capacity(config.n_trees);
        for (tree, oob) in fitted {
            for (i, vote) in oob {
                oob_votes[i][vote] += 1;
            }
            trees.push(tree);
        }
        let mut correct = 0usize;
        let mut voted = 0usize;
        for (votes, &truth) in oob_votes.iter().zip(labels) {
            if votes.iter().sum::<usize>() == 0 {
                continue;
            }
            voted += 1;
            if argmax(votes) == truth {
                correct += 1;
            }
        }
        let oob_accuracy = (voted == n).then(|| correct as f64 / voted as f64);
        RandomForest {
            trees,
            n_classes,
            oob_accuracy,
        }
    }

    /// The out-of-bag accuracy estimate from training, if every training
    /// sample received at least one out-of-bag vote.
    pub fn oob_accuracy(&self) -> Option<f64> {
        self.oob_accuracy
    }

    /// The fitted trees, in fitting order.
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The number of trees in the forest.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// The number of classes the forest distinguishes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Rebuilds a forest from already-validated trees (binary model
    /// persistence): the forest's class count is taken from the trees,
    /// which must agree on it.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant if `trees` is
    /// empty or the trees disagree on the number of classes.
    pub fn from_parts(trees: Vec<DecisionTree>, oob_accuracy: Option<f64>) -> Result<Self, String> {
        let n_classes = match trees.first() {
            Some(tree) => tree.n_classes(),
            None => return Err("forest has no trees".into()),
        };
        if let Some(odd) = trees.iter().position(|t| t.n_classes() != n_classes) {
            return Err(format!(
                "tree {odd} distinguishes {} classes, tree 0 distinguishes {n_classes}",
                trees[odd].n_classes()
            ));
        }
        Ok(RandomForest {
            trees,
            n_classes,
            oob_accuracy,
        })
    }

    /// Predicts the majority-vote class for a feature row.
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut votes = vec![0usize; self.n_classes];
        for tree in &self.trees {
            votes[tree.predict(row)] += 1;
        }
        argmax(&votes)
    }

    /// Writes the per-class vote fractions for a feature row into `out`
    /// (vote tallies up to `n_trees` are exact in `f64`).
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.n_classes()`.
    pub fn predict_proba_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_classes, "probability buffer width");
        out.fill(0.0);
        for tree in &self.trees {
            out[tree.predict(row)] += 1.0;
        }
        for slot in out.iter_mut() {
            *slot /= self.trees.len() as f64;
        }
    }

    /// Convenience for binary classifiers: returns `true` if class 1 wins
    /// the vote.
    ///
    /// Equivalent to `predict(row) == 1`, but for binary forests the
    /// vote loop stops as soon as the outcome is mathematically decided
    /// (majority reached, or unreachable even if every remaining tree
    /// votes 1) — on decisive inputs this skips roughly half the trees,
    /// which is most of the 27-classifier identification stage.
    pub fn accepts(&self, row: &[f64]) -> bool {
        if self.n_classes != 2 {
            return self.predict(row) == 1;
        }
        let n = self.trees.len();
        // `argmax` sends ties to class 0, so class 1 needs a strict
        // majority of the votes.
        let needed = n / 2 + 1;
        let mut ones = 0usize;
        for (t, tree) in self.trees.iter().enumerate() {
            ones += usize::from(tree.predict(row) == 1);
            if ones >= needed {
                return true;
            }
            if ones + (n - t - 1) < needed {
                return false;
            }
        }
        false
    }

    /// Mean Gini feature importances over all trees, normalized to sum
    /// to 1 (all zeros if no tree ever split).
    pub fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        let mut total = vec![0.0; n_features];
        for tree in &self.trees {
            for (slot, value) in total.iter_mut().zip(tree.feature_importances(n_features)) {
                *slot += value;
            }
        }
        let sum: f64 = total.iter().sum();
        if sum > 0.0 {
            for value in &mut total {
                *value /= sum;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RandomForest {
        /// Per-class vote fractions for a feature row.
        fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
            let mut out = vec![0.0; self.n_classes];
            self.predict_proba_into(row, &mut out);
            out
        }
    }

    fn blobs(n_per_class: usize) -> Dataset {
        // Two well-separated 2-D blobs laid out deterministically.
        let mut data = Dataset::new(2);
        for i in 0..n_per_class {
            let jitter = (i % 7) as f64 * 0.01;
            data.push(&[0.0 + jitter, 0.0 - jitter], 0);
            data.push(&[5.0 - jitter, 5.0 + jitter], 1);
        }
        data
    }

    #[test]
    fn separable_blobs_classified() {
        let forest = RandomForest::fit(&blobs(30), &ForestConfig::default().with_seed(1));
        assert_eq!(forest.predict(&[0.2, 0.1]), 0);
        assert_eq!(forest.predict(&[4.8, 5.1]), 1);
        assert!(forest.accepts(&[5.0, 5.0]));
        assert!(!forest.accepts(&[0.0, 0.0]));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = blobs(20);
        let a = RandomForest::fit(&data, &ForestConfig::default().with_seed(9));
        let b = RandomForest::fit(&data, &ForestConfig::default().with_seed(9));
        assert_eq!(a, b);
    }

    #[test]
    fn fitted_forest_is_identical_for_every_thread_count() {
        let data = blobs(20);
        let sequential =
            RandomForest::fit(&data, &ForestConfig::default().with_seed(9).with_threads(1));
        for threads in [2, 8] {
            let parallel = RandomForest::fit(
                &data,
                &ForestConfig::default().with_seed(9).with_threads(threads),
            );
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn accepts_early_exit_matches_full_vote() {
        let data = blobs(25);
        let forest = RandomForest::fit(&data, &ForestConfig::default().with_trees(31).with_seed(5));
        for i in 0..data.len() {
            let row = data.row(i);
            assert_eq!(forest.accepts(row), forest.predict(row) == 1, "row {i}");
        }
        // Ambiguous mid-point rows too, where the vote is close.
        for x in [2.0, 2.5, 3.0] {
            let row = [x, x];
            assert_eq!(forest.accepts(&row), forest.predict(&row) == 1);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let data = blobs(20);
        let a = RandomForest::fit(&data, &ForestConfig::default().with_seed(1));
        let b = RandomForest::fit(&data, &ForestConfig::default().with_seed(2));
        assert_ne!(a, b, "bootstrap samples should differ");
    }

    #[test]
    fn proba_sums_to_one() {
        let forest = RandomForest::fit(&blobs(10), &ForestConfig::default().with_trees(31));
        let proba = forest.predict_proba(&[2.5, 2.5]);
        assert!((proba.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert_eq!(forest.n_trees(), 31);
    }

    #[test]
    fn subsample_strategies_resolve() {
        assert_eq!(FeatureSubsample::Sqrt.resolve(276), Some(17));
        assert_eq!(FeatureSubsample::All.resolve(276), None);
        assert_eq!(FeatureSubsample::Fixed(500).resolve(276), Some(276));
        assert_eq!(FeatureSubsample::Fixed(0).resolve(276), Some(1));
    }

    #[test]
    fn oob_accuracy_high_on_separable_data() {
        let forest = RandomForest::fit(&blobs(30), &ForestConfig::default().with_seed(4));
        let oob = forest.oob_accuracy().expect("100 trees cover all samples");
        assert!(oob > 0.95, "oob accuracy {oob}");
    }

    #[test]
    fn oob_none_with_single_tree_is_possible() {
        // One tree leaves ~37% of samples out-of-bag; the rest get no
        // vote, so the estimate must be withheld.
        let forest = RandomForest::fit(&blobs(30), &ForestConfig::default().with_trees(1));
        // Either every sample happened to be OOB (tiny chance) or None.
        if let Some(oob) = forest.oob_accuracy() {
            assert!((0.0..=1.0).contains(&oob));
        }
    }

    #[test]
    fn forest_importances_are_normalized() {
        let forest = RandomForest::fit(&blobs(20), &ForestConfig::default().with_trees(15));
        let importances = forest.feature_importances(2);
        assert!((importances.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(importances.iter().all(|&v| v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_rejected() {
        let _ = RandomForest::fit(&Dataset::new(2), &ForestConfig::default());
    }
}
