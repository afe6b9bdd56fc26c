//! The "one classifier per device-type" bank (Sect. IV-B.1).

use rand::rngs::StdRng;
use rand::SeedableRng;
use sentinel_fingerprint::FixedFingerprint;
use sentinel_ml::parallel;
use sentinel_ml::sampling::balanced_one_vs_rest;
use sentinel_ml::{BinnedDataset, Dataset, ForestConfig, RandomForest};

use crate::FingerprintDataset;

/// Training parameters for a [`ClassifierBank`].
#[derive(Debug, Clone, PartialEq)]
pub struct BankConfig {
    /// Negative-to-positive sampling ratio for one-vs-rest training (the
    /// paper trains each classifier on all `n` positives plus `10·n`
    /// random negatives).
    pub negative_ratio: usize,
    /// Random Forest parameters.
    pub forest: ForestConfig,
    /// Seed for negative sampling (forests derive their own sub-seeds).
    pub seed: u64,
    /// Worker threads for training the per-type classifiers (`0` = auto
    /// via `SENTINEL_THREADS` / available parallelism, `1` = the exact
    /// sequential path). Each label already derives independent RNG
    /// streams from the bank and forest seeds, so the trained bank is
    /// bit-identical for every thread count.
    pub threads: usize,
}

impl Default for BankConfig {
    fn default() -> Self {
        BankConfig {
            negative_ratio: 10,
            forest: ForestConfig::default(),
            seed: 0,
            threads: 0,
        }
    }
}

/// One binary Random Forest per known device-type.
///
/// New device-types are added with [`ClassifierBank::add_type`] without
/// touching existing classifiers — the property the paper highlights
/// over multi-class approaches ("a new classifier is trained without
/// making any modification to the existing classifiers").
#[derive(Debug, Clone, PartialEq)]
pub struct ClassifierBank {
    classifiers: Vec<RandomForest>,
    type_names: Vec<String>,
    config: BankConfig,
}

impl ClassifierBank {
    /// Trains one classifier per device-type present in `dataset`.
    ///
    /// The full corpus is copied into one design matrix and binned
    /// **once**; every label's forest then trains over an index *view*
    /// of that shared [`BinnedDataset`] (its positives plus sampled
    /// negatives, with a 1/0 label remap) instead of materializing and
    /// re-binning a per-label dataset — bit-identical models, ~27×
    /// less binning work (see `RandomForest::fit_view`).
    ///
    /// Labels train concurrently (see [`BankConfig::threads`]); every
    /// label's sampling and forest RNG streams are derived from the
    /// seeds alone, so the result never depends on the thread count.
    pub fn train(dataset: &FingerprintDataset, config: &BankConfig) -> Self {
        let mut bank = ClassifierBank {
            classifiers: Vec::new(),
            type_names: dataset.type_names().to_vec(),
            config: config.clone(),
        };
        if dataset.n_types() == 0 {
            return bank;
        }
        let corpus = corpus_of(dataset);
        let bins = BinnedDataset::build(&corpus);
        let threads = parallel::effective_threads(config.threads).min(dataset.n_types().max(1));
        // With the label fan-out already saturating the workers, each
        // forest fits sequentially; a lone worker lets the forest use
        // its own configured parallelism instead.
        let forest_threads = if threads > 1 { Some(1) } else { None };
        let classifiers = parallel::map_indexed(dataset.n_types(), threads, |label| {
            bank.train_one(dataset, &corpus, &bins, label, forest_threads)
        });
        bank.classifiers = classifiers;
        bank
    }

    /// Trains a classifier for one additional device-type and appends
    /// it, leaving existing classifiers untouched. Returns the new
    /// type's label.
    ///
    /// `dataset` must contain fingerprints labeled with the new type's
    /// index (i.e. `self.n_types()`). The appended classifier is
    /// bit-identical to the one a full [`ClassifierBank::train`] on
    /// `dataset` would produce for that label: its sampling and forest
    /// seeds derive from the label alone, and the corpus it bins is the
    /// same.
    pub fn add_type(&mut self, name: impl Into<String>, dataset: &FingerprintDataset) -> usize {
        let label = self.classifiers.len();
        let corpus = corpus_of(dataset);
        let bins = BinnedDataset::build(&corpus);
        self.type_names.push(name.into());
        self.classifiers
            .push(self.train_one(dataset, &corpus, &bins, label, None));
        label
    }

    fn train_one(
        &self,
        dataset: &FingerprintDataset,
        corpus: &Dataset,
        bins: &BinnedDataset,
        label: usize,
        forest_threads: Option<usize>,
    ) -> RandomForest {
        let positives = dataset.indices_of(label);
        let negatives: Vec<usize> = (0..dataset.len())
            .filter(|&i| dataset.label(i) != label)
            .collect();
        assert!(
            !positives.is_empty(),
            "no fingerprints for type {label} ({})",
            self.type_names.get(label).map_or("?", |s| s)
        );
        let mut rng =
            StdRng::seed_from_u64(self.config.seed ^ (label as u64).wrapping_mul(0x9e37_79b9));
        let (indices, labels) =
            balanced_one_vs_rest(&positives, &negatives, self.config.negative_ratio, &mut rng);
        let mut forest_config = self
            .config
            .forest
            .clone()
            .with_seed(self.config.forest.seed ^ (label as u64).wrapping_mul(0x85eb_ca6b));
        if let Some(threads) = forest_threads {
            forest_config.threads = threads;
        }
        RandomForest::fit_view(corpus, bins, &indices, &labels, &forest_config)
    }

    /// Number of device-types the bank recognizes.
    pub fn n_types(&self) -> usize {
        self.classifiers.len()
    }

    /// Device-type names, indexed by label.
    pub fn type_names(&self) -> &[String] {
        &self.type_names
    }

    /// All one-vs-rest classifiers, indexed by label (binary model
    /// persistence).
    pub fn classifiers(&self) -> &[RandomForest] {
        &self.classifiers
    }

    /// The configuration the bank was trained with.
    pub fn config(&self) -> &BankConfig {
        &self.config
    }

    /// Rebuilds a bank from persisted parts. Each classifier must be
    /// binary (the one-vs-rest contract every acceptance query relies
    /// on) and pair up with exactly one type name.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant.
    pub fn from_parts(
        classifiers: Vec<RandomForest>,
        type_names: Vec<String>,
        config: BankConfig,
    ) -> Result<Self, String> {
        if classifiers.len() != type_names.len() {
            return Err(format!(
                "{} classifiers for {} type names",
                classifiers.len(),
                type_names.len()
            ));
        }
        if let Some(odd) = classifiers.iter().position(|c| c.n_classes() != 2) {
            return Err(format!(
                "classifier {odd} distinguishes {} classes; one-vs-rest classifiers are binary",
                classifiers[odd].n_classes()
            ));
        }
        Ok(ClassifierBank {
            classifiers,
            type_names,
            config,
        })
    }

    /// Labels of all device-types whose classifier accepts the
    /// fingerprint. Empty means *new/unknown device-type*.
    pub fn matches(&self, fingerprint: &FixedFingerprint) -> Vec<usize> {
        self.classifiers
            .iter()
            .enumerate()
            .filter(|(_, classifier)| classifier.accepts(fingerprint.as_slice()))
            .map(|(label, _)| label)
            .collect()
    }

    /// Whether type `label`'s classifier accepts the fingerprint.
    pub fn accepts(&self, label: usize, fingerprint: &FixedFingerprint) -> bool {
        self.classifiers[label].accepts(fingerprint.as_slice())
    }

    /// The acceptance vote fraction of type `label` for the fingerprint.
    pub fn confidence(&self, label: usize, fingerprint: &FixedFingerprint) -> f64 {
        // Bank classifiers are binary; a stack buffer keeps this
        // per-row query allocation-free.
        let mut proba = [0.0f64; 2];
        self.classifiers[label].predict_proba_into(fingerprint.as_slice(), &mut proba);
        proba[1]
    }

    /// Gini feature importances of type `label`'s classifier over the
    /// `n_features` dimensions of `F'`.
    pub fn classifier_importances(&self, label: usize, n_features: usize) -> Vec<f64> {
        self.classifiers[label].feature_importances(n_features)
    }
}

/// Copies the full fingerprint dataset into one dense design matrix
/// (the corpus every one-vs-rest view trains against).
fn corpus_of(dataset: &FingerprintDataset) -> Dataset {
    assert!(
        !dataset.is_empty(),
        "cannot train a classifier bank on an empty dataset"
    );
    let n_features = dataset.fixed(0).dimensions();
    let mut corpus = Dataset::with_capacity(n_features, dataset.len());
    for i in 0..dataset.len() {
        corpus.push(dataset.fixed(i).as_slice(), dataset.label(i));
    }
    corpus
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_devicesim::catalog;

    impl ClassifierBank {
        /// The trained classifier for type `label` (model inspection and
        /// determinism tests).
        pub(crate) fn classifier(&self, label: usize) -> &RandomForest {
            &self.classifiers[label]
        }
    }

    fn dataset() -> FingerprintDataset {
        // Three behaviourally distinct devices keep the test fast.
        let devices: Vec<_> = catalog().into_iter().take(3).collect();
        FingerprintDataset::collect(&devices, 8, 3)
    }

    fn fast_config() -> BankConfig {
        BankConfig {
            forest: ForestConfig::default().with_trees(25),
            ..BankConfig::default()
        }
    }

    #[test]
    fn distinct_types_accepted_by_own_classifier() {
        let data = dataset();
        let bank = ClassifierBank::train(&data, &fast_config());
        assert_eq!(bank.n_types(), 3);
        // Evaluate on the training data: distinct types must at minimum
        // separate there.
        let mut correct = 0;
        for i in 0..data.len() {
            let matches = bank.matches(data.fixed(i));
            if matches == vec![data.label(i)] {
                correct += 1;
            }
        }
        assert!(
            correct as f64 / data.len() as f64 > 0.9,
            "only {correct}/{} cleanly matched",
            data.len()
        );
    }

    #[test]
    fn add_type_is_incremental() {
        let devices: Vec<_> = catalog().into_iter().take(4).collect();
        let three = FingerprintDataset::collect(&devices[..3], 8, 3);
        let four = FingerprintDataset::collect(&devices, 8, 3);
        let mut bank = ClassifierBank::train(&three, &fast_config());
        let before: Vec<_> = (0..3).map(|l| bank.confidence(l, four.fixed(0))).collect();
        let label = bank.add_type(devices[3].info.identifier, &four);
        assert_eq!(label, 3);
        assert_eq!(bank.n_types(), 4);
        let after: Vec<_> = (0..3).map(|l| bank.confidence(l, four.fixed(0))).collect();
        assert_eq!(before, after, "existing classifiers untouched");
        // The new classifier accepts its own type's training data.
        let new_idx = four.indices_of(3)[0];
        assert!(bank.accepts(3, four.fixed(new_idx)));
    }

    #[test]
    fn add_type_classifier_matches_full_retrain() {
        // The appended classifier must be bit-identical to the one a
        // full retrain on the extended dataset produces for that label:
        // its sampling and forest seeds derive from the label alone and
        // the corpus it bins is the same. (The *old* labels' classifiers
        // legitimately differ from a full retrain — their negative pools
        // grow with the new type's fingerprints — which is exactly the
        // incremental property: they are left untouched instead.)
        let devices: Vec<_> = catalog().into_iter().take(4).collect();
        let three = FingerprintDataset::collect(&devices[..3], 8, 3);
        let four = FingerprintDataset::collect(&devices, 8, 3);
        let mut incremental = ClassifierBank::train(&three, &fast_config());
        let label = incremental.add_type(devices[3].info.identifier, &four);
        let full = ClassifierBank::train(&four, &fast_config());
        assert_eq!(incremental.classifier(label), full.classifier(label));
        assert_eq!(incremental.type_names()[label], full.type_names()[label]);
    }

    #[test]
    fn confidence_in_unit_interval() {
        let data = dataset();
        let bank = ClassifierBank::train(&data, &fast_config());
        for i in 0..data.len() {
            for label in 0..bank.n_types() {
                let c = bank.confidence(label, data.fixed(i));
                assert!((0.0..=1.0).contains(&c));
            }
        }
    }

    #[test]
    fn training_is_deterministic() {
        let data = dataset();
        let a = ClassifierBank::train(&data, &fast_config());
        let b = ClassifierBank::train(&data, &fast_config());
        assert_eq!(a, b);
    }

    #[test]
    fn trained_bank_is_identical_for_every_thread_count() {
        let data = dataset();
        let sequential = ClassifierBank::train(
            &data,
            &BankConfig {
                threads: 1,
                ..fast_config()
            },
        );
        for threads in [2, 8] {
            let parallel = ClassifierBank::train(
                &data,
                &BankConfig {
                    threads,
                    ..fast_config()
                },
            );
            // The configs differ in `threads` by construction; the
            // trained classifiers must not.
            for label in 0..sequential.n_types() {
                assert_eq!(
                    sequential.classifier(label),
                    parallel.classifier(label),
                    "label {label}, threads {threads}"
                );
            }
        }
    }
}
