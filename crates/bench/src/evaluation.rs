//! The Sect. VI-B evaluation: stratified k-fold cross-validation of the
//! two-stage identification pipeline over the 27-type corpus, and the
//! held-out identifications Table IV counts its stages over.

use rand::rngs::StdRng;
use rand::SeedableRng;

use sentinel_core::{
    AssessKey, ClassifyScratch, FingerprintDataset, Identification, Identifier, IdentifierConfig,
    IdentifyMode,
};
use sentinel_devicesim::{catalog, DeviceModel, Testbed};
use sentinel_fingerprint::{extract_frames, FixedFingerprint};
use sentinel_ml::crossval::stratified_k_fold;
use sentinel_ml::metrics::ConfusionMatrix;
use sentinel_ml::{parallel, ForestConfig};
use sentinel_netproto::{MacAddr, Packet};

/// Label used for the pseudo-class recording "rejected by every
/// classifier" predictions.
pub(crate) const UNKNOWN_LABEL: &str = "(unknown)";

/// Configuration of a Fig. 5 / Table III evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Setup runs collected per device-type (paper: 20 → 540
    /// fingerprints).
    pub runs: u64,
    /// Cross-validation folds (paper: 10).
    pub folds: usize,
    /// Whole-CV repetitions (paper: 10).
    pub repetitions: usize,
    /// Trees per Random Forest.
    pub trees: usize,
    /// Negative-to-positive training ratio (paper: 10).
    pub negative_ratio: usize,
    /// Unique packets in `F'` (paper: 12 → 276 features).
    pub packets: usize,
    /// Reference fingerprints per type for discrimination (paper: 5).
    pub references: usize,
    /// Pipeline variant.
    pub mode: IdentifyMode,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads over (repetition, fold) work items (`0` = auto
    /// via `SENTINEL_THREADS` / available parallelism, `1` =
    /// sequential). The merged result is identical for every value.
    pub workers: usize,
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig {
            runs: 20,
            folds: 10,
            repetitions: 10,
            trees: 100,
            negative_ratio: 10,
            packets: 12,
            references: 5,
            mode: IdentifyMode::TwoStage,
            seed: 42,
            workers: 0,
        }
    }
}

impl EvalConfig {
    /// A reduced configuration for smoke tests and quick runs: fewer
    /// runs, folds, repetitions and trees.
    pub fn quick() -> Self {
        EvalConfig {
            runs: 10,
            folds: 5,
            repetitions: 2,
            trees: 40,
            ..EvalConfig::default()
        }
    }

    fn identifier_config(&self, rep: usize, nested_threads: usize) -> IdentifierConfig {
        let mut config = IdentifierConfig::default();
        config.bank.negative_ratio = self.negative_ratio;
        config.bank.forest = ForestConfig::default()
            .with_trees(self.trees)
            .with_threads(nested_threads);
        config.bank.seed = self.seed ^ (rep as u64) << 32;
        config.bank.threads = nested_threads;
        config.references_per_type = self.references;
        config.mode = self.mode;
        config.seed = self.seed.wrapping_add(rep as u64);
        config
    }
}

/// The aggregated outcome of an evaluation.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// Confusion matrix over the 27 device-types plus the `(unknown)`
    /// pseudo-class column.
    pub confusion: ConfusionMatrix,
    /// How many identifications needed discrimination (the paper
    /// reports 55 %) and how many edit distances they computed (seven
    /// on average).
    pub counts: StageCounts,
}

impl EvalResult {
    /// Per-type identification accuracy (recall), the Fig. 5 series.
    pub fn per_type_accuracy(&self) -> Vec<(String, f64)> {
        (0..self.confusion.n_classes() - 1) // exclude the unknown column
            .map(|label| {
                (
                    self.confusion.labels()[label].clone(),
                    self.confusion.recall(label).unwrap_or(0.0),
                )
            })
            .collect()
    }

    /// The paper's "global ratio of correct identification" (macro
    /// recall over real types).
    pub fn global_accuracy(&self) -> f64 {
        let accuracies = self.per_type_accuracy();
        accuracies.iter().map(|(_, a)| a).sum::<f64>() / accuracies.len() as f64
    }
}

/// How often stage 2 ran over a set of identifications and how many
/// edit distances it computed: the counts Fig. 5 and Table IV print.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCounts {
    /// Identifications counted.
    pub identifications: usize,
    /// Those that needed edit-distance discrimination.
    pub discriminated: usize,
    /// Edit distances computed: each discriminated identification's
    /// candidates × the references sampled per candidate.
    pub edit_distances: usize,
}

impl StageCounts {
    /// Counts `identifications` made with `references` per type.
    pub fn of(identifications: &[Identification], references: usize) -> Self {
        let discriminated = identifications.iter().filter(|id| id.discriminated);
        StageCounts {
            identifications: identifications.len(),
            discriminated: discriminated.clone().count(),
            edit_distances: discriminated.map(|id| id.candidates.len()).sum::<usize>() * references,
        }
    }

    /// Share of identifications that needed discrimination.
    pub fn discriminated_share(&self) -> f64 {
        self.discriminated as f64 / self.identifications.max(1) as f64
    }

    /// Edit distances per identification.
    pub fn edit_distances_per_identification(&self) -> f64 {
        self.edit_distances as f64 / self.identifications.max(1) as f64
    }
}

impl std::ops::AddAssign for StageCounts {
    fn add_assign(&mut self, other: Self) {
        self.identifications += other.identifications;
        self.discriminated += other.discriminated;
        self.edit_distances += other.edit_distances;
    }
}

/// Collects the corpus and runs the full repeated stratified-CV
/// evaluation.
pub fn evaluate(config: &EvalConfig) -> EvalResult {
    let devices = catalog();
    let dataset = FingerprintDataset::collect_with_packets(
        &devices,
        config.runs,
        config.seed,
        config.packets,
    );
    evaluate_on(&dataset, config)
}

/// Runs the evaluation on an existing corpus.
pub fn evaluate_on(dataset: &FingerprintDataset, config: &EvalConfig) -> EvalResult {
    let mut labels: Vec<String> = dataset.type_names().to_vec();
    labels.push(UNKNOWN_LABEL.to_owned());
    let unknown = labels.len() - 1;

    // Enumerate (repetition, fold) work items up front.
    let mut folds = Vec::new();
    for rep in 0..config.repetitions {
        let mut rng = StdRng::seed_from_u64(
            config
                .seed
                .wrapping_mul(0x9e37_79b9)
                .wrapping_add(rep as u64),
        );
        for fold in stratified_k_fold(dataset.labels(), config.folds, &mut rng) {
            folds.push((rep, fold));
        }
    }

    let workers = parallel::effective_threads(config.workers).min(folds.len().max(1));
    // With fold-level workers saturating the machine, the nested
    // training/identification sites run sequentially; a lone worker
    // lets them use their own auto parallelism instead.
    let nested_threads = if workers > 1 { 1 } else { 0 };
    let results: Vec<(ConfusionMatrix, StageCounts)> =
        parallel::map_indexed(folds.len(), workers, |i| {
            let (rep, fold) = &folds[i];
            let mut confusion = ConfusionMatrix::new(labels.iter().cloned());
            let train = dataset.subset(&fold.train);
            let identifier =
                Identifier::train(&train, &config.identifier_config(*rep, nested_threads));
            // One keyed batch per fold; harness key: the probe's corpus
            // index, no device MAC.
            let items: Vec<_> = fold
                .test
                .iter()
                .map(|&i| {
                    let key = AssessKey::new(i as u64, MacAddr::ZERO);
                    (dataset.full(i), dataset.fixed(i), key)
                })
                .collect();
            let mut identifications = Vec::with_capacity(items.len());
            identifier.identify_keyed_batch_into(
                &items,
                &mut ClassifyScratch::default(),
                &mut identifications,
            );
            for (&test_index, id) in fold.test.iter().zip(&identifications) {
                let predicted = id.label().unwrap_or(unknown);
                confusion.record(dataset.label(test_index), predicted);
            }
            let counts = StageCounts::of(&identifications, config.references);
            (confusion, counts)
        });

    let mut confusion = ConfusionMatrix::new(labels.iter().cloned());
    let mut counts = StageCounts::default();
    for (c, s) in results {
        confusion.merge(&c);
        counts += s;
    }
    EvalResult { confusion, counts }
}

/// Table IV's protocol: trains the default two-stage identifier on
/// `runs` setups of each of `devices`, then identifies `probes` fresh
/// setups from a held-out testbed, cycling through `devices`. `threads`
/// is the training worker count (`0` = auto); the identifications are
/// the same for every value.
pub fn holdout_identifications(
    devices: &[DeviceModel],
    runs: u64,
    probes: u64,
    seed: u64,
    threads: usize,
) -> Vec<Identification> {
    let dataset = FingerprintDataset::collect(devices, runs, seed);
    let mut config = IdentifierConfig::default();
    config.bank.threads = threads;
    config.bank.forest.threads = threads;
    let identifier = Identifier::train(&dataset, &config);
    let holdout = Testbed::new(seed ^ 0xdead_beef);
    (0..probes)
        .map(|run| {
            let device = &devices[run as usize % devices.len()];
            // A probe is read as a gateway reads it: its frames, scanned.
            let trace = holdout.setup_run(&device.profile, run);
            let frames: Vec<_> = trace.packets.iter().map(Packet::encode).collect();
            let full = extract_frames(&frames).expect("simulated frames are well-formed");
            let fixed = FixedFingerprint::from_fingerprint(&full);
            // Harness key: the probe's index, no device MAC.
            identifier.identify_keyed(&full, &fixed, AssessKey::new(run, MacAddr::ZERO))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_evaluation_reproduces_fig5_shape() {
        let config = EvalConfig {
            runs: 8,
            folds: 4,
            repetitions: 1,
            trees: 30,
            workers: 1,
            ..EvalConfig::default()
        };
        let result = evaluate(&config);
        assert_eq!(result.counts.identifications, 27 * 8);
        let global = result.global_accuracy();
        assert!(
            (0.6..=0.95).contains(&global),
            "global accuracy {global} outside the paper's regime"
        );
        // Distinct devices classify well; family members confuse.
        let accuracy: std::collections::HashMap<String, f64> =
            result.per_type_accuracy().into_iter().collect();
        assert!(accuracy["HueBridge"] > 0.8, "{:?}", accuracy["HueBridge"]);
        assert!(
            accuracy["TP-LinkPlugHS110"] < 0.9,
            "identical twins should confuse: {:?}",
            accuracy["TP-LinkPlugHS110"]
        );
    }

    #[test]
    fn table_iv_counts_recount_by_hand_at_every_thread_count() {
        // Two firmware-sharing families and one distinct device, so
        // stage 2 runs on some probes and not on others.
        let families = &sentinel_devicesim::confusable_groups()[..2];
        let devices: Vec<_> = catalog()
            .into_iter()
            .filter(|d| {
                d.info.identifier == "HueBridge"
                    || families.iter().flatten().any(|&n| n == d.info.identifier)
            })
            .collect();
        assert_eq!(devices.len(), 7);
        let references = IdentifierConfig::default().references_per_type;
        let counts = [1, 2].map(|threads| {
            let identifications = holdout_identifications(&devices, 6, 28, 3, threads);
            let (mut discriminated, mut edit_distances) = (0, 0);
            for id in &identifications {
                if id.discriminated {
                    discriminated += 1;
                    edit_distances += id.candidates.len() * references;
                }
            }
            let counts = StageCounts::of(&identifications, references);
            assert_eq!(
                counts,
                StageCounts {
                    identifications: 28,
                    discriminated,
                    edit_distances,
                }
            );
            counts
        });
        assert_eq!(counts[0], counts[1], "counts depend on the thread count");
        assert!(
            (1..28).contains(&counts[0].discriminated),
            "stage 2 ran on every probe or on none: {:?}",
            counts[0]
        );
    }
}
