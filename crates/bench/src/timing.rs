//! Wall-clock timing of the identification stages (Table IV), plus
//! training throughput and the steady-state batched classification
//! tick.

use std::time::{Duration, Instant};

use sentinel_core::{
    AssessKey, BankConfig, ClassifierBank, ClassifyScratch, FingerprintDataset, Identifier,
    IdentifierConfig,
};
use sentinel_devicesim::{catalog, Testbed};
use sentinel_fingerprint::editdist::OsaScratch;
use sentinel_fingerprint::{extract, extract_frames, FixedFingerprint, SymbolTable};
use sentinel_ml::{Dataset, RandomForest};
use sentinel_netproto::MacAddr;
use sentinel_sdn::stats::Summary;

/// Timing measurements mirroring the rows of Table IV.
#[derive(Debug, Clone)]
pub struct TimingReport {
    /// One Random Forest classification.
    pub one_classification: Summary,
    /// One edit-distance discrimination as the identifier runs it: the
    /// probe projected onto the training corpus's symbol table, loaded
    /// into the bit-parallel kernel and compared with one reference.
    pub one_discrimination: Summary,
    /// Fingerprint extraction from a captured setup trace.
    pub fingerprint_extraction: Summary,
    /// All 27 classifications of one fingerprint (a batch of one
    /// through [`Identifier::classify_batch_in`], warm scratch).
    pub all_classifications: Summary,
    /// The discrimination step of a full identification (all edit
    /// distances, when triggered).
    pub discrimination_step: Summary,
    /// Full type identification (classification + discrimination): one
    /// [`Identifier::identify_keyed`] call, i.e. a batch of one.
    pub type_identification: Summary,
    /// Mean edit-distance computations per identification.
    pub mean_edit_distances: f64,
    /// Fraction of identifications requiring discrimination.
    pub discrimination_rate: f64,
    /// All 27 classifications of a 64-fingerprint batch through
    /// [`Identifier::classify_batch_in`] with a warm [`ClassifyScratch`]
    /// — the streaming runtime's steady-state shape: one contiguous
    /// batch copy, zero per-tick heap allocations (pinned by
    /// sentinel-core's `alloc_batch` test).
    pub batch_classify_warm: Summary,
}

/// Training-throughput measurements: the full classifier bank, one of
/// its forests, and the incremental add of one type.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    /// Full 27-forest bank training.
    pub bank_training: Summary,
    /// One per-type forest fit.
    pub forest_fit_histogram: Summary,
    /// Incrementally adding the 27th type to a 26-type bank (the
    /// paper's "new classifier without relearning" operation).
    pub incremental_add_type: Summary,
}

/// Measures training throughput on the same corpus shape as
/// [`measure`]: `samples` timed trainings of the full bank, plus
/// `samples` sequential single-forest fits on a real one-vs-rest slice
/// of the fingerprint data.
pub fn measure_training(
    train_runs: u64,
    seed: u64,
    threads: usize,
    samples: usize,
) -> TrainingReport {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, train_runs, seed);
    let mut config = BankConfig {
        threads,
        ..BankConfig::default()
    };
    config.forest.threads = threads;
    let mut bank_training = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        let bank = ClassifierBank::train(&dataset, &config);
        bank_training.push(start.elapsed());
        std::hint::black_box(&bank);
    }
    // One-vs-rest slice: type 0 against everything, the shape every
    // per-type forest trains on.
    let mut binary = Dataset::new(dataset.fixed(0).dimensions());
    for i in 0..dataset.len() {
        binary.push(
            dataset.fixed(i).as_slice(),
            usize::from(dataset.label(i) == 0),
        );
    }
    let forest_config = config.forest.clone().with_threads(1);
    let mut forest_fit_histogram = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(RandomForest::fit(&binary, &forest_config));
        forest_fit_histogram.push(start.elapsed());
    }
    // Incremental onboarding: train once on 26 types, then time only
    // the `add_type` of the 27th (the bank clone happens off the clock).
    let devices26: Vec<_> = devices.iter().take(devices.len() - 1).cloned().collect();
    let dataset26 = FingerprintDataset::collect(&devices26, train_runs, seed);
    let bank26 = ClassifierBank::train(&dataset26, &config);
    let new_name = devices
        .last()
        .map(|d| d.info.identifier.to_string())
        .unwrap_or_default();
    let mut incremental_add_type = Vec::with_capacity(samples);
    for _ in 0..samples {
        let mut bank = bank26.clone();
        let start = Instant::now();
        let label = bank.add_type(new_name.clone(), &dataset);
        incremental_add_type.push(start.elapsed());
        std::hint::black_box(label);
    }
    TrainingReport {
        bank_training: Summary::of_durations_ms(&bank_training),
        forest_fit_histogram: Summary::of_durations_ms(&forest_fit_histogram),
        incremental_add_type: Summary::of_durations_ms(&incremental_add_type),
    }
}

/// Measures the Table IV rows on a trained pipeline.
///
/// `iterations` controls how many held-out fingerprints are identified;
/// the paper's statistics come from its full cross-validation, ours from
/// a train/holdout split of fresh testbed campaigns. `threads` is the
/// worker count for training and stage-2 scoring (`0` = auto via
/// `SENTINEL_THREADS`, `1` = sequential); the measured identifications
/// themselves are timed one at a time either way.
pub fn measure(train_runs: u64, iterations: u64, seed: u64, threads: usize) -> TimingReport {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, train_runs, seed);
    let mut config = IdentifierConfig {
        threads,
        ..IdentifierConfig::default()
    };
    config.bank.threads = threads;
    config.bank.forest.threads = threads;
    let identifier = Identifier::train(&dataset, &config);
    let holdout = Testbed::new(seed ^ 0xdead_beef);

    let mut one_classification = Vec::new();
    let mut one_discrimination = Vec::new();
    let mut fingerprint_extraction = Vec::new();
    let mut all_classifications = Vec::new();
    let mut discrimination_step = Vec::new();
    let mut type_identification = Vec::new();
    let mut edit_distances = 0usize;
    let mut discriminated = 0usize;
    let mut total = 0usize;
    // Holdout fingerprints retained for the batched-classification
    // tick after the per-item loop.
    let mut batch_probes: Vec<FixedFingerprint> = Vec::new();
    // Stage-1 scratch, warmed below and reused by every stage-1 row.
    let mut scratch = ClassifyScratch::default();
    // Harness key: the probe's index, no device MAC.
    let key = |run: u64| AssessKey::new(run, MacAddr::ZERO);
    // Stage 2's view of the corpus for the one-discrimination row: every
    // training fingerprint interned, the first one kept as the reference.
    let mut symbols = SymbolTable::new();
    let reference = symbols.intern(dataset.full(0));
    for i in 1..dataset.len() {
        symbols.intern(dataset.full(i));
    }
    let mut probe = Vec::new();
    let mut osa = OsaScratch::new();
    let mut distance = Vec::with_capacity(1);

    // Warm caches and lazy allocations so the first measured iteration
    // is not an outlier.
    {
        let trace = holdout.setup_run(&devices[0].profile, u64::MAX - 1);
        let full = extract(&trace.packets);
        let fixed = FixedFingerprint::from_fingerprint(&full);
        let _ = identifier.identify_keyed(&full, &fixed, key(u64::MAX - 1));
        let _ = identifier.classify_batch_in(&[&fixed], &mut scratch);
    }

    for run in 0..iterations {
        let device = &devices[(run as usize) % devices.len()];
        let trace = holdout.setup_run(&device.profile, run);

        // Row: fingerprint extraction — timed on the zero-copy wire-scan
        // path the gateway hot path takes (raw frames arrive from the
        // tap; encoding them is capture, not extraction, so it happens
        // outside the timer). Produces fingerprints bit-identical to
        // `extract(&trace.packets)`. The operation is single-digit
        // microseconds, so each sample amortizes a short inner loop to
        // keep one scheduler hiccup from swamping the mean.
        const EXTRACT_REPEATS: u32 = 64;
        let frames: Vec<Vec<u8>> = trace.packets.iter().map(|p| p.encode()).collect();
        let start = Instant::now();
        let mut full = extract_frames(&frames).expect("simulated frames are well-formed");
        let mut fixed = FixedFingerprint::from_fingerprint(&full);
        for _ in 1..EXTRACT_REPEATS {
            full = extract_frames(&frames).expect("simulated frames are well-formed");
            fixed = FixedFingerprint::from_fingerprint(&full);
        }
        fingerprint_extraction.push(start.elapsed() / EXTRACT_REPEATS);

        // Row: one classification (a single per-type forest, walked
        // tree by tree — identification itself scores all 27 at once).
        let start = Instant::now();
        let _ = identifier.bank().accepts(0, &fixed);
        one_classification.push(start.elapsed());

        // Row: all 27 classifications.
        let start = Instant::now();
        std::hint::black_box(identifier.classify_batch_in(&[&fixed], &mut scratch));
        all_classifications.push(start.elapsed());

        // Row: one edit-distance discrimination.
        let start = Instant::now();
        probe.clear();
        symbols.project_into(&full, &mut probe);
        distance.clear();
        osa.load(&probe, symbols.len() + 1).distances_into(
            1,
            |_| reference.symbols(),
            &mut distance,
        );
        std::hint::black_box(&distance);
        one_discrimination.push(start.elapsed());

        // Rows: discrimination step + full identification.
        let start = Instant::now();
        let id = identifier.identify_keyed(&full, &fixed, key(run));
        let elapsed = start.elapsed();
        type_identification.push(elapsed);
        total += 1;
        if id.discriminated {
            discriminated += 1;
            edit_distances += id.candidates.len() * 5;
            // The discrimination share is the identification minus the
            // classification stage measured above.
            let classify = all_classifications
                .last()
                .copied()
                .unwrap_or(Duration::ZERO);
            discrimination_step.push(elapsed.saturating_sub(classify));
        }
        if batch_probes.len() < 64 {
            batch_probes.push(fixed.clone());
        }
    }

    // Stage-1 classification over one reused 64-fingerprint batch (the
    // streaming runtime's tick shape), checked once off the clock
    // against the unpacked bank.
    let mut batch_classify_warm = Vec::new();
    if !batch_probes.is_empty() {
        let refs: Vec<&FixedFingerprint> = batch_probes.iter().collect();
        const BATCH_REPEATS: usize = 24;
        let expected: Vec<Vec<usize>> = refs.iter().map(|f| identifier.bank().matches(f)).collect();
        assert_eq!(
            identifier.classify_batch_in(&refs, &mut scratch),
            expected,
            "batched classification diverged from the unpacked bank"
        );
        for _ in 0..BATCH_REPEATS {
            let start = Instant::now();
            std::hint::black_box(identifier.classify_batch_in(&refs, &mut scratch));
            batch_classify_warm.push(start.elapsed());
        }
    }

    TimingReport {
        one_classification: Summary::of_durations_ms(&one_classification),
        one_discrimination: Summary::of_durations_ms(&one_discrimination),
        fingerprint_extraction: Summary::of_durations_ms(&fingerprint_extraction),
        all_classifications: Summary::of_durations_ms(&all_classifications),
        discrimination_step: Summary::of_durations_ms(&discrimination_step),
        type_identification: Summary::of_durations_ms(&type_identification),
        mean_edit_distances: if total == 0 {
            0.0
        } else {
            edit_distances as f64 / total as f64
        },
        discrimination_rate: if total == 0 {
            0.0
        } else {
            discriminated as f64 / total as f64
        },
        batch_classify_warm: Summary::of_durations_ms(&batch_classify_warm),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_matches_table_iv() {
        // Small but real measurement: classification must be far cheaper
        // than a full identification with discrimination.
        let report = measure(6, 27, 3, 1);
        assert!(report.one_classification.mean < report.all_classifications.mean * 1.5);
        assert!(report.fingerprint_extraction.mean >= 0.0);
        // Identification includes the classification stage; allow slack
        // for timer noise at the microsecond scale.
        assert!(
            report.type_identification.mean >= report.all_classifications.mean * 0.5,
            "identification {} ms vs classification {} ms",
            report.type_identification.mean,
            report.all_classifications.mean
        );
        assert!(report.discrimination_rate <= 1.0);
    }
}
