//! Thread-count invariance: the parallel training and identification
//! paths must produce the same models, labels and evaluation outputs as
//! the exact sequential path, for every worker count.

use sentinel_bench::evaluation::{evaluate, EvalConfig};
use sentinel_core::{
    AssessKey, FingerprintDataset, Identification, Identifier, IdentifierConfig, IdentifyMode,
};
use sentinel_devicesim::{catalog, Testbed};
use sentinel_fingerprint::{extract, FixedFingerprint};
use sentinel_netproto::MacAddr;

fn identifier_config(mode: IdentifyMode, threads: usize) -> IdentifierConfig {
    let mut config = IdentifierConfig {
        mode,
        threads,
        ..IdentifierConfig::default()
    };
    config.bank.threads = threads;
    config.bank.forest.threads = threads;
    config
}

/// Harness key of probe `i`: its index, no device MAC.
fn probe_key(i: usize) -> AssessKey {
    AssessKey::new(i as u64, MacAddr::ZERO)
}

/// Same seed, thread counts 1 / 2 / 8: every holdout fingerprint gets
/// the identical [`Identification`] — outcome, candidate set,
/// discrimination flag *and* dissimilarity scores, which every
/// `OnboardingReport` serialises. The `EditOnly` case scores 18
/// candidates per probe, the size at which stage 2 used to fan out and
/// record thread-count-dependent lower bounds.
#[test]
fn identification_is_identical_for_every_thread_count() {
    for (mode, types) in [(IdentifyMode::TwoStage, 8), (IdentifyMode::EditOnly, 18)] {
        let devices: Vec<_> = catalog().into_iter().take(types).collect();
        let dataset = FingerprintDataset::collect(&devices, 8, 11);
        let holdout = Testbed::new(11 ^ 0x5eed);
        let probes: Vec<_> = (0..16u64)
            .map(|run| {
                let device = &devices[(run as usize) % devices.len()];
                let trace = holdout.setup_run(&device.profile, run);
                let full = extract(&trace.packets);
                let fixed = FixedFingerprint::from_fingerprint(&full);
                (full, fixed)
            })
            .collect();
        let identify_all = |threads: usize| -> Vec<Identification> {
            let identifier = Identifier::train(&dataset, &identifier_config(mode, threads));
            probes
                .iter()
                .enumerate()
                .map(|(i, (full, fixed))| identifier.identify_keyed(full, fixed, probe_key(i)))
                .collect()
        };

        let baseline = identify_all(1);
        for threads in [2, 8] {
            for (i, id) in identify_all(threads).iter().enumerate() {
                assert_eq!(
                    id, &baseline[i],
                    "{mode:?} probe {i} diverged at {threads} threads"
                );
            }
        }
    }
}

/// The full cross-validation evaluation merges fold results in fold
/// order, so accuracy and confusion are identical whether folds run on
/// one worker or many.
#[test]
fn evaluation_is_identical_for_every_worker_count() {
    let config = EvalConfig {
        runs: 6,
        folds: 3,
        repetitions: 1,
        trees: 25,
        workers: 1,
        seed: 7,
        ..EvalConfig::default()
    };
    let sequential = evaluate(&config);

    for workers in [2, 8] {
        let parallel = evaluate(&EvalConfig {
            workers,
            ..config.clone()
        });
        assert_eq!(
            parallel.confusion, sequential.confusion,
            "confusion diverged at {workers} workers"
        );
        assert_eq!(parallel.total, sequential.total);
        assert_eq!(parallel.discriminated, sequential.discriminated);
        assert_eq!(parallel.candidate_sum, sequential.candidate_sum);
        assert_eq!(parallel.global_accuracy(), sequential.global_accuracy());
    }
}
