//! Thread-count invariance: the parallel training and identification
//! paths must produce the same models, labels and evaluation outputs as
//! the exact sequential path, for every worker count.

use sentinel_bench::evaluation::{evaluate, EvalConfig};
use sentinel_core::{AssessKey, FingerprintDataset, Identifier, IdentifierConfig, Outcome};
use sentinel_devicesim::{catalog, Testbed};
use sentinel_fingerprint::{extract, FixedFingerprint};
use sentinel_netproto::MacAddr;

fn identifier_config(threads: usize) -> IdentifierConfig {
    let mut config = IdentifierConfig {
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
/// the identical outcome, candidate set and discrimination flag.
#[test]
fn identification_is_identical_for_every_thread_count() {
    let devices: Vec<_> = catalog().into_iter().take(8).collect();
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

    let baseline: Vec<(Outcome, Vec<usize>, bool)> = {
        let identifier = Identifier::train(&dataset, &identifier_config(1));
        probes
            .iter()
            .enumerate()
            .map(|(i, (full, fixed))| {
                let id = identifier.identify_keyed(full, fixed, probe_key(i));
                (id.outcome, id.candidates.clone(), id.discriminated)
            })
            .collect()
    };

    for threads in [2, 8] {
        let identifier = Identifier::train(&dataset, &identifier_config(threads));
        for (i, (full, fixed)) in probes.iter().enumerate() {
            let id = identifier.identify_keyed(full, fixed, probe_key(i));
            let (outcome, candidates, discriminated) = &baseline[i];
            assert_eq!(
                &id.outcome, outcome,
                "probe {i} diverged at {threads} threads"
            );
            assert_eq!(
                &id.candidates, candidates,
                "probe {i} diverged at {threads} threads"
            );
            assert_eq!(
                id.discriminated, *discriminated,
                "probe {i} diverged at {threads} threads"
            );
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
