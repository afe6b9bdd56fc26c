//! One batch vs batches of one through the single identification path.
//!
//! Stage 1 scores each fingerprint in place with one pass of the bank's
//! `BankScorer` (`Identifier::classify_batch_in`), so a row costs the
//! same in a batch of one as in a batch of 64: `one_by_one` and
//! `batched` differ only by the per-call overhead, and
//! `batched_identify` adds what a cold scratch and a fresh output
//! vector cost per item. Results are bit-identical (asserted in
//! sentinel-core's tests and `tests/streaming_equivalence.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sentinel_core::{AssessKey, ClassifyScratch, FingerprintDataset, Identifier, IdentifierConfig};
use sentinel_devicesim::{catalog, Testbed};
use sentinel_fingerprint::{extract, Fingerprint, FixedFingerprint};

fn holdout_fingerprints(n: usize) -> Vec<(Fingerprint, FixedFingerprint)> {
    let devices = catalog();
    let testbed = Testbed::new(77);
    (0..n)
        .map(|i| {
            let device = &devices[i % devices.len()];
            let trace = testbed.setup_run(&device.profile, (i / devices.len()) as u64);
            let full = extract(&trace.packets);
            let fixed = FixedFingerprint::from_fingerprint(&full);
            (full, fixed)
        })
        .collect()
}

fn batched_classify(c: &mut Criterion) {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 10, 42);
    let identifier = Identifier::train(&dataset, &IdentifierConfig::default());
    let probes = holdout_fingerprints(256);

    let mut group = c.benchmark_group("batched_classify");
    for batch in [8usize, 64, 256] {
        let fixed: Vec<&FixedFingerprint> = probes[..batch].iter().map(|(_, f)| f).collect();
        // Both sides keep their scratch (leaf words + candidate pool)
        // warm across ticks, as the runtime's shards do: no heap
        // allocations at all (pinned by sentinel-core's alloc_batch test).
        group.bench_with_input(BenchmarkId::new("one_by_one", batch), &fixed, |b, fixed| {
            let mut scratch = ClassifyScratch::default();
            b.iter(|| {
                fixed
                    .iter()
                    .map(|&f| identifier.classify_batch_in(&[f], &mut scratch)[0].len())
                    .sum::<usize>()
            })
        });
        group.bench_with_input(BenchmarkId::new("batched", batch), &fixed, |b, fixed| {
            let mut scratch = ClassifyScratch::default();
            b.iter(|| identifier.classify_batch_in(fixed, &mut scratch).len())
        });
    }
    group.finish();
}

fn batched_identify(c: &mut Criterion) {
    // End-to-end identification of one ingest tick's completions: one
    // keyed batch with warm per-shard scratch (what a runtime tick
    // executes per shard) against the same items as batches of one.
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 10, 42);
    let identifier = Identifier::train(&dataset, &IdentifierConfig::default());
    let probes = holdout_fingerprints(64);
    let keyed: Vec<(&Fingerprint, &FixedFingerprint, AssessKey)> = probes
        .iter()
        .enumerate()
        .map(|(i, (full, fixed))| (full, fixed, AssessKey::new(i as u64, [i as u8; 6].into())))
        .collect();

    let mut group = c.benchmark_group("batched_identify");
    group.bench_function("one_by_one_64", |b| {
        b.iter(|| -> Vec<_> {
            keyed
                .iter()
                .map(|&(full, fixed, key)| identifier.identify_keyed(full, fixed, key))
                .collect()
        })
    });
    group.bench_function("batched_warm_64", |b| {
        let mut scratch = ClassifyScratch::default();
        let mut out = Vec::new();
        b.iter(|| {
            out.clear();
            identifier.identify_keyed_batch_into(&keyed, &mut scratch, &mut out);
            out.len()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = batched_classify, batched_identify
}
criterion_main!(benches);
