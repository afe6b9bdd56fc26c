//! Criterion micro-benchmarks for the Table IV identification stages:
//! fingerprint extraction, single-classifier decision, full 27-type
//! classification, edit-distance discrimination and end-to-end
//! identification.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use sentinel_core::{AssessKey, FingerprintDataset, Identifier, IdentifierConfig};
use sentinel_devicesim::{catalog, Testbed};
use sentinel_fingerprint::editdist::normalized_distance;
use sentinel_fingerprint::{extract, FixedFingerprint};

fn identification(c: &mut Criterion) {
    let devices = catalog();
    let dataset = FingerprintDataset::collect(&devices, 20, 42);
    let identifier = Identifier::train(&dataset, &IdentifierConfig::default());
    let holdout = Testbed::new(7);

    // A held-out trace of a confusable type (exercises discrimination).
    let twin_trace = holdout.setup_run(&devices[25].profile, 0);
    let twin_full = extract(&twin_trace.packets);
    let twin_fixed = FixedFingerprint::from_fingerprint(&twin_full);
    // And of an easy type (classifier-only path).
    let easy_trace = holdout.setup_run(&devices[4].profile, 0);
    let easy_full = extract(&easy_trace.packets);
    let easy_fixed = FixedFingerprint::from_fingerprint(&easy_full);

    let mut group = c.benchmark_group("table4");
    group.bench_function("fingerprint_extraction", |b| {
        b.iter_batched(
            || twin_trace.packets.clone(),
            |packets| {
                let full = extract(&packets);
                FixedFingerprint::from_fingerprint(&full)
            },
            BatchSize::SmallInput,
        )
    });
    group.bench_function("one_classification", |b| {
        b.iter(|| {
            identifier
                .bank()
                .accepts(0, std::hint::black_box(&easy_fixed))
        })
    });
    group.bench_function("27_classifications", |b| {
        b.iter(|| identifier.bank().matches(std::hint::black_box(&easy_fixed)))
    });
    group.bench_function("one_edit_distance", |b| {
        b.iter(|| normalized_distance(std::hint::black_box(&twin_full), dataset.full(0)))
    });
    group.bench_function("identify_easy_type", |b| {
        let key = AssessKey::new(0, easy_trace.mac);
        b.iter(|| identifier.identify_keyed(std::hint::black_box(&easy_full), &easy_fixed, key))
    });
    group.bench_function("identify_confusable_type", |b| {
        let key = AssessKey::new(0, twin_trace.mac);
        b.iter(|| identifier.identify_keyed(std::hint::black_box(&twin_full), &twin_fixed, key))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = identification
}
criterion_main!(benches);
