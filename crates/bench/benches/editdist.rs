//! Edit-distance scaling: cost is quadratic in fingerprint length —
//! the reason the paper classifies first and discriminates only between
//! the few accepted candidates (Sect. IV-B.2, Table IV).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sentinel_fingerprint::editdist::{levenshtein_distance, osa_distance, osa_distance_bounded};
use sentinel_fingerprint::{extract, FeatureVector, Fingerprint, SymbolTable};
use sentinel_netproto::{MacAddr, Packet};

/// Builds a synthetic fingerprint of `n` distinct packet columns.
fn fingerprint(n: u32, salt: u32) -> Fingerprint {
    (0..n)
        .map(|i| {
            FeatureVector::from_packet(
                &Packet::dhcp_discover(MacAddr::ZERO, 1, 0),
                // Vary the counter so columns are distinct and two salts
                // produce sequences with partial overlap.
                i * 2 + (i + salt) % 2,
            )
        })
        .collect()
}

fn scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("editdist_scaling");
    for n in [10u32, 20, 50, 100, 200] {
        let a = fingerprint(n, 0);
        let b = fingerprint(n, 1);
        group.bench_with_input(BenchmarkId::new("osa", n), &n, |bencher, _| {
            bencher.iter(|| osa_distance(a.vectors(), b.vectors()))
        });
        group.bench_with_input(BenchmarkId::new("levenshtein", n), &n, |bencher, _| {
            bencher.iter(|| levenshtein_distance(a.vectors(), b.vectors()))
        });
    }
    group.finish();
}

fn interned(c: &mut Criterion) {
    // The identifier's production path: packet columns interned to `u32`
    // symbols at training time, probes projected at identification time,
    // and a score cutoff that lets losing candidates abandon the DP.
    let mut group = c.benchmark_group("editdist_interned");
    for n in [10u32, 20, 50, 100, 200] {
        let a = fingerprint(n, 0);
        let b = fingerprint(n, 1);
        let mut table = SymbolTable::new();
        let ia = table.intern(&a);
        let ib = table.project(&b);
        let exact = osa_distance(ia.symbols(), ib.symbols());
        group.bench_with_input(BenchmarkId::new("naive", n), &n, |bencher, _| {
            bencher.iter(|| osa_distance(a.vectors(), b.vectors()))
        });
        group.bench_with_input(BenchmarkId::new("interned", n), &n, |bencher, _| {
            bencher.iter(|| osa_distance(ia.symbols(), ib.symbols()))
        });
        // A generous bound (the true distance): the band still prunes the
        // DP corners without ever giving up.
        group.bench_with_input(BenchmarkId::new("bounded_exact", n), &n, |bencher, _| {
            bencher.iter(|| osa_distance_bounded(ia.symbols(), ib.symbols(), exact))
        });
        // A tight bound (half the true distance): the typical losing
        // candidate, abandoned as soon as every band cell exceeds it.
        group.bench_with_input(BenchmarkId::new("bounded_tight", n), &n, |bencher, _| {
            bencher.iter(|| osa_distance_bounded(ia.symbols(), ib.symbols(), exact / 2))
        });
    }
    group.finish();
}

fn realistic(c: &mut Criterion) {
    // Distance between two real setup traces of the same device-type.
    let devices = sentinel_devicesim::catalog();
    let testbed = sentinel_devicesim::Testbed::new(3);
    let a = extract(&testbed.setup_run(&devices[13].profile, 0).packets);
    let b = extract(&testbed.setup_run(&devices[13].profile, 1).packets);
    c.bench_function("editdist_realistic_same_type", |bencher| {
        bencher.iter(|| osa_distance(a.vectors(), b.vectors()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(40);
    targets = scaling, interned, realistic
}
criterion_main!(benches);
