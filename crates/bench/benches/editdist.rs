//! Edit-distance scaling. The textbook DP (`osa`, `levenshtein`,
//! `naive`, `interned`) is quadratic in fingerprint length — the reason
//! the paper classifies first and discriminates only between the few
//! accepted candidates (Sect. IV-B.2, Table IV). The identifier's
//! bit-parallel kernel (`bounded_*`) is linear in the reference length
//! while the probe fits one 64-row word, then steps up by one word of
//! work per column at every further 64 probe symbols — n = 64 / 65 and
//! 128 sit on those steps.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use sentinel_fingerprint::editdist::{levenshtein_distance, osa_distance, OsaScratch};
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
    // symbols at training time, probes projected at identification time
    // and loaded once as the kernel's pattern (outside the timed loop,
    // as one probe meets many references), and a score cutoff that lets
    // losing candidates abandon the scan.
    let mut group = c.benchmark_group("editdist_interned");
    for n in [10u32, 20, 50, 64, 65, 100, 128, 200] {
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
        let mut scratch = OsaScratch::new();
        let mut probe = scratch.load(ib.symbols(), table.len() + 1);
        // A generous bound (the true distance): every column is scanned.
        group.bench_with_input(BenchmarkId::new("bounded_exact", n), &n, |bencher, _| {
            bencher.iter(|| probe.distance_bounded(ia.symbols(), exact))
        });
        // A tight bound (half the true distance): the typical losing
        // candidate, abandoned once the remaining columns cannot bring
        // the running distance back under it.
        group.bench_with_input(BenchmarkId::new("bounded_tight", n), &n, |bencher, _| {
            bencher.iter(|| probe.distance_bounded(ia.symbols(), exact / 2))
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
