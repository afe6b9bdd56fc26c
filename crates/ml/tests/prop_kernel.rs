//! Three-way differential property tests for the packed-forest batch
//! entries: on random forests and random batches, the scalar per-row
//! walk (`accepts` / `predict`), the matrix batch entry
//! (`accepts_rows` / `predict_rows`) over the narrow 16-byte arena, and
//! the same entry over the widened 24-byte arena must agree bit-for-bit
//! — for every verdict, every class and every batch size from 1 to 64.

use proptest::prelude::*;

use sentinel_ml::{BatchMatrix, Dataset, ForestConfig, PackedForest, RandomForest};

/// A deterministic value hash (splitmix-style) so datasets come from a
/// few proptest scalars instead of giant generated vectors.
fn mix(seed: u64, i: u64, f: u64) -> u64 {
    let mut x =
        seed ^ (i.wrapping_mul(0x9e37_79b9_7f4a_7c15)) ^ (f.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x
}

/// Builds a deterministic dataset. Integer-valued features produce
/// midpoint thresholds like `1.5` that round-trip `f32` exactly, so the
/// packed arena goes narrow; a step of `0.3` breaks the round-trip and
/// forces the wide arena.
fn dataset(seed: u64, rows: usize, features: usize, classes: usize, integer: bool) -> Dataset {
    let step = if integer { 1.0 } else { 0.3 };
    let mut data = Dataset::new(features);
    let mut row = vec![0.0f64; features];
    for i in 0..rows {
        for (f, slot) in row.iter_mut().enumerate() {
            *slot = (mix(seed, i as u64, f as u64) % 9) as f64 * step;
        }
        data.push(
            &row,
            (mix(seed, i as u64, 1 + features as u64) % classes as u64) as usize,
        );
    }
    data
}

fn forests(data: &Dataset, seed: u64) -> (RandomForest, PackedForest, PackedForest) {
    let forest = RandomForest::fit(data, &ForestConfig::default().with_trees(7).with_seed(seed));
    let packed = PackedForest::from_forest(&forest);
    let widened = packed.widened();
    (forest, packed, widened)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn accepts_rows_matches_scalar_on_both_arenas(
        seed in any::<u64>(),
        rows in 20usize..60,
        features in 1usize..9,
        batch in 1usize..=64,
        integer in any::<bool>(),
    ) {
        let data = dataset(seed, rows, features, 2, integer);
        let (_, packed, widened) = forests(&data, seed);
        if integer {
            prop_assert!(packed.is_narrow(), "integer-valued splits must pack narrow");
        }
        let mut matrix = BatchMatrix::new();
        matrix.fill((0..batch).map(|i| data.row(i % rows)));
        let scalar: Vec<bool> = (0..batch).map(|i| packed.accepts(data.row(i % rows))).collect();
        let mut narrow = Vec::new();
        packed.accepts_rows(&matrix, &mut narrow);
        prop_assert_eq!(&narrow, &scalar, "batch entry vs scalar");
        let mut wide = Vec::new();
        widened.accepts_rows(&matrix, &mut wide);
        prop_assert_eq!(&wide, &scalar, "widened arena vs scalar");
    }

    #[test]
    fn predict_rows_matches_scalar_on_both_arenas(
        seed in any::<u64>(),
        rows in 20usize..60,
        features in 1usize..9,
        classes in 2usize..5,
        batch in 1usize..=64,
        integer in any::<bool>(),
    ) {
        let data = dataset(seed, rows, features, classes, integer);
        let (_, packed, widened) = forests(&data, seed);
        let mut matrix = BatchMatrix::new();
        matrix.fill((0..batch).map(|i| data.row(i % rows)));
        let scalar: Vec<usize> = (0..batch).map(|i| packed.predict(data.row(i % rows))).collect();
        let mut narrow = Vec::new();
        packed.predict_rows(&matrix, &mut narrow);
        prop_assert_eq!(&narrow, &scalar, "batch entry vs scalar");
        let mut wide = Vec::new();
        widened.predict_rows(&matrix, &mut wide);
        prop_assert_eq!(&wide, &scalar, "widened arena vs scalar");
    }

    #[test]
    fn forest_predict_agrees_with_packed_kernel(
        seed in any::<u64>(),
        rows in 20usize..50,
        features in 1usize..7,
        classes in 2usize..4,
    ) {
        // The unpacked forest, the packed scalar walk and the packed
        // batch entry are three implementations of one function.
        let data = dataset(seed, rows, features, classes, true);
        let (forest, packed, _) = forests(&data, seed);
        let mut matrix = BatchMatrix::new();
        matrix.fill((0..rows).map(|i| data.row(i)));
        let mut kernel = Vec::new();
        packed.predict_rows(&matrix, &mut kernel);
        for (i, &class) in kernel.iter().enumerate() {
            prop_assert_eq!(forest.predict(data.row(i)), class, "row {}", i);
            prop_assert_eq!(packed.predict(data.row(i)), class, "row {}", i);
        }
    }
}
