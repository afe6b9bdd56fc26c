//! Sampling utilities: bootstrap, without-replacement and class-balanced
//! negative sampling.

use rand::seq::SliceRandom;
use rand::Rng;

/// Appends `n` bootstrap draws (uniform with replacement from `0..n`)
/// to `out`.
pub(crate) fn bootstrap_indices_into(n: usize, rng: &mut impl Rng, out: &mut Vec<usize>) {
    out.extend((0..n).map(|_| rng.gen_range(0..n)));
}

/// Draws `k` distinct elements from `pool` without replacement (all of
/// `pool`, shuffled, if `k >= pool.len()`).
pub(crate) fn sample_without_replacement<T: Copy>(
    pool: &[T],
    k: usize,
    rng: &mut impl Rng,
) -> Vec<T> {
    let mut items = pool.to_vec();
    items.shuffle(rng);
    items.truncate(k.min(pool.len()));
    items
}

/// Selects the training indices for a one-vs-rest classifier with the
/// paper's class-imbalance mitigation: all `positives` plus
/// `ratio × positives.len()` randomly chosen `negatives` (Sect. IV-B.1,
/// evaluated with ratio 10 in Sect. VI-B).
///
/// Returns `(indices, labels)` aligned pairwise: label 1 for positives,
/// 0 for the sampled negatives.
pub fn balanced_one_vs_rest(
    positives: &[usize],
    negatives: &[usize],
    ratio: usize,
    rng: &mut impl Rng,
) -> (Vec<usize>, Vec<usize>) {
    let sampled = sample_without_replacement(negatives, positives.len() * ratio, rng);
    let mut indices = Vec::with_capacity(positives.len() + sampled.len());
    let mut labels = Vec::with_capacity(indices.capacity());
    indices.extend_from_slice(positives);
    labels.extend(std::iter::repeat_n(1, positives.len()));
    indices.extend_from_slice(&sampled);
    labels.extend(std::iter::repeat_n(0, sampled.len()));
    (indices, labels)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Draws `n` indices uniformly with replacement from `0..n` (a bootstrap
    /// sample for bagging).
    fn bootstrap_indices(n: usize, rng: &mut impl Rng) -> Vec<usize> {
        let mut out = Vec::with_capacity(n);
        bootstrap_indices_into(n, rng, &mut out);
        out
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn bootstrap_has_right_length_and_range() {
        let sample = bootstrap_indices(50, &mut rng());
        assert_eq!(sample.len(), 50);
        assert!(sample.iter().all(|&i| i < 50));
        // A bootstrap sample of 50 almost surely repeats at least once.
        let distinct: std::collections::HashSet<_> = sample.iter().collect();
        assert!(distinct.len() < 50);
    }

    #[test]
    fn bootstrap_into_matches_allocating_twin() {
        let mut reused = Vec::new();
        bootstrap_indices_into(50, &mut rng(), &mut reused);
        assert_eq!(reused, bootstrap_indices(50, &mut rng()));
        // Appends rather than overwrites, so one flat buffer can hold
        // every tree's sample back to back.
        bootstrap_indices_into(50, &mut rng(), &mut reused);
        assert_eq!(reused.len(), 100);
    }

    #[test]
    fn without_replacement_is_distinct() {
        let pool: Vec<usize> = (0..100).collect();
        let sample = sample_without_replacement(&pool, 30, &mut rng());
        assert_eq!(sample.len(), 30);
        let distinct: std::collections::HashSet<_> = sample.iter().collect();
        assert_eq!(distinct.len(), 30);
    }

    #[test]
    fn without_replacement_caps_at_pool() {
        let pool = [1, 2, 3];
        let sample = sample_without_replacement(&pool, 10, &mut rng());
        assert_eq!(sample.len(), 3);
    }

    #[test]
    fn one_vs_rest_ratio() {
        let positives: Vec<usize> = (0..20).collect();
        let negatives: Vec<usize> = (20..540).collect();
        let (indices, labels) = balanced_one_vs_rest(&positives, &negatives, 10, &mut rng());
        assert_eq!(indices.len(), 20 + 200);
        assert_eq!(labels.iter().filter(|&&l| l == 1).count(), 20);
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), 200);
        // Negatives must come from the negative pool.
        for (&i, &l) in indices.iter().zip(&labels) {
            if l == 0 {
                assert!(i >= 20);
            } else {
                assert!(i < 20);
            }
        }
    }

    #[test]
    fn one_vs_rest_small_negative_pool() {
        let positives = [0, 1];
        let negatives = [2, 3, 4];
        let (indices, labels) = balanced_one_vs_rest(&positives, &negatives, 10, &mut rng());
        assert_eq!(indices.len(), 5, "uses the whole pool when short");
        assert_eq!(labels, vec![1, 1, 0, 0, 0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn bootstrap_covers_range(n in 1usize..200, seed in any::<u64>()) {
            let sample = bootstrap_indices(n, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(sample.len(), n);
            prop_assert!(sample.iter().all(|&i| i < n));
        }

        #[test]
        fn sampling_without_replacement_is_a_subset(pool_size in 1usize..100, k in 0usize..120, seed in any::<u64>()) {
            let pool: Vec<usize> = (0..pool_size).collect();
            let sample = sample_without_replacement(&pool, k, &mut StdRng::seed_from_u64(seed));
            prop_assert_eq!(sample.len(), k.min(pool_size));
            let distinct: std::collections::HashSet<_> = sample.iter().collect();
            prop_assert_eq!(distinct.len(), sample.len(), "duplicates in sample");
            prop_assert!(sample.iter().all(|i| pool.contains(i)));
        }
    }
}
