//! Damerau–Levenshtein edit distance between fingerprints (Sect. IV-B.2).
//!
//! The paper treats the fingerprint matrix `F` as a word whose characters
//! are packet columns: two packets are equal iff all 23 features are
//! equal. The distance counts insertions, deletions, substitutions and
//! *immediate* transpositions — the restricted Damerau–Levenshtein
//! distance, also known as optimal string alignment (OSA). The absolute
//! distance is normalized by the length of the longer fingerprint, giving
//! a dissimilarity in `[0, 1]`.

use crate::Fingerprint;

/// Restricted Damerau–Levenshtein (optimal string alignment) distance
/// between two symbol sequences.
///
/// Counts insertion, deletion, substitution and immediate transposition
/// of adjacent symbols, matching the paper's citation of Damerau.
///
/// ```
/// use sentinel_fingerprint::editdist::osa_distance;
///
/// assert_eq!(osa_distance(b"ca", b"ac"), 1, "transposition");
/// assert_eq!(osa_distance(b"kitten", b"sitting"), 3);
/// assert_eq!(osa_distance::<u8>(&[], &[]), 0);
/// ```
pub fn osa_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let cols = b.len() + 1;
    // Three rolling rows: i-2, i-1, i.
    let mut prev_prev = vec![0usize; cols];
    let mut prev: Vec<usize> = (0..cols).collect();
    let mut current = vec![0usize; cols];
    for (i, ai) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, bj) in b.iter().enumerate() {
            let cost = usize::from(ai != bj);
            let mut best = (prev[j + 1] + 1) // deletion
                .min(current[j] + 1) // insertion
                .min(prev[j] + cost); // substitution
            if i > 0 && j > 0 && *ai == b[j - 1] && a[i - 1] == *bj {
                best = best.min(prev_prev[j - 1] + 1); // transposition
            }
            current[j + 1] = best;
        }
        std::mem::swap(&mut prev_prev, &mut prev);
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Banded OSA distance with an early-exit score cutoff (Ukkonen, 1985).
///
/// Returns `Some(d)` iff the OSA distance is `d <= bound`, and `None`
/// iff the true distance exceeds `bound`. Because `D(i, j) >= |i - j|`,
/// only the diagonal band of half-width `bound` can hold cells within
/// the cutoff, so the DP fills `O(bound · min(n, m))` cells instead of
/// `O(n · m)`; additionally the scan aborts as soon as a whole row
/// exceeds the cutoff.
///
/// ```
/// use sentinel_fingerprint::editdist::osa_distance_bounded;
///
/// assert_eq!(osa_distance_bounded(b"kitten", b"sitting", 3), Some(3));
/// assert_eq!(osa_distance_bounded(b"kitten", b"sitting", 2), None);
/// assert_eq!(osa_distance_bounded::<u8>(&[], &[], 0), Some(0));
/// ```
pub fn osa_distance_bounded<T: PartialEq>(a: &[T], b: &[T], bound: usize) -> Option<usize> {
    let (n, m) = (a.len(), b.len());
    if n.abs_diff(m) > bound {
        return None;
    }
    if n == 0 {
        return Some(m); // m <= bound by the length check above
    }
    if m == 0 {
        return Some(n);
    }
    // Any cell value above `bound` behaves as "unreachable"; clamping to
    // `inf` keeps saturating arithmetic safe for huge bounds.
    let inf = bound.saturating_add(1);
    let cols = m + 1;
    let mut prev_prev = vec![inf; cols];
    let mut prev: Vec<usize> = (0..cols)
        .map(|j| if j <= bound { j } else { inf })
        .collect();
    let mut current = vec![inf; cols];
    for i in 0..n {
        let row = i + 1;
        // Only D(row, j) with |row - j| <= bound can stay within the
        // cutoff; everything outside the band is `inf`.
        let lo = row.saturating_sub(bound);
        let hi = (row + bound).min(m);
        // Reset the stale cells adjacent to the band (they still hold
        // values from two rows ago after the swaps below).
        if lo > 0 {
            current[lo - 1] = inf;
        }
        if hi < m {
            current[hi + 1] = inf;
        }
        let mut row_min = inf;
        if lo == 0 {
            current[0] = row; // first column: delete all of a[..row]
            row_min = row;
        }
        for j in lo.max(1)..=hi {
            let (ai, bj) = (&a[i], &b[j - 1]);
            let cost = usize::from(ai != bj);
            let mut best = prev[j]
                .saturating_add(1) // deletion
                .min(current[j - 1].saturating_add(1)) // insertion
                .min(prev[j - 1].saturating_add(cost)); // substitution
            if i > 0 && j > 1 && *ai == b[j - 2] && a[i - 1] == *bj {
                best = best.min(prev_prev[j - 2].saturating_add(1)); // transposition
            }
            let best = best.min(inf);
            current[j] = best;
            row_min = row_min.min(best);
        }
        // Every later cell derives from this row or (via transposition)
        // from a row whose reachable cells this row dominates, so once a
        // whole row exceeds the cutoff the distance provably does too.
        if row_min >= inf {
            return None;
        }
        std::mem::swap(&mut prev_prev, &mut prev);
        std::mem::swap(&mut prev, &mut current);
    }
    let distance = prev[m];
    (distance <= bound).then_some(distance)
}

/// Plain Levenshtein distance (no transposition).
///
/// Unlike the OSA distance, this is a true metric (satisfies the triangle
/// inequality), which the property-test suite exercises; it also serves
/// as an upper bound on [`osa_distance`].
pub fn levenshtein_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut current = vec![0usize; b.len() + 1];
    for (i, ai) in a.iter().enumerate() {
        current[0] = i + 1;
        for (j, bj) in b.iter().enumerate() {
            let cost = usize::from(ai != bj);
            current[j + 1] = (prev[j + 1] + 1).min(current[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut current);
    }
    prev[b.len()]
}

/// Absolute OSA distance between two fingerprints, using whole packet
/// columns as characters.
pub fn distance(a: &Fingerprint, b: &Fingerprint) -> usize {
    osa_distance(a.vectors(), b.vectors())
}

/// Normalized dissimilarity in `[0, 1]`: the absolute distance divided by
/// the length of the longer fingerprint (Sect. IV-B.2).
///
/// Two empty fingerprints have distance 0.
pub fn normalized_distance(a: &Fingerprint, b: &Fingerprint) -> f64 {
    let longest = a.len().max(b.len());
    if longest == 0 {
        return 0.0;
    }
    distance(a, b) as f64 / longest as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FeatureVector;
    use sentinel_netproto::{MacAddr, Packet};

    fn vector(counter: u32) -> FeatureVector {
        FeatureVector::from_packet(&Packet::dhcp_discover(MacAddr::ZERO, 1, 0), counter)
    }

    fn fp(counters: &[u32]) -> Fingerprint {
        // Bypass consecutive dedup by construction: counters differ.
        counters.iter().map(|&c| vector(c)).collect()
    }

    #[test]
    fn identity() {
        let a = fp(&[1, 2, 3]);
        assert_eq!(distance(&a, &a), 0);
        assert_eq!(normalized_distance(&a, &a), 0.0);
    }

    #[test]
    fn insertion_and_deletion() {
        let a = fp(&[1, 2, 3]);
        let b = fp(&[1, 2, 3, 4]);
        assert_eq!(distance(&a, &b), 1);
        assert_eq!(distance(&b, &a), 1);
        assert_eq!(normalized_distance(&a, &b), 0.25);
    }

    #[test]
    fn substitution() {
        let a = fp(&[1, 2, 3]);
        let b = fp(&[1, 9, 3]);
        assert_eq!(distance(&a, &b), 1);
    }

    #[test]
    fn transposition_counts_once() {
        let a = fp(&[1, 2]);
        let b = fp(&[2, 1]);
        assert_eq!(distance(&a, &b), 1, "immediate transposition is one edit");
        assert_eq!(levenshtein_distance(a.vectors(), b.vectors()), 2);
    }

    #[test]
    fn osa_bounded_by_levenshtein() {
        let pairs = [
            (fp(&[1, 2, 3, 4]), fp(&[2, 1, 4, 3])),
            (fp(&[1, 2, 3]), fp(&[4, 5, 6, 7])),
            (fp(&[]), fp(&[1, 2])),
        ];
        for (a, b) in &pairs {
            assert!(distance(a, b) <= levenshtein_distance(a.vectors(), b.vectors()));
        }
    }

    #[test]
    fn empty_fingerprints() {
        let empty = Fingerprint::default();
        let a = fp(&[1, 2]);
        assert_eq!(distance(&empty, &a), 2);
        assert_eq!(normalized_distance(&empty, &a), 1.0);
        assert_eq!(normalized_distance(&empty, &empty), 0.0);
    }

    #[test]
    fn known_string_vectors() {
        assert_eq!(osa_distance(b"abcdef", b"abcdef"), 0);
        assert_eq!(
            osa_distance(b"ca", b"abc"),
            3,
            "classic OSA vs unrestricted DL example"
        );
        // insert 'n', then transpose the disjoint "ca" -> "ac".
        assert_eq!(osa_distance(b"a cat", b"an act"), 2);
        assert_eq!(levenshtein_distance(b"flaw", b"lawn"), 2);
    }

    #[test]
    fn normalization_bounds() {
        let a = fp(&[1, 2, 3]);
        let b = fp(&[4, 5]);
        let d = normalized_distance(&a, &b);
        assert!((0.0..=1.0).contains(&d));
    }
}
