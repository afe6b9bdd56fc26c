//! Damerau–Levenshtein edit distance between fingerprints (Sect. IV-B.2).
//!
//! The paper treats the fingerprint matrix `F` as a word whose characters
//! are packet columns: two packets are equal iff all 23 features are
//! equal. The distance counts insertions, deletions, substitutions and
//! *immediate* transpositions — the restricted Damerau–Levenshtein
//! distance, also known as optimal string alignment (OSA). The absolute
//! distance is normalized by the length of the longer fingerprint, giving
//! a dissimilarity in `[0, 1]`.
//!
//! Two implementations: [`osa_distance`], the textbook `O(n·m)` dynamic
//! program over any `PartialEq` symbols — the definition, and the
//! reference the property tests compare against — and the bit-parallel
//! kernel over interned `u32` symbols ([`OsaScratch`] / [`OsaPattern`])
//! that identification runs.

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

/// Working memory of the bit-parallel OSA kernel ([`OsaPattern`]): the
/// pattern's match masks and the per-word column state.
///
/// The mask table is dense, indexed `symbol × words` (one `u64` row of
/// `⌈m/64⌉` words per symbol id), and **all-zero whenever no pattern is
/// loaded** — [`OsaScratch::load`] sets only the loaded pattern's bits
/// and the returned guard clears exactly those on drop, so a reused
/// scratch carries nothing from one pattern to the next and a load
/// costs `O(m)`, not a table sweep.
#[derive(Debug, Default)]
pub struct OsaScratch {
    masks: Vec<u64>,
    state: Vec<OsaWord>,
}

/// One 64-row block of the current DP column, as vertical deltas, plus
/// the two values of the previous column the transposition term needs.
#[derive(Debug, Clone, Copy, Default)]
struct OsaWord {
    /// Rows where the column steps +1 / −1 downwards.
    vp: u64,
    vn: u64,
    /// The previous column's diagonal-zero vector and match mask.
    d0: u64,
    pm: u64,
}

impl OsaScratch {
    /// An empty scratch; buffers are sized by the first [`OsaScratch::load`].
    pub fn new() -> Self {
        OsaScratch::default()
    }

    /// Loads `pattern` as the kernel's pattern: one mask bit per pattern
    /// position, in the row of that position's symbol.
    ///
    /// `symbols` is the number of symbol ids in play; every pattern
    /// symbol must lie below it (for a [`crate::SymbolTable`] projection
    /// that is `table.len() + 1`: the table's ids and the one
    /// unseen-column id). The table grows to `symbols × ⌈m/64⌉` words on
    /// first use and is reused after.
    ///
    /// # Panics
    ///
    /// Panics if a pattern symbol is `>= symbols`.
    pub fn load<'a>(&'a mut self, pattern: &'a [u32], symbols: usize) -> OsaPattern<'a> {
        let words = pattern.len().div_ceil(64);
        // Checked before any bit is set, so a refused pattern leaves the
        // table clear.
        assert!(
            pattern.iter().all(|&symbol| (symbol as usize) < symbols),
            "pattern symbol outside the declared symbol range"
        );
        if self.masks.len() < symbols * words {
            self.masks.resize(symbols * words, 0);
        }
        self.state.resize(words, OsaWord::default());
        for (position, &symbol) in pattern.iter().enumerate() {
            self.masks[symbol as usize * words + position / 64] |= 1 << (position % 64);
        }
        OsaPattern {
            scratch: self,
            pattern,
        }
    }

    /// Whether every mask word is zero — the between-patterns invariant
    /// (what the property tests assert after every call sequence).
    pub fn is_clear(&self) -> bool {
        self.masks.iter().all(|&word| word == 0)
    }
}

/// A pattern loaded into an [`OsaScratch`]: the bit-parallel OSA kernel
/// (Hyyrö 2003, the restricted-Damerau recurrence with the
/// transposition term), blocked over `⌈m/64⌉` words.
///
/// Each text symbol advances one DP column in `O(⌈m/64⌉)` word
/// operations, so one pattern is compared against many texts at
/// `O(n)` apiece for `m <= 64` — the shape of stage-2 discrimination,
/// where one probe meets every sampled reference of every candidate
/// type. Dropping the guard zeroes the pattern's mask bits again.
#[derive(Debug)]
pub struct OsaPattern<'a> {
    scratch: &'a mut OsaScratch,
    pattern: &'a [u32],
}

impl OsaPattern<'_> {
    /// The loaded pattern's length `m`.
    pub fn len(&self) -> usize {
        self.pattern.len()
    }

    /// Returns `true` if the loaded pattern has no symbols.
    pub fn is_empty(&self) -> bool {
        self.pattern.is_empty()
    }

    /// OSA distance between the loaded pattern and `text`, with a score
    /// cutoff: `Some(d)` iff the distance is `d <= bound`, `None` iff it
    /// exceeds `bound`.
    ///
    /// Text symbols past the mask table match nothing. The scan gives up
    /// once the remaining columns cannot bring the running distance back
    /// within `bound` (each column lowers it by at most one).
    ///
    /// ```
    /// use sentinel_fingerprint::editdist::OsaScratch;
    ///
    /// let mut scratch = OsaScratch::new();
    /// let kitten = [10, 8, 19, 19, 4, 13];
    /// let sitting = [18, 8, 19, 19, 8, 13, 6];
    /// let mut pattern = scratch.load(&kitten, 26);
    /// assert_eq!(pattern.distance_bounded(&sitting, 3), Some(3));
    /// assert_eq!(pattern.distance_bounded(&sitting, 2), None);
    /// assert_eq!(pattern.distance_bounded(&[8, 10], 6), Some(5));
    /// ```
    pub fn distance_bounded(&mut self, text: &[u32], bound: usize) -> Option<usize> {
        let (m, n) = (self.pattern.len(), text.len());
        if m.abs_diff(n) > bound {
            return None;
        }
        if m == 0 {
            return Some(n); // n <= bound by the length check above
        }
        let OsaScratch { masks, state } = &mut *self.scratch;
        let words = state.len();
        // Column 0 is 0, 1, …, m: every row steps +1.
        state.fill(OsaWord {
            vp: !0,
            ..OsaWord::default()
        });
        // The distance is read off the pattern's last row: D(m, 0) = m,
        // then ±1 per column from that row's horizontal delta.
        let last = 1u64 << ((m - 1) % 64);
        let mut score = m;
        for (column, &symbol) in text.iter().enumerate() {
            let row = symbol as usize * words;
            // Carries into word 0: the DP's first row grows by one per
            // column (HP = 1), and there is nothing above it to
            // transpose with.
            let (mut hp_carry, mut hn_carry, mut tr_carry) = (1u64, 0u64, 0u64);
            let (mut hp, mut hn) = (0u64, 0u64);
            for (word, cell) in state.iter_mut().enumerate() {
                let pm = masks.get(row + word).copied().unwrap_or(0);
                let OsaWord {
                    vp,
                    vn,
                    d0: d0_prev,
                    pm: pm_prev,
                } = *cell;
                // Transposition: a match one row up in this column,
                // below a non-zero diagonal of the previous column,
                // beside a match in the previous column. The shifted-in
                // bit comes from the previous word's top row.
                let open = !d0_prev & pm;
                let tr = ((open << 1) | tr_carry) & pm_prev;
                tr_carry = open >> 63;
                // A −1 entering from the block above acts as a match
                // on this block's first row (Myers' blocked carry).
                let eq = pm | hn_carry;
                let d0 = (((eq & vp).wrapping_add(vp)) ^ vp) | eq | vn | tr;
                hp = vn | !(d0 | vp);
                hn = d0 & vp;
                let hp_in = (hp << 1) | hp_carry;
                let hn_in = (hn << 1) | hn_carry;
                hp_carry = hp >> 63;
                hn_carry = hn >> 63;
                *cell = OsaWord {
                    vp: hn_in | !(d0 | hp_in),
                    vn: hp_in & d0,
                    d0,
                    pm,
                };
            }
            // `hp`/`hn` now hold the last word's horizontal deltas.
            score += usize::from(hp & last != 0);
            score -= usize::from(hn & last != 0);
            if score > bound.saturating_add(n - 1 - column) {
                return None;
            }
        }
        Some(score) // <= bound: by the last column's check, or the length check when n = 0
    }
}

impl Drop for OsaPattern<'_> {
    fn drop(&mut self) {
        let OsaScratch { masks, state } = &mut *self.scratch;
        let words = state.len();
        for &symbol in self.pattern {
            let row = symbol as usize * words;
            masks[row..row + words].fill(0);
        }
    }
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
    fn kernel_carries_a_transposition_across_word_boundaries() {
        // Adjacent symbols always differ, so one swap is distance 1 with
        // the transposition term and 2 without it.
        let a: Vec<u32> = (0..130).map(|i| i % 5).collect();
        let mut scratch = OsaScratch::new();
        for site in [0, 62, 63, 64, 126, 127, 128] {
            let mut b = a.clone();
            b.swap(site, site + 1);
            assert_eq!(osa_distance(&a, &b), 1);
            assert_eq!(scratch.load(&a, 5).distance_bounded(&b, 1), Some(1));
            assert_eq!(scratch.load(&b, 5).distance_bounded(&a, 0), None);
            assert!(scratch.is_clear());
        }
    }

    #[test]
    fn kernel_handles_empty_sides() {
        let mut scratch = OsaScratch::new();
        assert_eq!(scratch.load(&[], 3).distance_bounded(&[], 0), Some(0));
        assert_eq!(scratch.load(&[], 3).distance_bounded(&[1, 2], 2), Some(2));
        assert_eq!(scratch.load(&[1, 2], 3).distance_bounded(&[], 2), Some(2));
        assert_eq!(scratch.load(&[1, 2], 3).distance_bounded(&[], 1), None);
    }

    #[test]
    fn normalization_bounds() {
        let a = fp(&[1, 2, 3]);
        let b = fp(&[4, 5]);
        let d = normalized_distance(&a, &b);
        assert!((0.0..=1.0).contains(&d));
    }
}
