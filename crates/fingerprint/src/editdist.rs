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

/// Texts a blocked pattern (64 symbols or more) advances together.
const BLOCKED_LANES: usize = 8;

/// Working memory of the bit-parallel OSA kernel ([`OsaPattern`]): the
/// pattern's match masks and, for patterns of 64 or more symbols, each
/// text's per-word column state.
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
/// In a packed word each lane is a block of its own.
#[derive(Debug, Clone, Copy, Default)]
struct OsaWord {
    /// Rows where the column steps +1 / −1 downwards.
    vp: u64,
    vn: u64,
    /// The previous column's diagonal-zero vector and match mask.
    d0: u64,
    pm: u64,
}

impl OsaWord {
    /// Advances this block one DP column under match mask `pm`, taking and
    /// replacing the `(hp, hn, tr)` carries shifted into its first row,
    /// and keeping only the `rows` bits of the new vertical deltas;
    /// returns its `(hp, hn)`.
    fn advance(&mut self, pm: u64, carry: &mut (u64, u64, u64), rows: u64) -> (u64, u64) {
        let (vp, vn) = (self.vp, self.vn);
        let (hp_carry, hn_carry, tr_carry) = *carry;
        // Transposition: a match one row up in this column, below a
        // non-zero diagonal of the previous column, beside a match in the
        // previous column (`self.d0`, `self.pm`). The shifted-in bit comes
        // from the previous word's top row.
        let open = !self.d0 & pm;
        let tr = ((open << 1) | tr_carry) & self.pm;
        // A −1 entering from the block above acts as a match on this
        // block's first row (Myers' blocked carry).
        let eq = pm | hn_carry;
        let d0 = (((eq & vp).wrapping_add(vp)) ^ vp) | eq | vn | tr;
        let hp = vn | !(d0 | vp);
        let hn = d0 & vp;
        let hp_in = (hp << 1) | hp_carry;
        let hn_in = (hn << 1) | hn_carry;
        *carry = (hp >> 63, hn >> 63, open >> 63);
        *self = OsaWord {
            vp: (hn_in | !(d0 | hp_in)) & rows,
            vn: hp_in & d0 & rows,
            d0,
            pm,
        };
        (hp, hn)
    }
}

/// Texts per packed word for a pattern of `0 < m < 64` symbols: each
/// text gets a lane of `64 / lanes` bits — the narrowest of 16, 32 and
/// 64 that holds the pattern's `m` rows plus a guard bit above them and
/// whose in-lane distance counter cannot overflow on texts of up to
/// `longest` symbols (a distance never exceeds `max(m, n)`).
fn lanes_per_word(m: usize, longest: usize) -> usize {
    [4, 2]
        .into_iter()
        .find(|&lanes| {
            let width = 64 / lanes;
            m < width && (longest as u64) < (1 << width) - 1
        })
        .unwrap_or(1)
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
/// transposition term).
///
/// Each text symbol advances one DP column in a handful of word
/// operations, so one pattern is compared against many texts at
/// `O(n)` apiece for `m < 64` — the shape of stage-2 discrimination,
/// where one probe meets every sampled reference of every candidate
/// type — and at `O(n·⌈m/64⌉)` beyond. Dropping the guard zeroes the
/// pattern's mask bits again.
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

    /// Appends to `out` the exact OSA distance between the loaded
    /// pattern and each of the `count` texts `text(0..count)`, in order.
    ///
    /// A pattern of `m < 64` symbols packs the texts into words, each
    /// text in a lane of the narrowest width of 16, 32 and 64 bits that
    /// holds `m` rows, a guard bit and the lane's distance counter (so
    /// four to a word for `m <= 15`, two for `m <= 31`); the width is
    /// chosen per call, from `m` and the longest text. One step advances
    /// every lane of a word by one DP column, and a lane whose text has
    /// ended stops counting. Longer patterns advance eight texts
    /// together, each over `⌈m/64⌉` words. Text symbols past the mask
    /// table match nothing.
    ///
    /// ```
    /// use sentinel_fingerprint::editdist::OsaScratch;
    ///
    /// let mut scratch = OsaScratch::new();
    /// let kitten = [10, 8, 19, 19, 4, 13];
    /// let texts: [&[u32]; 3] = [&[18, 8, 19, 19, 8, 13, 6], &[8, 10], &[]];
    /// let mut distances = Vec::new();
    /// let mut pattern = scratch.load(&kitten, 26);
    /// pattern.distances_into(texts.len(), |i| texts[i], &mut distances);
    /// assert_eq!(distances, [3, 5, 6]);
    /// ```
    pub fn distances_into<'t>(
        &mut self,
        count: usize,
        text: impl Fn(usize) -> &'t [u32],
        out: &mut Vec<usize>,
    ) {
        let m = self.pattern.len();
        if m == 0 {
            out.extend((0..count).map(|i| text(i).len()));
        } else if m < 64 {
            let longest = (0..count).map(|i| text(i).len()).max().unwrap_or(0);
            match lanes_per_word(m, longest) {
                4 => self.packed_into::<4>(count, text, out),
                2 => self.packed_into::<2>(count, text, out),
                _ => self.packed_into::<1>(count, text, out),
            }
        } else {
            self.blocked_into(count, text, out);
        }
    }

    /// [`OsaPattern::distances_into`] for `0 < m < 64`, `LANES` texts
    /// to a word.
    ///
    /// Lane `i` of a word is its bits `i·width..(i+1)·width`: the
    /// pattern's rows in the low `m`, and at least one guard bit above
    /// them. Every value a step creates stays inside its lane: the masked
    /// add's carry out of the top row lands in the guard bit, where both
    /// addends are zero; a shift up moves the top row into the guard;
    /// and the horizontal +1 each lane's first row takes is OR-ed into
    /// every lane's bit 0, over whatever the lane below shifted there.
    /// Clearing the guards from `vp` and `vn` after each step keeps it
    /// so.
    fn packed_into<'t, const LANES: usize>(
        &self,
        count: usize,
        text: impl Fn(usize) -> &'t [u32],
        out: &mut Vec<usize>,
    ) {
        let masks = self.scratch.masks.as_slice();
        let width = (64 / LANES) as u32;
        let spread = |lane: u64| (0..LANES).fold(0, |word, i| word | lane << (i as u32 * width));
        let m = self.pattern.len() as u32;
        let (rows, ones) = (spread((1 << m) - 1), spread(1));
        for first in (0..count).step_by(LANES) {
            let lanes = LANES.min(count - first);
            let mut texts: [&[u32]; LANES] = [&[]; LANES];
            for (lane, slot) in texts[..lanes].iter_mut().enumerate() {
                *slot = text(first + lane);
            }
            // Column 0 is 0, 1, …, m: every row steps +1.
            let mut word = OsaWord {
                vp: rows,
                ..OsaWord::default()
            };
            // The distance is read off the pattern's last row: D(m, 0) =
            // m, then ±1 per column from that row's horizontal delta,
            // counted in the lane's bits of one counter word.
            let mut counter = ones * u64::from(m);
            for column in 0..texts.iter().map(|text| text.len()).max().unwrap_or(0) {
                let (mut pm, mut live) = (0, 0);
                for (lane, text) in texts.iter().enumerate() {
                    if let Some(&symbol) = text.get(column) {
                        let shift = lane as u32 * width;
                        pm |= masks.get(symbol as usize).copied().unwrap_or(0) << shift;
                        live |= 1 << shift;
                    }
                }
                // Carries into every lane's first row: the DP's first row
                // grows by one per column (HP = 1), and there is nothing
                // above it to transpose with.
                let (hp, hn) = word.advance(pm, &mut (ones, 0, 0), rows);
                // Each lane's count stays in `0..2^width` before and
                // after, so no carry or borrow crosses a lane.
                counter += (hp >> (m - 1)) & live;
                counter -= (hn >> (m - 1)) & live;
            }
            let lane_max = u64::MAX >> (64 - width);
            out.extend(
                (0..lanes).map(|lane| (counter >> (lane as u32 * width) & lane_max) as usize),
            );
        }
    }

    /// [`OsaPattern::distances_into`] for `m >= 64`: eight texts at a
    /// time, each over `⌈m/64⌉` words of state in the scratch.
    fn blocked_into<'t>(
        &mut self,
        count: usize,
        text: impl Fn(usize) -> &'t [u32],
        out: &mut Vec<usize>,
    ) {
        let m = self.pattern.len();
        let OsaScratch { masks, state } = &mut *self.scratch;
        let words = m.div_ceil(64);
        let last = 1u64 << ((m - 1) % 64);
        let start = OsaWord {
            vp: !0,
            ..OsaWord::default()
        };
        for first in (0..count).step_by(BLOCKED_LANES) {
            let group = BLOCKED_LANES.min(count - first);
            let mut texts: [&[u32]; BLOCKED_LANES] = [&[]; BLOCKED_LANES];
            for (i, slot) in texts[..group].iter_mut().enumerate() {
                *slot = text(first + i);
            }
            let mut scores = [m; BLOCKED_LANES];
            state.clear();
            state.resize(BLOCKED_LANES * words, start);
            for column in 0..texts.iter().map(|text| text.len()).max().unwrap_or(0) {
                for (i, score) in scores.iter_mut().enumerate() {
                    let Some(&symbol) = texts[i].get(column) else {
                        continue;
                    };
                    // Carries into word 0, as in the packed lanes.
                    let mut carry = (1, 0, 0);
                    let mask = |word| masks.get(symbol as usize * words + word).copied();
                    let cells = &mut state[i * words..(i + 1) * words];
                    let (hp, hn) = (cells.iter_mut().enumerate())
                        .fold((0, 0), |_, (word, cell)| {
                            cell.advance(mask(word).unwrap_or(0), &mut carry, !0)
                        });
                    *score += usize::from(hp & last != 0);
                    *score -= usize::from(hn & last != 0);
                }
            }
            out.extend_from_slice(&scores[..group]);
        }
    }
}

impl Drop for OsaPattern<'_> {
    fn drop(&mut self) {
        let words = self.pattern.len().div_ceil(64);
        for &symbol in self.pattern {
            let row = symbol as usize * words;
            self.scratch.masks[row..row + words].fill(0);
        }
    }
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
    use proptest::prelude::*;
    use sentinel_netproto::{MacAddr, Packet};

    /// Plain Levenshtein distance (no transposition).
    ///
    /// Unlike the OSA distance, this is a true metric (satisfies the triangle
    /// inequality), which the property-test suite exercises; it also serves
    /// as an upper bound on [`osa_distance`].
    fn levenshtein_distance<T: PartialEq>(a: &[T], b: &[T]) -> usize {
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

    /// The kernel's distances from `pattern` to each text.
    fn kernel(scratch: &mut OsaScratch, pattern: &[u32], texts: &[&[u32]]) -> Vec<usize> {
        let mut out = Vec::new();
        scratch
            .load(pattern, 5)
            .distances_into(texts.len(), |i| texts[i], &mut out);
        out
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
            assert_eq!(kernel(&mut scratch, &a, &[&b, &a]), [1, 0]);
            assert_eq!(kernel(&mut scratch, &b, &[&a]), [1]);
            assert!(scratch.is_clear());
        }
    }

    #[test]
    fn kernel_handles_empty_sides() {
        let mut scratch = OsaScratch::new();
        assert_eq!(kernel(&mut scratch, &[], &[&[], &[1, 2]]), [0, 2]);
        assert_eq!(kernel(&mut scratch, &[1, 2], &[&[], &[2]]), [2, 1]);
        assert_eq!(kernel(&mut scratch, &[1, 2], &[]), []);
    }

    #[test]
    fn normalization_bounds() {
        let a = fp(&[1, 2, 3]);
        let b = fp(&[4, 5]);
        let d = normalized_distance(&a, &b);
        assert!((0.0..=1.0).contains(&d));
    }

    fn symbols() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..6, 0..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn osa_never_exceeds_levenshtein(a in symbols(), b in symbols()) {
            prop_assert!(osa_distance(&a, &b) <= levenshtein_distance(&a, &b));
        }

        #[test]
        fn levenshtein_triangle_inequality(a in symbols(), b in symbols(), c in symbols()) {
            let ab = levenshtein_distance(&a, &b);
            let bc = levenshtein_distance(&b, &c);
            let ac = levenshtein_distance(&a, &c);
            prop_assert!(ac <= ab + bc, "triangle violated: {} > {} + {}", ac, ab, bc);
        }
    }
}
