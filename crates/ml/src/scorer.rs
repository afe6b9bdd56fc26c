//! Whole-bank stage-1 scoring: every split threshold of every binary
//! forest is tested at most once per row, instead of each tree being
//! walked root to leaf (QuickScorer; Lucchese et al., SIGIR 2015).
//!
//! Each tree's leaves are numbered left to right in consecutive bits of
//! one `u64` word (a forest's small trees share words, one after the
//! other). A split whose test `row[feature] <= threshold` is **false**
//! sends the row right, so it rules out exactly the leaves of its left
//! subtree: its *mask* clears those bits. Starting from all ones and
//! AND-ing in the mask of every false split leaves each tree's exit
//! leaf as the lowest surviving bit of its run — every leaf left of it
//! sits in the left subtree of a false split on the exit path, and the
//! exit leaf itself sits under no false split's left subtree. The false
//! splits of a feature are a prefix of its splits sorted by threshold,
//! so one scan per *used* feature, stopped at the first true test,
//! finds them all without visiting a tree; splits that share feature,
//! threshold and word are one entry, their masks AND-ed at build time.
//!
//! That is the per-row kernel, [`BankScorer::candidates_into`]. A batch
//! of at least 20 rows goes through the *lane kernel* instead, 64 rows
//! at a time: the same clearing with the bits turned the other way —
//! one `u64` per leaf, one bit (lane) per row. A row-major pass over the
//! bank's distinct (feature, threshold) pairs marks, per pair, the lanes
//! whose test is false — testing every pair of each feature whose first
//! threshold the row's cell exceeds, with no early exit to mispredict
//! (the false tests are the prefix the per-row scan stops after) — and
//! each marked pair then clears those lanes from
//! the leaves its splits' left subtrees hold; each tree's exit per lane
//! is its lowest leaf still set in that lane, and the class-1 exits are
//! added into bit-sliced vote counters, so a forest's verdict for all 64
//! rows is one bitwise `≥ needed` test.
//!
//! The verdict is [`RandomForest::accepts`]' — class 1 needs a strict
//! majority of the trees; that function's early exit only changes when
//! the verdict is known, never what it is — and the routing is
//! [`DecisionTree::predict`](crate::DecisionTree::predict)'s, NaN
//! included: `NaN <= t` and `v <= NaN` are both false, so a NaN cell
//! fails every test on its feature and a NaN threshold fails for every
//! row (such a split is folded in at build time — into its word's
//! starting value, or as dead leaves — and never scanned).
//!
//! A forest that is not binary, or holds a tree of more than 64 leaves,
//! is answered by [`RandomForest::accepts`] itself; that is decided per
//! forest when the scorer is built, never per row.

use std::ops::Range;

use crate::forest::RandomForest;
use crate::tree::{DecisionTree, Node};

/// Leaves one word can number; rows one lane word can hold.
const WORD_BITS: u32 = u64::BITS;

/// Batches below this many rows are scored row by row. The lane kernel
/// pays for its whole bank per call — zeroing every threshold's lane
/// mask, setting every leaf's lanes, one pass over every tree — however
/// few rows fill its lanes, while the per-row kernel's cost is all per
/// row. Measured in µs a row (best of 200–400 repetitions over the
/// catalog's 270 setups of a seed the models were not trained on, each
/// kernel and width in turn, three runs on a 2-core shared VM), the two
/// cross at different widths on the two models a gateway serves:
///
/// | model | lane: 16 rows | 20 | 24 | 64 | per row | crossover |
/// |---|---|---|---|---|---|---|
/// | ledger (25 trees) | 1.16–1.20 | 1.04–1.07 | 0.96–0.98 | 0.65–0.66 | 0.92–0.99 | ≈ 25 rows |
/// | default (100 trees) | 3.97–4.04 | 3.25–3.35 | 2.88–2.98 | 1.55–1.58 | 3.62–4.14 | ≈ 18 rows |
///
/// 20 sits between them: a run at the cutoff costs the ledger model
/// ≈ 10 % more than row by row, one just below it the default model at
/// most ≈ 8 % more than a lane pass. At 16 the ledger model paid ≈ 25 %
/// more on 16-row runs; at 24 the default model would pay ≈ 17 % more
/// on 20–23-row runs.
const LANE_CUTOFF: usize = 20;

/// One per-row scan entry: the splits of one word's trees that test one
/// feature against one threshold.
#[derive(Debug, Clone, Copy)]
struct Split {
    threshold: f64,
    /// Clears the leaves of the splits' left subtrees.
    mask: u64,
    feature: u32,
    word: u32,
}

/// A split as numbered within its tree: it clears `left` of the tree's
/// leaves when its test is false.
#[derive(Debug, Clone)]
struct TreeSplit {
    threshold: f64,
    feature: u32,
    left: Range<u32>,
}

/// One feature some split tests, with its runs in both layouts.
#[derive(Debug, Clone, Copy)]
struct Feature {
    /// Its lowest threshold: a cell at or below it makes no test false.
    first: f64,
    feature: u32,
    /// End of its run in `splits`.
    splits_end: u32,
    /// End of its run in `thresholds` (its threshold groups).
    groups_end: u32,
}

/// One tree of the lane layout: a run of leaves, left to right.
#[derive(Debug, Clone, Copy)]
struct Tree {
    /// End of its run in the leaf numbering (the run starts where the
    /// previous tree's ends).
    end: u32,
    /// Its leaves that vote class 1, bit `i` for the run's leaf `i`.
    ones: u64,
}

/// How one forest of the bank reaches its verdict.
#[derive(Debug, Clone)]
enum Forest {
    /// Its trees own `words` of the word array and `trees` of the lane
    /// layout; class 1 wins with `needed` votes.
    Scored {
        words: Range<usize>,
        trees: Range<usize>,
        needed: u64,
    },
    /// Too wide (or not binary) for leaf words: walked tree by tree.
    Walked(RandomForest),
}

/// One scorer over all forests of a one-vs-rest bank: a pure
/// acceleration structure, built once from the forests (which stay the
/// serialized source of truth), each array trimmed to its length.
#[derive(Debug, Clone, Default)]
pub struct BankScorer {
    /// Per-row scan entries, grouped by feature (ascending) and sorted
    /// by threshold (ascending) within a feature.
    splits: Vec<Split>,
    /// Every used feature, ascending.
    features: Vec<Feature>,
    /// Per word, the value a row starts from: all ones, less the masks
    /// of splits that are false for every row.
    start: Vec<u64>,
    /// Per word, the lowest bit of each tree's run.
    firsts: Vec<u64>,
    /// Per word, the leaves that vote class 1.
    ones: Vec<u64>,
    /// Lane layout: one threshold group per distinct (feature,
    /// threshold), grouped by feature and ascending like `splits`.
    thresholds: Vec<f64>,
    /// Per threshold group, the end of its leaves in `group_leaves`.
    group_ends: Vec<u32>,
    /// Per threshold group, the leaves its splits' left subtrees hold,
    /// ascending and each once.
    group_leaves: Vec<u32>,
    /// Leaves under the left subtree of a NaN-threshold split: no row
    /// ever reaches them.
    dead: Vec<u32>,
    /// Lane layout's trees, forest after forest; the last one's `end`
    /// is the leaf count.
    trees: Vec<Tree>,
    forests: Vec<Forest>,
}

impl BankScorer {
    /// Builds the scorer over `forests`, indexed by label.
    pub fn new(forests: &[RandomForest]) -> Self {
        let mut scorer = BankScorer::default();
        // One forest's trees as numbered, before any is placed: the
        // forest is scored only if every tree numbers.
        let (mut numbered, mut tree_splits) = (Vec::new(), Vec::new());
        // Every scored split, by the leaves of the lane layout.
        let mut lane_splits = Vec::new();
        for forest in forests {
            numbered.clear();
            tree_splits.clear();
            let scorable = forest.n_classes() == 2
                && forest.trees().iter().all(|tree| {
                    let (mut leaves, mut voting) = (0u32, 0u64);
                    let fits =
                        number_subtree(tree, 0, 0, &mut leaves, &mut voting, &mut tree_splits);
                    numbered.push((leaves, voting, tree_splits.len()));
                    fits
                });
            if !scorable {
                scorer.forests.push(Forest::Walked(forest.clone()));
                continue;
            }
            let (first_word, first_tree) = (scorer.ones.len(), scorer.trees.len());
            // Bits taken in the forest's last word; a full one makes
            // its first tree open a word of the forest's own.
            let mut used = WORD_BITS;
            let mut from = 0;
            for &(leaves, voting, end) in &numbered {
                let splits = &tree_splits[from..end];
                scorer.place_tree(leaves, voting, splits, &mut used, &mut lane_splits);
                from = end;
            }
            let n_trees = forest.n_trees() as u64;
            scorer.forests.push(Forest::Scored {
                words: first_word..scorer.ones.len(),
                trees: first_tree..scorer.trees.len(),
                needed: n_trees / 2 + 1,
            });
        }
        scorer.finish_rows();
        scorer.finish_lanes(lane_splits);
        scorer.trim();
        scorer
    }

    /// Drops every array's growth slack: the scorer is read-only now.
    fn trim(&mut self) {
        self.splits.shrink_to_fit();
        self.features.shrink_to_fit();
        self.start.shrink_to_fit();
        self.firsts.shrink_to_fit();
        self.ones.shrink_to_fit();
        self.thresholds.shrink_to_fit();
        self.group_ends.shrink_to_fit();
        self.group_leaves.shrink_to_fit();
        self.dead.shrink_to_fit();
        self.trees.shrink_to_fit();
        self.forests.shrink_to_fit();
    }

    /// Packs a numbered tree's `leaves` into the next free bits of the
    /// last word (`used` of which are taken), or of a new word if they
    /// do not fit, and appends its splits; appends it to the lane
    /// layout's trees, and its splits, renumbered to those leaves, to
    /// `lane_splits`.
    fn place_tree(
        &mut self,
        leaves: u32,
        voting: u64,
        splits: &[TreeSplit],
        used: &mut u32,
        lane_splits: &mut Vec<TreeSplit>,
    ) {
        if *used + leaves > WORD_BITS {
            self.ones.push(0);
            self.firsts.push(0);
            *used = 0;
        }
        let word = self.ones.len() - 1;
        self.ones[word] |= voting << *used;
        self.firsts[word] |= 1 << *used;
        self.splits.extend(splits.iter().map(|split| Split {
            threshold: split.threshold,
            // The right subtree took a bit, so `left.end < 64`.
            mask: !(((1u64 << split.left.end) - (1u64 << split.left.start)) << *used),
            feature: split.feature,
            word: word as u32,
        }));
        *used += leaves;
        let first_leaf = self.trees.last().map_or(0, |tree| tree.end);
        lane_splits.extend(splits.iter().map(|split| TreeSplit {
            left: first_leaf + split.left.start..first_leaf + split.left.end,
            ..split.clone()
        }));
        self.trees.push(Tree {
            end: first_leaf + leaves,
            ones: voting,
        });
    }

    /// Sorts the per-row entries into feature runs, folding NaN
    /// thresholds into the words' starting values and merging entries
    /// that share feature, threshold and word.
    fn finish_rows(&mut self) {
        let BankScorer {
            splits,
            start,
            ones,
            ..
        } = self;
        start.resize(ones.len(), u64::MAX);
        // `v <= NaN` is false for every `v`: fold those splits in now.
        splits.retain(|split| {
            if split.threshold.is_nan() {
                start[split.word as usize] &= split.mask;
            }
            !split.threshold.is_nan()
        });
        splits.sort_by(|a, b| {
            (a.feature.cmp(&b.feature))
                .then(a.threshold.total_cmp(&b.threshold))
                .then(a.word.cmp(&b.word))
        });
        splits.dedup_by(|next, kept| {
            let same = (next.feature, next.threshold.to_bits(), next.word)
                == (kept.feature, kept.threshold.to_bits(), kept.word);
            if same {
                kept.mask &= next.mask;
            }
            same
        });
    }

    /// Groups the scored splits by (feature, threshold) for the lane
    /// kernel — NaN thresholds become dead leaves — and builds the
    /// feature table both kernels scan.
    fn finish_lanes(&mut self, mut lane_splits: Vec<TreeSplit>) {
        lane_splits.retain(|split| {
            if split.threshold.is_nan() {
                self.dead.extend(split.left.clone());
            }
            !split.threshold.is_nan()
        });
        self.dead.sort_unstable();
        self.dead.dedup();
        lane_splits
            .sort_by(|a, b| (a.feature.cmp(&b.feature)).then(a.threshold.total_cmp(&b.threshold)));
        let mut leaves = Vec::new();
        for (at, split) in lane_splits.iter().enumerate() {
            leaves.extend(split.left.clone());
            let group_ends = lane_splits.get(at + 1).is_none_or(|next| {
                (next.feature, next.threshold.to_bits())
                    != (split.feature, split.threshold.to_bits())
            });
            if !group_ends {
                continue;
            }
            leaves.sort_unstable();
            leaves.dedup();
            self.group_leaves.append(&mut leaves);
            self.group_ends.push(self.group_leaves.len() as u32);
            self.thresholds.push(split.threshold);
            let groups_end = self.thresholds.len() as u32;
            match self.features.last_mut() {
                Some(feature) if feature.feature == split.feature => {
                    feature.groups_end = groups_end;
                }
                _ => self.features.push(Feature {
                    first: split.threshold,
                    feature: split.feature,
                    splits_end: 0,
                    groups_end,
                }),
            }
        }
        // Both layouts hold the same non-NaN splits, so they test the
        // same features.
        for feature in &mut self.features {
            let end = self
                .splits
                .partition_point(|split| split.feature <= feature.feature);
            feature.splits_end = end as u32;
        }
    }

    /// Appends to `out`, in increasing order, the label of every forest
    /// that accepts `row` — for each forest exactly
    /// [`RandomForest::accepts`]. `words` is caller-owned scratch: it
    /// grows on first use and a warm call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the features the forests were
    /// trained on.
    pub fn candidates_into(&self, row: &[f64], words: &mut Vec<u64>, out: &mut Vec<usize>) {
        let votes = self.votes_into(row, words);
        for (label, forest) in self.forests.iter().enumerate() {
            let accepted = match forest {
                Forest::Scored {
                    words: own, needed, ..
                } => votes[own.clone()].iter().sum::<u64>() >= *needed,
                Forest::Walked(forest) => forest.accepts(row),
            };
            if accepted {
                out.push(label);
            }
        }
    }

    /// The share of forest `label`'s trees that vote class 1 for `row`,
    /// bit for bit `RandomForest::predict_proba_into(row, ..)[1]` (both
    /// divide a whole vote count by the tree count). `words` is scratch,
    /// and the panics are [`BankScorer::candidates_into`]'s.
    pub fn vote_share(&self, label: usize, row: &[f64], words: &mut Vec<u64>) -> f64 {
        let (ones, trees) = match &self.forests[label] {
            Forest::Scored {
                words: own, trees, ..
            } => {
                let votes = self.votes_into(row, words)[own.clone()].iter().sum::<u64>();
                (votes as usize, trees.len())
            }
            Forest::Walked(forest) => {
                let ones = forest.trees().iter().filter(|tree| tree.predict(row) == 1);
                (ones.count(), forest.n_trees())
            }
        };
        ones as f64 / trees as f64
    }

    /// The per-row scan behind both per-row entries: clears the leaves
    /// of every false split and returns each word's class-1 votes.
    #[inline]
    fn votes_into<'w>(&self, row: &[f64], words: &'w mut Vec<u64>) -> &'w [u64] {
        let n = self.start.len();
        words.clear();
        words.extend_from_slice(&self.start);
        // Each word's vote count goes behind the words.
        words.resize(2 * n, 0);
        let (leaves, votes) = words.split_at_mut(n);
        let mut from = 0usize;
        for feature in &self.features {
            let (value, run) = (
                row[feature.feature as usize],
                from..feature.splits_end as usize,
            );
            from = run.end;
            // At or below the first threshold, every test is true.
            if value <= feature.first {
                continue;
            }
            for split in &self.splits[run] {
                if value <= split.threshold {
                    break;
                }
                leaves[split.word as usize] &= split.mask;
            }
        }
        for (((votes, &word), &firsts), &ones) in votes
            .iter_mut()
            .zip(&*leaves)
            .zip(&self.firsts)
            .zip(&self.ones)
        {
            // Adding each run's lowest bit to the complement carries up
            // to the run's lowest set bit and stops there: every run
            // keeps its exit leaf, and only that.
            let exits = word & (!word).wrapping_add(firsts);
            *votes = u64::from((exits & ones).count_ones());
        }
        votes
    }

    /// Appends to each `out[i]`, in increasing order, the label of every
    /// forest that accepts `row(i)` — for each row exactly what
    /// [`BankScorer::candidates_into`] appends. Runs of 64 rows, and a
    /// last run of at least 20, take the lane kernel; a shorter last run
    /// is scored row by row. `words` is caller-owned scratch: it grows
    /// on first use and a warm call allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if a row is shorter than the features the forests were
    /// trained on.
    pub fn candidates_batch_into<'a>(
        &self,
        row: impl Fn(usize) -> &'a [f64],
        words: &mut Vec<u64>,
        out: &mut [Vec<usize>],
    ) {
        for (run, slots) in out.chunks_mut(WORD_BITS as usize).enumerate() {
            let first = run * WORD_BITS as usize;
            if slots.len() >= LANE_CUTOFF {
                self.lanes_into(|lane| row(first + lane), words, slots);
            } else {
                for (lane, slot) in slots.iter_mut().enumerate() {
                    self.candidates_into(row(first + lane), words, slot);
                }
            }
        }
    }

    /// Leaves the lane layout numbers before tree `tree`.
    fn leaves_before(&self, tree: usize) -> usize {
        self.trees[..tree]
            .last()
            .map_or(0, |tree| tree.end as usize)
    }

    /// The lane kernel: scores the rows `row(0..out.len())`, at most 64,
    /// one bit of every word per row, and appends row `i`'s candidates
    /// to `out[i]`.
    fn lanes_into<'a>(
        &self,
        row: impl Fn(usize) -> &'a [f64],
        words: &mut Vec<u64>,
        out: &mut [Vec<usize>],
    ) {
        debug_assert!(out.len() <= WORD_BITS as usize);
        let groups = self.thresholds.len();
        words.clear();
        words.resize(groups, 0);
        words.resize(groups + self.leaves_before(self.trees.len()), u64::MAX);
        let (fired, alive) = words.split_at_mut(groups);
        for &leaf in &self.dead {
            alive[leaf as usize] = 0;
        }
        // Per group, the lanes whose test is false.
        for lane in 0..out.len() {
            let (row, bit) = (row(lane), 1u64 << lane);
            let mut from = 0usize;
            for feature in &self.features {
                let (value, run) = (
                    row[feature.feature as usize],
                    from..feature.groups_end as usize,
                );
                from = run.end;
                if value <= feature.first {
                    continue;
                }
                // No early exit: the thresholds ascend, so the false
                // tests are a prefix and marking every group by its own
                // test sets the same bits as stopping at the first true
                // one, without a mispredicted exit per feature per row.
                for (fired, &threshold) in fired[run.clone()].iter_mut().zip(&self.thresholds[run])
                {
                    // A true test leaves 1 − 1 = 0, a false one all ones.
                    *fired |= bit & u64::from(value <= threshold).wrapping_sub(1);
                }
            }
        }
        let mut from = 0usize;
        for (&fired, &end) in fired.iter().zip(&self.group_ends) {
            if fired != 0 {
                for &leaf in &self.group_leaves[from..end as usize] {
                    alive[leaf as usize] &= !fired;
                }
            }
            from = end as usize;
        }
        let lanes = u64::MAX >> (WORD_BITS as usize - out.len());
        // Bit `b` of every lane's vote count; a forest of `n` trees
        // needs the `⌈log₂(n + 1)⌉` lowest.
        let mut counts = [0u64; WORD_BITS as usize];
        for (label, forest) in self.forests.iter().enumerate() {
            let mut accepted = match forest {
                Forest::Scored { trees, needed, .. } => {
                    // Wide enough for `n` and for `needed`.
                    let width = WORD_BITS - (trees.len() as u64 | needed).leading_zeros();
                    let counts = &mut counts[..width as usize];
                    counts.fill(0);
                    let mut first_leaf = self.leaves_before(trees.start);
                    for tree in &self.trees[trees.clone()] {
                        let (mut seen, mut votes) = (0u64, 0u64);
                        for (at, &leaf) in alive[first_leaf..tree.end as usize].iter().enumerate() {
                            // A lane exits at its lowest surviving leaf.
                            let class_one = 0u64.wrapping_sub(tree.ones >> at & 1);
                            votes |= leaf & !seen & class_one;
                            seen |= leaf;
                        }
                        first_leaf = tree.end as usize;
                        for bit in counts.iter_mut() {
                            let carry = *bit & votes;
                            *bit ^= votes;
                            votes = carry;
                        }
                    }
                    at_least(counts, *needed) & lanes
                }
                Forest::Walked(forest) => (0..out.len())
                    .filter(|&lane| forest.accepts(row(lane)))
                    .fold(0, |accepted, lane| accepted | 1 << lane),
            };
            while accepted != 0 {
                out[accepted.trailing_zeros() as usize].push(label);
                accepted &= accepted - 1;
            }
        }
    }
}

/// The lanes whose bit-sliced count (`counts[b]` holds bit `b` of every
/// lane's) is at least `needed`, which must fit in `counts.len()` bits:
/// compared from the top bit down, a lane is above once it has a one
/// where `needed` has a zero with every higher bit equal.
fn at_least(counts: &[u64], needed: u64) -> u64 {
    let (mut above, mut equal) = (0u64, u64::MAX);
    for (b, &bits) in counts.iter().enumerate().rev() {
        if needed >> b & 1 == 1 {
            equal &= bits;
        } else {
            above |= equal & bits;
            equal &= !bits;
        }
    }
    above | equal
}

/// The subtree at node `at`: leaves take the next free bits in order,
/// and each split is appended with the leaves of its left subtree.
/// Nodes are read the way `predict` walks them, so parts whose children
/// are shared (a snapshot can carry them) number as the tree they route
/// like; depth and leaf count are both cut off at [`WORD_BITS`], which
/// bounds the work on any input.
fn number_subtree(
    tree: &DecisionTree,
    at: u32,
    depth: u32,
    leaves: &mut u32,
    voting: &mut u64,
    splits: &mut Vec<TreeSplit>,
) -> bool {
    match tree.node(at) {
        Node::Leaf { class } => {
            if *leaves == WORD_BITS {
                return false;
            }
            *voting |= u64::from(class == 1) << *leaves;
            *leaves += 1;
            true
        }
        Node::Split {
            feature,
            threshold,
            left,
            right,
        } => {
            // A path of more splits than a word has bits ends in more
            // leaves than it has bits.
            if depth == WORD_BITS {
                return false;
            }
            let first = *leaves;
            if !number_subtree(tree, left, depth + 1, leaves, voting, splits) {
                return false;
            }
            let mid = *leaves;
            if !number_subtree(tree, right, depth + 1, leaves, voting, splits) {
                return false;
            }
            splits.push(TreeSplit {
                threshold,
                feature,
                left: first..mid,
            });
            true
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, ForestConfig};

    fn candidates(scorer: &BankScorer, row: &[f64]) -> Vec<usize> {
        let (mut words, mut out) = (Vec::new(), Vec::new());
        scorer.candidates_into(row, &mut words, &mut out);
        out
    }

    /// Holds the lane kernel, forced at every width from 1 to 64 rows
    /// (below the cutoff too), to the per-row kernel on `rows`.
    fn lanes_match_rows(scorer: &BankScorer, rows: &[&[f64]]) {
        let mut words = Vec::new();
        for width in 1..=WORD_BITS as usize {
            for (run, chunk) in rows.chunks(width).enumerate() {
                let mut lanes = vec![Vec::new(); chunk.len()];
                scorer.lanes_into(|lane| chunk[lane], &mut words, &mut lanes);
                for (lane, row) in chunk.iter().enumerate() {
                    assert_eq!(
                        lanes[lane],
                        candidates(scorer, row),
                        "width {width}, run {run}, lane {lane}"
                    );
                }
            }
        }
    }

    /// `side × side` cells, class = parity of the cell: every cell needs
    /// a leaf of its own.
    fn checkerboard(side: usize) -> Dataset {
        let mut data = Dataset::new(2);
        for i in 0..side * side {
            let (x, y) = (i % side, i / side);
            data.push(&[x as f64, y as f64], (x + y) % 2);
        }
        data
    }

    #[test]
    fn small_trees_share_words_and_agree_with_the_forests() {
        let mut data = Dataset::new(6);
        let mut row = [0.0; 6];
        for i in 0..120usize {
            for (f, cell) in row.iter_mut().enumerate() {
                *cell = ((i * 31 + f * 17) % 13) as f64;
            }
            data.push(&row, usize::from(i % 3 == 0));
        }
        let forests: Vec<RandomForest> = (0..4)
            .map(|seed| {
                RandomForest::fit(
                    &data,
                    &ForestConfig::default().with_trees(25).with_seed(seed),
                )
            })
            .collect();
        let scorer = BankScorer::new(&forests);
        let trees: usize = forests.iter().map(RandomForest::n_trees).sum();
        assert!(scorer
            .forests
            .iter()
            .all(|f| matches!(f, Forest::Scored { .. })));
        assert!(scorer.ones.len() < trees, "no tree here needs a word alone");
        assert_eq!(
            scorer
                .firsts
                .iter()
                .map(|w| w.count_ones() as usize)
                .sum::<usize>(),
            trees
        );
        for i in 0..data.len() {
            let expected: Vec<usize> = (0..4)
                .filter(|&l| forests[l].accepts(data.row(i)))
                .collect();
            assert_eq!(candidates(&scorer, data.row(i)), expected, "row {i}");
        }
        let rows: Vec<&[f64]> = (0..data.len()).map(|i| data.row(i)).collect();
        lanes_match_rows(&scorer, &rows);
    }

    #[test]
    fn a_root_that_is_a_leaf_votes_from_its_one_bit() {
        // Depth 0: no tree splits, so nothing is scanned and every tree
        // votes the majority class of its bootstrap sample.
        let data = checkerboard(5);
        let config = ForestConfig {
            max_depth: 0,
            ..ForestConfig::default().with_trees(7)
        };
        let forests: Vec<RandomForest> = (0..6)
            .map(|seed| RandomForest::fit(&data, &config.clone().with_seed(seed)))
            .collect();
        let scorer = BankScorer::new(&forests);
        assert!(scorer.splits.is_empty() && scorer.features.is_empty());
        let expected: Vec<usize> = (0..6)
            .filter(|&l| forests[l].accepts(&[0.0, 0.0]))
            .collect();
        assert_eq!(candidates(&scorer, &[0.0, 0.0]), expected);
        assert_eq!(candidates(&scorer, &[f64::NAN, 9.0]), expected);
        lanes_match_rows(&scorer, &[&[0.0, 0.0], &[f64::NAN, 9.0]]);
    }

    #[test]
    fn a_forest_with_a_tree_too_wide_for_a_word_is_walked() {
        let wide_data = checkerboard(20);
        let wide = RandomForest::fit(
            &wide_data,
            &ForestConfig {
                feature_subsample: crate::FeatureSubsample::All,
                ..ForestConfig::default().with_trees(3).with_seed(1)
            },
        );
        let leaves = |forest: &RandomForest| {
            let count = |tree: &DecisionTree| tree.node_count().div_ceil(2);
            forest.trees().iter().map(count).max().unwrap()
        };
        assert!(
            leaves(&wide) > WORD_BITS as usize,
            "{} leaves",
            leaves(&wide)
        );
        let small = RandomForest::fit(&checkerboard(4), &ForestConfig::default().with_trees(3));
        assert!(leaves(&small) <= WORD_BITS as usize);
        // Decided per forest, at build time: the wide one is walked and
        // leaves nothing behind; its neighbours are scored.
        let scorer = BankScorer::new(&[small.clone(), wide.clone(), small.clone()]);
        assert!(matches!(scorer.forests[0], Forest::Scored { .. }));
        assert!(matches!(scorer.forests[1], Forest::Walked(_)));
        assert!(matches!(scorer.forests[2], Forest::Scored { .. }));
        let only_small = BankScorer::new(&[small.clone(), small.clone()]);
        assert_eq!(scorer.splits.len(), only_small.splits.len());
        assert_eq!(scorer.ones, only_small.ones);
        for i in 0..wide_data.len() {
            let row = wide_data.row(i);
            let expected: Vec<usize> = [&small, &wide, &small]
                .iter()
                .enumerate()
                .filter(|(_, forest)| forest.accepts(row))
                .map(|(label, _)| label)
                .collect();
            assert_eq!(candidates(&scorer, row), expected, "row {i}");
        }
        let rows: Vec<&[f64]> = (0..wide_data.len()).map(|i| wide_data.row(i)).collect();
        lanes_match_rows(&scorer, &rows);
    }
    /// A stump of two splits on feature 0, `a` at the root and `b` on
    /// its right, over leaves voting `classes`, left to right.
    fn two_split_tree(a: f64, b: f64, classes: [u32; 3]) -> DecisionTree {
        let leaf = u32::MAX;
        let parts = crate::TreeParts {
            features: vec![0, leaf, 0, leaf, leaf],
            thresholds: vec![a, 0.0, b, 0.0, 0.0],
            lefts: vec![1, 0, 3, 1, 2],
            rights: vec![2, classes[0], 4, classes[1], classes[2]],
            n_samples: vec![1; 5],
            impurity_decreases: vec![0.0; 5],
            leaf_counts: classes
                .iter()
                .flat_map(|&class| [1 - class as usize, class as usize])
                .collect(),
            n_classes: 2,
        };
        DecisionTree::from_parts(parts, 1).expect("a valid tree")
    }

    #[test]
    fn signed_zero_thresholds_fire_like_the_per_row_scan() {
        // −0.0 and 0.0 compare equal but are two threshold groups of one
        // feature, ordered −0.0 first, above a third at −1.0 so that a
        // zero cell passes the feature's first threshold and is tested
        // against both: the lane pass, which marks every group by its
        // own test, must agree with the per-row scan, which stops at the
        // first true one.
        let (low, neg, pos) = (-1.0, -0.0, 0.0);
        let forest = |trees: &[(f64, f64, [u32; 3])]| {
            let trees = trees
                .iter()
                .map(|&(a, b, classes)| two_split_tree(a, b, classes));
            RandomForest::from_parts(trees.collect(), None).expect("binary trees")
        };
        let forests = [
            forest(&[
                (neg, pos, [1, 0, 1]),
                (pos, neg, [0, 1, 1]),
                (neg, pos, [0, 0, 1]),
            ]),
            forest(&[
                (pos, neg, [1, 1, 0]),
                (neg, pos, [1, 0, 0]),
                (low, pos, [0, 1, 0]),
            ]),
            forest(&[
                (low, neg, [0, 1, 0]),
                (pos, pos, [1, 0, 1]),
                (neg, pos, [1, 1, 0]),
            ]),
        ];
        let scorer = BankScorer::new(&forests);
        let groups: Vec<u64> = scorer.thresholds.iter().map(|t| t.to_bits()).collect();
        assert_eq!(groups, [low.to_bits(), neg.to_bits(), pos.to_bits()]);
        let cells = [
            low,
            neg,
            pos,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        let rows: Vec<[f64; 1]> = cells.iter().map(|&cell| [cell]).collect();
        for row in &rows {
            let expected: Vec<usize> = (0..forests.len())
                .filter(|&label| forests[label].accepts(row))
                .collect();
            assert_eq!(candidates(&scorer, row), expected, "{row:?}");
        }
        let rows: Vec<&[f64]> = rows.iter().map(|row| &row[..]).collect();
        lanes_match_rows(&scorer, &rows);
    }
}
