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
//! The verdict is [`RandomForest::accepts`]' — class 1 needs a strict
//! majority of the trees; that function's early exit only changes when
//! the verdict is known, never what it is — and the routing is
//! [`DecisionTree::predict`](crate::DecisionTree::predict)'s, NaN
//! included: `NaN <= t` and `v <= NaN` are both false, so a NaN cell
//! fails every test on its feature and a NaN threshold fails for every
//! row (such a split is folded into its word's starting value at build
//! time and never scanned).
//!
//! A forest that is not binary, or holds a tree of more than 64 leaves,
//! is answered by [`RandomForest::accepts`] itself; that is decided per
//! forest when the scorer is built, never per row.

use std::ops::Range;

use crate::forest::RandomForest;
use crate::tree::{DecisionTree, Node};

/// Leaves one word can number.
const WORD_BITS: u32 = u64::BITS;

/// One scan entry: the splits of one word's trees that test one
/// feature against one threshold.
#[derive(Debug, Clone, Copy)]
struct Split {
    threshold: f64,
    /// Clears the leaves of the splits' left subtrees.
    mask: u64,
    feature: u32,
    word: u32,
}

/// How one forest of the bank reaches its verdict.
#[derive(Debug, Clone)]
enum Forest {
    /// Its trees own `words` of the word array; class 1 wins with
    /// `needed` votes.
    Scored { words: Range<usize>, needed: u32 },
    /// Too wide (or not binary) for leaf words: walked tree by tree.
    Walked(RandomForest),
}

/// One scorer over all forests of a one-vs-rest bank: a pure
/// acceleration structure, rebuilt from the forests (which stay the
/// serialized source of truth) whenever they change.
#[derive(Debug, Clone, Default)]
pub struct BankScorer {
    /// Scan entries, grouped by feature (ascending) and sorted by
    /// threshold (ascending) within a feature.
    splits: Vec<Split>,
    /// `(feature, end of its run in splits)` per used feature.
    features: Vec<(u32, u32)>,
    /// Per word, the value a row starts from: all ones, less the masks
    /// of splits that are false for every row.
    start: Vec<u64>,
    /// Per word, the lowest bit of each tree's run.
    firsts: Vec<u64>,
    /// Per word, the leaves that vote class 1.
    ones: Vec<u64>,
    forests: Vec<Forest>,
}

impl BankScorer {
    /// Builds the scorer over `forests`, indexed by label.
    pub fn new(forests: &[RandomForest]) -> Self {
        let mut scorer = BankScorer::default();
        for forest in forests {
            let (first_split, first_word) = (scorer.splits.len(), scorer.ones.len());
            // Bits taken in the forest's last word; a full one makes
            // its first tree open a word of the forest's own.
            let mut used = WORD_BITS;
            let scorable = forest.n_classes() == 2
                && forest
                    .trees()
                    .iter()
                    .all(|tree| scorer.place_tree(tree, &mut used));
            scorer.forests.push(if scorable {
                Forest::Scored {
                    words: first_word..scorer.ones.len(),
                    needed: forest.n_trees() as u32 / 2 + 1,
                }
            } else {
                scorer.splits.truncate(first_split);
                scorer.ones.truncate(first_word);
                scorer.firsts.truncate(first_word);
                Forest::Walked(forest.clone())
            });
        }
        let BankScorer {
            splits,
            features,
            start,
            ones,
            ..
        } = &mut scorer;
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
        for (at, split) in splits.iter().enumerate() {
            match features.last_mut() {
                Some((feature, end)) if *feature == split.feature => *end = at as u32 + 1,
                _ => features.push((split.feature, at as u32 + 1)),
            }
        }
        scorer
    }

    /// Numbers `tree`'s leaves into the next free bits of the last word
    /// (`used` of which are taken), or of a new word if they do not
    /// fit, and appends its splits. Returns `false`, possibly after
    /// appending some splits, if the tree has more than [`WORD_BITS`]
    /// leaves.
    fn place_tree(&mut self, tree: &DecisionTree, used: &mut u32) -> bool {
        let first_split = self.splits.len();
        let (mut leaves, mut voting) = (0u32, 0u64);
        if !number_subtree(tree, 0, 0, &mut leaves, &mut voting, &mut self.splits) {
            return false;
        }
        if *used + leaves > WORD_BITS {
            self.ones.push(0);
            self.firsts.push(0);
            *used = 0;
        }
        let word = self.ones.len() - 1;
        self.ones[word] |= voting << *used;
        self.firsts[word] |= 1 << *used;
        for split in &mut self.splits[first_split..] {
            split.mask = !(split.mask << *used);
            split.word = word as u32;
        }
        *used += leaves;
        true
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
        words.clear();
        words.extend_from_slice(&self.start);
        let mut from = 0usize;
        for &(feature, end) in &self.features {
            let value = row[feature as usize];
            for split in &self.splits[from..end as usize] {
                if value <= split.threshold {
                    break;
                }
                words[split.word as usize] &= split.mask;
            }
            from = end as usize;
        }
        for (label, forest) in self.forests.iter().enumerate() {
            let accepted = match forest {
                Forest::Scored { words: own, needed } => {
                    let votes: u32 = own
                        .clone()
                        .map(|w| {
                            // Adding each run's lowest bit to the
                            // complement carries up to the run's lowest
                            // set bit and stops there: every run keeps
                            // its exit leaf, and only that.
                            let exits = words[w] & (!words[w]).wrapping_add(self.firsts[w]);
                            (exits & self.ones[w]).count_ones()
                        })
                        .sum();
                    votes >= *needed
                }
                Forest::Walked(forest) => forest.accepts(row),
            };
            if accepted {
                out.push(label);
            }
        }
    }
}

/// The subtree at node `at`: leaves take the next free bits in order,
/// and each split is appended with the bits of its left subtree's
/// leaves as its (not yet inverted) mask. Nodes are read the way
/// `predict` walks them, so parts whose children are shared (a snapshot
/// can carry them) number as the tree they route like; depth and leaf
/// count are both cut off at [`WORD_BITS`], which bounds the work on
/// any input.
fn number_subtree(
    tree: &DecisionTree,
    at: u32,
    depth: u32,
    leaves: &mut u32,
    voting: &mut u64,
    splits: &mut Vec<Split>,
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
            // The right subtree took a bit, so `mid < 64`.
            splits.push(Split {
                threshold,
                mask: (1u64 << mid) - (1u64 << first),
                feature,
                word: 0,
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
    }
}
