//! A cache-packed, read-only view of a fitted [`RandomForest`] for hot
//! prediction loops.
//!
//! [`DecisionTree`](crate::DecisionTree) stores nodes in parallel arrays,
//! which is ideal for fitting and serialization but means one traversal
//! step touches four separate allocations — and a 100-tree forest
//! scatters its nodes over hundreds of small `Vec`s. [`PackedForest`]
//! copies every node of every tree into **one** contiguous arena, and
//! walks several trees in lockstep so the independent node loads overlap
//! instead of serializing on memory latency.
//!
//! Nodes are 24 bytes (split feature, `f64` threshold, both children).
//! When every threshold in the forest round-trips through `f32` exactly
//! — always true for integer-valued features, whose midpoint splits are
//! `k` or `k + 0.5` — the arena narrows to 16-byte nodes, four per cache
//! line, with bit-identical comparisons. Votes, tie-breaks and early
//! exits replicate [`RandomForest::predict`] / [`RandomForest::accepts`]
//! exactly, so a packed forest is a pure acceleration structure: build
//! it once after training (or deserialization) and prediction results
//! are identical.

use crate::forest::RandomForest;
use crate::kernel::BatchMatrix;
use crate::tree::{argmax, LEAF};

/// One wide arena node: a split (`feature != u32::MAX`) routes on
/// `row[feature] <= threshold`; a leaf stores its precomputed majority
/// class in `kids[1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PackedNode {
    threshold: f64,
    feature: u32,
    /// `[left, right]` arena indices at splits; `[0, class]` at leaves.
    kids: [u32; 2],
}

impl PackedNode {
    pub(crate) fn split(feature: u32, threshold: f64, left: u32, right: u32) -> Self {
        PackedNode {
            threshold,
            feature,
            kids: [left, right],
        }
    }

    pub(crate) fn leaf(class: u32) -> Self {
        PackedNode {
            threshold: 0.0,
            feature: LEAF,
            kids: [0, class],
        }
    }
}

/// Leaf marker in a [`NarrowNode`]'s `feature` field.
const LEAF16: u16 = u16::MAX;

/// The 16-byte node: only used when every threshold is exactly
/// representable in `f32`, so the comparison is bit-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
struct NarrowNode {
    threshold: f32,
    feature: u16,
    _pad: u16,
    kids: [u32; 2],
}

/// A node the tree-lockstep walk can traverse.
trait ArenaNode: Copy {
    /// The next arena index for `row`, or `None` at a leaf.
    fn advance(&self, row: &[f64]) -> Option<u32>;
    /// The majority class (meaningful at leaves).
    fn class(&self) -> u32;
}

impl ArenaNode for PackedNode {
    #[inline]
    fn advance(&self, row: &[f64]) -> Option<u32> {
        if self.feature == LEAF {
            return None;
        }
        Some(self.kids[usize::from(row[self.feature as usize] > self.threshold)])
    }

    #[inline]
    fn class(&self) -> u32 {
        self.kids[1]
    }
}

impl ArenaNode for NarrowNode {
    #[inline]
    fn advance(&self, row: &[f64]) -> Option<u32> {
        if self.feature == LEAF16 {
            return None;
        }
        Some(self.kids[usize::from(row[self.feature as usize] > f64::from(self.threshold))])
    }

    #[inline]
    fn class(&self) -> u32 {
        self.kids[1]
    }
}

/// How many trees walk in lockstep: enough independent loads to cover
/// memory latency, few enough that the cursors stay in registers. An
/// odd width also tightens the early-majority exit in [`Arena::accepts`]
/// — with 100 trees (strict majority 51), batches of 5 let a unanimous
/// rejection stop after 50 walks, the information-theoretic minimum.
const LANES: usize = 5;

/// Walks `batch` trees rooted at `roots[first..]` to their leaves and
/// records each tree's class in `classes`.
#[inline]
fn walk_batch<N: ArenaNode>(
    nodes: &[N],
    roots: &[u32],
    first: usize,
    batch: usize,
    row: &[f64],
    classes: &mut [u32; LANES],
) {
    let mut cursors = [0usize; LANES];
    for (lane, cursor) in cursors.iter_mut().enumerate().take(batch) {
        *cursor = roots[first + lane] as usize;
    }
    loop {
        let mut moved = false;
        for cursor in cursors.iter_mut().take(batch) {
            if let Some(next) = nodes[*cursor].advance(row) {
                *cursor = next as usize;
                moved = true;
            }
        }
        if !moved {
            break;
        }
    }
    for (lane, &cursor) in cursors.iter().enumerate().take(batch) {
        classes[lane] = nodes[cursor].class();
    }
}

fn predict_in<N: ArenaNode>(nodes: &[N], roots: &[u32], n_classes: usize, row: &[f64]) -> usize {
    let mut votes = vec![0usize; n_classes];
    let mut classes = [0u32; LANES];
    let n = roots.len();
    let mut done = 0;
    while done < n {
        let batch = LANES.min(n - done);
        walk_batch(nodes, roots, done, batch, row, &mut classes);
        for &class in classes.iter().take(batch) {
            votes[class as usize] += 1;
        }
        done += batch;
    }
    argmax(&votes)
}

fn accepts_in<N: ArenaNode>(nodes: &[N], roots: &[u32], row: &[f64]) -> bool {
    let n = roots.len();
    // Ties go to class 0, so class 1 needs a strict majority.
    let needed = n / 2 + 1;
    let mut ones = 0usize;
    let mut done = 0usize;
    let mut classes = [0u32; LANES];
    while done < n {
        let batch = LANES.min(n - done);
        walk_batch(nodes, roots, done, batch, row, &mut classes);
        for &class in classes.iter().take(batch) {
            ones += usize::from(class == 1);
        }
        done += batch;
        if ones >= needed {
            return true;
        }
        if ones + (n - done) < needed {
            return false;
        }
    }
    ones >= needed
}

/// The node storage: wide is always valid; narrow only when exact.
#[derive(Debug, Clone, PartialEq)]
enum Arena {
    Wide(Vec<PackedNode>),
    Narrow(Vec<NarrowNode>),
}

/// A contiguous prediction arena over all trees of one forest.
#[derive(Debug, Clone, PartialEq)]
pub struct PackedForest {
    arena: Arena,
    roots: Vec<u32>,
    n_classes: usize,
}

impl PackedForest {
    /// Packs a fitted forest. The forest itself is unchanged and stays
    /// the source of truth for serialization and probabilities.
    pub fn from_forest(forest: &RandomForest) -> Self {
        let trees = forest.trees();
        let mut nodes = Vec::with_capacity(trees.iter().map(|tree| tree.node_count().max(1)).sum());
        let roots = trees
            .iter()
            .map(|tree| tree.pack_into(&mut nodes))
            .collect();
        let arena = match narrow(&nodes) {
            Some(narrowed) => Arena::Narrow(narrowed),
            None => Arena::Wide(nodes),
        };
        PackedForest {
            arena,
            roots,
            n_classes: forest.n_classes(),
        }
    }

    /// Number of trees in the arena.
    pub fn n_trees(&self) -> usize {
        self.roots.len()
    }

    /// Majority-vote class — identical to [`RandomForest::predict`]
    /// (argmax with ties to the lowest class).
    pub fn predict(&self, row: &[f64]) -> usize {
        match &self.arena {
            Arena::Wide(nodes) => predict_in(nodes, &self.roots, self.n_classes, row),
            Arena::Narrow(nodes) => predict_in(nodes, &self.roots, self.n_classes, row),
        }
    }

    /// Binary acceptance — identical to [`RandomForest::accepts`], with
    /// the same early exit once the vote is mathematically decided.
    pub fn accepts(&self, row: &[f64]) -> bool {
        if self.n_classes != 2 {
            return self.predict(row) == 1;
        }
        match &self.arena {
            Arena::Wide(nodes) => accepts_in(nodes, &self.roots, row),
            Arena::Narrow(nodes) => accepts_in(nodes, &self.roots, row),
        }
    }

    /// Binary acceptance over a [`BatchMatrix`] batch, **appended** to
    /// `out` — one verdict per matrix row, bit-identical to
    /// [`PackedForest::accepts`] on that row. Appends without clearing,
    /// like every batch entry point; the caller owns (and clears) `out`.
    ///
    /// Each contiguous matrix row runs through the tree-lockstep walk
    /// (five trees in flight per row, the probe row L1-resident). The
    /// point of the batch entry is the memory-access pattern: one
    /// forest's arena is walked by every row back-to-back, so a caller
    /// that loops *forests outermost, rows innermost* keeps the arena
    /// cache-resident across the batch instead of cycling every forest
    /// per row.
    pub fn accepts_rows(&self, matrix: &BatchMatrix, out: &mut Vec<bool>) {
        if self.n_classes != 2 {
            out.extend((0..matrix.rows()).map(|r| self.predict(matrix.row(r)) == 1));
            return;
        }
        // One arena dispatch per batch, not per row.
        match &self.arena {
            Arena::Wide(nodes) => {
                out.extend(
                    (0..matrix.rows()).map(|r| accepts_in(nodes, &self.roots, matrix.row(r))),
                );
            }
            Arena::Narrow(nodes) => {
                out.extend(
                    (0..matrix.rows()).map(|r| accepts_in(nodes, &self.roots, matrix.row(r))),
                );
            }
        }
    }

    /// Majority-vote class over a [`BatchMatrix`] batch, **appended**
    /// to `out` — one class per matrix row, bit-identical to
    /// [`PackedForest::predict`] on that row (argmax with ties to the
    /// lowest class). Appends without clearing; the caller owns `out`.
    /// Routes through the tree-lockstep walk per contiguous row, like
    /// [`PackedForest::accepts_rows`].
    pub fn predict_rows(&self, matrix: &BatchMatrix, out: &mut Vec<usize>) {
        out.extend((0..matrix.rows()).map(|r| self.predict(matrix.row(r))));
    }

    /// Whether the arena uses the narrow 16-byte encoding.
    #[doc(hidden)]
    pub fn is_narrow(&self) -> bool {
        matches!(self.arena, Arena::Narrow(_))
    }

    /// Rebuilds this forest over the wide 24-byte arena even when the
    /// narrow encoding applies — a differential-test hook: the narrow
    /// thresholds round-trip `f32` exactly, so the widened forest must
    /// agree bit-for-bit on every path.
    #[doc(hidden)]
    pub fn widened(&self) -> PackedForest {
        let arena = match &self.arena {
            Arena::Wide(nodes) => Arena::Wide(nodes.clone()),
            Arena::Narrow(nodes) => Arena::Wide(nodes.iter().map(widen).collect()),
        };
        PackedForest {
            arena,
            roots: self.roots.clone(),
            n_classes: self.n_classes,
        }
    }
}

/// Exact inverse of the narrow conversion for one node.
fn widen(node: &NarrowNode) -> PackedNode {
    if node.feature == LEAF16 {
        PackedNode::leaf(node.kids[1])
    } else {
        PackedNode::split(
            u32::from(node.feature),
            f64::from(node.threshold),
            node.kids[0],
            node.kids[1],
        )
    }
}

/// Converts to 16-byte nodes iff every threshold survives the `f32`
/// round-trip exactly (then `row > f64::from(t32)` is bit-identical to
/// `row > t64`) and every feature index fits `u16`.
fn narrow(nodes: &[PackedNode]) -> Option<Vec<NarrowNode>> {
    nodes
        .iter()
        .map(|node| {
            if node.feature == LEAF {
                return Some(NarrowNode {
                    threshold: 0.0,
                    feature: LEAF16,
                    _pad: 0,
                    kids: node.kids,
                });
            }
            let threshold = node.threshold as f32;
            if f64::from(threshold) != node.threshold || node.feature >= u32::from(LEAF16) {
                return None;
            }
            Some(NarrowNode {
                threshold,
                feature: node.feature as u16,
                _pad: 0,
                kids: node.kids,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, ForestConfig};

    fn dataset(rows: usize, features: usize, classes: usize) -> Dataset {
        let mut data = Dataset::new(features);
        let mut row = vec![0.0; features];
        for i in 0..rows {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = ((i * 31 + j * 17) % 97) as f64;
            }
            data.push(&row, i % classes);
        }
        data
    }

    #[test]
    fn packed_predict_matches_forest_predict() {
        let data = dataset(150, 12, 2);
        let forest = RandomForest::fit(&data, &ForestConfig::default().with_trees(33).with_seed(5));
        let packed = PackedForest::from_forest(&forest);
        assert_eq!(packed.n_trees(), 33);
        // Integer features → exactly representable midpoints → narrow.
        assert!(matches!(packed.arena, Arena::Narrow(_)));
        for i in 0..data.len() {
            let row = data.row(i);
            assert_eq!(packed.predict(row), forest.predict(row), "row {i}");
            assert_eq!(packed.accepts(row), forest.accepts(row), "row {i}");
        }
    }

    #[test]
    fn packed_agrees_on_ambiguous_rows() {
        // Rows off the training manifold, where votes are split and the
        // early exits fire late.
        let data = dataset(100, 6, 2);
        let forest = RandomForest::fit(&data, &ForestConfig::default().with_trees(31).with_seed(9));
        let packed = PackedForest::from_forest(&forest);
        for k in 0..50 {
            let row: Vec<f64> = (0..6)
                .map(|j| ((k * 13 + j * 7) % 101) as f64 / 2.0)
                .collect();
            assert_eq!(packed.predict(&row), forest.predict(&row), "probe {k}");
            assert_eq!(packed.accepts(&row), forest.accepts(&row), "probe {k}");
        }
    }

    #[test]
    fn packed_handles_multiclass() {
        let data = dataset(120, 8, 3);
        let forest = RandomForest::fit(&data, &ForestConfig::default().with_trees(21).with_seed(3));
        let packed = PackedForest::from_forest(&forest);
        for i in 0..data.len() {
            let row = data.row(i);
            assert_eq!(packed.predict(row), forest.predict(row), "row {i}");
        }
    }

    #[test]
    fn inexact_thresholds_stay_wide_and_agree() {
        // Feature values like 1/3 make split midpoints that do NOT
        // round-trip f32 — the arena must fall back to 24-byte nodes.
        let mut data = Dataset::new(3);
        for i in 0..90 {
            let row = [
                i as f64 / 3.0 + 0.123_456_789_012_345,
                (i % 7) as f64 / 7.0,
                (i % 11) as f64 / 11.0,
            ];
            data.push(&row, usize::from(i % 3 == 0));
        }
        let forest = RandomForest::fit(&data, &ForestConfig::default().with_trees(15).with_seed(2));
        let packed = PackedForest::from_forest(&forest);
        assert!(matches!(packed.arena, Arena::Wide(_)));
        for i in 0..data.len() {
            let row = data.row(i);
            assert_eq!(packed.predict(row), forest.predict(row), "row {i}");
            assert_eq!(packed.accepts(row), forest.accepts(row), "row {i}");
        }
    }

    #[test]
    fn batch_entry_matches_scalar_on_both_arenas() {
        // Integer features → narrow arena; widened() forces the wide
        // arena over the same trees. Both, at several batch sizes, must
        // equal the scalar verdicts row for row.
        let data = dataset(140, 9, 2);
        let forest = RandomForest::fit(&data, &ForestConfig::default().with_trees(25).with_seed(7));
        let packed = PackedForest::from_forest(&forest);
        assert!(packed.is_narrow());
        let wide = packed.widened();
        assert!(!wide.is_narrow());
        let rows: Vec<&[f64]> = (0..data.len()).map(|i| data.row(i)).collect();
        for take in [1usize, 2, 5, 8, 9, 31, 64, 140] {
            let matrix = BatchMatrix::from_rows(rows.iter().take(take).copied());
            let scalar: Vec<bool> = rows
                .iter()
                .take(take)
                .map(|row| packed.accepts(row))
                .collect();
            let mut narrow_out = Vec::new();
            packed.accepts_rows(&matrix, &mut narrow_out);
            assert_eq!(narrow_out, scalar, "narrow kernel, batch {take}");
            let mut wide_out = Vec::new();
            wide.accepts_rows(&matrix, &mut wide_out);
            assert_eq!(wide_out, scalar, "wide kernel, batch {take}");
        }
    }

    #[test]
    fn batch_predict_matches_scalar_multiclass() {
        let data = dataset(120, 8, 3);
        let forest = RandomForest::fit(&data, &ForestConfig::default().with_trees(21).with_seed(3));
        let packed = PackedForest::from_forest(&forest);
        let rows: Vec<&[f64]> = (0..data.len()).map(|i| data.row(i)).collect();
        let matrix = BatchMatrix::from_rows(rows.iter().copied());
        let mut classes = Vec::new();
        packed.predict_rows(&matrix, &mut classes);
        let scalar: Vec<usize> = rows.iter().map(|row| packed.predict(row)).collect();
        assert_eq!(classes, scalar);
        // The multiclass accepts fallback is predict == 1.
        let mut verdicts = Vec::new();
        packed.accepts_rows(&matrix, &mut verdicts);
        let expected: Vec<bool> = scalar.iter().map(|&class| class == 1).collect();
        assert_eq!(verdicts, expected);
    }

    #[test]
    fn batch_entries_append_without_clearing() {
        let data = dataset(40, 6, 2);
        let forest = RandomForest::fit(&data, &ForestConfig::default().with_trees(9).with_seed(4));
        let packed = PackedForest::from_forest(&forest);
        let rows: Vec<&[f64]> = (0..8).map(|i| data.row(i)).collect();
        let matrix = BatchMatrix::from_rows(rows.iter().copied());
        let mut out = vec![true];
        packed.accepts_rows(&matrix, &mut out);
        assert_eq!(out.len(), 9, "accepts_rows must append, not clear");
        packed.accepts_rows(&matrix, &mut out);
        assert_eq!(out.len(), 17, "accepts_rows must append, not clear");
        assert_eq!(out[1..9], out[9..17], "appended verdicts agree");
        let mut classes = vec![7];
        packed.predict_rows(&matrix, &mut classes);
        assert_eq!(classes.len(), 9, "predict_rows must append, not clear");
    }

    #[test]
    fn lane_count_never_splits_a_decision() {
        // Tree counts around the lane width exercise every batch size.
        let data = dataset(80, 6, 2);
        for n_trees in [1usize, 5, 6, 7, 11, 12, 13, 17] {
            let forest = RandomForest::fit(
                &data,
                &ForestConfig::default().with_trees(n_trees).with_seed(11),
            );
            let packed = PackedForest::from_forest(&forest);
            for i in 0..data.len() {
                let row = data.row(i);
                assert_eq!(
                    packed.accepts(row),
                    forest.accepts(row),
                    "{n_trees} trees, row {i}"
                );
            }
        }
    }
}
