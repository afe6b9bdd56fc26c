//! CART decision trees with Gini impurity.
//!
//! Training has one implementation: [`DecisionTree::fit_view_in`] grows
//! a tree over an index view of a corpus — labels looked up by corpus
//! row, bin codes by corpus column ([`crate::binning`]) — out of a
//! caller-owned [`FitArena`]. Every node walks its candidate features
//! once and hands each splittable one to one of two histogram sweeps
//! (per-class counts, or two classes packed into one `u32` per bin).
//! The per-node sorted scan those sweeps must reproduce bit for bit is
//! the test oracle in `tree/sorted_scan.rs`, compiled under
//! `#[cfg(test)]` only.

use serde::{Deserialize, Serialize};

use crate::binning::{BinnedDataset, HistScratch};
use crate::pinned::PinnedRng;
use crate::Dataset;

/// Training parameters for a [`DecisionTree`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TreeConfig {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum samples required to attempt a split.
    pub min_samples_split: usize,
    /// Minimum samples in each child of an accepted split.
    pub min_samples_leaf: usize,
    /// Number of random candidate features per split (`None` = all).
    pub n_candidate_features: Option<usize>,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 24,
            min_samples_split: 2,
            min_samples_leaf: 1,
            n_candidate_features: None,
        }
    }
}

/// Marks a leaf in the per-node `features` array.
const LEAF: u32 = u32::MAX;

/// One node of a [`DecisionTree`], decoded from the parallel arrays.
pub(crate) enum Node {
    /// Routes `row[feature] <= threshold` to `left`, everything else
    /// (NaN included) to `right`.
    Split {
        feature: u32,
        threshold: f64,
        left: u32,
        right: u32,
    },
    /// Votes `class`.
    Leaf { class: u32 },
}

/// A trained CART decision tree.
///
/// Samples with `feature <= threshold` go left. Leaves store training
/// class counts so the tree can emit probabilities.
///
/// Nodes live in parallel arrays (structure-of-arrays) rather than an
/// enum arena: the predict loop only touches `features`, `thresholds`
/// and the child ids, so a traversal step reads three small contiguous
/// arrays instead of one ~56-byte enum, and each leaf carries its
/// precomputed majority class — the per-visit `argmax` of the old
/// layout disappears. Forest prediction is the hot path of the
/// 27-classifier identification stage, which is why the layout is
/// tuned this aggressively.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTree {
    /// Per-node split feature; [`LEAF`] (`u32::MAX`) marks a leaf.
    features: Vec<u32>,
    /// Per-node split threshold (`0.0` at leaves).
    thresholds: Vec<f64>,
    /// Left child id at splits; at leaves, the index into `leaf_counts`.
    lefts: Vec<u32>,
    /// Right child id at splits; at leaves, the precomputed majority
    /// class (first class on ties, matching [`argmax`]).
    rights: Vec<u32>,
    /// Samples that reached each node (importance weighting).
    n_samples: Vec<usize>,
    /// Gini impurity decrease per node (`0.0` at leaves).
    impurity_decreases: Vec<f64>,
    /// Training class counts of every leaf, flattened with stride
    /// `n_classes` (leaf `l` owns
    /// `leaf_counts[l * n_classes..][..n_classes]`) — one arena instead
    /// of one heap box per leaf.
    leaf_counts: Vec<usize>,
    n_classes: usize,
}

/// The raw structure-of-arrays content of a [`DecisionTree`], exposed
/// for binary model persistence. Field meanings mirror the tree's
/// private arrays one to one (see the [`DecisionTree`] docs);
/// [`DecisionTree::from_parts`] validates every structural invariant
/// before accepting them back, so arbitrary (e.g. corrupted-on-disk)
/// parts can never produce a tree whose traversal panics or loops.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TreeParts {
    /// Per-node split feature; `u32::MAX` marks a leaf.
    pub features: Vec<u32>,
    /// Per-node split threshold (`0.0` at leaves).
    pub thresholds: Vec<f64>,
    /// Left child id at splits; at leaves, the `leaf_counts` block index.
    pub lefts: Vec<u32>,
    /// Right child id at splits; at leaves, the majority class.
    pub rights: Vec<u32>,
    /// Samples that reached each node.
    pub n_samples: Vec<usize>,
    /// Gini impurity decrease per node (`0.0` at leaves).
    pub impurity_decreases: Vec<f64>,
    /// Per-leaf training class counts, flattened with stride `n_classes`.
    pub leaf_counts: Vec<usize>,
    /// The number of classes the tree distinguishes.
    pub n_classes: usize,
}

/// Reusable scratch for tree fitting.
///
/// Every buffer the build recursion needs per node — the partitioned
/// row-index working set, the candidate-feature list, the class-count
/// vectors of the node and of the split sweep, and the histogram
/// sweep's bin counts — is borrowed from here instead of freshly
/// allocated, so a warm arena makes `DecisionTree::build` perform
/// **zero heap allocations per node** (pinned by
/// `tests/alloc_arena.rs`). The arena also remembers the largest tree
/// it has produced and pre-reserves the next tree's node arrays
/// accordingly: steady-state, a whole tree fit costs one exact-sized
/// allocation per output array and nothing else.
///
/// Forest fitting hands each worker thread its own arena
/// (`parallel::map_indexed_init`), reused across all trees that worker
/// claims. The arena is pure scratch — it never influences the fitted
/// tree, so determinism across thread counts is unaffected.
#[derive(Debug, Default)]
pub struct FitArena {
    /// The in-place row-index buffer the recursion partitions.
    work: Vec<usize>,
    /// Bootstrap-sample staging for forest fits (view positions mapped
    /// to corpus rows).
    pub(crate) sample: Vec<usize>,
    /// Per-tree in-bag flags for out-of-bag accounting.
    pub(crate) in_bag: Vec<bool>,
    /// Candidate-feature list, refilled per node and partially
    /// Fisher–Yates-stepped in place as slots are inspected.
    candidates: Vec<usize>,
    /// Class counts of the node under construction (the split search
    /// reads them as the parent counts; it must not write them).
    node_counts: Vec<usize>,
    /// The node's labels, gathered once per node (position-aligned with
    /// its index slice) so the per-candidate histogram fills read one
    /// sequential stream instead of re-gathering `labels[i]` per row
    /// per feature.
    node_labels: Vec<u32>,
    /// Left/right class counts swept by the generic split sweep.
    left_counts: Vec<usize>,
    right_counts: Vec<usize>,
    /// Histogram scratch for the sweeps.
    hist: HistScratch,
    /// Per-depth bitmask stack of features known constant within the
    /// node (one `(n_features + 63) / 64`-word frame per depth). A
    /// feature constant in a node is constant in both children, so each
    /// frame starts as a copy of its parent's and grows as the split
    /// search discovers new constants — descendants then skip those
    /// features without touching their codes at all. Pure scratch: the
    /// skip decision is exactly the one the scan would make.
    constant_masks: Vec<u64>,
    /// High-water marks: node and flattened-leaf-count lengths of the
    /// largest tree fitted so far, used to size the next tree's arrays.
    max_nodes: usize,
    max_leaf_slots: usize,
    /// Routes the split search of fits out of this arena to the
    /// sorted-scan oracle (`tree/sorted_scan.rs`).
    #[cfg(test)]
    sorted_scan: bool,
}

impl FitArena {
    /// Creates an empty arena; buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Per-fit inputs threaded through the build recursion: the corpus
/// rows (partitioning reads raw values), their bin codes by column,
/// the class of every corpus row, and the scratch arena.
struct FitContext<'a> {
    data: &'a Dataset,
    bins: &'a BinnedDataset,
    labels: &'a [usize],
    arena: &'a mut FitArena,
}

impl DecisionTree {
    /// Fits a tree on all rows of `data` with its own labels: bins
    /// `data` and calls [`DecisionTree::fit_view_in`] with every row in
    /// view and a fresh arena.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn fit(data: &Dataset, config: &TreeConfig, rng: &mut PinnedRng) -> Self {
        let bins = BinnedDataset::build(data);
        let indices: Vec<usize> = (0..data.len()).collect();
        Self::fit_view_in(
            data,
            &bins,
            &indices,
            data.labels(),
            data.n_classes(),
            config,
            rng,
            &mut FitArena::new(),
        )
    }

    /// Fits a tree over a *view* of a corpus: `indices` selects
    /// (possibly repeated, bootstrap-style) rows of `data`, the class of
    /// corpus row `i` is `labels[i]` — one of `n_classes` — and split
    /// search sweeps the histograms of `bins`, built **once** from the
    /// full corpus. Every working buffer comes from `arena`, so repeated
    /// fits reuse them.
    ///
    /// The binning is lossless — bins are each feature's actual distinct
    /// values — and corpus bins absent from a node are empty in its
    /// histogram, which the sweeps skip. So the probed thresholds, their
    /// order, the left/right counts, the candidate budget and the RNG
    /// stream are those of a per-node sorted scan over the view's rows
    /// copied into a `Dataset` of their own (pinned against that scan
    /// by the unit tests in `tree/sorted_scan.rs`, and against the
    /// materialized copy by `tests/prop_histogram.rs`).
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty, `bins` was not built from `data`
    /// (row or feature count differs), `labels` is shorter than the
    /// corpus, or a row in `indices` has a label `>= max(n_classes, 2)`.
    #[allow(clippy::too_many_arguments)]
    pub fn fit_view_in(
        data: &Dataset,
        bins: &BinnedDataset,
        indices: &[usize],
        labels: &[usize],
        n_classes: usize,
        config: &TreeConfig,
        rng: &mut PinnedRng,
        arena: &mut FitArena,
    ) -> Self {
        assert!(!indices.is_empty(), "cannot fit a tree on zero samples");
        assert!(
            bins.n_rows() == data.len() && bins.n_features() == data.n_features(),
            "bins must be built from this corpus"
        );
        assert!(
            labels.len() >= data.len(),
            "every corpus row needs a view label"
        );
        let n_classes = n_classes.max(2);
        assert!(
            indices.iter().all(|&i| labels[i] < n_classes),
            "view label out of range"
        );
        // Exact-size the output arrays from the arena's high-water
        // marks: after the first (warm-up) fit, a tree fit allocates
        // only these seven arrays.
        let mut tree = DecisionTree {
            features: Vec::with_capacity(arena.max_nodes),
            thresholds: Vec::with_capacity(arena.max_nodes),
            lefts: Vec::with_capacity(arena.max_nodes),
            rights: Vec::with_capacity(arena.max_nodes),
            n_samples: Vec::with_capacity(arena.max_nodes),
            impurity_decreases: Vec::with_capacity(arena.max_nodes),
            leaf_counts: Vec::with_capacity(arena.max_leaf_slots),
            n_classes,
        };
        let mut work = std::mem::take(&mut arena.work);
        work.clear();
        work.extend_from_slice(indices);
        {
            let mut ctx = FitContext {
                data,
                bins,
                labels,
                arena: &mut *arena,
            };
            tree.build(&mut ctx, &mut work, 0, config, rng);
        }
        arena.work = work;
        arena.max_nodes = arena.max_nodes.max(tree.features.len());
        arena.max_leaf_slots = arena.max_leaf_slots.max(tree.leaf_counts.len());
        tree
    }

    /// The number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.features.len()
    }

    /// The maximum depth of the tree (root = 0, single leaf = 0).
    ///
    /// Walks iteratively with an explicit stack: a degenerate chain of
    /// splits as deep as the configured `max_depth` must not be able to
    /// overflow the call stack.
    pub fn depth(&self) -> usize {
        let mut deepest = 0usize;
        let mut stack = vec![(0u32, 0usize)];
        while let Some((at, depth)) = stack.pop() {
            let at = at as usize;
            if self.features[at] == LEAF {
                deepest = deepest.max(depth);
            } else {
                stack.push((self.lefts[at], depth + 1));
                stack.push((self.rights[at], depth + 1));
            }
        }
        deepest
    }

    /// The number of classes the tree distinguishes (the width
    /// [`DecisionTree::predict_proba_into`] expects).
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// The tree's raw structure-of-arrays content, for binary model
    /// persistence. Round-trips exactly through
    /// [`DecisionTree::from_parts`].
    pub fn to_parts(&self) -> TreeParts {
        TreeParts {
            features: self.features.clone(),
            thresholds: self.thresholds.clone(),
            lefts: self.lefts.clone(),
            rights: self.rights.clone(),
            n_samples: self.n_samples.clone(),
            impurity_decreases: self.impurity_decreases.clone(),
            leaf_counts: self.leaf_counts.clone(),
            n_classes: self.n_classes,
        }
    }

    /// Rebuilds a tree from raw arrays, validating every structural
    /// invariant the predict/walk paths rely on so that *no* input —
    /// however corrupt — can make a later traversal panic or loop:
    /// equal array lengths, split children strictly greater than their
    /// parent index (the preorder layout `fit` emits, which guarantees
    /// acyclicity) and in bounds, split features below `n_features`,
    /// leaf majority classes below `n_classes`, and exactly one
    /// `n_classes`-wide `leaf_counts` block per leaf with every leaf
    /// slot in range.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn from_parts(parts: TreeParts, n_features: usize) -> Result<Self, String> {
        let TreeParts {
            features,
            thresholds,
            lefts,
            rights,
            n_samples,
            impurity_decreases,
            leaf_counts,
            n_classes,
        } = parts;
        let n = features.len();
        if n == 0 {
            return Err("tree has no nodes".into());
        }
        if n_classes == 0 {
            return Err("tree distinguishes zero classes".into());
        }
        if thresholds.len() != n
            || lefts.len() != n
            || rights.len() != n
            || n_samples.len() != n
            || impurity_decreases.len() != n
        {
            return Err(format!("node arrays disagree on length (expected {n})"));
        }
        let n_leaves = features.iter().filter(|&&f| f == LEAF).count();
        if leaf_counts.len() != n_leaves * n_classes {
            return Err(format!(
                "leaf counts hold {} slots for {n_leaves} leaves of {n_classes} classes",
                leaf_counts.len()
            ));
        }
        for (i, &feature) in features.iter().enumerate() {
            if feature == LEAF {
                let slot = lefts[i] as usize;
                if slot >= n_leaves {
                    return Err(format!(
                        "leaf {i} points at count block {slot} of {n_leaves}"
                    ));
                }
                if rights[i] as usize >= n_classes {
                    return Err(format!(
                        "leaf {i} claims majority class {} of {n_classes}",
                        rights[i]
                    ));
                }
            } else {
                if feature as usize >= n_features {
                    return Err(format!("split {i} tests feature {feature} of {n_features}"));
                }
                let (left, right) = (lefts[i] as usize, rights[i] as usize);
                if left <= i || left >= n || right <= i || right >= n {
                    return Err(format!(
                        "split {i} has out-of-preorder children {left}/{right} (n = {n})"
                    ));
                }
            }
        }
        Ok(DecisionTree {
            features,
            thresholds,
            lefts,
            rights,
            n_samples,
            impurity_decreases,
            leaf_counts,
            n_classes,
        })
    }

    /// Predicts the class of a feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row` is shorter than the features the tree was trained
    /// on.
    #[inline]
    pub fn predict(&self, row: &[f64]) -> usize {
        let mut at = 0usize;
        loop {
            let feature = self.features[at];
            if feature == LEAF {
                return self.rights[at] as usize;
            }
            at = if row[feature as usize] <= self.thresholds[at] {
                self.lefts[at]
            } else {
                self.rights[at]
            } as usize;
        }
    }

    /// Per-class probability estimate for a feature row (leaf class
    /// frequencies).
    pub fn predict_proba(&self, row: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_classes];
        self.predict_proba_into(row, &mut out);
        out
    }

    /// Writes the per-class probability estimate for a feature row into
    /// `out` — the allocation-free twin of
    /// [`DecisionTree::predict_proba`] for per-row queries in hot loops.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.n_classes()`.
    pub fn predict_proba_into(&self, row: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_classes, "probability buffer width");
        let counts = self.leaf_counts_for(row);
        let total: usize = counts.iter().sum();
        for (slot, &count) in out.iter_mut().zip(counts) {
            *slot = if total == 0 {
                0.0
            } else {
                count as f64 / total as f64
            };
        }
    }

    /// Node `at` as [`crate::scorer`] reads it when it numbers the
    /// tree's leaves.
    pub(crate) fn node(&self, at: u32) -> Node {
        let at = at as usize;
        match self.features[at] {
            LEAF => Node::Leaf {
                class: self.rights[at],
            },
            feature => Node::Split {
                feature,
                threshold: self.thresholds[at],
                left: self.lefts[at],
                right: self.rights[at],
            },
        }
    }

    fn leaf_counts_for(&self, row: &[f64]) -> &[usize] {
        let mut at = 0usize;
        while self.features[at] != LEAF {
            at = if row[self.features[at] as usize] <= self.thresholds[at] {
                self.lefts[at]
            } else {
                self.rights[at]
            } as usize;
        }
        let start = self.lefts[at] as usize * self.n_classes;
        &self.leaf_counts[start..start + self.n_classes]
    }

    /// Builds the subtree over `indices`, returning its root node id.
    ///
    /// All per-node scratch is borrowed from `ctx.arena`; nothing from
    /// the split search outlives the recursion into the children, so
    /// single (not per-depth) buffers suffice and no heap allocation
    /// happens per node.
    fn build(
        &mut self,
        ctx: &mut FitContext<'_>,
        indices: &mut [usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut PinnedRng,
    ) -> usize {
        let n = indices.len();
        {
            let view_labels = ctx.labels;
            let FitArena {
                node_counts: counts,
                node_labels: labels,
                ..
            } = &mut *ctx.arena;
            counts.clear();
            counts.resize(self.n_classes, 0);
            labels.clear();
            labels.extend(indices.iter().map(|&i| {
                let label = view_labels[i];
                counts[label] += 1;
                u32::try_from(label).expect("class id fits u32")
            }));
        }
        let pure = ctx.arena.node_counts.iter().filter(|&&c| c > 0).count() <= 1;
        if pure || depth >= config.max_depth || n < config.min_samples_split {
            return self.push_leaf(&ctx.arena.node_counts);
        }
        // Computed before the split search so `node_counts` only needs
        // to survive it, not the recursion.
        let parent_gini = gini(&ctx.arena.node_counts, n);
        // Prepare this depth's constant-feature mask frame: inherit the
        // parent's discoveries (the root starts empty). The second
        // child re-copies the parent frame, so a sibling subtree's
        // discoveries never leak across.
        let words = ctx.bins.n_features().div_ceil(64);
        let masks = &mut ctx.arena.constant_masks;
        let end = (depth + 1) * words;
        if masks.len() < end {
            masks.resize(end, 0);
        }
        if depth == 0 {
            masks[..words].fill(0);
        } else {
            masks.copy_within((depth - 1) * words..depth * words, depth * words);
        }
        // The one seam: a unit test's arena can route the search to the
        // sorted-scan oracle. No other build uses the label.
        #[allow(unused_labels)]
        let split = 'search: {
            #[cfg(test)]
            if ctx.arena.sorted_scan {
                break 'search self.best_split_sorted_scan(ctx, indices, config, rng);
            }
            self.best_split(ctx, indices, depth, config, rng)
        };
        match split {
            Some((feature, threshold, weighted_child_gini)) => {
                let split_at = partition(ctx.data, indices, feature, threshold);
                if split_at < config.min_samples_leaf
                    || n - split_at < config.min_samples_leaf
                    || split_at == 0
                    || split_at == n
                {
                    // The split search reads `node_counts` but never
                    // writes them, so they still describe this node.
                    return self.push_leaf(&ctx.arena.node_counts);
                }
                // Reserve the node id before children so the root is node 0.
                let id = self.push_placeholder();
                let (left_idx, right_idx) = indices.split_at_mut(split_at);
                let left = self.build(ctx, left_idx, depth + 1, config, rng);
                let right = self.build(ctx, right_idx, depth + 1, config, rng);
                self.features[id] = u32::try_from(feature).expect("feature id fits u32");
                self.thresholds[id] = threshold;
                self.lefts[id] = u32::try_from(left).expect("node id fits u32");
                self.rights[id] = u32::try_from(right).expect("node id fits u32");
                self.n_samples[id] = n;
                self.impurity_decreases[id] = (parent_gini - weighted_child_gini).max(0.0);
                id
            }
            None => self.push_leaf(&ctx.arena.node_counts),
        }
    }

    fn push_placeholder(&mut self) -> usize {
        let id = self.features.len();
        self.features.push(LEAF);
        self.thresholds.push(0.0);
        self.lefts.push(0);
        self.rights.push(0);
        self.n_samples.push(0);
        self.impurity_decreases.push(0.0);
        id
    }

    fn push_leaf(&mut self, counts: &[usize]) -> usize {
        let id = self.push_placeholder();
        self.n_samples[id] = counts.iter().sum();
        let leaf_id = self.leaf_counts.len() / self.n_classes;
        self.lefts[id] = u32::try_from(leaf_id).expect("leaf id fits u32");
        self.rights[id] = u32::try_from(argmax(counts)).expect("class id fits u32");
        self.leaf_counts.extend_from_slice(counts);
        id
    }

    /// Finds the `(feature, threshold, weighted child Gini)` minimizing
    /// weighted Gini impurity over the node's candidate features, or
    /// `None` if no candidate can split.
    ///
    /// This is the candidate walk, written once: draw a feature, skip it
    /// if it cannot split this node, otherwise charge it to the budget
    /// and hand it to a sweep. The sweep counts the node's rows into the
    /// feature's per-bin class histogram and probes the midpoints
    /// between adjacent distinct values *present in the node* (empty
    /// bins between them are skipped, so the midpoint spans them just as
    /// a sort would), in ascending order, under a strict-improvement
    /// tolerance — exactly what a sorted scan of the node's column
    /// evaluates, at `O(n + bins)` per candidate instead of
    /// `O(n log n)`.
    fn best_split(
        &self,
        ctx: &mut FitContext<'_>,
        indices: &[usize],
        depth: usize,
        config: &TreeConfig,
        rng: &mut PinnedRng,
    ) -> Option<(usize, f64, f64)> {
        let bins = ctx.bins;
        let arena = &mut *ctx.arena;
        let n_features = bins.n_features();
        arena.candidates.clear();
        arena.candidates.extend(0..n_features);
        let subsample = config.n_candidate_features.is_some();
        let limit = match config.n_candidate_features {
            Some(k) => k.max(1).min(n_features),
            None => n_features,
        };
        let mask_frame = depth * n_features.div_ceil(64);
        // Two classes (every one-vs-rest bank classifier) with node
        // counts that fit 16 bits take the packed-counter sweep — same
        // counts, same splits, fewer operations per row.
        let packed = self.n_classes == 2 && indices.len() < (1 << 16);
        // Take the best split even at zero Gini gain (as CART splitters
        // do): greedy strict-improvement search cannot learn XOR-shaped
        // concepts whose first split is gain-free. Purity, depth and
        // min-samples rules bound the recursion instead.
        let mut best: Option<(f64, usize, f64)> = None;
        // Constant features do not count against the candidate budget —
        // like scikit-learn, keep drawing until `limit` splittable
        // features were examined or the feature set is exhausted.
        let mut examined = 0usize;
        for slot in 0..n_features {
            if examined >= limit {
                break;
            }
            // One `sample_step` per *inspected* slot — the lazy form of
            // `PinnedRng::sample_k`, consuming exactly one pinned draw
            // per slot actually looked at. A skipped feature costs a
            // draw but never a budget slot, and the skip decisions
            // below are the sorted scan's "first value == last value",
            // so the draw stream matches the oracle's.
            let feature = if subsample {
                rng.sample_step(&mut arena.candidates, slot)
            } else {
                arena.candidates[slot]
            };
            if bins.n_bins(feature) <= 1 {
                continue; // globally constant feature: no threshold exists
            }
            // Constant *within the node*: features an ancestor found
            // constant skip via the mask; otherwise an early-exit scan
            // for a second distinct code decides (and records) it,
            // without paying for a histogram fill.
            let bit = 1u64 << (feature % 64);
            let mask = &mut arena.constant_masks[mask_frame + feature / 64];
            if *mask & bit != 0 {
                continue;
            }
            let codes = bins.column(feature);
            let first = codes[indices[0]];
            if indices[1..].iter().all(|&i| codes[i] == first) {
                *mask |= bit;
                continue;
            }
            examined += 1;
            if packed {
                arena.sweep_packed(bins, feature, indices, &mut best);
            } else {
                arena.sweep_generic(bins, feature, indices, &mut best);
            }
        }
        best.map(|(weighted, feature, threshold)| (feature, threshold, weighted))
    }

    /// Gini (mean-decrease-in-impurity) feature importances, normalized
    /// to sum to 1 over `n_features` (all zeros for a single-leaf tree).
    pub fn feature_importances(&self, n_features: usize) -> Vec<f64> {
        let mut importances = vec![0.0; n_features];
        if self.features.first().is_none_or(|&f| f == LEAF) {
            return importances; // single-leaf tree: no split anywhere
        }
        let root_samples = self.n_samples[0] as f64;
        for at in 0..self.features.len() {
            if self.features[at] != LEAF {
                importances[self.features[at] as usize] +=
                    self.n_samples[at] as f64 / root_samples * self.impurity_decreases[at];
            }
        }
        let total: f64 = importances.iter().sum();
        if total > 0.0 {
            for value in &mut importances {
                *value /= total;
            }
        }
        importances
    }
}

impl FitArena {
    /// The generic fill + sweep of one candidate `feature`: counts the
    /// node's rows into an `n_bins × n_classes` histogram, then walks
    /// the bins cumulatively, offering `best` the midpoint before every
    /// present bin but the first.
    fn sweep_generic(
        &mut self,
        bins: &BinnedDataset,
        feature: usize,
        indices: &[usize],
        best: &mut Option<(f64, usize, f64)>,
    ) {
        let FitArena {
            node_counts: parent_counts,
            node_labels,
            left_counts,
            right_counts,
            hist: scratch,
            ..
        } = self;
        let n_classes = parent_counts.len();
        let total = indices.len();
        let codes = bins.column(feature);
        let values = bins.bin_values(feature);
        let hist = scratch.zeroed(values.len(), n_classes);
        for (&i, &label) in indices.iter().zip(node_labels.iter()) {
            hist[codes[i] as usize * n_classes + label as usize] += 1;
        }
        left_counts.clear();
        left_counts.resize(n_classes, 0);
        right_counts.clear();
        right_counts.extend_from_slice(parent_counts);
        let mut n_left = 0usize;
        let mut prev_value = 0.0f64;
        for (bin, &value) in hist.chunks_exact(n_classes).zip(values) {
            let bin_total: usize = bin.iter().map(|&c| c as usize).sum();
            if bin_total == 0 {
                continue;
            }
            if n_left > 0 {
                // Left holds every present value below `value`; the
                // candidate threshold is the midpoint a sorted scan
                // evaluates between adjacent present values.
                let n_right = total - n_left;
                let weighted = (n_left as f64 * gini(left_counts, n_left)
                    + n_right as f64 * gini(right_counts, n_right))
                    / total as f64;
                if best.is_none_or(|(g, _, _)| weighted + 1e-12 < g) {
                    *best = Some((weighted, feature, (prev_value + value) / 2.0));
                }
            }
            for (class, &count) in bin.iter().enumerate() {
                left_counts[class] += count as usize;
                right_counts[class] -= count as usize;
            }
            n_left += bin_total;
            prev_value = value;
        }
    }

    /// [`FitArena::sweep_generic`] for two classes and fewer than 2^16
    /// rows — the shape of every one-vs-rest bank classifier, and the
    /// hottest loop of bank training.
    ///
    /// Each bin's two counts are packed into one `u32` (total in the low
    /// half, class-1 count in the high half; neither can exceed the
    /// node's row count, so neither overflows its half), making the
    /// per-row fill a single gather + increment over a half-sized
    /// histogram. The counts unpacked in the sweep are the integers the
    /// generic fill produces and go through the same [`gini`]
    /// arithmetic, so the chosen split is bit-identical.
    fn sweep_packed(
        &mut self,
        bins: &BinnedDataset,
        feature: usize,
        indices: &[usize],
        best: &mut Option<(f64, usize, f64)>,
    ) {
        let total = indices.len();
        let codes = bins.column(feature);
        let values = bins.bin_values(feature);
        let hist = self.hist.zeroed(values.len(), 1);
        for (&i, &label) in indices.iter().zip(self.node_labels.iter()) {
            hist[codes[i] as usize] += 1 + (label << 16);
        }
        let mut left = [0usize; 2];
        let mut right = [self.node_counts[0], self.node_counts[1]];
        let mut n_left = 0usize;
        let mut prev_value = 0.0f64;
        for (&packed, &value) in hist.iter().zip(values) {
            if packed == 0 {
                continue;
            }
            let bin_total = (packed & 0xFFFF) as usize;
            let ones = (packed >> 16) as usize;
            if n_left > 0 {
                let n_right = total - n_left;
                let weighted = (n_left as f64 * gini(&left, n_left)
                    + n_right as f64 * gini(&right, n_right))
                    / total as f64;
                if best.is_none_or(|(g, _, _)| weighted + 1e-12 < g) {
                    *best = Some((weighted, feature, (prev_value + value) / 2.0));
                }
            }
            left[0] += bin_total - ones;
            left[1] += ones;
            right[0] -= bin_total - ones;
            right[1] -= ones;
            n_left += bin_total;
            prev_value = value;
        }
    }
}

/// Gini impurity of a class-count vector over `total` samples.
fn gini(counts: &[usize], total: usize) -> f64 {
    if total == 0 {
        return 0.0;
    }
    let sum_sq: f64 = counts
        .iter()
        .map(|&c| {
            let p = c as f64 / total as f64;
            p * p
        })
        .sum();
    1.0 - sum_sq
}

/// Partitions `indices` in place so rows with `feature <= threshold` come
/// first; returns the boundary position.
fn partition(data: &Dataset, indices: &mut [usize], feature: usize, threshold: f64) -> usize {
    let mut boundary = 0;
    for i in 0..indices.len() {
        if data.row(indices[i])[feature] <= threshold {
            indices.swap(boundary, i);
            boundary += 1;
        }
    }
    boundary
}

/// Index of the maximum element (first on ties).
pub(crate) fn argmax(values: &[usize]) -> usize {
    values
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

#[cfg(test)]
mod sorted_scan;

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> PinnedRng {
        PinnedRng::from_key(42, 0, 0)
    }

    fn xor_dataset() -> Dataset {
        let mut data = Dataset::new(2);
        for _ in 0..10 {
            data.push(&[0.0, 0.0], 0);
            data.push(&[1.0, 1.0], 0);
            data.push(&[0.0, 1.0], 1);
            data.push(&[1.0, 0.0], 1);
        }
        data
    }

    #[test]
    fn learns_xor() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default(), &mut rng());
        assert_eq!(tree.predict(&[0.0, 0.0]), 0);
        assert_eq!(tree.predict(&[1.0, 1.0]), 0);
        assert_eq!(tree.predict(&[0.0, 1.0]), 1);
        assert_eq!(tree.predict(&[1.0, 0.0]), 1);
        assert!(tree.depth() >= 2, "xor needs at least two levels");
    }

    #[test]
    fn pure_node_is_single_leaf() {
        let mut data = Dataset::new(1);
        for i in 0..5 {
            data.push(&[i as f64], 1);
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.predict(&[99.0]), 1);
    }

    #[test]
    fn max_depth_zero_gives_majority_vote() {
        let mut data = Dataset::new(1);
        data.push(&[0.0], 0);
        data.push(&[1.0], 1);
        data.push(&[2.0], 1);
        let config = TreeConfig {
            max_depth: 0,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&data, &config, &mut rng());
        assert_eq!(tree.predict(&[0.0]), 1, "majority class");
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn probabilities_sum_to_one() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default(), &mut rng());
        let proba = tree.predict_proba(&[0.0, 1.0]);
        let sum: f64 = proba.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(proba[1] > proba[0]);
    }

    #[test]
    fn predict_agrees_with_proba_argmax() {
        let tree = DecisionTree::fit(&xor_dataset(), &TreeConfig::default(), &mut rng());
        for row in [[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]] {
            let proba = tree.predict_proba(&row);
            let by_proba = proba
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap().then(b.0.cmp(&a.0)))
                .map(|(i, _)| i)
                .unwrap();
            assert_eq!(
                tree.predict(&row),
                by_proba,
                "cached majority class matches"
            );
        }
    }

    #[test]
    fn min_samples_leaf_respected() {
        let mut data = Dataset::new(1);
        data.push(&[0.0], 0);
        data.push(&[1.0], 1);
        let config = TreeConfig {
            min_samples_leaf: 2,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::fit(&data, &config, &mut rng());
        assert_eq!(tree.node_count(), 1, "split would create 1-sample leaves");
    }

    #[test]
    fn identical_features_cannot_split() {
        let mut data = Dataset::new(2);
        data.push(&[1.0, 1.0], 0);
        data.push(&[1.0, 1.0], 1);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.node_count(), 1);
    }

    #[test]
    fn feature_subsampling_still_learns_separable_data() {
        let mut data = Dataset::new(4);
        for i in 0..50 {
            let x = i as f64;
            data.push(&[0.0, 0.0, x, 0.0], usize::from(x > 25.0));
        }
        let config = TreeConfig {
            n_candidate_features: Some(2),
            ..TreeConfig::default()
        };
        // With 2-of-4 candidates per split the informative feature is
        // found after at most a few levels.
        let tree = DecisionTree::fit(&data, &config, &mut rng());
        assert_eq!(tree.predict(&[0.0, 0.0, 40.0, 0.0]), 1);
        assert_eq!(tree.predict(&[0.0, 0.0, 10.0, 0.0]), 0);
    }

    #[test]
    fn importances_identify_the_informative_feature() {
        let mut data = Dataset::new(3);
        for i in 0..60 {
            let x = i as f64;
            // Only feature 1 is informative.
            data.push(&[(i % 7) as f64, x, 3.0], usize::from(x > 30.0));
        }
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), &mut rng());
        let importances = tree.feature_importances(3);
        assert!((importances.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(
            importances[1] > 0.9,
            "feature 1 should dominate: {importances:?}"
        );
    }

    #[test]
    fn single_leaf_tree_has_zero_importances() {
        let mut data = Dataset::new(2);
        data.push(&[1.0, 2.0], 1);
        data.push(&[3.0, 4.0], 1);
        let tree = DecisionTree::fit(&data, &TreeConfig::default(), &mut rng());
        assert_eq!(tree.feature_importances(2), vec![0.0, 0.0]);
    }

    /// Fits `data`'s rows over `bins`, as a view labeled by `labels`.
    fn fit_view(data: &Dataset, bins: &BinnedDataset, labels: &[usize]) -> DecisionTree {
        let indices: Vec<usize> = (0..data.len()).collect();
        DecisionTree::fit_view_in(
            data,
            bins,
            &indices,
            labels,
            2,
            &TreeConfig::default(),
            &mut rng(),
            &mut FitArena::new(),
        )
    }

    #[test]
    #[should_panic(expected = "bins must be built from this corpus")]
    fn bins_of_a_longer_dataset_are_rejected() {
        let data = xor_dataset();
        let mut longer = xor_dataset();
        longer.push(&[2.0, 2.0], 0);
        let _ = fit_view(&data, &BinnedDataset::build(&longer), data.labels());
    }

    #[test]
    #[should_panic(expected = "bins must be built from this corpus")]
    fn bins_of_a_wider_dataset_are_rejected() {
        let data = xor_dataset();
        let mut wider = Dataset::new(3);
        for i in 0..data.len() {
            wider.push(&[0.0, 1.0, i as f64], 0);
        }
        let _ = fit_view(&data, &BinnedDataset::build(&wider), data.labels());
    }

    #[test]
    #[should_panic(expected = "view label out of range")]
    fn out_of_range_view_label_is_rejected() {
        let data = xor_dataset();
        let mut labels = data.labels().to_vec();
        labels[7] = 2;
        let _ = fit_view(&data, &BinnedDataset::build(&data), &labels);
    }

    #[test]
    fn argmax_prefers_first_on_tie() {
        assert_eq!(argmax(&[3, 3, 1]), 0);
        assert_eq!(argmax(&[1, 5, 5]), 1);
        assert_eq!(argmax(&[]), 0);
    }
}
