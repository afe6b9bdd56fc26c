//! Machine-learning substrate for the IoT Sentinel reproduction.
//!
//! The paper classifies fixed-size fingerprints with one binary Random
//! Forest per device-type (Breiman, 2001). The `linfa` ecosystem being
//! thin, this crate implements the required pieces from scratch:
//!
//! * [`Dataset`] — a dense design matrix with integer class labels.
//! * [`binning`] — lossless per-column pre-binning of a corpus, built
//!   once and shared by every fit over it (no per-node sorting).
//! * [`DecisionTree`] — CART with Gini impurity and per-split random
//!   feature subsampling. [`DecisionTree::fit_view_in`] is the one
//!   training implementation: an index view of a binned corpus, fitted
//!   out of a caller-owned [`FitArena`].
//! * [`RandomForest`] — bagged trees with majority vote and class
//!   probabilities; [`RandomForest::fit_view`] is the one forest fit,
//!   [`RandomForest::fit`] the wrapper that bins a dataset and views
//!   all of it.
//! * [`crossval`] — stratified k-fold cross-validation splits.
//! * [`metrics`] — accuracy, confusion matrices, precision/recall.
//! * [`parallel`] — deterministic fork/join helpers (ordered merges,
//!   `SENTINEL_THREADS` thread-count resolution).
//! * [`sampling`] — class-balanced one-vs-rest sampling (Sect. IV-B.1).
//! * [`scorer`] — [`BankScorer`]: a whole bank of binary forests scored
//!   in one pass over its sorted split thresholds, row by row or up to
//!   64 rows per machine word (verdicts identical to
//!   [`RandomForest::accepts`], hot-path speed).
//! * [`pinned`] — the v2 pinned RNG contract: keyed, order-independent
//!   draws for decisions that must not depend on scheduling.
//!
//! Everything is deterministic given a seed, so experiments reproduce
//! bit-for-bit.
//!
//! # Example
//!
//! ```
//! use sentinel_ml::{Dataset, ForestConfig, RandomForest};
//!
//! // A trivially separable problem: class = (x > 0.5).
//! let mut data = Dataset::new(1);
//! for i in 0..100 {
//!     let x = i as f64 / 100.0;
//!     data.push(&[x], usize::from(x > 0.5));
//! }
//! let forest = RandomForest::fit(&data, &ForestConfig::default().with_seed(7));
//! assert_eq!(forest.predict(&[0.9]), 1);
//! assert_eq!(forest.predict(&[0.1]), 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binning;
pub mod crossval;
mod data;
mod forest;
pub mod metrics;
pub mod parallel;
pub mod pinned;
pub mod sampling;
pub mod scorer;
mod tree;

pub use binning::BinnedDataset;
pub use data::Dataset;
pub use forest::{FeatureSubsample, ForestConfig, RandomForest};
pub use pinned::PinnedRng;
pub use scorer::BankScorer;
pub use tree::{DecisionTree, FitArena, TreeConfig, TreeParts};
