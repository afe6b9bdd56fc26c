//! Feature pre-binning for histogram-based split finding.
//!
//! A CART split search that sorts each node's feature column pays
//! `O(n log n)` per candidate feature per node. The histogram trick
//! (LightGBM-lineage, but applied losslessly here) observes that a
//! feature's *distinct values* are fixed for the whole corpus: sort each
//! column **once**, assign every cell its rank among the column's unique
//! values, and a node's split search becomes a counting pass over the
//! node rows plus a cumulative sweep over the (few) distinct values — no
//! per-node sort.
//!
//! Table I features are small-cardinality (bits, port classes, one
//! bounded counter, one packet-size column), so the sweep touches a
//! handful of bins where a sorted scan touches every sample. The sweep
//! is **exact**, not approximate: bins are the feature's actual distinct
//! values, candidate thresholds are the same midpoints between
//! *adjacent values present in the node* that a sorted scan would
//! probe, and left/right class counts are the same integers — so the
//! chosen split, and therefore the fitted tree, is bit-identical to the
//! sorted-scan oracle's (`tree/sorted_scan.rs`, test-only). Bins absent
//! from a node are empty in its histogram and skipped, so one binning of
//! a whole corpus serves every index view trained over it.

use crate::Dataset;

/// A column-major binned view of a [`Dataset`], built once per corpus
/// and shared read-only across every forest, tree fit and worker thread
/// that trains over it.
#[derive(Debug, Clone, PartialEq)]
pub struct BinnedDataset {
    /// Bin code of every cell, column-major: `codes[f * n_rows + i]` is
    /// the rank of `data.row(i)[f]` among column `f`'s sorted distinct
    /// values.
    codes: Vec<u32>,
    /// Sorted distinct values per feature, concatenated; the bin code is
    /// the index into this feature's slice.
    values: Vec<f64>,
    /// Start of each feature's slice in `values` (length `n_features + 1`).
    value_offsets: Vec<usize>,
    n_rows: usize,
    /// Largest distinct-value count over all features (scratch sizing).
    max_bins: usize,
}

impl BinnedDataset {
    /// Bins every feature column of `data`.
    pub fn build(data: &Dataset) -> Self {
        let n_rows = data.len();
        let n_features = data.n_features();
        let mut codes = vec![0u32; n_rows * n_features];
        let mut values = Vec::new();
        let mut value_offsets = Vec::with_capacity(n_features + 1);
        value_offsets.push(0);
        let mut max_bins = 0usize;
        let mut column: Vec<f64> = Vec::with_capacity(n_rows);
        for feature in 0..n_features {
            column.clear();
            column.extend((0..n_rows).map(|i| data.row(i)[feature]));
            let mut distinct = column.clone();
            distinct.sort_by(|a, b| a.partial_cmp(b).expect("finite features"));
            distinct.dedup();
            let slot = &mut codes[feature * n_rows..(feature + 1) * n_rows];
            for (code, &value) in slot.iter_mut().zip(&column) {
                *code = distinct
                    .binary_search_by(|v| v.partial_cmp(&value).expect("finite features"))
                    .expect("every value is a distinct value") as u32;
            }
            max_bins = max_bins.max(distinct.len());
            values.extend_from_slice(&distinct);
            value_offsets.push(values.len());
        }
        BinnedDataset {
            codes,
            values,
            value_offsets,
            n_rows,
            max_bins,
        }
    }

    /// The bin codes of feature `feature`, one per dataset row.
    #[inline]
    pub fn column(&self, feature: usize) -> &[u32] {
        &self.codes[feature * self.n_rows..(feature + 1) * self.n_rows]
    }

    /// The sorted distinct values of feature `feature` (bin code →
    /// value).
    #[inline]
    pub fn bin_values(&self, feature: usize) -> &[f64] {
        &self.values[self.value_offsets[feature]..self.value_offsets[feature + 1]]
    }

    /// Number of distinct values of feature `feature`.
    #[inline]
    pub fn n_bins(&self, feature: usize) -> usize {
        self.value_offsets[feature + 1] - self.value_offsets[feature]
    }

    /// The largest [`BinnedDataset::n_bins`] over all features.
    pub fn max_bins(&self) -> usize {
        self.max_bins
    }

    /// Number of rows of the dataset these bins were built from (a fit
    /// asserts its corpus matches).
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.value_offsets.len() - 1
    }
}

/// Reusable per-tree-fit scratch for the histogram sweep, so the split
/// search allocates nothing per node.
#[derive(Debug, Default)]
pub(crate) struct HistScratch {
    /// `n_bins × n_classes` class counts of the candidate feature.
    pub hist: Vec<u32>,
}

impl HistScratch {
    /// Returns the zeroed histogram slice for `n_bins × n_classes`.
    pub fn zeroed(&mut self, n_bins: usize, n_classes: usize) -> &mut [u32] {
        let need = n_bins * n_classes;
        if self.hist.len() < need {
            self.hist.resize(need, 0);
        }
        let slice = &mut self.hist[..need];
        slice.fill(0);
        slice
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset() -> Dataset {
        let mut data = Dataset::new(3);
        data.push(&[1.0, 5.0, 0.0], 0);
        data.push(&[2.0, 5.0, 0.0], 1);
        data.push(&[1.0, 7.0, 0.0], 0);
        data.push(&[3.0, 5.0, 0.0], 1);
        data
    }

    #[test]
    fn codes_rank_values_per_column() {
        let bins = BinnedDataset::build(&dataset());
        assert_eq!(bins.column(0), &[0, 1, 0, 2]);
        assert_eq!(bins.column(1), &[0, 0, 1, 0]);
        assert_eq!(bins.column(2), &[0, 0, 0, 0]);
        assert_eq!(bins.bin_values(0), &[1.0, 2.0, 3.0]);
        assert_eq!(bins.bin_values(1), &[5.0, 7.0]);
        assert_eq!(bins.n_bins(2), 1, "constant column is one bin");
        assert_eq!(bins.max_bins(), 3);
    }

    #[test]
    fn codes_recover_original_values() {
        let data = dataset();
        let bins = BinnedDataset::build(&data);
        for feature in 0..data.n_features() {
            let values = bins.bin_values(feature);
            for (i, &code) in bins.column(feature).iter().enumerate() {
                assert_eq!(values[code as usize], data.row(i)[feature]);
            }
        }
    }

    #[test]
    fn scratch_is_zeroed_between_uses() {
        let mut scratch = HistScratch::default();
        scratch.zeroed(4, 2)[3] = 9;
        assert!(scratch.zeroed(4, 2).iter().all(|&c| c == 0));
        assert_eq!(scratch.zeroed(8, 2).len(), 16);
    }
}
