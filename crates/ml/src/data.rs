//! Dense design matrix with class labels.

/// A dataset of feature rows with integer class labels.
///
/// Rows are stored contiguously (row-major) for cache-friendly split
/// search. Labels are small integers; binary per-device-type classifiers
/// use 0 (= "not this type") and 1 (= "this type").
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Dataset {
    features: Vec<f64>,
    n_features: usize,
    labels: Vec<usize>,
}

impl Dataset {
    /// Creates an empty dataset whose rows have `n_features` columns.
    ///
    /// # Panics
    ///
    /// Panics if `n_features` is zero.
    pub fn new(n_features: usize) -> Self {
        assert!(n_features > 0, "a dataset needs at least one feature");
        Dataset {
            features: Vec::new(),
            n_features,
            labels: Vec::new(),
        }
    }

    /// Creates an empty dataset pre-sized for `rows` rows of
    /// `n_features` columns, so filling it performs one allocation per
    /// backing array instead of doubling growth.
    ///
    /// # Panics
    ///
    /// Panics if `n_features` is zero.
    pub fn with_capacity(n_features: usize, rows: usize) -> Self {
        assert!(n_features > 0, "a dataset needs at least one feature");
        Dataset {
            features: Vec::with_capacity(rows * n_features),
            n_features,
            labels: Vec::with_capacity(rows),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the dataset's feature count.
    pub fn push(&mut self, row: &[f64], label: usize) {
        assert_eq!(
            row.len(),
            self.n_features,
            "row has {} features, dataset expects {}",
            row.len(),
            self.n_features
        );
        self.features.extend_from_slice(row);
        self.labels.push(label);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` if the dataset has no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The feature row at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn row(&self, index: usize) -> &[f64] {
        let start = index * self.n_features;
        &self.features[start..start + self.n_features]
    }

    /// The label of row `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len()`.
    pub fn label(&self, index: usize) -> usize {
        self.labels[index]
    }

    /// All labels in row order.
    pub fn labels(&self) -> &[usize] {
        &self.labels
    }

    /// One more than the largest label (0 for an empty dataset).
    pub fn n_classes(&self) -> usize {
        self.labels.iter().max().map_or(0, |&m| m + 1)
    }

    /// Builds a sub-dataset from the given row indices (rows are copied).
    pub fn subset(&self, indices: &[usize]) -> Dataset {
        let mut out = Dataset::new(self.n_features);
        for &i in indices {
            out.push(self.row(i), self.label(i));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_access() {
        let mut data = Dataset::new(2);
        data.push(&[1.0, 2.0], 0);
        data.push(&[3.0, 4.0], 1);
        assert_eq!(data.len(), 2);
        assert_eq!(data.row(1), &[3.0, 4.0]);
        assert_eq!(data.label(0), 0);
        assert_eq!(data.n_classes(), 2);
    }

    #[test]
    #[should_panic(expected = "row has 3 features")]
    fn wrong_width_rejected() {
        let mut data = Dataset::new(2);
        data.push(&[1.0, 2.0, 3.0], 0);
    }

    #[test]
    fn subset_copies_rows() {
        let mut data = Dataset::new(1);
        for i in 0..5 {
            data.push(&[i as f64], i % 2);
        }
        let sub = data.subset(&[4, 0, 2]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.row(0), &[4.0]);
        assert_eq!(sub.label(0), 0);
        assert_eq!(sub.row(1), &[0.0]);
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut data = Dataset::with_capacity(2, 4);
        assert!(data.is_empty());
        data.push(&[1.0, 2.0], 1);
        assert_eq!(data.row(0), &[1.0, 2.0]);
        assert!(data.features.capacity() >= 8);
    }

    #[test]
    fn empty_dataset() {
        let data = Dataset::new(3);
        assert!(data.is_empty());
        assert_eq!(data.n_classes(), 0);
    }
}
