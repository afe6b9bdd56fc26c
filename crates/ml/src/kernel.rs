//! The contiguous batch scratch the packed-forest batch entries read.
//!
//! [`BatchMatrix`] copies a batch once into one reusable **row-major**
//! buffer (`values[row * features + feature]`): no per-tick row-pointer
//! vectors, and the backing allocation is retained across refills.
//! [`PackedForest::accepts_rows`] then runs the five-tree lockstep walk
//! over each contiguous row while one forest's arena stays cached
//! across the whole batch. (Row-major is the measured layout: tree
//! paths diverge after the first split, so a feature-major transpose
//! scatters reads just as much and costs a strided copy on top.)
//!
//! [`PackedForest::accepts_rows`]: crate::PackedForest::accepts_rows

/// A reusable contiguous copy of one batch of rows.
///
/// `fill` copies a batch in once per tick; the forest walks then read
/// each [`BatchMatrix::row`] as one contiguous slice. The backing
/// allocation is retained across refills, so a steady-state caller
/// that holds a `BatchMatrix` performs no per-tick heap allocations.
#[derive(Debug, Default, Clone)]
pub struct BatchMatrix {
    /// Row-major values: `values[row * features + feature]`.
    values: Vec<f64>,
    rows: usize,
    features: usize,
}

impl BatchMatrix {
    /// An empty matrix (0 rows, 0 features).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a matrix from `rows` (a convenience wrapper over
    /// [`BatchMatrix::fill`]).
    pub fn from_rows<'a, I>(rows: I) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        let mut matrix = Self::default();
        matrix.fill(rows);
        matrix
    }

    /// Refills the matrix from `rows` in place. The backing allocation
    /// is reused when capacity suffices.
    ///
    /// # Panics
    ///
    /// Panics if the rows do not all share one width.
    pub fn fill<'a, I>(&mut self, rows: I)
    where
        I: IntoIterator<Item = &'a [f64]>,
        I::IntoIter: ExactSizeIterator,
    {
        let iter = rows.into_iter();
        let n = iter.len();
        self.rows = n;
        self.features = 0;
        self.values.clear();
        for (row, cells) in iter.enumerate() {
            if row == 0 {
                self.features = cells.len();
                self.values.reserve(self.features * n);
            }
            assert_eq!(
                cells.len(),
                self.features,
                "batch rows must all share one width"
            );
            self.values.extend_from_slice(cells);
        }
    }

    /// Number of rows in the current batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width of the current batch.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Whether the current batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The full feature row at `row`.
    #[inline]
    pub fn row(&self, row: usize) -> &[f64] {
        &self.values[row * self.features..(row + 1) * self.features]
    }

    /// Empties the matrix in place, keeping the backing allocation.
    ///
    /// Pairs with [`BatchMatrix::push_row`] for callers that build a
    /// batch incrementally (e.g. only the rows a cache did not already
    /// answer) instead of from one [`BatchMatrix::fill`] iterator.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.features = 0;
        self.values.clear();
    }

    /// Appends one row to the current batch, reusing capacity.
    ///
    /// # Panics
    ///
    /// Panics if `cells` does not match the width of the rows already
    /// in the batch.
    pub fn push_row(&mut self, cells: &[f64]) {
        if self.rows == 0 {
            self.features = cells.len();
        }
        assert_eq!(
            cells.len(),
            self.features,
            "batch rows must all share one width"
        );
        self.values.extend_from_slice(cells);
        self.rows += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_keeps_rows_in_order() {
        let rows: [&[f64]; 3] = [&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]];
        let matrix = BatchMatrix::from_rows(rows);
        assert_eq!(matrix.rows(), 3);
        assert_eq!(matrix.features(), 2);
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(matrix.row(r), *row);
        }
    }

    #[test]
    fn matrix_refill_reuses_capacity() {
        let mut matrix = BatchMatrix::new();
        let wide: Vec<Vec<f64>> = (0..16).map(|i| vec![i as f64; 8]).collect();
        matrix.fill(wide.iter().map(Vec::as_slice));
        assert_eq!(matrix.rows(), 16);
        let narrow: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64; 8]).collect();
        matrix.fill(narrow.iter().map(Vec::as_slice));
        assert_eq!(matrix.rows(), 4);
        assert_eq!(matrix.row(3)[0], 3.0);
    }

    #[test]
    fn empty_batch_is_empty() {
        let matrix = BatchMatrix::from_rows(std::iter::empty());
        assert!(matrix.is_empty());
        assert_eq!(matrix.features(), 0);
    }

    #[test]
    #[should_panic(expected = "share one width")]
    fn ragged_rows_panic() {
        let rows: [&[f64]; 2] = [&[1.0, 2.0], &[3.0]];
        let _ = BatchMatrix::from_rows(rows);
    }
}
