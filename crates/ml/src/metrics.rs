//! Classification metrics: accuracy, confusion matrices,
//! precision/recall — the quantities behind the paper's Fig. 5 and
//! Table III.

use std::fmt;

/// Fraction of predictions equal to the true label.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(truth: &[usize], predicted: &[usize]) -> f64 {
    assert_eq!(truth.len(), predicted.len(), "length mismatch");
    if truth.is_empty() {
        return 0.0;
    }
    let correct = truth.iter().zip(predicted).filter(|(t, p)| t == p).count();
    correct as f64 / truth.len() as f64
}

/// A confusion matrix over `n` classes: `matrix[actual][predicted]`
/// counts, exactly the layout of the paper's Table III (A = actual type,
/// P = predicted type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    counts: Vec<Vec<usize>>,
    labels: Vec<String>,
}

impl ConfusionMatrix {
    /// Creates an empty matrix with the given class labels.
    pub fn new(labels: impl IntoIterator<Item = impl Into<String>>) -> Self {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        let n = labels.len();
        ConfusionMatrix {
            counts: vec![vec![0; n]; n],
            labels,
        }
    }

    /// Records one `(actual, predicted)` observation.
    ///
    /// # Panics
    ///
    /// Panics if either class index is out of range.
    pub fn record(&mut self, actual: usize, predicted: usize) {
        self.counts[actual][predicted] += 1;
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.labels.len()
    }

    /// The class labels.
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The count of rows with `actual` classified as `predicted`.
    pub fn count(&self, actual: usize, predicted: usize) -> usize {
        self.counts[actual][predicted]
    }

    /// Per-class recall (the "ratio of correct identification" plotted in
    /// the paper's Fig. 5). `None` if the class has no observations.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let total: usize = self.counts[class].iter().sum();
        (total > 0).then(|| self.counts[class][class] as f64 / total as f64)
    }

    /// Per-class precision. `None` if the class was never predicted.
    pub fn precision(&self, class: usize) -> Option<f64> {
        let predicted: usize = (0..self.n_classes()).map(|a| self.counts[a][class]).sum();
        (predicted > 0).then(|| self.counts[class][class] as f64 / predicted as f64)
    }

    /// Merges another matrix with the same labels into this one.
    ///
    /// # Panics
    ///
    /// Panics if the label sets differ.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        assert_eq!(self.labels, other.labels, "label mismatch");
        for (row, other_row) in self.counts.iter_mut().zip(&other.counts) {
            for (cell, other_cell) in row.iter_mut().zip(other_row) {
                *cell += other_cell;
            }
        }
    }

    /// Restricts the matrix to the given classes (for Table III's
    /// 10-device view). Observations involving other classes are dropped.
    pub fn restrict(&self, classes: &[usize]) -> ConfusionMatrix {
        let mut out = ConfusionMatrix::new(classes.iter().map(|&c| self.labels[c].clone()));
        for (i, &a) in classes.iter().enumerate() {
            for (j, &p) in classes.iter().enumerate() {
                out.counts[i][j] = self.counts[a][p];
            }
        }
        out
    }
}

impl fmt::Display for ConfusionMatrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self
            .counts
            .iter()
            .flatten()
            .map(|c| c.to_string().len())
            .max()
            .unwrap_or(1)
            .max(3);
        write!(f, "{:>20} ", "A\\P")?;
        for (j, _) in self.labels.iter().enumerate() {
            write!(f, "{:>width$} ", j + 1)?;
        }
        writeln!(f)?;
        for (i, label) in self.labels.iter().enumerate() {
            let short: String = label.chars().take(20).collect();
            write!(f, "{short:>20} ")?;
            for j in 0..self.n_classes() {
                write!(f, "{:>width$} ", self.counts[i][j])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl ConfusionMatrix {
        /// Overall accuracy (trace over total).
        fn accuracy(&self) -> f64 {
            let total: usize = self.counts.iter().flatten().sum();
            if total == 0 {
                return 0.0;
            }
            let correct: usize = (0..self.n_classes()).map(|i| self.counts[i][i]).sum();
            correct as f64 / total as f64
        }
    }

    fn sample() -> ConfusionMatrix {
        let mut m = ConfusionMatrix::new(["a", "b", "c"]);
        // a: 3 correct, 1 as b; b: 2 correct; c: 1 correct, 1 as a.
        for _ in 0..3 {
            m.record(0, 0);
        }
        m.record(0, 1);
        m.record(1, 1);
        m.record(1, 1);
        m.record(2, 2);
        m.record(2, 0);
        m
    }

    #[test]
    fn accuracy_fn() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn matrix_accuracy_and_recall() {
        let m = sample();
        assert!((m.accuracy() - 6.0 / 8.0).abs() < 1e-12);
        assert!((m.recall(0).unwrap() - 0.75).abs() < 1e-12);
        assert_eq!(m.recall(1), Some(1.0));
        assert_eq!(m.recall(2), Some(0.5));
    }

    #[test]
    fn precision() {
        let m = sample();
        // Class 0 predicted 4 times, 3 correct.
        assert!((m.precision(0).unwrap() - 0.75).abs() < 1e-12);
        // Class 2 predicted once, correct.
        assert_eq!(m.precision(2), Some(1.0));
    }

    #[test]
    fn merge_accumulates() {
        let mut a = sample();
        let b = sample();
        a.merge(&b);
        assert_eq!(a.count(0, 0), 6);
        assert_eq!(a.count(2, 0), 2);
    }

    #[test]
    fn restrict_projects_submatrix() {
        let m = sample();
        let sub = m.restrict(&[0, 2]);
        assert_eq!(sub.n_classes(), 2);
        assert_eq!(sub.count(0, 0), 3);
        assert_eq!(sub.count(1, 0), 1);
        assert_eq!(sub.labels(), &["a".to_string(), "c".to_string()]);
    }

    #[test]
    fn empty_class_has_no_recall() {
        let m = ConfusionMatrix::new(["a", "b"]);
        assert_eq!(m.recall(0), None);
        assert_eq!(m.accuracy(), 0.0);
    }

    #[test]
    fn display_renders_rows() {
        let rendered = sample().to_string();
        assert!(rendered.contains("A\\P"));
        assert!(rendered.lines().count() >= 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn confusion_matrix_consistency(pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..80)) {
            let mut matrix = ConfusionMatrix::new(["a", "b", "c", "d"]);
            for &(actual, predicted) in &pairs {
                matrix.record(actual, predicted);
            }
            // Accuracy equals the direct computation.
            let truth: Vec<usize> = pairs.iter().map(|&(a, _)| a).collect();
            let predicted: Vec<usize> = pairs.iter().map(|&(_, p)| p).collect();
            prop_assert!((matrix.accuracy() - accuracy(&truth, &predicted)).abs() < 1e-12);
            // Recall and precision stay in [0, 1].
            for class in 0..4 {
                if let Some(r) = matrix.recall(class) {
                    prop_assert!((0.0..=1.0).contains(&r));
                }
                if let Some(p) = matrix.precision(class) {
                    prop_assert!((0.0..=1.0).contains(&p));
                }
            }
        }
    }
}
