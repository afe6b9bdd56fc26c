//! Mean ± standard deviation summaries, the presentation format of the
//! paper's Tables IV–VI.

use std::fmt;
use std::time::Duration;

/// A sample summary: mean, (sample) standard deviation and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (n−1 denominator); 0 for n < 2.
    pub stdev: f64,
    /// Number of samples.
    pub n: usize,
}

impl Summary {
    /// Summarizes a slice of samples.
    pub fn of(samples: &[f64]) -> Summary {
        let n = samples.len();
        if n == 0 {
            return Summary {
                mean: 0.0,
                stdev: 0.0,
                n: 0,
            };
        }
        let mean = samples.iter().sum::<f64>() / n as f64;
        let stdev = if n < 2 {
            0.0
        } else {
            let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
            var.sqrt()
        };
        Summary { mean, stdev, n }
    }

    /// Summarizes durations in milliseconds.
    pub fn of_durations_ms(samples: &[Duration]) -> Summary {
        let ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        Summary::of(&ms)
    }

    /// Relative change of this summary's mean versus a baseline, in
    /// percent (the Table VI "overhead" presentation).
    pub fn percent_over(&self, baseline: &Summary) -> f64 {
        if baseline.mean == 0.0 {
            return 0.0;
        }
        (self.mean - baseline.mean) / baseline.mean * 100.0
    }
}

impl fmt::Display for Summary {
    /// Renders as `24.8 (±1.4)`, the paper's table style.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let digits = f.precision().unwrap_or(1);
        write!(f, "{:.digits$} (±{:.digits$})", self.mean, self.stdev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_samples() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample stdev of this classic dataset is ~2.138.
        assert!((s.stdev - 2.1380899).abs() < 1e-6);
        assert_eq!(s.n, 8);
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(Summary::of(&[]).n, 0);
        let one = Summary::of(&[3.5]);
        assert_eq!(one.mean, 3.5);
        assert_eq!(one.stdev, 0.0);
    }

    #[test]
    fn durations_to_ms() {
        let s = Summary::of_durations_ms(&[Duration::from_millis(10), Duration::from_millis(20)]);
        assert!((s.mean - 15.0).abs() < 1e-9);
    }

    #[test]
    fn percent_over_baseline() {
        let base = Summary::of(&[10.0, 10.0]);
        let with = Summary::of(&[11.0, 11.0]);
        assert!((with.percent_over(&base) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn display_matches_table_style() {
        let s = Summary::of(&[24.8]);
        assert_eq!(format!("{s}"), "24.8 (±0.0)");
        assert_eq!(format!("{s:.2}"), "24.80 (±0.00)");
    }
}
