//! Latency statistics: means, percentiles, CDFs.

/// A collection of samples with summary statistics.
#[derive(Debug, Clone, Default)]
pub(crate) struct Summary {
    samples: Vec<f64>,
    sorted: bool,
}

impl Summary {
    /// Creates an empty summary.
    pub(crate) fn new() -> Summary {
        Summary::default()
    }

    /// Adds a sample.
    pub(crate) fn add(&mut self, value: f64) {
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of samples.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples have been recorded.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Arithmetic mean (0 when empty).
    pub(crate) fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    fn sorted_samples(&mut self) -> &[f64] {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            self.sorted = true;
        }
        &self.samples
    }

    /// The `p`-th percentile (p in 0..=100), using nearest-rank.
    pub(crate) fn percentile(&mut self, p: f64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        let sorted = self.sorted_samples();
        let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
        sorted[rank.min(sorted.len()) - 1]
    }

    /// Median (50th percentile).
    #[cfg(test)]
    pub(crate) fn median(&mut self) -> f64 {
        self.percentile(50.0)
    }

    /// Maximum sample (0 when empty).
    #[cfg(test)]
    pub(crate) fn max(&mut self) -> f64 {
        self.sorted_samples().last().copied().unwrap_or(0.0)
    }

    /// Minimum sample (0 when empty).
    #[cfg(test)]
    pub(crate) fn min(&mut self) -> f64 {
        self.sorted_samples().first().copied().unwrap_or(0.0)
    }

    /// Fraction of samples satisfying `predicate`.
    pub(crate) fn fraction(&self, predicate: impl Fn(f64) -> bool) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().filter(|s| predicate(**s)).count() as f64 / self.samples.len() as f64
    }

    /// Builds a CDF over the samples with `points` evenly spaced probability
    /// steps.
    pub(crate) fn cdf(&mut self, points: usize) -> Cdf {
        let mut steps = Vec::with_capacity(points);
        if self.samples.is_empty() || points == 0 {
            return Cdf { steps };
        }
        for i in 1..=points {
            let p = i as f64 / points as f64;
            steps.push((self.percentile(p * 100.0), p));
        }
        Cdf { steps }
    }
}

/// A cumulative distribution function as `(value, cumulative probability)`
/// steps — the form in which Figure 7 plots client-perceived latency.
#[derive(Debug, Clone, Default)]
pub struct Cdf {
    /// `(value, probability)` pairs with non-decreasing probability.
    pub steps: Vec<(f64, f64)>,
}

impl Cdf {
    /// The fraction of samples at or below `value`.
    #[cfg(test)]
    pub(crate) fn probability_at(&self, value: f64) -> f64 {
        self.steps
            .iter()
            .filter(|(v, _)| *v <= value)
            .map(|(_, p)| *p)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary_of(values: &[f64]) -> Summary {
        let mut s = Summary::new();
        for v in values {
            s.add(*v);
        }
        s
    }

    #[test]
    fn mean_median_percentiles() {
        let mut s = summary_of(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert!((s.mean() - 5.5).abs() < 1e-9);
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.percentile(90.0), 9.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 10.0);
        assert_eq!(s.len(), 10);
    }

    #[test]
    fn empty_summary_is_safe() {
        let mut s = Summary::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.percentile(90.0), 0.0);
        assert!(s.cdf(10).steps.is_empty());
    }

    #[test]
    fn fractions_and_cdf() {
        let mut s = summary_of(&[100.0, 200.0, 300.0, 400.0]);
        assert!((s.fraction(|v| v >= 140.0) - 0.75).abs() < 1e-9);
        let cdf = s.cdf(4);
        assert_eq!(cdf.steps.len(), 4);
        assert!((cdf.probability_at(250.0) - 0.5).abs() < 1e-9);
        assert_eq!(cdf.probability_at(50.0), 0.0);
        assert!((cdf.probability_at(1000.0) - 1.0).abs() < 1e-9);
    }
}
