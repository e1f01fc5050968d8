//! Streaming mean/variance (Welford's algorithm).
//!
//! The web experiment observes ~5·10⁸ response times per replication, so
//! per-sample storage is impossible; all output metrics are folded into
//! constant-space accumulators.

/// Numerically stable streaming estimator of count, mean, variance,
/// min and max.
#[derive(Debug, Clone, Copy, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation in.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Number of observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Population variance (divides by n).
    pub fn population_variance(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.mean * self.n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch_stats(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        (mean, var)
    }

    #[test]
    fn matches_batch_computation() {
        let xs: Vec<f64> = (0..1000).map(|i| ((i * 37) % 101) as f64 * 0.77).collect();
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let (m, v) = batch_stats(&xs);
        assert!((s.mean() - m).abs() < 1e-10);
        assert!((s.variance() - v).abs() < 1e-8);
        assert_eq!(s.count(), 1000);
    }

    #[test]
    fn min_max_sum() {
        let mut s = OnlineStats::new();
        for x in [3.0, -1.0, 7.0, 2.0] {
            s.push(x);
        }
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 7.0);
        assert!((s.sum() - 11.0).abs() < 1e-12);
    }

    #[test]
    fn empty_and_single() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        let mut s = OnlineStats::new();
        s.push(5.0);
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn numerical_stability_large_offset() {
        // Classic catastrophic-cancellation case for naive sum-of-squares.
        let mut s = OnlineStats::new();
        for x in [1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0] {
            s.push(x);
        }
        assert!((s.variance() - 30.0).abs() < 1e-6, "var {}", s.variance());
    }
}
