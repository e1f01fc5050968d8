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

/// Two Welford folds over paired observations with one shared count:
/// each lane runs exactly [`OnlineStats::push`]'s arithmetic, so every
/// lane's count, mean and variances equal those of an `OnlineStats` fed
/// the same lane bit for bit. Lane 0 also keeps its maximum; the
/// single-lane readers ([`mean`](Self::mean), [`std_dev`](Self::std_dev),
/// [`max`](Self::max)) read lane 0.
///
/// The lanes are `[f64; 2]` so that the fold compiles to packed SSE2
/// (one `divpd` per push for both lanes, where two `OnlineStats` take
/// two `divsd`): IEEE arithmetic is lane-wise and Rust never contracts
/// `a * b + c` into an FMA, so packing changes no bit.
#[derive(Debug, Clone, Copy)]
pub struct TwoLaneStats {
    n: u64,
    mean: [f64; 2],
    m2: [f64; 2],
    max: f64,
}

impl Default for TwoLaneStats {
    fn default() -> Self {
        Self::new()
    }
}

impl TwoLaneStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        TwoLaneStats {
            n: 0,
            mean: [0.0; 2],
            m2: [0.0; 2],
            max: f64::NEG_INFINITY,
        }
    }

    /// Folds one observation into each lane.
    #[inline(always)]
    pub fn push(&mut self, x: [f64; 2]) {
        self.n += 1;
        // One `cvtsi2sd` where `n as f64` takes the unsigned-conversion
        // sequence; equal for every count below 2^63.
        let n = self.n as i64 as f64;
        let delta = [x[0] - self.mean[0], x[1] - self.mean[1]];
        self.mean = [self.mean[0] + delta[0] / n, self.mean[1] + delta[1] / n];
        self.m2 = [
            self.m2[0] + delta[0] * (x[0] - self.mean[0]),
            self.m2[1] + delta[1] * (x[1] - self.mean[1]),
        ];
        if x[0] > self.max {
            self.max = x[0];
        }
    }

    /// Number of observations (the same in both lanes).
    #[inline]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Each lane's sample mean (0 when empty).
    #[inline]
    pub fn means(&self) -> [f64; 2] {
        self.mean
    }

    /// Each lane's unbiased sample variance (0 with fewer than two
    /// observations).
    pub fn variances(&self) -> [f64; 2] {
        if self.n < 2 {
            [0.0; 2]
        } else {
            let d = (self.n - 1) as f64;
            [self.m2[0] / d, self.m2[1] / d]
        }
    }

    /// Each lane's population variance (divides by n).
    pub fn population_variances(&self) -> [f64; 2] {
        if self.n == 0 {
            [0.0; 2]
        } else {
            let d = self.n as f64;
            [self.m2[0] / d, self.m2[1] / d]
        }
    }

    /// Lane 0's sample mean.
    #[inline]
    pub fn mean(&self) -> f64 {
        self.mean[0]
    }

    /// Lane 0's sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variances()[0].sqrt()
    }

    /// Lane 0's largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
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
