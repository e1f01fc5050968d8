//! Confidence intervals over replication means.
//!
//! The paper reports the average of 10 independent replications per
//! scenario; we additionally report 95% Student-t confidence intervals so
//! EXPERIMENTS.md can state measurement uncertainty.

use super::welford::OnlineStats;

/// Two-sided 95% critical values of the Student-t distribution for
/// 1..=30 degrees of freedom, then the normal limit.
const T_95: [f64; 30] = [
    12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
    2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
    2.052, 2.048, 2.045, 2.042,
];

/// Two-sided 99% critical values, same layout.
const T_99: [f64; 30] = [
    63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.499, 3.355, 3.250, 3.169, 3.106, 3.055, 3.012,
    2.977, 2.947, 2.921, 2.898, 2.878, 2.861, 2.845, 2.831, 2.819, 2.807, 2.797, 2.787, 2.779,
    2.771, 2.763, 2.756, 2.750,
];

/// Confidence level for [`confidence_interval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// 95% two-sided.
    P95,
    /// 99% two-sided.
    P99,
}

fn critical(level: Level, df: u64) -> f64 {
    let table = match level {
        Level::P95 => &T_95,
        Level::P99 => &T_99,
    };
    if df == 0 {
        f64::INFINITY
    } else if df <= 30 {
        table[(df - 1) as usize]
    } else {
        // Normal approximation beyond the table.
        match level {
            Level::P95 => 1.960,
            Level::P99 => 2.576,
        }
    }
}

/// A `mean ± half_width` interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval (0 for a single observation of n=1).
    pub half_width: f64,
}

impl Interval {
    /// Lower bound.
    pub fn lo(&self) -> f64 {
        self.mean - self.half_width
    }
    /// Upper bound.
    pub fn hi(&self) -> f64 {
        self.mean + self.half_width
    }
    /// Whether `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo() && x <= self.hi()
    }
}

/// Student-t confidence interval for the mean of the observations folded
/// into `stats`. With fewer than two observations the half-width is 0.
pub fn confidence_interval(stats: &OnlineStats, level: Level) -> Interval {
    let n = stats.count();
    if n < 2 {
        return Interval {
            mean: stats.mean(),
            half_width: 0.0,
        };
    }
    let t = critical(level, n - 1);
    Interval {
        mean: stats.mean(),
        half_width: t * stats.std_dev() / (n as f64).sqrt(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_textbook_case() {
        // n = 10, mean = 50, s = 5 → 95% CI half-width = 2.262 * 5/sqrt(10)
        let mut s = OnlineStats::new();
        // Construct a sample with exactly mean 50 and sd 5:
        for &x in &[45.0, 55.0, 45.0, 55.0, 45.0, 55.0, 45.0, 55.0, 45.0, 55.0] {
            s.push(x);
        }
        let sd = s.std_dev();
        let ci = confidence_interval(&s, Level::P95);
        assert_eq!(ci.mean, 50.0);
        let want = 2.262 * sd / 10f64.sqrt();
        assert!((ci.half_width - want).abs() < 1e-9);
        assert!(ci.contains(50.0));
        assert!(!ci.contains(58.0));
    }

    #[test]
    fn single_observation_has_zero_width() {
        let mut s = OnlineStats::new();
        s.push(3.0);
        let ci = confidence_interval(&s, Level::P95);
        assert_eq!(ci.mean, 3.0);
        assert_eq!(ci.half_width, 0.0);
    }

    #[test]
    fn p99_wider_than_p95() {
        let mut s = OnlineStats::new();
        for i in 0..10 {
            s.push(i as f64);
        }
        let a = confidence_interval(&s, Level::P95);
        let b = confidence_interval(&s, Level::P99);
        assert!(b.half_width > a.half_width);
    }

    #[test]
    fn large_sample_uses_normal_limit() {
        let mut s = OnlineStats::new();
        for i in 0..100 {
            s.push((i % 10) as f64);
        }
        let ci = confidence_interval(&s, Level::P95);
        let want = 1.960 * s.std_dev() / 10.0;
        assert!((ci.half_width - want).abs() < 1e-9);
    }

    #[test]
    fn coverage_simulation() {
        // Empirically: ~95% of CIs built from n=10 normal samples should
        // cover the true mean.
        use crate::dist::Normal;
        use crate::rng::RngFactory;
        let d = Normal::new(10.0, 2.0);
        let f = RngFactory::new(0xC1);
        let mut covered = 0;
        let trials = 2_000;
        for rep in 0..trials {
            let mut rng = f.stream_indexed("ci", rep);
            let mut s = OnlineStats::new();
            for _ in 0..10 {
                s.push(d.sample(&mut rng));
            }
            if confidence_interval(&s, Level::P95).contains(10.0) {
                covered += 1;
            }
        }
        let rate = covered as f64 / trials as f64;
        assert!((rate - 0.95).abs() < 0.02, "coverage {rate}");
    }
}
