//! Online arrival-rate estimation: driving Algorithm 1 from *observed*
//! arrivals instead of the paper's oracle λ.
//!
//! The paper's analyzer knows the generative workload model (§V-B); a
//! real provisioner replaying a datacenter trace does not. This module
//! supplies the missing piece: estimators that consume the monitoring
//! loop's per-window arrival counts and expose a current rate estimate,
//! plus [`EstimatorAnalyzer`], the adapter that mounts any estimator
//! behind the [`WorkloadAnalyzer`] seam so
//! [`AdaptivePolicy`](crate::policy::AdaptivePolicy) runs unchanged on
//! estimated λ.
//!
//! Two estimators:
//!
//! * [`SlidingWindowMle`] — the maximum-likelihood rate of a Poisson
//!   stream over a trailing time window: λ̂ = Σ arrivals / Σ window
//!   length, over the observations whose windows fall (at least
//!   partially) inside the last `window_secs` seconds of coverage. For
//!   a stationary Poisson stream this is unbiased with standard error
//!   √(λ/T), T the window length — the convergence property test pins
//!   exactly that envelope.
//! * [`EwmaRate`] — exponentially weighted moving average of per-window
//!   rates: level ← level + α·(rate − level). Cheaper, never forgets
//!   completely, and lags a step change by a factor (1−α) per window —
//!   the lag test pins the closed form.

use crate::analyzer::WorkloadAnalyzer;
use std::collections::VecDeque;
use vmprov_des::SimTime;

/// An online arrival-rate estimator fed by the monitoring loop.
///
/// Object-safe on purpose: scenario decoding picks the estimator at
/// runtime and [`EstimatorAnalyzer`] stores it boxed off the hot path
/// (one `observe` per monitoring interval, not per request).
pub trait RateEstimator: Send {
    /// Records that `arrivals` requests arrived during a monitoring
    /// window of `window_len` seconds.
    fn observe(&mut self, arrivals: u64, window_len: f64);

    /// Current rate estimate (requests/second), or `None` before any
    /// observation.
    fn rate(&self) -> Option<f64>;
}

/// Sliding-window Poisson MLE: λ̂ = Σ arrivals / Σ window length over
/// the trailing `window_secs` seconds of observed coverage.
///
/// The window is measured in time, not in observations, so it is robust
/// to a changing monitoring interval. The estimator reports the raw MLE;
/// headroom is the adapter's business, not the estimator's.
#[derive(Debug, Clone)]
pub struct SlidingWindowMle {
    window_secs: f64,
    /// Retained (arrivals, window_len) observations, oldest first.
    samples: VecDeque<(u64, f64)>,
    sum_arrivals: u64,
    sum_len: f64,
}

impl SlidingWindowMle {
    /// Creates an estimator over the trailing `window_secs` seconds.
    pub fn new(window_secs: f64) -> Self {
        assert!(window_secs > 0.0 && window_secs.is_finite());
        SlidingWindowMle {
            window_secs,
            samples: VecDeque::new(),
            sum_arrivals: 0,
            sum_len: 0.0,
        }
    }

    /// The configured window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window_secs
    }
}

impl RateEstimator for SlidingWindowMle {
    fn observe(&mut self, arrivals: u64, window_len: f64) {
        assert!(window_len > 0.0 && window_len.is_finite());
        self.samples.push_back((arrivals, window_len));
        self.sum_arrivals += arrivals;
        self.sum_len += window_len;
        // Evict whole observations that no longer overlap the trailing
        // window. At least one observation always survives.
        while let Some(&(a, len)) = self.samples.front() {
            if self.sum_len - len < self.window_secs || self.samples.len() == 1 {
                break;
            }
            self.samples.pop_front();
            self.sum_arrivals -= a;
            self.sum_len -= len;
        }
    }

    fn rate(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum_arrivals as f64 / self.sum_len)
        }
    }
}

/// Exponentially weighted moving average of per-window rates.
#[derive(Debug, Clone)]
pub struct EwmaRate {
    alpha: f64,
    level: Option<f64>,
}

impl EwmaRate {
    /// Creates the estimator with smoothing factor `alpha` in (0, 1].
    /// The first observation initializes the level directly.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0);
        EwmaRate { alpha, level: None }
    }
}

impl RateEstimator for EwmaRate {
    fn observe(&mut self, arrivals: u64, window_len: f64) {
        assert!(window_len > 0.0 && window_len.is_finite());
        let rate = arrivals as f64 / window_len;
        self.level = Some(match self.level {
            None => rate,
            Some(level) => level + self.alpha * (rate - level),
        });
    }

    fn rate(&self) -> Option<f64> {
        self.level
    }
}

/// Mounts a [`RateEstimator`] behind the [`WorkloadAnalyzer`] seam:
/// `observe` feeds the estimator, `predict_rate` reports the estimate
/// inflated by a relative `headroom` (the estimator's standard error is
/// what the headroom buys slack against), and until the first
/// observation arrives the prediction falls back to `prior_rate` — the
/// operator's declared capacity-planning rate, exactly what a real
/// deployment would provision from before monitoring data exists.
pub struct EstimatorAnalyzer {
    estimator: Box<dyn RateEstimator>,
    prior_rate: f64,
    headroom: f64,
    update_interval: f64,
}

impl EstimatorAnalyzer {
    /// Creates the adapter. `prior_rate ≥ 0`, `headroom ≥ 0`,
    /// `update_interval > 0`.
    pub fn new(
        estimator: Box<dyn RateEstimator>,
        prior_rate: f64,
        headroom: f64,
        update_interval: f64,
    ) -> Self {
        assert!(prior_rate >= 0.0 && prior_rate.is_finite());
        assert!(headroom >= 0.0);
        assert!(update_interval > 0.0);
        EstimatorAnalyzer {
            estimator,
            prior_rate,
            headroom,
            update_interval,
        }
    }
}

impl std::fmt::Debug for EstimatorAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimatorAnalyzer")
            .field("prior_rate", &self.prior_rate)
            .field("headroom", &self.headroom)
            .field("update_interval", &self.update_interval)
            .finish()
    }
}

impl WorkloadAnalyzer for EstimatorAnalyzer {
    fn observe(&mut self, _window_end: SimTime, arrivals: u64, window_len: f64) {
        self.estimator.observe(arrivals, window_len);
    }

    fn predict_rate(&mut self, _now: SimTime, _horizon: f64) -> f64 {
        self.estimator.rate().unwrap_or(self.prior_rate) * (1.0 + self.headroom)
    }

    fn next_alert(&self, now: SimTime) -> SimTime {
        now + self.update_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simulates a stationary Poisson stream at `rate` and feeds the
    /// estimator per-window counts; returns the final estimate.
    fn feed_poisson(
        est: &mut dyn RateEstimator,
        rate: f64,
        window_len: f64,
        windows: u32,
        seed: u64,
    ) {
        let mut rng = vmprov_des::RngFactory::new(seed).stream("est-poisson");
        let mut t = 0.0f64;
        for w in 0..windows {
            let end = (w as f64 + 1.0) * window_len;
            let mut count = 0u64;
            while t < end {
                t += -rng.uniform01_open_left().ln() / rate;
                if t < end {
                    count += 1;
                }
            }
            est.observe(count, window_len);
        }
    }

    #[test]
    fn mle_converges_on_stationary_poisson() {
        // Property: for a stationary Poisson stream, the windowed MLE
        // lands within its own sampling error of the true λ. Standard
        // error is √(λ/T) for window length T, so 5 standard errors is
        // a comfortably non-flaky bound that still fails on any
        // systematic bias (e.g. off-by-one eviction, length mismatch).
        vmprov_check::cases(32, |g| {
            let rate = g.f64_in(0.5..200.0);
            let window_len = g.f64_in(10.0..120.0);
            let retained = g.usize_in(5..40) as f64;
            let window_secs = retained * window_len;
            let mut est = SlidingWindowMle::new(window_secs);
            // Enough windows that the trailing window is fully covered.
            feed_poisson(&mut est, rate, window_len, retained as u32 * 3, g.u64());
            let got = est.rate().expect("estimate after data");
            let se = (rate / window_secs).sqrt();
            assert!(
                (got - rate).abs() < 5.0 * se + 1e-9,
                "λ={rate:.3} T={window_secs:.0} λ̂={got:.3} (se {se:.4})"
            );
        });
    }

    #[test]
    fn mle_window_evicts_stale_history() {
        let mut est = SlidingWindowMle::new(100.0);
        // Old regime: 10/s for 10 windows of 60 s.
        for _ in 0..10 {
            est.observe(600, 60.0);
        }
        // New regime: 100/s. After two 60 s windows the 100 s trailing
        // window holds only new-regime observations.
        est.observe(6000, 60.0);
        est.observe(6000, 60.0);
        assert_eq!(est.rate(), Some(100.0));
    }

    #[test]
    fn mle_keeps_at_least_one_observation() {
        let mut est = SlidingWindowMle::new(5.0);
        est.observe(120, 60.0); // window longer than window_secs
        assert_eq!(est.rate(), Some(2.0));
        est.observe(240, 60.0);
        assert_eq!(est.rate(), Some(4.0), "only the newest survives");
    }

    #[test]
    fn ewma_step_lag_matches_closed_form() {
        // Pin the lag law: after a step a → b, m windows later the
        // level is b − (b−a)(1−α)^m. Deterministic inputs make this
        // exact, so any smoothing change breaks the test loudly.
        let (a, b, alpha) = (10.0, 50.0, 0.3);
        let mut est = EwmaRate::new(alpha);
        for _ in 0..5 {
            est.observe((a * 60.0) as u64, 60.0);
        }
        assert_eq!(est.rate(), Some(a), "converged pre-step");
        for m in 1..=20u32 {
            est.observe((b * 60.0) as u64, 60.0);
            let want = b - (b - a) * (1.0 - alpha).powi(m as i32);
            let got = est.rate().unwrap();
            assert!((got - want).abs() < 1e-9, "m={m}: {got} vs {want}");
        }
        // The residual lag at m=20 is still nonzero: EWMA never fully
        // arrives, unlike the windowed MLE.
        assert!(est.rate().unwrap() < b);
    }

    #[test]
    fn mle_fully_recovers_after_a_step_unlike_ewma() {
        let mut mle = SlidingWindowMle::new(120.0);
        let mut ewma = EwmaRate::new(0.2);
        for _ in 0..10 {
            mle.observe(600, 60.0);
            ewma.observe(600, 60.0);
        }
        for _ in 0..4 {
            mle.observe(3000, 60.0);
            ewma.observe(3000, 60.0);
        }
        // MLE window (120 s = two observations) is past the step: exact.
        assert_eq!(mle.rate(), Some(50.0));
        // EWMA still lags below the new level.
        let e = ewma.rate().unwrap();
        assert!(e < 50.0 && e > 10.0, "ewma {e}");
    }

    #[test]
    fn analyzer_adapter_prior_headroom_and_alerts() {
        let mut an = EstimatorAnalyzer::new(Box::new(EwmaRate::new(0.5)), 40.0, 0.1, 300.0);
        let t = SimTime::from_secs(0.0);
        // No data yet: prior × headroom.
        assert!((an.predict_rate(t, 60.0) - 44.0).abs() < 1e-12);
        an.observe(SimTime::from_secs(60.0), 1200, 60.0);
        assert!((an.predict_rate(t, 60.0) - 22.0).abs() < 1e-12);
        assert_eq!(an.next_alert(t), SimTime::from_secs(300.0));
    }
}
