//! The **workload analyzer** (§IV-A): generates predictions of the
//! request arrival rate and alerts the load predictor before the rate is
//! expected to change.
//!
//! The paper's evaluation uses a *time-based prediction model* — the
//! analyzer knows the generative workload model (the sinusoid-plus-table
//! web model; the mode-based Bag-of-Tasks estimates with the 1.2× / 2.6×
//! safety factors). [`ScheduleAnalyzer`] implements that: it wraps a
//! deterministic rate schedule and predicts the *envelope maximum* over
//! a look-ahead window so capacity is in place before ramps (the alert
//! "must be issued before the expected time for the rate to change").
//!
//! Analyzers that learn λ from observed arrivals instead mount a
//! [`RateEstimator`](crate::estimator::RateEstimator) behind
//! [`EstimatorAnalyzer`](crate::estimator::EstimatorAnalyzer).

use std::sync::Arc;
use vmprov_des::SimTime;

/// A source of arrival-rate predictions driving provisioning decisions.
pub trait WorkloadAnalyzer: Send {
    /// Records that `arrivals` requests arrived during the monitoring
    /// window of length `window_len` seconds ending at `window_end`.
    /// Schedule-based analyzers may ignore observations.
    fn observe(&mut self, window_end: SimTime, arrivals: u64, window_len: f64);

    /// Predicted mean arrival rate (requests/second) over
    /// `[now, now + horizon]`.
    fn predict_rate(&mut self, now: SimTime, horizon: f64) -> f64;

    /// The next instant at which the prediction should be re-evaluated
    /// (the analyzer's alert to the load predictor).
    fn next_alert(&self, now: SimTime) -> SimTime;
}

/// Schedule-based analyzer: wraps a known deterministic rate function
/// (the generative workload model) and predicts the envelope maximum
/// over the look-ahead window, inflated by a safety margin.
#[derive(Clone)]
pub struct ScheduleAnalyzer {
    rate_fn: Arc<dyn Fn(SimTime) -> f64 + Send + Sync>,
    /// Interval between prediction updates (alerts).
    update_interval: f64,
    /// Sampling step when scanning the rate function for its maximum.
    scan_step: f64,
    /// Relative safety margin added to the predicted rate.
    safety_margin: f64,
}

impl ScheduleAnalyzer {
    /// Creates an analyzer over `rate_fn`, updating every
    /// `update_interval` seconds, with a relative `safety_margin`
    /// (0.0 = none).
    pub fn new(
        rate_fn: Arc<dyn Fn(SimTime) -> f64 + Send + Sync>,
        update_interval: f64,
        safety_margin: f64,
    ) -> Self {
        assert!(update_interval > 0.0);
        assert!(safety_margin >= 0.0);
        ScheduleAnalyzer {
            rate_fn,
            update_interval,
            scan_step: (update_interval / 30.0).max(1.0),
            safety_margin,
        }
    }
}

impl std::fmt::Debug for ScheduleAnalyzer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleAnalyzer")
            .field("update_interval", &self.update_interval)
            .field("safety_margin", &self.safety_margin)
            .finish()
    }
}

impl WorkloadAnalyzer for ScheduleAnalyzer {
    fn observe(&mut self, _window_end: SimTime, _arrivals: u64, _window_len: f64) {
        // Pure schedule: the model, not the observations, drives it.
    }

    fn predict_rate(&mut self, now: SimTime, horizon: f64) -> f64 {
        let mut t = now.as_secs();
        let end = t + horizon.max(0.0);
        let mut peak = 0.0f64;
        while t <= end {
            peak = peak.max((self.rate_fn)(SimTime::from_secs(t)));
            t += self.scan_step;
        }
        peak = peak.max((self.rate_fn)(SimTime::from_secs(end)));
        peak * (1.0 + self.safety_margin)
    }

    fn next_alert(&self, now: SimTime) -> SimTime {
        now + self.update_interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn schedule_analyzer_takes_envelope_max() {
        // Rate ramps linearly 100 → 200 over 1000 s.
        let mut a = ScheduleAnalyzer::new(
            Arc::new(|t: SimTime| 100.0 + 0.1 * t.as_secs().min(1000.0)),
            300.0,
            0.0,
        );
        // Looking ahead 300 s from t=0, the max is at the window end.
        let p = a.predict_rate(t(0.0), 300.0);
        assert!((p - 130.0).abs() < 2.0, "prediction {p}");
        // Zero horizon degenerates to the current rate.
        let p = a.predict_rate(t(500.0), 0.0);
        assert!((p - 150.0).abs() < 1e-9);
    }

    #[test]
    fn schedule_analyzer_safety_margin() {
        let mut a = ScheduleAnalyzer::new(Arc::new(|_| 100.0), 60.0, 0.2);
        assert!((a.predict_rate(t(0.0), 60.0) - 120.0).abs() < 1e-9);
        assert_eq!(a.next_alert(t(0.0)), t(60.0));
    }
}
