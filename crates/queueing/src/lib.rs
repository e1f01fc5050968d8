//! # vmprov-queueing — analytical queueing models
//!
//! Closed-form and numerically exact steady-state solutions for the
//! per-instance queue the paper's *load predictor and performance
//! modeler* evaluates (§IV-B, Fig. 2, Algorithm 1):
//!
//! * [`MM1K`] — M/M/1/k with k = ⌊Ts/Tr⌋ (Eq. 1 of the paper), the model
//!   the paper names for each virtualized application instance;
//! * [`GG1K`] — a two-moment GI/G/1/K diffusion approximation, the
//!   default backend: round-robin over m instances feeds each instance
//!   a *smoothed* (Erlang-m, ca² = 1/m) arrival stream, and the
//!   evaluation's service times are nearly deterministic;
//! * [`GiM1K`] — the exact embedded chain of GI/M/1/K, which isolates
//!   the arrival-side effect and cross-checks the other two.
//!
//! All models report a common [`QueueMetrics`] record so the provisioning
//! logic can swap analytic backends freely.

#![warn(missing_docs)]

pub mod gg1k;
pub mod gim1k;
pub(crate) mod linalg;
pub mod mm1k;

pub use gg1k::GG1K;
pub use gim1k::{GiM1K, InterarrivalKind};
pub use mm1k::MM1K;

/// Steady-state performance metrics shared by every model in this crate.
///
/// Time units follow the inputs: if rates are per second, times are in
/// seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueMetrics {
    /// Fraction of time each server is busy, in `[0, 1]`.
    pub utilization: f64,
    /// Mean number of requests in the system (queue + service), L.
    pub mean_in_system: f64,
    /// Mean number of requests waiting (excluding those in service), Lq.
    pub mean_waiting: f64,
    /// Mean response time of an *accepted* request (wait + service), W.
    pub mean_response_time: f64,
    /// Mean waiting time of an accepted request, Wq.
    pub mean_waiting_time: f64,
    /// Rate at which requests complete service (accepted throughput).
    pub throughput: f64,
    /// Probability that an arriving request is rejected/blocked
    /// (0 for infinite-capacity systems).
    pub blocking_probability: f64,
}

impl QueueMetrics {
    /// Sanity-checks the invariants every steady-state solution must obey.
    /// Used by tests; cheap enough to call from debug assertions.
    pub fn validate(&self) -> Result<(), String> {
        let p = self.blocking_probability;
        if !(0.0..=1.0).contains(&p) || p.is_nan() {
            return Err(format!("blocking probability {p} outside [0,1]"));
        }
        if !(0.0..=1.0 + 1e-9).contains(&self.utilization) {
            return Err(format!("utilization {} outside [0,1]", self.utilization));
        }
        for (name, v) in [
            ("mean_in_system", self.mean_in_system),
            ("mean_waiting", self.mean_waiting),
            ("mean_response_time", self.mean_response_time),
            ("mean_waiting_time", self.mean_waiting_time),
            ("throughput", self.throughput),
        ] {
            if v < -1e-9 || v.is_nan() {
                return Err(format!("{name} = {v} is negative or NaN"));
            }
        }
        if self.mean_waiting > self.mean_in_system + 1e-9 {
            return Err("Lq > L".to_string());
        }
        if self.mean_waiting_time > self.mean_response_time + 1e-9 {
            return Err("Wq > W".to_string());
        }
        Ok(())
    }
}

/// Errors from model constructors and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum QueueError {
    /// A rate or size parameter was zero, negative, or non-finite.
    InvalidParameter(String),
    /// A numerical solve failed (a singular embedded-chain system).
    Numerical(String),
}

impl std::fmt::Display for QueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueueError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            QueueError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
        }
    }
}

impl std::error::Error for QueueError {}

pub(crate) fn check_positive(name: &str, v: f64) -> Result<(), QueueError> {
    if v > 0.0 && v.is_finite() {
        Ok(())
    } else {
        Err(QueueError::InvalidParameter(format!(
            "{name} must be positive and finite, got {v}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_validation_catches_bad_values() {
        let good = QueueMetrics {
            utilization: 0.5,
            mean_in_system: 1.0,
            mean_waiting: 0.5,
            mean_response_time: 2.0,
            mean_waiting_time: 1.0,
            throughput: 0.5,
            blocking_probability: 0.0,
        };
        assert!(good.validate().is_ok());

        let mut bad = good;
        bad.blocking_probability = 1.5;
        assert!(bad.validate().is_err());

        let mut bad = good;
        bad.mean_waiting = 2.0; // Lq > L
        assert!(bad.validate().is_err());

        let mut bad = good;
        bad.utilization = -0.1;
        assert!(bad.validate().is_err());

        let mut bad = good;
        bad.mean_response_time = f64::NAN;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn check_positive_rejects_bad_inputs() {
        assert!(check_positive("x", 1.0).is_ok());
        assert!(check_positive("x", 0.0).is_err());
        assert!(check_positive("x", -1.0).is_err());
        assert!(check_positive("x", f64::INFINITY).is_err());
        assert!(check_positive("x", f64::NAN).is_err());
    }
}
