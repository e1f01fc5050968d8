//! Workload abstractions.
//!
//! A workload is a stream of *arrival batches*: `count` independent
//! requests that become visible at `time` and are spread uniformly over
//! the following `spread` seconds (0 = simultaneous, as for the tasks of
//! one Bag-of-Tasks job). Generators also expose the ground-truth mean
//! rate of their underlying model, which schedule-based workload
//! analyzers use the way the paper's analyzer uses its knowledge of the
//! workload model (§V-B: "a time-based prediction model").

use vmprov_des::{SimRng, SimTime};

/// A group of requests arriving together.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalBatch {
    /// When the batch becomes visible.
    pub time: SimTime,
    /// Number of independent requests in the batch.
    pub count: u64,
    /// Window (seconds) over which the requests are spread uniformly
    /// starting at `time`. 0 means all arrive at `time`.
    pub spread: f64,
}

/// A stochastic arrival process with a known underlying model.
///
/// Deliberately object-safe: a run owns its workload as a
/// `Box<dyn ArrivalProcess + Send>` and calls it once per pulled run of
/// batches, not once per request, so the virtual call is off the
/// per-request path.
pub trait ArrivalProcess {
    /// Draws the next batch, or `None` once the horizon is exhausted.
    /// Batches are produced in non-decreasing time order.
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch>;

    /// Pulls up to `max` batches into `out` in one call — the burst
    /// seam the batched simulator hot path drinks from. Returns the
    /// number of batches appended; 0 means the horizon is exhausted.
    ///
    /// The default forwards to [`next_batch`](Self::next_batch) and
    /// stops early after appending the first batch with `spread > 0`.
    /// That stopping rule is what keeps a run-pulling consumer on the
    /// *same RNG stream* as a one-at-a-time consumer: `spread = 0`
    /// batches draw nothing at expansion time, so their generation
    /// draws sit back to back in the scalar stream exactly as a
    /// contiguous pull consumes them, while a `spread > 0` batch
    /// interposes its per-request spread draws before the next batch
    /// is generated — so the pull must stop there. Implementations
    /// overriding this for speed must preserve both the rule and the
    /// per-batch draw order.
    fn next_batch_run(
        &mut self,
        rng: &mut SimRng,
        max: usize,
        out: &mut Vec<ArrivalBatch>,
    ) -> usize {
        let mut n = 0;
        while n < max {
            match self.next_batch(rng) {
                Some(b) => {
                    out.push(b);
                    n += 1;
                    if b.spread > 0.0 {
                        break;
                    }
                }
                None => break,
            }
        }
        n
    }

    /// Ground-truth mean arrival rate (requests/second) of the
    /// underlying model at time `t` — what an oracle predictor would
    /// report.
    fn model_rate(&self, t: SimTime) -> f64;

    /// End of the generation horizon.
    fn horizon(&self) -> SimTime;
}

/// Per-request service demand: a base time inflated by a uniform factor,
/// `base × (1 + U(0, inflation))` — the heterogeneity model of §V-B
/// ("we added a uniformly-generated value between 0% and 10% to the
/// processing time for each request").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServiceModel {
    /// Service time of the request on an idle instance, before inflation.
    pub base: f64,
    /// Upper bound of the relative uniform inflation (paper: 0.10).
    pub inflation: f64,
}

impl ServiceModel {
    /// Creates the model. `base > 0`, `inflation ≥ 0`.
    pub fn new(base: f64, inflation: f64) -> Self {
        assert!(base > 0.0 && base.is_finite(), "base must be positive");
        assert!(
            (0.0..=10.0).contains(&inflation),
            "inflation must be a sane relative factor"
        );
        ServiceModel { base, inflation }
    }

    /// Draws one service time.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.base * (1.0 + rng.uniform(0.0, self.inflation))
    }

    /// Mean service time: `base (1 + inflation/2)`.
    pub fn mean(&self) -> f64 {
        self.base * (1.0 + 0.5 * self.inflation)
    }

    /// Squared coefficient of variation of the service time.
    ///
    /// For `base (1 + U(0, f))`: Var = base² f²/12, so
    /// SCV = (f²/12)/(1 + f/2)². At f = 0.1 this is ≈ 0.00076 — the
    /// near-deterministic regime motivating the `GG1K` analytic backend.
    pub fn scv(&self) -> f64 {
        let m = 1.0 + 0.5 * self.inflation;
        (self.inflation * self.inflation / 12.0) / (m * m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprov_des::RngFactory;

    #[test]
    fn service_model_moments() {
        let s = ServiceModel::new(0.1, 0.1);
        assert!((s.mean() - 0.105).abs() < 1e-12);
        let mut rng = RngFactory::new(1).stream("svc");
        let n = 200_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = s.sample(&mut rng);
            assert!((0.1..0.11).contains(&x), "sample {x} out of range");
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        let var = sum2 / n as f64 - mean * mean;
        assert!((mean - 0.105).abs() < 1e-4);
        let scv = var / (mean * mean);
        assert!((scv - s.scv()).abs() < 1e-4, "scv {scv} vs {}", s.scv());
        assert!(s.scv() < 0.001);
    }

    #[test]
    fn zero_inflation_is_deterministic() {
        let s = ServiceModel::new(300.0, 0.0);
        let mut rng = RngFactory::new(2).stream("svc0");
        for _ in 0..10 {
            assert_eq!(s.sample(&mut rng), 300.0);
        }
        assert_eq!(s.mean(), 300.0);
        assert_eq!(s.scv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "base must be positive")]
    fn rejects_nonpositive_base() {
        ServiceModel::new(0.0, 0.1);
    }
}
