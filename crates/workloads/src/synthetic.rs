//! Synthetic arrival processes for tests, ablations, and stress cases
//! the production models do not cover: homogeneous Poisson traffic and
//! unmodeled shifts (step, flash crowd).

use crate::traits::{ArrivalBatch, ArrivalProcess};
use vmprov_des::dist::{Distribution, Exponential};
use vmprov_des::{SimRng, SimTime};

/// Homogeneous Poisson arrivals at `rate` requests/second.
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    rate: f64,
    horizon: SimTime,
    cursor: f64,
}

impl PoissonProcess {
    /// Creates the process. `rate > 0`.
    pub fn new(rate: f64, horizon: SimTime) -> Self {
        assert!(rate > 0.0 && rate.is_finite());
        PoissonProcess {
            rate,
            horizon,
            cursor: 0.0,
        }
    }
}

impl ArrivalProcess for PoissonProcess {
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        let gap = Exponential::new(self.rate).sample(rng);
        self.cursor += gap;
        if self.cursor >= self.horizon.as_secs() {
            return None;
        }
        Some(ArrivalBatch {
            time: SimTime::from_secs(self.cursor),
            count: 1,
            spread: 0.0,
        })
    }

    /// Burst override: every batch has `spread = 0`, so the default's
    /// stop-after-spread rule never triggers and a run is simply `max`
    /// consecutive gap draws — generated here in one tight loop (the
    /// exponential is hoisted out) with the exact per-gap draw order of
    /// [`next_batch`](Self::next_batch).
    fn next_batch_run(
        &mut self,
        rng: &mut SimRng,
        max: usize,
        out: &mut Vec<ArrivalBatch>,
    ) -> usize {
        let dist = Exponential::new(self.rate);
        let horizon = self.horizon.as_secs();
        let mut n = 0;
        while n < max {
            self.cursor += dist.sample(rng);
            if self.cursor >= horizon {
                break;
            }
            out.push(ArrivalBatch {
                time: SimTime::from_secs(self.cursor),
                count: 1,
                spread: 0.0,
            });
            n += 1;
        }
        n
    }

    fn model_rate(&self, _t: SimTime) -> f64 {
        self.rate
    }

    fn horizon(&self) -> SimTime {
        self.horizon
    }
}

/// Piecewise-constant rate: a list of `(start_time, rate)` breakpoints.
/// Arrivals are Poisson within each piece. Covers step loads and flash
/// crowds (a tall short piece).
#[derive(Debug, Clone)]
pub struct PiecewiseRateProcess {
    pieces: Vec<(f64, f64)>,
    horizon: SimTime,
    cursor: f64,
}

impl PiecewiseRateProcess {
    /// Creates the process from `(start, rate)` pieces.
    ///
    /// # Panics
    /// Panics unless pieces start at 0, are strictly ordered, and have
    /// non-negative finite rates.
    pub fn new(pieces: Vec<(f64, f64)>, horizon: SimTime) -> Self {
        assert!(
            !pieces.is_empty() && pieces[0].0 == 0.0,
            "must start at t=0"
        );
        for w in pieces.windows(2) {
            assert!(w[0].0 < w[1].0, "breakpoints must increase");
        }
        assert!(pieces.iter().all(|&(_, r)| r >= 0.0 && r.is_finite()));
        PiecewiseRateProcess {
            pieces,
            horizon,
            cursor: 0.0,
        }
    }

    /// A step load: `low` until `step_at`, then `high`.
    pub fn step(low: f64, high: f64, step_at: f64, horizon: SimTime) -> Self {
        Self::new(vec![(0.0, low), (step_at, high)], horizon)
    }

    /// A flash crowd: `base` rate with a burst of `peak` during
    /// `[burst_start, burst_start + burst_len)`.
    pub fn flash_crowd(
        base: f64,
        peak: f64,
        burst_start: f64,
        burst_len: f64,
        horizon: SimTime,
    ) -> Self {
        Self::new(
            vec![
                (0.0, base),
                (burst_start, peak),
                (burst_start + burst_len, base),
            ],
            horizon,
        )
    }

    fn piece_at(&self, t: f64) -> usize {
        match self
            .pieces
            .binary_search_by(|&(s, _)| s.partial_cmp(&t).unwrap())
        {
            Ok(i) => i,
            Err(i) => i - 1,
        }
    }

    fn piece_end(&self, i: usize) -> f64 {
        self.pieces
            .get(i + 1)
            .map_or(self.horizon.as_secs(), |&(s, _)| s)
    }
}

impl ArrivalProcess for PiecewiseRateProcess {
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        // Thin within the current piece; skip zero-rate pieces.
        loop {
            if self.cursor >= self.horizon.as_secs() {
                return None;
            }
            let i = self.piece_at(self.cursor);
            let rate = self.pieces[i].1;
            let end = self.piece_end(i);
            if rate <= 0.0 {
                self.cursor = end;
                continue;
            }
            let gap = Exponential::new(rate).sample(rng);
            let t = self.cursor + gap;
            if t >= end {
                // No arrival in the remainder of this piece; restart the
                // exponential clock at the boundary (memorylessness).
                self.cursor = end;
                continue;
            }
            self.cursor = t;
            if t >= self.horizon.as_secs() {
                return None;
            }
            return Some(ArrivalBatch {
                time: SimTime::from_secs(t),
                count: 1,
                spread: 0.0,
            });
        }
    }

    fn model_rate(&self, t: SimTime) -> f64 {
        self.pieces[self.piece_at(t.as_secs().min(self.horizon.as_secs()))].1
    }

    fn horizon(&self) -> SimTime {
        self.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprov_des::RngFactory;

    fn drain(p: &mut dyn ArrivalProcess, rng: &mut SimRng) -> Vec<f64> {
        let mut out = vec![];
        while let Some(b) = p.next_batch(rng) {
            assert_eq!(b.count, 1);
            out.push(b.time.as_secs());
        }
        out
    }

    #[test]
    fn poisson_count_matches_rate() {
        let mut p = PoissonProcess::new(5.0, SimTime::from_secs(10_000.0));
        let mut rng = RngFactory::new(1).stream("poisson");
        let times = drain(&mut p, &mut rng);
        let n = times.len() as f64;
        assert!((n - 50_000.0).abs() < 3.0 * 50_000f64.sqrt(), "n = {n}");
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn step_changes_density() {
        let mut p = PiecewiseRateProcess::step(1.0, 10.0, 500.0, SimTime::from_secs(1000.0));
        let mut rng = RngFactory::new(2).stream("step");
        let times = drain(&mut p, &mut rng);
        let before = times.iter().filter(|&&t| t < 500.0).count() as f64;
        let after = times.iter().filter(|&&t| t >= 500.0).count() as f64;
        assert!((before - 500.0).abs() < 100.0, "before {before}");
        assert!((after - 5000.0).abs() < 300.0, "after {after}");
        assert_eq!(p.model_rate(SimTime::from_secs(10.0)), 1.0);
        assert_eq!(p.model_rate(SimTime::from_secs(700.0)), 10.0);
    }

    #[test]
    fn flash_crowd_burst_visible() {
        let mut p =
            PiecewiseRateProcess::flash_crowd(2.0, 50.0, 100.0, 20.0, SimTime::from_secs(300.0));
        let mut rng = RngFactory::new(3).stream("flash");
        let times = drain(&mut p, &mut rng);
        let burst = times
            .iter()
            .filter(|&&t| (100.0..120.0).contains(&t))
            .count() as f64;
        assert!((burst - 1000.0).abs() < 150.0, "burst {burst}");
    }

    #[test]
    fn zero_rate_piece_produces_nothing() {
        let mut p =
            PiecewiseRateProcess::new(vec![(0.0, 0.0), (100.0, 5.0)], SimTime::from_secs(200.0));
        let mut rng = RngFactory::new(4).stream("zero");
        let times = drain(&mut p, &mut rng);
        assert!(times.iter().all(|&t| t >= 100.0));
        assert!(!times.is_empty());
    }

    #[test]
    #[should_panic(expected = "must start at t=0")]
    fn piecewise_must_start_at_zero() {
        PiecewiseRateProcess::new(vec![(1.0, 2.0)], SimTime::from_secs(10.0));
    }

    #[test]
    fn poisson_gaps_are_direct_inversion() {
        // Every gap is -ln(U)/rate drawn straight off the rng; the
        // golden summaries pin this stream.
        let mut p = PoissonProcess::new(5.0, SimTime::from_secs(1_000.0));
        let mut rng = RngFactory::new(11).stream("bitid");
        let mut reference = rng.clone();
        let mut cursor = 0.0;
        while let Some(b) = p.next_batch(&mut rng) {
            cursor += -reference.uniform01_open_left().ln() / 5.0;
            assert_eq!(b.time.as_secs().to_bits(), cursor.to_bits());
        }
    }
}
