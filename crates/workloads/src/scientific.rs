//! The **scientific** workload (§V-B2): submission of Bag-of-Tasks jobs
//! following the Iosup et al. model for grid BoT applications.
//!
//! * **Peak time** (8 a.m. – 5 p.m.): job interarrival times are
//!   Weibull(shape 4.25, scale 7.86) seconds.
//! * **Off-peak**: the number of jobs per 30-minute window is
//!   Weibull(1.79, 24.16); jobs arrive at equal intervals inside the
//!   window (the paper's assumption).
//! * Every job carries `size` tasks, `size` drawn from the BoT size
//!   class Weibull(1.76, 2.11) (at least one task).
//! * Each task needs 300 s on an idle instance × U(1, 1.1);
//!   Ts = 700 s, rejection target 0, minimum utilization 80%; the
//!   simulated horizon is one day.
//!
//! The distribution *modes* the paper's analyzer uses (interarrival mode
//! 7.379 s, size-class mode 1.309, off-peak mode 15.298 jobs/30 min) are
//! exposed as constants and re-derived in tests.

use crate::traits::{ArrivalBatch, ArrivalProcess, ServiceModel};
use vmprov_des::dist::Weibull;
use vmprov_des::{SimRng, SimTime, DAY, HOUR};

/// Start of peak time (8 a.m.), seconds into the day.
pub const PEAK_START: f64 = 8.0 * HOUR;
/// End of peak time (5 p.m.), seconds into the day.
pub const PEAK_END: f64 = 17.0 * HOUR;
/// Off-peak window length: 30 minutes.
pub const OFFPEAK_WINDOW: f64 = 1800.0;

/// Mode of the peak interarrival distribution W(4.25, 7.86), seconds —
/// §V-B2 uses 7.379 s to estimate the peak arrival rate.
pub const PEAK_INTERARRIVAL_MODE: f64 = 7.379;
/// Mode of the BoT size-class distribution W(1.76, 2.11) — §V-B2 uses
/// 1.309 tasks per job.
pub const SIZE_CLASS_MODE: f64 = 1.309;
/// Mode of the off-peak jobs-per-window distribution W(1.79, 24.16) —
/// §V-B2 uses 15.298 jobs per 30-minute window.
pub const OFFPEAK_JOBS_MODE: f64 = 15.298;

/// Configuration of the scientific workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScientificConfig {
    /// Generation horizon (paper: one day, starting midnight).
    pub horizon: SimTime,
}

impl Default for ScientificConfig {
    fn default() -> Self {
        ScientificConfig {
            horizon: SimTime::from_secs(DAY),
        }
    }
}

/// The paper's service-time model for scientific tasks: 300 s × U(1, 1.1).
pub fn scientific_service_model() -> ServiceModel {
    ServiceModel::new(300.0, 0.10)
}

/// Whether second-of-day `t_day` falls in peak time.
pub fn is_peak(t_day: f64) -> bool {
    (PEAK_START..PEAK_END).contains(&t_day)
}

/// The scientific (BoT) arrival process.
#[derive(Debug, Clone)]
pub struct ScientificWorkload {
    config: ScientificConfig,
    interarrival: Weibull,
    jobs_per_window: Weibull,
    size_class: Weibull,
    /// Next job arrival instant (peak regime), or the cursor from which
    /// the next window is planned (off-peak regime).
    cursor: f64,
    /// Job arrival instants already planned for the current off-peak
    /// window, in reverse order (pop from the back).
    planned: Vec<f64>,
}

impl ScientificWorkload {
    /// Creates the process with `config`.
    pub fn new(config: ScientificConfig) -> Self {
        ScientificWorkload {
            config,
            interarrival: Weibull::new(4.25, 7.86),
            jobs_per_window: Weibull::new(1.79, 24.16),
            size_class: Weibull::new(1.76, 2.11),
            cursor: 0.0,
            planned: Vec::new(),
        }
    }

    /// Creates the paper's exact configuration (one day from midnight).
    pub fn paper() -> Self {
        Self::new(ScientificConfig::default())
    }

    /// The configuration in use.
    pub fn config(&self) -> &ScientificConfig {
        &self.config
    }

    /// Mean tasks per job after integer truncation:
    /// E[max(1, ⌊S⌋)] = 1 + Σ_{n≥2} P(S ≥ n) for the size class S.
    ///
    /// With W(1.76, 2.11) this is ≈ 1.617 tasks per job, which together
    /// with the interarrival mean reproduces the paper's ≈8286 tasks per
    /// simulated day.
    pub fn mean_tasks_per_job(&self) -> f64 {
        let mut e = 1.0;
        for n in 2..200 {
            let sf = self.size_class.survival(n as f64);
            e += sf;
            if sf < 1e-12 {
                break;
            }
        }
        e
    }

    fn draw_size(&mut self, rng: &mut SimRng) -> u64 {
        (self.size_class.sample(rng).floor() as u64).max(1)
    }

    /// Plans all job instants of the off-peak window starting at
    /// `window_start`: `n` jobs at equal intervals.
    fn plan_offpeak_window(&mut self, window_start: f64, rng: &mut SimRng) {
        let n = self.jobs_per_window.sample(rng).round() as u64;
        self.planned.clear();
        if n == 0 {
            return;
        }
        let gap = OFFPEAK_WINDOW / n as f64;
        // Reverse order so pop() yields increasing times.
        for i in (0..n).rev() {
            self.planned.push(window_start + i as f64 * gap);
        }
    }
}

impl ArrivalProcess for ScientificWorkload {
    fn next_batch(&mut self, rng: &mut SimRng) -> Option<ArrivalBatch> {
        let horizon = self.config.horizon.as_secs();
        loop {
            // Deliver any planned off-peak job first.
            if let Some(t) = self.planned.pop() {
                if t >= horizon {
                    return None;
                }
                return Some(ArrivalBatch {
                    time: SimTime::from_secs(t),
                    count: self.draw_size(rng),
                    spread: 0.0,
                });
            }
            if self.cursor >= horizon {
                return None;
            }
            let t_day = SimTime::from_secs(self.cursor).second_of_day();
            if is_peak(t_day) {
                let t = self.cursor + self.interarrival.sample(rng);
                self.cursor = t;
                // A draw can overshoot into off-peak; deliver it anyway
                // (jobs in flight at the boundary), unless past horizon.
                if t >= horizon {
                    return None;
                }
                return Some(ArrivalBatch {
                    time: SimTime::from_secs(t),
                    count: self.draw_size(rng),
                    spread: 0.0,
                });
            }
            // Off-peak: plan one 30-minute window, then loop to deliver.
            let window_start = self.cursor;
            let day_start = self.cursor - t_day;
            // Truncate the window at the peak boundary if it straddles it.
            let window_end = (window_start + OFFPEAK_WINDOW).min(if t_day < PEAK_START {
                day_start + PEAK_START
            } else {
                day_start + DAY
            });
            self.plan_offpeak_window(window_start, rng);
            self.planned.retain(|&t| t < window_end);
            self.cursor = window_end;
        }
    }

    fn model_rate(&self, t: SimTime) -> f64 {
        let tasks_per_job = self.mean_tasks_per_job();
        if is_peak(t.second_of_day()) {
            tasks_per_job / self.interarrival.mean()
        } else {
            tasks_per_job * self.jobs_per_window.mean() / OFFPEAK_WINDOW
        }
    }

    fn horizon(&self) -> SimTime {
        self.config.horizon
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmprov_des::RngFactory;

    #[test]
    fn paper_modes_are_consistent_with_distributions() {
        let w = ScientificWorkload::paper();
        assert!((w.interarrival.mode() - PEAK_INTERARRIVAL_MODE).abs() < 5e-3);
        assert!((w.size_class.mode() - SIZE_CLASS_MODE).abs() < 5e-3);
        // W(1.79, 24.16) mode: 24.16·((0.79)/1.79)^(1/1.79) ≈ 15.30.
        assert!((w.jobs_per_window.mode() - OFFPEAK_JOBS_MODE).abs() < 0.01);
    }

    #[test]
    fn peak_window_boundaries() {
        assert!(!is_peak(PEAK_START - 1.0));
        assert!(is_peak(PEAK_START));
        assert!(is_peak(PEAK_END - 1.0));
        assert!(!is_peak(PEAK_END));
    }

    #[test]
    fn batches_are_time_ordered_and_sized() {
        let mut w = ScientificWorkload::paper();
        let mut rng = RngFactory::new(3).stream("sci");
        let mut prev = -1.0;
        let mut total_tasks = 0u64;
        let mut jobs = 0u64;
        while let Some(b) = w.next_batch(&mut rng) {
            assert!(b.time.as_secs() >= prev, "out of order");
            assert!(b.count >= 1);
            assert_eq!(b.spread, 0.0);
            prev = b.time.as_secs();
            total_tasks += b.count;
            jobs += 1;
        }
        assert!(jobs > 0);
        // §V-C2: ≈8286 requests (tasks) per one-day simulation.
        assert!(
            (total_tasks as f64 - 8286.0).abs() / 8286.0 < 0.25,
            "daily tasks {total_tasks}, paper says ≈8286"
        );
    }

    #[test]
    fn daily_totals_match_paper_average() {
        // Average across replications should be close to 8286.
        let mut sum = 0.0;
        let reps = 20;
        for rep in 0..reps {
            let mut w = ScientificWorkload::paper();
            let mut rng = RngFactory::new(11).stream_indexed("sci", rep);
            let mut total = 0u64;
            while let Some(b) = w.next_batch(&mut rng) {
                total += b.count;
            }
            sum += total as f64;
        }
        let avg = sum / reps as f64;
        assert!(
            (avg - 8286.0).abs() / 8286.0 < 0.12,
            "avg daily tasks {avg}, paper says ≈8286"
        );
    }

    #[test]
    fn peak_is_denser_than_offpeak() {
        let mut w = ScientificWorkload::paper();
        let mut rng = RngFactory::new(5).stream("dens");
        let (mut peak_tasks, mut off_tasks) = (0u64, 0u64);
        while let Some(b) = w.next_batch(&mut rng) {
            if is_peak(b.time.second_of_day()) {
                peak_tasks += b.count;
            } else {
                off_tasks += b.count;
            }
        }
        // Peak: 9 h at ~0.26 task/s ≈ 8500·; off-peak: 15 h at ~0.022.
        let peak_rate = peak_tasks as f64 / (9.0 * HOUR);
        let off_rate = off_tasks as f64 / (15.0 * HOUR);
        assert!(
            peak_rate > 5.0 * off_rate,
            "peak {peak_rate} off {off_rate}"
        );
    }

    #[test]
    fn model_rate_levels() {
        let w = ScientificWorkload::paper();
        let peak = w.model_rate(SimTime::from_secs(10.0 * HOUR));
        let off = w.model_rate(SimTime::from_secs(2.0 * HOUR));
        // Peak ≈ 1.617 / 7.157 ≈ 0.226 tasks/s.
        assert!((peak - 0.226).abs() < 0.01, "peak rate {peak}");
        // Off-peak ≈ 1.617 × 21.48 / 1800 ≈ 0.0193 tasks/s.
        assert!((off - 0.0193).abs() < 0.002, "off-peak rate {off}");
    }

    #[test]
    fn respects_horizon() {
        let mut w = ScientificWorkload::new(ScientificConfig {
            horizon: SimTime::from_secs(3600.0),
        });
        let mut rng = RngFactory::new(9).stream("hz");
        while let Some(b) = w.next_batch(&mut rng) {
            assert!(b.time.as_secs() < 3600.0);
        }
    }
}
