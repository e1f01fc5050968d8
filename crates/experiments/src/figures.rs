//! One entry point per table/figure of the paper's evaluation section.
//!
//! | artifact | function | paper content |
//! |---|---|---|
//! | Table II | [`table2`] | per-weekday web min/max rates |
//! | Fig. 3 | [`fig3_series`] | web arrival-rate curve over one week |
//! | Fig. 4 | [`fig4_series`] | scientific arrival-rate curve over one day |
//! | Fig. 5 | [`fig5_spec`] | web: adaptive vs Static-{50..150}, panels a–d |
//! | Fig. 6 | [`fig6_spec`] | scientific: adaptive vs Static-{15..75}, panels a–d |
//!
//! Figs. 5 and 6 are job specs: `repro` queues both on one
//! [`Campaign`](crate::campaign::Campaign).

use crate::scenario::{fig5_scenarios, fig6_scenarios, Scenario};
use vmprov_des::{RngFactory, SimTime, DAY, HOUR, WEEK};
use vmprov_workloads::{
    ArrivalProcess, ScientificWorkload, WebWorkload, WEEKDAY_NAMES, WEEKDAY_RATES,
};

/// Execution scale of the figure experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// CI scale: a half-hour web horizon, one replication — finishes in
    /// minutes even in debug builds. Checks plumbing, not statistics.
    Smoke,
    /// Development scale: one simulated day, one replication (minutes on
    /// a laptop core).
    Quick,
    /// Reduced paper scale: the full horizons with 3 replications
    /// (the single-core default documented in EXPERIMENTS.md).
    Paper,
    /// Full paper scale: full horizons, 10 replications.
    Full,
}

impl RunMode {
    /// Parses `smoke`/`quick`/`paper`/`full`.
    pub fn parse(s: &str) -> Option<RunMode> {
        match s {
            "smoke" => Some(RunMode::Smoke),
            "quick" => Some(RunMode::Quick),
            "paper" => Some(RunMode::Paper),
            "full" => Some(RunMode::Full),
            _ => None,
        }
    }

    /// Web-scenario horizon for this mode.
    pub fn web_horizon(&self) -> SimTime {
        match self {
            RunMode::Smoke => SimTime::from_mins(30.0),
            RunMode::Quick => SimTime::from_secs(DAY),
            _ => SimTime::from_secs(WEEK),
        }
    }

    /// Replications per scenario (web).
    pub fn web_reps(&self) -> u32 {
        match self {
            RunMode::Smoke | RunMode::Quick => 1,
            RunMode::Paper => 3,
            RunMode::Full => 10,
        }
    }

    /// Replications per scenario (scientific — computationally cheap, so
    /// more of them).
    pub fn sci_reps(&self) -> u32 {
        match self {
            RunMode::Smoke => 1,
            RunMode::Quick => 3,
            RunMode::Paper => 10,
            RunMode::Full => 10,
        }
    }
}

/// Table II as `(weekday, max, min)` rows.
pub fn table2() -> Vec<(&'static str, f64, f64)> {
    WEEKDAY_NAMES
        .iter()
        .zip(WEEKDAY_RATES)
        .map(|(name, (max, min))| (*name, max, min))
        .collect()
}

/// Fig. 3: the web workload's arrival rate (req/s) over one week,
/// sampled every `step` seconds from the generative model (the noiseless
/// mean curve the paper plots).
pub fn fig3_series(step: f64) -> Vec<(f64, f64)> {
    assert!(step > 0.0);
    let w = WebWorkload::paper();
    let mut out = Vec::with_capacity((WEEK / step) as usize + 1);
    let mut t = 0.0;
    while t <= WEEK {
        out.push((t / HOUR, w.model_rate(SimTime::from_secs(t))));
        t += step;
    }
    out
}

/// Fig. 4: the scientific workload's arrival rate (tasks/s) over one
/// day, measured as the average of `reps` sampled days bucketed into
/// `bucket`-second windows (the paper plots the sampled average, which
/// is spiky in the peak hours).
pub fn fig4_series(bucket: f64, reps: u32, seed: u64) -> Vec<(f64, f64)> {
    assert!(bucket > 0.0 && reps >= 1);
    let n_buckets = (DAY / bucket).ceil() as usize;
    let mut counts = vec![0.0f64; n_buckets];
    let factory = RngFactory::new(seed);
    for rep in 0..reps {
        let mut w = ScientificWorkload::paper();
        let mut rng = factory.stream_indexed("fig4", u64::from(rep));
        while let Some(b) = w.next_batch(&mut rng) {
            let idx = ((b.time.as_secs() / bucket) as usize).min(n_buckets - 1);
            counts[idx] += b.count as f64;
        }
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            (
                (i as f64 + 0.5) * bucket / HOUR,
                c / (bucket * f64::from(reps)),
            )
        })
        .collect()
}

/// The `(scenarios, reps)` job spec of Fig. 5 — for queuing on a
/// [`Campaign`](crate::campaign::Campaign) alongside other figures.
pub fn fig5_spec(mode: RunMode, seed: u64) -> (Vec<Scenario>, u32) {
    (fig5_scenarios(seed, mode.web_horizon()), mode.web_reps())
}

/// The `(scenarios, reps)` job spec of Fig. 6.
pub fn fig6_spec(mode: RunMode, seed: u64) -> (Vec<Scenario>, u32) {
    (fig6_scenarios(seed), mode.sci_reps())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_constants() {
        let t = table2();
        assert_eq!(t.len(), 7);
        assert_eq!(t[0], ("Sunday", 900.0, 400.0));
        assert_eq!(t[2], ("Tuesday", 1200.0, 500.0));
    }

    #[test]
    fn fig3_shape() {
        let s = fig3_series(600.0);
        // Peaks at noon each day; trough at each midnight.
        let at = |h: f64| {
            s.iter()
                .min_by(|a, b| (a.0 - h).abs().partial_cmp(&(b.0 - h).abs()).unwrap())
                .unwrap()
                .1
        };
        assert!((at(12.0) - 1000.0).abs() < 20.0, "Monday noon {}", at(12.0));
        assert!(
            (at(0.0) - 500.0).abs() < 20.0,
            "Monday midnight {}",
            at(0.0)
        );
        // Tuesday noon is the weekly peak level.
        assert!(
            (at(36.0) - 1200.0).abs() < 20.0,
            "Tuesday noon {}",
            at(36.0)
        );
        // Weekly minimum on Sunday night.
        let min = s.iter().map(|&(_, r)| r).fold(f64::INFINITY, f64::min);
        assert!((min - 400.0).abs() < 20.0, "weekly min {min}");
    }

    #[test]
    fn fig4_shape() {
        let s = fig4_series(600.0, 5, 7);
        let peak_avg: f64 = s
            .iter()
            .filter(|&&(h, _)| (8.0..17.0).contains(&h))
            .map(|&(_, r)| r)
            .sum::<f64>()
            / s.iter().filter(|&&(h, _)| (8.0..17.0).contains(&h)).count() as f64;
        let off_avg: f64 = s
            .iter()
            .filter(|&&(h, _)| !(8.0..17.0).contains(&h))
            .map(|&(_, r)| r)
            .sum::<f64>()
            / s.iter()
                .filter(|&&(h, _)| !(8.0..17.0).contains(&h))
                .count() as f64;
        // Paper Fig. 4: ~0.2+ tasks/s in peak, near zero off-peak.
        assert!((peak_avg - 0.23).abs() < 0.05, "peak {peak_avg}");
        assert!(off_avg < 0.05, "off {off_avg}");
    }

    #[test]
    fn run_mode_parsing_and_scales() {
        assert_eq!(RunMode::parse("smoke"), Some(RunMode::Smoke));
        assert_eq!(RunMode::parse("quick"), Some(RunMode::Quick));
        assert_eq!(RunMode::parse("paper"), Some(RunMode::Paper));
        assert_eq!(RunMode::parse("nope"), None);
        assert_eq!(RunMode::Smoke.web_horizon().as_secs(), 1800.0);
        assert_eq!(RunMode::Smoke.web_reps(), 1);
        assert_eq!(RunMode::Smoke.sci_reps(), 1);
        assert_eq!(RunMode::Quick.web_horizon().as_secs(), DAY);
        assert_eq!(RunMode::Full.web_horizon().as_secs(), WEEK);
        assert_eq!(RunMode::Full.web_reps(), 10);
    }
}
