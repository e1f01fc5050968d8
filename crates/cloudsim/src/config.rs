//! Simulation configuration.

use crate::host::{Resources, PAPER_HOST, PAPER_VM};
use crate::metrics::MetricsOptions;

/// Configuration of the simulated data center and measurement set-up.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Number of physical hosts (paper: 1000).
    pub hosts: usize,
    /// Host shape (paper: 8 cores, 16 GB).
    pub host_shape: Resources,
    /// VM shape (paper: 1 core, 2 GB).
    pub vm_shape: Resources,
    /// Seconds between VM creation and readiness (paper/CloudSim
    /// default: 0; the boot-delay ablation sweeps this).
    pub boot_delay: f64,
    /// Monitoring window length in seconds: how often the arrival counter
    /// is reported to the policy's analyzer.
    pub monitor_interval: f64,
    /// Prior for the mean request execution time Tm, used until enough
    /// completions are monitored (the SaaS provider's configured
    /// estimate).
    pub initial_service_estimate: f64,
    /// Prior for the service-time SCV.
    pub initial_scv_estimate: f64,
    /// Response-time bound Ts used for violation counting.
    pub qos_ts: f64,
    /// What the run records beyond the always-on counters (histogram
    /// on/off plus its bounds, p99 toggle).
    pub metrics: MetricsOptions,
    /// Two-class priority admission (the paper's future-work item on
    /// serving high-priority requests first under contention). `None`
    /// disables classes entirely.
    pub priority: Option<PriorityConfig>,
    /// Mean time between failures of one *instance* (exponential), the
    /// "uncertain behavior" of §I. `None` disables failures.
    pub instance_mtbf: Option<f64>,
    /// Maximum number of arrival batches the run's
    /// [`ArrivalStream`](crate::ArrivalStream) pulls from the workload
    /// and expands at a time (at least 1; default
    /// [`DEFAULT_ARRIVAL_RUN`]). Performance only: every depth yields
    /// the same [`RunSummary`](crate::RunSummary), because arrivals
    /// enter the event list's lane, whose entries tie-break after every
    /// individually scheduled event at their instant, exactly where the
    /// one-batch-at-a-time cadence (`1`) puts them. Pinned for every
    /// depth by the batched-vs-scalar tests.
    pub arrival_run: u32,
}

/// Default [`SimConfig::arrival_run`]: deep enough that a pull covers a
/// whole burst of zero-spread batches (the scientific workload's jobs)
/// and a replay chunk's run of rows in one expansion. Spread batches
/// (the web workload) stop a pull after one batch anyway.
pub const DEFAULT_ARRIVAL_RUN: u32 = 64;

/// Two-class priority admission: a fraction of requests is high
/// priority; low-priority requests may only occupy `k − reserved_slots`
/// of each instance's queue, so the reserved headroom is always
/// available to high-priority traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityConfig {
    /// Fraction of arrivals that are high priority, in [0, 1].
    pub high_fraction: f64,
    /// Queue slots per instance reserved for high-priority requests.
    pub reserved_slots: u32,
}

impl PriorityConfig {
    /// Creates a validated config.
    pub fn new(high_fraction: f64, reserved_slots: u32) -> Self {
        assert!((0.0..=1.0).contains(&high_fraction));
        PriorityConfig {
            high_fraction,
            reserved_slots,
        }
    }
}

impl SimConfig {
    /// The paper's data center with the given service-time prior and Ts.
    pub fn paper(initial_service_estimate: f64, qos_ts: f64) -> Self {
        assert!(initial_service_estimate > 0.0 && qos_ts > 0.0);
        SimConfig {
            hosts: 1000,
            host_shape: PAPER_HOST,
            vm_shape: PAPER_VM,
            boot_delay: 0.0,
            monitor_interval: 60.0,
            initial_service_estimate,
            initial_scv_estimate: 0.00076,
            qos_ts,
            metrics: MetricsOptions::default(),
            priority: None,
            instance_mtbf: None,
            arrival_run: DEFAULT_ARRIVAL_RUN,
        }
    }

    /// Paper data center for the web scenario (100 ms requests,
    /// Ts = 250 ms).
    pub fn paper_web() -> Self {
        Self::paper(0.100, 0.250)
    }

    /// Paper data center for the scientific scenario (300 s tasks,
    /// Ts = 700 s).
    pub fn paper_scientific() -> Self {
        Self::paper(300.0, 700.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs() {
        let w = SimConfig::paper_web();
        assert_eq!(w.hosts, 1000);
        assert_eq!(w.host_shape.cores, 8);
        assert_eq!(w.vm_shape.ram_mb, 2048);
        assert_eq!(w.qos_ts, 0.250);
        assert_eq!(w.arrival_run, DEFAULT_ARRIVAL_RUN);
        let s = SimConfig::paper_scientific();
        assert_eq!(s.initial_service_estimate, 300.0);
        assert_eq!(s.qos_ts, 700.0);
    }

    #[test]
    #[should_panic]
    fn rejects_bad_estimate() {
        SimConfig::paper(0.0, 1.0);
    }

    #[test]
    fn priority_config_validates() {
        let p = PriorityConfig::new(0.2, 1);
        assert_eq!(p.reserved_slots, 1);
        assert!(SimConfig::paper_web().priority.is_none());
    }

    #[test]
    #[should_panic]
    fn priority_fraction_bounds() {
        PriorityConfig::new(1.5, 1);
    }
}
