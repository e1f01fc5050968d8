//! Provisioning policies: the decision layer the simulated (or real)
//! application provisioner consults.
//!
//! [`AdaptivePolicy`] wires the paper's three components together —
//! workload analyzer → load predictor & performance modeler →
//! application provisioner — while [`StaticPolicy`] is the evaluation's
//! baseline (a fixed pool).

use crate::analyzer::WorkloadAnalyzer;
use crate::modeler::{PerformanceModeler, SizingCache, SizingDecision, SizingInputs};
use vmprov_des::SimTime;

/// Monitoring data available to a policy at evaluation time (the role
/// Amazon CloudWatch plays in §IV-B).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonitorReport {
    /// Monitored average request execution time Tm (seconds). Falls back
    /// to the provider's configured estimate until enough requests
    /// completed.
    pub mean_service_time: f64,
    /// Monitored squared coefficient of variation of execution times.
    pub service_scv: f64,
    /// Observed arrival rate over the last monitoring window (req/s).
    pub observed_arrival_rate: f64,
    /// Current busy fraction of the instance pool, in [0, 1].
    pub pool_utilization: f64,
}

/// Pool state handed to [`ProvisioningPolicy::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolStatus {
    /// Current simulation (or wall-clock) time.
    pub now: SimTime,
    /// Instances currently accepting requests.
    pub active_instances: u32,
    /// Instances draining toward destruction.
    pub draining_instances: u32,
    /// Latest monitoring data.
    pub monitor: MonitorReport,
}

/// A provisioning policy decides the desired instance count over time.
pub trait ProvisioningPolicy: Send {
    /// Display name for reports ("Adaptive", "Static-50", …).
    fn name(&self) -> String;

    /// Number of instances to boot before the workload starts.
    fn initial_instances(&self) -> u32;

    /// Desired number of *active* instances given the current status.
    fn evaluate(&mut self, status: &PoolStatus) -> u32;

    /// When the policy next wants to be evaluated. Static policies may
    /// return a far-future time.
    fn next_evaluation(&self, now: SimTime) -> SimTime;

    /// Per-instance queue capacity (Eq. 1) given the monitored execution
    /// time — needed by admission control.
    fn queue_capacity(&self, monitored_service_time: f64) -> u32;

    /// Feeds an arrival observation (requests seen in the monitoring
    /// window of `window_len` seconds ending at `window_end`) to the
    /// policy's analyzer. Default: ignored.
    fn observe_arrivals(&mut self, _window_end: SimTime, _arrivals: u64, _window_len: f64) {}

    /// The [`SizingDecision`] produced by the most recent
    /// [`evaluate`](Self::evaluate) call, if that evaluation ran
    /// Algorithm 1. Policies that size without the modeler (static
    /// pools, rule-based controllers) return `None`, the default.
    /// Observability probes consume this after each evaluation.
    fn last_decision(&self) -> Option<&SizingDecision> {
        None
    }
}

/// The evaluation's baseline: a fixed number of instances forever.
#[derive(Debug, Clone)]
pub struct StaticPolicy {
    instances: u32,
    /// Queue capacity is still Eq. 1 (the paper applies the same
    /// admission control to static data centers).
    qos: crate::qos::QosTargets,
}

impl StaticPolicy {
    /// Creates a static policy with `instances` VMs.
    pub fn new(instances: u32, qos: crate::qos::QosTargets) -> Self {
        assert!(instances >= 1);
        StaticPolicy { instances, qos }
    }
}

impl ProvisioningPolicy for StaticPolicy {
    fn name(&self) -> String {
        format!("Static-{}", self.instances)
    }

    fn initial_instances(&self) -> u32 {
        self.instances
    }

    fn evaluate(&mut self, _status: &PoolStatus) -> u32 {
        self.instances
    }

    fn next_evaluation(&self, now: SimTime) -> SimTime {
        now + 1e12 // effectively never
    }

    fn queue_capacity(&self, monitored_service_time: f64) -> u32 {
        self.qos.queue_capacity(monitored_service_time)
    }
}

/// The paper's adaptive mechanism: analyzer-driven predictions sized by
/// Algorithm 1.
pub struct AdaptivePolicy {
    analyzer: Box<dyn WorkloadAnalyzer>,
    modeler: PerformanceModeler,
    /// Look-ahead horizon passed to the analyzer (seconds) — how far
    /// ahead capacity must already be in place.
    planning_horizon: f64,
    /// Instances to boot before the first evaluation.
    initial: u32,
    /// The last sizing decision, for inspection/telemetry.
    last_decision: Option<SizingDecision>,
    /// The previously *accepted* m: Algorithm 1 warm-starts its bracket
    /// search here instead of from the momentary pool size (the paper's
    /// search is incremental across control ticks by design — `m` starts
    /// at "the number of VMs currently allocated").
    last_instances: Option<u32>,
    /// Cross-tick memo of analytic metrics and decisions (exact-bit
    /// keys, so it never changes a decision — see [`SizingCache`]).
    cache: SizingCache,
}

impl AdaptivePolicy {
    /// Creates the adaptive policy. Panics unless `planning_horizon` is
    /// finite and non-negative and `initial ≥ 1`.
    pub fn new(
        analyzer: Box<dyn WorkloadAnalyzer>,
        modeler: PerformanceModeler,
        planning_horizon: f64,
        initial: u32,
    ) -> Self {
        // A schedule analyzer scans the whole look-ahead window, so an
        // infinite horizon would never return.
        assert!(
            planning_horizon >= 0.0 && planning_horizon.is_finite(),
            "planning horizon must be finite and non-negative"
        );
        assert!(initial >= 1);
        AdaptivePolicy {
            analyzer,
            modeler,
            planning_horizon,
            initial,
            last_decision: None,
            last_instances: None,
            cache: SizingCache::new(),
        }
    }

    /// The sizing decision of the latest evaluation, if it ran
    /// Algorithm 1 (see [`ProvisioningPolicy::last_decision`]).
    pub fn last_decision(&self) -> Option<&SizingDecision> {
        self.last_decision.as_ref()
    }
}

impl ProvisioningPolicy for AdaptivePolicy {
    fn name(&self) -> String {
        "Adaptive".to_string()
    }

    fn initial_instances(&self) -> u32 {
        self.initial
    }

    fn evaluate(&mut self, status: &PoolStatus) -> u32 {
        // Cleared first so `last_decision` always describes *this*
        // evaluation, never a stale earlier one.
        self.last_decision = None;
        let predicted_rate = self
            .analyzer
            .predict_rate(status.now, self.planning_horizon);
        if predicted_rate <= 0.0 {
            // No load expected: keep the minimum footprint.
            self.last_instances = Some(1);
            return 1;
        }
        let decision = self.modeler.required_instances_cached(
            &SizingInputs {
                expected_arrival_rate: predicted_rate,
                monitored_service_time: status.monitor.mean_service_time,
                service_scv: status.monitor.service_scv,
                // Warm start: resume the search from the previous
                // accepted m (first tick falls back to the pool size).
                current_instances: self
                    .last_instances
                    .unwrap_or_else(|| status.active_instances.max(1)),
            },
            &mut self.cache,
        );
        let m = decision.instances;
        self.last_decision = Some(decision);
        self.last_instances = Some(m);
        m
    }

    fn next_evaluation(&self, now: SimTime) -> SimTime {
        self.analyzer.next_alert(now)
    }

    fn queue_capacity(&self, monitored_service_time: f64) -> u32 {
        self.modeler.qos().queue_capacity(monitored_service_time)
    }

    fn observe_arrivals(&mut self, window_end: SimTime, arrivals: u64, window_len: f64) {
        self.analyzer.observe(window_end, arrivals, window_len);
    }

    fn last_decision(&self) -> Option<&SizingDecision> {
        self.last_decision.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::ScheduleAnalyzer;
    use crate::modeler::ModelerOptions;
    use crate::qos::QosTargets;
    use std::sync::Arc;

    fn status(now: f64, active: u32) -> PoolStatus {
        PoolStatus {
            now: SimTime::from_secs(now),
            active_instances: active,
            draining_instances: 0,
            monitor: MonitorReport {
                mean_service_time: 0.105,
                service_scv: 0.00076,
                observed_arrival_rate: 0.0,
                pool_utilization: 0.8,
            },
        }
    }

    #[test]
    fn static_policy_never_changes() {
        let mut p = StaticPolicy::new(75, QosTargets::web_paper());
        assert_eq!(p.name(), "Static-75");
        assert_eq!(p.initial_instances(), 75);
        assert_eq!(p.evaluate(&status(0.0, 75)), 75);
        assert_eq!(p.evaluate(&status(1e6, 10)), 75);
        assert!(p.next_evaluation(SimTime::ZERO).as_secs() > 1e9);
        assert_eq!(p.queue_capacity(0.105), 2);
    }

    #[test]
    fn adaptive_scales_with_predicted_rate() {
        let analyzer = ScheduleAnalyzer::new(
            Arc::new(|t: SimTime| if t.as_secs() < 1000.0 { 400.0 } else { 1200.0 }),
            300.0,
            0.0,
        );
        let modeler =
            PerformanceModeler::new(QosTargets::web_paper(), 1000, ModelerOptions::default());
        let mut p = AdaptivePolicy::new(Box::new(analyzer), modeler, 0.0, 10);
        let low = p.evaluate(&status(0.0, 60));
        let high = p.evaluate(&status(2000.0, low));
        assert!(high > low, "low {low} high {high}");
        assert!((44..=60).contains(&low), "low {low}");
        assert!((130..=160).contains(&high), "high {high}");
        assert!(p.last_decision().is_some());
        assert_eq!(p.name(), "Adaptive");
    }

    #[test]
    fn adaptive_looks_ahead_across_a_ramp() {
        // With a planning horizon covering the step, capacity is raised
        // before the step arrives.
        let analyzer = ScheduleAnalyzer::new(
            Arc::new(|t: SimTime| if t.as_secs() < 1000.0 { 400.0 } else { 1200.0 }),
            300.0,
            0.0,
        );
        let modeler =
            PerformanceModeler::new(QosTargets::web_paper(), 1000, ModelerOptions::default());
        let mut p = AdaptivePolicy::new(Box::new(analyzer), modeler, 600.0, 10);
        // At t=900 the horizon [900, 1500] includes the step to 1200.
        let m = p.evaluate(&status(900.0, 55));
        assert!(m >= 130, "pre-step sizing {m}");
    }

    #[test]
    fn adaptive_zero_rate_keeps_minimum() {
        let analyzer = ScheduleAnalyzer::new(Arc::new(|_| 0.0), 300.0, 0.0);
        let modeler =
            PerformanceModeler::new(QosTargets::web_paper(), 1000, ModelerOptions::default());
        let mut p = AdaptivePolicy::new(Box::new(analyzer), modeler, 0.0, 5);
        assert_eq!(p.evaluate(&status(0.0, 50)), 1);
    }

    #[test]
    #[should_panic(expected = "planning horizon must be finite")]
    fn adaptive_rejects_an_infinite_planning_horizon() {
        let analyzer = ScheduleAnalyzer::new(Arc::new(|_| 1.0), 60.0, 0.0);
        let modeler =
            PerformanceModeler::new(QosTargets::web_paper(), 10, ModelerOptions::default());
        AdaptivePolicy::new(Box::new(analyzer), modeler, f64::INFINITY, 1);
    }

    #[test]
    fn adaptive_next_evaluation_follows_analyzer() {
        let analyzer = ScheduleAnalyzer::new(Arc::new(|_| 1.0), 123.0, 0.0);
        let modeler =
            PerformanceModeler::new(QosTargets::web_paper(), 10, ModelerOptions::default());
        let p = AdaptivePolicy::new(Box::new(analyzer), modeler, 0.0, 1);
        assert_eq!(
            p.next_evaluation(SimTime::from_secs(10.0)),
            SimTime::from_secs(133.0)
        );
    }
}
