//! End-to-end integration tests through the public facade: the full
//! stack (workload → admission → dispatch → instances → policy) driven
//! via the same API the examples and the experiment harness use.

use std::sync::Arc;
use vmprov::cloudsim::{RunSummary, SimBuilder, SimConfig};
use vmprov::core::analyzer::ScheduleAnalyzer;
use vmprov::core::modeler::{ModelerOptions, PerformanceModeler};
use vmprov::core::policy::AdaptivePolicy;
use vmprov::core::{QosTargets, RoundRobin, StaticPolicy};
use vmprov::des::{RngFactory, SimTime};
use vmprov::experiments::{run_once, PolicySpec, Scenario};
use vmprov::workloads::synthetic::{PiecewiseRateProcess, PoissonProcess};
use vmprov::workloads::ServiceModel;

fn web_qos() -> QosTargets {
    QosTargets::new(0.250, 0.0, 0.80)
}

fn run_static_poisson(m: u32, rate: f64, horizon: f64, seed: u64) -> RunSummary {
    SimBuilder::new(SimConfig::paper(0.100, 0.250))
        .workload(PoissonProcess::new(rate, SimTime::from_secs(horizon)))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(StaticPolicy::new(m, web_qos())))
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(seed))
}

#[test]
fn facade_reexports_compose() {
    // The five sub-crates are reachable and interoperate via `vmprov::*`.
    let s = run_static_poisson(5, 20.0, 300.0, 1);
    assert!(s.offered_requests > 4_000);
    assert_eq!(s.policy, "Static-5");
}

#[test]
fn admission_bounds_response_time_under_any_load() {
    // The core QoS mechanism: whatever the load, an admitted request's
    // response is bounded by k·(max service) ≤ Ts.
    for rate in [5.0, 50.0, 500.0] {
        let s = run_static_poisson(10, rate, 600.0, 2);
        assert!(
            s.max_response_time <= 0.250,
            "rate {rate}: max response {}",
            s.max_response_time
        );
        assert_eq!(s.qos_violations, 0, "rate {rate}");
    }
}

#[test]
fn scenario_api_is_deterministic() {
    let sc = Scenario::web(PolicySpec::Adaptive, 11).with_horizon(SimTime::from_mins(30.0));
    let a = run_once(&sc, 0);
    let b = run_once(&sc, 0);
    assert_eq!(a, b);
}

#[test]
fn adaptive_beats_peak_static_on_cost_with_equal_qos() {
    // A two-level workload: the adaptive pool must spend fewer VM-hours
    // than a static pool sized for the peak, at (near) zero rejection.
    let make_workload = || {
        PiecewiseRateProcess::new(
            vec![(0.0, 30.0), (1200.0, 120.0), (2400.0, 30.0)],
            SimTime::from_secs(3600.0),
        )
    };
    let rate_fn = Arc::new(|t: SimTime| {
        if (1200.0..2400.0).contains(&t.as_secs()) {
            120.0
        } else {
            30.0
        }
    });
    let analyzer = ScheduleAnalyzer::new(rate_fn, 120.0, 0.0);
    let modeler = PerformanceModeler::new(web_qos(), 500, ModelerOptions::default());
    let adaptive = SimBuilder::new(SimConfig::paper(0.100, 0.250))
        .workload(make_workload())
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(AdaptivePolicy::new(
            Box::new(analyzer),
            modeler,
            240.0,
            5,
        )))
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(21));
    let peak_static = SimBuilder::new(SimConfig::paper(0.100, 0.250))
        .workload(make_workload())
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(StaticPolicy::new(16, web_qos())))
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(21));
    assert!(
        adaptive.rejection_rate < 0.005,
        "{}",
        adaptive.rejection_rate
    );
    assert!(peak_static.rejection_rate < 0.005);
    assert!(
        adaptive.vm_hours < peak_static.vm_hours,
        "adaptive {} vs static {}",
        adaptive.vm_hours,
        peak_static.vm_hours
    );
    // And it visibly scaled.
    assert!(adaptive.max_instances >= adaptive.min_instances + 5);
}

#[test]
fn no_accepted_request_is_ever_lost() {
    // Drain semantics: accepted == completed even with aggressive
    // scale-downs (the piecewise workload forces them).
    let workload = PiecewiseRateProcess::new(
        vec![(0.0, 100.0), (600.0, 5.0), (1200.0, 100.0), (1800.0, 5.0)],
        SimTime::from_secs(2400.0),
    );
    let rate_fn = Arc::new(|t: SimTime| {
        let s = t.as_secs().rem_euclid(1200.0);
        if s < 600.0 {
            100.0
        } else {
            5.0
        }
    });
    let analyzer = ScheduleAnalyzer::new(rate_fn, 60.0, 0.0);
    let modeler = PerformanceModeler::new(web_qos(), 500, ModelerOptions::default());
    let s = SimBuilder::new(SimConfig::paper(0.100, 0.250))
        .workload(workload)
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(AdaptivePolicy::new(
            Box::new(analyzer),
            modeler,
            90.0,
            12,
        )))
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(33));
    assert_eq!(
        s.accepted_requests + s.rejected_requests,
        s.offered_requests
    );
    // RunSummary.accepted counts admissions; the response stats count
    // completions — they must agree.
    assert!(s.mean_response_time > 0.0);
}

#[test]
fn static_capacity_monotonicity_via_scenarios() {
    // Through the experiments API: more static capacity, fewer
    // rejections, monotonically (common random numbers across sizes).
    let horizon = SimTime::from_mins(20.0);
    let mut prev = f64::INFINITY;
    for m in [40u32, 60, 80] {
        let sc = Scenario::web(PolicySpec::Static(m), 5).with_horizon(horizon);
        let s = run_once(&sc, 0);
        assert!(
            s.rejection_rate <= prev + 1e-12,
            "m={m}: {} > previous {prev}",
            s.rejection_rate
        );
        prev = s.rejection_rate;
    }
}

#[test]
fn utilization_matches_offered_load_for_underloaded_static() {
    // Work conservation through the whole stack: busy time equals the
    // served work, so utilization ≈ λ·E[S]/m.
    let s = run_static_poisson(20, 100.0, 1_200.0, 8);
    assert_eq!(s.rejected_requests, 0);
    let expected = 100.0 * 0.105 / 20.0;
    assert!(
        (s.utilization - expected).abs() < 0.02,
        "utilization {} vs {expected}",
        s.utilization
    );
}
