//! Plugging a custom policy into the simulator: a purely reactive
//! utilization controller (no workload model, no queueing theory) —
//! the kind of rule-based autoscaler the paper's related work describes
//! (Chieu et al.) — compared against the paper's proactive mechanism on
//! a flash-crowd workload neither has seen before.
//!
//! ```text
//! cargo run --release --example custom_policy
//! ```

use vmprov::cloudsim::{RunSummary, SimBuilder, SimConfig};
use vmprov::core::estimator::{EstimatorAnalyzer, SlidingWindowMle};
use vmprov::core::modeler::{ModelerOptions, PerformanceModeler};
use vmprov::core::policy::{AdaptivePolicy, PoolStatus, ProvisioningPolicy};
use vmprov::core::{QosTargets, RoundRobin};
use vmprov::des::{RngFactory, SimTime};
use vmprov::experiments::ESTIMATOR_HEADROOM;
use vmprov::workloads::synthetic::PiecewiseRateProcess;
use vmprov::workloads::{ArrivalProcess, ServiceModel};

/// Reactive rule: keep `observed_rate · Tm / target_rho` instances,
/// re-evaluated every `period` seconds. No prediction, no Algorithm 1.
struct ReactiveRule {
    qos: QosTargets,
    target_rho: f64,
    period: f64,
    last_rate: f64,
}

impl ProvisioningPolicy for ReactiveRule {
    fn name(&self) -> String {
        "ReactiveRule".into()
    }

    fn initial_instances(&self) -> u32 {
        4
    }

    fn evaluate(&mut self, status: &PoolStatus) -> u32 {
        // React to what the monitor saw in the last window.
        let rate = status
            .monitor
            .observed_arrival_rate
            .max(self.last_rate * 0.5);
        self.last_rate = status.monitor.observed_arrival_rate;
        let m = (rate * status.monitor.mean_service_time / self.target_rho).ceil();
        (m as u32).max(1)
    }

    fn next_evaluation(&self, now: SimTime) -> SimTime {
        now + self.period
    }

    fn queue_capacity(&self, monitored_service_time: f64) -> u32 {
        self.qos.queue_capacity(monitored_service_time)
    }
}

fn flash_crowd() -> impl ArrivalProcess + Send {
    // 50 req/s baseline; a 10-minute 400 req/s burst at t = 30 min.
    PiecewiseRateProcess::flash_crowd(50.0, 400.0, 1800.0, 600.0, SimTime::from_hours(1.5))
}

fn run(policy: Box<dyn ProvisioningPolicy>, seed: u64) -> RunSummary {
    SimBuilder::new(SimConfig::paper(0.100, 0.250))
        .workload(flash_crowd())
        .service(ServiceModel::new(0.100, 0.10))
        .policy(policy)
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(seed))
}

fn main() {
    let qos = QosTargets::new(0.250, 0.0, 0.80);

    // Custom reactive rule.
    let reactive = run(
        Box::new(ReactiveRule {
            qos,
            target_rho: 0.8,
            period: 60.0,
            last_rate: 0.0,
        }),
        5,
    );

    // The paper's mechanism with a *learning* analyzer (the Poisson MLE
    // over the last five minutes, from a 50 req/s prior) since the
    // flash crowd is not in any schedule.
    let analyzer = EstimatorAnalyzer::new(
        Box::new(SlidingWindowMle::new(300.0)),
        50.0,
        ESTIMATOR_HEADROOM,
        60.0,
    );
    let modeler = PerformanceModeler::new(qos, 1000, ModelerOptions::default());
    let adaptive = run(
        Box::new(AdaptivePolicy::new(Box::new(analyzer), modeler, 120.0, 8)),
        5,
    );

    // A static pool sized for the burst, for reference.
    let static_peak = run(Box::new(vmprov::core::StaticPolicy::new(55, qos)), 5);

    println!("flash crowd: 50 req/s baseline, 400 req/s for 10 min\n");
    for s in [&reactive, &adaptive, &static_peak] {
        println!(
            "{:<13} rejected {:>7} ({:>6.2}%)  vm-hours {:>6.1}  util {:>5.1}%  inst {}..{}",
            s.policy,
            s.rejected_requests,
            100.0 * s.rejection_rate,
            s.vm_hours,
            100.0 * s.utilization,
            s.min_instances,
            s.max_instances
        );
    }

    println!(
        "\nburst-sized static never rejects but burns {:.1}× the adaptive VM hours;",
        static_peak.vm_hours / adaptive.vm_hours
    );
    println!(
        "both elastic policies reject while they catch up with the burst: the reactive rule, \
         sized from the last minute's rate, {:.1}%; the adaptive policy, whose estimator \
         averages five minutes, {:.1}%.",
        100.0 * reactive.rejection_rate,
        100.0 * adaptive.rejection_rate
    );

    // Both elastic policies must beat the static pool on cost.
    assert!(adaptive.vm_hours < static_peak.vm_hours);
    assert!(reactive.vm_hours < static_peak.vm_hours);
    // And the admission control still bounds response times for everyone.
    for s in [&reactive, &adaptive, &static_peak] {
        assert!(s.max_response_time <= 0.250);
    }
}
