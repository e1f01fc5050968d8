//! Quickstart: autoscale a pool of VMs against a steady request stream
//! and print what the provisioner did.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;
use vmprov::cloudsim::{SimBuilder, SimConfig};
use vmprov::core::analyzer::ScheduleAnalyzer;
use vmprov::core::modeler::{ModelerOptions, PerformanceModeler};
use vmprov::core::policy::AdaptivePolicy;
use vmprov::core::{QosTargets, RoundRobin};
use vmprov::des::{RngFactory, SimTime};
use vmprov::workloads::synthetic::PoissonProcess;
use vmprov::workloads::ServiceModel;

fn main() {
    // A service whose requests take 100 ms (± up to 10%), with a
    // negotiated 250 ms response-time bound, zero tolerated rejections,
    // and an 80% utilization floor.
    let qos = QosTargets::new(0.250, 0.0, 0.80);
    let service = ServiceModel::new(0.100, 0.10);

    // The workload: 200 requests/second for one simulated hour.
    let workload = PoissonProcess::new(200.0, SimTime::from_hours(1.0));

    // The paper's adaptive mechanism: a workload analyzer (here a flat
    // schedule), the Algorithm 1 performance modeler, and the
    // provisioning policy that glues them together.
    let analyzer = ScheduleAnalyzer::new(Arc::new(|_| 200.0), 300.0, 0.0);
    let modeler = PerformanceModeler::new(qos, 1000, ModelerOptions::default());
    let policy = AdaptivePolicy::new(Box::new(analyzer), modeler, 360.0, 4);

    // A paper-shaped data center (1000 hosts × 8 cores).
    let cfg = SimConfig::paper(0.100, qos.max_response_time);

    let summary = SimBuilder::new(cfg)
        .workload(workload)
        .service(service)
        .policy(Box::new(policy))
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(7));

    println!("policy           : {}", summary.policy);
    println!("requests offered : {}", summary.offered_requests);
    println!(
        "rejected         : {} ({:.3}%)",
        summary.rejected_requests,
        100.0 * summary.rejection_rate
    );
    println!(
        "response time    : {:.1} ms ± {:.1} ms (max {:.1} ms, bound {:.0} ms)",
        1e3 * summary.mean_response_time,
        1e3 * summary.std_response_time,
        1e3 * summary.max_response_time,
        1e3 * qos.max_response_time
    );
    println!(
        "instances        : {}..{} (avg {:.1})",
        summary.min_instances, summary.max_instances, summary.mean_instances
    );
    println!("VM hours         : {:.2}", summary.vm_hours);
    println!(
        "utilization      : {:.1}% (floor {:.0}%)",
        100.0 * summary.utilization,
        100.0 * qos.min_utilization
    );

    // The QoS invariant behind Eq. 1: admitted requests never exceed the
    // response bound.
    assert!(summary.max_response_time <= qos.max_response_time);
    // 200 req/s × 0.105 s ≈ 21 busy instances ⇒ pool ≈ 22–27.
    assert!((21..=28).contains(&summary.max_instances));
}
