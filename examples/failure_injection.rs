//! The paper's "uncertain behavior" (§I) in action: instances crash
//! (exponential MTBF) and the provisioner replaces them at the
//! failure-triggered re-evaluation.
//!
//! ```text
//! cargo run --release --example failure_injection
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
    let qos = QosTargets::new(0.250, 0.0, 0.80);

    println!("— failure injection (instance MTBF 10 min, adaptive pool) —");
    let mut cfg = SimConfig::paper(0.100, 0.250);
    cfg.instance_mtbf = Some(600.0);
    let analyzer = ScheduleAnalyzer::new(Arc::new(|_| 120.0), 120.0, 0.0);
    let modeler = PerformanceModeler::new(qos, 1000, ModelerOptions::default());
    let s = SimBuilder::new(cfg)
        .workload(PoissonProcess::new(120.0, SimTime::from_hours(1.0)))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(AdaptivePolicy::new(
            Box::new(analyzer),
            modeler,
            180.0,
            16,
        )))
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(5));
    println!(
        "  {} crashes killed {} in-flight requests;",
        s.instance_failures, s.requests_lost_to_failures
    );
    println!(
        "  the pool was rebuilt {} times over (VMs created: {}), and",
        s.vms_created / s.max_instances.max(1) as u64,
        s.vms_created
    );
    println!(
        "  rejection still stayed at {:.2}% with utilization {:.0}%.",
        100.0 * s.rejection_rate,
        100.0 * s.utilization
    );
    assert!(s.instance_failures > 20);
    assert!(s.rejection_rate < 0.05);
}
