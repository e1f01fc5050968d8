//! The event trace and the run summary are two views of one run — the
//! counters folded out of the JSONL trace must agree bit-for-bit with
//! the [`RunSummary`].

use vmprov_cloudsim::config::PriorityConfig;
use vmprov_cloudsim::{RunSummary, SimBuilder, SimConfig, TraceProbe};
use vmprov_core::analyzer::SlidingWindowAnalyzer;
use vmprov_core::modeler::{ModelerOptions, PerformanceModeler};
use vmprov_core::policy::AdaptivePolicy;
use vmprov_core::qos::QosTargets;
use vmprov_core::RoundRobin;
use vmprov_des::{RngFactory, SimTime};
use vmprov_json::Json;
use vmprov_workloads::synthetic::PoissonProcess;
use vmprov_workloads::ServiceModel;

/// The counters a trace folds down to.
#[derive(Debug, Default, PartialEq, Eq)]
struct Folded {
    offered: u64,
    accepted: u64,
    rejected: u64,
    vms_created: u64,
    instance_failures: u64,
    requests_lost_to_failures: u64,
    completions: u64,
}

fn fold(trace: &str) -> Folded {
    let mut f = Folded::default();
    for line in trace.lines() {
        let v = Json::parse(line).expect("every trace line is valid JSON");
        match v.get("ev").and_then(Json::as_str).expect("ev field") {
            "arrival" => f.offered += 1,
            "admit" => f.accepted += 1,
            "reject" => f.rejected += 1,
            "vm_boot" => f.vms_created += 1,
            "vm_crash" => {
                f.instance_failures += 1;
                f.requests_lost_to_failures +=
                    v.get("lost_requests").and_then(Json::as_u64).unwrap_or(0);
            }
            "service_complete" => f.completions += 1,
            _ => {}
        }
    }
    f
}

/// A deliberately eventful scenario: priority classes, injected
/// crashes, and an adaptive policy scaling a small pool under load, so
/// every counter in the fold is non-trivially exercised.
fn run_traced(seed: u64) -> (RunSummary, String) {
    let mut cfg = SimConfig {
        hosts: 50,
        monitor_interval: 10.0,
        ..SimConfig::paper(0.100, 0.250)
    };
    cfg.priority = Some(PriorityConfig::new(0.20, 1));
    cfg.instance_mtbf = Some(120.0);
    let qos = QosTargets::web_paper();
    let modeler = PerformanceModeler::new(qos, 500, ModelerOptions::default());
    let policy = AdaptivePolicy::new(
        Box::new(SlidingWindowAnalyzer::new(5, 3.0, 30.0)),
        modeler,
        60.0,
        3,
    );
    let (summary, trace) = SimBuilder::new(cfg)
        .workload(Box::new(PoissonProcess::new(
            60.0,
            SimTime::from_secs(600.0),
        )))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(policy))
        .dispatcher(Box::new(RoundRobin::new()))
        .probe(TraceProbe::new(Vec::new()))
        .run_probed(&RngFactory::new(seed));
    let text = String::from_utf8(trace.into_inner()).expect("trace is UTF-8");
    (summary, text)
}

#[test]
fn trace_counters_match_summary() {
    let (summary, trace) = run_traced(77);

    // The trace folds back to the summary's counters exactly.
    let f = fold(&trace);
    assert_eq!(f.offered, summary.offered_requests, "offered");
    assert_eq!(f.accepted, summary.accepted_requests, "accepted");
    assert_eq!(f.rejected, summary.rejected_requests, "rejected");
    assert_eq!(f.vms_created, summary.vms_created, "vms_created");
    assert_eq!(
        f.instance_failures, summary.instance_failures,
        "instance_failures"
    );
    assert_eq!(
        f.requests_lost_to_failures, summary.requests_lost_to_failures,
        "requests_lost_to_failures"
    );
    // Completions + in-flight losses account for every admission.
    assert_eq!(
        f.completions + f.requests_lost_to_failures,
        f.accepted,
        "accepted requests either complete or die with a crash"
    );
    // The scenario actually exercised the interesting paths.
    assert!(f.rejected > 0, "expected some rejections");
    assert!(f.instance_failures > 0, "expected some crashes");
}
