//! Ablations of the design choices DESIGN.md calls out — what changes
//! when a piece of the mechanism is swapped out, measured on compressed
//! versions of the evaluation scenarios.
//!
//! * **Analytic backend** — the paper-verbatim M/M/1/k predicate vs the
//!   dispatch-aware two-moment default;
//! * **Dispatch strategy** — round-robin (paper) vs join-shortest-queue
//!   vs random;
//! * **Boot delay** — how VM readiness lag erodes QoS;
//! * **Analyzer** — the [`AnalyzerSpec`] rate sources `repro replay`
//!   offers (the schedule oracle, the sliding-window MLE, the EWMA) on a
//!   flash crowd.

use crate::runner::run_once;
use crate::scenario::{AnalyzerSpec, DispatchSpec, PolicySpec, Scenario, ESTIMATOR_HEADROOM};
use std::sync::Arc;
use vmprov_cloudsim::{RunSummary, SimBuilder, SimConfig};
use vmprov_core::modeler::{ModelerOptions, PerformanceModeler};
use vmprov_core::policy::AdaptivePolicy;
use vmprov_core::qos::QosTargets;
use vmprov_core::{AnalyticBackend, RoundRobin};
use vmprov_des::{RngFactory, SimTime};
use vmprov_workloads::synthetic::PiecewiseRateProcess;
use vmprov_workloads::{ArrivalProcess, ServiceModel};

/// One ablation data point: variant label + its run summary.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// The run's metrics.
    pub summary: RunSummary,
}

fn row(variant: impl Into<String>, summary: RunSummary) -> AblationRow {
    AblationRow {
        variant: variant.into(),
        summary,
    }
}

/// Backend ablation on a compressed web day: the verbatim M/M/1/k
/// predicate forces the modeler to MaxVMs, the two-moment default sizes
/// near the utilization floor.
pub fn backend_ablation(seed: u64, horizon: SimTime) -> Vec<AblationRow> {
    [AnalyticBackend::TwoMoment, AnalyticBackend::Mm1k]
        .into_iter()
        .map(|backend| {
            let mut sc = Scenario::web(PolicySpec::Adaptive, seed).with_horizon(horizon);
            sc.backend = backend;
            row(format!("{backend:?}"), run_once(&sc, 0))
        })
        .collect()
}

/// Dispatch-strategy ablation on a compressed web day.
pub fn dispatch_ablation(seed: u64, horizon: SimTime) -> Vec<AblationRow> {
    [
        DispatchSpec::RoundRobin,
        DispatchSpec::LeastOutstanding,
        DispatchSpec::Random,
    ]
    .into_iter()
    .map(|dispatch| {
        let mut sc = Scenario::web(PolicySpec::Adaptive, seed).with_horizon(horizon);
        sc.dispatch = dispatch;
        row(format!("{dispatch:?}"), run_once(&sc, 0))
    })
    .collect()
}

/// Boot-delay sensitivity on a compressed web day.
pub fn boot_delay_ablation(seed: u64, horizon: SimTime) -> Vec<AblationRow> {
    [0.0, 60.0, 300.0, 900.0]
        .into_iter()
        .map(|delay| {
            let mut sc = Scenario::web(PolicySpec::Adaptive, seed).with_horizon(horizon);
            sc.boot_delay = delay;
            row(format!("boot {delay:.0}s"), run_once(&sc, 0))
        })
        .collect()
}

/// Analyzer ablation on a flash crowd: 60 req/s baseline with a
/// 480 req/s burst for 15 minutes. The oracle scans the crowd's own
/// rate schedule with the estimators' headroom as its margin, so the
/// rows differ only by λ̂; every row sees the same arrivals.
pub fn analyzer_ablation(seed: u64) -> Vec<AblationRow> {
    const INTERVAL: f64 = 60.0;
    let crowd =
        PiecewiseRateProcess::flash_crowd(60.0, 480.0, 2400.0, 900.0, SimTime::from_hours(2.0));
    let schedule = {
        let crowd = crowd.clone();
        Arc::new(move |t: SimTime| crowd.model_rate(t))
    };
    let prior_rate = crowd.model_rate(SimTime::ZERO);
    let qos = QosTargets::web_paper();
    [
        AnalyzerSpec::Oracle,
        AnalyzerSpec::SlidingMle {
            window_secs: 5.0 * INTERVAL,
        },
        AnalyzerSpec::Ewma { alpha: 0.5 },
    ]
    .into_iter()
    .map(|spec| {
        let analyzer = spec.build(schedule.clone(), prior_rate, ESTIMATOR_HEADROOM, INTERVAL);
        let modeler = PerformanceModeler::new(qos, 1000, ModelerOptions::default());
        let policy = AdaptivePolicy::new(analyzer, modeler, 2.0 * INTERVAL, 10);
        let summary = SimBuilder::new(SimConfig::paper(0.100, 0.250))
            .workload(crowd.clone())
            .service(ServiceModel::new(0.100, 0.10))
            .policy(Box::new(policy))
            .dispatcher(RoundRobin::new())
            .run(&RngFactory::new(seed));
        row(spec.label(), summary)
    })
    .collect()
}

/// Formats ablation rows as a table.
pub fn ablation_table(title: &str, rows: &[AblationRow]) -> String {
    let headers = [
        "Variant",
        "Reject%",
        "Util%",
        "VM-hours",
        "MeanResp s",
        "MaxInst",
        "QoS viol.",
    ];
    let body: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.variant.clone(),
                format!("{:.3}", 100.0 * r.summary.rejection_rate),
                format!("{:.1}", 100.0 * r.summary.utilization),
                format!("{:.1}", r.summary.vm_hours),
                format!("{:.4}", r.summary.mean_response_time),
                format!("{}", r.summary.max_instances),
                format!("{}", r.summary.qos_violations),
            ]
        })
        .collect();
    format!("{title}\n{}", crate::report::ascii_table(&headers, &body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_ablation_shows_overprovisioning() {
        let rows = backend_ablation(3, SimTime::from_mins(15.0));
        assert_eq!(rows.len(), 2);
        let two_moment = &rows[0].summary;
        let verbatim = &rows[1].summary;
        // The verbatim predicate can never be satisfied at sane sizes, so
        // it pins the fleet at MaxVMs (or the host-pool cap).
        assert!(
            verbatim.max_instances as f64 >= 3.0 * two_moment.max_instances as f64,
            "verbatim {} vs two-moment {}",
            verbatim.max_instances,
            two_moment.max_instances
        );
        assert!(verbatim.vm_hours > 2.0 * two_moment.vm_hours);
        // …and its utilization collapses.
        assert!(verbatim.utilization < 0.4);
    }

    #[test]
    fn dispatch_variants_all_serve() {
        let rows = dispatch_ablation(4, SimTime::from_mins(10.0));
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(
                r.summary.rejection_rate < 0.02,
                "{}: rejection {}",
                r.variant,
                r.summary.rejection_rate
            );
        }
    }

    #[test]
    fn boot_delay_degrades_gracefully() {
        let rows = boot_delay_ablation(5, SimTime::from_mins(30.0));
        // More delay never helps rejection (weak monotonicity with slack
        // for noise).
        let first = rows.first().unwrap().summary.rejection_rate;
        let last = rows.last().unwrap().summary.rejection_rate;
        assert!(last >= first - 1e-9, "first {first} last {last}");
    }

    #[test]
    fn analyzer_ablation_compares_rate_sources_on_common_arrivals() {
        // `repro`'s default seed.
        let rows = analyzer_ablation(20110926);
        let labels: Vec<&str> = rows.iter().map(|r| r.variant.as_str()).collect();
        assert_eq!(labels, ["oracle", "mle", "ewma"]);
        let offered = rows[0].summary.offered_requests;
        assert!(offered > 0);
        for r in &rows {
            assert_eq!(r.summary.offered_requests, offered, "{}", r.variant);
        }
        // Measured order at this seed: the oracle sizes for the burst
        // before it lands; the EWMA (α = 0.5) catches up faster than
        // the five-minute MLE window.
        let reject = |i: usize| rows[i].summary.rejected_requests;
        let (oracle, mle, ewma) = (reject(0), reject(1), reject(2));
        assert!(
            oracle < ewma && ewma < mle,
            "oracle {oracle} ewma {ewma} mle {mle}"
        );
    }

    #[test]
    fn ablation_table_renders() {
        let rows = dispatch_ablation(6, SimTime::from_mins(5.0));
        let t = ablation_table("Dispatch", &rows);
        assert!(t.contains("RoundRobin"));
        assert!(t.contains("Reject%"));
    }
}
