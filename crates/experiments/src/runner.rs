//! Replicated scenario execution and cross-replication aggregation.
//!
//! The paper repeats every scenario 10 times and reports averages
//! (§V-A). This module runs one replication ([`run_once`], the
//! independent reference), or one arrival group of them off a shared
//! arrival stream ([`run_group_warm`]; campaign jobs and replay-grid
//! groups are built alike), and folds the per-run [`RunSummary`]
//! records of a scenario into means with 95% Student-t confidence
//! intervals ([`Replicated`]). Replications run in parallel through a
//! [`crate::campaign::Campaign`], which batches every figure's groups
//! on the scoped executor of [`crate::pool`] (and optionally answers
//! them from a run cache).

use crate::scenario::Scenario;
use vmprov_cloudsim::{
    RunGroup, RunSummary, SimBuilder, SimScratch, TimeSeries, TimeSeriesProbe, TraceProbe,
};
use vmprov_des::stats::{confidence_interval, Interval, Level, OnlineStats};
use vmprov_des::RngFactory;
use vmprov_json::{field_str, FromJson, Json, ToJson};

/// All replications of one scenario.
#[derive(Debug, Clone)]
pub struct Replicated {
    /// Policy label ("Adaptive", "Static-50", …).
    pub policy: String,
    /// One summary per replication, in replication order.
    pub runs: Vec<RunSummary>,
}

impl Replicated {
    /// Mean of a metric across replications.
    pub fn mean(&self, f: impl Fn(&RunSummary) -> f64) -> f64 {
        self.stat(f).mean()
    }

    /// 95% confidence interval of a metric across replications.
    pub fn ci95(&self, f: impl Fn(&RunSummary) -> f64) -> Interval {
        confidence_interval(&self.stat(f), Level::P95)
    }

    fn stat(&self, f: impl Fn(&RunSummary) -> f64) -> OnlineStats {
        let mut s = OnlineStats::new();
        for r in &self.runs {
            s.push(f(r));
        }
        s
    }
}

impl ToJson for Replicated {
    fn to_json(&self) -> Json {
        Json::obj([
            ("policy", Json::from(self.policy.clone())),
            ("runs", self.runs.to_json()),
        ])
    }
}

impl FromJson for Replicated {
    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Replicated {
            policy: field_str(v, "policy")?,
            runs: Vec::<RunSummary>::from_json(
                v.get("runs")
                    .ok_or_else(|| "missing field `runs`".to_string())?,
            )?,
        })
    }
}

/// Derives the replication seed: deterministic, well-separated per rep.
pub fn replication_seed(base: u64, rep: u32) -> u64 {
    base.wrapping_add(u64::from(rep).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one replication of `scenario`.
pub fn run_once(scenario: &Scenario, rep: u32) -> RunSummary {
    builder_for(scenario).run(&RngFactory::new(replication_seed(scenario.seed, rep)))
}

std::thread_local! {
    /// Warm per-thread simulation storage for [`run_group_warm`]: a
    /// thread that runs groups back-to-back reuses the previous run's
    /// slot slab and FEL storage instead of reallocating them.
    static WARM: std::cell::RefCell<SimScratch> = std::cell::RefCell::new(SimScratch::new());
}

/// Runs the cells of one arrival group — replications that share a
/// [`Scenario::arrival_key`] — off one arrival stream, with warm
/// per-thread storage reuse. Returns the summaries in cell order, each
/// bit-identical to [`run_once`] of its cell (pinned by the
/// shared-arrival tests).
///
/// # Panics
/// Panics when `cells` is empty or its cells' arrival keys differ.
pub fn run_group_warm(cells: &[(Scenario, u32)]) -> Vec<RunSummary> {
    let (first, _) = cells.first().expect("a group needs a cell");
    WARM.with(|scratch| {
        let scratch = &mut *scratch.borrow_mut();
        start_group(cells, first.build_workload(), Some(&mut *scratch))
            .finish(Some(scratch))
            .into_iter()
            .map(|(summary, _)| summary)
            .collect()
    })
}

/// Builds the cells of one arrival group as one [`RunGroup`] reading
/// `workload`, which **must** yield the arrivals the cells' shared
/// [`Scenario::arrival_key`] describes, or cached summaries keyed on
/// the scenarios would lie: campaigns hand in the first cell's own
/// workload, the replay grid a stepped shared-scan consumer. Panics
/// when `cells` is empty or its cells' arrival keys differ.
pub(crate) fn start_group(
    cells: &[(Scenario, u32)],
    workload: impl vmprov_workloads::ArrivalProcess + Send + 'static,
    scratch: Option<&mut SimScratch>,
) -> RunGroup {
    let (first, rep) = cells.first().expect("a group needs a cell");
    let key = first.arrival_key(*rep);
    // The group reads the first builder's workload.
    let mut workload = Some(workload);
    let builders = cells
        .iter()
        .map(|(scenario, rep)| {
            assert!(
                scenario.arrival_key(*rep) == key,
                "a group's cells must share their arrivals"
            );
            let builder = components(scenario);
            match workload.take() {
                Some(workload) => builder.workload(workload),
                None => builder,
            }
        })
        .collect();
    RunGroup::start(
        builders,
        &RngFactory::new(replication_seed(first.seed, *rep)),
        scratch,
    )
}

/// A [`SimBuilder`] primed with every component of `scenario` — attach
/// a probe and run for observed replications ([`run_once`] is
/// `builder_for(s).run(…)`).
pub fn builder_for(scenario: &Scenario) -> SimBuilder {
    components(scenario).workload(scenario.build_workload())
}

/// [`builder_for`] without the workload: what a group member needs.
fn components(scenario: &Scenario) -> SimBuilder {
    SimBuilder::new(scenario.sim_config())
        .service(scenario.service_model())
        .policy(scenario.build_policy())
        .dispatcher(scenario.build_dispatcher())
}

/// One observed replication: the summary plus everything the probes
/// collected along the way.
#[derive(Debug)]
pub struct TracedRun {
    /// The run's metrics (bit-identical to an unprobed run).
    pub summary: RunSummary,
    /// JSONL event lines written to the trace file.
    pub trace_lines: u64,
    /// The sampled Fig 5/6 panel quantities over time.
    pub series: TimeSeries,
}

/// Sampling period for a traced run: ~300 points across the horizon,
/// clamped to [1 s, 600 s] so smoke runs stay fine-grained and week
/// horizons don't flood the series.
pub fn trace_dt(horizon_secs: f64) -> f64 {
    (horizon_secs / 300.0).clamp(1.0, 600.0)
}

/// Runs one replication of `scenario` with the full observability
/// stack: a JSONL event trace streamed to `trace_path` plus a
/// [`TimeSeries`] sampled every `dt` seconds.
pub fn traced_run(
    scenario: &Scenario,
    rep: u32,
    dt: f64,
    trace_path: &std::path::Path,
) -> std::io::Result<TracedRun> {
    let trace = TraceProbe::to_path(trace_path)?;
    let (summary, (trace, sampler)) = builder_for(scenario)
        .probe((trace, TimeSeriesProbe::new(dt)))
        .run_probed(&RngFactory::new(replication_seed(scenario.seed, rep)));
    let trace_lines = trace.lines();
    trace.into_inner();
    Ok(TracedRun {
        summary,
        trace_lines,
        series: sampler.into_series(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::PolicySpec;
    use vmprov_des::SimTime;

    fn tiny_web(policy: PolicySpec) -> Scenario {
        // One simulated hour keeps the debug-mode test fast.
        Scenario::web(policy, 99).with_horizon(SimTime::from_secs(3600.0))
    }

    #[test]
    fn replications_are_deterministic_and_distinct() {
        let s = tiny_web(PolicySpec::Static(60));
        let a = run_once(&s, 0);
        let b = run_once(&s, 0);
        assert_eq!(a, b, "same replication must reproduce");
        let c = run_once(&s, 1);
        assert_ne!(
            a.accepted_requests, c.accepted_requests,
            "different replications must differ"
        );
    }

    #[test]
    fn replicated_aggregation() {
        let s = tiny_web(PolicySpec::Static(60));
        let rep = Replicated {
            policy: s.policy_label(),
            runs: (0..3).map(|r| run_once(&s, r)).collect(),
        };
        assert_eq!(rep.runs.len(), 3);
        assert_eq!(rep.policy, "Static-60");
        let mean_resp = rep.mean(|r| r.mean_response_time);
        assert!(mean_resp > 0.09 && mean_resp < 0.25, "resp {mean_resp}");
        let ci = rep.ci95(|r| r.mean_response_time);
        assert!(ci.half_width >= 0.0);
        assert!(ci.contains(ci.mean));
    }

    #[test]
    fn policy_set_ordering_preserved() {
        let set = vec![
            tiny_web(PolicySpec::Static(55)),
            tiny_web(PolicySpec::Static(65)),
        ];
        let mut campaign = crate::campaign::Campaign::new(None);
        let handle = campaign.add_figure(set, 2);
        let out = campaign.run().take(handle);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].policy, "Static-55");
        assert_eq!(out[1].policy, "Static-65");
        assert_eq!(out[0].runs.len(), 2);
        // Same workload seed ⇒ identical offered traffic across policies
        // (common random numbers).
        assert_eq!(
            out[0].runs[0].offered_requests,
            out[1].runs[0].offered_requests
        );
    }

    #[test]
    fn traced_run_observes_without_perturbing() {
        /// Deletes the trace file even when an assertion below panics —
        /// and the per-process name means two concurrently running test
        /// binaries (e.g. two CI jobs on one machine) cannot clobber
        /// each other's file.
        struct TempTrace(std::path::PathBuf);
        impl Drop for TempTrace {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.0);
            }
        }
        let path = TempTrace(std::env::temp_dir().join(format!(
            "vmprov_traced_run_test_{}.jsonl",
            std::process::id()
        )));

        let s = Scenario::web(PolicySpec::Adaptive, 99).with_horizon(SimTime::from_secs(120.0));
        let traced = traced_run(&s, 0, trace_dt(120.0), &path.0).expect("traced run");
        // The probes must not perturb the simulation.
        assert_eq!(traced.summary, run_once(&s, 0));
        assert!(traced.trace_lines > 0);
        // Δt clamps to 1 s here: one sample per second plus t = 0.
        assert!(traced.series.samples.len() >= 100);
        let on_disk = std::fs::read_to_string(&path.0).expect("trace file");
        assert_eq!(on_disk.lines().count() as u64, traced.trace_lines);
    }

    #[test]
    fn trace_dt_clamps_to_sane_bounds() {
        assert_eq!(trace_dt(120.0), 1.0);
        assert_eq!(trace_dt(30_000.0), 100.0);
        assert_eq!(trace_dt(vmprov_des::WEEK), 600.0);
    }

    #[test]
    fn seeds_are_well_separated() {
        let a = replication_seed(1, 0);
        let b = replication_seed(1, 1);
        assert_ne!(a, b);
        assert_eq!(a, replication_seed(1, 0));
    }
}
