//! Replicated scenario execution and cross-replication aggregation.
//!
//! The paper repeats every scenario 10 times and reports averages
//! (§V-A); [`run_replicated`] does the same, fanning replications out
//! over the persistent worker pool (see [`crate::pool`]) and folding
//! the per-run [`RunSummary`] records into means with 95% Student-t
//! confidence intervals. Multi-figure invocations should batch through
//! [`crate::campaign::Campaign`] instead, which shares one job queue
//! (and optionally a run cache) across figures.

use crate::scenario::Scenario;
use vmprov_cloudsim::{
    ResumableRun, RunSummary, SimBuilder, SimScratch, TimeSeries, TimeSeriesProbe, TraceProbe,
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
    /// Warm per-thread simulation storage for [`run_once_warm`]: pool
    /// workers (and any other thread that runs jobs back-to-back) reuse
    /// the previous run's slot slab and FEL storage instead of
    /// reallocating them.
    static WARM: std::cell::RefCell<SimScratch> = std::cell::RefCell::new(SimScratch::new());
}

/// [`run_once`] with warm per-thread storage reuse — bit-identical
/// results (pinned by the pool-width sweep test), cheaper back-to-back.
pub fn run_once_warm(scenario: &Scenario, rep: u32) -> RunSummary {
    WARM.with(|scratch| {
        builder_for(scenario).run_scratch(
            &RngFactory::new(replication_seed(scenario.seed, rep)),
            &mut scratch.borrow_mut(),
        )
    })
}

/// Builds one replication of `scenario` as a [`ResumableRun`], with a
/// caller-supplied arrival process in place of
/// `scenario.build_workload()`. The replay grid injects stepped
/// shared-scan consumers here; the caller **must** hand in a workload
/// that yields the byte-identical arrival stream the scenario
/// describes, or cached summaries keyed on the scenario would lie
/// (pinned by the shared-vs-independent grid test).
pub fn start_with(
    scenario: &Scenario,
    rep: u32,
    workload: vmprov_workloads::AnyWorkload,
) -> ResumableRun {
    SimBuilder::new(scenario.sim_config())
        .workload(workload)
        .service(scenario.service_model())
        .policy(scenario.build_policy())
        .dispatcher(scenario.build_dispatcher())
        .start(&RngFactory::new(replication_seed(scenario.seed, rep)))
}

/// A [`SimBuilder`] primed with every component of `scenario` — attach
/// a probe and run for observed replications ([`run_once`] is
/// `builder_for(s).run(…)`).
pub fn builder_for(scenario: &Scenario) -> SimBuilder {
    SimBuilder::new(scenario.sim_config())
        .workload(scenario.build_workload())
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

/// Runs `reps` replications of `scenario` on the persistent worker
/// pool. A single replication runs inline on the caller — the smoke
/// path pays no dispatch cost.
pub fn run_replicated(scenario: &Scenario, reps: u32) -> Replicated {
    assert!(reps >= 1);
    let scenario_for_jobs = scenario.clone();
    let runs = crate::pool::global().run_batch((0..reps).collect(), move |_, rep| {
        run_once_warm(&scenario_for_jobs, rep)
    });
    Replicated {
        policy: scenario.policy_label(),
        runs,
    }
}

/// Runs a whole policy set (e.g. one figure) with `reps` replications
/// each, parallelising over (scenario × replication). A thin wrapper
/// over an uncached single-figure [`Campaign`](crate::campaign::Campaign);
/// multi-figure invocations should build the campaign themselves so
/// figures share one job queue.
pub fn run_policy_set(scenarios: &[Scenario], reps: u32) -> Vec<Replicated> {
    assert!(reps >= 1);
    let mut campaign = crate::campaign::Campaign::new(None);
    let handle = campaign.add_figure(scenarios.to_vec(), reps);
    campaign.run().take(handle)
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
        let rep = run_replicated(&s, 3);
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
        let out = run_policy_set(&set, 2);
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
