//! Scenario definitions: everything needed to reproduce one run of the
//! paper's evaluation (§V) — workload, policy, data center, horizons.

use std::convert::Infallible;
use std::sync::Arc;
use vmprov_cloudsim::SimConfig;
use vmprov_core::analyzer::ScheduleAnalyzer;
use vmprov_core::estimator::{EstimatorAnalyzer, EwmaRate, SlidingWindowMle};
use vmprov_core::modeler::{ModelerOptions, PerformanceModeler, SizingInputs};
use vmprov_core::policy::{AdaptivePolicy, ProvisioningPolicy, StaticPolicy};
use vmprov_core::qos::QosTargets;
use vmprov_core::{AnalyticBackend, AnyDispatcher, LeastOutstanding, RandomDispatch, RoundRobin};
use vmprov_des::SimTime;
use vmprov_workloads::scientific::{
    is_peak, OFFPEAK_JOBS_MODE, OFFPEAK_WINDOW, PEAK_INTERARRIVAL_MODE, SIZE_CLASS_MODE,
};
use vmprov_workloads::{
    scientific_service_model, web_service_model, AnyWorkload, ScientificConfig, ScientificWorkload,
    ServiceModel, TraceSpec, WebConfig, WebWorkload,
};

/// Which of the evaluation workloads drives the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// The Wikipedia-derived web workload (§V-B1).
    Web,
    /// The Bag-of-Tasks scientific workload (§V-B2).
    Scientific,
    /// Streamed replay of an on-disk trace (the scenario's
    /// [`trace`](Scenario::trace) spec names it). Replayed requests use
    /// the web application profile: the paper's trace source is web
    /// traffic (the Wikipedia trace of §V-B1), so the web data center,
    /// service model, and QoS targets apply.
    Trace,
}

/// Which arrival-rate source the adaptive analyzer consults.
///
/// The paper's analyzer knows the generative workload model (an oracle
/// λ); the estimator variants drive Algorithm 1 from *observed*
/// arrivals instead — the CILP-style extension ISSUE 7 / the ROADMAP
/// call for. Ignored by static policies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AnalyzerSpec {
    /// The paper's time-based prediction model over the known rate
    /// schedule (default; all pre-existing scenarios use this).
    #[default]
    Oracle,
    /// Sliding-window Poisson MLE over the trailing window.
    SlidingMle {
        /// Trailing window length (seconds of monitoring coverage).
        window_secs: f64,
    },
    /// Exponentially weighted moving average of per-window rates.
    Ewma {
        /// Smoothing factor in (0, 1].
        alpha: f64,
    },
}

impl AnalyzerSpec {
    /// Parses the `repro replay --analyzer` spelling.
    pub fn parse(s: &str) -> Option<AnalyzerSpec> {
        match s {
            "oracle" => Some(AnalyzerSpec::Oracle),
            "mle" => Some(AnalyzerSpec::SlidingMle {
                window_secs: DEFAULT_MLE_WINDOW,
            }),
            "ewma" => Some(AnalyzerSpec::Ewma {
                alpha: DEFAULT_EWMA_ALPHA,
            }),
            _ => None,
        }
    }

    /// Short label for reports and file names.
    pub fn label(&self) -> &'static str {
        match self {
            AnalyzerSpec::Oracle => "oracle",
            AnalyzerSpec::SlidingMle { .. } => "mle",
            AnalyzerSpec::Ewma { .. } => "ewma",
        }
    }
}

/// Which provisioning policy manages the pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySpec {
    /// The paper's adaptive mechanism.
    Adaptive,
    /// A fixed pool of the given size.
    Static(u32),
}

/// Which dispatch strategy forwards accepted requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DispatchSpec {
    /// The paper's round-robin (default).
    #[default]
    RoundRobin,
    /// Join-the-shortest-queue (ablation).
    LeastOutstanding,
    /// Random (ablation).
    Random,
}

/// A fully specified simulation scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Workload family.
    pub workload: WorkloadKind,
    /// Policy under test.
    pub policy: PolicySpec,
    /// Dispatch strategy.
    pub dispatch: DispatchSpec,
    /// Simulated horizon (paper: one week web, one day scientific).
    pub horizon: SimTime,
    /// Analytic backend for the adaptive modeler.
    pub backend: AnalyticBackend,
    /// Base seed (replication r runs with `seed + r` mixed in).
    pub seed: u64,
    /// VM boot delay override (paper: 0).
    pub boot_delay: f64,
    /// Compatibility field left by the removed intra-run shard engine:
    /// `None` is its only value, and it is not part of the cache key.
    pub shards: Option<Infallible>,
    /// Arrival-rate source for the adaptive analyzer (oracle schedule
    /// by default; estimator variants for trace replay).
    pub analyzer: AnalyzerSpec,
    /// The scanned on-disk trace replayed when `workload` is
    /// [`WorkloadKind::Trace`] (`None` for the generative workloads).
    pub trace: Option<TraceSpec>,
}

/// What fixes one replication's arrival timestamps: the workload (its
/// kind, horizon and replayed trace content), the base seed and the
/// rep. Replications with equal keys see identical arrivals, so a
/// [`Campaign`](crate::Campaign) runs them as one group off one
/// arrival stream ([`run_group_warm`](crate::runner::run_group_warm)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArrivalKey {
    workload: WorkloadKind,
    horizon_bits: u64,
    /// Content hash, request total, batch count and end-time bits of
    /// the replayed trace.
    trace: Option<(u64, u64, u64, u64)>,
    seed: u64,
    rep: u32,
}

/// The paper's MaxVMs negotiation cap used by the adaptive modeler.
pub const MAX_VMS: u32 = 1000;

/// How often the adaptive analyzer re-evaluates (seconds). The paper's
/// web analyzer tracks its six daily periods; we refresh the schedule
/// prediction every 30 minutes, which subsumes the period boundaries.
pub const ANALYZER_INTERVAL: f64 = 1800.0;

/// Look-ahead horizon for predictions: one analyzer interval plus one
/// minute of lead so capacity is up before the rate arrives.
pub const PLANNING_HORIZON: f64 = ANALYZER_INTERVAL + 60.0;

/// Default trailing window of the sliding-window MLE estimator: one
/// analyzer interval of monitoring coverage, so each control tick
/// predicts from fresh, fully-turned-over data.
pub const DEFAULT_MLE_WINDOW: f64 = ANALYZER_INTERVAL;

/// Default EWMA smoothing factor for the estimator analyzer.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.3;

/// Relative headroom the estimator analyzers add on top of λ̂: slack
/// against the estimator's own sampling error, biasing errors toward
/// slight over-provisioning (QoS-safe) rather than under-provisioning.
pub const ESTIMATOR_HEADROOM: f64 = 0.05;

impl Scenario {
    /// The paper's web scenario with the given policy.
    pub fn web(policy: PolicySpec, seed: u64) -> Self {
        Scenario {
            workload: WorkloadKind::Web,
            policy,
            dispatch: DispatchSpec::RoundRobin,
            horizon: SimTime::from_secs(vmprov_des::WEEK),
            backend: AnalyticBackend::TwoMoment,
            seed,
            boot_delay: 0.0,
            shards: None,
            analyzer: AnalyzerSpec::Oracle,
            trace: None,
        }
    }

    /// The paper's scientific scenario with the given policy.
    pub fn scientific(policy: PolicySpec, seed: u64) -> Self {
        Scenario {
            workload: WorkloadKind::Scientific,
            horizon: SimTime::from_secs(vmprov_des::DAY),
            ..Scenario::web(policy, seed)
        }
    }

    /// A streamed replay of the scanned trace `spec` under `policy`.
    /// The horizon is the trace's end time; the data-center profile is
    /// the web one (see [`WorkloadKind::Trace`]).
    pub fn trace_replay(spec: TraceSpec, policy: PolicySpec, seed: u64) -> Self {
        Scenario {
            workload: WorkloadKind::Trace,
            horizon: spec.end_time,
            trace: Some(spec),
            ..Scenario::web(policy, seed)
        }
    }

    /// Same scenario with a different adaptive-analyzer rate source.
    pub fn with_analyzer(mut self, analyzer: AnalyzerSpec) -> Self {
        self.analyzer = analyzer;
        self
    }

    /// Same scenario with a shorter horizon (quick modes).
    ///
    /// A generated workload submits only arrivals before the horizon,
    /// whatever its value: the web workload clips its last 60-second
    /// interval to it. A horizon the intervals tile (every recorded
    /// mode) generates exactly the full intervals; one that does not
    /// ends with a shorter interval carrying its share of the requests.
    /// A trace replay stops at its first row past the horizon; past the
    /// trace's last row it replays every row, the same run as at the
    /// trace's own horizon (see [`simulated_horizon`](Self::simulated_horizon)).
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// The horizon the run simulates: `horizon`, except that a trace
    /// replay ends at its last row, `min(horizon, end_time)`. The
    /// workload, the run-cache key and the arrival key all read this,
    /// so a cut past the trace's end names the run it runs.
    pub fn simulated_horizon(&self) -> SimTime {
        match self.workload {
            WorkloadKind::Trace => self.horizon.min(self.trace_spec().end_time),
            WorkloadKind::Web | WorkloadKind::Scientific => self.horizon,
        }
    }

    /// QoS targets of the scenario.
    pub fn qos(&self) -> QosTargets {
        match self.workload {
            WorkloadKind::Web | WorkloadKind::Trace => QosTargets::web_paper(),
            WorkloadKind::Scientific => QosTargets::scientific_paper(),
        }
    }

    /// Data-center configuration.
    pub fn sim_config(&self) -> SimConfig {
        let mut cfg = match self.workload {
            WorkloadKind::Web | WorkloadKind::Trace => SimConfig::paper_web(),
            WorkloadKind::Scientific => SimConfig::paper_scientific(),
        };
        cfg.boot_delay = self.boot_delay;
        cfg
    }

    /// Per-request service model.
    pub fn service_model(&self) -> ServiceModel {
        match self.workload {
            WorkloadKind::Web | WorkloadKind::Trace => web_service_model(),
            WorkloadKind::Scientific => scientific_service_model(),
        }
    }

    /// The scanned trace spec, for [`WorkloadKind::Trace`] scenarios.
    ///
    /// # Panics
    /// Panics when the scenario has no trace — constructing a `Trace`
    /// scenario goes through [`Scenario::trace_replay`], which always
    /// attaches one.
    fn trace_spec(&self) -> &TraceSpec {
        self.trace
            .as_ref()
            .expect("a Trace scenario must carry a TraceSpec")
    }

    /// Builds the arrival process for this scenario's horizon, as the
    /// closed [`AnyWorkload`] enum — the simulation stays monomorphized
    /// (no `Box<dyn ArrivalProcess>` on the hot path) even though the
    /// model is picked at runtime.
    pub fn build_workload(&self) -> AnyWorkload {
        match self.workload {
            WorkloadKind::Web => WebWorkload::new(WebConfig {
                horizon: self.horizon,
                ..WebConfig::default()
            })
            .into(),
            WorkloadKind::Scientific => ScientificWorkload::new(ScientificConfig {
                horizon: self.horizon,
            })
            .into(),
            WorkloadKind::Trace => self
                .trace_spec()
                .replay()
                .with_horizon(self.simulated_horizon())
                .into(),
        }
    }

    /// The rate schedule the paper's analyzer uses for this workload:
    /// the generative web model itself, or the mode-based two-level
    /// estimate with the 1.2× / 2.6× safety factors for the scientific
    /// workload (§V-B2).
    pub fn analyzer_rate_fn(&self) -> Arc<dyn Fn(SimTime) -> f64 + Send + Sync> {
        match self.workload {
            WorkloadKind::Web => {
                let oracle = WebWorkload::paper();
                Arc::new(move |t| {
                    use vmprov_workloads::ArrivalProcess as _;
                    oracle.model_rate(t)
                })
            }
            WorkloadKind::Scientific => {
                let peak = SIZE_CLASS_MODE * 1.2 / PEAK_INTERARRIVAL_MODE;
                let off = OFFPEAK_JOBS_MODE * 2.6 / OFFPEAK_WINDOW;
                Arc::new(move |t: SimTime| {
                    if is_peak(t.second_of_day()) {
                        peak
                    } else {
                        off
                    }
                })
            }
            WorkloadKind::Trace => {
                // The whole-trace mean — the oracle for a stationary
                // trace, and the capacity-planning rate non-oracle
                // analyzers fall back to before monitoring data exists.
                let rate = self.trace_spec().mean_rate;
                Arc::new(move |_| rate)
            }
        }
    }

    /// Builds the provisioning policy.
    pub fn build_policy(&self) -> Box<dyn ProvisioningPolicy> {
        match self.policy {
            PolicySpec::Static(m) => Box::new(StaticPolicy::new(m, self.qos())),
            PolicySpec::Adaptive => {
                let options = ModelerOptions {
                    backend: self.backend,
                };
                let modeler = PerformanceModeler::new(self.qos(), MAX_VMS, options);
                let rate_fn = self.analyzer_rate_fn();
                // Size the initial fleet from the t = 0 prediction so the
                // run starts provisioned (the paper's pools exist from
                // the start).
                let cfg = self.sim_config();
                let rate0 = (0..=60)
                    .map(|i| rate_fn(SimTime::from_secs(i as f64 * PLANNING_HORIZON / 60.0)))
                    .fold(0.0f64, f64::max);
                let initial = if rate0 > 0.0 {
                    modeler
                        .required_instances(&SizingInputs {
                            expected_arrival_rate: rate0,
                            monitored_service_time: cfg.initial_service_estimate,
                            service_scv: cfg.initial_scv_estimate,
                            current_instances: 1,
                        })
                        .instances
                } else {
                    1
                };
                // The analyzer spec picks the rate source for steady
                // state; the *initial* fleet is always sized from the
                // declared rate above — an estimator has seen nothing
                // at t = 0, and a real operator provisions the first
                // pool from capacity planning either way.
                // Replayed traces plan with the same relative headroom
                // whatever the rate source, so switching the analyzer
                // isolates *estimation* error: an oracle fleet and an
                // estimator fleet differ only by λ̂ − λ. The paper
                // scenarios keep their margin-free oracle.
                let oracle_margin = match self.workload {
                    WorkloadKind::Trace => ESTIMATOR_HEADROOM,
                    WorkloadKind::Web | WorkloadKind::Scientific => 0.0,
                };
                let analyzer: Box<dyn vmprov_core::WorkloadAnalyzer> = match self.analyzer {
                    AnalyzerSpec::Oracle => Box::new(ScheduleAnalyzer::new(
                        rate_fn,
                        ANALYZER_INTERVAL,
                        oracle_margin,
                    )),
                    AnalyzerSpec::SlidingMle { window_secs } => Box::new(EstimatorAnalyzer::new(
                        Box::new(SlidingWindowMle::new(window_secs)),
                        rate0,
                        ESTIMATOR_HEADROOM,
                        ANALYZER_INTERVAL,
                    )),
                    AnalyzerSpec::Ewma { alpha } => Box::new(EstimatorAnalyzer::new(
                        Box::new(EwmaRate::new(alpha)),
                        rate0,
                        ESTIMATOR_HEADROOM,
                        ANALYZER_INTERVAL,
                    )),
                };
                Box::new(AdaptivePolicy::new(
                    analyzer,
                    modeler,
                    PLANNING_HORIZON,
                    initial,
                ))
            }
        }
    }

    /// Builds the dispatcher, as the closed [`AnyDispatcher`] enum (same
    /// static-dispatch rationale as [`build_workload`](Self::build_workload)).
    pub fn build_dispatcher(&self) -> AnyDispatcher {
        match self.dispatch {
            DispatchSpec::RoundRobin => RoundRobin::new().into(),
            DispatchSpec::LeastOutstanding => LeastOutstanding::new().into(),
            DispatchSpec::Random => RandomDispatch::new().into(),
        }
    }

    /// The arrival group of replication `rep` (see [`ArrivalKey`]).
    pub fn arrival_key(&self, rep: u32) -> ArrivalKey {
        // Exhaustive: a new field must be sorted into "shapes the
        // arrivals" or not before this builds.
        let Scenario {
            workload,
            horizon: _,
            seed,
            trace,
            policy: _,
            dispatch: _,
            backend: _,
            boot_delay: _,
            shards: _,
            analyzer: _,
        } = self;
        ArrivalKey {
            workload: *workload,
            horizon_bits: self.simulated_horizon().as_secs().to_bits(),
            trace: trace.as_ref().map(|t| {
                (
                    t.content_hash,
                    t.total_requests,
                    t.batches,
                    t.end_time.as_secs().to_bits(),
                )
            }),
            seed: *seed,
            rep,
        }
    }

    /// Human-readable policy label.
    pub fn policy_label(&self) -> String {
        match self.policy {
            PolicySpec::Adaptive => "Adaptive".to_string(),
            PolicySpec::Static(m) => format!("Static-{m}"),
        }
    }
}

impl vmprov_json::ToJson for Scenario {
    /// Serializes **every** field that can influence a run's result —
    /// this is the content the run cache addresses, so omitting a field
    /// here would alias distinct runs onto one cache entry. The
    /// field-count assertion below fails the build of this method's
    /// tests when `Scenario` grows a field that isn't serialized.
    fn to_json(&self) -> vmprov_json::Json {
        use vmprov_json::Json;
        let workload = match self.workload {
            WorkloadKind::Web => "web",
            WorkloadKind::Scientific => "scientific",
            WorkloadKind::Trace => "trace",
        };
        let policy = match self.policy {
            PolicySpec::Adaptive => Json::from("adaptive"),
            PolicySpec::Static(m) => Json::obj([("static", Json::from(m))]),
        };
        let dispatch = match self.dispatch {
            DispatchSpec::RoundRobin => "round_robin",
            DispatchSpec::LeastOutstanding => "least_outstanding",
            DispatchSpec::Random => "random",
        };
        let backend = match self.backend {
            AnalyticBackend::Mm1k => "mm1k",
            AnalyticBackend::TwoMoment => "two_moment",
        };
        Json::obj([
            ("workload", Json::from(workload)),
            ("policy", policy),
            ("dispatch", Json::from(dispatch)),
            (
                "horizon_secs",
                Json::from(self.simulated_horizon().as_secs()),
            ),
            ("backend", Json::from(backend)),
            ("seed", Json::from(self.seed)),
            ("boot_delay", Json::from(self.boot_delay)),
            (
                "analyzer",
                match self.analyzer {
                    AnalyzerSpec::Oracle => Json::from("oracle"),
                    AnalyzerSpec::SlidingMle { window_secs } => Json::obj([(
                        "sliding_mle",
                        Json::obj([("window_secs", Json::from(window_secs))]),
                    )]),
                    AnalyzerSpec::Ewma { alpha } => {
                        Json::obj([("ewma", Json::obj([("alpha", Json::from(alpha))]))])
                    }
                },
            ),
            (
                "trace",
                // A trace is identified by *content*, so the key
                // carries the hash and the scan totals — never the
                // path (two copies of one trace must share entries)
                // and never the chunk size (pure buffering mechanics;
                // results are bit-identical for every value, pinned by
                // the chunk-boundary property test).
                match &self.trace {
                    Some(spec) => Json::obj([
                        ("content_hash", Json::from(spec.content_hash)),
                        ("total_requests", Json::from(spec.total_requests)),
                        ("end_time_secs", Json::from(spec.end_time.as_secs())),
                    ]),
                    None => Json::Null,
                },
            ),
        ])
    }
}

/// The static pool sizes of Fig. 5 (web).
pub const WEB_STATIC_SIZES: [u32; 5] = [50, 75, 100, 125, 150];

/// The static pool sizes of Fig. 6 (scientific).
pub const SCI_STATIC_SIZES: [u32; 5] = [15, 30, 45, 60, 75];

/// The full policy set of Fig. 5.
pub fn fig5_scenarios(seed: u64, horizon: SimTime) -> Vec<Scenario> {
    let mut out = vec![Scenario::web(PolicySpec::Adaptive, seed).with_horizon(horizon)];
    for m in WEB_STATIC_SIZES {
        out.push(Scenario::web(PolicySpec::Static(m), seed).with_horizon(horizon));
    }
    out
}

/// The full policy set of Fig. 6.
pub fn fig6_scenarios(seed: u64) -> Vec<Scenario> {
    let mut out = vec![Scenario::scientific(PolicySpec::Adaptive, seed)];
    for m in SCI_STATIC_SIZES {
        out.push(Scenario::scientific(PolicySpec::Static(m), seed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn web_scenario_shape() {
        let s = Scenario::web(PolicySpec::Adaptive, 1);
        assert_eq!(s.horizon.as_secs(), vmprov_des::WEEK);
        assert_eq!(s.qos().max_response_time, 0.250);
        assert_eq!(s.sim_config().hosts, 1000);
        assert_eq!(s.policy_label(), "Adaptive");
    }

    #[test]
    fn scientific_analyzer_levels_match_paper() {
        let s = Scenario::scientific(PolicySpec::Adaptive, 1);
        let f = s.analyzer_rate_fn();
        // §V-B2: peak 1.309/7.379 × 1.2 ≈ 0.2129; off-peak
        // 15.298 × 2.6 / 1800 ≈ 0.0221.
        let peak = f(SimTime::from_secs(10.0 * 3600.0));
        let off = f(SimTime::from_secs(2.0 * 3600.0));
        assert!((peak - 0.2129).abs() < 1e-3, "peak {peak}");
        assert!((off - 0.0221).abs() < 1e-3, "off {off}");
    }

    #[test]
    fn adaptive_initial_fleet_is_provisioned() {
        let s = Scenario::web(PolicySpec::Adaptive, 1);
        let p = s.build_policy();
        // Monday midnight rate 500/s → ≈55–66 instances.
        let init = p.initial_instances();
        assert!((55..=75).contains(&init), "initial {init}");
    }

    #[test]
    fn figure_scenario_sets() {
        let f5 = fig5_scenarios(1, SimTime::from_secs(vmprov_des::WEEK));
        assert_eq!(f5.len(), 6);
        assert_eq!(f5[0].policy, PolicySpec::Adaptive);
        assert_eq!(f5[5].policy, PolicySpec::Static(150));
        let f6 = fig6_scenarios(1);
        assert_eq!(f6.len(), 6);
        assert_eq!(f6[1].policy, PolicySpec::Static(15));
    }

    #[test]
    fn scenario_json_covers_every_field() {
        use vmprov_json::ToJson;
        let s = Scenario::web(PolicySpec::Static(3), 5);
        // Exhaustive destructuring: adding a field to `Scenario` breaks
        // this build until `to_json` serializes it, which moves every
        // run-cache key on its own.
        let Scenario {
            workload: _,
            policy: _,
            dispatch: _,
            horizon: _,
            backend: _,
            seed: _,
            boot_delay: _,
            shards: _,
            analyzer: _,
            trace: _,
        } = s.clone();
        let j = s.to_json();
        let vmprov_json::Json::Obj(members) = &j else {
            panic!("scenario JSON is an object");
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "workload",
                "policy",
                "dispatch",
                "horizon_secs",
                "backend",
                "seed",
                "boot_delay",
                "analyzer",
                "trace",
            ],
            "the canonical JSON is the run-cache identity"
        );
        assert_eq!(j.get("seed").unwrap().as_u64(), Some(5));
        assert_eq!(j.get("workload").unwrap().as_str(), Some("web"));
        assert_eq!(j.get("analyzer").unwrap().as_str(), Some("oracle"));
        assert_eq!(j.get("trace"), Some(&vmprov_json::Json::Null));
        let mle = s
            .with_analyzer(AnalyzerSpec::SlidingMle { window_secs: 900.0 })
            .to_json();
        assert_eq!(
            mle.get("analyzer")
                .unwrap()
                .get("sliding_mle")
                .unwrap()
                .get("window_secs")
                .unwrap()
                .as_f64(),
            Some(900.0)
        );
        assert_eq!(
            j.get("policy").unwrap().get("static").unwrap().as_u64(),
            Some(3)
        );
        assert_eq!(
            j.get("horizon_secs").unwrap().as_f64(),
            Some(vmprov_des::WEEK)
        );
    }

    fn toy_spec() -> TraceSpec {
        TraceSpec {
            path: std::path::PathBuf::from("/nonexistent/toy.csv"),
            content_hash: 0xDEAD_BEEF,
            total_requests: 120_000,
            batches: 120_000,
            end_time: SimTime::from_secs(600.0),
            mean_rate: 200.0,
            chunk: 8192,
        }
    }

    #[test]
    fn trace_scenario_uses_web_profile_and_trace_horizon() {
        let s = Scenario::trace_replay(toy_spec(), PolicySpec::Adaptive, 3);
        assert_eq!(s.horizon.as_secs(), 600.0);
        assert_eq!(s.qos().max_response_time, 0.250);
        assert_eq!(s.sim_config().hosts, 1000);
        let f = s.analyzer_rate_fn();
        assert_eq!(f(SimTime::from_secs(0.0)), 200.0);
        assert_eq!(f(SimTime::from_secs(599.0)), 200.0);
        // The initial fleet is sized from the declared rate whatever
        // the analyzer spec: estimators have seen nothing at t = 0.
        let oracle_init = s.build_policy().initial_instances();
        let est_init = s
            .clone()
            .with_analyzer(AnalyzerSpec::SlidingMle { window_secs: 900.0 })
            .build_policy()
            .initial_instances();
        assert_eq!(oracle_init, est_init);
        assert!(oracle_init > 1, "200 req/s needs a real fleet");
    }

    #[test]
    fn trace_json_is_keyed_by_content_not_location() {
        use vmprov_json::ToJson;
        let a = Scenario::trace_replay(toy_spec(), PolicySpec::Adaptive, 3);
        let mut moved = a.clone();
        let spec = moved.trace.as_mut().unwrap();
        spec.path = std::path::PathBuf::from("/elsewhere/copy.csv");
        spec.chunk = 1;
        assert_eq!(
            a.to_json().to_string_canonical(),
            moved.to_json().to_string_canonical(),
            "path and chunk must not enter the cache identity"
        );
        let mut edited = a.clone();
        edited.trace.as_mut().unwrap().content_hash ^= 1;
        assert_ne!(
            a.to_json().to_string_canonical(),
            edited.to_json().to_string_canonical()
        );
    }

    #[test]
    fn analyzer_spec_parses_repro_spellings() {
        assert_eq!(AnalyzerSpec::parse("oracle"), Some(AnalyzerSpec::Oracle));
        assert_eq!(
            AnalyzerSpec::parse("mle"),
            Some(AnalyzerSpec::SlidingMle {
                window_secs: DEFAULT_MLE_WINDOW
            })
        );
        assert_eq!(
            AnalyzerSpec::parse("ewma"),
            Some(AnalyzerSpec::Ewma {
                alpha: DEFAULT_EWMA_ALPHA
            })
        );
        assert_eq!(AnalyzerSpec::parse("psychic"), None);
        assert_eq!(AnalyzerSpec::default().label(), "oracle");
    }

    #[test]
    fn static_policy_built_correctly() {
        let s = Scenario::scientific(PolicySpec::Static(45), 2);
        let p = s.build_policy();
        assert_eq!(p.name(), "Static-45");
        assert_eq!(p.initial_instances(), 45);
        assert_eq!(s.policy_label(), "Static-45");
    }
}
