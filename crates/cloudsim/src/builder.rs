//! The run API: compose a scenario, attach a probe, run it.
//!
//! ```ignore
//! let summary = SimBuilder::new(cfg)
//!     .workload(workload)
//!     .service(service)
//!     .policy(policy)
//!     .dispatcher(dispatcher)
//!     .run(&rngs);
//! ```
//!
//! The probe is the builder's one type parameter: attaching one
//! rebinds it, so the unprobed path stays statically monomorphized over
//! [`NullProbe`]:
//!
//! ```ignore
//! let (summary, sampler) = SimBuilder::new(cfg)
//!     .workload(w).service(s).policy(p).dispatcher(d)
//!     .probe(TimeSeriesProbe::new(60.0))
//!     .run_probed(&rngs);
//! let series = sampler.into_series();
//! ```

use crate::config::SimConfig;
use crate::metrics::RunSummary;
use crate::probe::{NullProbe, Probe};
use crate::sim::RunGroup;
use std::convert::Infallible;
use vmprov_core::dispatch::AnyDispatcher;
use vmprov_core::policy::ProvisioningPolicy;
use vmprov_des::RngFactory;
use vmprov_workloads::{ArrivalProcess, ServiceModel};

/// Builder for one simulation run. Construct with [`SimBuilder::new`],
/// supply the four required components (workload, service model,
/// policy, dispatcher), optionally attach a [`Probe`] and tweak knobs,
/// then [`run`](SimBuilder::run). Missing components panic at `run`
/// time with the component's name.
///
/// The builder's one type parameter is its probe, which
/// [`probe`](SimBuilder::probe) rebinds. The workload is boxed, since a
/// run calls it once per pulled run of batches; the dispatcher, called
/// once per request, is the closed [`AnyDispatcher`] enum.
pub struct SimBuilder<P: Probe = NullProbe> {
    cfg: SimConfig,
    workload: Option<Box<dyn ArrivalProcess + Send>>,
    service: Option<ServiceModel>,
    policy: Option<Box<dyn ProvisioningPolicy>>,
    dispatcher: Option<AnyDispatcher>,
    probe: P,
}

impl SimBuilder {
    /// Starts a builder from a scenario configuration, with no probe.
    pub fn new(cfg: SimConfig) -> Self {
        SimBuilder {
            cfg,
            workload: None,
            service: None,
            policy: None,
            dispatcher: None,
            probe: NullProbe,
        }
    }
}

impl<P: Probe> SimBuilder<P> {
    /// The arrival process driving the run (required).
    pub fn workload(mut self, workload: impl ArrivalProcess + Send + 'static) -> Self {
        self.workload = Some(Box::new(workload));
        self
    }

    /// The service-time model (required).
    pub fn service(mut self, service: ServiceModel) -> Self {
        self.service = Some(service);
        self
    }

    /// The provisioning policy (required).
    pub fn policy(mut self, policy: Box<dyn ProvisioningPolicy>) -> Self {
        self.policy = Some(policy);
        self
    }

    /// The request dispatcher (required): any strategy, or an
    /// [`AnyDispatcher`] picked at runtime.
    pub fn dispatcher(mut self, dispatcher: impl Into<AnyDispatcher>) -> Self {
        self.dispatcher = Some(dispatcher.into());
        self
    }

    /// Overrides how many arrival batches the run's arrival stream
    /// pulls and expands at a time (default: the config's; `1` is the
    /// scalar cadence). Performance only — the summary is the same at
    /// every depth; see [`SimConfig::arrival_run`].
    pub fn arrival_run(mut self, run: u32) -> Self {
        assert!(run >= 1, "arrival run length must be at least 1");
        self.cfg.arrival_run = run;
        self
    }

    /// Attaches a probe, rebinding the builder's probe type. Compose
    /// several with a tuple: `.probe((trace, sampler))`.
    pub fn probe<Q: Probe>(self, probe: Q) -> SimBuilder<Q> {
        SimBuilder {
            cfg: self.cfg,
            workload: self.workload,
            service: self.service,
            policy: self.policy,
            dispatcher: self.dispatcher,
            probe,
        }
    }

    /// Compatibility stub for the removed intra-run shard engine: only
    /// `None` inhabits `Option<Infallible>`, so this is a no-op.
    pub fn shards(self, _shards: Option<Infallible>) -> Self {
        self
    }

    /// Runs the scenario to completion and returns its summary.
    pub fn run(self, rngs: &RngFactory) -> RunSummary {
        self.run_probed(rngs).0
    }

    /// Runs the scenario and also returns the probe, for reading back
    /// what it collected (samples, counters, an owned trace buffer).
    ///
    /// `inline(never)` pins the whole simulation loop to one symbol per
    /// probe type: without it the optimizer may emit separate copies for
    /// `run` and direct `run_probed` callers, whose per-process layout
    /// differences register as phantom probe overhead in quickbench. The
    /// call happens once per simulation, so the attribute costs nothing.
    #[inline(never)]
    pub fn run_probed(self, rngs: &RngFactory) -> (RunSummary, P) {
        solo(RunGroup::start(vec![self], rngs, None).finish(None))
    }

    /// The builder's components; missing ones panic here with their
    /// names (the workload may be absent: a group reads only its first
    /// run's).
    pub(crate) fn into_parts(self) -> Parts<P> {
        Parts {
            cfg: self.cfg,
            workload: self.workload,
            service: self.service.unwrap_or_else(|| missing("service")),
            policy: self.policy.unwrap_or_else(|| missing("policy")),
            dispatcher: self.dispatcher.unwrap_or_else(|| missing("dispatcher")),
            probe: self.probe,
        }
    }
}

/// A [`SimBuilder`]'s components, checked.
pub(crate) struct Parts<P> {
    pub(crate) cfg: SimConfig,
    pub(crate) workload: Option<Box<dyn ArrivalProcess + Send>>,
    pub(crate) service: ServiceModel,
    pub(crate) policy: Box<dyn ProvisioningPolicy>,
    pub(crate) dispatcher: AnyDispatcher,
    pub(crate) probe: P,
}

/// Panics for a component no builder supplied.
pub(crate) fn missing(what: &str) -> ! {
    panic!("SimBuilder::run: no {what} was set (call .{what}(…) before .run)")
}

/// The one result of a group of one.
fn solo<P>(mut results: Vec<(RunSummary, P)>) -> (RunSummary, P) {
    results.pop().expect("a group of one has one result")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsOptions;
    use crate::probe::{TimeSeriesProbe, TraceProbe};
    use crate::sim::SimScratch;
    use vmprov_core::qos::QosTargets;
    use vmprov_core::{RoundRobin, StaticPolicy};
    use vmprov_des::SimTime;
    use vmprov_workloads::synthetic::PoissonProcess;

    fn cfg() -> SimConfig {
        SimConfig {
            hosts: 50,
            monitor_interval: 10.0,
            ..SimConfig::paper(0.100, 0.250)
        }
    }

    fn base(m: u32, rate: f64, horizon: f64) -> SimBuilder {
        SimBuilder::new(cfg())
            .workload(PoissonProcess::new(rate, SimTime::from_secs(horizon)))
            .service(ServiceModel::new(0.100, 0.10))
            .policy(Box::new(StaticPolicy::new(m, QosTargets::web_paper())))
            .dispatcher(RoundRobin::new())
    }

    #[test]
    fn same_seed_same_build_is_reproducible() {
        // Two independently-built runs with the same components and
        // seed produce identical summaries.
        let a = base(8, 50.0, 500.0).run(&RngFactory::new(42));
        let b = base(8, 50.0, 500.0).run(&RngFactory::new(42));
        assert_eq!(a, b);
    }

    #[test]
    fn any_probe_leaves_the_summary_bit_identical() {
        let rngs = RngFactory::new(7);
        let plain = base(6, 40.0, 400.0).run(&rngs);
        /// Counts arrivals and completions.
        #[derive(Default)]
        struct Counts(u64, u64);
        impl Probe for Counts {
            fn on_arrival(&mut self, _: SimTime, _: crate::RequestClass) {
                self.0 += 1;
            }
            fn on_service_complete(&mut self, _: SimTime, _: u32, _: f64, _: f64) {
                self.1 += 1;
            }
        }
        let (traced, probe) = base(6, 40.0, 400.0)
            .probe((
                TraceProbe::new(Vec::new()),
                (TimeSeriesProbe::new(25.0), Counts::default()),
            ))
            .run_probed(&rngs);
        assert_eq!(plain, traced, "probes must not perturb the run");
        let (trace, (sampler, counts)) = probe;
        assert!(trace.lines() > 0);
        assert!(sampler.samples().len() >= 400 / 25);
        assert_eq!(counts.0, plain.offered_requests);
        assert_eq!(counts.1, plain.accepted_requests);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh() {
        // Run two *different* scenarios back-to-back through the same
        // scratch — the second inherits storage shaped by the first
        // (different k, different event population) and must still
        // match a cold run exactly.
        let fresh_a = base(8, 50.0, 500.0).run(&RngFactory::new(42));
        let fresh_b = base(3, 20.0, 700.0).run(&RngFactory::new(43));

        let mut scratch = SimScratch::new();
        let mut warm = |builder, seed| {
            let group = RunGroup::start(vec![builder], &RngFactory::new(seed), Some(&mut scratch));
            solo(group.finish(Some(&mut scratch))).0
        };
        let warm_a = warm(base(8, 50.0, 500.0), 42);
        let warm_b = warm(base(3, 20.0, 700.0), 43);
        // And the same scenario again, now through storage warmed by a
        // different one.
        let warm_a2 = warm(base(8, 50.0, 500.0), 42);

        assert_eq!(fresh_a, warm_a, "first warm run diverged");
        assert_eq!(fresh_b, warm_b, "cross-scenario reuse diverged");
        assert_eq!(fresh_a, warm_a2, "re-warmed run diverged");
    }

    #[test]
    fn paused_runs_match_the_unpaused_summary() {
        // Arbitrary, often repeated bounds — before the first event, on
        // event instants, past the horizon — must leave the summary of
        // a run that never paused.
        let whole = base(8, 50.0, 500.0).run(&RngFactory::new(11));
        let mut state = 0x5eed_u64;
        for trial in 0..4 {
            let mut run = RunGroup::start(vec![base(8, 50.0, 500.0)], &RngFactory::new(11), None);
            let mut bound = 0.0;
            while bound < 520.0 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                bound += match (state >> 33) % 4 {
                    0 => 0.0,
                    1 => 0.001,
                    2 => ((state >> 40) % 50) as f64,
                    _ => (trial as f64 + 1.0) * 7.5,
                };
                run.advance_before(SimTime::from_secs(bound));
            }
            assert_eq!(solo(run.finish(None)).0, whole, "trial {trial}");
        }
    }

    #[test]
    fn histogram_metrics_enable_p99() {
        let cfg = SimConfig {
            metrics: MetricsOptions::with_histogram(),
            ..cfg()
        };
        let s = SimBuilder::new(cfg)
            .workload(PoissonProcess::new(50.0, SimTime::from_secs(300.0)))
            .service(ServiceModel::new(0.100, 0.10))
            .policy(Box::new(StaticPolicy::new(8, QosTargets::web_paper())))
            .dispatcher(RoundRobin::new())
            .run(&RngFactory::new(11));
        assert!(s.p99_response_time.is_some());
    }

    #[test]
    #[should_panic(expected = "no workload was set")]
    fn missing_component_names_itself() {
        SimBuilder::new(cfg())
            .service(ServiceModel::new(0.1, 0.1))
            .policy(Box::new(StaticPolicy::new(1, QosTargets::web_paper())))
            .dispatcher(RoundRobin::new())
            .run(&RngFactory::new(1));
    }
}
