//! The run API: compose a scenario, attach a probe, run it.
//!
//! [`SimBuilder`] replaced the old six-positional-argument
//! `run_scenario` free function (removed after its one-release
//! deprecation window) so probes, metrics options, and future knobs
//! compose without another argument explosion:
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
//! Attaching a probe rebinds the builder's type parameter, so the
//! unprobed path stays statically monomorphized over [`NullProbe`]:
//!
//! ```ignore
//! let (summary, sampler) = SimBuilder::new(cfg)
//!     .workload(w).service(s).policy(p).dispatcher(d)
//!     .probe(TimeSeriesProbe::new(60.0))
//!     .run_probed(&rngs);
//! let series = sampler.into_series();
//! ```

use crate::config::SimConfig;
use crate::metrics::{MetricsOptions, RunSummary};
use crate::probe::{NullProbe, Probe};
use crate::sim::{RunGroup, SimScratch};
use std::convert::Infallible;
use vmprov_core::dispatch::{AnyDispatcher, Dispatcher};
use vmprov_core::policy::ProvisioningPolicy;
use vmprov_des::RngFactory;
use vmprov_workloads::{AnyWorkload, ArrivalProcess, ServiceModel};

/// Builder for one simulation run. Construct with [`SimBuilder::new`],
/// supply the four required components (workload, service model,
/// policy, dispatcher), optionally attach a [`Probe`] and tweak knobs,
/// then [`run`](SimBuilder::run). Missing components panic at `run`
/// time with the component's name.
///
/// The builder is generic over the workload and dispatcher it carries;
/// [`workload`](SimBuilder::workload) and
/// [`dispatcher`](SimBuilder::dispatcher) rebind those parameters the
/// same way [`probe`](SimBuilder::probe) rebinds the probe type, so the
/// simulation that eventually runs is monomorphized over exactly the
/// component types supplied. The defaults ([`AnyWorkload`],
/// [`AnyDispatcher`]) are what the experiments layer's scenario decoder
/// supplies, keeping the un-annotated `SimBuilder` name valid there.
pub struct SimBuilder<P = NullProbe, W = AnyWorkload, D = AnyDispatcher>
where
    P: Probe,
    W: ArrivalProcess + Send,
    D: Dispatcher,
{
    cfg: SimConfig,
    workload: Option<W>,
    service: Option<ServiceModel>,
    policy: Option<Box<dyn ProvisioningPolicy>>,
    dispatcher: Option<D>,
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

impl<P: Probe, W: ArrivalProcess + Send, D: Dispatcher> SimBuilder<P, W, D> {
    /// The arrival process driving the run (required). Rebinds the
    /// builder's workload type: pass a concrete process for a fully
    /// monomorphized run, or `Box<dyn ArrivalProcess + Send>` to keep
    /// the choice erased until runtime.
    pub fn workload<W2: ArrivalProcess + Send>(self, workload: W2) -> SimBuilder<P, W2, D> {
        SimBuilder {
            cfg: self.cfg,
            workload: Some(workload),
            service: self.service,
            policy: self.policy,
            dispatcher: self.dispatcher,
            probe: self.probe,
        }
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

    /// The request dispatcher (required). Rebinds the builder's
    /// dispatcher type (see [`workload`](Self::workload)).
    pub fn dispatcher<D2: Dispatcher>(self, dispatcher: D2) -> SimBuilder<P, W, D2> {
        SimBuilder {
            cfg: self.cfg,
            workload: self.workload,
            service: self.service,
            policy: self.policy,
            dispatcher: Some(dispatcher),
            probe: self.probe,
        }
    }

    /// Overrides the metrics collection options (default: the config's).
    pub fn metrics(mut self, options: MetricsOptions) -> Self {
        self.cfg.metrics = options;
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
    pub fn probe<Q: Probe>(self, probe: Q) -> SimBuilder<Q, W, D> {
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

    /// Like [`run`](Self::run), but recycles warm simulation storage
    /// from `scratch` (and returns it there afterwards). Bit-identical
    /// to `run`; campaign worker threads use it to avoid rebuilding the
    /// slot slab and FEL storage on every job.
    pub fn run_scratch(self, rngs: &RngFactory, scratch: &mut SimScratch) -> RunSummary {
        self.run_probed_scratch(rngs, scratch).0
    }

    /// Like [`run_probed`](Self::run_probed), with warm-storage reuse —
    /// see [`run_scratch`](Self::run_scratch).
    ///
    /// `inline(never)` for the same phantom-overhead reason as
    /// `run_probed`.
    #[inline(never)]
    pub fn run_probed_scratch(
        self,
        rngs: &RngFactory,
        scratch: &mut SimScratch,
    ) -> (RunSummary, P) {
        let group = RunGroup::start(vec![self], rngs, Some(&mut *scratch));
        solo(group.finish(Some(scratch)))
    }

    /// Builds the run without starting it, as a group of one, for
    /// callers that advance it in steps (see [`RunGroup`]).
    /// `start(r).finish(None)` returns what
    /// [`run_probed`](Self::run_probed) does.
    pub fn start(self, rngs: &RngFactory) -> RunGroup<P, W, D> {
        RunGroup::start(vec![self], rngs, None)
    }

    /// The builder's components; missing ones panic here with their
    /// names (the workload may be absent: a group reads only its first
    /// run's).
    pub(crate) fn into_parts(self) -> Parts<P, W, D> {
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
pub(crate) struct Parts<P, W, D> {
    pub(crate) cfg: SimConfig,
    pub(crate) workload: Option<W>,
    pub(crate) service: ServiceModel,
    pub(crate) policy: Box<dyn ProvisioningPolicy>,
    pub(crate) dispatcher: D,
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
    use crate::probe::{CounterProbe, TimeSeriesProbe, TraceProbe};
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

    /// A monomorphized builder: concrete workload and dispatcher types,
    /// no boxes anywhere on the hot path.
    fn base(m: u32, rate: f64, horizon: f64) -> SimBuilder<NullProbe, PoissonProcess, RoundRobin> {
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
        let (traced, probe) = base(6, 40.0, 400.0)
            .probe((
                TraceProbe::new(Vec::new()),
                (TimeSeriesProbe::new(25.0), CounterProbe::new()),
            ))
            .run_probed(&rngs);
        assert_eq!(plain, traced, "probes must not perturb the run");
        let (trace, (sampler, counters)) = probe;
        assert!(trace.lines() > 0);
        assert!(sampler.samples().len() >= 400 / 25);
        assert_eq!(counters.arrivals, plain.offered_requests);
        assert_eq!(counters.completions, plain.accepted_requests);
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
        let warm_a = base(8, 50.0, 500.0).run_scratch(&RngFactory::new(42), &mut scratch);
        let warm_b = base(3, 20.0, 700.0).run_scratch(&RngFactory::new(43), &mut scratch);
        // And the same scenario again, now through storage warmed by a
        // different one.
        let warm_a2 = base(8, 50.0, 500.0).run_scratch(&RngFactory::new(42), &mut scratch);

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
            let mut run = base(8, 50.0, 500.0).start(&RngFactory::new(11));
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
    fn metrics_override_enables_p99() {
        let s = base(8, 50.0, 300.0)
            .metrics(MetricsOptions::with_histogram())
            .run(&RngFactory::new(11));
        assert!(s.p99_response_time.is_some());
    }

    #[test]
    #[should_panic(expected = "no workload was set")]
    fn missing_component_names_itself() {
        SimBuilder::new(cfg())
            .service(ServiceModel::new(0.1, 0.1))
            .policy(Box::new(StaticPolicy::new(1, QosTargets::web_paper())))
            .dispatcher(Box::new(RoundRobin::new()))
            .run(&RngFactory::new(1));
    }
}
