//! Equivalence pins for the batched request hot path (arrival-burst
//! prefetch + staged bulk insert + bitset admission):
//!
//! * On continuous-time workloads (Poisson, web) the batched arrival
//!   path is **bit-identical** to the scalar cadence for every prefetch
//!   depth — arrival times are a deterministic
//!   multiset and `Arrival` events carry no payload, so reassigning
//!   insertion ids within a sorted run is unobservable.
//! * Bitset admission (trailing-zeros scan over the k-full bitmap)
//!   keeps its bitmap consistent with the instance queues over
//!   randomized k / fleet-size grids, with and without priority
//!   reservations. The simulator audits the bitmap in debug builds at
//!   every monitor tick and evaluation and checks every pick has room;
//!   these runs drive that audit. The pick itself is pinned against the
//!   branchy ring probe in `vmprov-core`'s dispatch tests.
//! * A policy that oscillates the target every tick churns the
//!   draining list (drain → revive → drain, with failures landing
//!   mid-list), exercising its O(1) swap-remove path; runs must stay
//!   deterministic under that churn.

use vmprov_cloudsim::config::PriorityConfig;
use vmprov_cloudsim::{RunSummary, SimBuilder, SimConfig};
use vmprov_core::policy::{PoolStatus, ProvisioningPolicy};
use vmprov_core::qos::QosTargets;
use vmprov_core::{RoundRobin, StaticPolicy};
use vmprov_des::{RngFactory, SimTime};
use vmprov_workloads::synthetic::PoissonProcess;
use vmprov_workloads::{ServiceModel, WebConfig, WebWorkload};

const RUNS: [u32; 3] = [1, 7, 64];

/// A static fleet with an explicitly pinned per-instance queue
/// capacity, so the admission grid can sweep k directly.
struct FixedPool {
    m: u32,
    k: u32,
}

impl ProvisioningPolicy for FixedPool {
    fn name(&self) -> String {
        format!("FixedPool-{}x{}", self.m, self.k)
    }

    fn initial_instances(&self) -> u32 {
        self.m
    }

    fn evaluate(&mut self, _status: &PoolStatus) -> u32 {
        self.m
    }

    fn next_evaluation(&self, now: SimTime) -> SimTime {
        now + 60.0
    }

    fn queue_capacity(&self, _tm: f64) -> u32 {
        self.k
    }
}

fn run_poisson(arrival_run: u32) -> RunSummary {
    SimBuilder::new(SimConfig::paper(0.100, 0.250))
        .workload(PoissonProcess::new(150.0, SimTime::from_secs(600.0)))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(StaticPolicy::new(20, QosTargets::web_paper())))
        .dispatcher(RoundRobin::new())
        .arrival_run(arrival_run)
        .run(&RngFactory::new(0xBA7C))
}

fn run_web(arrival_run: u32, seed: u64) -> RunSummary {
    SimBuilder::new(SimConfig::paper_web())
        .workload(WebWorkload::new(WebConfig {
            horizon: SimTime::from_secs(1800.0),
            ..WebConfig::default()
        }))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(StaticPolicy::new(60, QosTargets::web_paper())))
        .dispatcher(RoundRobin::new())
        .arrival_run(arrival_run)
        .run(&RngFactory::new(seed))
}

/// Poisson arrivals: every prefetch depth must reproduce the scalar
/// run bit for bit.
#[test]
fn batched_arrivals_match_scalar_poisson() {
    let scalar = run_poisson(1);
    assert!(scalar.offered_requests > 10_000, "run too small to pin");
    for run in RUNS {
        assert_eq!(
            scalar,
            run_poisson(run),
            "arrival_run={run} diverged from scalar"
        );
    }
}

/// The web workload's spread batches (count > 1 with intra-batch
/// uniform spread) exercise the sorted bulk-expansion path; batched
/// prefetch must still be bit-identical.
#[test]
fn batched_arrivals_match_scalar_web() {
    let scalar = run_web(1, 1109);
    assert!(scalar.offered_requests > 10_000, "run too small to pin");
    for run in RUNS {
        assert_eq!(
            scalar,
            run_web(run, 1109),
            "web arrival_run={run} diverged from scalar"
        );
    }
}

/// The has-room bitmap must track the instance queues across a
/// randomized grid of queue capacities, fleet sizes (straddling the
/// 64-bit word boundary), and loads.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the room_bits audit is a debug assertion"
)]
fn room_bits_stay_consistent_over_grid() {
    let mut grid_rng = RngFactory::new(0xB175E7).stream("grid");
    for (k, m) in [(1u32, 3u32), (2, 17), (5, 63), (5, 64), (10, 70), (3, 128)] {
        // A load high enough that queues fill (so the k-full bit
        // actually clears and sets) but finite, drawn per cell.
        let rho = 0.7 + 0.25 * grid_rng.uniform01();
        let rate = rho * m as f64 / 0.100;
        let cfg = SimConfig {
            hosts: 200,
            ..SimConfig::paper(0.100, 0.250)
        };
        let summary = SimBuilder::new(cfg)
            .workload(PoissonProcess::new(rate, SimTime::from_secs(120.0)))
            .service(ServiceModel::new(0.100, 0.10))
            .policy(Box::new(FixedPool { m, k }))
            .dispatcher(RoundRobin::new())
            .run(&RngFactory::new(0x9A7E ^ u64::from(k * 1000 + m)));
        assert!(summary.offered_requests > 1_000, "k={k} m={m}: tiny run");
    }
}

/// With a priority reservation the low class scans a shrunk capacity
/// (the branchy path) while the high class still sees the exact bitmap;
/// the bitmap must stay consistent under the mixed traffic.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the room_bits audit is a debug assertion"
)]
fn room_bits_stay_consistent_with_priority() {
    let cfg = SimConfig {
        hosts: 100,
        priority: Some(PriorityConfig::new(0.3, 2)),
        ..SimConfig::paper(0.100, 0.250)
    };
    let summary = SimBuilder::new(cfg)
        .workload(PoissonProcess::new(280.0, SimTime::from_secs(300.0)))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(FixedPool { m: 30, k: 5 }))
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(0xC1A55));
    assert!(summary.offered_high > 1_000, "no high-priority traffic");
    assert!(
        summary.rejected_requests > summary.rejected_high,
        "the low class never hit its reservation"
    );
}

/// A target that flips between a wide and a narrow fleet every
/// evaluation, so instances continuously drain, revive, and die from
/// the middle of the draining list.
struct Oscillator {
    high: u32,
    low: u32,
    tick: u32,
}

impl ProvisioningPolicy for Oscillator {
    fn name(&self) -> String {
        format!("Oscillator-{}-{}", self.high, self.low)
    }

    fn initial_instances(&self) -> u32 {
        self.high
    }

    fn evaluate(&mut self, _status: &PoolStatus) -> u32 {
        self.tick += 1;
        if self.tick.is_multiple_of(2) {
            self.high
        } else {
            self.low
        }
    }

    fn next_evaluation(&self, now: SimTime) -> SimTime {
        now + 30.0
    }

    fn queue_capacity(&self, _tm: f64) -> u32 {
        5
    }
}

fn run_churn() -> RunSummary {
    let cfg = SimConfig {
        hosts: 100,
        instance_mtbf: Some(150.0),
        ..SimConfig::paper(0.100, 0.250)
    };
    SimBuilder::new(cfg)
        .workload(PoissonProcess::new(160.0, SimTime::from_secs(600.0)))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(Oscillator {
            high: 30,
            low: 8,
            tick: 0,
        }))
        .dispatcher(RoundRobin::new())
        .run(&RngFactory::new(0xD4A1))
}

/// Drain-churn regression: the draining list is removed from at three
/// sites (revive pop, drain-empty death, mid-drain failure); the
/// position-indexed swap-remove must keep all of them deterministic.
#[test]
fn drain_churn_is_deterministic() {
    let churn = run_churn();
    // The churn has to actually happen for this pin to mean anything:
    // far more boots than the steady fleet, and failures that can land
    // while instances drain.
    assert!(
        churn.vms_created > 100,
        "only {} boots — the target never oscillated",
        churn.vms_created
    );
    assert!(
        churn.instance_failures > 0,
        "no failures — the mid-list removal path never ran"
    );
    assert_eq!(
        churn,
        run_churn(),
        "repeated churn run diverged (nondeterminism)"
    );
}
