//! One arrival stream per replication: the policies of a figure set
//! see identical arrival timestamps, so a campaign expands them once
//! per (workload, seed, rep) group and steps the group's runs off that
//! stream. None of that may reach a result: every grouped run equals
//! its own `run_once`, at any pool width and for a group of one, and a
//! group key never joins replications whose arrivals could differ.

use vmprov_check::{cases, Gen};
use vmprov_cloudsim::{Probe, RequestClass, RunSummary};
use vmprov_des::{RngFactory, SimTime};
use vmprov_experiments::pool::WorkerPool;
use vmprov_experiments::runner::{builder_for, replication_seed, run_group_warm, run_once};
use vmprov_experiments::scenario::{fig5_scenarios, PolicySpec, Scenario};
use vmprov_experiments::Campaign;
use vmprov_workloads::TraceSpec;

/// Records every arrival's timestamp.
#[derive(Default)]
struct Arrivals(Vec<f64>);

impl Probe for Arrivals {
    fn on_arrival(&mut self, now: SimTime, _class: RequestClass) {
        self.0.push(now.as_secs());
    }
}

fn arrivals_of(scenario: &Scenario) -> (RunSummary, Vec<f64>) {
    let (summary, probe) = builder_for(scenario)
        .probe(Arrivals::default())
        .run_probed(&RngFactory::new(replication_seed(scenario.seed, 0)));
    (summary, probe.0)
}

/// Static-50 turns requests away from the first minutes of Monday on,
/// while the adaptive pool admits nearly all: the admission outcome
/// must not reach the arrival stream. (Static-50 rejects 42–46% over
/// the paper's week, where the rate peaks at 1200 req/s; over the
/// first ten minutes it rejects a few percent.)
#[test]
fn static_50_and_adaptive_see_identical_arrivals() {
    let set = fig5_scenarios(20_110_926, SimTime::from_mins(10.0));
    let (adaptive, adaptive_times) = arrivals_of(&set[0]);
    let (static_50, static_times) = arrivals_of(&set[1]);
    assert_eq!(static_50.policy, "Static-50");
    assert!(
        static_50.rejection_rate > 0.02 && adaptive.rejection_rate < static_50.rejection_rate,
        "Static-50 must reject visibly more: {} vs {}",
        static_50.rejection_rate,
        adaptive.rejection_rate
    );
    assert_eq!(static_times.len() as u64, static_50.offered_requests);
    assert!(static_times.len() > 100_000);
    assert!(
        static_times == adaptive_times,
        "the two policies saw different arrival timestamps"
    );
}

/// Two reps of a small web policy set, two policies of another seed and
/// a scientific run alone: groups of three, three, two and one.
fn cells() -> Vec<(Scenario, u32)> {
    let web = |policy, seed| Scenario::web(policy, seed).with_horizon(SimTime::from_secs(240.0));
    let mut out = Vec::new();
    for policy in [
        PolicySpec::Adaptive,
        PolicySpec::Static(8),
        PolicySpec::Static(12),
    ] {
        for rep in 0..2 {
            out.push((web(policy, 31), rep));
        }
    }
    out.push((web(PolicySpec::Static(10), 32), 0));
    out.push((web(PolicySpec::Adaptive, 32), 0));
    out.push((
        Scenario::scientific(PolicySpec::Adaptive, 33).with_horizon(SimTime::from_hours(2.0)),
        1,
    ));
    out
}

#[test]
fn grouped_runs_match_run_once_at_every_pool_width() {
    let cells = cells();
    let reference: Vec<RunSummary> = cells.iter().map(|(s, rep)| run_once(s, *rep)).collect();
    // Group exactly as a campaign does: by arrival key, first-seen order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for (i, (s, rep)) in cells.iter().enumerate() {
        let key = s.arrival_key(*rep);
        match groups
            .iter_mut()
            .find(|g| cells[g[0]].0.arrival_key(cells[g[0]].1) == key)
        {
            Some(g) => g.push(i),
            None => groups.push(vec![i]),
        }
    }
    let sizes: Vec<usize> = groups.iter().map(Vec::len).collect();
    assert_eq!(
        sizes,
        vec![3, 3, 2, 1],
        "reps split a set; seeds split reps"
    );
    for width in [1usize, 2] {
        let pool = WorkerPool::new(width);
        let jobs: Vec<Vec<(Scenario, u32)>> = groups
            .iter()
            .map(|g| g.iter().map(|&i| cells[i].clone()).collect())
            .collect();
        let out = pool.run_batch(jobs, |_, group: Vec<(Scenario, u32)>| {
            run_group_warm(&group)
        });
        for (g, summaries) in groups.iter().zip(out) {
            for (&i, summary) in g.iter().zip(summaries) {
                assert_eq!(
                    summary,
                    reference[i],
                    "pool width {width}: cell {i} ({}, rep {}) diverged from run_once",
                    cells[i].0.policy_label(),
                    cells[i].1
                );
            }
        }
    }
}

#[test]
fn a_grouped_campaign_matches_run_once() {
    let cells = cells();
    let mut campaign = Campaign::new(None);
    let handles: Vec<_> = cells
        .iter()
        .map(|(s, rep)| {
            // One figure per cell, each with its own rep count, so the
            // campaign sees every cell at its rep.
            campaign.add_figure(vec![s.clone()], rep + 1)
        })
        .collect();
    let mut result = campaign.run();
    for ((s, rep), h) in cells.iter().zip(handles) {
        let runs = result.take(h).remove(0).runs;
        assert_eq!(
            runs[*rep as usize],
            run_once(s, *rep),
            "{}",
            s.policy_label()
        );
    }
}

/// A scanned trace whose identity fields are the generator's.
fn spec(g: &mut Gen) -> TraceSpec {
    TraceSpec {
        path: std::path::PathBuf::from("trace.csv"),
        content_hash: g.u64(),
        total_requests: g.u64() >> 20,
        batches: g.u64() >> 30,
        end_time: SimTime::from_secs(g.f64_in(1.0..1e6)),
        mean_rate: 1.0,
        chunk: 256,
    }
}

/// Perturbing anything that shapes the arrivals — the workload kind,
/// horizon, replayed trace, seed or rep — splits the group key; what
/// shapes only the run (policy, analyzer, dispatch, backends, boot
/// delay, the trace's path and chunk) does not.
#[test]
fn every_arrival_input_splits_the_group_key() {
    cases(64, |g: &mut Gen| {
        let seed = g.u64();
        let rep = g.u32_in(0..8);
        let base = match g.usize_in(0..3) {
            0 => Scenario::web(PolicySpec::Adaptive, seed),
            1 => Scenario::scientific(PolicySpec::Adaptive, seed),
            _ => Scenario::trace_replay(spec(g), PolicySpec::Adaptive, seed),
        }
        .with_horizon(SimTime::from_secs(g.f64_in(60.0..1e6)));
        let key = base.arrival_key(rep);

        let mut same = base.clone();
        same.policy = PolicySpec::Static(g.u32_in(1..200));
        same.analyzer = vmprov_experiments::AnalyzerSpec::parse("ewma").unwrap();
        same.dispatch = vmprov_experiments::DispatchSpec::Random;
        same.boot_delay = g.f64_in(0.0..600.0);
        same.fel_backend = vmprov_des::FelBackend::BinaryHeap;
        if let Some(t) = &mut same.trace {
            t.path = std::path::PathBuf::from("copy-of-trace.csv");
            t.chunk = 7;
        }
        assert_eq!(same.arrival_key(rep), key, "a run-only field split the key");

        let mut split: Vec<(Scenario, u32, &str)> = vec![
            (base.clone(), rep + 1, "rep"),
            (
                Scenario {
                    seed: seed.wrapping_add(1 + g.u64() % 1000),
                    ..base.clone()
                },
                rep,
                "seed",
            ),
            (
                base.clone().with_horizon(SimTime::from_secs(
                    base.horizon.as_secs() + g.f64_in(0.5..10.0),
                )),
                rep,
                "horizon",
            ),
        ];
        let mut other_kind = base.clone();
        other_kind.workload = match base.workload {
            vmprov_experiments::WorkloadKind::Web => vmprov_experiments::WorkloadKind::Scientific,
            _ => vmprov_experiments::WorkloadKind::Web,
        };
        split.push((other_kind, rep, "workload kind"));
        if let Some(t) = &base.trace {
            let fields: [fn(&mut TraceSpec); 4] = [
                |t| t.content_hash ^= 1,
                |t| t.total_requests += 1,
                |t| t.batches += 1,
                |t| t.end_time = SimTime::from_secs(t.end_time.as_secs() + 1.0),
            ];
            for perturb in fields {
                let mut s = base.clone();
                let mut t = t.clone();
                perturb(&mut t);
                s.trace = Some(t);
                split.push((s, rep, "trace"));
            }
        }
        for (s, r, what) in split {
            assert_ne!(s.arrival_key(r), key, "changing the {what} kept the key");
        }
    });
}
