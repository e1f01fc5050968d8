//! Arrival-run depth is a performance setting only: whatever number of
//! arrival batches the arrival stream pulls at a time, the run summary
//! equals the scalar cadence's (one batch per pull).
//!
//! The scientific workload is the hard case. Off-peak Bag-of-Tasks jobs
//! land exactly on 30-minute boundaries, which are also monitor ticks,
//! so a prefetched arrival ties with a control event scheduled after it
//! was released. The event list's late rule (lane entries pop after
//! every individually scheduled entry at their instant) puts it
//! where the scalar cadence does; the estimator analyzers, which read
//! each monitor window's arrival count, see any other order.

use vmprov_check::{cases, Gen};
use vmprov_cloudsim::RunSummary;
use vmprov_des::RngFactory;
use vmprov_experiments::runner::{builder_for, replication_seed};
use vmprov_experiments::scenario::{AnalyzerSpec, PolicySpec, Scenario};

const DEPTHS: [u32; 2] = [7, 64];

fn run_at_depth(scenario: &Scenario, depth: u32) -> RunSummary {
    builder_for(scenario)
        .arrival_run(depth)
        .run(&RngFactory::new(replication_seed(scenario.seed, 0)))
}

/// A full simulated day of the adaptive Fig 6 scenario under every
/// analyzer: depths 7 and 64 reproduce depth 1.
#[test]
fn scientific_batched_arrivals_match_scalar() {
    let analyzers = ["oracle", "mle", "ewma"].map(|a| AnalyzerSpec::parse(a).unwrap());
    cases(10, |g: &mut Gen| {
        let seed = g.u64();
        for analyzer in analyzers {
            let s = Scenario::scientific(PolicySpec::Adaptive, seed).with_analyzer(analyzer);
            let scalar = run_at_depth(&s, 1);
            assert!(scalar.offered_requests > 0, "empty run");
            for depth in DEPTHS {
                assert_eq!(
                    run_at_depth(&s, depth),
                    scalar,
                    "seed {seed}, {}: arrival_run {depth} diverged from scalar",
                    analyzer.label()
                );
            }
        }
    });
}
