//! Golden run summaries: the hot-path optimizations (event-slot
//! layout, instance free lists, memoized analytics) must never change
//! what a run computes. These goldens were captured before the
//! optimization work and every run summary must stay
//! **bit-identical** to them (`Debug` formatting of `f64`
//! uses the shortest round-trip representation, so string equality is
//! bit equality).
//!
//! To regenerate after an *intentional* semantic change:
//! `UPDATE_GOLDENS=1 cargo test -p vmprov-experiments --test golden_summaries`

use std::path::PathBuf;
use vmprov_cloudsim::RunSummary;
use vmprov_des::{RngFactory, SimTime};
use vmprov_experiments::campaign::Campaign;
use vmprov_experiments::runner::{builder_for, replication_seed, run_once};
use vmprov_experiments::scenario::{fig5_scenarios, PolicySpec, Scenario};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(format!("{name}.txt"))
}

/// Every golden scenario, keyed by its golden file name.
///
/// Web runs cover half an hour; ten scientific hours cover the 8am peak
/// onset, so the adaptive policy actually scales (and shrinks). The
/// paper-verbatim M/M/1/k backend exercises the memoized
/// recurrence path of the modeler. Every golden runs at the default
/// arrival-run depth; the `…_matches_scalar` tests pin the scalar
/// cadence to the same summaries. `web_adaptive_unaligned` ends half
/// way through a 60-second web interval, so it pins the clipped last
/// interval (the run submits nothing past its horizon).
fn goldens() -> Vec<(&'static str, Scenario)> {
    let web = |p| Scenario::web(p, 1109).with_horizon(SimTime::from_secs(1800.0));
    let sci = |p| Scenario::scientific(p, 2011).with_horizon(SimTime::from_hours(10.0));
    let mut mm1k = web(PolicySpec::Adaptive);
    mm1k.backend = vmprov_core::AnalyticBackend::Mm1k;
    vec![
        ("web_static60", web(PolicySpec::Static(60))),
        ("web_adaptive", web(PolicySpec::Adaptive)),
        ("scientific_adaptive", sci(PolicySpec::Adaptive)),
        ("web_adaptive_mm1k", mm1k),
        (
            "web_adaptive_unaligned",
            web(PolicySpec::Adaptive).with_horizon(SimTime::from_secs(1830.0)),
        ),
    ]
}

/// `scenario` run on the scalar arrival cadence: the arrival stream
/// pulls and expands one batch at a time.
fn run_scalar(scenario: &Scenario) -> RunSummary {
    builder_for(scenario)
        .arrival_run(1)
        .run(&RngFactory::new(replication_seed(scenario.seed, 0)))
}

fn committed_golden(name: &str) -> String {
    let path = golden_path(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", path.display()))
}

/// Runs the golden scenario `name` and checks the summary against the
/// committed golden (or rewrites it when `UPDATE_GOLDENS` is set).
fn check_golden(name: &str) {
    let (_, scenario) = goldens()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden scenario named {name}"));
    let summary = run_once(&scenario, 0);
    assert!(summary.offered_requests > 0, "{name}: empty run");

    let rendered = format!("{summary:#?}\n");
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    assert_eq!(
        rendered,
        committed_golden(name),
        "{name}: run summary drifted from the committed golden \
         (if the change is intentional, regenerate with UPDATE_GOLDENS=1)"
    );
}

#[test]
fn golden_web_static() {
    check_golden("web_static60");
}

#[test]
fn golden_web_adaptive() {
    check_golden("web_adaptive");
}

#[test]
fn golden_scientific_adaptive() {
    check_golden("scientific_adaptive");
}

#[test]
fn golden_web_adaptive_mm1k() {
    check_golden("web_adaptive_mm1k");
}

#[test]
fn golden_web_adaptive_unaligned() {
    check_golden("web_adaptive_unaligned");
}

/// A Fig 5 set at one simulated second offers about one second of
/// traffic (≈500 requests at Monday 00:00), not the whole first
/// 60-second interval (≈30,000).
#[test]
fn a_one_second_fig5_set_offers_one_second_of_traffic() {
    let mut campaign = Campaign::new(None);
    let handle = campaign.add_figure(fig5_scenarios(1109, SimTime::from_secs(1.0)), 2);
    let figure = campaign.run().take(handle);
    assert_eq!(figure.len(), 6, "one entry per Fig 5 policy");
    for run in figure.iter().flat_map(|r| &r.runs) {
        assert!(
            (1..1000).contains(&run.offered_requests),
            "{}: {} requests offered in one simulated second",
            run.policy,
            run.offered_requests
        );
    }
}

/// Bulk-released arrivals tie-break after every individually scheduled
/// event at their instant, so the batched default reproduces the scalar
/// cadence. On the web workload ties have probability zero; the web run
/// is pinned against the scalar scenario itself.
#[test]
fn golden_web_adaptive_batched_matches_scalar() {
    let scalar = Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(1800.0));
    assert_eq!(
        run_once(&scalar, 0),
        run_scalar(&scalar),
        "batched web run diverged from the scalar path"
    );
}

/// The scientific workload is where the tie rule matters: off-peak jobs
/// land exactly on 30-minute boundaries, which are also monitor ticks.
/// The scalar cadence must reproduce the `scientific_adaptive` golden
/// (which runs batched).
#[test]
fn golden_scientific_adaptive_scalar_matches_golden() {
    let (_, sci) = goldens()
        .into_iter()
        .find(|(n, _)| *n == "scientific_adaptive")
        .expect("scientific golden");
    let golden = committed_golden("scientific_adaptive");
    let scalar = run_scalar(&sci);
    assert_eq!(
        format!("{scalar:#?}\n"),
        golden,
        "scalar scientific run drifted from the batched golden"
    );
}

/// Request conservation over every golden scenario.
/// `RunMetrics::finalize` debug-asserts the full balance
/// (accepted = completed + lost + in flight), so the check needs a
/// build with debug assertions; the summary-level half is asserted
/// here as well.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the completion balance is a debug assertion"
)]
fn goldens_conserve_requests() {
    for (name, scenario) in goldens() {
        let s = run_once(&scenario, 0);
        assert_eq!(
            s.offered_requests,
            s.accepted_requests + s.rejected_requests,
            "{name}: offered ≠ accepted + rejected"
        );
    }
}
