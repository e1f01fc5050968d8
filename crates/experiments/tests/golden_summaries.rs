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
//! The run cache digests these files into every key, so regenerating
//! them also retires every cached run.

use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use vmprov_cloudsim::RunSummary;
use vmprov_des::{RngFactory, SimTime};
use vmprov_experiments::campaign::Campaign;
use vmprov_experiments::runner::{builder_for, replication_seed, run_once};
use vmprov_experiments::scenario::{
    fig5_scenarios, AnalyzerSpec, PolicySpec, Scenario, DEFAULT_EWMA_ALPHA, DEFAULT_MLE_WINDOW,
};
use vmprov_workloads::{generate_piecewise_csv, TraceSpec, DEFAULT_CHUNK};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens")
}

fn golden_path(name: &str) -> PathBuf {
    golden_dir().join(format!("{name}.txt"))
}

/// The replay goldens' trace, written and scanned once per process: a
/// seeded piecewise-rate trace over 6000 s (three 1800-s analyzer
/// intervals and a third of another) whose rate steps from 10 to 40 to
/// 20 req/s, so the estimators resize the fleet. Every process writes
/// the same bytes to its own file and renames it into place, so
/// concurrent test processes never read a half-written trace.
fn golden_trace() -> TraceSpec {
    static SPEC: OnceLock<TraceSpec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
        let path = dir.join("golden_trace.csv");
        let tmp = dir.join(format!("golden_trace.csv.{}", std::process::id()));
        let file = std::fs::File::create(&tmp).expect("create the golden trace");
        let pieces = [(0.0, 10.0), (2000.0, 40.0), (4000.0, 20.0)];
        generate_piecewise_csv(file, &pieces, SimTime::from_secs(6000.0), 2028)
            .expect("write the golden trace");
        std::fs::rename(&tmp, &path).expect("move the golden trace into place");
        TraceSpec::scan(&path, DEFAULT_CHUNK).expect("scan the golden trace")
    })
    .clone()
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
/// interval (the run submits nothing past its horizon). The `replay_…`
/// goldens replay one trace under each analyzer, so a change to trace
/// replay or to an estimator fails them (and moves every cache key).
fn goldens() -> Vec<(&'static str, Scenario)> {
    let web = |p| Scenario::web(p, 1109).with_horizon(SimTime::from_secs(1800.0));
    let sci = |p| Scenario::scientific(p, 2011).with_horizon(SimTime::from_hours(10.0));
    let replay =
        |a| Scenario::trace_replay(golden_trace(), PolicySpec::Adaptive, 2028).with_analyzer(a);
    let mut mm1k = web(PolicySpec::Adaptive);
    mm1k.backend = vmprov_core::AnalyticBackend::Mm1k;
    vec![
        ("replay_oracle", replay(AnalyzerSpec::Oracle)),
        (
            "replay_mle",
            replay(AnalyzerSpec::SlidingMle {
                window_secs: DEFAULT_MLE_WINDOW,
            }),
        ),
        (
            "replay_ewma",
            replay(AnalyzerSpec::Ewma {
                alpha: DEFAULT_EWMA_ALPHA,
            }),
        ),
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
/// committed golden (or rewrites it when `UPDATE_GOLDENS` is set), and
/// returns the summary.
fn check_golden(name: &str) -> RunSummary {
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
        return summary;
    }
    assert_eq!(
        rendered,
        committed_golden(name),
        "{name}: run summary drifted from the committed golden \
         (if the change is intentional, regenerate with UPDATE_GOLDENS=1)"
    );
    summary
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

/// The oracle sizes from the whole-trace mean, so unlike the
/// estimators it holds one fleet size throughout.
#[test]
fn golden_replay_oracle() {
    check_golden("replay_oracle");
}

#[test]
fn golden_replay_mle() {
    let s = check_golden("replay_mle");
    assert!(
        s.min_instances < s.max_instances,
        "the MLE never resized: {s:?}"
    );
}

#[test]
fn golden_replay_ewma() {
    let s = check_golden("replay_ewma");
    assert!(
        s.min_instances < s.max_instances,
        "the EWMA never resized: {s:?}"
    );
}

/// The goldens directory holds exactly the goldens `goldens()` runs.
/// Every `.txt` file there feeds the run cache's key digest: an orphan
/// would key the cache on bytes no test checks, and a golden missing
/// from disk would leave a checked run out of the digest.
#[test]
fn goldens_directory_lists_exactly_the_golden_scenarios() {
    let mut on_disk: Vec<String> = std::fs::read_dir(golden_dir())
        .expect("list the goldens")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".txt"))
        .collect();
    on_disk.sort();
    let mut named: Vec<String> = goldens()
        .into_iter()
        .map(|(name, _)| format!("{name}.txt"))
        .collect();
    named.sort();
    assert_eq!(on_disk, named);
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
