//! Golden run summaries: the hot-path optimizations (event-slot
//! layout, instance free lists, memoized analytics) must never change
//! what a run computes. These goldens were captured before the
//! optimization work and every run summary — on both FEL backends —
//! must stay **bit-identical** to them (`Debug` formatting of `f64`
//! uses the shortest round-trip representation, so string equality is
//! bit equality).
//!
//! To regenerate after an *intentional* semantic change:
//! `UPDATE_GOLDENS=1 cargo test -p vmprov-experiments --test golden_summaries`

use std::path::PathBuf;
use vmprov_des::{FelBackend, SimTime};
use vmprov_experiments::runner::run_once;
use vmprov_experiments::scenario::{PolicySpec, Scenario};

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
/// recurrence path of the modeler. The batched arrival path
/// (`arrival_run` > 1) ties arrivals to control ticks on the
/// scientific workload (off-peak jobs land exactly on 30-minute
/// boundaries), so that run is a different — equally deterministic —
/// interleaving with its own golden.
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
            "scientific_adaptive_batched",
            sci(PolicySpec::Adaptive).with_arrival_run(64),
        ),
    ]
}

/// Runs the golden scenario `name` on both FEL backends, asserts they
/// agree, and checks the summary against the committed golden (or
/// rewrites it when `UPDATE_GOLDENS` is set).
fn check_golden(name: &str) {
    let (_, scenario) = goldens()
        .into_iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no golden scenario named {name}"));
    let calendar = run_once(&scenario.clone().with_fel_backend(FelBackend::Calendar), 0);
    let heap = run_once(
        &scenario.clone().with_fel_backend(FelBackend::BinaryHeap),
        0,
    );
    assert_eq!(calendar, heap, "{name}: FEL backends diverged");
    assert!(calendar.offered_requests > 0, "{name}: empty run");

    let rendered = format!("{calendar:#?}\n");
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("{name}: missing golden {}: {e}", path.display()));
    assert_eq!(
        rendered, golden,
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

/// On continuous-time workloads the batched arrival path is
/// bit-identical to the scalar cadence (ties between arrivals and
/// control ticks have probability zero), so the web run is pinned
/// *against the scalar scenario itself* rather than a golden file.
#[test]
fn golden_web_adaptive_batched_matches_scalar() {
    let scalar = Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(1800.0));
    for backend in [FelBackend::Calendar, FelBackend::BinaryHeap] {
        let s = scalar.clone().with_fel_backend(backend);
        assert_eq!(
            run_once(&s, 0),
            run_once(&s.clone().with_arrival_run(64), 0),
            "{backend:?}: batched web run diverged from the scalar path"
        );
    }
}

#[test]
fn golden_scientific_adaptive_batched() {
    check_golden("scientific_adaptive_batched");
}

/// Request conservation over every golden scenario on both FEL
/// backends. `RunMetrics::finalize` debug-asserts the full balance
/// (accepted = completed + lost + in flight), so the check needs a
/// build with debug assertions; the summary-level half is asserted
/// here as well.
#[test]
#[cfg_attr(
    not(debug_assertions),
    ignore = "the completion balance is a debug assertion"
)]
fn goldens_conserve_requests_on_both_backends() {
    for (name, scenario) in goldens() {
        for backend in [FelBackend::Calendar, FelBackend::BinaryHeap] {
            let s = run_once(&scenario.clone().with_fel_backend(backend), 0);
            assert_eq!(
                s.offered_requests,
                s.accepted_requests + s.rejected_requests,
                "{name} on {backend:?}: offered ≠ accepted + rejected"
            );
        }
    }
}
