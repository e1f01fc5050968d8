//! A/B determinism: the 4-ary-heap and binary-heap FEL backends must
//! produce **bit-identical** run summaries for the paper's scenarios.
//! Any divergence means the 4-ary heap (or the lane beside it) broke the
//! deterministic `(time, seq)` dispatch order the engine guarantees.

use vmprov_des::{FelBackend, SimTime};
use vmprov_experiments::runner::run_once;
use vmprov_experiments::scenario::{PolicySpec, Scenario};

/// Runs `scenario` on both backends and asserts identical summaries.
fn assert_backends_agree(scenario: Scenario, label: &str) {
    for rep in 0..2 {
        let quad = run_once(
            &scenario.clone().with_fel_backend(FelBackend::QuadHeap),
            rep,
        );
        let heap = run_once(
            &scenario.clone().with_fel_backend(FelBackend::BinaryHeap),
            rep,
        );
        assert_eq!(
            quad, heap,
            "{label} rep {rep}: 4-ary and binary heap backends diverged"
        );
        // Sanity: the run actually exercised the simulator.
        assert!(quad.offered_requests > 0, "{label}: empty run");
    }
}

#[test]
fn web_static_backends_agree() {
    let s = Scenario::web(PolicySpec::Static(60), 1109).with_horizon(SimTime::from_secs(1800.0));
    assert_backends_agree(s, "web/static-60");
}

#[test]
fn web_adaptive_backends_agree() {
    let s = Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(1800.0));
    assert_backends_agree(s, "web/adaptive");
}

#[test]
fn scientific_adaptive_backends_agree() {
    // Ten hours covers the 8am peak onset, so the adaptive policy
    // actually scales during the run.
    let s =
        Scenario::scientific(PolicySpec::Adaptive, 2011).with_horizon(SimTime::from_hours(10.0));
    assert_backends_agree(s, "scientific/adaptive");
}
