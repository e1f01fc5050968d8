//! `configure_global_workers` takes effect whenever it is called: each
//! campaign resolves its width when it runs, so a call made after a
//! campaign already ran still sizes the next one. A binary of its own,
//! because the setting is process-wide and would leak into the
//! campaigns of other tests.

use vmprov_cloudsim::RunSummary;
use vmprov_des::SimTime;
use vmprov_experiments::pool::{configure_global_workers, default_workers};
use vmprov_experiments::scenario::{PolicySpec, Scenario};
use vmprov_experiments::Campaign;

fn figure() -> Vec<Scenario> {
    [
        PolicySpec::Static(6),
        PolicySpec::Static(9),
        PolicySpec::Adaptive,
    ]
    .into_iter()
    .map(|p| Scenario::web(p, 4242).with_horizon(SimTime::from_secs(120.0)))
    .collect()
}

fn run_campaign() -> Vec<RunSummary> {
    let mut campaign = Campaign::new(None);
    let handle = campaign.add_figure(figure(), 2);
    let mut result = campaign.run();
    assert_eq!(result.stats.cache_misses, 6);
    result
        .take(handle)
        .into_iter()
        .flat_map(|replicated| replicated.runs)
        .collect()
}

#[test]
fn configured_width_takes_effect_after_a_campaign_ran() {
    let reference = run_campaign();
    for width in [1, 3] {
        configure_global_workers(width);
        assert_eq!(
            default_workers(),
            width,
            "the next campaign must resolve the width set after the last one"
        );
        assert_eq!(run_campaign(), reference, "width {width} changed a result");
    }
}
