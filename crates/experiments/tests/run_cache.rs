//! Integration tests of the content-addressed run cache: a cache hit
//! must be bit-identical to the simulation it stands in for, *every*
//! result-influencing scenario field (and the replication index) must
//! perturb the key, and rot on disk must degrade to recomputation,
//! never to an error.

use vmprov_check::{cases, Gen};
use vmprov_core::AnalyticBackend;
use vmprov_des::{FelBackend, SimTime};
use vmprov_experiments::runner::run_once;
use vmprov_experiments::scenario::{
    AnalyzerSpec, DispatchSpec, PolicySpec, Scenario, WorkloadKind,
};
use vmprov_experiments::{run_key, Campaign, Lookup, RunCache};

fn tmp_cache(tag: &str) -> RunCache {
    let dir = std::env::temp_dir().join(format!(
        "vmprov_run_cache_test_{}_{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    RunCache::open(dir).expect("cache dir")
}

#[test]
fn cache_hits_are_bit_identical_on_real_scenarios() {
    let cache = tmp_cache("identity");
    let mut mm1k =
        Scenario::web(PolicySpec::Adaptive, 1109).with_horizon(SimTime::from_secs(600.0));
    mm1k.backend = AnalyticBackend::Mm1k;
    let scenarios = [
        (
            "web_static",
            Scenario::web(PolicySpec::Static(60), 1109).with_horizon(SimTime::from_secs(600.0)),
        ),
        ("web_adaptive_mm1k", mm1k),
        (
            "sci_adaptive",
            Scenario::scientific(PolicySpec::Adaptive, 2011).with_horizon(SimTime::from_hours(2.0)),
        ),
    ];
    for (name, scenario) in scenarios {
        let fresh = run_once(&scenario, 0);
        let key = run_key(&scenario, 0);
        cache.store(key, &fresh).expect("store");
        match cache.lookup(key) {
            // Full PartialEq on RunSummary is field-wise f64 equality, so
            // this pins the JSON round trip to the bit.
            Lookup::Hit(cached) => assert_eq!(*cached, fresh, "{name}: hit diverged"),
            other => panic!("{name}: expected hit, got {other:?}"),
        }
    }
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// A scenario drawn uniformly from the whole configuration space.
fn random_scenario(g: &mut Gen) -> Scenario {
    let policy = if g.chance(0.5) {
        PolicySpec::Adaptive
    } else {
        PolicySpec::Static(g.u32_in(1..200))
    };
    let mut s = if g.chance(0.5) {
        Scenario::web(policy, g.u64())
    } else {
        Scenario::scientific(policy, g.u64())
    };
    s.dispatch = match g.u32_in(0..3) {
        0 => DispatchSpec::RoundRobin,
        1 => DispatchSpec::LeastOutstanding,
        _ => DispatchSpec::Random,
    };
    s.backend = if g.chance(0.5) {
        AnalyticBackend::Mm1k
    } else {
        AnalyticBackend::TwoMoment
    };
    s.horizon = SimTime::from_secs(g.f64_in(60.0..1_000_000.0));
    s.boot_delay = g.f64_in(0.0..300.0);
    s.fel_backend = if g.chance(0.5) {
        FelBackend::Calendar
    } else {
        FelBackend::BinaryHeap
    };
    s.analyzer = match g.u32_in(0..3) {
        0 => AnalyzerSpec::Oracle,
        1 => AnalyzerSpec::SlidingMle {
            window_secs: g.f64_in(60.0..7200.0),
        },
        _ => AnalyzerSpec::Ewma {
            alpha: g.f64_in(0.01..1.0),
        },
    };
    s
}

#[test]
fn any_field_perturbation_changes_the_key() {
    cases(300, |g| {
        let s = random_scenario(g);
        let rep = g.u32_in(0..10);
        let key = run_key(&s, rep);
        assert_eq!(key, run_key(&s.clone(), rep), "key must be stable");
        assert_ne!(key, run_key(&s, rep + 1), "rep must perturb the key");

        let mut p = s.clone();
        let field = match g.u32_in(0..9) {
            0 => {
                p.seed = p.seed.wrapping_add(1 + g.u64() % 1_000);
                "seed"
            }
            1 => {
                p.horizon = SimTime::from_secs(p.horizon.as_secs() + 1.0);
                "horizon"
            }
            2 => {
                p.boot_delay += 0.5;
                "boot_delay"
            }
            3 => {
                p.policy = match p.policy {
                    PolicySpec::Adaptive => PolicySpec::Static(50),
                    PolicySpec::Static(m) => PolicySpec::Static(m + 1),
                };
                "policy"
            }
            4 => {
                p.workload = match p.workload {
                    WorkloadKind::Web => WorkloadKind::Scientific,
                    WorkloadKind::Scientific => WorkloadKind::Web,
                    // random_scenario never builds a Trace scenario (it
                    // would need a real file on disk); trace-content
                    // keying is pinned in tests/trace_replay.rs.
                    WorkloadKind::Trace => unreachable!("not generated here"),
                };
                "workload"
            }
            5 => {
                p.dispatch = match p.dispatch {
                    DispatchSpec::RoundRobin => DispatchSpec::LeastOutstanding,
                    DispatchSpec::LeastOutstanding => DispatchSpec::Random,
                    DispatchSpec::Random => DispatchSpec::RoundRobin,
                };
                "dispatch"
            }
            6 => {
                p.backend = match p.backend {
                    AnalyticBackend::Mm1k => AnalyticBackend::TwoMoment,
                    AnalyticBackend::TwoMoment => AnalyticBackend::Mm1k,
                };
                "backend"
            }
            7 => {
                p.fel_backend = match p.fel_backend {
                    FelBackend::Calendar => FelBackend::BinaryHeap,
                    FelBackend::BinaryHeap => FelBackend::Calendar,
                };
                "fel_backend"
            }
            _ => {
                p.analyzer = match p.analyzer {
                    AnalyzerSpec::Oracle => AnalyzerSpec::Ewma { alpha: 0.3 },
                    AnalyzerSpec::SlidingMle { window_secs } => AnalyzerSpec::SlidingMle {
                        window_secs: window_secs + 1.0,
                    },
                    AnalyzerSpec::Ewma { alpha } => AnalyzerSpec::Ewma {
                        alpha: (alpha / 2.0).max(0.005),
                    },
                };
                "analyzer"
            }
        };
        assert_ne!(
            run_key(&p, rep),
            key,
            "perturbing `{field}` did not change the cache key — a stale \
             entry would alias a different experiment"
        );
    });
}

#[test]
fn corrupt_entry_recomputes_instead_of_failing() {
    let cache = tmp_cache("campaign_corrupt");
    let scenarios = vec![
        Scenario::web(PolicySpec::Static(8), 42).with_horizon(SimTime::from_secs(120.0)),
        Scenario::web(PolicySpec::Static(12), 42).with_horizon(SimTime::from_secs(120.0)),
    ];

    let mut cold = Campaign::new(Some(cache.clone()));
    let hc = cold.add_figure(scenarios.clone(), 1);
    let mut cold_result = cold.run();
    let reference = cold_result.take(hc);
    assert_eq!(cold_result.stats.cache_misses, 2);

    // Rot one entry on disk (truncated torn write).
    let victim = cache.entry_path(run_key(&scenarios[0], 0));
    let bytes = std::fs::read(&victim).expect("entry exists after cold pass");
    std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate entry");

    let mut warm = Campaign::new(Some(cache.clone()));
    let hw = warm.add_figure(scenarios, 1);
    let mut warm_result = warm.run();
    assert_eq!(warm_result.stats.corrupt_entries, 1, "rot must be counted");
    assert_eq!(warm_result.stats.cache_hits, 1);
    assert_eq!(
        warm_result.stats.cache_misses, 1,
        "rot recomputes as a miss"
    );
    let recovered = warm_result.take(hw);
    for (a, b) in reference.iter().zip(&recovered) {
        assert_eq!(a.runs, b.runs, "recomputed-over-rot result diverged");
    }
    // The rewritten entry is a hit again.
    assert!(matches!(
        cache.lookup(run_key(
            &Scenario::web(PolicySpec::Static(8), 42).with_horizon(SimTime::from_secs(120.0)),
            0
        )),
        Lookup::Hit(_)
    ));
    let _ = std::fs::remove_dir_all(cache.dir());
}

/// Mangled-input property test of the cache-entry decoder: a valid
/// entry truncated, bit-flipped, spliced with junk or replaced by
/// garbage must probe as `Hit`, `Miss` or `Corrupt`, never panic.
#[test]
fn lookup_never_panics_on_mangled_entries() {
    let cache = tmp_cache("fuzz");
    let s = Scenario::web(PolicySpec::Static(5), 31).with_horizon(SimTime::from_secs(60.0));
    let key = run_key(&s, 0);
    cache.store(key, &run_once(&s, 0)).expect("store");
    let valid = std::fs::read(cache.entry_path(key)).expect("entry on disk");
    cases(400, |g| {
        std::fs::write(cache.entry_path(key), g.mangle(&valid)).expect("write entry");
        match cache.lookup(key) {
            Lookup::Hit(_) | Lookup::Miss | Lookup::Corrupt => {}
        }
    });
    let _ = std::fs::remove_dir_all(cache.dir());
}
