//! The horizon contract: a generated workload submits only what falls
//! inside its simulated period. Every arrival an [`ArrivalStream`]
//! expands lies in `[0, horizon)`, at the scalar cadence and at the
//! default run depth alike, including at horizons that cut through a
//! generator's natural step (a web interval, a scientific off-peak
//! window, a piecewise step). A trace replay cut short stops at its
//! first row past the horizon.

use vmprov_cloudsim::ArrivalStream;
use vmprov_des::{RngFactory, SimTime, HOUR};
use vmprov_workloads::synthetic::{PiecewiseRateProcess, PoissonProcess};
use vmprov_workloads::{
    generate_poisson_csv, ArrivalProcess, ScientificConfig, ScientificWorkload, TraceSpec,
    WebConfig, WebWorkload,
};

/// Every arrival time of `workload`, expanding and taking until the end.
fn drain(workload: impl ArrivalProcess + Send + 'static, seed: u64, run: u32) -> Vec<f64> {
    let mut stream = ArrivalStream::new(Box::new(workload), &RngFactory::new(seed), run);
    let mut out = Vec::new();
    loop {
        out.extend(stream.ready().iter().map(|t| t.as_secs()));
        stream.take(stream.ready().len());
        if stream.next_release().is_none() {
            return out;
        }
        stream.expand();
    }
}

fn web(horizon: f64) -> WebWorkload {
    WebWorkload::new(WebConfig {
        horizon: SimTime::from_secs(horizon),
        ..WebConfig::default()
    })
}

fn scientific(horizon: f64) -> ScientificWorkload {
    ScientificWorkload::new(ScientificConfig {
        horizon: SimTime::from_secs(horizon),
    })
}

/// Asserts every expanded time of `make()` lies in `[0, horizon)` at
/// arrival runs 1 and 64, and that both cadences expand the same times.
fn assert_within_horizon<W: ArrivalProcess + Send + 'static>(
    name: &str,
    horizon: f64,
    make: impl Fn() -> W,
) {
    let mut counts = Vec::new();
    for run in [1, 64] {
        let times = drain(make(), 0x40_121A, run);
        assert!(!times.is_empty(), "{name} at {horizon} s: no arrivals");
        if let Some(t) = times.iter().find(|&&t| !(0.0..horizon).contains(&t)) {
            panic!("{name} at {horizon} s, arrival run {run}: arrival at {t} s");
        }
        counts.push(times.len());
    }
    assert_eq!(
        counts[0], counts[1],
        "{name} at {horizon} s: cadences disagree"
    );
}

#[test]
fn every_generated_arrival_falls_before_the_horizon() {
    for horizon in [1.0, 90.0, 1830.0] {
        assert_within_horizon("web", horizon, || web(horizon));
    }
    // Off-peak jobs land on 30-minute boundaries; the peak starts at 8 h.
    for horizon in [2700.0, 8.25 * HOUR] {
        assert_within_horizon("scientific", horizon, || scientific(horizon));
    }
    assert_within_horizon("poisson", 10.5, || {
        PoissonProcess::new(100.0, SimTime::from_secs(10.5))
    });
    assert_within_horizon("step", 12.3, || {
        PiecewiseRateProcess::step(50.0, 200.0, 5.0, SimTime::from_secs(12.3))
    });
    // A 600-second trace cut at 10.5 s, read 7 rows at a time so the
    // cut lands inside a chunk, past several refills.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("horizon_contract.csv");
    let file = std::fs::File::create(&path).expect("create trace");
    generate_poisson_csv(file, 50.0, SimTime::from_secs(600.0), 3).expect("write trace");
    let spec = TraceSpec::scan(&path, 7).expect("scan trace");
    assert_within_horizon("trace", 10.5, || {
        spec.replay().with_horizon(SimTime::from_secs(10.5))
    });
}

/// Web's last interval is clipped to the horizon: it spreads over
/// `horizon − start` and carries about `rate × (horizon − start)`
/// requests (the count's σ is 5% of its mean).
#[test]
fn web_clips_its_last_interval_to_the_horizon() {
    for horizon in [1.0, 90.0, 1830.0] {
        let mut w = web(horizon);
        let mut rng = RngFactory::new(7).stream("arrivals");
        let batches: Vec<_> = std::iter::from_fn(|| w.next_batch(&mut rng)).collect();
        let (last, full) = batches.split_last().expect("at least one interval");
        assert!(full.iter().all(|b| b.spread == 60.0), "{horizon} s");
        let start = last.time.as_secs();
        let len = horizon - start;
        assert_eq!(last.spread, len, "{horizon} s");
        let mean = w.model_rate(last.time) * len;
        assert!(
            (last.count as f64 - mean).abs() <= 5.0 * 0.05 * mean,
            "{horizon} s: clipped count {} far from {mean}",
            last.count
        );
    }
}
