//! The burst seam contract: pulling batches through `next_batch_run`
//! must yield the same batch sequence *and* leave the arrival RNG
//! stream at the same position as one-at-a-time `next_batch` pulls,
//! for every run length — that is what lets the simulator expand whole
//! runs while staying on the scalar draw order.
//!
//! The consumer's side of the contract is mimicked here: after a batch
//! is obtained, its `count` spread offsets are drawn from the same
//! stream whenever `spread > 0` (exactly what the simulator does at
//! expansion time).

use vmprov_des::{RngFactory, SimRng, SimTime};
use vmprov_workloads::scientific::ScientificWorkload;
use vmprov_workloads::synthetic::PoissonProcess;
use vmprov_workloads::{ArrivalBatch, ArrivalProcess, StreamReplay, Trace, WebWorkload};

/// Drives `process` to exhaustion one batch at a time, drawing the
/// consumer-side spread offsets from the same stream. Because the
/// spread draws share the arrival stream with generation draws, any
/// interleaving divergence on a run-pulling consumer would corrupt the
/// *values* of every later batch — so batch-log equality is the full
/// invariant. (Stream position after exhaustion is allowed to differ:
/// discovering the horizon costs the run path one extra probe draw,
/// and nothing reads the arrival stream after exhaustion.)
fn drive_scalar<P: ArrivalProcess>(mut process: P, rng: &mut SimRng) -> Vec<ArrivalBatch> {
    let mut log = Vec::new();
    while let Some(b) = process.next_batch(rng) {
        if b.spread > 0.0 {
            for _ in 0..b.count {
                rng.uniform(0.0, b.spread);
            }
        }
        log.push(b);
    }
    log
}

/// Same, pulling runs of up to `max` batches per call.
fn drive_runs<P: ArrivalProcess>(
    mut process: P,
    rng: &mut SimRng,
    max: usize,
) -> Vec<ArrivalBatch> {
    let mut log = Vec::new();
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let got = process.next_batch_run(rng, max, &mut buf);
        assert_eq!(got, buf.len(), "next_batch_run return disagrees with out");
        if got == 0 {
            break;
        }
        for b in &buf {
            if b.spread > 0.0 {
                for _ in 0..b.count {
                    rng.uniform(0.0, b.spread);
                }
            }
        }
        log.extend_from_slice(&buf);
    }
    log
}

fn assert_seam_equivalence<P: ArrivalProcess>(make: impl Fn() -> P, label: &str) {
    let factory = RngFactory::new(77);
    let scalar = drive_scalar(make(), &mut factory.stream("arrivals"));
    assert!(!scalar.is_empty(), "{label}: empty scalar log");
    for max in [1usize, 7, 64] {
        let runs = drive_runs(make(), &mut factory.stream("arrivals"), max);
        assert_eq!(scalar.len(), runs.len(), "{label}, max={max}: batch count");
        for (i, (a, b)) in scalar.iter().zip(&runs).enumerate() {
            assert_eq!(a, b, "{label}, max={max}: batch {i} diverged");
        }
    }
}

#[test]
fn poisson_runs_match_scalar_pulls() {
    assert_seam_equivalence(
        || PoissonProcess::new(5.0, SimTime::from_secs(2_000.0)),
        "poisson",
    );
}

#[test]
fn web_runs_match_scalar_pulls() {
    assert_seam_equivalence(
        || {
            WebWorkload::new(vmprov_workloads::WebConfig {
                horizon: SimTime::from_hours(4.0),
                ..Default::default()
            })
        },
        "web",
    );
}

#[test]
fn scientific_runs_match_scalar_pulls() {
    assert_seam_equivalence(
        || {
            ScientificWorkload::new(vmprov_workloads::ScientificConfig {
                horizon: SimTime::from_hours(6.0),
            })
        },
        "scientific",
    );
}

#[test]
fn replay_runs_match_scalar_pulls() {
    // A trace mixing spread-0 and spread>0 rows exercises both the bulk
    // copy and the stop-after-spread rule in the replay override.
    let batches: Vec<ArrivalBatch> = (0..500)
        .map(|i| ArrivalBatch {
            time: SimTime::from_secs(i as f64 * 3.0),
            count: 1 + (i % 4),
            spread: if i % 5 == 0 { 2.5 } else { 0.0 },
        })
        .collect();
    let trace = Trace::new(batches).expect("valid trace");
    assert_seam_equivalence(|| StreamReplay::from_trace(trace.clone()), "replay");
}
