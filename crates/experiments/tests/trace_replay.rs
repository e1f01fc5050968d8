//! End-to-end tests of the streaming trace-replay path: the
//! `DatasetReader` seam under the full simulator, estimator-driven
//! provisioning vs the oracle, content-hash cache keying, horizon cuts
//! and the `repro replay`
//! subcommand.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use vmprov_experiments::{
    qos_verdict, run_key, run_once, AnalyzerSpec, PolicySpec, Scenario, DEFAULT_EWMA_ALPHA,
    DEFAULT_MLE_WINDOW,
};
use vmprov_json::Json;
use vmprov_workloads::{generate_poisson_csv, TraceSpec, DEFAULT_CHUNK};

fn tmpdir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).to_path_buf()
}

/// Writes a deterministic stationary Poisson trace and returns its path.
fn gen_trace(name: &str, rate: f64, horizon_secs: f64, seed: u64) -> PathBuf {
    let path = tmpdir().join(name);
    let file = fs::File::create(&path).expect("create trace");
    generate_poisson_csv(
        file,
        rate,
        vmprov_des::SimTime::from_secs(horizon_secs),
        seed,
    )
    .expect("write trace");
    path
}

#[test]
fn replay_is_bit_identical_across_chunk_sizes() {
    let path = gen_trace("replay_identity.csv", 25.0, 300.0, 11);

    // Chunk size is an ingestion-buffer knob, not a semantic one: the
    // same summary must come out whatever the buffer.
    let baseline = {
        let spec = TraceSpec::scan(&path, DEFAULT_CHUNK).unwrap();
        run_once(&Scenario::trace_replay(spec, PolicySpec::Adaptive, 5), 0)
    };
    for chunk in [1usize, 7, 4096] {
        let spec = TraceSpec::scan(&path, chunk).unwrap();
        let summary = run_once(&Scenario::trace_replay(spec, PolicySpec::Adaptive, 5), 0);
        assert_eq!(summary, baseline, "chunk {chunk} diverged");
    }
}

#[test]
fn estimator_runs_match_oracle_qos_verdicts_on_a_stationary_trace() {
    // Long enough that the analyzer fires several times (interval is
    // 1800 s), so the estimated λ actually drives Algorithm 1.
    let path = gen_trace("replay_parity.csv", 50.0, 4000.0, 23);
    let spec = TraceSpec::scan(&path, DEFAULT_CHUNK).unwrap();

    let run = |analyzer: AnalyzerSpec| {
        let s =
            Scenario::trace_replay(spec.clone(), PolicySpec::Adaptive, 23).with_analyzer(analyzer);
        run_once(&s, 0)
    };
    let oracle = run(AnalyzerSpec::Oracle);
    let mle = run(AnalyzerSpec::SlidingMle {
        window_secs: DEFAULT_MLE_WINDOW,
    });
    let ewma = run(AnalyzerSpec::Ewma {
        alpha: DEFAULT_EWMA_ALPHA,
    });

    let oracle_v = qos_verdict(&oracle);
    assert_eq!(
        qos_verdict(&mle),
        oracle_v,
        "MLE verdicts diverged from oracle: mle={mle:?} oracle={oracle:?}"
    );
    assert_eq!(
        qos_verdict(&ewma),
        oracle_v,
        "EWMA verdicts diverged from oracle: ewma={ewma:?} oracle={oracle:?}"
    );
    // On a stationary trace the oracle keeps responses inside the QoS
    // bound and loses nothing; the estimators must not regress that
    // (the headroom biases toward over-provisioning). Rejections are
    // allowed to be nonzero — the admission queue drops a handful of
    // requests in rare bursts at paper utilization — but must be tiny,
    // and identically judged across analyzers (asserted above).
    assert!(oracle_v.response_met && oracle_v.nothing_lost, "{oracle:?}");
    assert!(oracle.rejection_rate < 0.01, "{oracle:?}");
    // And the estimator genuinely ran: both runs processed the same
    // offered load as the oracle.
    assert_eq!(mle.offered_requests, oracle.offered_requests);
    assert_eq!(ewma.offered_requests, oracle.offered_requests);
}

#[test]
fn cache_keys_track_trace_content_not_location_or_chunk() {
    let path = gen_trace("replay_key_a.csv", 25.0, 120.0, 31);
    let copy = tmpdir().join("replay_key_b.csv");
    fs::copy(&path, &copy).unwrap();

    let spec = TraceSpec::scan(&path, DEFAULT_CHUNK).unwrap();
    let spec_copy = TraceSpec::scan(&copy, DEFAULT_CHUNK).unwrap();
    let spec_small_chunk = TraceSpec::scan(&path, 7).unwrap();

    let key = |spec: TraceSpec, analyzer: AnalyzerSpec| {
        let s = Scenario::trace_replay(spec, PolicySpec::Adaptive, 5).with_analyzer(analyzer);
        run_key(&s, 0)
    };
    let base = key(spec.clone(), AnalyzerSpec::Oracle);
    // A copy of the trace shares cache entries; so does a different
    // ingestion chunk size (bit-identity across chunks is tested above).
    assert_eq!(base, key(spec_copy, AnalyzerSpec::Oracle));
    assert_eq!(base, key(spec_small_chunk, AnalyzerSpec::Oracle));
    // A different analyzer is a different run.
    assert_ne!(
        base,
        key(
            spec.clone(),
            AnalyzerSpec::SlidingMle {
                window_secs: DEFAULT_MLE_WINDOW
            }
        )
    );

    // Editing the trace moves its content hash and therefore the key.
    let mut edited_bytes = fs::read(&path).unwrap();
    edited_bytes.extend_from_slice(b"119.9999,1,0\n");
    let edited = tmpdir().join("replay_key_edited.csv");
    fs::write(&edited, edited_bytes).unwrap();
    let spec_edited = TraceSpec::scan(&edited, DEFAULT_CHUNK).unwrap();
    assert_ne!(spec.content_hash, spec_edited.content_hash);
    assert_ne!(base, key(spec_edited, AnalyzerSpec::Oracle));
}

/// A trace scenario cut short with `with_horizon` replays only the rows
/// at or before its horizon. Its cache key moves with the horizon, so
/// its run must too: a 10-second cut of a 600-second, 50 req/s trace
/// offers about 500 requests, not the whole trace's 30,000.
#[test]
fn with_horizon_cuts_a_trace_replay() {
    let path = gen_trace("replay_horizon.csv", 50.0, 600.0, 41);
    let spec = TraceSpec::scan(&path, DEFAULT_CHUNK).unwrap();
    let whole = Scenario::trace_replay(spec.clone(), PolicySpec::Static(5), 41);
    let cut = whole
        .clone()
        .with_horizon(vmprov_des::SimTime::from_secs(10.0));
    assert_ne!(run_key(&whole, 0), run_key(&cut, 0));

    let rows_by_10s = fs::read_to_string(&path)
        .unwrap()
        .lines()
        .skip(1)
        .filter(|row| row.split(',').next().unwrap().parse::<f64>().unwrap() <= 10.0)
        .count() as u64;
    assert!((400..600).contains(&rows_by_10s), "{rows_by_10s} rows");
    assert_eq!(run_once(&whole, 0).offered_requests, spec.total_requests);
    assert_eq!(run_once(&cut, 0).offered_requests, rows_by_10s);
}

#[test]
fn repro_replay_subcommand_emits_verdicts_and_is_chunk_invariant() {
    let out_a = tmpdir().join("replay-cli-a");
    let out_b = tmpdir().join("replay-cli-b");
    let trace = tmpdir().join("replay_cli.csv");

    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args([
            "gen-trace",
            "--rate",
            "40",
            "--horizon",
            "180",
            "--seed",
            "3",
            "--out",
        ])
        .arg(&trace)
        .status()
        .expect("spawn repro gen-trace");
    assert!(status.success(), "gen-trace exited with {status}");

    let replay = |out: &Path, chunk: &str| {
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args([
                "replay",
                "--analyzer",
                "ewma",
                "--no-cache",
                "--chunk",
                chunk,
            ])
            .arg("--trace")
            .arg(&trace)
            .arg("--out")
            .arg(out)
            .status()
            .expect("spawn repro replay");
        assert!(status.success(), "replay exited with {status}");
    };
    replay(&out_a, "8192");
    replay(&out_b, "64");

    // The summary artifact is byte-identical whatever the ingestion
    // chunk — the same invariant trace_smoke.sh diffs at scale.
    let a = fs::read(out_a.join("replay_ewma.json")).expect("read replay json");
    let b = fs::read(out_b.join("replay_ewma.json")).expect("read replay json");
    assert!(!a.is_empty() && a == b, "summaries differ across --chunk");

    let qos_raw = fs::read_to_string(out_a.join("replay_ewma_qos.json")).expect("read qos report");
    let qos = Json::parse(&qos_raw).expect("qos report must parse");
    for field in [
        "analyzer",
        "trace_content_hash",
        "total_requests",
        "verdict",
        "all_met",
        "peak_rss_kb",
    ] {
        assert!(qos.get(field).is_some(), "qos report lacks {field}");
    }
    assert_eq!(qos.get("analyzer"), Some(&Json::from("ewma")));
    let verdict = qos.get("verdict").unwrap();
    assert!(verdict.get("rejections_met").is_some());
}
