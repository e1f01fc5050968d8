//! End-to-end smoke test: runs the `repro` binary on the scaled-down
//! smoke scenario and checks the emitted results JSON is well formed.

use std::path::Path;
use std::process::Command;
use vmprov_experiments::Replicated;
use vmprov_json::{FromJson, Json};

#[test]
fn repro_smoke_emits_well_formed_results() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-smoke");
    let trace = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-smoke-trace");
    let status = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["figures", "fig6", "--mode", "smoke", "--seed", "7"])
        .arg("--out")
        .arg(&out)
        .arg("--trace")
        .arg(&trace)
        .status()
        .expect("spawn repro");
    assert!(status.success(), "repro exited with {status}");

    for artifact in ["fig6.txt", "fig6.csv", "fig6.json"] {
        assert!(out.join(artifact).is_file(), "missing {artifact}");
    }

    let raw = std::fs::read_to_string(out.join("fig6.json")).expect("read fig6.json");
    let json = Json::parse(&raw).expect("fig6.json must parse");
    let reps = Vec::<Replicated>::from_json(&json).expect("fig6.json must decode");

    // Six policies (Adaptive + five static sizes), one smoke replication
    // each, all with real traffic and sane rates.
    assert_eq!(reps.len(), 6, "expected 6 policies");
    assert_eq!(reps[0].policy, "Adaptive");
    for rep in &reps {
        assert_eq!(rep.runs.len(), 1, "{}: smoke mode is 1 rep", rep.policy);
        let r = &rep.runs[0];
        assert!(r.offered_requests > 0, "{}: no traffic", rep.policy);
        assert!(
            r.accepted_requests <= r.offered_requests,
            "{}: accepted > offered",
            rep.policy
        );
        assert!(
            (0.0..=1.0).contains(&r.rejection_rate),
            "{}: bad rejection rate {}",
            rep.policy,
            r.rejection_rate
        );
        assert!(r.end_time > 0.0, "{}: zero-length run", rep.policy);
        assert!(r.max_instances >= r.min_instances, "{}", rep.policy);
    }

    // The CSV has one data row per (policy, replication).
    let csv = std::fs::read_to_string(out.join("fig6.csv")).expect("read fig6.csv");
    assert_eq!(csv.lines().count(), 1 + 6, "header + 6 rows");

    // --trace adds the observed adaptive replication: a JSONL event
    // trace, the sampled time series, and the rendered panel curves.
    let jsonl =
        std::fs::read_to_string(trace.join("fig6_adaptive.jsonl")).expect("read trace JSONL");
    assert!(jsonl.lines().count() > 100, "trace is suspiciously short");
    for line in jsonl.lines().take(50) {
        let v = Json::parse(line).expect("every trace line is valid JSON");
        assert!(
            v.get("t").is_some() && v.get("ev").is_some(),
            "trace line lacks t/ev: {line}"
        );
    }

    let ts_raw = std::fs::read_to_string(trace.join("fig6_timeseries.json"))
        .expect("read fig6_timeseries.json");
    let ts = Json::parse(&ts_raw).expect("timeseries must parse");
    assert!(ts.get("dt").is_some());
    let samples = match ts.get("samples") {
        Some(Json::Arr(items)) => items,
        other => panic!("samples must be an array, got {other:?}"),
    };
    assert!(samples.len() >= 100, "only {} samples", samples.len());

    let curves = std::fs::read_to_string(trace.join("fig6_curves.txt")).expect("read curves");
    for label in ["(a)", "(b)", "(c)", "(d)"] {
        assert!(curves.contains(label), "curves missing panel {label}");
    }
}

#[test]
fn fel_flag_is_gone_from_both_subcommands() {
    // The event list has one implementation, so there is nothing to
    // select: `--fel` is an unknown argument, whatever its value.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("repro-fel-gone");
    let trace = dir.join("trace.csv");
    for sub in ["figures", "replay"] {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.arg(sub);
        if sub == "replay" {
            cmd.arg("--trace").arg(&trace);
        }
        let out = cmd
            .args(["--no-cache", "--fel", "quad_heap", "--out"])
            .arg(&dir)
            .output()
            .expect("spawn repro");
        assert_eq!(out.status.code(), Some(2), "{sub} --fel quad_heap");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("unknown argument --fel"),
            "{sub} --fel quad_heap: {stderr}"
        );
    }
}
