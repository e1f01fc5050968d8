//! The whole benchmark at `--size smoke`: every workload, untraced and
//! traced, in seconds. Checks the output contract against
//! `BENCHMARK.json` and that the traced budget reconciles.

use std::path::{Path, PathBuf};
use std::process::Command;

use vmprov_json::Json;

const WORKLOADS: [&str; 3] = ["web_fig5", "sci_sweep", "replay_grid"];

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
}

/// `(name, unit)` of every metric listed under `key`.
fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let text = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (text("name"), text("unit"))
        })
        .collect()
}

/// Runs the benchmark; returns its standard output and the `--out`
/// report (one object per workload).
fn run(trace: &str) -> (String, Vec<Json>) {
    let out: PathBuf =
        Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("e2e_smoke_{trace}.json"));
    let scratch = Path::new(env!("CARGO_MANIFEST_DIR")).join(".e2e_scratch");
    let output = Command::new(env!("CARGO_BIN_EXE_e2e"))
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .args(["--size", "smoke", "--trace", trace, "--out"])
        .arg(&out)
        .output()
        .expect("run e2e");
    let stdout = String::from_utf8(output.stdout).expect("utf-8 output");
    assert!(
        output.status.success(),
        "e2e failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(!scratch.exists(), "the scratch directory outlived the run");
    let report = Json::parse(&std::fs::read_to_string(&out).expect("read --out")).expect("parse");
    let _ = std::fs::remove_file(&out);
    (
        stdout,
        report.as_array().expect("one report per workload").to_vec(),
    )
}

/// Every workload's result line: exactly the four keys, all checks
/// passed, and every listed metric with its unit.
fn check_results(stdout: &str, expected: &[(String, String)]) {
    let results: Vec<Json> = stdout
        .lines()
        .filter(|l| l.starts_with("{\"correct\""))
        .map(|l| Json::parse(l).expect("result line parses"))
        .collect();
    assert_eq!(results.len(), WORKLOADS.len());
    assert!(
        stdout.trim_end().ends_with('}'),
        "the result is the last line"
    );
    for result in &results {
        let Json::Obj(members) = result else {
            panic!("result is not an object")
        };
        let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        let metrics = result.get("metrics").expect("metrics");
        for (name, unit) in expected {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
            assert!(m.get("value").and_then(Json::as_f64).is_some());
            assert!(
                stdout.contains(&format!("\n{name} ")),
                "{name} has no dispersion line"
            );
        }
    }
}

#[test]
fn smoke_runs_every_workload_untraced_and_traced() {
    let doc = benchmark_json();

    let (stdout, reports) = run("0");
    check_results(&stdout, &listed(&doc, "end_to_end"));
    for (report, name) in reports.iter().zip(WORKLOADS) {
        assert_eq!(report.get("workload").and_then(Json::as_str), Some(name));
        let wall = report.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        let samples = wall.get("samples").and_then(Json::as_array).unwrap();
        assert!(samples.len() >= 2, "{name}: raw samples kept");
    }

    let (stdout, reports) = run("1");
    check_results(&stdout, &listed(&doc, "per_layer"));
    for report in &reports {
        let budget = report.get("traced").and_then(|t| t.get("budget")).unwrap();
        let measured = budget
            .get("measured_ns_per_req")
            .and_then(Json::as_f64)
            .unwrap();
        let rows: f64 = budget
            .get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|r| r.get("ns_per_req").and_then(Json::as_f64).unwrap())
            .sum();
        let residual = budget
            .get("residual_ns_per_req")
            .and_then(Json::as_f64)
            .unwrap();
        assert!(measured > 0.0);
        assert!(
            (rows + residual - measured).abs() <= 1e-9 * measured,
            "budget rows {rows} + residual {residual} != measured {measured}"
        );
    }
}
