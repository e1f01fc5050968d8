//! Shared-scan replay grids vs the independent-scan single-run path.
//!
//! The grid's whole bargain is "same bytes, less work": every cell's
//! `RunSummary` must be bit-identical to what `run_once` produces from
//! an independent scan of the same trace, whatever the ingestion chunk
//! size or worker count, and the trace is decoded once.
//! These tests sweep that product space, step cells through a run of
//! equal timestamps longer than a chunk, pin the warm-cache rerun to
//! 100% hits, and check the `repro replay` grid CLI surface (per-cell
//! reports without `peak_rss_kb`, grid summary with the scan
//! counters).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use vmprov_cloudsim::config::DEFAULT_ARRIVAL_RUN;
use vmprov_des::RngFactory;
use vmprov_experiments::runner::replication_seed;
use vmprov_experiments::{
    builder_for, run_once, AnalyzerSpec, GridOutcome, ReplayGrid, ReplaySource, RunCache,
};
use vmprov_json::Json;
use vmprov_workloads::{generate_poisson_csv, TraceSpec, SCAN_DEPTH};

fn tmpdir() -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).to_path_buf()
}

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

fn all_analyzers() -> Vec<AnalyzerSpec> {
    ["oracle", "mle", "ewma"]
        .iter()
        .map(|s| AnalyzerSpec::parse(s).unwrap())
        .collect()
}

/// Every cell of `outcome` must equal the single-run path's output for
/// the same (analyzer, rep) — an independent scan, no sharing.
fn assert_cells_match_single_runs(grid: &ReplayGrid, outcome: &GridOutcome, label: &str) {
    for cell in &outcome.cells {
        let scenario = grid.cell_scenario(cell.analyzer);
        let single = run_once(&scenario, cell.rep);
        assert_eq!(
            cell.summary,
            single,
            "{label}: {} rep {} diverged from the independent-scan path",
            cell.analyzer.label(),
            cell.rep
        );
    }
}

#[test]
fn shared_scan_grid_matches_independent_scans_across_chunk_sizes() {
    let path = gen_trace("grid_chunks.csv", 25.0, 300.0, 41);
    // Chunk 1 maximizes handoffs (every batch is its own window slot),
    // 7 straddles batch-run boundaries, 4096 holds the whole trace
    // region per chunk. All must fan out the same bytes.
    for chunk in [1usize, 7, 4096] {
        let spec = TraceSpec::scan(&path, chunk).unwrap();
        let grid = ReplayGrid {
            concurrency: Some(2),
            ..ReplayGrid::new(spec.clone(), all_analyzers(), 2, 13)
        };
        let outcome = grid.run(None);
        assert_eq!(outcome.stats.cells, 6);
        assert_eq!(
            outcome.stats.trace_file_opens, 1,
            "chunk {chunk}: the grid must scan the trace exactly once"
        );
        assert_eq!(outcome.stats.batches_decoded, spec.batches);
        // A stepped cell needs the rows one expansion of its arrival
        // stream holds and pulls (two arrival runs) decoded first. The
        // window stays at SCAN_DEPTH while a chunk covers that, and
        // grows only as far as it needs for smaller chunks.
        let reach = (2 * DEFAULT_ARRIVAL_RUN as usize).div_ceil(chunk) + 1;
        assert!(
            outcome.stats.max_window <= SCAN_DEPTH.max(reach),
            "chunk {chunk}: window {} exceeded max(SCAN_DEPTH, {reach}) — backpressure broke",
            outcome.stats.max_window
        );
        assert_cells_match_single_runs(&grid, &outcome, &format!("chunk {chunk}"));
    }
}

#[test]
fn replay_batched_cadence_matches_scalar() {
    // Replays run at the default arrival-run depth; the scalar
    // one-batch-ahead pull must give the same summary.
    let path = gen_trace("grid_cadence.csv", 30.0, 300.0, 59);
    let spec = TraceSpec::scan(&path, 64).unwrap();
    let s = vmprov_experiments::Scenario::trace_replay(
        spec,
        vmprov_experiments::PolicySpec::Adaptive,
        29,
    );
    assert_eq!(s.sim_config().arrival_run, DEFAULT_ARRIVAL_RUN);
    let scalar = builder_for(&s)
        .arrival_run(1)
        .run(&RngFactory::new(replication_seed(s.seed, 0)));
    assert_eq!(
        run_once(&s, 0),
        scalar,
        "batched replay cadence diverged from the scalar pull"
    );
}

#[test]
fn shared_scan_grid_matches_independent_scans_on_default_workers() {
    let path = gen_trace("grid_default_workers.csv", 25.0, 300.0, 43);
    let spec = TraceSpec::scan(&path, 64).unwrap();
    let grid = ReplayGrid::new(spec, all_analyzers(), 1, 17);
    let outcome = grid.run(None);
    assert_eq!(outcome.stats.trace_file_opens, 1);
    assert_cells_match_single_runs(&grid, &outcome, "default workers");
}

#[test]
fn warm_grid_rerun_is_all_hits_and_byte_identical() {
    let path = gen_trace("grid_warm.csv", 25.0, 240.0, 47);
    let cache_dir = tmpdir().join("grid_warm_cache");
    // CARGO_TARGET_TMPDIR persists across invocations — start cold.
    let _ = fs::remove_dir_all(&cache_dir);
    let cache = RunCache::open(&cache_dir).expect("open cache");
    let spec = TraceSpec::scan(&path, 64).unwrap();
    let grid = ReplayGrid::new(spec, all_analyzers(), 2, 19);

    let cold = grid.run(Some(&cache));
    assert_eq!(cold.stats.cache_hits, 0);
    assert_eq!(cold.stats.cache_misses, 6);
    assert_eq!(cold.stats.scan_waves, 1);

    let warm = grid.run(Some(&cache));
    assert_eq!(warm.stats.cache_hits, 6, "warm rerun must be 100% hits");
    assert_eq!(warm.stats.cache_misses, 0);
    assert_eq!(warm.stats.scan_waves, 0, "a fully-warm grid never scans");
    assert_eq!(
        warm.stats.trace_file_opens, 0,
        "a fully-warm grid never opens the trace"
    );
    for (c, w) in cold.cells.iter().zip(&warm.cells) {
        assert_eq!(c.analyzer, w.analyzer);
        assert_eq!(c.rep, w.rep);
        assert_eq!(c.summary, w.summary, "cached summary diverged");
        assert_eq!(w.source, ReplaySource::CacheHit);
    }

    // Single-run lookups share the same keys: a lone replay of one cell
    // against the same cache is also a hit.
    let scenario = grid.cell_scenario(AnalyzerSpec::Oracle);
    let (summary, source) = vmprov_experiments::replay_once(&scenario, 1, Some(&cache));
    assert_eq!(source, ReplaySource::CacheHit);
    assert_eq!(summary, cold.cells[1].summary);
}

#[test]
fn two_workers_step_six_cells_off_one_scan() {
    let path = gen_trace("grid_waves.csv", 25.0, 240.0, 53);
    let spec = TraceSpec::scan(&path, 64).unwrap();
    for workers in [2, 1, 4] {
        let grid = ReplayGrid {
            concurrency: Some(workers), // 6 misses on `workers` threads
            ..ReplayGrid::new(spec.clone(), all_analyzers(), 2, 23)
        };
        let outcome = grid.run(None);
        assert_eq!(outcome.stats.scan_waves, 1, "{workers} workers");
        assert_eq!(
            outcome.stats.trace_file_opens, 1,
            "{workers} workers: one open per grid, never per cell or wave"
        );
        assert_eq!(
            outcome.stats.batches_decoded, spec.batches,
            "{workers} workers: every batch decoded exactly once"
        );
        assert!(outcome.stats.max_window <= SCAN_DEPTH);
        assert_cells_match_single_runs(&grid, &outcome, &format!("{workers} workers"));
    }
}

#[test]
fn equal_timestamps_longer_than_a_chunk_still_step_through() {
    // 300 rows at one instant, against 16-row chunks: the stepping
    // bound cannot pass the instant until the scan has published past
    // the whole run, so the window must grow beyond SCAN_DEPTH instead
    // of every worker waiting on the others.
    let path = tmpdir().join("grid_ties.csv");
    let mut csv = String::from("time,count,spread\n");
    for i in 0..400 {
        csv.push_str(&format!("{:.3},1,0\n", i as f64 * 0.25));
    }
    for _ in 0..300 {
        csv.push_str("100.000,1,0\n");
    }
    for i in 1..400 {
        csv.push_str(&format!("{:.3},2,0.5\n", 100.0 + i as f64 * 0.25));
    }
    fs::write(&path, csv).expect("write trace");
    let spec = TraceSpec::scan(&path, 16).unwrap();
    let grid = ReplayGrid {
        concurrency: Some(2),
        ..ReplayGrid::new(spec.clone(), all_analyzers(), 2, 31)
    };
    let outcome = grid.run(None);
    assert_eq!(outcome.stats.trace_file_opens, 1);
    assert_eq!(outcome.stats.batches_decoded, spec.batches);
    assert!(
        outcome.stats.max_window > SCAN_DEPTH,
        "the tie run should have forced the window open (max {})",
        outcome.stats.max_window
    );
    assert_cells_match_single_runs(&grid, &outcome, "equal timestamps");
}

#[test]
fn repro_replay_grid_cli_emits_cells_and_grid_summary() {
    let out = tmpdir().join("grid-cli");
    let single_out = tmpdir().join("grid-cli-single");
    let trace = tmpdir().join("grid_cli.csv");

    let run = |args: &[&str]| {
        let status = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .status()
            .expect("spawn repro");
        assert!(status.success(), "repro {args:?} exited with {status}");
    };
    run(&[
        "gen-trace",
        "--rate",
        "40",
        "--horizon",
        "180",
        "--seed",
        "3",
        "--out",
        trace.to_str().unwrap(),
    ]);
    run(&[
        "replay",
        "--trace",
        trace.to_str().unwrap(),
        "--analyzers",
        "oracle,ewma",
        "--reps",
        "2",
        "--no-cache",
        "--out",
        out.to_str().unwrap(),
    ]);

    // Grid summary: scan counters prove exactly-once, grid-level RSS
    // replaces the per-cell field.
    let grid_raw = fs::read_to_string(out.join("replay_grid.json")).expect("grid json");
    let grid = Json::parse(&grid_raw).expect("grid json parses");
    let stats = grid.get("stats").expect("stats object");
    assert_eq!(stats.get("cells").unwrap().as_u64(), Some(4));
    assert_eq!(stats.get("trace_file_opens").unwrap().as_u64(), Some(1));
    assert_eq!(stats.get("scan_waves").unwrap().as_u64(), Some(1));
    assert!(stats.get("peak_rss_kb").is_some(), "grid-level RSS missing");
    assert_eq!(grid.get("cells").unwrap().as_array().unwrap().len(), 4);

    // Per-cell QoS reports exist and carry no peak_rss_kb (it reads
    // process-wide — meaningless per pooled cell).
    let qos_raw = fs::read_to_string(out.join("replay_ewma_rep1_qos.json")).expect("cell qos json");
    let qos = Json::parse(&qos_raw).expect("cell qos parses");
    assert_eq!(qos.get("analyzer"), Some(&Json::from("ewma")));
    assert_eq!(qos.get("rep").unwrap().as_u64(), Some(1));
    assert!(
        qos.get("peak_rss_kb").is_none(),
        "per-cell qos must not claim an RSS figure"
    );

    // A grid cell's summary triple is byte-identical in content to the
    // single-run path's files for the same (analyzer, rep).
    run(&[
        "replay",
        "--trace",
        trace.to_str().unwrap(),
        "--analyzer",
        "ewma",
        "--rep",
        "1",
        "--no-cache",
        "--out",
        single_out.to_str().unwrap(),
    ]);
    for ext in ["json", "csv", "txt"] {
        let cell = fs::read(out.join(format!("replay_ewma_rep1.{ext}"))).unwrap();
        let single = fs::read(single_out.join(format!("replay_ewma.{ext}"))).unwrap();
        assert!(
            !cell.is_empty() && cell == single,
            "grid cell .{ext} differs from single-run output"
        );
    }
}
