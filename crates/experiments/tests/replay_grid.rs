//! Shared-scan replay grids vs the independent-scan single-run path.
//!
//! The grid's whole bargain is "same bytes, less work": every cell's
//! `RunSummary` must be bit-identical to what `run_once` produces from
//! an independent scan of the same trace, whatever the ingestion chunk
//! size or FEL backend. These tests sweep that product
//! space, pin the warm-cache rerun to 100% hits, and check the `repro
//! replay` grid CLI surface (per-cell reports without `peak_rss_kb`,
//! grid summary with the scan counters).

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;
use vmprov_des::FelBackend;
use vmprov_experiments::{run_once, AnalyzerSpec, GridOutcome, ReplayGrid, ReplaySource, RunCache};
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
        let grid = ReplayGrid::new(spec, all_analyzers(), 2, 13);
        let outcome = grid.run(None);
        assert_eq!(outcome.stats.cells, 6);
        assert_eq!(
            outcome.stats.trace_file_opens, 1,
            "chunk {chunk}: the grid must scan the trace exactly once"
        );
        assert!(
            outcome.stats.max_window <= SCAN_DEPTH,
            "chunk {chunk}: window {} exceeded SCAN_DEPTH — backpressure broke",
            outcome.stats.max_window
        );
        assert_cells_match_single_runs(&grid, &outcome, &format!("chunk {chunk}"));
    }
}

#[test]
fn replay_batched_cadence_matches_scalar() {
    // `Scenario::trace_replay` defaults to the batched arrival cadence
    // (REPLAY_ARRIVAL_RUN); on continuous-timestamp traces that must be
    // bit-identical to the scalar one-batch-ahead pull, same argument
    // as the batched-web golden.
    let path = gen_trace("grid_cadence.csv", 30.0, 300.0, 59);
    let spec = TraceSpec::scan(&path, 64).unwrap();
    let batched = vmprov_experiments::Scenario::trace_replay(
        spec.clone(),
        vmprov_experiments::PolicySpec::Adaptive,
        29,
    );
    assert_eq!(batched.arrival_run, vmprov_experiments::REPLAY_ARRIVAL_RUN);
    let scalar = batched.clone().with_arrival_run(1);
    assert_eq!(
        run_once(&batched, 0),
        run_once(&scalar, 0),
        "batched replay cadence diverged from the scalar pull"
    );
}

#[test]
fn shared_scan_grid_matches_independent_scans_across_backends() {
    let path = gen_trace("grid_backends.csv", 25.0, 300.0, 43);
    for fel in [FelBackend::Calendar, FelBackend::BinaryHeap] {
        let spec = TraceSpec::scan(&path, 64).unwrap();
        let grid = ReplayGrid {
            fel: Some(fel),
            ..ReplayGrid::new(spec, all_analyzers(), 1, 17)
        };
        let outcome = grid.run(None);
        assert_eq!(outcome.stats.trace_file_opens, 1);
        assert_cells_match_single_runs(&grid, &outcome, &format!("fel {fel:?}"));
    }
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
fn narrow_waves_still_match_and_scan_once_per_wave() {
    let path = gen_trace("grid_waves.csv", 25.0, 240.0, 53);
    let spec = TraceSpec::scan(&path, 64).unwrap();
    let grid = ReplayGrid {
        concurrency: Some(2), // 6 misses → 3 waves of 2
        ..ReplayGrid::new(spec, all_analyzers(), 2, 23)
    };
    let outcome = grid.run(None);
    assert_eq!(outcome.stats.scan_waves, 3);
    assert_eq!(
        outcome.stats.trace_file_opens, 3,
        "one open per wave, never per cell"
    );
    assert_cells_match_single_runs(&grid, &outcome, "waves of 2");
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
