//! `repro` — regenerates the paper's tables and figures and replays
//! external traces.
//!
//! ```text
//! repro figures [table2|fig3|fig4|fig5|fig6|ablations|all]…
//!       [--mode smoke|quick|paper|full] [--seed N] [--out DIR]
//!       [--trace DIR] [--cache DIR] [--no-cache] [--jobs N]
//! repro replay --trace FILE [--analyzer oracle|mle|ewma] [--chunk N]
//!       [--analyzers a,b,…] [--reps N] [--rep N] [--jobs N] [--seed N]
//!       [--out DIR] [--cache DIR] [--no-cache]
//! repro smoke [figures flags]
//! repro gen-trace --out FILE [--rate R] [--horizon SECS] [--seed N]
//!       [--step-at SECS --step-rate R2]
//! ```
//!
//! `figures` is the original behavior: results are printed and written
//! under `--out` (default `results/`): `figN.txt` (the table/series),
//! `figN.csv`, and `figN.json`. With `--trace DIR`, fig5/fig6
//! additionally run one fully-observed adaptive replication and write
//! `figN_adaptive.jsonl`, `figN_timeseries.json`, and `figN_curves.txt`.
//! Fig. 5 and Fig. 6 execute as one *campaign* sharing a persistent
//! worker pool and a content-addressed run cache under `--cache DIR`
//! (default `<out>/.runcache`; disable with `--no-cache`);
//! `cache_stats.json` records jobs, hits, and wall-clock. `--jobs N`
//! pins the worker count.
//!
//! `replay` streams a `time,count,spread` CSV trace through the
//! `DatasetReader` seam (peak ingestion memory = one chunk of batches,
//! whatever the trace length), runs the adaptive policy over it, and
//! emits a Fig 5-style QoS report: `replay_<analyzer>.txt/.json` plus
//! `replay_<analyzer>_qos.json` with the pass/fail verdicts and the
//! process's peak RSS. `--analyzer` picks the rate source driving
//! Algorithm 1: the oracle (whole-trace mean), the sliding-window MLE,
//! or the EWMA estimator. Replays share the figures' run cache, keyed
//! by trace *content hash* (schema v5). `--rep N` picks the
//! replication index (seed derivation only; output names are
//! unchanged).
//!
//! With `--analyzers a,b,…` and/or `--reps N`, `replay` becomes a
//! *grid*: every (analyzer, rep) cell runs as one job queue off a
//! single shared trace scan — the CSV is opened, read, and decoded
//! exactly once, and the decoded chunks fan out to every cell through
//! ref-counted handles (memory stays chunk-bounded; see DESIGN.md
//! §13). The run cache is consulted
//! per cell with the *single-run* keys, so warm grids are pure cache
//! reads. Cells emit `replay_<analyzer>_rep<r>.txt/.csv/.json`
//! (byte-identical in content to the single-run files) plus a
//! per-cell `…_qos.json` *without* `peak_rss_kb` — RSS is process-wide
//! and meaningless per pooled cell, so the grid reports one grid-level
//! peak in `replay_grid.json` alongside the cross-analyzer comparison
//! table (`replay_grid.txt`). `--jobs N` sets the grid's worker
//! threads, each stepping its share of the cells chunk by chunk
//! (default: one per available core, at most one per cell).
//!
//! `smoke` is shorthand for `figures all --mode smoke`. `gen-trace`
//! writes a deterministic synthetic Poisson trace (optionally with one
//! rate step) for offline CI and benchmarking.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;
use vmprov_des::SimTime;
use vmprov_experiments::pool::configure_global_workers;
use vmprov_experiments::report::{
    figure_table, runs_csv, runs_json, series_csv, sparkline, timeseries_curves,
};
use vmprov_experiments::{
    ablation_table, analyzer_ablation, backend_ablation, boot_delay_ablation, dispatch_ablation,
    fig3_series, fig4_series, fig5_spec, fig6_spec, grid_table, peak_rss_kb, qos_verdict,
    replay_once, table2, trace_dt, traced_run, AnalyzerSpec, Campaign, GridCell, PolicySpec,
    ReplayGrid, Replicated, RunCache, RunMode, Scenario,
};
use vmprov_json::{Json, ToJson};
use vmprov_workloads::{generate_piecewise_csv, TraceSpec, DEFAULT_CHUNK};

const USAGE: &str = "usage: repro <figures|replay|smoke|gen-trace> …
  repro figures [table2|fig3|fig4|fig5|fig6|ablations|all]… \
[--mode smoke|quick|paper|full] [--seed N] [--out DIR] [--trace DIR] \
[--cache DIR] [--no-cache] [--jobs N]
  repro replay --trace FILE [--analyzer oracle|mle|ewma] [--chunk N] \
[--analyzers a,b,…] [--reps N] [--rep N] [--jobs N] \
[--seed N] [--out DIR] [--cache DIR] [--no-cache]
  repro smoke [figures flags]
  repro gen-trace --out FILE [--rate R] [--horizon SECS] [--seed N] \
[--step-at SECS --step-rate R2]";

struct FigureArgs {
    targets: Vec<String>,
    mode: RunMode,
    seed: u64,
    out: PathBuf,
    trace: Option<PathBuf>,
    /// Run-cache directory; `None` = `<out>/.runcache`.
    cache: Option<PathBuf>,
    no_cache: bool,
    jobs: Option<usize>,
}

fn parse_figure_args(argv: &[String]) -> Result<FigureArgs, String> {
    let mut targets = Vec::new();
    let mut mode = RunMode::Quick;
    let mut seed = 20110926; // ICPP 2011 conference date
    let mut out = PathBuf::from("results");
    let mut trace = None;
    let mut cache = None;
    let mut no_cache = false;
    let mut jobs = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--mode" => {
                let v = it.next().ok_or("--mode needs a value")?;
                mode = RunMode::parse(v).ok_or(format!("unknown mode {v}"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--trace" => {
                trace = Some(PathBuf::from(it.next().ok_or("--trace needs a value")?));
            }
            "--cache" => {
                cache = Some(PathBuf::from(it.next().ok_or("--cache needs a value")?));
            }
            "--no-cache" => no_cache = true,
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad job count {v}"))?;
                if n < 1 {
                    return Err("--jobs must be at least 1".into());
                }
                jobs = Some(n);
            }
            "--help" | "-h" => return Err(USAGE.into()),
            t @ ("table2" | "fig3" | "fig4" | "fig5" | "fig6" | "ablations" | "all") => {
                targets.push(t.to_string())
            }
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
    }
    if targets.is_empty() || targets.iter().any(|t| t == "all") {
        targets = ["table2", "fig3", "fig4", "fig5", "fig6", "ablations"]
            .map(String::from)
            .to_vec();
    }
    // A repeated target would double-emit (and double-consume campaign
    // results); keep the first occurrence of each.
    let mut seen = Vec::new();
    targets.retain(|t| {
        let fresh = !seen.contains(t);
        if fresh {
            seen.push(t.clone());
        }
        fresh
    });
    if no_cache && cache.is_some() {
        return Err("--cache and --no-cache are mutually exclusive".into());
    }
    Ok(FigureArgs {
        targets,
        mode,
        seed,
        out,
        trace,
        cache,
        no_cache,
        jobs,
    })
}

/// Opens the run cache under `--cache DIR` / `<out>/.runcache`, unless
/// caching is disabled. Unopenable caches degrade to running uncached.
fn open_cache(out: &Path, cache: &Option<PathBuf>, no_cache: bool) -> Option<RunCache> {
    if no_cache {
        return None;
    }
    let dir = cache.clone().unwrap_or_else(|| out.join(".runcache"));
    match RunCache::open(&dir) {
        Ok(c) => Some(c),
        Err(e) => {
            eprintln!(
                "warning: cannot open run cache {}: {e} (running uncached)",
                dir.display()
            );
            None
        }
    }
}

/// Pre-runs the figure experiments of this invocation as one campaign:
/// one pooled job queue across figures, cache-first. Returns the
/// results for `emit_experiment` to consume in the target loop.
fn run_figure_campaign(args: &FigureArgs) -> (Option<Vec<Replicated>>, Option<Vec<Replicated>>) {
    let want5 = args.targets.iter().any(|t| t == "fig5");
    let want6 = args.targets.iter().any(|t| t == "fig6");
    if !want5 && !want6 {
        return (None, None);
    }
    let cache = open_cache(&args.out, &args.cache, args.no_cache);
    if let Some(c) = &cache {
        println!("run cache: {}", c.dir().display());
    }

    let mut campaign = Campaign::new(cache);
    let h5 = want5.then(|| {
        let (scenarios, reps) = fig5_spec(args.mode, args.seed);
        campaign.add_figure(scenarios, reps)
    });
    let h6 = want6.then(|| {
        let (scenarios, reps) = fig6_spec(args.mode, args.seed);
        campaign.add_figure(scenarios, reps)
    });
    println!(
        "running figure campaign (fig5: {want5}, fig6: {want6}, mode {:?})…",
        args.mode
    );
    let mut result = campaign.run();
    let stats = result.stats.clone();
    println!(
        "campaign: {} job(s), {} cache hit(s), {} miss(es), {} corrupt, {:.1}s\n",
        stats.jobs,
        stats.cache_hits,
        stats.cache_misses,
        stats.corrupt_entries,
        stats.wall.as_secs_f64()
    );
    write(
        &args.out.join("cache_stats.json"),
        &stats.to_json().to_string_pretty(),
    );
    (h5.map(|h| result.take(h)), h6.map(|h| result.take(h)))
}

fn write(path: &Path, content: &str) {
    if let Some(dir) = path.parent() {
        fs::create_dir_all(dir).expect("create output dir");
    }
    fs::write(path, content).expect("write output");
    println!("  wrote {}", path.display());
}

fn emit_experiment(name: &str, title: &str, reps: &[Replicated], out: &Path) {
    let table = figure_table(title, reps);
    println!("{table}");
    write(&out.join(format!("{name}.txt")), &table);
    write(&out.join(format!("{name}.csv")), &runs_csv(reps));
    write(&out.join(format!("{name}.json")), &runs_json(reps));
}

/// Runs one fully-observed adaptive replication of `scenario` and
/// writes the trace, the sampled time series, and the rendered curves
/// under `dir`.
fn emit_trace(name: &str, scenario: &Scenario, dir: &Path) {
    fs::create_dir_all(dir).expect("create trace dir");
    let dt = trace_dt(scenario.horizon.as_secs());
    let jsonl = dir.join(format!("{name}_adaptive.jsonl"));
    let traced = traced_run(scenario, 0, dt, &jsonl).expect("write trace");
    println!(
        "  traced adaptive run: {} events, {} samples (Δt {dt:.0} s)",
        traced.trace_lines,
        traced.series.samples.len()
    );
    println!("  wrote {}", jsonl.display());
    write(
        &dir.join(format!("{name}_timeseries.json")),
        &traced.series.to_json().to_string_pretty(),
    );
    let curves = timeseries_curves(
        &format!("{name} — the adaptive run over time (panels a–d)"),
        &traced.series,
        112,
    );
    println!("{curves}");
    write(&dir.join(format!("{name}_curves.txt")), &curves);
}

fn figures_main(argv: &[String]) {
    let args = match parse_figure_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    println!(
        "repro: targets={:?} mode={:?} seed={}\n",
        args.targets, args.mode, args.seed
    );
    if let Some(n) = args.jobs {
        configure_global_workers(n);
    }
    let (mut fig5_runs, mut fig6_runs) = run_figure_campaign(&args);

    for target in &args.targets {
        let started = Instant::now();
        match target.as_str() {
            "table2" => {
                let mut text = String::from(
                    "Table II — min/max requests per second per weekday (web workload)\n",
                );
                for (day, max, min) in table2() {
                    text.push_str(&format!("{day:<10} max {max:>6.0}  min {min:>6.0}\n"));
                }
                println!("{text}");
                write(&args.out.join("table2.txt"), &text);
            }
            "fig3" => {
                let series = fig3_series(600.0);
                let mut text =
                    String::from("Fig. 3 — web workload arrival rate over one week (req/s)\n");
                text.push_str(&format!("{}\n", sparkline(&series, 112)));
                text.push_str("hours 0 (Mon 12am) … 168 (next Mon); peaks at each noon\n");
                println!("{text}");
                write(&args.out.join("fig3.txt"), &text);
                write(
                    &args.out.join("fig3.csv"),
                    &series_csv("hour", "requests_per_second", &series),
                );
            }
            "fig4" => {
                let series = fig4_series(600.0, 10, args.seed);
                let mut text = String::from(
                    "Fig. 4 — scientific workload arrival rate over one day (tasks/s)\n",
                );
                text.push_str(&format!("{}\n", sparkline(&series, 96)));
                text.push_str("hours 0 … 24; dense 8am–5pm peak window\n");
                println!("{text}");
                write(&args.out.join("fig4.txt"), &text);
                write(
                    &args.out.join("fig4.csv"),
                    &series_csv("hour", "tasks_per_second", &series),
                );
            }
            "fig5" => {
                println!(
                    "running fig5 (web, horizon {:.0} h, {} rep(s) × 6 policies)…",
                    args.mode.web_horizon().as_hours(),
                    args.mode.web_reps()
                );
                let reps = fig5_runs.take().expect("fig5 campaign results");
                emit_experiment(
                    "fig5",
                    "Fig. 5 — web (Wikipedia) workload: adaptive vs static provisioning",
                    &reps,
                    &args.out,
                );
                if let Some(dir) = &args.trace {
                    let sc = Scenario::web(PolicySpec::Adaptive, args.seed)
                        .with_horizon(args.mode.web_horizon());
                    emit_trace("fig5", &sc, dir);
                }
            }
            "fig6" => {
                println!(
                    "running fig6 (scientific, 1 day, {} rep(s) × 6 policies)…",
                    args.mode.sci_reps()
                );
                let reps = fig6_runs.take().expect("fig6 campaign results");
                emit_experiment(
                    "fig6",
                    "Fig. 6 — scientific (Bag-of-Tasks) workload: adaptive vs static provisioning",
                    &reps,
                    &args.out,
                );
                if let Some(dir) = &args.trace {
                    let sc = Scenario::scientific(PolicySpec::Adaptive, args.seed);
                    emit_trace("fig6", &sc, dir);
                }
            }
            "ablations" => {
                let horizon = match args.mode {
                    RunMode::Smoke => SimTime::from_mins(10.0),
                    RunMode::Quick => SimTime::from_mins(30.0),
                    _ => SimTime::from_hours(6.0),
                };
                let mut text = String::new();
                text.push_str(&ablation_table(
                    "Ablation: analytic backend (adaptive, web)",
                    &backend_ablation(args.seed, horizon),
                ));
                text.push('\n');
                text.push_str(&ablation_table(
                    "Ablation: dispatch strategy (adaptive, web)",
                    &dispatch_ablation(args.seed, horizon),
                ));
                text.push('\n');
                text.push_str(&ablation_table(
                    "Ablation: VM boot delay (adaptive, web)",
                    &boot_delay_ablation(args.seed, horizon),
                ));
                text.push('\n');
                text.push_str(&ablation_table(
                    "Ablation: reactive analyzers on an unscheduled flash crowd",
                    &analyzer_ablation(args.seed),
                ));
                println!("{text}");
                write(&args.out.join("ablations.txt"), &text);
            }
            _ => unreachable!("validated in parse_args"),
        }
        println!(
            "  [{target} done in {:.1}s]\n",
            started.elapsed().as_secs_f64()
        );
    }
}

struct ReplayArgs {
    trace: PathBuf,
    analyzer: AnalyzerSpec,
    /// Grid analyzer axis (`--analyzers a,b,…`); `None` = single-run
    /// mode unless `reps > 1`.
    analyzers: Option<Vec<AnalyzerSpec>>,
    /// Replications per analyzer in grid mode.
    reps: u32,
    /// Replication index in single-run mode (seed derivation only).
    rep: u32,
    /// Grid worker threads (`None` = one per core, at most one per
    /// cell).
    jobs: Option<usize>,
    chunk: usize,
    seed: u64,
    out: PathBuf,
    cache: Option<PathBuf>,
    no_cache: bool,
}

fn parse_replay_args(argv: &[String]) -> Result<ReplayArgs, String> {
    let mut trace = None;
    let mut analyzer = AnalyzerSpec::Oracle;
    let mut analyzers = None;
    let mut reps = 1u32;
    let mut rep = 0u32;
    let mut jobs = None;
    let mut chunk = DEFAULT_CHUNK;
    let mut seed = 20110926;
    let mut out = PathBuf::from("results");
    let mut cache = None;
    let mut no_cache = false;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" | "--trace-file" => {
                trace = Some(PathBuf::from(it.next().ok_or("--trace needs a value")?));
            }
            "--analyzer" => {
                let v = it.next().ok_or("--analyzer needs a value")?;
                analyzer = AnalyzerSpec::parse(v)
                    .ok_or(format!("unknown analyzer {v} (oracle|mle|ewma)"))?;
            }
            "--analyzers" => {
                let v = it.next().ok_or("--analyzers needs a value")?;
                let mut list = Vec::new();
                for part in v.split(',').filter(|p| !p.is_empty()) {
                    let a = AnalyzerSpec::parse(part)
                        .ok_or(format!("unknown analyzer {part} (oracle|mle|ewma)"))?;
                    if list.contains(&a) {
                        return Err(format!("duplicate analyzer {part} in --analyzers"));
                    }
                    list.push(a);
                }
                if list.is_empty() {
                    return Err("--analyzers needs at least one analyzer".into());
                }
                analyzers = Some(list);
            }
            "--reps" => {
                let v = it.next().ok_or("--reps needs a value")?;
                reps = v.parse().map_err(|_| format!("bad rep count {v}"))?;
                if reps < 1 {
                    return Err("--reps must be at least 1".into());
                }
            }
            "--rep" => {
                let v = it.next().ok_or("--rep needs a value")?;
                rep = v
                    .parse()
                    .map_err(|_| format!("bad replication index {v}"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n: usize = v.parse().map_err(|_| format!("bad job count {v}"))?;
                if n < 1 {
                    return Err("--jobs must be at least 1".into());
                }
                jobs = Some(n);
            }
            "--chunk" => {
                let v = it.next().ok_or("--chunk needs a value")?;
                chunk = v.parse().map_err(|_| format!("bad chunk size {v}"))?;
                if chunk < 1 {
                    return Err("--chunk must be at least 1".into());
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
            }
            "--out" => {
                out = PathBuf::from(it.next().ok_or("--out needs a value")?);
            }
            "--cache" => {
                cache = Some(PathBuf::from(it.next().ok_or("--cache needs a value")?));
            }
            "--no-cache" => no_cache = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other} (try --help)")),
        }
    }
    if no_cache && cache.is_some() {
        return Err("--cache and --no-cache are mutually exclusive".into());
    }
    if analyzers.is_some() && rep != 0 {
        return Err("--rep is single-run only; grids use --reps N".into());
    }
    Ok(ReplayArgs {
        trace: trace.ok_or("replay needs --trace FILE")?,
        analyzer,
        analyzers,
        reps,
        rep,
        jobs,
        chunk,
        seed,
        out,
        cache,
        no_cache,
    })
}

fn replay_main(argv: &[String]) {
    let args = match parse_replay_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let spec = match TraceSpec::scan(&args.trace, args.chunk) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("repro replay: {}: {e}", args.trace.display());
            std::process::exit(1);
        }
    };
    println!(
        "replay: {} — {} requests in {} batches over {:.0} s (mean rate {:.2}/s, \
         content hash {:016x}, chunk {})",
        spec.path.display(),
        spec.total_requests,
        spec.batches,
        spec.end_time.as_secs(),
        spec.mean_rate,
        spec.content_hash,
        spec.chunk,
    );
    if args.analyzers.is_some() || args.reps > 1 {
        return replay_grid_main(&args, spec, started);
    }
    println!(
        "analyzer: {} | scan {:.1}s",
        args.analyzer.label(),
        started.elapsed().as_secs_f64()
    );

    let scenario = Scenario::trace_replay(spec.clone(), PolicySpec::Adaptive, args.seed)
        .with_analyzer(args.analyzer);
    let cache = open_cache(&args.out, &args.cache, args.no_cache);
    let run_started = Instant::now();
    let (summary, source) = replay_once(&scenario, args.rep, cache.as_ref());
    let wall = run_started.elapsed().as_secs_f64();
    let verdict = qos_verdict(&summary);
    let rss = peak_rss_kb();

    let label = format!("Adaptive({})", args.analyzer.label());
    let reps = [Replicated {
        policy: label.clone(),
        runs: vec![summary],
    }];
    let name = format!("replay_{}", args.analyzer.label());
    let title = format!(
        "Trace replay — {} requests, adaptive provisioning ({} analyzer)",
        spec.total_requests,
        args.analyzer.label()
    );
    emit_experiment(&name, &title, &reps, &args.out);

    let qos_json = Json::obj([
        ("analyzer", Json::from(args.analyzer.label())),
        ("policy", Json::from(label)),
        ("trace_content_hash", Json::from(spec.content_hash)),
        ("total_requests", Json::from(spec.total_requests)),
        ("end_time_secs", Json::from(spec.end_time.as_secs())),
        ("mean_rate", Json::from(spec.mean_rate)),
        ("verdict", verdict.to_json()),
        ("all_met", Json::from(verdict.all_met())),
        (
            "peak_rss_kb",
            match rss {
                Some(kb) => Json::from(kb),
                None => Json::Null,
            },
        ),
        ("source", Json::from(source.label())),
    ]);
    write(
        &args.out.join(format!("{name}_qos.json")),
        &qos_json.to_string_pretty(),
    );
    println!(
        "verdicts: rejections {} | response {} | nothing lost {} ({})",
        verdict.rejections_met,
        verdict.response_met,
        verdict.nothing_lost,
        if verdict.all_met() {
            "all met"
        } else {
            "VIOLATED"
        },
    );
    match rss {
        Some(kb) => println!("peak RSS: {kb} kB"),
        None => println!("peak RSS: unavailable (no procfs)"),
    }
    println!("  [replay done in {wall:.1}s, {}]", source.label());
}

/// Emits one grid cell's report files. Content of the
/// `.txt`/`.csv`/`.json` triple is byte-identical to what the
/// single-run path writes for the same (analyzer, rep) — only the
/// `_rep<r>` name segment differs (pinned by the CI grid byte-diff).
/// The per-cell `_qos.json` carries **no** `peak_rss_kb`: it reads
/// process-wide, so per-cell values under a pooled grid would all
/// report the same high-water mark (see `replay_grid.json`).
fn emit_grid_cell(cell: &GridCell, spec: &TraceSpec, out: &Path) {
    let label = format!("Adaptive({})", cell.analyzer.label());
    let name = format!("replay_{}_rep{}", cell.analyzer.label(), cell.rep);
    let title = format!(
        "Trace replay — {} requests, adaptive provisioning ({} analyzer)",
        spec.total_requests,
        cell.analyzer.label()
    );
    let reps = [Replicated {
        policy: label.clone(),
        runs: vec![cell.summary.clone()],
    }];
    emit_experiment(&name, &title, &reps, out);
    let verdict = qos_verdict(&cell.summary);
    let qos_json = Json::obj([
        ("analyzer", Json::from(cell.analyzer.label())),
        ("rep", Json::from(u64::from(cell.rep))),
        ("policy", Json::from(label)),
        ("trace_content_hash", Json::from(spec.content_hash)),
        ("total_requests", Json::from(spec.total_requests)),
        ("end_time_secs", Json::from(spec.end_time.as_secs())),
        ("mean_rate", Json::from(spec.mean_rate)),
        ("verdict", verdict.to_json()),
        ("all_met", Json::from(verdict.all_met())),
        ("source", Json::from(cell.source.label())),
    ]);
    write(
        &out.join(format!("{name}_qos.json")),
        &qos_json.to_string_pretty(),
    );
}

fn replay_grid_main(args: &ReplayArgs, spec: TraceSpec, started: Instant) {
    let analyzers = args
        .analyzers
        .clone()
        .unwrap_or_else(|| vec![args.analyzer]);
    let labels: Vec<&str> = analyzers.iter().map(|a| a.label()).collect();
    println!(
        "grid: {{{}}} × {} rep(s) = {} cells | scan {:.1}s",
        labels.join(","),
        args.reps,
        analyzers.len() * args.reps as usize,
        started.elapsed().as_secs_f64()
    );
    let grid = ReplayGrid {
        concurrency: args.jobs,
        ..ReplayGrid::new(spec.clone(), analyzers.clone(), args.reps, args.seed)
    };
    let cache = open_cache(&args.out, &args.cache, args.no_cache);
    let outcome = grid.run(cache.as_ref());
    for cell in &outcome.cells {
        emit_grid_cell(cell, &spec, &args.out);
    }

    let stats = &outcome.stats;
    let table = grid_table(
        &format!(
            "Replay grid — {} requests × {{{}}} × {} rep(s)",
            spec.total_requests,
            labels.join(","),
            args.reps
        ),
        &outcome,
        &analyzers,
    );
    println!("{table}");
    println!(
        "scan: {} wave(s), {} batches decoded, {} trace open(s), window ≤ {}",
        stats.scan_waves, stats.batches_decoded, stats.trace_file_opens, stats.max_window
    );
    println!(
        "cache: {} hit(s), {} miss(es){}",
        stats.cache_hits,
        stats.cache_misses,
        if cache.is_some() { "" } else { " (disabled)" }
    );
    match stats.peak_rss_kb {
        Some(kb) => println!("grid peak RSS: {kb} kB (process-wide)"),
        None => println!("grid peak RSS: unavailable (no procfs)"),
    }

    let mut text = table;
    text.push_str(&format!(
        "\nscan waves: {} | batches decoded: {} | trace opens: {} | max window: {}\n\
         cache hits: {} | misses: {} | grid peak RSS: {} kB\n",
        stats.scan_waves,
        stats.batches_decoded,
        stats.trace_file_opens,
        stats.max_window,
        stats.cache_hits,
        stats.cache_misses,
        stats.peak_rss_kb.map_or("?".into(), |kb| kb.to_string()),
    ));
    write(&args.out.join("replay_grid.txt"), &text);

    let cells_json = Json::arr(outcome.cells.iter().map(|c| {
        let verdict = qos_verdict(&c.summary);
        Json::obj([
            ("analyzer", Json::from(c.analyzer.label())),
            ("rep", Json::from(u64::from(c.rep))),
            ("source", Json::from(c.source.label())),
            ("verdict", verdict.to_json()),
            ("all_met", Json::from(verdict.all_met())),
        ])
    }));
    let grid_json = Json::obj([
        ("trace_content_hash", Json::from(spec.content_hash)),
        ("total_requests", Json::from(spec.total_requests)),
        ("end_time_secs", Json::from(spec.end_time.as_secs())),
        ("mean_rate", Json::from(spec.mean_rate)),
        (
            "analyzers",
            Json::arr(labels.iter().map(|l| Json::from(*l))),
        ),
        ("reps", Json::from(u64::from(args.reps))),
        ("cells", cells_json),
        ("stats", stats.to_json()),
    ]);
    write(
        &args.out.join("replay_grid.json"),
        &grid_json.to_string_pretty(),
    );
    println!(
        "  [grid done in {:.1}s total, {:.1}s execution]",
        started.elapsed().as_secs_f64(),
        stats.wall.as_secs_f64()
    );
}

fn gen_trace_main(argv: &[String]) {
    let mut out = None;
    let mut rate = 2000.0f64;
    let mut horizon = 5000.0f64;
    let mut seed = 42u64;
    let mut step_at = None;
    let mut step_rate = None;
    let mut it = argv.iter();
    let parse_f64 = |flag: &str, v: Option<&String>| -> Result<f64, String> {
        let v = v.ok_or(format!("{flag} needs a value"))?;
        let x: f64 = v.parse().map_err(|_| format!("bad {flag} value {v}"))?;
        if !(x.is_finite() && x > 0.0) {
            return Err(format!("{flag} must be positive"));
        }
        Ok(x)
    };
    let result = (|| -> Result<(), String> {
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => out = Some(PathBuf::from(it.next().ok_or("--out needs a value")?)),
                "--rate" => rate = parse_f64("--rate", it.next())?,
                "--horizon" => horizon = parse_f64("--horizon", it.next())?,
                "--step-at" => step_at = Some(parse_f64("--step-at", it.next())?),
                "--step-rate" => step_rate = Some(parse_f64("--step-rate", it.next())?),
                "--seed" => {
                    let v = it.next().ok_or("--seed needs a value")?;
                    seed = v.parse().map_err(|_| format!("bad seed {v}"))?;
                }
                "--help" | "-h" => return Err(USAGE.into()),
                other => return Err(format!("unknown argument {other} (try --help)")),
            }
        }
        if step_at.is_some() != step_rate.is_some() {
            return Err("--step-at and --step-rate go together".into());
        }
        Ok(())
    })();
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(2);
    }
    let Some(out) = out else {
        eprintln!("gen-trace needs --out FILE");
        std::process::exit(2);
    };
    let pieces = match (step_at, step_rate) {
        (Some(at), Some(r2)) => vec![(0.0, rate), (at, r2)],
        _ => vec![(0.0, rate)],
    };
    if let Some(dir) = out.parent() {
        fs::create_dir_all(dir).expect("create output dir");
    }
    let started = Instant::now();
    let file = fs::File::create(&out).expect("create trace file");
    let gen = generate_piecewise_csv(file, &pieces, SimTime::from_secs(horizon), seed)
        .expect("write trace");
    let bytes = fs::metadata(&out).map(|m| m.len()).unwrap_or(0);
    println!(
        "gen-trace: wrote {} — {} rows over {:.0} s ({:.1} MB) in {:.1}s (seed {seed})",
        out.display(),
        gen.rows,
        gen.end_time,
        bytes as f64 / 1e6,
        started.elapsed().as_secs_f64()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("figures") => figures_main(&argv[1..]),
        Some("replay") => replay_main(&argv[1..]),
        Some("smoke") => {
            let mut forwarded = vec!["all".to_string(), "--mode".to_string(), "smoke".to_string()];
            forwarded.extend_from_slice(&argv[1..]);
            figures_main(&forwarded);
        }
        Some("gen-trace") => gen_trace_main(&argv[1..]),
        None | Some("--help") | Some("-h") => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
        Some(other) => {
            eprintln!("unknown subcommand `{other}`\n{USAGE}");
            std::process::exit(2);
        }
    }
}
