//! `e2e` — the end-to-end benchmark of the vmprov campaign, replay-grid
//! and simulation entry points.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml --bin e2e -- \
//!     [--workload web_fig5|sci_sweep|replay_grid|all] [--seed N] \
//!     [--seconds S] [--trace 0|1] [--size full|smoke] [--out PATH]
//! ```
//!
//! Each workload runs in a child process of its own (this executable
//! again), one after another. The parent generates the replayed trace
//! from `--seed` into a per-process scratch directory under
//! `.e2e_scratch/` in the working directory and removes it at exit. A
//! child sets up several times, then times units of its workload for
//! `--seconds`, checks every output, and prints each metric as
//! `name value unit (median; q1–q3; n)`. With `--trace 0` the metrics
//! are the end-to-end ones; with `--trace 1` the child times fewer units,
//! then runs one traced unit and reports the per-layer metrics and the
//! cost budget. The last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--out` writes every
//! workload's full report (raw samples, checks, budget, spans) as JSON.
//! `BENCHMARK.md` explains the workloads and metrics.

mod report;
mod traced;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use vmprov_des::SimTime;
use vmprov_json::Json;
use vmprov_workloads::generate_piecewise_csv;

use report::{collect, result_line, Checks, END_TO_END, PER_LAYER};
use workload::{measure, trace_pieces, Ctx, Sizes, Workload, DEFAULT_SEED};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
    out: Option<PathBuf>,
    /// Set in a workload's child process: the parent's scratch directory.
    child_scratch: Option<PathBuf>,
    /// Set in a replay_grid child process: the generated trace.
    child_trace: Option<PathBuf>,
    /// Set in a child process: its index among the workload's processes.
    child_part: usize,
}

fn usage_error(msg: &str) -> ! {
    eprintln!("e2e: {msg}");
    eprintln!(
        "usage: e2e [--workload web_fig5|sci_sweep|replay_grid|all] [--seed N] [--seconds S] \
         [--trace 0|1] [--size full|smoke] [--out PATH]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        workloads: Workload::ALL.to_vec(),
        seed: DEFAULT_SEED,
        seconds: f64::NAN,
        trace: false,
        sizes: Sizes::full(),
        out: None,
        child_scratch: None,
        child_trace: None,
        child_part: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value();
                args.workloads = match v.as_str() {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![Workload::parse(name)
                        .unwrap_or_else(|| usage_error(&format!("unknown workload {name}")))],
                };
            }
            "--seed" => {
                args.seed = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--seed needs an unsigned integer"))
            }
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && s.is_finite())
                    .unwrap_or_else(|| usage_error("--seconds needs a positive number"))
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage_error("--trace takes 0 or 1"),
                }
            }
            "--size" => {
                args.sizes = match value().as_str() {
                    "full" => Sizes::full(),
                    "smoke" => Sizes::smoke(),
                    _ => usage_error("--size takes full or smoke"),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value())),
            "--child-scratch" => args.child_scratch = Some(PathBuf::from(value())),
            "--child-trace" => args.child_trace = Some(PathBuf::from(value())),
            "--child-part" => {
                args.child_part = value()
                    .parse()
                    .unwrap_or_else(|_| usage_error("--child-part needs an index"))
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    if args.seconds.is_nan() {
        args.seconds = if args.sizes.label == "smoke" {
            1.0
        } else {
            30.0
        };
    }
    args
}

fn main() {
    let args = parse_args();
    if let Some(scratch) = &args.child_scratch {
        run_child(&args, scratch, args.child_part);
        return;
    }
    let ok = match run_parent(&args) {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("e2e: {e}");
            false
        }
    };
    std::process::exit(if ok { 0 } else { 1 });
}

/// The per-process scratch directory; dropping it (also while a panic
/// unwinds) removes it.
struct Scratch(PathBuf);

impl Scratch {
    fn create() -> std::io::Result<Scratch> {
        let dir = Path::new(".e2e_scratch").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Only succeeds once no other run's directory is left.
        let _ = std::fs::remove_dir(".e2e_scratch");
    }
}

fn write_trace(dir: &Path, args: &Args) -> Result<PathBuf, String> {
    let path = dir.join("trace.csv");
    let secs = args.sizes.trace_secs;
    let start = Instant::now();
    let file = std::fs::File::create(&path).map_err(|e| format!("create the trace: {e}"))?;
    let generated = generate_piecewise_csv(
        file,
        &trace_pieces(secs),
        SimTime::from_secs(secs),
        args.seed,
    )
    .map_err(|e| format!("write the trace: {e}"))?;
    println!(
        "trace: {} rows over {secs} s, generated in {:.2} s",
        generated.rows,
        start.elapsed().as_secs_f64()
    );
    Ok(path)
}

/// Runs each workload and prints its metrics and result line; returns
/// whether every workload ran and passed its checks.
fn run_parent(args: &Args) -> Result<bool, String> {
    let scratch = Scratch::create().map_err(|e| format!("create the scratch directory: {e}"))?;
    let mut reports = Vec::new();
    let mut ok = true;
    for &w in &args.workloads {
        let trace = match w {
            Workload::ReplayGrid => Some(write_trace(&scratch.0, args)?),
            _ => None,
        };
        let (passed, report) = run_workload(args, w, &scratch.0, trace.as_deref())?;
        ok &= passed;
        reports.push(report);
        if let Some(path) = trace {
            let _ = std::fs::remove_file(path);
        }
    }
    if let Some(out) = &args.out {
        std::fs::write(out, Json::arr(reports).to_string_pretty())
            .map_err(|e| format!("write {}: {e}", out.display()))?;
    }
    Ok(ok)
}

/// Runs one workload in fresh child processes, one after another, and
/// pools their samples. Untraced runs split the time over up to five
/// children: how fast a process runs depends on where its code and data
/// land in memory, so the pooled median also averages over processes.
/// A traced run is one child, since its budget compares the traced unit
/// with untraced units of the same process.
fn run_workload(
    args: &Args,
    w: Workload,
    scratch: &Path,
    trace: Option<&Path>,
) -> Result<(bool, Json), String> {
    let children = if args.trace {
        1
    } else {
        (args.seconds / 6.0).round().clamp(1.0, 5.0) as usize
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    println!(
        "{}: seed {}, size {}, {profile} profile, nproc {nproc}, threads {}, {} s over {children} process(es)",
        w.name(),
        args.seed,
        args.sizes.label,
        w.threads(nproc),
        args.seconds
    );
    let exe = std::env::current_exe().map_err(|e| format!("locate this executable: {e}"))?;
    let mut parts = Vec::new();
    for part in 0..children {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &(args.seconds / children as f64).to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--size", args.sizes.label])
            .args(["--child-part", &part.to_string()])
            .arg("--child-scratch")
            .arg(scratch);
        if let Some(path) = trace {
            cmd.arg("--child-trace").arg(path);
        }
        let status = cmd
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .status()
            .map_err(|e| format!("run a {} child: {e}", w.name()))?;
        if !status.success() {
            return Err(format!("a {} child failed: {status}", w.name()));
        }
        let path = part_path(scratch, w, part);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let _ = std::fs::remove_file(&path);
        parts.push(Json::parse(&text).map_err(|e| format!("parse a part: {e:?}"))?);
    }

    let mut checks = Checks::default();
    for part in &parts {
        checks.merge_json(part.get("checks").unwrap_or(&Json::Null));
        for line in part.get("lines").and_then(Json::as_array).unwrap_or(&[]) {
            println!("{}", line.as_str().unwrap_or_default());
        }
    }
    let pooled = |name: &str| -> Vec<f64> {
        let mut all = Vec::new();
        for part in &parts {
            let samples = part.get("samples").and_then(|s| s.get(name));
            all.extend(
                samples
                    .and_then(Json::as_array)
                    .unwrap_or(&[])
                    .iter()
                    .filter_map(Json::as_f64),
            );
        }
        all
    };
    let metrics = collect(if args.trace { PER_LAYER } else { END_TO_END }, pooled);
    for m in &metrics {
        println!("{}", m.line());
    }
    for failure in &checks.failures {
        println!("check failed: {failure}");
    }
    println!("{}", result_line(&checks, &metrics));

    let traced = parts[0].get("traced").cloned().unwrap_or(Json::Null);
    let report = Json::obj([
        ("workload", Json::from(w.name())),
        ("seed", Json::from(args.seed)),
        ("size", Json::from(args.sizes.label)),
        ("profile", Json::from(profile)),
        ("nproc", Json::from(nproc)),
        ("threads", Json::from(w.threads(nproc))),
        ("seconds", Json::from(args.seconds)),
        ("processes", Json::from(children)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| (m.def.name.to_string(), m.to_json()))
                    .collect(),
            ),
        ),
        ("checks", checks.to_json()),
        ("traced", traced),
    ]);
    Ok((checks.failures.is_empty(), report))
}

fn part_path(scratch: &Path, w: Workload, part: usize) -> PathBuf {
    scratch.join(format!("{}-{part}.json", w.name()))
}

/// One share of one workload in this process; writes its samples,
/// checks and (traced) budget to the scratch directory for the parent.
fn run_child(args: &Args, scratch: &Path, part: usize) {
    let workload = args.workloads[0];
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = workload.threads(nproc);
    // The campaigns run on the process-wide pool; fix its width first.
    vmprov_experiments::pool::configure_global_workers(threads);
    let ctx = Ctx {
        workload,
        seed: args.seed,
        sizes: args.sizes,
        threads,
        scratch: scratch.to_path_buf(),
        trace_path: args.child_trace.clone(),
    };
    let mut checks = Checks::default();
    // The untimed cache round trip runs in the first process only.
    let cache_check = part == 0;
    let mut lines = Vec::new();
    let (samples, traced) = if args.trace {
        // Half the time for untraced units (the reference the budget and
        // the trace overhead compare against), then the traced unit.
        let measured = measure(&ctx, args.seconds / 2.0, cache_check, &mut checks);
        let traced = traced::run(&ctx, &measured, &mut checks);
        lines = traced.lines;
        (traced.metrics, Some(traced.report))
    } else {
        let measured = measure(&ctx, args.seconds, cache_check, &mut checks);
        let rss_kb = vmprov_experiments::peak_rss_kb().expect("VmHWM from /proc/self/status");
        let walls: Vec<f64> = measured.units.iter().map(|u| u.wall_s).collect();
        lines.push(format!(
            "process {part}: {} units of {} offered requests, {:.2} ns/request (derived, not gated)",
            walls.len(),
            measured.offered(),
            report::median(&walls) * 1e9 / measured.offered().max(1) as f64
        ));
        let setups: Vec<f64> = measured.setups.iter().map(|t| t.wall_s).collect();
        let samples = vec![
            ("wall_s", walls),
            ("setup_s", setups),
            ("peak_rss_mb", vec![rss_kb as f64 / 1024.0]),
        ];
        (samples, None)
    };
    let part_json = Json::obj([
        (
            "samples",
            Json::Obj(
                samples
                    .into_iter()
                    .map(|(name, xs)| (name.to_string(), Json::arr(xs.into_iter().map(Json::from))))
                    .collect(),
            ),
        ),
        ("checks", checks.to_json()),
        ("lines", Json::arr(lines.into_iter().map(Json::from))),
        ("traced", traced.unwrap_or(Json::Null)),
    ]);
    std::fs::write(
        part_path(scratch, workload, part),
        part_json.to_string_compact(),
    )
    .expect("write the part report");
}
