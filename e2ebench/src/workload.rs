//! The three workloads: what one timed unit runs, its set-up, the loop
//! that times them, and the checks on their outputs.
//!
//! Every workload is a batch job from one process: a fixed job set per
//! unit, run to completion (a closed loop with no arrival schedule).

use std::path::{Path, PathBuf};
use std::time::Instant;

use vmprov_cloudsim::RunSummary;
use vmprov_des::SimTime;
use vmprov_experiments::{
    fig5_scenarios, fig6_scenarios, AnalyzerSpec, Campaign, ReplayGrid, RunCache, Scenario,
    StatsMode,
};
use vmprov_workloads::{TraceSpec, DEFAULT_CHUNK};

use crate::report::{digest, median, Checks};

/// The default `--seed`: the paper's conference date.
pub const DEFAULT_SEED: u64 = 20_110_926;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WebFig5,
    SciSweep,
    ReplayGrid,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::WebFig5, Workload::SciSweep, Workload::ReplayGrid];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WebFig5 => "web_fig5",
            Workload::SciSweep => "sci_sweep",
            Workload::ReplayGrid => "replay_grid",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads of a unit. The web set runs serially, so its unit
    /// measures the per-request path, not how six jobs pack onto two
    /// workers.
    pub fn threads(self, nproc: usize) -> usize {
        match self {
            Workload::WebFig5 => 1,
            Workload::SciSweep | Workload::ReplayGrid => nproc.clamp(1, 2),
        }
    }
}

/// Workload dimensions, shrunk by `--size smoke` so the whole benchmark
/// runs in seconds in a debug build.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub label: &'static str,
    /// Simulated seconds of each Fig 5 run, from Monday 00:00.
    pub web_horizon: f64,
    /// Replications of the six Fig 6 policies per unit.
    pub sci_reps: u32,
    /// Simulated seconds of the generated trace.
    pub trace_secs: f64,
    /// Fewest set-ups and fewest timed units per run.
    pub min_reps: usize,
    /// Scale of the traced run's isolated operation counts.
    pub iso_scale: f64,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            label: "full",
            web_horizon: 1800.0,
            sci_reps: 50,
            trace_secs: 3600.0,
            min_reps: 3,
            iso_scale: 1.0,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            label: "smoke",
            web_horizon: 120.0,
            sci_reps: 2,
            trace_secs: 60.0,
            min_reps: 2,
            iso_scale: 0.02,
        }
    }
}

/// The replayed trace's rate profile: 300 − 150·cos(2πt/T) req/s,
/// held for 5-minute steps. The steps deliberately do not align with the
/// 30-minute analyzer interval, so the MLE and EWMA estimators see
/// different histories and size differently.
pub fn trace_pieces(secs: f64) -> Vec<(f64, f64)> {
    const STEP: f64 = 300.0;
    let steps = (secs / STEP).ceil().max(1.0) as usize;
    (0..steps)
        .map(|i| {
            let t = i as f64 * STEP;
            (t, 300.0 - 150.0 * (std::f64::consts::TAU * t / secs).cos())
        })
        .collect()
}

/// Everything one workload process needs.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: Workload,
    pub seed: u64,
    pub sizes: Sizes,
    pub threads: usize,
    /// Per-process scratch directory (cache directories, isolated
    /// timings' files); removed by the parent.
    pub scratch: PathBuf,
    /// The generated trace (replay_grid only).
    pub trace_path: Option<PathBuf>,
}

impl Ctx {
    /// The scenarios of one unit, in job order (scenario-major).
    pub fn scenarios(&self) -> Vec<Scenario> {
        match self.workload {
            Workload::WebFig5 => {
                fig5_scenarios(self.seed, SimTime::from_secs(self.sizes.web_horizon))
            }
            Workload::SciSweep => fig6_scenarios(self.seed),
            Workload::ReplayGrid => panic!("replay cells come from the grid"),
        }
    }

    /// Replications per scenario in one unit.
    pub fn reps(&self) -> u32 {
        match self.workload {
            Workload::WebFig5 => 1,
            Workload::SciSweep => self.sizes.sci_reps,
            Workload::ReplayGrid => 2,
        }
    }

    pub fn grid(&self, spec: &TraceSpec) -> ReplayGrid {
        ReplayGrid {
            spec: spec.clone(),
            analyzers: ["oracle", "mle", "ewma"]
                .iter()
                .map(|a| AnalyzerSpec::parse(a).expect("known analyzer"))
                .collect(),
            reps: self.reps(),
            shards: None,
            fel: None,
            stats: StatsMode::Streaming,
            seed: self.seed,
            concurrency: Some(self.threads),
        }
    }
}

/// Wall and CPU seconds of one timed unit or set-up.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub wall_s: f64,
    /// CPU seconds the whole process used meanwhile (see
    /// [`cpu_seconds`]).
    pub cpu_s: f64,
}

/// Times `f` by the wall clock and by process CPU time.
fn timed<T>(f: impl FnOnce() -> T) -> (Timed, T) {
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    let out = f();
    let wall_s = start.elapsed().as_secs_f64();
    let t = Timed {
        wall_s,
        cpu_s: cpu_seconds() - cpu0,
    };
    (t, out)
}

/// Everything the untimed and timed phases of a run produced.
#[derive(Debug)]
pub struct Measured {
    pub setups: Vec<Timed>,
    pub units: Vec<Timed>,
    /// The first unit's summaries; later units only had to match them,
    /// so memory does not grow with the unit count.
    pub summaries: Vec<RunSummary>,
    /// The scanned trace (replay_grid only).
    pub spec: Option<TraceSpec>,
    /// Corrupt entries the warm cache pass met (sci_sweep only).
    pub corrupt_entries: usize,
}

impl Measured {
    /// Requests offered in one unit.
    pub fn offered(&self) -> u64 {
        self.summaries.iter().map(|s| s.offered_requests).sum()
    }
}

/// CPU seconds this process has used, all its threads included, exited
/// ones too (`CLOCK_PROCESS_CPUTIME_ID`, 64-bit Linux). The budget of a
/// two-thread unit reconciles against this, not against wall time.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Runs a Fig 5/6 policy set as one campaign; summaries come back
/// scenario-major, rep-minor.
fn campaign(scenarios: Vec<Scenario>, reps: u32, cache: Option<RunCache>) -> Vec<RunSummary> {
    let mut campaign = Campaign::new(cache);
    let handle = campaign.add_figure(scenarios, reps);
    let figure = campaign.run().take(handle);
    figure.into_iter().flat_map(|r| r.runs).collect()
}

fn scan(ctx: &Ctx) -> TraceSpec {
    let path = ctx
        .trace_path
        .as_deref()
        .expect("replay_grid runs with a generated trace");
    TraceSpec::scan(path, DEFAULT_CHUNK)
        .unwrap_or_else(|e| panic!("the generated trace does not scan: {e}"))
}

/// The fixed cost paid before results, timed once: for the campaigns,
/// the same unit at a 1-simulated-second horizon; for the grid, the
/// trace scan (which must reproduce `spec`).
fn setup_once(ctx: &Ctx, spec: Option<&TraceSpec>, checks: &mut Checks) -> Timed {
    match spec {
        None => {
            let short: Vec<Scenario> = ctx
                .scenarios()
                .into_iter()
                .map(|s| s.with_horizon(SimTime::from_secs(1.0)))
                .collect();
            timed(|| std::hint::black_box(campaign(short, ctx.reps(), None))).0
        }
        Some(spec) => {
            let (t, again) = timed(|| scan(ctx));
            checks.check(again == *spec, || {
                "two scans of one trace disagree".to_string()
            });
            t
        }
    }
}

fn run_unit(ctx: &Ctx, spec: Option<&TraceSpec>) -> (Timed, Vec<RunSummary>) {
    timed(|| match ctx.workload {
        Workload::WebFig5 | Workload::SciSweep => campaign(ctx.scenarios(), ctx.reps(), None),
        Workload::ReplayGrid => {
            let out = ctx.grid(spec.expect("scanned trace")).run(None);
            out.cells.into_iter().map(|c| c.summary).collect()
        }
    })
}

/// Runs timed units for fourteen fifteenths of `budget_s` (at least
/// `min_reps` of them, stopping before one would overrun), checking
/// every unit's outputs, then times set-ups for the rest (at least
/// `min_reps`, at most 100). Set-ups come last so that they, like the
/// units, are timed in a warm process.
///
/// Units are short and many: the machine's slow spells last a second or
/// more and cover a varying share of a run, and the median of many short
/// units rejects them where the median of a few long ones does not.
pub fn measure(ctx: &Ctx, budget_s: f64, cache_check: bool, checks: &mut Checks) -> Measured {
    let start = Instant::now();
    let spec = ctx.trace_path.as_ref().map(|_| scan(ctx));
    let elapsed = || start.elapsed().as_secs_f64();

    let mut units: Vec<Timed> = Vec::new();
    let mut first: Vec<RunSummary> = Vec::new();
    loop {
        if units.len() >= ctx.sizes.min_reps {
            let typical = median(&units.iter().map(|u| u.wall_s).collect::<Vec<_>>());
            if elapsed() + typical > budget_s * 14.0 / 15.0 || units.len() >= 400 {
                break;
            }
        }
        let (unit, summaries) = run_unit(ctx, spec.as_ref());
        check_unit(ctx, spec.as_ref(), &summaries, &first, checks);
        if units.is_empty() {
            first = summaries;
        }
        units.push(unit);
    }

    let mut setups = Vec::new();
    while setups.len() < ctx.sizes.min_reps || (setups.len() < 100 && elapsed() < budget_s) {
        setups.push(setup_once(ctx, spec.as_ref(), checks));
    }

    let corrupt_entries = match ctx.workload {
        Workload::SciSweep if cache_check => cache_round_trip(ctx, &first, checks),
        _ => 0,
    };
    Measured {
        setups,
        units,
        summaries: first,
        spec,
        corrupt_entries,
    }
}

/// Conservation on every summary, equality with the first unit (when
/// this is a repeat) and, for replays, the whole trace offered per cell.
fn check_unit(
    ctx: &Ctx,
    spec: Option<&TraceSpec>,
    summaries: &[RunSummary],
    first: &[RunSummary],
    checks: &mut Checks,
) {
    checks.conservation(summaries);
    if !first.is_empty() {
        checks.check(digest(summaries) == digest(first), || {
            format!("{}: summaries differ between repeats", ctx.workload.name())
        });
    }
    if let Some(spec) = spec {
        for s in summaries {
            checks.check(s.offered_requests == spec.total_requests, || {
                format!(
                    "replay cell offered {} of the trace's {} requests",
                    s.offered_requests, spec.total_requests
                )
            });
        }
    }
}

/// The run cache, untimed: a cold pass into a fresh directory must
/// reproduce the timed summaries, then a warm pass must hit every job,
/// meet no corrupt entry and answer the cold summaries. Returns the
/// corrupt-entry count. The timed units run uncached: on shared disks
/// the entry writes swing a unit by a quarter from one minute to the
/// next, so the cache's own costs are per-layer metrics instead.
fn cache_round_trip(ctx: &Ctx, timed: &[RunSummary], checks: &mut Checks) -> usize {
    let dir = ctx.scratch.join("cache");
    let open = || Some(RunCache::open(&dir).expect("create the cache directory"));
    let cold = campaign(ctx.scenarios(), ctx.reps(), open());
    checks.check(cold == timed, || {
        "cached summaries differ from the uncached ones".to_string()
    });
    let mut warm = Campaign::new(open());
    let handle = warm.add_figure(ctx.scenarios(), ctx.reps());
    let mut result = warm.run();
    let answers: Vec<RunSummary> = result
        .take(handle)
        .into_iter()
        .flat_map(|r| r.runs)
        .collect();
    let stats = result.stats;
    checks.check(stats.cache_hits == stats.jobs, || {
        format!("warm pass hit {} of {} jobs", stats.cache_hits, stats.jobs)
    });
    checks.check(stats.corrupt_entries == 0, || {
        format!("warm pass met {} corrupt entries", stats.corrupt_entries)
    });
    checks.check(answers == cold, || {
        "warm summaries differ from the cold ones".to_string()
    });
    remove_dir(&dir);
    stats.corrupt_entries
}

pub fn remove_dir(dir: &Path) {
    // Best effort: a leftover directory is removed with the scratch root.
    let _ = std::fs::remove_dir_all(dir);
}
