//! Shared-scan replay grids: one trace decode fanned out across an
//! analyzer × replication matrix.
//!
//! `repro replay` executes one `(trace, analyzer, rep)` cell per
//! invocation, so comparing the three analyzers over N replications
//! re-reads and re-parses the trace once per cell. A [`ReplayGrid`]
//! instead runs the whole matrix off **one** scan: cache-first per cell
//! (the keys are exactly the single-run keys: content hash, scenario
//! and rep), then every miss replays a stepped consumer of one
//! [`SharedTraceScan`] ([`TraceSpec::replay_stepped`]), which opens and
//! decodes the trace exactly once and hands out ref-counted chunks.
//!
//! Execution: one [`WorkerPool::run_batch`] of `W` shares, one per
//! worker thread (the caller's thread is one of them), each of
//! ⌈misses / W⌉ cells; `W` is [`ReplayGrid::concurrency`], else
//! [`pool::default_workers`], capped by the misses and [`MAX_WAVE`].
//! A worker builds and advances each of its cells as a [`RunGroup`] of
//! one through every event before the scan's bound — the timestamp of
//! the row `lookahead` rows behind the last published one, where
//! `lookahead` covers the rows one expansion of the cell's arrival
//! stream may pull. So a cell's pulls never outrun the decoded rows,
//! and no cell ever blocks inside its simulation. Once all of a
//! worker's cells are parked at the bound, it publishes the next chunk,
//! or waits for the other workers' cells while the window holds
//! [`SCAN_DEPTH`](vmprov_workloads::SCAN_DEPTH) chunks — unless every
//! worker is parked, in which case the window grows past the depth
//! rather than deadlock (see [`SharedTraceScan::publish_past`]). Cells
//! pause without moving their clocks, so a stepped cell computes what
//! an unpaused run does.
//!
//! Invariants:
//! * **Byte identity** — every cell's [`RunSummary`] is bit-identical
//!   to the single-run path (`replay_once` on the same scenario/rep):
//!   the decoded batches are the same, only I/O and parse work is
//!   amortized. Pinned by the shared-vs-independent grid tests across
//!   chunk sizes, worker counts and analyzers.
//! * **One decode** — `scan_waves` and `trace_file_opens` are 1 and
//!   `batches_decoded` is the trace's batch count whenever anything
//!   missed the cache, whatever the worker count.
//! * **RSS** — per-cell `peak_rss_kb` is meaningless once cells share
//!   the process, so the grid reports one process-wide peak in
//!   [`GridStats`] and per-cell reports carry none.

use std::time::{Duration, Instant};

use crate::cache::{cache_first, RunCache};
use crate::pool::{self, WorkerPool};
use crate::replay::{peak_rss_kb, qos_verdict, ReplaySource};
use crate::runner::start_with;
use crate::scenario::{AnalyzerSpec, PolicySpec, Scenario};
use std::convert::Infallible;
use vmprov_cloudsim::{RunGroup, RunSummary};
use vmprov_des::FelBackend;
use vmprov_json::{Json, ToJson};
use vmprov_workloads::{ScanStats, SharedTraceScan, StepBound, StreamReplay, TraceSpec};

/// The per-request stats sink. Streaming (fold every completion as it
/// arrives) is the only one left; the enum survives as the type of
/// [`ReplayGrid::stats`], which external callers still name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StatsMode {
    /// Fold every sample into the accumulators as it arrives.
    #[default]
    Streaming,
}

/// Hard cap on a grid's worker threads. Callers that plan their own
/// waves over [`TraceSpec::replay_shared`] (one thread per consumer)
/// use it as their wave width.
pub const MAX_WAVE: usize = 64;

/// An analyzer × replication replay matrix over one scanned trace.
#[derive(Debug, Clone)]
pub struct ReplayGrid {
    /// The scanned trace every cell replays.
    pub spec: TraceSpec,
    /// Analyzer axis (one column of cells each).
    pub analyzers: Vec<AnalyzerSpec>,
    /// Replications per analyzer.
    pub reps: u32,
    /// Compatibility field left by the removed intra-run shard engine:
    /// `None` is its only value.
    pub shards: Option<Infallible>,
    /// Compatibility field left by the removed binary-heap event list:
    /// [`FelBackend`] has one value, so every setting runs the same.
    pub fel: Option<FelBackend>,
    /// Per-request stats sink (always [`StatsMode::Streaming`]).
    pub stats: StatsMode,
    /// Base seed (per-rep seeds derive exactly as in the single path).
    pub seed: u64,
    /// Worker threads stepping the cells; `None` = the campaigns' width
    /// ([`pool::default_workers`]). Never more than one per miss, nor
    /// more than [`MAX_WAVE`].
    pub concurrency: Option<usize>,
}

/// One executed grid cell.
#[derive(Debug, Clone)]
pub struct GridCell {
    /// The cell's analyzer.
    pub analyzer: AnalyzerSpec,
    /// The cell's replication index.
    pub rep: u32,
    /// The run summary — byte-identical to the single-run path.
    pub summary: RunSummary,
    /// Whether the cell was computed or answered from the cache.
    pub source: ReplaySource,
}

/// Execution counters of one grid run.
#[derive(Debug, Clone)]
pub struct GridStats {
    /// Total cells (analyzers × reps).
    pub cells: usize,
    /// Cells answered from the run cache.
    pub cache_hits: usize,
    /// Cells computed (fresh or rotten entry).
    pub cache_misses: usize,
    /// Cache entries that existed but were unreadable.
    pub corrupt_entries: usize,
    /// Shared scans executed: 1 when any cell missed the cache, else 0.
    pub scan_waves: usize,
    /// Batches decoded by the scan — the trace's batch count when
    /// anything ran, i.e. the trace was decoded once.
    pub batches_decoded: u64,
    /// Trace file opens by the scan (the exactly-once probe: equals
    /// `scan_waves`, never the cell count).
    pub trace_file_opens: u64,
    /// High-water mark of the shared chunk window (see
    /// [`vmprov_workloads::SCAN_DEPTH`] for when it may exceed the
    /// depth).
    pub max_window: usize,
    /// Process-wide peak RSS after the grid ran — the *only* RSS figure
    /// a pooled grid can honestly report (per-cell values would all
    /// read the same process-wide high-water mark).
    pub peak_rss_kb: Option<u64>,
    /// Wall-clock time of [`ReplayGrid::run`].
    pub wall: Duration,
}

impl ToJson for GridStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cells", Json::from(self.cells)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("corrupt_entries", Json::from(self.corrupt_entries)),
            ("scan_waves", Json::from(self.scan_waves)),
            ("batches_decoded", Json::from(self.batches_decoded)),
            ("trace_file_opens", Json::from(self.trace_file_opens)),
            ("max_window", Json::from(self.max_window)),
            (
                "peak_rss_kb",
                match self.peak_rss_kb {
                    Some(kb) => Json::from(kb),
                    None => Json::Null,
                },
            ),
            ("wall_secs", Json::from(self.wall.as_secs_f64())),
        ])
    }
}

/// A completed grid: cells analyzer-major, rep-minor, plus counters.
#[derive(Debug)]
pub struct GridOutcome {
    /// Every cell, in (analyzer, rep) order.
    pub cells: Vec<GridCell>,
    /// Execution counters.
    pub stats: GridStats,
}

impl GridOutcome {
    /// The cells of one analyzer, in rep order.
    pub fn column(&self, analyzer: AnalyzerSpec) -> Vec<&GridCell> {
        self.cells
            .iter()
            .filter(|c| c.analyzer == analyzer)
            .collect()
    }
}

impl ReplayGrid {
    /// A grid over `spec` at the default width.
    pub fn new(spec: TraceSpec, analyzers: Vec<AnalyzerSpec>, reps: u32, seed: u64) -> Self {
        ReplayGrid {
            spec,
            analyzers,
            reps,
            shards: None,
            fel: None,
            stats: StatsMode::Streaming,
            seed,
            concurrency: None,
        }
    }

    /// The scenario of one analyzer column — **identical** to what the
    /// single-run `repro replay` path builds, so cache keys (and hence
    /// warm-grid hits against single-run entries) line up exactly.
    pub fn cell_scenario(&self, analyzer: AnalyzerSpec) -> Scenario {
        Scenario::trace_replay(self.spec.clone(), PolicySpec::Adaptive, self.seed)
            .with_analyzer(analyzer)
    }

    /// Executes the grid: cache-first per cell, then every miss off one
    /// stepped scan.
    pub fn run(&self, cache: Option<&RunCache>) -> GridOutcome {
        assert!(!self.analyzers.is_empty(), "a grid needs ≥ 1 analyzer");
        assert!(self.reps >= 1, "a grid needs ≥ 1 replication");
        let start = Instant::now();
        // Analyzer-major / rep-minor: the output layout.
        let runs: Vec<(Scenario, u32)> = self
            .analyzers
            .iter()
            .flat_map(|&analyzer| {
                let scenario = self.cell_scenario(analyzer);
                (0..self.reps).map(move |rep| (scenario.clone(), rep))
            })
            .collect();
        let n_cells = runs.len();
        let mut scan = None;
        let pass = cache_first(cache, runs, |misses| {
            let (stats, finished) = self.run_misses(misses);
            scan = Some(stats);
            finished
        });

        let cells = self
            .analyzers
            .iter()
            .flat_map(|&analyzer| (0..self.reps).map(move |rep| (analyzer, rep)))
            .zip(pass.runs)
            .map(|((analyzer, rep), (summary, hit))| GridCell {
                analyzer,
                rep,
                summary,
                source: ReplaySource::of(cache.is_some(), hit),
            })
            .collect();
        GridOutcome {
            cells,
            stats: GridStats {
                cells: n_cells,
                cache_hits: pass.hits,
                cache_misses: n_cells - pass.hits,
                corrupt_entries: pass.corrupt,
                scan_waves: usize::from(scan.is_some()),
                batches_decoded: scan.map_or(0, |s| s.batches_decoded),
                trace_file_opens: scan.map_or(0, |s| s.file_opens),
                max_window: scan.map_or(0, |s| s.max_window),
                peak_rss_kb: peak_rss_kb(),
                wall: start.elapsed(),
            },
        }
    }

    /// Runs every miss off one stepped scan, one share of the cells per
    /// worker thread; the caller's thread is the first worker.
    fn run_misses(
        &self,
        misses: Vec<(usize, Scenario, u32)>,
    ) -> (ScanStats, Vec<(usize, RunSummary)>) {
        let workers = self
            .concurrency
            .unwrap_or_else(pool::default_workers)
            .clamp(1, MAX_WAVE)
            .min(misses.len());
        let per_worker = misses.len().div_ceil(workers);
        // Rounding the share up can leave fewer threads than `workers`.
        let threads = misses.len().div_ceil(per_worker);
        // Expanding the stream run released at row i (only done
        // before the bound) holds the pulled rows up to i + run − 1 and
        // pulls up to `run` more.
        let run = misses
            .iter()
            .map(|(_, s, _)| s.sim_config().arrival_run.max(1) as usize)
            .max()
            .expect("misses is not empty");
        let (scan, replays) = self
            .spec
            .replay_stepped(misses.len(), threads, 2 * run - 1)
            .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
        let mut groups: Vec<Vec<SteppedCell>> = Vec::with_capacity(threads);
        for (i, ((slot, scenario, rep), replay)) in misses.into_iter().zip(replays).enumerate() {
            if i % per_worker == 0 {
                groups.push(Vec::with_capacity(per_worker));
            }
            groups.last_mut().expect("pushed above").push(SteppedCell {
                slot,
                scenario,
                rep,
                replay: Some(replay),
                run: None,
            });
        }
        // One group per thread: every worker steps its own share, so
        // the scan's lockstep counts each of them.
        let finished =
            WorkerPool::new(threads).run_batch(groups, |_, group| step_cells(&scan, group));
        (scan.stats(), finished.into_iter().flatten().collect())
    }
}

/// One grid miss on its worker: built once the scan's reach lets its
/// first pull through, then stepped to the end.
struct SteppedCell {
    slot: usize,
    scenario: Scenario,
    rep: u32,
    replay: Option<StreamReplay>,
    run: Option<RunGroup>,
}

impl SteppedCell {
    fn run(&mut self) -> &mut RunGroup {
        let Self {
            scenario,
            rep,
            replay,
            run,
            ..
        } = self;
        run.get_or_insert_with(|| {
            let replay = replay.take().expect("a cell starts once");
            start_with(scenario, *rep, replay.into())
        })
    }

    fn finish(mut self) -> (usize, RunSummary) {
        self.run();
        let run = self.run.take().expect("started above");
        let (summary, _) = run.finish(None).pop().expect("a cell is a group of one");
        (self.slot, summary)
    }
}

/// A worker's loop: advance every cell through the events the scan's
/// reach allows, then publish (or wait for) the next chunk, until the
/// whole trace is out; then finish the cells one by one.
fn step_cells(scan: &SharedTraceScan, mut cells: Vec<SteppedCell>) -> Vec<(usize, RunSummary)> {
    /// Retires the worker however it stops, so a panicking cell cannot
    /// leave the other workers waiting for it.
    struct Retire<'a>(&'a SharedTraceScan);
    impl Drop for Retire<'_> {
        fn drop(&mut self) {
            self.0.retire_worker();
        }
    }
    let _retire = Retire(scan);
    let mut reach = scan.reach();
    loop {
        match reach.bound {
            StepBound::Nothing => {}
            StepBound::Before(bound) => {
                for cell in &mut cells {
                    cell.run().advance_before(bound);
                }
            }
            StepBound::End => break,
        }
        reach = scan
            .publish_past(reach)
            .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
    }
    cells.into_iter().map(SteppedCell::finish).collect()
}

/// The cross-analyzer QoS comparison table: one row per analyzer,
/// aggregated over its replications.
pub fn grid_table(title: &str, grid: &GridOutcome, analyzers: &[AnalyzerSpec]) -> String {
    let mut out = format!(
        "{title}\n{:<10} {:>4} {:>15} {:>10} {:>10} {:>6} {:>14}\n",
        "analyzer", "reps", "mean resp (s)", "rejected", "qos viol", "lost", "verdicts"
    );
    for &analyzer in analyzers {
        let col = grid.column(analyzer);
        if col.is_empty() {
            continue;
        }
        let n = col.len() as f64;
        let mean_resp: f64 = col
            .iter()
            .map(|c| c.summary.mean_response_time)
            .sum::<f64>()
            / n;
        let rejected: u64 = col.iter().map(|c| c.summary.rejected_requests).sum();
        let viol: u64 = col.iter().map(|c| c.summary.qos_violations).sum();
        let lost: u64 = col
            .iter()
            .map(|c| c.summary.requests_lost_to_failures)
            .sum();
        let met = col
            .iter()
            .filter(|c| qos_verdict(&c.summary).all_met())
            .count();
        out.push_str(&format!(
            "{:<10} {:>4} {:>15.4} {:>10} {:>10} {:>6} {:>10}/{:<3}\n",
            analyzer.label(),
            col.len(),
            mean_resp,
            rejected,
            viol,
            lost,
            met,
            col.len(),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once;

    fn tiny_trace(dir: &std::path::Path) -> TraceSpec {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join("grid.csv");
        let file = std::fs::File::create(&path).unwrap();
        vmprov_workloads::generate_poisson_csv(
            file,
            40.0,
            vmprov_des::SimTime::from_secs(400.0),
            9,
        )
        .unwrap();
        TraceSpec::scan(&path, 256).unwrap()
    }

    #[test]
    fn grid_cells_match_single_runs_bit_for_bit() {
        let dir = std::env::temp_dir().join(format!("vmprov_grid_unit_{}", std::process::id()));
        let spec = tiny_trace(&dir);
        let grid = ReplayGrid::new(
            spec,
            vec![AnalyzerSpec::Oracle, AnalyzerSpec::parse("mle").unwrap()],
            2,
            123,
        );
        let out = grid.run(None);
        assert_eq!(out.stats.cells, 4);
        assert_eq!(out.stats.scan_waves, 1, "4 cells fit one wave");
        assert_eq!(out.stats.trace_file_opens, 1, "one scan, one open");
        for cell in &out.cells {
            let scenario = grid.cell_scenario(cell.analyzer);
            assert_eq!(
                cell.summary,
                run_once(&scenario, cell.rep),
                "{} rep {} diverged from the single-run path",
                cell.analyzer.label(),
                cell.rep
            );
            assert_eq!(cell.source, ReplaySource::Uncached);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn grid_stats_json_shape() {
        let stats = GridStats {
            cells: 6,
            cache_hits: 2,
            cache_misses: 4,
            corrupt_entries: 0,
            scan_waves: 1,
            batches_decoded: 100,
            trace_file_opens: 1,
            max_window: 3,
            peak_rss_kb: Some(4096),
            wall: Duration::from_millis(250),
        };
        let j = stats.to_json();
        assert_eq!(j.get("cells").unwrap().as_u64(), Some(6));
        assert_eq!(j.get("trace_file_opens").unwrap().as_u64(), Some(1));
        assert_eq!(j.get("peak_rss_kb").unwrap().as_u64(), Some(4096));
        assert_eq!(j.get("wall_secs").unwrap().as_f64(), Some(0.25));
    }
}
