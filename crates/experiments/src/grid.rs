//! Shared-scan replay grids: one trace decode fanned out across an
//! analyzer × replication matrix.
//!
//! `repro replay` executes one `(trace, analyzer, rep)` cell per
//! invocation, so comparing the three analyzers over N replications
//! re-reads and re-parses the trace once per cell. A [`ReplayGrid`]
//! instead runs the whole matrix off **one** scan: cache-first per cell
//! (the keys are exactly the single-run keys: content hash, scenario
//! and rep), then every arrival group of misses replays a stepped
//! consumer of one [`SharedTraceScan`] ([`TraceSpec::replay_stepped`]),
//! which opens and decodes the trace exactly once and hands out
//! ref-counted chunks.
//!
//! Execution: one [`WorkerPool::run_batch_started`] of `W` shares, one
//! per worker thread (the caller's thread is one of them), each of
//! ⌈misses / W⌉ cells taken rep-major; `W` is
//! [`ReplayGrid::concurrency`], else [`pool::default_workers`], capped
//! by the misses and [`MAX_WAVE`]. The scan's lockstep counts only the
//! shares whose thread started. A share's cells of one rep (they
//! replay identical arrivals) form one [`RunGroup`], built as a
//! campaign job is and reading one consumer of the scan. A worker
//! advances each of its groups through every event before the scan's
//! bound — the timestamp of the row `lookahead` rows behind the last
//! published one, where `lookahead` covers the rows one expansion of a
//! group's arrival stream may pull. So a group's pulls never outrun the
//! decoded rows, and no run ever blocks inside its simulation. Once all
//! of a worker's groups are parked at the bound, it publishes the next
//! chunk, or waits for the other workers' groups while the window holds
//! [`SCAN_DEPTH`](vmprov_workloads::SCAN_DEPTH) chunks — unless every
//! worker is parked, in which case the window grows past the depth
//! rather than deadlock (see [`SharedTraceScan::publish_past`]). Runs
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
use crate::runner::start_group;
use crate::scenario::{AnalyzerSpec, ArrivalKey, PolicySpec, Scenario};
use std::convert::Infallible;
use vmprov_cloudsim::{ArrivalStream, RunGroup, RunSummary};
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
            .clamp(1, MAX_WAVE);
        let (scan, shares) = self.stepped_shares(misses, workers);
        let threads = shares.len();
        let finished = step_shares(&scan, shares, WorkerPool::new(threads));
        (scan.stats(), finished)
    }

    /// Opens one stepped scan over `misses` and splits them, rep-major,
    /// into shares of ⌈misses / workers⌉ cells, one per stepping worker;
    /// a share's cells that share their arrivals form one group, which
    /// reads one consumer of the scan.
    fn stepped_shares(
        &self,
        mut misses: Vec<(usize, Scenario, u32)>,
        workers: usize,
    ) -> (SharedTraceScan, Vec<Vec<SteppedGroup>>) {
        misses.sort_by_key(|&(slot, _, rep)| (rep, slot));
        let per_worker = misses.len().div_ceil(workers.min(misses.len()));
        // Groups expand stream runs only before the bound, so the
        // deepest pull sets how far the scan must publish ahead of it.
        let run = misses
            .iter()
            .map(|(_, s, _)| s.sim_config().arrival_run)
            .max()
            .expect("misses is not empty");
        let mut shares: Vec<Vec<SteppedGroup>> = Vec::new();
        for (i, (slot, scenario, rep)) in misses.into_iter().enumerate() {
            if i % per_worker == 0 {
                shares.push(Vec::new());
            }
            let share = shares.last_mut().expect("pushed above");
            let key = scenario.arrival_key(rep);
            match share.last_mut() {
                Some(group) if group.key == key => {
                    group.slots.push(slot);
                    group.cells.push((scenario, rep));
                }
                _ => share.push(SteppedGroup {
                    key,
                    slots: vec![slot],
                    cells: vec![(scenario, rep)],
                    replay: None,
                    run: None,
                }),
            }
        }
        // One consumer per group, and one worker per share: rounding
        // the share up can leave fewer shares than `workers`.
        let groups = shares.iter().map(Vec::len).sum();
        let (scan, replays) = self
            .spec
            .replay_stepped(groups, shares.len(), ArrivalStream::rows_ahead(run))
            .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
        for (group, replay) in shares.iter_mut().flatten().zip(replays) {
            group.replay = Some(replay);
        }
        (scan, shares)
    }
}

/// Steps every share on its own thread of `pool`. The scan's lockstep
/// counts a worker per share, so the shares whose thread did not start
/// are retired from it before the caller's share runs: the pool runs
/// them only after another share returns, and a share waiting for them
/// would wait forever.
fn step_shares(
    scan: &SharedTraceScan,
    shares: Vec<Vec<SteppedGroup>>,
    pool: WorkerPool,
) -> Vec<(usize, RunSummary)> {
    let n = shares.len();
    let started = |threads: usize| {
        for _ in threads..n {
            scan.retire_worker();
        }
    };
    pool.run_batch_started(shares, started, |_, share| step_groups(scan, share))
        .into_iter()
        .flatten()
        .collect()
}

/// The grid misses of one rep on one worker, which share their
/// arrivals: built as one [`RunGroup`] once the scan's reach lets its
/// first pull through, then stepped to the end.
struct SteppedGroup {
    key: ArrivalKey,
    slots: Vec<usize>,
    cells: Vec<(Scenario, u32)>,
    replay: Option<StreamReplay>,
    run: Option<RunGroup>,
}

impl SteppedGroup {
    fn run(&mut self) -> &mut RunGroup {
        if self.run.is_none() {
            let replay = self.replay.take().expect("a group starts once");
            self.run = Some(start_group(&self.cells, replay, None));
        }
        self.run.as_mut().expect("started above")
    }

    fn finish(mut self) -> Vec<(usize, RunSummary)> {
        self.run();
        let run = self.run.take().expect("started above");
        self.slots
            .into_iter()
            .zip(run.finish(None))
            .map(|(slot, (summary, _))| (slot, summary))
            .collect()
    }
}

/// A worker's loop: advance every group through the events the scan's
/// reach allows, then publish (or wait for) the next chunk, until the
/// whole trace is out; then finish the groups one by one.
fn step_groups(scan: &SharedTraceScan, mut groups: Vec<SteppedGroup>) -> Vec<(usize, RunSummary)> {
    /// Retires the worker however it stops, so a panicking group cannot
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
                for group in &mut groups {
                    group.run().advance_before(bound);
                }
            }
            StepBound::End => break,
        }
        reach = scan
            .publish_past(reach)
            .unwrap_or_else(|e| panic!("trace changed after scan: {e}"));
    }
    groups.into_iter().flat_map(SteppedGroup::finish).collect()
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
    use std::sync::mpsc::RecvTimeoutError;

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

    /// Every cell of `grid` as a miss, in the grid's slot order.
    fn every_cell(grid: &ReplayGrid) -> Vec<(usize, Scenario, u32)> {
        grid.analyzers
            .iter()
            .flat_map(|&a| (0..grid.reps).map(move |rep| (a, rep)))
            .enumerate()
            .map(|(slot, (a, rep))| (slot, grid.cell_scenario(a), rep))
            .collect()
    }

    #[test]
    fn the_analyzers_of_a_rep_step_as_one_group() {
        let dir = std::env::temp_dir().join(format!("vmprov_grid_layout_{}", std::process::id()));
        let spec = tiny_trace(&dir);
        let analyzers = ["oracle", "mle", "ewma"].map(|a| AnalyzerSpec::parse(a).unwrap());
        // Cells per group, per share, on two workers.
        let layout = |reps| {
            let grid = ReplayGrid::new(spec.clone(), analyzers.to_vec(), reps, 5);
            let (scan, shares) = grid.stepped_shares(every_cell(&grid), 2);
            for group in shares.iter().flatten() {
                let rep = group.cells[0].1;
                assert!(
                    group.cells.iter().all(|&(_, r)| r == rep),
                    "a group mixes reps"
                );
            }
            let groups: Vec<Vec<usize>> = shares
                .iter()
                .map(|share| share.iter().map(|group| group.cells.len()).collect())
                .collect();
            let n_groups = groups.iter().map(Vec::len).sum::<usize>();
            assert_eq!(scan.stats().consumers, n_groups, "one consumer per group");
            groups
        };
        assert_eq!(layout(2), [vec![3], vec![3]]);
        // 15 cells cut 8 + 7: rep 2 straddles the shares.
        assert_eq!(layout(5), [vec![3, 3, 2], vec![1, 3, 3]]);
        let _ = std::fs::remove_dir_all(&dir);
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
    fn a_stepped_grid_finishes_on_one_thread() {
        // A two-worker grid whose second thread did not start: one
        // thread steps both shares, the second only after the first
        // returns, and must not wait for it meanwhile.
        let dir = std::env::temp_dir().join(format!("vmprov_grid_one_{}", std::process::id()));
        let grid = ReplayGrid {
            concurrency: Some(2),
            ..ReplayGrid::new(
                tiny_trace(&dir),
                vec![AnalyzerSpec::Oracle, AnalyzerSpec::parse("ewma").unwrap()],
                2,
                77,
            )
        };
        let two_threads = grid.run(None);
        let misses = every_cell(&grid);
        let (tx, rx) = std::sync::mpsc::channel();
        let stepping = std::thread::spawn(move || {
            let (scan, shares) = grid.stepped_shares(misses, 2);
            assert_eq!(shares.len(), 2);
            let mut finished = step_shares(&scan, shares, WorkerPool::new(1));
            finished.sort_by_key(|&(slot, _)| slot);
            let _ = tx.send(finished);
        });
        let one_thread = match rx.recv_timeout(Duration::from_secs(120)) {
            Ok(finished) => finished,
            Err(RecvTimeoutError::Timeout) => panic!("one thread stepping both shares hung"),
            Err(RecvTimeoutError::Disconnected) => {
                std::panic::resume_unwind(stepping.join().expect_err("it panicked, not sending"))
            }
        };
        stepping
            .join()
            .expect("the stepping thread sent and returned");
        let summaries: Vec<_> = one_thread.into_iter().map(|(_, s)| s).collect();
        let expected: Vec<_> = two_threads.cells.into_iter().map(|c| c.summary).collect();
        assert_eq!(summaries, expected);
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
