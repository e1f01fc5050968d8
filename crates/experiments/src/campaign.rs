//! Cross-figure batched execution: one job queue for a whole repro
//! invocation.
//!
//! Running each figure as its own batch would put a barrier at every
//! figure boundary — cores idle while the last replication of figure N
//! finishes, then the workers refill for figure N+1. A [`Campaign`]
//! instead collects the `(scenario, rep)` runs of *all* figures first,
//! consults the [`RunCache`] (when one is attached), runs every miss
//! in a single [`WorkerPool::run_batch`], and only then regroups
//! results per figure. The batch is [`pool::default_workers`] wide,
//! read when the campaign runs.
//!
//! Misses are grouped by [`Scenario::arrival_key`]: the policies of one
//! replication of a figure set see identical arrivals, so each group is
//! one job that expands the arrivals once and steps its runs off that
//! one read-only stream (see [`run_group_warm`]). On several workers,
//! the largest groups are halved until there are two jobs per worker,
//! so a one-rep figure still spreads over the workers; a serial
//! campaign never splits.
//!
//! Correctness does not depend on scheduling or grouping: each run
//! derives its RNG streams from its own `(scenario, rep)` pair, and the
//! only thing the runs of a group share is the arrival stream they
//! would each have drawn, so any execution order yields bit-identical
//! summaries (see DESIGN.md §8). Runs are laid out figure-major,
//! scenario-major, rep-minor, which makes regrouping a single linear
//! chunking pass.

use std::time::Duration;

use crate::cache::{cache_first, RunCache};
use crate::pool::{self, WorkerPool};
use crate::runner::{run_group_warm, Replicated};
use crate::scenario::{ArrivalKey, Scenario};
use std::collections::HashMap;
use vmprov_json::{Json, ToJson};

/// Identifies one figure's slice of a [`CampaignResult`].
#[derive(Debug, Clone, Copy)]
pub struct FigureHandle(usize);

/// Execution counters for one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignStats {
    /// Total `(scenario, rep)` jobs across all figures.
    pub jobs: usize,
    /// Jobs answered from the cache.
    pub cache_hits: usize,
    /// Jobs absent from the cache (simulated).
    pub cache_misses: usize,
    /// Cache entries that existed but were unreadable (recomputed and
    /// overwritten; a subset of `cache_misses` is **not** — corrupt
    /// entries are counted here *and* as misses for hit-rate purposes).
    pub corrupt_entries: usize,
    /// Wall-clock time of [`Campaign::run`].
    pub wall: Duration,
}

impl CampaignStats {
    /// Hit fraction in `[0, 1]` (1.0 for an empty campaign).
    pub fn hit_rate(&self) -> f64 {
        if self.jobs == 0 {
            1.0
        } else {
            self.cache_hits as f64 / self.jobs as f64
        }
    }
}

impl ToJson for CampaignStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("jobs", Json::from(self.jobs)),
            ("cache_hits", Json::from(self.cache_hits)),
            ("cache_misses", Json::from(self.cache_misses)),
            ("corrupt_entries", Json::from(self.corrupt_entries)),
            ("hit_rate", Json::from(self.hit_rate())),
            ("wall_secs", Json::from(self.wall.as_secs_f64())),
        ])
    }
}

/// Results of a completed campaign, per figure.
#[derive(Debug)]
pub struct CampaignResult {
    figures: Vec<Option<Vec<Replicated>>>,
    /// Execution counters (jobs, hits, wall-clock).
    pub stats: CampaignStats,
}

impl CampaignResult {
    /// Takes the named figure's aggregated replications (panics if taken
    /// twice or if the handle is from another campaign).
    pub fn take(&mut self, handle: FigureHandle) -> Vec<Replicated> {
        self.figures[handle.0]
            .take()
            .expect("figure already taken from this CampaignResult")
    }
}

/// One figure awaiting execution.
struct FigureSpec {
    scenarios: Vec<Scenario>,
    reps: u32,
}

/// A batch of figures to execute as one cache-aware job queue.
pub struct Campaign {
    cache: Option<RunCache>,
    figures: Vec<FigureSpec>,
}

impl Campaign {
    /// Starts an empty campaign; pass a [`RunCache`] to answer repeat
    /// jobs from disk.
    pub fn new(cache: Option<RunCache>) -> Self {
        Campaign {
            cache,
            figures: Vec::new(),
        }
    }

    /// Queues one figure: every scenario × `reps` replications.
    pub fn add_figure(&mut self, scenarios: Vec<Scenario>, reps: u32) -> FigureHandle {
        assert!(reps >= 1, "a figure needs at least one replication");
        let handle = FigureHandle(self.figures.len());
        self.figures.push(FigureSpec { scenarios, reps });
        handle
    }

    /// Executes every queued job (cache first, then one batch for the
    /// misses) and regroups the results per figure.
    pub fn run(self) -> CampaignResult {
        let start = std::time::Instant::now();
        // Lay out all jobs figure-major, scenario-major, rep-minor; the
        // results share this layout, so per-figure regrouping below is
        // sequential chunking, not a scan per scenario.
        let runs: Vec<(Scenario, u32)> = self
            .figures
            .iter()
            .flat_map(|fig| {
                fig.scenarios
                    .iter()
                    .flat_map(move |s| (0..fig.reps).map(move |rep| (s.clone(), rep)))
            })
            .collect();
        let n_jobs = runs.len();

        // One batch for every miss across every figure: no inter-figure
        // barrier.
        let pass = cache_first(self.cache.as_ref(), runs, |misses| {
            let pool = WorkerPool::new(pool::default_workers());
            let groups = arrival_groups(misses, pool.workers());
            pool.run_batch(groups, |_, group: Vec<(usize, Scenario, u32)>| {
                let cells: Vec<(Scenario, u32)> =
                    group.iter().map(|(_, s, rep)| (s.clone(), *rep)).collect();
                group
                    .iter()
                    .map(|(slot, _, _)| *slot)
                    .zip(run_group_warm(&cells))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
        });

        // Regroup: the run layout mirrors the figure specs, so one
        // linear walk rebuilds every figure.
        let mut figures = Vec::with_capacity(self.figures.len());
        let mut cursor = pass.runs.into_iter().map(|(summary, _)| summary);
        for fig in &self.figures {
            let mut replicated = Vec::with_capacity(fig.scenarios.len());
            for scenario in &fig.scenarios {
                replicated.push(Replicated {
                    policy: scenario.policy_label(),
                    runs: cursor.by_ref().take(fig.reps as usize).collect(),
                });
            }
            figures.push(Some(replicated));
        }

        CampaignResult {
            figures,
            stats: CampaignStats {
                jobs: n_jobs,
                cache_hits: pass.hits,
                cache_misses: n_jobs - pass.hits,
                corrupt_entries: pass.corrupt,
                wall: start.elapsed(),
            },
        }
    }
}

/// Groups runs by [`Scenario::arrival_key`], in first-seen order,
/// then, on several workers, halves the largest group while
/// there are fewer than two groups per worker: groups differ in cost,
/// and a halved group only repeats its arrival expansion.
fn arrival_groups<T>(
    runs: Vec<(T, Scenario, u32)>,
    workers: usize,
) -> Vec<Vec<(T, Scenario, u32)>> {
    let mut index: HashMap<ArrivalKey, usize> = HashMap::new();
    let mut groups: Vec<Vec<(T, Scenario, u32)>> = Vec::new();
    for run in runs {
        let key = run.1.arrival_key(run.2);
        let i = *index.entry(key).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[i].push(run);
    }
    let target = if workers > 1 { 2 * workers } else { 1 };
    while groups.len() < target {
        let Some(largest) = (0..groups.len()).max_by_key(|&i| groups[i].len()) else {
            break;
        };
        let len = groups[largest].len();
        if len < 2 {
            break;
        }
        let half = groups[largest].split_off(len / 2);
        groups.push(half);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_once;
    use crate::scenario::PolicySpec;
    use vmprov_des::SimTime;

    fn tiny(policy: PolicySpec) -> Scenario {
        Scenario::web(policy, 77).with_horizon(SimTime::from_secs(120.0))
    }

    #[test]
    fn uncached_campaign_matches_run_once() {
        let scenarios = vec![tiny(PolicySpec::Static(8)), tiny(PolicySpec::Static(12))];
        let mut campaign = Campaign::new(None);
        let h5 = campaign.add_figure(scenarios.clone(), 2);
        let h6 = campaign.add_figure(vec![tiny(PolicySpec::Static(10))], 1);
        let mut result = campaign.run();
        assert_eq!(result.stats.jobs, 5);
        assert_eq!(result.stats.cache_hits, 0);
        assert_eq!(result.stats.cache_misses, 5);

        let f5 = result.take(h5);
        assert_eq!(f5.len(), 2);
        for (sc, rep) in scenarios.iter().zip(&f5) {
            assert_eq!(rep.policy, sc.policy_label());
            assert_eq!(rep.runs.len(), 2);
            for (r, run) in rep.runs.iter().enumerate() {
                assert_eq!(*run, run_once(sc, r as u32), "{}: rep {r}", rep.policy);
            }
        }
        let f6 = result.take(h6);
        assert_eq!(f6.len(), 1);
        assert_eq!(f6[0].runs[0], run_once(&tiny(PolicySpec::Static(10)), 0));
    }

    #[test]
    fn second_campaign_is_all_hits_and_bit_identical() {
        let dir = std::env::temp_dir().join(format!("vmprov_campaign_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let scenarios = vec![tiny(PolicySpec::Static(6)), tiny(PolicySpec::Static(9))];

        let mut cold = Campaign::new(Some(RunCache::open(&dir).unwrap()));
        let hc = cold.add_figure(scenarios.clone(), 2);
        let mut cold_result = cold.run();
        assert_eq!(cold_result.stats.cache_hits, 0);
        assert_eq!(cold_result.stats.cache_misses, 4);

        let mut warm = Campaign::new(Some(RunCache::open(&dir).unwrap()));
        let hw = warm.add_figure(scenarios, 2);
        let mut warm_result = warm.run();
        assert_eq!(warm_result.stats.cache_hits, 4);
        assert_eq!(warm_result.stats.cache_misses, 0);
        assert!((warm_result.stats.hit_rate() - 1.0).abs() < f64::EPSILON);

        let a = cold_result.take(hc);
        let b = warm_result.take(hw);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.runs, y.runs, "cache hit diverged from fresh run");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn groups_follow_arrival_keys_and_split_only_for_parallelism() {
        let runs = || -> Vec<(usize, Scenario, u32)> {
            let mut out = Vec::new();
            for (i, m) in [6, 8, 10, 12].into_iter().enumerate() {
                out.push((2 * i, tiny(PolicySpec::Static(m)), 0));
                out.push((2 * i + 1, tiny(PolicySpec::Static(m)), 1));
            }
            out
        };
        let slots = |groups: &[Vec<(usize, Scenario, u32)>]| -> Vec<Vec<usize>> {
            groups
                .iter()
                .map(|g| g.iter().map(|r| r.0).collect())
                .collect()
        };
        // One group per rep, in first-seen order; a serial run keeps them.
        let serial = arrival_groups(runs(), 1);
        assert_eq!(slots(&serial), vec![vec![0, 2, 4, 6], vec![1, 3, 5, 7]]);
        // Two workers want four jobs: both groups are halved.
        let pooled = arrival_groups(runs(), 2);
        assert_eq!(
            slots(&pooled),
            vec![vec![0, 2], vec![1, 3], vec![5, 7], vec![4, 6]]
        );
        // Groups of one are never split further.
        assert_eq!(arrival_groups(runs(), 8).len(), 8);
    }

    #[test]
    fn stats_json_shape() {
        let stats = CampaignStats {
            jobs: 10,
            cache_hits: 9,
            cache_misses: 1,
            corrupt_entries: 1,
            wall: Duration::from_millis(1500),
        };
        let j = stats.to_json();
        assert_eq!(j.get("jobs").unwrap().as_u64(), Some(10));
        assert_eq!(j.get("hit_rate").unwrap().as_f64(), Some(0.9));
        assert_eq!(j.get("wall_secs").unwrap().as_f64(), Some(1.5));
    }
}
