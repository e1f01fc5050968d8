//! The one executor: a batch of independent jobs on scoped threads.
//!
//! Every parallel pass in the workspace needs one thing from an
//! executor: run the items in parallel and return the results in input
//! order. The campaign runner and the replay grid (`vmprov-experiments`)
//! run a campaign's arrival groups and a grid's per-worker cell shares
//! on it; the trace scan (`vmprov-workloads`) runs its content-hash pass
//! and its line-aligned decode ranges on it. It lives here, in the
//! lowest crate those share, so there is one.
//!
//! A [`WorkerPool`] is only a width. Each [`WorkerPool::run_batch`]
//! spawns its threads inside [`std::thread::scope`] and joins them
//! before it returns, so no thread, queue or lock outlives a batch:
//! jobs may borrow from the caller, and a job may run a nested batch
//! of its own. The caller's thread is worker 0; the workers claim
//! items through one atomic index, so a worker that finishes early
//! takes the next unclaimed item, and a worker whose thread could not
//! be spawned leaves its share to the threads that did start.
//!
//! Determinism: the items run in a nondeterministic order on
//! nondeterministic threads, which is safe *only* because every job is
//! self-contained — a simulation derives its RNG streams from its own
//! `(scenario, rep)` pair, a decode range reads its own bytes — and
//! shares no mutable state. Scheduling order must never affect any
//! result; the pool-width sweep test pins this.
//!
//! Width: the caller chooses it. Campaigns and grids without an
//! explicit width follow `vmprov_experiments::pool::default_workers`;
//! the trace scan takes the machine's available parallelism.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A width: how many threads (the caller's included) a batch runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerPool {
    workers: usize,
}

impl WorkerPool {
    /// An executor `workers` threads wide (minimum 1).
    pub fn new(workers: usize) -> Self {
        WorkerPool {
            workers: workers.max(1),
        }
    }

    /// Number of worker threads, the caller's included.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(index, item)` for every item, in parallel on
    /// `min(workers, items)` threads, and returns the results **in
    /// input order** (scheduling order never leaks into the output).
    ///
    /// A single item, or a width of 1, runs inline on the calling
    /// thread and spawns nothing. A worker thread that fails to spawn
    /// is skipped: the threads that did start (the caller's at least)
    /// claim its share.
    ///
    /// # Panics
    /// Resumes the panic of a job that panicked, once every worker has
    /// stopped.
    pub fn run_batch<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        self.run_batch_started(items, |_| {}, f)
    }

    /// [`run_batch`](Self::run_batch) for items that wait on each other
    /// and so must run at the same time, one per thread, such as the
    /// shares of a stepped trace scan. Before the caller's thread takes
    /// an item, `started` learns how many threads (the caller's
    /// included) run the batch. Fewer than the items means a thread
    /// failed to spawn: an item past that count runs only once another
    /// has returned, so the items must not wait for it.
    pub fn run_batch_started<T, R, F>(
        &self,
        items: Vec<T>,
        started: impl FnOnce(usize),
        f: F,
    ) -> Vec<R>
    where
        T: Send,
        R: Send,
        F: Fn(usize, T) -> R + Sync,
    {
        let n = items.len();
        let threads = self.workers.min(n);
        if threads <= 1 {
            started(1);
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        // Each slot is taken exactly once, by the worker that claimed
        // its index, so its lock is never contended.
        let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = slots.get(i) else {
                    return done;
                };
                let item = slot
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .take()
                    .expect("an index is claimed once");
                done.push((i, f(i, item)));
            }
        };
        let done = std::thread::scope(|s| {
            let others: Vec<_> = (1..threads)
                .filter_map(|w| {
                    std::thread::Builder::new()
                        .name(format!("vmprov-worker-{w}"))
                        .spawn_scoped(s, work)
                        .ok()
                })
                .collect();
            started(others.len() + 1);
            let mut done = work();
            for worker in others {
                match worker.join() {
                    Ok(part) => done.extend(part),
                    Err(panic) => resume_unwind(panic),
                }
            }
            done
        });
        let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
        for (i, r) in done {
            results[i] = Some(r);
        }
        results
            .into_iter()
            .map(|r| r.expect("every item ran"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn results_arrive_in_input_order() {
        let pool = WorkerPool::new(4);
        let items: Vec<u64> = (0..100).collect();
        let out = pool.run_batch(items, |i, x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_item_runs_inline() {
        let pool = WorkerPool::new(2);
        let caller = std::thread::current().id();
        let out = pool.run_batch(vec![7_u64], move |_, x| {
            assert_eq!(std::thread::current().id(), caller);
            x + 1
        });
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn empty_batch_is_fine() {
        let pool = WorkerPool::new(2);
        let out: Vec<u64> = pool.run_batch(Vec::<u64>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn pool_survives_consecutive_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..10 {
            let out = pool.run_batch((0..20).collect::<Vec<u64>>(), move |_, x| x + round);
            assert_eq!(out.len(), 20);
            assert_eq!(out[0], round);
        }
    }

    #[test]
    fn width_one_pool_completes_wide_batches() {
        let pool = WorkerPool::new(1);
        let caller = std::thread::current().id();
        let out = pool.run_batch((0..50).collect::<Vec<u64>>(), |_, x| {
            assert_eq!(std::thread::current().id(), caller, "width 1 runs inline");
            x * x
        });
        assert_eq!(out[7], 49);
        assert_eq!(out.len(), 50);
    }

    #[test]
    fn panicking_job_fails_batch_but_not_pool() {
        let pool = WorkerPool::new(2);
        let poisoned = catch_unwind(AssertUnwindSafe(|| {
            pool.run_batch((0..8).collect::<Vec<u64>>(), |_, x| {
                assert!(x != 5, "boom");
                x
            })
        }));
        let payload = poisoned.expect_err("batch with a panicking job must fail");
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned());
        assert_eq!(message.as_deref(), Some("boom"), "the job's own panic");
        // The pool is still serviceable afterwards.
        let out = pool.run_batch((0..8).collect::<Vec<u64>>(), |_, x| x);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn nested_batches_complete() {
        // A job that runs a batch of its own must complete, also at
        // width 1, where the caller's thread is the only worker.
        for width in [1, 2] {
            let pool = WorkerPool::new(width);
            let out = pool.run_batch((0..4).collect::<Vec<u64>>(), |_, x| {
                pool.run_batch((0..3).collect::<Vec<u64>>(), |_, y| 10 * x + y)
                    .into_iter()
                    .sum::<u64>()
            });
            assert_eq!(out, vec![3, 33, 63, 93], "width {width}");
        }
    }

    #[test]
    fn started_counts_the_threads_before_the_caller_works() {
        for (width, items, threads) in [(1, 5, 1), (3, 5, 3), (4, 2, 2), (2, 1, 1), (2, 0, 1)] {
            let count = Mutex::new(None);
            let out = WorkerPool::new(width).run_batch_started(
                (0..items).collect::<Vec<u64>>(),
                |n| *count.lock().unwrap() = Some(n),
                |_, x| x,
            );
            assert_eq!(out.len(), items as usize);
            assert_eq!(count.into_inner().unwrap(), Some(threads), "width {width}");
        }
    }

    #[test]
    fn jobs_may_borrow_from_the_caller() {
        let table: Vec<u64> = (0..16).map(|x| x * x).collect();
        let out = WorkerPool::new(3).run_batch((0..16).collect::<Vec<usize>>(), |_, i| table[i]);
        assert_eq!(out, table);
    }
}
