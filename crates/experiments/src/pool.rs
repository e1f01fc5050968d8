//! A persistent work-stealing worker pool.
//!
//! The campaign runner and the replay grid parallelize *across*
//! independent simulation runs: one job per `(scenario, rep)` pair.
//!
//! Workers spawn **once per pool** and persist across batches, so
//! consecutive jobs on a worker can reuse warm per-thread storage
//! (recycled event queues, instance slabs) instead of re-allocating.
//!
//! Scheduling: each worker owns a deque; submitted jobs are dealt
//! round-robin across the deques; a worker pops its own deque from the
//! front and steals from the *back* of a sibling's when its own is
//! empty (classic Chase–Lev discipline, here with plain mutexed deques
//! — jobs are whole simulation runs, so per-job locking is noise).
//!
//! Determinism: the pool executes jobs in a nondeterministic order on
//! nondeterministic threads, which is safe *only* because every job is
//! self-contained — it derives its RNG streams from its own
//! `(scenario, rep)` pair and shares no mutable state. Scheduling order
//! must never affect any result; the pool-width sweep test pins this.
//!
//! Jobs must not submit nested batches to the same pool: a job that
//! blocks on `run_batch` while occupying a worker can deadlock a
//! single-worker pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send>;

/// Shared state between the pool handle and its workers.
struct Inner {
    /// One deque per worker: owner pops the front, thieves the back.
    queues: Vec<Mutex<VecDeque<Job>>>,
    /// Jobs submitted but not yet popped (across all deques).
    pending: AtomicUsize,
    /// Sleep coordination: workers wait here when every deque is empty.
    /// Submitters acquire the mutex *after* publishing jobs and before
    /// notifying, so a worker that just observed `pending == 0` under
    /// this mutex cannot miss the wakeup.
    sleep: Mutex<()>,
    wake: Condvar,
    shutdown: AtomicBool,
}

/// Per-batch completion state: result slots plus a countdown latch.
struct BatchState<R> {
    slots: Vec<Mutex<Option<R>>>,
    remaining: Mutex<usize>,
    done: Condvar,
}

/// Decrements the batch latch when dropped — runs even if the job
/// panics, so a poisoned job can never strand the submitting thread.
struct CompletionGuard<R> {
    batch: Arc<BatchState<R>>,
}

impl<R> Drop for CompletionGuard<R> {
    fn drop(&mut self) {
        let mut remaining = self
            .batch
            .remaining
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        *remaining -= 1;
        if *remaining == 0 {
            self.batch.done.notify_all();
        }
    }
}

/// A persistent pool of worker threads executing boxed jobs.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
    /// Round-robin deal position for the next submitted job.
    next_queue: AtomicUsize,
}

impl WorkerPool {
    /// Spawns a pool with `workers` threads (minimum 1).
    pub fn new(workers: usize) -> Self {
        let workers = workers.max(1);
        let inner = Arc::new(Inner {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: AtomicUsize::new(0),
            sleep: Mutex::new(()),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("vmprov-pool-{i}"))
                    .spawn(move || worker_loop(&inner, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            inner,
            handles,
            next_queue: AtomicUsize::new(0),
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.inner.queues.len()
    }

    /// Runs `f(index, item)` for every item, in parallel across the
    /// pool's workers, and returns the results **in input order**
    /// (scheduling order never leaks into the output).
    ///
    /// A single-item batch runs inline on the calling thread — the
    /// common `run_replicated` smoke case pays zero dispatch cost.
    ///
    /// # Panics
    /// Panics if any job panicked (after the whole batch has settled,
    /// so the pool itself stays usable).
    pub fn run_batch<T, R, F>(&self, items: Vec<T>, f: F) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(usize, T) -> R + Send + Sync + 'static,
    {
        if items.len() <= 1 {
            return items
                .into_iter()
                .enumerate()
                .map(|(i, t)| f(i, t))
                .collect();
        }
        let n = items.len();
        let batch = Arc::new(BatchState {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            remaining: Mutex::new(n),
            done: Condvar::new(),
        });
        let f = Arc::new(f);

        // Publish every job before waking anyone: one notify_all beats
        // per-job rendezvous, and round-robin dealing spreads the batch
        // so most workers start on their own deque.
        let start = self.next_queue.fetch_add(n, Ordering::Relaxed);
        for (i, item) in items.into_iter().enumerate() {
            let batch = Arc::clone(&batch);
            let f = Arc::clone(&f);
            let job: Job = Box::new(move || {
                let guard = CompletionGuard {
                    batch: Arc::clone(&batch),
                };
                let result = f(i, item);
                *batch.slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(result);
                drop(guard);
            });
            let q = (start + i) % self.inner.queues.len();
            self.inner.queues[q]
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push_back(job);
        }
        self.inner.pending.fetch_add(n, Ordering::SeqCst);
        {
            let _sleep = self.inner.sleep.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.wake.notify_all();
        }

        // Wait for the latch.
        let mut remaining = batch.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *remaining > 0 {
            remaining = batch
                .done
                .wait(remaining)
                .unwrap_or_else(|e| e.into_inner());
        }
        drop(remaining);

        // Jobs may still hold Arc clones for a moment after the final
        // notify; taking through the slot mutexes avoids racing
        // `Arc::try_unwrap`.
        let results: Vec<Option<R>> = batch
            .slots
            .iter()
            .map(|slot| slot.lock().unwrap_or_else(|e| e.into_inner()).take())
            .collect();
        let missing = results.iter().filter(|r| r.is_none()).count();
        assert!(missing == 0, "{missing} pool job(s) panicked");
        results.into_iter().map(|r| r.unwrap()).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        {
            let _sleep = self.inner.sleep.lock().unwrap_or_else(|e| e.into_inner());
            self.inner.wake.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &Inner, me: usize) {
    let n = inner.queues.len();
    loop {
        // Own deque first (front), then steal from siblings (back),
        // starting at the next worker so thieves spread out.
        let mut job = inner.queues[me]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pop_front();
        if job.is_none() {
            for off in 1..n {
                let victim = (me + off) % n;
                job = inner.queues[victim]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_back();
                if job.is_some() {
                    break;
                }
            }
        }
        match job {
            Some(job) => {
                inner.pending.fetch_sub(1, Ordering::SeqCst);
                // A panicking job must not kill the worker: the panic is
                // contained here and surfaces on the submitter via the
                // job's empty result slot.
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            None => {
                let sleep = inner.sleep.lock().unwrap_or_else(|e| e.into_inner());
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                if inner.pending.load(Ordering::SeqCst) == 0 {
                    // Submitters notify while holding `sleep`, so this
                    // wait cannot miss a job published after the load.
                    let _unused = inner.wake.wait(sleep);
                }
            }
        }
    }
}

/// The process-wide pool used by the campaign runner.
static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
/// Worker-count request recorded before the global pool first spins up.
static REQUESTED_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Requests `workers` threads for the global pool. Effective only
/// before the pool's first use; returns whether the request took (the
/// pool, once spun up, keeps its size for the life of the process).
pub fn configure_global_workers(workers: usize) -> bool {
    REQUESTED_WORKERS.store(workers.max(1), Ordering::SeqCst);
    GLOBAL.get().is_none() || GLOBAL.get().map(WorkerPool::workers) == Some(workers.max(1))
}

/// Default worker count: `$VMPROV_JOBS` if set and ≥ 1, else the
/// machine's available parallelism.
fn default_workers() -> usize {
    if let Ok(v) = std::env::var("VMPROV_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The process-wide worker pool, spun up on first use with the
/// configured (or default) worker count.
pub fn global() -> &'static WorkerPool {
    GLOBAL.get_or_init(|| {
        let requested = REQUESTED_WORKERS.load(Ordering::SeqCst);
        let workers = if requested >= 1 {
            requested
        } else {
            default_workers()
        };
        WorkerPool::new(workers)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let out = pool.run_batch((0..50).collect::<Vec<u64>>(), |_, x| x * x);
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
        assert!(poisoned.is_err(), "batch with a panicking job must fail");
        // The pool is still serviceable afterwards.
        let out = pool.run_batch((0..8).collect::<Vec<u64>>(), |_, x| x);
        assert_eq!(out.len(), 8);
    }

    #[test]
    fn global_pool_is_reused() {
        let a = global() as *const WorkerPool;
        let b = global() as *const WorkerPool;
        assert_eq!(a, b);
        assert!(global().workers() >= 1);
    }
}
