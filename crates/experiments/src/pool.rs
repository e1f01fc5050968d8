//! The executor's width rule, and the executor re-exported.
//!
//! [`WorkerPool`] itself lives in `vmprov-des` (see
//! [`vmprov_des::pool`]), beside the trace scan that also runs on it;
//! it is re-exported here so campaign code names one module for both.
//!
//! Width: [`default_workers`] is the one rule campaigns and grids
//! without an explicit width follow — the [`configure_global_workers`]
//! value if one is set, else `$VMPROV_JOBS`, else the machine's
//! available parallelism.

use std::sync::atomic::{AtomicUsize, Ordering};

pub use vmprov_des::pool::WorkerPool;

/// Width set by [`configure_global_workers`]; 0 while none is set.
static REQUESTED_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the width every later campaign (and every grid without a
/// `concurrency`) runs at, overriding `$VMPROV_JOBS` and the core
/// count. Takes effect at once, for the next batch.
pub fn configure_global_workers(workers: usize) {
    REQUESTED_WORKERS.store(workers.max(1), Ordering::SeqCst);
}

/// `$VMPROV_JOBS` as a width: `Ok(None)` when unset, an error naming
/// the value when it is set but not a whole number ≥ 1.
pub fn env_workers() -> Result<Option<usize>, String> {
    match std::env::var("VMPROV_JOBS") {
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(v)) => {
            Err(format!("VMPROV_JOBS={v:?} is not a whole number ≥ 1"))
        }
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Some(n)),
            _ => Err(format!("VMPROV_JOBS={v:?} is not a whole number ≥ 1")),
        },
    }
}

/// The width a campaign, or a grid without a `concurrency`, runs at:
/// the [`configure_global_workers`] value if one is set, else
/// `$VMPROV_JOBS`, else the machine's available parallelism.
///
/// # Panics
/// Panics when it reads a malformed `$VMPROV_JOBS` (see
/// [`env_workers`]; `repro` checks it up front and exits 2).
pub fn default_workers() -> usize {
    match REQUESTED_WORKERS.load(Ordering::SeqCst) {
        0 => env_workers()
            .unwrap_or_else(|e| panic!("{e}"))
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get())),
        n => n,
    }
}
