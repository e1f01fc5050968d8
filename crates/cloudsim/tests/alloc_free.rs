//! The steady-state event loop must not allocate.
//!
//! Slot free lists, the flat queue slab, and event-list storage
//! reuse exist so that once the pool and the FEL have warmed up, a
//! running simulation touches no allocator at all. This test proves it
//! with a counting `#[global_allocator]`: a probe records the global
//! allocation count when simulated time first passes the start and the
//! end of a steady-state window, and the two counts must be equal.
//!
//! The run is fully seeded, so the allocation sequence is deterministic
//! — this is a regression test, not a statistical one. The window
//! starts after half the horizon: by then the instance pool is at its
//! static size, every per-slot queue ring has been allocated, metric
//! accumulators are plain scalars, and the event list's heap array
//! and run buffers have grown to their high-water capacities.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use vmprov_cloudsim::{Probe, RequestClass, SimBuilder, SimConfig};
use vmprov_core::qos::QosTargets;
use vmprov_core::{RoundRobin, StaticPolicy};
use vmprov_des::{RngFactory, SimTime};
use vmprov_workloads::synthetic::PoissonProcess;
use vmprov_workloads::ServiceModel;

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc is an allocation for this test's purposes: growing a
        // Vec in the hot loop is exactly what must not happen.
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Snapshots the allocation counter the first time simulated time
/// crosses `start` and then `end`. Arrivals fire every few simulated
/// milliseconds at the rates used here, so the snapshots land within
/// one event of the window edges. The probe itself is allocation-free
/// (two `Option<u64>` fields) and returns no `sample_interval`, so
/// attaching it changes nothing about the event stream.
#[derive(Default)]
struct WindowMarker {
    start: f64,
    end: f64,
    at_start: Option<u64>,
    at_end: Option<u64>,
}

impl Probe for WindowMarker {
    fn on_arrival(&mut self, now: SimTime, _class: RequestClass) {
        let t = now.as_secs();
        if self.at_start.is_none() && t >= self.start {
            self.at_start = Some(ALLOCATIONS.load(Ordering::Relaxed));
        } else if self.at_start.is_some() && self.at_end.is_none() && t >= self.end {
            self.at_end = Some(ALLOCATIONS.load(Ordering::Relaxed));
        }
    }
}

#[test]
fn steady_state_event_loop_is_allocation_free() {
    let cfg = SimConfig {
        hosts: 50,
        monitor_interval: 10.0,
        ..SimConfig::paper(0.100, 0.250)
    };
    let horizon = 600.0;
    let marker = WindowMarker {
        start: horizon / 2.0,
        end: horizon * 0.9,
        ..WindowMarker::default()
    };
    let (summary, marker) = SimBuilder::new(cfg)
        .workload(Box::new(PoissonProcess::new(
            50.0,
            SimTime::from_secs(horizon),
        )))
        .service(ServiceModel::new(0.100, 0.10))
        .policy(Box::new(StaticPolicy::new(8, QosTargets::web_paper())))
        .dispatcher(Box::new(RoundRobin::new()))
        .probe(marker)
        .run_probed(&RngFactory::new(0xA110C));
    assert!(summary.offered_requests > 10_000, "window saw real load");
    let at_start = marker.at_start.expect("window start was reached");
    let at_end = marker.at_end.expect("window end was reached");
    assert_eq!(
        at_end - at_start,
        0,
        "the steady-state loop allocated {} times in the [{}s, {}s) window",
        at_end - at_start,
        horizon / 2.0,
        horizon * 0.9,
    );
}
