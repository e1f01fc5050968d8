//! `HostPool`'s level-bitset placement against the per-host scan it
//! replaced.
//!
//! The reference keeps each host's capacity and used resources and
//! places a VM by scanning every host for the fewest running VMs among
//! those that fit (`filter(fits).min_by_key(vm_count)`, which returns
//! the first minimum, so ties go to the lowest host id). Random
//! place/release sequences drive both pools; every call must return the
//! same host, and the VM totals must agree after every call. Host
//! counts straddle the 64-bit word boundary, and VM shapes fit 0, 1, 2
//! (RAM-bound) and 8 per host.

use vmprov_check::{cases, Gen};
use vmprov_cloudsim::{HostPool, Resources, PAPER_HOST, PAPER_VM};

/// One host as the scan tracked it.
#[derive(Debug, Clone, Copy)]
struct Host {
    capacity: Resources,
    used: Resources,
    vm_count: u32,
}

impl Host {
    fn fits(&self, req: Resources) -> bool {
        self.used.cores + req.cores <= self.capacity.cores
            && self.used.ram_mb + req.ram_mb <= self.capacity.ram_mb
    }
}

/// The reference: a full scan per placement.
struct ScanPool {
    hosts: Vec<Host>,
    vm: Resources,
}

impl ScanPool {
    fn new(n: usize, host: Resources, vm: Resources) -> Self {
        let empty = Host {
            capacity: host,
            used: Resources {
                cores: 0,
                ram_mb: 0,
            },
            vm_count: 0,
        };
        ScanPool {
            hosts: vec![empty; n],
            vm,
        }
    }

    fn place(&mut self) -> Option<usize> {
        let vm = self.vm;
        let id = self
            .hosts
            .iter()
            .enumerate()
            .filter(|(_, h)| h.fits(vm))
            .min_by_key(|(_, h)| h.vm_count)
            .map(|(i, _)| i)?;
        let h = &mut self.hosts[id];
        h.used.cores += vm.cores;
        h.used.ram_mb += vm.ram_mb;
        h.vm_count += 1;
        Some(id)
    }

    fn release(&mut self, id: usize) {
        let h = &mut self.hosts[id];
        assert!(h.vm_count > 0, "reference released an empty host");
        h.used.cores -= self.vm.cores;
        h.used.ram_mb -= self.vm.ram_mb;
        h.vm_count -= 1;
    }

    fn placed_vms(&self) -> u32 {
        self.hosts.iter().map(|h| h.vm_count).sum()
    }

    fn remaining_capacity(&self) -> u32 {
        self.hosts
            .iter()
            .map(|h| {
                let by_cores = (h.capacity.cores - h.used.cores) / self.vm.cores;
                let by_ram = (h.capacity.ram_mb - h.used.ram_mb) / self.vm.ram_mb;
                by_cores.min(by_ram)
            })
            .sum()
    }
}

const HOST_COUNTS: [usize; 6] = [1, 2, 63, 64, 65, 1000];

/// VM shapes on a paper host, with how many of each fit.
const SHAPES: [(Resources, u32); 4] = [
    (
        Resources {
            cores: 9,
            ram_mb: 2_048,
        },
        0,
    ),
    (
        Resources {
            cores: 5,
            ram_mb: 8_192,
        },
        1,
    ),
    (
        Resources {
            cores: 1,
            ram_mb: 8_192,
        },
        2,
    ),
    (PAPER_VM, 8),
];

fn assert_same_totals(pool: &HostPool, scan: &ScanPool, step: usize) {
    assert_eq!(
        pool.placed_vms(),
        scan.placed_vms(),
        "placed_vms, step {step}"
    );
    assert_eq!(
        pool.remaining_capacity(),
        scan.remaining_capacity(),
        "remaining_capacity, step {step}"
    );
}

/// Drives both pools through one random sequence of `steps` calls.
fn run_sequence(g: &mut Gen, n: usize, vm: Resources, steps: usize) {
    let mut pool = HostPool::new(n, PAPER_HOST, vm);
    let mut scan = ScanPool::new(n, PAPER_HOST, vm);
    assert_same_totals(&pool, &scan, 0);
    // Hosts holding a live VM, one entry per VM.
    let mut live: Vec<usize> = Vec::new();
    let place_bias = g.f64_in(0.3..0.95);
    for step in 1..=steps {
        if live.is_empty() || g.chance(place_bias) {
            let got = pool.place();
            let want = scan.place();
            assert_eq!(got, want, "place, step {step} ({n} hosts, {vm:?})");
            live.extend(got);
        } else {
            let host = live.swap_remove(g.usize_in(0..live.len()));
            pool.release(host);
            scan.release(host);
        }
        assert_same_totals(&pool, &scan, step);
    }
}

#[test]
fn level_bitsets_place_where_the_scan_did() {
    cases(96, |g| {
        let n = *g.choose(&HOST_COUNTS);
        let (vm, per_host) = *g.choose(&SHAPES);
        // Long enough to fill small pools and churn at the full level.
        let capacity = n * per_host as usize;
        let steps = g.usize_in(1..(3 * capacity).clamp(16, 2_500) + 1);
        run_sequence(g, n, vm, steps);
    });
}

#[test]
fn every_host_count_and_shape_fills_and_drains_like_the_scan() {
    let mut g = Gen::new(0x9057);
    for n in HOST_COUNTS {
        for (vm, per_host) in SHAPES {
            let mut pool = HostPool::new(n, PAPER_HOST, vm);
            let mut scan = ScanPool::new(n, PAPER_HOST, vm);
            let capacity = n * per_host as usize;
            assert_eq!(pool.remaining_capacity() as usize, capacity);
            // Fill to refusal, then drain in a random order.
            let mut live = Vec::new();
            for step in 0..=capacity {
                let got = pool.place();
                assert_eq!(got, scan.place(), "fill step {step} ({n} hosts, {vm:?})");
                assert_eq!(got.is_none(), step == capacity);
                live.extend(got);
                assert_same_totals(&pool, &scan, step);
            }
            while !live.is_empty() {
                let host = live.swap_remove(g.usize_in(0..live.len()));
                pool.release(host);
                scan.release(host);
                assert_same_totals(&pool, &scan, live.len());
            }
            assert_eq!(pool.placed_vms(), 0);
        }
    }
}
