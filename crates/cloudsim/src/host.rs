//! Physical hosts and VM placement (the *resource provisioning* step of
//! §II, which the paper treats as the IaaS provider's concern).
//!
//! The evaluation's data center: 1000 hosts, each with two quad-core
//! processors (8 cores) and 16 GB of RAM; application VMs take one core
//! and 2 GB, and cores are never time-shared between VMs (§V-A). New
//! VMs go to the host with the fewest running instances.

/// Resource capacity/request description.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    /// Processor cores.
    pub cores: u32,
    /// Memory in megabytes.
    pub ram_mb: u32,
}

/// The paper's host shape: 8 cores, 16 GB.
pub const PAPER_HOST: Resources = Resources {
    cores: 8,
    ram_mb: 16_384,
};

/// The paper's VM shape: 1 core, 2 GB.
pub const PAPER_VM: Resources = Resources {
    cores: 1,
    ram_mb: 2_048,
};

/// The data center's host pool: identical hosts, one VM shape, and the
/// paper's least-loaded placement ("new VMs are created, if possible,
/// in the host with fewer running virtualized application instances").
///
/// With one VM shape on identical hosts, a host fits another VM iff it
/// runs fewer than `per_host` of them, so a host's state is its VM
/// count. Hosts are indexed by that count: bit `h` of level `l` is set
/// iff host `h` runs `l` VMs. [`place`](Self::place) takes the lowest
/// set bit of the lowest non-empty level below `per_host` — the first
/// least-loaded host that fits, as a scan in host order would find it —
/// and [`release`](Self::release) moves a host down one level. Each
/// costs O(levels + hosts/64) word operations.
#[derive(Debug, Clone)]
pub struct HostPool {
    /// VMs running on each host.
    counts: Vec<u32>,
    /// VMs of the pool's shape one host holds.
    per_host: u32,
    /// Words per level bitset: `⌈hosts / 64⌉`.
    words: usize,
    /// `per_host + 1` level bitsets of `words` words each, level-major.
    levels: Vec<u64>,
    /// Hosts at each level (the set bits of its bitset).
    level_hosts: Vec<u32>,
    /// VMs placed over all hosts.
    placed: u32,
}

impl HostPool {
    /// Creates `n` identical hosts of `host` shape that hold VMs of
    /// `vm` shape.
    ///
    /// # Panics
    /// Panics if `n` is zero or either shape has zero cores or RAM.
    pub fn new(n: usize, host: Resources, vm: Resources) -> Self {
        assert!(n > 0, "data center needs at least one host");
        assert!(
            host.cores > 0 && host.ram_mb > 0,
            "host shape needs cores and RAM: {host:?}"
        );
        assert!(
            vm.cores > 0 && vm.ram_mb > 0,
            "VM shape needs cores and RAM: {vm:?}"
        );
        let per_host = (host.cores / vm.cores).min(host.ram_mb / vm.ram_mb);
        let words = n.div_ceil(64);
        let mut levels = vec![0u64; (per_host as usize + 1) * words];
        // Every host starts at level 0; bits past `n` stay zero.
        levels[..words].fill(!0);
        levels[words - 1] >>= words * 64 - n;
        let mut level_hosts = vec![0; per_host as usize + 1];
        level_hosts[0] = u32::try_from(n).expect("host count fits in u32");
        HostPool {
            counts: vec![0; n],
            per_host,
            words,
            levels,
            level_hosts,
            placed: 0,
        }
    }

    /// The paper's data center: 1000 × (8 cores, 16 GB) holding
    /// (1 core, 2 GB) VMs.
    pub fn paper() -> Self {
        Self::new(1000, PAPER_HOST, PAPER_VM)
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// Whether the pool has no hosts (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Total VMs currently placed.
    pub fn placed_vms(&self) -> u32 {
        self.placed
    }

    /// How many more VMs could be placed.
    pub fn remaining_capacity(&self) -> u32 {
        self.len() as u32 * self.per_host - self.placed
    }

    /// Places a VM on the least-loaded host that fits (the lowest id
    /// among ties), returning its id, or `None` when every host is full.
    pub fn place(&mut self) -> Option<usize> {
        let level = (0..self.per_host as usize).find(|&l| self.level_hosts[l] > 0)?;
        let bits = &self.levels[level * self.words..][..self.words];
        let w = bits
            .iter()
            .position(|&word| word != 0)
            .expect("a non-empty level has a set bit");
        let host = w * 64 + bits[w].trailing_zeros() as usize;
        self.move_host(host, level, level + 1);
        self.placed += 1;
        Some(host)
    }

    /// Releases a VM from `host_id`.
    ///
    /// # Panics
    /// Panics if the host runs no VM (accounting bug).
    pub fn release(&mut self, host_id: usize) {
        let count = self.counts[host_id] as usize;
        assert!(
            count > 0,
            "release without matching placement on host {host_id}"
        );
        self.move_host(host_id, count, count - 1);
        self.placed -= 1;
    }

    /// Moves `host` from level `from` to level `to`.
    fn move_host(&mut self, host: usize, from: usize, to: usize) {
        let (w, bit) = (host / 64, 1u64 << (host % 64));
        self.levels[from * self.words + w] &= !bit;
        self.levels[to * self.words + w] |= bit;
        self.level_hosts[from] -= 1;
        self.level_hosts[to] += 1;
        self.counts[host] = to as u32;
    }

    /// Debug-build audit of the level index: every host's bit is set at
    /// exactly its count's level, bits past the last host are zero, the
    /// level totals match their bitsets and sum to the host count, and
    /// `placed` is the sum of the counts. Free in release builds.
    pub(crate) fn debug_check_hosts(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        for (h, &c) in self.counts.iter().enumerate() {
            assert!(c <= self.per_host, "host {h} over capacity: {c} VMs");
            let word = self.levels[c as usize * self.words + h / 64];
            assert!(word >> (h % 64) & 1 == 1, "host {h} missing from level {c}");
        }
        let tail = !(!0u64 >> (self.words * 64 - self.len()));
        for (l, bits) in self.levels.chunks_exact(self.words).enumerate() {
            assert_eq!(bits[self.words - 1] & tail, 0, "level {l} has tail bits");
            let set: u32 = bits.iter().map(|w| w.count_ones()).sum();
            assert_eq!(set, self.level_hosts[l], "level {l} total out of sync");
        }
        // With every host's own bit set, equal totals leave no room for
        // a stray bit at another level.
        assert_eq!(
            self.level_hosts.iter().sum::<u32>() as usize,
            self.len(),
            "level totals do not sum to the host count"
        );
        assert_eq!(
            self.counts.iter().sum::<u32>(),
            self.placed,
            "placed VMs out of sync"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pool_capacity() {
        let pool = HostPool::paper();
        assert_eq!(pool.len(), 1000);
        // 8 cores/host and 16 GB / 2 GB = 8 VMs per host → 8000 total.
        assert_eq!(pool.remaining_capacity(), 8000);
        pool.debug_check_hosts();
    }

    #[test]
    fn least_loaded_spreads() {
        let mut pool = HostPool::new(3, PAPER_HOST, PAPER_VM);
        let placements: Vec<_> = (0..6).map(|_| pool.place().unwrap()).collect();
        // Each host receives one VM before any gets a second, lowest id
        // first among ties.
        assert_eq!(placements, [0, 1, 2, 0, 1, 2]);
        assert_eq!(pool.placed_vms(), 6);
        pool.debug_check_hosts();
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut pool = HostPool::new(
            1,
            Resources {
                cores: 2,
                ram_mb: 4096,
            },
            PAPER_VM,
        );
        assert!(pool.place().is_some());
        assert!(pool.place().is_some());
        assert_eq!(pool.place(), None);
        assert_eq!(pool.remaining_capacity(), 0);
    }

    #[test]
    fn ram_can_bind_before_cores() {
        let mut pool = HostPool::new(
            1,
            Resources {
                cores: 8,
                ram_mb: 4096,
            },
            PAPER_VM,
        );
        assert!(pool.place().is_some());
        assert!(pool.place().is_some());
        // Cores remain but RAM is gone.
        assert_eq!(pool.place(), None);
    }

    #[test]
    fn release_restores_capacity() {
        let mut pool = HostPool::new(1, PAPER_HOST, PAPER_VM);
        let host = pool.place().unwrap();
        assert_eq!(pool.placed_vms(), 1);
        pool.release(host);
        assert_eq!(pool.placed_vms(), 0);
        assert_eq!(pool.remaining_capacity(), 8);
    }

    #[test]
    #[should_panic(expected = "release without matching placement")]
    fn double_release_panics() {
        let mut pool = HostPool::new(1, PAPER_HOST, PAPER_VM);
        let host = pool.place().unwrap();
        pool.release(host);
        pool.release(host);
    }

    #[test]
    #[should_panic(expected = "VM shape needs cores and RAM")]
    fn zero_core_vm_shape_panics() {
        HostPool::new(
            1,
            PAPER_HOST,
            Resources {
                cores: 0,
                ram_mb: 2048,
            },
        );
    }

    #[test]
    #[should_panic(expected = "VM shape needs cores and RAM")]
    fn zero_ram_vm_shape_panics() {
        HostPool::new(
            1,
            PAPER_HOST,
            Resources {
                cores: 1,
                ram_mb: 0,
            },
        );
    }
}
