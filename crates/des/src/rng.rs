//! Deterministic random-number streams.
//!
//! Stochastic simulations need (a) bit-for-bit reproducibility from a
//! single seed, and (b) *independent* streams per stochastic process so
//! that adding a draw to one process does not perturb another (common
//! random numbers across policy variants). [`RngFactory`] derives
//! independent [`SimRng`] streams from a master seed and a stream label
//! using a SplitMix64 mixer.

/// SplitMix64 step: a high-quality 64-bit mixer used to derive stream
/// seeds. See Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators" (OOPSLA 2014).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a label into a 64-bit stream discriminator (FNV-1a via the
/// crate's [`stable_hash64`](crate::stable_hash64) — same constants the
/// original inline hash used, so every derived stream is unchanged).
#[inline]
fn hash_label(label: &str) -> u64 {
    crate::hash::stable_hash64(label.as_bytes())
}

/// Derives independent, reproducible random streams from a master seed.
#[derive(Debug, Clone, Copy)]
pub struct RngFactory {
    master_seed: u64,
}

impl RngFactory {
    /// Creates a factory for `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        RngFactory { master_seed }
    }

    /// The master seed this factory derives from.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Returns the stream identified by `label`.
    ///
    /// The same `(master_seed, label)` pair always yields the same stream;
    /// different labels yield decorrelated streams.
    pub fn stream(&self, label: &str) -> SimRng {
        self.stream_indexed(label, 0)
    }

    /// Returns the `index`-th stream for `label` — useful for replications
    /// ("arrivals", rep 0..10) or per-entity streams.
    pub fn stream_indexed(&self, label: &str, index: u64) -> SimRng {
        let mut state = self
            .master_seed
            .wrapping_add(hash_label(label))
            .wrapping_add(index.wrapping_mul(0xA076_1D64_78BD_642F));
        // Four mixing rounds to build the 256-bit xoshiro state.
        SimRng::from_state([
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        ])
    }
}

/// A single deterministic random stream.
///
/// An in-repo xoshiro256++ generator (Blackman & Vigna, "Scrambled
/// linear pseudorandom number generators", 2018) behind a stable
/// interface so the algorithm can be swapped without touching call
/// sites. Self-contained on purpose: the workspace must build without
/// registry access, so it cannot lean on the `rand` crate.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Creates a stream directly from a 64-bit seed (prefer
    /// [`RngFactory`] for labelled streams).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut state = seed;
        SimRng::from_state([
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
            splitmix64(&mut state),
        ])
    }

    fn from_state(s: [u64; 4]) -> Self {
        // The all-zero state is the one fixed point of the linear
        // engine; SplitMix64 output makes it astronomically unlikely,
        // but guard anyway.
        if s == [0; 4] {
            SimRng { s: [1, 2, 3, 4] }
        } else {
            SimRng { s }
        }
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        // 53 high bits → the standard dyadic-rational mapping.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `(0, 1]` — safe as input to `ln`.
    #[inline]
    pub fn uniform01_open_left(&mut self) -> f64 {
        1.0 - self.uniform01()
    }

    /// Uniform draw in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform01()
    }

    /// Raw 64-bit draw (xoshiro256++ step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let out = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let f = RngFactory::new(42);
        let mut a = f.stream("arrivals");
        let mut b = f.stream("arrivals");
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_labels_different_streams() {
        let f = RngFactory::new(42);
        let mut a = f.stream("arrivals");
        let mut b = f.stream("service");
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn indexed_streams_differ() {
        let f = RngFactory::new(7);
        let mut a = f.stream_indexed("rep", 0);
        let mut b = f.stream_indexed("rep", 1);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_master_seeds_differ() {
        let mut a = RngFactory::new(1).stream("x");
        let mut b = RngFactory::new(2).stream("x");
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform01_in_range_and_nondegenerate() {
        let mut r = RngFactory::new(3).stream("u");
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..10_000 {
            let u = r.uniform01();
            assert!((0.0..1.0).contains(&u));
            min = min.min(u);
            max = max.max(u);
        }
        assert!(min < 0.01 && max > 0.99);
        let v = r.uniform01_open_left();
        assert!(v > 0.0 && v <= 1.0);
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = RngFactory::new(9).stream("u");
        for _ in 0..1_000 {
            let x = r.uniform(5.0, 6.0);
            assert!((5.0..6.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = RngFactory::new(11).stream("mean");
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.uniform01()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
