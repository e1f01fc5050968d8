//! # vmprov-check — randomized property testing without crates.io
//!
//! A deliberately small stand-in for `proptest`, built because the
//! workspace must compile in network-restricted environments. It runs a
//! property over many deterministically seeded random cases and, on
//! failure, reports the case seed so the exact input can be replayed.
//!
//! ```
//! use vmprov_check::{cases, Gen};
//!
//! cases(64, |g: &mut Gen| {
//!     let xs: Vec<f64> = g.vec(1..50, |g| g.f64_in(-1e3..1e3));
//!     let sum: f64 = xs.iter().sum();
//!     let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
//!     assert!(sum <= max * xs.len() as f64 + 1e-9);
//! });
//! ```
//!
//! Reproduce a single failing case with
//! `VMPROV_CHECK_SEED=<seed> cargo test <name>`; scale the case count
//! with `VMPROV_CHECK_CASES=<n>`.
//!
//! There is no shrinking: generators are encouraged to draw small inputs
//! often (e.g. [`Gen::usize_in`] is uniform, so keep ranges tight).

#![warn(missing_docs)]

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A deterministic random generator handed to each property case.
///
/// The core is SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): a tiny,
/// statistically solid 64-bit mixer — more than enough to drive test
/// inputs.
#[derive(Debug, Clone)]
pub struct Gen {
    state: u64,
}

impl Gen {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Gen {
        Gen { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, 1)`.
    pub fn f64(&mut self) -> f64 {
        (self.u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[range.start, range.end)`.
    pub fn f64_in(&mut self, range: Range<f64>) -> f64 {
        debug_assert!(range.start <= range.end);
        range.start + (range.end - range.start) * self.f64()
    }

    /// Uniform integer in `[range.start, range.end)`.
    pub fn usize_in(&mut self, range: Range<usize>) -> usize {
        debug_assert!(range.start < range.end);
        let span = (range.end - range.start) as u64;
        range.start + (self.u64() % span) as usize
    }

    /// Uniform `u32` in `[range.start, range.end)`.
    pub fn u32_in(&mut self, range: Range<u32>) -> u32 {
        debug_assert!(range.start < range.end);
        let span = u64::from(range.end - range.start);
        range.start + (self.u64() % span) as u32
    }

    /// `true` with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// A vector whose length is drawn from `len` and whose items come
    /// from `item`.
    pub fn vec<T>(&mut self, len: Range<usize>, mut item: impl FnMut(&mut Gen) -> T) -> Vec<T> {
        let n = self.usize_in(len);
        (0..n).map(|_| item(self)).collect()
    }

    /// A lowercase ASCII identifier of length drawn from `len`.
    pub fn ident(&mut self, len: Range<usize>) -> String {
        let n = self.usize_in(len);
        (0..n)
            .map(|_| (b'a' + (self.u64() % 26) as u8) as char)
            .collect()
    }

    /// Picks one element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.usize_in(0..items.len())]
    }

    /// A corruption of `valid`: a truncation, a few bit flips, a run of
    /// random bytes spliced in, or pure garbage. These are the inputs a
    /// decoder of external data must reject without panicking.
    pub fn mangle(&mut self, valid: &[u8]) -> Vec<u8> {
        let mut out = valid.to_vec();
        match self.u32_in(0..4) {
            0 => out.truncate(self.usize_in(0..valid.len() + 1)),
            1 if !out.is_empty() => {
                for _ in 0..self.usize_in(1..9) {
                    let i = self.usize_in(0..out.len());
                    out[i] ^= 1 << self.u32_in(0..8);
                }
            }
            2 => {
                let at = self.usize_in(0..out.len() + 1);
                let junk = self.vec(1..17, |g| g.u64() as u8);
                out.splice(at..at, junk);
            }
            _ => out = self.vec(0..257, |g| g.u64() as u8),
        }
        out
    }
}

/// Default base seed: stable across runs so CI failures reproduce.
const BASE_SEED: u64 = 0x1CC9_2011_5EED_CAFE;

fn env_u64(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Runs `property` over `default_cases` random cases (overridable via
/// `VMPROV_CHECK_CASES`), panicking with the case seed on the first
/// failure. Set `VMPROV_CHECK_SEED` to replay exactly one case.
pub fn cases(default_cases: u32, property: impl Fn(&mut Gen)) {
    if let Some(seed) = env_u64("VMPROV_CHECK_SEED") {
        let mut g = Gen::new(seed);
        property(&mut g);
        return;
    }
    let n = env_u64("VMPROV_CHECK_CASES").map_or(default_cases, |v| v as u32);
    for case in 0..n {
        // Derive well-separated per-case seeds from the fixed base.
        let seed = Gen::new(BASE_SEED ^ u64::from(case).wrapping_mul(0xA076_1D64_78BD_642F)).u64();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut g = Gen::new(seed);
            property(&mut g);
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string panic>");
            panic!(
                "property failed on case {case}/{n} (replay with \
                 VMPROV_CHECK_SEED={seed}): {msg}"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_stay_in_range() {
        cases(128, |g| {
            let x = g.f64_in(-3.0..7.0);
            assert!((-3.0..7.0).contains(&x));
            let n = g.usize_in(1..10);
            assert!((1..10).contains(&n));
            let c = g.u32_in(5..6);
            assert_eq!(c, 5);
            let v = g.vec(0..5, |g| g.u64());
            assert!(v.len() < 5);
            let s = g.ident(1..9);
            assert!(!s.is_empty() && s.len() < 9);
            assert!(s.chars().all(|c| c.is_ascii_lowercase()));
        });
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Gen::new(9);
        let mut b = Gen::new(9);
        for _ in 0..100 {
            assert_eq!(a.u64(), b.u64());
        }
        assert_ne!(Gen::new(1).u64(), Gen::new(2).u64());
    }

    #[test]
    fn failures_report_the_seed() {
        let result = catch_unwind(|| {
            cases(16, |g| {
                let x = g.f64();
                assert!(x < 0.5, "drew {x}");
            });
        });
        let payload = result.unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.contains("VMPROV_CHECK_SEED="), "{msg}");
    }

    #[test]
    fn mangle_stays_near_the_input() {
        let valid = b"time,count,spread\n0,1,0\n";
        cases(256, |g| {
            let out = g.mangle(valid);
            assert!(out.len() <= 256 + valid.len(), "len {}", out.len());
        });
        assert!(Gen::new(0).mangle(b"").len() <= 256);
    }

    #[test]
    fn chance_is_calibrated() {
        let mut g = Gen::new(4);
        let hits = (0..10_000).filter(|_| g.chance(0.3)).count();
        assert!((2_700..3_300).contains(&hits), "hits {hits}");
    }
}
