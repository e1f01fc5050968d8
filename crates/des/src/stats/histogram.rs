//! Constant-space quantile tracking via a log-scaled histogram.
//!
//! Response-time distributions span orders of magnitude, so buckets are
//! spaced geometrically: each bucket is `growth` times wider than the
//! previous. Quantile estimates are exact to within one bucket's relative
//! width (default 1%).

/// Streaming histogram with geometrically spaced buckets over
/// `[min_value, max_value]`, plus underflow/overflow buckets.
#[derive(Debug, Clone)]
pub struct LogHistogram {
    min_value: f64,
    log_min: f64,
    inv_log_growth: f64,
    log_growth: f64,
    counts: Vec<u64>,
    underflow: u64,
    overflow: u64,
    total: u64,
    /// Bucket position of the mantissa grid points `1 + i/256`,
    /// `i = 0..=256` — `ln(1 + i/256) / log_growth`, the per-exponent
    /// boundary table of the bit-index fast path. Pre-scaled so the hot
    /// loop interpolates directly in bucket units; a fixed-size boxed
    /// array (not a `Vec`) so the masked 8-bit index needs no bounds
    /// check.
    mant_pos: Box<[f64; MANT_TABLE_LEN]>,
    /// `ln(2) / log_growth`: buckets per power of two.
    exp_pos: f64,
    /// `ln(min_value) / log_growth`: bucket position of the histogram
    /// floor, subtracted from every interpolated position.
    min_pos: f64,
    /// Half-width (in bucket units) of the edge band inside which the
    /// fast path defers to the exact `ln()` computation.
    index_guard: f64,
}

/// Mantissa bits consumed by the `mant_pos` table index; the remaining
/// low bits interpolate linearly between adjacent entries.
const MANT_TABLE_BITS: u32 = 8;

/// Entries in `mant_pos`: one per grid point plus the closing boundary,
/// so interpolation at the last grid cell reads `[hi]` and `[hi + 1]`
/// without wrapping.
const MANT_TABLE_LEN: usize = (1 << MANT_TABLE_BITS) + 1;

/// Bound on the interpolation error of `mant_pos` (in `ln` units):
/// `h²·max|f″|/8` for
/// `f = ln` on `[1, 2)` with `h = 2⁻⁸` is `1.9·10⁻⁶`; doubled to cover
/// table rounding and the affine-map arithmetic.
const MANT_LN_ERR: f64 = 4e-6;

impl LogHistogram {
    /// Creates a histogram covering `[min_value, max_value]` with buckets
    /// growing by `rel_width` (e.g. `0.01` → 1%-wide buckets).
    ///
    /// # Panics
    /// Panics unless `0 < min_value < max_value` and `rel_width > 0`.
    pub fn new(min_value: f64, max_value: f64, rel_width: f64) -> Self {
        assert!(min_value > 0.0 && max_value > min_value && rel_width > 0.0);
        let log_growth = (1.0 + rel_width).ln();
        let n_buckets = ((max_value / min_value).ln() / log_growth).ceil() as usize + 1;
        let inv_log_growth = 1.0 / log_growth;
        let table = 1usize << MANT_TABLE_BITS;
        let mut mant_pos = Box::new([0.0; MANT_TABLE_LEN]);
        for (i, slot) in mant_pos.iter_mut().enumerate() {
            *slot = (1.0 + i as f64 / table as f64).ln() * inv_log_growth;
        }
        LogHistogram {
            min_value,
            log_min: min_value.ln(),
            inv_log_growth,
            log_growth,
            counts: vec![0; n_buckets],
            underflow: 0,
            overflow: 0,
            total: 0,
            mant_pos,
            exp_pos: core::f64::consts::LN_2 * inv_log_growth,
            min_pos: min_value.ln() * inv_log_growth,
            // When buckets are so narrow that the band covers them
            // entirely (guard ≥ ½), every record takes the exact path —
            // correct at any resolution, fast at practical ones.
            index_guard: MANT_LN_ERR * inv_log_growth + 1e-9,
        }
    }

    /// Histogram suitable for latencies from 1 µs to ~3 hours at 1%
    /// resolution (~1 640 buckets).
    pub fn for_latencies() -> Self {
        Self::new(1e-6, 1.2e4, 0.01)
    }

    /// Records one observation.
    ///
    /// `inline(always)`: this is the per-request bucket increment, and
    /// its bit-index body is designed to overlap with the caller's
    /// Welford division chain — behind a call boundary (which LLVM
    /// picks once the caller has several `record` sites) that overlap
    /// is lost and the increment costs ~2× more per sample.
    #[inline(always)]
    pub fn record(&mut self, x: f64) {
        self.total += 1;
        if x < self.min_value {
            self.underflow += 1;
            return;
        }
        let idx = self.index_of(x);
        if idx >= self.counts.len() {
            self.overflow += 1;
        } else {
            self.counts[idx] += 1;
        }
    }

    /// Bucket index of `x ≥ min_value` — the HDR-style bit-index fast
    /// path. The f64 exponent and top mantissa bits give an interpolated
    /// bucket position accurate to [`MANT_LN_ERR`] (in `ln` units); when
    /// the position lands within `index_guard` buckets of an edge (or
    /// `x` is subnormal / non-finite), the exact
    /// [`ln_index`](Self::ln_index) decides instead. The result
    /// therefore equals the `ln()` path for **every** input — pinned by
    /// the edge-straddling property test — while the guard band catches
    /// well under 1% of real samples.
    ///
    /// The body is branch-light and call-free on purpose: the edge test
    /// compares the truncated fraction against both bucket edges
    /// directly (no `round()`, which lowers to a libm call on baseline
    /// x86-64), the table index is masked to 8 bits so the fixed-size
    /// array access needs no bounds check, and the pre-scaled
    /// [`mant_pos`](Self::mant_pos)/[`exp_pos`](Self::exp_pos) terms
    /// drop the final rescale multiply.
    #[inline(always)]
    fn index_of(&self, x: f64) -> usize {
        let bits = x.to_bits();
        let exp = (bits >> 52) & 0x7FF;
        if exp == 0 || exp == 0x7FF {
            return self.ln_index(x);
        }
        let e = exp as i64 - 1023;
        const LOW_BITS: u32 = 52 - MANT_TABLE_BITS;
        let mant = bits & ((1u64 << 52) - 1);
        let hi = ((mant >> LOW_BITS) & ((1 << MANT_TABLE_BITS) - 1)) as usize;
        let frac = (mant & ((1u64 << LOW_BITS) - 1)) as f64 / (1u64 << LOW_BITS) as f64;
        let lo_pos = self.mant_pos[hi];
        let mant_pos = lo_pos + frac * (self.mant_pos[hi + 1] - lo_pos);
        let pos = e as f64 * self.exp_pos + mant_pos - self.min_pos;
        // Truncation is floor for the in-range positions (`pos` can dip
        // below zero only by the approximation error, where the cast
        // saturates to 0 and the negative fraction falls in the lower
        // guard band).
        let idx = pos as usize;
        let off = pos - idx as f64;
        if off < self.index_guard || off > 1.0 - self.index_guard {
            return self.ln_index(x);
        }
        idx
    }

    /// The original `ln()`-based bucket index: the reference the fast
    /// path must match exactly, and its fallback near bucket edges.
    #[inline]
    fn ln_index(&self, x: f64) -> usize {
        ((x.ln() - self.log_min) * self.inv_log_growth) as usize
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Estimates the `q`-quantile (`0 <= q <= 1`). Returns `None` when
    /// empty. Underflow resolves to `min_value`; overflow to the top edge.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range");
        if self.total == 0 {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = self.underflow;
        if seen >= target {
            return Some(self.min_value);
        }
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                // Geometric midpoint of the bucket.
                let lo = self.log_min + i as f64 * self.log_growth;
                return Some((lo + 0.5 * self.log_growth).exp());
            }
        }
        Some((self.log_min + self.counts.len() as f64 * self.log_growth).exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_uniform_grid() {
        let mut h = LogHistogram::new(1.0, 1000.0, 0.01);
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let med = h.quantile(0.5).unwrap();
        assert!((med - 500.0).abs() / 500.0 < 0.02, "median {med}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() / 990.0 < 0.02, "p99 {p99}");
        assert_eq!(h.count(), 1000);
    }

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::for_latencies();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = LogHistogram::new(1.0, 10.0, 0.1);
        h.record(0.1); // underflow
        h.record(100.0); // overflow
        h.record(5.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.quantile(0.0).unwrap(), 1.0); // underflow bucket
        assert!(h.quantile(1.0).unwrap() >= 10.0); // overflow at top edge
    }

    /// Next representable f64 above/below a positive finite value.
    fn next_up(x: f64) -> f64 {
        f64::from_bits(x.to_bits() + 1)
    }
    fn next_down(x: f64) -> f64 {
        f64::from_bits(x.to_bits() - 1)
    }

    #[test]
    fn bit_index_equals_ln_index_at_every_bucket_edge() {
        // The hard inputs for the fast path are values straddling a
        // bucket edge, where an approximation error of any size could
        // flip the bucket. Walk a ±8-ulp window across every edge of
        // the latency histogram and demand exact agreement.
        let h = LogHistogram::for_latencies();
        for i in 0..=h.counts.len() {
            let edge = (h.log_min + i as f64 * h.log_growth).exp();
            let mut x = edge;
            for _ in 0..8 {
                x = next_down(x);
            }
            for _ in 0..17 {
                assert_eq!(h.index_of(x), h.ln_index(x), "edge {i}, x = {x:e}");
                x = next_up(x);
            }
        }
    }

    #[test]
    fn bit_index_equals_ln_index_on_random_samples() {
        // Log-uniform sweep across (and past) the covered range,
        // including the under/overflow boundaries, at several bucket
        // resolutions — the 0.1% case drives index_guard near its
        // always-exact cap.
        let mut rng = crate::RngFactory::new(0x1517).stream("hist-bit-index");
        for rel_width in [0.1, 0.01, 0.001] {
            let h = LogHistogram::new(1e-6, 1.2e4, rel_width);
            for _ in 0..100_000 {
                let x = rng.uniform(-16.0, 11.0).exp();
                if x >= h.min_value {
                    assert_eq!(h.index_of(x), h.ln_index(x), "x = {x:e}, w = {rel_width}");
                }
            }
        }
    }

    #[test]
    fn bit_index_matches_ln_path_for_special_values() {
        let h = LogHistogram::for_latencies();
        for x in [f64::INFINITY, f64::MAX, f64::MIN_POSITIVE, 1e-300] {
            assert_eq!(h.index_of(x), h.ln_index(x), "x = {x:e}");
        }
        // NaN flows through `record`'s comparisons the same way on both
        // paths (not underflow; ln(NaN) casts to bucket 0).
        assert_eq!(h.index_of(f64::NAN), h.ln_index(f64::NAN));
    }

    #[test]
    fn relative_accuracy_bound() {
        // Every recorded value must be recoverable to within one bucket
        // (≈1% relative error) via a quantile query on a singleton.
        for &v in &[0.0001, 0.0123, 0.25, 1.0, 99.0, 11_000.0] {
            let mut h = LogHistogram::for_latencies();
            h.record(v);
            let q = h.quantile(0.5).unwrap();
            assert!((q - v).abs() / v < 0.011, "value {v} recovered as {q}");
        }
    }
}
