//! Probability distributions for workload modelling: exponential gaps
//! (Poisson traffic), Weibull (the Bag-of-Tasks model) and normal (the
//! web model's rate noise).
//!
//! Implemented over the engine's own uniform source ([`SimRng`]) so that
//! every sampler in the repository is deterministic, documented, and
//! property-tested in one place. Each type draws with an inherent
//! `sample`; the tests compare sample moments against closed forms.

use crate::rng::SimRng;
use crate::special::gamma;

/// Exponential with rate λ (mean 1/λ). Sampled by inversion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates Exp(rate). Panics unless `rate > 0` and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate > 0.0 && rate.is_finite(), "rate must be > 0");
        Exponential { rate }
    }

    /// Creates the exponential with the given mean.
    pub fn from_mean(mean: f64) -> Self {
        assert!(mean > 0.0 && mean.is_finite(), "mean must be > 0");
        Exponential { rate: 1.0 / mean }
    }

    /// The rate parameter λ.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Draws one sample by inversion: `−ln U / λ`.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.uniform01_open_left().ln() / self.rate
    }
}

/// Weibull with shape `k` and scale `λ` (the parameterisation used by the
/// Iosup et al. Bag-of-Tasks workload model). Sampled by inversion:
/// `λ · (-ln U)^{1/k}`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
    // 1/shape, precomputed at construction: `powf(inv_shape)` per draw
    // instead of a division + `powf`. Same f64 value as `1.0 / shape`
    // computed inline, so samples are bit-identical to dividing per draw.
    inv_shape: f64,
}

impl Weibull {
    /// Creates Weibull(shape, scale). Panics unless both are positive.
    pub fn new(shape: f64, scale: f64) -> Self {
        assert!(shape > 0.0 && scale > 0.0, "shape and scale must be > 0");
        Weibull {
            shape,
            scale,
            inv_shape: 1.0 / shape,
        }
    }

    /// The shape parameter k.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter λ.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The mode of the distribution (0 when shape ≤ 1).
    ///
    /// The paper's scientific-workload analyzer estimates arrival rates
    /// from distribution modes, so this is load-bearing for reproduction.
    pub fn mode(&self) -> f64 {
        if self.shape <= 1.0 {
            0.0
        } else {
            self.scale * ((self.shape - 1.0) / self.shape).powf(1.0 / self.shape)
        }
    }

    /// The mean λ·Γ(1 + 1/k).
    pub fn mean(&self) -> f64 {
        self.scale * gamma(1.0 + 1.0 / self.shape)
    }

    /// Survival function P(X > x) = exp(−(x/λ)^k).
    pub fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-(x / self.scale).powf(self.shape)).exp()
        }
    }

    /// Cumulative distribution function P(X ≤ x).
    pub fn cdf(&self, x: f64) -> f64 {
        1.0 - self.survival(x)
    }

    /// Draws one sample by inversion: `λ · (−ln U)^{1/k}`.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.scale * (-rng.uniform01_open_left().ln()).powf(self.inv_shape)
    }
}

/// Normal(μ, σ²) via the Box–Muller transform (one value per draw, so the
/// sampler is stateless and streams stay reproducible under reordering).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates N(mu, sigma²). Panics unless `sigma >= 0` and finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite() && mu.is_finite());
        Normal { mu, sigma }
    }

    /// Draws a standard normal deviate.
    #[inline]
    pub fn standard_sample(rng: &mut SimRng) -> f64 {
        let u1 = rng.uniform01_open_left();
        let u2 = rng.uniform01();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Draws one sample: `μ + σ·Z`, `Z` a standard normal deviate.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mu + self.sigma * Self::standard_sample(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    /// Compares the sample mean and variance of `sample` against the
    /// closed forms `want_m` and `want_v`.
    fn check_moments(
        mut sample: impl FnMut(&mut SimRng) -> f64,
        want_m: f64,
        want_v: f64,
        label: &str,
        tol: f64,
    ) {
        const N: usize = 200_000;
        let mut rng = RngFactory::new(0xD15C0).stream(label);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..N {
            let x = sample(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let m = sum / N as f64;
        let v = sum2 / N as f64 - m * m;
        assert!(
            (m - want_m).abs() <= tol * want_m.abs().max(1.0),
            "{label}: mean {m} vs {want_m}"
        );
        assert!(
            (v - want_v).abs() <= 4.0 * tol * want_v.abs().max(1.0),
            "{label}: var {v} vs {want_v}"
        );
    }

    #[test]
    fn exponential_moments() {
        // Exp(λ): mean 1/λ, variance 1/λ².
        let d = Exponential::new(0.25);
        check_moments(|r| d.sample(r), 4.0, 16.0, "exp", 0.01);
        let d = Exponential::from_mean(4.0);
        assert!((d.rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weibull_moments_bot_parameters() {
        // The three Weibull parameterisations used by the scientific
        // workload. W(k, λ): mean λΓ(1+1/k), variance λ²(Γ(1+2/k) − Γ(1+1/k)²).
        for (shape, scale, label, tol) in [
            (4.25, 7.86, "w1", 0.01),
            (1.79, 24.16, "w2", 0.015),
            (1.76, 2.11, "w3", 0.015),
        ] {
            let d = Weibull::new(shape, scale);
            let g1 = gamma(1.0 + 1.0 / shape);
            let g2 = gamma(1.0 + 2.0 / shape);
            let var = scale * scale * (g2 - g1 * g1);
            check_moments(|r| d.sample(r), d.mean(), var, label, tol);
        }
    }

    #[test]
    fn weibull_modes_match_paper() {
        // §V-B2: mode of W(4.25, 7.86) interarrival is 7.379 s.
        let m = Weibull::new(4.25, 7.86).mode();
        assert!((m - 7.379).abs() < 5e-3, "interarrival mode {m}");
        // Mode of the size-class distribution W(1.76, 2.11) is ~1.309.
        let m = Weibull::new(1.76, 2.11).mode();
        assert!((m - 1.309).abs() < 5e-3, "size-class mode {m}");
        // Shape <= 1 has mode 0.
        assert_eq!(Weibull::new(0.9, 1.0).mode(), 0.0);
    }

    #[test]
    fn weibull_survival_and_cdf() {
        let d = Weibull::new(1.76, 2.11);
        assert_eq!(d.survival(0.0), 1.0);
        assert_eq!(d.survival(-1.0), 1.0);
        assert!((d.survival(2.11) - (-1.0f64).exp()).abs() < 1e-12);
        assert!((d.cdf(2.11) + d.survival(2.11) - 1.0).abs() < 1e-15);
        // Monte Carlo check at one point.
        let mut rng = RngFactory::new(21).stream("wsf");
        let n = 100_000;
        let over = (0..n).filter(|_| d.sample(&mut rng) > 3.0).count();
        let p = over as f64 / n as f64;
        assert!(
            (p - d.survival(3.0)).abs() < 0.01,
            "{p} vs {}",
            d.survival(3.0)
        );
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 3.0);
        check_moments(|r| d.sample(r), 10.0, 9.0, "normal", 0.01);
    }

    #[test]
    fn weibull_precomputed_inv_shape_matches_inline_division() {
        // The constructor precomputes `1.0 / shape`; every draw must
        // equal the per-draw expression `scale * (-ln U).powf(1.0 /
        // shape)` bit-for-bit.
        for (shape, scale) in [(4.25, 7.86), (1.79, 24.16), (1.76, 2.11), (0.9, 1.0)] {
            let d = Weibull::new(shape, scale);
            let mut rng = RngFactory::new(0x57A7).stream("weibull-inv-shape");
            let mut reference = rng.clone();
            for _ in 0..10_000 {
                let got = d.sample(&mut rng);
                let want = scale * (-reference.uniform01_open_left().ln()).powf(1.0 / shape);
                assert_eq!(got.to_bits(), want.to_bits(), "shape {shape} scale {scale}");
            }
        }
    }

    #[test]
    fn exponential_tail_probability() {
        // P(X > t) = exp(-λ t): check at one point.
        let d = Exponential::new(2.0);
        let mut rng = RngFactory::new(7).stream("tail");
        let n = 200_000;
        let over = (0..n).filter(|_| d.sample(&mut rng) > 1.0).count();
        let p = over as f64 / n as f64;
        let want = (-2.0f64).exp();
        assert!((p - want).abs() < 0.005, "tail {p} vs {want}");
    }
}
