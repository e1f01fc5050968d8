//! Probability distributions for workload and service-time modelling.
//!
//! Implemented over the engine's own uniform source ([`SimRng`]) so that
//! every sampler in the repository is deterministic, documented, and
//! property-tested in one place. Each distribution exposes its analytic
//! mean and variance where a closed form exists; tests compare sample
//! moments against them.

use crate::rng::SimRng;
use crate::special::gamma;

/// A sampleable distribution over the reals.
pub trait Distribution: Send + Sync {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// Analytic mean, if finite and known.
    fn mean(&self) -> Option<f64>;

    /// Analytic variance, if finite and known.
    fn variance(&self) -> Option<f64>;
}

/// Degenerate distribution: always `value`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    /// The constant returned by every draw.
    pub value: f64,
}

impl Deterministic {
    /// Creates the point mass at `value`.
    pub fn new(value: f64) -> Self {
        Deterministic { value }
    }
}

impl Distribution for Deterministic {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }
    fn mean(&self) -> Option<f64> {
        Some(self.value)
    }
    fn variance(&self) -> Option<f64> {
        Some(0.0)
    }
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates U(lo, hi). Panics if `lo > hi` or either bound is non-finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo <= hi);
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        rng.uniform(self.lo, self.hi)
    }
    fn mean(&self) -> Option<f64> {
        Some(0.5 * (self.lo + self.hi))
    }
    fn variance(&self) -> Option<f64> {
        let w = self.hi - self.lo;
        Some(w * w / 12.0)
    }
}

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
}

impl Distribution for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        -rng.uniform01_open_left().ln() / self.rate
    }
    fn mean(&self) -> Option<f64> {
        Some(1.0 / self.rate)
    }
    fn variance(&self) -> Option<f64> {
        Some(1.0 / (self.rate * self.rate))
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
    // computed inline, so samples are bit-identical to the old code.
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
}

impl Distribution for Weibull {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.scale * (-rng.uniform01_open_left().ln()).powf(self.inv_shape)
    }
    fn mean(&self) -> Option<f64> {
        Some(self.scale * gamma(1.0 + 1.0 / self.shape))
    }
    fn variance(&self) -> Option<f64> {
        let g1 = gamma(1.0 + 1.0 / self.shape);
        let g2 = gamma(1.0 + 2.0 / self.shape);
        Some(self.scale * self.scale * (g2 - g1 * g1))
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
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.mu + self.sigma * Self::standard_sample(rng)
    }
    fn mean(&self) -> Option<f64> {
        Some(self.mu)
    }
    fn variance(&self) -> Option<f64> {
        Some(self.sigma * self.sigma)
    }
}

/// Log-normal: `exp(N(mu, sigma²))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates LogNormal with underlying normal parameters (mu, sigma).
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0 && sigma.is_finite() && mu.is_finite());
        LogNormal { mu, sigma }
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        (self.mu + self.sigma * Normal::standard_sample(rng)).exp()
    }
    fn mean(&self) -> Option<f64> {
        Some((self.mu + 0.5 * self.sigma * self.sigma).exp())
    }
    fn variance(&self) -> Option<f64> {
        let s2 = self.sigma * self.sigma;
        Some((s2.exp() - 1.0) * (2.0 * self.mu + s2).exp())
    }
}

/// Pareto (type I) with scale `x_m > 0` and shape `alpha > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    xm: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates Pareto(x_m, alpha). Panics unless both are positive.
    pub fn new(xm: f64, alpha: f64) -> Self {
        assert!(xm > 0.0 && alpha > 0.0);
        Pareto { xm, alpha }
    }
}

impl Distribution for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.xm / rng.uniform01_open_left().powf(1.0 / self.alpha)
    }
    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.xm / (self.alpha - 1.0))
    }
    fn variance(&self) -> Option<f64> {
        (self.alpha > 2.0).then(|| {
            let a = self.alpha;
            self.xm * self.xm * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        })
    }
}

/// Empirical distribution: samples uniformly from observed values.
#[derive(Debug, Clone)]
pub struct Empirical {
    values: Vec<f64>,
}

impl Empirical {
    /// Creates an empirical distribution over `values`.
    ///
    /// # Panics
    /// Panics if `values` is empty.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empirical distribution needs data");
        Empirical { values }
    }
}

impl Distribution for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.values[rng.below(self.values.len())]
    }
    fn mean(&self) -> Option<f64> {
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }
    fn variance(&self) -> Option<f64> {
        let m = self.mean()?;
        let n = self.values.len() as f64;
        Some(self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / n)
    }
}

/// Wraps a distribution so samples are clamped to `[lo, hi]`.
///
/// Used e.g. to keep noisy arrival counts non-negative. Note that
/// clamping biases the moments; `mean`/`variance` report the *underlying*
/// values and callers relying on exact moments should avoid heavy
/// truncation.
#[derive(Debug, Clone)]
pub struct Clamped<D> {
    inner: D,
    lo: f64,
    hi: f64,
}

impl<D: Distribution> Clamped<D> {
    /// Clamps `inner` to `[lo, hi]`.
    pub fn new(inner: D, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi);
        Clamped { inner, lo, hi }
    }
}

impl<D: Distribution> Distribution for Clamped<D> {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.inner.sample(rng).clamp(self.lo, self.hi)
    }
    fn mean(&self) -> Option<f64> {
        self.inner.mean()
    }
    fn variance(&self) -> Option<f64> {
        self.inner.variance()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::RngFactory;

    fn sample_moments(d: &dyn Distribution, n: usize, label: &str) -> (f64, f64) {
        let mut rng = RngFactory::new(0xD15C0).stream(label);
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            sum += x;
            sum2 += x * x;
        }
        let mean = sum / n as f64;
        (mean, sum2 / n as f64 - mean * mean)
    }

    fn check_moments(d: &dyn Distribution, label: &str, tol: f64) {
        let (m, v) = sample_moments(d, 200_000, label);
        let want_m = d.mean().unwrap();
        let want_v = d.variance().unwrap();
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
    fn deterministic_is_constant() {
        let d = Deterministic::new(3.5);
        let mut rng = RngFactory::new(1).stream("det");
        for _ in 0..10 {
            assert_eq!(d.sample(&mut rng), 3.5);
        }
        assert_eq!(d.mean(), Some(3.5));
        assert_eq!(d.variance(), Some(0.0));
    }

    #[test]
    fn uniform_moments() {
        check_moments(&Uniform::new(2.0, 8.0), "uniform", 0.01);
    }

    #[test]
    fn exponential_moments() {
        check_moments(&Exponential::new(0.25), "exp", 0.01);
        let d = Exponential::from_mean(4.0);
        assert!((d.rate() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn weibull_moments_bot_parameters() {
        // The three Weibull parameterisations used by the scientific workload.
        check_moments(&Weibull::new(4.25, 7.86), "w1", 0.01);
        check_moments(&Weibull::new(1.79, 24.16), "w2", 0.015);
        check_moments(&Weibull::new(1.76, 2.11), "w3", 0.015);
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
        // Empirical check at one point.
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
        check_moments(&Normal::new(10.0, 3.0), "normal", 0.01);
    }

    #[test]
    fn lognormal_moments() {
        check_moments(&LogNormal::new(0.0, 0.5), "lognormal", 0.02);
    }

    #[test]
    fn pareto_moments_and_infinite_variance() {
        check_moments(&Pareto::new(1.0, 4.0), "pareto", 0.03);
        assert!(Pareto::new(1.0, 1.5).mean().is_some());
        assert!(Pareto::new(1.0, 1.5).variance().is_none());
        assert!(Pareto::new(1.0, 0.5).mean().is_none());
    }

    #[test]
    fn empirical_sampling() {
        let d = Empirical::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.mean(), Some(2.5));
        let (m, _) = sample_moments(&d, 100_000, "emp");
        assert!((m - 2.5).abs() < 0.02);
        let mut rng = RngFactory::new(5).stream("emp2");
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            assert!([1.0, 2.0, 3.0, 4.0].contains(&x));
        }
    }

    #[test]
    fn clamped_respects_bounds() {
        let d = Clamped::new(Normal::new(0.0, 10.0), -1.0, 1.0);
        let mut rng = RngFactory::new(6).stream("clamp");
        for _ in 0..1_000 {
            let x = d.sample(&mut rng);
            assert!((-1.0..=1.0).contains(&x));
        }
    }

    #[test]
    fn weibull_precomputed_inv_shape_matches_inline_division() {
        // Satellite guard: the constructor precomputes `1.0 / shape`;
        // every draw must equal the old per-draw expression
        // `scale * (-ln U).powf(1.0 / shape)` bit-for-bit.
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
