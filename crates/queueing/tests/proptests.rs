//! Property-based tests of the analytical queueing models.

use vmprov_check::{cases, Gen};
use vmprov_queueing::{GiM1K, InterarrivalKind, GG1K, MM1K};

/// Generic finite birth–death solver: the oracle the M/M/1/k closed
/// form is checked against.
mod birth_death {
    use vmprov_queueing::QueueError;

    /// Stationary distribution of the chain with states `0..=n`, birth
    /// rates `births[i]` (rate out of state `i` up) and death rates
    /// `deaths[i]` (rate out of state `i + 1` down). Products are
    /// accumulated in log space so long chains with extreme rate ratios
    /// do not overflow.
    pub fn stationary(births: &[f64], deaths: &[f64]) -> Result<Vec<f64>, QueueError> {
        if births.len() != deaths.len() {
            return Err(QueueError::InvalidParameter(
                "births and deaths must have equal length".into(),
            ));
        }
        for (i, (&b, &d)) in births.iter().zip(deaths).enumerate() {
            if b < 0.0 || !b.is_finite() {
                return Err(QueueError::InvalidParameter(format!(
                    "birth rate at state {i} is {b}"
                )));
            }
            if d <= 0.0 || !d.is_finite() {
                return Err(QueueError::InvalidParameter(format!(
                    "death rate into state {i} is {d}"
                )));
            }
        }
        // log π_i ∝ Σ_{j<i} ln(b_j / d_j); normalise with log-sum-exp.
        let mut log_unnorm = Vec::with_capacity(births.len() + 1);
        log_unnorm.push(0.0f64);
        let mut acc = 0.0f64;
        for (&b, &d) in births.iter().zip(deaths) {
            if b == 0.0 {
                // States beyond an absorbing-from-below boundary get -inf.
                acc = f64::NEG_INFINITY;
            } else {
                acc += (b / d).ln();
            }
            log_unnorm.push(acc);
        }
        let max = log_unnorm.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mut pi: Vec<f64> = log_unnorm.iter().map(|&l| (l - max).exp()).collect();
        let s: f64 = pi.iter().sum();
        if !s.is_finite() || s <= 0.0 {
            return Err(QueueError::Numerical("normalisation failed".into()));
        }
        for p in &mut pi {
            *p /= s;
        }
        Ok(pi)
    }
}

#[test]
fn mm1k_equals_generic_birth_death() {
    cases(128, |g: &mut Gen| {
        let lambda = g.f64_in(0.01..20.0);
        let mu = g.f64_in(0.01..20.0);
        let k = g.u32_in(1..30);
        let births = vec![lambda; k as usize];
        let deaths = vec![mu; k as usize];
        let pi = birth_death::stationary(&births, &deaths).unwrap();
        let model = MM1K::new(lambda, mu, k).unwrap();
        for n in 0..=k {
            assert!(
                (pi[n as usize] - model.prob_n(n)).abs() < 1e-9,
                "state {n}: {} vs {}",
                pi[n as usize],
                model.prob_n(n)
            );
        }
    });
}

#[test]
fn gim1k_blocking_decreases_with_stages() {
    cases(128, |g: &mut Gen| {
        let lambda = g.f64_in(0.05..2.0);
        let k = g.u32_in(1..10);
        let stages = g.u32_in(1..50);
        let a = GiM1K::new(lambda, 1.0, k, InterarrivalKind::Erlang { stages })
            .unwrap()
            .blocking_probability();
        let b = GiM1K::new(
            lambda,
            1.0,
            k,
            InterarrivalKind::Erlang { stages: stages + 1 },
        )
        .unwrap()
        .blocking_probability();
        assert!(b <= a + 1e-9, "stages {stages}: {a} -> {b}");
    });
}

#[test]
fn gim1k_deterministic_is_the_smooth_limit() {
    cases(128, |g: &mut Gen| {
        let lambda = g.f64_in(0.05..2.0);
        let k = g.u32_in(1..8);
        let det = GiM1K::new(lambda, 1.0, k, InterarrivalKind::Deterministic)
            .unwrap()
            .blocking_probability();
        let e200 = GiM1K::new(lambda, 1.0, k, InterarrivalKind::Erlang { stages: 200 })
            .unwrap()
            .blocking_probability();
        assert!(det <= e200 + 1e-6);
        assert!((det - e200).abs() < 0.02);
    });
}

#[test]
fn gg1k_blocking_monotone_in_capacity() {
    cases(128, |g: &mut Gen| {
        let rho = g.f64_in(0.05..2.5);
        let ca2 = g.f64_in(0.0..2.0);
        let cs2 = g.f64_in(0.0..2.0);
        let k = g.u32_in(1..15);
        let a = GG1K::new(rho, 1.0, ca2, cs2, k)
            .unwrap()
            .blocking_probability();
        let b = GG1K::new(rho, 1.0, ca2, cs2, k + 1)
            .unwrap()
            .blocking_probability();
        assert!(b <= a + 1e-9, "k {k}: {a} -> {b}");
    });
}

#[test]
fn gg1k_blocking_monotone_in_variability() {
    cases(128, |g: &mut Gen| {
        let rho = g.f64_in(0.05..0.99);
        let ca2 = g.f64_in(0.0..1.0);
        let cs2 = g.f64_in(0.0..1.0);
        let bump = g.f64_in(0.0..1.0);
        let k = g.u32_in(1..10);
        // Subcritical: more variability, more blocking.
        let a = GG1K::new(rho, 1.0, ca2, cs2, k)
            .unwrap()
            .blocking_probability();
        let b = GG1K::new(rho, 1.0, ca2 + bump, cs2, k)
            .unwrap()
            .blocking_probability();
        assert!(b >= a - 1e-12);
    });
}

#[test]
fn birth_death_always_normalises() {
    cases(128, |g: &mut Gen| {
        let rates = g.vec(1..80, |g| (g.f64_in(0.0..10.0), g.f64_in(0.01..10.0)));
        let births: Vec<f64> = rates.iter().map(|&(b, _)| b).collect();
        let deaths: Vec<f64> = rates.iter().map(|&(_, d)| d).collect();
        let pi = birth_death::stationary(&births, &deaths).unwrap();
        let total: f64 = pi.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(pi.iter().all(|&p| p >= 0.0));
    });
}
