//! Small special-function toolbox needed by the distribution code:
//! log-gamma and gamma.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 over the positive reals, which is ample for
/// distribution moments.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Coefficients from Numerical Recipes (Lanczos, g = 7), kept at
    // the reference precision.
    #[allow(clippy::excessive_precision)]
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_93,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_13,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_571_6e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1-x) = π / sin(πx)
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// The gamma function Γ(x) for x > 0.
pub fn gamma(x: f64) -> f64 {
    ln_gamma(x).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (n, &f) in facts.iter().enumerate() {
            let g = gamma(n as f64 + 1.0);
            assert!((g - f).abs() / f < 1e-12, "Γ({}) = {g}, want {f}", n + 1);
        }
    }

    #[test]
    fn gamma_half() {
        // Γ(1/2) = sqrt(π)
        let g = gamma(0.5);
        let want = std::f64::consts::PI.sqrt();
        assert!((g - want).abs() < 1e-12);
        // Γ(3/2) = sqrt(π)/2
        let g = gamma(1.5);
        assert!((g - want / 2.0).abs() < 1e-12);
    }

    #[test]
    fn recurrence_holds() {
        // Γ(x+1) = x Γ(x) across a range of x
        for i in 1..50 {
            let x = i as f64 * 0.37;
            let lhs = gamma(x + 1.0);
            let rhs = x * gamma(x);
            assert!((lhs - rhs).abs() / rhs < 1e-11, "x = {x}");
        }
    }
}
