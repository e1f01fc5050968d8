//! Minimal dense linear algebra: Gaussian elimination with partial
//! pivoting, sized for the small systems that arise here (the GI/M/1/K
//! embedded chain, with at most a few hundred states).

/// Solves `A x = b` in place. `a` is row-major `n × n`.
///
/// Returns `None` if the matrix is (numerically) singular.
pub fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Option<Vec<f64>> {
    let n = b.len();
    assert!(
        a.len() == n && a.iter().all(|r| r.len() == n),
        "shape mismatch"
    );
    for col in 0..n {
        // Partial pivot.
        let pivot =
            (col..n).max_by(|&i, &j| a[i][col].abs().partial_cmp(&a[j][col].abs()).unwrap())?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        b.swap(col, pivot);
        // Eliminate below.
        for row in col + 1..n {
            let f = a[row][col] / a[col][col];
            if f == 0.0 {
                continue;
            }
            let (pivot_rows, elim_rows) = a.split_at_mut(row);
            for (x, &pv) in elim_rows[0][col..].iter_mut().zip(&pivot_rows[col][col..]) {
                *x -= f * pv;
            }
            b[row] -= f * b[col];
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for k in row + 1..n {
            acc -= a[row][k] * x[k];
        }
        x[row] = acc / a[row][row];
    }
    Some(x)
}

/// Solves the stationary distribution `π P = π`, `Σ π = 1` of a
/// row-stochastic matrix `p` by replacing the last equation of
/// `(Pᵀ − I) πᵀ = 0` with the normalisation constraint.
pub fn stationary_distribution(p: &[Vec<f64>]) -> Option<Vec<f64>> {
    let n = p.len();
    assert!(p.iter().all(|r| r.len() == n), "shape mismatch");
    let mut a = vec![vec![0.0; n]; n];
    for i in 0..n {
        for j in 0..n {
            a[i][j] = p[j][i] - if i == j { 1.0 } else { 0.0 };
        }
    }
    // Normalisation replaces the (redundant) last balance equation.
    a[n - 1].fill(1.0);
    let mut b = vec![0.0; n];
    b[n - 1] = 1.0;
    let pi = solve(a, b)?;
    // Clean tiny negative round-off and renormalise.
    let mut pi: Vec<f64> = pi.into_iter().map(|x| x.max(0.0)).collect();
    let s: f64 = pi.iter().sum();
    if s <= 0.0 || !s.is_finite() {
        return None;
    }
    for x in &mut pi {
        *x /= s;
    }
    Some(pi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solves_small_system() {
        // x + 2y = 5; 3x - y = 1  →  x = 1, y = 2
        let a = vec![vec![1.0, 2.0], vec![3.0, -1.0]];
        let x = solve(a, vec![5.0, 1.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn needs_pivoting() {
        // First pivot is zero without row exchange.
        let a = vec![vec![0.0, 1.0], vec![1.0, 0.0]];
        let x = solve(a, vec![3.0, 4.0]).unwrap();
        assert!((x[0] - 4.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn detects_singular() {
        let a = vec![vec![1.0, 2.0], vec![2.0, 4.0]];
        assert!(solve(a, vec![1.0, 2.0]).is_none());
    }

    #[test]
    fn stationary_of_two_state_chain() {
        // P = [[0.9, 0.1], [0.5, 0.5]] → π = (5/6, 1/6)
        let p = vec![vec![0.9, 0.1], vec![0.5, 0.5]];
        let pi = stationary_distribution(&p).unwrap();
        assert!((pi[0] - 5.0 / 6.0).abs() < 1e-12);
        assert!((pi[1] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn stationary_of_cyclic_chain() {
        // Deterministic 3-cycle → uniform stationary distribution.
        let p = vec![
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 1.0],
            vec![1.0, 0.0, 0.0],
        ];
        let pi = stationary_distribution(&p).unwrap();
        for x in pi {
            assert!((x - 1.0 / 3.0).abs() < 1e-12);
        }
    }
}
