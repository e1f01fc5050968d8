//! M/M/1/K: the paper's model of a single virtualized application
//! instance (§IV-B). Capacity K counts *everyone in the system* — the
//! request in service plus those queued — matching the paper's admission
//! rule: a request arriving when an instance already holds
//! k = ⌊Ts/Tr⌋ requests is rejected, which caps the response time of any
//! accepted request at roughly k service times ≤ Ts.

use crate::{check_positive, QueueError, QueueMetrics};

/// An M/M/1/K queue: arrival rate `lambda`, service rate `mu`, at most
/// `k` requests in the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MM1K {
    lambda: f64,
    mu: f64,
    k: u32,
}

/// Scaled geometric sums over the truncated state space, all divided by
/// a common (implicit) scale factor so their ratios are the quantities
/// of interest: `p₀ = w0/s`, `p_n = wn/s`, `p_K = wk/s`, `L = sn/s`.
struct GeomSums {
    /// Σ ρⁿ for n = 0..=K.
    s: f64,
    /// Σ n·ρⁿ for n = 0..=K.
    sn: f64,
    /// The ρ⁰ term (1 before any rescale).
    w0: f64,
    /// The ρ^target term.
    wn: f64,
    /// The ρ^K term.
    wk: f64,
}

/// Rescale the running sums whenever the current term exceeds this, so
/// deep-overload cases (large ρ, large K) never overflow: only the
/// *ratios* of the sums are meaningful, and rescaling divides every
/// accumulator by the same factor.
const RESCALE_ABOVE: f64 = 1e280;

/// One multiply-accumulate pass over n = 0..=K computing the geometric
/// sums of the M/M/1/K balance equations. This replaces the closed
/// forms `(1−ρ)ρⁿ/(1−ρ^{K+1})` and `ρ/(1−ρ) − (K+1)ρ^{K+1}/(1−ρ^{K+1})`:
/// no `powf`, no `(1−ρ)` cancellation, and ρ = 1 is handled by the same
/// code path (every term is 1, so `s = K+1` and `L = K/2` exactly)
/// instead of an epsilon-guarded degenerate branch.
fn geometric_sums(rho: f64, k: u32, target: u32) -> GeomSums {
    let mut w = 1.0f64; // ρⁿ under the current scale
    let mut w0 = 1.0f64;
    let mut wn = 1.0f64;
    let mut s = 0.0f64;
    let mut sn = 0.0f64;
    for n in 0..=k {
        if n > 0 {
            w *= rho;
        }
        if n == target {
            wn = w;
        }
        s += w;
        sn += f64::from(n) * w;
        if w > RESCALE_ABOVE {
            let inv = 1.0 / w;
            s *= inv;
            sn *= inv;
            w0 *= inv;
            if n >= target {
                wn *= inv;
            }
            w = 1.0;
        }
    }
    GeomSums {
        s,
        sn,
        w0,
        wn,
        wk: w,
    }
}

impl MM1K {
    /// Creates the model. `k ≥ 1`; rates positive and finite.
    pub fn new(lambda: f64, mu: f64, k: u32) -> Result<Self, QueueError> {
        check_positive("lambda", lambda)?;
        check_positive("mu", mu)?;
        if k == 0 {
            return Err(QueueError::InvalidParameter(
                "capacity k must be at least 1".into(),
            ));
        }
        Ok(MM1K { lambda, mu, k })
    }

    /// Offered load ρ = λ/μ (may exceed 1: the finite buffer always has a
    /// steady state).
    pub fn rho(&self) -> f64 {
        self.lambda / self.mu
    }

    /// System capacity K.
    pub fn capacity(&self) -> u32 {
        self.k
    }

    /// Steady-state probability of exactly `n` in the system (`n ≤ K`),
    /// computed by the geometric recurrence (see [`geometric_sums`]).
    pub fn prob_n(&self, n: u32) -> f64 {
        assert!(n <= self.k, "state {n} exceeds capacity {}", self.k);
        let g = geometric_sums(self.rho(), self.k, n);
        g.wn / g.s
    }

    /// Blocking probability Pr(S_K): the chance an arrival finds the
    /// system full and is rejected (this is the paper's `Pr(Sk)`,
    /// Algorithm 1 line 7).
    pub fn blocking_probability(&self) -> f64 {
        let g = geometric_sums(self.rho(), self.k, self.k);
        g.wk / g.s
    }

    /// Mean number in system L.
    pub fn mean_in_system(&self) -> f64 {
        let g = geometric_sums(self.rho(), self.k, 0);
        g.sn / g.s
    }

    /// Full steady-state metrics. Always well-defined (finite buffer).
    ///
    /// `mean_response_time` is the expected response of an *accepted*
    /// request (this is the paper's `Tq`, Algorithm 1 line 8).
    ///
    /// One recurrence pass supplies every state sum, so this is O(K)
    /// with three flops per state — no `powf`, and no loss of precision
    /// as ρ → 1 (the old closed form divided two cancelling
    /// near-zeros).
    pub fn metrics(&self) -> QueueMetrics {
        let g = geometric_sums(self.rho(), self.k, 0);
        let pk = g.wk / g.s;
        let l = g.sn / g.s;
        let lambda_eff = self.lambda * (1.0 - pk);
        let busy = 1.0 - g.w0 / g.s;
        let (w, wq, lq) = if lambda_eff > 0.0 {
            let w = l / lambda_eff;
            let wq = w - 1.0 / self.mu;
            (w, wq.max(0.0), (l - busy).max(0.0))
        } else {
            (0.0, 0.0, 0.0)
        };
        QueueMetrics {
            utilization: busy,
            mean_in_system: l,
            mean_waiting: lq,
            mean_response_time: w,
            mean_waiting_time: wq,
            throughput: lambda_eff,
            blocking_probability: pk,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k1_is_erlang_loss_with_one_server() {
        // M/M/1/1: blocking = ρ/(1+ρ) (Erlang B with c = 1).
        let q = MM1K::new(2.0, 1.0, 1).unwrap();
        assert!((q.blocking_probability() - 2.0 / 3.0).abs() < 1e-12);
        let m = q.metrics();
        // Accepted requests never wait.
        assert!((m.mean_response_time - 1.0).abs() < 1e-12);
        assert!(m.mean_waiting_time.abs() < 1e-12);
        m.validate().unwrap();
    }

    #[test]
    fn probabilities_sum_to_one() {
        for rho in [0.2, 0.8, 1.0, 1.3, 5.0] {
            let q = MM1K::new(rho, 1.0, 7).unwrap();
            let total: f64 = (0..=7).map(|n| q.prob_n(n)).sum();
            assert!((total - 1.0).abs() < 1e-10, "rho = {rho}");
        }
    }

    #[test]
    fn critically_loaded_is_uniform() {
        let q = MM1K::new(1.0, 1.0, 4).unwrap();
        for n in 0..=4 {
            assert!((q.prob_n(n) - 0.2).abs() < 1e-9);
        }
        assert!((q.mean_in_system() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn paper_scenario_k2() {
        // Both evaluation scenarios have k = ⌊Ts/Tr⌋ = 2. At ρ = 0.8 the
        // raw M/M/1/2 blocks heavily — the observation driving our
        // dispatch-aware backend (see DESIGN.md).
        let q = MM1K::new(0.8, 1.0, 2).unwrap();
        let pk = q.blocking_probability();
        let want = 0.64 * 0.2 / (1.0 - 0.512);
        assert!((pk - want).abs() < 1e-12);
        assert!(pk > 0.25, "k=2 blocking at rho=0.8 is large: {pk}");
        // Response of accepted requests stays below 2 service times.
        let m = q.metrics();
        assert!(m.mean_response_time < 2.0);
        m.validate().unwrap();
    }

    #[test]
    fn converges_to_mm1_for_large_k() {
        // M/M/1 closed form at ρ = 0.7, μ = 1: L = ρ/(1−ρ), W = 1/(μ−λ),
        // U = ρ.
        let (lambda, mu) = (0.7, 1.0);
        let rho = lambda / mu;
        let fin = MM1K::new(lambda, mu, 200).unwrap().metrics();
        assert!(fin.blocking_probability < 1e-20);
        assert!((fin.mean_in_system - rho / (1.0 - rho)).abs() < 1e-9);
        assert!((fin.mean_response_time - 1.0 / (mu - lambda)).abs() < 1e-9);
        assert!((fin.utilization - rho).abs() < 1e-9);
    }

    #[test]
    fn blocking_monotone_in_lambda() {
        let mut prev = 0.0;
        for i in 1..50 {
            let lambda = i as f64 * 0.1;
            let q = MM1K::new(lambda, 1.0, 5).unwrap();
            let b = q.blocking_probability();
            assert!(b >= prev, "blocking must grow with load");
            prev = b;
        }
    }

    #[test]
    fn throughput_bounded_by_service_rate() {
        for lambda in [0.5, 1.0, 2.0, 10.0] {
            let m = MM1K::new(lambda, 1.0, 3).unwrap().metrics();
            assert!(m.throughput <= 1.0 + 1e-12);
            assert!((m.throughput - m.utilization).abs() < 1e-9); // λ_eff = μ·busy
            m.validate().unwrap();
        }
    }

    #[test]
    fn overload_saturates() {
        let m = MM1K::new(100.0, 1.0, 4).unwrap().metrics();
        assert!(m.blocking_probability > 0.98);
        assert!((m.mean_in_system - 4.0).abs() < 0.05);
        m.validate().unwrap();
    }

    #[test]
    fn rejects_zero_capacity() {
        assert!(MM1K::new(1.0, 1.0, 0).is_err());
    }

    #[test]
    fn deep_overload_does_not_overflow() {
        // ρ^K ≈ 10^3000 would overflow f64 without the rescaling pass.
        // Blocking is 1 − 1/ρ (one departure admits one arrival), so
        // compare against that, not a hard 0.999999 cutoff.
        let m = MM1K::new(1e6, 1.0, 500).unwrap().metrics();
        assert!((m.blocking_probability - (1.0 - 1e-6)).abs() < 1e-9);
        assert!((m.mean_in_system - 500.0).abs() < 1e-5);
        m.validate().unwrap();
    }

    #[test]
    fn recurrence_matches_closed_form_across_rho_grid() {
        // The textbook closed forms the recurrence replaced, including
        // their ρ ≈ 1 degenerate branch. Away from the critical point
        // both are well-conditioned, so they must agree tightly.
        fn closed_prob_n(rho: f64, k: u32, n: u32) -> f64 {
            let kp1 = f64::from(k) + 1.0;
            if (rho - 1.0).abs() < 1e-12 {
                return 1.0 / kp1;
            }
            (1.0 - rho) * rho.powi(n as i32) / (1.0 - rho.powf(kp1))
        }
        fn closed_mean(rho: f64, k: u32) -> f64 {
            let kp1 = f64::from(k) + 1.0;
            if (rho - 1.0).abs() < 1e-12 {
                return f64::from(k) / 2.0;
            }
            rho / (1.0 - rho) - kp1 * rho.powf(kp1) / (1.0 - rho.powf(kp1))
        }
        for k in [1u32, 2, 5, 10, 50] {
            for rho in [0.05, 0.3, 0.5, 0.8, 0.95, 0.999, 1.0, 1.001, 1.1, 1.5, 3.0] {
                let q = MM1K::new(rho, 1.0, k).unwrap();
                let mut total = 0.0;
                for n in 0..=k {
                    let got = q.prob_n(n);
                    let want = closed_prob_n(rho, k, n);
                    assert!(
                        (got - want).abs() < 1e-9,
                        "p_n mismatch at rho={rho} k={k} n={n}: {got} vs {want}"
                    );
                    total += got;
                }
                assert!((total - 1.0).abs() < 1e-9, "rho={rho} k={k}");
                let (got_l, want_l) = (q.mean_in_system(), closed_mean(rho, k));
                assert!(
                    (got_l - want_l).abs() < 1e-7,
                    "L mismatch at rho={rho} k={k}: {got_l} vs {want_l}"
                );
            }
        }
    }

    #[test]
    fn near_critical_is_smooth() {
        // ρ → 1 must approach the uniform limit continuously; the old
        // closed form divided two cancelling near-zeros here and needed
        // an epsilon-guarded special case.
        let at = |rho: f64| MM1K::new(rho, 1.0, 10).unwrap().blocking_probability();
        let limit = at(1.0);
        assert!((limit - 1.0 / 11.0).abs() < 1e-15, "limit {limit}");
        for eps in [1e-8, 1e-10, 1e-12, 1e-14] {
            assert!((at(1.0 - eps) - limit).abs() < 1e-7, "eps {eps}");
            assert!((at(1.0 + eps) - limit).abs() < 1e-7, "eps {eps}");
        }
    }
}
