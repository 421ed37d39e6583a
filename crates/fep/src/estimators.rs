//! Free-energy estimators: exponential averaging (Zwanzig) and the
//! Bennett acceptance ratio (BAR).
//!
//! Copernicus ships a BAR plugin (§5 of the paper); this module is its
//! statistical core. Conventions: `w_forward[i] = U_B(x) − U_A(x)` for
//! configurations sampled in state A, `w_reverse[j] = U_A(x) − U_B(x)`
//! for configurations sampled in state B, and the estimated quantity is
//! `ΔF = F_B − F_A`. All energies are in units of 1/β (set `beta`
//! accordingly).

/// Zwanzig / exponential-averaging (one-sided FEP) estimate:
/// `ΔF = −(1/β) ln ⟨exp(−β w)⟩`.
///
/// Uses a max-shift for numerical stability. Biased for small overlap —
/// that is exactly why the paper's plugin uses BAR.
pub fn zwanzig(w_forward: &[f64], beta: f64) -> f64 {
    assert!(!w_forward.is_empty(), "no work samples");
    assert!(beta > 0.0);
    let min_w = w_forward.iter().copied().fold(f64::INFINITY, f64::min);
    let sum: f64 = w_forward
        .iter()
        .map(|&w| (-beta * (w - min_w)).exp())
        .sum();
    min_w - (sum / w_forward.len() as f64).ln() / beta
}

/// Result of a BAR estimate.
#[derive(Debug, Clone, Copy)]
pub struct BarResult {
    /// Estimated free-energy difference `F_B − F_A`.
    pub delta_f: f64,
    /// Asymptotic standard error (Bennett's variance formula).
    pub std_err: f64,
    /// Number of self-consistency iterations (bisection steps) used.
    pub iterations: usize,
}

/// Bennett acceptance ratio: solves the self-consistent equation
///
/// `Σ_F g(β(w_F − ΔF) + ln(n_F/n_R)) = Σ_R g(β(w_R + ΔF) + ln(n_R/n_F))`
///
/// with the Fermi function `g(x) = 1/(1+eˣ)`, by bisection on ΔF (the
/// objective is strictly monotonic).
pub fn bar(w_forward: &[f64], w_reverse: &[f64], beta: f64) -> BarResult {
    assert!(
        !w_forward.is_empty() && !w_reverse.is_empty(),
        "BAR needs samples in both directions"
    );
    assert!(beta > 0.0);
    let n_f = w_forward.len() as f64;
    let n_r = w_reverse.len() as f64;
    let log_ratio = (n_f / n_r).ln();

    let objective = |df: f64| -> f64 {
        let lhs: f64 = w_forward
            .iter()
            .map(|&w| fermi(beta * (w - df) + log_ratio))
            .sum();
        let rhs: f64 = w_reverse
            .iter()
            .map(|&w| fermi(beta * (w + df) - log_ratio))
            .sum();
        lhs - rhs
    };

    // Bracket the root: the Zwanzig estimates from both directions bound
    // the BAR answer in well-behaved cases; widen until the sign changes.
    let f_fwd = zwanzig(w_forward, beta);
    let f_rev = -zwanzig(w_reverse, beta);
    let mut lo = f_fwd.min(f_rev) - 1.0;
    let mut hi = f_fwd.max(f_rev) + 1.0;
    // The objective is strictly increasing in ΔF: widen the bracket until
    // objective(lo) < 0 < objective(hi).
    let mut guard = 0;
    while objective(lo) > 0.0 && guard < 200 {
        lo -= (hi - lo).max(1.0);
        guard += 1;
    }
    while objective(hi) < 0.0 && guard < 400 {
        hi += (hi - lo).max(1.0);
        guard += 1;
    }

    let mut iterations = 0;
    for _ in 0..200 {
        iterations += 1;
        let mid = 0.5 * (lo + hi);
        if objective(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo).abs() < 1e-12 {
            break;
        }
    }
    let delta_f = 0.5 * (lo + hi);

    // Bennett's asymptotic variance: using the Fermi weights at the
    // solution, var(βΔF) = ⟨g²⟩/⟨g⟩² − 1 summed over both ensembles
    // divided by sample counts.
    let var_of = |gs: &[f64]| -> f64 {
        let n = gs.len() as f64;
        let mean = gs.iter().sum::<f64>() / n;
        let mean_sq = gs.iter().map(|g| g * g).sum::<f64>() / n;
        if mean > 0.0 {
            (mean_sq / (mean * mean) - 1.0) / n
        } else {
            f64::INFINITY
        }
    };
    let g_fwd: Vec<f64> = w_forward
        .iter()
        .map(|&w| fermi(beta * (w - delta_f) + log_ratio))
        .collect();
    let g_rev: Vec<f64> = w_reverse
        .iter()
        .map(|&w| fermi(beta * (w + delta_f) - log_ratio))
        .collect();
    let var = (var_of(&g_fwd) + var_of(&g_rev)).max(0.0) / (beta * beta);

    BarResult {
        delta_f,
        std_err: var.sqrt(),
        iterations,
    }
}

#[inline]
fn fermi(x: f64) -> f64 {
    // Stable for large |x|.
    if x > 0.0 {
        let e = (-x).exp();
        e / (1.0 + e)
    } else {
        1.0 / (1.0 + x.exp())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harmonic::HarmonicPerturbation;
    use mdsim::rng_from_seed;

    #[test]
    fn zwanzig_constant_work_is_exact() {
        // If w is constant, ΔF = w exactly, any β.
        let w = vec![1.7; 100];
        assert!((zwanzig(&w, 1.0) - 1.7).abs() < 1e-12);
        assert!((zwanzig(&w, 2.5) - 1.7).abs() < 1e-12);
    }

    #[test]
    fn zwanzig_is_stable_for_large_works() {
        let w = vec![1000.0, 1001.0];
        let f = zwanzig(&w, 1.0);
        assert!(f.is_finite());
        assert!(f < 1000.7 && f > 999.0);
    }

    #[test]
    fn fermi_is_stable_and_symmetric() {
        assert!((fermi(0.0) - 0.5).abs() < 1e-15);
        assert!(fermi(800.0) >= 0.0 && fermi(800.0) < 1e-300_f64.max(1e-200));
        assert!((fermi(-800.0) - 1.0).abs() < 1e-15);
        assert!((fermi(2.0) + fermi(-2.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn bar_recovers_harmonic_delta_f() {
        let system = HarmonicPerturbation::new(1.0, 4.0, 1.0);
        let mut rng = rng_from_seed(11);
        let wf = system.sample_forward(20_000, &mut rng);
        let wr = system.sample_reverse(20_000, &mut rng);
        let result = bar(&wf, &wr, 1.0);
        let exact = system.analytic_delta_f();
        assert!(
            (result.delta_f - exact).abs() < 4.0 * result.std_err.max(0.01),
            "BAR {} vs exact {exact} (σ = {})",
            result.delta_f,
            result.std_err
        );
        assert!(result.std_err > 0.0 && result.std_err < 0.05);
    }

    #[test]
    fn bar_beats_zwanzig_for_poor_overlap() {
        // Strong perturbation: one-sided FEP in the poor-overlap
        // direction (sampling the narrow well, evaluating the broad one —
        // the tails are never visited) is visibly biased; BAR isn't.
        let system = HarmonicPerturbation::new(1.0, 400.0, 1.0);
        let mut rng = rng_from_seed(3);
        let wf = system.sample_forward(2_000, &mut rng);
        let wr = system.sample_reverse(2_000, &mut rng);
        let exact = system.analytic_delta_f();
        let err_bar = (bar(&wf, &wr, 1.0).delta_f - exact).abs();
        let err_zw_bad = (-zwanzig(&wr, 1.0) - exact).abs();
        assert!(
            3.0 * err_bar < err_zw_bad,
            "BAR error {err_bar} should clearly beat biased one-sided FEP error {err_zw_bad}"
        );
        assert!(err_bar < 0.1, "BAR error too large: {err_bar}");
    }

    #[test]
    fn bar_is_antisymmetric() {
        // Swapping the two states flips the sign of ΔF.
        let system = HarmonicPerturbation::new(1.0, 4.0, 1.0);
        let mut rng = rng_from_seed(7);
        let wf = system.sample_forward(10_000, &mut rng);
        let wr = system.sample_reverse(10_000, &mut rng);
        let fwd = bar(&wf, &wr, 1.0).delta_f;
        let rev = bar(&wr, &wf, 1.0).delta_f;
        assert!((fwd + rev).abs() < 0.02, "fwd {fwd}, rev {rev}");
    }

    #[test]
    fn bar_handles_unbalanced_sample_counts() {
        let system = HarmonicPerturbation::new(1.0, 2.0, 1.0);
        let mut rng = rng_from_seed(19);
        let wf = system.sample_forward(20_000, &mut rng);
        let wr = system.sample_reverse(500, &mut rng);
        let result = bar(&wf, &wr, 1.0);
        let exact = system.analytic_delta_f();
        assert!(
            (result.delta_f - exact).abs() < 5.0 * result.std_err.max(0.02),
            "{} vs {exact}",
            result.delta_f
        );
    }

    #[test]
    fn bar_identity_perturbation_is_zero() {
        let system = HarmonicPerturbation::new(2.0, 2.0, 1.0);
        let mut rng = rng_from_seed(5);
        let wf = system.sample_forward(1000, &mut rng);
        let wr = system.sample_reverse(1000, &mut rng);
        let result = bar(&wf, &wr, 1.0);
        assert!(result.delta_f.abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "both directions")]
    fn bar_rejects_empty() {
        let _ = bar(&[], &[1.0], 1.0);
    }
}
