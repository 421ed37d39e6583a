//! Analytically solvable reference system for the free-energy estimators:
//! a 1-D harmonic oscillator whose spring constant is perturbed
//! `k_A → k_B`. The exact free-energy difference is
//! `ΔF = (1/2β) ln(k_B/k_A)`, so every estimator can be validated.

use mdsim::rng::{sample_normal, SimRng};

/// The perturbation `U_A = ½ k_A x²  →  U_B = ½ k_B x²` at inverse
/// temperature β.
#[derive(Debug, Clone, Copy)]
pub struct HarmonicPerturbation {
    pub k_a: f64,
    pub k_b: f64,
    pub beta: f64,
}

impl HarmonicPerturbation {
    pub fn new(k_a: f64, k_b: f64, beta: f64) -> Self {
        assert!(k_a > 0.0 && k_b > 0.0 && beta > 0.0);
        HarmonicPerturbation { k_a, k_b, beta }
    }

    /// Exact `ΔF = F_B − F_A = (1/2β) ln(k_B/k_A)`.
    pub fn analytic_delta_f(&self) -> f64 {
        (self.k_b / self.k_a).ln() / (2.0 * self.beta)
    }

    /// Draw an equilibrium configuration of state A and return the
    /// forward work `U_B(x) − U_A(x)`.
    pub fn sample_forward(&self, n: usize, rng: &mut SimRng) -> Vec<f64> {
        self.sample_works(n, self.k_a, self.k_b - self.k_a, rng)
    }

    /// Draw from state B and return the reverse work `U_A(x) − U_B(x)`.
    pub fn sample_reverse(&self, n: usize, rng: &mut SimRng) -> Vec<f64> {
        self.sample_works(n, self.k_b, self.k_a - self.k_b, rng)
    }

    fn sample_works(&self, n: usize, k_sample: f64, dk: f64, rng: &mut SimRng) -> Vec<f64> {
        let sigma = (1.0 / (self.beta * k_sample)).sqrt();
        (0..n)
            .map(|_| {
                let x = sigma * sample_normal(rng);
                0.5 * dk * x * x
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdsim::rng_from_seed;

    #[test]
    fn analytic_value() {
        let s = HarmonicPerturbation::new(1.0, std::f64::consts::E * std::f64::consts::E, 1.0);
        assert!((s.analytic_delta_f() - 1.0).abs() < 1e-12);
        // Tighter well has higher free energy (less entropy).
        assert!(HarmonicPerturbation::new(1.0, 4.0, 1.0).analytic_delta_f() > 0.0);
    }

    #[test]
    fn forward_work_sign_matches_perturbation() {
        let mut rng = rng_from_seed(1);
        // Stiffening: forward works are non-negative.
        let s = HarmonicPerturbation::new(1.0, 3.0, 1.0);
        assert!(s.sample_forward(100, &mut rng).iter().all(|&w| w >= 0.0));
        // Softening: non-positive.
        let s2 = HarmonicPerturbation::new(3.0, 1.0, 1.0);
        assert!(s2.sample_forward(100, &mut rng).iter().all(|&w| w <= 0.0));
    }

    #[test]
    fn mean_forward_work_bounds_delta_f() {
        // ⟨W⟩_A ≥ ΔF (second law / Jensen).
        let s = HarmonicPerturbation::new(1.0, 4.0, 1.0);
        let mut rng = rng_from_seed(2);
        let wf = s.sample_forward(50_000, &mut rng);
        let mean = wf.iter().sum::<f64>() / wf.len() as f64;
        assert!(mean >= s.analytic_delta_f());
        // Analytic mean: ⟨W⟩ = (k_B−k_A)/(2 β k_A) = 1.5.
        assert!((mean - 1.5).abs() < 0.05, "⟨W⟩ = {mean}");
    }

    #[test]
    fn beta_scales_sampling_width() {
        let hot = HarmonicPerturbation::new(1.0, 2.0, 0.5);
        let cold = HarmonicPerturbation::new(1.0, 2.0, 5.0);
        let mut rng = rng_from_seed(3);
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let w_hot = mean(&hot.sample_forward(20_000, &mut rng));
        let w_cold = mean(&cold.sample_forward(20_000, &mut rng));
        // ⟨W⟩ = dk/(2 β k_A): hotter ensemble does more work.
        assert!(w_hot > w_cold * 5.0);
    }
}
