//! Multi-window (stratified) free-energy calculations.
//!
//! Large perturbations are split into λ-windows (Fig. 1 of the paper
//! shows a `free_energy` project with `lambda0`, `lambda1`, … commands);
//! each adjacent pair contributes a BAR estimate and the total is the
//! sum, with errors combined in quadrature.

use crate::estimators::{bar, BarResult};

/// Work samples collected at one λ-window boundary: forward means sampled
/// in window `i` evaluating `U_{i+1} − U_i`, reverse sampled in `i+1`.
#[derive(Debug, Clone, Default)]
pub struct WindowSamples {
    pub forward: Vec<f64>,
    pub reverse: Vec<f64>,
}

/// Result of a stratified calculation.
#[derive(Debug, Clone)]
pub struct StratifiedResult {
    /// Per-boundary BAR results (one per adjacent window pair).
    pub per_window: Vec<BarResult>,
    /// Total ΔF across all windows.
    pub total_delta_f: f64,
    /// Quadrature-combined standard error.
    pub total_std_err: f64,
}

/// Combine adjacent-window samples into a total free-energy difference.
pub fn stratified_bar(windows: &[WindowSamples], beta: f64) -> StratifiedResult {
    assert!(!windows.is_empty(), "need at least one window pair");
    let per_window: Vec<BarResult> = windows
        .iter()
        .map(|w| bar(&w.forward, &w.reverse, beta))
        .collect();
    let total_delta_f = per_window.iter().map(|r| r.delta_f).sum();
    let total_var: f64 = per_window.iter().map(|r| r.std_err * r.std_err).sum();
    StratifiedResult {
        per_window,
        total_delta_f,
        total_std_err: total_var.sqrt(),
    }
}

/// Evenly spaced λ values from 0 to 1 inclusive (`n_windows + 1` values).
pub fn lambda_schedule(n_windows: usize) -> Vec<f64> {
    assert!(n_windows >= 1);
    (0..=n_windows)
        .map(|i| i as f64 / n_windows as f64)
        .collect()
}

/// Linear interpolation of a parameter along the schedule (e.g. a spring
/// constant k(λ) = (1−λ)k_A + λk_B).
pub fn interpolate(lambda: f64, a: f64, b: f64) -> f64 {
    assert!((0.0..=1.0).contains(&lambda), "λ must be in [0,1]");
    (1.0 - lambda) * a + lambda * b
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harmonic::HarmonicPerturbation;
    use mdsim::rng_from_seed;

    #[test]
    fn lambda_schedule_shape() {
        let s = lambda_schedule(4);
        assert_eq!(s, vec![0.0, 0.25, 0.5, 0.75, 1.0]);
    }

    #[test]
    fn interpolation_endpoints() {
        assert_eq!(interpolate(0.0, 2.0, 10.0), 2.0);
        assert_eq!(interpolate(1.0, 2.0, 10.0), 10.0);
        assert_eq!(interpolate(0.5, 2.0, 10.0), 6.0);
    }

    #[test]
    fn stratified_matches_analytic_total() {
        // k: 1 → 16 through 4 windows with k interpolated geometrically
        // via the λ schedule on ln k (each window is a modest
        // perturbation). Total exact ΔF = ln(16)/2.
        let beta = 1.0;
        let ks: Vec<f64> = lambda_schedule(4)
            .iter()
            .map(|&l| (16.0f64).powf(l))
            .collect();
        let mut rng = rng_from_seed(21);
        let windows: Vec<WindowSamples> = ks
            .windows(2)
            .map(|pair| {
                let sys = HarmonicPerturbation::new(pair[0], pair[1], beta);
                WindowSamples {
                    forward: sys.sample_forward(8_000, &mut rng),
                    reverse: sys.sample_reverse(8_000, &mut rng),
                }
            })
            .collect();
        let result = stratified_bar(&windows, beta);
        let exact = (16.0f64).ln() / 2.0;
        assert!(
            (result.total_delta_f - exact).abs() < 4.0 * result.total_std_err.max(0.01),
            "stratified ΔF {} vs exact {exact} (σ {})",
            result.total_delta_f,
            result.total_std_err
        );
        assert_eq!(result.per_window.len(), 4);
    }

    #[test]
    fn errors_combine_in_quadrature() {
        let sys = HarmonicPerturbation::new(1.0, 2.0, 1.0);
        let mut rng = rng_from_seed(8);
        let w = WindowSamples {
            forward: sys.sample_forward(2_000, &mut rng),
            reverse: sys.sample_reverse(2_000, &mut rng),
        };
        let single = stratified_bar(std::slice::from_ref(&w), 1.0);
        let double = stratified_bar(&[w.clone(), w.clone()], 1.0);
        assert!(
            (double.total_std_err - single.total_std_err * 2.0f64.sqrt()).abs() < 1e-9
        );
        assert!((double.total_delta_f - 2.0 * single.total_delta_f).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn rejects_empty_windows() {
        let _ = stratified_bar(&[], 1.0);
    }
}
