//! Seeded property sweeps of the free-energy estimators.

use copernicus_testkit::{sweep, CASES};
use fep::{bar, stratified_bar, zwanzig, HarmonicPerturbation, WindowSamples};
use mdsim::rng_from_seed;

#[test]
fn zwanzig_respects_jensen_bound() {
    sweep("zwanzig_respects_jensen_bound", CASES, |g| {
        let works = g.vec(1..200, |g| g.f64_in(-5.0..5.0));
        let beta = g.f64_in(0.2..5.0);
        // ΔF = -1/β ln⟨e^{-βW}⟩ ≤ ⟨W⟩ (Jensen / second law).
        let mean = works.iter().sum::<f64>() / works.len() as f64;
        let df = zwanzig(&works, beta);
        assert!(df <= mean + 1e-9, "ΔF {df} > ⟨W⟩ {mean}");
        assert!(df.is_finite());
        // And ΔF ≥ min W (the exponential average is dominated by the
        // smallest work value).
        let min = works.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(df >= min - 1e-9);
    });
}

#[test]
fn bar_is_antisymmetric_on_arbitrary_samples() {
    sweep("bar_is_antisymmetric_on_arbitrary_samples", CASES, |g| {
        let wf = g.vec(5..100, |g| g.f64_in(-3.0..3.0));
        let wr = g.vec(5..100, |g| g.f64_in(-3.0..3.0));
        let beta = g.f64_in(0.5..2.0);
        let fwd = bar(&wf, &wr, beta).delta_f;
        let rev = bar(&wr, &wf, beta).delta_f;
        assert!((fwd + rev).abs() < 1e-6, "fwd {fwd}, rev {rev}");
    });
}

#[test]
fn bar_converges_to_analytic_for_harmonic_systems() {
    sweep(
        "bar_converges_to_analytic_for_harmonic_systems",
        CASES,
        |g| {
            let (seed, log_ratio) = (g.u64_in(0..60), g.f64_in(-2.0..2.0));
            let k_a = 1.0;
            let k_b = (log_ratio).exp();
            let sys = HarmonicPerturbation::new(k_a, k_b, 1.0);
            let mut rng = rng_from_seed(seed);
            let wf = sys.sample_forward(8_000, &mut rng);
            let wr = sys.sample_reverse(8_000, &mut rng);
            let result = bar(&wf, &wr, 1.0);
            let exact = sys.analytic_delta_f();
            assert!(
                (result.delta_f - exact).abs() < 6.0 * result.std_err.max(0.01),
                "BAR {} vs exact {exact} (σ {})",
                result.delta_f,
                result.std_err
            );
        },
    );
}

#[test]
fn stratified_total_is_sum_of_windows() {
    sweep("stratified_total_is_sum_of_windows", CASES, |g| {
        let (seed, n_windows) = (g.u64_in(0..50), g.usize_in(1..5));
        let mut rng = rng_from_seed(seed);
        let windows: Vec<WindowSamples> = (0..n_windows)
            .map(|w| {
                let sys = HarmonicPerturbation::new(1.0 + w as f64, 2.0 + w as f64, 1.0);
                WindowSamples {
                    forward: sys.sample_forward(500, &mut rng),
                    reverse: sys.sample_reverse(500, &mut rng),
                }
            })
            .collect();
        let total = stratified_bar(&windows, 1.0);
        let sum: f64 = total.per_window.iter().map(|r| r.delta_f).sum();
        assert!((total.total_delta_f - sum).abs() < 1e-12);
        assert!(total.total_std_err >= 0.0);
        assert_eq!(total.per_window.len(), n_windows);
    });
}
