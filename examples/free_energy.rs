//! The BAR free-energy plugin (§5 of the paper): run a stratified
//! λ-window perturbation as a Copernicus project and compare the Bennett
//! acceptance ratio estimate against the analytic answer.
//!
//! The perturbation stiffens a 3-D harmonic well k: 1 → 16 (exact
//! ΔF = (3/2β) ln 16); each λ-window boundary spawns one forward and one
//! reverse Langevin sampling command (Fig. 1's `lambda0`, `lambda1`, …).
//!
//! ```text
//! cargo run --release --example free_energy
//! ```

use copernicus::core::prelude::*;
use std::sync::Arc;

fn main() {
    let config = FepProjectConfig {
        k_a: 1.0,
        k_b: 16.0,
        temperature: 1.0,
        n_windows: 4,
        equil_steps: 2_000,
        n_steps: 150_000,
        record_interval: 50, // ≈ one velocity-decorrelation time apart
        seed: 7,
    };
    let exact = config.analytic_delta_f();
    let ks = config.k_schedule();
    println!(
        "perturbing a 3-D harmonic well k = {} → {} through {} λ-windows",
        config.k_a, config.k_b, config.n_windows
    );
    println!("k schedule: {ks:.3?}");

    let controller = FepController::new(config);
    let registry = ExecutorRegistry::new().with(Arc::new(FepSampleExecutor));
    let result = run_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: 4,
            ..RuntimeConfig::default()
        },
    );
    let report = FepProjectReport::from_value(&result.result).expect("report");

    println!("\nwindow  ΔF (BAR)");
    for (w, df) in report.per_window_delta_f.iter().enumerate() {
        println!("{w:>6}  {df:>8.4}");
    }
    println!(
        "\ntotal ΔF = {:.4} ± {:.4}  (analytic: {:.4}, error: {:+.4})",
        report.delta_f,
        report.std_err,
        exact,
        report.delta_f - exact
    );
    println!(
        "{} work samples over {} commands in {:.1?}",
        report.total_samples, result.commands_completed, result.wall
    );
    let sigmas = (report.delta_f - exact).abs() / report.std_err.max(1e-9);
    println!("deviation: {sigmas:.1} σ");
}
