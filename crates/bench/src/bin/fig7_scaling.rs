//! Fig. 7 — scaling efficiency of the villin folding run vs total core
//! count, one line per cores-per-simulation (1, 12, 24, 48, 96).
//!
//! Efficiency is the paper's `t_res(1) / (N · t_res(N))` with
//! t_res(1) = 1.1·10⁵ hours; the curves stay high until the 225-command
//! ensemble runs out of parallelism, then collapse ∝ 1/N — with larger
//! per-simulation core counts extending the scaling range (53 % at
//! 20,000 cores for 96-core simulations).
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin fig7_scaling
//! ```

use clustersim::{log_core_grid, reference_tres1_hours, scaling_sweep, PerfModel, ProjectSpec};
use copernicus_bench::{list_to_value, save_json};

fn main() {
    let project = ProjectSpec::villin_first_folded();
    let perf = PerfModel::villin();
    let tres1 = reference_tres1_hours(&project, &perf);
    println!("== Fig. 7: scaling efficiency vs total cores ==");
    println!("t_res(1) = {tres1:.3e} h (paper: 1.1e5)\n");

    let k_values = [1usize, 12, 24, 48, 96];
    let grid = log_core_grid(1, 200_000, 4);
    let points = scaling_sweep(&project, &perf, &grid, &k_values);

    // One column block per k line, like the figure's five curves.
    for &k in &k_values {
        println!("-- {k} core(s) per simulation --");
        println!("{:>10} {:>12}", "cores", "efficiency");
        for p in points.iter().filter(|p| p.cores_per_sim == k) {
            println!("{:>10} {:>12.3}", p.total_cores, p.efficiency);
        }
        println!();
    }

    // Headline checks at the paper's exact core counts.
    use clustersim::{simulate_controller, MachineSpec};
    let eff_exact = |k: usize, n: usize| {
        simulate_controller(&project, &MachineSpec::new(n, k), &perf).efficiency(tres1, n)
    };
    println!("== anchors (exact core counts) ==");
    println!(
        "96-core sims at 20,000 cores: {:.0}% efficiency (paper: 53%)",
        100.0 * eff_exact(96, 20_000)
    );
    println!(
        "1-core sims at the 225-command limit: {:.0}% efficiency",
        100.0 * eff_exact(1, 225)
    );
    println!(
        "at 100k cores: k=1 collapses to {:.1}% while k=96 holds {:.0}%",
        100.0 * eff_exact(1, 100_000),
        100.0 * eff_exact(96, 100_000)
    );
    let rows = list_to_value(&points, |p| p.to_value());
    let path = save_json("fig7_scaling.json", &rows);
    eprintln!("[bench] series written to {}", path.display());
}
