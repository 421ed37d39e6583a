//! Fig. 8 — total time to solution for folding villin vs total core
//! count, one line per cores-per-simulation.
//!
//! While commands remain in the queue, adding simulations is the
//! efficient way to use cores; once the 225-command ensemble saturates,
//! only decomposing individual simulations further reduces the
//! time-to-solution (paper: ≈10 h at 20,000 cores with 96-core
//! simulations; the reported project ran at ~5,000 cores).
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin fig8_time_to_solution
//! ```

use clustersim::{log_core_grid, scaling_sweep, PerfModel, ProjectSpec};
use copernicus_bench::{list_to_value, save_json};

fn main() {
    let project = ProjectSpec::villin_first_folded();
    let perf = PerfModel::villin();
    println!("== Fig. 8: time to solution vs total cores ==\n");

    let k_values = [1usize, 12, 24, 48, 96];
    let grid = log_core_grid(1, 200_000, 4);
    let points = scaling_sweep(&project, &perf, &grid, &k_values);

    for &k in &k_values {
        println!("-- {k} core(s) per simulation --");
        println!("{:>10} {:>14}", "cores", "hours");
        for p in points.iter().filter(|p| p.cores_per_sim == k) {
            println!("{:>10} {:>14.2}", p.total_cores, p.wallclock_hours);
        }
        println!();
    }

    // The floors: each k line stops improving when workers ≥ commands.
    println!("== floors (time stops decreasing once commands run out) ==");
    for &k in &k_values {
        let floor = points
            .iter()
            .filter(|p| p.cores_per_sim == k)
            .map(|p| p.wallclock_hours)
            .fold(f64::INFINITY, f64::min);
        println!("k = {k:>2}: floor {floor:>9.2} h at ≥ {} cores", 225 * k);
    }
    use clustersim::{simulate_controller, MachineSpec};
    let at_20k = simulate_controller(&project, &MachineSpec::new(20_000, 96), &perf);
    println!(
        "\nexactly 20,000 cores / 96-core sims: {:.1} h (paper: just over 10 h)",
        at_20k.wallclock_hours
    );
    let at_5k = simulate_controller(&project, &MachineSpec::new(5_000, 24), &perf);
    println!(
        "the reported project scale (5,000 cores, 24-core sims): {:.1} h (paper: ~30 h)",
        at_5k.wallclock_hours
    );
    let rows = list_to_value(&points, |p| p.to_value());
    let path = save_json("fig8_time_to_solution.json", &rows);
    eprintln!("[bench] series written to {}", path.display());
}
