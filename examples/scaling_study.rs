//! A condensed version of the paper's performance section (§4): simulate
//! the controller's scheduling activity for the villin project across
//! total core counts and cores-per-simulation, and print the headline
//! anchors of Figs. 7 and 8.
//!
//! ```text
//! cargo run --release --example scaling_study
//! ```

use clustersim::{
    log_core_grid, reference_tres1_hours, scaling_sweep, simulate_controller, MachineSpec,
    PerfModel, ProjectSpec,
};

fn main() {
    let project = ProjectSpec::villin_first_folded();
    let perf = PerfModel::villin();
    let tres1 = reference_tres1_hours(&project, &perf);
    println!(
        "villin first-folded command set: {} generations × {} commands × {} ns",
        project.generations, project.commands_per_generation, project.segment_ns
    );
    println!("t_res(1) = {tres1:.3e} hours (paper: 1.1e5)");

    println!("\n== scaling sweep (Figs. 7/8 in miniature) ==");
    println!(
        "{:>10} {:>6} {:>14} {:>12} {:>12}",
        "cores", "k", "time (h)", "efficiency", "MB/s"
    );
    let grid = log_core_grid(24, 100_000, 2);
    let points = scaling_sweep(&project, &perf, &grid, &[1, 24, 96]);
    for p in &points {
        println!(
            "{:>10} {:>6} {:>14.2} {:>12.3} {:>12.4}",
            p.total_cores,
            p.cores_per_sim,
            p.wallclock_hours,
            p.efficiency,
            p.ensemble_bandwidth_mb_per_s
        );
    }

    println!("\n== paper anchors ==");
    let outcome = simulate_controller(&project, &MachineSpec::new(20_000, 96), &perf);
    println!(
        "20,000 cores, 96 cores/sim: {:.1} h at {:.0}% efficiency (paper: just over 10 h at 53%)",
        outcome.wallclock_hours,
        100.0 * outcome.efficiency(tres1, 20_000)
    );
    let run = simulate_controller(&project, &MachineSpec::new(5_000, 24), &perf);
    println!(
        "5,000 cores (the actual project scale): {:.1} h to first folded structure (paper: ~30 h)",
        run.wallclock_hours
    );
    let blind = simulate_controller(
        &ProjectSpec::villin_blind_prediction(),
        &MachineSpec::new(5_000, 24),
        &perf,
    );
    println!(
        "blind native-state prediction at 5,000 cores: {:.1} h (paper: 80-90 h)",
        blind.wallclock_hours
    );
}
