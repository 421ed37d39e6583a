//! Fig. 2 — per-generation evolution of villin trajectories under
//! adaptive sampling: RMSD-to-native of a selection of trajectories vs
//! generation, the per-generation minimum, and the blind-prediction
//! quality.
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin fig2_generations [-- --quick|--paper-scale]
//! ```

use copernicus_bench::{adaptive_run, list_to_value, save_json, Scale};

fn main() {
    let scale = Scale::from_env();
    let data = adaptive_run(scale);

    println!("== Fig. 2: per-generation adaptive-sampling progress ==");
    println!("(paper: first folded structure 0.6-0.7 Å in generation 3;");
    println!(" blind prediction 1.4 Å after 8 generations)\n");
    println!(
        "{:>4} {:>7} {:>8} {:>12} {:>14} {:>11}",
        "gen", "trajs", "states", "min-RMSD(Å)", "blind-pred(Å)", "folded-pop"
    );
    for g in &data.report.generations {
        println!(
            "{:>4} {:>7} {:>8} {:>12.2} {:>14.2} {:>11.3}",
            g.generation,
            g.n_trajectories_total,
            g.n_active_states,
            g.min_rmsd_to_native,
            g.predicted_native_rmsd,
            g.folded_equilibrium_population
        );
    }

    // A selection of trajectories, Fig. 2 style: the last RMSD of the
    // three longest-lived lineages plus the best trajectory.
    println!("\n== selected trajectory endpoints (Fig. 2's black/orange/red traces) ==");
    let mut order: Vec<usize> = (0..data.rmsd_series.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(data.rmsd_series[i].times_ns.len()));
    for &i in order.iter().take(4) {
        let s = &data.rmsd_series[i];
        let best = s.rmsd.iter().cloned().fold(f64::INFINITY, f64::min);
        println!(
            "trajectory {:>3}: {:>6.0} ns sampled, final RMSD {:>5.2} Å, best {:>5.2} Å",
            i,
            s.times_ns.last().unwrap_or(&0.0),
            s.rmsd.last().unwrap_or(&f64::NAN),
            best
        );
    }

    println!("\nfirst folded generation: {:?} (paper: 3)", data.report.first_folded_generation);
    println!(
        "best RMSD to native: {:.2} Å (paper: 0.6-0.7; this CG model's native basin ≈ 1 Å)",
        data.best_rmsd
    );
    let series = list_to_value(&data.report.generations, |g| g.to_value());
    let path = save_json("fig2_generations_series.json", &series);
    eprintln!("[bench] series written to {}", path.display());
}
