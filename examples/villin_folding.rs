//! The §3 experiment at laptop scale: parallel adaptive folding of the
//! coarse-grained villin headpiece from unfolded starts.
//!
//! Mirrors the paper's protocol — N unfolded conformations, M simulation
//! tasks each, 50-ns segments, clustering + adaptive respawn each
//! generation, blind native-state prediction from the equilibrium
//! populations — and prints the per-generation table behind Figs. 2/3.
//!
//! ```text
//! cargo run --release --example villin_folding [-- --quick]
//! ```

use copernicus::core::plugins::msm::TrajectoryArchive;
use copernicus::core::prelude::*;
use copernicus::core::MdRunExecutor;
use mdsim::VillinModel;
use msm::Weighting;
use std::sync::{Arc, Mutex};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let model = Arc::new(VillinModel::hp35());

    // Paper: 9 starts × 25 sims × 50 ns, 10,000 clusters. Laptop scale:
    // 9 starts × 5 sims × 50 ns, 150 clusters.
    let config = MsmProjectConfig {
        mode: AdaptiveMode::Generational,
        n_starts: if quick { 3 } else { 9 },
        sims_per_start: if quick { 3 } else { 5 },
        segment_ns: 50.0,
        record_interval: 80, // one frame per nominal ns
        temperature: 0.5,
        n_clusters: if quick { 50 } else { 150 },
        lag_frames: 5,
        weighting: Weighting::Adaptive,
        generations: if quick { 3 } else { 10 },
        folded_rmsd: 3.5,
        seed: 2011,
        ..MsmProjectConfig::default()
    };
    eprintln!(
        "adaptive villin folding: {} trajectories/generation, {} generations of {} ns",
        config.n_trajectories_per_generation(),
        config.generations,
        config.segment_ns
    );

    let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
    let controller = MsmController::new(config).with_archive(archive.clone());
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model.clone())))
        .with(Arc::new(MsmBuildExecutor));
    let n_workers = std::thread::available_parallelism().map_or(4, |n| n.get());
    let t0 = std::time::Instant::now();
    let result = run_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers,
            ..RuntimeConfig::default()
        },
    );
    let report = MsmProjectReport::from_value(&result.result).expect("report");

    println!("\n== per-generation progress (Fig. 2 data) ==");
    println!(
        "gen  trajs  frames  states(active)  min-RMSD(Å)  blind-pred(Å)  pred-pop  folded-pop"
    );
    for g in &report.generations {
        println!(
            "{:>3}  {:>5}  {:>6}  {:>6} ({:>5})  {:>11.2}  {:>13.2}  {:>8.3}  {:>10.3}",
            g.generation,
            g.n_trajectories_total,
            g.n_frames_total,
            g.n_states,
            g.n_active_states,
            g.min_rmsd_to_native,
            g.predicted_native_rmsd,
            g.predicted_native_population,
            g.folded_equilibrium_population,
        );
    }

    println!("\n== headline numbers (§3) ==");
    println!(
        "lowest RMSD to native observed: {:.2} Å (paper: 0.6-0.7 Å)",
        report.min_rmsd_to_native
    );
    match report.first_folded_generation {
        Some(g) => println!("first folded structure in generation {g} (paper: generation 3)"),
        None => println!("no folded structure found (increase generations / trajectories)"),
    }
    println!(
        "final blind native-state prediction: {:.2} Å from native (paper: 1.4 Å)",
        report.final_predicted_native_rmsd
    );
    if let Some(k) = &report.kinetics {
        println!(
            "MSM kinetics: {:.0}% folded at {:.0} ns; t½ = {} (paper: 66% at 2000 ns, t½ ≈ 500-600 ns)",
            100.0 * k.final_folded_fraction,
            k.times_ns.last().unwrap_or(&0.0),
            k.t_half_ns
                .map(|t| format!("{t:.0} ns"))
                .unwrap_or_else(|| "n/a".into()),
        );
    }
    println!(
        "\n{} trajectories archived, {} commands, wallclock {:.1?}",
        archive.lock().unwrap().len(),
        result.commands_completed,
        t0.elapsed()
    );
}
