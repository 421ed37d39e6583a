//! Ablation (§3.2) — even vs adaptive weighting: *"adaptive weighting
//! optimizes convergence of the kinetic properties of the model, which
//! can boost sampling efficiency twofold compared to even weighting."*
//!
//! Runs the same sampling budget under both policies and compares
//! exploration (active states, connectivity) and convergence proxies
//! (min RMSD, folded-state discovery).
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin ablation_weighting [-- --quick]
//! ```

use copernicus_bench::{list_to_value, save_json, Scale};
use copernicus_core::plugins::msm::TrajectoryArchive;
use copernicus_core::prelude::*;
use copernicus_core::MdRunExecutor;
use mdsim::VillinModel;
use msm::Weighting;
use serde_json::json;
use std::sync::{Arc, Mutex};

struct ArmResult {
    weighting: String,
    seed: u64,
    active_states: usize,
    min_rmsd: f64,
    folded_observed: bool,
    folded_population: f64,
}

fn main() {
    let scale = Scale::from_env();
    let mut base = scale.msm_config();
    if scale == Scale::Default {
        // Keep the ablation affordable: half the default generations.
        base.generations = 6;
    }
    let model = Arc::new(VillinModel::hp35());
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model.clone())))
        .with(Arc::new(MsmBuildExecutor));
    let seeds = [2011u64, 4022, 6033];

    let mut results: Vec<ArmResult> = Vec::new();
    for weighting in [Weighting::Even, Weighting::Adaptive] {
        for &seed in &seeds {
            let config = MsmProjectConfig {
                weighting,
                seed,
                ..base.clone()
            };
            let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
            let controller = MsmController::new(config).with_archive(archive.clone());
            let result = run_project(
                Box::new(controller),
                registry.clone(),
                RuntimeConfig::default(),
            );
            let report = MsmProjectReport::from_value(&result.result).unwrap();
            let last = report.generations.last().unwrap();
            results.push(ArmResult {
                weighting: format!("{weighting:?}"),
                seed,
                active_states: last.n_active_states,
                min_rmsd: report.min_rmsd_to_native,
                folded_observed: report.first_folded_generation.is_some(),
                folded_population: last.folded_equilibrium_population,
            });
            eprintln!(
                "[ablation] {weighting:?} seed {seed}: min RMSD {:.2} Å, {} active states",
                report.min_rmsd_to_native, last.n_active_states
            );
        }
    }

    println!("== ablation: even vs adaptive spawn weighting ==\n");
    println!(
        "{:>9} {:>6} {:>14} {:>12} {:>8} {:>12}",
        "policy", "seed", "active states", "min RMSD(Å)", "folded?", "folded pop"
    );
    for r in &results {
        println!(
            "{:>9} {:>6} {:>14} {:>12.2} {:>8} {:>12.3}",
            r.weighting,
            r.seed,
            r.active_states,
            r.min_rmsd,
            r.folded_observed,
            r.folded_population
        );
    }

    let mean = |w: &str, f: &dyn Fn(&ArmResult) -> f64| -> f64 {
        let xs: Vec<f64> = results.iter().filter(|r| r.weighting == w).map(f).collect();
        xs.iter().sum::<f64>() / xs.len() as f64
    };
    println!("\nmeans over {} seeds:", seeds.len());
    for w in ["Even", "Adaptive"] {
        println!(
            "  {w:>8}: {:.1} active states, min RMSD {:.2} Å, fold rate {:.2}",
            mean(w, &|r| r.active_states as f64),
            mean(w, &|r| r.min_rmsd),
            mean(w, &|r| r.folded_observed as u8 as f64),
        );
    }
    println!("\npaper: adaptive weighting boosts sampling efficiency up to 2× once the");
    println!("state decomposition is stable; even weighting is preferable very early.");
    let rows = list_to_value(&results, |r| {
        json!({
            "weighting": r.weighting,
            "seed": r.seed,
            "active_states": r.active_states,
            "min_rmsd": r.min_rmsd,
            "folded_observed": r.folded_observed,
            "folded_population": r.folded_population,
        })
    });
    let path = save_json("ablation_weighting.json", &rows);
    eprintln!("[bench] results written to {}", path.display());
}
