//! Quickstart: run a small adaptive-sampling project end to end.
//!
//! Sets up one project server and four workers in-process, folds a
//! coarse-grained villin with the MSM controller, and prints the
//! per-generation progress a Copernicus user would watch on the web
//! monitor.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use copernicus::core::prelude::*;
use copernicus::core::MdRunExecutor;
use copernicus::telemetry::{labels, names, Labels, Telemetry};
use mdsim::VillinModel;
use std::sync::Arc;

fn main() {
    let model = Arc::new(VillinModel::hp35());
    println!(
        "villin HP35 Gō model: {} beads, {} native contacts",
        model.n_beads(),
        model.n_contacts()
    );

    // A laptop-scale project: 3 unfolded starts × 4 simulations each,
    // 10-ns segments, 3 generations.
    let config = MsmProjectConfig {
        n_starts: 3,
        sims_per_start: 4,
        segment_ns: 10.0,
        generations: 3,
        n_clusters: 40,
        seed: 42,
        ..MsmProjectConfig::default()
    };
    println!(
        "project: {} trajectories/generation × {} generations, {} ns segments\n",
        config.n_trajectories_per_generation(),
        config.generations,
        config.segment_ns
    );

    // One telemetry handle shared by the server, the workers and the
    // controller: dispatch latencies, per-step MD timings, clustering
    // time — everything lands in the same registry and tracer.
    let telemetry = Telemetry::new();
    let controller = MsmController::new(config);
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model)))
        .with(Arc::new(MsmBuildExecutor));
    let running = start_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: 4,
            telemetry: Some(telemetry.clone()),
            ..RuntimeConfig::default()
        },
    );
    let monitor = running.monitor.clone();
    let result = running.join();

    let report = MsmProjectReport::from_value(&result.result).expect("report");
    println!("gen  trajs  states  min-RMSD(Å)  blind-pred(Å)  folded-pop");
    for g in &report.generations {
        println!(
            "{:>3}  {:>5}  {:>6}  {:>11.2}  {:>13.2}  {:>10.3}",
            g.generation,
            g.n_trajectories_total,
            g.n_active_states,
            g.min_rmsd_to_native,
            g.predicted_native_rmsd,
            g.folded_equilibrium_population,
        );
    }
    println!(
        "\ncompleted {} commands in {:.1?} ({} bytes of trajectory data returned)",
        result.commands_completed, result.wall, result.bytes_received
    );
    if let Some(gen) = report.first_folded_generation {
        println!("first folded conformation observed in generation {gen}");
    }
    if let Some(k) = &report.kinetics {
        println!(
            "kinetics: {:.0}% folded at {:.0} ns, t½ = {}",
            100.0 * k.final_folded_fraction,
            k.times_ns.last().unwrap_or(&0.0),
            k.t_half_ns
                .map(|t| format!("{t:.0} ns"))
                .unwrap_or_else(|| "n/a".into())
        );
    }

    // Telemetry headline numbers, then the full artifacts on disk.
    let reg = telemetry.registry();
    if let Some(h) = reg.find_histogram(names::FORCE_LOOP_NS, &labels(&[("model", "villin")])) {
        println!(
            "\nforce loop: {:.0} ns/step mean over {} instrumented steps",
            h.mean(),
            h.count()
        );
    }
    if let Some(h) = reg.find_histogram(names::DISPATCH_LATENCY, &Labels::new()) {
        println!(
            "dispatch latency: {:.1} ms mean over {} dispatches",
            1e3 * h.mean(),
            h.count()
        );
    }
    let dir = std::path::Path::new("target/quickstart-telemetry");
    std::fs::create_dir_all(dir).expect("create telemetry dir");
    std::fs::write(dir.join("snapshot.json"), monitor.report_json()).expect("write snapshot");
    println!("telemetry written: {}/snapshot.json", dir.display());
}
