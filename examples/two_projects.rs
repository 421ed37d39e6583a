//! Two simultaneous projects over one worker pool (§2.2: requests route
//! to "the first server with available commands"; Fig. 1 runs MSM and
//! free-energy projects side by side).
//!
//! An MSM adaptive-sampling project and a BAR free-energy project each
//! get their own project server; a broker routes a shared pool of
//! workers between them. Workers that have both executables serve both
//! projects.
//!
//! ```text
//! cargo run --release --example two_projects
//! ```

use copernicus::core::prelude::*;
use copernicus::core::{spawn_broker, transport, MdRunExecutor, Server};
use copernicus::mdsim::VillinModel;
use std::sync::Arc;

fn main() {
    let model = Arc::new(VillinModel::hp35());

    // Project 0: a small adaptive-sampling run.
    let msm_cfg = MsmProjectConfig {
        n_starts: 2,
        sims_per_start: 3,
        segment_ns: 10.0,
        n_clusters: 30,
        generations: 2,
        ..MsmProjectConfig::default()
    };
    // Project 1: a BAR free-energy calculation.
    let fep_cfg = FepProjectConfig::default();
    let fep_exact = fep_cfg.analytic_delta_f();

    let mut server_hubs = Vec::new();
    let mut server_threads = Vec::new();
    let monitors: Vec<Monitor> = (0..2).map(|_| Monitor::new()).collect();
    let shared_fs = SharedFs::new();

    let controllers: Vec<Box<dyn copernicus::core::Controller>> = vec![
        Box::new(MsmController::new(msm_cfg)),
        Box::new(FepController::new(fep_cfg)),
    ];
    for (p, controller) in controllers.into_iter().enumerate() {
        let (hub, server_transport) = transport::channel();
        let server = Server::new(
            ProjectId(p as u64),
            controller,
            ServerConfig::default(),
            shared_fs.clone(),
            monitors[p].clone(),
            Box::new(server_transport),
        );
        server_hubs.push(hub);
        server_threads.push(std::thread::spawn(move || server.run()));
    }

    let (broker_hub, broker_handle) = spawn_broker(server_hubs);

    // A pool where every worker installs both executables.
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model)))
        .with(Arc::new(MsmBuildExecutor))
        .with(Arc::new(FepSampleExecutor));
    let wc = WorkerConfig {
        shared_fs: Some(shared_fs),
        ..WorkerConfig::default()
    };
    let workers: Vec<_> = (0..4)
        .map(|i| {
            let id = WorkerId(i);
            copernicus::core::spawn_worker(
                id,
                wc.clone(),
                registry.clone(),
                Box::new(broker_hub.attach(id)),
            )
        })
        .collect();
    drop(broker_hub);

    println!("running MSM + FEP projects over one 4-worker pool…\n");
    let results: Vec<_> = server_threads
        .into_iter()
        .map(|t| t.join().expect("server thread"))
        .collect();
    for w in workers {
        w.join();
    }
    broker_handle.join().expect("broker thread");

    for r in &results {
        println!(
            "project {}: {} commands, {} bytes returned, wall {:.1?}",
            r.project, r.commands_completed, r.bytes_received, r.wall
        );
    }
    let msm_report = MsmProjectReport::from_value(&results[0].result).expect("msm report");
    println!(
        "\nMSM project: min RMSD to native {:.2} Å over {} generations",
        msm_report.min_rmsd_to_native,
        msm_report.generations.len()
    );
    let fep_report = FepProjectReport::from_value(&results[1].result).expect("fep report");
    println!(
        "FEP project: ΔF = {:.4} ± {:.4} (analytic {:.4})",
        fep_report.delta_f, fep_report.std_err, fep_exact
    );
}
