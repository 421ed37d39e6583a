//! End-to-end tests of the framework: real server thread, real worker
//! threads, real MD commands — the in-process analogue of a Copernicus
//! deployment.

use copernicus_core::plugins::msm::TrajectoryArchive;
use copernicus_core::prelude::*;
use copernicus_core::{MdRunExecutor, MdRunSpec};
use mdsim::VillinModel;
use msm::Weighting;
use serde_json::json;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn tiny_msm_config() -> MsmProjectConfig {
    MsmProjectConfig {
        mode: AdaptiveMode::Generational,
        chunks_per_segment: 1,
        n_starts: 2,
        sims_per_start: 3,
        segment_ns: 5.0,
        record_interval: 40,
        checkpoint_steps: 0,
        temperature: 0.55,
        n_clusters: 12,
        lag_frames: 1,
        weighting: Weighting::Adaptive,
        even_until_generation: 0,
        respawn_fraction: 0.3,
        generations: 2,
        folded_rmsd: 3.5,
        kinetics_horizon_ns: 500.0,
        stop_folded_pop_stderr: None,
        seed: 17,
        cores_per_sim: 1,
    }
}

fn md_registry(model: &Arc<VillinModel>) -> ExecutorRegistry {
    ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model.clone())))
        .with(Arc::new(MsmBuildExecutor))
}

#[test]
fn msm_project_runs_end_to_end_on_worker_pool() {
    let model = Arc::new(VillinModel::hp35());
    let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
    let controller = MsmController::new(tiny_msm_config()).with_archive(archive.clone());

    let result = run_project(
        Box::new(controller),
        md_registry(&model),
        RuntimeConfig {
            n_workers: 4,
            ..RuntimeConfig::default()
        },
    );

    // 2 generations × 6 lineages, and no recluster: one dispatched at
    // the first wave's close would outlive the last wave.
    assert_eq!(result.commands_completed, 12);
    assert!(result.bytes_received > 0);
    assert_eq!(result.workers_lost, 0);

    let report = MsmProjectReport::from_value(&result.result).unwrap();
    assert_eq!(report.generations.len(), 2);
    // Archive: the lineages the first wave terminated — at most
    // ⌊0.3 × 6⌋ = 1, counted by the next row — plus the 6 live ones at
    // the end.
    let terminated: usize = report.generations.iter().map(|g| g.n_respawned).sum();
    assert!(terminated <= 1);
    assert_eq!(archive.lock().unwrap().len(), 6 + terminated);
    assert!(report.min_rmsd_to_native.is_finite());
    assert!(report.generations[1].n_states > 1);
}

#[test]
fn project_result_is_deterministic_across_worker_counts() {
    // The barrier decides a wave only once all of it has arrived and no
    // recluster is in flight, observing and deciding in slot order, so
    // 1 worker and 4 workers reach the same report: every row and
    // field, except the wall-clock time of the first folded frame.
    let model = Arc::new(VillinModel::hp35());
    let config = MsmProjectConfig {
        n_clusters: 5,
        generations: 6,
        ..tiny_msm_config()
    };
    let run_with = |n_workers: usize| -> MsmProjectReport {
        let controller = MsmController::new(config.clone());
        let result = run_project(
            Box::new(controller),
            md_registry(&model),
            RuntimeConfig {
                n_workers,
                ..RuntimeConfig::default()
            },
        );
        MsmProjectReport::from_value(&result.result).unwrap()
    };
    let mut a = run_with(1);
    let mut b = run_with(4);
    assert!(a.n_rebuilds >= 1, "the config dispatches a recluster");
    a.first_folded_elapsed_secs = None;
    b.first_folded_elapsed_secs = None;
    assert_eq!(a.to_value(), b.to_value());
}

#[test]
fn fep_project_recovers_analytic_free_energy() {
    let cfg = FepProjectConfig {
        k_a: 1.0,
        k_b: 16.0,
        temperature: 1.0,
        n_windows: 4,
        equil_steps: 1_000,
        n_steps: 60_000,
        record_interval: 50,
        seed: 23,
    };
    let exact = cfg.analytic_delta_f();
    let controller = FepController::new(cfg);
    let registry = ExecutorRegistry::new().with(Arc::new(FepSampleExecutor));
    let result = run_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: 4,
            ..RuntimeConfig::default()
        },
    );
    assert_eq!(result.commands_completed, 8);
    let report = FepProjectReport::from_value(&result.result).unwrap();
    assert!(
        (report.delta_f - exact).abs() < 6.0 * report.std_err.max(0.03),
        "BAR ΔF {} vs analytic {exact} (σ {})",
        report.delta_f,
        report.std_err
    );
    assert_eq!(report.n_windows, 4);
    assert!(report.total_samples > 0);
}

/// A controller that spawns `n` mdrun commands, one of which crashes its
/// first worker mid-run, then finishes when all have completed.
struct CrashyController {
    model: Arc<VillinModel>,
    n: usize,
    done: usize,
    failures_seen: usize,
}

impl Controller for CrashyController {
    fn name(&self) -> &str {
        "crashy"
    }
    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                let mut specs = Vec::new();
                for i in 0..self.n {
                    let spec = MdRunSpec {
                        start_positions: self.model.unfolded_start(i as u64 + 1),
                        temperature: 0.55,
                        n_steps: 400,
                        record_interval: 100,
                        seed: i as u64,
                        checkpoint_steps: 100,
                        // Command 0 crashes its first worker at step 200.
                        inject_crash_at_step: if i == 0 { Some(200) } else { None },
                        tag: json!({ "i": i }),
                        kernel: None,
                    };
                    specs.push(CommandSpec::new(
                        "mdrun",
                        Resources::new(1, 16),
                        spec.to_value(),
                    ));
                }
                vec![Action::Spawn(specs)]
            }
            ControllerEvent::CommandFinished(_) => {
                self.done += 1;
                if self.done == self.n {
                    vec![Action::FinishProject {
                        result: json!({ "failures_seen": self.failures_seen }),
                    }]
                } else {
                    vec![]
                }
            }
            ControllerEvent::WorkerFailed { .. } => {
                self.failures_seen += 1;
                vec![]
            }
            // Not expected in this test; counted as done so a regression
            // fails the completion assert instead of hanging the project.
            ControllerEvent::CommandDropped { .. } => {
                self.done += 1;
                if self.done == self.n {
                    vec![Action::FinishProject {
                        result: json!({ "failures_seen": self.failures_seen }),
                    }]
                } else {
                    vec![]
                }
            }
        }
    }
}

#[test]
fn worker_crash_is_detected_and_command_resumes_from_checkpoint() {
    let model = Arc::new(VillinModel::hp35());
    let controller = CrashyController {
        model: model.clone(),
        n: 3,
        done: 0,
        failures_seen: 0,
    };
    // Short heartbeats so the watchdog fires quickly in the test.
    let config = RuntimeConfig {
        n_workers: 3,
        worker: WorkerConfig {
            heartbeat_interval: Duration::from_millis(30),
            ..WorkerConfig::default()
        },
        server: ServerConfig {
            heartbeat_interval: Duration::from_millis(30),
            watchdog_period: Duration::from_millis(15),
            max_attempts: 5,
            ..ServerConfig::default()
        },
        ..RuntimeConfig::default()
    };
    let running = start_project(Box::new(controller), md_registry(&model), config);
    let shared_fs = running.shared_fs.clone();
    let result = running.join();

    assert_eq!(result.commands_completed, 3, "all commands must complete");
    assert_eq!(result.workers_lost, 1, "exactly one worker died");
    assert_eq!(result.commands_requeued, 1, "its command was re-queued");
    assert_eq!(result.commands_dropped, 0);
    let report = result.result;
    assert_eq!(report["failures_seen"], json!(1));
    // Terminal transitions must retire checkpoints: the shared filesystem
    // ends empty even though the crashed command deposited checkpoints.
    assert_eq!(
        shared_fs.n_checkpoints(),
        0,
        "leaked checkpoints for {:?}",
        shared_fs.checkpointed_commands()
    );
}

#[test]
fn monitor_reports_progress_and_finishes() {
    let model = Arc::new(VillinModel::hp35());
    let controller = MsmController::new(tiny_msm_config());
    let running = start_project(
        Box::new(controller),
        md_registry(&model),
        RuntimeConfig {
            n_workers: 2,
            ..RuntimeConfig::default()
        },
    );
    let monitor = running.monitor.clone();
    let result = running.join();
    let status = monitor.status();
    assert!(status.finished);
    assert_eq!(status.commands_completed, result.commands_completed);
    assert!(
        status.log.iter().any(|l| l.contains("generation")),
        "controller logs should be visible: {:?}",
        status.log
    );
}

#[test]
fn heterogeneous_workers_only_get_matching_commands() {
    // A pool where only some workers have the mdrun executable: the
    // project must still complete, with sleep-only workers idling.
    let model = Arc::new(VillinModel::hp35());
    let controller = MsmController::new(MsmProjectConfig {
        generations: 1,
        ..tiny_msm_config()
    });

    let (hub, server_transport) = copernicus_core::transport::channel();
    let shared_fs = SharedFs::new();
    let monitor = Monitor::new();
    let server = copernicus_core::Server::new(
        ProjectId(0),
        Box::new(controller),
        ServerConfig::default(),
        shared_fs.clone(),
        monitor,
        Box::new(server_transport),
    );
    let server_thread = std::thread::spawn(move || server.run());

    let md_reg = md_registry(&model);
    let sleep_reg = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
    let mut handles = Vec::new();
    for (i, reg) in [md_reg.clone(), md_reg, sleep_reg].into_iter().enumerate() {
        let wc = WorkerConfig {
            shared_fs: Some(shared_fs.clone()),
            ..WorkerConfig::default()
        };
        let id = WorkerId(i as u64);
        handles.push(copernicus_core::spawn_worker(
            id,
            wc,
            reg,
            Box::new(hub.attach(id)),
        ));
    }
    drop(hub);
    let result = server_thread.join().unwrap();
    for h in handles {
        h.join();
    }
    assert_eq!(result.commands_completed, 6);
}
