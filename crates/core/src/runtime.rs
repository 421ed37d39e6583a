//! Convenience runtime: wire a project server and a pool of workers
//! together with in-process channels and run a project to completion.
//!
//! This is the single-machine analogue of submitting workers to a batch
//! queue and starting a project server on a head node; the message
//! protocol is identical to the networked case (see `messages`).

use crate::controller::Controller;
use crate::executor::ExecutorRegistry;
use crate::fs::SharedFs;
use crate::ids::{IdGen, ProjectId, WorkerId};
use crate::monitor::Monitor;
use crate::server::{ProjectResult, Server, ServerConfig};
use crate::transport;
use crate::worker::{spawn_worker, WorkerConfig, WorkerHandle};
use copernicus_telemetry::Telemetry;
use std::thread::JoinHandle;
use std::time::Duration;

/// Overlay (server↔server) tuning, used when `ServerConfig::peers` is
/// non-empty. See [`crate::peer`].
#[derive(Debug, Clone)]
pub struct OverlayConfig {
    /// How long a freshly dialed peer link waits for the remote hello
    /// before proceeding without its identity.
    pub hello_timeout: Duration,
    /// How long the router waits for one upstream's verdict on a work
    /// offer before offering the worker elsewhere.
    pub offer_patience: Duration,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            hello_timeout: Duration::from_secs(2),
            offer_patience: Duration::from_secs(5),
        }
    }
}

/// Runtime configuration.
#[derive(Clone)]
pub struct RuntimeConfig {
    pub n_workers: usize,
    pub worker: WorkerConfig,
    pub server: ServerConfig,
    pub overlay: OverlayConfig,
    /// One telemetry handle shared by the server (dispatch metrics,
    /// command spans) and every worker (command wall time, MD step timings).
    pub telemetry: Option<Telemetry>,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            n_workers: 4,
            worker: WorkerConfig::default(),
            server: ServerConfig::default(),
            overlay: OverlayConfig::default(),
            telemetry: None,
        }
    }
}

/// A project in flight.
pub struct RunningProject {
    pub monitor: Monitor,
    pub shared_fs: SharedFs,
    server_thread: JoinHandle<ProjectResult>,
    workers: Vec<WorkerHandle>,
}

impl RunningProject {
    /// Block until the controller finishes the project.
    pub fn join(self) -> ProjectResult {
        let result = self
            .server_thread
            .join()
            .expect("server thread must not panic");
        for w in self.workers {
            w.join();
        }
        result
    }
}

/// Start a project with `config.n_workers` identical workers.
pub fn start_project(
    controller: Box<dyn Controller>,
    registry: ExecutorRegistry,
    config: RuntimeConfig,
) -> RunningProject {
    let (hub, server_transport) = transport::channel();
    let shared_fs = config.worker.shared_fs.clone().unwrap_or_default();
    let monitor = config
        .telemetry
        .clone()
        .map(Monitor::with_telemetry)
        .unwrap_or_default();
    let server = Server::new(
        ProjectId(0),
        controller,
        config.server,
        shared_fs.clone(),
        monitor.clone(),
        Box::new(server_transport),
    );
    let server_thread = std::thread::spawn(move || server.run());

    let ids = IdGen::new();
    let workers: Vec<WorkerHandle> = (0..config.n_workers)
        .map(|_| {
            let mut wc = config.worker.clone();
            // Every worker shares the same filesystem view as the server,
            // and the same telemetry registry and tracer.
            wc.shared_fs = Some(shared_fs.clone());
            wc.telemetry = config.telemetry.clone();
            let id = WorkerId(ids.next_u64());
            spawn_worker(id, wc, registry.clone(), Box::new(hub.attach(id)))
        })
        .collect();

    RunningProject {
        monitor,
        shared_fs,
        server_thread,
        workers,
    }
}

/// Run a project to completion and return its result.
pub fn run_project(
    controller: Box<dyn Controller>,
    registry: ExecutorRegistry,
    config: RuntimeConfig,
) -> ProjectResult {
    start_project(controller, registry, config).join()
}
