//! One project, from harness start to joined threads.

use crate::harness::{ControllerLog, ExecLog, GatedController, Mode, Recorder, TimedExecutor};
use crate::layers;
use crate::workloads::{self, Workload, N_WORKERS};
use copernicus_core::wal::{self, FsyncMode, RecoveredState};
use copernicus_core::{
    connect_workers, serve_project, start_project, AuthKey, ExecutorRegistry, Monitor,
    ProjectResult, RuntimeConfig, ServerConfig, Telemetry,
};
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything a finished run leaves behind for the analysis.
pub struct Run {
    pub workload: Workload,
    pub window_secs: f64,
    pub rec: Arc<Recorder>,
    pub execs: ExecLog,
    pub log: ControllerLog,
    pub result: ProjectResult,
    /// Harness start → first `execute` call.
    pub setup_secs: f64,
    /// Checksum mismatches the synthetic controller counted.
    pub mismatches: u64,
    pub telemetry: Option<Telemetry>,
    pub queue_depth_peak: usize,
    /// `VmHWM` when the project's threads had been joined, before the
    /// harness read anything back.
    pub peak_rss_mb: f64,
    pub durable: Option<Durable>,
}

/// What a durable run wrote and what reading it back gave.
pub struct Durable {
    /// A hard link to the log's first generation, taken before any
    /// command ran. Compaction replaces `wal.log` by rename, so this
    /// name keeps every record up to the first compaction.
    pub first_generation: PathBuf,
    pub log_bytes_final: u64,
    /// How much of the final log `wal::replay_bytes` was timed on (see
    /// [`layers::replay_prefix`]) and how long it took.
    pub replayed_bytes: u64,
    pub replay_secs: f64,
    /// The replayed state, when the whole log was replayed.
    pub recovered: Option<RecoveredState>,
    /// Whether this run was asked to replay its log at all.
    pub replay_attempted: bool,
    pub state_dir: PathBuf,
}

impl Drop for Durable {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.state_dir);
    }
}

static STATE_DIRS: AtomicU64 = AtomicU64::new(0);

/// Run `workload` for `window_secs` after its first `execute` call.
/// `replay` times `wal::replay_bytes` on a durable run's log afterwards
/// and checks the state it gives.
pub fn run_once(
    workload: Workload,
    seed: u64,
    window_secs: f64,
    mode: Mode,
    replay: bool,
    out_dir: &Path,
) -> Run {
    let epoch = Instant::now();
    let rec = Arc::new(Recorder::new(epoch, mode, window_secs));
    let telemetry = (mode == Mode::Traced).then(|| Telemetry::for_process("copbench"));

    // Inputs: everything the program will see is generated from `seed`.
    let workloads::Project {
        controller,
        executors,
        mismatches,
    } = workloads::project(workload, seed);
    let (gated, log_sink) = GatedController::new(controller, rec.clone(), workload.villin());
    let registry = executors
        .into_iter()
        .fold(ExecutorRegistry::new(), |registry, executor| {
            registry.with(Arc::new(TimedExecutor::new(executor, rec.clone())))
        });
    let mut worker = workloads::worker_config(workload);
    worker.telemetry = telemetry.clone();

    let state_dir = workload.durable().then(|| {
        let n = STATE_DIRS.fetch_add(1, Ordering::Relaxed);
        out_dir.join(format!(
            "state-{}-{}-{n}",
            workload.name(),
            std::process::id()
        ))
    });
    let mut first_generation = None;

    let sampler = QueueSampler::default();
    let result = if workload.tcp() {
        let key = AuthKey::from_passphrase("copbench");
        let mut builder =
            workloads::tune_server(workload, ServerConfig::builder()).bind("127.0.0.1:0", key);
        if let Some(dir) = &state_dir {
            let _ = std::fs::remove_dir_all(dir);
            builder = builder
                .state_dir(dir.to_string_lossy())
                .fsync(FsyncMode::Never);
        }
        let serving = serve_project(
            Box::new(gated),
            RuntimeConfig {
                n_workers: 0,
                server: builder.build().expect("server config validates"),
                telemetry: telemetry.clone(),
                ..RuntimeConfig::default()
            },
        )
        .expect("loopback server binds");
        if let Some(dir) = &state_dir {
            let link = dir.join("wal.gen0");
            std::fs::hard_link(dir.join(wal::WAL_FILE), &link)
                .expect("the server created its log before returning");
            first_generation = Some(link);
        }
        let workers = connect_workers(
            &serving.local_addr.to_string(),
            key,
            N_WORKERS,
            worker,
            registry,
        )
        .expect("workers connect over loopback");
        let watch = sampler.watch(serving.monitor.clone(), mode);
        let result = serving.join();
        for w in workers {
            w.join();
        }
        sampler.stop(watch);
        result
    } else {
        let project = start_project(
            Box::new(gated),
            registry,
            RuntimeConfig {
                n_workers: N_WORKERS,
                worker,
                telemetry: telemetry.clone(),
                ..RuntimeConfig::default()
            },
        );
        let watch = sampler.watch(project.monitor.clone(), mode);
        let result = project.join();
        sampler.stop(watch);
        result
    };

    let peak_rss_mb = peak_rss_mb();
    let log = log_sink
        .lock()
        .expect("controller log lock")
        .take()
        .expect("the controller handed its log over when the project finished");
    let setup_secs = rec.window_start_ns().map_or(f64::NAN, |t| t as f64 / 1e9);
    let durable = state_dir.map(|state_dir| {
        let mut durable = Durable {
            first_generation: first_generation.expect("linked when the server started"),
            log_bytes_final: 0,
            replayed_bytes: 0,
            replay_secs: 0.0,
            recovered: None,
            replay_attempted: replay,
            state_dir,
        };
        if replay {
            let mut file = std::fs::File::open(durable.state_dir.join(wal::WAL_FILE))
                .expect("the run's log is readable");
            durable.log_bytes_final = file.metadata().map_or(0, |m| m.len());
            let prefix = layers::replay_prefix(&mut file).expect("log headers are readable");
            let mut bytes = vec![0; prefix as usize];
            file.seek(SeekFrom::Start(0))
                .and_then(|_| file.read_exact(&mut bytes))
                .expect("the prefix was just measured");
            let t0 = Instant::now();
            let (state, clean_len) = wal::replay_bytes(&bytes);
            durable.replay_secs = t0.elapsed().as_secs_f64();
            durable.replayed_bytes = clean_len as u64;
            durable.recovered = (clean_len as u64 == durable.log_bytes_final).then_some(state);
        }
        durable
    });
    Run {
        workload,
        window_secs,
        execs: rec.take_execs(),
        rec,
        log,
        result,
        setup_secs,
        mismatches: mismatches.load(Ordering::Relaxed),
        telemetry,
        queue_depth_peak: sampler.peak.load(Ordering::Relaxed),
        peak_rss_mb,
        durable,
    }
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Polls the project monitor for the queue depth the server publishes
/// (traced runs only; the monitor is the program's public status view).
#[derive(Default)]
struct QueueSampler {
    peak: Arc<AtomicUsize>,
    stop: Arc<AtomicBool>,
}

impl QueueSampler {
    fn watch(&self, monitor: Monitor, mode: Mode) -> Option<std::thread::JoinHandle<()>> {
        if mode != Mode::Traced {
            return None;
        }
        let (peak, stop) = (self.peak.clone(), self.stop.clone());
        Some(std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                peak.fetch_max(monitor.status().commands_queued, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(5));
            }
        }))
    }

    fn stop(&self, watch: Option<std::thread::JoinHandle<()>>) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = watch {
            handle.join().expect("queue sampler does not panic");
        }
    }
}
