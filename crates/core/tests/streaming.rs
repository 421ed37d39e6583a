//! Adaptive-loop fault suite: the MSM controller under the same abuse
//! the framework gets in `tests/faults.rs` and `tests/server_chaos.rs`.
//!
//! In streaming mode every segment completion immediately mutates the
//! incremental estimator and decides a lineage's fate, and a single
//! in-flight background recluster may be outstanding at any time. Under
//! the generation barrier a finished lineage parks until every live
//! lineage has parked and no recluster is in flight, so each hazard that
//! can hold a wave open runs in both modes. The hazards these tests pin
//! down:
//!
//! * a *permanently failing* lineage (every attempt errors until the
//!   retry budget drops the command) must not wedge the stream — the
//!   slot parks on the frames that did arrive and stays in rotation (so
//!   a dropped segment closes the barrier's wave), and the project
//!   drains to a parseable report;
//! * a worker that dies mid-segment is re-orphaned through the watchdog
//!   and the chunk resumes elsewhere, with no duplicate observation of
//!   the lost chunk (exactly-once delivery into the estimator);
//! * a dropped `msm-build` must clear the single-flight rebuild ticket,
//!   or `maybe_finish` (and the barrier) waits forever on a result that
//!   can never come;
//! * the whole continuously-mutated decision state — lineages, parked
//!   or not, stream counts, rebuild ticket, budget counters — survives a
//!   server SIGKILL via the write-ahead log, and a restarted server
//!   finishes the project; a post-completion restart replays straight
//!   to the same verdict without re-running anything.

use copernicus_core::messages::{ToServer, ToWorker};
use copernicus_core::prelude::*;
use copernicus_core::transport::{self, ChannelWorkerTransport};
use copernicus_core::{spawn_worker, ExecContext, ExecError, Server, WorkerHandle};
use mdsim::VillinModel;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Scaffolding
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Fresh scratch state directory; the WAL creates it on open.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copernicus_streaming_{}_{}_{}",
        tag,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Both adaptive modes, for the hazards that can hold a wave open.
const MODES: [AdaptiveMode; 2] = [AdaptiveMode::Streaming, AdaptiveMode::Generational];

/// A laptop-instant project: 4 live lineages, a budget of 12 segments,
/// 2 chunks per segment when streaming so mid-segment faults are
/// reachable (the barrier runs whole segments).
fn config(mode: AdaptiveMode) -> MsmProjectConfig {
    MsmProjectConfig {
        mode,
        chunks_per_segment: 2,
        n_starts: 2,
        sims_per_start: 2,
        segment_ns: 5.0,
        record_interval: 40,
        temperature: 0.55,
        n_clusters: 10,
        lag_frames: 1,
        respawn_fraction: 0.5,
        generations: 3,
        seed: 3,
        ..MsmProjectConfig::default()
    }
}

/// `mdrun` commands a fault-free run of `config` completes.
fn mdrun_budget(config: &MsmProjectConfig) -> u64 {
    let chunks = match config.mode {
        AdaptiveMode::Streaming => config.chunks_per_segment,
        AdaptiveMode::Generational => 1,
    };
    (config.generations * config.n_trajectories_per_generation() * chunks) as u64
}

/// Wraps a real executor and lets a policy veto individual executions
/// with an injected [`ExecError`]; everything else is delegated.
struct Saboteur {
    inner: Arc<dyn CommandExecutor>,
    policy: SabotagePolicy,
}

/// Which commands a [`Saboteur`] fails, and how.
type SabotagePolicy = Arc<dyn Fn(&Command) -> Option<ExecError> + Send + Sync>;

impl CommandExecutor for Saboteur {
    fn executables(&self) -> Vec<ExecutableSpec> {
        self.inner.executables()
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        if let Some(err) = (self.policy)(ctx.command) {
            return Err(err);
        }
        self.inner.execute(ctx)
    }
}

fn lineage_of(cmd: &Command) -> Option<u64> {
    cmd.payload
        .get("tag")
        .and_then(|t| t.get("lineage"))
        .and_then(|l| l.as_u64())
}

fn fault_runtime(max_attempts: u32, backoff: Duration) -> RuntimeConfig {
    RuntimeConfig {
        n_workers: 4,
        worker: WorkerConfig {
            heartbeat_interval: Duration::from_millis(30),
            ..WorkerConfig::default()
        },
        server: ServerConfig {
            heartbeat_interval: Duration::from_millis(30),
            watchdog_period: Duration::from_millis(15),
            max_attempts,
            retry_backoff_base: backoff,
            retry_backoff_max: 4 * backoff,
            ..ServerConfig::default()
        },
        ..RuntimeConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Permanent lineage failure: the stream drains around the cursed slot
// ---------------------------------------------------------------------------

#[test]
fn permanently_failing_lineage_does_not_wedge_the_stream() {
    for mode in MODES {
        permanently_failing_lineage(mode);
    }
}

fn permanently_failing_lineage(mode: AdaptiveMode) {
    let model = Arc::new(VillinModel::hp35());
    let failures = Arc::new(AtomicUsize::new(0));
    let counted = failures.clone();
    // Lineage 0 never completes a single chunk: every dispatch errors
    // until the retry budget gives up and drops the command. The drop
    // handler must keep the slot in rotation (deciding from whatever
    // frames arrived), so the rest of the ensemble spends the budget.
    let mdrun = Saboteur {
        inner: Arc::new(MdRunExecutor::new(model)),
        policy: Arc::new(move |cmd: &Command| {
            if lineage_of(cmd) == Some(0) {
                counted.fetch_add(1, Ordering::Relaxed);
                Some(ExecError::Failed("injected: lineage 0 is cursed".into()))
            } else {
                None
            }
        }),
    };
    let registry = ExecutorRegistry::new()
        .with(Arc::new(mdrun))
        .with(Arc::new(MsmBuildExecutor));

    // A generous backoff keeps the cursed lineage's fail/drop/extend
    // cycle slower than real segments, so the healthy lineages make
    // progress between drops.
    let result = run_project(
        Box::new(MsmController::new(config(mode))),
        registry,
        fault_runtime(2, Duration::from_millis(25)),
    );

    assert!(
        result.commands_dropped >= 1,
        "{mode:?}: lineage 0 must exhaust its retry budget at least once"
    );
    assert!(
        failures.load(Ordering::Relaxed) >= 2,
        "{mode:?}: each drop takes max_attempts = 2 failed executions"
    );
    assert_eq!(result.workers_lost, 0, "errors are reported, not crashes");
    let report = MsmProjectReport::from_value(&result.result)
        .expect("a stream with a dead lineage must still produce a report");
    assert!(!report.generations.is_empty());
    assert!(report.min_rmsd_to_native.is_finite());
}

// ---------------------------------------------------------------------------
// Worker crash mid-segment: watchdog re-orphans, the chunk resumes
// ---------------------------------------------------------------------------

#[test]
fn worker_crash_mid_stream_requeues_and_completes() {
    let model = Arc::new(VillinModel::hp35());
    let crashes = Arc::new(AtomicUsize::new(0));
    let budget = crashes.clone();
    // The first two mdrun executions take their workers down with them
    // (silence, not an error report): the heartbeat watchdog must
    // re-queue both chunks and the surviving workers finish the stream.
    let mdrun = Saboteur {
        inner: Arc::new(MdRunExecutor::new(model)),
        policy: Arc::new(move |_cmd: &Command| {
            if budget.fetch_add(1, Ordering::Relaxed) < 2 {
                Some(ExecError::SimulatedCrash)
            } else {
                None
            }
        }),
    };
    let registry = ExecutorRegistry::new()
        .with(Arc::new(mdrun))
        .with(Arc::new(MsmBuildExecutor));

    let result = run_project(
        Box::new(MsmController::new(config(AdaptiveMode::Streaming))),
        registry,
        fault_runtime(5, Duration::from_millis(1)),
    );

    assert_eq!(result.workers_lost, 2, "both sabotaged workers must die");
    assert!(
        result.commands_requeued >= 2,
        "each crashed worker's chunk must be re-orphaned"
    );
    assert_eq!(result.commands_dropped, 0);
    // Budget: 3 rounds × 4 lineages × 2 chunks, plus any reclusters —
    // every chunk lands exactly once despite the crashes.
    assert!(result.commands_completed >= 24);
    let report = MsmProjectReport::from_value(&result.result).expect("report must parse");
    assert!(!report.generations.is_empty());
}

// ---------------------------------------------------------------------------
// Dropped recluster: the single-flight ticket must clear
// ---------------------------------------------------------------------------

#[test]
fn dead_recluster_cannot_wedge_the_stream() {
    for mode in MODES {
        dead_recluster(mode);
    }
}

fn dead_recluster(mode: AdaptiveMode) {
    let model = Arc::new(VillinModel::hp35());
    let build_attempts = Arc::new(AtomicUsize::new(0));
    let counted = build_attempts.clone();
    // Every background recluster fails until dropped. The drop handler
    // must clear the rebuild ticket — `maybe_finish` refuses to finish,
    // and the barrier to close a wave, while one is outstanding — and
    // the stream keeps estimating on the founding partitioning.
    let builds = Saboteur {
        inner: Arc::new(MsmBuildExecutor),
        policy: Arc::new(move |_cmd: &Command| {
            counted.fetch_add(1, Ordering::Relaxed);
            Some(ExecError::Failed(
                "injected: recluster node is cursed".into(),
            ))
        }),
    };
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model)))
        .with(Arc::new(builds));

    // The long-run/tiny-model shape that provably drifts past the
    // rebuild threshold (see `streaming_background_rebuild_triggers_on_
    // drift` in the controller's unit tests).
    let config = MsmProjectConfig {
        generations: 6,
        n_clusters: 5,
        ..config(mode)
    };
    let result = run_project(
        Box::new(MsmController::new(config)),
        registry,
        fault_runtime(2, Duration::from_millis(1)),
    );

    assert!(
        build_attempts.load(Ordering::Relaxed) >= 1,
        "{mode:?}: drift must have dispatched at least one recluster"
    );
    assert!(
        result.commands_dropped >= 1,
        "{mode:?}: the recluster must be dropped"
    );
    let report = MsmProjectReport::from_value(&result.result).expect("report must parse");
    assert_eq!(
        report.n_rebuilds, 0,
        "{mode:?}: no recluster ever landed, so none may be swapped in"
    );
    assert!(!report.generations.is_empty());
}

// ---------------------------------------------------------------------------
// Server SIGKILL mid-stream: the WAL carries the whole decision state
// ---------------------------------------------------------------------------

/// A durable streaming server incarnation with the kill switch exposed,
/// mirroring the rig in `tests/server_chaos.rs` but with the real MSM
/// controller and real MD workers.
struct StreamRig {
    hub: transport::ChannelHub,
    monitor: Monitor,
    shared_fs: SharedFs,
    kill: Arc<AtomicBool>,
    server_thread: std::thread::JoinHandle<ProjectResult>,
}

fn stream_rig(dir: &Path, config: MsmProjectConfig) -> StreamRig {
    let server_config = ServerConfig {
        heartbeat_interval: Duration::from_millis(25),
        watchdog_period: Duration::from_millis(10),
        max_attempts: 5,
        retry_backoff_base: Duration::from_millis(1),
        retry_backoff_max: Duration::from_millis(10),
        state_dir: Some(dir.display().to_string()),
        ..ServerConfig::default()
    };
    let (hub, server_transport) = transport::channel();
    let shared_fs = SharedFs::new();
    let monitor = Monitor::new();
    let kill = Arc::new(AtomicBool::new(false));
    let server = Server::new(
        ProjectId(0),
        Box::new(MsmController::new(config)),
        server_config,
        shared_fs.clone(),
        monitor.clone(),
        Box::new(server_transport),
    )
    .with_kill_switch(kill.clone());
    let server_thread = std::thread::spawn(move || server.run());
    StreamRig {
        hub,
        monitor,
        shared_fs,
        kill,
        server_thread,
    }
}

fn md_workers(
    rig: &StreamRig,
    model: &Arc<VillinModel>,
    base_id: u64,
    n: usize,
) -> Vec<WorkerHandle> {
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model.clone())))
        .with(Arc::new(MsmBuildExecutor));
    let wc = WorkerConfig {
        heartbeat_interval: Duration::from_millis(25),
        poll_interval: Duration::from_millis(2),
        shared_fs: Some(rig.shared_fs.clone()),
        ..WorkerConfig::default()
    };
    (0..n)
        .map(|i| {
            let id = WorkerId(base_id + i as u64);
            spawn_worker(
                id,
                wc.clone(),
                registry.clone(),
                Box::new(rig.hub.attach(id)),
            )
        })
        .collect()
}

/// Scripted channel worker: announce with the real mdrun executable
/// spec, so the dispatcher matches it exactly like a pool worker.
fn announce_md(
    rig: &StreamRig,
    worker: WorkerId,
    model: &Arc<VillinModel>,
) -> ChannelWorkerTransport {
    let mut link = rig.hub.attach(worker);
    link.announce(ToServer::Announce {
        worker,
        desc: WorkerDescription {
            platform: Platform::Smp,
            resources: Resources::new(1, 1_000_000),
            executables: MdRunExecutor::new(model.clone()).executables(),
        },
    })
    .unwrap();
    link
}

fn fetch_command(link: &mut ChannelWorkerTransport, worker: WorkerId) -> Command {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        link.send(ToServer::RequestWork { worker }).unwrap();
        match link.recv_timeout(Duration::from_millis(100)) {
            Ok(ToWorker::Workload(mut cmds)) => {
                assert_eq!(cmds.len(), 1, "scripted workers take one command");
                return cmds.pop().unwrap();
            }
            Ok(_) | Err(_) => {
                assert!(Instant::now() < deadline, "no workload within 5s");
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

#[test]
fn streaming_project_survives_server_kill_and_restart() {
    for mode in MODES {
        server_kill_and_restart(mode);
    }
}

fn server_kill_and_restart(mode: AdaptiveMode) {
    let dir = state_dir("restart");
    let model = Arc::new(VillinModel::hp35());
    let config = config(mode);
    let budget = mdrun_budget(&config);

    // Incarnation 1 is scripted for a deterministic kill point: one
    // hand-driven worker completes exactly 5 commands (real MD outputs,
    // so the streaming state is genuine), takes a 6th in flight, and
    // then the server is killed — provably mid-stream, with work both
    // queued and running: streaming is before the bootstrap threshold,
    // the barrier one lineage into its second wave (a wave half parked).
    let r = stream_rig(&dir, config.clone());
    let md = MdRunExecutor::new(model.clone());
    let a = WorkerId(900);
    let mut a_link = announce_md(&r, a, &model);
    for _ in 0..5 {
        let cmd = fetch_command(&mut a_link, a);
        let data = md
            .execute(ExecContext {
                command: &cmd,
                worker: a,
                shared_fs: None,
                telemetry: None,
            })
            .expect("scripted mdrun must succeed");
        let output = CommandOutput::new(&cmd, a, data, 0.01);
        r.hub.send(ToServer::Completed { output }).unwrap();
    }
    let t0 = Instant::now();
    loop {
        let s = r.monitor.status();
        if s.commands_completed >= 5 {
            assert!(
                !s.finished,
                "5 of {budget} commands cannot finish the project"
            );
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "completions not absorbed within 10s"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let in_flight = fetch_command(&mut a_link, a);
    r.kill.store(true, Ordering::Relaxed);
    let dead = r.server_thread.join().unwrap();
    assert!(dead.result.is_null(), "a killed server reports no result");
    assert_eq!(dead.commands_completed, 5);
    drop(a_link);
    drop(r.hub);
    // The in-flight chunk dies with its scripted worker: incarnation 2
    // must re-orphan it through the watchdog and run it elsewhere.
    drop(in_flight);

    // Incarnation 2: fresh controller, same directory. Recovery must
    // restore the streaming snapshot (lineages, incremental counts,
    // budget counters) and the terminal set, then finish the project.
    let r2 = stream_rig(&dir, config.clone());
    let workers2 = md_workers(&r2, &model, 100, 3);
    let result = r2.server_thread.join().unwrap();
    drop(r2.hub);
    for w in workers2 {
        w.join();
    }

    // Fault-free: nothing may be dropped, the 5 restored completions
    // carry over, and the full budget is spent across both
    // incarnations.
    assert_eq!(result.commands_dropped, 0);
    assert!(
        result.commands_requeued >= 1,
        "{mode:?}: the in-flight command must be re-orphaned"
    );
    assert!(result.commands_completed >= budget);
    let report = MsmProjectReport::from_value(&result.result)
        .expect("streaming report must parse after recovery");
    assert!(!report.generations.is_empty());
    assert!(report.min_rmsd_to_native.is_finite());

    // Incarnation 3: a post-completion restart replays the ledger to
    // the identical verdict without any workers attached.
    let r3 = stream_rig(&dir, config);
    let replay = r3.server_thread.join().unwrap();
    drop(r3.hub);
    assert_eq!(replay.result, result.result);
    assert_eq!(
        replay.commands_completed, result.commands_completed,
        "a post-completion restart must not re-run anything"
    );
}
