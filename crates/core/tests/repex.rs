//! Replica-exchange suite: the sync-point workload under the streaming
//! lifecycle, plus the exchange-statistics harness.
//!
//! Replica exchange is the first workload where commands *rendezvous*:
//! a slot cannot advance past leg k until its exchange partner reports
//! leg k (or provably never will). That traffic shape is what these
//! tests abuse:
//!
//! * a seeded end-to-end ladder must produce an acceptance rate that
//!   matches the analytic Metropolis expectation `E[min(1, e^{Δβ·ΔE})]`
//!   within 10% relative error — in both sync and async modes — and
//!   its temperature-swap bookkeeping must be a permutation at every
//!   sync point;
//! * a worker crashing mid-leg must re-orphan the leg without
//!   deadlocking the crashed replica's exchange partner;
//! * a permanently failing replica must be dropped, with the ladder
//!   degrading to N−1 and its neighbors re-linked across the gap;
//! * a server SIGKILL mid-ladder must recover from the WAL with an
//!   exactly-once ledger and a bit-identical exchange history;
//! * what a controller event costs the write-ahead log must stay
//!   bounded by the event — its result plus a small envelope — for
//!   repex *and* for streaming MSM, however much state the controller
//!   has accumulated (the log keeps events, not states: DESIGN.md §15),
//!   so a long project cannot grind the ledger into the disk.

use copernicus_core::messages::ToServer;
use copernicus_core::plugins::repex::ExchangeRecord;
use copernicus_core::prelude::*;
use copernicus_core::telemetry::span_names;
use copernicus_core::transport::{self, ChannelWorkerTransport};
use copernicus_core::{spawn_worker, ExecContext, ExecError, Server, WorkerHandle};
use mdsim::VillinModel;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Scaffolding
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copernicus_repex_{}_{}_{}",
        tag,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// CI sweeps this seed through the whole matrix; locally it defaults.
fn test_seed() -> u64 {
    std::env::var("COPERNICUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(12648430)
}

/// The 6-replica ladder of the acceptance criterion: enough legs for
/// the empirical acceptance fraction to converge on the Metropolis
/// expectation, short enough legs to stay laptop-instant.
fn stats_config(mode: ExchangeMode) -> RepexProjectConfig {
    RepexProjectConfig {
        n_replicas: 6,
        t_min: 0.5,
        t_max: 0.8,
        n_legs: 320,
        steps_per_leg: 120,
        checkpoint_steps: 0,
        mode,
        seed: test_seed(),
    }
}

/// A small ladder for the fault scenarios: long enough for exchanges
/// on both parities, short enough to finish fast under sabotage.
fn fault_config(mode: ExchangeMode) -> RepexProjectConfig {
    RepexProjectConfig {
        n_replicas: 6,
        n_legs: 8,
        steps_per_leg: 150,
        mode,
        seed: test_seed(),
        ..RepexProjectConfig::default()
    }
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

fn slot_of(cmd: &Command) -> Option<u64> {
    cmd.payload
        .get("tag")
        .and_then(|t| t.get("slot"))
        .and_then(|s| s.as_u64())
}

/// Replays the exchange history from the identity occupancy, asserting
/// the walker bookkeeping is a permutation at every sync point: the two
/// recorded pre-swap walkers match the evolving occupancy, and no
/// walker is ever lost or duplicated. Returns the final occupancy.
fn replay_history(n: usize, history: &[ExchangeRecord]) -> Vec<u64> {
    let mut occupancy: Vec<u64> = (0..n as u64).collect();
    for (i, r) in history.iter().enumerate() {
        assert!(r.slot_lo < r.slot_hi && r.slot_hi < n, "record {i}: slots");
        assert_eq!(
            (occupancy[r.slot_lo], occupancy[r.slot_hi]),
            (r.walker_lo, r.walker_hi),
            "record {i}: recorded walkers must match the replayed occupancy"
        );
        if r.accepted {
            occupancy.swap(r.slot_lo, r.slot_hi);
        }
        let mut sorted = occupancy.clone();
        sorted.sort_unstable();
        assert_eq!(
            sorted,
            (0..n as u64).collect::<Vec<_>>(),
            "record {i}: occupancy must stay a permutation of the walkers"
        );
    }
    occupancy
}

/// Every record must be internally consistent: the stored probability
/// is the Metropolis value for the stored energies and ladder, and the
/// verdict is exactly `draw < prob`.
fn assert_metropolis_consistent(ladder: &[f64], history: &[ExchangeRecord]) {
    for (i, r) in history.iter().enumerate() {
        let beta_lo = 1.0 / ladder[r.slot_lo];
        let beta_hi = 1.0 / ladder[r.slot_hi];
        let p = ((beta_lo - beta_hi) * (r.e_lo - r.e_hi)).exp().min(1.0);
        assert!(
            (r.prob - p).abs() < 1e-9,
            "record {i}: stored prob {} vs recomputed {p}",
            r.prob
        );
        assert!((0.0..1.0).contains(&r.draw), "record {i}: draw in [0,1)");
        assert_eq!(r.accepted, r.draw < r.prob, "record {i}: verdict");
    }
}

/// Where the exchange-history artifact goes (CI uploads it on failure).
fn artifact_path(name: &str) -> PathBuf {
    let dir = std::env::var("COPERNICUS_ARTIFACT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::temp_dir());
    let _ = std::fs::create_dir_all(&dir);
    dir.join(name)
}

// ---------------------------------------------------------------------------
// Exchange statistics: seeded e2e acceptance vs Metropolis expectation
// ---------------------------------------------------------------------------

fn run_stats_ladder(mode: ExchangeMode) -> RepexProjectReport {
    let controller = RepexController::new(stats_config(mode));
    let registry = ExecutorRegistry::new().with(Arc::new(MdRunExecutor::new(controller.model())));
    let result = run_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: 4,
            ..RuntimeConfig::default()
        },
    );
    assert_eq!(
        result.commands_dropped, 0,
        "fault-free ladder drops nothing"
    );
    let report = RepexProjectReport::from_value(&result.result).expect("repex report must parse");
    let artifact = artifact_path(&format!(
        "repex_history_{}_{}.json",
        report.mode,
        test_seed()
    ));
    let _ = std::fs::write(&artifact, format!("{:#}", result.result));
    report
}

fn assert_stats(report: &RepexProjectReport, mode: ExchangeMode) {
    let cfg = stats_config(mode);
    assert_eq!(report.n_alive, 6, "no replica may die in a fault-free run");
    assert_eq!(report.mode, mode.as_str());
    // Alternating parity over 6 replicas: even legs carry 3 pairs and
    // odd legs 2; async resolves the same schedule as sync.
    let expected_attempts = cfg.n_legs.div_ceil(2) * 3 + cfg.n_legs / 2 * 2;
    assert_eq!(
        report.attempts, expected_attempts,
        "the full exchange schedule must run"
    );
    assert_metropolis_consistent(&report.ladder, &report.history);
    let final_occupancy = replay_history(cfg.n_replicas, &report.history);
    assert_eq!(
        final_occupancy, report.walkers,
        "reported walkers must equal the replayed history"
    );
    // The acceptance criterion: empirical rate within 10% relative
    // error of the analytic Metropolis expectation over the same
    // attempts (a seeded, deterministic comparison).
    let expected = report.expected_acceptance;
    assert!(
        expected > 0.05,
        "degenerate ladder: expected acceptance {expected} too small to test"
    );
    let rel = (report.acceptance_rate - expected).abs() / expected;
    assert!(
        rel <= 0.10,
        "{} mode: acceptance {:.4} vs Metropolis expectation {:.4} \
         (relative error {:.3} > 0.10) over {} attempts",
        report.mode,
        report.acceptance_rate,
        expected,
        rel,
        report.attempts
    );
    assert!(
        report.round_trips >= 1,
        "{} mode: walkers must traverse the ladder at least once \
         (got {} round trips)",
        report.mode,
        report.round_trips
    );
}

#[test]
fn seeded_sync_acceptance_matches_metropolis_expectation() {
    let report = run_stats_ladder(ExchangeMode::Sync);
    assert_stats(&report, ExchangeMode::Sync);
}

#[test]
fn seeded_async_acceptance_matches_metropolis_expectation() {
    let report = run_stats_ladder(ExchangeMode::Async);
    assert_stats(&report, ExchangeMode::Async);
    // Async mode resolves the identical deterministic schedule: the
    // decision draws are keyed by (leg, slot), not arrival order, so
    // sync and async histories agree record-for-record modulo order.
    let sync = run_stats_ladder(ExchangeMode::Sync);
    let mut a: Vec<ExchangeRecord> = report.history.clone();
    let mut s: Vec<ExchangeRecord> = sync.history.clone();
    let key = |r: &ExchangeRecord| (r.leg, r.slot_lo);
    a.sort_by_key(key);
    s.sort_by_key(key);
    assert_eq!(
        a, s,
        "sync and async must produce the same exchange history"
    );
}

// ---------------------------------------------------------------------------
// Faults: crashes and permanent failures against the rendezvous shape
// ---------------------------------------------------------------------------

#[test]
fn worker_crash_mid_leg_requeues_without_deadlocking_partner() {
    let controller = RepexController::new(fault_config(ExchangeMode::Async));
    // The first two mdrun executions take their workers down with them
    // (silence, not an error report). The watchdog re-orphans both legs;
    // the crashed replicas' partners hold their sync points until the
    // re-run lands — and must then exchange and finish normally.
    let crashes = Arc::new(AtomicUsize::new(0));
    let budget = crashes.clone();
    let mdrun = Saboteur {
        inner: Arc::new(MdRunExecutor::new(controller.model())),
        policy: Arc::new(move |_cmd: &Command| {
            if budget.fetch_add(1, Ordering::Relaxed) < 2 {
                Some(ExecError::SimulatedCrash)
            } else {
                None
            }
        }),
    };
    let registry = ExecutorRegistry::new().with(Arc::new(mdrun));
    let result = run_project(
        Box::new(controller),
        registry,
        fault_runtime(5, Duration::from_millis(1)),
    );

    assert_eq!(result.workers_lost, 2, "both sabotaged workers must die");
    assert!(result.commands_requeued >= 2, "crashed legs must re-orphan");
    assert_eq!(result.commands_dropped, 0);
    // 6 replicas × 8 legs, exactly once each despite the crashes.
    assert_eq!(result.commands_completed, 48);
    let report = RepexProjectReport::from_value(&result.result).expect("report must parse");
    assert_eq!(report.n_alive, 6, "a crash is not a drop: no replica dies");
    assert_metropolis_consistent(&report.ladder, &report.history);
    replay_history(6, &report.history);
}

#[test]
fn permanently_failing_replica_drops_and_ladder_degrades() {
    let controller = RepexController::new(fault_config(ExchangeMode::Async));
    // Ladder slot 3 never completes a leg: every attempt errors until
    // the retry budget drops the command. The controller must retire
    // the replica, re-link slots 2 and 4 across the gap, and finish the
    // ladder at N−1 — without wedging 3's former partners.
    let failures = Arc::new(AtomicUsize::new(0));
    let counted = failures.clone();
    let mdrun = Saboteur {
        inner: Arc::new(MdRunExecutor::new(controller.model())),
        policy: Arc::new(move |cmd: &Command| {
            if slot_of(cmd) == Some(3) {
                counted.fetch_add(1, Ordering::Relaxed);
                Some(ExecError::Failed("injected: slot 3 is cursed".into()))
            } else {
                None
            }
        }),
    };
    let registry = ExecutorRegistry::new().with(Arc::new(mdrun));
    let result = run_project(
        Box::new(controller),
        registry,
        fault_runtime(2, Duration::from_millis(1)),
    );

    assert_eq!(result.commands_dropped, 1, "slot 3's leg must be dropped");
    assert_eq!(failures.load(Ordering::Relaxed), 2, "max_attempts failures");
    let report = RepexProjectReport::from_value(&result.result).expect("report must parse");
    assert_eq!(report.n_alive, 5, "the ladder degrades to N-1");
    assert_eq!(report.dead_slots, vec![3]);
    assert_metropolis_consistent(&report.ladder, &report.history);
    // Neighbors re-linked: with slot 3 gone, even-parity pairing over
    // the survivors [0,1,2,4,5] couples 2 with 4 across the gap.
    assert!(
        report
            .history
            .iter()
            .any(|r| (r.slot_lo, r.slot_hi) == (2, 4)),
        "slots 2 and 4 must exchange across the dead slot"
    );
    // No exchange may involve the dead slot after it died at leg 0
    // (it fails its very first leg, so it never exchanges at all).
    assert!(
        report
            .history
            .iter()
            .all(|r| r.slot_lo != 3 && r.slot_hi != 3),
        "a replica that never completed a leg cannot have exchanged"
    );
}

/// A worker per replica: no exchange round ever queues more legs than
/// there are live workers, so no worker is handed a leg ahead while it
/// runs one — a leg never waits in one worker's hand behind another
/// while a worker sits idle, and the exchange point it feeds is not
/// delayed. Read off the server's `attempt` spans (dispatch to result):
/// on each worker they never overlap.
#[test]
fn with_a_worker_per_replica_no_worker_holds_two_legs() {
    for mode in [ExchangeMode::Sync, ExchangeMode::Async] {
        let config = RepexProjectConfig {
            n_legs: 40,
            ..stats_config(mode)
        };
        let controller = RepexController::new(config.clone());
        let registry =
            ExecutorRegistry::new().with(Arc::new(MdRunExecutor::new(controller.model())));
        let telemetry = Telemetry::for_process("repex");
        let result = run_project(
            Box::new(controller),
            registry,
            RuntimeConfig {
                n_workers: config.n_replicas,
                telemetry: Some(telemetry.clone()),
                ..RuntimeConfig::default()
            },
        );
        assert_eq!(result.commands_dropped, 0);
        assert_eq!(result.commands_requeued, 0);
        let tracer = telemetry.tracer();
        assert_eq!(tracer.dropped(), 0, "the tracer kept every span");

        let mut per_worker: HashMap<String, Vec<(u64, u64)>> = HashMap::new();
        let mut dispatched = 0;
        for span in tracer.spans() {
            if span.name != span_names::ATTEMPT {
                continue;
            }
            dispatched += 1;
            let attr = |key: &str| {
                span.attrs
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v.clone())
            };
            assert_eq!(attr("disposition").as_deref(), Some("completed"));
            let worker = attr("worker").expect("an attempt names its worker");
            per_worker
                .entry(worker)
                .or_default()
                .push((span.t_start_ns, span.t_end_ns));
        }
        for (worker, mut held) in per_worker {
            held.sort_unstable();
            for pair in held.windows(2) {
                assert!(
                    pair[1].0 >= pair[0].1,
                    "{mode:?}: {worker} handed a leg at {} ns ahead of the one it held until {} ns",
                    pair[1].0,
                    pair[0].1
                );
            }
        }
        assert_eq!(dispatched, result.commands_completed);
        assert_eq!(dispatched, config.n_replicas as u64 * config.n_legs);
    }
}

// ---------------------------------------------------------------------------
// Server SIGKILL mid-ladder: WAL recovery with identical exchange history
// ---------------------------------------------------------------------------

struct RepexRig {
    hub: transport::ChannelHub,
    monitor: Monitor,
    shared_fs: SharedFs,
    kill: Arc<AtomicBool>,
    server_thread: std::thread::JoinHandle<ProjectResult>,
}

fn repex_rig(dir: &Path, config: RepexProjectConfig) -> RepexRig {
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
        Box::new(RepexController::new(config)),
        server_config,
        shared_fs.clone(),
        monitor.clone(),
        Box::new(server_transport),
    )
    .with_kill_switch(kill.clone());
    let server_thread = std::thread::spawn(move || server.run());
    RepexRig {
        hub,
        monitor,
        shared_fs,
        kill,
        server_thread,
    }
}

fn md_workers(
    rig: &RepexRig,
    model: &Arc<VillinModel>,
    base_id: u64,
    n: usize,
) -> Vec<WorkerHandle> {
    let registry = ExecutorRegistry::new().with(Arc::new(MdRunExecutor::new(model.clone())));
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

fn announce_md(
    rig: &RepexRig,
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
    use copernicus_core::messages::ToWorker;
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
fn repex_project_survives_server_kill_and_restart() {
    let dir = state_dir("restart");
    let model = Arc::new(VillinModel::hp35());
    let config = fault_config(ExchangeMode::Async);

    // Incarnation 1 is scripted for a deterministic kill point: one
    // hand-driven worker completes 7 legs (real MD outputs, so energies
    // and exchange decisions are genuine — with 6 replicas that is at
    // least one resolved leg-0 exchange), takes an 8th leg in flight,
    // and then the server is killed — provably mid-ladder.
    let r = repex_rig(&dir, config.clone());
    let md = MdRunExecutor::new(model.clone());
    let a = WorkerId(900);
    let mut a_link = announce_md(&r, a, &model);
    for _ in 0..7 {
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
        if s.commands_completed >= 7 {
            assert!(!s.finished, "7 of 48 legs cannot finish the ladder");
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
    assert_eq!(dead.commands_completed, 7);
    drop(a_link);
    drop(r.hub);
    // The in-flight leg dies with its scripted worker: incarnation 2
    // must re-orphan it through the watchdog and run it elsewhere.
    drop(in_flight);

    // Incarnation 2: fresh controller, same directory. Recovery must
    // restore the mid-ladder snapshot — slot occupancy, pending
    // energies, the exchange history so far — and finish the ladder.
    let r2 = repex_rig(&dir, config.clone());
    let workers2 = md_workers(&r2, &model, 100, 3);
    let result = r2.server_thread.join().unwrap();
    drop(r2.hub);
    for w in workers2 {
        w.join();
    }

    // 6 replicas × 8 legs, exactly once across both incarnations.
    assert_eq!(result.commands_dropped, 0);
    assert!(
        result.commands_requeued >= 1,
        "the in-flight leg must be re-orphaned"
    );
    assert_eq!(result.commands_completed, 48);
    let report =
        RepexProjectReport::from_value(&result.result).expect("report must parse after recovery");
    assert_eq!(report.n_alive, 6);
    assert_metropolis_consistent(&report.ladder, &report.history);
    replay_history(6, &report.history);

    // The recovered ladder must make the *same* decisions a never-killed
    // server makes: draws are keyed by (leg, slot), energies by the
    // deterministic MD seeds, so the full exchange history is identical.
    let undisturbed = {
        let controller = RepexController::new(config.clone());
        let registry =
            ExecutorRegistry::new().with(Arc::new(MdRunExecutor::new(controller.model())));
        let result = run_project(
            Box::new(controller),
            registry,
            RuntimeConfig {
                n_workers: 3,
                ..RuntimeConfig::default()
            },
        );
        RepexProjectReport::from_value(&result.result).expect("report must parse")
    };
    let key = |r: &ExchangeRecord| (r.leg, r.slot_lo);
    let mut got = report.history.clone();
    let mut want = undisturbed.history.clone();
    got.sort_by_key(key);
    want.sort_by_key(key);
    assert_eq!(
        got, want,
        "recovery must not change a single exchange decision"
    );

    // Incarnation 3: a post-completion restart replays the ledger to
    // the identical verdict without any workers attached.
    let r3 = repex_rig(&dir, config);
    let replay = r3.server_thread.join().unwrap();
    drop(r3.hub);
    assert_eq!(replay.result, result.result);
    assert_eq!(
        replay.commands_completed, result.commands_completed,
        "a post-completion restart must not re-run anything"
    );
}

// ---------------------------------------------------------------------------
// WAL cost per controller event
// ---------------------------------------------------------------------------

/// Runs a controller inline against real executors, recording the
/// serialized snapshot size after every event delivery (what a
/// checkpoint of the controller costs at that point).
fn drive_inline(
    controller: &mut dyn Controller,
    registry: &ExecutorRegistry,
    max_events: usize,
) -> Vec<usize> {
    let shared_fs = SharedFs::new();
    let mut sizes = Vec::new();
    let mut queue: Vec<CommandSpec> = Vec::new();
    let mut next_id = 1u64;
    let absorb = |actions: Vec<Action>, queue: &mut Vec<CommandSpec>| {
        for a in actions {
            if let Action::Spawn(specs) = a {
                queue.extend(specs);
            }
        }
    };
    let actions = controller.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
    absorb(actions, &mut queue);
    sizes.push(snapshot_bytes(controller));
    while !queue.is_empty() && sizes.len() < max_events {
        let spec = queue.remove(0);
        let command = Command::from_spec(CommandId(next_id), ProjectId(0), spec);
        next_id += 1;
        let executor = registry
            .lookup(&command.command_type)
            .expect("registered executor");
        let data = executor
            .execute(ExecContext {
                command: &command,
                worker: WorkerId(1),
                shared_fs: Some(&shared_fs),
                telemetry: None,
            })
            .expect("inline execution succeeds");
        let output = CommandOutput::new(&command, WorkerId(1), data, 0.01);
        let actions = controller.on_event(
            ControllerCtx::test(),
            ControllerEvent::CommandFinished(&output),
        );
        absorb(actions, &mut queue);
        sizes.push(snapshot_bytes(controller));
    }
    sizes
}

fn snapshot_bytes(controller: &dyn Controller) -> usize {
    controller
        .snapshot()
        .map(|v| {
            serde_json::to_string(&v)
                .expect("snapshot serializes")
                .len()
        })
        .unwrap_or(0)
}

/// Runs a project on a durable server and returns, from the log it
/// leaves, every controller-event record as (frame bytes on disk,
/// serialized result bytes), in order, plus the number of controller
/// images the log holds.
fn wal_event_costs(
    tag: &str,
    controller: Box<dyn Controller>,
    registry: ExecutorRegistry,
) -> (Vec<(usize, usize)>, usize) {
    let dir = state_dir(tag);
    let result = run_project(
        controller,
        registry,
        RuntimeConfig {
            n_workers: 2,
            server: ServerConfig {
                state_dir: Some(dir.display().to_string()),
                fsync: FsyncMode::Never,
                ..ServerConfig::default()
            },
            ..RuntimeConfig::default()
        },
    );
    assert!(!result.result.is_null(), "{tag}: the project must finish");
    let log = std::fs::read(dir.join(copernicus_core::wal::WAL_FILE)).expect("the run left a log");
    let _ = std::fs::remove_dir_all(&dir);
    // Frames: 8 hex digits of body length, a space, 8 of CRC, a space,
    // the JSON body, a newline.
    let (mut events, mut images, mut pos) = (Vec::new(), 0, 0);
    while pos < log.len() {
        let len = usize::from_str_radix(std::str::from_utf8(&log[pos..pos + 8]).unwrap(), 16)
            .expect("clean frame header");
        let frame = 18 + len + 1;
        let record: serde_json::Value =
            serde_json::from_slice(&log[pos + 18..pos + 18 + len]).expect("records are JSON");
        match record["kind"].as_str() {
            Some("controller") => images += 1,
            Some("event") => {
                let result_bytes = record["bytes"].as_u64().unwrap_or(0) as usize;
                events.push((frame, result_bytes));
            }
            _ => {}
        }
        pos += frame;
    }
    (events, images)
}

/// The write-ahead log keeps a controller's *events*: what one costs is
/// its serialized result plus an envelope under 1 KiB, for the first
/// event and the last alike, and the controller's image is written
/// once, not once per event.
fn assert_wal_cost_is_per_event(
    tag: &str,
    costs: &(Vec<(usize, usize)>, usize),
    min_events: usize,
) {
    let (events, images) = costs;
    assert!(
        events.len() >= min_events,
        "{tag}: only {} events logged",
        events.len()
    );
    assert_eq!(*images, 1, "{tag}: one base image, none per event");
    for (i, &(frame, result)) in events.iter().enumerate() {
        assert!(
            frame <= result + 1024,
            "{tag}: event {i} of {} cost {frame} bytes of log for a {result}-byte result",
            events.len()
        );
    }
}

#[test]
fn controller_wal_cost_stays_bounded_per_event() {
    // Repex: the snapshot carries current configurations and the
    // exchange history — never trajectories. Budget: 64 KiB absolute
    // for this ladder, and under 1 KiB of growth per event once the
    // slots exist (history appends ~200 bytes per attempt). This is
    // what a checkpoint costs, and what recovery restores.
    let repex_config = RepexProjectConfig {
        n_replicas: 4,
        n_legs: 6,
        steps_per_leg: 100,
        mode: ExchangeMode::Sync,
        seed: test_seed(),
        ..RepexProjectConfig::default()
    };
    let mut repex = RepexController::new(repex_config.clone());
    let registry = ExecutorRegistry::new().with(Arc::new(MdRunExecutor::new(repex.model())));
    let sizes = drive_inline(&mut repex, &registry, 40);
    assert!(sizes.len() >= 20, "the inline drive must make progress");
    let max = *sizes.iter().max().unwrap();
    assert!(
        max < 64 * 1024,
        "repex snapshot reached {max} bytes; the O(N·beads + attempts) \
         contract is broken"
    );
    let first_full = sizes[1];
    let growth = (max.saturating_sub(first_full)) / (sizes.len() - 1);
    assert!(
        growth < 1024,
        "repex snapshot grows {growth} bytes/event; history records \
         must stay compact"
    );

    // Per event, the log pays for the event: on a durable server, both
    // plugins.
    let costs = wal_event_costs(
        "cost_repex",
        Box::new(RepexController::new(repex_config)),
        registry,
    );
    assert_wal_cost_is_per_event("repex", &costs, 24);

    // Streaming MSM: the controller's state carries every trajectory
    // (megabytes, growing with the project), which is exactly why it
    // must not be what an event costs.
    let msm_config = MsmProjectConfig {
        mode: AdaptiveMode::Streaming,
        n_starts: 2,
        sims_per_start: 2,
        segment_ns: 5.0,
        record_interval: 40,
        temperature: 0.55,
        n_clusters: 10,
        lag_frames: 1,
        generations: 3,
        seed: test_seed(),
        ..MsmProjectConfig::default()
    };
    let msm = MsmController::new(msm_config);
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(msm.model())))
        .with(Arc::new(MsmBuildExecutor));
    let costs = wal_event_costs("cost_msm", Box::new(msm), registry);
    assert_wal_cost_is_per_event("msm", &costs, 12);
    let largest_result = costs.0.iter().map(|&(_, result)| result).max().unwrap();
    assert!(
        largest_result > 4 * 1024,
        "an MD segment's result is kilobytes of trajectory ({largest_result} bytes)"
    );
}
