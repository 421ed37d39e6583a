//! Fault-injection end-to-end suite: drives the server's command
//! lifecycle through its error, orphan, resurrection and drop paths and
//! asserts the invariants the lifecycle machine guarantees —
//!
//! * exactly-once controller accounting: every spawned command produces
//!   exactly one `CommandFinished` *or* exactly one `CommandDropped`;
//! * errored-then-healthy commands complete unaided (retry + backoff);
//! * hopeless commands are dropped after exactly `max_attempts`;
//! * resurrected workers' duplicate results are deduplicated by attempt
//!   epoch;
//! * the shared filesystem ends empty (terminal transitions retire
//!   checkpoints).
//!
//! Tests come in two flavours: *scripted* (the test plays the workers by
//! hand over a worker transport, controlling exact interleavings) and
//! *pool* (real worker threads plus a supervisor that replaces crashed
//! workers, under deterministic or seeded-chaos fault injection).

use copernicus_core::faults::{
    ChaosExecutor, ChaosProfile, CrashingExecutor, ExecutionLog, FlakyExecutor,
};
use copernicus_core::prelude::*;
use copernicus_core::transport::{self, ChannelWorkerTransport};
use copernicus_core::{
    messages::{ToServer, ToWorker},
    spawn_worker, ChannelHub, CommandOutput, ExecContext, ExecError, ExecutorRegistry, Server,
    WorkerHandle,
};
use serde_json::json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Shared test controller: spawn n commands, record terminal events,
// finish when every command is accounted for.
// ---------------------------------------------------------------------------

#[derive(Default)]
struct Accounting {
    finished: HashMap<u64, u32>,
    /// id → (times dropped, attempts reported by the last drop).
    dropped: HashMap<u64, (u32, u32)>,
}

impl Accounting {
    fn terminal_events(&self, id: u64) -> u32 {
        self.finished.get(&id).copied().unwrap_or(0)
            + self.dropped.get(&id).map(|&(n, _)| n).unwrap_or(0)
    }
}

struct GatherController {
    specs: Vec<CommandSpec>,
    n: usize,
    seen: usize,
    accounting: Arc<Mutex<Accounting>>,
}

impl GatherController {
    fn new(specs: Vec<CommandSpec>, accounting: Arc<Mutex<Accounting>>) -> Self {
        let n = specs.len();
        GatherController {
            specs,
            n,
            seen: 0,
            accounting,
        }
    }

    fn step(&mut self) -> Vec<Action> {
        self.seen += 1;
        if self.seen == self.n {
            vec![Action::FinishProject {
                result: json!("accounted"),
            }]
        } else {
            vec![]
        }
    }
}

impl Controller for GatherController {
    fn name(&self) -> &str {
        "gather"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                vec![Action::Spawn(std::mem::take(&mut self.specs))]
            }
            ControllerEvent::CommandFinished(output) => {
                *self
                    .accounting
                    .lock()
                    .unwrap()
                    .finished
                    .entry(output.command.0)
                    .or_insert(0) += 1;
                self.step()
            }
            ControllerEvent::CommandDropped {
                command, attempts, ..
            } => {
                {
                    let mut acc = self.accounting.lock().unwrap();
                    let entry = acc.dropped.entry(command.0).or_insert((0, attempts));
                    entry.0 += 1;
                    entry.1 = attempts;
                }
                self.step()
            }
            ControllerEvent::WorkerFailed { .. } => vec![],
        }
    }
}

/// `n` single-core commands. Earlier commands get higher priority so
/// scripted tests know the exact dispatch order.
fn specs(command_type: &str, n: usize) -> Vec<CommandSpec> {
    (0..n)
        .map(|i| {
            CommandSpec::new(command_type, Resources::new(1, 1), json!({ "i": i }))
                .with_priority((n - i) as i32)
        })
        .collect()
}

fn fault_server_config(max_attempts: u32) -> ServerConfig {
    ServerConfig {
        heartbeat_interval: Duration::from_millis(20),
        watchdog_period: Duration::from_millis(8),
        max_attempts,
        retry_backoff_base: Duration::from_millis(5),
        retry_backoff_max: Duration::from_millis(40),
        ..ServerConfig::default()
    }
}

fn fault_runtime_config(n_workers: usize, max_attempts: u32) -> RuntimeConfig {
    RuntimeConfig {
        n_workers,
        worker: WorkerConfig {
            heartbeat_interval: Duration::from_millis(20),
            poll_interval: Duration::from_millis(2),
            ..WorkerConfig::default()
        },
        server: fault_server_config(max_attempts),
        telemetry: None,
        ..RuntimeConfig::default()
    }
}

// ---------------------------------------------------------------------------
// Pool tests: real workers
// ---------------------------------------------------------------------------

#[test]
fn errored_command_retries_with_backoff_and_completes_unaided() {
    let log = ExecutionLog::new();
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let registry = ExecutorRegistry::new().with(Arc::new(FlakyExecutor::new(2, log.clone())));
    let controller =
        GatherController::new(specs(FlakyExecutor::COMMAND_TYPE, 4), accounting.clone());

    let running = start_project(Box::new(controller), registry, fault_runtime_config(2, 5));
    let shared_fs = running.shared_fs.clone();
    let result = running.join();

    assert_eq!(
        result.commands_completed, 4,
        "every flaky command must recover"
    );
    assert_eq!(result.commands_dropped, 0);
    // Two injected failures per command → two requeues per command.
    assert_eq!(result.commands_requeued, 8);
    let acc = accounting.lock().unwrap();
    for id in acc.finished.keys() {
        assert_eq!(acc.terminal_events(*id), 1, "command {id} double-reported");
        assert_eq!(
            log.executions(CommandId(*id)),
            3,
            "command {id} must run exactly fail_times+1 times"
        );
    }
    assert_eq!(shared_fs.n_checkpoints(), 0, "checkpoints must be retired");
}

#[test]
fn hopeless_command_is_dropped_after_exactly_max_attempts() {
    let log = ExecutionLog::new();
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    // Fails forever; budget of 3 attempts.
    let registry =
        ExecutorRegistry::new().with(Arc::new(FlakyExecutor::new(u32::MAX, log.clone())));
    let controller =
        GatherController::new(specs(FlakyExecutor::COMMAND_TYPE, 2), accounting.clone());

    let running = start_project(Box::new(controller), registry, fault_runtime_config(2, 3));
    let shared_fs = running.shared_fs.clone();
    let result = running.join();

    assert_eq!(result.commands_completed, 0);
    assert_eq!(result.commands_dropped, 2);
    // Attempts 1 and 2 re-queue; attempt 3 exhausts the budget.
    assert_eq!(result.commands_requeued, 4);
    let acc = accounting.lock().unwrap();
    assert_eq!(acc.dropped.len(), 2);
    for (id, &(times, attempts)) in &acc.dropped {
        assert_eq!(times, 1, "command {id} dropped more than once");
        assert_eq!(attempts, 3, "drop must report the exhausted budget");
        assert_eq!(
            log.executions(CommandId(*id)),
            3,
            "command {id} must run exactly max_attempts times"
        );
    }
    assert_eq!(shared_fs.n_checkpoints(), 0);
}

/// Hand-built project wiring: server thread plus a hub the test (or a
/// supervisor) can attach workers to.
struct Rig {
    hub: ChannelHub,
    monitor: Monitor,
    shared_fs: SharedFs,
    server_thread: std::thread::JoinHandle<ProjectResult>,
}

fn rig(specs: Vec<CommandSpec>, accounting: Arc<Mutex<Accounting>>, config: ServerConfig) -> Rig {
    let (hub, server_transport) = transport::channel();
    let shared_fs = SharedFs::new();
    let monitor = Monitor::new();
    let controller = GatherController::new(specs, accounting);
    let server = Server::new(
        ProjectId(0),
        Box::new(controller),
        config,
        shared_fs.clone(),
        monitor.clone(),
        Box::new(server_transport),
    );
    let server_thread = std::thread::spawn(move || server.run());
    Rig {
        hub,
        monitor,
        shared_fs,
        server_thread,
    }
}

/// Run a pool of real workers with a supervisor that replaces crashed
/// ones (fresh ids — real clusters never reuse a dead node's identity,
/// and a reused id would keep the dead worker's heartbeat record fresh
/// and strand its commands). Returns the project result.
fn supervise_pool(rig: Rig, registry: ExecutorRegistry, pool_size: usize) -> ProjectResult {
    let worker_config = WorkerConfig {
        heartbeat_interval: Duration::from_millis(20),
        poll_interval: Duration::from_millis(2),
        shared_fs: Some(rig.shared_fs.clone()),
        telemetry: None,
        ..WorkerConfig::default()
    };
    let mut next_id = 0u64;
    let mut pool: Vec<WorkerHandle> = Vec::new();
    let spawn_one = |pool: &mut Vec<WorkerHandle>, next_id: &mut u64| {
        let id = WorkerId(*next_id);
        pool.push(spawn_worker(
            id,
            worker_config.clone(),
            registry.clone(),
            Box::new(rig.hub.attach(id)),
        ));
        *next_id += 1;
    };
    for _ in 0..pool_size {
        spawn_one(&mut pool, &mut next_id);
    }

    while !rig.monitor.status().finished {
        let (dead, live): (Vec<_>, Vec<_>) = pool.drain(..).partition(|h| h.is_finished());
        pool = live;
        for h in dead {
            h.join();
            spawn_one(&mut pool, &mut next_id);
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let result = rig.server_thread.join().unwrap();
    drop(rig.hub);
    for h in pool {
        h.join();
    }
    result
}

#[test]
fn crashed_workers_are_replaced_and_commands_complete() {
    let log = ExecutionLog::new();
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let registry = ExecutorRegistry::new().with(Arc::new(CrashingExecutor::new(1, log.clone())));
    let r = rig(
        specs(CrashingExecutor::COMMAND_TYPE, 3),
        accounting.clone(),
        fault_server_config(5),
    );
    let shared_fs = r.shared_fs.clone();
    let result = supervise_pool(r, registry, 3);

    assert_eq!(result.commands_completed, 3);
    assert_eq!(result.commands_dropped, 0);
    assert!(
        result.workers_lost >= 3,
        "each command kills at least one worker (lost {})",
        result.workers_lost
    );
    let acc = accounting.lock().unwrap();
    for id in acc.finished.keys() {
        assert_eq!(acc.terminal_events(*id), 1);
        assert_eq!(
            log.executions(CommandId(*id)),
            2,
            "command {id}: one crash + one clean run"
        );
    }
    assert_eq!(shared_fs.n_checkpoints(), 0);
}

/// Takes its worker down on command `i = 1`'s first execution, once the
/// server shows two commands running — the one it executes and the one
/// the worker holds behind it, unstarted.
struct CrashHoldingTwo {
    monitor: Monitor,
    log: ExecutionLog,
    held_two: Arc<AtomicBool>,
}

impl CommandExecutor for CrashHoldingTwo {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new("fault", Platform::Smp, "1")]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        let n = self.log.bump(ctx.command.id);
        let i = ctx.command.payload["i"].as_u64();
        if i == Some(1) && n == 1 {
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.monitor.status().commands_running < 2 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(1));
            }
            let held_two = self.monitor.status().commands_running == 2;
            self.held_two.store(held_two, Ordering::Relaxed);
            return Err(ExecError::SimulatedCrash);
        }
        Ok(json!({ "i": i }))
    }
}

/// One worker, four commands: its first report asks for two workloads,
/// and with two commands queued behind them for a fleet of one, both
/// are granted. It dies running the first of the two with the second
/// unstarted in hand: the watchdog re-queues both, the replacement runs
/// both, and each completes exactly once — the held one executed once
/// in all.
#[test]
fn a_worker_killed_holding_two_commands_loses_neither() {
    let log = ExecutionLog::new();
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let r = rig(
        specs("fault", 4),
        accounting.clone(),
        fault_server_config(5),
    );
    let held_two = Arc::new(AtomicBool::new(false));
    let registry = ExecutorRegistry::new().with(Arc::new(CrashHoldingTwo {
        monitor: r.monitor.clone(),
        log: log.clone(),
        held_two: held_two.clone(),
    }));
    let shared_fs = r.shared_fs.clone();
    let result = supervise_pool(r, registry, 1);

    assert!(
        held_two.load(Ordering::Relaxed),
        "the worker died holding two commands"
    );
    assert_eq!(result.workers_lost, 1);
    assert_eq!(
        result.commands_requeued, 2,
        "the running command and the one held behind it"
    );
    assert_eq!(result.commands_completed, 4);
    assert_eq!(result.commands_dropped, 0);
    assert_eq!(result.stale_results_dropped, 0);
    let acc = accounting.lock().unwrap();
    for id in 0..4 {
        assert_eq!(acc.terminal_events(id), 1, "command {id}");
    }
    assert_eq!(log.executions(CommandId(1)), 2, "crashed once, then ran");
    assert_eq!(
        log.executions(CommandId(2)),
        1,
        "the held command never started on the dead worker"
    );
    assert_eq!(shared_fs.n_checkpoints(), 0);
}

/// Chaos seed: `COPERNICUS_TEST_SEED` when set (the CI seed matrix
/// sweeps several), `0xC0FFEE` otherwise — same convention as the
/// wire/codec property tests, so one env var re-seeds the whole suite.
fn chaos_seed() -> u64 {
    std::env::var("COPERNICUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

#[test]
fn chaos_run_accounts_every_command_exactly_once() {
    const N_COMMANDS: usize = 24;
    let seed = chaos_seed();

    let log = ExecutionLog::new();
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let registry = ExecutorRegistry::new().with(Arc::new(ChaosExecutor::new(
        ChaosProfile {
            seed,
            error_pct: 25,
            crash_pct: 15,
        },
        log,
    )));
    let r = rig(
        specs(ChaosExecutor::COMMAND_TYPE, N_COMMANDS),
        accounting.clone(),
        ServerConfig {
            heartbeat_interval: Duration::from_millis(20),
            watchdog_period: Duration::from_millis(8),
            max_attempts: 4,
            retry_backoff_base: Duration::from_millis(4),
            retry_backoff_max: Duration::from_millis(30),
            ..ServerConfig::default()
        },
    );
    let shared_fs = r.shared_fs.clone();
    let result = supervise_pool(r, registry, 4);

    // The exactly-once ledger: every spawned command is accounted for by
    // exactly one terminal event, and nothing is counted twice.
    assert_eq!(
        result.commands_completed + result.commands_dropped,
        N_COMMANDS as u64,
        "completed + dropped must equal spawned"
    );
    let acc = accounting.lock().unwrap();
    let ids: Vec<u64> = acc
        .finished
        .keys()
        .chain(acc.dropped.keys())
        .copied()
        .collect();
    assert_eq!(
        ids.len(),
        N_COMMANDS,
        "every command reaches a terminal event"
    );
    for id in ids {
        assert_eq!(
            acc.terminal_events(id),
            1,
            "command {id}: expected exactly one terminal event"
        );
    }
    for (id, &(_, attempts)) in &acc.dropped {
        assert_eq!(attempts, 4, "command {id} must be dropped at max_attempts");
    }
    assert_eq!(
        shared_fs.n_checkpoints(),
        0,
        "chaos run leaked checkpoints: {:?}",
        shared_fs.checkpointed_commands()
    );
}

// ---------------------------------------------------------------------------
// Scripted tests: the test plays the workers over raw channels
// ---------------------------------------------------------------------------

fn scripted_rig(
    specs: Vec<CommandSpec>,
    accounting: Arc<Mutex<Accounting>>,
    max_attempts: u32,
) -> Rig {
    rig(
        specs,
        accounting,
        ServerConfig {
            heartbeat_interval: Duration::from_millis(25),
            watchdog_period: Duration::from_millis(10),
            max_attempts,
            retry_backoff_base: Duration::from_millis(1),
            retry_backoff_max: Duration::from_millis(10),
            ..ServerConfig::default()
        },
    )
}

/// Attach and announce a scripted worker; the returned transport is the
/// hand-played worker's link to the server.
fn announce(rig: &Rig, worker: WorkerId) -> ChannelWorkerTransport {
    let mut link = rig.hub.attach(worker);
    link.announce(ToServer::Announce {
        worker,
        desc: WorkerDescription {
            platform: Platform::Smp,
            resources: Resources::new(1, 1_000_000),
            executables: vec![ExecutableSpec::new("fault", Platform::Smp, "1")],
        },
    })
    .unwrap();
    link
}

/// Request work until a workload arrives. The polling doubles as the
/// worker's liveness signal (work requests refresh the heartbeat).
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

fn wait_until(rig: &Rig, mut pred: impl FnMut(&ProjectStatus) -> bool, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        if pred(&rig.monitor.status()) {
            return;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(3));
    }
}

fn complete(rig: &Rig, cmd: &Command, worker: WorkerId) {
    let output = CommandOutput::new(cmd, worker, json!({ "by": worker.0 }), 0.01);
    rig.hub.send(ToServer::Completed { output }).unwrap();
}

#[test]
fn resurrected_workers_result_cancels_queued_duplicate() {
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let r = scripted_rig(specs("fault", 2), accounting.clone(), 5);
    let a = WorkerId(101);
    let b = WorkerId(102);

    // A takes the high-priority command X, then falls silent.
    let mut a_link = announce(&r, a);
    let cmd_x = fetch_command(&mut a_link, a);
    assert_eq!(cmd_x.attempts, 1, "first dispatch is epoch 1");
    wait_until(&r, |s| s.workers_lost == 1, "worker A declared lost");
    wait_until(&r, |s| s.commands_requeued == 1, "X re-queued");

    // A resurrects and delivers X's result while the duplicate is still
    // queued: the result must be accepted and the duplicate cancelled.
    complete(&r, &cmd_x, a);
    wait_until(&r, |s| s.commands_completed == 1, "X accepted");

    // B drains the remaining command; X must not be dispatched again.
    let mut b_link = announce(&r, b);
    let cmd_y = fetch_command(&mut b_link, b);
    assert_ne!(
        cmd_y.id, cmd_x.id,
        "cancelled duplicate must not re-dispatch"
    );
    complete(&r, &cmd_y, b);

    let result = r.server_thread.join().unwrap();
    assert_eq!(result.commands_completed, 2);
    assert_eq!(result.commands_requeued, 1);
    assert_eq!(result.stale_results_dropped, 0);
    assert_eq!(result.commands_dropped, 0);
    assert_eq!(
        accounting.lock().unwrap().terminal_events(cmd_x.id.0),
        1,
        "X exactly once"
    );
    assert_eq!(r.shared_fs.n_checkpoints(), 0);
}

#[test]
fn duplicate_completion_after_redispatch_is_dropped_by_epoch() {
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let r = scripted_rig(specs("fault", 2), accounting.clone(), 5);
    let a = WorkerId(201);
    let b = WorkerId(202);

    // A takes X (epoch 1), falls silent; X is re-queued.
    let mut a_link = announce(&r, a);
    let cmd_x1 = fetch_command(&mut a_link, a);
    wait_until(&r, |s| s.commands_requeued == 1, "X re-queued");

    // B picks up the re-dispatch (epoch 2) — X outranks Y by priority.
    let mut b_link = announce(&r, b);
    let cmd_x2 = fetch_command(&mut b_link, b);
    assert_eq!(cmd_x2.id, cmd_x1.id, "B must get the re-queued X");
    assert_eq!(cmd_x2.attempts, 2, "re-dispatch bumps the epoch");

    // A resurrects and delivers the epoch-1 result first: accepted (the
    // work is identical), and B's running record is cancelled.
    complete(&r, &cmd_x1, a);
    wait_until(&r, |s| s.commands_completed == 1, "X accepted once");

    // B's epoch-2 result is now a duplicate and must be dropped.
    complete(&r, &cmd_x2, b);

    // B drains Y to finish the project.
    let cmd_y = fetch_command(&mut b_link, b);
    assert_ne!(cmd_y.id, cmd_x1.id);
    complete(&r, &cmd_y, b);

    let result = r.server_thread.join().unwrap();
    assert_eq!(result.commands_completed, 2, "X once + Y once");
    assert_eq!(result.stale_results_dropped, 1, "B's duplicate dropped");
    assert_eq!(
        accounting.lock().unwrap().terminal_events(cmd_x1.id.0),
        1,
        "X exactly once"
    );
    assert_eq!(r.shared_fs.n_checkpoints(), 0);
}

#[test]
fn stale_error_does_not_burn_attempt_budget() {
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    // max_attempts = 2: one stale error charged by mistake would drop X.
    let r = scripted_rig(specs("fault", 1), accounting.clone(), 2);
    let a = WorkerId(301);
    let b = WorkerId(302);

    let mut a_link = announce(&r, a);
    let cmd_x1 = fetch_command(&mut a_link, a);
    wait_until(&r, |s| s.commands_requeued == 1, "X re-queued");

    let mut b_link = announce(&r, b);
    let cmd_x2 = fetch_command(&mut b_link, b);
    assert_eq!(cmd_x2.attempts, 2);

    // A resurrects with an error report for the *old* epoch. It must be
    // discarded: B's attempt stays live and the budget untouched.
    r.hub
        .send(ToServer::CommandError {
            worker: a,
            project: cmd_x1.project,
            command: cmd_x1.id,
            epoch: cmd_x1.attempts,
            error: "stale failure from resurrected worker".into(),
        })
        .unwrap();

    // B completes its (current-epoch) attempt successfully.
    complete(&r, &cmd_x2, b);

    let result = r.server_thread.join().unwrap();
    assert_eq!(result.commands_completed, 1);
    assert_eq!(
        result.commands_dropped, 0,
        "stale error must not burn budget"
    );
    assert_eq!(result.stale_results_dropped, 1);
    assert_eq!(accounting.lock().unwrap().terminal_events(cmd_x1.id.0), 1);
    assert_eq!(r.shared_fs.n_checkpoints(), 0);
}

#[test]
fn silent_last_workers_drop_finishes_the_project() {
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    // One command, one attempt, one worker that takes it and is never
    // heard from again: the watchdog's drop is the last thing that
    // happens, and the controller must hear of it with no message left
    // to wake the server.
    let r = scripted_rig(specs("fault", 1), accounting.clone(), 1);
    let a = WorkerId(501);
    let mut a_link = announce(&r, a);
    let cmd_x = fetch_command(&mut a_link, a);

    wait_until(&r, |s| s.finished, "the project to finish on the drop");
    let result = r.server_thread.join().unwrap();
    assert_eq!(result.workers_lost, 1);
    assert_eq!(result.commands_dropped, 1);
    assert_eq!(result.commands_completed, 0);
    assert_eq!(accounting.lock().unwrap().dropped[&cmd_x.id.0], (1, 1));
}

#[test]
fn error_backoff_embargoes_redispatch() {
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    // Large backoff relative to the test: after one error the command
    // must stay embargoed for ~150 ms even with an idle worker asking.
    let r = rig(
        specs("fault", 1),
        accounting,
        ServerConfig {
            heartbeat_interval: Duration::from_millis(200),
            watchdog_period: Duration::from_millis(10),
            max_attempts: 5,
            retry_backoff_base: Duration::from_millis(150),
            retry_backoff_max: Duration::from_secs(1),
            ..ServerConfig::default()
        },
    );
    let a = WorkerId(401);
    let mut a_link = announce(&r, a);
    let cmd_x1 = fetch_command(&mut a_link, a);
    r.hub
        .send(ToServer::CommandError {
            worker: a,
            project: cmd_x1.project,
            command: cmd_x1.id,
            epoch: cmd_x1.attempts,
            error: "flaky".into(),
        })
        .unwrap();
    wait_until(&r, |s| s.commands_requeued == 1, "X re-queued");

    // While embargoed, work requests come back empty.
    let t0 = Instant::now();
    let cmd_x2 = fetch_command(&mut a_link, a);
    let waited = t0.elapsed();
    assert_eq!(cmd_x2.attempts, 2);
    assert!(
        waited >= Duration::from_millis(100),
        "re-dispatch must respect the backoff embargo (waited {waited:?})"
    );

    complete(&r, &cmd_x2, a);
    let result = r.server_thread.join().unwrap();
    assert_eq!(result.commands_completed, 1);
    assert_eq!(r.shared_fs.n_checkpoints(), 0);
}
