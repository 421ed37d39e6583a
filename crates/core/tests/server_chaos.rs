//! Kill-and-restart-the-*server* chaos suite.
//!
//! The fault suites in `tests/faults.rs` and `tests/overlay.rs` only
//! ever kill workers and delegates; here the project server itself is
//! the victim. Every test runs with a `state_dir`, SIGKILLs the server
//! (kill switch: the loop stops dead, no shutdown broadcast, nothing
//! flushed beyond what the WAL fsync policy already forced), restarts
//! it on the same directory and asserts the recovery invariants:
//!
//! * queued work is re-queued, in-flight work is re-orphaned through
//!   the ordinary watchdog, attempt epochs survive so pre-crash results
//!   from surviving workers are still judged by epoch;
//! * the terminal set survives: a command that completed before the
//!   crash is never dispatched again, and duplicate results for it are
//!   dropped as stale;
//! * checkpoints move with the commands they belong to and the shared
//!   filesystem ends empty (the leak regression from the
//!   decline/re-queue audit);
//! * replaying the same WAL twice yields byte-identical state;
//! * a worker evicted at the write-backlog cap is observed by the
//!   server *immediately* (transport-synthesized departure), not after
//!   the heartbeat watchdog finally times out.

use copernicus_core::faults::{ChaosExecutor, ChaosProfile, ExecutionLog};
use copernicus_core::prelude::*;
use copernicus_core::transport::{self, ChannelWorkerTransport};
use copernicus_core::wire::{auth, frame, LinkStats, ListenerConfig};
use copernicus_core::{
    codec,
    messages::{ToServer, ToWorker},
    spawn_worker, wal, ChannelHub, ExecutorRegistry, OverlayConfig, RetryPolicy, Server,
    SleepExecutor, TcpServerTransport, WorkerHandle,
};
use serde_json::json;
use std::collections::HashMap;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Scaffolding (mirrors tests/faults.rs, plus durability)
// ---------------------------------------------------------------------------

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

/// Fresh scratch state directory; the WAL creates it on open.
fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copernicus_chaos_{}_{}_{}",
        tag,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Default)]
struct Accounting {
    finished: HashMap<u64, u32>,
    dropped: HashMap<u64, (u32, u32)>,
}

impl Accounting {
    fn terminal_events(&self, id: u64) -> u32 {
        self.finished.get(&id).copied().unwrap_or(0)
            + self.dropped.get(&id).map(|&(n, _)| n).unwrap_or(0)
    }
}

/// Spawn-and-gather controller like the one in `tests/faults.rs`, but
/// *durable*: its progress counter is the state the WAL rebuilds on
/// recovery (image + re-delivered events), so a restarted server
/// finishes the project on the n-th terminal event counted across
/// incarnations. The shared accounting is outside that state: it is the
/// exactly-once oracle and counts real deliveries only (`ctx.replay`).
struct Gather {
    specs: Vec<CommandSpec>,
    n: usize,
    seen: usize,
    accounting: Arc<Mutex<Accounting>>,
}

impl Gather {
    fn new(specs: Vec<CommandSpec>, accounting: Arc<Mutex<Accounting>>) -> Self {
        let n = specs.len();
        Gather {
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

impl Controller for Gather {
    fn name(&self) -> &str {
        "durable-gather"
    }

    fn on_event(&mut self, ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                vec![Action::Spawn(std::mem::take(&mut self.specs))]
            }
            ControllerEvent::CommandFinished(output) => {
                if !ctx.replay {
                    *self
                        .accounting
                        .lock()
                        .unwrap()
                        .finished
                        .entry(output.command.0)
                        .or_insert(0) += 1;
                }
                self.step()
            }
            ControllerEvent::CommandDropped {
                command, attempts, ..
            } => {
                if !ctx.replay {
                    let mut acc = self.accounting.lock().unwrap();
                    let entry = acc.dropped.entry(command.0).or_insert((0, 0));
                    entry.0 += 1;
                    entry.1 = attempts;
                }
                self.step()
            }
            ControllerEvent::WorkerFailed { .. } => vec![],
        }
    }

    fn snapshot(&self) -> Option<serde_json::Value> {
        Some(json!({ "seen": self.seen as u64 }))
    }

    fn restore(&mut self, snapshot: serde_json::Value) -> bool {
        match snapshot.get("seen").and_then(|v| v.as_u64()) {
            Some(seen) => {
                self.seen = seen as usize;
                true
            }
            None => false,
        }
    }
}

fn specs(command_type: &str, n: usize) -> Vec<CommandSpec> {
    (0..n)
        .map(|i| {
            CommandSpec::new(command_type, Resources::new(1, 1), json!({ "i": i }))
                .with_priority((n - i) as i32)
        })
        .collect()
}

fn scripted_config(max_attempts: u32) -> ServerConfig {
    ServerConfig {
        heartbeat_interval: Duration::from_millis(25),
        watchdog_period: Duration::from_millis(10),
        max_attempts,
        retry_backoff_base: Duration::from_millis(1),
        retry_backoff_max: Duration::from_millis(10),
        ..ServerConfig::default()
    }
}

/// A durable server incarnation over an in-process channel transport,
/// with the crash-test kill switch exposed.
struct Rig {
    hub: ChannelHub,
    monitor: Monitor,
    shared_fs: SharedFs,
    kill: Arc<AtomicBool>,
    server_thread: std::thread::JoinHandle<ProjectResult>,
}

impl Rig {
    /// SIGKILL stand-in: stop the loop dead and return the counters as
    /// they stood. No shutdown broadcast reaches the workers.
    fn kill(self) -> (ProjectResult, ChannelHub) {
        self.kill.store(true, Ordering::Relaxed);
        let result = self.server_thread.join().unwrap();
        (result, self.hub)
    }
}

fn durable_rig(
    specs: Vec<CommandSpec>,
    accounting: Arc<Mutex<Accounting>>,
    dir: &Path,
    mut config: ServerConfig,
) -> Rig {
    config.state_dir = Some(dir.display().to_string());
    let (hub, server_transport) = transport::channel();
    let shared_fs = SharedFs::new();
    let monitor = Monitor::new();
    let controller = Gather::new(specs, accounting);
    let kill = Arc::new(AtomicBool::new(false));
    let server = Server::new(
        ProjectId(0),
        Box::new(controller),
        config,
        shared_fs.clone(),
        monitor.clone(),
        Box::new(server_transport),
    )
    .with_kill_switch(kill.clone());
    let server_thread = std::thread::spawn(move || server.run());
    Rig {
        hub,
        monitor,
        shared_fs,
        kill,
        server_thread,
    }
}

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

fn wait_status(
    monitor: &Monitor,
    mut pred: impl FnMut(&ProjectStatus) -> bool,
    what: &str,
    deadline: Duration,
) {
    let t0 = Instant::now();
    loop {
        if pred(&monitor.status()) {
            return;
        }
        assert!(t0.elapsed() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(3));
    }
}

fn complete(rig: &Rig, cmd: &Command, worker: WorkerId) {
    let output = CommandOutput::new(cmd, worker, json!({ "by": worker.0 }), 0.01);
    rig.hub.send(ToServer::Completed { output }).unwrap();
}

fn chaos_seed() -> u64 {
    std::env::var("COPERNICUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xC0FFEE)
}

fn assert_exactly_once(accounting: &Arc<Mutex<Accounting>>, n: usize) {
    let acc = accounting.lock().unwrap();
    let ids: Vec<u64> = acc
        .finished
        .keys()
        .chain(acc.dropped.keys())
        .copied()
        .collect();
    assert_eq!(ids.len(), n, "every command reaches a terminal event");
    for id in ids {
        assert_eq!(
            acc.terminal_events(id),
            1,
            "command {id}: expected exactly one terminal event"
        );
    }
}

// ---------------------------------------------------------------------------
// Scripted crash/restart: queue, epochs and checkpoints survive
// ---------------------------------------------------------------------------

#[test]
fn restart_restores_queue_epochs_and_checkpoints() {
    let dir = state_dir("restart");
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let r = durable_rig(
        specs("fault", 3),
        accounting.clone(),
        &dir,
        scripted_config(5),
    );

    // A takes the head command and deposits a mid-run checkpoint, as a
    // real executor would; then the server dies with X in flight and
    // the other two commands still queued.
    let a = WorkerId(101);
    let mut a_link = announce(&r, a);
    let cmd_x = fetch_command(&mut a_link, a);
    assert_eq!(cmd_x.attempts, 1, "first dispatch is epoch 1");
    r.shared_fs
        .store_checkpoint(cmd_x.id, json!({ "frame": 17 }));
    let (dead, old_hub) = r.kill();
    assert_eq!(dead.commands_completed, 0);
    assert!(dead.result.is_null(), "a killed server reports no result");
    drop(old_hub);
    drop(a_link);

    // Restart on the same directory. X is re-orphaned through the
    // watchdog (its placeholder worker never heartbeats again) and must
    // come back at epoch 2 with the checkpoint re-attached; Y and Z
    // come back queued. A brand-new worker drains all three.
    let r2 = durable_rig(
        specs("fault", 3),
        accounting.clone(),
        &dir,
        scripted_config(5),
    );
    let b = WorkerId(202);
    let mut b_link = announce(&r2, b);
    let mut saw_x = false;
    for _ in 0..3 {
        let cmd = fetch_command(&mut b_link, b);
        if cmd.id == cmd_x.id {
            saw_x = true;
            assert_eq!(cmd.attempts, 2, "epoch must survive the crash");
            assert_eq!(
                cmd.checkpoint,
                Some(json!({ "frame": 17 })),
                "checkpoint must be re-attached after recovery"
            );
        }
        complete(&r2, &cmd, b);
    }
    assert!(saw_x, "the in-flight command must be re-dispatched");

    let shared_fs = r2.shared_fs.clone();
    let result = r2.server_thread.join().unwrap();
    assert_eq!(result.result, json!("accounted"));
    assert_eq!(result.commands_completed, 3);
    assert_eq!(result.commands_requeued, 1, "exactly one re-orphan for X");
    assert_eq!(result.workers_lost, 1, "only A's ghost is ever lost");
    assert_eq!(result.commands_dropped, 0);
    assert_exactly_once(&accounting, 3);
    assert_eq!(shared_fs.n_checkpoints(), 0, "checkpoints must be retired");
}

// ---------------------------------------------------------------------------
// Terminal set survives: completed work is never redone, stale results
// from surviving workers are dropped
// ---------------------------------------------------------------------------

#[test]
fn terminal_set_survives_restart_and_dedupes_stale_results() {
    let dir = state_dir("dedupe");
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let r = durable_rig(
        specs("fault", 2),
        accounting.clone(),
        &dir,
        scripted_config(5),
    );

    // A completes X, then the server dies.
    let a = WorkerId(11);
    let mut a_link = announce(&r, a);
    let cmd_x = fetch_command(&mut a_link, a);
    complete(&r, &cmd_x, a);
    wait_status(
        &r.monitor,
        |s| s.commands_completed == 1,
        "X accepted",
        Duration::from_secs(5),
    );
    let (dead, old_hub) = r.kill();
    assert_eq!(dead.commands_completed, 1);
    drop(old_hub);
    drop(a_link);

    // A survived the server. It reconnects and re-delivers X's result
    // — the terminal set replayed from the WAL must drop it as stale —
    // then drains Y, which is the only live command left.
    let r2 = durable_rig(
        specs("fault", 2),
        accounting.clone(),
        &dir,
        scripted_config(5),
    );
    let mut a2 = announce(&r2, a);
    complete(&r2, &cmd_x, a);
    let cmd_y = fetch_command(&mut a2, a);
    assert_ne!(cmd_y.id, cmd_x.id, "X must never be dispatched again");
    complete(&r2, &cmd_y, a);

    let shared_fs = r2.shared_fs.clone();
    let result = r2.server_thread.join().unwrap();
    assert_eq!(result.result, json!("accounted"));
    assert_eq!(
        result.commands_completed, 2,
        "one restored completion + one fresh"
    );
    assert_eq!(
        result.stale_results_dropped, 1,
        "the re-delivered pre-crash result must be deduped"
    );
    assert_exactly_once(&accounting, 2);
    assert_eq!(shared_fs.n_checkpoints(), 0);
}

// ---------------------------------------------------------------------------
// Surviving-worker amnesia: a worker that outlives the server but lost
// its result with it must not strand its command
// ---------------------------------------------------------------------------

/// The wire layer replays a worker's pinned announce on reconnect, so a
/// worker that survives the server crash redials the restarted server
/// and announces while the recovered ledger still attributes its old
/// command to it. If the result died with the old server, heartbeats
/// from the (idle) worker must not keep the placeholder alive forever:
/// the re-announce itself re-queues the recovered attribution. The
/// heartbeat budget here is 10 minutes, so only that reconciliation —
/// not the watchdog — can explain the command coming back.
#[test]
fn surviving_worker_reannounce_unsticks_recovered_commands() {
    let dir = state_dir("amnesia");
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let r = durable_rig(
        specs("fault", 2),
        accounting.clone(),
        &dir,
        scripted_config(5),
    );

    // A takes X; the server dies; A's execution result is lost with it.
    let a = WorkerId(77);
    let mut a_link = announce(&r, a);
    let cmd_x = fetch_command(&mut a_link, a);
    let (_, old_hub) = r.kill();
    drop(old_hub);
    drop(a_link);

    // Restart with an enormous heartbeat budget: the watchdog cannot
    // reap the placeholder inside the test window.
    let slow_watchdog = ServerConfig {
        heartbeat_interval: Duration::from_secs(600),
        watchdog_period: Duration::from_millis(10),
        max_attempts: 5,
        retry_backoff_base: Duration::from_millis(1),
        retry_backoff_max: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let r2 = durable_rig(specs("fault", 2), accounting.clone(), &dir, slow_watchdog);

    // The surviving worker redials idle — its announce must re-queue X.
    let mut a2 = announce(&r2, a);
    let mut saw_x = false;
    for _ in 0..2 {
        let cmd = fetch_command(&mut a2, a);
        if cmd.id == cmd_x.id {
            saw_x = true;
            assert_eq!(cmd.attempts, 2, "the re-queued copy keeps its epoch");
        }
        complete(&r2, &cmd, a);
    }
    assert!(saw_x, "X must be re-dispatched after the re-announce");

    let shared_fs = r2.shared_fs.clone();
    let result = r2.server_thread.join().unwrap();
    assert_eq!(result.result, json!("accounted"));
    assert_eq!(result.commands_completed, 2);
    assert_eq!(
        result.commands_requeued, 1,
        "X re-queued by the re-announce"
    );
    assert_eq!(
        result.workers_lost, 0,
        "the worker was never lost: the announce, not the watchdog, reconciled"
    );
    assert_exactly_once(&accounting, 2);
    assert_eq!(shared_fs.n_checkpoints(), 0);
}

// ---------------------------------------------------------------------------
// Seeded chaos with repeated server kills (pool of real workers)
// ---------------------------------------------------------------------------

#[test]
fn chaos_survives_repeated_server_kills_with_exactly_once_ledger() {
    const N_COMMANDS: usize = 16;
    const KILLS: usize = 2;
    let seed = chaos_seed();
    let dir = state_dir("chaos");
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let log = ExecutionLog::new();
    let registry = ExecutorRegistry::new().with(Arc::new(ChaosExecutor::new(
        ChaosProfile {
            seed,
            error_pct: 20,
            crash_pct: 10,
        },
        log,
    )));
    let config = || ServerConfig {
        heartbeat_interval: Duration::from_millis(20),
        watchdog_period: Duration::from_millis(8),
        max_attempts: 8,
        retry_backoff_base: Duration::from_millis(1),
        retry_backoff_max: Duration::from_millis(10),
        ..ServerConfig::default()
    };

    let mut next_worker = 0u64;
    let mut result: Option<ProjectResult> = None;
    let mut final_fs: Option<SharedFs> = None;

    for incarnation in 0..=KILLS {
        let r = durable_rig(
            specs(ChaosExecutor::COMMAND_TYPE, N_COMMANDS),
            accounting.clone(),
            &dir,
            config(),
        );
        let worker_config = WorkerConfig {
            heartbeat_interval: Duration::from_millis(20),
            poll_interval: Duration::from_millis(2),
            shared_fs: Some(r.shared_fs.clone()),
            ..WorkerConfig::default()
        };
        // Real clusters never reuse a dead node's identity: fresh ids
        // across respawns *and* across server incarnations.
        let mut pool: Vec<WorkerHandle> = Vec::new();
        let spawn_one = |pool: &mut Vec<WorkerHandle>, next: &mut u64| {
            let id = WorkerId(*next);
            pool.push(spawn_worker(
                id,
                worker_config.clone(),
                registry.clone(),
                Box::new(r.hub.attach(id)),
            ));
            *next += 1;
        };
        for _ in 0..3 {
            spawn_one(&mut pool, &mut next_worker);
        }

        // Earlier incarnations run until some progress lands, then get
        // killed; the last one is supervised to completion. Chaos may
        // finish the project before the kill quota is spent — fine, we
        // just take the result early.
        let progress_target = ((incarnation + 1) * 3) as u64;
        let t0 = Instant::now();
        loop {
            let status = r.monitor.status();
            if status.finished {
                break;
            }
            if incarnation < KILLS
                && (status.commands_completed + status.commands_dropped >= progress_target
                    || t0.elapsed() > Duration::from_secs(5))
            {
                break;
            }
            assert!(
                t0.elapsed() < Duration::from_secs(60),
                "chaos run stuck (incarnation {incarnation})"
            );
            let (dead, live): (Vec<_>, Vec<_>) = pool.drain(..).partition(|h| h.is_finished());
            pool = live;
            for h in dead {
                h.join();
                spawn_one(&mut pool, &mut next_worker);
            }
            std::thread::sleep(Duration::from_millis(5));
        }

        let finished = r.monitor.status().finished;
        let shared_fs = r.shared_fs.clone();
        let (res, hub) = if finished {
            let res = r.server_thread.join().unwrap();
            (res, r.hub)
        } else {
            r.kill()
        };
        drop(hub); // workers lose their transport and exit
        for h in pool {
            h.join();
        }
        if finished {
            result = Some(res);
            final_fs = Some(shared_fs);
            break;
        }
        if incarnation == KILLS {
            // Supervised-to-completion incarnation can only leave the
            // loop via `finished`; the 60 s guard above fires first.
            unreachable!("final incarnation must finish");
        }
    }

    // An extra incarnation after completion must replay straight to the
    // finished state and return the same verdict without any workers.
    let (result, final_fs) = (result.unwrap(), final_fs.unwrap());
    let replayed = durable_rig(
        specs(ChaosExecutor::COMMAND_TYPE, N_COMMANDS),
        accounting.clone(),
        &dir,
        config(),
    );
    let replay_result = replayed.server_thread.join().unwrap();
    drop(replayed.hub);
    assert_eq!(replay_result.result, result.result);
    assert_eq!(
        replay_result.commands_completed, result.commands_completed,
        "a post-completion restart must not re-run anything"
    );

    assert_eq!(
        result.commands_completed + result.commands_dropped,
        N_COMMANDS as u64,
        "completed + dropped must equal spawned (seed {seed})"
    );
    assert_exactly_once(&accounting, N_COMMANDS);
    assert_eq!(
        final_fs.n_checkpoints(),
        0,
        "chaos run leaked checkpoints: {:?}",
        final_fs.checkpointed_commands()
    );
}

// ---------------------------------------------------------------------------
// WAL replay determinism (the CI job replays twice and diffs)
// ---------------------------------------------------------------------------

#[test]
fn wal_replay_is_deterministic() {
    let dir = state_dir("determinism");
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let r = durable_rig(
        specs("fault", 2),
        accounting.clone(),
        &dir,
        scripted_config(5),
    );

    // Cover a representative record mix: dispatch, checkpoint store,
    // worker loss + requeue, completion, project finish.
    let a = WorkerId(1);
    let mut a_link = announce(&r, a);
    let cmd_x = fetch_command(&mut a_link, a);
    r.shared_fs.store_checkpoint(cmd_x.id, json!({ "t": 3 }));
    drop(a_link); // A falls silent; the watchdog re-queues X
    wait_status(
        &r.monitor,
        |s| s.commands_requeued == 1,
        "X re-queued",
        Duration::from_secs(5),
    );
    let b = WorkerId(2);
    let mut b_link = announce(&r, b);
    for _ in 0..2 {
        let cmd = fetch_command(&mut b_link, b);
        complete(&r, &cmd, b);
    }
    let result = r.server_thread.join().unwrap();
    drop(r.hub);
    assert_eq!(result.commands_completed, 2);

    let first = wal::replay_dir(&dir).expect("replay must succeed").dump();
    let second = wal::replay_dir(&dir).expect("replay must succeed").dump();
    assert!(!first.is_empty(), "the run must leave a non-trivial ledger");
    assert_eq!(
        first, second,
        "two replays of the same log must agree byte for byte"
    );
}

// ---------------------------------------------------------------------------
// Write-backlog eviction is observed immediately (not via the watchdog)
// ---------------------------------------------------------------------------

/// A worker that stops draining its socket while a 12 MiB workload is
/// on the way breaches the listener's (tiny, for this test) write
/// backlog cap. The event loop evicts it; the transport synthesizes a
/// departure; the server must re-queue the in-flight command *promptly*
/// — the heartbeat budget here is 10 minutes, so only the synthesized
/// departure can explain a re-queue within the test deadline.
#[test]
fn write_backlog_eviction_requeues_in_flight_promptly() {
    let key = AuthKey::from_passphrase("flood");
    let listener_config = ListenerConfig {
        write_backlog_cap: 64 * 1024,
        ..ListenerConfig::default()
    };
    let transport =
        TcpServerTransport::bind("127.0.0.1:0", key, listener_config, LinkStats::detached())
            .expect("bind must succeed");
    let addr = transport.local_addr();

    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let blob = "x".repeat(12 * 1024 * 1024);
    let flood_specs = vec![CommandSpec::new(
        "flood",
        Resources::new(1, 1),
        json!({ "blob": blob }),
    )];
    let controller = Gather::new(flood_specs, accounting.clone());
    let config = ServerConfig {
        // The watchdog must be irrelevant: a 10-minute heartbeat budget
        // means any worker loss inside the test window came from the
        // transport's synthesized departure.
        heartbeat_interval: Duration::from_secs(600),
        watchdog_period: Duration::from_millis(10),
        max_attempts: 5,
        retry_backoff_base: Duration::from_millis(1),
        retry_backoff_max: Duration::from_millis(10),
        ..ServerConfig::default()
    };
    let shared_fs = SharedFs::new();
    let monitor = Monitor::new();
    let kill = Arc::new(AtomicBool::new(false));
    let server = Server::new(
        ProjectId(0),
        Box::new(controller),
        config,
        shared_fs.clone(),
        monitor.clone(),
        Box::new(transport),
    )
    .with_kill_switch(kill.clone());
    let server_thread = std::thread::spawn(move || server.run());

    // Hand-rolled worker: authenticate, announce, ask for work — then
    // never read again. The workload frame has nowhere to go.
    let mut stream = TcpStream::connect(addr).expect("connect must succeed");
    auth::client_handshake(&mut stream, &key).expect("handshake must succeed");
    let w = WorkerId(1);
    let send = |stream: &mut TcpStream, msg: &ToServer| {
        // Post-eviction writes may hit a closed socket; that's fine.
        let _ = frame::write_frame(stream, &codec::encode_to_server(msg));
    };
    send(
        &mut stream,
        &ToServer::Announce {
            worker: w,
            desc: WorkerDescription {
                platform: Platform::Smp,
                resources: Resources::new(1, 1_000_000),
                executables: vec![ExecutableSpec::new("flood", Platform::Smp, "1")],
            },
        },
    );
    for _ in 0..3 {
        send(&mut stream, &ToServer::RequestWork { worker: w });
        std::thread::sleep(Duration::from_millis(30));
    }

    wait_status(
        &monitor,
        |s| s.workers_lost == 1 && s.commands_requeued == 1,
        "flooded worker evicted and its command re-queued",
        Duration::from_secs(10),
    );

    kill.store(true, Ordering::Relaxed);
    let result = server_thread.join().unwrap();
    assert_eq!(result.workers_lost, 1);
    assert_eq!(result.commands_requeued, 1);
    assert_eq!(result.commands_completed, 0);
    assert_eq!(shared_fs.n_checkpoints(), 0);
}

// ---------------------------------------------------------------------------
// End to end over TCP: SIGKILL mid-run with live workers and a peered
// delegate, restart on the same state dir, exactly-once ledger
// ---------------------------------------------------------------------------

/// The delegate's own project: nothing to do, which frees its router to
/// offer every local worker to the peered owner.
struct Idle;

impl Controller for Idle {
    fn name(&self) -> &str {
        "chaos-idle"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => vec![Action::FinishProject {
                result: json!("idle"),
            }],
            _ => vec![],
        }
    }
}

fn sleep_specs(n: usize, millis: u64) -> Vec<CommandSpec> {
    (0..n)
        .map(|i| {
            CommandSpec::new("sleep", Resources::new(1, 1), json!({ "millis": millis }))
                .with_priority((n - i) as i32)
        })
        .collect()
}

fn tcp_worker_config() -> WorkerConfig {
    WorkerConfig {
        heartbeat_interval: Duration::from_millis(25),
        poll_interval: Duration::from_millis(2),
        ..WorkerConfig::default()
    }
}

fn owner_runtime(key: AuthKey, bind: &str, dir: &str) -> RuntimeConfig {
    RuntimeConfig {
        n_workers: 0,
        worker: tcp_worker_config(),
        server: ServerConfig::builder()
            .heartbeat_interval(Duration::from_millis(50))
            .watchdog_period(Duration::from_millis(10))
            .retry(RetryPolicy {
                max_attempts: 6,
                backoff_base: Duration::from_millis(5),
                backoff_max: Duration::from_millis(40),
            })
            .bind(bind, key)
            .name("owner")
            .state_dir(dir)
            .build()
            .expect("owner config must validate"),
        telemetry: None,
        ..RuntimeConfig::default()
    }
}

fn delegate_runtime(key: AuthKey, owner_addr: &str) -> RuntimeConfig {
    RuntimeConfig {
        n_workers: 0,
        worker: tcp_worker_config(),
        server: ServerConfig::builder()
            .heartbeat_interval(Duration::from_millis(50))
            .watchdog_period(Duration::from_millis(10))
            .bind("127.0.0.1:0", key)
            .name("delegate")
            .peer(owner_addr)
            .build()
            .expect("delegate config must validate"),
        overlay: OverlayConfig {
            offer_patience: Duration::from_millis(200),
            ..OverlayConfig::default()
        },
        telemetry: None,
    }
}

#[test]
fn sigkill_mid_run_with_workers_and_peer_completes_after_restart() {
    const N_COMMANDS: usize = 12;
    let key = AuthKey::from_passphrase("durable-e2e");
    let dir = state_dir("e2e").display().to_string();
    let accounting = Arc::new(Mutex::new(Accounting::default()));
    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));

    // Owner with a durable backlog; two direct workers plus a peered
    // delegate contributing two more.
    let owner = serve_project(
        Box::new(Gather::new(sleep_specs(N_COMMANDS, 30), accounting.clone())),
        owner_runtime(key, "127.0.0.1:0", &dir),
    )
    .expect("owner must bind");
    let owner_addr = owner.local_addr.to_string();
    let delegate = serve_project(Box::new(Idle), delegate_runtime(key, &owner_addr))
        .expect("delegate must bind");
    let delegate_addr = delegate.local_addr.to_string();
    let delegate_workers = connect_workers(
        &delegate_addr,
        key,
        2,
        tcp_worker_config(),
        registry.clone(),
    )
    .expect("delegate workers must connect");
    let direct_workers =
        connect_workers(&owner_addr, key, 2, tcp_worker_config(), registry.clone())
            .expect("direct workers must connect");

    // Pull the plug mid-run: some completions are in, some commands are
    // in flight across both the direct and the delegated path.
    let t0 = Instant::now();
    loop {
        let s = owner.monitor.status();
        if s.commands_completed >= 3 {
            break;
        }
        assert!(
            t0.elapsed() < Duration::from_secs(30) && !s.finished,
            "expected a mid-run kill window (completed {})",
            s.commands_completed
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    owner.kill();
    let dead = owner.join();
    assert!(dead.result.is_null(), "a killed server reports no result");
    assert!(dead.commands_completed >= 3);

    // Restart on the *same* address and state dir. The listener socket
    // is released when the killed server's thread is joined; a short
    // retry absorbs any lingering kernel-side release latency.
    let mut restarted = None;
    for _ in 0..50 {
        match serve_project(
            Box::new(Gather::new(sleep_specs(N_COMMANDS, 30), accounting.clone())),
            owner_runtime(key, &owner_addr, &dir),
        ) {
            Ok(s) => {
                restarted = Some(s);
                break;
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    let owner2 = restarted.expect("owner must rebind its address");

    // The pre-crash pools may or may not find their way back through
    // wire-level reconnect; a fresh pair of direct workers guarantees
    // progress either way.
    let fresh_workers = connect_workers(&owner_addr, key, 2, tcp_worker_config(), registry)
        .expect("fresh workers must connect");

    let shared_fs = owner2.shared_fs.clone();
    let result = owner2.join();
    assert_eq!(result.result, json!("accounted"));
    assert_eq!(
        result.commands_completed, N_COMMANDS as u64,
        "restored + fresh completions must cover the whole backlog"
    );
    assert_eq!(result.commands_dropped, 0);
    assert_exactly_once(&accounting, N_COMMANDS);
    assert_eq!(shared_fs.n_checkpoints(), 0);

    for w in fresh_workers {
        w.join();
    }
    // The killed server never broadcast a shutdown, so the old pools
    // may idle until their links give up; detach rather than join.
    drop(direct_workers);
    drop(delegate_workers);
    delegate.stop_router();
    let _ = delegate.join();
}
