//! Crash-anywhere recovery: the server killed at **every** record
//! boundary of a run's write-ahead log.
//!
//! The kill switch of `tests/server_chaos.rs` only fires between loop
//! iterations, so no suite there ever sees a crash *inside* the
//! handling of one message — between a completion's event record and
//! its `completed` record, after the freed worker's refill and before
//! the delivery it was put ahead of, half-way through the spawns an
//! event produced, before the base image of the controller. Here one
//! uninterrupted run is recorded per scenario (streaming MSM, replica
//! exchange, a scripted fault run with a worker loss, a checkpoint and
//! a dropped command, and a worker that keeps a second command in
//! hand); then, for every prefix of its log that ends
//! on a record boundary — with the first half of the next record
//! appended, as a torn write would leave it — a fresh server is
//! recovered from that prefix and driven to completion by a
//! deterministic stub fleet. Each recovery must
//!
//! * rebuild the controller to exactly the state the live controller
//!   had after the same event (image + re-delivered events);
//! * deliver every command's terminal event to the controller exactly
//!   once outside replay, counting the deliveries the crashed
//!   incarnation made (an event in the log was delivered);
//! * strand nothing: the project finishes and the log ends with no
//!   live command and no checkpoint;
//! * reach the uninterrupted run's verdict and ledger.
//!
//! This is ROADMAP item 4's "replay from every record-boundary prefix",
//! scoped to what the event-sourced controller durability changed.

use copernicus_core::messages::{ToServer, ToWorker};
use copernicus_core::prelude::*;
use copernicus_core::transport::{self, WorkerRecvError};
use copernicus_core::{wal, ExecContext, Server};
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// The probe: what the controller was told, and what state it was left in
// ---------------------------------------------------------------------------

struct Delivery {
    replay: bool,
    /// The command whose terminal event this was, if it was one.
    terminal: Option<u64>,
    /// The wrapped controller's `snapshot()` after the event (empty
    /// where the probe was not asked to take it).
    state: String,
}

#[derive(Default)]
struct ProbeLog {
    /// The wrapped controller's `snapshot()` right after `restore`.
    restored: Option<String>,
    deliveries: Vec<Delivery>,
}

/// Forwards everything to the wrapped controller and writes down each
/// delivery — with the state it left behind where the sweep compares
/// it: after every replayed event, and after every event of the
/// uninterrupted run (`record_live`).
struct Probe {
    inner: Box<dyn Controller>,
    log: Arc<Mutex<ProbeLog>>,
    record_live: bool,
}

fn state_of(controller: &dyn Controller) -> String {
    serde_json::to_string(&controller.snapshot().expect("every scenario is stateful"))
        .expect("snapshots serialize")
}

impl Controller for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        let terminal = match &event {
            ControllerEvent::CommandFinished(output) => Some(output.command.0),
            ControllerEvent::CommandDropped { command, .. } => Some(command.0),
            _ => None,
        };
        let actions = self.inner.on_event(ctx, event);
        let state = if ctx.replay || self.record_live {
            state_of(self.inner.as_ref())
        } else {
            String::new()
        };
        self.log.lock().unwrap().deliveries.push(Delivery {
            replay: ctx.replay,
            terminal,
            state,
        });
        actions
    }

    fn snapshot(&self) -> Option<Value> {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: Value) -> bool {
        let restored = self.inner.restore(snapshot);
        self.log.lock().unwrap().restored = Some(state_of(self.inner.as_ref()));
        restored
    }
}

// ---------------------------------------------------------------------------
// Scenarios and the stub fleet
// ---------------------------------------------------------------------------

/// What the fleet does with a command. A function of the command alone
/// (payload and attempt epoch), so every incarnation gets the same
/// answer for the same attempt.
enum Outcome {
    Complete(Value),
    Error(String),
    /// Deposit a checkpoint, then lose the link mid-command.
    CheckpointAndDepart(Value),
}

struct Scenario {
    name: &'static str,
    controller: Box<dyn Fn() -> Box<dyn Controller>>,
    executables: Vec<ExecutableSpec>,
    fleet: Box<dyn Fn(&Command) -> Outcome>,
    /// Strip what legitimately differs between incarnations (readings
    /// of the server's clock) from a project result.
    normalise: fn(&mut Value),
    /// What the uninterrupted run's log must contain for the sweep to
    /// cover what the scenario is there for.
    must_log: &'static [&'static str],
    /// The run is long enough for the server to checkpoint: the log is
    /// a later generation, swept from the end of its head.
    compacts: bool,
    /// Workloads the stub keeps held or requested: 1 holds a single
    /// command at a time, 2 keeps one in hand as the real worker does.
    in_hand: usize,
}

/// The one worker there ever is: with a single core it runs a single
/// command at a time, so the order of events is the order of dispatch.
const WORKER: WorkerId = WorkerId(1);

static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

fn state_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "copernicus_crash_anywhere_{}_{}_{}",
        tag,
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct Incarnation {
    result: ProjectResult,
    probe: ProbeLog,
    checkpoints_left: usize,
}

/// One server incarnation on `dir`, driven to the end of the project.
/// Commands the log says were in flight are answered first, as a worker
/// that outlived the server would (same worker, same epoch); then the
/// worker announces itself afresh and pulls work until the project
/// finishes.
fn run(scenario: &Scenario, dir: &Path, record_live: bool) -> Incarnation {
    let mut recovered = wal::replay_dir(dir).expect("log is readable");
    // A result whose event made it into the log has been delivered.
    if let Some(terminal) = recovered.torn_terminal() {
        recovered.apply(&terminal);
    }
    let in_flight = recovered.running();
    let log = Arc::new(Mutex::new(ProbeLog::default()));
    let config = ServerConfig {
        // The stub never heartbeats: liveness verdicts are scripted
        // (`CheckpointAndDepart`), never the watchdog's.
        heartbeat_interval: Duration::from_secs(600),
        watchdog_period: Duration::from_millis(5),
        max_attempts: 3,
        retry_backoff_base: Duration::from_millis(1),
        retry_backoff_max: Duration::from_millis(2),
        state_dir: Some(dir.display().to_string()),
        fsync: FsyncMode::Never,
        ..ServerConfig::default()
    };
    let (hub, server_transport) = transport::channel();
    let shared_fs = SharedFs::new();
    let server = Server::new(
        ProjectId(0),
        Box::new(Probe {
            inner: (scenario.controller)(),
            log: log.clone(),
            record_live,
        }),
        config,
        shared_fs.clone(),
        Monitor::new(),
        Box::new(server_transport),
    );
    let server_thread = std::thread::spawn(move || server.run());

    let mut link = hub.attach(WORKER);
    let report = |cmd: &Command| match (scenario.fleet)(cmd) {
        Outcome::Complete(data) => ToServer::Completed {
            output: CommandOutput::new(cmd, WORKER, data, 0.0),
        },
        Outcome::Error(error) => ToServer::CommandError {
            worker: WORKER,
            project: cmd.project,
            command: cmd.id,
            epoch: cmd.attempts,
            error,
        },
        Outcome::CheckpointAndDepart(checkpoint) => {
            shared_fs.store_checkpoint(cmd.id, checkpoint);
            ToServer::WorkerDeparted { worker: WORKER }
        }
    };
    let request = ToServer::RequestWork { worker: WORKER };
    let announce = ToServer::Announce {
        worker: WORKER,
        desc: WorkerDescription {
            platform: Platform::Smp,
            resources: Resources::new(1, 1_000_000),
            executables: scenario.executables.clone(),
        },
    };

    let deadline = Instant::now() + Duration::from_secs(20);
    let mut live = in_flight
        .iter()
        .all(|(cmd, worker)| *worker == WORKER && link.send(report(cmd)).is_ok())
        && link.announce(announce).is_ok();
    // As the real worker does, the stub sends each report with the
    // requests behind it that keep `in_hand` workloads held or requested,
    // in one batch: what the server does between them is then a
    // property of the server, not of thread timing.
    let mut asked: usize = 0;
    while live {
        assert!(
            Instant::now() < deadline,
            "{}: project stranded (no end within 20 s)",
            scenario.name
        );
        if asked == 0 {
            if link.send(request.clone()).is_err() {
                break;
            }
            asked = 1;
        }
        match link.recv_timeout(Duration::from_millis(200)) {
            Ok(ToWorker::Workload(cmds)) => {
                asked = asked.saturating_sub(1);
                let ahead = scenario.in_hand - asked;
                asked += ahead;
                // One core: one command per workload.
                let batch = cmds
                    .iter()
                    .map(&report)
                    .chain(std::iter::repeat_n(request.clone(), ahead))
                    .collect();
                live = link.send(ToServer::Batch(batch)).is_ok();
            }
            Ok(ToWorker::NoWork) => {
                asked = asked.saturating_sub(1);
                // Everything left is under a retry embargo.
                if asked == 0 {
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            Ok(ToWorker::Shutdown) | Err(WorkerRecvError::Closed(_)) => break,
            Err(WorkerRecvError::Timeout | WorkerRecvError::Reconnected) => asked = 0,
        }
    }
    let result = server_thread.join().expect("server thread");
    drop(hub);
    let probe = std::mem::take(&mut *log.lock().unwrap());
    Incarnation {
        result,
        probe,
        checkpoints_left: shared_fs.n_checkpoints(),
    }
}

/// Byte offsets of the record boundaries of a log (0 and the end
/// included), from the frame headers: `llllllll cccccccc body\n`.
fn record_boundaries(log: &[u8]) -> Vec<usize> {
    const HEADER: usize = 18;
    let mut boundaries = vec![0];
    let mut pos = 0;
    while pos < log.len() {
        let len = std::str::from_utf8(&log[pos..pos + 8])
            .ok()
            .and_then(|hex| usize::from_str_radix(hex, 16).ok())
            .expect("a log the server wrote has clean headers");
        pos += HEADER + len + 1;
        boundaries.push(pos);
    }
    assert_eq!(pos, log.len(), "the log ends on a record boundary");
    boundaries
}

/// The `"kind"` of one framed record.
fn kind_of(frame: &[u8]) -> &str {
    let body = std::str::from_utf8(frame).expect("records are text");
    let tail = body
        .split_once(r#""kind":""#)
        .expect("every record has a kind")
        .1;
    tail.split_once('"').expect("the kind is a string").0
}

/// Records of the generation head a compaction wrote: `started`,
/// `counters`, `controller`, then each live command's `spawned` with,
/// if it was running, its `dispatched` right behind. Behind the head's
/// last `spawned` that `dispatched` reads the same whether the
/// compaction wrote it or the refill after it did, and is counted as
/// live: the sweep may then start one record inside the head (the
/// command recovered queued, not running — as good a recovery), but it
/// never skips the first boundary after the head.
fn head_len(log: &[u8], boundaries: &[usize], kinds: &[String]) -> usize {
    let record = |k: usize| -> Value {
        serde_json::from_slice(&log[boundaries[k] + 18..boundaries[k + 1]]).expect("a record")
    };
    let mut head = 0;
    while head < kinds.len() {
        let of_the_head = match kinds[head].as_str() {
            "started" | "counters" | "controller" | "spawned" => true,
            "dispatched" => {
                kinds[head - 1] == "spawned"
                    && record(head - 1)["cmd"]["id"] == record(head)["command"]
                    && kinds.get(head + 1).map(String::as_str) == Some("spawned")
            }
            _ => false,
        };
        if !of_the_head {
            break;
        }
        head += 1;
    }
    head
}

fn ledger(result: &ProjectResult) -> [u64; 3] {
    [
        result.commands_completed,
        result.commands_dropped,
        result.bytes_received,
    ]
}

/// One scenario's uninterrupted run, and what every recovery from a
/// prefix of its log is held against.
struct Recorded {
    scenario: Scenario,
    whole: Incarnation,
    log: Vec<u8>,
    verdict: Value,
    /// The controller's state after each event, `ProjectStarted` first.
    live: Vec<String>,
    /// How often each command's terminal event was delivered: once.
    terminals: BTreeMap<u64, u32>,
    boundaries: Vec<usize>,
    /// The kind of each record, in log order.
    kinds: Vec<String>,
    /// Records of the generation head a compaction wrote whole.
    head: usize,
}

fn record(scenario: Scenario) -> Recorded {
    let dir = state_dir(scenario.name);
    let whole = run(&scenario, &dir, true);
    let log = std::fs::read(dir.join(wal::WAL_FILE)).expect("the run left a log");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        !whole.result.result.is_null(),
        "{}: the uninterrupted run must finish",
        scenario.name
    );
    assert_eq!(whole.checkpoints_left, 0);
    let text = String::from_utf8_lossy(&log);
    for needle in scenario.must_log {
        assert!(
            text.contains(needle),
            "{}: the run logged no {needle}",
            scenario.name
        );
    }
    let mut verdict = whole.result.result.clone();
    (scenario.normalise)(&mut verdict);
    let live: Vec<String> = whole
        .probe
        .deliveries
        .iter()
        .map(|d| d.state.clone())
        .collect();
    let mut terminals: BTreeMap<u64, u32> = BTreeMap::new();
    for d in &whole.probe.deliveries {
        assert!(!d.replay, "a first incarnation replays nothing");
        if let Some(id) = d.terminal {
            *terminals.entry(id).or_insert(0) += 1;
        }
    }
    assert!(terminals.values().all(|&n| n == 1));
    assert!(
        terminals.len() >= 4,
        "{}: too small to mean anything",
        scenario.name
    );

    let boundaries = record_boundaries(&log);
    let kinds: Vec<String> = boundaries
        .windows(2)
        .map(|w| kind_of(&log[w[0]..w[1]]).to_string())
        .collect();
    // The freed worker is refilled before its result is delivered: the
    // next command's `dispatched` sits right behind the `completed`.
    assert!(
        kinds
            .windows(2)
            .any(|w| w[0] == "completed" && w[1] == "dispatched"),
        "{}: no refill ahead of a delivery",
        scenario.name
    );
    // A log that was compacted begins with a generation written whole
    // (temp file, then rename): no crash leaves part of its head.
    let head = if kinds.get(1).map(String::as_str) == Some("counters") {
        head_len(&log, &boundaries, &kinds)
    } else {
        0
    };
    assert_eq!(head > 0, scenario.compacts, "{}", scenario.name);
    Recorded {
        scenario,
        whole,
        log,
        verdict,
        live,
        terminals,
        boundaries,
        kinds,
        head,
    }
}

fn crash_anywhere(scenario: Scenario) {
    let recorded = record(scenario);
    for k in recorded.head..recorded.boundaries.len() {
        recorded.recover_after(k);
    }
}

impl Recorded {
    /// Crash with the first `k` records written (and half of the next):
    /// recover, run to the end, and hold the result against the
    /// uninterrupted run.
    fn recover_after(&self, k: usize) {
        let Recorded {
            scenario,
            whole,
            log,
            verdict,
            live,
            terminals,
            boundaries,
            ..
        } = self;
        let cut = boundaries[k];
        let at = format!("{} cut after record {k} (byte {cut})", scenario.name);
        let (prefix, clean) = wal::replay_bytes(&log[..cut]);
        assert_eq!(clean, cut);
        // How many events the controller had seen when the prefix ends:
        // those its image covers (a compacted log's image is not the
        // first), and those logged after it.
        let delivered = match &prefix.controller {
            Some(image) => {
                let covered = live.iter().position(|state| state == image);
                covered.expect("the image is a state the live controller was in")
                    + prefix.events.len()
            }
            None => 0,
        };

        // The crashed incarnation's log: the prefix, and half of the
        // record it was writing when it died.
        let mut torn = log[..cut].to_vec();
        if let Some(&next) = boundaries.get(k + 1) {
            torn.extend_from_slice(&log[cut..cut + (next - cut) / 2]);
            let (state, clean) = wal::replay_bytes(&torn);
            assert_eq!(clean, cut, "{at}: the torn half-record is dropped whole");
            assert_eq!(state.dump(), prefix.dump(), "{at}");
        }
        let dir = state_dir(scenario.name);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(wal::WAL_FILE), &torn).unwrap();

        let recovered = run(scenario, &dir, false);

        // The controller is rebuilt to the state it had after the same
        // event: the image, plus the events in the log re-delivered.
        let replayed: Vec<&Delivery> = recovered
            .probe
            .deliveries
            .iter()
            .take_while(|d| d.replay)
            .collect();
        assert!(
            recovered.probe.deliveries[replayed.len()..]
                .iter()
                .all(|d| !d.replay),
            "{at}: replay happens once, before anything else"
        );
        if prefix.finished.is_none() {
            let rebuilt = replayed
                .last()
                .map(|d| &d.state)
                .or(recovered.probe.restored.as_ref());
            assert_eq!(
                rebuilt,
                prefix.started.then(|| &live[delivered]),
                "{at}: rebuilt controller differs from the live one after {delivered} events"
            );
            if prefix.controller.is_some() {
                assert_eq!(replayed.len(), prefix.events.len(), "{at}");
            }
        } else {
            assert!(recovered.probe.deliveries.is_empty(), "{at}: nothing to do");
        }

        // Exactly once outside replay: what the crashed incarnation had
        // logged it delivered; the rest the recovered one delivers.
        let mut seen: BTreeMap<u64, u32> = BTreeMap::new();
        let logged: Vec<u64> = prefix
            .events
            .iter()
            .filter_map(|e| match &e.event {
                wal::LoggedEvent::Finished { command, .. }
                | wal::LoggedEvent::Dropped { command, .. } => Some(command.0),
                wal::LoggedEvent::WorkerFailed { .. } => None,
            })
            .collect();
        // (`ProjectStarted` is delivery 0.)
        let before: Vec<u64> = whole.probe.deliveries[..delivered + usize::from(prefix.started)]
            .iter()
            .filter_map(|d| d.terminal)
            .collect();
        assert!(before.ends_with(&logged), "{at}: events in the log");
        let after = recovered
            .probe
            .deliveries
            .iter()
            .filter(|d| !d.replay)
            .filter_map(|d| d.terminal);
        for id in before.into_iter().chain(after) {
            *seen.entry(id).or_insert(0) += 1;
        }
        assert_eq!(&seen, terminals, "{at}: terminal events per command");

        // Nothing stranded, nothing leaked, same verdict, same ledger.
        let mut result = recovered.result.result.clone();
        (scenario.normalise)(&mut result);
        assert_eq!(&result, verdict, "{at}: verdict");
        assert_eq!(
            ledger(&recovered.result),
            ledger(&whole.result),
            "{at}: ledger"
        );
        assert_eq!(
            recovered.result.commands_requeued, whole.result.commands_requeued,
            "{at}"
        );
        assert_eq!(recovered.result.stale_results_dropped, 0, "{at}");
        // A crash between a worker-loss record and the re-queue it
        // causes loses the same worker a second time, as its ghost.
        let lost = recovered.result.workers_lost;
        assert!(
            lost == whole.result.workers_lost || lost == whole.result.workers_lost + 1,
            "{at}: {lost} workers lost"
        );
        let end = wal::replay_dir(&dir).expect("final log is readable");
        assert_eq!(end.n_live(), 0, "{at}: live commands at the end");
        assert!(end.checkpoints().is_empty(), "{at}: checkpoints in the log");
        assert_eq!(recovered.checkpoints_left, 0, "{at}: checkpoints leaked");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------------
// Scenario: a durable counting controller under scripted faults
// ---------------------------------------------------------------------------

/// Spawns its commands at the start and finishes on the n-th terminal
/// event; the count is its whole state.
struct Tally {
    specs: Vec<CommandSpec>,
    n: usize,
    seen: usize,
}

impl Controller for Tally {
    fn name(&self) -> &str {
        "tally"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                vec![Action::Spawn(std::mem::take(&mut self.specs))]
            }
            ControllerEvent::CommandFinished(_) | ControllerEvent::CommandDropped { .. } => {
                self.seen += 1;
                if self.seen == self.n {
                    vec![Action::FinishProject {
                        result: json!({ "accounted": self.seen as u64 }),
                    }]
                } else {
                    vec![]
                }
            }
            ControllerEvent::WorkerFailed { .. } => vec![],
        }
    }

    fn snapshot(&self) -> Option<Value> {
        Some(json!({ "seen": self.seen as u64 }))
    }

    fn restore(&mut self, snapshot: Value) -> bool {
        match snapshot.get("seen").and_then(|v| v.as_u64()) {
            Some(seen) => {
                self.seen = seen as usize;
                true
            }
            None => false,
        }
    }
}

/// Command 0 loses its worker on the first attempt (after a checkpoint
/// deposit) and completes on the second; command 1 errors until the
/// retry budget drops it; the rest complete.
#[test]
fn scripted_faults_recover_from_every_record_boundary() {
    const N: usize = 5;
    crash_anywhere(Scenario {
        name: "faults",
        controller: Box::new(|| {
            let specs = (0..N)
                .map(|i| {
                    CommandSpec::new("fault", Resources::new(1, 1), json!({ "i": i }))
                        .with_priority((N - i) as i32)
                })
                .collect();
            Box::new(Tally {
                specs,
                n: N,
                seen: 0,
            })
        }),
        executables: vec![ExecutableSpec::new("fault", Platform::Smp, "1")],
        fleet: Box::new(|cmd| match (cmd.payload["i"].as_u64(), cmd.attempts) {
            (Some(0), 1) => Outcome::CheckpointAndDepart(json!({ "frame": 17 })),
            (Some(1), _) => Outcome::Error("scripted failure".into()),
            (i, epoch) => Outcome::Complete(json!({ "i": i, "epoch": epoch })),
        }),
        normalise: |_| {},
        must_log: &[
            r#""kind":"ckpt_stored""#,
            r#""event":"worker_failed""#,
            r#""event":"dropped""#,
        ],
        compacts: false,
        in_hand: 1,
    });
}

/// The worker keeps a command in hand: with more queued than the fleet
/// of one, each report's request ahead is granted, and the log holds
/// stretches where two commands are dispatched to the one worker — one
/// it runs, one it has not started. A crash there recovers both as
/// running on that worker; its reports, same epochs, are accepted.
/// Command 2 errors once on the way.
#[test]
fn a_crash_while_the_worker_holds_two_commands_recovers_from_every_record_boundary() {
    const N: usize = 8;
    let recorded = record(Scenario {
        name: "in_hand",
        controller: Box::new(|| {
            let specs = (0..N)
                .map(|i| CommandSpec::new("fault", Resources::new(1, 1), json!({ "i": i })))
                .collect();
            Box::new(Tally {
                specs,
                n: N,
                seen: 0,
            })
        }),
        executables: vec![ExecutableSpec::new("fault", Platform::Smp, "1")],
        fleet: Box::new(|cmd| match (cmd.payload["i"].as_u64(), cmd.attempts) {
            (Some(2), 1) => Outcome::Error("scripted failure".into()),
            (i, epoch) => Outcome::Complete(json!({ "i": i, "epoch": epoch })),
        }),
        normalise: |_| {},
        must_log: &[r#""event":"finished""#],
        compacts: false,
        in_hand: 2,
    });
    let holding_two = recorded
        .boundaries
        .iter()
        .filter(|&&cut| wal::replay_bytes(&recorded.log[..cut]).0.running().len() == 2)
        .count();
    assert!(
        holding_two >= 4,
        "{holding_two} cuts with two commands held"
    );
    for k in recorded.head..recorded.boundaries.len() {
        recorded.recover_after(k);
    }
}

/// Enough commands for the server to checkpoint: the log the run leaves
/// is a second generation, whose image covers the first 256 events, and
/// every crash after it recovers from that image.
#[test]
fn a_checkpointed_log_recovers_from_every_record_boundary() {
    const N: usize = wal::COMPACT_EVERY as usize + 24;
    crash_anywhere(Scenario {
        name: "checkpoint",
        controller: Box::new(|| {
            let specs = (0..N)
                .map(|i| CommandSpec::new("fault", Resources::new(1, 1), json!({ "i": i })))
                .collect();
            Box::new(Tally {
                specs,
                n: N,
                seen: 0,
            })
        }),
        executables: vec![ExecutableSpec::new("fault", Platform::Smp, "1")],
        fleet: Box::new(|cmd| Outcome::Complete(json!({ "i": cmd.payload["i"].as_u64() }))),
        normalise: |_| {},
        must_log: &[r#""kind":"counters""#],
        compacts: true,
        in_hand: 1,
    });
}

// ---------------------------------------------------------------------------
// Scenarios: the real plugins, with their real executors behind a cache
// ---------------------------------------------------------------------------

/// Run commands on the real executors, once each: a recovered run asks
/// for exactly the commands the uninterrupted one did, so nearly every
/// answer comes from the cache and the sweep costs one run's MD.
fn cached_fleet(executors: Vec<Arc<dyn CommandExecutor>>) -> Box<dyn Fn(&Command) -> Outcome> {
    let cache: Mutex<HashMap<String, Value>> = Mutex::new(HashMap::new());
    Box::new(move |cmd| {
        let key = format!("{} {}", cmd.command_type, cmd.payload.text());
        if let Some(data) = cache.lock().unwrap().get(&key) {
            return Outcome::Complete(data.clone());
        }
        let executor = executors
            .iter()
            .find(|e| {
                e.executables()
                    .iter()
                    .any(|x| x.command_type == cmd.command_type)
            })
            .expect("an executor for every command type");
        let data = executor
            .execute(ExecContext {
                command: cmd,
                worker: WORKER,
                shared_fs: None,
                telemetry: None,
            })
            .expect("inline execution succeeds");
        cache.lock().unwrap().insert(key, data.clone());
        Outcome::Complete(data)
    })
}

fn executables_of(executors: &[Arc<dyn CommandExecutor>]) -> Vec<ExecutableSpec> {
    executors.iter().flat_map(|e| e.executables()).collect()
}

fn streaming_msm() -> Scenario {
    let config = MsmProjectConfig {
        mode: AdaptiveMode::Streaming,
        chunks_per_segment: 1,
        n_starts: 2,
        sims_per_start: 2,
        segment_ns: 5.0,
        record_interval: 40,
        temperature: 0.55,
        n_clusters: 5,
        lag_frames: 1,
        respawn_fraction: 0.5,
        generations: 6,
        seed: 3,
        ..MsmProjectConfig::default()
    };
    let model = MsmController::new(config.clone()).model();
    let executors: Vec<Arc<dyn CommandExecutor>> = vec![
        Arc::new(MdRunExecutor::new(model)),
        Arc::new(MsmBuildExecutor),
    ];
    Scenario {
        name: "msm",
        controller: Box::new(move || {
            let mut controller = MsmController::new(config.clone());
            controller.analyze_kinetics = false;
            Box::new(controller)
        }),
        executables: executables_of(&executors),
        fleet: cached_fleet(executors),
        // Time to the first folded frame is read off the server's clock.
        normalise: |report| {
            report["first_folded_elapsed_secs"] = Value::Null;
        },
        // A background recluster, dispatched and swapped in.
        must_log: &[r#""type":"msm-build""#],
        compacts: false,
        in_hand: 1,
    }
}

#[test]
fn streaming_msm_recovers_from_every_record_boundary() {
    crash_anywhere(streaming_msm());
}

/// The window the deferred delivery opens, by name: the result is
/// journaled and retired, the worker that returned it already holds
/// its next command — and the server dies before the controller has
/// heard of the result, so nothing it would have spawned exists.
/// Recovery re-delivers the event and redoes every spawn, once, from
/// the id the event recorded; the command handed out early is still
/// running where the log says.
#[test]
fn a_crash_between_the_refill_and_the_deferred_delivery_redoes_the_spawns() {
    let recorded = record(streaming_msm());
    let kinds: Vec<&str> = recorded.kinds.iter().map(String::as_str).collect();
    let k = (3..kinds.len())
        .find(|&k| kinds[k - 3..=k] == ["event", "completed", "dispatched", "spawned"])
        .expect("a refill between a completion and the spawns it leads to");
    let (prefix, _) = wal::replay_bytes(&recorded.log[..recorded.boundaries[k]]);
    let event = prefix.events.last().expect("the event is in the log");
    let wal::LoggedEvent::Finished { command, .. } = &event.event else {
        panic!("the window opens on a completion");
    };
    let running: Vec<CommandId> = prefix.running().iter().map(|(cmd, _)| cmd.id).collect();
    let queued: Vec<CommandId> = prefix.queued().iter().map(|cmd| cmd.id).collect();
    assert!(
        !running.contains(command) && !queued.contains(command),
        "the finished command is retired"
    );
    assert_eq!(running.len(), 1, "the refill is in flight");
    assert_eq!(
        prefix.next_command_id(),
        event.next_id,
        "nothing the event leads to has been spawned"
    );
    recorded.recover_after(k);
}

#[test]
fn replica_exchange_recovers_from_every_record_boundary() {
    let config = RepexProjectConfig {
        n_replicas: 4,
        n_legs: 4,
        steps_per_leg: 100,
        mode: ExchangeMode::Async,
        seed: 11,
        ..RepexProjectConfig::default()
    };
    let model = RepexController::new(config.clone()).model();
    let executors: Vec<Arc<dyn CommandExecutor>> = vec![Arc::new(MdRunExecutor::new(model))];
    crash_anywhere(Scenario {
        name: "repex",
        controller: Box::new(move || Box::new(RepexController::new(config.clone()))),
        executables: executables_of(&executors),
        fleet: cached_fleet(executors),
        normalise: |_| {},
        must_log: &[r#""type":"mdrun""#],
        compacts: false,
        in_hand: 1,
    });
}
