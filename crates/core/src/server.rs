//! The project server: command queue, resource matching, heartbeat
//! watchdog, controller dispatch.
//!
//! One [`Server`] owns one project (the paper's servers can hold several;
//! run several `Server`s for that). It consumes [`ToServer`] messages
//! from workers, matches workloads, feeds completions to the controller
//! plugin, and re-queues commands of lost or erroring workers with their
//! latest shared-filesystem checkpoint (§2.3).
//!
//! Every command moves through the explicit lifecycle in [`lifecycle`]:
//! `Queued → Dispatched → Completed | Errored | Orphaned | Dropped`.
//! All queue/running-set edits, checkpoint clears, controller
//! notifications and fault accounting happen inside the single
//! [`Server::transition`] function, which every message path routes
//! through — so exactly-once controller accounting holds under any
//! interleaving of errors, worker loss, and resurrection.

use crate::command::{Command, CommandOutput};
use crate::controller::{Action, Controller, ControllerCtx, ControllerEvent, DropReason};
use crate::fs::SharedFs;
use crate::ids::{CommandId, IdGen, ProjectId, WorkerId};
use crate::ledger::{InFlight, Ledger, Queue};
use crate::lifecycle::{self, Disposition, FaultKind, Phase, RetryPolicy, Verdict};
use crate::messages::{ToServer, ToWorker};
use crate::monitor::Monitor;
use crate::resources::WorkerDescription;
use crate::resources::{Platform, Resources};
use crate::transport::{ServerRecvError, ServerTransport};
use crate::wal::{
    EventRecord, FsyncMode, LoggedEvent, RecoveredState, Wal, WalCounters, WalRecord,
};
use copernicus_telemetry::{
    buckets, names, span_names, ActiveSpan, Counter, Gauge, Histogram, Labels, Telemetry, Tracer,
};
use copernicus_wire::AuthKey;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fmt;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Server tuning knobs.
///
/// Construct through [`ServerConfig::builder`], which validates the
/// knobs against each other (a watchdog slower than the heartbeat it
/// polices, a zero attempt budget, a bind address without a key — all
/// rejected at build time instead of misbehaving at runtime). Plain
/// struct literals over `..Default::default()` still compile for
/// test-local tweaks, but the builder is the supported front door.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Heartbeat interval workers are expected to honour (paper default
    /// 120 s; tests use milliseconds).
    pub heartbeat_interval: Duration,
    /// How often the watchdog scans for missing heartbeats.
    pub watchdog_period: Duration,
    /// Give up on a command after this many dispatch attempts.
    pub max_attempts: u32,
    /// Backoff before re-dispatching a command whose attempt *errored*
    /// (doubles per error, clamped to `retry_backoff_max`). Orphaned
    /// commands (worker loss) re-queue immediately.
    pub retry_backoff_base: Duration,
    /// Upper clamp on the error-retry backoff.
    pub retry_backoff_max: Duration,
    /// TCP listen address for networked mode (e.g. `"0.0.0.0:7923"`,
    /// or `"127.0.0.1:0"` for an ephemeral test port). `None` runs the
    /// server on in-process channels only.
    pub bind: Option<String>,
    /// Pre-shared link key; required whenever `bind` is set (and
    /// whenever `peers` is non-empty — peer links use the same key).
    pub auth_key: Option<AuthKey>,
    /// This server's name on the overlay (sent in `PeerMsg::Hello`,
    /// and the namespace key for delegated worker ids — see
    /// [`crate::peer::namespaced_worker`]). Defaults to the bind
    /// address when unset.
    pub name: Option<String>,
    /// Peer servers to dial and pull delegated work from
    /// (`copernicus serve --peer <addr>`). Requires `auth_key`.
    pub peers: Vec<String>,
    /// Directory for the durable write-ahead log (`copernicus serve
    /// --state-dir`). `None` keeps all state in memory — a server
    /// crash then loses the project, exactly as before the WAL
    /// existed. When set, every lifecycle transition is journaled and
    /// a restart with the same directory resumes the pre-crash state.
    pub state_dir: Option<String>,
    /// When WAL appends reach stable storage (`--fsync always|never|<ms>`).
    pub fsync: FsyncMode,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            heartbeat_interval: Duration::from_millis(500),
            watchdog_period: Duration::from_millis(100),
            max_attempts: 5,
            retry_backoff_base: Duration::from_millis(200),
            retry_backoff_max: Duration::from_secs(30),
            bind: None,
            auth_key: None,
            name: None,
            peers: Vec::new(),
            state_dir: None,
            fsync: FsyncMode::Always,
        }
    }
}

impl ServerConfig {
    /// Start building a validated configuration.
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder {
            config: ServerConfig::default(),
        }
    }

    /// The lifecycle retry policy these knobs describe.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_attempts: self.max_attempts,
            backoff_base: self.retry_backoff_base,
            backoff_max: self.retry_backoff_max,
        }
    }

    /// The cross-knob invariants the builder enforces; exposed so
    /// hand-rolled literals can opt into the same checking.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.max_attempts == 0 {
            return Err(ConfigError(
                "max_attempts must be at least 1 (0 would drop every command at dispatch)".into(),
            ));
        }
        if self.heartbeat_interval.is_zero() {
            return Err(ConfigError("heartbeat_interval must be non-zero".into()));
        }
        if self.watchdog_period.is_zero() {
            return Err(ConfigError("watchdog_period must be non-zero".into()));
        }
        if self.watchdog_period > self.heartbeat_interval {
            return Err(ConfigError(format!(
                "watchdog_period ({:?}) must not exceed heartbeat_interval ({:?}): \
                 a slower watchdog cannot police the heartbeat it watches",
                self.watchdog_period, self.heartbeat_interval
            )));
        }
        if self.retry_backoff_base > self.retry_backoff_max {
            return Err(ConfigError(format!(
                "retry_backoff_base ({:?}) exceeds retry_backoff_max ({:?})",
                self.retry_backoff_base, self.retry_backoff_max
            )));
        }
        if self.bind.is_some() && self.auth_key.is_none() {
            return Err(ConfigError(
                "bind is set but auth_key is not: refusing an unauthenticated listener".into(),
            ));
        }
        if !self.peers.is_empty() && self.auth_key.is_none() {
            return Err(ConfigError(
                "peers are set but auth_key is not: peer links must authenticate".into(),
            ));
        }
        if matches!(&self.state_dir, Some(dir) if dir.is_empty()) {
            return Err(ConfigError(
                "state_dir is set but empty: pass a directory path or leave it unset".into(),
            ));
        }
        Ok(())
    }
}

/// A rejected [`ServerConfig`]; the message names the offending knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid server config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Validating builder for [`ServerConfig`] —
/// `ServerConfig::builder().retry(policy).bind(addr, key).build()?`.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    pub fn heartbeat_interval(mut self, interval: Duration) -> Self {
        self.config.heartbeat_interval = interval;
        self
    }

    pub fn watchdog_period(mut self, period: Duration) -> Self {
        self.config.watchdog_period = period;
        self
    }

    /// Set the whole fault-retry policy at once.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.config.max_attempts = policy.max_attempts;
        self.config.retry_backoff_base = policy.backoff_base;
        self.config.retry_backoff_max = policy.backoff_max;
        self
    }

    pub fn max_attempts(mut self, attempts: u32) -> Self {
        self.config.max_attempts = attempts;
        self
    }

    /// Serve over TCP: listen on `addr`, accept only peers holding
    /// `key`. Taking both together makes an unauthenticated listener
    /// unrepresentable through the builder.
    pub fn bind(mut self, addr: impl Into<String>, key: AuthKey) -> Self {
        self.config.bind = Some(addr.into());
        self.config.auth_key = Some(key);
        self
    }

    /// Name this server on the overlay (defaults to the bind address).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.config.name = Some(name.into());
        self
    }

    /// Add a peer server to dial for delegated work. May be called
    /// repeatedly; requires an auth key (set via [`Self::bind`]).
    pub fn peer(mut self, addr: impl Into<String>) -> Self {
        self.config.peers.push(addr.into());
        self
    }

    /// Persist lifecycle state to `dir` and recover from it on
    /// restart (see [`crate::wal`]).
    pub fn state_dir(mut self, dir: impl Into<String>) -> Self {
        self.config.state_dir = Some(dir.into());
        self
    }

    /// WAL fsync policy; only meaningful with [`Self::state_dir`].
    pub fn fsync(mut self, mode: FsyncMode) -> Self {
        self.config.fsync = mode;
        self
    }

    pub fn build(self) -> Result<ServerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Final outcome of a project run.
#[derive(Debug, Clone)]
pub struct ProjectResult {
    pub project: ProjectId,
    pub result: serde_json::Value,
    pub commands_completed: u64,
    pub commands_requeued: u64,
    /// Commands that exhausted `max_attempts` and were dropped; each
    /// produced exactly one `ControllerEvent::CommandDropped`.
    pub commands_dropped: u64,
    /// Duplicate or stale-epoch results discarded by the dedup layer.
    pub stale_results_dropped: u64,
    pub workers_lost: u64,
    pub bytes_received: u64,
    pub wall: Duration,
}

struct WorkerState {
    desc: WorkerDescription,
    last_heartbeat: Instant,
    alive: bool,
    /// A placeholder restored by WAL recovery for a worker that held
    /// in-flight commands when the previous incarnation died. Until the
    /// worker re-announces, its heartbeats prove nothing about those
    /// commands (the worker may have finished them and lost the result
    /// with the dead server), so they must not keep the placeholder
    /// alive — see the `Announce` and `Heartbeat` arms.
    recovered: bool,
}

/// The owning server's live spans for one command: the root `command`
/// span (enqueue → terminal) plus whichever of `queued` / `attempt` is
/// currently open. Finished spans record themselves into the tracer.
struct CommandTrace {
    root: ActiveSpan,
    queued: Option<ActiveSpan>,
    attempt: Option<ActiveSpan>,
}

/// One step of the lifecycle machine; see [`Server::transition`].
enum Transition {
    /// Queued → Dispatched. The command has been pulled from the queue
    /// by the workload matcher, which also says since when it waited;
    /// stamp and track it.
    Dispatch {
        cmd: Command,
        worker: WorkerId,
        queued_at: Instant,
    },
    /// Dispatched (or a stale duplicate) → Completed.
    Complete { output: CommandOutput },
    /// Dispatched → Errored | Orphaned, resolving to a re-queue or a
    /// drop via the retry policy.
    Fault {
        command: CommandId,
        worker: WorkerId,
        kind: FaultKind,
        /// The attempt epoch the report belongs to; `None` for
        /// watchdog-originated faults (always the current attempt).
        epoch: Option<u32>,
        error: Option<String>,
    },
    /// Queued → (gone): controller cancelled not-yet-dispatched work.
    Cancel { command: CommandId },
}

/// A terminal event that has been *retired* — judged, journaled,
/// struck from the ledger, counted — and not yet *delivered* to the
/// controller.
///
/// Accepting a completion or a drop is split in two so that the worker
/// it frees never waits for the controller: the worker's report arrives
/// with its next `RequestWork` right behind it (one frame, see
/// [`crate::worker`]), the server retires the command at once, answers
/// that request from the queue as it stands, and only then runs
/// `on_event` — beside the fleet, not in front of it. A decision lands
/// one command later, which is all the streaming contract promises.
///
/// What keeps this indistinguishable from immediate delivery, to the
/// controller and to recovery alike:
///
/// * there is at most one of these;
/// * it is delivered before the next event of any kind is journaled
///   ([`Server::log_event`]), so events reach the controller in log
///   order;
/// * it is delivered before any message is handled other than the freed
///   worker's request and heartbeats ([`Server::handle`]), and before
///   the watchdog declares a worker lost ([`Server::declare_lost`]) —
///   neither of the two let through mints a command id, so
///   `EventRecord::next_id` still names the first id the delivery (or
///   its redo after a crash) will mint;
/// * it is delivered before that request is answered `NoWork`: when
///   nothing queued matches, the event goes first and the queue is
///   matched again, so a controller that keeps fewer commands than
///   workers is served exactly as before
///   ([`Server::answer_request`]). The exception is a request made
///   ahead, by a worker still holding a command: it has work in hand,
///   and its `NoWork` leaves the event where it is;
/// * it is delivered before the loop blocks, whether a message or the
///   watchdog retired it ([`Server::turn`]).
///
/// The one thing recovery can see is a `dispatched` record between an
/// event's terminal record and its `spawned` records.
struct Undelivered {
    /// The clock reading the event was journaled with.
    now: Duration,
    event: Terminal,
    /// The worker whose report this was.
    freed: WorkerId,
}

/// The two terminal [`ControllerEvent`]s, owned.
enum Terminal {
    Finished(CommandOutput),
    Dropped {
        command: CommandId,
        attempts: u32,
        reason: DropReason,
        tag: serde_json::Value,
    },
}

impl Terminal {
    fn event(&self) -> ControllerEvent<'_> {
        match self {
            Terminal::Finished(output) => ControllerEvent::CommandFinished(output),
            Terminal::Dropped {
                command,
                attempts,
                reason,
                tag,
            } => ControllerEvent::CommandDropped {
                command: *command,
                attempts: *attempts,
                reason: *reason,
                tag: tag.clone(),
            },
        }
    }
}

/// Cached metric handles, created once per server so the dispatch path
/// never touches the registry map.
struct ServerMetrics {
    tracer: Tracer,
    dispatched: Arc<Counter>,
    completed: Arc<Counter>,
    failed: Arc<Counter>,
    requeued: Arc<Counter>,
    dropped: Arc<Counter>,
    stale_results: Arc<Counter>,
    workers_lost: Arc<Counter>,
    bytes_received: Arc<Counter>,
    queue_depth: Arc<Gauge>,
    running: Arc<Gauge>,
    workers_connected: Arc<Gauge>,
    dispatch_latency: Arc<Histogram>,
    turnaround: Arc<Histogram>,
    retry_backoff: Arc<Histogram>,
}

impl ServerMetrics {
    fn new(telemetry: &Telemetry) -> ServerMetrics {
        let r = telemetry.registry().clone();
        let none = Labels::new;
        ServerMetrics {
            dispatched: r.counter(names::COMMANDS_DISPATCHED, none()),
            completed: r.counter(names::COMMANDS_COMPLETED, none()),
            failed: r.counter(names::COMMANDS_FAILED, none()),
            requeued: r.counter(names::COMMANDS_REQUEUED, none()),
            dropped: r.counter(names::COMMANDS_DROPPED, none()),
            stale_results: r.counter(names::STALE_RESULTS_DROPPED, none()),
            workers_lost: r.counter(names::WORKERS_LOST, none()),
            bytes_received: r.counter(names::BYTES_RECEIVED, none()),
            queue_depth: r.gauge(names::QUEUE_DEPTH, none()),
            running: r.gauge(names::RUNNING_COMMANDS, none()),
            workers_connected: r.gauge(names::WORKERS_CONNECTED, none()),
            dispatch_latency: r.histogram(names::DISPATCH_LATENCY, none(), buckets::SECONDS),
            turnaround: r.histogram(names::COMMAND_TURNAROUND, none(), buckets::SECONDS),
            retry_backoff: r.histogram(names::RETRY_BACKOFF, none(), buckets::SECONDS),
            tracer: telemetry.tracer().clone(),
        }
    }
}

/// The project server.
/// Deterministic per-project seed for [`ControllerCtx`] (splitmix64 of
/// the project id): stable across restarts of the same project, distinct
/// across projects.
fn controller_seed(project: ProjectId) -> u64 {
    let mut z = project.0 ^ 0x9E37_79B9_7F4A_7C15;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub struct Server {
    project: ProjectId,
    config: ServerConfig,
    policy: RetryPolicy,
    controller: Box<dyn Controller>,
    /// Queued commands in dispatch order, each with the instant it was
    /// enqueued (see [`crate::ledger`]): matching walks the order and
    /// stops when the worker is full, not a whole-queue rebuild.
    queue: Queue,
    /// Running set with a per-worker index, so heartbeat marking and
    /// watchdog orphan scans touch only that worker's commands.
    ledger: Ledger,
    /// Live trace spans per command (only populated when telemetry is
    /// attached); entries are removed — closing their spans — when the
    /// command reaches a terminal phase.
    traces: HashMap<CommandId, CommandTrace>,
    workers: HashMap<WorkerId, WorkerState>,
    /// How many of `workers` are alive, kept in step with every flip of
    /// [`WorkerState::alive`] so a work request reads it in O(1).
    live_workers: usize,
    shared_fs: SharedFs,
    monitor: Monitor,
    ids: IdGen,
    transport: Box<dyn ServerTransport>,
    /// Durable transition log; `None` without a `state_dir`.
    wal: Option<Wal>,
    /// `ProjectStarted` already delivered (set by recovery replay so a
    /// restart does not re-fire it and double-spawn the initial work).
    started: bool,
    /// The controller is stateful and the server durable: every event
    /// is journaled ahead of its delivery (see [`Server::log_event`]).
    /// Decided once, by whether the controller produced an image after
    /// `ProjectStarted`.
    log_events: bool,
    /// Cooperative SIGKILL stand-in for crash tests: when flipped, the
    /// run loop returns abruptly — no shutdown broadcast, no finished
    /// flag, nothing a dying process would not have done.
    kill_switch: Option<Arc<AtomicBool>>,
    /// Zero point of the [`ControllerCtx`] clock: every event the
    /// controller sees is stamped relative to server construction.
    started_at: Instant,
    finished: Option<serde_json::Value>,
    /// Retired, not yet delivered: see [`Undelivered`].
    undelivered: Option<Undelivered>,
    /// The [`ProjectResult`] counters, in the shape the WAL replays.
    counters: WalCounters,
    metrics: Option<ServerMetrics>,
}

impl Server {
    pub fn new(
        project: ProjectId,
        controller: Box<dyn Controller>,
        config: ServerConfig,
        shared_fs: SharedFs,
        monitor: Monitor,
        transport: Box<dyn ServerTransport>,
    ) -> Self {
        let metrics = monitor.telemetry().map(ServerMetrics::new);
        let policy = config.retry_policy();
        // Durable mode: open (or create) the WAL and replay whatever a
        // previous incarnation left behind, *before* the server starts
        // accepting messages.
        let mut wal = None;
        let mut recovered = None;
        if let Some(dir) = &config.state_dir {
            match Wal::open(Path::new(dir), config.fsync) {
                Ok((w, state)) => {
                    wal = Some(w);
                    recovered = Some(state);
                }
                Err(e) => {
                    // A server that silently runs non-durably when asked
                    // to be durable is worse than a loud degradation.
                    monitor.log(format!(
                        "wal: cannot open state dir {dir}: {e} (running without durability)"
                    ));
                }
            }
        }
        if let (Some(w), Some(state)) = (&wal, &mut recovered) {
            // A completion or drop is journaled event first; if the
            // crash fell between the two records, write the second now.
            if let Some(record) = state.torn_terminal() {
                match w.append(&record) {
                    Ok(()) => state.apply(&record),
                    Err(e) => monitor.log(format!("wal append failed: {e}")),
                }
            }
        }
        if let Some(w) = &wal {
            shared_fs.attach_wal(w.clone());
        }
        let mut server = Server {
            project,
            config,
            policy,
            controller,
            queue: Queue::default(),
            ledger: Ledger::default(),
            traces: HashMap::new(),
            workers: HashMap::new(),
            live_workers: 0,
            shared_fs,
            monitor,
            ids: IdGen::new(),
            transport,
            wal,
            started: false,
            log_events: false,
            kill_switch: None,
            started_at: Instant::now(),
            finished: None,
            undelivered: None,
            counters: WalCounters::default(),
            metrics,
        };
        if let Some(state) = recovered {
            server.recover(&state);
        }
        server
    }

    /// Install a cooperative kill switch (crash-test SIGKILL stand-in:
    /// see the `kill_switch` field).
    pub fn with_kill_switch(mut self, switch: Arc<AtomicBool>) -> Self {
        self.kill_switch = Some(switch);
        self
    }

    /// Rebuild in-memory structures from a replayed WAL: re-queue
    /// queued work, restore the running set with attempt epochs
    /// intact, preload surviving checkpoints, resume id minting past
    /// everything already spawned, and restore counters plus the
    /// controller snapshot. In-flight commands get a *placeholder*
    /// worker record: if the pre-crash worker reconnects and
    /// heartbeats, its result (same epoch) is accepted; if it never
    /// returns, the ordinary watchdog re-orphans the command after the
    /// usual 2× heartbeat silence.
    fn recover(&mut self, state: &RecoveredState) {
        if state.is_empty() {
            return;
        }
        let now = Instant::now();
        for (id, checkpoint) in state.checkpoints() {
            self.shared_fs.preload_checkpoint(id, checkpoint);
        }
        let queued = state.queued();
        let running = state.running();
        for cmd in queued {
            self.queue.enqueue(cmd, now);
        }
        for (cmd, worker) in running {
            // Placeholder: heartbeat-tracked but matching nothing (no
            // executables), so it cannot be handed new work before it
            // re-announces for real.
            if let Entry::Vacant(slot) = self.workers.entry(worker) {
                slot.insert(WorkerState {
                    desc: crate::resources::WorkerDescription {
                        platform: Platform::Smp,
                        resources: Resources::new(1, 1),
                        executables: Vec::new(),
                    },
                    last_heartbeat: now,
                    alive: true,
                    recovered: true,
                });
                self.live_workers += 1;
            }
            self.ledger.start_running(InFlight {
                worker,
                dispatched_at: now,
                cmd,
            });
        }
        self.ids.advance_to(state.next_command_id());
        self.started = state.started;
        self.counters = state.counters;
        if let Some(result) = &state.finished {
            self.finished = Some(serde_json::from_str(result).unwrap_or(serde_json::Value::Null));
        }
        if self.finished.is_none() {
            self.recover_controller(state);
        }
        self.monitor.log(format!(
            "wal: recovered {} queued, {} running, {} checkpoints (completed so far: {})",
            self.queue.len(),
            self.ledger.running_len(),
            self.shared_fs.n_checkpoints(),
            self.counters.commands_completed,
        ));
    }

    /// Rebuild the controller's state as `restore(image)` plus
    /// re-delivery of the events journaled after that image, each with
    /// the clock reading it first saw and `ctx.replay` set. The actions
    /// that come back are *redone*: see [`Server::redo_actions`].
    fn recover_controller(&mut self, state: &RecoveredState) {
        let Some(image) = &state.controller else {
            // Killed between `Started` and the base image: a stateful
            // controller missed (part of) `ProjectStarted`. Redo it —
            // the initial spawn is as idempotent as any other.
            if state.started && self.controller.snapshot().is_some() {
                let ctx = self.replay_ctx(Duration::ZERO);
                let actions = self
                    .controller
                    .on_event(ctx, ControllerEvent::ProjectStarted);
                self.redo_actions(actions, 0);
                self.write_base_image();
            }
            return;
        };
        let restored =
            serde_json::from_str(image).is_ok_and(|value| self.controller.restore(value));
        if !restored {
            // The controller starts over; so must its journal.
            self.monitor.log(
                "wal: controller image not restored: decisions restart from scratch".to_string(),
            );
            self.write_base_image();
            return;
        }
        self.log_events = true;
        for record in &state.events {
            let ctx = self.replay_ctx(record.now);
            let controller = &mut self.controller;
            let actions = record
                .event
                .deliver(self.project, |event| controller.on_event(ctx, event));
            self.redo_actions(actions, record.next_id);
        }
        self.monitor.log(format!(
            "wal: controller state restored ({} events re-delivered)",
            state.events.len()
        ));
    }

    fn replay_ctx(&self, now: Duration) -> ControllerCtx<'static> {
        ControllerCtx {
            project: self.project,
            now,
            telemetry: None,
            seed: controller_seed(self.project),
            replay: true,
        }
    }

    /// Apply the actions of a re-delivered event idempotently: what the
    /// journal already holds is skipped, what the crash tore off is done
    /// — and journaled — now. `next_id` is the id the event's first
    /// spawn was given; ids are minted in sequence, so exactly the
    /// spawns below the recovered id high-water mark were journaled.
    fn redo_actions(&mut self, actions: Vec<Action>, mut next_id: u64) {
        for action in actions {
            match action {
                Action::Spawn(specs) => {
                    let journaled = self.ids.peek().saturating_sub(next_id) as usize;
                    next_id += specs.len() as u64;
                    let torn: Vec<_> = specs.into_iter().skip(journaled).collect();
                    if !torn.is_empty() {
                        self.apply_actions(vec![Action::Spawn(torn)]);
                    }
                }
                // A no-op unless still queued, as it was the first time.
                Action::Cancel(id) => self.apply_actions(vec![Action::Cancel(id)]),
                Action::FinishProject { .. } => {
                    if self.finished.is_none() {
                        self.apply_actions(vec![action]);
                    }
                }
                Action::Log(_) => {}
            }
        }
    }

    fn wal_append(&self, record: &WalRecord) {
        if let Some(wal) = &self.wal {
            if let Err(e) = wal.append(record) {
                self.monitor.log(format!("wal append failed: {e}"));
            }
        }
    }

    /// Journal `event` ahead of its delivery and read the clock it will
    /// be delivered with. The journal is the controller's durability:
    /// its state after a crash is the last image plus these events
    /// re-delivered, so the record costs O(event), not O(state). Only
    /// a stateful controller on a durable server pays it.
    ///
    /// The event before it goes to the controller first: the journal
    /// holds at most one event the controller has not seen.
    fn log_event(&mut self, event: &ControllerEvent<'_>) -> Duration {
        self.deliver_undelivered();
        let now = self.started_at.elapsed();
        if self.log_events {
            if let Some(event) = LoggedEvent::of(event) {
                self.wal_append(&WalRecord::Event(EventRecord {
                    event,
                    now,
                    next_id: self.ids.peek(),
                }));
            }
        }
        now
    }

    /// Deliver a (journaled) event to the controller and apply its
    /// actions; hand the WAL a fresh controller image when it asks.
    fn deliver(&mut self, now: Duration, event: ControllerEvent<'_>) {
        let ctx = ControllerCtx {
            project: self.project,
            now,
            telemetry: self.monitor.telemetry(),
            seed: controller_seed(self.project),
            replay: false,
        };
        let actions = self.controller.on_event(ctx, event);
        self.apply_actions(actions);
        if self.log_events && self.wal.as_ref().is_some_and(Wal::checkpoint_due) {
            if let (Some(wal), Some(image)) = (&self.wal, self.controller_image()) {
                if let Err(e) = wal.checkpoint(image) {
                    self.monitor.log(format!("wal checkpoint failed: {e}"));
                }
            }
        }
    }

    fn notify_controller(&mut self, event: ControllerEvent<'_>) {
        let now = self.log_event(&event);
        self.deliver(now, event);
    }

    /// Retire a command: journal its terminal event, then `record`
    /// (event first: a crash between the two must not retire the
    /// command and lose its event — recovery writes the terminal record
    /// an event stands for; the reverse cannot be repaired), and owe
    /// the controller the delivery.
    fn retire(&mut self, event: Terminal, freed: WorkerId, record: WalRecord) {
        let now = self.log_event(&event.event());
        self.wal_append(&record);
        self.undelivered = Some(Undelivered { now, event, freed });
    }

    /// Hand the controller the terminal event it is owed, if any.
    fn deliver_undelivered(&mut self) {
        if let Some(Undelivered { now, event, .. }) = self.undelivered.take() {
            self.deliver(now, event.event());
        }
    }

    /// The controller's state, serialized for the WAL: `None` without a
    /// WAL or for a stateless controller.
    fn controller_image(&self) -> Option<String> {
        self.wal.as_ref()?;
        let snapshot = self.controller.snapshot()?;
        Some(serde_json::to_string(&snapshot).unwrap_or_else(|_| "null".to_string()))
    }

    /// Journal the controller's base image — taken right after
    /// `ProjectStarted`, or when recovery finds none it can use. A
    /// controller that has one is stateful: from here on its events are
    /// journaled too. A stateless controller journals nothing.
    fn write_base_image(&mut self) {
        let image = self.controller_image();
        self.log_events = image.is_some();
        if let Some(state) = image {
            self.wal_append(&WalRecord::ControllerState { state });
        }
    }

    fn killed(&self) -> bool {
        self.kill_switch
            .as_ref()
            .is_some_and(|k| k.load(Ordering::Relaxed))
    }

    /// Drive the project to completion: fire `ProjectStarted`, then
    /// process messages until the controller finishes the project.
    pub fn run(mut self) -> ProjectResult {
        let t0 = Instant::now();
        // `started` is set by recovery replay: a restarted project must
        // not re-fire ProjectStarted and double-spawn the initial work.
        if !self.started {
            self.started = true;
            self.wal_append(&WalRecord::Started);
            self.notify_controller(ControllerEvent::ProjectStarted);
            self.write_base_image();
        }
        let mut last_watchdog = Instant::now();

        while self.finished.is_none() {
            if self.killed() {
                // Crash-test SIGKILL: stop dead. No shutdown broadcast,
                // no finished flag, no final WAL sync beyond what the
                // fsync policy already forced — exactly the state a
                // killed process leaves behind.
                return self.project_result(serde_json::Value::Null, t0);
            }
            let msg = match self.transport.recv_timeout(self.config.watchdog_period) {
                Ok(msg) => Some(msg),
                Err(ServerRecvError::Timeout) => None,
                Err(ServerRecvError::Closed) => break,
            };
            self.turn(msg, &mut last_watchdog);
            if self.killed() {
                return self.project_result(serde_json::Value::Null, t0);
            }
            self.publish_status();
        }

        // Tell every connected worker to exit.
        self.transport.broadcast(ToWorker::Shutdown);
        self.monitor.update(|s| s.finished = true);

        let result = self.finished.take().unwrap_or(serde_json::Value::Null);
        self.project_result(result, t0)
    }

    /// One turn of the loop, from one blocking receive to the next:
    /// `msg` (none on a timeout) and the backlog behind it, the watchdog
    /// when due, then the delivery still owed — whichever of the two
    /// retired it, the loop never blocks on an event the controller has
    /// not seen. (A kill leaves it owed, as a crash would.)
    fn turn(&mut self, msg: Option<ToServer>, last_watchdog: &mut Instant) {
        // Drain the backlog before judging liveness: a long controller
        // step (clustering) must not turn queued-up heartbeats into
        // false worker deaths.
        let mut next = msg;
        while let Some(msg) = next {
            self.handle(msg);
            if self.finished.is_some() || self.killed() {
                break;
            }
            next = self.transport.try_recv();
        }
        if self.killed() {
            return;
        }
        if self.finished.is_none() && last_watchdog.elapsed() >= self.config.watchdog_period {
            self.check_heartbeats();
            *last_watchdog = Instant::now();
        }
        self.deliver_undelivered();
    }

    /// The counters as they stand, around `result` — which is null for
    /// a kill-switch exit.
    fn project_result(&self, result: serde_json::Value, t0: Instant) -> ProjectResult {
        let c = self.counters;
        ProjectResult {
            project: self.project,
            result,
            commands_completed: c.commands_completed,
            commands_requeued: c.commands_requeued,
            commands_dropped: c.commands_dropped,
            stale_results_dropped: c.stale_results_dropped,
            workers_lost: c.workers_lost,
            bytes_received: c.bytes_received,
            wall: t0.elapsed(),
        }
    }

    fn tracer(&self) -> Option<Tracer> {
        self.metrics.as_ref().map(|m| m.tracer.clone())
    }

    /// Close every live span for `command` with a terminal disposition.
    fn finish_trace(&mut self, command: CommandId, disposition: &str) {
        if let Some(mut trace) = self.traces.remove(&command) {
            if let Some(mut attempt) = trace.attempt.take() {
                attempt.set_attr("disposition", disposition);
                attempt.finish();
            }
            if let Some(queued) = trace.queued.take() {
                queued.finish();
            }
            trace.root.set_attr("disposition", disposition);
            trace.root.finish();
        }
    }

    /// The lifecycle phase (and attempt epoch) a command is currently
    /// in, or `None` once it reached a terminal phase and was forgotten.
    fn phase_of(&self, id: CommandId) -> Option<(Phase, u32)> {
        if let Some(epoch) = self.ledger.running_epoch(id) {
            return Some((Phase::Dispatched, epoch));
        }
        self.queue.peek(id).map(|cmd| (Phase::Queued, cmd.attempts))
    }

    /// The single lifecycle transition function. Every message path —
    /// dispatch, completion, command error, watchdog orphaning,
    /// controller cancel — funnels through here, so invariants
    /// (exactly-once controller accounting, checkpoint clearing on
    /// terminal phases, attempt budgets) live in one place.
    ///
    /// Returns the stamped command for `Transition::Dispatch`, `None`
    /// otherwise.
    fn transition(&mut self, transition: Transition) -> Option<Command> {
        match transition {
            Transition::Dispatch {
                mut cmd,
                worker,
                queued_at,
            } => {
                debug_assert!(Phase::Queued.can_transition(Phase::Dispatched));
                let now = Instant::now();
                cmd.attempts += 1;
                cmd.not_before = None;
                if let Some(m) = &self.metrics {
                    m.dispatch_latency
                        .record(now.duration_since(queued_at).as_secs_f64());
                }
                // Trace: close the wait-in-queue span, open this
                // attempt's span, and re-stamp the command with the
                // attempt context so worker/delegate spans parent onto
                // this attempt (not the root).
                let tracer = self.tracer();
                if let Some(trace) = self.traces.get_mut(&cmd.id) {
                    if let Some(mut queued) = trace.queued.take() {
                        queued.set_attr("worker", worker.to_string());
                        queued.finish();
                    }
                    if let Some(tracer) = &tracer {
                        let root_ctx = trace.root.context();
                        let mut attempt =
                            tracer.start_child(span_names::ATTEMPT, "server", &root_ctx);
                        attempt.set_attr("worker", worker.to_string());
                        attempt.set_attr("epoch", cmd.attempts.to_string());
                        cmd.trace = Some(attempt.context());
                        trace.attempt = Some(attempt);
                    }
                }
                if let Some(m) = &self.metrics {
                    m.dispatched.inc();
                }
                self.ledger.start_running(InFlight {
                    worker,
                    dispatched_at: now,
                    cmd: cmd.clone(),
                });
                self.wal_append(&WalRecord::Dispatched {
                    command: cmd.id,
                    worker,
                    epoch: cmd.attempts,
                });
                Some(cmd)
            }

            Transition::Complete { output } => {
                let id = output.command;
                let phase = self.phase_of(id);
                match lifecycle::judge_success(phase, output.epoch) {
                    Verdict::DropStale => {
                        self.drop_stale_result(id, output.epoch, "duplicate completion");
                        return None;
                    }
                    Verdict::Accept => {
                        let inflight = self.ledger.stop_running(id).expect("judged Dispatched");
                        self.complete(output, Some(inflight.dispatched_at));
                    }
                    Verdict::AcceptCancelQueued => {
                        // A resurrected worker delivered the original
                        // attempt's result while the re-queued duplicate
                        // sat in the queue: take the result, cancel the
                        // duplicate so it cannot run (and finish) again.
                        debug_assert!(Phase::Queued.can_transition(Phase::Completed));
                        self.queue.remove(id);
                        self.monitor.log(format!(
                            "{id} completed by resurrected worker; queued duplicate cancelled"
                        ));
                        self.complete(output, None);
                    }
                    Verdict::AcceptCancelRunning => {
                        // Result from a stale attempt while a newer
                        // attempt runs: the work is identical, so take
                        // the first result and forget the runner — its
                        // eventual result will judge as a duplicate.
                        self.ledger.stop_running(id);
                        self.monitor.log(format!(
                            "{id} completed by stale attempt; running duplicate's result will be dropped"
                        ));
                        self.complete(output, None);
                    }
                }
                None
            }

            Transition::Fault {
                command,
                worker,
                kind,
                epoch,
                error,
            } => {
                if let Some(epoch) = epoch {
                    if lifecycle::judge_error(self.phase_of(command), epoch) == Verdict::DropStale {
                        self.drop_stale_result(command, epoch, "stale error report");
                        return None;
                    }
                }
                let Some(inflight) = self.ledger.stop_running(command) else {
                    // Watchdog faults always target running commands;
                    // error reports were judged above.
                    debug_assert!(epoch.is_none(), "judged error must be running");
                    return None;
                };
                debug_assert!(Phase::Dispatched.can_transition(match kind {
                    FaultKind::Error => Phase::Errored,
                    FaultKind::WorkerLost => Phase::Orphaned,
                }));
                let mut cmd = inflight.cmd;
                let attempts = cmd.attempts;

                // Trace: the attempt span ends here, whatever the retry
                // policy decides next.
                if let Some(trace) = self.traces.get_mut(&command) {
                    if let Some(mut attempt) = trace.attempt.take() {
                        attempt.set_attr(
                            "disposition",
                            match kind {
                                FaultKind::Error => "error",
                                FaultKind::WorkerLost => "worker_lost",
                            },
                        );
                        if let Some(e) = &error {
                            attempt.set_attr("error", e.as_str());
                        }
                        attempt.finish();
                    }
                }

                if kind == FaultKind::Error {
                    let error = error.as_deref().unwrap_or("unknown error");
                    self.monitor
                        .log(format!("{command} failed on {worker}: {error}"));
                    self.monitor.update(|s| s.commands_failed += 1);
                    if let Some(m) = &self.metrics {
                        m.failed.inc();
                    }
                }

                match self.policy.on_fault(kind, attempts) {
                    Disposition::Retry { delay } => {
                        // Re-queue with the latest shared-filesystem
                        // checkpoint so the next attempt resumes instead
                        // of restarting (§2.3), under an error backoff
                        // embargo so a deterministic failure cannot burn
                        // the whole budget in milliseconds.
                        let now = Instant::now();
                        cmd.checkpoint = self.shared_fs.checkpoint(command);
                        cmd.not_before = (!delay.is_zero()).then(|| now + delay);
                        if let Some(m) = &self.metrics {
                            m.requeued.inc();
                            if kind == FaultKind::Error {
                                m.retry_backoff.record(delay.as_secs_f64());
                            }
                        }
                        let tracer = self.tracer();
                        if let Some(trace) = self.traces.get_mut(&command) {
                            if let Some(tracer) = &tracer {
                                let root_ctx = trace.root.context();
                                let mut queued =
                                    tracer.start_child(span_names::QUEUED, "server", &root_ctx);
                                queued.set_attr(
                                    "requeue_after",
                                    match kind {
                                        FaultKind::Error => "error",
                                        FaultKind::WorkerLost => "worker_lost",
                                    },
                                );
                                trace.queued = Some(queued);
                            }
                        }
                        self.queue.enqueue(cmd, now);
                        self.counters.commands_requeued += 1;
                        self.wal_append(&WalRecord::Requeued { command, attempts });
                        if kind == FaultKind::WorkerLost {
                            self.notify_controller(ControllerEvent::WorkerFailed {
                                worker,
                                requeued: Some(command),
                            });
                        }
                    }
                    Disposition::Drop => {
                        // Terminal: clear the checkpoint, tell the
                        // controller this command will never finish.
                        self.finish_trace(command, "dropped");
                        self.shared_fs.clear(command);
                        self.counters.commands_dropped += 1;
                        self.monitor
                            .log(format!("{command} dropped after {attempts} attempts"));
                        if let Some(m) = &self.metrics {
                            m.dropped.inc();
                        }
                        let reason = match kind {
                            FaultKind::Error => DropReason::Error,
                            FaultKind::WorkerLost => DropReason::WorkerLost,
                        };
                        if kind == FaultKind::WorkerLost {
                            self.notify_controller(ControllerEvent::WorkerFailed {
                                worker,
                                requeued: None,
                            });
                        }
                        let tag = cmd
                            .payload
                            .get("tag")
                            .cloned()
                            .unwrap_or(serde_json::Value::Null);
                        self.retire(
                            Terminal::Dropped {
                                command,
                                attempts,
                                reason,
                                tag,
                            },
                            worker,
                            WalRecord::Dropped { command, attempts },
                        );
                    }
                }
                None
            }

            Transition::Cancel { command } => {
                // Only queued work can be cancelled. A running (or
                // already terminal) command stays exactly as it is:
                // retiring it here — trace, checkpoint, WAL — would
                // leave a replay believing it gone while this server
                // still runs it.
                if self.queue.remove(command).is_some() {
                    self.finish_trace(command, "cancelled");
                    // A re-queued command may carry a checkpoint from an
                    // earlier attempt; cancelling is terminal, so drop it.
                    self.shared_fs.clear(command);
                    self.wal_append(&WalRecord::Cancelled { command });
                }
                None
            }
        }
    }

    /// Accept a completion: clear the checkpoint, account, and owe the
    /// controller its event — exactly once per command, by construction
    /// (the judge sends every later result to `drop_stale_result`).
    /// The result's size is the length of its text: read off a result
    /// that arrived as text, printed here (once) for one that came over
    /// the in-process channel.
    fn complete(&mut self, mut output: CommandOutput, dispatched_at: Option<Instant>) {
        output.bytes = output.data.text().len() as u64;
        let (command, worker, bytes) = (output.command, output.worker, output.bytes);
        self.finish_trace(command, "completed");
        self.retire(
            Terminal::Finished(output),
            worker,
            WalRecord::Completed { command, bytes },
        );
        self.shared_fs.clear(command);
        self.counters.commands_completed += 1;
        self.counters.bytes_received += bytes;
        if let Some(m) = &self.metrics {
            m.completed.inc();
            m.bytes_received.add(bytes);
            if let Some(at) = dispatched_at {
                m.turnaround.record(at.elapsed().as_secs_f64());
            }
        }
    }

    fn drop_stale_result(&mut self, id: CommandId, epoch: u32, what: &str) {
        self.counters.stale_results_dropped += 1;
        self.wal_append(&WalRecord::StaleResult);
        self.monitor
            .log(format!("{id}: {what} (epoch {epoch}) dropped"));
        if let Some(m) = &self.metrics {
            m.stale_results.inc();
        }
    }

    fn handle(&mut self, msg: ToServer) {
        // With an event undelivered, only the freed worker's request
        // (and heartbeats, which change nothing the controller or the
        // journal can see) are handled ahead of it.
        if let Some(Undelivered { freed, .. }) = &self.undelivered {
            let ahead = match &msg {
                ToServer::RequestWork { worker } => worker == freed,
                ToServer::Heartbeat { .. } | ToServer::Batch(_) => true,
                _ => false,
            };
            if !ahead {
                self.deliver_undelivered();
            }
        }
        match msg {
            // The channel transport hands a batch over whole (the TCP
            // one expands it into adjacent messages): its members are
            // handled in order, each as a message of its own.
            ToServer::Batch(msgs) => {
                for m in msgs {
                    self.handle(m);
                }
            }
            ToServer::Announce { worker, desc } => {
                // A (re)announce declares a fresh, idle session. If a
                // recovered placeholder still attributes in-flight
                // commands to this worker, those results either died
                // with the previous server incarnation or are still on
                // their way — and the attempt epoch dedups the latter.
                // Re-queue now instead of trusting the worker to report
                // work it may never have been asked to remember.
                if self.workers.get(&worker).is_some_and(|ws| ws.recovered) {
                    let held = self.ledger.commands_of(worker);
                    if !held.is_empty() {
                        self.monitor.log(format!(
                            "{worker} re-announced after recovery: re-queuing {} held command(s)",
                            held.len()
                        ));
                    }
                    for command in held {
                        self.transition(Transition::Fault {
                            command,
                            worker,
                            kind: FaultKind::WorkerLost,
                            epoch: None,
                            error: None,
                        });
                    }
                }
                let previous = self.workers.insert(
                    worker,
                    WorkerState {
                        desc,
                        last_heartbeat: Instant::now(),
                        alive: true,
                        recovered: false,
                    },
                );
                if !previous.is_some_and(|ws| ws.alive) {
                    self.live_workers += 1;
                }
            }
            ToServer::RequestWork { worker } => {
                self.answer_request(worker);
                self.deliver_undelivered();
            }
            ToServer::Completed { output } => {
                self.transition(Transition::Complete { output });
            }
            ToServer::CommandError {
                worker,
                project: _,
                command,
                epoch,
                error,
            } => {
                self.transition(Transition::Fault {
                    command,
                    worker,
                    kind: FaultKind::Error,
                    epoch: Some(epoch),
                    error: Some(error),
                });
            }
            ToServer::WorkerDeparted { worker } => {
                // Transport-level disconnect (link evicted or closed):
                // orphan the worker's commands now, not at the watchdog
                // timeout.
                self.monitor
                    .log(format!("{worker} link dropped by transport"));
                self.declare_lost(worker);
            }
            ToServer::Heartbeat { worker } => {
                if let Some(ws) = self.workers.get_mut(&worker) {
                    // A recovered placeholder is only reconciled by a
                    // real re-announce (above) or by the watchdog;
                    // heartbeats alone must not keep it alive, or a
                    // surviving worker whose result died with the old
                    // server would strand its command forever.
                    if !ws.recovered {
                        ws.last_heartbeat = Instant::now();
                        // Heartbeats resurrect workers that were presumed
                        // dead during a long controller step.
                        let was_dead = !ws.alive;
                        ws.alive = true;
                        if was_dead {
                            self.resurrect(worker);
                        }
                    }
                }
                // Trace: mark the heartbeat on every attempt span this
                // worker is currently running, so a merged trace shows
                // liveness between dispatch and result. The ledger's
                // per-worker index makes this O(this worker's
                // commands), not a scan of everything in flight.
                if !self.traces.is_empty() {
                    for command in self.ledger.commands_of(worker) {
                        if let Some(trace) = self.traces.get_mut(&command) {
                            if let Some(attempt) = trace.attempt.as_mut() {
                                attempt.add_event(span_names::HEARTBEAT);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Answer one `RequestWork`: a workload from the queue as it stands
    /// or, when nothing matches, from the queue as the undelivered event
    /// leaves it — never `NoWork` to an idle worker while the controller
    /// still owes this worker's result an answer.
    ///
    /// A worker that still holds a command is asking *ahead*, for the
    /// workload behind the one it runs ([`crate::worker`]). It is served
    /// only from a surplus — while the queue is longer than the live
    /// fleet, so what it takes is never what an idle worker would have
    /// got — and its `NoWork` goes out without bringing the undelivered
    /// event first: it has work in hand, and the event is delivered
    /// right behind the answer anyway ([`Server::handle`]).
    fn answer_request(&mut self, worker: WorkerId) {
        let Some(ws) = self.workers.get_mut(&worker) else {
            return; // unannounced worker: ignore
        };
        // A presumed-dead worker asking for work is evidently
        // alive: resurrect it. Its old commands were re-queued;
        // any results it still delivers are deduplicated by
        // attempt epoch in `transition`.
        let was_dead = !ws.alive;
        ws.alive = true;
        ws.last_heartbeat = Instant::now();
        let desc = ws.desc.clone();
        if was_dead {
            self.resurrect(worker);
        }
        let ahead = self.ledger.holds(worker);
        if ahead && self.queue.len() <= self.live_workers {
            let _ = self.transport.send(worker, ToWorker::NoWork);
            return;
        }
        let mut matched = self.queue.match_workload(&desc, Instant::now());
        if matched.is_empty() && !ahead && self.undelivered.is_some() {
            self.deliver_undelivered();
            matched = self.queue.match_workload(&desc, Instant::now());
        }
        let mut load = Vec::with_capacity(matched.len());
        for (cmd, queued_at) in matched {
            let stamped = self
                .transition(Transition::Dispatch {
                    cmd,
                    worker,
                    queued_at,
                })
                .expect("dispatch returns the stamped command");
            load.push(stamped);
        }
        let dispatched: Vec<(CommandId, u32)> =
            load.iter().map(|cmd| (cmd.id, cmd.attempts)).collect();
        let reply_msg = if load.is_empty() {
            ToWorker::NoWork
        } else {
            ToWorker::Workload(load)
        };
        if let Err(e) = self.transport.send(worker, reply_msg) {
            // The workload can never reach this (healthy)
            // worker, so no watchdog would ever take it back:
            // fail the attempt like any command error — retry
            // under backoff, then drop and tell the controller
            // (who hears of the event before it first).
            self.deliver_undelivered();
            for (command, epoch) in dispatched {
                self.transition(Transition::Fault {
                    command,
                    worker,
                    kind: FaultKind::Error,
                    epoch: Some(epoch),
                    error: Some(e.to_string()),
                });
            }
            let _ = self.transport.send(worker, ToWorker::NoWork);
        }
    }

    fn resurrect(&mut self, worker: WorkerId) {
        self.live_workers += 1;
        self.monitor
            .log(format!("{worker} resurrected after presumed loss"));
    }

    /// Declare workers lost after 2× the heartbeat interval of silence
    /// and re-queue their in-flight commands with the latest checkpoint.
    fn check_heartbeats(&mut self) {
        let timeout = 2 * self.config.heartbeat_interval;
        let now = Instant::now();
        let dead: Vec<WorkerId> = self
            .workers
            .iter()
            .filter(|(_, ws)| ws.alive && now.duration_since(ws.last_heartbeat) > timeout)
            .map(|(&id, _)| id)
            .collect();
        for worker in dead {
            self.declare_lost(worker);
        }
    }

    /// Mark a worker dead and orphan its in-flight commands. Reached
    /// from the heartbeat watchdog (silence timeout) and from
    /// [`ToServer::WorkerDeparted`] (the transport observed the link
    /// drop — eviction at the write-backlog cap, TCP reset — so the
    /// re-queue happens immediately instead of after 2× heartbeat).
    fn declare_lost(&mut self, worker: WorkerId) {
        // The watchdog's verdict is journaled like a message's: behind
        // the delivery of the event before it.
        self.deliver_undelivered();
        let Some(ws) = self.workers.get_mut(&worker) else {
            return;
        };
        if !ws.alive {
            return;
        }
        ws.alive = false;
        self.live_workers -= 1;
        // Once reaped, the placeholder's attribution is gone; if the
        // worker later heartbeats or announces it is just an ordinary
        // (re)arrival.
        ws.recovered = false;
        self.counters.workers_lost += 1;
        if let Some(m) = &self.metrics {
            m.workers_lost.inc();
        }
        self.wal_append(&WalRecord::WorkerLost { worker });
        for command in self.ledger.commands_of(worker) {
            self.transition(Transition::Fault {
                command,
                worker,
                kind: FaultKind::WorkerLost,
                epoch: None,
                error: None,
            });
        }
    }

    fn apply_actions(&mut self, actions: Vec<Action>) {
        for action in actions {
            match action {
                Action::Spawn(specs) => {
                    let now = Instant::now();
                    let tracer = self.tracer();
                    for spec in specs {
                        let mut cmd =
                            Command::from_spec(self.ids.next_command(), self.project, spec);
                        // Trace: mint the command's root context here —
                        // the single origin every later span (attempts,
                        // worker exec, delegate hold) hangs off.
                        if let Some(tracer) = &tracer {
                            let ctx = tracer.mint_trace();
                            cmd.trace = Some(ctx);
                            let mut root =
                                tracer.start_with_context(span_names::COMMAND, "server", ctx);
                            root.set_attr("command", cmd.id.to_string());
                            root.set_attr("command_type", cmd.command_type.as_str());
                            let queued = tracer.start_child(span_names::QUEUED, "server", &ctx);
                            self.traces.insert(
                                cmd.id,
                                CommandTrace {
                                    root,
                                    queued: Some(queued),
                                    attempt: None,
                                },
                            );
                        }
                        // The record owns its command (the payload is
                        // shared, not copied): build it only for a log
                        // that exists.
                        if self.wal.is_some() {
                            self.wal_append(&WalRecord::Spawned { cmd: cmd.clone() });
                        }
                        self.queue.enqueue(cmd, now);
                    }
                }
                Action::Cancel(id) => {
                    self.transition(Transition::Cancel { command: id });
                }
                Action::FinishProject { result } => {
                    if self.wal.is_some() {
                        self.wal_append(&WalRecord::Finished {
                            result: serde_json::to_string(&result)
                                .unwrap_or_else(|_| "null".to_string()),
                        });
                    }
                    self.finished = Some(result);
                }
                Action::Log(line) => {
                    self.monitor.log(line);
                }
            }
        }
    }

    fn publish_status(&self) {
        let queued = self.queue.len();
        let running = self.ledger.running_len();
        let connected = self.live_workers;
        let c = self.counters;
        self.monitor.update(|s| {
            s.commands_queued = queued;
            s.commands_running = running;
            s.workers_connected = connected;
            s.commands_completed = c.commands_completed;
            s.commands_requeued = c.commands_requeued;
            s.commands_dropped = c.commands_dropped;
            s.workers_lost = c.workers_lost;
            s.bytes_received = c.bytes_received;
        });
        if let Some(m) = &self.metrics {
            m.queue_depth.set(queued as f64);
            m.running.set(running as f64);
            m.workers_connected.set(connected as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandSpec;
    use crate::controller::ControllerEvent;
    use crate::resources::{ExecutableSpec, Platform, Resources};
    use crate::transport::{self, ChannelHub, ChannelWorkerTransport, WorkerTransport};
    use serde_json::json;
    use std::sync::atomic::AtomicUsize;

    struct Noop;

    impl Controller for Noop {
        fn name(&self) -> &str {
            "noop"
        }
        fn on_event(
            &mut self,
            _ctx: ControllerCtx<'_>,
            _event: ControllerEvent<'_>,
        ) -> Vec<Action> {
            Vec::new()
        }
    }

    /// A server with telemetry attached and no retry backoff, driven by
    /// calling `handle` directly (no threads). The hub is returned only
    /// to keep the reply channel open.
    fn test_server(telemetry: Telemetry) -> (Server, ChannelHub) {
        let (hub, server_transport) = transport::channel();
        let config = ServerConfig::builder()
            .retry(RetryPolicy {
                max_attempts: 5,
                backoff_base: Duration::ZERO,
                backoff_max: Duration::ZERO,
            })
            .build()
            .unwrap();
        let server = Server::new(
            ProjectId(0),
            Box::new(Noop),
            config,
            SharedFs::new(),
            Monitor::with_telemetry(telemetry),
            Box::new(server_transport),
        );
        (server, hub)
    }

    fn noop_worker_desc() -> WorkerDescription {
        WorkerDescription {
            platform: Platform::Smp,
            resources: Resources::new(4, 1000),
            executables: vec![ExecutableSpec::new("noop", Platform::Smp, "1")],
        }
    }

    #[test]
    fn declined_delegation_requeues_with_dispatch_latency() {
        let telemetry = Telemetry::for_process("owner");
        let (mut server, _hub) = test_server(telemetry.clone());
        server.apply_actions(vec![Action::Spawn(vec![CommandSpec::new(
            "noop",
            Resources::new(1, 1),
            json!(null),
        )])]);
        assert_eq!(server.queue.len(), 1);
        let id = server.queue.ids()[0];
        let worker = WorkerId(7);
        server.handle(ToServer::Announce {
            worker,
            desc: noop_worker_desc(),
        });
        server.handle(ToServer::RequestWork { worker });
        assert_eq!(server.queue.len(), 0, "dispatch consumes the queue entry");
        assert_eq!(server.ledger.running_len(), 1);

        // A delegate declining a stale offer reports one CommandError
        // per command, carrying the dispatch epoch. The re-queued entry
        // must carry a fresh enqueue instant so redispatch latency is
        // recorded — and must be gone once the command finally dispatches.
        server.handle(ToServer::CommandError {
            worker,
            project: ProjectId(0),
            command: id,
            epoch: 1,
            error: "delegation declined (stale offer)".into(),
        });
        assert_eq!(server.ledger.running_len(), 0);
        assert_eq!(server.queue.len(), 1, "decline re-queues the command");

        server.handle(ToServer::RequestWork { worker });
        assert_eq!(server.ledger.running_len(), 1);
        assert_eq!(server.queue.len(), 0, "no entry left after redispatch");
        let h = telemetry
            .registry()
            .find_histogram(names::DISPATCH_LATENCY, &Labels::new())
            .unwrap();
        assert_eq!(h.count(), 2, "latency recorded on dispatch and redispatch");

        let cmd = server.ledger.running().next().unwrap().cmd.clone();
        let output = CommandOutput::new(&cmd, worker, json!({}), 0.01);
        server.handle(ToServer::Completed { output });
        assert_eq!(server.queue.len(), 0);
        assert_eq!(server.ledger.running_len(), 0);
        assert!(server.traces.is_empty(), "terminal commands close spans");
        assert_eq!(server.counters.commands_completed, 1);
    }

    /// The accepted result is counted off its text; a stale duplicate
    /// is neither printed nor counted.
    #[test]
    fn a_stale_duplicate_is_neither_printed_nor_counted() {
        let telemetry = Telemetry::for_process("owner");
        let (mut server, _hub) = test_server(telemetry.clone());
        server.apply_actions(vec![Action::Spawn(vec![CommandSpec::new(
            "noop",
            Resources::new(1, 1),
            json!(null),
        )])]);
        let worker = WorkerId(3);
        server.handle(ToServer::Announce {
            worker,
            desc: noop_worker_desc(),
        });
        server.handle(ToServer::RequestWork { worker });
        let cmd = server.ledger.running().next().unwrap().cmd.clone();

        let first = CommandOutput::new(&cmd, worker, json!({"e": [-0.0, 1e21]}), 0.01);
        let duplicate = CommandOutput::new(&cmd, worker, json!({"e": [2.5]}), 0.01);
        let (first_data, duplicate_data) = (first.data.clone(), duplicate.data.clone());
        server.handle(ToServer::Completed { output: first });
        let bytes = r#"{"e":[-0.0,1e21]}"#.len() as u64;
        assert_eq!(first_data.text().len() as u64, bytes);
        assert_eq!(server.counters.bytes_received, bytes);

        server.handle(ToServer::Completed { output: duplicate });
        assert_eq!(server.counters.stale_results_dropped, 1);
        assert!(!duplicate_data.is_printed());
        assert_eq!(server.counters.bytes_received, bytes);
        assert_eq!(
            telemetry.registry().counter_total(names::BYTES_RECEIVED),
            bytes
        );
    }

    /// Counts the `CommandFinished` events it is delivered.
    struct CountFinished(Arc<AtomicUsize>);

    impl Controller for CountFinished {
        fn name(&self) -> &str {
            "count-finished"
        }
        fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
            if matches!(event, ControllerEvent::CommandFinished(_)) {
                self.0.fetch_add(1, Ordering::Relaxed);
            }
            Vec::new()
        }
    }

    /// `Action::Cancel` removes not-yet-dispatched work. Aimed at a
    /// command that is already running it must change nothing: the
    /// attempt keeps its trace, its checkpoints and its place in the
    /// log, so a replay of that log holds the same command the live
    /// server does, and its completion is delivered exactly once.
    #[test]
    fn cancel_of_a_dispatched_command_changes_nothing() {
        let dir = std::env::temp_dir().join(format!("copernicus_cancel_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (_hub, server_transport) = transport::channel();
        let config = ServerConfig::builder()
            .state_dir(dir.to_str().unwrap())
            .fsync(FsyncMode::Never)
            .build()
            .unwrap();
        let fs = SharedFs::new();
        let finished = Arc::new(AtomicUsize::new(0));
        let telemetry = Telemetry::for_process("owner");
        let mut server = Server::new(
            ProjectId(0),
            Box::new(CountFinished(finished.clone())),
            config,
            fs.clone(),
            Monitor::with_telemetry(telemetry),
            Box::new(server_transport),
        );
        server.apply_actions(vec![Action::Spawn(vec![CommandSpec::new(
            "noop",
            Resources::new(1, 1),
            json!(null),
        )])]);
        let id = server.queue.ids()[0];
        let worker = WorkerId(4);
        server.handle(ToServer::Announce {
            worker,
            desc: noop_worker_desc(),
        });
        server.handle(ToServer::RequestWork { worker });
        fs.store_checkpoint(id, json!({ "step": 7 }));

        server.apply_actions(vec![Action::Cancel(id)]);

        assert_eq!(server.ledger.running_epoch(id), Some(1), "still running");
        assert!(server.traces.contains_key(&id), "its trace stays open");
        assert_eq!(fs.checkpoint(id), Some(json!({ "step": 7 })));
        // The id is not fenced off as retired: the attempt's next
        // checkpoint lands.
        fs.store_checkpoint(id, json!({ "step": 8 }));
        assert_eq!(fs.checkpoint(id), Some(json!({ "step": 8 })));
        // The log holds what the live server holds: one command,
        // running on this worker at this epoch, with its checkpoint.
        let log = std::fs::read(dir.join(crate::wal::WAL_FILE)).unwrap();
        assert!(
            !String::from_utf8_lossy(&log).contains("cancelled"),
            "no Cancelled record for a command that was not queued"
        );
        let replayed = crate::wal::replay_dir(&dir).unwrap();
        let running: Vec<_> = replayed
            .running()
            .into_iter()
            .map(|(cmd, w)| (cmd.id, cmd.attempts, cmd.checkpoint, w))
            .collect();
        assert_eq!(running, vec![(id, 1, Some(json!({ "step": 8 })), worker)]);
        assert!(replayed.queued().is_empty());

        let cmd = server.ledger.running().next().unwrap().cmd.clone();
        let output = CommandOutput::new(&cmd, worker, json!({}), 0.01);
        server.handle(ToServer::Completed {
            output: output.clone(),
        });
        server.handle(ToServer::Completed { output });
        assert_eq!(finished.load(Ordering::Relaxed), 1, "delivered once");
        assert_eq!(server.counters.commands_completed, 1);
        assert_eq!(server.counters.stale_results_dropped, 1);
        assert_eq!(fs.n_checkpoints(), 0);
        let replayed = crate::wal::replay_dir(&dir).unwrap();
        assert_eq!(replayed.n_live(), 0);
        assert_eq!(replayed.counters, server.counters);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // Retire now, refill, then deliver
    // -----------------------------------------------------------------

    type Lane = Arc<std::sync::Mutex<ChannelWorkerTransport>>;
    /// Per result delivered: the command, and what its worker's lane held.
    type Results = Arc<std::sync::Mutex<Vec<(u64, Vec<String>)>>>;

    /// What a worker's reply lane holds right now, taken off it.
    fn drain(lane: &Lane) -> Vec<String> {
        let mut lane = lane.lock().unwrap();
        let mut held = Vec::new();
        while let Ok(msg) = lane.recv_timeout(Duration::ZERO) {
            held.push(match msg {
                ToWorker::Workload(cmds) => {
                    let ids: Vec<u64> = cmds.iter().map(|cmd| cmd.id.0).collect();
                    format!("workload {ids:?}")
                }
                ToWorker::NoWork => "no work".to_string(),
                ToWorker::Shutdown => "shutdown".to_string(),
            });
        }
        held
    }

    /// Spawns `initial` commands at the start and `per_result` more for
    /// every result, and writes down for each result what the reply
    /// lane of the worker that sent it held when the event arrived.
    struct Scripted {
        initial: usize,
        per_result: usize,
        lanes: HashMap<WorkerId, Lane>,
        results: Results,
        dropped: Arc<std::sync::Mutex<Vec<u64>>>,
    }

    fn noops(n: usize) -> Vec<Action> {
        let spec = CommandSpec::new("noop", Resources::new(4, 1), json!(null));
        vec![Action::Spawn(vec![spec; n])]
    }

    impl Controller for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
            match event {
                ControllerEvent::ProjectStarted => noops(self.initial),
                ControllerEvent::CommandFinished(output) => {
                    let held = drain(&self.lanes[&output.worker]);
                    self.results.lock().unwrap().push((output.command.0, held));
                    noops(self.per_result)
                }
                ControllerEvent::CommandDropped { command, .. } => {
                    self.dropped.lock().unwrap().push(command.0);
                    Vec::new()
                }
                _ => Vec::new(),
            }
        }
        fn snapshot(&self) -> Option<serde_json::Value> {
            Some(json!(self.results.lock().unwrap().len()))
        }
    }

    /// A started server under a [`Scripted`] controller with workers 1
    /// and 2 announced (each takes one command at a time), driven by
    /// hand; durable when given a directory.
    struct Rig {
        server: Server,
        lanes: HashMap<WorkerId, Lane>,
        results: Results,
        dropped: Arc<std::sync::Mutex<Vec<u64>>>,
    }

    const A: WorkerId = WorkerId(1);
    const B: WorkerId = WorkerId(2);

    fn rig(initial: usize, per_result: usize, state_dir: Option<&Path>) -> Rig {
        let (hub, server_transport) = transport::channel();
        let lanes: HashMap<WorkerId, Lane> = [A, B]
            .into_iter()
            .map(|w| (w, Arc::new(std::sync::Mutex::new(hub.attach(w)))))
            .collect();
        let results = Results::default();
        let dropped = Arc::new(std::sync::Mutex::new(Vec::new()));
        let mut builder = ServerConfig::builder();
        if let Some(dir) = state_dir {
            let _ = std::fs::remove_dir_all(dir);
            builder = builder
                .state_dir(dir.to_str().unwrap())
                .fsync(FsyncMode::Never);
        }
        let mut server = Server::new(
            ProjectId(0),
            Box::new(Scripted {
                initial,
                per_result,
                lanes: lanes.clone(),
                results: results.clone(),
                dropped: dropped.clone(),
            }),
            builder.build().unwrap(),
            SharedFs::new(),
            Monitor::new(),
            Box::new(server_transport),
        );
        // The transport learns the reply lanes as it reads its inbox.
        assert!(server.transport.try_recv().is_none());
        server.wal_append(&WalRecord::Started);
        server.notify_controller(ControllerEvent::ProjectStarted);
        server.write_base_image();
        for worker in [A, B] {
            server.handle(ToServer::Announce {
                worker,
                desc: noop_worker_desc(),
            });
        }
        Rig {
            server,
            lanes,
            results,
            dropped,
        }
    }

    impl Rig {
        /// The report of what `worker` is running, and its next request.
        fn result_of(&self, worker: WorkerId) -> (ToServer, ToServer) {
            let running = self.server.ledger.running().find(|r| r.worker == worker);
            let cmd = &running.expect("the worker holds a command").cmd;
            let output = CommandOutput::new(cmd, worker, json!({}), 0.01);
            (
                ToServer::Completed { output },
                ToServer::RequestWork { worker },
            )
        }

        fn results(&self) -> Vec<(u64, Vec<String>)> {
            self.results.lock().unwrap().clone()
        }
    }

    #[test]
    fn the_freed_worker_is_refilled_before_its_result_is_delivered() {
        let mut rig = rig(2, 0, None);
        rig.server.handle(ToServer::RequestWork { worker: A });
        assert_eq!(drain(&rig.lanes[&A]), ["workload [0]"]);

        let (completed, request) = rig.result_of(A);
        rig.server.handle(ToServer::Batch(vec![completed, request]));
        // When the controller heard of command 0, its worker had
        // already been sent command 1.
        assert_eq!(rig.results(), [(0, vec!["workload [1]".to_string()])]);
        assert!(rig.server.undelivered.is_none());

        // Heartbeats pass an undelivered event by; anything else, and
        // the end of the queue, brings it out.
        let (completed, request) = rig.result_of(A);
        rig.server.handle(completed);
        rig.server.handle(ToServer::Heartbeat { worker: B });
        assert!(rig.server.undelivered.is_some());
        assert_eq!(rig.results().len(), 1);
        rig.server.handle(request);
        assert_eq!(rig.results()[1], (1, vec![]));
        assert_eq!(drain(&rig.lanes[&A]), ["no work"]);
    }

    #[test]
    fn with_nothing_queued_the_result_is_delivered_first_and_its_spawn_is_the_refill() {
        let mut rig = rig(1, 1, None);
        rig.server.handle(ToServer::RequestWork { worker: A });
        assert_eq!(drain(&rig.lanes[&A]), ["workload [0]"]);

        let (completed, request) = rig.result_of(A);
        rig.server.handle(ToServer::Batch(vec![completed, request]));
        // Nothing to hand out ahead of the event, so the event went
        // first — and what it spawned is what the worker got, not
        // `NoWork` and a poll interval of sleep.
        assert_eq!(rig.results(), [(0, vec![])]);
        assert_eq!(drain(&rig.lanes[&A]), ["workload [1]"]);
    }

    #[test]
    fn a_result_with_no_request_behind_it_is_delivered_before_the_loop_blocks() {
        let mut rig = rig(3, 0, None);
        rig.server.handle(ToServer::RequestWork { worker: A });
        drain(&rig.lanes[&A]);

        // Alone in the inbox: one turn of the loop retires and delivers.
        let (completed, request) = rig.result_of(A);
        rig.server.turn(Some(completed), &mut Instant::now());
        assert_eq!(rig.results(), [(0, vec![])]);

        // Behind it in the inbox (a batch the TCP transport expanded):
        // the same turn answers the request first.
        rig.server.handle(request);
        drain(&rig.lanes[&A]);
        let (completed, request) = rig.result_of(A);
        rig.lanes[&A].lock().unwrap().send(request).unwrap();
        rig.server.turn(Some(completed), &mut Instant::now());
        assert_eq!(rig.results()[1], (1, vec!["workload [2]".to_string()]));
    }

    #[test]
    fn a_drop_by_the_watchdog_is_delivered_before_the_loop_blocks() {
        let mut rig = rig(2, 0, None);
        rig.server.policy.max_attempts = 1;
        for worker in [A, B] {
            rig.server.handle(ToServer::RequestWork { worker });
        }
        // A reports and sends nothing behind it; B, on the last attempt
        // of command 1, has been silent for longer than the watchdog
        // allows.
        let (completed, _) = rig.result_of(A);
        let silent = 2 * rig.server.config.heartbeat_interval + Duration::from_millis(1);
        let long_ago = Instant::now().checked_sub(silent).expect("uptime");
        rig.server.workers.get_mut(&B).unwrap().last_heartbeat = long_ago;

        // One turn: A's result retired, then the watchdog — which hands
        // the controller A's result before it journals B's loss, and
        // B's drop before the loop blocks, with no message to bring it
        // out.
        rig.server.turn(Some(completed), &mut { long_ago });
        assert!(rig.server.undelivered.is_none());
        assert_eq!(rig.results().len(), 1);
        assert_eq!(*rig.dropped.lock().unwrap(), [1]);

        // The same on a timeout, where the watchdog is all that runs.
        let mut rig = self::rig(1, 0, None);
        rig.server.policy.max_attempts = 1;
        rig.server.handle(ToServer::RequestWork { worker: A });
        rig.server.workers.get_mut(&A).unwrap().last_heartbeat = long_ago;
        rig.server.turn(None, &mut { long_ago });
        assert!(rig.server.undelivered.is_none());
        assert_eq!(*rig.dropped.lock().unwrap(), [0]);
    }

    impl Rig {
        /// The live count the server keeps, held against a recount.
        fn live_workers(&self) -> usize {
            let recount = self.server.workers.values().filter(|ws| ws.alive).count();
            assert_eq!(self.server.live_workers, recount);
            recount
        }
    }

    #[test]
    fn a_worker_holding_a_command_is_served_only_from_a_surplus() {
        let mut rig = rig(4, 0, None);
        assert_eq!(rig.live_workers(), 2);
        rig.server.handle(ToServer::RequestWork { worker: A });
        assert_eq!(drain(&rig.lanes[&A]), ["workload [0]"]);
        // Asking ahead: three queued for two live workers.
        rig.server.handle(ToServer::RequestWork { worker: A });
        assert_eq!(drain(&rig.lanes[&A]), ["workload [1]"]);
        // Two queued for two live workers: none to spare.
        rig.server.handle(ToServer::RequestWork { worker: A });
        assert_eq!(drain(&rig.lanes[&A]), ["no work"]);
        // An idle worker is served as ever.
        rig.server.handle(ToServer::RequestWork { worker: B });
        assert_eq!(drain(&rig.lanes[&B]), ["workload [2]"]);

        // B lost: its command goes back, the fleet is one worker, and
        // two queued is a surplus again.
        rig.server.declare_lost(B);
        assert_eq!(rig.live_workers(), 1);
        assert_eq!(rig.server.queue.len(), 2);
        rig.server.handle(ToServer::RequestWork { worker: A });
        assert_eq!(drain(&rig.lanes[&A]), ["workload [3]"]);
        assert_eq!(rig.server.ledger.commands_of(A).len(), 3);
        // Back from the dead by a heartbeat: counted again.
        rig.server.handle(ToServer::Heartbeat { worker: B });
        assert_eq!(rig.live_workers(), 2);
        rig.server.handle(ToServer::RequestWork { worker: A });
        assert_eq!(drain(&rig.lanes[&A]), ["no work"]);
    }

    #[test]
    fn a_no_work_to_a_worker_asking_ahead_leaves_the_event_where_it_is() {
        let mut rig = rig(4, 1, None);
        for _ in 0..2 {
            rig.server.handle(ToServer::RequestWork { worker: A });
        }
        assert_eq!(drain(&rig.lanes[&A]), ["workload [0]", "workload [1]"]);

        // A reports 0 and asks ahead of 1, with two queued for two
        // workers: `NoWork` goes out before the controller hears of 0 —
        // whose spawn would have been a surplus.
        let running = rig.server.ledger.running();
        let cmd = &running.min_by_key(|r| r.cmd.id).unwrap().cmd;
        let output = CommandOutput::new(cmd, A, json!({}), 0.01);
        let request = ToServer::RequestWork { worker: A };
        rig.server.handle(ToServer::Batch(vec![
            ToServer::Completed { output },
            request,
        ]));
        assert_eq!(rig.results(), [(0, vec!["no work".to_string()])]);
        assert!(rig.server.undelivered.is_none());
        assert_eq!(rig.server.queue.len(), 3);
        assert_eq!(rig.live_workers(), 2);
    }

    /// The log's record kinds, and the `next_id` of each event record.
    fn logged(dir: &Path) -> (Vec<String>, Vec<u64>) {
        let log = std::fs::read_to_string(dir.join(crate::wal::WAL_FILE)).unwrap();
        // `llllllll cccccccc {record}` per line.
        let records: Vec<serde_json::Value> = log
            .lines()
            .map(|line| serde_json::from_str(&line[18..]).unwrap())
            .collect();
        let kind = |r: &serde_json::Value| r["kind"].as_str().unwrap().to_string();
        let next_ids = records
            .iter()
            .filter(|r| kind(r) == "event")
            .map(|r| r["next_id"].as_u64().unwrap())
            .collect();
        (records.iter().map(kind).collect(), next_ids)
    }

    /// What a crash now would recover is what the server holds.
    fn assert_log_matches(server: &Server, dir: &Path) {
        let replayed = crate::wal::replay_dir(dir).unwrap();
        let mut queued = server.queue.ids();
        queued.sort();
        let replayed_queued: Vec<CommandId> = replayed.queued().iter().map(|c| c.id).collect();
        assert_eq!(replayed_queued, queued);
        let mut running: Vec<_> = server
            .ledger
            .running()
            .map(|r| (r.cmd.id, r.cmd.attempts, r.worker))
            .collect();
        running.sort();
        let replayed_running: Vec<_> = replayed
            .running()
            .iter()
            .map(|(cmd, worker)| (cmd.id, cmd.attempts, *worker))
            .collect();
        assert_eq!(replayed_running, running);
        assert_eq!(replayed.next_command_id(), server.ids.peek());
        assert_eq!(replayed.counters, server.counters);
    }

    #[test]
    fn back_to_back_results_reach_the_controller_in_log_order() {
        let dir = std::env::temp_dir().join(format!("copernicus_refill_{}", std::process::id()));
        let mut rig = rig(4, 1, Some(&dir));
        for worker in [A, B] {
            rig.server.handle(ToServer::RequestWork { worker });
            drain(&rig.lanes[&worker]);
        }
        assert_log_matches(&rig.server, &dir);
        let before = logged(&dir).0.len();

        // Both workers report, each with its request in the same batch.
        for worker in [A, B] {
            let (completed, request) = rig.result_of(worker);
            rig.server.handle(ToServer::Batch(vec![completed, request]));
            assert_log_matches(&rig.server, &dir);
        }
        // Each event names the id its own spawn was then given: the
        // refill in between mints nothing.
        let (kinds, next_ids) = logged(&dir);
        let per_result = ["event", "completed", "dispatched", "spawned"];
        assert_eq!(kinds[before..], [per_result, per_result].concat());
        assert_eq!(next_ids, [4, 5]);
        assert_eq!(
            rig.results(),
            [
                (0, vec!["workload [2]".to_string()]),
                (1, vec!["workload [3]".to_string()])
            ]
        );

        // The same two results with the requests trailing both: the
        // second result pushes the first one's delivery out ahead of its
        // own event record, and a request from anyone but the freed
        // worker waits for the delivery.
        let (completed_a, request_a) = rig.result_of(A);
        let (completed_b, request_b) = rig.result_of(B);
        let before = kinds.len();
        for (msg, delivered) in [
            (completed_a, 2),
            (completed_b, 3),
            (request_a, 4),
            (request_b, 4),
        ] {
            rig.server.handle(msg);
            assert_eq!(rig.results().len(), delivered);
            assert_log_matches(&rig.server, &dir);
        }
        let (kinds, next_ids) = logged(&dir);
        assert_eq!(
            kinds[before..],
            [
                "event",
                "completed",
                "spawned", // A's result, delivered by B's arriving
                "event",
                "completed",
                "spawned", // B's, delivered by A's request
                "dispatched",
                "dispatched",
            ]
        );
        assert_eq!(next_ids, [4, 5, 6, 7]);
        let order: Vec<u64> = rig.results().iter().map(|(id, _)| *id).collect();
        assert_eq!(order, [0, 1, 2, 3]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn command_lifecycle_emits_span_tree_with_heartbeats() {
        let telemetry = Telemetry::for_process("owner");
        let (mut server, _hub) = test_server(telemetry.clone());
        server.apply_actions(vec![Action::Spawn(vec![CommandSpec::new(
            "noop",
            Resources::new(1, 1),
            json!(null),
        )])]);
        let worker = WorkerId(3);
        server.handle(ToServer::Announce {
            worker,
            desc: noop_worker_desc(),
        });
        server.handle(ToServer::RequestWork { worker });
        server.handle(ToServer::Heartbeat { worker });
        let cmd = server.ledger.running().next().unwrap().cmd.clone();
        assert!(
            cmd.trace.is_some(),
            "dispatched command carries the attempt context"
        );
        let output = CommandOutput::new(&cmd, worker, json!({}), 0.01);
        server.handle(ToServer::Completed { output });

        let spans = telemetry.tracer().spans();
        assert_eq!(spans.len(), 3, "queued + attempt + command: {spans:#?}");
        let root = spans.iter().find(|s| s.name == "command").unwrap();
        let queued = spans.iter().find(|s| s.name == "queued").unwrap();
        let attempt = spans.iter().find(|s| s.name == "attempt").unwrap();
        assert_eq!(root.parent_span_id, None);
        assert_eq!(queued.parent_span_id, Some(root.span_id));
        assert_eq!(attempt.parent_span_id, Some(root.span_id));
        assert!(spans.iter().all(|s| s.trace_id == root.trace_id));
        assert_eq!(
            attempt
                .events
                .iter()
                .filter(|e| e.name == "heartbeat")
                .count(),
            1,
            "heartbeat marked on the live attempt span"
        );
        assert!(root
            .attrs
            .iter()
            .any(|(k, v)| k == "disposition" && v == "completed"));
        // The dispatched command's context is the attempt span itself.
        assert_eq!(cmd.trace.unwrap().span_id, attempt.span_id);
    }

    #[test]
    fn builder_accepts_sane_defaults() {
        let config = ServerConfig::builder().build().expect("defaults are valid");
        assert_eq!(config.max_attempts, 5);
        assert!(config.bind.is_none());
    }

    #[test]
    fn builder_round_trips_a_retry_policy() {
        let policy = RetryPolicy {
            max_attempts: 3,
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_millis(100),
        };
        let config = ServerConfig::builder().retry(policy).build().unwrap();
        let back = config.retry_policy();
        assert_eq!(back.max_attempts, 3);
        assert_eq!(back.backoff_base, Duration::from_millis(10));
        assert_eq!(back.backoff_max, Duration::from_millis(100));
    }

    #[test]
    fn builder_rejects_zero_attempt_budget() {
        let err = ServerConfig::builder().max_attempts(0).build().unwrap_err();
        assert!(err.0.contains("max_attempts"), "{err}");
    }

    #[test]
    fn builder_rejects_watchdog_slower_than_heartbeat() {
        let err = ServerConfig::builder()
            .heartbeat_interval(Duration::from_millis(100))
            .watchdog_period(Duration::from_millis(500))
            .build()
            .unwrap_err();
        assert!(err.0.contains("watchdog_period"), "{err}");
    }

    #[test]
    fn builder_rejects_inverted_backoff_clamp() {
        let err = ServerConfig::builder()
            .retry(RetryPolicy {
                max_attempts: 3,
                backoff_base: Duration::from_secs(60),
                backoff_max: Duration::from_secs(1),
            })
            .build()
            .unwrap_err();
        assert!(err.0.contains("retry_backoff_base"), "{err}");
    }

    #[test]
    fn literal_with_bind_but_no_key_fails_validation() {
        // The builder makes this unrepresentable; a hand-rolled literal
        // is caught by the shared validate().
        let config = ServerConfig {
            bind: Some("127.0.0.1:0".into()),
            ..ServerConfig::default()
        };
        let err = config.validate().unwrap_err();
        assert!(err.0.contains("auth_key"), "{err}");
    }

    #[test]
    fn builder_bind_carries_its_key() {
        let key = AuthKey::from_passphrase("hunter2");
        let config = ServerConfig::builder()
            .bind("127.0.0.1:0", key)
            .build()
            .unwrap();
        assert_eq!(config.bind.as_deref(), Some("127.0.0.1:0"));
        assert!(config.auth_key.is_some());
    }
}
