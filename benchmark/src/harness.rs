//! The decorators the harness owns around the program's two public
//! plugin traits, and the recorder they write into.
//!
//! Everything the benchmark learns about a live run it learns here: the
//! executor decorator sees each command arrive at a worker and its
//! result leave; the controller decorator sees each terminal event
//! reach the controller and each batch of follow-up work leave it. The
//! gaps between those observations are the command path.
//!
//! What they record is bounded: counters, fixed-size samples and
//! thinned logs. A flood run completes half a million commands, and
//! `peak_rss_mb` is an end-to-end metric — the harness's own footprint
//! must not grow with the work done.

use crate::spans::{Spans, SERVER_LANE};
use crate::stats::{Reservoir, StridedLog};
use copernicus_core::{
    Action, Command, CommandExecutor, Controller, ControllerCtx, ControllerEvent, ExecContext,
    ExecError, ExecutableSpec,
};
use serde_json::{json, Value};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What a run is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Set-up measurement only: run to the first `execute` call, then
    /// tear down. Executors answer `Null` without doing the work.
    Probe,
    /// The end-to-end run: no `Telemetry` attached, no spans; the
    /// harness takes its two clock readings per `execute` call.
    Untraced,
    /// Same run with the program's `Telemetry` attached, harness spans
    /// on, and a sample of messages kept for the isolated replays.
    Traced,
}

/// (command kind, payload size class): what isolated costs are keyed by.
pub type Bucket = (u8, u8);

pub const KIND_MDRUN: u8 = 0;
pub const KIND_MSM_BUILD: u8 = 1;
pub const KIND_OTHER: u8 = 2;

fn kind_of(command_type: &str) -> u8 {
    match command_type {
        "mdrun" => KIND_MDRUN,
        "msm-build" => KIND_MSM_BUILD,
        _ => KIND_OTHER,
    }
}

/// Kind from the command type, class from the payload's `class` field
/// (`payload_bulk` sets it; everything else is class 0).
pub fn bucket_of(command: &Command) -> Bucket {
    let class = command
        .payload
        .get("class")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    (kind_of(&command.command_type), class as u8)
}

/// A command as a worker received it, with the result it produced:
/// the raw material of the codec, wire and WAL replays.
pub struct Exchange {
    pub command: Command,
    pub worker: u64,
    pub result: Value,
    pub wall_secs: f64,
}

/// How many exchanges per bucket the traced run keeps.
const CORPUS_PER_BUCKET: usize = 24;

/// Samples kept of each per-command quantity.
const SAMPLE_CAP: usize = 1 << 16;

/// What the `execute` calls added up to.
pub struct ExecLog {
    /// Per worker: when its last `execute` ended, whether it succeeded,
    /// and its bucket.
    last: Vec<(u64, u64, bool, Bucket)>,
    /// Seconds between one `execute` ending and the same worker's next
    /// one starting, with the bucket of the command that ended. Only
    /// gaps after the warm-up and inside the window are kept.
    pub gaps: Reservoir<(f64, Bucket)>,
    /// Durations of commands other than `msm-build`, seconds.
    pub exec_secs: Reservoir<f64>,
    /// Durations of `msm-build` commands, seconds (a handful per run).
    pub build_secs: Vec<f64>,
    /// Σ `execute` time inside the window.
    pub busy_ns: u64,
    total_ns: u64,
    /// Σ `execute` time of MD commands, and the steps they reported.
    pub md_busy_ns: u64,
    pub md_steps: u64,
    pub failed: u64,
}

impl ExecLog {
    /// Σ `execute` time of every command, in or out of the window.
    pub fn total_secs(&self) -> f64 {
        self.total_ns as f64 / 1e9
    }

    fn new(sample_cap: usize) -> ExecLog {
        ExecLog {
            last: Vec::new(),
            gaps: Reservoir::new(sample_cap),
            exec_secs: Reservoir::new(sample_cap),
            build_secs: Vec::new(),
            busy_ns: 0,
            total_ns: 0,
            md_busy_ns: 0,
            md_steps: 0,
            failed: 0,
        }
    }
}

pub struct Recorder {
    pub epoch: Instant,
    pub mode: Mode,
    window_ns: u64,
    warmup_ns: u64,
    /// Start of the first `execute` call; `u64::MAX` until it happens.
    first_exec_ns: AtomicU64,
    execs: Mutex<ExecLog>,
    pub spans: Option<Spans>,
    corpus: Mutex<Vec<Exchange>>,
    /// MD results whose potential energy was missing or not finite.
    pub bad_energy: AtomicU64,
}

impl Recorder {
    pub fn new(epoch: Instant, mode: Mode, window_secs: f64) -> Recorder {
        Recorder {
            epoch,
            mode,
            window_ns: (window_secs * 1e9) as u64,
            // The first fifth of the window (at most 2 s) is left out of
            // turnaround statistics while caches fill and the first
            // round of commands is handed out.
            warmup_ns: (window_secs.min(10.0) * 0.2 * 1e9) as u64,
            first_exec_ns: AtomicU64::new(u64::MAX),
            execs: Mutex::new(ExecLog::new(SAMPLE_CAP)),
            spans: (mode == Mode::Traced).then(|| Spans::new(epoch)),
            corpus: Mutex::new(Vec::new()),
            bad_energy: AtomicU64::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start of the timed window, once the first `execute` has begun.
    pub fn window_start_ns(&self) -> Option<u64> {
        match self.first_exec_ns.load(Ordering::SeqCst) {
            u64::MAX => None,
            t => Some(t),
        }
    }

    /// End of the timed window. A probe's window is empty: it is over
    /// the moment it starts.
    pub fn deadline_ns(&self) -> Option<u64> {
        self.window_start_ns().map(|t| t + self.window_ns)
    }

    pub fn past_deadline(&self) -> bool {
        self.deadline_ns().is_some_and(|d| self.now_ns() >= d)
    }

    /// Mark the window open at the first call; returns its bounds.
    fn note_exec_start(&self, start_ns: u64) -> (u64, u64) {
        let start = match self.first_exec_ns.compare_exchange(
            u64::MAX,
            start_ns,
            Ordering::SeqCst,
            Ordering::SeqCst,
        ) {
            Ok(_) => start_ns,
            Err(earlier) => earlier,
        };
        (start, start + self.window_ns)
    }

    pub fn take_execs(&self) -> ExecLog {
        std::mem::replace(
            &mut *self.execs.lock().expect("exec log lock"),
            ExecLog::new(0),
        )
    }

    pub fn take_corpus(&self) -> Vec<Exchange> {
        std::mem::take(&mut *self.corpus.lock().expect("corpus lock"))
    }

    fn wants_exchange(&self, bucket: Bucket) -> bool {
        self.mode == Mode::Traced
            && self
                .corpus
                .lock()
                .expect("corpus lock")
                .iter()
                .filter(|e| bucket_of(&e.command) == bucket)
                .count()
                < CORPUS_PER_BUCKET
    }
}

// ---------------------------------------------------------------------
// Executor decorator
// ---------------------------------------------------------------------

/// Wraps one of the program's executors (or one of the harness's own
/// synthetic ones) and times each `execute` call from outside.
pub struct TimedExecutor {
    inner: Arc<dyn CommandExecutor>,
    rec: Arc<Recorder>,
}

impl TimedExecutor {
    pub fn new(inner: Arc<dyn CommandExecutor>, rec: Arc<Recorder>) -> TimedExecutor {
        TimedExecutor { inner, rec }
    }
}

impl CommandExecutor for TimedExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        self.inner.executables()
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<Value, ExecError> {
        let rec = &*self.rec;
        let command = ctx.command;
        let worker = ctx.worker.0;
        let bucket = bucket_of(command);

        let start_ns = rec.now_ns();
        let (window_start, deadline) = rec.note_exec_start(start_ns);
        if rec.mode == Mode::Probe {
            return Ok(Value::Null);
        }
        {
            let mut log = rec.execs.lock().expect("exec log lock");
            let previous = log.last.iter().find(|l| l.0 == worker).copied();
            if let Some((_, end_ns, ok, ended)) = previous {
                if ok && end_ns >= window_start + rec.warmup_ns && start_ns <= deadline {
                    log.gaps
                        .push((start_ns.saturating_sub(end_ns) as f64 / 1e9, ended));
                }
            }
        }

        let mut outer = rec
            .spans
            .as_ref()
            .map(|s| s.open("executor.execute", worker, Some(command.id.0)));
        let inner = rec
            .spans
            .as_ref()
            .map(|s| s.open("executor.inner", worker, Some(command.id.0)));
        let out = self.inner.execute(ctx);
        if let (Some(s), Some(open)) = (&rec.spans, inner) {
            s.close(open, outer.as_mut());
        }
        let end_ns = rec.now_ns();

        let mut steps = 0;
        if let (KIND_MDRUN, Ok(value)) = (bucket.0, &out) {
            steps = value["steps_executed"].as_u64().unwrap_or(0);
            if !value["final_potential"]
                .as_f64()
                .is_some_and(f64::is_finite)
            {
                rec.bad_energy.fetch_add(1, Ordering::Relaxed);
            }
        }
        {
            let mut log = rec.execs.lock().expect("exec log lock");
            let entry = (worker, end_ns, out.is_ok(), bucket);
            match log.last.iter_mut().find(|l| l.0 == worker) {
                Some(last) => *last = entry,
                None => log.last.push(entry),
            }
            let dur_ns = end_ns - start_ns;
            log.total_ns += dur_ns;
            log.busy_ns += end_ns
                .min(deadline)
                .saturating_sub(start_ns.max(window_start));
            match bucket.0 {
                KIND_MSM_BUILD => log.build_secs.push(dur_ns as f64 / 1e9),
                kind => {
                    log.exec_secs.push(dur_ns as f64 / 1e9);
                    if kind == KIND_MDRUN {
                        log.md_busy_ns += dur_ns;
                        log.md_steps += steps;
                    }
                }
            }
            log.failed += u64::from(out.is_err());
        }
        if let Ok(value) = &out {
            if rec.wants_exchange(bucket) {
                rec.corpus.lock().expect("corpus lock").push(Exchange {
                    command: command.clone(),
                    worker,
                    result: value.clone(),
                    wall_secs: (end_ns - start_ns) as f64 / 1e9,
                });
            }
        }
        if let (Some(s), Some(open)) = (&rec.spans, outer) {
            s.close(open, None);
        }
        out
    }
}

// ---------------------------------------------------------------------
// Controller decorator
// ---------------------------------------------------------------------

/// What the controller decorator hands back when the project ends.
pub struct ControllerLog {
    pub spawned: u64,
    pub completed: u64,
    pub dropped: u64,
    /// Commands that reached a second terminal event.
    pub duplicates: u64,
    pub events: u64,
    /// Completions that reached the controller before the window closed.
    pub completed_in_window: u64,
    /// When completions reached the controller, thinned, on the server's
    /// clock (`ControllerCtx::now`) — the one the program stamps its own
    /// reports with, such as the time of the first fold.
    pub completions: StridedLog<u64>,
    /// Σ serialized result sizes, as the workers counted them.
    pub result_bytes: u64,
    /// The wrapped controller finished the project itself, before the
    /// window closed (the workloads are sized so it cannot).
    pub finished_early: bool,
    /// Traced runs: microseconds inside the wrapped controller's
    /// `on_event`, and their sum.
    pub on_event_us: Reservoir<f64>,
    pub on_event_ns: u64,
    /// Traced runs: what the `snapshot()` calls recorded.
    pub snapshots: SnapshotLog,
    /// The wrapped controller's final snapshot (villin runs), read once
    /// at the end for the science checks.
    pub final_snapshot: Option<Value>,
}

impl ControllerLog {
    fn new() -> ControllerLog {
        ControllerLog {
            spawned: 0,
            completed: 0,
            dropped: 0,
            duplicates: 0,
            events: 0,
            completed_in_window: 0,
            completions: StridedLog::new(SAMPLE_CAP),
            result_bytes: 0,
            finished_early: false,
            on_event_us: Reservoir::new(SAMPLE_CAP),
            on_event_ns: 0,
            snapshots: SnapshotLog::default(),
            final_snapshot: None,
        }
    }
}

const SNAPSHOT_SIZE_EVERY: u64 = 16;
const SNAPSHOT_SAMPLES: usize = 4;

/// What the `snapshot(&self)` calls of a traced run recorded.
#[derive(Default)]
pub struct SnapshotLog {
    taken: u64,
    /// End of the last `on_event` and how many commands it spawned,
    /// until the snapshot that follows it has been seen.
    last_event: Option<(u64, u64)>,
    /// Microseconds inside the wrapped controller's `snapshot`, per
    /// call (the server asks once per event, and only with a WAL).
    pub us: Vec<f64>,
    pub busy_ns: u64,
    /// Σ server time between `on_event` returning and `snapshot` being
    /// called, and Σ commands those events spawned: the outside view of
    /// `apply_actions`.
    pub spawn_gap_ns: u64,
    pub spawn_gap_cmds: u64,
    /// Serialized size of every `SNAPSHOT_SIZE_EVERY`-th snapshot.
    pub bytes: Vec<u64>,
    /// A few whole snapshots, serialized, for the WAL replay.
    pub samples: Vec<String>,
}

/// Wraps the project's controller. It forwards every event, and
///
/// * counts spawns and terminal events, so "exactly one terminal event
///   per command" is checked from outside;
/// * closes the run: once the timed window is over it drops the
///   wrapped controller's further `Spawn`s, lets queued and in-flight
///   commands drain, and finishes the project when none is left — so
///   every command that was spawned reaches a terminal event and a
///   time-bounded run still ends cleanly;
/// * in a traced run, puts spans around `on_event` and `snapshot`.
pub struct GatedController {
    inner: Box<dyn Controller>,
    rec: Arc<Recorder>,
    log: ControllerLog,
    /// Terminal-event count per command id (ids are dense from 0).
    seen: Vec<u8>,
    draining: bool,
    finished: bool,
    /// Read the wrapped controller's snapshot when the project ends.
    want_final_snapshot: bool,
    snapshots: RefCell<SnapshotLog>,
    sink: Arc<Mutex<Option<ControllerLog>>>,
}

impl GatedController {
    pub fn new(
        inner: Box<dyn Controller>,
        rec: Arc<Recorder>,
        want_final_snapshot: bool,
    ) -> (GatedController, Arc<Mutex<Option<ControllerLog>>>) {
        let sink = Arc::new(Mutex::new(None));
        let gated = GatedController {
            inner,
            rec,
            log: ControllerLog::new(),
            seen: Vec::new(),
            draining: false,
            finished: false,
            want_final_snapshot,
            snapshots: RefCell::default(),
            sink: sink.clone(),
        };
        (gated, sink)
    }

    fn note_terminal(&mut self, cmd: u64) {
        let slot = cmd as usize;
        if self.seen.len() <= slot {
            self.seen.resize(slot + 1, 0);
        }
        self.seen[slot] = self.seen[slot].saturating_add(1);
        if self.seen[slot] > 1 {
            self.log.duplicates += 1;
        }
    }

    fn hand_over(&mut self) {
        self.finished = true;
        let mut log = std::mem::replace(&mut self.log, ControllerLog::new());
        log.snapshots = std::mem::take(&mut *self.snapshots.borrow_mut());
        // One timed `snapshot()` at the end, in every traced run: the
        // server asks for one only when it has a WAL, and the science
        // checks of the villin runs read this one.
        if self.want_final_snapshot || self.rec.mode == Mode::Traced {
            let t0 = Instant::now();
            let snapshot = self.inner.snapshot();
            if self.rec.mode == Mode::Traced {
                log.snapshots.us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            }
            if self.want_final_snapshot {
                log.final_snapshot = snapshot;
            }
        }
        *self.sink.lock().expect("controller log lock") = Some(log);
    }
}

impl Controller for GatedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_event(&mut self, ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        let rec = self.rec.clone();
        let cmd = match &event {
            ControllerEvent::CommandFinished(output) => {
                self.note_terminal(output.command.0);
                let at_ns = rec.now_ns();
                self.log.completed += 1;
                self.log.result_bytes += output.bytes;
                self.log.completions.push(ctx.now.as_nanos() as u64);
                if rec.deadline_ns().is_some_and(|d| at_ns <= d) {
                    self.log.completed_in_window += 1;
                }
                Some(output.command.0)
            }
            ControllerEvent::CommandDropped { command, .. } => {
                self.note_terminal(command.0);
                self.log.dropped += 1;
                Some(command.0)
            }
            ControllerEvent::ProjectStarted | ControllerEvent::WorkerFailed { .. } => None,
        };
        self.log.events += 1;

        let mut outer = rec
            .spans
            .as_ref()
            .map(|s| s.open("controller.on_event", SERVER_LANE, cmd));
        let inner = rec
            .spans
            .as_ref()
            .map(|s| s.open("controller.inner_on_event", SERVER_LANE, cmd));
        let mut actions = self.inner.on_event(ctx, event);
        if let (Some(s), Some(open)) = (&rec.spans, inner) {
            let ns = s.close(open, outer.as_mut());
            self.log.on_event_us.push(ns as f64 / 1e3);
            self.log.on_event_ns += ns;
        }

        if !self.draining && rec.past_deadline() {
            self.draining = true;
        }
        if self.draining {
            actions.retain(|a| !matches!(a, Action::Spawn(_)));
        }
        let mut spawned_now = 0;
        let mut inner_finished = false;
        for action in &actions {
            match action {
                Action::Spawn(specs) => spawned_now += specs.len() as u64,
                Action::FinishProject { .. } => inner_finished = true,
                _ => {}
            }
        }
        self.log.finished_early |= inner_finished && !self.draining;
        self.log.spawned += spawned_now;
        let outstanding = self.log.spawned - self.log.completed - self.log.dropped;
        if self.draining && outstanding == 0 && !inner_finished && !self.finished {
            actions.push(Action::FinishProject {
                result: json!({ "copbench": "window closed, backlog drained" }),
            });
            inner_finished = true;
        }
        if inner_finished && !self.finished {
            self.hand_over();
        }

        self.snapshots.borrow_mut().last_event = Some((rec.now_ns(), spawned_now));
        if let (Some(s), Some(open)) = (&rec.spans, outer) {
            s.close(open, None);
        }
        actions
    }

    fn snapshot(&self) -> Option<Value> {
        let Some(spans) = &self.rec.spans else {
            return self.inner.snapshot();
        };
        let start_ns = self.rec.now_ns();
        let open = spans.open("controller.snapshot", SERVER_LANE, None);
        let snapshot = self.inner.snapshot();
        let ns = spans.close(open, None);
        let mut log = self.snapshots.borrow_mut();
        if let Some((event_end_ns, spawned)) = log.last_event.take() {
            if spawned > 0 {
                log.spawn_gap_ns += start_ns.saturating_sub(event_end_ns);
                log.spawn_gap_cmds += spawned;
            }
        }
        if let Some(value) = &snapshot {
            log.us.push(ns as f64 / 1e3);
            log.busy_ns += ns;
            log.taken += 1;
            if (log.taken - 1).is_multiple_of(SNAPSHOT_SIZE_EVERY) {
                let text = value.to_string();
                log.bytes.push(text.len() as u64);
                // Keep the first and a few later ones: snapshots grow.
                if log.samples.len() == SNAPSHOT_SAMPLES {
                    log.samples.remove(1);
                }
                log.samples.push(text);
            }
        }
        snapshot
    }

    fn restore(&mut self, snapshot: Value) -> bool {
        self.inner.restore(snapshot)
    }
}

impl Drop for GatedController {
    /// A run that ends without a `FinishProject` passing through here
    /// (it cannot, short of a server bug) still reports what it saw.
    fn drop(&mut self) {
        if !self.finished {
            self.hand_over();
        }
    }
}
