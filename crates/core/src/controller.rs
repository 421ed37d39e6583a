//! Controller plugins (§2.1 of the paper).
//!
//! *"Even the controllers doing the analysis and deciding what to run are
//! 'plugins'… Controllers are in essence event handlers that react to a
//! set of conditions: they are called when a project starts, a subproject
//! finishes, a command finishes, etc."*
//!
//! A [`Controller`] receives [`ControllerEvent`]s from the project server
//! and answers with [`Action`]s: spawn commands, terminate queued
//! commands, or finish the project with a result.
//!
//! ## API v2: the controller context
//!
//! Every `on_event` call receives a [`ControllerCtx`] alongside the
//! event. The context carries the server-owned plumbing — project
//! identity, a monotonic clock, the telemetry handle, a deterministic
//! RNG seed — that plugins previously smuggled in through constructor
//! fields. Controllers own their *domain* state (models, samples,
//! estimators); everything tied to the server process arrives per-event
//! through the context, which is what lets the registry instantiate a
//! controller from its name and config alone (WAL recovery, `serve`).

use crate::command::{CommandOutput, CommandSpec};
use crate::ids::{CommandId, ProjectId, WorkerId};
use copernicus_telemetry::Telemetry;
use std::time::Duration;

/// Server-provided context delivered with every controller event.
#[derive(Clone, Copy)]
pub struct ControllerCtx<'a> {
    /// The project this event belongs to.
    pub project: ProjectId,
    /// Monotonic time since the server started. All events share this
    /// one timeline, so latency measurements made inside a controller
    /// (e.g. time-to-first-folded) are attributable even when results
    /// originate on remote workers.
    pub now: Duration,
    /// The server's telemetry handle, when the deployment carries one.
    pub telemetry: Option<&'a Telemetry>,
    /// Deterministic seed derived from the project identity. Controllers
    /// whose config carries no seed of its own should derive RNG streams
    /// from this rather than hardcoding one.
    pub seed: u64,
    /// This delivery is a *re*-delivery: crash recovery is rebuilding
    /// the controller's state from the write-ahead log and has already
    /// delivered this event once, in an earlier incarnation. State
    /// covered by [`Controller::snapshot`] must change exactly as it did
    /// then; anything outside it (shared archives, external accounting)
    /// must be left alone.
    pub replay: bool,
}

impl std::fmt::Debug for ControllerCtx<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ControllerCtx")
            .field("project", &self.project)
            .field("now", &self.now)
            .field("telemetry", &self.telemetry.is_some())
            .field("seed", &self.seed)
            .field("replay", &self.replay)
            .finish()
    }
}

impl ControllerCtx<'_> {
    /// A bare context for unit tests and inline harnesses.
    pub fn test() -> ControllerCtx<'static> {
        ControllerCtx {
            project: ProjectId(0),
            now: Duration::ZERO,
            telemetry: None,
            seed: 0xC0FFEE,
            replay: false,
        }
    }
}

/// Why a command left the lifecycle without a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Repeated command-level errors exhausted the attempt budget.
    Error,
    /// Repeated worker loss exhausted the attempt budget.
    WorkerLost,
}

/// Events delivered to a project controller.
#[derive(Debug)]
pub enum ControllerEvent<'a> {
    /// The project has been created; produce the initial commands.
    ProjectStarted,
    /// A command's output has arrived at the project server. Delivered
    /// exactly once per command: duplicate and stale-epoch results are
    /// deduplicated by the server before this event fires.
    CommandFinished(&'a CommandOutput),
    /// A worker stopped heartbeating; the listed command was re-queued
    /// (with its latest checkpoint, if any).
    WorkerFailed {
        worker: WorkerId,
        requeued: Option<CommandId>,
    },
    /// A command exhausted its attempt budget and was dropped: no
    /// `CommandFinished` will ever arrive for it. Controllers that
    /// count completions must account for this event or the project
    /// hangs. `tag` is the command payload's `"tag"` field (or `Null`),
    /// so controllers that key in-flight work by tag — a lineage id, an
    /// epoch — can tell *which* unit of work died without keeping a
    /// `CommandId → tag` map of their own.
    CommandDropped {
        command: CommandId,
        attempts: u32,
        reason: DropReason,
        tag: serde_json::Value,
    },
}

/// What a controller wants done in response to an event.
#[derive(Debug)]
pub enum Action {
    /// Enqueue new commands.
    Spawn(Vec<CommandSpec>),
    /// Remove a not-yet-dispatched command from the queue.
    Cancel(CommandId),
    /// The project is done; `result` is its final report.
    FinishProject { result: serde_json::Value },
    /// Progress note surfaced through the monitoring interface.
    Log(String),
}

/// A project controller plugin.
///
/// ## Durability contract
///
/// A durable server does not persist a controller's state after every
/// event; it persists the *events* (DESIGN.md §15) and rebuilds the
/// state after a crash as [`Controller::restore`] of the last image it
/// took, followed by re-delivery of the logged events in order, each
/// with the `ctx.now` it was first delivered with and
/// [`ControllerCtx::replay`] set. For that to reproduce the pre-crash
/// state, a controller whose `snapshot` returns `Some` must keep to
/// three rules:
///
/// * `on_event` is a function of the state `snapshot` covers, the
///   event, `ctx.seed` and `ctx.now` — no wall clock, no unseeded
///   randomness, no iteration over hash-ordered containers;
/// * `snapshot` returns `Some` always or `None` always;
/// * effects outside that state are skipped when `ctx.replay` is set.
pub trait Controller: Send {
    /// Short name for logs and monitoring ("msm", "fep", …).
    fn name(&self) -> &str;

    /// Handle one event, returning follow-up actions.
    fn on_event(&mut self, ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action>;

    /// Serialize the controller's whole decision state, or `None` if
    /// the controller is stateless (the default). A durable server
    /// calls this once after `ProjectStarted` and then only when it
    /// compacts its log — a cadence that backs off as the image grows —
    /// so the cost is amortised over the events in between, not paid
    /// per event.
    fn snapshot(&self) -> Option<serde_json::Value> {
        None
    }

    /// Restore state captured by [`Controller::snapshot`] during crash
    /// recovery; the events logged after that image are re-delivered
    /// next. Return `true` if the snapshot was applied; the default
    /// ignores it (a stateless controller re-derives everything from
    /// the replayed command stream). When this returns `false` for a
    /// stateful controller, recovery still re-queues the in-flight
    /// work, but the controller restarts its decision-making from
    /// scratch.
    fn restore(&mut self, _snapshot: serde_json::Value) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::Resources;
    use serde_json::json;

    /// A controller that runs `n` trivial commands then finishes.
    struct CountDown {
        remaining: usize,
    }

    impl Controller for CountDown {
        fn name(&self) -> &str {
            "countdown"
        }
        fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
            match event {
                ControllerEvent::ProjectStarted => {
                    let specs = (0..self.remaining)
                        .map(|i| CommandSpec::new("noop", Resources::new(1, 1), json!({ "i": i })))
                        .collect();
                    vec![Action::Spawn(specs)]
                }
                ControllerEvent::CommandFinished(_) => {
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        vec![Action::FinishProject {
                            result: json!("done"),
                        }]
                    } else {
                        vec![]
                    }
                }
                ControllerEvent::WorkerFailed { .. } => vec![Action::Log("shrug".into())],
                ControllerEvent::CommandDropped { .. } => {
                    self.remaining -= 1;
                    if self.remaining == 0 {
                        vec![Action::FinishProject {
                            result: json!("done"),
                        }]
                    } else {
                        vec![]
                    }
                }
            }
        }
    }

    #[test]
    fn controller_protocol_shape() {
        let mut c = CountDown { remaining: 2 };
        assert_eq!(c.name(), "countdown");
        let actions = c.on_event(ControllerCtx::test(), ControllerEvent::ProjectStarted);
        assert_eq!(actions.len(), 1);
        match &actions[0] {
            Action::Spawn(specs) => assert_eq!(specs.len(), 2),
            other => panic!("expected spawn, got {other:?}"),
        }
    }

    #[test]
    fn test_ctx_is_bare() {
        let ctx = ControllerCtx::test();
        assert_eq!(ctx.project, ProjectId(0));
        assert_eq!(ctx.now, Duration::ZERO);
        assert!(ctx.telemetry.is_none());
        assert!(!ctx.replay);
    }
}
