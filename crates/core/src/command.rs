//! Commands: the individual work units a project is broken into.
//!
//! In the paper, a command is typically one massively parallel 50-ns MD
//! segment. Payloads are structured JSON interpreted by the executor
//! registered for the command type — the framework itself is agnostic of
//! the simulation engine (§2.1).

use crate::ids::{CommandId, ProjectId, WorkerId};
use crate::resources::Resources;
use copernicus_telemetry::TraceContext;
use serde_json::Value;
use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// A command's payload or a worker's result: an immutable JSON value
/// shared by reference, together with its JSON text.
///
/// The server passes each payload through its queue, its ledger, the
/// journal and the wire; all of them hold the same allocation, and the
/// text is printed at most once, the first time a layer asks for it. A
/// payload decoded from a frame or a journal record keeps the text it
/// arrived as, so a result is journaled as the bytes its worker sent.
/// Printing a parsed printed text gives back the same text, so the
/// bytes on the wire and in the journal are those a fresh
/// `serde_json::to_string` of the value would give.
#[derive(Clone)]
pub struct Payload(Arc<PayloadInner>);

struct PayloadInner {
    value: Value,
    text: OnceLock<String>,
}

impl Payload {
    /// Parse `text`, keeping it as the payload's text.
    pub fn parse(text: &str) -> Result<Payload, serde_json::Error> {
        let value = serde_json::from_str(text)?;
        Ok(Payload(Arc::new(PayloadInner {
            value,
            text: OnceLock::from(text.to_string()),
        })))
    }

    /// The JSON text: the one it arrived as, or the value printed once.
    pub fn text(&self) -> &str {
        self.0.text.get_or_init(|| {
            // `Value` serialization cannot fail; the fallback keeps
            // this path infallible without an unwrap.
            serde_json::to_string(&self.0.value).unwrap_or_else(|_| "null".to_string())
        })
    }
}

impl From<Value> for Payload {
    fn from(value: Value) -> Payload {
        Payload(Arc::new(PayloadInner {
            value,
            text: OnceLock::new(),
        }))
    }
}

impl Deref for Payload {
    type Target = Value;

    fn deref(&self) -> &Value {
        &self.0.value
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.value.fmt(f)
    }
}

/// What a controller asks to be run (before an id is assigned).
#[derive(Debug, Clone)]
pub struct CommandSpec {
    pub command_type: String,
    /// Higher runs earlier.
    pub priority: i32,
    pub required: Resources,
    pub payload: serde_json::Value,
}

impl CommandSpec {
    pub fn new(
        command_type: impl Into<String>,
        required: Resources,
        payload: serde_json::Value,
    ) -> Self {
        CommandSpec {
            command_type: command_type.into(),
            priority: 0,
            required,
            payload,
        }
    }

    pub fn with_priority(mut self, priority: i32) -> Self {
        self.priority = priority;
        self
    }
}

/// A queued, schedulable command.
#[derive(Debug, Clone)]
pub struct Command {
    pub id: CommandId,
    pub project: ProjectId,
    pub command_type: String,
    pub priority: i32,
    pub required: Resources,
    pub payload: Payload,
    /// Latest checkpoint returned by a (possibly failed) earlier
    /// execution; executors resume from it when present (§2.3).
    pub checkpoint: Option<serde_json::Value>,
    /// How many times this command has been (re)dispatched. Doubles as
    /// the *attempt epoch*: the server stamps it at dispatch, workers
    /// echo it back in results, and the server drops results whose
    /// epoch no longer matches (see `lifecycle`).
    pub attempts: u32,
    /// Error-retry backoff embargo: the queue's `match_workload` skips
    /// (but retains) this command until the instant has passed.
    /// Process-local scheduling state, never serialized.
    pub not_before: Option<Instant>,
    /// Distributed-tracing context: minted by the owning server at
    /// enqueue, re-stamped with the attempt span at each dispatch, and
    /// carried across the wire by the binary codec so worker and
    /// delegate spans join the owner's trace. Not part of the WAL
    /// record — a restored command starts a fresh trace.
    pub trace: Option<TraceContext>,
}

impl Command {
    pub fn from_spec(id: CommandId, project: ProjectId, spec: CommandSpec) -> Self {
        Command {
            id,
            project,
            command_type: spec.command_type,
            priority: spec.priority,
            required: spec.required,
            payload: Payload::from(spec.payload),
            checkpoint: None,
            attempts: 0,
            not_before: None,
            trace: None,
        }
    }

    /// Whether the backoff embargo (if any) has expired at `now`.
    pub fn ready_at(&self, now: Instant) -> bool {
        self.not_before.is_none_or(|t| t <= now)
    }
}

/// The result a worker returns for a completed command.
#[derive(Debug, Clone)]
pub struct CommandOutput {
    pub command: CommandId,
    pub project: ProjectId,
    pub worker: WorkerId,
    pub command_type: String,
    /// The attempt epoch this result belongs to (the command's
    /// `attempts` value at dispatch). The server uses it to tell a live
    /// result from a stale duplicate after re-queueing.
    pub epoch: u32,
    pub data: Payload,
    /// Wall time the execution took, seconds.
    pub wall_secs: f64,
    /// Serialized size of `data` (ensemble-bandwidth accounting).
    pub bytes: u64,
    /// Echo of the dispatched command's trace context so results can be
    /// attributed to the right attempt span even after a delegation hop.
    pub trace: Option<TraceContext>,
}

impl CommandOutput {
    pub fn new(cmd: &Command, worker: WorkerId, data: serde_json::Value, wall_secs: f64) -> Self {
        let bytes = crate::codec::json_len(&data);
        CommandOutput {
            command: cmd.id,
            project: cmd.project,
            worker,
            command_type: cmd.command_type.clone(),
            epoch: cmd.attempts,
            data: Payload::from(data),
            wall_secs,
            bytes,
            trace: cmd.trace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    /// A clone is a pointer copy: the clones share one value, and the
    /// text the first of them prints is the one every clone returns
    /// (a second print would be a second allocation).
    #[test]
    fn clones_share_one_text_printed_once() {
        let spec = CommandSpec::new("t", Resources::new(1, 1), json!({"x": [1.5, -2.0]}));
        let cmd = Command::from_spec(CommandId(1), ProjectId(0), spec);
        let copy = cmd.clone();
        assert!(std::ptr::eq(&*cmd.payload, &*copy.payload));
        assert_eq!(copy.payload.text(), r#"{"x":[1.5,-2.0]}"#);
        assert!(std::ptr::eq(cmd.payload.text(), copy.payload.text()));
        assert!(std::ptr::eq(
            copy.clone().payload.text(),
            copy.payload.text()
        ));

        // A parsed payload holds the value of its text.
        let parsed = Payload::parse(r#"{"x": [1.5, -2.0]}"#).unwrap();
        assert_eq!(*parsed, *cmd.payload);
        assert_eq!(parsed.text(), r#"{"x": [1.5, -2.0]}"#);
        assert!(Payload::parse("not js(").is_err());
    }

    #[test]
    fn spec_to_command() {
        let spec = CommandSpec::new("mdrun", Resources::new(4, 100), json!({"steps": 1000}))
            .with_priority(5);
        let cmd = Command::from_spec(CommandId(1), ProjectId(0), spec);
        assert_eq!(cmd.command_type, "mdrun");
        assert_eq!(cmd.priority, 5);
        assert_eq!(cmd.payload["steps"], json!(1000));
        assert!(cmd.checkpoint.is_none());
        assert_eq!(cmd.attempts, 0);
    }

    #[test]
    fn output_measures_bytes() {
        let cmd = Command::from_spec(
            CommandId(2),
            ProjectId(0),
            CommandSpec::new("t", Resources::new(1, 1), json!(null)),
        );
        let out = CommandOutput::new(&cmd, WorkerId(9), json!({"x": [1, 2, 3]}), 0.5);
        assert_eq!(out.command, CommandId(2));
        assert_eq!(out.worker, WorkerId(9));
        assert!(out.bytes >= 10);
        assert_eq!(out.wall_secs, 0.5);

        // The count is the encoder's, to the byte: an MD result in
        // decimal and in blocks, a 128 KiB float array, and every shape
        // the walk special-cases.
        let md = json!({
            "final_positions": [[0.1, -2.5e-7, 3.0], [1e21, 4.0, -0.0]],
            "potential_energy": -152.37,
            "steps": 1600u64,
            "tag": { "lineage": 3u64, "note": "q\"\\\n\t\u{1}é" },
            "trajectory": { "frames": [[[1.5, 2.25, -3.125]]], "times": [0.0, 0.04] },
        });
        let mut x = 0.37_f64;
        let floats: Vec<f64> = (0..16 * 1024)
            .map(|_| {
                x = (x * 997.0 + 0.123).fract();
                (x - 0.5) * 1e3
            })
            .collect();
        // And the same with its coordinates as blocks, as `mdrun`
        // writes it.
        let frame = |k: f64| -> Vec<mdsim::Vec3> {
            (0..35)
                .map(|i| mdsim::Vec3::new(k * 0.1 + i as f64, -2.5e-7 * k, f64::from(i).sqrt()))
                .collect()
        };
        let mut trajectory = mdsim::trajectory::Trajectory::new();
        for k in 0..6 {
            trajectory.push(0.04 * k as f64, frame(k as f64));
        }
        let blocks = crate::md_executors::MdRunOutput {
            trajectory,
            final_positions: frame(5.0),
            steps_executed: 200,
            final_potential: Some(-152.37),
            tag: json!({ "lineage": 3u64 }),
        }
        .to_value();
        let odd = json!({
            "a": [], "b": {}, "c": [null, true, false], "d": -7, "e": u64::MAX,
            "f": f64::NAN, "g": f64::INFINITY,
        });
        for data in [
            md,
            blocks,
            json!({ "data": floats }),
            odd,
            json!("plain"),
            json!(null),
        ] {
            let encoded = serde_json::to_vec(&data).unwrap().len() as u64;
            assert_eq!(
                CommandOutput::new(&cmd, WorkerId(9), data, 0.0).bytes,
                encoded
            );
        }
    }

    // A command's trip through an encoding (ids, payload and checkpoint
    // kept; `not_before` left behind) is checked where the encoding
    // lives: `codec::tests::workload_preserves_command_fields`.
}
