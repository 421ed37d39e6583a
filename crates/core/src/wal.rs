//! Write-ahead log of server lifecycle transitions.
//!
//! The server is the coordination point for a whole project, yet until
//! this module existed its queue, attempt epochs and checkpoint
//! bookkeeping lived only in process memory — the one fault the
//! exactly-once lifecycle could not survive was the server itself
//! dying. `Wal` persists every transition that flows through the
//! single `Server::transition` chokepoint (plus spawn/finish actions
//! and checkpoint deposits) as length-prefixed, CRC-checksummed JSONL
//! records, and replays them on restart to the exact pre-crash state:
//! queued work is re-queued, in-flight commands keep their attempt
//! epochs (so duplicate results from surviving workers are still
//! deduped) and are re-orphaned by the ordinary watchdog when their
//! pre-crash workers never resume heartbeating.
//!
//! The record encoding reuses the telemetry journal machinery — the
//! dependency-free [`Json`] value type with its deterministic
//! (BTreeMap-ordered) writer, so a WAL written by one build replays
//! byte-identically under another. A command's payload and a result's
//! data are embedded as JSON strings holding their [`Payload`] text: the
//! text the payload already has, or the one it arrived as from a
//! worker, so no append prints a payload. Replay rebuilds each
//! `Payload` from the logged text, and the shadow state, compaction and
//! checkpoints share it without copying or printing.
//!
//! ## Frame format
//!
//! ```text
//! llllllll cccccccc {"kind":"dispatched",...}\n
//! ```
//!
//! `llllllll` is the JSON byte length in lower-case hex, `cccccccc`
//! the CRC-32 (IEEE) of those bytes, computed eight bytes at a time. A
//! torn tail — short header, short body, bad checksum, missing trailing
//! newline, or unparseable JSON — ends replay at the last clean record
//! and is truncated away on open; a partially-written record is
//! therefore dropped cleanly, never half-applied.
//!
//! ## Controller state: log the event, not the state
//!
//! A stateful controller is a deterministic state machine (see the
//! contract on [`crate::controller::Controller`]), so the log keeps its
//! *inputs*: one [`WalRecord::Event`] per delivered event, written
//! before the controller sees it, carrying the event, the clock reading
//! it was delivered with and the next command id to be minted. The
//! controller's state is recovered as `restore(image)` plus re-delivery
//! of the events after that image; [`WalRecord::ControllerState`] is
//! the image, written once after `ProjectStarted` and again at each
//! compaction. Appending costs O(result bytes) per event, whatever the
//! controller has accumulated.
//!
//! ## Snapshot + compaction
//!
//! The log would otherwise grow without bound, so after
//! [`COMPACT_EVERY`] terminal transitions (the cadence is keyed to the
//! lifecycle's terminal set: completions, drops and cancels) the
//! WAL rewrites itself as a snapshot of the live state — a fresh
//! record sequence that replays to the identical [`RecoveredState`] —
//! into a temp file, fsyncs it, and atomically renames it over the
//! log. Counters accumulated by retired records are carried by a
//! single `counters` record at the head of each snapshot.
//!
//! A generation must start from a controller image as new as its
//! ledger. While no event has been logged since the last image that is
//! the image the WAL already holds, and [`Wal::append`] compacts on its
//! own. Once events have been logged only the owner of the controller
//! can supply one: [`Wal::checkpoint_due`] tells it when, and
//! [`Wal::checkpoint`] starts the new generation from the image it
//! hands over, dropping the events that image covers. An image grows
//! with the project, so a checkpoint is due only when the log has also
//! doubled since the last generation was written: each one then costs
//! no more than the bytes appended since the one before, O(1) amortised
//! per appended byte, where a fixed cadence would cost O(commands²).

use crate::command::{Command, CommandOutput, Payload};
use crate::controller::{ControllerEvent, DropReason};
use crate::ids::{CommandId, ProjectId, WorkerId};
use crate::resources::Resources;
use copernicus_telemetry::Json;
use std::collections::{BTreeMap, BTreeSet};
use std::fs::{File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Terminal transitions between snapshot/compaction passes.
pub const COMPACT_EVERY: u32 = 256;

/// Name of the log file inside the state directory.
pub const WAL_FILE: &str = "wal.log";

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncMode {
    /// fsync after every record: no acknowledged transition is ever
    /// lost, at a syscall per transition.
    #[default]
    Always,
    /// fsync at most once per interval: bounded data loss window,
    /// amortized cost. Records are still *written* immediately — only
    /// the flush to stable storage is deferred.
    Every(Duration),
    /// Never fsync explicitly; rely on the OS page cache. Survives a
    /// process kill (the write() happened) but not a host crash.
    Never,
}

impl FsyncMode {
    /// Parse a CLI spelling: `always`, `never`, or a millisecond
    /// interval (`250` or `250ms`).
    pub fn parse(s: &str) -> Option<FsyncMode> {
        match s {
            "always" => Some(FsyncMode::Always),
            "never" => Some(FsyncMode::Never),
            other => other
                .strip_suffix("ms")
                .unwrap_or(other)
                .parse::<u64>()
                .ok()
                .map(|ms| FsyncMode::Every(Duration::from_millis(ms))),
        }
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// One durable lifecycle event. The taxonomy mirrors the transitions
/// of the lifecycle machine plus the bookkeeping the server needs to
/// restore itself (see DESIGN.md §15).
#[derive(Debug, Clone)]
pub enum WalRecord {
    /// `ProjectStarted` has been delivered to the controller; replay
    /// must not deliver it again.
    Started,
    /// A command entered the queue (spawn or snapshot). Carries the
    /// full schedulable command, including its current attempt count.
    Spawned { cmd: Command },
    /// Queued → Dispatched on `worker` at attempt `epoch`.
    Dispatched {
        command: CommandId,
        worker: WorkerId,
        epoch: u32,
    },
    /// Terminal: result accepted (`bytes` = result payload size).
    Completed { command: CommandId, bytes: u64 },
    /// Fault with retry budget left: back to Queued with the burned
    /// attempt recorded.
    Requeued { command: CommandId, attempts: u32 },
    /// Terminal: retry budget exhausted.
    Dropped { command: CommandId, attempts: u32 },
    /// Terminal: cancelled (duplicate overtaken by an accepted result,
    /// or an explicit controller cancel).
    Cancelled { command: CommandId },
    /// A checkpoint deposit from a (possibly failed) execution.
    /// `data` is the checkpoint serialized as a JSON string.
    CheckpointStored { command: CommandId, data: String },
    /// The checkpoint was retired (terminal transition).
    CheckpointCleared { command: CommandId },
    /// A worker was declared lost (counter only; the per-command
    /// consequences arrive as their own `Requeued`/`Dropped` records).
    WorkerLost { worker: WorkerId },
    /// A stale (wrong-epoch) result was discarded.
    StaleResult,
    /// Controller image (its `snapshot()`, serialized), replacing any
    /// earlier one together with the events it covers.
    ControllerState { state: String },
    /// An event about to be delivered to a stateful controller.
    Event(EventRecord),
    /// The project finished with this serialized result.
    Finished { result: String },
    /// Baseline written at the head of a compaction snapshot: the
    /// counters retired records accumulated, and the next command id
    /// (the live set alone need not contain the highest id minted).
    Counters { counters: WalCounters, next_id: u64 },
}

/// One controller event as the log keeps it: owned, payloads
/// serialized, with what re-delivery needs to reproduce the first one.
#[derive(Debug, Clone)]
pub struct EventRecord {
    pub event: LoggedEvent,
    /// The `ControllerCtx::now` the event was delivered with.
    pub now: Duration,
    /// The id the first command spawned in response was (or would have
    /// been) given: re-delivery mints from here, which is how recovery
    /// tells a spawn the log already has from one the crash tore off.
    pub next_id: u64,
}

impl EventRecord {
    fn to_json(&self, obj: &mut Json) {
        self.event.to_json(obj);
        obj.set("now_ns", self.now.as_nanos() as u64)
            .set("next_id", self.next_id);
    }

    fn from_json(obj: &Json) -> Option<EventRecord> {
        Some(EventRecord {
            event: LoggedEvent::from_json(obj)?,
            now: Duration::from_nanos(obj.get("now_ns")?.as_u64()?),
            next_id: obj.get("next_id")?.as_u64()?,
        })
    }
}

/// The loggable [`ControllerEvent`]s (`ProjectStarted` is implied by
/// [`WalRecord::Started`]).
#[derive(Debug, Clone)]
pub enum LoggedEvent {
    Finished {
        command: CommandId,
        worker: WorkerId,
        command_type: String,
        epoch: u32,
        /// The result, with the text it arrived as.
        data: Payload,
        bytes: u64,
        wall_secs: f64,
    },
    Dropped {
        command: CommandId,
        attempts: u32,
        reason: DropReason,
        /// The payload's `"tag"`, serialized.
        tag: String,
    },
    WorkerFailed {
        worker: WorkerId,
        requeued: Option<CommandId>,
    },
}

fn to_json_text(value: &serde_json::Value) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| "null".to_string())
}

impl LoggedEvent {
    /// The loggable form of `event`; `None` for `ProjectStarted`.
    pub fn of(event: &ControllerEvent<'_>) -> Option<LoggedEvent> {
        Some(match event {
            ControllerEvent::ProjectStarted => return None,
            ControllerEvent::CommandFinished(output) => LoggedEvent::Finished {
                command: output.command,
                worker: output.worker,
                command_type: output.command_type.clone(),
                epoch: output.epoch,
                data: output.data.clone(),
                bytes: output.bytes,
                wall_secs: output.wall_secs,
            },
            ControllerEvent::CommandDropped {
                command,
                attempts,
                reason,
                tag,
            } => LoggedEvent::Dropped {
                command: *command,
                attempts: *attempts,
                reason: *reason,
                tag: to_json_text(tag),
            },
            ControllerEvent::WorkerFailed { worker, requeued } => LoggedEvent::WorkerFailed {
                worker: *worker,
                requeued: *requeued,
            },
        })
    }

    /// Rebuild the event and hand it to `deliver`.
    pub fn deliver<R>(
        &self,
        project: ProjectId,
        deliver: impl FnOnce(ControllerEvent<'_>) -> R,
    ) -> R {
        let parse = |text: &str| serde_json::from_str(text).unwrap_or(serde_json::Value::Null);
        match self {
            LoggedEvent::Finished {
                command,
                worker,
                command_type,
                epoch,
                data,
                bytes,
                wall_secs,
            } => deliver(ControllerEvent::CommandFinished(&CommandOutput {
                command: *command,
                project,
                worker: *worker,
                command_type: command_type.clone(),
                epoch: *epoch,
                data: data.clone(),
                wall_secs: *wall_secs,
                bytes: *bytes,
                trace: None,
            })),
            LoggedEvent::Dropped {
                command,
                attempts,
                reason,
                tag,
            } => deliver(ControllerEvent::CommandDropped {
                command: *command,
                attempts: *attempts,
                reason: *reason,
                tag: parse(tag),
            }),
            LoggedEvent::WorkerFailed { worker, requeued } => {
                deliver(ControllerEvent::WorkerFailed {
                    worker: *worker,
                    requeued: *requeued,
                })
            }
        }
    }

    fn to_json(&self, obj: &mut Json) {
        match self {
            LoggedEvent::Finished {
                command,
                worker,
                command_type,
                epoch,
                data,
                bytes,
                wall_secs,
            } => {
                obj.set("event", "finished")
                    .set("command", command.0)
                    .set("worker", worker.0)
                    .set("type", command_type.as_str())
                    .set("epoch", *epoch)
                    .set("data", data.text())
                    .set("bytes", *bytes)
                    .set("wall_secs", *wall_secs);
            }
            LoggedEvent::Dropped {
                command,
                attempts,
                reason,
                tag,
            } => {
                obj.set("event", "dropped")
                    .set("command", command.0)
                    .set("attempts", *attempts)
                    .set(
                        "reason",
                        match reason {
                            DropReason::Error => "error",
                            DropReason::WorkerLost => "worker_lost",
                        },
                    )
                    .set("tag", tag.as_str());
            }
            LoggedEvent::WorkerFailed { worker, requeued } => {
                obj.set("event", "worker_failed").set("worker", worker.0);
                if let Some(requeued) = requeued {
                    obj.set("requeued", requeued.0);
                }
            }
        }
    }

    fn from_json(obj: &Json) -> Option<LoggedEvent> {
        let command = || obj.get("command").and_then(Json::as_u64).map(CommandId);
        let worker = || obj.get("worker").and_then(Json::as_u64).map(WorkerId);
        Some(match obj.get("event")?.as_str()? {
            "finished" => LoggedEvent::Finished {
                command: command()?,
                worker: worker()?,
                command_type: obj.get("type")?.as_str()?.to_string(),
                epoch: obj.get("epoch")?.as_u64()? as u32,
                data: Payload::parse(obj.get("data")?.as_str()?).ok()?,
                bytes: obj.get("bytes")?.as_u64()?,
                wall_secs: obj.get("wall_secs")?.as_f64()?,
            },
            "dropped" => LoggedEvent::Dropped {
                command: command()?,
                attempts: obj.get("attempts")?.as_u64()? as u32,
                reason: match obj.get("reason")?.as_str()? {
                    "error" => DropReason::Error,
                    "worker_lost" => DropReason::WorkerLost,
                    _ => return None,
                },
                tag: obj.get("tag")?.as_str()?.to_string(),
            },
            "worker_failed" => LoggedEvent::WorkerFailed {
                worker: worker()?,
                requeued: match obj.get("requeued") {
                    Some(id) => Some(CommandId(id.as_u64()?)),
                    None => None,
                },
            },
            _ => return None,
        })
    }
}

/// The `ProjectResult` counters a replay reconstructs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalCounters {
    pub commands_completed: u64,
    pub commands_requeued: u64,
    pub commands_dropped: u64,
    pub stale_results_dropped: u64,
    pub workers_lost: u64,
    pub bytes_received: u64,
}

fn command_to_json(cmd: &Command) -> Json {
    let mut obj = Json::object();
    obj.set("id", cmd.id.0)
        .set("project", cmd.project.0)
        .set("type", cmd.command_type.as_str())
        .set("priority", cmd.priority as i64)
        .set("cores", cmd.required.cores)
        .set("memory_mb", cmd.required.memory_mb)
        .set("attempts", cmd.attempts)
        .set("payload", cmd.payload.text());
    if let Some(cp) = &cmd.checkpoint {
        obj.set("checkpoint", to_json_text(cp));
    }
    obj
}

fn command_from_json(obj: &Json) -> Option<Command> {
    let cores = obj.get("cores")?.as_u64()? as usize;
    Some(Command {
        id: CommandId(obj.get("id")?.as_u64()?),
        project: ProjectId(obj.get("project")?.as_u64()?),
        command_type: obj.get("type")?.as_str()?.to_string(),
        priority: obj.get("priority")?.as_i64()? as i32,
        required: Resources::new(cores.max(1), obj.get("memory_mb")?.as_u64()?),
        payload: Payload::parse(obj.get("payload")?.as_str()?).ok()?,
        checkpoint: match obj.get("checkpoint") {
            Some(cp) => Some(serde_json::from_str(cp.as_str()?).ok()?),
            None => None,
        },
        attempts: obj.get("attempts")?.as_u64()? as u32,
        not_before: None,
        trace: None,
    })
}

impl WalRecord {
    pub fn kind(&self) -> &'static str {
        match self {
            WalRecord::Started => "started",
            WalRecord::Spawned { .. } => "spawned",
            WalRecord::Dispatched { .. } => "dispatched",
            WalRecord::Completed { .. } => "completed",
            WalRecord::Requeued { .. } => "requeued",
            WalRecord::Dropped { .. } => "dropped",
            WalRecord::Cancelled { .. } => "cancelled",
            WalRecord::CheckpointStored { .. } => "ckpt_stored",
            WalRecord::CheckpointCleared { .. } => "ckpt_cleared",
            WalRecord::WorkerLost { .. } => "worker_lost",
            WalRecord::StaleResult => "stale_result",
            WalRecord::ControllerState { .. } => "controller",
            WalRecord::Event(_) => "event",
            WalRecord::Finished { .. } => "finished",
            WalRecord::Counters { .. } => "counters",
        }
    }

    /// Whether this record retires a command from the live set — the
    /// unit the compaction cadence counts.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            WalRecord::Completed { .. } | WalRecord::Dropped { .. } | WalRecord::Cancelled { .. }
        )
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("kind", self.kind());
        match self {
            WalRecord::Started | WalRecord::StaleResult => {}
            WalRecord::Spawned { cmd } => {
                obj.set("cmd", command_to_json(cmd));
            }
            WalRecord::Dispatched {
                command,
                worker,
                epoch,
            } => {
                obj.set("command", command.0)
                    .set("worker", worker.0)
                    .set("epoch", *epoch);
            }
            WalRecord::Completed { command, bytes } => {
                obj.set("command", command.0).set("bytes", *bytes);
            }
            WalRecord::Requeued { command, attempts }
            | WalRecord::Dropped { command, attempts } => {
                obj.set("command", command.0).set("attempts", *attempts);
            }
            WalRecord::Cancelled { command } | WalRecord::CheckpointCleared { command } => {
                obj.set("command", command.0);
            }
            WalRecord::CheckpointStored { command, data } => {
                obj.set("command", command.0).set("data", data.as_str());
            }
            WalRecord::WorkerLost { worker } => {
                obj.set("worker", worker.0);
            }
            WalRecord::ControllerState { state } => {
                obj.set("state", state.as_str());
            }
            WalRecord::Event(record) => record.to_json(&mut obj),
            WalRecord::Finished { result } => {
                obj.set("result", result.as_str());
            }
            WalRecord::Counters { counters, next_id } => {
                obj.set("next_id", *next_id)
                    .set("completed", counters.commands_completed)
                    .set("requeued", counters.commands_requeued)
                    .set("dropped", counters.commands_dropped)
                    .set("stale", counters.stale_results_dropped)
                    .set("lost", counters.workers_lost)
                    .set("bytes", counters.bytes_received);
            }
        }
        obj
    }

    fn from_json(obj: &Json) -> Option<WalRecord> {
        let command = || obj.get("command").and_then(Json::as_u64).map(CommandId);
        Some(match obj.get("kind")?.as_str()? {
            "started" => WalRecord::Started,
            "stale_result" => WalRecord::StaleResult,
            "spawned" => WalRecord::Spawned {
                cmd: command_from_json(obj.get("cmd")?)?,
            },
            "dispatched" => WalRecord::Dispatched {
                command: command()?,
                worker: WorkerId(obj.get("worker")?.as_u64()?),
                epoch: obj.get("epoch")?.as_u64()? as u32,
            },
            "completed" => WalRecord::Completed {
                command: command()?,
                bytes: obj.get("bytes")?.as_u64()?,
            },
            "requeued" => WalRecord::Requeued {
                command: command()?,
                attempts: obj.get("attempts")?.as_u64()? as u32,
            },
            "dropped" => WalRecord::Dropped {
                command: command()?,
                attempts: obj.get("attempts")?.as_u64()? as u32,
            },
            "cancelled" => WalRecord::Cancelled {
                command: command()?,
            },
            "ckpt_stored" => WalRecord::CheckpointStored {
                command: command()?,
                data: obj.get("data")?.as_str()?.to_string(),
            },
            "ckpt_cleared" => WalRecord::CheckpointCleared {
                command: command()?,
            },
            "worker_lost" => WalRecord::WorkerLost {
                worker: WorkerId(obj.get("worker")?.as_u64()?),
            },
            "controller" => WalRecord::ControllerState {
                state: obj.get("state")?.as_str()?.to_string(),
            },
            "event" => WalRecord::Event(EventRecord::from_json(obj)?),
            "finished" => WalRecord::Finished {
                result: obj.get("result")?.as_str()?.to_string(),
            },
            "counters" => WalRecord::Counters {
                // Absent in logs written before ids were carried here.
                next_id: obj.get("next_id").and_then(Json::as_u64).unwrap_or(0),
                counters: WalCounters {
                    commands_completed: obj.get("completed")?.as_u64()?,
                    commands_requeued: obj.get("requeued")?.as_u64()?,
                    commands_dropped: obj.get("dropped")?.as_u64()?,
                    stale_results_dropped: obj.get("stale")?.as_u64()?,
                    workers_lost: obj.get("lost")?.as_u64()?,
                    bytes_received: obj.get("bytes")?.as_u64()?,
                },
            },
            _ => return None,
        })
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE) — hand-rolled so the frame format has no dependency.
// ---------------------------------------------------------------------------

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table,
/// and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table lookups advance the CRC by eight bytes.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 8] = crc32_tables();

pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = u32::MAX;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Frame header: 8 hex digits of length, space, 8 hex digits of CRC,
/// space. The body is the JSON record followed by a newline.
const HEADER_LEN: usize = 18;

fn encode_frame(record: &WalRecord) -> Vec<u8> {
    let json = record.to_json().to_string();
    let mut out = Vec::with_capacity(HEADER_LEN + json.len() + 1);
    out.extend_from_slice(format!("{:08x} {:08x} ", json.len(), crc32(json.as_bytes())).as_bytes());
    out.extend_from_slice(json.as_bytes());
    out.push(b'\n');
    out
}

/// Parse one frame at the start of `bytes`. Returns the record and the
/// total frame length, or `None` for anything torn or corrupt.
fn parse_frame(bytes: &[u8]) -> Option<(WalRecord, usize)> {
    if bytes.len() < HEADER_LEN {
        return None;
    }
    let header = std::str::from_utf8(&bytes[..HEADER_LEN]).ok()?;
    if header.as_bytes()[8] != b' ' || header.as_bytes()[17] != b' ' {
        return None;
    }
    let len = usize::from_str_radix(&header[..8], 16).ok()?;
    let crc = u32::from_str_radix(&header[9..17], 16).ok()?;
    let end = HEADER_LEN.checked_add(len)?;
    if bytes.len() < end + 1 || bytes[end] != b'\n' {
        return None;
    }
    let body = &bytes[HEADER_LEN..end];
    if crc32(body) != crc {
        return None;
    }
    let json = Json::parse(std::str::from_utf8(body).ok()?).ok()?;
    let record = WalRecord::from_json(&json)?;
    Some((record, end + 1))
}

// ---------------------------------------------------------------------------
// Replay state
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LivePhase {
    Queued,
    Running(WorkerId),
}

/// The state a WAL replays to: the live command set with phases and
/// attempt epochs, surviving checkpoints, the controller image and the
/// events logged after it, the counter totals and the project-level
/// flags. The `Wal` keeps one as a shadow of the running server
/// (updated on every append) so compaction can snapshot the ledger
/// without asking the server anything.
#[derive(Debug, Clone, Default)]
pub struct RecoveredState {
    /// `ProjectStarted` already delivered.
    pub started: bool,
    /// Project finished with this serialized result.
    pub finished: Option<String>,
    /// Latest controller image (serialized JSON), if any.
    pub controller: Option<String>,
    /// Events delivered to the controller after that image, in order:
    /// restoring the image and re-delivering these rebuilds its state.
    pub events: Vec<EventRecord>,
    pub counters: WalCounters,
    /// Live commands keyed by id (BTreeMap: deterministic iteration).
    live: BTreeMap<u64, (Command, LivePhase)>,
    /// Serialized checkpoints for live commands.
    checkpoints: BTreeMap<u64, String>,
    /// Ids retired since the last compaction — late checkpoint deposits
    /// for these are ignored rather than resurrected as leaks.
    retired: BTreeSet<u64>,
    /// First command id never minted, as far as the log knows.
    next_id: u64,
}

impl RecoveredState {
    pub fn is_empty(&self) -> bool {
        !self.started && self.live.is_empty() && self.finished.is_none()
    }

    /// First command id that is safe to mint after recovery. Ids are
    /// minted in sequence and spawns logged in that order, so every id
    /// below this one has had its `Spawned` record written.
    pub fn next_command_id(&self) -> u64 {
        self.next_id
    }

    /// The terminal record a crash tore off, if it did: a completion or
    /// drop is logged event first, so a last event whose command is
    /// still live stands for a terminal record that was never written.
    /// Recovery appends it before rebuilding anything from this state.
    pub fn torn_terminal(&self) -> Option<WalRecord> {
        let (command, record) = match self.events.last()?.event {
            LoggedEvent::Finished { command, bytes, .. } => {
                (command, WalRecord::Completed { command, bytes })
            }
            LoggedEvent::Dropped {
                command, attempts, ..
            } => (command, WalRecord::Dropped { command, attempts }),
            LoggedEvent::WorkerFailed { .. } => return None,
        };
        self.live.contains_key(&command.0).then_some(record)
    }

    pub fn n_live(&self) -> usize {
        self.live.len()
    }

    /// Commands to re-queue, in id order, with attempt counts preserved
    /// and checkpoints re-attached.
    pub fn queued(&self) -> Vec<Command> {
        self.live
            .values()
            .filter(|(_, phase)| *phase == LivePhase::Queued)
            .map(|(cmd, _)| self.with_checkpoint(cmd))
            .collect()
    }

    /// In-flight commands with the workers that held them at the crash,
    /// in id order. `cmd.attempts` is the dispatched epoch, so a
    /// surviving worker's result still matches and a re-dispatch after
    /// the watchdog re-orphans still outranks it.
    pub fn running(&self) -> Vec<(Command, WorkerId)> {
        self.live
            .values()
            .filter_map(|(cmd, phase)| match phase {
                LivePhase::Running(worker) => Some((self.with_checkpoint(cmd), *worker)),
                LivePhase::Queued => None,
            })
            .collect()
    }

    /// Surviving checkpoints as (id, parsed value) pairs, id order.
    pub fn checkpoints(&self) -> Vec<(CommandId, serde_json::Value)> {
        self.checkpoints
            .iter()
            .filter_map(|(id, data)| serde_json::from_str(data).ok().map(|v| (CommandId(*id), v)))
            .collect()
    }

    fn with_checkpoint(&self, cmd: &Command) -> Command {
        let mut cmd = cmd.clone();
        if let Some(data) = self.checkpoints.get(&cmd.id.0) {
            if let Ok(v) = serde_json::from_str(data) {
                cmd.checkpoint = Some(v);
            }
        }
        cmd
    }

    /// Apply one record. Total: unknown ids and out-of-order records
    /// are ignored rather than trusted (a WAL is still external input).
    pub fn apply(&mut self, record: &WalRecord) {
        match record {
            WalRecord::Started => self.started = true,
            WalRecord::Spawned { cmd } => {
                self.next_id = self.next_id.max(cmd.id.0 + 1);
                self.retired.remove(&cmd.id.0);
                self.live.insert(cmd.id.0, (cmd.clone(), LivePhase::Queued));
            }
            WalRecord::Dispatched {
                command,
                worker,
                epoch,
            } => {
                if let Some((cmd, phase)) = self.live.get_mut(&command.0) {
                    cmd.attempts = *epoch;
                    *phase = LivePhase::Running(*worker);
                }
            }
            WalRecord::Requeued { command, attempts } => {
                self.counters.commands_requeued += 1;
                if let Some((cmd, phase)) = self.live.get_mut(&command.0) {
                    cmd.attempts = *attempts;
                    *phase = LivePhase::Queued;
                }
            }
            WalRecord::Completed { command, bytes } => {
                self.counters.commands_completed += 1;
                self.counters.bytes_received += bytes;
                self.retire(*command);
            }
            WalRecord::Dropped { command, .. } => {
                self.counters.commands_dropped += 1;
                self.retire(*command);
            }
            WalRecord::Cancelled { command } => {
                self.retire(*command);
            }
            WalRecord::CheckpointStored { command, data } => {
                if !self.retired.contains(&command.0) {
                    self.checkpoints.insert(command.0, data.clone());
                }
            }
            WalRecord::CheckpointCleared { command } => {
                self.checkpoints.remove(&command.0);
            }
            WalRecord::WorkerLost { .. } => self.counters.workers_lost += 1,
            WalRecord::StaleResult => self.counters.stale_results_dropped += 1,
            WalRecord::ControllerState { state } => {
                self.controller = Some(state.clone());
                self.events.clear();
            }
            WalRecord::Event(record) => {
                self.next_id = self.next_id.max(record.next_id);
                self.events.push(record.clone());
            }
            WalRecord::Finished { result } => self.finished = Some(result.clone()),
            WalRecord::Counters { counters, next_id } => {
                self.counters = *counters;
                self.next_id = self.next_id.max(*next_id);
            }
        }
    }

    fn retire(&mut self, command: CommandId) {
        self.live.remove(&command.0);
        self.checkpoints.remove(&command.0);
        self.retired.insert(command.0);
    }

    /// The record sequence a compaction snapshot writes: replaying it
    /// yields a state identical to `self` (minus the retired-id set,
    /// which only guards against late deposits within one log
    /// generation).
    fn snapshot_records(&self) -> Vec<WalRecord> {
        let mut records = Vec::new();
        if self.started {
            records.push(WalRecord::Started);
        }
        records.push(WalRecord::Counters {
            counters: self.counters,
            next_id: self.next_id,
        });
        if let Some(state) = &self.controller {
            records.push(WalRecord::ControllerState {
                state: state.clone(),
            });
        }
        records.extend(self.events.iter().cloned().map(WalRecord::Event));
        for (cmd, phase) in self.live.values() {
            records.push(WalRecord::Spawned { cmd: cmd.clone() });
            if let LivePhase::Running(worker) = phase {
                records.push(WalRecord::Dispatched {
                    command: cmd.id,
                    worker: *worker,
                    epoch: cmd.attempts,
                });
            }
        }
        for (id, data) in &self.checkpoints {
            records.push(WalRecord::CheckpointStored {
                command: CommandId(*id),
                data: data.clone(),
            });
        }
        if let Some(result) = &self.finished {
            records.push(WalRecord::Finished {
                result: result.clone(),
            });
        }
        records
    }

    /// Deterministic single-line dump of the whole state: same state →
    /// byte-identical string (BTreeMap key order everywhere). The CI
    /// replay-determinism check compares two independent replays with
    /// this.
    pub fn dump(&self) -> String {
        let mut obj = Json::object();
        obj.set("started", self.started)
            .set("next_id", self.next_command_id())
            .set(
                "finished",
                match &self.finished {
                    Some(r) => Json::from(r.as_str()),
                    None => Json::Null,
                },
            )
            .set(
                "controller",
                match &self.controller {
                    Some(s) => Json::from(s.as_str()),
                    None => Json::Null,
                },
            );
        let mut counters = Json::object();
        counters
            .set("completed", self.counters.commands_completed)
            .set("requeued", self.counters.commands_requeued)
            .set("dropped", self.counters.commands_dropped)
            .set("stale", self.counters.stale_results_dropped)
            .set("lost", self.counters.workers_lost)
            .set("bytes", self.counters.bytes_received);
        obj.set("counters", counters);
        let commands: Vec<Json> = self
            .live
            .values()
            .map(|(cmd, phase)| {
                let mut c = command_to_json(cmd);
                match phase {
                    LivePhase::Queued => c.set("phase", "queued"),
                    LivePhase::Running(worker) => c.set("phase", "running").set("worker", worker.0),
                };
                c
            })
            .collect();
        obj.set("commands", commands);
        let checkpoints: Vec<Json> = self
            .checkpoints
            .iter()
            .map(|(id, data)| {
                let mut c = Json::object();
                c.set("command", *id).set("data", data.as_str());
                c
            })
            .collect();
        obj.set("checkpoints", checkpoints);
        let events: Vec<Json> = self
            .events
            .iter()
            .map(|record| {
                let mut event = Json::object();
                record.to_json(&mut event);
                event
            })
            .collect();
        obj.set("events", events);
        obj.to_string()
    }
}

/// Replay a byte buffer: returns the state and the length of the clean
/// prefix (everything past it is a torn or corrupt tail).
pub fn replay_bytes(bytes: &[u8]) -> (RecoveredState, usize) {
    let mut state = RecoveredState::default();
    let mut pos = 0;
    while let Some((record, frame_len)) = parse_frame(&bytes[pos..]) {
        state.apply(&record);
        pos += frame_len;
    }
    (state, pos)
}

/// Read-only replay of a state directory (no truncation, no append
/// handle): what `Wal::open` would recover, for determinism checks and
/// inspection tooling.
pub fn replay_dir(dir: &Path) -> io::Result<RecoveredState> {
    let path = dir.join(WAL_FILE);
    if !path.exists() {
        return Ok(RecoveredState::default());
    }
    let mut bytes = Vec::new();
    File::open(&path)?.read_to_end(&mut bytes)?;
    Ok(replay_bytes(&bytes).0)
}

// ---------------------------------------------------------------------------
// The log itself
// ---------------------------------------------------------------------------

struct WalInner {
    file: File,
    path: PathBuf,
    mode: FsyncMode,
    last_sync: Instant,
    /// Writes since the last fsync (Every mode flushes lazily).
    dirty: bool,
    state: RecoveredState,
    terminals_since_compact: u32,
    /// Bytes in the log file now, and when this generation began (as
    /// written by the compaction, or as found on open).
    len: u64,
    generation_len: u64,
}

/// Cloneable handle to the write-ahead log. All appends serialize
/// through one mutex (the frame format demands it); the lock is
/// poison-tolerant: a panicking thread must not take durability down
/// with it.
#[derive(Clone)]
pub struct Wal {
    inner: Arc<Mutex<WalInner>>,
}

impl Wal {
    /// Open (or create) the WAL in `dir`, replaying any existing log.
    /// A torn tail is truncated away so the next append lands on a
    /// clean record boundary. Returns the handle and the recovered
    /// pre-crash state.
    pub fn open(dir: &Path, mode: FsyncMode) -> io::Result<(Wal, RecoveredState)> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let mut state = RecoveredState::default();
        let mut len = 0;
        if path.exists() {
            let mut bytes = Vec::new();
            File::open(&path)?.read_to_end(&mut bytes)?;
            let (recovered, clean_len) = replay_bytes(&bytes);
            state = recovered;
            len = clean_len as u64;
            if clean_len < bytes.len() {
                // Drop the torn tail now, while nothing is appending.
                OpenOptions::new()
                    .write(true)
                    .open(&path)?
                    .set_len(clean_len as u64)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let wal = Wal {
            inner: Arc::new(Mutex::new(WalInner {
                file,
                path,
                mode,
                last_sync: Instant::now(),
                dirty: false,
                state: state.clone(),
                terminals_since_compact: 0,
                len,
                generation_len: len,
            })),
        };
        Ok((wal, state))
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WalInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Append one record durably (per the fsync mode) and fold it into
    /// the shadow state. Compacts on the terminal-count cadence while
    /// the controller image it holds is current (no event logged since);
    /// after that the owner checkpoints — see [`Wal::checkpoint_due`].
    pub fn append(&self, record: &WalRecord) -> io::Result<()> {
        let mut inner = self.lock();
        inner.state.apply(record);
        let frame = encode_frame(record);
        inner.file.write_all(&frame)?;
        inner.len += frame.len() as u64;
        inner.dirty = true;
        match inner.mode {
            FsyncMode::Always => {
                inner.file.sync_data()?;
                inner.dirty = false;
                inner.last_sync = Instant::now();
            }
            FsyncMode::Every(interval) => {
                if inner.last_sync.elapsed() >= interval {
                    inner.file.sync_data()?;
                    inner.dirty = false;
                    inner.last_sync = Instant::now();
                }
            }
            FsyncMode::Never => {}
        }
        if record.is_terminal() {
            inner.terminals_since_compact += 1;
            if inner.terminals_since_compact >= COMPACT_EVERY && inner.state.events.is_empty() {
                compact_locked(&mut inner)?;
            }
        }
        Ok(())
    }

    /// Whether the owner of the controller should [`Wal::checkpoint`]:
    /// the terminal-count cadence has come round with events logged
    /// since the last image (so `append` could not compact by itself),
    /// and the log has doubled since this generation began (see the
    /// module docs for why that keeps the cost amortised).
    pub fn checkpoint_due(&self) -> bool {
        let inner = self.lock();
        inner.terminals_since_compact >= COMPACT_EVERY && inner.len >= 2 * inner.generation_len
    }

    /// Start a new generation from `image`, the controller's state now:
    /// every event delivered so far is covered by it and dropped.
    pub fn checkpoint(&self, image: String) -> io::Result<()> {
        let mut inner = self.lock();
        inner.state.controller = Some(image);
        inner.state.events.clear();
        compact_locked(&mut inner)
    }

    /// Force an fsync regardless of mode.
    pub fn sync(&self) -> io::Result<()> {
        let mut inner = self.lock();
        inner.file.sync_data()?;
        inner.dirty = false;
        inner.last_sync = Instant::now();
        Ok(())
    }

    /// Rewrite the log as a snapshot of the live state now.
    pub fn compact(&self) -> io::Result<()> {
        compact_locked(&mut self.lock())
    }

    /// Deterministic dump of the shadow state (see
    /// [`RecoveredState::dump`]).
    pub fn state_dump(&self) -> String {
        self.lock().state.dump()
    }

    /// Bytes currently in the log file (compaction observability).
    pub fn log_len(&self) -> u64 {
        self.lock().len
    }
}

fn compact_locked(inner: &mut WalInner) -> io::Result<()> {
    let tmp = inner.path.with_extension("log.tmp");
    let mut len = 0;
    {
        let mut out = File::create(&tmp)?;
        for record in inner.state.snapshot_records() {
            let frame = encode_frame(&record);
            out.write_all(&frame)?;
            len += frame.len() as u64;
        }
        out.sync_data()?;
    }
    std::fs::rename(&tmp, &inner.path)?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Some(dir) = inner.path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
    inner.file = OpenOptions::new().append(true).open(&inner.path)?;
    inner.terminals_since_compact = 0;
    inner.len = len;
    inner.generation_len = len;
    inner.state.retired.clear();
    inner.last_sync = Instant::now();
    inner.dirty = false;
    Ok(())
}

impl Drop for WalInner {
    fn drop(&mut self) {
        if self.dirty {
            let _ = self.file.sync_data();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandSpec;
    use serde_json::json;
    use std::sync::atomic::{AtomicUsize, Ordering};

    static DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "copernicus_wal_{}_{}_{}",
            tag,
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cmd(id: u64, payload: serde_json::Value) -> Command {
        let mut c = Command::from_spec(
            CommandId(id),
            ProjectId(7),
            CommandSpec::new("mdrun", Resources::new(2, 64), payload).with_priority(3),
        );
        c.attempts = 1;
        c
    }

    /// splitmix64: same generator the wire fragmentation sweeps use.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn test_seed() -> u64 {
        std::env::var("COPERNICUS_TEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE)
    }

    /// A seeded mixed-record workload touching every variant.
    fn seeded_records(seed: u64, n_commands: u64) -> Vec<WalRecord> {
        let mut rng = seed;
        let mut records = vec![WalRecord::Started];
        for id in 1..=n_commands {
            // Keep generated ints < 2^32: the shadow harness backs
            // serde_json numbers with f64.
            let v = splitmix64(&mut rng) & 0xFFFF_FFFF;
            records.push(WalRecord::Spawned {
                cmd: cmd(id, json!({ "seed_val": v })),
            });
            records.push(WalRecord::Dispatched {
                command: CommandId(id),
                worker: WorkerId(100 + id % 3),
                epoch: 1,
            });
            match splitmix64(&mut rng) % 4 {
                0 => records.push(WalRecord::Completed {
                    command: CommandId(id),
                    bytes: v % 1000,
                }),
                1 => {
                    records.push(WalRecord::CheckpointStored {
                        command: CommandId(id),
                        data: format!("{{\"step\":{}}}", v % 100),
                    });
                    records.push(WalRecord::Requeued {
                        command: CommandId(id),
                        attempts: 1,
                    });
                }
                2 => records.push(WalRecord::Dropped {
                    command: CommandId(id),
                    attempts: 3,
                }),
                // Leave the command in flight.
                _ => {}
            }
        }
        records.push(WalRecord::ControllerState {
            state: "{\"round\":2}".to_string(),
        });
        // Every event shape, after the image they build on.
        let mut event = |event, next_id| {
            WalRecord::Event(EventRecord {
                event,
                now: Duration::from_nanos(splitmix64(&mut rng) & 0xFFFF_FFFF),
                next_id,
            })
        };
        records.push(event(
            LoggedEvent::Finished {
                command: CommandId(n_commands + 1),
                worker: WorkerId(100),
                command_type: "mdrun".to_string(),
                epoch: 1,
                data: Payload::parse("{\"energy\":-1.25,\"tag\":\"a \\\"quoted\\\" \\\\ word\"}")
                    .unwrap(),
                bytes: 43,
                wall_secs: 0.012345678901234567,
            },
            n_commands + 2,
        ));
        records.push(event(
            LoggedEvent::Dropped {
                command: CommandId(n_commands + 2),
                attempts: 3,
                reason: DropReason::WorkerLost,
                tag: "{\"lineage\":4}".to_string(),
            },
            n_commands + 2,
        ));
        records.push(event(
            LoggedEvent::WorkerFailed {
                worker: WorkerId(101),
                requeued: Some(CommandId(1)),
            },
            n_commands + 3,
        ));
        records.push(event(
            LoggedEvent::WorkerFailed {
                worker: WorkerId(102),
                requeued: None,
            },
            n_commands + 3,
        ));
        records
    }

    #[test]
    fn records_roundtrip_through_frames() {
        let records = seeded_records(test_seed(), 8);
        for record in &records {
            let frame = encode_frame(record);
            let (back, len) = parse_frame(&frame).expect("frame must parse");
            assert_eq!(len, frame.len());
            // Re-encoding equality is the stronger property (and
            // `Command` carries no `PartialEq`).
            assert_eq!(encode_frame(&back), frame);
        }
    }

    #[test]
    fn open_append_reopen_recovers_identical_state() {
        let dir = temp_dir("reopen");
        let (wal, initial) = Wal::open(&dir, FsyncMode::Always).unwrap();
        assert!(initial.is_empty());
        for record in seeded_records(test_seed(), 10) {
            wal.append(&record).unwrap();
        }
        let dump = wal.state_dump();
        drop(wal);

        let (wal2, recovered) = Wal::open(&dir, FsyncMode::Never).unwrap();
        assert_eq!(recovered.dump(), dump, "replay must match the shadow state");
        assert!(!recovered.is_empty());
        assert!(recovered.started);
        drop(wal2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn recovered_state_splits_queued_and_running_with_epochs() {
        let mut state = RecoveredState::default();
        state.apply(&WalRecord::Started);
        state.apply(&WalRecord::Spawned {
            cmd: cmd(1, json!({"i": 1})),
        });
        state.apply(&WalRecord::Spawned {
            cmd: cmd(2, json!({"i": 2})),
        });
        state.apply(&WalRecord::Spawned {
            cmd: cmd(3, json!({"i": 3})),
        });
        state.apply(&WalRecord::Dispatched {
            command: CommandId(2),
            worker: WorkerId(9),
            epoch: 4,
        });
        state.apply(&WalRecord::CheckpointStored {
            command: CommandId(1),
            data: "{\"step\":5}".to_string(),
        });
        state.apply(&WalRecord::Completed {
            command: CommandId(3),
            bytes: 10,
        });

        let queued = state.queued();
        assert_eq!(queued.len(), 1);
        assert_eq!(queued[0].id, CommandId(1));
        assert_eq!(
            queued[0].checkpoint,
            Some(json!({"step": 5})),
            "checkpoint re-attached on recovery"
        );
        let running = state.running();
        assert_eq!(running.len(), 1);
        assert_eq!(running[0].0.id, CommandId(2));
        assert_eq!(running[0].0.attempts, 4, "epoch preserved");
        assert_eq!(running[0].1, WorkerId(9));
        assert_eq!(state.next_command_id(), 4);
        assert_eq!(state.counters.commands_completed, 1);
    }

    #[test]
    fn late_checkpoint_for_retired_command_is_ignored() {
        let mut state = RecoveredState::default();
        state.apply(&WalRecord::Spawned {
            cmd: cmd(1, json!(null)),
        });
        state.apply(&WalRecord::Cancelled {
            command: CommandId(1),
        });
        state.apply(&WalRecord::CheckpointStored {
            command: CommandId(1),
            data: "{}".to_string(),
        });
        assert!(state.checkpoints().is_empty(), "terminal id must not leak");
    }

    /// Satellite: torn-write sweep. Truncate the log at **every** byte
    /// boundary of the final record and assert replay either fully
    /// applies it or cleanly drops the tail — never panics, never
    /// double-applies, never resurrects half a record.
    #[test]
    fn torn_tail_truncation_sweep_never_panics_or_double_applies() {
        let records = seeded_records(test_seed(), 6);
        let (without_last, last) = records.split_at(records.len() - 1);
        let mut prefix = Vec::new();
        for record in without_last {
            prefix.extend_from_slice(&encode_frame(record));
        }
        let final_frame = encode_frame(&last[0]);

        let mut prefix_state = RecoveredState::default();
        for record in without_last {
            prefix_state.apply(record);
        }
        let prefix_dump = prefix_state.dump();
        let mut full_state = prefix_state.clone();
        full_state.apply(&last[0]);
        let full_dump = full_state.dump();

        for cut in 0..=final_frame.len() {
            let mut bytes = prefix.clone();
            bytes.extend_from_slice(&final_frame[..cut]);
            let (state, clean_len) = replay_bytes(&bytes);
            if cut == final_frame.len() {
                assert_eq!(state.dump(), full_dump, "cut={cut}: full frame applies");
                assert_eq!(clean_len, bytes.len());
            } else {
                assert_eq!(
                    state.dump(),
                    prefix_dump,
                    "cut={cut}: torn tail must be dropped whole"
                );
                assert_eq!(clean_len, prefix.len(), "cut={cut}");
            }
        }
    }

    /// A corrupted byte *inside* the tail record (bad CRC) also drops
    /// the tail cleanly.
    #[test]
    fn corrupt_tail_checksum_drops_the_tail() {
        let records = seeded_records(test_seed(), 3);
        let mut bytes = Vec::new();
        for record in &records {
            bytes.extend_from_slice(&encode_frame(record));
        }
        let (clean, _) = replay_bytes(&bytes);
        let body_byte = bytes.len() - 2; // inside the final record's JSON
        bytes[body_byte] ^= 0x01;
        let (state, clean_len) = replay_bytes(&bytes);
        assert!(clean_len < bytes.len());
        let mut expect = RecoveredState::default();
        for record in &records[..records.len() - 1] {
            expect.apply(record);
        }
        assert_eq!(state.dump(), expect.dump());
        assert_ne!(state.dump(), clean.dump());
    }

    /// Torn tails are truncated on open, so the next append lands on a
    /// record boundary and the log stays parseable end to end.
    #[test]
    fn open_truncates_torn_tail_and_appends_cleanly() {
        let dir = temp_dir("torn");
        let (wal, _) = Wal::open(&dir, FsyncMode::Always).unwrap();
        wal.append(&WalRecord::Started).unwrap();
        wal.append(&WalRecord::Spawned {
            cmd: cmd(1, json!(1u32)),
        })
        .unwrap();
        drop(wal);

        let path = dir.join(WAL_FILE);
        let full = std::fs::read(&path).unwrap();
        std::fs::write(&path, &full[..full.len() - 3]).unwrap();

        let (wal, recovered) = Wal::open(&dir, FsyncMode::Always).unwrap();
        assert!(recovered.started);
        assert_eq!(recovered.n_live(), 0, "torn spawn must be dropped");
        wal.append(&WalRecord::Spawned {
            cmd: cmd(2, json!(2u32)),
        })
        .unwrap();
        drop(wal);

        let recovered = replay_dir(&dir).unwrap();
        assert_eq!(recovered.n_live(), 1);
        assert_eq!(recovered.queued()[0].id, CommandId(2));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// CI determinism check: two independent replays of the same log
    /// produce byte-identical dumps.
    #[test]
    fn replay_twice_is_byte_identical() {
        let dir = temp_dir("determinism");
        let (wal, _) = Wal::open(&dir, FsyncMode::Every(Duration::from_millis(50))).unwrap();
        for record in seeded_records(test_seed(), 12) {
            wal.append(&record).unwrap();
        }
        drop(wal);
        let first = replay_dir(&dir).unwrap().dump();
        let second = replay_dir(&dir).unwrap().dump();
        assert_eq!(first, second);
        assert!(!first.is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Compaction rewrites the log as a snapshot that replays to the
    /// identical state, and the file shrinks.
    #[test]
    fn compaction_preserves_state_and_shrinks_log() {
        let dir = temp_dir("compact");
        let (wal, _) = Wal::open(&dir, FsyncMode::Never).unwrap();
        // Enough terminal records to trip the automatic cadence.
        for round in 0..(COMPACT_EVERY as u64 + 8) {
            let id = round + 1;
            wal.append(&WalRecord::Spawned {
                cmd: cmd(id, json!({"r": id})),
            })
            .unwrap();
            wal.append(&WalRecord::Dispatched {
                command: CommandId(id),
                worker: WorkerId(1),
                epoch: 1,
            })
            .unwrap();
            wal.append(&WalRecord::Completed {
                command: CommandId(id),
                bytes: 5,
            })
            .unwrap();
        }
        // One live command so the snapshot is not empty.
        wal.append(&WalRecord::Spawned {
            cmd: cmd(9999, json!({"live": true})),
        })
        .unwrap();
        let dump = wal.state_dump();
        let len_after_auto = wal.log_len();
        assert!(
            len_after_auto < (COMPACT_EVERY as u64) * 40,
            "auto compaction must have rewritten the log ({len_after_auto} bytes)"
        );
        drop(wal);

        let recovered = replay_dir(&dir).unwrap();
        assert_eq!(recovered.dump(), dump);
        assert_eq!(
            recovered.counters.commands_completed,
            COMPACT_EVERY as u64 + 8,
            "counters survive compaction via the baseline record"
        );
        assert_eq!(recovered.n_live(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn finished_event(id: u64, next_id: u64) -> WalRecord {
        WalRecord::Event(EventRecord {
            event: LoggedEvent::Finished {
                command: CommandId(id),
                worker: WorkerId(1),
                command_type: "mdrun".to_string(),
                epoch: 1,
                data: Payload::parse(&format!("{{\"i\":{id}}}")).unwrap(),
                bytes: 7,
                wall_secs: 0.5,
            },
            now: Duration::from_millis(id),
            next_id,
        })
    }

    /// An event round-trips through the log into the `ControllerEvent`
    /// it was taken from, payload and all.
    #[test]
    fn logged_events_redeliver_what_was_delivered() {
        let command = cmd(4, json!({"x": 1}));
        let output = CommandOutput::new(
            &command,
            WorkerId(9),
            json!({"e": -2.5, "s": "q\"\\"}),
            0.25,
        );
        let logged = LoggedEvent::of(&ControllerEvent::CommandFinished(&output)).unwrap();
        let frame = encode_frame(&WalRecord::Event(EventRecord {
            event: logged,
            now: Duration::from_nanos(1_234_567_891),
            next_id: 5,
        }));
        let (WalRecord::Event(back), _) = parse_frame(&frame).unwrap() else {
            panic!("an event record parses as one");
        };
        assert_eq!(back.now, Duration::from_nanos(1_234_567_891));
        assert_eq!(back.next_id, 5);
        back.event.deliver(ProjectId(7), |event| match event {
            ControllerEvent::CommandFinished(o) => {
                assert_eq!(
                    (o.command, o.project, o.worker),
                    (output.command, ProjectId(7), output.worker)
                );
                assert_eq!(
                    (o.epoch, o.bytes, o.wall_secs),
                    (output.epoch, output.bytes, output.wall_secs)
                );
                assert_eq!(o.command_type, "mdrun");
                assert_eq!(*o.data, *output.data);
            }
            other => panic!("expected a completion, got {other:?}"),
        });

        let dropped = ControllerEvent::CommandDropped {
            command: CommandId(8),
            attempts: 3,
            reason: DropReason::Error,
            tag: json!({"lineage": 2}),
        };
        LoggedEvent::of(&dropped)
            .unwrap()
            .deliver(ProjectId(7), |event| match event {
                ControllerEvent::CommandDropped {
                    command,
                    attempts,
                    reason,
                    tag,
                } => {
                    assert_eq!(
                        (command, attempts, reason),
                        (CommandId(8), 3, DropReason::Error)
                    );
                    assert_eq!(tag, json!({"lineage": 2}));
                }
                other => panic!("expected a drop, got {other:?}"),
            });
        assert!(LoggedEvent::of(&ControllerEvent::ProjectStarted).is_none());
    }

    /// The journal writes a payload's text as it has it: a `Spawned` or
    /// `Event` frame built from a command or result decoded off the
    /// wire is byte for byte the frame of the value it was sent from,
    /// and replay hands back the text that was logged, not a reprint.
    #[test]
    fn frames_of_decoded_payloads_match_those_of_their_values() {
        use crate::codec::{
            decode_to_server, decode_to_worker, encode_to_server, encode_to_worker,
        };
        use crate::messages::{ToServer, ToWorker};
        let value = json!({
            "e": -0.0, "f": [1.5e-300, 2.0, -7, u64::MAX], "s": "q\"\\\n\u{1}é",
        });
        let text = serde_json::to_string(&value).unwrap();

        let sent = cmd(3, value.clone());
        let Ok(ToWorker::Workload(mut got)) =
            decode_to_worker(&encode_to_worker(&ToWorker::Workload(vec![sent.clone()])))
        else {
            panic!("the workload decodes");
        };
        let spawned = |cmd: Command| encode_frame(&WalRecord::Spawned { cmd });
        let frame = spawned(got.pop().unwrap());
        assert_eq!(frame, spawned(cmd(3, value.clone())));
        let Some((WalRecord::Spawned { cmd: back }, _)) = parse_frame(&frame) else {
            panic!("a spawn record parses as one");
        };
        assert_eq!(back.payload.text(), text);

        let output = || CommandOutput::new(&sent, WorkerId(9), value.clone(), 0.25);
        let Ok(ToServer::Completed { output: got }) =
            decode_to_server(&encode_to_server(&ToServer::Completed { output: output() }))
        else {
            panic!("the result decodes");
        };
        let event = |output: &CommandOutput| {
            encode_frame(&WalRecord::Event(EventRecord {
                event: LoggedEvent::of(&ControllerEvent::CommandFinished(output)).unwrap(),
                now: Duration::from_millis(3),
                next_id: 4,
            }))
        };
        let frame = event(&got);
        assert_eq!(frame, event(&output()));
        let Some((WalRecord::Event(back), _)) = parse_frame(&frame) else {
            panic!("an event record parses as one");
        };
        let LoggedEvent::Finished { data, .. } = back.event else {
            panic!("a completion stays one");
        };
        assert_eq!(data.text(), text);

        // A text no printer would give survives the journal as written.
        let odd = "{ \"a\" : [1 , 2.50] }";
        let mut spaced = cmd(5, json!(null));
        spaced.payload = Payload::parse(odd).unwrap();
        let Some((WalRecord::Spawned { cmd: back }, _)) = parse_frame(&spawned(spaced)) else {
            panic!("a spawn record parses as one");
        };
        assert_eq!(back.payload.text(), odd);
        assert_eq!(*back.payload, json!({"a": [1, 2.5]}));
    }

    /// The image replaces the events it covers; events after it pile
    /// up in order; a last event whose terminal record was torn off
    /// still names it.
    #[test]
    fn events_accumulate_after_the_image_and_imply_their_terminal_record() {
        let mut state = RecoveredState::default();
        state.apply(&WalRecord::Started);
        for id in 0..3 {
            state.apply(&WalRecord::Spawned {
                cmd: cmd(id, json!(null)),
            });
        }
        state.apply(&finished_event(0, 3));
        state.apply(&WalRecord::Completed {
            command: CommandId(0),
            bytes: 7,
        });
        assert_eq!(state.events.len(), 1);
        assert!(state.torn_terminal().is_none(), "the completion was logged");

        state.apply(&WalRecord::ControllerState {
            state: "{}".to_string(),
        });
        assert!(state.events.is_empty(), "the image covers earlier events");

        state.apply(&finished_event(1, 7));
        assert_eq!(
            state.next_command_id(),
            7,
            "an event carries the id high-water mark"
        );
        let torn = state.torn_terminal().expect("event without its completion");
        assert!(matches!(
            torn,
            WalRecord::Completed {
                command: CommandId(1),
                bytes: 7
            }
        ));
        state.apply(&torn);
        assert!(state.torn_terminal().is_none());
        assert_eq!(state.counters.commands_completed, 2);
        assert_eq!(state.n_live(), 1);
    }

    /// With events logged since the image, `append` leaves compaction
    /// to the owner: due on the terminal cadence once the log has
    /// doubled, and the new generation starts from the image handed
    /// over, without the events it covers and with the id mark intact.
    #[test]
    fn checkpoint_starts_a_generation_from_the_owners_image() {
        let dir = temp_dir("checkpoint");
        let (wal, _) = Wal::open(&dir, FsyncMode::Never).unwrap();
        wal.append(&WalRecord::Started).unwrap();
        wal.append(&WalRecord::ControllerState {
            state: "{\"n\":0}".to_string(),
        })
        .unwrap();
        let run = |from: u64, n: u64| {
            for id in from..from + n {
                wal.append(&WalRecord::Spawned {
                    cmd: cmd(id, json!({"r": id})),
                })
                .unwrap();
                wal.append(&finished_event(id, id + 1)).unwrap();
                wal.append(&WalRecord::Completed {
                    command: CommandId(id),
                    bytes: 7,
                })
                .unwrap();
            }
        };
        let n = COMPACT_EVERY as u64;
        run(0, n - 1);
        assert!(!wal.checkpoint_due(), "cadence not reached");
        run(n - 1, 1);
        assert!(wal.checkpoint_due());
        let before = wal.log_len();
        wal.checkpoint(format!("{{\"n\":{n}}}")).unwrap();
        let generation = wal.log_len();
        assert!(
            generation < before / 10,
            "{generation} of {before} bytes kept"
        );

        // The next one waits for the cadence *and* for the log to double.
        run(n, n);
        assert_eq!(wal.checkpoint_due(), wal.log_len() >= 2 * generation);
        assert!(
            wal.checkpoint_due(),
            "256 commands dwarf an empty generation"
        );
        let dump = wal.state_dump();
        drop(wal);

        let recovered = replay_dir(&dir).unwrap();
        assert_eq!(recovered.dump(), dump);
        assert_eq!(
            recovered.controller.as_deref(),
            Some(format!("{{\"n\":{n}}}").as_str())
        );
        assert_eq!(
            recovered.events.len(),
            n as usize,
            "only events after the image"
        );
        assert_eq!(recovered.counters.commands_completed, 2 * n);
        assert_eq!(recovered.next_command_id(), 2 * n);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A generation head carries the id high-water mark: the live set
    /// it keeps need not contain the highest id ever minted.
    #[test]
    fn compaction_keeps_the_id_high_water_mark() {
        let dir = temp_dir("ids");
        let (wal, _) = Wal::open(&dir, FsyncMode::Never).unwrap();
        wal.append(&WalRecord::Spawned {
            cmd: cmd(3, json!(null)),
        })
        .unwrap();
        wal.append(&WalRecord::Spawned {
            cmd: cmd(9, json!(null)),
        })
        .unwrap();
        wal.append(&WalRecord::Completed {
            command: CommandId(9),
            bytes: 0,
        })
        .unwrap();
        wal.compact().unwrap();
        drop(wal);
        let recovered = replay_dir(&dir).unwrap();
        assert_eq!(recovered.n_live(), 1);
        assert_eq!(
            recovered.next_command_id(),
            10,
            "id 9 must never be minted again"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsync_mode_parses_cli_spellings() {
        assert_eq!(FsyncMode::parse("always"), Some(FsyncMode::Always));
        assert_eq!(FsyncMode::parse("never"), Some(FsyncMode::Never));
        assert_eq!(
            FsyncMode::parse("250ms"),
            Some(FsyncMode::Every(Duration::from_millis(250)))
        );
        assert_eq!(
            FsyncMode::parse("250"),
            Some(FsyncMode::Every(Duration::from_millis(250)))
        );
        assert_eq!(FsyncMode::parse("sometimes"), None);
        assert_eq!(FsyncMode::parse(""), None);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
    }

    /// The plain byte-at-a-time CRC the sliced one must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = u32::MAX;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Slicing-by-8 gives the byte-at-a-time checksum at every length
    /// (whole blocks plus every remainder) and every start alignment.
    #[test]
    fn sliced_crc32_agrees_with_bytewise() {
        let mut rng = test_seed();
        let buf: Vec<u8> = (0..308).map(|_| splitmix64(&mut rng) as u8).collect();
        for start in 0..=8 {
            for len in 0..=300 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start}, length {len}"
                );
            }
        }
    }

    /// The WAL mutex is poison-tolerant: a panic elsewhere must not
    /// take durability down with it.
    #[test]
    fn append_survives_a_poisoned_lock() {
        let dir = temp_dir("poison");
        let (wal, _) = Wal::open(&dir, FsyncMode::Never).unwrap();
        let wal2 = wal.clone();
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = wal2.inner.lock().unwrap();
            panic!("poison the wal lock");
        }));
        wal.append(&WalRecord::Started).unwrap();
        assert!(replay_dir(&dir).unwrap().started);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
