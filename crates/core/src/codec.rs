//! Binary codec for the worker↔server message set.
//!
//! Frames on the wire (see `copernicus-wire`) carry opaque byte
//! payloads; this module maps [`ToServer`]/[`ToWorker`] to and from
//! those bytes. The encoding is deliberately boring: big-endian
//! fixed-width integers, `u32`-length-prefixed UTF-8 strings, one tag
//! byte per enum variant, one presence byte per `Option`. JSON payload
//! fields travel as JSON text in a length-prefixed string — they are
//! already schema-free, so re-encoding them binary would buy nothing.
//! Their bulk is binary already: frames and trajectory times are
//! coordinate blocks (`mdsim::jsonv`), base64 strings of little-endian
//! `f64`s that this layer copies without printing a float.
//!
//! A command's payload and a result's data are a [`Payload`]: the
//! encoder writes the text the payload already has (printed at most
//! once in its life), and the decoder keeps the text it received, so a
//! payload forwarded or journaled after crossing the wire is never
//! printed again.
//!
//! Decoding is total: any input — truncated, oversized counts, garbage
//! tags, invalid UTF-8, malformed JSON, trailing bytes — yields a
//! [`CodecError`], never a panic or an allocation proportional to a
//! length field the buffer cannot actually back.

use crate::command::{Command, CommandOutput, Payload};
use crate::ids::{CommandId, ProjectId, WorkerId};
use crate::messages::{PeerMsg, ToServer, ToWorker};
use crate::resources::{ExecutableSpec, Platform, Resources, WorkerDescription};
use copernicus_telemetry::TraceContext;
use std::fmt;

/// Why a byte buffer could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(pub String);

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

fn err<T>(what: impl Into<String>) -> Result<T, CodecError> {
    Err(CodecError(what.into()))
}

// ---------------------------------------------------------------- writer

fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_i32(out: &mut Vec<u8>, v: i32) {
    out.extend_from_slice(&v.to_be_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_be_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_json(out: &mut Vec<u8>, v: &serde_json::Value) {
    // `Value` serialization cannot fail; the fallback keeps this path
    // infallible without an unwrap in release builds.
    let text = serde_json::to_string(v).unwrap_or_else(|_| "null".to_string());
    put_str(out, &text);
}

fn put_opt_json(out: &mut Vec<u8>, v: &Option<serde_json::Value>) {
    match v {
        Some(v) => {
            put_u8(out, 1);
            put_json(out, v);
        }
        None => put_u8(out, 0),
    }
}

// ---------------------------------------------------------------- reader

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return err(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn i32(&mut self) -> Result<i32, CodecError> {
        Ok(i32::from_be_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(u64::from_be_bytes(
            self.take(8)?.try_into().unwrap(),
        )))
    }

    /// A length-prefixed string, borrowed from the buffer.
    fn text(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        // The length is attacker-controlled until checked against the
        // buffer; `take` rejects anything the buffer cannot back, so no
        // allocation happens on a lying prefix.
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => err("string field is not valid UTF-8"),
        }
    }

    fn str(&mut self) -> Result<String, CodecError> {
        Ok(self.text()?.to_string())
    }

    fn json(&mut self) -> Result<serde_json::Value, CodecError> {
        match serde_json::from_str(self.text()?) {
            Ok(v) => Ok(v),
            Err(_) => err("JSON field does not parse"),
        }
    }

    /// A payload, keeping the text it arrived as.
    fn payload(&mut self) -> Result<Payload, CodecError> {
        match Payload::parse(self.text()?) {
            Ok(p) => Ok(p),
            Err(_) => err("JSON field does not parse"),
        }
    }

    fn opt_json(&mut self) -> Result<Option<serde_json::Value>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.json()?)),
            other => err(format!("bad Option presence byte {other}")),
        }
    }

    /// A collection length. Every element costs at least one byte, so a
    /// count exceeding the remaining buffer is a lie — reject it before
    /// reserving anything.
    fn count(&mut self) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return err(format!(
                "count {n} exceeds remaining {} bytes",
                self.remaining()
            ));
        }
        Ok(n)
    }

    fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return err(format!("{} trailing bytes after message", self.remaining()));
        }
        Ok(())
    }
}

fn put_opt_trace(out: &mut Vec<u8>, trace: &Option<TraceContext>) {
    match trace {
        Some(ctx) => {
            put_u8(out, 1);
            put_u64(out, ctx.trace_id);
            put_u64(out, ctx.span_id);
            match ctx.parent_span_id {
                Some(p) => {
                    put_u8(out, 1);
                    put_u64(out, p);
                }
                None => put_u8(out, 0),
            }
        }
        None => put_u8(out, 0),
    }
}

fn get_opt_trace(r: &mut Reader) -> Result<Option<TraceContext>, CodecError> {
    match r.u8()? {
        0 => Ok(None),
        1 => {
            let trace_id = r.u64()?;
            let span_id = r.u64()?;
            let parent_span_id = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                other => return err(format!("bad trace parent presence byte {other}")),
            };
            Ok(Some(TraceContext {
                trace_id,
                span_id,
                parent_span_id,
            }))
        }
        other => err(format!("bad trace presence byte {other}")),
    }
}

// ----------------------------------------------------------- components

fn put_platform(out: &mut Vec<u8>, p: Platform) {
    put_u8(
        out,
        match p {
            Platform::Smp => 0,
            Platform::Mpi => 1,
            Platform::Gpu => 2,
        },
    );
}

fn get_platform(r: &mut Reader) -> Result<Platform, CodecError> {
    match r.u8()? {
        0 => Ok(Platform::Smp),
        1 => Ok(Platform::Mpi),
        2 => Ok(Platform::Gpu),
        other => err(format!("unknown platform tag {other}")),
    }
}

fn put_resources(out: &mut Vec<u8>, res: &Resources) {
    put_u64(out, res.cores as u64);
    put_u64(out, res.memory_mb);
}

fn get_resources(r: &mut Reader) -> Result<Resources, CodecError> {
    let cores = r.u64()?;
    let memory_mb = r.u64()?;
    if cores == 0 {
        return err("resources with zero cores");
    }
    Ok(Resources {
        cores: cores as usize,
        memory_mb,
    })
}

fn put_description(out: &mut Vec<u8>, desc: &WorkerDescription) {
    put_platform(out, desc.platform);
    put_resources(out, &desc.resources);
    put_u32(out, desc.executables.len() as u32);
    for e in &desc.executables {
        put_str(out, &e.command_type);
        put_platform(out, e.platform);
        put_str(out, &e.version);
    }
}

fn get_description(r: &mut Reader) -> Result<WorkerDescription, CodecError> {
    let platform = get_platform(r)?;
    let resources = get_resources(r)?;
    let n = r.count()?;
    let mut executables = Vec::new();
    for _ in 0..n {
        let command_type = r.str()?;
        let platform = get_platform(r)?;
        let version = r.str()?;
        executables.push(ExecutableSpec {
            command_type,
            platform,
            version,
        });
    }
    Ok(WorkerDescription {
        platform,
        resources,
        executables,
    })
}

fn put_command(out: &mut Vec<u8>, cmd: &Command) {
    put_u64(out, cmd.id.0);
    put_u64(out, cmd.project.0);
    put_str(out, &cmd.command_type);
    put_i32(out, cmd.priority);
    put_resources(out, &cmd.required);
    put_str(out, cmd.payload.text());
    put_opt_json(out, &cmd.checkpoint);
    put_u32(out, cmd.attempts);
    put_opt_trace(out, &cmd.trace);
    // `not_before` is process-local scheduling state; it does not cross
    // the wire.
}

fn get_command(r: &mut Reader) -> Result<Command, CodecError> {
    Ok(Command {
        id: CommandId(r.u64()?),
        project: ProjectId(r.u64()?),
        command_type: r.str()?,
        priority: r.i32()?,
        required: get_resources(r)?,
        payload: r.payload()?,
        checkpoint: r.opt_json()?,
        attempts: r.u32()?,
        trace: get_opt_trace(r)?,
        not_before: None,
    })
}

fn put_output(out: &mut Vec<u8>, o: &CommandOutput) {
    put_u64(out, o.command.0);
    put_u64(out, o.project.0);
    put_u64(out, o.worker.0);
    put_str(out, &o.command_type);
    put_u32(out, o.epoch);
    put_str(out, o.data.text());
    put_f64(out, o.wall_secs);
    // `bytes` is not sent: the server that accepts the result reads it
    // off the text (`Server::complete`).
    put_opt_trace(out, &o.trace);
}

fn get_output(r: &mut Reader) -> Result<CommandOutput, CodecError> {
    Ok(CommandOutput {
        command: CommandId(r.u64()?),
        project: ProjectId(r.u64()?),
        worker: WorkerId(r.u64()?),
        command_type: r.str()?,
        epoch: r.u32()?,
        data: r.payload()?,
        wall_secs: r.f64()?,
        bytes: 0,
        trace: get_opt_trace(r)?,
    })
}

// ------------------------------------------------------------- messages

const TS_ANNOUNCE: u8 = 0;
const TS_REQUEST_WORK: u8 = 1;
const TS_COMPLETED: u8 = 2;
const TS_COMMAND_ERROR: u8 = 3;
const TS_HEARTBEAT: u8 = 4;
const TS_BATCH: u8 = 5;
const TS_WORKER_DEPARTED: u8 = 6;

/// Collect the non-batch messages of a (possibly nested) batch in
/// order. Encoding flattens, so the wire carries exactly one level of
/// batching and the decoder can reject nesting outright.
fn flatten_batch<'a>(msgs: &'a [ToServer], leaves: &mut Vec<&'a ToServer>) {
    for msg in msgs {
        match msg {
            ToServer::Batch(inner) => flatten_batch(inner, leaves),
            leaf => leaves.push(leaf),
        }
    }
}

fn put_to_server_leaf(out: &mut Vec<u8>, msg: &ToServer) {
    match msg {
        ToServer::Announce { worker, desc } => {
            put_u8(out, TS_ANNOUNCE);
            put_u64(out, worker.0);
            put_description(out, desc);
        }
        ToServer::RequestWork { worker } => {
            put_u8(out, TS_REQUEST_WORK);
            put_u64(out, worker.0);
        }
        ToServer::Completed { output } => {
            put_u8(out, TS_COMPLETED);
            put_output(out, output);
        }
        ToServer::CommandError {
            worker,
            project,
            command,
            epoch,
            error,
        } => {
            put_u8(out, TS_COMMAND_ERROR);
            put_u64(out, worker.0);
            put_u64(out, project.0);
            put_u64(out, command.0);
            put_u32(out, *epoch);
            put_str(out, error);
        }
        ToServer::Heartbeat { worker } => {
            put_u8(out, TS_HEARTBEAT);
            put_u64(out, worker.0);
        }
        // Normally synthesized server-side, but encodable so relaying
        // transports (overlay hops) can forward the departure.
        ToServer::WorkerDeparted { worker } => {
            put_u8(out, TS_WORKER_DEPARTED);
            put_u64(out, worker.0);
        }
        // `encode_to_server` flattens batches before reaching here.
        ToServer::Batch(_) => unreachable!("nested batches are flattened at encode"),
    }
}

/// Encode a worker→server message.
pub fn encode_to_server(msg: &ToServer) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ToServer::Batch(msgs) => {
            let mut leaves = Vec::new();
            flatten_batch(msgs, &mut leaves);
            put_u8(&mut out, TS_BATCH);
            put_u32(&mut out, leaves.len() as u32);
            for leaf in leaves {
                put_to_server_leaf(&mut out, leaf);
            }
        }
        leaf => put_to_server_leaf(&mut out, leaf),
    }
    out
}

fn get_to_server_leaf(r: &mut Reader, tag: u8) -> Result<ToServer, CodecError> {
    Ok(match tag {
        TS_ANNOUNCE => ToServer::Announce {
            worker: WorkerId(r.u64()?),
            desc: get_description(r)?,
        },
        TS_REQUEST_WORK => ToServer::RequestWork {
            worker: WorkerId(r.u64()?),
        },
        TS_COMPLETED => ToServer::Completed {
            output: get_output(r)?,
        },
        TS_COMMAND_ERROR => ToServer::CommandError {
            worker: WorkerId(r.u64()?),
            project: ProjectId(r.u64()?),
            command: CommandId(r.u64()?),
            epoch: r.u32()?,
            error: r.str()?,
        },
        TS_HEARTBEAT => ToServer::Heartbeat {
            worker: WorkerId(r.u64()?),
        },
        TS_WORKER_DEPARTED => ToServer::WorkerDeparted {
            worker: WorkerId(r.u64()?),
        },
        TS_BATCH => return err("nested Batch"),
        other => return err(format!("unknown ToServer tag {other}")),
    })
}

/// Decode a worker→server message. Total over arbitrary input.
pub fn decode_to_server(buf: &[u8]) -> Result<ToServer, CodecError> {
    let mut r = Reader::new(buf);
    let msg = match r.u8()? {
        TS_BATCH => {
            let n = r.count()?;
            if n == 0 {
                return err("empty Batch");
            }
            let mut msgs = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                let tag = r.u8()?;
                msgs.push(get_to_server_leaf(&mut r, tag)?);
            }
            ToServer::Batch(msgs)
        }
        tag => get_to_server_leaf(&mut r, tag)?,
    };
    r.finish()?;
    Ok(msg)
}

const TW_WORKLOAD: u8 = 0;
const TW_NO_WORK: u8 = 1;
const TW_SHUTDOWN: u8 = 2;

/// Encode a server→worker message.
pub fn encode_to_worker(msg: &ToWorker) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        ToWorker::Workload(commands) => {
            put_u8(&mut out, TW_WORKLOAD);
            put_u32(&mut out, commands.len() as u32);
            for cmd in commands {
                put_command(&mut out, cmd);
            }
        }
        ToWorker::NoWork => put_u8(&mut out, TW_NO_WORK),
        ToWorker::Shutdown => put_u8(&mut out, TW_SHUTDOWN),
    }
    out
}

/// Decode a server→worker message. Total over arbitrary input.
pub fn decode_to_worker(buf: &[u8]) -> Result<ToWorker, CodecError> {
    let mut r = Reader::new(buf);
    let msg = match r.u8()? {
        TW_WORKLOAD => {
            let n = r.count()?;
            let mut commands = Vec::new();
            for _ in 0..n {
                commands.push(get_command(&mut r)?);
            }
            ToWorker::Workload(commands)
        }
        TW_NO_WORK => ToWorker::NoWork,
        TW_SHUTDOWN => ToWorker::Shutdown,
        other => return err(format!("unknown ToWorker tag {other}")),
    };
    r.finish()?;
    Ok(msg)
}

// The peer sub-protocol lives in its own tag namespace (0x50+), so a
// server listener can tell worker traffic from peer traffic by the
// first payload byte — see [`decode_inbound`].
const TP_HELLO: u8 = 0x50;
const TP_OFFER_WORK: u8 = 0x51;
const TP_DELEGATE_COMMAND: u8 = 0x52;
const TP_DELEGATED_RESULT: u8 = 0x53;
const TP_DELEGATED_ERROR: u8 = 0x54;
// 0x55 is retired (it carried one worker's heartbeat): never reuse it, so
// a frame from an older delegate stays an unknown tag.
const TP_SHUTDOWN: u8 = 0x56;
const TP_HEARTBEATS: u8 = 0x57;

/// Encode a server↔server peer message.
pub fn encode_peer(msg: &PeerMsg) -> Vec<u8> {
    let mut out = Vec::new();
    match msg {
        PeerMsg::Hello { server, projects } => {
            put_u8(&mut out, TP_HELLO);
            put_str(&mut out, server);
            put_u32(&mut out, projects.len() as u32);
            for p in projects {
                put_u64(&mut out, p.0);
            }
        }
        PeerMsg::OfferWork {
            offer,
            worker,
            desc,
        } => {
            put_u8(&mut out, TP_OFFER_WORK);
            put_u64(&mut out, *offer);
            put_u64(&mut out, worker.0);
            put_description(&mut out, desc);
        }
        PeerMsg::DelegateCommand {
            offer,
            worker,
            commands,
        } => {
            put_u8(&mut out, TP_DELEGATE_COMMAND);
            put_u64(&mut out, *offer);
            put_u64(&mut out, worker.0);
            put_u32(&mut out, commands.len() as u32);
            for cmd in commands {
                put_command(&mut out, cmd);
            }
        }
        PeerMsg::DelegatedResult { output } => {
            put_u8(&mut out, TP_DELEGATED_RESULT);
            put_output(&mut out, output);
        }
        PeerMsg::DelegatedError {
            worker,
            project,
            command,
            epoch,
            error,
        } => {
            put_u8(&mut out, TP_DELEGATED_ERROR);
            put_u64(&mut out, worker.0);
            put_u64(&mut out, project.0);
            put_u64(&mut out, command.0);
            put_u32(&mut out, *epoch);
            put_str(&mut out, error);
        }
        PeerMsg::Heartbeats { workers } => {
            put_u8(&mut out, TP_HEARTBEATS);
            put_u32(&mut out, workers.len() as u32);
            for w in workers {
                put_u64(&mut out, w.0);
            }
        }
        PeerMsg::Shutdown => put_u8(&mut out, TP_SHUTDOWN),
    }
    out
}

/// Decode a server↔server peer message. Total over arbitrary input.
pub fn decode_peer(buf: &[u8]) -> Result<PeerMsg, CodecError> {
    let mut r = Reader::new(buf);
    let msg = match r.u8()? {
        TP_HELLO => {
            let server = r.str()?;
            let n = r.count()?;
            let mut projects = Vec::new();
            for _ in 0..n {
                projects.push(ProjectId(r.u64()?));
            }
            PeerMsg::Hello { server, projects }
        }
        TP_OFFER_WORK => PeerMsg::OfferWork {
            offer: r.u64()?,
            worker: WorkerId(r.u64()?),
            desc: get_description(&mut r)?,
        },
        TP_DELEGATE_COMMAND => {
            let offer = r.u64()?;
            let worker = WorkerId(r.u64()?);
            let n = r.count()?;
            let mut commands = Vec::new();
            for _ in 0..n {
                commands.push(get_command(&mut r)?);
            }
            PeerMsg::DelegateCommand {
                offer,
                worker,
                commands,
            }
        }
        TP_DELEGATED_RESULT => PeerMsg::DelegatedResult {
            output: get_output(&mut r)?,
        },
        TP_DELEGATED_ERROR => PeerMsg::DelegatedError {
            worker: WorkerId(r.u64()?),
            project: ProjectId(r.u64()?),
            command: CommandId(r.u64()?),
            epoch: r.u32()?,
            error: r.str()?,
        },
        TP_HEARTBEATS => {
            let n = r.count()?;
            let mut workers = Vec::with_capacity(n.min(64));
            for _ in 0..n {
                workers.push(WorkerId(r.u64()?));
            }
            PeerMsg::Heartbeats { workers }
        }
        TP_SHUTDOWN => PeerMsg::Shutdown,
        other => return err(format!("unknown PeerMsg tag {other}")),
    };
    r.finish()?;
    Ok(msg)
}

/// Anything that can arrive on a server's listener: worker traffic or
/// peer traffic, told apart by the tag byte's namespace.
#[derive(Debug, Clone)]
pub enum Inbound {
    Worker(ToServer),
    Peer(PeerMsg),
}

/// Decode one inbound listener frame. Total over arbitrary input.
pub fn decode_inbound(buf: &[u8]) -> Result<Inbound, CodecError> {
    match buf.first() {
        None => err("empty frame"),
        Some(&tag) if tag >= TP_HELLO => Ok(Inbound::Peer(decode_peer(buf)?)),
        Some(_) => Ok(Inbound::Worker(decode_to_server(buf)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandSpec;
    use serde_json::json;

    fn sample_command() -> Command {
        let mut cmd = Command::from_spec(
            CommandId(7),
            ProjectId(3),
            CommandSpec::new("mdrun", Resources::new(4, 2048), json!({"steps": 5000}))
                .with_priority(-2),
        );
        cmd.attempts = 2;
        cmd.checkpoint = Some(json!({"frame": 120}));
        cmd.trace = Some(TraceContext {
            trace_id: 0xDEAD_BEEF_1234_5678,
            span_id: 42,
            parent_span_id: Some(41),
        });
        cmd
    }

    fn sample_desc() -> WorkerDescription {
        WorkerDescription {
            platform: Platform::Gpu,
            resources: Resources::new(8, 16_000),
            executables: vec![
                ExecutableSpec::new("mdrun", Platform::Gpu, "4.5"),
                ExecutableSpec::new("fep-sample", Platform::Smp, "1.0"),
            ],
        }
    }

    #[test]
    fn to_server_variants_roundtrip() {
        let msgs = vec![
            ToServer::Announce {
                worker: WorkerId(11),
                desc: sample_desc(),
            },
            ToServer::RequestWork {
                worker: WorkerId(5),
            },
            ToServer::Completed {
                output: CommandOutput::new(
                    &sample_command(),
                    WorkerId(9),
                    json!({"frames": vec![1.5, 2.5]}),
                    0.25,
                ),
            },
            ToServer::CommandError {
                worker: WorkerId(1),
                project: ProjectId(2),
                command: CommandId(3),
                epoch: 4,
                error: "bad payload: missing \"steps\"".to_string(),
            },
            ToServer::Heartbeat {
                worker: WorkerId(42),
            },
            ToServer::WorkerDeparted {
                worker: WorkerId(42),
            },
        ];
        for msg in msgs {
            let bytes = encode_to_server(&msg);
            let back = decode_to_server(&bytes).expect("roundtrip");
            // Compare via re-encoding: the message types don't carry
            // PartialEq, and byte equality is the stronger property here.
            assert_eq!(encode_to_server(&back), bytes);
            assert_eq!(back.worker(), msg.worker());
        }
    }

    /// An output is printed by its first encoding; a second one writes
    /// the same text, not a second print.
    #[test]
    fn encoding_an_output_twice_reuses_one_text() {
        let out = CommandOutput::new(&sample_command(), WorkerId(9), json!({"x": [0.1]}), 0.5);
        assert!(!out.data.is_printed());
        let msg = ToServer::Completed {
            output: out.clone(),
        };
        let first = encode_to_server(&msg);
        assert!(out.data.is_printed());
        let text: *const str = out.data.text();
        assert_eq!(encode_to_server(&msg), first);
        assert!(std::ptr::eq(out.data.text(), text));
    }

    #[test]
    fn batch_roundtrips_and_preserves_order() {
        let msg = ToServer::Batch(vec![
            ToServer::Heartbeat {
                worker: WorkerId(1),
            },
            ToServer::RequestWork {
                worker: WorkerId(1),
            },
            ToServer::Completed {
                output: CommandOutput::new(
                    &sample_command(),
                    WorkerId(1),
                    json!({"done": true}),
                    0.5,
                ),
            },
        ]);
        let bytes = encode_to_server(&msg);
        let back = decode_to_server(&bytes).expect("roundtrip");
        assert_eq!(encode_to_server(&back), bytes);
        let ToServer::Batch(msgs) = back else {
            panic!("wrong variant");
        };
        assert_eq!(msgs.len(), 3);
        assert!(matches!(msgs[0], ToServer::Heartbeat { .. }));
        assert!(matches!(msgs[1], ToServer::RequestWork { .. }));
        assert!(matches!(msgs[2], ToServer::Completed { .. }));
    }

    #[test]
    fn nested_batches_flatten_at_encode_and_are_rejected_on_decode() {
        // Encoding a batch-in-batch must produce the flat wire form.
        let nested = ToServer::Batch(vec![
            ToServer::Heartbeat {
                worker: WorkerId(1),
            },
            ToServer::Batch(vec![ToServer::RequestWork {
                worker: WorkerId(2),
            }]),
        ]);
        let flat = ToServer::Batch(vec![
            ToServer::Heartbeat {
                worker: WorkerId(1),
            },
            ToServer::RequestWork {
                worker: WorkerId(2),
            },
        ]);
        assert_eq!(encode_to_server(&nested), encode_to_server(&flat));

        // A hand-built nested batch on the wire is rejected.
        let inner = encode_to_server(&ToServer::Batch(vec![ToServer::Heartbeat {
            worker: WorkerId(1),
        }]));
        let mut bytes = vec![TS_BATCH];
        bytes.extend_from_slice(&1u32.to_be_bytes());
        bytes.extend_from_slice(&inner);
        assert!(decode_to_server(&bytes).is_err());

        // So is an empty one — batches always speak for some worker.
        let mut bytes = vec![TS_BATCH];
        bytes.extend_from_slice(&0u32.to_be_bytes());
        assert!(decode_to_server(&bytes).is_err());
    }

    #[test]
    fn batch_truncations_error_without_panicking() {
        let full = encode_to_server(&ToServer::Batch(vec![
            ToServer::Heartbeat {
                worker: WorkerId(1),
            },
            ToServer::Announce {
                worker: WorkerId(2),
                desc: sample_desc(),
            },
        ]));
        for len in 0..full.len() {
            assert!(
                decode_to_server(&full[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn to_worker_variants_roundtrip() {
        let msgs = vec![
            ToWorker::Workload(vec![sample_command()]),
            ToWorker::Workload(vec![]),
            ToWorker::NoWork,
            ToWorker::Shutdown,
        ];
        for msg in msgs {
            let bytes = encode_to_worker(&msg);
            let back = decode_to_worker(&bytes).expect("roundtrip");
            assert_eq!(encode_to_worker(&back), bytes);
        }
    }

    #[test]
    fn workload_preserves_command_fields() {
        let bytes = encode_to_worker(&ToWorker::Workload(vec![sample_command()]));
        let ToWorker::Workload(cmds) = decode_to_worker(&bytes).unwrap() else {
            panic!("wrong variant");
        };
        let cmd = &cmds[0];
        assert_eq!(cmd.id, CommandId(7));
        assert_eq!(cmd.project, ProjectId(3));
        assert_eq!(cmd.command_type, "mdrun");
        assert_eq!(cmd.priority, -2);
        assert_eq!(cmd.attempts, 2);
        assert_eq!(cmd.payload["steps"], json!(5000));
        assert_eq!(cmd.checkpoint.as_ref().unwrap()["frame"], json!(120));
        assert!(cmd.not_before.is_none());
        let trace = cmd.trace.expect("trace context crossed the wire");
        assert_eq!(trace.trace_id, 0xDEAD_BEEF_1234_5678);
        assert_eq!(trace.span_id, 42);
        assert_eq!(trace.parent_span_id, Some(41));
    }

    #[test]
    fn trace_context_roundtrips_in_all_shapes() {
        for trace in [
            None,
            Some(TraceContext {
                trace_id: 1,
                span_id: 2,
                parent_span_id: None,
            }),
            Some(TraceContext {
                trace_id: u64::MAX,
                span_id: 0,
                parent_span_id: Some(u64::MAX),
            }),
        ] {
            let mut cmd = sample_command();
            cmd.trace = trace;
            let bytes = encode_to_worker(&ToWorker::Workload(vec![cmd]));
            let ToWorker::Workload(cmds) = decode_to_worker(&bytes).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!(cmds[0].trace, trace);

            let mut out = CommandOutput::new(&sample_command(), WorkerId(9), json!({"ok": 1}), 0.5);
            out.trace = trace;
            let bytes = encode_to_server(&ToServer::Completed { output: out });
            let ToServer::Completed { output } = decode_to_server(&bytes).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!(output.trace, trace);
        }
    }

    #[test]
    fn bad_trace_presence_bytes_are_rejected() {
        // A valid heartbeat is one byte + u64; build a Workload of one
        // command and corrupt its trace presence byte (last byte since
        // trace is the final field).
        let bytes = encode_to_worker(&ToWorker::Workload(vec![{
            let mut cmd = sample_command();
            cmd.trace = None;
            cmd
        }]));
        let mut corrupt = bytes.clone();
        *corrupt.last_mut().unwrap() = 7;
        assert!(decode_to_worker(&corrupt).is_err());
    }

    #[test]
    fn every_truncation_errors_without_panicking() {
        let full = encode_to_server(&ToServer::Announce {
            worker: WorkerId(11),
            desc: sample_desc(),
        });
        for len in 0..full.len() {
            assert!(
                decode_to_server(&full[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
        let full = encode_to_worker(&ToWorker::Workload(vec![sample_command()]));
        for len in 0..full.len() {
            assert!(
                decode_to_worker(&full[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn garbage_and_bad_tags_are_rejected() {
        assert!(decode_to_server(&[]).is_err());
        assert!(decode_to_server(&[99]).is_err());
        assert!(decode_to_worker(&[200, 1, 2, 3]).is_err());
        let noise: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37)).collect();
        assert!(decode_to_server(&noise).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode_to_server(&ToServer::Heartbeat {
            worker: WorkerId(1),
        });
        bytes.push(0);
        assert!(decode_to_server(&bytes).is_err());
    }

    #[test]
    fn lying_count_is_rejected_before_allocation() {
        // Workload claiming u32::MAX commands backed by no bytes.
        let mut bytes = vec![TW_WORKLOAD];
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(decode_to_worker(&bytes).is_err());
    }

    #[test]
    fn lying_string_length_is_rejected() {
        // CommandError whose error-string length claims far more than
        // the buffer holds.
        let mut bytes = vec![TS_COMMAND_ERROR];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&2u64.to_be_bytes());
        bytes.extend_from_slice(&3u64.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&0xFFFF_FFFFu32.to_be_bytes());
        bytes.extend_from_slice(b"short");
        assert!(decode_to_server(&bytes).is_err());
    }

    #[test]
    fn invalid_utf8_is_rejected() {
        let mut bytes = vec![TS_COMMAND_ERROR];
        bytes.extend_from_slice(&1u64.to_be_bytes());
        bytes.extend_from_slice(&2u64.to_be_bytes());
        bytes.extend_from_slice(&3u64.to_be_bytes());
        bytes.extend_from_slice(&0u32.to_be_bytes());
        bytes.extend_from_slice(&2u32.to_be_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        assert!(decode_to_server(&bytes).is_err());
    }

    #[test]
    fn peer_variants_roundtrip() {
        let msgs = vec![
            PeerMsg::Hello {
                server: "alpha".to_string(),
                projects: vec![ProjectId(0), ProjectId(7)],
            },
            PeerMsg::OfferWork {
                offer: 41,
                worker: WorkerId(9),
                desc: sample_desc(),
            },
            PeerMsg::DelegateCommand {
                offer: 41,
                worker: WorkerId(9),
                commands: vec![sample_command()],
            },
            PeerMsg::DelegateCommand {
                offer: 42,
                worker: WorkerId(9),
                commands: vec![],
            },
            PeerMsg::DelegatedResult {
                output: CommandOutput::new(
                    &sample_command(),
                    WorkerId(9),
                    json!({"ok": true}),
                    0.125,
                ),
            },
            PeerMsg::DelegatedError {
                worker: WorkerId(1),
                project: ProjectId(2),
                command: CommandId(3),
                epoch: 4,
                error: "delegation declined".to_string(),
            },
            PeerMsg::Heartbeats {
                workers: vec![WorkerId(8), WorkerId(9), WorkerId(10)],
            },
            PeerMsg::Heartbeats { workers: vec![] },
            PeerMsg::Shutdown,
        ];
        for msg in msgs {
            let bytes = encode_peer(&msg);
            let back = decode_peer(&bytes).expect("roundtrip");
            assert_eq!(encode_peer(&back), bytes);
            // Peer frames land in the peer half of the inbound split.
            assert!(matches!(decode_inbound(&bytes), Ok(Inbound::Peer(_))));
        }
    }

    #[test]
    fn heartbeat_frames_have_the_sizes_fig6_reports() {
        // On the wire each payload gains the 4-byte length prefix.
        let frame = |payload: Vec<u8>| copernicus_wire::HEADER_LEN + payload.len();
        let worker = frame(encode_to_server(&ToServer::Heartbeat {
            worker: WorkerId(u64::MAX),
        }));
        assert_eq!(worker, 13);
        for n in 2..=64 {
            let workers: Vec<WorkerId> = (0..n as u64).map(WorkerId).collect();
            let coalesced = frame(encode_peer(&PeerMsg::Heartbeats { workers }));
            assert_eq!(coalesced, 9 + 8 * n);
            assert!(coalesced < n * worker, "{n} workers: {coalesced} B");
        }
        // Fig 6's row: one coalesced frame for 8 workers against the 8
        // frames those workers would send a server directly.
        let workers: Vec<WorkerId> = (0..8).map(WorkerId).collect();
        let coalesced = frame(encode_peer(&PeerMsg::Heartbeats { workers }));
        assert_eq!((coalesced, 8 * worker), (73, 104));
    }

    #[test]
    fn inbound_split_routes_by_tag_namespace() {
        let worker = encode_to_server(&ToServer::Heartbeat {
            worker: WorkerId(1),
        });
        assert!(matches!(
            decode_inbound(&worker),
            Ok(Inbound::Worker(ToServer::Heartbeat { .. }))
        ));
        assert!(decode_inbound(&[]).is_err());
        // A tag in the gap between the namespaces fails both decoders.
        assert!(decode_inbound(&[0x30]).is_err());
        assert!(decode_inbound(&[0x60]).is_err());
        // The retired single-worker peer heartbeat (tag 0x55, one u64)
        // is an unknown tag to both decoders.
        let old_heartbeat = [&[0x55u8][..], &8u64.to_be_bytes()].concat();
        assert!(decode_peer(&old_heartbeat).is_err());
        assert!(decode_inbound(&old_heartbeat).is_err());
    }

    #[test]
    fn truncated_peer_frames_error_without_panicking() {
        let full = encode_peer(&PeerMsg::OfferWork {
            offer: 1,
            worker: WorkerId(2),
            desc: sample_desc(),
        });
        for len in 0..full.len() {
            assert!(
                decode_peer(&full[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn malformed_json_payload_is_rejected() {
        // Hand-build a Completed whose data field holds non-JSON text.
        let mut bytes = vec![TS_COMPLETED];
        bytes.extend_from_slice(&1u64.to_be_bytes()); // command
        bytes.extend_from_slice(&2u64.to_be_bytes()); // project
        bytes.extend_from_slice(&3u64.to_be_bytes()); // worker
        bytes.extend_from_slice(&1u32.to_be_bytes()); // command_type len
        bytes.push(b't');
        bytes.extend_from_slice(&0u32.to_be_bytes()); // epoch
        bytes.extend_from_slice(&7u32.to_be_bytes()); // data len
        bytes.extend_from_slice(b"not js("); // malformed JSON
        bytes.extend_from_slice(&0.5f64.to_bits().to_be_bytes());
        bytes.push(0); // no trace
        assert!(decode_to_server(&bytes).is_err());
    }
}
