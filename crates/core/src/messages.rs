//! Wire messages between workers and the project server.
//!
//! Both enums are **pure data**: `Clone`, encoded by [`crate::codec`],
//! no channels, no handles. Reply routing is the transport's job (see
//! [`crate::transport`]): in-process transports pair each worker with an
//! `mpsc` channel, the TCP transport pairs it with an authenticated
//! connection. The message set is identical either way, which is what
//! lets one `Server`/`Worker` implementation run in both modes (§2.2 of
//! the paper: the same request/response protocol over SSL links or
//! inside one process).

use crate::command::{Command, CommandOutput};
use crate::ids::{CommandId, ProjectId, WorkerId};
use crate::resources::WorkerDescription;

/// Messages a worker (or client) sends to a server.
#[derive(Debug, Clone)]
pub enum ToServer {
    /// A worker presents itself: platform, resources, executables
    /// (§2.3). Where replies go is transport state, not message
    /// content — the transport learns the return path from the
    /// connection (or channel) this arrived on.
    Announce {
        worker: WorkerId,
        desc: WorkerDescription,
    },
    /// Ask for a workload.
    RequestWork { worker: WorkerId },
    /// A command finished successfully.
    Completed { output: CommandOutput },
    /// A command failed in a reportable way (bad payload, executor
    /// failure — *not* a crash, which manifests as silence).
    CommandError {
        worker: WorkerId,
        project: ProjectId,
        command: CommandId,
        /// The attempt epoch the failure belongs to (the command's
        /// `attempts` at dispatch). Stale-epoch errors are dropped by
        /// the server rather than charged against the current attempt.
        epoch: u32,
        error: String,
    },
    /// Periodic liveness signal.
    Heartbeat { worker: WorkerId },
    /// The transport observed the worker's link die (connection reset,
    /// or evicted at the write-backlog cap). Synthesized by transports,
    /// never sent by workers: the server orphans the worker's in-flight
    /// commands immediately instead of waiting out the heartbeat
    /// watchdog.
    WorkerDeparted { worker: WorkerId },
    /// Several messages coalesced into one wire frame. Transports use
    /// this to amortize framing and syscall cost on chatty paths
    /// (heartbeats riding along with the next request); the server
    /// processes the contents in order, exactly as if they had arrived
    /// as individual frames. The codec flattens nested batches at
    /// encode time and rejects them on decode, so the wire never
    /// carries more than one level.
    Batch(Vec<ToServer>),
}

impl ToServer {
    /// The worker this message speaks for. Transports use it to bind a
    /// connection to a worker identity (and the watchdog to a liveness
    /// record) without peeking into variant internals. A batch speaks
    /// for its first member (transports expand batches before routing,
    /// so this is only a fallback; an empty batch maps to the null
    /// worker id).
    pub fn worker(&self) -> WorkerId {
        match self {
            ToServer::Announce { worker, .. }
            | ToServer::RequestWork { worker }
            | ToServer::CommandError { worker, .. }
            | ToServer::Heartbeat { worker }
            | ToServer::WorkerDeparted { worker } => *worker,
            ToServer::Completed { output } => output.worker,
            ToServer::Batch(msgs) => msgs.first().map(ToServer::worker).unwrap_or(WorkerId(0)),
        }
    }
}

/// Messages a server sends to a worker.
#[derive(Debug, Clone)]
pub enum ToWorker {
    /// Commands to execute.
    Workload(Vec<Command>),
    /// Nothing matched; poll again later.
    NoWork,
    /// The project is over; exit.
    Shutdown,
}

/// The server↔server peer protocol (§2.2, Fig. 1: the network of
/// project servers). A server with idle workers dials a peer with
/// backlog and *pulls* matching commands; the dialed server — the
/// owner — keeps the commands in its own ledger throughout, so the
/// attempt-epoch/exactly-once lifecycle needs no distributed state.
/// See [`crate::peer`] for the two endpoint roles.
#[derive(Debug, Clone)]
pub enum PeerMsg {
    /// First frame in each direction on a peer link: who I am and which
    /// projects I host. The listener side replies with its own hello.
    Hello {
        server: String,
        projects: Vec<ProjectId>,
    },
    /// Delegate → owner: worker `worker` (the delegate's real worker
    /// id) is idle and matches `desc`; send work if any. `offer` is a
    /// link-local nonce echoed in the reply so the delegate can tell a
    /// late answer to an abandoned offer from the current one.
    OfferWork {
        offer: u64,
        worker: WorkerId,
        desc: WorkerDescription,
    },
    /// Owner → delegate: commands for `worker`, answering offer
    /// `offer`. An empty command list means nothing matched.
    DelegateCommand {
        offer: u64,
        worker: WorkerId,
        commands: Vec<Command>,
    },
    /// Delegate → owner: a delegated command finished; `output.worker`
    /// is the delegate's real worker id (the owner re-namespaces it).
    DelegatedResult { output: CommandOutput },
    /// Delegate → owner: a delegated command failed — or was *declined*
    /// (the reply to an abandoned offer), which deliberately burns one
    /// attempt so the owner re-queues instead of leaking the command.
    DelegatedError {
        worker: WorkerId,
        project: ProjectId,
        command: CommandId,
        epoch: u32,
        error: String,
    },
    /// Delegate → owner: these remote workers are still alive. The
    /// delegate buffers its workers' heartbeats briefly and flushes
    /// them coalesced, so a delegate fronting hundreds of workers
    /// costs the owner one frame per tick instead of one per worker.
    /// The owner feeds each named worker its own liveness record, so
    /// its watchdog can orphan exactly the commands of a worker that
    /// died while the delegate itself lives on.
    Heartbeats { workers: Vec<WorkerId> },
    /// Owner → delegate: my project is over; stop offering.
    Shutdown,
}
