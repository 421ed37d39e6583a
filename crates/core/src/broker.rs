//! Work-request routing across multiple upstreams (§2.2).
//!
//! *"The network must support routing of requests both to specific
//! servers, and to the first server with available commands."* A
//! [`Broker`] sits between a worker pool and several work sources
//! (Fig. 1 runs `msm_titin`, `msm_villin` and `free_energy`
//! simultaneously): worker announcements fan out to every upstream,
//! work requests are offered to the upstreams in rotating order and
//! the first one with matching commands wins, completions are routed
//! back to the upstream that issued the command, and heartbeats reach
//! every upstream. Workers are shut down once every upstream has
//! finished.
//!
//! An upstream is anything implementing [`Upstream`]: a local project
//! server behind a channel hub ([`LocalUpstream`]), or a *remote* peer
//! server dialed over the wire ([`crate::peer::PeerLink`]). The second
//! kind is what turns the broker into the overlay router — a server
//! with idle workers offers them to peers with backlog and pulls
//! delegated commands, while every command stays owned (queued,
//! retried, deduplicated) by the server that spawned it.
//!
//! Offers are *bounded*: an upstream that does not answer within
//! [`BrokerConfig::offer_patience`] forfeits that offer and the worker
//! is offered elsewhere. A late workload from a forfeited offer is
//! never run — it is declined back to its owner (one `CommandError`
//! per command, carrying the dispatch epoch) so the owner re-queues
//! it. That costs one attempt but guarantees no command leaks into a
//! workload nobody is tracking, and it is what keeps a server stalled
//! in a long controller step (clustering) from starving the others.
//!
//! To its workers the broker *is* a server: it consumes messages
//! through a [`ServerTransport`] like any server does.

use crate::command::{Command, CommandOutput};
use crate::ids::{CommandId, ProjectId, WorkerId};
use crate::messages::{ToServer, ToWorker};
use crate::resources::WorkerDescription;
use crate::transport::{
    channel, ChannelHub, ChannelWorkerTransport, ServerRecvError, ServerTransport, WorkerRecvError,
    WorkerTransport,
};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// An upstream's answer to one bounded work offer.
pub enum Offer {
    /// Commands for the offered worker.
    Workload(Vec<Command>),
    /// Nothing matched (or the offer timed out); try elsewhere.
    NoWork,
    /// The upstream has finished (or its link is gone) — stop offering.
    Done,
}

/// The upstream's link is unusable; the router marks it done.
#[derive(Debug)]
pub struct UpstreamGone;

/// A source of work the router can offer idle workers to. Implemented
/// by [`LocalUpstream`] (channel hub to an in-process server) and
/// [`crate::peer::PeerLink`] (wire link to a peer server).
pub trait Upstream: Send {
    /// Human-readable name for logs.
    fn label(&self) -> String;

    /// A worker joined the pool: make it known upstream so later
    /// offers on its behalf can be answered.
    fn register(&mut self, worker: WorkerId, desc: &WorkerDescription) -> Result<(), UpstreamGone>;

    /// Offer `worker` and wait up to `patience` for a verdict. An
    /// implementation that abandons a timed-out offer must guarantee
    /// the late reply's commands are declined back to their owner,
    /// never silently dropped.
    fn offer(&mut self, worker: WorkerId, patience: Duration) -> Offer;

    /// Route a completion back to the upstream that owns the command.
    fn completed(&mut self, output: CommandOutput) -> Result<(), UpstreamGone>;

    /// Route a reportable failure back to the owning upstream.
    fn error(
        &mut self,
        worker: WorkerId,
        project: ProjectId,
        command: CommandId,
        epoch: u32,
        error: String,
    ) -> Result<(), UpstreamGone>;

    /// Forward a worker's liveness signal.
    fn heartbeat(&mut self, worker: WorkerId) -> Result<(), UpstreamGone>;
}

/// Router tuning.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// How long one offer waits for an upstream's verdict before the
    /// worker is offered elsewhere.
    pub offer_patience: Duration,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            offer_patience: Duration::from_secs(5),
        }
    }
}

// ---------------------------------------------------------------------
// Local upstream: an in-process server behind a channel hub
// ---------------------------------------------------------------------

/// A project server reached through its [`ChannelHub`]. The router
/// plays worker to it, holding one proxy transport per worker so the
/// server's replies come back tagged with the worker they belong to.
pub struct LocalUpstream {
    label: String,
    hub: ChannelHub,
    proxies: HashMap<WorkerId, ChannelWorkerTransport>,
    /// Outstanding abandoned requests per worker. Channels are FIFO
    /// and lossless and the server answers every announced worker's
    /// request, so the replies to abandoned offers arrive — in order —
    /// ahead of the current one, and a simple count tells stale from
    /// fresh.
    pending: HashMap<WorkerId, u32>,
}

impl LocalUpstream {
    pub fn new(label: impl Into<String>, hub: ChannelHub) -> LocalUpstream {
        LocalUpstream {
            label: label.into(),
            hub,
            proxies: HashMap::new(),
            pending: HashMap::new(),
        }
    }

    /// Return a stale workload to the server so its lifecycle
    /// re-queues the commands (burning one attempt each).
    fn decline(&mut self, worker: WorkerId, commands: &[Command]) -> Result<(), UpstreamGone> {
        for cmd in commands {
            self.hub
                .send(ToServer::CommandError {
                    worker,
                    project: cmd.project,
                    command: cmd.id,
                    epoch: cmd.attempts,
                    error: "offer abandoned by router".to_string(),
                })
                .map_err(|_| UpstreamGone)?;
        }
        Ok(())
    }
}

impl Upstream for LocalUpstream {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn register(&mut self, worker: WorkerId, desc: &WorkerDescription) -> Result<(), UpstreamGone> {
        let mut proxy = self.hub.attach(worker);
        proxy
            .announce(ToServer::Announce {
                worker,
                desc: desc.clone(),
            })
            .map_err(|_| UpstreamGone)?;
        self.proxies.insert(worker, proxy);
        self.pending.insert(worker, 0);
        Ok(())
    }

    fn offer(&mut self, worker: WorkerId, patience: Duration) -> Offer {
        let Some(proxy) = self.proxies.get_mut(&worker) else {
            return Offer::NoWork; // worker never announced here
        };
        if proxy.send(ToServer::RequestWork { worker }).is_err() {
            return Offer::Done;
        }
        let deadline = Instant::now() + patience;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                // Abandon this offer; its eventual reply is consumed
                // (and any workload declined) by a later offer.
                *self.pending.entry(worker).or_insert(0) += 1;
                return Offer::NoWork;
            }
            let stale = self.pending.get(&worker).copied().unwrap_or(0);
            let reply = match self
                .proxies
                .get_mut(&worker)
                .unwrap()
                .recv_timeout(remaining)
            {
                Ok(reply) => reply,
                Err(WorkerRecvError::Timeout) | Err(WorkerRecvError::Reconnected) => continue,
                Err(WorkerRecvError::Closed(_)) => return Offer::Done,
            };
            match reply {
                ToWorker::Workload(cmds) => {
                    if stale > 0 {
                        self.pending.insert(worker, stale - 1);
                        if self.decline(worker, &cmds).is_err() {
                            return Offer::Done;
                        }
                        continue;
                    }
                    return Offer::Workload(cmds);
                }
                ToWorker::NoWork => {
                    if stale > 0 {
                        self.pending.insert(worker, stale - 1);
                        continue;
                    }
                    return Offer::NoWork;
                }
                // Unsolicited Shutdown broadcasts mean the server
                // finished its project.
                ToWorker::Shutdown => return Offer::Done,
            }
        }
    }

    fn completed(&mut self, output: CommandOutput) -> Result<(), UpstreamGone> {
        self.hub
            .send(ToServer::Completed { output })
            .map_err(|_| UpstreamGone)
    }

    fn error(
        &mut self,
        worker: WorkerId,
        project: ProjectId,
        command: CommandId,
        epoch: u32,
        error: String,
    ) -> Result<(), UpstreamGone> {
        self.hub
            .send(ToServer::CommandError {
                worker,
                project,
                command,
                epoch,
                error,
            })
            .map_err(|_| UpstreamGone)
    }

    fn heartbeat(&mut self, worker: WorkerId) -> Result<(), UpstreamGone> {
        self.hub
            .send(ToServer::Heartbeat { worker })
            .map_err(|_| UpstreamGone)
    }
}

// ---------------------------------------------------------------------
// The router
// ---------------------------------------------------------------------

struct UpstreamSlot {
    up: Box<dyn Upstream>,
    done: bool,
}

/// The relay. Create with [`spawn_router`] (or [`spawn_broker`] for
/// the all-local case).
pub struct Broker {
    upstreams: Vec<UpstreamSlot>,
    /// Which upstream issued each in-flight command. Command ids are
    /// only unique per project, so the key includes the project.
    command_owner: HashMap<(ProjectId, CommandId), usize>,
    /// Rotates the first upstream tried, for fairness between projects.
    next_first: usize,
    /// The worker-facing side: the broker is the workers' "server".
    transport: Box<dyn ServerTransport>,
    config: BrokerConfig,
}

impl Broker {
    fn new(
        upstreams: Vec<Box<dyn Upstream>>,
        transport: Box<dyn ServerTransport>,
        config: BrokerConfig,
    ) -> Self {
        Broker {
            upstreams: upstreams
                .into_iter()
                .map(|up| UpstreamSlot { up, done: false })
                .collect(),
            command_owner: HashMap::new(),
            next_first: 0,
            transport,
            config,
        }
    }

    fn run(mut self, stop: &AtomicBool) {
        loop {
            if stop.load(Ordering::Relaxed) {
                return; // abrupt stop: no shutdown courtesy, like a crash
            }
            match self.transport.recv_timeout(Duration::from_millis(100)) {
                Ok(msg) => self.handle(msg),
                Err(ServerRecvError::Timeout) => continue,
                Err(ServerRecvError::Closed) => return,
            }
            if self.all_done() {
                // Every upstream has finished; release the pool. A
                // worker mid-poll also gets Shutdown as its reply.
                self.transport.broadcast(ToWorker::Shutdown);
                return;
            }
        }
    }

    fn all_done(&self) -> bool {
        self.upstreams.iter().all(|s| s.done)
    }

    fn mark_done(&mut self, idx: usize) {
        self.upstreams[idx].done = true;
    }

    fn handle(&mut self, msg: ToServer) {
        match msg {
            ToServer::Batch(msgs) => {
                for m in msgs {
                    self.handle(m);
                }
            }
            ToServer::Announce { worker, desc } => {
                for idx in 0..self.upstreams.len() {
                    if self.upstreams[idx].done {
                        continue;
                    }
                    if self.upstreams[idx].up.register(worker, &desc).is_err() {
                        self.mark_done(idx);
                    }
                }
            }
            ToServer::RequestWork { worker } => {
                let n = self.upstreams.len();
                let first = self.next_first;
                self.next_first = (self.next_first + 1) % n.max(1);

                for offset in 0..n {
                    let idx = (first + offset) % n;
                    if self.upstreams[idx].done {
                        continue;
                    }
                    match self.upstreams[idx]
                        .up
                        .offer(worker, self.config.offer_patience)
                    {
                        Offer::Workload(cmds) => {
                            for cmd in &cmds {
                                self.command_owner.insert((cmd.project, cmd.id), idx);
                            }
                            let held: Vec<_> = cmds
                                .iter()
                                .map(|cmd| (cmd.project, cmd.id, cmd.attempts))
                                .collect();
                            if let Err(e) = self.transport.send(worker, ToWorker::Workload(cmds)) {
                                // The worker will never see these: hand
                                // them back to their owner as failed.
                                for (project, command, epoch) in held {
                                    self.handle(ToServer::CommandError {
                                        worker,
                                        project,
                                        command,
                                        epoch,
                                        error: e.to_string(),
                                    });
                                }
                                let _ = self.transport.send(worker, ToWorker::NoWork);
                            }
                            return;
                        }
                        Offer::NoWork => continue,
                        Offer::Done => {
                            self.mark_done(idx);
                            continue;
                        }
                    }
                }
                let _ = self.transport.send(
                    worker,
                    if self.all_done() {
                        ToWorker::Shutdown
                    } else {
                        ToWorker::NoWork
                    },
                );
            }
            ToServer::Completed { output } => {
                if let Some(idx) = self.command_owner.remove(&(output.project, output.command)) {
                    if self.upstreams[idx].up.completed(output).is_err() {
                        self.mark_done(idx);
                    }
                }
            }
            ToServer::CommandError {
                worker,
                project,
                command,
                epoch,
                error,
            } => {
                if let Some(idx) = self.command_owner.remove(&(project, command)) {
                    if self.upstreams[idx]
                        .up
                        .error(worker, project, command, epoch, error)
                        .is_err()
                    {
                        self.mark_done(idx);
                    }
                }
            }
            ToServer::Heartbeat { worker } => {
                for idx in 0..self.upstreams.len() {
                    if self.upstreams[idx].done {
                        continue;
                    }
                    if self.upstreams[idx].up.heartbeat(worker).is_err() {
                        self.mark_done(idx);
                    }
                }
            }
            ToServer::WorkerDeparted { .. } => {
                // The broker simply stops relaying the worker's
                // heartbeats; each upstream owner's watchdog draws the
                // worker-lost verdict on its own schedule.
            }
        }
    }
}

/// Handle to a running router thread.
pub struct RouterHandle {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

impl RouterHandle {
    /// Ask the router to exit at its next loop iteration, *without*
    /// notifying upstreams or workers — from their point of view this
    /// is indistinguishable from a crash (which is what the fault
    /// tests use it for).
    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    pub fn join(self) {
        let _ = self.thread.join();
    }

    pub fn stop_and_join(self) {
        self.stop();
        self.join();
    }
}

/// Spawn a router thread in front of the given upstreams, serving
/// workers through `transport`.
pub fn spawn_router(
    upstreams: Vec<Box<dyn Upstream>>,
    transport: Box<dyn ServerTransport>,
    config: BrokerConfig,
) -> RouterHandle {
    assert!(!upstreams.is_empty(), "router needs at least one upstream");
    let stop = Arc::new(AtomicBool::new(false));
    let flag = stop.clone();
    let broker = Broker::new(upstreams, transport, config);
    let thread = std::thread::spawn(move || broker.run(&flag));
    RouterHandle { stop, thread }
}

/// Spawn a broker thread in front of the given (local) server hubs.
/// Returns the hub workers should attach to, plus the broker's join
/// handle (exits when all projects finish or all workers disconnect).
pub fn spawn_broker(servers: Vec<ChannelHub>) -> (ChannelHub, JoinHandle<()>) {
    assert!(!servers.is_empty(), "broker needs at least one server");
    let (hub, transport) = channel();
    let upstreams: Vec<Box<dyn Upstream>> = servers
        .into_iter()
        .enumerate()
        .map(|(i, hub)| Box::new(LocalUpstream::new(format!("srv{i}"), hub)) as Box<dyn Upstream>)
        .collect();
    let broker = Broker::new(upstreams, Box::new(transport), BrokerConfig::default());
    let stop = Arc::new(AtomicBool::new(false));
    let handle = std::thread::spawn(move || broker.run(&stop));
    (hub, handle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{Action, Controller, ControllerCtx, ControllerEvent};
    use crate::executor::{ExecutorRegistry, SleepExecutor};
    use crate::fs::SharedFs;
    use crate::ids::ProjectId;
    use crate::monitor::Monitor;
    use crate::resources::Resources;
    use crate::server::{Server, ServerConfig};
    use crate::worker::{spawn_worker, WorkerConfig};
    use crate::CommandSpec;
    use serde_json::json;
    use std::sync::Arc;

    /// Controller that runs `n` sleep commands then finishes with its
    /// own label.
    struct SleepProject {
        label: &'static str,
        n: usize,
        done: usize,
    }

    impl Controller for SleepProject {
        fn name(&self) -> &str {
            self.label
        }
        fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
            match event {
                ControllerEvent::ProjectStarted => {
                    let specs = (0..self.n)
                        .map(|_| {
                            CommandSpec::new("sleep", Resources::new(1, 1), json!({ "millis": 2 }))
                        })
                        .collect();
                    vec![Action::Spawn(specs)]
                }
                ControllerEvent::CommandFinished(_) => {
                    self.done += 1;
                    if self.done == self.n {
                        vec![Action::FinishProject {
                            result: json!(self.label),
                        }]
                    } else {
                        vec![]
                    }
                }
                _ => vec![],
            }
        }
    }

    #[test]
    fn one_worker_pool_serves_two_projects() {
        let mut server_hubs = Vec::new();
        let mut server_threads = Vec::new();
        for (p, label) in ["alpha", "beta"].iter().enumerate() {
            let (hub, transport) = channel();
            let server = Server::new(
                ProjectId(p as u64),
                Box::new(SleepProject {
                    label,
                    n: 6,
                    done: 0,
                }),
                ServerConfig::default(),
                SharedFs::new(),
                Monitor::new(),
                Box::new(transport),
            );
            server_hubs.push(hub);
            server_threads.push(std::thread::spawn(move || server.run()));
        }
        let (broker_hub, broker_handle) = spawn_broker(server_hubs);

        let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
        let workers: Vec<_> = (0..3)
            .map(|i| {
                let id = WorkerId(i);
                spawn_worker(
                    id,
                    WorkerConfig::default(),
                    registry.clone(),
                    Box::new(broker_hub.attach(id)),
                )
            })
            .collect();
        drop(broker_hub);

        let mut results: Vec<_> = server_threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        for w in workers {
            w.join();
        }
        broker_handle.join().unwrap();

        results.sort_by_key(|r| r.project);
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].result, json!("alpha"));
        assert_eq!(results[1].result, json!("beta"));
        assert_eq!(results[0].commands_completed, 6);
        assert_eq!(results[1].commands_completed, 6);
    }

    #[test]
    fn broker_requires_servers() {
        let result = std::panic::catch_unwind(|| spawn_broker(vec![]));
        assert!(result.is_err());
    }
}
