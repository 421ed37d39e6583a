//! TCP implementations of the transport traits (§2.2 of the paper:
//! workers scattered across clusters dial the project server over
//! authenticated links).
//!
//! [`TcpServerTransport`] adapts a [`WireListener`] to
//! [`ServerTransport`]: inbound frames are decoded with
//! [`crate::codec`], the connection a message arrives on becomes that
//! worker's reply path, and a connection that sends an undecodable
//! frame is kicked — the codec is total, so garbage never reaches the
//! server loop. [`TcpWorkerTransport`] adapts a [`WireClient`]:
//! announces are pinned as session frames (replayed after every
//! reconnect), and a mid-project reconnect surfaces as
//! [`WorkerRecvError::Reconnected`] so the worker re-requests work —
//! safe under the server's attempt-epoch dedup.
//!
//! Worker *liveness* verdicts stay with the lifecycle watchdog, but the
//! transport reports what it sees: a dropped connection unmaps the
//! reply path **and** surfaces as a synthesized
//! [`ToServer::WorkerDeparted`], so the server orphans the worker's
//! in-flight commands immediately (a link evicted at the write-backlog
//! cap would otherwise sit on its commands until the heartbeat timeout).
//! If the worker reconnects, the new connection takes over the mapping
//! and its next heartbeat resurrects it — safe under the server's
//! attempt-epoch dedup.

use crate::broker::{spawn_router, BrokerConfig, LocalUpstream, RouterHandle, Upstream};
use crate::codec;
use crate::controller::Controller;
use crate::executor::ExecutorRegistry;
use crate::fs::SharedFs;
use crate::ids::{ProjectId, WorkerId};
use crate::messages::{PeerMsg, ToServer, ToWorker};
use crate::monitor::Monitor;
use crate::peer::{PeerEndpoint, PeerIdentity, PeerLink, PeerLinkConfig};
use crate::runtime::RuntimeConfig;
use crate::server::{ProjectResult, Server};
use crate::transport::{
    channel, ServerRecvError, ServerTransport, TransportClosed, Undeliverable, WorkerRecvError,
    WorkerSender, WorkerTransport,
};
use crate::worker::{spawn_worker, WorkerConfig, WorkerHandle};
use copernicus_telemetry::Telemetry;
use copernicus_wire::{
    AuthKey, ConnId, ConnectError, LinkStats, ListenerConfig, ReconnectPolicy, WireClient,
    WireEvent, WireListener,
};
use std::collections::{HashMap, VecDeque};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Server side
// ---------------------------------------------------------------------

/// [`ServerTransport`] over an authenticated TCP listener.
pub struct TcpServerTransport {
    listener: WireListener,
    /// Reply routing, learned from inbound traffic: the connection a
    /// worker's message arrived on is where its replies go.
    conn_of: HashMap<WorkerId, ConnId>,
    worker_of: HashMap<ConnId, WorkerId>,
    monitor: Option<Monitor>,
    /// Owner-side overlay state: dialing peers speak the `PeerMsg`
    /// protocol on this same listener, and their offers surface as
    /// ordinary announce/request messages from namespaced workers.
    peer: PeerEndpoint,
    /// One wire frame can expand into several server messages (a peer
    /// offer becomes announce + request); the surplus queues here.
    pending: VecDeque<ToServer>,
}

impl TcpServerTransport {
    /// Bind `addr` and start accepting authenticated connections.
    pub fn bind(
        addr: &str,
        key: AuthKey,
        config: ListenerConfig,
        stats: LinkStats,
    ) -> io::Result<TcpServerTransport> {
        Ok(TcpServerTransport {
            listener: WireListener::bind(addr, key, config, stats)?,
            conn_of: HashMap::new(),
            worker_of: HashMap::new(),
            monitor: None,
            peer: PeerEndpoint::new(
                PeerIdentity {
                    name: addr.to_string(),
                    projects: vec![ProjectId(0)],
                },
                None,
            ),
            pending: VecDeque::new(),
        })
    }

    /// Route connection-level log lines (auth failures, disconnects)
    /// into a project monitor.
    pub fn with_monitor(mut self, monitor: Monitor) -> Self {
        self.monitor = Some(monitor);
        self
    }

    /// Set the identity announced to dialing peers (and the telemetry
    /// handle their journal events go to). Without this the transport
    /// still accepts peers, introducing itself by its bind address.
    pub fn with_peer_identity(
        mut self,
        identity: PeerIdentity,
        telemetry: Option<Telemetry>,
    ) -> Self {
        self.peer = PeerEndpoint::new(identity, telemetry);
        self
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    fn log(&self, line: String) {
        if let Some(m) = &self.monitor {
            m.log(line);
        }
    }

    /// Bind a worker identity to the connection its message arrived on.
    /// A reconnected worker shows up on a fresh connection; the newest
    /// mapping wins and the stale one is forgotten.
    fn learn(&mut self, worker: WorkerId, conn: ConnId) {
        match self.conn_of.insert(worker, conn) {
            Some(old) if old != conn => {
                self.worker_of.remove(&old);
                self.worker_of.insert(conn, worker);
                self.log(format!("{worker} moved {old} -> {conn}"));
            }
            _ => {
                self.worker_of.insert(conn, worker);
            }
        }
    }

    /// Turn one wire event into at most one server message.
    fn absorb(&mut self, event: WireEvent) -> Option<ToServer> {
        match event {
            WireEvent::Connected {
                conn,
                session,
                peer,
            } => {
                self.log(format!("{conn} from {peer} (session {session:#018x})"));
                None
            }
            WireEvent::Frame { conn, payload } => match codec::decode_inbound(&payload) {
                Ok(codec::Inbound::Worker(ToServer::Batch(msgs))) => {
                    // A coalesced frame expands into its members here,
                    // so the server loop (and the reply-path learning)
                    // sees exactly the traffic of the unbatched wire.
                    for msg in msgs {
                        self.learn(msg.worker(), conn);
                        self.pending.push_back(msg);
                    }
                    self.pending.pop_front()
                }
                Ok(codec::Inbound::Worker(msg)) => {
                    self.learn(msg.worker(), conn);
                    Some(msg)
                }
                Ok(codec::Inbound::Peer(msg)) => {
                    // Replies to namespaced workers route through the
                    // peer endpoint, not `conn_of`, so no `learn` here.
                    let act = self.peer.handle(conn, msg);
                    for line in act.log {
                        self.log(line);
                    }
                    if let Some(reply) = act.reply {
                        let _ = self.listener.send(conn, &reply);
                    }
                    if act.kick {
                        self.listener.kick(conn);
                    }
                    self.pending.extend(act.inbound);
                    self.pending.pop_front()
                }
                Err(e) => {
                    // An authenticated peer speaking garbage is broken
                    // or hostile either way; drop it. Never panics,
                    // never reaches the server loop.
                    self.log(format!("{conn} sent undecodable frame ({e}); kicked"));
                    self.listener.kick(conn);
                    None
                }
            },
            WireEvent::Disconnected { conn, reason } => {
                if let Some(worker) = self.worker_of.remove(&conn) {
                    self.conn_of.remove(&worker);
                    self.log(format!("{conn} ({worker}) dropped: {reason}"));
                    // Tell the server now rather than letting the
                    // worker's commands ride out the heartbeat timeout.
                    // Only the *current* connection of a worker counts:
                    // a reconnected worker's stale link was already
                    // unmapped by `learn`, so its close lands in the
                    // anonymous branch below.
                    Some(ToServer::WorkerDeparted { worker })
                } else if let Some(peer) = self.peer.drop_conn(conn) {
                    self.log(format!("{conn} (peer '{peer}') dropped: {reason}"));
                    None
                } else {
                    self.log(format!("{conn} dropped: {reason}"));
                    None
                }
            }
            WireEvent::AuthFailed { peer, reason } => {
                self.log(format!("handshake from {peer} rejected: {reason}"));
                None
            }
        }
    }
}

impl ServerTransport for TcpServerTransport {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<ToServer, ServerRecvError> {
        if let Some(msg) = self.pending.pop_front() {
            return Ok(msg);
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.listener.recv_timeout(remaining) {
                Some(event) => {
                    if let Some(msg) = self.absorb(event) {
                        return Ok(msg);
                    }
                }
                // A TCP server is never "closed" from the workers' side;
                // it outlives any individual connection.
                None => return Err(ServerRecvError::Timeout),
            }
        }
    }

    fn try_recv(&mut self) -> Option<ToServer> {
        if let Some(msg) = self.pending.pop_front() {
            return Some(msg);
        }
        while let Some(event) = self.listener.try_recv() {
            if let Some(msg) = self.absorb(event) {
                return Some(msg);
            }
        }
        None
    }

    fn send(&mut self, worker: WorkerId, msg: ToWorker) -> Result<(), Undeliverable> {
        let (conn, frame) = if self.peer.is_delegate(worker) {
            match self.peer.delegate_frame(worker, msg) {
                Some(routed) => routed,
                None => return Ok(()),
            }
        } else {
            match self.conn_of.get(&worker) {
                Some(&conn) => (conn, codec::encode_to_worker(&msg)),
                None => return Ok(()),
            }
        };
        match self.listener.send(conn, &frame) {
            Ok(()) => Ok(()),
            // Over the frame cap: the link is fine and the worker will
            // never hear of this message, so the caller must know.
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                self.log(format!("send to {worker} on {conn} refused: {e}"));
                Err(Undeliverable(e.to_string()))
            }
            Err(_) => {
                // Connection died under us; the reader thread will emit
                // Disconnected and the maps get cleaned there.
                self.log(format!("send to {worker} on {conn} failed"));
                Ok(())
            }
        }
    }

    fn broadcast(&mut self, msg: ToWorker) {
        // Tell connected peers the project is over so they stop
        // offering workers (their links see `PeerMsg::Shutdown`).
        if matches!(msg, ToWorker::Shutdown) {
            let bytes = codec::encode_peer(&PeerMsg::Shutdown);
            for conn in self.peer.conns() {
                let _ = self.listener.send(conn, &bytes);
            }
        }
        let bytes = codec::encode_to_worker(&msg);
        for &conn in self.conn_of.values() {
            let _ = self.listener.send(conn, &bytes);
        }
    }
}

// ---------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------

/// How recently the worker loop must have sent a frame for the
/// heartbeat ticker to bet on piggybacking: within this window the
/// loop is actively talking (request/poll cycle), so the heartbeat is
/// deferred and rides in a [`ToServer::Batch`] with the next frame
/// instead of costing its own. Outside it — the worker is deep in a
/// long command — the heartbeat goes out immediately, exactly as an
/// unbatched one would, so liveness never depends on the bet.
const PIGGYBACK_WINDOW: Duration = Duration::from_millis(10);

/// Deferred-heartbeat state shared between a [`TcpWorkerTransport`]
/// and the detached senders it hands out (the heartbeat ticker).
struct Coalesce {
    /// At most one deferred heartbeat (the ticker flushes rather than
    /// defers when one is already waiting, bounding staleness to one
    /// heartbeat interval), plus when the link last sent any frame.
    state: std::sync::Mutex<(Vec<ToServer>, Instant)>,
}

impl Coalesce {
    fn new() -> std::sync::Arc<Coalesce> {
        std::sync::Arc::new(Coalesce {
            state: std::sync::Mutex::new((Vec::new(), Instant::now())),
        })
    }

    /// Fold `msg` together with anything deferred into one encoded
    /// frame (a [`ToServer::Batch`] only when there is company) and
    /// stamp the send time.
    fn take_with(&self, msg: ToServer) -> Vec<u8> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        st.1 = Instant::now();
        if st.0.is_empty() {
            codec::encode_to_server(&msg)
        } else {
            let mut msgs = std::mem::take(&mut st.0);
            msgs.push(msg);
            codec::encode_to_server(&ToServer::Batch(msgs))
        }
    }

    /// Try to defer a heartbeat. `None` means it was buffered for the
    /// next frame; otherwise the message comes back for the caller to
    /// send now (folded with any deferred company via [`take_with`]).
    fn defer(&self, msg: ToServer) -> Option<ToServer> {
        if !matches!(msg, ToServer::Heartbeat { .. }) {
            return Some(msg);
        }
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if st.0.is_empty() && st.1.elapsed() < PIGGYBACK_WINDOW {
            st.0.push(msg);
            return None;
        }
        Some(msg)
    }
}

/// [`WorkerTransport`] over a supervised, reconnecting TCP client.
pub struct TcpWorkerTransport {
    client: WireClient,
    coalesce: std::sync::Arc<Coalesce>,
}

impl TcpWorkerTransport {
    /// Dial and authenticate. Socket failures retry per `policy`; a key
    /// rejection is fatal.
    pub fn connect(
        addr: &str,
        key: AuthKey,
        policy: ReconnectPolicy,
        stats: LinkStats,
    ) -> Result<TcpWorkerTransport, ConnectError> {
        Ok(TcpWorkerTransport {
            client: WireClient::connect(addr, key, policy, stats)?,
            coalesce: Coalesce::new(),
        })
    }

    /// The worker identity minted by the handshake: both ends derive
    /// the same id from the key and the session nonces, so TCP workers
    /// need no shared id allocator.
    pub fn session_worker_id(&self) -> WorkerId {
        WorkerId(self.client.session_id())
    }
}

impl WorkerTransport for TcpWorkerTransport {
    fn announce(&mut self, msg: ToServer) -> Result<(), TransportClosed> {
        // Pinned as a session frame: replayed after every reconnect so
        // the server re-learns the reply path before any other traffic.
        self.client
            .send_session(&codec::encode_to_server(&msg))
            .map_err(|_| TransportClosed)
    }

    fn send(&mut self, msg: ToServer) -> Result<(), TransportClosed> {
        // Any deferred heartbeat rides along in the same frame.
        self.client
            .send(&self.coalesce.take_with(msg))
            .map_err(|_| TransportClosed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<ToWorker, WorkerRecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.client.recv_timeout(remaining) {
                Ok(payload) => match codec::decode_to_worker(&payload) {
                    Ok(msg) => return Ok(msg),
                    // The server is the trusted end; an undecodable
                    // frame means version skew, not an attack. Skip it
                    // and keep listening — the request will be retried
                    // on timeout.
                    Err(_) => continue,
                },
                Err(copernicus_wire::RecvError::Timeout) => return Err(WorkerRecvError::Timeout),
                Err(copernicus_wire::RecvError::Reconnected) => {
                    return Err(WorkerRecvError::Reconnected)
                }
                Err(copernicus_wire::RecvError::Closed(why)) => {
                    return Err(WorkerRecvError::Closed(why))
                }
            }
        }
    }

    fn sender(&self) -> Box<dyn WorkerSender> {
        Box::new(TcpWorkerSender {
            client: self.client.clone(),
            coalesce: self.coalesce.clone(),
        })
    }
}

struct TcpWorkerSender {
    client: WireClient,
    coalesce: std::sync::Arc<Coalesce>,
}

impl WorkerSender for TcpWorkerSender {
    fn send(&self, msg: ToServer) -> Result<(), TransportClosed> {
        // A heartbeat on a link that just carried a frame piggybacks
        // on the loop's next send instead of costing its own.
        let Some(msg) = self.coalesce.defer(msg) else {
            return Ok(());
        };
        self.client
            .send(&self.coalesce.take_with(msg))
            .map_err(|_| TransportClosed)
    }
}

// ---------------------------------------------------------------------
// Process-level wiring (what `copernicus serve` / `work` run)
// ---------------------------------------------------------------------

/// A project server listening on TCP (and, when peers are configured,
/// the router delegating idle local workers to them).
pub struct ServingProject {
    pub monitor: Monitor,
    pub shared_fs: SharedFs,
    /// The actually bound address (resolves `:0` ephemeral ports).
    pub local_addr: SocketAddr,
    server_thread: JoinHandle<ProjectResult>,
    /// Present only in the peered topology (`ServerConfig::peers`
    /// non-empty): the thread offering this server's workers to the
    /// local project and to every dialed peer.
    router: Option<RouterHandle>,
    /// Flipping this makes the server loop return abruptly — no
    /// shutdown broadcast, no result — the crash-test SIGKILL.
    kill_switch: Arc<AtomicBool>,
}

impl ServingProject {
    /// Kill the router abruptly — no shutdown courtesy to peers or
    /// workers, as if the process died. Used by fault tests to sever a
    /// delegate mid-command; a no-op in the unpeered topology.
    pub fn stop_router(&self) {
        if let Some(r) = &self.router {
            r.stop();
        }
    }

    /// SIGKILL stand-in for crash tests: the server loop stops dead at
    /// its next iteration — no shutdown broadcast to workers, no
    /// courtesy to peers, nothing flushed beyond what the WAL fsync
    /// policy already forced. `join` afterwards returns whatever
    /// counters stood at the moment of death. Restart by calling
    /// [`serve_project`] again with the same `state_dir`.
    pub fn kill(&self) {
        self.kill_switch.store(true, Ordering::Relaxed);
        if let Some(r) = &self.router {
            r.stop();
        }
    }

    /// Block until the controller finishes the project. Any router is
    /// stopped once the local project is over: this process's workers
    /// are released even if a peer's project is still running.
    pub fn join(self) -> ProjectResult {
        let result = self
            .server_thread
            .join()
            .expect("server thread must not panic");
        if let Some(r) = self.router {
            r.stop_and_join();
        }
        result
    }
}

/// Start a project server on `config.server.bind`, accepting workers
/// that present `config.server.auth_key`.
///
/// Unlike the in-process runtime there is no shared filesystem between
/// processes: remote workers run without checkpoint deposits, so a
/// faulted command restarts instead of resuming. Everything else —
/// matching, heartbeat watchdog, retry budgets, exactly-once accounting
/// — is identical.
pub fn serve_project(
    controller: Box<dyn Controller>,
    config: RuntimeConfig,
) -> io::Result<ServingProject> {
    let bind = config.server.bind.clone().ok_or_else(|| {
        io::Error::new(io::ErrorKind::InvalidInput, "ServerConfig.bind is not set")
    })?;
    let key = config.server.auth_key.ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "ServerConfig.auth_key is not set",
        )
    })?;
    let shared_fs = SharedFs::new();
    let monitor = config
        .telemetry
        .clone()
        .map(Monitor::with_telemetry)
        .unwrap_or_default();
    let stats = match &config.telemetry {
        Some(t) => LinkStats::new(t.registry(), &bind, "server"),
        None => LinkStats::detached(),
    };
    // Give the wire layer a longer leash than the lifecycle watchdog:
    // worker loss is the watchdog's verdict (2× heartbeat); the socket
    // idle timeout only reaps connections the watchdog has long since
    // written off.
    let listener_config = ListenerConfig {
        idle_timeout: (4 * config.server.heartbeat_interval).max(Duration::from_secs(5)),
        ..ListenerConfig::default()
    };
    let identity = PeerIdentity {
        name: config.server.name.clone().unwrap_or_else(|| bind.clone()),
        projects: vec![ProjectId(0)],
    };
    let transport = TcpServerTransport::bind(&bind, key, listener_config, stats)?
        .with_monitor(monitor.clone())
        .with_peer_identity(identity.clone(), config.telemetry.clone());
    let local_addr = transport.local_addr();

    let kill_switch = Arc::new(AtomicBool::new(false));

    if config.server.peers.is_empty() {
        // Unpeered: the server consumes the TCP transport directly.
        // Dial-ins from peers still work — the transport's peer
        // endpoint turns their offers into ordinary worker traffic.
        let server = Server::new(
            ProjectId(0),
            controller,
            config.server,
            shared_fs.clone(),
            monitor.clone(),
            Box::new(transport),
        )
        .with_kill_switch(kill_switch.clone());
        let server_thread = std::thread::spawn(move || server.run());
        return Ok(ServingProject {
            monitor,
            shared_fs,
            local_addr,
            server_thread,
            router: None,
            kill_switch,
        });
    }

    // Peered: the server moves onto an in-process hub and the TCP side
    // goes to a router, so every worker dialing in is offered first to
    // the local project and then to each peer in rotation.
    let peers = config.server.peers.clone();
    let heartbeat_interval = config.server.heartbeat_interval;
    let (hub, hub_transport) = channel();
    let server = Server::new(
        ProjectId(0),
        controller,
        config.server,
        shared_fs.clone(),
        monitor.clone(),
        Box::new(hub_transport),
    )
    .with_kill_switch(kill_switch.clone());
    let server_thread = std::thread::spawn(move || server.run());

    let mut upstreams: Vec<Box<dyn Upstream>> = vec![Box::new(LocalUpstream::new("local", hub))];
    let link_config = PeerLinkConfig {
        hello_timeout: config.overlay.hello_timeout,
        // Coalesced heartbeats may pool for at most a quarter of the
        // heartbeat interval, keeping their added delivery delay well
        // inside the watchdog's 2x-interval slack.
        heartbeat_flush: (heartbeat_interval / 4).min(PeerLinkConfig::default().heartbeat_flush),
        ..PeerLinkConfig::default()
    };
    for addr in &peers {
        let stats = match &config.telemetry {
            Some(t) => LinkStats::new(t.registry(), addr, "peer"),
            None => LinkStats::detached(),
        };
        let link = PeerLink::dial(addr, key, &identity, link_config.clone(), stats)
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("peer {addr}: {e}"),
                )
            })?
            .with_telemetry(config.telemetry.clone());
        monitor.log(format!("peer link up: {}", link.label()));
        upstreams.push(Box::new(link));
    }
    let router = spawn_router(
        upstreams,
        Box::new(transport),
        BrokerConfig {
            offer_patience: config.overlay.offer_patience,
        },
    );
    Ok(ServingProject {
        monitor,
        shared_fs,
        local_addr,
        server_thread,
        router: Some(router),
        kill_switch,
    })
}

/// Dial `addr` and spawn `n` workers over authenticated links. Worker
/// identities come from the handshake session ids.
///
/// Connects every link *before* starting any worker loop: if workers
/// started as soon as their own link was up, the first few could drain
/// a small backlog (finishing the project and closing the server's
/// listener) while later dials are still in flight, and those dials
/// would be refused. Two phases make the pool all-or-nothing.
pub fn connect_workers(
    addr: &str,
    key: AuthKey,
    n: usize,
    config: WorkerConfig,
    registry: ExecutorRegistry,
) -> Result<Vec<WorkerHandle>, ConnectError> {
    let transports: Vec<TcpWorkerTransport> = (0..n)
        .map(|i| {
            let stats = match &config.telemetry {
                Some(t) => LinkStats::new(t.registry(), &format!("{addr}#{i}"), "client"),
                None => LinkStats::detached(),
            };
            TcpWorkerTransport::connect(addr, key, ReconnectPolicy::default(), stats)
        })
        .collect::<Result<_, _>>()?;
    Ok(transports
        .into_iter()
        .map(|transport| {
            let id = transport.session_worker_id();
            spawn_worker(id, config.clone(), registry.clone(), Box::new(transport))
        })
        .collect())
}
