//! Server overlay: authenticated server↔server links with cross-server
//! work delegation (§2.2, Fig. 1 — the *network* of project servers
//! that routes work requests "both to specific servers, and to the
//! first server with available commands").
//!
//! Topology: a server dials its peers over the same PSK-authenticated
//! wire protocol workers use. The first frame each way is
//! [`PeerMsg::Hello`] (identity + hosted projects); after that the
//! *dialing* side pulls work for its idle workers with
//! [`PeerMsg::OfferWork`] and the *listening* side — the owner of the
//! backlog — answers with [`PeerMsg::DelegateCommand`]. Results,
//! errors and per-worker heartbeats flow back over the link. Work only
//! flows listener → dialer; peer both directions for a full mesh.
//!
//! Ownership never moves. A delegated command stays in the owner's
//! queue and ledger, dispatched to a *namespaced* synthetic worker id
//! ([`namespaced_worker`]) that stands for "worker w behind peer p".
//! The owner's ordinary lifecycle machinery — attempt epochs, the
//! heartbeat watchdog, the retry budget, exactly-once accounting —
//! then polices remote execution exactly as it does local workers:
//!
//! * the delegate forwards each of its workers' heartbeats, so the
//!   owner's watchdog tracks every remote worker individually;
//! * if the delegate (or one remote worker) dies, those heartbeats
//!   stop, the watchdog orphans the synthetic worker, and the command
//!   re-queues at the owner — no distributed state to reconcile;
//! * a result for a superseded attempt is dropped by the owner's
//!   epoch dedup like any other stale result.
//!
//! The delegate never executes work it did not just ask for: a
//! `DelegateCommand` answering an offer it has abandoned (bounded
//! patience expired, or the link bounced) is *declined* with one
//! [`PeerMsg::DelegatedError`] per command. Declining deliberately
//! burns one attempt so the owner re-queues promptly instead of
//! waiting for the watchdog — the price of never leaking a command
//! into a workload nobody is tracking.
//!
//! **Owner crash and restart.** Because ownership never moves, an
//! owner restarting from its write-ahead log (`--state-dir`, see
//! [`crate::wal`]) recovers delegated commands like any other
//! in-flight work: the namespaced synthetic worker is restored as a
//! heartbeat-tracked placeholder. If the delegate is still alive it
//! reconnects (the peer link redials), its forwarded heartbeats keep
//! the placeholder fresh, and the delegated result lands under its
//! original attempt epoch; if the delegate never returns, the watchdog
//! orphans the placeholder and the command re-queues locally. The
//! delegate side holds no durable state at all — a decline or a
//! redial resolves anything a dead owner left dangling on its side.
//!
//! Two types implement the two roles:
//!
//! * [`PeerEndpoint`] — owner side, composed into the TCP server
//!   transport ([`crate::tcp::TcpServerTransport`]). It translates
//!   peer frames into ordinary [`ToServer`] messages, so the `Server`
//!   itself is overlay-oblivious.
//! * [`PeerLink`] — delegate side, a dialing client that implements
//!   the router's [`Upstream`] trait, so the broker treats a remote
//!   peer exactly like a local project server.

use crate::codec;
use crate::command::CommandOutput;
use crate::ids::{CommandId, ProjectId, WorkerId};
use crate::messages::{PeerMsg, ToServer, ToWorker};
use crate::resources::WorkerDescription;
use copernicus_telemetry::{span_names, ActiveSpan, Telemetry};
use copernicus_wire::{
    AuthKey, ConnId, ConnectError, LinkStats, ReconnectPolicy, RecvError, WireClient,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::broker::{Offer, Upstream, UpstreamGone};
use crate::command::Command;

/// What a server calls itself on the overlay, and which projects it
/// hosts. The name keys worker-id namespacing, so it should be unique
/// per deployment (the CLI defaults it to the bind address).
#[derive(Debug, Clone)]
pub struct PeerIdentity {
    pub name: String,
    pub projects: Vec<ProjectId>,
}

/// The synthetic worker id the owner uses for "worker `remote` behind
/// peer `peer`". Keyed by the peer's *name* rather than its connection
/// or session, so the id survives a link bounce: the re-dialed peer's
/// heartbeats keep feeding the same liveness record and in-flight
/// delegations are not spuriously orphaned. FNV-1a over the name,
/// then a splitmix64-style finalizer mixing in the remote id.
pub fn namespaced_worker(peer: &str, remote: WorkerId) -> WorkerId {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in peer.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut x = h ^ remote.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    WorkerId(x)
}

// ---------------------------------------------------------------------
// Owner side
// ---------------------------------------------------------------------

/// A peer that has said `Hello` on some listener connection.
#[derive(Debug, Clone)]
pub struct PeerInfo {
    pub name: String,
    pub projects: Vec<ProjectId>,
}

/// One active delegation route: which connection and remote worker a
/// namespaced worker id stands for, plus the offer nonce the next
/// workload reply must echo.
struct Delegation {
    conn: ConnId,
    remote: WorkerId,
    offer: u64,
}

/// What [`PeerEndpoint::handle`] wants done with one inbound message.
#[derive(Default)]
pub struct PeerActions {
    /// Messages to feed the server loop (announces, work requests,
    /// rewritten results/errors, heartbeats).
    pub inbound: Vec<ToServer>,
    /// A frame to send back on the same connection (the hello reply).
    pub reply: Option<Vec<u8>>,
    /// Protocol violation: drop the connection.
    pub kick: bool,
    /// Lines for the project monitor's log.
    pub log: Vec<String>,
}

/// Owner-side peer state, composed into the TCP server transport. To
/// the server behind it, every remote worker is just another worker;
/// this endpoint does the translation both ways.
pub struct PeerEndpoint {
    identity: PeerIdentity,
    peers: HashMap<ConnId, PeerInfo>,
    route: HashMap<WorkerId, Delegation>,
}

impl PeerEndpoint {
    pub fn new(identity: PeerIdentity) -> PeerEndpoint {
        PeerEndpoint {
            identity,
            peers: HashMap::new(),
            route: HashMap::new(),
        }
    }

    /// Translate one inbound peer message.
    pub fn handle(&mut self, conn: ConnId, msg: PeerMsg) -> PeerActions {
        let mut act = PeerActions::default();
        if let PeerMsg::Hello { server, projects } = msg {
            act.log.push(format!(
                "peer '{server}' connected on {conn} ({} project(s))",
                projects.len()
            ));
            self.peers.insert(
                conn,
                PeerInfo {
                    name: server,
                    projects,
                },
            );
            act.reply = Some(codec::encode_peer(&PeerMsg::Hello {
                server: self.identity.name.clone(),
                projects: self.identity.projects.clone(),
            }));
            return act;
        }
        let Some(info) = self.peers.get(&conn) else {
            // Protocol rule: Hello first. Anything else from an
            // un-introduced connection is a broken peer.
            act.kick = true;
            act.log
                .push(format!("{conn} sent peer traffic before Hello; kicked"));
            return act;
        };
        let peer_name = info.name.clone();
        match msg {
            PeerMsg::Hello { .. } => unreachable!("handled above"),
            PeerMsg::OfferWork {
                offer,
                worker,
                desc,
            } => {
                let ns = namespaced_worker(&peer_name, worker);
                // Announce only when the synthetic worker is new or has
                // moved connections; a repeat offer just requests work
                // (which also refreshes the liveness record).
                let announce = match self.route.get(&ns) {
                    Some(d) => d.conn != conn,
                    None => true,
                };
                self.route.insert(
                    ns,
                    Delegation {
                        conn,
                        remote: worker,
                        offer,
                    },
                );
                if announce {
                    act.inbound.push(ToServer::Announce { worker: ns, desc });
                }
                act.inbound.push(ToServer::RequestWork { worker: ns });
            }
            PeerMsg::DelegatedResult { mut output } => {
                output.worker = namespaced_worker(&peer_name, output.worker);
                act.inbound.push(ToServer::Completed { output });
            }
            PeerMsg::DelegatedError {
                worker,
                project,
                command,
                epoch,
                error,
            } => {
                act.inbound.push(ToServer::CommandError {
                    worker: namespaced_worker(&peer_name, worker),
                    project,
                    command,
                    epoch,
                    error,
                });
            }
            PeerMsg::Heartbeat { worker } => {
                act.inbound.push(ToServer::Heartbeat {
                    worker: namespaced_worker(&peer_name, worker),
                });
            }
            PeerMsg::Heartbeats { workers } => {
                // One coalesced frame stands for that many individual
                // heartbeats; each still feeds its own liveness record.
                for worker in workers {
                    act.inbound.push(ToServer::Heartbeat {
                        worker: namespaced_worker(&peer_name, worker),
                    });
                }
            }
            PeerMsg::Shutdown => {
                act.log.push(format!("peer '{peer_name}' finished"));
            }
            // Owner-bound traffic only; a delegate-bound frame landing
            // here is version skew, not worth killing the link over.
            PeerMsg::DelegateCommand { .. } => {}
        }
        act
    }

    /// Whether `worker` is a namespaced delegate rather than a directly
    /// connected worker.
    pub fn is_delegate(&self, worker: WorkerId) -> bool {
        self.route.contains_key(&worker)
    }

    /// Encode a server reply bound for a namespaced worker as the peer
    /// frame its delegate expects, with the connection to send it on.
    pub fn delegate_frame(&self, worker: WorkerId, msg: ToWorker) -> Option<(ConnId, Vec<u8>)> {
        let d = self.route.get(&worker)?;
        let peer_msg = match msg {
            ToWorker::Workload(commands) => PeerMsg::DelegateCommand {
                offer: d.offer,
                worker: d.remote,
                commands,
            },
            ToWorker::NoWork => PeerMsg::DelegateCommand {
                offer: d.offer,
                worker: d.remote,
                commands: Vec::new(),
            },
            ToWorker::Shutdown => PeerMsg::Shutdown,
        };
        Some((d.conn, codec::encode_peer(&peer_msg)))
    }

    /// Connections with a completed `Hello`, for shutdown broadcast.
    pub fn conns(&self) -> Vec<ConnId> {
        self.peers.keys().copied().collect()
    }

    /// Forget a dropped connection; returns the peer's name if one was
    /// registered on it. Routes through it die too — the watchdog will
    /// orphan their in-flight commands when the heartbeats stop.
    pub fn drop_conn(&mut self, conn: ConnId) -> Option<String> {
        self.route.retain(|_, d| d.conn != conn);
        self.peers.remove(&conn).map(|p| p.name)
    }
}

// ---------------------------------------------------------------------
// Delegate side
// ---------------------------------------------------------------------

/// Tuning for a dialing peer link.
#[derive(Clone)]
pub struct PeerLinkConfig {
    /// How long [`PeerLink::dial`] waits for the remote `Hello` before
    /// proceeding without an identity (the link still works; the hello
    /// is absorbed whenever it arrives).
    pub hello_timeout: Duration,
    pub reconnect: ReconnectPolicy,
    /// How long workers' heartbeats may pool before going out as one
    /// [`PeerMsg::Heartbeats`] frame. Must stay well under the owner's
    /// watchdog slack (the added delivery delay is at most this);
    /// callers scale it down with their heartbeat interval.
    pub heartbeat_flush: Duration,
}

impl Default for PeerLinkConfig {
    fn default() -> Self {
        PeerLinkConfig {
            hello_timeout: Duration::from_secs(2),
            reconnect: ReconnectPolicy::default(),
            heartbeat_flush: Duration::from_millis(25),
        }
    }
}

const DECLINE: &str = "delegation declined (stale offer)";

/// Delegate-side link to one owning peer. Implements [`Upstream`], so
/// the router offers idle workers to it exactly as it does to local
/// project servers.
pub struct PeerLink {
    client: WireClient,
    addr: String,
    remote: Option<PeerInfo>,
    /// Descriptions of the workers the router has registered; each
    /// offer re-sends the description, so peers need no announce step.
    descs: HashMap<WorkerId, WorkerDescription>,
    next_offer: u64,
    done: bool,
    /// Local tracer for delegate-side spans (None = tracing off).
    telemetry: Option<Telemetry>,
    /// Open `delegated` spans: accepted from the owner → result (or
    /// error) forwarded back. Keyed like the broker's ownership map —
    /// command ids are only unique per project.
    holds: HashMap<(ProjectId, CommandId), ActiveSpan>,
    /// Heartbeats pooling for the next coalesced flush, and when the
    /// last flush happened.
    hb_buf: Vec<WorkerId>,
    hb_flushed: Instant,
    heartbeat_flush: Duration,
}

impl PeerLink {
    /// Dial `addr`, authenticate with `key`, introduce ourselves as
    /// `identity` (pinned, so it replays after every reconnect), and
    /// wait up to `config.hello_timeout` for the peer's own hello.
    pub fn dial(
        addr: &str,
        key: AuthKey,
        identity: &PeerIdentity,
        config: PeerLinkConfig,
        stats: LinkStats,
    ) -> Result<PeerLink, ConnectError> {
        let client = WireClient::connect(addr, key, config.reconnect, stats)?;
        let hello = codec::encode_peer(&PeerMsg::Hello {
            server: identity.name.clone(),
            projects: identity.projects.clone(),
        });
        let _ = client.send_session(&hello);
        let mut link = PeerLink {
            client,
            addr: addr.to_string(),
            remote: None,
            descs: HashMap::new(),
            next_offer: 1,
            done: false,
            telemetry: None,
            holds: HashMap::new(),
            hb_buf: Vec::new(),
            hb_flushed: Instant::now(),
            heartbeat_flush: config.heartbeat_flush,
        };
        let deadline = Instant::now() + config.hello_timeout;
        while link.remote.is_none() && !link.done {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            match link.client.recv_timeout(remaining) {
                Ok(payload) => link.absorb(&payload),
                Err(RecvError::Timeout) => break,
                Err(RecvError::Reconnected) => continue,
                Err(RecvError::Closed(_)) => link.done = true,
            }
        }
        Ok(link)
    }

    /// The peer's identity, once its hello has arrived.
    pub fn remote(&self) -> Option<&PeerInfo> {
        self.remote.as_ref()
    }

    /// Attach telemetry: accepted delegations get a `delegated` span
    /// (parented on the owner's attempt context riding in the command)
    /// that closes when the result or error is forwarded back.
    pub fn with_telemetry(mut self, telemetry: Option<Telemetry>) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Open the delegate-side hold spans for an accepted workload and
    /// re-stamp each command so local worker `exec` spans nest under
    /// the delegation rather than directly under the owner's attempt.
    fn open_holds(&mut self, commands: &mut [Command]) {
        let Some(t) = &self.telemetry else { return };
        for cmd in commands {
            let Some(ctx) = &cmd.trace else { continue };
            let mut span = t
                .tracer()
                .start_child(span_names::DELEGATED, "delegate", ctx);
            span.set_attr("command", cmd.id.to_string());
            span.set_attr("owner", self.label());
            cmd.trace = Some(span.context());
            self.holds.insert((cmd.project, cmd.id), span);
        }
    }

    /// Close one hold span with a terminal disposition.
    fn close_hold(&mut self, project: ProjectId, command: CommandId, disposition: &str) {
        if let Some(mut span) = self.holds.remove(&(project, command)) {
            span.set_attr("disposition", disposition);
            span.finish();
        }
    }

    /// Tear the link down (used when aborting the overlay).
    pub fn close(&self) {
        self.client.close();
    }

    /// Bookkeep one frame received outside an offer exchange: record
    /// hellos, honour shutdowns, and decline workloads nobody asked
    /// for so they re-queue at the owner.
    fn absorb(&mut self, payload: &[u8]) {
        match codec::decode_peer(payload) {
            Ok(PeerMsg::Hello { server, projects }) => {
                self.remote = Some(PeerInfo {
                    name: server,
                    projects,
                });
            }
            Ok(PeerMsg::Shutdown) => self.done = true,
            Ok(PeerMsg::DelegateCommand {
                worker, commands, ..
            }) => self.decline(worker, &commands),
            // Owner-bound or undecodable traffic: the peer is the
            // trusted end, skip it.
            Ok(_) | Err(_) => {}
        }
    }

    /// Refuse a workload we are not going to run: one `DelegatedError`
    /// per command, carrying the dispatch epoch, so the owner's
    /// lifecycle re-queues each command (at the cost of one attempt).
    fn decline(&mut self, worker: WorkerId, commands: &[Command]) {
        for cmd in commands {
            let msg = PeerMsg::DelegatedError {
                worker,
                project: cmd.project,
                command: cmd.id,
                epoch: cmd.attempts,
                error: DECLINE.to_string(),
            };
            if self.client.send(&codec::encode_peer(&msg)).is_err() {
                self.done = true;
                return;
            }
        }
    }

    fn push(&mut self, msg: &PeerMsg) -> Result<(), UpstreamGone> {
        if self.done {
            return Err(UpstreamGone);
        }
        if self.client.send(&codec::encode_peer(msg)).is_err() {
            self.done = true;
            return Err(UpstreamGone);
        }
        Ok(())
    }
}

impl Upstream for PeerLink {
    fn label(&self) -> String {
        match &self.remote {
            Some(r) => format!("peer '{}' ({})", r.name, self.addr),
            None => format!("peer {}", self.addr),
        }
    }

    fn register(&mut self, worker: WorkerId, desc: &WorkerDescription) -> Result<(), UpstreamGone> {
        if self.done {
            return Err(UpstreamGone);
        }
        self.descs.insert(worker, desc.clone());
        Ok(())
    }

    fn offer(&mut self, worker: WorkerId, patience: Duration) -> Offer {
        if self.done {
            return Offer::Done;
        }
        let Some(desc) = self.descs.get(&worker).cloned() else {
            return Offer::NoWork;
        };
        let offer = self.next_offer;
        self.next_offer += 1;
        let msg = PeerMsg::OfferWork {
            offer,
            worker,
            desc,
        };
        if self.client.send(&codec::encode_peer(&msg)).is_err() {
            self.done = true;
            return Offer::Done;
        }
        let deadline = Instant::now() + patience;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                // Abandon the offer. If its reply arrives later it
                // fails the nonce check below and is declined.
                return Offer::NoWork;
            }
            match self.client.recv_timeout(remaining) {
                Ok(payload) => match codec::decode_peer(&payload) {
                    Ok(PeerMsg::DelegateCommand {
                        offer: o,
                        worker: w,
                        mut commands,
                    }) => {
                        if o == offer && w == worker {
                            if commands.is_empty() {
                                return Offer::NoWork;
                            }
                            self.open_holds(&mut commands);
                            return Offer::Workload(commands);
                        }
                        // Answer to an abandoned offer: refuse it so
                        // the owner re-queues instead of leaking the
                        // commands into a workload nobody tracks.
                        self.decline(w, &commands);
                        if self.done {
                            return Offer::Done;
                        }
                    }
                    Ok(PeerMsg::Hello { server, projects }) => {
                        self.remote = Some(PeerInfo {
                            name: server,
                            projects,
                        });
                    }
                    Ok(PeerMsg::Shutdown) => {
                        self.done = true;
                        return Offer::Done;
                    }
                    Ok(_) | Err(_) => {}
                },
                Err(RecvError::Timeout) => return Offer::NoWork,
                // The link bounced; the pinned hello replayed but this
                // offer may be lost on either leg. Abandon it — a late
                // reply is refused by its stale nonce.
                Err(RecvError::Reconnected) => return Offer::NoWork,
                Err(RecvError::Closed(_)) => {
                    self.done = true;
                    return Offer::Done;
                }
            }
        }
    }

    fn completed(&mut self, output: CommandOutput) -> Result<(), UpstreamGone> {
        self.close_hold(output.project, output.command, "completed");
        self.push(&PeerMsg::DelegatedResult { output })
    }

    fn error(
        &mut self,
        worker: WorkerId,
        project: ProjectId,
        command: CommandId,
        epoch: u32,
        error: String,
    ) -> Result<(), UpstreamGone> {
        self.close_hold(project, command, "error");
        self.push(&PeerMsg::DelegatedError {
            worker,
            project,
            command,
            epoch,
            error,
        })
    }

    fn heartbeat(&mut self, worker: WorkerId) -> Result<(), UpstreamGone> {
        if self.done {
            return Err(UpstreamGone);
        }
        // Pool heartbeats and flush them as one frame per window: a
        // delegate fronting hundreds of workers costs the owner one
        // coalesced frame instead of one frame per worker. Repeats
        // within a window collapse — a heartbeat carries no payload
        // beyond "this worker is alive now".
        if !self.hb_buf.contains(&worker) {
            self.hb_buf.push(worker);
        }
        if self.hb_flushed.elapsed() >= self.heartbeat_flush {
            let workers = std::mem::take(&mut self.hb_buf);
            self.hb_flushed = Instant::now();
            return self.push(&PeerMsg::Heartbeats { workers });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespacing_is_stable_and_peer_scoped() {
        let a1 = namespaced_worker("alpha", WorkerId(1));
        assert_eq!(a1, namespaced_worker("alpha", WorkerId(1)));
        assert_ne!(a1, namespaced_worker("alpha", WorkerId(2)));
        assert_ne!(a1, namespaced_worker("beta", WorkerId(1)));
        // Synthetic ids must not collide with small local ids.
        assert!(a1.0 > u32::MAX as u64);
    }

    #[test]
    fn offer_before_hello_is_kicked() {
        let mut ep = PeerEndpoint::new(PeerIdentity {
            name: "owner".into(),
            projects: vec![ProjectId(0)],
        });
        let act = ep.handle(
            ConnId(1),
            PeerMsg::Heartbeat {
                worker: WorkerId(1),
            },
        );
        assert!(act.kick);
        assert!(act.inbound.is_empty());
    }

    #[test]
    fn hello_registers_and_offers_become_requests() {
        let mut ep = PeerEndpoint::new(PeerIdentity {
            name: "owner".into(),
            projects: vec![ProjectId(0)],
        });
        let act = ep.handle(
            ConnId(1),
            PeerMsg::Hello {
                server: "beta".into(),
                projects: vec![],
            },
        );
        assert!(act.reply.is_some());
        assert!(!act.kick);

        let desc = WorkerDescription {
            platform: crate::resources::Platform::Smp,
            resources: crate::resources::Resources::new(1, 64),
            executables: vec![],
        };
        let act = ep.handle(
            ConnId(1),
            PeerMsg::OfferWork {
                offer: 7,
                worker: WorkerId(3),
                desc: desc.clone(),
            },
        );
        let ns = namespaced_worker("beta", WorkerId(3));
        assert_eq!(act.inbound.len(), 2);
        assert!(matches!(
            act.inbound[0],
            ToServer::Announce { worker, .. } if worker == ns
        ));
        assert!(matches!(
            act.inbound[1],
            ToServer::RequestWork { worker } if worker == ns
        ));
        assert!(ep.is_delegate(ns));

        // A repeat offer on the same connection skips the announce.
        let act = ep.handle(
            ConnId(1),
            PeerMsg::OfferWork {
                offer: 8,
                worker: WorkerId(3),
                desc,
            },
        );
        assert_eq!(act.inbound.len(), 1);
        assert!(matches!(act.inbound[0], ToServer::RequestWork { .. }));

        // Replies for the namespaced worker become DelegateCommand
        // frames echoing the latest offer nonce.
        let (conn, frame) = ep.delegate_frame(ns, ToWorker::NoWork).unwrap();
        assert_eq!(conn, ConnId(1));
        match codec::decode_peer(&frame).unwrap() {
            PeerMsg::DelegateCommand {
                offer,
                worker,
                commands,
            } => {
                assert_eq!(offer, 8);
                assert_eq!(worker, WorkerId(3));
                assert!(commands.is_empty());
            }
            other => panic!("unexpected frame: {other:?}"),
        }

        // Dropping the connection forgets the peer and its routes.
        assert_eq!(ep.drop_conn(ConnId(1)).as_deref(), Some("beta"));
        assert!(!ep.is_delegate(ns));
    }

    #[test]
    fn results_and_heartbeats_are_renamespaced() {
        let mut ep = PeerEndpoint::new(PeerIdentity {
            name: "owner".into(),
            projects: vec![],
        });
        ep.handle(
            ConnId(2),
            PeerMsg::Hello {
                server: "gamma".into(),
                projects: vec![],
            },
        );
        let act = ep.handle(
            ConnId(2),
            PeerMsg::Heartbeat {
                worker: WorkerId(5),
            },
        );
        let ns = namespaced_worker("gamma", WorkerId(5));
        assert!(matches!(
            act.inbound[0],
            ToServer::Heartbeat { worker } if worker == ns
        ));
        // A coalesced heartbeat frame expands to one namespaced
        // heartbeat per named worker, in order.
        let act = ep.handle(
            ConnId(2),
            PeerMsg::Heartbeats {
                workers: vec![WorkerId(5), WorkerId(6)],
            },
        );
        assert_eq!(act.inbound.len(), 2);
        assert!(matches!(
            act.inbound[0],
            ToServer::Heartbeat { worker } if worker == ns
        ));
        assert!(matches!(
            act.inbound[1],
            ToServer::Heartbeat { worker }
                if worker == namespaced_worker("gamma", WorkerId(6))
        ));
        let act = ep.handle(
            ConnId(2),
            PeerMsg::DelegatedError {
                worker: WorkerId(5),
                project: ProjectId(0),
                command: CommandId(9),
                epoch: 1,
                error: "boom".into(),
            },
        );
        assert!(matches!(
            act.inbound[0],
            ToServer::CommandError { worker, .. } if worker == ns
        ));
    }
}
