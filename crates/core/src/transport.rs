//! Transport-agnostic message plumbing between servers and workers.
//!
//! The server and worker loops are written against two small traits —
//! [`ServerTransport`] and [`WorkerTransport`] — instead of concrete
//! channels or sockets. Two implementations exist:
//!
//! * the **channel transport** in this module: `std::sync::mpsc` inside
//!   one process (tests, `run_project`, the broker's upstream links);
//! * the **TCP transport** in [`crate::tcp`]: authenticated
//!   length-prefixed frames over real sockets (`copernicus serve` /
//!   `copernicus work`).
//!
//! The paper's deployment (§2.2) is the second shape — workers scattered
//! over clusters dial the project server over SSL links — but its
//! message protocol is transport-free, which is the property these
//! traits encode: `Server` and `Worker` cannot tell which one they run
//! on.
//!
//! Reply routing lives *here*, not in the messages: a worker's return
//! path is the channel (or connection) it announced on. The channel
//! transport carries that pairing on an internal `Lane::Register` sent
//! once per attach; the TCP transport derives it from the connection a
//! message arrives on.

use crate::ids::WorkerId;
use crate::messages::{ToServer, ToWorker};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError};
use std::time::{Duration, Instant};

/// The peer is gone and will not come back (project over, process
/// exiting). Distinct from a transient link failure, which transports
/// absorb internally (reconnect) or surface as
/// [`WorkerRecvError::Reconnected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportClosed;

impl std::fmt::Display for TransportClosed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("transport closed")
    }
}

impl std::error::Error for TransportClosed {}

/// Why a server-side receive returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerRecvError {
    /// Nothing arrived within the timeout; the transport is healthy.
    Timeout,
    /// No worker can ever reach this server again.
    Closed,
}

/// A message the transport can never deliver as it stands — today, one
/// that encodes past the wire's frame cap. Unlike a lost link this is
/// nobody's liveness problem: the worker is healthy and will never see
/// the message, so the sender has to take the work back itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Undeliverable(pub String);

impl std::fmt::Display for Undeliverable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "undeliverable: {}", self.0)
    }
}

impl std::error::Error for Undeliverable {}

/// The server's view of its worker population.
///
/// Sends are **best-effort and non-blocking in spirit**: a message to a
/// missing or disconnected worker is silently dropped. Worker liveness
/// is the lifecycle watchdog's job (heartbeat timeout → orphan →
/// re-queue), not the transport's — a dropped reply manifests as the
/// worker re-requesting work, which the attempt-epoch dedup makes safe.
/// The one failure `send` does report is [`Undeliverable`], which no
/// watchdog would ever notice.
pub trait ServerTransport: Send {
    /// Wait up to `timeout` for the next worker message.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<ToServer, ServerRecvError>;

    /// Non-blocking receive; `None` when nothing is immediately ready.
    fn try_recv(&mut self) -> Option<ToServer>;

    /// Send to one worker (the reply path learned from its announce).
    fn send(&mut self, worker: WorkerId, msg: ToWorker) -> Result<(), Undeliverable>;

    /// Send to every worker with a known reply path.
    fn broadcast(&mut self, msg: ToWorker);
}

/// Why a worker-side receive returned nothing.
#[derive(Debug)]
pub enum WorkerRecvError {
    /// Nothing arrived within the timeout; the link is healthy.
    Timeout,
    /// The link dropped and was re-established. In-flight replies may
    /// be lost; the worker should re-issue its request (duplicates are
    /// deduplicated server-side by attempt epoch).
    Reconnected,
    /// The link is permanently gone.
    Closed(String),
}

/// A cloneable send-only handle for auxiliary worker threads (the
/// heartbeat ticker), detached from the receiving half.
pub trait WorkerSender: Send {
    fn send(&self, msg: ToServer) -> Result<(), TransportClosed>;
}

/// One worker's link to its server.
pub trait WorkerTransport: Send {
    /// Present the worker to the server. Transports that can lose the
    /// link mid-project pin this message and replay it after every
    /// reconnect, so the server always knows the return path.
    fn announce(&mut self, msg: ToServer) -> Result<(), TransportClosed>;

    /// Send a message upstream.
    fn send(&mut self, msg: ToServer) -> Result<(), TransportClosed>;

    /// Wait up to `timeout` for the next server message.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<ToWorker, WorkerRecvError>;

    /// A detached sender for the heartbeat thread.
    fn sender(&self) -> Box<dyn WorkerSender>;
}

// ---------------------------------------------------------------------
// In-process channel implementation
// ---------------------------------------------------------------------

/// What travels on the shared worker→server channel. `Register` is the
/// transport-internal replacement for the reply `Sender` that used to
/// ride inside `ToServer::Announce`: it pairs a worker id with its
/// reply channel exactly once, before any data from that worker.
enum Lane {
    Register {
        worker: WorkerId,
        reply: SyncSender<ToWorker>,
    },
    Data(ToServer),
}

/// Capacity of each worker's reply channel. A worker has at most two
/// outstanding requests (the workload it runs next and the one in hand
/// behind it, see [`crate::worker`]), so this never fills in practice;
/// bounding it keeps a wedged worker from buffering unbounded workloads.
const REPLY_CAPACITY: usize = 4;

/// Factory handle for attaching workers to a channel-transport server.
/// Clone freely; drop every clone (and every attached worker transport)
/// to close the server's inbox.
#[derive(Clone)]
pub struct ChannelHub {
    tx: Sender<Lane>,
}

impl ChannelHub {
    /// Create a worker-side transport wired to this hub's server.
    ///
    /// The registration ride-along is sent here — on the same ordered
    /// channel as all subsequent data — so the server is guaranteed to
    /// learn the reply path before the first message that needs it.
    pub fn attach(&self, worker: WorkerId) -> ChannelWorkerTransport {
        let (reply_tx, reply_rx) = mpsc::sync_channel(REPLY_CAPACITY);
        let _ = self.tx.send(Lane::Register {
            worker,
            reply: reply_tx,
        });
        ChannelWorkerTransport {
            tx: self.tx.clone(),
            reply: reply_rx,
        }
    }

    /// Send upstream without registering a reply path. For relays (the
    /// broker) that route replies themselves and only forward results,
    /// errors and heartbeats.
    pub fn send(&self, msg: ToServer) -> Result<(), TransportClosed> {
        self.tx.send(Lane::Data(msg)).map_err(|_| TransportClosed)
    }
}

/// Server half of the channel transport.
pub struct ChannelServerTransport {
    rx: Receiver<Lane>,
    replies: std::collections::HashMap<WorkerId, SyncSender<ToWorker>>,
}

/// Create a connected (hub, server transport) pair.
pub fn channel() -> (ChannelHub, ChannelServerTransport) {
    let (tx, rx) = mpsc::channel();
    (
        ChannelHub { tx },
        ChannelServerTransport {
            rx,
            replies: std::collections::HashMap::new(),
        },
    )
}

impl ChannelServerTransport {
    /// Registrations are transport bookkeeping, not messages; absorb
    /// them and keep waiting for data until the deadline.
    fn absorb(&mut self, lane: Lane) -> Option<ToServer> {
        match lane {
            Lane::Register { worker, reply } => {
                self.replies.insert(worker, reply);
                None
            }
            Lane::Data(msg) => Some(msg),
        }
    }
}

impl ServerTransport for ChannelServerTransport {
    fn recv_timeout(&mut self, timeout: Duration) -> Result<ToServer, ServerRecvError> {
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match self.rx.recv_timeout(remaining) {
                Ok(lane) => {
                    if let Some(msg) = self.absorb(lane) {
                        return Ok(msg);
                    }
                }
                Err(RecvTimeoutError::Timeout) => return Err(ServerRecvError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(ServerRecvError::Closed),
            }
        }
    }

    fn try_recv(&mut self) -> Option<ToServer> {
        loop {
            match self.rx.try_recv() {
                Ok(lane) => {
                    if let Some(msg) = self.absorb(lane) {
                        return Some(msg);
                    }
                }
                Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => return None,
            }
        }
    }

    fn send(&mut self, worker: WorkerId, msg: ToWorker) -> Result<(), Undeliverable> {
        if let Some(reply) = self.replies.get(&worker) {
            if reply.send(msg).is_err() {
                // The worker hung up; forget the path so broadcasts
                // stop paying for it.
                self.replies.remove(&worker);
            }
        }
        Ok(())
    }

    fn broadcast(&mut self, msg: ToWorker) {
        self.replies
            .retain(|_, reply| reply.send(msg.clone()).is_ok());
    }
}

/// Worker half of the channel transport.
pub struct ChannelWorkerTransport {
    tx: Sender<Lane>,
    reply: Receiver<ToWorker>,
}

impl WorkerTransport for ChannelWorkerTransport {
    fn announce(&mut self, msg: ToServer) -> Result<(), TransportClosed> {
        // Registration already happened in `ChannelHub::attach`; the
        // announce itself is ordinary data.
        self.send(msg)
    }

    fn send(&mut self, msg: ToServer) -> Result<(), TransportClosed> {
        self.tx.send(Lane::Data(msg)).map_err(|_| TransportClosed)
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<ToWorker, WorkerRecvError> {
        match self.reply.recv_timeout(timeout) {
            Ok(msg) => Ok(msg),
            Err(RecvTimeoutError::Timeout) => Err(WorkerRecvError::Timeout),
            Err(RecvTimeoutError::Disconnected) => {
                Err(WorkerRecvError::Closed("server hung up".to_string()))
            }
        }
    }

    fn sender(&self) -> Box<dyn WorkerSender> {
        Box::new(ChannelWorkerSender {
            tx: self.tx.clone(),
        })
    }
}

struct ChannelWorkerSender {
    tx: Sender<Lane>,
}

impl WorkerSender for ChannelWorkerSender {
    fn send(&self, msg: ToServer) -> Result<(), TransportClosed> {
        self.tx.send(Lane::Data(msg)).map_err(|_| TransportClosed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resources::{Platform, Resources, WorkerDescription};

    fn desc() -> WorkerDescription {
        WorkerDescription {
            platform: Platform::Smp,
            resources: Resources::new(1, 64),
            executables: vec![],
        }
    }

    #[test]
    fn register_precedes_data_and_replies_route() {
        let (hub, mut server) = channel();
        let mut worker = hub.attach(WorkerId(1));
        worker
            .announce(ToServer::Announce {
                worker: WorkerId(1),
                desc: desc(),
            })
            .unwrap();

        // The first *message* out is the announce; the registration was
        // absorbed silently and the reply path already works.
        let msg = server.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(matches!(
            msg,
            ToServer::Announce {
                worker: WorkerId(1),
                ..
            }
        ));
        assert_eq!(server.send(WorkerId(1), ToWorker::NoWork), Ok(()));
        assert!(matches!(
            worker.recv_timeout(Duration::from_secs(1)),
            Ok(ToWorker::NoWork)
        ));
    }

    #[test]
    fn send_to_unknown_worker_is_dropped_not_panicked() {
        let (_hub, mut server) = channel();
        assert_eq!(server.send(WorkerId(99), ToWorker::Shutdown), Ok(()));
        server.broadcast(ToWorker::Shutdown);
    }

    #[test]
    fn broadcast_reaches_every_attached_worker() {
        let (hub, mut server) = channel();
        let mut a = hub.attach(WorkerId(1));
        let mut b = hub.attach(WorkerId(2));
        // Drain the registrations by waiting for the timeout.
        assert!(matches!(
            server.recv_timeout(Duration::from_millis(10)),
            Err(ServerRecvError::Timeout)
        ));
        server.broadcast(ToWorker::Shutdown);
        assert!(matches!(
            a.recv_timeout(Duration::from_secs(1)),
            Ok(ToWorker::Shutdown)
        ));
        assert!(matches!(
            b.recv_timeout(Duration::from_secs(1)),
            Ok(ToWorker::Shutdown)
        ));
    }

    #[test]
    fn dropping_all_senders_closes_the_server_inbox() {
        let (hub, mut server) = channel();
        let worker = hub.attach(WorkerId(1));
        drop(hub);
        drop(worker);
        assert!(matches!(
            server.recv_timeout(Duration::from_secs(1)),
            Err(ServerRecvError::Closed)
        ));
        assert!(server.try_recv().is_none());
    }

    #[test]
    fn detached_sender_outlives_borrow_of_transport() {
        let (hub, mut server) = channel();
        let worker = hub.attach(WorkerId(1));
        let sender = worker.sender();
        std::thread::spawn(move || {
            sender
                .send(ToServer::Heartbeat {
                    worker: WorkerId(1),
                })
                .unwrap();
        })
        .join()
        .unwrap();
        let msg = server.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(matches!(
            msg,
            ToServer::Heartbeat {
                worker: WorkerId(1)
            }
        ));
        drop(worker);
    }

    #[test]
    fn worker_recv_reports_closed_when_server_drops() {
        let (hub, server) = channel();
        let mut worker = hub.attach(WorkerId(1));
        drop(server);
        assert!(matches!(
            worker.recv_timeout(Duration::from_millis(50)),
            Err(WorkerRecvError::Closed(_))
        ));
    }
}
