//! Message-level simulation over an [`Overlay`]: transfers, heartbeats,
//! worker-failure detection (§2.3 of the paper), and per-link traffic
//! accounting (Figs. 6 and 9).

use crate::events::EventQueue;
use crate::network::{NodeId, NodeRole, Overlay};
use copernicus_telemetry::{labels, names, Event as JournalEvent, Labels, Telemetry};
use std::collections::HashMap;

/// Why a message is being sent (used for traffic accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MessageKind {
    /// Worker → server: 200-byte liveness report (paper default every
    /// 120 s).
    Heartbeat,
    /// Server → worker: command specification / input data.
    Workload,
    /// Worker → server: command output (trajectory data).
    Output,
    /// Control-plane chatter (routing, monitoring).
    Control,
}

impl MessageKind {
    /// Stable label value for the `net_bytes` counter series.
    pub fn tag(self) -> &'static str {
        match self {
            MessageKind::Heartbeat => "heartbeat",
            MessageKind::Workload => "workload",
            MessageKind::Output => "output",
            MessageKind::Control => "control",
        }
    }
}

/// A record the simulation emits.
#[derive(Debug, Clone, PartialEq)]
pub enum NetRecord {
    Delivered {
        time: f64,
        src: NodeId,
        dst: NodeId,
        kind: MessageKind,
        bytes: u64,
    },
    Undeliverable {
        time: f64,
        src: NodeId,
        dst: NodeId,
        kind: MessageKind,
    },
    WorkerLost {
        time: f64,
        server: NodeId,
        worker: NodeId,
    },
}

enum Event {
    /// A message finishes traversing one hop.
    HopDone {
        src: NodeId,
        dst: NodeId,
        path: Vec<NodeId>,
        hop: usize,
        kind: MessageKind,
        bytes: u64,
    },
    /// A worker's next heartbeat is due.
    HeartbeatDue { worker: NodeId, server: NodeId },
    /// Server-side liveness check for a worker.
    Watchdog { server: NodeId, worker: NodeId },
    /// Node failure injection.
    NodeFails { node: NodeId },
}

/// Heartbeat configuration: interval and payload size (paper §2.3:
/// 120 s default, "message size typically less than 200 bytes", timeout
/// after twice the interval).
#[derive(Debug, Clone, Copy)]
pub struct HeartbeatConfig {
    pub interval: f64,
    pub payload_bytes: u64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: 120.0,
            payload_bytes: 200,
        }
    }
}

/// The network simulator.
pub struct NetSim {
    pub overlay: Overlay,
    queue: EventQueue<Event>,
    clock: f64,
    failed: Vec<bool>,
    /// (server, worker) → time of last received heartbeat.
    last_heartbeat: HashMap<(NodeId, NodeId), f64>,
    /// (server, worker) → already declared lost.
    declared_lost: HashMap<(NodeId, NodeId), bool>,
    heartbeat_cfg: HeartbeatConfig,
    /// Traffic accounting: per-link carried bytes become
    /// `net_link_bytes{link,level}` counters, delivered payload becomes
    /// `net_bytes{kind}` counters, and worker losses are journaled. A
    /// private handle by default; attach a shared one to fold the network
    /// levels into a project-wide report (Figs. 6 and 9).
    telemetry: Telemetry,
    records: Vec<NetRecord>,
}

impl NetSim {
    pub fn new(overlay: Overlay) -> Self {
        let n = overlay.n_nodes();
        NetSim {
            overlay,
            queue: EventQueue::new(),
            clock: 0.0,
            failed: vec![false; n],
            last_heartbeat: HashMap::new(),
            declared_lost: HashMap::new(),
            heartbeat_cfg: HeartbeatConfig::default(),
            telemetry: Telemetry::new(),
            records: Vec::new(),
        }
    }

    pub fn with_heartbeat_config(mut self, cfg: HeartbeatConfig) -> Self {
        self.heartbeat_cfg = cfg;
        self
    }

    /// Account traffic into a shared telemetry handle instead of the
    /// simulator-private one.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// The telemetry handle traffic is accounted into.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    pub fn now(&self) -> f64 {
        self.clock
    }

    pub fn records(&self) -> &[NetRecord] {
        &self.records
    }

    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed[node.0 as usize]
    }

    /// Queue a message for delivery (routed at send time).
    pub fn send(&mut self, at: f64, src: NodeId, dst: NodeId, kind: MessageKind, bytes: u64) {
        match self.overlay.route(src, dst) {
            Some(path) if path.len() >= 2 => {
                let first_hop_time =
                    at + self
                        .overlay
                        .link(path[0], path[1])
                        .expect("route follows links")
                        .transfer_time(bytes);
                self.queue.push(
                    first_hop_time,
                    Event::HopDone {
                        src,
                        dst,
                        path,
                        hop: 1,
                        kind,
                        bytes,
                    },
                );
            }
            Some(_) => {
                // src == dst: instant local delivery.
                self.records.push(NetRecord::Delivered {
                    time: at,
                    src,
                    dst,
                    kind,
                    bytes,
                });
            }
            None => {
                self.records.push(NetRecord::Undeliverable {
                    time: at,
                    src,
                    dst,
                    kind,
                });
            }
        }
    }

    /// Start periodic heartbeats from `worker` to `server`, with the
    /// server's watchdog (timeout = 2 × interval).
    pub fn start_heartbeats(&mut self, at: f64, worker: NodeId, server: NodeId) {
        self.last_heartbeat.insert((server, worker), at);
        self.declared_lost.insert((server, worker), false);
        self.queue
            .push(at + self.heartbeat_cfg.interval, Event::HeartbeatDue { worker, server });
        self.queue.push(
            at + 2.0 * self.heartbeat_cfg.interval,
            Event::Watchdog { server, worker },
        );
    }

    /// Inject a node failure at the given time.
    pub fn fail_node_at(&mut self, at: f64, node: NodeId) {
        self.queue.push(at, Event::NodeFails { node });
    }

    /// Run the simulation until the event queue is exhausted or the clock
    /// passes `t_end`. Returns the records emitted during this call.
    pub fn run_until(&mut self, t_end: f64) -> Vec<NetRecord> {
        let start_records = self.records.len();
        while let Some(peek) = self.queue.peek_time() {
            if peek > t_end {
                break;
            }
            let (time, event) = self.queue.pop().expect("peeked");
            self.clock = time;
            self.handle(time, event);
        }
        self.clock = self.clock.max(t_end);
        self.records[start_records..].to_vec()
    }

    fn handle(&mut self, time: f64, event: Event) {
        match event {
            Event::HopDone {
                src,
                dst,
                path,
                hop,
                kind,
                bytes,
            } => {
                let from = path[hop - 1];
                let to = path[hop];
                // Account traffic on the traversed link.
                self.telemetry
                    .registry()
                    .counter(names::NET_LINK_BYTES, self.link_labels(from, to))
                    .add(bytes);
                if self.is_failed(to) {
                    self.records.push(NetRecord::Undeliverable {
                        time,
                        src,
                        dst,
                        kind,
                    });
                    return;
                }
                if hop + 1 == path.len() {
                    self.telemetry
                        .registry()
                        .counter(names::NET_BYTES, labels(&[("kind", kind.tag())]))
                        .add(bytes);
                    if kind == MessageKind::Heartbeat {
                        self.last_heartbeat.insert((dst, src), time);
                    }
                    self.records.push(NetRecord::Delivered {
                        time,
                        src,
                        dst,
                        kind,
                        bytes,
                    });
                } else {
                    let next_time = time
                        + self
                            .overlay
                            .link(path[hop], path[hop + 1])
                            .expect("route follows links")
                            .transfer_time(bytes);
                    self.queue.push(
                        next_time,
                        Event::HopDone {
                            src,
                            dst,
                            path,
                            hop: hop + 1,
                            kind,
                            bytes,
                        },
                    );
                }
            }
            Event::HeartbeatDue { worker, server } => {
                if self.is_failed(worker) {
                    return; // dead workers stop beating; no reschedule
                }
                self.send(
                    time,
                    worker,
                    server,
                    MessageKind::Heartbeat,
                    self.heartbeat_cfg.payload_bytes,
                );
                self.queue.push(
                    time + self.heartbeat_cfg.interval,
                    Event::HeartbeatDue { worker, server },
                );
            }
            Event::Watchdog { server, worker } => {
                if *self.declared_lost.get(&(server, worker)).unwrap_or(&true) {
                    return;
                }
                let last = *self
                    .last_heartbeat
                    .get(&(server, worker))
                    .unwrap_or(&f64::NEG_INFINITY);
                if time - last > 2.0 * self.heartbeat_cfg.interval {
                    self.declared_lost.insert((server, worker), true);
                    self.telemetry
                        .journal()
                        .record(JournalEvent::WorkerLost { worker: worker.0 });
                    self.records.push(NetRecord::WorkerLost {
                        time,
                        server,
                        worker,
                    });
                } else {
                    self.queue.push(
                        time + self.heartbeat_cfg.interval,
                        Event::Watchdog { server, worker },
                    );
                }
            }
            Event::NodeFails { node } => {
                self.failed[node.0 as usize] = true;
            }
        }
    }

    /// Labels identifying an undirected link: its endpoint names and the
    /// level pair it connects (the Figs. 6/9 breakdown).
    fn link_labels(&self, a: NodeId, b: NodeId) -> Labels {
        let (a, b) = link_key(a, b);
        let link = format!("{}<->{}", self.overlay.name(a), self.overlay.name(b));
        labels(&[
            ("link", &link),
            ("level", level_label(self.overlay.role(a), self.overlay.role(b))),
        ])
    }

    /// Total bytes carried by a specific link so far.
    pub fn link_traffic(&self, a: NodeId, b: NodeId) -> u64 {
        self.telemetry
            .registry()
            .find_counter(names::NET_LINK_BYTES, &self.link_labels(a, b))
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Total bytes carried across all links of one level pair (e.g.
    /// `"relay-worker"`).
    pub fn level_traffic(&self, level: &str) -> u64 {
        self.telemetry
            .registry()
            .counter_series(names::NET_LINK_BYTES)
            .into_iter()
            .filter(|(l, _)| l.iter().any(|(k, v)| k == "level" && v == level))
            .map(|(_, total)| total)
            .sum()
    }

    /// Delivered payload bytes by message kind.
    pub fn traffic_by_kind(&self, kind: MessageKind) -> u64 {
        self.telemetry
            .registry()
            .find_counter(names::NET_BYTES, &labels(&[("kind", kind.tag())]))
            .map(|c| c.get())
            .unwrap_or(0)
    }

    /// Average bandwidth (bytes/s) of a given kind over `elapsed` seconds.
    pub fn average_bandwidth(&self, kind: MessageKind, elapsed: f64) -> f64 {
        assert!(elapsed > 0.0);
        self.traffic_by_kind(kind) as f64 / elapsed
    }
}

fn link_key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

fn role_tag(role: NodeRole) -> &'static str {
    match role {
        NodeRole::ProjectServer => "server",
        NodeRole::RelayServer => "relay",
        NodeRole::Worker => "worker",
        NodeRole::Client => "client",
    }
}

/// Order-independent level pair, e.g. `"relay-worker"`.
fn level_label(a: NodeRole, b: NodeRole) -> &'static str {
    let (mut x, mut y) = (role_tag(a), role_tag(b));
    if x > y {
        std::mem::swap(&mut x, &mut y);
    }
    match (x, y) {
        ("client", "client") => "client-client",
        ("client", "relay") => "client-relay",
        ("client", "server") => "client-server",
        ("client", "worker") => "client-worker",
        ("relay", "relay") => "relay-relay",
        ("relay", "server") => "relay-server",
        ("relay", "worker") => "relay-worker",
        ("server", "server") => "server-server",
        ("server", "worker") => "server-worker",
        ("worker", "worker") => "worker-worker",
        _ => unreachable!("role tags are sorted"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{fig1_topology, Link, NodeRole};

    fn pair() -> (Overlay, NodeId, NodeId) {
        let mut net = Overlay::new();
        let s = net.add_node("server", NodeRole::ProjectServer);
        let w = net.add_node("worker", NodeRole::Worker);
        net.connect_trusted(s, w, Link::new(0.5, 1000.0));
        (net, s, w)
    }

    #[test]
    fn message_delivery_timing() {
        let (net, s, w) = pair();
        let mut sim = NetSim::new(net);
        sim.send(0.0, w, s, MessageKind::Output, 500);
        let recs = sim.run_until(10.0);
        assert_eq!(recs.len(), 1);
        match &recs[0] {
            NetRecord::Delivered { time, bytes, .. } => {
                assert!((time - 1.0).abs() < 1e-12); // 0.5 latency + 0.5 transfer
                assert_eq!(*bytes, 500);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
    }

    #[test]
    fn multihop_accounting() {
        let mut net = Overlay::new();
        let a = net.add_node("a", NodeRole::ProjectServer);
        let m = net.add_node("m", NodeRole::RelayServer);
        let b = net.add_node("b", NodeRole::Worker);
        net.connect_trusted(a, m, Link::new(0.1, 1e6));
        net.connect_trusted(m, b, Link::new(0.1, 1e6));
        let mut sim = NetSim::new(net);
        sim.send(0.0, b, a, MessageKind::Output, 1_000_000);
        sim.run_until(100.0);
        // Both links carried the payload once.
        assert_eq!(sim.link_traffic(a, m), 1_000_000);
        assert_eq!(sim.link_traffic(m, b), 1_000_000);
        assert_eq!(sim.traffic_by_kind(MessageKind::Output), 1_000_000);
    }

    #[test]
    fn heartbeats_flow_until_failure() {
        let (net, s, w) = pair();
        let mut sim = NetSim::new(net).with_heartbeat_config(HeartbeatConfig {
            interval: 10.0,
            payload_bytes: 200,
        });
        sim.start_heartbeats(0.0, w, s);
        sim.fail_node_at(35.0, w);
        let recs = sim.run_until(200.0);
        let beats = recs
            .iter()
            .filter(|r| matches!(r, NetRecord::Delivered { kind: MessageKind::Heartbeat, .. }))
            .count();
        // Due at 10, 20, 30 — then the worker dies.
        assert_eq!(beats, 3);
        // The watchdog declares the worker lost within ~2 intervals of the
        // last heartbeat.
        let lost: Vec<&NetRecord> = recs
            .iter()
            .filter(|r| matches!(r, NetRecord::WorkerLost { .. }))
            .collect();
        assert_eq!(lost.len(), 1);
        if let NetRecord::WorkerLost { time, worker, server } = lost[0] {
            assert_eq!(*worker, w);
            assert_eq!(*server, s);
            assert!(*time > 35.0 && *time <= 60.0, "lost at {time}");
        }
    }

    #[test]
    fn healthy_worker_is_never_declared_lost() {
        let (net, s, w) = pair();
        let mut sim = NetSim::new(net).with_heartbeat_config(HeartbeatConfig {
            interval: 5.0,
            payload_bytes: 200,
        });
        sim.start_heartbeats(0.0, w, s);
        let recs = sim.run_until(300.0);
        assert!(
            !recs.iter().any(|r| matches!(r, NetRecord::WorkerLost { .. })),
            "false positive worker loss"
        );
    }

    #[test]
    fn messages_to_failed_nodes_bounce() {
        let (net, s, w) = pair();
        let mut sim = NetSim::new(net);
        sim.fail_node_at(0.0, s);
        sim.send(1.0, w, s, MessageKind::Output, 10);
        let recs = sim.run_until(10.0);
        assert!(recs
            .iter()
            .any(|r| matches!(r, NetRecord::Undeliverable { .. })));
    }

    #[test]
    fn unroutable_messages_are_reported() {
        let mut net = Overlay::new();
        let a = net.add_node("a", NodeRole::ProjectServer);
        let b = net.add_node("b", NodeRole::Worker);
        let mut sim = NetSim::new(net);
        // Unroutable sends are recorded immediately at send time.
        sim.send(0.0, a, b, MessageKind::Control, 1);
        sim.run_until(1.0);
        assert_eq!(sim.records().len(), 1);
        assert!(matches!(sim.records()[0], NetRecord::Undeliverable { .. }));
    }

    #[test]
    fn heartbeat_traffic_is_tiny_compared_to_output() {
        // The paper's design point: heartbeats don't leave the closest
        // server and are negligible bandwidth.
        let (net, projects, _, workers) = fig1_topology(8);
        let mut sim = NetSim::new(net).with_heartbeat_config(HeartbeatConfig {
            interval: 120.0,
            payload_bytes: 200,
        });
        // Heartbeats from every cluster-0 worker to its relay; one 100 MB
        // trajectory output to the project server.
        for &w in &workers[0] {
            let relay = sim.overlay.route(w, projects[0]).unwrap()[1];
            sim.start_heartbeats(0.0, w, relay);
        }
        sim.send(0.0, workers[0][0], projects[0], MessageKind::Output, 100_000_000);
        sim.run_until(3600.0);
        let hb = sim.average_bandwidth(MessageKind::Heartbeat, 3600.0);
        let out = sim.average_bandwidth(MessageKind::Output, 3600.0);
        assert!(hb < 100.0, "heartbeat bandwidth {hb} B/s");
        assert!(out > 1000.0 * hb, "output should dwarf heartbeats");
    }

    #[test]
    fn traffic_flows_into_shared_telemetry() {
        let t = Telemetry::new();
        let mut net = Overlay::new();
        let s = net.add_node("server", NodeRole::ProjectServer);
        let m = net.add_node("relay", NodeRole::RelayServer);
        let w = net.add_node("worker", NodeRole::Worker);
        net.connect_trusted(s, m, Link::new(0.1, 1e6));
        net.connect_trusted(m, w, Link::new(0.1, 1e6));
        let mut sim = NetSim::new(net).with_telemetry(t.clone());
        sim.send(0.0, w, s, MessageKind::Output, 1000);
        sim.run_until(100.0);
        // Each level pair carried the payload once.
        assert_eq!(sim.level_traffic("relay-worker"), 1000);
        assert_eq!(sim.level_traffic("relay-server"), 1000);
        assert_eq!(sim.level_traffic("server-worker"), 0);
        // The shared registry sees exactly the same accounting: carried
        // bytes per link, delivered payload per kind.
        assert_eq!(t.registry().counter_total(names::NET_LINK_BYTES), 2000);
        assert_eq!(t.registry().counter_total(names::NET_BYTES), 1000);
        assert_eq!(sim.traffic_by_kind(MessageKind::Output), 1000);
        assert_eq!(sim.traffic_by_kind(MessageKind::Heartbeat), 0);
    }

    #[test]
    fn worker_loss_is_journaled() {
        let (net, s, w) = pair();
        let mut sim = NetSim::new(net).with_heartbeat_config(HeartbeatConfig {
            interval: 10.0,
            payload_bytes: 200,
        });
        sim.start_heartbeats(0.0, w, s);
        sim.fail_node_at(5.0, w);
        sim.run_until(200.0);
        let entries = sim.telemetry().journal().entries();
        assert_eq!(
            entries
                .iter()
                .filter(|e| e.event.kind() == "worker_lost")
                .count(),
            1
        );
    }

    #[test]
    fn bandwidth_accounting_averages() {
        let (net, s, w) = pair();
        let mut sim = NetSim::new(net);
        sim.send(0.0, w, s, MessageKind::Output, 5000);
        sim.run_until(100.0);
        assert!((sim.average_bandwidth(MessageKind::Output, 100.0) - 50.0).abs() < 1e-9);
    }
}
