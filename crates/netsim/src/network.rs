//! Overlay network topology: servers, authenticated links, routing.
//!
//! Models §2.2 of the paper: a small, relatively static graph of servers
//! (project servers, cluster head-node relays) plus workers hanging off
//! their closest server. Links are authenticated by explicit key exchange
//! — messages only route over trusted links — and each link carries a
//! latency and a bandwidth, so a transfer time is `Σ_hops (latency +
//! bytes / bandwidth)` (store-and-forward).

use std::collections::{BinaryHeap, HashMap, HashSet};

/// Node identifier in the overlay — the shared id type from
/// [`copernicus_ids`], so simulated topologies and the live transport
/// name nodes identically.
pub use copernicus_ids::NodeId;

/// What a node does in the deployment (Fig. 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeRole {
    /// Holds projects and runs controllers.
    ProjectServer,
    /// Relays between workers and project servers (cluster head node).
    RelayServer,
    /// Executes commands.
    Worker,
    /// Command-line / web client.
    Client,
}

/// A directed-capable (but always installed bidirectionally) link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Link {
    /// One-way latency in seconds.
    pub latency: f64,
    /// Bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl Link {
    pub fn new(latency: f64, bandwidth: f64) -> Self {
        assert!(latency >= 0.0, "latency must be non-negative");
        assert!(bandwidth > 0.0, "bandwidth must be positive");
        Link { latency, bandwidth }
    }

    /// Wide-area SSL link (the paper's inter-continental case):
    /// >100 ms latency, ~100 MB/s peak.
    pub fn wan() -> Self {
        Link::new(0.120, 100e6)
    }

    /// Data-centre LAN between head nodes: 1 ms, 1 GB/s.
    pub fn lan() -> Self {
        Link::new(0.001, 1e9)
    }

    /// Cluster-internal link between a head node and compute nodes
    /// (Infiniband-class): 10 µs, 2.7 GB/s (the paper's QDR figure).
    pub fn infiniband() -> Self {
        Link::new(10e-6, 2.7e9)
    }

    /// Transfer time for a payload over this single hop.
    pub fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency + bytes as f64 / self.bandwidth
    }
}

/// The authenticated overlay graph.
#[derive(Debug, Clone, Default)]
pub struct Overlay {
    roles: Vec<NodeRole>,
    names: Vec<String>,
    links: HashMap<(NodeId, NodeId), Link>,
    /// Pairs that have exchanged public keys (required before a link is
    /// usable).
    trusted: HashSet<(NodeId, NodeId)>,
    adjacency: HashMap<NodeId, Vec<NodeId>>,
}

impl Overlay {
    pub fn new() -> Self {
        Overlay::default()
    }

    pub fn add_node(&mut self, name: impl Into<String>, role: NodeRole) -> NodeId {
        let id = NodeId(self.roles.len() as u64);
        self.roles.push(role);
        self.names.push(name.into());
        id
    }

    pub fn n_nodes(&self) -> usize {
        self.roles.len()
    }

    pub fn role(&self, n: NodeId) -> NodeRole {
        self.roles[n.0 as usize]
    }

    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.0 as usize]
    }

    /// Install a bidirectional link. The link is unusable until
    /// [`Overlay::exchange_keys`] is called for the pair.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        assert!(a != b, "cannot link a node to itself");
        assert!((a.0 as usize) < self.n_nodes() && (b.0 as usize) < self.n_nodes());
        self.links.insert(key(a, b), link);
        self.adjacency.entry(a).or_default().push(b);
        self.adjacency.entry(b).or_default().push(a);
    }

    /// Exchange public keys between two nodes (§2.2: links require an
    /// explicit, user-initiated key exchange).
    pub fn exchange_keys(&mut self, a: NodeId, b: NodeId) {
        self.trusted.insert(key(a, b));
    }

    /// Convenience: connect and authenticate in one step.
    pub fn connect_trusted(&mut self, a: NodeId, b: NodeId, link: Link) {
        self.connect(a, b, link);
        self.exchange_keys(a, b);
    }

    pub fn is_trusted(&self, a: NodeId, b: NodeId) -> bool {
        self.trusted.contains(&key(a, b))
    }

    pub fn link(&self, a: NodeId, b: NodeId) -> Option<&Link> {
        self.links.get(&key(a, b))
    }

    /// Usable (connected *and* authenticated) neighbours of `n`.
    pub fn neighbors(&self, n: NodeId) -> Vec<NodeId> {
        self.adjacency
            .get(&n)
            .map(|adj| {
                adj.iter()
                    .copied()
                    .filter(|&m| self.is_trusted(n, m))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Lowest-latency route between two nodes over trusted links
    /// (Dijkstra). Returns the node sequence including both endpoints.
    pub fn route(&self, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
        if from == to {
            return Some(vec![from]);
        }
        let mut dist: HashMap<NodeId, f64> = HashMap::new();
        let mut prev: HashMap<NodeId, NodeId> = HashMap::new();
        let mut heap: BinaryHeap<(std::cmp::Reverse<OrderedF64>, NodeId)> = BinaryHeap::new();
        dist.insert(from, 0.0);
        heap.push((std::cmp::Reverse(OrderedF64(0.0)), from));
        while let Some((std::cmp::Reverse(OrderedF64(d)), u)) = heap.pop() {
            if u == to {
                break;
            }
            if d > *dist.get(&u).unwrap_or(&f64::INFINITY) {
                continue;
            }
            for v in self.neighbors(u) {
                let w = self.link(u, v).expect("neighbor implies link").latency;
                let nd = d + w;
                if nd < *dist.get(&v).unwrap_or(&f64::INFINITY) {
                    dist.insert(v, nd);
                    prev.insert(v, u);
                    heap.push((std::cmp::Reverse(OrderedF64(nd)), v));
                }
            }
        }
        if !dist.contains_key(&to) {
            return None;
        }
        let mut path = vec![to];
        let mut cur = to;
        while cur != from {
            cur = prev[&cur];
            path.push(cur);
        }
        path.reverse();
        Some(path)
    }

    /// Store-and-forward transfer time along a route.
    pub fn transfer_time(&self, path: &[NodeId], bytes: u64) -> f64 {
        path.windows(2)
            .map(|w| {
                self.link(w[0], w[1])
                    .expect("route must follow links")
                    .transfer_time(bytes)
            })
            .sum()
    }

    /// End-to-end one-way latency of a route (zero-byte transfer).
    pub fn route_latency(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.route(from, to).map(|p| self.transfer_time(&p, 0))
    }
}

#[derive(PartialEq, PartialOrd)]
struct OrderedF64(f64);

impl Eq for OrderedF64 {}

#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.partial_cmp(other).expect("latency is never NaN")
    }
}

fn key(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

/// Build the paper's Fig. 1 deployment: two project servers, a gateway,
/// relay servers on three clusters, and `workers_per_cluster` workers per
/// cluster. Returns `(overlay, project_servers, relays, workers)`.
pub fn fig1_topology(
    workers_per_cluster: usize,
) -> (Overlay, Vec<NodeId>, Vec<NodeId>, Vec<Vec<NodeId>>) {
    let mut net = Overlay::new();
    let ps_titin = net.add_node("project-titin", NodeRole::ProjectServer);
    let ps_villin = net.add_node("project-villin", NodeRole::ProjectServer);
    let gateway = net.add_node("gateway-stockholm", NodeRole::RelayServer);
    let relay0 = net.add_node("cluster0-head", NodeRole::RelayServer);
    let relay1 = net.add_node("cluster1-head", NodeRole::RelayServer);
    let relay2 = net.add_node("cluster2-head", NodeRole::RelayServer);

    // Project servers reach the Stockholm gateway over the LAN, and the
    // Palo Alto cluster (2) over the WAN.
    net.connect_trusted(ps_titin, gateway, Link::lan());
    net.connect_trusted(ps_villin, gateway, Link::lan());
    net.connect_trusted(gateway, relay0, Link::lan());
    net.connect_trusted(gateway, relay1, Link::lan());
    net.connect_trusted(ps_titin, relay2, Link::wan());
    net.connect_trusted(ps_villin, relay2, Link::wan());

    let mut workers = Vec::new();
    for (c, &relay) in [relay0, relay1, relay2].iter().enumerate() {
        let mut ws = Vec::new();
        for w in 0..workers_per_cluster {
            let id = net.add_node(format!("c{c}-worker{w}"), NodeRole::Worker);
            net.connect_trusted(id, relay, Link::infiniband());
            ws.push(id);
        }
        workers.push(ws);
    }
    (
        net,
        vec![ps_titin, ps_villin],
        vec![gateway, relay0, relay1, relay2],
        workers,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_transfer_time() {
        let l = Link::new(0.1, 1000.0);
        assert!((l.transfer_time(0) - 0.1).abs() < 1e-12);
        assert!((l.transfer_time(500) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn untrusted_links_do_not_route() {
        let mut net = Overlay::new();
        let a = net.add_node("a", NodeRole::ProjectServer);
        let b = net.add_node("b", NodeRole::Worker);
        net.connect(a, b, Link::lan());
        assert!(net.route(a, b).is_none(), "unauthenticated link routed");
        net.exchange_keys(a, b);
        assert_eq!(net.route(a, b), Some(vec![a, b]));
    }

    #[test]
    fn routes_choose_lowest_latency() {
        let mut net = Overlay::new();
        let a = net.add_node("a", NodeRole::ProjectServer);
        let m = net.add_node("m", NodeRole::RelayServer);
        let b = net.add_node("b", NodeRole::Worker);
        // Direct slow link vs two-hop fast path.
        net.connect_trusted(a, b, Link::new(1.0, 1e9));
        net.connect_trusted(a, m, Link::new(0.01, 1e9));
        net.connect_trusted(m, b, Link::new(0.01, 1e9));
        assert_eq!(net.route(a, b), Some(vec![a, m, b]));
        assert!((net.route_latency(a, b).unwrap() - 0.02).abs() < 1e-12);
    }

    #[test]
    fn route_to_self_is_trivial() {
        let mut net = Overlay::new();
        let a = net.add_node("a", NodeRole::Client);
        assert_eq!(net.route(a, a), Some(vec![a]));
        assert_eq!(net.transfer_time(&[a], 1000), 0.0);
    }

    #[test]
    fn disconnected_nodes_have_no_route() {
        let mut net = Overlay::new();
        let a = net.add_node("a", NodeRole::ProjectServer);
        let b = net.add_node("b", NodeRole::Worker);
        assert!(net.route(a, b).is_none());
    }

    #[test]
    fn store_and_forward_adds_per_hop_cost() {
        let mut net = Overlay::new();
        let a = net.add_node("a", NodeRole::ProjectServer);
        let m = net.add_node("m", NodeRole::RelayServer);
        let b = net.add_node("b", NodeRole::Worker);
        net.connect_trusted(a, m, Link::new(0.1, 1000.0));
        net.connect_trusted(m, b, Link::new(0.2, 2000.0));
        let path = net.route(a, b).unwrap();
        let t = net.transfer_time(&path, 1000);
        assert!((t - (0.1 + 1.0 + 0.2 + 0.5)).abs() < 1e-12);
    }

    #[test]
    fn fig1_topology_shape() {
        let (net, projects, relays, workers) = fig1_topology(4);
        assert_eq!(projects.len(), 2);
        assert_eq!(relays.len(), 4);
        assert_eq!(workers.len(), 3);
        assert_eq!(net.n_nodes(), 6 + 12);
        // Every worker can reach every project server.
        for cluster in &workers {
            for &w in cluster {
                for &p in &projects {
                    assert!(net.route(w, p).is_some(), "no route worker→project");
                }
            }
        }
        // Cluster-2 workers go over the WAN: much higher latency than
        // cluster-0 workers.
        let lat_local = net.route_latency(workers[0][0], projects[0]).unwrap();
        let lat_remote = net.route_latency(workers[2][0], projects[0]).unwrap();
        assert!(lat_remote > 50.0 * lat_local);
    }

    #[test]
    fn roles_and_names_are_stored() {
        let (net, projects, _, workers) = fig1_topology(1);
        assert_eq!(net.role(projects[0]), NodeRole::ProjectServer);
        assert_eq!(net.role(workers[0][0]), NodeRole::Worker);
        assert!(net.name(projects[0]).starts_with("project"));
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn no_self_links() {
        let mut net = Overlay::new();
        let a = net.add_node("a", NodeRole::Client);
        net.connect(a, a, Link::lan());
    }
}
