//! # copernicus-ids — shared identifier newtypes
//!
//! One vocabulary of identifiers for the whole framework: the live
//! runtime (`copernicus-core`), the overlay-network simulation
//! (`netsim`) and the wire transport all name workers, commands,
//! projects and overlay nodes the same way. Before this crate existed,
//! `netsim` had its own `NodeId(u32)` while the runtime used
//! `WorkerId(u64)`/`ProjectId(u64)`; an overlay topology could not be
//! cross-referenced against live transport telemetry without a lossy
//! manual mapping.
//!
//! All ids are `u64` newtypes with a stable `Display` prefix
//! (`worker-3`, `cmd-7`, `project-0`, `node-2`).

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $prefix:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u64);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }
    };
}

id_type!(
    /// A worker client (one parallel simulation slot).
    WorkerId,
    "worker-"
);
id_type!(
    /// One unit of work (e.g. a 50-ns trajectory extension).
    CommandId,
    "cmd-"
);
id_type!(
    /// A project: a coupled ensemble of commands driven by a controller.
    ProjectId,
    "project-"
);
id_type!(
    /// A node in the overlay network (project server, relay, worker
    /// host, client) — shared between `netsim` topologies and live
    /// transport accounting.
    NodeId,
    "node-"
);

/// Monotonic id generator (thread-safe).
#[derive(Debug, Default)]
pub struct IdGen {
    next: AtomicU64,
}

impl IdGen {
    pub fn new() -> Self {
        IdGen::default()
    }

    pub fn next_u64(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    pub fn next_command(&self) -> CommandId {
        CommandId(self.next_u64())
    }

    pub fn next_worker(&self) -> WorkerId {
        WorkerId(self.next_u64())
    }

    pub fn next_node(&self) -> NodeId {
        NodeId(self.next_u64())
    }

    /// The id the next `next_*` call will return.
    pub fn peek(&self) -> u64 {
        self.next.load(Ordering::Relaxed)
    }

    /// Raise the generator so the next id is at least `next` — never
    /// lowers it. Crash recovery uses this to resume minting past the
    /// highest id found in a replayed log.
    pub fn advance_to(&self, next: u64) {
        self.next.fetch_max(next, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(WorkerId(3).to_string(), "worker-3");
        assert_eq!(CommandId(7).to_string(), "cmd-7");
        assert_eq!(ProjectId(0).to_string(), "project-0");
        assert_eq!(NodeId(2).to_string(), "node-2");
    }

    #[test]
    fn idgen_is_monotonic() {
        let g = IdGen::new();
        let a = g.next_command();
        let b = g.next_command();
        assert!(b.0 > a.0);
    }

    #[test]
    fn advance_to_never_lowers() {
        let g = IdGen::new();
        g.advance_to(10);
        assert_eq!(g.next_command(), CommandId(10));
        g.advance_to(5);
        assert_eq!(g.next_command(), CommandId(11));
    }

    #[test]
    fn ids_are_ordered_and_hashable() {
        use std::collections::HashSet;
        let mut s = HashSet::new();
        s.insert(CommandId(1));
        s.insert(CommandId(1));
        s.insert(CommandId(2));
        assert_eq!(s.len(), 2);
        assert!(CommandId(1) < CommandId(2));
    }

    #[test]
    fn node_ids_share_the_u64_representation() {
        // Overlay nodes and workers can be cross-referenced without a
        // lossy cast (netsim's NodeId used to be u32).
        let n = NodeId(u64::MAX);
        assert_eq!(n.0, u64::MAX);
    }
}
