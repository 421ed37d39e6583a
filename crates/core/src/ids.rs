//! Identifier newtypes used across the framework.
//!
//! One vocabulary of identifiers: the runtime, its codec and journal, and
//! the server overlay all name workers, commands and projects the same
//! way.
//!
//! All ids are `u64` newtypes with a stable `Display` prefix
//! (`worker-3`, `cmd-7`, `project-0`).

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
}
