//! Worker platforms, resources and executables (§2.3 of the paper).
//!
//! A worker announces its platform (the plugin that launches binaries —
//! OpenMPI, SMP, …), its resources (cores, memory), and the set of
//! installed 'executables': descriptions of how to run specific command
//! types on that platform. The server matches queued commands against
//! these announcements.

/// Software platform a worker runs commands under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Platform {
    /// Shared-memory node (threads).
    Smp,
    /// Message-passing across nodes.
    Mpi,
    /// GPU-accelerated node.
    Gpu,
}

/// Compute resources a worker offers or a command requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Resources {
    pub cores: usize,
    pub memory_mb: u64,
}

impl Resources {
    pub fn new(cores: usize, memory_mb: u64) -> Self {
        assert!(cores > 0, "resources must include at least one core");
        Resources { cores, memory_mb }
    }

    /// Can an offer of `self` satisfy a request of `req`?
    pub fn satisfies(&self, req: &Resources) -> bool {
        self.cores >= req.cores && self.memory_mb >= req.memory_mb
    }

    /// Subtract a granted request from this offer.
    pub fn minus(&self, req: &Resources) -> Resources {
        Resources {
            cores: self.cores.saturating_sub(req.cores),
            memory_mb: self.memory_mb.saturating_sub(req.memory_mb),
        }
    }
}

/// An installed 'executable': how to run one command type on one platform.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecutableSpec {
    /// Command type it can execute (e.g. "mdrun", "fep-sample").
    pub command_type: String,
    pub platform: Platform,
    pub version: String,
}

impl ExecutableSpec {
    pub fn new(
        command_type: impl Into<String>,
        platform: Platform,
        version: impl Into<String>,
    ) -> Self {
        ExecutableSpec {
            command_type: command_type.into(),
            platform,
            version: version.into(),
        }
    }
}

/// What a worker tells the server when it presents itself.
#[derive(Debug, Clone)]
pub struct WorkerDescription {
    pub platform: Platform,
    pub resources: Resources,
    pub executables: Vec<ExecutableSpec>,
}

impl WorkerDescription {
    pub fn can_run(&self, command_type: &str) -> bool {
        self.executables
            .iter()
            .any(|e| e.command_type == command_type)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn satisfaction_is_componentwise() {
        let offer = Resources::new(8, 16_000);
        assert!(offer.satisfies(&Resources::new(8, 16_000)));
        assert!(offer.satisfies(&Resources::new(1, 100)));
        assert!(!offer.satisfies(&Resources::new(9, 100)));
        assert!(!offer.satisfies(&Resources::new(1, 32_000)));
    }

    #[test]
    fn minus_saturates() {
        let offer = Resources::new(8, 1000);
        let rest = offer.minus(&Resources::new(3, 400));
        assert_eq!(rest.cores, 5);
        assert_eq!(rest.memory_mb, 600);
        let drained = rest.minus(&Resources::new(100, 10_000));
        assert_eq!(drained.cores, 0);
    }

    #[test]
    fn worker_capability_lookup() {
        let w = WorkerDescription {
            platform: Platform::Smp,
            resources: Resources::new(4, 8000),
            executables: vec![
                ExecutableSpec::new("mdrun", Platform::Smp, "4.5.3"),
                ExecutableSpec::new("fep-sample", Platform::Smp, "1.0"),
            ],
        };
        assert!(w.can_run("mdrun"));
        assert!(!w.can_run("quantum-espresso"));
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_resources_rejected() {
        let _ = Resources::new(0, 100);
    }
}
