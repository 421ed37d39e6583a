//! The command queue and resource matching (§2.3).
//!
//! The server matches a presenting worker's executables and resources
//! against queued commands and constructs a workload that *"maximally
//! utilizes the available resources given the preferred resource
//! requirements of the commands"* — a greedy best-fit over the priority
//! order.
//!
//! This is the reference implementation — one sorted `Vec`, rebuilt on
//! every match — compiled for tests only: the server runs
//! [`ledger::Queue`](crate::ledger::Queue), whose property tests use
//! this one as their oracle.

use crate::command::Command;
use crate::resources::WorkerDescription;
use std::time::Instant;

/// Priority command queue with capability-aware matching.
#[derive(Debug, Default)]
pub struct CommandQueue {
    /// Kept sorted on insert: highest priority first, FIFO within equal
    /// priority.
    items: Vec<Command>,
}

impl CommandQueue {
    pub fn new() -> Self {
        CommandQueue::default()
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert a command in priority order (stable for equal priorities).
    pub fn enqueue(&mut self, cmd: Command) {
        let pos = self.items.partition_point(|c| c.priority >= cmd.priority);
        self.items.insert(pos, cmd);
    }

    /// Peek at the queued commands in dispatch order.
    pub fn iter(&self) -> impl Iterator<Item = &Command> {
        self.items.iter()
    }

    /// Build a workload for a presenting worker: walk the queue in
    /// priority order, taking every command the worker can execute while
    /// uncommitted resources remain. Returns the workload (possibly
    /// empty).
    ///
    /// Commands under a retry-backoff embargo (`not_before` after `now`)
    /// are skipped but retained in place, so their priority/FIFO slot is
    /// preserved for when the embargo expires.
    pub fn match_workload(&mut self, desc: &WorkerDescription, now: Instant) -> Vec<Command> {
        let mut remaining = desc.resources;
        let mut taken = Vec::new();
        let mut kept = Vec::with_capacity(self.items.len());
        for cmd in self.items.drain(..) {
            let fits = cmd.ready_at(now)
                && desc.can_run(&cmd.command_type)
                && remaining.satisfies(&cmd.required);
            if fits {
                remaining = remaining.minus(&cmd.required);
                taken.push(cmd);
            } else {
                kept.push(cmd);
            }
        }
        self.items = kept;
        taken
    }

    /// Remove and return a specific command (e.g. a controller
    /// terminating queued work, or the server cancelling a re-queued
    /// duplicate whose original attempt delivered a result).
    pub fn remove(&mut self, id: crate::ids::CommandId) -> Option<Command> {
        let pos = self.items.iter().position(|c| c.id == id)?;
        Some(self.items.remove(pos))
    }

    /// Look up a queued command by id.
    pub fn get(&self, id: crate::ids::CommandId) -> Option<&Command> {
        self.items.iter().find(|c| c.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandSpec;
    use crate::ids::{CommandId, ProjectId};
    use crate::resources::{ExecutableSpec, Platform, Resources};
    use serde_json::json;

    fn cmd(id: u64, ctype: &str, cores: usize, priority: i32) -> Command {
        Command::from_spec(
            CommandId(id),
            ProjectId(0),
            CommandSpec::new(ctype, Resources::new(cores, 1), json!(null)).with_priority(priority),
        )
    }

    fn worker(cores: usize, types: &[&str]) -> WorkerDescription {
        WorkerDescription {
            platform: Platform::Smp,
            resources: Resources::new(cores, 1_000_000),
            executables: types
                .iter()
                .map(|t| ExecutableSpec::new(*t, Platform::Smp, "1"))
                .collect(),
        }
    }

    #[test]
    fn priority_order_with_fifo_ties() {
        let mut q = CommandQueue::new();
        q.enqueue(cmd(1, "a", 1, 0));
        q.enqueue(cmd(2, "a", 1, 5));
        q.enqueue(cmd(3, "a", 1, 0));
        let ids: Vec<u64> = q.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![2, 1, 3]);
    }

    #[test]
    fn matching_respects_capabilities() {
        let mut q = CommandQueue::new();
        q.enqueue(cmd(1, "mdrun", 1, 0));
        q.enqueue(cmd(2, "fep", 1, 0));
        let w = worker(8, &["mdrun"]);
        let load = q.match_workload(&w, Instant::now());
        assert_eq!(load.len(), 1);
        assert_eq!(load[0].id.0, 1);
        assert_eq!(q.len(), 1, "incompatible command stays queued");
    }

    #[test]
    fn matching_fills_resources() {
        let mut q = CommandQueue::new();
        for i in 0..5 {
            q.enqueue(cmd(i, "mdrun", 2, 0));
        }
        let w = worker(5, &["mdrun"]);
        let load = q.match_workload(&w, Instant::now());
        // 5 cores fit two 2-core commands.
        assert_eq!(load.len(), 2);
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn matching_prefers_high_priority() {
        let mut q = CommandQueue::new();
        q.enqueue(cmd(1, "mdrun", 4, 0));
        q.enqueue(cmd(2, "mdrun", 4, 10));
        let w = worker(4, &["mdrun"]);
        let load = q.match_workload(&w, Instant::now());
        assert_eq!(load.len(), 1);
        assert_eq!(load[0].id.0, 2);
    }

    #[test]
    fn smaller_commands_backfill() {
        let mut q = CommandQueue::new();
        q.enqueue(cmd(1, "mdrun", 8, 5)); // too big for the worker
        q.enqueue(cmd(2, "mdrun", 2, 0)); // fits
        let w = worker(4, &["mdrun"]);
        let load = q.match_workload(&w, Instant::now());
        assert_eq!(load.len(), 1);
        assert_eq!(load[0].id.0, 2, "queue skips oversized commands");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn remove_by_id() {
        let mut q = CommandQueue::new();
        q.enqueue(cmd(1, "a", 1, 0));
        q.enqueue(cmd(2, "a", 1, 0));
        assert!(q.remove(CommandId(1)).is_some());
        assert!(q.remove(CommandId(1)).is_none());
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn empty_queue_gives_empty_workload() {
        let mut q = CommandQueue::new();
        let w = worker(4, &["mdrun"]);
        assert!(q.match_workload(&w, Instant::now()).is_empty());
        assert!(q.is_empty());
    }

    #[test]
    fn embargoed_command_is_skipped_but_retained() {
        use std::time::Duration;
        let now = Instant::now();
        let mut q = CommandQueue::new();
        let mut embargoed = cmd(1, "mdrun", 1, 0);
        embargoed.not_before = Some(now + Duration::from_secs(60));
        q.enqueue(embargoed);
        q.enqueue(cmd(2, "mdrun", 1, 0));
        let w = worker(8, &["mdrun"]);

        let load = q.match_workload(&w, now);
        assert_eq!(load.len(), 1, "only the ready command dispatches");
        assert_eq!(load[0].id.0, 2);
        assert_eq!(q.len(), 1, "embargoed command stays queued");

        // Once the embargo expires the command dispatches normally.
        let load = q.match_workload(&w, now + Duration::from_secs(61));
        assert_eq!(load.len(), 1);
        assert_eq!(load[0].id.0, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn embargo_preserves_priority_and_fifo_order() {
        use std::time::Duration;
        let now = Instant::now();
        let mut q = CommandQueue::new();
        let mut high = cmd(1, "mdrun", 1, 10);
        high.not_before = Some(now + Duration::from_millis(50));
        q.enqueue(high);
        q.enqueue(cmd(2, "mdrun", 1, 0));
        q.enqueue(cmd(3, "mdrun", 1, 0));

        // While embargoed, lower-priority work flows around it without
        // disturbing its slot.
        let w = worker(1, &["mdrun"]);
        let load = q.match_workload(&w, now);
        assert_eq!(load[0].id.0, 2);
        let ids: Vec<u64> = q.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![1, 3], "embargoed high-priority keeps its slot");

        // After expiry the high-priority command dispatches first.
        let load = q.match_workload(&w, now + Duration::from_millis(51));
        assert_eq!(load[0].id.0, 1);
        let ids: Vec<u64> = q.iter().map(|c| c.id.0).collect();
        assert_eq!(ids, vec![3]);
    }
}
