//! The server's dispatch state: the command queue and the running set.
//!
//! [`Server::run`](crate::server::Server::run) is one loop that owns
//! both and reaches them only through `&mut self`, so they are plain
//! collections — no locks, nothing shared.
//!
//! - [`Queue`] — one ordered index keyed (priority desc, arrival seq)
//!   plus an id map: `enqueue`/`remove`/`peek` are O(log n), and
//!   matching walks in dispatch order and stops as soon as the worker's
//!   cores are committed. Greedy semantics identical to the test-only
//!   reference `queue::CommandQueue`, the oracle of the tests below.
//!   Each entry carries the instant it was enqueued, so dispatch
//!   latency needs no side table to keep in sync.
//! - [`Ledger`] — the running set plus a per-worker index, so heartbeat
//!   marking and watchdog orphan scans are O(commands of that worker),
//!   not O(everything in flight).

use crate::command::Command;
use crate::ids::{CommandId, WorkerId};
use crate::resources::WorkerDescription;
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::time::Instant;

/// Dispatch order: highest priority first, then earliest arrival.
type Key = (Reverse<i32>, u64);

struct Queued {
    cmd: Command,
    /// When this entry was (re-)enqueued: the origin of its dispatch
    /// latency.
    at: Instant,
}

/// Priority command queue with capability-aware matching: priority
/// order, FIFO ties, retry embargoes skipped but retained, greedy
/// best-fit.
#[derive(Default)]
pub(crate) struct Queue {
    order: BTreeMap<Key, Queued>,
    keys: HashMap<CommandId, Key>,
    /// Arrival stamp of the next enqueue.
    seq: u64,
}

impl Queue {
    pub(crate) fn len(&self) -> usize {
        self.order.len()
    }

    /// Queue `cmd` behind everything of its priority, waiting since `at`.
    pub(crate) fn enqueue(&mut self, cmd: Command, at: Instant) {
        let key = (Reverse(cmd.priority), self.seq);
        self.seq += 1;
        let previous = self.keys.insert(cmd.id, key);
        debug_assert!(previous.is_none(), "{} queued twice", cmd.id);
        self.order.insert(key, Queued { cmd, at });
    }

    /// Build a workload for a presenting worker: walk the queue in
    /// dispatch order, taking every command the worker can execute
    /// while uncommitted resources remain, each with the instant it was
    /// enqueued. Embargoed commands (`not_before` in the future) are
    /// skipped in place, keeping their slot for when the embargo ends.
    ///
    /// Stops the moment the worker's cores are fully committed — every
    /// command requires at least one core (`Resources::new` asserts
    /// it), so nothing further can fit. Matching is O(scanned), and
    /// untaken commands never move.
    pub(crate) fn match_workload(
        &mut self,
        desc: &WorkerDescription,
        now: Instant,
    ) -> Vec<(Command, Instant)> {
        let mut remaining = desc.resources;
        let mut taken = Vec::new();
        for (key, queued) in &self.order {
            if remaining.cores == 0 {
                break;
            }
            let cmd = &queued.cmd;
            if cmd.ready_at(now)
                && desc.can_run(&cmd.command_type)
                && remaining.satisfies(&cmd.required)
            {
                remaining = remaining.minus(&cmd.required);
                taken.push(*key);
            }
        }
        taken
            .into_iter()
            .map(|key| {
                let queued = self.order.remove(&key).expect("key seen in the walk");
                self.keys.remove(&queued.cmd.id);
                (queued.cmd, queued.at)
            })
            .collect()
    }

    /// Remove and return a specific command (controller cancel, or the
    /// server cancelling a re-queued duplicate whose original attempt
    /// delivered a result). Its enqueue instant goes with it.
    pub(crate) fn remove(&mut self, id: CommandId) -> Option<Command> {
        let key = self.keys.remove(&id)?;
        self.order.remove(&key).map(|queued| queued.cmd)
    }

    /// Look up a queued command by id.
    pub(crate) fn peek(&self, id: CommandId) -> Option<&Command> {
        self.order
            .get(self.keys.get(&id)?)
            .map(|queued| &queued.cmd)
    }
}

/// A dispatched command: who runs it, since when, and the command
/// itself (kept for re-queueing on fault; its `attempts` is the
/// attempt epoch).
pub(crate) struct InFlight {
    pub(crate) worker: WorkerId,
    pub(crate) dispatched_at: Instant,
    pub(crate) cmd: Command,
}

/// The running set, with a per-worker index over it: marking liveness
/// on a worker's attempts, and orphaning its commands when the
/// watchdog declares it lost, both resolve to a direct lookup instead
/// of a scan of every in-flight command.
#[derive(Default)]
pub(crate) struct Ledger {
    running: HashMap<CommandId, InFlight>,
    /// Ids running per worker; a worker with nothing in flight has no
    /// entry.
    by_worker: HashMap<WorkerId, HashSet<CommandId>>,
}

impl Ledger {
    pub(crate) fn running_len(&self) -> usize {
        self.running.len()
    }

    pub(crate) fn start_running(&mut self, inflight: InFlight) {
        let (id, worker) = (inflight.cmd.id, inflight.worker);
        let previous = self.running.insert(id, inflight);
        debug_assert!(previous.is_none(), "{id} dispatched while running");
        self.by_worker.entry(worker).or_default().insert(id);
    }

    pub(crate) fn stop_running(&mut self, id: CommandId) -> Option<InFlight> {
        let inflight = self.running.remove(&id)?;
        if let Some(ids) = self.by_worker.get_mut(&inflight.worker) {
            ids.remove(&id);
            if ids.is_empty() {
                self.by_worker.remove(&inflight.worker);
            }
        }
        Some(inflight)
    }

    /// The attempt epoch of a running command, if it is running.
    pub(crate) fn running_epoch(&self, id: CommandId) -> Option<u32> {
        self.running.get(&id).map(|inflight| inflight.cmd.attempts)
    }

    /// Whether anything is dispatched to `worker`: O(1), on the path of
    /// every work request.
    pub(crate) fn holds(&self, worker: WorkerId) -> bool {
        self.by_worker.contains_key(&worker)
    }

    /// Commands currently dispatched to `worker` (direct index hit).
    pub(crate) fn commands_of(&self, worker: WorkerId) -> Vec<CommandId> {
        self.by_worker
            .get(&worker)
            .map(|ids| ids.iter().copied().collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandSpec;
    use crate::ids::ProjectId;
    use crate::queue::CommandQueue;
    use crate::resources::{ExecutableSpec, Platform, Resources};
    use serde_json::json;
    use std::time::Duration;

    /// Views the server never needs, for this module's tests and
    /// `server::tests`.
    impl Queue {
        /// Queued ids in dispatch order.
        pub(crate) fn ids(&self) -> Vec<CommandId> {
            self.order.values().map(|queued| queued.cmd.id).collect()
        }
    }

    impl Ledger {
        pub(crate) fn running(&self) -> impl Iterator<Item = &InFlight> {
            self.running.values()
        }
    }

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

    fn inflight(id: u64, worker: WorkerId) -> InFlight {
        InFlight {
            worker,
            dispatched_at: Instant::now(),
            cmd: cmd(id, "a", 1, 0),
        }
    }

    /// xorshift64 seeded from `COPERNICUS_TEST_SEED` (the CI seed
    /// matrix), salted per test.
    fn seeded_rng(salt: u64) -> impl FnMut() -> u64 {
        let seed: u64 = std::env::var("COPERNICUS_TEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0xC0FFEE);
        let mut state = (seed ^ salt).max(1);
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        }
    }

    fn ids_of(load: &[(Command, Instant)]) -> Vec<u64> {
        load.iter().map(|(c, _)| c.id.0).collect()
    }

    #[test]
    fn priority_order_with_fifo_ties() {
        let now = Instant::now();
        let mut q = Queue::default();
        q.enqueue(cmd(1, "a", 1, 0), now);
        q.enqueue(cmd(2, "a", 1, 5), now);
        q.enqueue(cmd(3, "a", 1, 0), now);
        assert_eq!(q.ids(), vec![CommandId(2), CommandId(1), CommandId(3)]);
        // Dispatch preserves the same order.
        let load = q.match_workload(&worker(8, &["a"]), now);
        assert_eq!(ids_of(&load), vec![2, 1, 3]);
    }

    /// The queue must do exactly what the reference (unsharded,
    /// unindexed) `CommandQueue` does under a seeded interleaving of
    /// everything the server does to it: enqueue, remove by id, match
    /// for two worker shapes, and re-enqueue of dispatched commands
    /// under an embargo that a later step's clock has passed. Same
    /// taken ids in the same order, same removals, same contents in
    /// the same dispatch order, after every step — and every taken
    /// command comes back with the instant it was last enqueued at.
    #[test]
    fn matching_agrees_with_the_unsharded_queue() {
        let mut next = seeded_rng(0xfeed_5eed);
        let mut reference = CommandQueue::new();
        let mut queue = Queue::default();
        let workers = [worker(16, &["mdrun"]), worker(3, &["mdrun", "fep"])];
        let mut now = Instant::now();
        let mut next_id = 0u64;
        let mut dispatched: Vec<Command> = Vec::new();
        let mut enqueued_at: HashMap<CommandId, Instant> = HashMap::new();
        for step in 0..3000 {
            now += Duration::from_millis(next() % 20);
            match next() % 16 {
                0..=8 => {
                    let ctype = if next().is_multiple_of(3) {
                        "fep"
                    } else {
                        "mdrun"
                    };
                    let cores = (next() % 4 + 1) as usize;
                    let priority = (next() % 7) as i32 - 3;
                    let mut c = cmd(next_id, ctype, cores, priority);
                    next_id += 1;
                    if next().is_multiple_of(5) {
                        c.not_before = Some(now + Duration::from_millis(next() % 400));
                    }
                    enqueued_at.insert(c.id, now);
                    reference.enqueue(c.clone());
                    queue.enqueue(c, now);
                }
                9 => {
                    // Any id ever minted: queued, dispatched or gone.
                    let id = CommandId(next() % (next_id + 1));
                    let a = reference.remove(id).map(|c| c.id);
                    let b = queue.remove(id).map(|c| c.id);
                    assert_eq!(a, b, "remove({id}) diverged at step {step}");
                    if b.is_some() {
                        enqueued_at.remove(&id);
                    }
                }
                10 | 11 => {
                    let w = &workers[(next() % 2) as usize];
                    let a = reference.match_workload(w, now);
                    let b = queue.match_workload(w, now);
                    let ids_a: Vec<u64> = a.iter().map(|c| c.id.0).collect();
                    assert_eq!(ids_a, ids_of(&b), "match diverged at step {step}");
                    for (c, at) in &b {
                        assert_eq!(enqueued_at.remove(&c.id), Some(*at), "{} at {step}", c.id);
                    }
                    dispatched.extend(a);
                }
                12 | 13 if !dispatched.is_empty() => {
                    // A faulted attempt comes back under a backoff.
                    let mut c = dispatched.swap_remove(next() as usize % dispatched.len());
                    c.attempts += 1;
                    c.not_before = Some(now + Duration::from_millis(next() % 200));
                    enqueued_at.insert(c.id, now);
                    reference.enqueue(c.clone());
                    queue.enqueue(c, now);
                }
                _ => {
                    let id = CommandId(next() % (next_id + 1));
                    assert_eq!(
                        reference.get(id).map(|c| c.attempts),
                        queue.peek(id).map(|c| c.attempts),
                        "peek({id}) diverged at step {step}"
                    );
                }
            }
            assert_eq!(reference.len(), queue.len(), "len diverged at step {step}");
            let order: Vec<CommandId> = reference.iter().map(|c| c.id).collect();
            assert_eq!(order, queue.ids(), "order diverged at step {step}");
            assert_eq!(
                queue.keys.len(),
                queue.len(),
                "id map out of step at {step}"
            );
        }
        assert!(
            next_id > 1000 && !dispatched.is_empty(),
            "the sweep did work"
        );
    }

    #[test]
    fn embargoed_commands_are_skipped_but_retained() {
        let t0 = Instant::now();
        let mut q = Queue::default();
        let mut embargoed = cmd(1, "mdrun", 1, 10);
        embargoed.not_before = Some(t0 + Duration::from_secs(60));
        q.enqueue(embargoed, t0);
        let t1 = t0 + Duration::from_secs(1);
        q.enqueue(cmd(2, "mdrun", 1, 0), t1);
        let w = worker(8, &["mdrun"]);
        let load = q.match_workload(&w, t1);
        assert_eq!(ids_of(&load), vec![2]);
        assert_eq!(load[0].1, t1);
        assert_eq!(q.len(), 1);
        // Being skipped did not touch the entry: it still knows when
        // it was enqueued.
        let load = q.match_workload(&w, t0 + Duration::from_secs(61));
        assert_eq!(ids_of(&load), vec![1]);
        assert_eq!(load[0].1, t0, "queued-at survives skip-but-retain");
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn matching_stops_at_zero_cores() {
        let now = Instant::now();
        let mut q = Queue::default();
        for i in 0..100 {
            q.enqueue(cmd(i, "mdrun", 2, 0), now);
        }
        let w = worker(5, &["mdrun"]);
        let load = q.match_workload(&w, now);
        assert_eq!(load.len(), 2, "5 cores fit two 2-core commands");
        assert_eq!(q.len(), 98);
    }

    #[test]
    fn remove_and_peek_by_id() {
        let t0 = Instant::now();
        let mut q = Queue::default();
        for i in 0..32 {
            q.enqueue(cmd(i, "a", 1, 0), t0);
        }
        assert_eq!(q.peek(CommandId(17)).map(|c| c.id.0), Some(17));
        assert!(q.remove(CommandId(17)).is_some());
        assert!(q.remove(CommandId(17)).is_none());
        assert!(q.peek(CommandId(17)).is_none());
        assert_eq!(q.len(), 31);
        assert_eq!(q.keys.len(), 31);
        // The removed entry took its enqueue instant with it: the same
        // id queued again waits from its new instant, at the back.
        let t1 = t0 + Duration::from_secs(5);
        q.enqueue(cmd(17, "a", 1, 0), t1);
        let load = q.match_workload(&worker(64, &["a"]), t1);
        assert_eq!(load.len(), 32);
        assert_eq!(load[31].0.id, CommandId(17));
        assert_eq!(load[31].1, t1, "queued-at is gone after remove");
        assert!(load[..31].iter().all(|(_, at)| *at == t0));
    }

    #[test]
    fn ledger_tracks_running_by_worker() {
        let mut ledger = Ledger::default();
        let w1 = WorkerId(1);
        let w2 = WorkerId(2);
        for i in 0..10 {
            ledger.start_running(inflight(i, if i % 3 == 0 { w2 } else { w1 }));
        }
        assert_eq!(ledger.running_len(), 10);
        let mut of_w2 = ledger.commands_of(w2);
        of_w2.sort();
        assert_eq!(
            of_w2,
            vec![CommandId(0), CommandId(3), CommandId(6), CommandId(9)]
        );
        assert_eq!(ledger.commands_of(w1).len(), 6);

        let gone = ledger.stop_running(CommandId(3)).unwrap();
        assert_eq!(gone.worker, w2);
        assert_eq!(ledger.running_len(), 9);
        assert_eq!(ledger.commands_of(w2).len(), 3);
        assert!(ledger.stop_running(CommandId(3)).is_none());

        for id in ledger.commands_of(w2) {
            ledger.stop_running(id);
        }
        assert!(ledger.commands_of(w2).is_empty());
        assert!(!ledger.by_worker.contains_key(&w2));
        assert!(!ledger.holds(w2));
        assert!(ledger.holds(w1));
    }

    #[test]
    fn ledger_reports_the_running_epoch() {
        let mut ledger = Ledger::default();
        let mut running = inflight(5, WorkerId(9));
        running.cmd.attempts = 3;
        ledger.start_running(running);
        assert_eq!(ledger.running_epoch(CommandId(5)), Some(3));
        assert_eq!(ledger.running_epoch(CommandId(6)), None);
    }

    /// After any sequence of starts and stops the worker index and the
    /// running map describe the same set, and a worker with nothing in
    /// flight has no entry.
    #[test]
    fn worker_index_and_running_map_describe_the_same_set() {
        let mut next = seeded_rng(0x1ed9_e500);
        let mut ledger = Ledger::default();
        let mut model: HashMap<CommandId, WorkerId> = HashMap::new();
        for step in 0..4000 {
            let id = CommandId(next() % 48);
            match model.remove(&id) {
                Some(worker) => {
                    let stopped = ledger.stop_running(id).expect("model says running");
                    assert_eq!(stopped.worker, worker, "step {step}");
                }
                None if next().is_multiple_of(4) => assert!(ledger.stop_running(id).is_none()),
                None => {
                    let worker = WorkerId(next() % 6);
                    model.insert(id, worker);
                    ledger.start_running(inflight(id.0, worker));
                }
            }
            assert_eq!(ledger.running_len(), model.len(), "step {step}");
            let indexed: usize = ledger.by_worker.values().map(HashSet::len).sum();
            assert_eq!(indexed, model.len(), "index size at step {step}");
            assert!(
                ledger.by_worker.values().all(|ids| !ids.is_empty()),
                "empty worker entry left behind at step {step}"
            );
            for w in (0..6).map(WorkerId) {
                let mut indexed = ledger.commands_of(w);
                indexed.sort();
                let mut expected: Vec<CommandId> = model
                    .iter()
                    .filter(|(_, &worker)| worker == w)
                    .map(|(&id, _)| id)
                    .collect();
                expected.sort();
                assert_eq!(ledger.holds(w), !expected.is_empty(), "{w} at step {step}");
                assert_eq!(indexed, expected, "{w} at step {step}");
            }
            assert!(ledger.running().all(|f| model[&f.cmd.id] == f.worker));
        }
    }
}
