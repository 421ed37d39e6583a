//! The worker client: announces itself, polls for workloads, executes
//! commands, heartbeats, and (for fault-tolerance tests) can crash on
//! cue.
//!
//! **One workload in hand.** A worker keeps [`IN_HAND`] workloads held
//! or requested: the one it runs next and one behind it. The report of
//! a workload's last command leaves in one frame with as many
//! `RequestWork`s as that takes — one in steady state (the reply to the
//! last one is already waiting in the reply channel), two on the first
//! report and after a `NoWork` — so when a command ends, the next one
//! is usually already local and starts without a round trip to the
//! server or a wait for the controller's analysis of the result. The
//! server hands a worker that already holds a command more work only
//! from a surplus (see `Server::answer_request`); a `NoWork` that
//! answers such an ahead request costs no [`WorkerConfig::poll_interval`]
//! sleep, because another answer is still on its way. Only the `NoWork`
//! to the last outstanding request means there is nothing to do.
//!
//! The loop is written against [`WorkerTransport`], so the same code
//! serves both in-process channel workers and TCP workers dialing a
//! remote server. The transport differences that matter here:
//!
//! * a reply can *time out* (server busy in a long controller step) —
//!   the worker simply re-requests; the server dedups by attempt epoch;
//! * a TCP link can drop and come back ([`WorkerRecvError::Reconnected`])
//!   — the announce was replayed by the transport, so the worker
//!   re-requests work and carries on.

use crate::command::{Command, CommandOutput};
use crate::executor::{CommandExecutor, ExecContext, ExecError, ExecutorRegistry};
use crate::fs::SharedFs;
use crate::ids::WorkerId;
use crate::messages::{ToServer, ToWorker};
use crate::resources::{Platform, Resources, WorkerDescription};
use crate::transport::{WorkerRecvError, WorkerTransport};
use copernicus_telemetry::{buckets, labels, names, span_names, Telemetry};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Workloads a worker keeps held or requested: the one it runs next,
/// and one behind it.
const IN_HAND: usize = 2;

/// Worker configuration.
#[derive(Clone)]
pub struct WorkerConfig {
    pub platform: Platform,
    pub resources: Resources,
    /// Heartbeat send period (must be ≤ the server's expectation).
    pub heartbeat_interval: Duration,
    /// Poll period while the queue is empty.
    pub poll_interval: Duration,
    /// How long to wait for the reply to one work request before
    /// re-requesting. Bounds how long a lost reply (dropped TCP link,
    /// server mid-clustering) stalls the worker; duplicated requests
    /// are safe under the server's attempt-epoch dedup.
    pub reply_timeout: Duration,
    /// Whether this worker shares a filesystem with the server (enables
    /// checkpoint deposits).
    pub shared_fs: Option<SharedFs>,
    /// Telemetry handle: per-command wall-time histograms plus
    /// instrumented execution (checkpoint I/O, MD step timings).
    pub telemetry: Option<Telemetry>,
}

impl Default for WorkerConfig {
    fn default() -> Self {
        WorkerConfig {
            platform: Platform::Smp,
            resources: Resources::new(1, 1024),
            heartbeat_interval: Duration::from_millis(100),
            poll_interval: Duration::from_millis(5),
            reply_timeout: Duration::from_secs(30),
            shared_fs: None,
            telemetry: None,
        }
    }
}

/// Shutdown gate shared between the worker loop and its heartbeat
/// ticker. The ticker parks on a condvar with the heartbeat interval as
/// timeout, so closing the gate wakes it *immediately* — joining a
/// worker costs microseconds instead of a full heartbeat period.
#[derive(Default)]
struct Gate {
    closed: Mutex<bool>,
    wake: Condvar,
}

impl Gate {
    /// Signal shutdown and wake every parked waiter.
    fn close(&self) {
        *self.closed.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.wake.notify_all();
    }

    fn is_closed(&self) -> bool {
        *self.closed.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Park for up to `timeout`; returns `true` if the gate is closed
    /// (shutdown), `false` on an ordinary tick.
    fn wait(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut closed = self.closed.lock().unwrap_or_else(|e| e.into_inner());
        while !*closed {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .wake
                .wait_timeout(closed, deadline - now)
                .unwrap_or_else(|e| e.into_inner());
            closed = guard;
        }
        true
    }
}

/// Handle to a spawned worker thread.
pub struct WorkerHandle {
    pub id: WorkerId,
    thread: JoinHandle<()>,
    heartbeat: JoinHandle<()>,
    gate: Arc<Gate>,
}

impl WorkerHandle {
    /// Wait for the worker to exit (after server shutdown or crash).
    /// The heartbeat ticker is woken through the shutdown gate, so this
    /// returns as soon as the worker loop ends rather than after a
    /// trailing heartbeat sleep.
    pub fn join(self) {
        let _ = self.thread.join();
        // The loop closed the gate on exit; closing again is a no-op but
        // guards against a worker thread that panicked before closing.
        self.gate.close();
        let _ = self.heartbeat.join();
    }

    /// Whether the worker loop has exited (crashed or shut down).
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }
}

/// Spawn a worker thread serving the given executor registry over the
/// given transport (in-process channel or TCP — the loop cannot tell).
pub fn spawn_worker(
    id: WorkerId,
    config: WorkerConfig,
    registry: ExecutorRegistry,
    transport: Box<dyn WorkerTransport>,
) -> WorkerHandle {
    let gate = Arc::new(Gate::default());

    // Heartbeat ticker: a separate thread so a long-running command does
    // not silence the worker (mirrors the real client's design). It
    // holds a detached sender, leaving the receiving half to the loop.
    let heartbeat = {
        let gate = gate.clone();
        let sender = transport.sender();
        let interval = config.heartbeat_interval;
        std::thread::spawn(move || {
            while !gate.is_closed() {
                if sender.send(ToServer::Heartbeat { worker: id }).is_err() {
                    break;
                }
                if gate.wait(interval) {
                    break;
                }
            }
        })
    };

    let thread = {
        let gate = gate.clone();
        std::thread::spawn(move || {
            worker_loop(id, config, registry, transport, &gate);
        })
    };

    WorkerHandle {
        id,
        thread,
        heartbeat,
        gate,
    }
}

fn worker_loop(
    id: WorkerId,
    config: WorkerConfig,
    registry: ExecutorRegistry,
    mut transport: Box<dyn WorkerTransport>,
    gate: &Gate,
) {
    let desc = WorkerDescription {
        platform: config.platform,
        resources: config.resources,
        executables: registry.executables(),
    };
    if transport
        .announce(ToServer::Announce { worker: id, desc })
        .is_err()
    {
        gate.close();
        return;
    }

    let request = ToServer::RequestWork { worker: id };
    // Requests sent and not yet answered — or answered, with the reply
    // waiting unread in the channel: that reply is the workload in hand.
    let mut asked: usize = 0;
    'outer: loop {
        if asked == 0 {
            if transport.send(request.clone()).is_err() {
                break;
            }
            asked = 1;
        }
        let reply = transport.recv_timeout(config.reply_timeout);
        if reply.is_ok() {
            // (A reply to a request given up on by a timeout finds
            // nothing to count down.)
            asked = asked.saturating_sub(1);
        }
        match reply {
            Ok(ToWorker::Workload(commands)) => {
                let last = commands.len().saturating_sub(1);
                for (i, cmd) in commands.into_iter().enumerate() {
                    let report = match registry.lookup(&cmd.command_type) {
                        None => ToServer::CommandError {
                            worker: id,
                            project: cmd.project,
                            command: cmd.id,
                            epoch: cmd.attempts,
                            error: format!("no executable for '{}'", cmd.command_type),
                        },
                        Some(executor) => match execute(id, &config, executor.as_ref(), &cmd) {
                            Some(report) => report,
                            // Die silently: no report, no more heartbeats.
                            None => break 'outer,
                        },
                    };
                    // The report of the last command carries the
                    // requests that top the hand up again, so the server
                    // can refill this worker before it does anything
                    // else with the result.
                    let sent = if i == last {
                        // At least one: a reply was just taken.
                        let ahead = IN_HAND - asked;
                        asked = IN_HAND;
                        let mut batch = vec![report];
                        batch.extend(std::iter::repeat_n(request.clone(), ahead));
                        transport.send(ToServer::Batch(batch))
                    } else {
                        transport.send(report)
                    };
                    if sent.is_err() {
                        break 'outer;
                    }
                }
            }
            // Another answer is on its way: wait for it, not a poll.
            Ok(ToWorker::NoWork) if asked > 0 => {}
            Ok(ToWorker::NoWork) => std::thread::sleep(config.poll_interval),
            Ok(ToWorker::Shutdown) => break,
            // Reply lost or slow: re-request. A stale workload that
            // arrives later is still executed; its results judge
            // normally under the server's epoch dedup.
            Err(WorkerRecvError::Timeout) | Err(WorkerRecvError::Reconnected) => asked = 0,
            Err(WorkerRecvError::Closed(_)) => break,
        }
    }
    gate.close();
}

/// Run one command and say what to tell the server: its output, or the
/// error it reported. `None` is a simulated crash.
fn execute(
    id: WorkerId,
    config: &WorkerConfig,
    executor: &dyn CommandExecutor,
    cmd: &Command,
) -> Option<ToServer> {
    // Trace: an `exec` span parented on the attempt context the server
    // stamped into the command, so worker-side wall time nests under
    // the owner's attempt in a merged trace.
    let mut exec_span = match (&config.telemetry, &cmd.trace) {
        (Some(t), Some(ctx)) => {
            let actor = format!("worker-{}", id.0);
            let mut span = t.tracer().start_child(span_names::EXEC, &actor, ctx);
            span.set_attr("command", cmd.id.to_string());
            span.set_attr("epoch", cmd.attempts.to_string());
            Some(span)
        }
        _ => None,
    };
    let t0 = Instant::now();
    let result = executor.execute(ExecContext {
        command: cmd,
        worker: id,
        shared_fs: config.shared_fs.as_ref(),
        telemetry: config.telemetry.as_ref(),
    });
    if let Some(span) = exec_span.as_mut() {
        span.set_attr(
            "outcome",
            match &result {
                Ok(_) => "ok",
                Err(ExecError::SimulatedCrash) => "crash",
                Err(_) => "error",
            },
        );
    }
    drop(exec_span);
    match result {
        Ok(data) => {
            let wall = t0.elapsed();
            if let Some(t) = &config.telemetry {
                t.registry()
                    .histogram(
                        names::COMMAND_WALL,
                        labels(&[("kind", &cmd.command_type)]),
                        buckets::SECONDS,
                    )
                    .record_duration(wall);
            }
            let output = CommandOutput::new(cmd, id, data, wall.as_secs_f64());
            Some(ToServer::Completed { output })
        }
        Err(ExecError::SimulatedCrash) => None,
        Err(err @ (ExecError::BadPayload(_) | ExecError::Failed(_))) => {
            Some(ToServer::CommandError {
                worker: id,
                project: cmd.project,
                command: cmd.id,
                epoch: cmd.attempts,
                error: err.report().unwrap_or("unknown").to_string(),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandSpec;
    use crate::ids::{CommandId, ProjectId};
    use crate::resources::ExecutableSpec;
    use crate::transport::{self, ServerTransport};
    use serde_json::json;

    struct Noop;

    impl CommandExecutor for Noop {
        fn executables(&self) -> Vec<ExecutableSpec> {
            vec![ExecutableSpec::new("noop", Platform::Smp, "1")]
        }
        fn execute(&self, _ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
            Ok(json!(null))
        }
    }

    fn noop(id: u64) -> Command {
        let spec = CommandSpec::new("noop", Resources::new(1, 1), json!(null));
        Command::from_spec(CommandId(id), ProjectId(0), spec)
    }

    /// What the worker sent next, heartbeats skipped, as the ids its
    /// reports name and the number of requests behind them.
    fn next(server: &mut dyn ServerTransport) -> (Vec<u64>, usize) {
        let mut reports = Vec::new();
        let mut requests = 0;
        let msgs = match server.recv_timeout(Duration::from_secs(5)) {
            Ok(ToServer::Heartbeat { .. }) => return next(server),
            Ok(ToServer::Batch(msgs)) => msgs,
            Ok(msg) => vec![msg],
            Err(_) => panic!("the worker sent nothing within 5 s"),
        };
        for msg in msgs {
            match msg {
                ToServer::Completed { output } => reports.push(output.command.0),
                ToServer::RequestWork { .. } => requests += 1,
                ToServer::Announce { .. } => {}
                other => panic!("unexpected {other:?}"),
            }
        }
        (reports, requests)
    }

    /// The report of a workload carries the requests that keep two
    /// workloads held or requested — two on the first report and after
    /// a `NoWork`, one in steady state — and a `NoWork` that answers a
    /// request made ahead is followed by the next reply, not by a poll
    /// interval of sleep.
    #[test]
    fn a_worker_keeps_one_workload_in_hand_and_a_no_work_ahead_costs_no_sleep() {
        let (hub, mut server) = transport::channel();
        let id = WorkerId(1);
        let config = WorkerConfig {
            heartbeat_interval: Duration::from_secs(60),
            poll_interval: Duration::from_secs(60),
            ..WorkerConfig::default()
        };
        let registry = ExecutorRegistry::new().with(Arc::new(Noop));
        let handle = spawn_worker(id, config, registry, Box::new(hub.attach(id)));

        assert_eq!(next(&mut server), (vec![], 0), "the announce");
        assert_eq!(next(&mut server), (vec![], 1), "one request to start");
        server.send(id, ToWorker::Workload(vec![noop(0)])).unwrap();
        assert_eq!(next(&mut server), (vec![0], 2), "the first report");

        // The first request finds nothing; the second does. The worker
        // waits for the second answer instead of sleeping 60 s (and
        // `next` gives up after 5).
        server.send(id, ToWorker::NoWork).unwrap();
        server.send(id, ToWorker::Workload(vec![noop(1)])).unwrap();
        assert_eq!(next(&mut server), (vec![1], 2), "after a NoWork");

        // Both granted: one workload runs, the other waits in hand, and
        // the report asks for one more.
        server.send(id, ToWorker::Workload(vec![noop(2)])).unwrap();
        server.send(id, ToWorker::Workload(vec![noop(3)])).unwrap();
        assert_eq!(next(&mut server), (vec![2], 1), "steady state");
        assert_eq!(next(&mut server), (vec![3], 1), "steady state");

        server.send(id, ToWorker::Shutdown).unwrap();
        handle.join();
    }
}
