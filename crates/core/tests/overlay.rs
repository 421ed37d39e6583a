//! Overlay integration suite: two real project servers peered over
//! loopback TCP, with a worker pool attached to only one of them.
//!
//! Exercises the delegation path end to end — the peered server offers
//! its idle workers to the command owner, commands execute remotely,
//! results flow back and land in the owner's exactly-once ledger — and
//! the failure path: killing the delegating router mid-command must
//! leave the owner's accounting intact (commands re-queue and complete
//! elsewhere, with no duplicate `CommandFinished`).
//!
//! The broker fairness regression rides along: three channel servers
//! with uneven backlogs, one of them stalled inside its controller,
//! must not starve the others.

use copernicus_core::prelude::*;
use copernicus_core::transport::channel;
use copernicus_core::{
    connect_workers, serve_project, spawn_router, spawn_worker, BrokerConfig, ExecContext,
    ExecError, LocalUpstream, OverlayConfig, RetryPolicy, Server, Upstream,
};
use serde_json::json;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Shared scaffolding (mirrors tests/tcp.rs)
// ---------------------------------------------------------------------

/// Terminal-event ledger: command id → number of terminal events seen.
type Ledger = Arc<Mutex<HashMap<u64, u32>>>;

/// Spawns `specs`, records every terminal event, finishes when all
/// commands are accounted for.
struct Gather {
    specs: Vec<CommandSpec>,
    n: usize,
    seen: usize,
    ledger: Ledger,
}

impl Gather {
    fn new(specs: Vec<CommandSpec>, ledger: Ledger) -> Self {
        let n = specs.len();
        Gather {
            specs,
            n,
            seen: 0,
            ledger,
        }
    }

    fn step(&mut self) -> Vec<Action> {
        self.seen += 1;
        if self.seen == self.n {
            vec![Action::FinishProject {
                result: json!("done"),
            }]
        } else {
            vec![]
        }
    }
}

impl Controller for Gather {
    fn name(&self) -> &str {
        "overlay-gather"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                vec![Action::Spawn(std::mem::take(&mut self.specs))]
            }
            ControllerEvent::CommandFinished(output) => {
                *self.ledger.lock().unwrap().entry(output.command.0).or_insert(0) += 1;
                self.step()
            }
            ControllerEvent::CommandDropped { command, .. } => {
                *self.ledger.lock().unwrap().entry(command.0).or_insert(0) += 1;
                self.step()
            }
            ControllerEvent::WorkerFailed { .. } => vec![],
        }
    }
}

/// A server with no work of its own: finishes immediately, leaving its
/// router free to delegate every dialing worker to the peers.
struct Idle;

impl Controller for Idle {
    fn name(&self) -> &str {
        "overlay-idle"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => vec![Action::FinishProject {
                result: json!("idle"),
            }],
            _ => vec![],
        }
    }
}

fn specs(command_type: &str, n: usize, millis: u64) -> Vec<CommandSpec> {
    (0..n)
        .map(|i| {
            CommandSpec::new(
                command_type,
                Resources::new(1, 1),
                json!({ "millis": millis }),
            )
            .with_priority((n - i) as i32)
        })
        .collect()
}

fn owner_config(key: AuthKey, telemetry: Option<Telemetry>) -> RuntimeConfig {
    RuntimeConfig {
        n_workers: 0, // workers dial in (via the peer, for these tests)
        worker: worker_config(),
        server: ServerConfig::builder()
            .heartbeat_interval(Duration::from_millis(50))
            .watchdog_period(Duration::from_millis(10))
            .retry(RetryPolicy {
                max_attempts: 5,
                backoff_base: Duration::from_millis(5),
                backoff_max: Duration::from_millis(40),
            })
            .bind("127.0.0.1:0", key)
            .name("owner")
            .build()
            .expect("owner config must validate"),
        telemetry,
        ..RuntimeConfig::default()
    }
}

fn delegate_config(key: AuthKey, owner_addr: &str) -> RuntimeConfig {
    traced_delegate_config(key, owner_addr, None)
}

fn traced_delegate_config(
    key: AuthKey,
    owner_addr: &str,
    telemetry: Option<Telemetry>,
) -> RuntimeConfig {
    RuntimeConfig {
        n_workers: 0,
        worker: worker_config(),
        server: ServerConfig::builder()
            .heartbeat_interval(Duration::from_millis(50))
            .watchdog_period(Duration::from_millis(10))
            .bind("127.0.0.1:0", key)
            .name("delegate")
            .peer(owner_addr)
            .build()
            .expect("delegate config must validate"),
        overlay: OverlayConfig {
            // Short offer patience keeps the router loop responsive:
            // delegation offers cycle quickly and stop_router() bites
            // within one offer round.
            offer_patience: Duration::from_millis(200),
            ..OverlayConfig::default()
        },
        telemetry,
    }
}

fn worker_config() -> WorkerConfig {
    WorkerConfig {
        heartbeat_interval: Duration::from_millis(25),
        poll_interval: Duration::from_millis(2),
        ..WorkerConfig::default()
    }
}

fn assert_exactly_once(ledger: &Ledger, n: usize) {
    let ledger = ledger.lock().unwrap();
    assert_eq!(ledger.len(), n, "every command reaches a terminal event");
    for (id, &events) in ledger.iter() {
        assert_eq!(
            events, 1,
            "command {id}: expected exactly one terminal event"
        );
    }
}

// ---------------------------------------------------------------------
// Happy path: cross-server delegation completes the owner's project
// ---------------------------------------------------------------------

#[test]
fn delegated_commands_complete_via_peer() {
    let key = AuthKey::from_passphrase("overlay");
    let telemetry = Telemetry::new();
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));

    // Server A owns the backlog. No worker ever dials it directly.
    let n = 6;
    let gather = Gather::new(specs("sleep", n, 20), ledger.clone());
    let a = serve_project(Box::new(gather), owner_config(key, Some(telemetry.clone())))
        .expect("owner server must bind");
    let a_addr = a.local_addr.to_string();

    // Server B has no work of its own but peers with A; the worker
    // pool attaches to B only, so completions can only come through
    // the delegation path.
    let b = serve_project(Box::new(Idle), delegate_config(key, &a_addr))
        .expect("delegate server must bind");
    let b_addr = b.local_addr.to_string();

    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
    let workers = connect_workers(&b_addr, key, 3, worker_config(), registry)
        .expect("workers must connect to the delegate");

    // The owner finishes only when every delegated command reports in.
    let result = a.join();
    assert_eq!(result.result, json!("done"));
    assert_eq!(result.commands_completed, n as u64);
    assert_eq!(result.commands_dropped, 0);
    assert_exactly_once(&ledger, n);

    // A's shutdown broadcast tells B's peer link the project is over;
    // B's router then releases its workers. Join them before tearing
    // B down so the natural shutdown path (not stop_router) is what
    // gets exercised.
    for w in workers {
        w.join();
    }
    let b_result = b.join();
    assert_eq!(b_result.result, json!("idle"));

    // The owner journalled the overlay: the peer introduced itself and
    // every completion arrived as a delegated result.
    let journal = telemetry.export_journal_jsonl();
    assert!(
        journal.contains("peer_connected"),
        "owner journal must record the peer link: {journal}"
    );
    assert!(
        journal.contains("\"delegate\""),
        "peer event must carry the peer's announced name: {journal}"
    );
    let delegated = journal.matches("delegation_completed").count();
    assert!(
        delegated >= n,
        "expected at least {n} delegation_completed events, saw {delegated}: {journal}"
    );
}

// ---------------------------------------------------------------------
// Replica exchange across the overlay: sync points behind a delegate
// ---------------------------------------------------------------------

/// A repex ladder whose legs all execute on a *peered* server's workers.
/// Exchange partners rendezvous at the owner — the controller never
/// knows its energies crossed a delegate link — so the ladder must
/// resolve exactly as it does locally, and the owner's journal must
/// show every leg as a delegated completion.
#[test]
fn repex_ladder_resolves_when_replicas_live_behind_a_delegate() {
    let key = AuthKey::from_passphrase("overlay-repex");
    let telemetry = Telemetry::new();

    let config = RepexProjectConfig {
        n_replicas: 4,
        n_legs: 4,
        steps_per_leg: 150,
        mode: ExchangeMode::Async,
        seed: 42,
        ..RepexProjectConfig::default()
    };
    let controller = RepexController::new(config);
    let model = controller.model();

    // Server A owns the ladder but has no workers of its own.
    let a = serve_project(
        Box::new(controller),
        owner_config(key, Some(telemetry.clone())),
    )
    .expect("owner server must bind");
    let a_addr = a.local_addr.to_string();

    // Server B idles, peers with A, and hosts the only worker pool —
    // every leg (and therefore every exchange energy) crosses the link.
    let b = serve_project(Box::new(Idle), delegate_config(key, &a_addr))
        .expect("delegate server must bind");
    let b_addr = b.local_addr.to_string();

    let registry = ExecutorRegistry::new().with(Arc::new(MdRunExecutor::new(model)));
    let workers = connect_workers(&b_addr, key, 3, worker_config(), registry)
        .expect("workers must connect to the delegate");

    let result = a.join();
    assert_eq!(result.commands_dropped, 0);
    assert_eq!(result.commands_completed, 16, "4 replicas × 4 legs");
    let report =
        RepexProjectReport::from_value(&result.result).expect("repex report must parse");
    assert_eq!(report.n_alive, 4);
    // 4 legs over 4 replicas: even parity carries 2 pairs, odd 1.
    assert_eq!(report.attempts, 6, "the full exchange schedule resolves");
    let mut walkers = report.walkers.clone();
    walkers.sort_unstable();
    assert_eq!(walkers, vec![0, 1, 2, 3], "occupancy stays a permutation");

    for w in workers {
        w.join();
    }
    let b_result = b.join();
    assert_eq!(b_result.result, json!("idle"));

    let journal = telemetry.export_journal_jsonl();
    assert!(
        journal.contains("peer_connected"),
        "owner journal must record the peer link"
    );
    let delegated = journal.matches("delegation_completed").count();
    assert!(
        delegated >= 16,
        "every leg must complete via delegation, saw {delegated}"
    );
    let exchanges = journal.matches("replica_exchange").count();
    assert_eq!(
        exchanges, 6,
        "the owner must journal each sync-point decision: {journal}"
    );
}

// ---------------------------------------------------------------------
// Distributed tracing: one merged span tree across both servers
// ---------------------------------------------------------------------

/// A command delegated across two peered servers must produce ONE
/// merged trace whose span tree covers all three processes: the owning
/// server (`command` → `attempt`), the delegate (`delegated` hold) and
/// the worker pool (`exec`), chained by parent span ids across the
/// wire. This is exactly what `copernicus trace merge` computes from
/// the three `trace_spans.jsonl` files.
#[test]
fn delegated_commands_form_one_merged_cross_process_trace() {
    use copernicus_telemetry::trace::{self, ProcessLog};
    use copernicus_telemetry::{span_names, Json};

    let key = AuthKey::from_passphrase("overlay-trace");
    let owner_t = Telemetry::for_process("owner");
    let delegate_t = Telemetry::for_process("delegate");
    let workers_t = Telemetry::for_process("workers");
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));

    let n = 3;
    let gather = Gather::new(specs("sleep", n, 10), ledger.clone());
    let a = serve_project(Box::new(gather), owner_config(key, Some(owner_t.clone())))
        .expect("owner server must bind");
    let a_addr = a.local_addr.to_string();
    let b = serve_project(
        Box::new(Idle),
        traced_delegate_config(key, &a_addr, Some(delegate_t.clone())),
    )
    .expect("delegate server must bind");
    let b_addr = b.local_addr.to_string();

    // Workers attach only to the delegate: every completion crosses the
    // delegation path, so every trace must span processes.
    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
    let traced_workers = WorkerConfig {
        telemetry: Some(workers_t.clone()),
        ..worker_config()
    };
    let workers = connect_workers(&b_addr, key, 2, traced_workers, registry)
        .expect("workers must connect to the delegate");

    let result = a.join();
    assert_eq!(result.commands_completed, n as u64);
    for w in workers {
        w.join();
    }
    let _ = b.join();
    assert_exactly_once(&ledger, n);

    // Merge the three span logs exactly as the CLI tooling would.
    let logs: Vec<ProcessLog> = [&owner_t, &delegate_t, &workers_t]
        .iter()
        .map(|t| {
            let (log, errors) = trace::parse_jsonl(&t.export_trace_jsonl());
            assert!(errors.is_empty(), "span log must parse cleanly: {errors:?}");
            log
        })
        .collect();
    let merged = trace::merge(&logs);
    assert_eq!(
        merged.trace_ids().len(),
        n,
        "one trace per command, nothing merged away or split"
    );

    for tid in merged.trace_ids() {
        let procs = merged.processes_of(tid);
        for p in ["owner", "delegate", "workers"] {
            assert!(
                procs.iter().any(|q| q == p),
                "trace {tid:#x} must span {p}: got {procs:?}"
            );
        }
        // Exactly one root: the owner's command-lifecycle span.
        let roots = merged.roots_of(tid);
        assert_eq!(roots.len(), 1, "trace {tid:#x} must have one root");
        let root = roots[0];
        assert_eq!(root.span.name, span_names::COMMAND);
        assert_eq!(root.process, "owner");
        assert!(
            root.span
                .attrs
                .iter()
                .any(|(k, v)| k == "disposition" && v == "completed"),
            "root span must carry the terminal disposition: {:?}",
            root.span.attrs
        );
        // The causal chain hops processes: attempt (owner) → delegated
        // (delegate) → exec (workers).
        let attempt = merged
            .children_of(tid, root.span.span_id)
            .into_iter()
            .filter(|s| s.span.name == span_names::ATTEMPT)
            .find(|s| {
                merged
                    .children_of(tid, s.span.span_id)
                    .iter()
                    .any(|c| c.span.name == span_names::DELEGATED)
            })
            .expect("an attempt span with a delegated child");
        assert_eq!(attempt.process, "owner");
        let delegated = merged
            .children_of(tid, attempt.span.span_id)
            .into_iter()
            .find(|s| s.span.name == span_names::DELEGATED)
            .expect("delegated hold under the attempt");
        assert_eq!(delegated.process, "delegate");
        let exec = merged
            .children_of(tid, delegated.span.span_id)
            .into_iter()
            .find(|s| s.span.name == span_names::EXEC)
            .expect("exec span under the delegated hold");
        assert_eq!(exec.process, "workers");
    }

    // The Chrome export of the merged view round-trips through the JSON
    // parser and carries events from all three processes (pids 1..=3).
    let chrome = merged.chrome_json();
    let parsed = Json::parse(&chrome.to_string()).expect("chrome export must be valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let mut pids_with_spans: Vec<u64> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
        .filter_map(|e| e.get("pid").and_then(Json::as_u64))
        .collect();
    pids_with_spans.sort_unstable();
    pids_with_spans.dedup();
    assert_eq!(
        pids_with_spans,
        vec![1, 2, 3],
        "complete events must come from all three processes"
    );
}

// ---------------------------------------------------------------------
// Failure path: the delegate dies mid-command; the owner recovers
// ---------------------------------------------------------------------

/// Executor that parks in `execute` until released — lets the test pin
/// commands "in flight on a remote worker" deterministically.
struct GateExecutor {
    started: Arc<AtomicUsize>,
    release: Arc<AtomicBool>,
}

impl CommandExecutor for GateExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new("hold", Platform::Smp, "0.1")]
    }

    fn execute(&self, _ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        self.started.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !self.release.load(Ordering::SeqCst) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(json!({ "held": true }))
    }
}

#[test]
fn killing_the_delegate_mid_command_preserves_the_owner_ledger() {
    let key = AuthKey::from_passphrase("overlay-faults");
    let telemetry = Telemetry::new();
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));

    let n = 4;
    let gather = Gather::new(specs("hold", n, 0), ledger.clone());
    let a = serve_project(Box::new(gather), owner_config(key, Some(telemetry.clone())))
        .expect("owner server must bind");
    let a_addr = a.local_addr.to_string();

    let b = serve_project(Box::new(Idle), delegate_config(key, &a_addr))
        .expect("delegate server must bind");
    let b_addr = b.local_addr.to_string();

    let started = Arc::new(AtomicUsize::new(0));
    let release = Arc::new(AtomicBool::new(false));
    let gate = Arc::new(GateExecutor {
        started: started.clone(),
        release: release.clone(),
    });
    let registry = ExecutorRegistry::new().with(gate);

    // Two workers dial the delegate and park inside delegated commands.
    let stranded = connect_workers(&b_addr, key, 2, worker_config(), registry.clone())
        .expect("workers must connect to the delegate");
    let deadline = Instant::now() + Duration::from_secs(10);
    while started.load(Ordering::SeqCst) < 1 {
        assert!(
            Instant::now() < deadline,
            "no delegated command ever started executing"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // Kill the delegate with commands still held remotely. join() on
    // the delegate reaps its router thread, so after this point no
    // result and no forwarded heartbeat can ever reach the owner from
    // the stranded workers — from A's perspective the peer crashed.
    b.stop_router();
    let _ = b.join();
    release.store(true, Ordering::SeqCst);
    // The stranded workers will finish their held commands, fail to
    // report (their server is gone), exhaust reconnection and exit;
    // they are deliberately not joined here.
    drop(stranded);

    // The owner's watchdog declares the namespaced remote workers lost
    // and re-queues their commands; a fresh pool dialing the owner
    // directly completes everything.
    let recovery = connect_workers(&a_addr, key, 2, worker_config(), registry)
        .expect("recovery workers must connect to the owner");

    let result = a.join();
    assert_eq!(result.result, json!("done"));
    assert_eq!(result.commands_completed, n as u64);
    assert_eq!(result.commands_dropped, 0);
    assert!(
        result.commands_requeued >= 1,
        "the held command must have been re-queued after the peer died: {result:?}"
    );
    assert!(
        result.workers_lost >= 1,
        "the owner must have declared the remote worker lost: {result:?}"
    );
    // The delegated attempts died with the peer: nothing ever came
    // back for them, so the dedup layer saw no stale duplicates — and
    // the controller saw exactly one terminal event per command.
    assert_eq!(result.stale_results_dropped, 0, "{result:?}");
    assert_exactly_once(&ledger, n);

    for w in recovery {
        w.join();
    }
}

// ---------------------------------------------------------------------
// Broker fairness: a stalled controller must not starve its siblings
// ---------------------------------------------------------------------

/// Sleep-command project that parks its server loop inside the
/// controller after the first completion, until released. While parked
/// the server cannot answer work requests — the router's offer
/// patience is what keeps the other projects fed.
struct StallController {
    label: &'static str,
    n: usize,
    done: usize,
    gate: Option<mpsc::Receiver<()>>,
    stalled: Arc<AtomicBool>,
}

impl Controller for StallController {
    fn name(&self) -> &str {
        self.label
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                vec![Action::Spawn(specs("sleep", self.n, 5))]
            }
            ControllerEvent::CommandFinished(_) => {
                if let Some(rx) = self.gate.take() {
                    self.stalled.store(true, Ordering::SeqCst);
                    let _ = rx.recv();
                    self.stalled.store(false, Ordering::SeqCst);
                }
                self.done += 1;
                if self.done == self.n {
                    vec![Action::FinishProject {
                        result: json!(self.label),
                    }]
                } else {
                    vec![]
                }
            }
            _ => vec![],
        }
    }
}

#[test]
fn stalled_controller_does_not_starve_its_sibling_servers() {
    let (release_tx, release_rx) = mpsc::channel();
    let stalled = Arc::new(AtomicBool::new(false));

    // Uneven backlogs; the largest project is also the one that stalls.
    // Generous attempt budget on every server: each offer that times
    // out while the staller is parked burns one attempt when the stale
    // reply is eventually declined.
    let plans: Vec<(&'static str, usize, Option<mpsc::Receiver<()>>)> = vec![
        ("staller", 8, Some(release_rx)),
        ("small", 2, None),
        ("medium", 3, None),
    ];
    let mut upstreams: Vec<Box<dyn Upstream>> = Vec::new();
    let mut server_threads = Vec::new();
    for (i, (label, n, gate)) in plans.into_iter().enumerate() {
        let (hub, transport) = channel();
        let config = ServerConfig::builder()
            .retry(RetryPolicy {
                max_attempts: 50,
                backoff_base: Duration::from_millis(1),
                backoff_max: Duration::from_millis(5),
            })
            .build()
            .expect("channel server config must validate");
        let server = Server::new(
            ProjectId(i as u64),
            Box::new(StallController {
                label,
                n,
                done: 0,
                gate,
                stalled: stalled.clone(),
            }),
            config,
            SharedFs::new(),
            Monitor::new(),
            Box::new(transport),
        );
        upstreams.push(Box::new(LocalUpstream::new(label, hub)));
        server_threads.push(std::thread::spawn(move || server.run()));
    }

    let (worker_hub, worker_transport) = channel();
    let router = spawn_router(
        upstreams,
        Box::new(worker_transport),
        BrokerConfig {
            offer_patience: Duration::from_millis(100),
        },
    );

    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
    let workers: Vec<_> = (0..2)
        .map(|i| {
            let id = WorkerId(100 + i);
            spawn_worker(
                id,
                worker_config(),
                registry.clone(),
                Box::new(worker_hub.attach(id)),
            )
        })
        .collect();
    drop(worker_hub);

    // The small projects must drain to completion while the staller is
    // still parked inside its controller — rotation plus bounded offer
    // patience is exactly what guarantees this.
    let medium = server_threads.pop().expect("medium server");
    let small = server_threads.pop().expect("small server");
    let small_result = small.join().expect("small server must not panic");
    let medium_result = medium.join().expect("medium server must not panic");
    assert!(
        stalled.load(Ordering::SeqCst),
        "the sibling projects should finish while the staller is parked"
    );
    assert_eq!(small_result.result, json!("small"));
    assert_eq!(small_result.commands_completed, 2);
    assert_eq!(medium_result.result, json!("medium"));
    assert_eq!(medium_result.commands_completed, 3);

    // Release the staller; its backlog (including every declined stale
    // dispatch) must still complete without dropping anything.
    release_tx.send(()).expect("staller is waiting on the gate");
    let staller = server_threads.pop().expect("staller server");
    let staller_result = staller.join().expect("staller must not panic");
    assert_eq!(staller_result.result, json!("staller"));
    assert_eq!(staller_result.commands_completed, 8);
    assert_eq!(staller_result.commands_dropped, 0);

    for w in workers {
        w.join();
    }
    router.join();
}
