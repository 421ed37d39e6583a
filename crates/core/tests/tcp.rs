//! Loopback-TCP integration suite: a real project server listening on
//! an ephemeral port, real worker threads dialing it over authenticated
//! links. Exercises the paths that in-process channels cannot — key
//! rejection, garbage frames from an authenticated peer, a connection
//! dying with a command in flight — and re-asserts the lifecycle
//! invariants (exactly-once accounting, retry budgets) over the wire.

use copernicus_core::faults::{ExecutionLog, FlakyExecutor};
use copernicus_core::prelude::*;
use copernicus_core::wire::{ConnectError, LinkStats, ReconnectPolicy, WireClient};
use copernicus_core::{codec, connect_workers, serve_project, RetryPolicy};
use serde_json::json;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------
// Shared scaffolding
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
        "tcp-gather"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                vec![Action::Spawn(std::mem::take(&mut self.specs))]
            }
            ControllerEvent::CommandFinished(output) => {
                *self
                    .ledger
                    .lock()
                    .unwrap()
                    .entry(output.command.0)
                    .or_insert(0) += 1;
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

fn tcp_config(key: AuthKey) -> RuntimeConfig {
    RuntimeConfig {
        n_workers: 0, // serve_project spawns no workers; they dial in
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
            .build()
            .expect("test config must validate"),
        telemetry: None,
        ..RuntimeConfig::default()
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
// Tests
// ---------------------------------------------------------------------

#[test]
fn tcp_pool_runs_a_project_to_completion() {
    let key = AuthKey::from_passphrase("tcp-pool");
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));
    // Long enough that the queue cannot drain (and the project finish,
    // taking the listener with it) before the last worker has dialed in.
    let controller = Gather::new(specs("sleep", 8, 50), ledger.clone());

    let serving = serve_project(Box::new(controller), tcp_config(key)).unwrap();
    let addr = serving.local_addr.to_string();
    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
    let workers = connect_workers(&addr, key, 3, worker_config(), registry).unwrap();

    let result = serving.join();
    for w in workers {
        w.join();
    }

    assert_eq!(result.commands_completed, 8);
    assert_eq!(result.commands_dropped, 0);
    assert_eq!(result.workers_lost, 0);
    assert_exactly_once(&ledger, 8);
}

#[test]
fn wrong_key_is_rejected_and_right_key_still_works() {
    let key = AuthKey::from_passphrase("the real key");
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));
    let controller = Gather::new(specs("sleep", 4, 50), ledger.clone());

    let serving = serve_project(Box::new(controller), tcp_config(key)).unwrap();
    let addr = serving.local_addr.to_string();
    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));

    // An impostor with the wrong key is turned away at the handshake —
    // fatal immediately, no reconnect storm.
    let impostor = AuthKey::from_passphrase("the wrong key");
    let Err(rejection) = connect_workers(&addr, impostor, 1, worker_config(), registry.clone())
    else {
        panic!("wrong key must fail authentication");
    };
    assert!(
        matches!(rejection, ConnectError::Auth(_)),
        "rejection must be an auth failure, got {rejection:?}"
    );

    // The rejection left the listener healthy: real workers still work.
    let workers = connect_workers(&addr, key, 2, worker_config(), registry).unwrap();
    let result = serving.join();
    for w in workers {
        w.join();
    }
    assert_eq!(result.commands_completed, 4);
    assert_exactly_once(&ledger, 4);
}

#[test]
fn garbage_frames_get_the_connection_kicked_but_the_project_survives() {
    let key = AuthKey::from_passphrase("garbage test");
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));
    let controller = Gather::new(specs("sleep", 4, 50), ledger.clone());

    let serving = serve_project(Box::new(controller), tcp_config(key)).unwrap();
    let addr = serving.local_addr.to_string();

    // An authenticated peer that speaks garbage: every undecodable frame
    // costs it the connection, and none of it reaches the server loop.
    let vandal = WireClient::connect(
        &addr,
        key,
        ReconnectPolicy {
            max_attempts: 1,
            ..ReconnectPolicy::default()
        },
        LinkStats::detached(),
    )
    .unwrap();
    let _ = vandal.send(b"this is not a ToServer message");
    let _ = vandal.send(&[0xFF; 64]);

    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
    let workers = connect_workers(&addr, key, 2, worker_config(), registry).unwrap();
    let result = serving.join();
    vandal.close();
    for w in workers {
        w.join();
    }

    assert_eq!(result.commands_completed, 4);
    assert_eq!(result.commands_dropped, 0);
    assert_exactly_once(&ledger, 4);
}

#[test]
fn connection_killed_with_a_command_in_flight_is_absorbed() {
    let key = AuthKey::from_passphrase("kill test");
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));
    // Long enough that the saboteur can grab one before the pool drains
    // the queue.
    let controller = Gather::new(specs("sleep", 4, 20), ledger.clone());

    let serving = serve_project(Box::new(controller), tcp_config(key)).unwrap();
    let addr = serving.local_addr.to_string();

    // A hand-played worker dials in, announces, takes the top-priority
    // command — then its connection dies without a result.
    let saboteur = WireClient::connect(
        &addr,
        key,
        ReconnectPolicy::default(),
        LinkStats::detached(),
    )
    .unwrap();
    let sab_id = WorkerId(saboteur.session_id());
    saboteur
        .send_session(&codec::encode_to_server(
            &copernicus_core::messages::ToServer::Announce {
                worker: sab_id,
                desc: WorkerDescription {
                    platform: Platform::Smp,
                    resources: Resources::new(1, 1_000_000),
                    executables: vec![ExecutableSpec::new("sleep", Platform::Smp, "1")],
                },
            },
        ))
        .unwrap();
    let stolen = {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            saboteur
                .send(&codec::encode_to_server(
                    &copernicus_core::messages::ToServer::RequestWork { worker: sab_id },
                ))
                .unwrap();
            if let Ok(payload) = saboteur.recv_timeout(Duration::from_millis(100)) {
                if let Ok(copernicus_core::messages::ToWorker::Workload(mut cmds)) =
                    codec::decode_to_worker(&payload)
                {
                    break cmds.pop().expect("workload carries a command");
                }
            }
            assert!(
                Instant::now() < deadline,
                "saboteur got no workload within 5s"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    // The kill: socket torn down mid-command, no result, no heartbeat.
    saboteur.close();

    // A healthy pool arrives and must finish everything, including the
    // stolen command once the watchdog orphans it.
    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
    let workers = connect_workers(&addr, key, 2, worker_config(), registry).unwrap();
    let result = serving.join();
    for w in workers {
        w.join();
    }

    assert_eq!(
        result.commands_completed, 4,
        "stolen command must be re-run"
    );
    assert_eq!(result.commands_dropped, 0);
    assert!(
        result.workers_lost >= 1,
        "the saboteur must be declared lost"
    );
    assert!(
        result.commands_requeued >= 1,
        "the stolen command must re-queue"
    );
    assert_eq!(
        ledger.lock().unwrap().get(&stolen.id.0),
        Some(&1),
        "stolen command exactly once"
    );
    assert_exactly_once(&ledger, 4);
}

#[test]
fn flaky_commands_retry_over_tcp_with_exact_accounting() {
    let key = AuthKey::from_passphrase("flaky tcp");
    let log = ExecutionLog::new();
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));
    let controller = Gather::new(
        (0..4)
            .map(|i| {
                CommandSpec::new(
                    FlakyExecutor::COMMAND_TYPE,
                    Resources::new(1, 1),
                    json!({ "i": i }),
                )
            })
            .collect(),
        ledger.clone(),
    );

    // Stretch the retry embargo so the project outlives the connect
    // phase even though flaky commands themselves run instantly.
    let mut config = tcp_config(key);
    config.server.retry_backoff_base = Duration::from_millis(60);
    config.server.retry_backoff_max = Duration::from_millis(120);
    let serving = serve_project(Box::new(controller), config).unwrap();
    let addr = serving.local_addr.to_string();
    let registry = ExecutorRegistry::new().with(Arc::new(FlakyExecutor::new(1, log.clone())));
    let workers = connect_workers(&addr, key, 2, worker_config(), registry).unwrap();

    let result = serving.join();
    for w in workers {
        w.join();
    }

    assert_eq!(
        result.commands_completed, 4,
        "every flaky command must recover"
    );
    assert_eq!(result.commands_dropped, 0);
    assert_eq!(
        result.commands_requeued, 4,
        "one injected failure per command"
    );
    assert_exactly_once(&ledger, 4);
    for id in ledger.lock().unwrap().keys() {
        assert_eq!(
            log.executions(CommandId(*id)),
            2,
            "command {id}: one failure + one clean run"
        );
    }
}

/// A workload that encodes past the wire's frame cap can never reach
/// the worker, and the worker is perfectly healthy, so no watchdog will
/// ever take the command back. The dispatch must fail like a command
/// error — retried under backoff, then dropped with its one terminal
/// event — while the same worker keeps being served.
#[test]
fn undeliverable_workload_fails_the_dispatch_instead_of_stranding_it() {
    let key = AuthKey::from_passphrase("oversize");
    let ledger: Ledger = Arc::new(Mutex::new(HashMap::new()));
    let oversize = CommandSpec::new(
        "sleep",
        Resources::new(1, 1),
        json!({ "millis": 0, "blob": "x".repeat(copernicus_core::wire::MAX_FRAME + 1) }),
    )
    .with_priority(2);
    let small = CommandSpec::new("sleep", Resources::new(1, 1), json!({ "millis": 1 }));
    let controller = Gather::new(vec![oversize, small], ledger.clone());

    let serving = serve_project(Box::new(controller), tcp_config(key)).unwrap();
    let addr = serving.local_addr.to_string();
    let registry = ExecutorRegistry::new().with(Arc::new(SleepExecutor));
    let workers = connect_workers(&addr, key, 1, worker_config(), registry).unwrap();

    let result = serving.join();
    for w in workers {
        w.join();
    }

    assert_eq!(
        result.commands_dropped, 1,
        "the oversize command is dropped"
    );
    assert_eq!(
        result.commands_requeued, 4,
        "after the whole retry budget (5 attempts)"
    );
    assert_eq!(
        result.commands_completed, 1,
        "the worker that could not be sent the first workload was served the next"
    );
    assert_eq!(result.workers_lost, 0, "nothing was wrong with the worker");
    assert_exactly_once(&ledger, 2);
}
