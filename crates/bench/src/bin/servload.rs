//! servload — server-load benchmark for the command pipeline.
//!
//! The paper's Figs. 6–9 quantify framework overhead per parallelism
//! level; this bench measures the reproduction's *server tier* the same
//! way the trace layer sees production runs: a real project server (plus
//! optional peered delegate servers, the §2.2 overlay) is loaded with
//! synthetic no-op commands, and every headline number — commands/sec,
//! dispatch p50/p99, sustained worker count — is derived from the
//! distributed trace spans themselves, not from side-channel counters.
//! With `--servers ≥ 2` the workers attach only to the delegates, so
//! every command crosses the peer-delegation path and the merged trace
//! must span multiple processes (validated here; CI runs this as the
//! overlay trace gate).
//!
//! Results land in machine-readable form at the repo root as
//! `BENCH_server.json`.
//!
//! ```text
//! cargo run -p copernicus-bench --release --bin servload \
//!     [-- --servers N --workers N --commands N --spin-us N --quick]
//! ```

use copernicus_core::prelude::*;
use copernicus_core::{
    connect_workers, serve_project, ExecContext, ExecError, OverlayConfig, RetryPolicy,
};
use copernicus_telemetry::trace::{self, MergedSpan};
use copernicus_telemetry::{span_names, Json, Telemetry};
use serde_json::json;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Executable that spins for a configurable handful of microseconds —
/// enough to model a real (if tiny) command without adding sleep noise
/// to the dispatch numbers the bench is actually measuring.
struct NoopExecutor;

impl CommandExecutor for NoopExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new("noop", Platform::Smp, "1")]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        let spin_us = ctx
            .command
            .payload
            .get("spin_us")
            .and_then(|v| v.as_u64())
            .unwrap_or(0);
        let t0 = std::time::Instant::now();
        while (t0.elapsed().as_micros() as u64) < spin_us {
            std::hint::spin_loop();
        }
        Ok(json!({ "ok": true }))
    }
}

/// Spawns the whole synthetic backlog up front and finishes the project
/// when every command reaches a terminal event.
struct Load {
    specs: Vec<CommandSpec>,
    n: usize,
    seen: usize,
}

impl Controller for Load {
    fn name(&self) -> &str {
        "servload"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => {
                vec![Action::Spawn(std::mem::take(&mut self.specs))]
            }
            ControllerEvent::CommandFinished(_) | ControllerEvent::CommandDropped { .. } => {
                self.seen += 1;
                if self.seen == self.n {
                    vec![Action::FinishProject {
                        result: json!("servload done"),
                    }]
                } else {
                    vec![]
                }
            }
            ControllerEvent::WorkerFailed { .. } => vec![],
        }
    }
}

/// Delegate servers have no work of their own; their routers exist to
/// pull the owner's commands for their local workers.
struct Idle;

impl Controller for Idle {
    fn name(&self) -> &str {
        "servload-idle"
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

#[derive(Debug, Clone)]
struct QuantilesSecs {
    p50: f64,
    p99: f64,
    min: f64,
    max: f64,
    n: usize,
}

impl QuantilesSecs {
    fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("p50", self.p50)
            .set("p99", self.p99)
            .set("min", self.min)
            .set("max", self.max)
            .set("n", self.n);
        j
    }
}

#[derive(Debug, Clone)]
struct BenchReport {
    benchmark: &'static str,
    servers: usize,
    workers_per_pool: usize,
    commands: usize,
    spin_us: u64,
    /// Wall time covered by the trace (first enqueue → last completion).
    wall_secs: f64,
    commands_completed: usize,
    commands_per_sec: f64,
    /// Queued-span durations: time a command waited before dispatch.
    dispatch_latency: QuantilesSecs,
    /// Exec-span durations: worker-side execution time.
    exec_time: QuantilesSecs,
    /// Distinct worker actors that executed at least one command.
    sustained_workers: usize,
    /// Peak number of exec spans overlapping in (merged wall) time.
    peak_concurrent_exec: usize,
    /// Delegate-side hold spans (commands that crossed the overlay).
    delegated_spans: usize,
    /// Traces whose span tree covers ≥ 2 processes.
    cross_process_traces: usize,
    processes: Vec<String>,
}

impl BenchReport {
    /// Serialized with the telemetry crate's dependency-free JSON type.
    fn to_json(&self) -> Json {
        let mut j = Json::object();
        j.set("benchmark", self.benchmark)
            .set("servers", self.servers)
            .set("workers_per_pool", self.workers_per_pool)
            .set("commands", self.commands)
            .set("spin_us", self.spin_us)
            .set("wall_secs", self.wall_secs)
            .set("commands_completed", self.commands_completed)
            .set("commands_per_sec", self.commands_per_sec)
            .set("dispatch_latency", self.dispatch_latency.to_json())
            .set("exec_time", self.exec_time.to_json())
            .set("sustained_workers", self.sustained_workers)
            .set("peak_concurrent_exec", self.peak_concurrent_exec)
            .set("delegated_spans", self.delegated_spans)
            .set("cross_process_traces", self.cross_process_traces)
            .set(
                "processes",
                self.processes
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect::<Vec<Json>>(),
            );
        j
    }
}

/// Exact nearest-rank quantiles over a span-duration sample.
fn quantiles(mut secs: Vec<f64>) -> QuantilesSecs {
    if secs.is_empty() {
        return QuantilesSecs {
            p50: 0.0,
            p99: 0.0,
            min: 0.0,
            max: 0.0,
            n: 0,
        };
    }
    secs.sort_by(|a, b| a.total_cmp(b));
    let rank = |q: f64| secs[((q * secs.len() as f64).ceil() as usize).clamp(1, secs.len()) - 1];
    QuantilesSecs {
        p50: rank(0.50),
        p99: rank(0.99),
        min: secs[0],
        max: secs[secs.len() - 1],
        n: secs.len(),
    }
}

/// Peak overlap of `[start, end)` intervals (event sweep).
fn peak_concurrency(intervals: &[(u64, u64)]) -> usize {
    let mut edges: Vec<(u64, i32)> = Vec::with_capacity(intervals.len() * 2);
    for &(s, e) in intervals {
        edges.push((s, 1));
        edges.push((e.max(s), -1));
    }
    // Ends before starts at the same instant: half-open intervals.
    edges.sort_by_key(|&(t, d)| (t, d));
    let (mut cur, mut peak) = (0i32, 0i32);
    for (_, d) in edges {
        cur += d;
        peak = peak.max(cur);
    }
    peak.max(0) as usize
}

fn worker_config(telemetry: Telemetry) -> WorkerConfig {
    WorkerConfig {
        heartbeat_interval: Duration::from_millis(50),
        poll_interval: Duration::from_millis(2),
        telemetry: Some(telemetry),
        ..WorkerConfig::default()
    }
}

fn output_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_server.json")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let quick = args.iter().any(|a| a == "--quick");
    let n_servers = flag("--servers").unwrap_or(2).max(1) as usize;
    let n_workers = flag("--workers").unwrap_or(if quick { 2 } else { 4 }) as usize;
    let n_commands = flag("--commands").unwrap_or(if quick { 24 } else { 200 }) as usize;
    let spin_us = flag("--spin-us").unwrap_or(200);

    println!(
        "== servload: {n_commands} no-op commands, {n_servers} server(s), \
         {n_workers} workers/pool, {spin_us}µs spin =="
    );

    let key = AuthKey::from_passphrase("servload");
    let specs: Vec<CommandSpec> = (0..n_commands)
        .map(|_| CommandSpec::new("noop", Resources::new(1, 1), json!({ "spin_us": spin_us })))
        .collect();

    // Server 0 owns the backlog; servers 1..N are idle peers whose
    // routers delegate their workers to the owner.
    let owner_telemetry = Telemetry::for_process("server-0");
    let owner = serve_project(
        Box::new(Load {
            specs,
            n: n_commands,
            seen: 0,
        }),
        RuntimeConfig {
            n_workers: 0,
            server: ServerConfig::builder()
                .heartbeat_interval(Duration::from_millis(50))
                .watchdog_period(Duration::from_millis(10))
                .retry(RetryPolicy {
                    max_attempts: 5,
                    backoff_base: Duration::from_millis(5),
                    backoff_max: Duration::from_millis(40),
                })
                .bind("127.0.0.1:0", key)
                .name("server-0")
                .build()
                .expect("owner config must validate"),
            telemetry: Some(owner_telemetry.clone()),
            ..RuntimeConfig::default()
        },
    )
    .expect("owner server must bind");
    let owner_addr = owner.local_addr.to_string();

    let mut telemetries = vec![owner_telemetry];
    let mut delegates = Vec::new();
    for i in 1..n_servers {
        let name = format!("server-{i}");
        let telemetry = Telemetry::for_process(&name);
        let delegate = serve_project(
            Box::new(Idle),
            RuntimeConfig {
                n_workers: 0,
                server: ServerConfig::builder()
                    .heartbeat_interval(Duration::from_millis(50))
                    .watchdog_period(Duration::from_millis(10))
                    .bind("127.0.0.1:0", key)
                    .name(&name)
                    .peer(&owner_addr)
                    .build()
                    .expect("delegate config must validate"),
                overlay: OverlayConfig {
                    offer_patience: Duration::from_millis(200),
                    ..OverlayConfig::default()
                },
                telemetry: Some(telemetry.clone()),
                ..RuntimeConfig::default()
            },
        )
        .expect("delegate server must bind");
        telemetries.push(telemetry);
        delegates.push(delegate);
    }

    // With peers in play, the workers attach only to the delegates so
    // every command exercises the delegation path; a single-server run
    // attaches them to the owner directly.
    let registry = ExecutorRegistry::new().with(Arc::new(NoopExecutor));
    let mut pools = Vec::new();
    let attach_points: Vec<String> = if delegates.is_empty() {
        vec![owner_addr.clone()]
    } else {
        delegates.iter().map(|d| d.local_addr.to_string()).collect()
    };
    for (i, addr) in attach_points.iter().enumerate() {
        let telemetry = Telemetry::for_process(&format!("workers-{i}"));
        telemetries.push(telemetry.clone());
        pools.push(
            connect_workers(
                addr,
                key,
                n_workers,
                worker_config(telemetry),
                registry.clone(),
            )
            .expect("workers must connect"),
        );
    }

    let result = owner.join();
    for pool in pools {
        for w in pool {
            w.join();
        }
    }
    for d in delegates {
        let _ = d.join();
    }
    assert_eq!(
        result.commands_completed, n_commands as u64,
        "owner must complete the whole backlog: {result:?}"
    );

    // Every number below comes out of the merged trace, exactly as the
    // offline `copernicus trace merge` tooling would compute it.
    let logs: Vec<trace::ProcessLog> = telemetries
        .iter()
        .map(|t| {
            let (log, errors) = trace::parse_jsonl(&t.export_trace_jsonl());
            assert!(errors.is_empty(), "span log must parse cleanly: {errors:?}");
            log
        })
        .collect();
    let merged = trace::merge(&logs);
    let all_spans: Vec<&MergedSpan> = merged.traces.values().flatten().collect();

    let completed_roots: Vec<&&MergedSpan> = all_spans
        .iter()
        .filter(|s| {
            s.span.name == span_names::COMMAND
                && s.span
                    .attrs
                    .iter()
                    .any(|(k, v)| k == "disposition" && v == "completed")
        })
        .collect();
    let wall_ns = {
        let start = completed_roots.iter().map(|s| s.wall_start_ns).min();
        let end = completed_roots.iter().map(|s| s.wall_end_ns).max();
        match (start, end) {
            (Some(s), Some(e)) => e.saturating_sub(s).max(1),
            _ => 1,
        }
    };
    let durations_of = |name: &str| -> Vec<f64> {
        all_spans
            .iter()
            .filter(|s| s.span.name == name)
            .map(|s| s.span.duration_ns() as f64 / 1e9)
            .collect()
    };
    let exec_spans: Vec<&&MergedSpan> = all_spans
        .iter()
        .filter(|s| s.span.name == span_names::EXEC)
        .collect();
    let mut workers_seen: Vec<(&str, &str)> = exec_spans
        .iter()
        .map(|s| (s.process.as_str(), s.span.actor.as_str()))
        .collect();
    workers_seen.sort();
    workers_seen.dedup();
    let exec_intervals: Vec<(u64, u64)> = exec_spans
        .iter()
        .map(|s| (s.wall_start_ns, s.wall_end_ns))
        .collect();
    let cross_process_traces = merged
        .trace_ids()
        .iter()
        .filter(|&&t| merged.processes_of(t).len() >= 2)
        .count();

    let report = BenchReport {
        benchmark: "servload",
        servers: n_servers,
        workers_per_pool: n_workers,
        commands: n_commands,
        spin_us,
        wall_secs: wall_ns as f64 / 1e9,
        commands_completed: completed_roots.len(),
        commands_per_sec: completed_roots.len() as f64 / (wall_ns as f64 / 1e9),
        dispatch_latency: quantiles(durations_of(span_names::QUEUED)),
        exec_time: quantiles(durations_of(span_names::EXEC)),
        sustained_workers: workers_seen.len(),
        peak_concurrent_exec: peak_concurrency(&exec_intervals),
        delegated_spans: all_spans
            .iter()
            .filter(|s| s.span.name == span_names::DELEGATED)
            .count(),
        cross_process_traces,
        processes: merged.processes.clone(),
    };

    println!(
        "completed {}/{} commands in {:.3}s → {:.1} commands/sec",
        report.commands_completed, n_commands, report.wall_secs, report.commands_per_sec
    );
    println!(
        "dispatch latency: p50 {:.1}ms  p99 {:.1}ms  (n={})",
        report.dispatch_latency.p50 * 1e3,
        report.dispatch_latency.p99 * 1e3,
        report.dispatch_latency.n
    );
    println!(
        "exec time: p50 {:.2}ms  p99 {:.2}ms; {} sustained workers, peak {} concurrent",
        report.exec_time.p50 * 1e3,
        report.exec_time.p99 * 1e3,
        report.sustained_workers,
        report.peak_concurrent_exec
    );
    println!(
        "overlay: {} delegated span(s), {} cross-process trace(s), processes: {}",
        report.delegated_spans,
        report.cross_process_traces,
        report.processes.join(", ")
    );

    let path = output_path();
    std::fs::write(&path, report.to_json().to_string_pretty())
        .expect("cannot write BENCH_server.json");
    println!("wrote {}", path.display());

    // Gate: the spans must actually account for the load.
    let mut failures = Vec::new();
    if report.commands_completed != n_commands {
        failures.push(format!(
            "trace recorded {}/{} completed command roots",
            report.commands_completed, n_commands
        ));
    }
    if report.dispatch_latency.n < n_commands {
        failures.push(format!(
            "expected ≥{} queued spans, saw {}",
            n_commands, report.dispatch_latency.n
        ));
    }
    if report.sustained_workers == 0 {
        failures.push("no exec spans — workers left no trace".to_string());
    }
    if n_servers >= 2 && report.cross_process_traces < n_commands {
        failures.push(format!(
            "expected every trace to span ≥2 processes with {} servers, got {}/{}",
            n_servers, report.cross_process_traces, n_commands
        ));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("error: {f}");
        }
        std::process::exit(1);
    }
}
