//! `copernicus` — command-line front end.
//!
//! The paper's users drive projects from command-line clients; this
//! binary is the single-machine equivalent: it starts a project server
//! and a worker pool in-process and runs a project described by a JSON
//! config.
//!
//! ```text
//! copernicus msm  [config.json] [--workers N]   # adaptive-sampling project
//! copernicus fep  [config.json] [--workers N]   # BAR free-energy project
//! copernicus repex [config.json] [--workers N]  # replica-exchange project
//! copernicus demo                               # built-in quick demo
//! copernicus report <snapshot.json>             # render a saved telemetry snapshot
//! copernicus serve [config.json] --bind ADDR --key PASSPHRASE
//!                                               # project server on TCP, no local workers
//! copernicus work --connect ADDR --key PASSPHRASE [--workers N]
//!                                               # worker pool dialing a remote server
//! ```
//!
//! `serve` and `work` are the paper's deployment shape (§2.2): the
//! project server runs on a head node and worker pools on other
//! machines dial in over authenticated TCP links. Both sides must be
//! given the same `--key` passphrase.
//!
//! Every run carries a [`Telemetry`] handle through the server, the
//! workers and the MSM controller; `--report` prints the aligned-text
//! dump after the run and `--telemetry-dir DIR` writes the JSON metrics
//! snapshot plus the JSONL event journal for offline analysis.

use copernicus::core::plugins::msm::TrajectoryArchive;
use copernicus::core::prelude::*;
use copernicus::core::wire::MetricsServer;
use copernicus::core::{MdRunExecutor, Monitor};
use copernicus::mdsim::VillinModel;
use copernicus::telemetry::trace;
use copernicus::telemetry::{render_text, Json, Telemetry};
use std::sync::{Arc, Mutex};

/// Flags shared by all run modes.
struct Options {
    n_workers: usize,
    /// Print the aligned-text telemetry report after the run.
    report: bool,
    /// Write `snapshot.json`, `journal.jsonl` and `trace_spans.jsonl`
    /// into this directory.
    telemetry_dir: Option<String>,
    /// Serve live Prometheus text exposition on this address.
    metrics_addr: Option<String>,
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mode = args.get(1).map(String::as_str).unwrap_or("help");
    let flag_value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let opts = Options {
        n_workers: flag_value("--workers")
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(2, |n| n.get())),
        report: args.iter().any(|a| a == "--report"),
        telemetry_dir: flag_value("--telemetry-dir"),
        metrics_addr: flag_value("--metrics-addr"),
    };
    let config_path = args.get(2).filter(|a| !a.starts_with("--")).cloned();

    match mode {
        "msm" => run_msm(config_path, &opts),
        "fep" => run_fep(config_path, &opts),
        "repex" => run_repex(config_path, &opts),
        "demo" => {
            let cfg = MsmProjectConfig {
                n_starts: 3,
                sims_per_start: 3,
                segment_ns: 10.0,
                n_clusters: 30,
                generations: 3,
                ..MsmProjectConfig::default()
            };
            run_msm_config(cfg, &opts);
        }
        "report" => render_snapshot(config_path),
        "serve" => {
            // --peer may repeat: one overlay link per occurrence.
            let peers: Vec<String> = args
                .windows(2)
                .filter(|w| w[0] == "--peer")
                .map(|w| w[1].clone())
                .collect();
            run_serve(
                config_path,
                &opts,
                flag_value("--controller"),
                flag_value("--bind"),
                flag_value("--key"),
                flag_value("--name"),
                peers,
                flag_value("--state-dir"),
                flag_value("--fsync"),
            )
        }
        "work" => run_work(&opts, flag_value("--connect"), flag_value("--key")),
        "trace" => run_trace(&args),
        _ => {
            eprintln!(
                "usage: copernicus <msm|fep|repex|demo|report|serve|work|trace> [config.json] \
                 [--workers N] [--report] [--telemetry-dir DIR] [--metrics-addr ADDR]"
            );
            eprintln!();
            eprintln!("  msm     run an adaptive-sampling project (MsmProjectConfig JSON)");
            eprintln!("  fep     run a BAR free-energy project (FepProjectConfig JSON)");
            eprintln!("  repex   run a replica-exchange project (RepexProjectConfig JSON)");
            eprintln!("  demo    run a built-in 1-minute adaptive-sampling demo");
            eprintln!("  report  render a saved telemetry snapshot as text");
            eprintln!("  serve   project server on TCP: --bind ADDR --key PASSPHRASE");
            eprintln!("          [--controller NAME]  controller plugin (default msm);");
            eprintln!("          the config JSON is handed to the plugin registry");
            eprintln!("          [--name NAME] [--peer ADDR]...  join the server overlay:");
            eprintln!("          dial each peer and pull work for idle local workers");
            eprintln!("          [--state-dir DIR]  journal every lifecycle transition;");
            eprintln!("          restarting with the same DIR resumes the pre-crash state");
            eprintln!("          [--fsync always|never|MS]  WAL durability (default always)");
            eprintln!("  work    worker pool over TCP: --connect ADDR --key PASSPHRASE");
            eprintln!("  trace   merge span logs: trace merge <spans.jsonl>... [-o out.json]");
            eprintln!("          (writes Chrome trace-event JSON, viewable in Perfetto)");
            eprintln!();
            eprintln!("  --report             print the telemetry report after the run");
            eprintln!("  --telemetry-dir DIR  write snapshot.json + journal.jsonl +");
            eprintln!("                       trace_spans.jsonl to DIR");
            eprintln!("  --metrics-addr ADDR  serve live Prometheus metrics on ADDR");
            std::process::exit(if mode == "help" { 0 } else { 2 });
        }
    }
}

/// `copernicus trace merge <spans.jsonl>... [-o out.json]`: join span
/// logs from several processes by trace id and export Chrome
/// trace-event JSON (load it in Perfetto or `chrome://tracing`).
fn run_trace(args: &[String]) {
    let usage = || -> ! {
        eprintln!("usage: copernicus trace merge <spans.jsonl>... [-o out.json]");
        std::process::exit(2);
    };
    if args.get(2).map(String::as_str) != Some("merge") {
        usage();
    }
    let mut out_path: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut i = 3;
    while i < args.len() {
        if args[i] == "-o" || args[i] == "--out" {
            out_path = Some(args.get(i + 1).cloned().unwrap_or_else(|| usage()));
            i += 2;
        } else {
            inputs.push(args[i].clone());
            i += 1;
        }
    }
    if inputs.is_empty() {
        usage();
    }
    let mut logs = Vec::new();
    for path in &inputs {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read span log {path}: {e}");
            std::process::exit(2);
        });
        let (log, errors) = trace::parse_jsonl(&text);
        for (line, err) in &errors {
            eprintln!("{path}:{line}: skipped: {err}");
        }
        eprintln!(
            "{path}: process '{}', {} span(s)",
            log.process,
            log.spans.len()
        );
        logs.push(log);
    }
    let merged = trace::merge(&logs);
    let n_spans: usize = merged.traces.values().map(Vec::len).sum();
    eprintln!(
        "merged {} trace(s), {} span(s) across {} process(es): {}",
        merged.trace_ids().len(),
        n_spans,
        merged.processes.len(),
        merged.processes.join(", ")
    );
    let chrome = merged.chrome_json().to_string_pretty();
    match out_path {
        Some(p) => {
            std::fs::write(&p, chrome).unwrap_or_else(|e| {
                eprintln!("cannot write {p}: {e}");
                std::process::exit(1);
            });
            eprintln!("wrote {p}");
        }
        None => println!("{chrome}"),
    }
}

/// Start the live metrics endpoint when `--metrics-addr` is given. The
/// handle keeps the accept loop alive; drop it to stop serving.
fn start_metrics(opts: &Options, telemetry: &Telemetry) -> Option<MetricsServer> {
    let addr = opts.metrics_addr.as_ref()?;
    let t = telemetry.clone();
    match MetricsServer::bind(addr, move || t.render_prometheus()) {
        Ok(server) => {
            eprintln!("metrics: http://{}/metrics", server.local_addr());
            Some(server)
        }
        Err(e) => {
            eprintln!("cannot bind metrics endpoint {addr}: {e}");
            std::process::exit(1);
        }
    }
}

/// Exit with a usage error for a missing networked-mode flag.
fn require_flag(value: Option<String>, what: &str) -> String {
    value.unwrap_or_else(|| {
        eprintln!("missing {what}");
        std::process::exit(2);
    })
}

/// `copernicus serve`: run a project server on an authenticated TCP
/// listener; workers dial in from other processes with `work`. The
/// controller is instantiated by name through the plugin registry, so
/// every plugin this build ships is servable from the same front end.
#[allow(clippy::too_many_arguments)]
fn run_serve(
    config_path: Option<String>,
    opts: &Options,
    controller_name: Option<String>,
    bind: Option<String>,
    key: Option<String>,
    name: Option<String>,
    peers: Vec<String>,
    state_dir: Option<String>,
    fsync: Option<String>,
) {
    let bind = require_flag(bind, "--bind ADDR (e.g. --bind 0.0.0.0:7878)");
    let key = AuthKey::from_passphrase(&require_flag(key, "--key PASSPHRASE"));
    let fsync = fsync.map(|spec| {
        FsyncMode::parse(&spec).unwrap_or_else(|| {
            eprintln!("invalid --fsync {spec:?}: expected always, never, or a millisecond count");
            std::process::exit(2);
        })
    });
    let controller_name = controller_name.unwrap_or_else(|| "msm".to_string());
    let config = load_config_value(config_path);
    let plugins = copernicus::core::plugins::registry();
    let controller = plugins
        .instantiate(&controller_name, &config)
        .unwrap_or_else(|e| {
            eprintln!("cannot start controller: {e}");
            std::process::exit(2);
        });
    eprintln!("project server: controller plugin '{controller_name}'");
    // Name the tracer after the server so merged traces from several
    // overlay processes stay distinguishable.
    let process = name.clone().unwrap_or_else(|| format!("server-{bind}"));
    let telemetry = Telemetry::for_process(&process);
    let _metrics = start_metrics(opts, &telemetry);
    let mut builder = ServerConfig::builder().bind(&bind, key);
    if let Some(name) = name {
        builder = builder.name(name);
    }
    for peer in &peers {
        builder = builder.peer(peer);
    }
    if let Some(dir) = state_dir {
        eprintln!("durable state: {dir} (crash-restart with the same --state-dir resumes)");
        builder = builder.state_dir(dir);
    }
    if let Some(mode) = fsync {
        builder = builder.fsync(mode);
    }
    let server = builder.build().unwrap_or_else(|e| {
        eprintln!("invalid server config: {e}");
        std::process::exit(2);
    });
    let serving = copernicus::core::serve_project(
        controller,
        RuntimeConfig {
            n_workers: 0,
            server,
            telemetry: Some(telemetry.clone()),
            ..RuntimeConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("cannot bind {bind}: {e}");
        std::process::exit(1);
    });
    eprintln!(
        "listening on {} — connect workers with:\n  copernicus work --connect {} --key <passphrase>",
        serving.local_addr, serving.local_addr
    );

    let monitor = serving.monitor.clone();
    let ticker = std::thread::spawn(move || {
        let mut seen = 0u64;
        loop {
            std::thread::sleep(std::time::Duration::from_millis(500));
            let (lines, new_seen) = monitor.log_since(seen);
            seen = new_seen;
            for line in &lines {
                eprintln!("[server] {line}");
            }
            if monitor.status().finished {
                break;
            }
        }
    });
    let monitor = serving.monitor.clone();
    let result = serving.join();
    let _ = ticker.join();
    println!("{:#}", result.result);
    eprintln!(
        "done: {} commands, {} requeued, {} workers lost, {:.1?}",
        result.commands_completed, result.commands_requeued, result.workers_lost, result.wall
    );
    finish_telemetry(&monitor, &telemetry, opts);
}

/// `copernicus work`: dial a remote project server and serve it with a
/// local worker pool until it shuts the project down.
fn run_work(opts: &Options, connect: Option<String>, key: Option<String>) {
    let addr = require_flag(connect, "--connect ADDR (the server's --bind address)");
    let key = AuthKey::from_passphrase(&require_flag(key, "--key PASSPHRASE"));
    let telemetry = Telemetry::for_process("workers");
    let _metrics = start_metrics(opts, &telemetry);
    let model = Arc::new(VillinModel::hp35());
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model)))
        .with(Arc::new(MsmBuildExecutor))
        .with(Arc::new(FepSampleExecutor));
    let config = WorkerConfig {
        telemetry: Some(telemetry.clone()),
        ..WorkerConfig::default()
    };
    let workers = copernicus::core::connect_workers(&addr, key, opts.n_workers, config, registry)
        .unwrap_or_else(|e| {
            eprintln!("cannot connect to {addr}: {e}");
            std::process::exit(1);
        });
    eprintln!("{} workers connected to {addr}", workers.len());
    for w in workers {
        w.join();
    }
    eprintln!("project finished; workers shut down");
    if opts.report {
        eprint!("{}", telemetry.render_report());
    }
    if let Some(dir) = &opts.telemetry_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create telemetry dir {dir}: {e}");
            return;
        }
        let snapshot = format!("{dir}/snapshot.json");
        let journal = format!("{dir}/journal.jsonl");
        let spans = format!("{dir}/trace_spans.jsonl");
        if let Err(e) = std::fs::write(&snapshot, telemetry.snapshot_pretty()) {
            eprintln!("cannot write {snapshot}: {e}");
        }
        if let Err(e) = std::fs::write(&journal, telemetry.export_journal_jsonl()) {
            eprintln!("cannot write {journal}: {e}");
        }
        if let Err(e) = std::fs::write(&spans, telemetry.export_trace_jsonl()) {
            eprintln!("cannot write {spans}: {e}");
        }
        eprintln!("telemetry written: {snapshot}, {journal}, {spans}");
    }
}

/// Load and parse a typed project config; absent fields keep their
/// defaults (no path means "all defaults").
fn load_config<T>(
    kind: &str,
    path: Option<String>,
    parse: impl Fn(&serde_json::Value) -> Result<T, String>,
) -> T {
    parse(&load_config_value(path)).unwrap_or_else(|e| {
        eprintln!("bad {kind} config: {e}");
        std::process::exit(2);
    })
}

/// Load a config file as a raw JSON document for the plugin registry
/// (no path means "all defaults": an empty object).
fn load_config_value(path: Option<String>) -> serde_json::Value {
    match path {
        Some(p) => {
            let data = std::fs::read(&p).unwrap_or_else(|e| {
                eprintln!("cannot read config {p}: {e}");
                std::process::exit(2);
            });
            serde_json::from_slice(&data).unwrap_or_else(|e| {
                eprintln!("cannot parse config {p}: {e}");
                std::process::exit(2);
            })
        }
        None => serde_json::json!({}),
    }
}

/// `copernicus report <snapshot.json>`: render a snapshot written by
/// `--telemetry-dir` (or the bench harness) as the aligned-text report.
fn render_snapshot(path: Option<String>) {
    let Some(p) = path else {
        eprintln!("usage: copernicus report <snapshot.json>");
        std::process::exit(2);
    };
    let data = std::fs::read_to_string(&p).unwrap_or_else(|e| {
        eprintln!("cannot read snapshot {p}: {e}");
        std::process::exit(2);
    });
    let snapshot = Json::parse(&data).unwrap_or_else(|e| {
        eprintln!("cannot parse snapshot {p}: {e}");
        std::process::exit(2);
    });
    print!("{}", render_text(&snapshot));
}

/// Dump telemetry after a run: optional text report to stderr, optional
/// snapshot + journal files.
fn finish_telemetry(monitor: &Monitor, telemetry: &Telemetry, opts: &Options) {
    if opts.report {
        eprint!("{}", monitor.report_text());
    }
    if let Some(dir) = &opts.telemetry_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create telemetry dir {dir}: {e}");
            return;
        }
        let snapshot = format!("{dir}/snapshot.json");
        let journal = format!("{dir}/journal.jsonl");
        let spans = format!("{dir}/trace_spans.jsonl");
        if let Err(e) = std::fs::write(&snapshot, monitor.report_json()) {
            eprintln!("cannot write {snapshot}: {e}");
        }
        if let Err(e) = std::fs::write(&journal, telemetry.export_journal_jsonl()) {
            eprintln!("cannot write {journal}: {e}");
        }
        if let Err(e) = std::fs::write(&spans, telemetry.export_trace_jsonl()) {
            eprintln!("cannot write {spans}: {e}");
        }
        eprintln!("telemetry written: {snapshot}, {journal}, {spans}");
    }
}

fn run_msm(config_path: Option<String>, opts: &Options) {
    let cfg = load_config("msm", config_path, MsmProjectConfig::from_value);
    run_msm_config(cfg, opts);
}

fn run_msm_config(cfg: MsmProjectConfig, opts: &Options) {
    eprintln!(
        "MSM project: {} trajectories/generation × {} generations, {} workers",
        cfg.n_trajectories_per_generation(),
        cfg.generations,
        opts.n_workers
    );
    let telemetry = Telemetry::new();
    let _metrics = start_metrics(opts, &telemetry);
    let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
    let controller = MsmController::new(cfg).with_archive(archive.clone());
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(controller.model())))
        .with(Arc::new(MsmBuildExecutor));
    let running = start_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: opts.n_workers,
            telemetry: Some(telemetry.clone()),
            ..RuntimeConfig::default()
        },
    );
    // Live monitoring, as the paper's web interface would show. The
    // incremental cursor survives log-ring eviction (long runs drop old
    // lines rather than growing without bound).
    let monitor = running.monitor.clone();
    let ticker = std::thread::spawn(move || {
        let mut seen = 0u64;
        loop {
            std::thread::sleep(std::time::Duration::from_millis(500));
            let (lines, new_seen) = monitor.log_since(seen);
            seen = new_seen;
            for line in &lines {
                eprintln!("[controller] {line}");
            }
            if monitor.status().finished {
                break;
            }
        }
    });
    let monitor = running.monitor.clone();
    let result = running.join();
    let _ = ticker.join();
    println!("{:#}", result.result);
    eprintln!(
        "done: {} commands, {} requeued, {} workers lost, {:.1?}",
        result.commands_completed, result.commands_requeued, result.workers_lost, result.wall
    );
    finish_telemetry(&monitor, &telemetry, opts);
}

fn run_repex(config_path: Option<String>, opts: &Options) {
    let cfg = load_config("repex", config_path, RepexProjectConfig::from_value);
    eprintln!(
        "repex project: {} replicas over T=[{}, {}], {} legs × {} steps ({} mode), {} workers",
        cfg.n_replicas,
        cfg.t_min,
        cfg.t_max,
        cfg.n_legs,
        cfg.steps_per_leg,
        cfg.mode.as_str(),
        opts.n_workers
    );
    let telemetry = Telemetry::new();
    let _metrics = start_metrics(opts, &telemetry);
    let controller = RepexController::new(cfg);
    let registry = ExecutorRegistry::new().with(Arc::new(MdRunExecutor::new(controller.model())));
    let running = start_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: opts.n_workers,
            telemetry: Some(telemetry.clone()),
            ..RuntimeConfig::default()
        },
    );
    let monitor = running.monitor.clone();
    let result = running.join();
    println!("{:#}", result.result);
    eprintln!(
        "done: {} commands, {} requeued, {} workers lost, {:.1?}",
        result.commands_completed, result.commands_requeued, result.workers_lost, result.wall
    );
    finish_telemetry(&monitor, &telemetry, opts);
}

fn run_fep(config_path: Option<String>, opts: &Options) {
    let cfg = load_config("fep", config_path, FepProjectConfig::from_value);
    let exact = cfg.analytic_delta_f();
    eprintln!(
        "FEP project: k {} → {} over {} windows, {} workers",
        cfg.k_a, cfg.k_b, cfg.n_windows, opts.n_workers
    );
    let telemetry = Telemetry::new();
    let _metrics = start_metrics(opts, &telemetry);
    let controller = FepController::new(cfg);
    let registry = ExecutorRegistry::new().with(Arc::new(FepSampleExecutor));
    let running = start_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: opts.n_workers,
            telemetry: Some(telemetry.clone()),
            ..RuntimeConfig::default()
        },
    );
    let monitor = running.monitor.clone();
    let result = running.join();
    println!("{:#}", result.result);
    eprintln!("analytic ΔF for this config: {exact:.4}");
    finish_telemetry(&monitor, &telemetry, opts);
}
