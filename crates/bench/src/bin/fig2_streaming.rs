//! Generation barrier vs. streaming: the fleet-utilisation benchmark of
//! the adaptive loop.
//!
//! Runs the same villin adaptive-sampling project twice over an
//! identical worker pool. The two arms run the same loop — incremental
//! assignment, rank-under-cutoff respawn, background reclusters on the
//! fleet — and differ only by the barrier: `AdaptiveMode::Generational`
//! decides a wave once every lineage of the generation has returned
//! and no recluster is in flight (§2.3 of the paper),
//! `AdaptiveMode::Streaming` decides each lineage the moment it
//! returns. It measures what the barrier costs: the fraction of
//! fleet-seconds spent idle, the dispatch latency, and the wall-clock
//! time to the first folded conformation.
//!
//! Writes `BENCH_adaptive.json` at the repo root (the committed copy is
//! the CI regression baseline), with the machine it ran on, and prints a
//! comparison table.
//!
//! ```text
//! cargo run --release -p copernicus-bench --bin fig2_streaming [-- --quick] [--workers N]
//! ```

use copernicus_core::prelude::*;
use copernicus_core::{ExecContext, ExecError};
use copernicus_telemetry::{names, Labels, Telemetry};
use mdsim::VillinModel;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Wraps an executor, accumulates the nanoseconds workers spend inside
/// `execute` (the "busy" half of the fleet-idle ledger), and emulates
/// the paper's mixed cloud/grid fleet (§2.1) by slowing each worker by
/// a deterministic per-worker factor of 1..=2×. A generational barrier
/// waits on the slowest straggler of every wave; the streaming loop
/// just refills fast workers more often.
struct PacedExecutor {
    inner: Arc<dyn CommandExecutor>,
    busy_ns: Arc<AtomicU64>,
}

impl CommandExecutor for PacedExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        self.inner.executables()
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<Value, ExecError> {
        let slowdown = (ctx.worker.0 % 4) as f64 / 3.0;
        let t0 = Instant::now();
        let out = self.inner.execute(ctx);
        let compute = t0.elapsed();
        std::thread::sleep(compute.mul_f64(slowdown));
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

struct ArmResult {
    mode: &'static str,
    makespan_secs: f64,
    busy_secs: f64,
    fleet_idle_fraction: f64,
    commands_completed: u64,
    dispatch_latency_mean_secs: Option<f64>,
    time_to_first_folded_secs: Option<f64>,
    first_folded_generation: Option<usize>,
    n_report_rows: usize,
    n_rebuilds: usize,
    min_rmsd_to_native: f64,
}

impl ArmResult {
    fn to_json(&self) -> Value {
        json!({
            "mode": self.mode,
            "makespan_secs": self.makespan_secs,
            "busy_secs": self.busy_secs,
            "fleet_idle_fraction": self.fleet_idle_fraction,
            "commands_completed": self.commands_completed,
            "dispatch_latency_mean_secs": self.dispatch_latency_mean_secs,
            "time_to_first_folded_secs": self.time_to_first_folded_secs,
            "first_folded_generation": self.first_folded_generation,
            "n_report_rows": self.n_report_rows,
            "n_rebuilds": self.n_rebuilds,
            "min_rmsd_to_native": self.min_rmsd_to_native,
        })
    }
}

fn arm_config(mode: AdaptiveMode, quick: bool) -> MsmProjectConfig {
    MsmProjectConfig {
        mode,
        // 9 lineages over 4 workers: the barrier leaves a ragged tail
        // (4+4+1 dispatch waves) every generation, and waits out any
        // recluster in flight. Streaming refills each slot the moment
        // its segment lands.
        n_starts: 3,
        sims_per_start: 3,
        segment_ns: if quick { 10.0 } else { 60.0 },
        record_interval: 40,
        temperature: 0.5,
        n_clusters: 30,
        lag_frames: 2,
        respawn_fraction: 0.3,
        generations: if quick { 3 } else { 10 },
        chunks_per_segment: 1,
        seed: 2011,
        ..MsmProjectConfig::default()
    }
}

fn run_arm(mode: AdaptiveMode, quick: bool, n_workers: usize) -> ArmResult {
    let label = match mode {
        AdaptiveMode::Generational => "generational",
        AdaptiveMode::Streaming => "streaming",
    };
    let model = Arc::new(VillinModel::hp35());
    let busy_ns = Arc::new(AtomicU64::new(0));
    let registry = ExecutorRegistry::new()
        .with(Arc::new(PacedExecutor {
            inner: Arc::new(MdRunExecutor::new(model)),
            busy_ns: busy_ns.clone(),
        }))
        .with(Arc::new(PacedExecutor {
            inner: Arc::new(MsmBuildExecutor),
            busy_ns: busy_ns.clone(),
        }));
    let telemetry = Telemetry::new();
    let controller = MsmController::new(arm_config(mode, quick));
    let result = run_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers,
            telemetry: Some(telemetry.clone()),
            ..RuntimeConfig::default()
        },
    );
    let report = MsmProjectReport::from_value(&result.result).expect("MSM report");

    let makespan = result.wall.as_secs_f64();
    let busy = busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
    let idle = (1.0 - busy / (n_workers as f64 * makespan)).clamp(0.0, 1.0);
    let dispatch = telemetry
        .registry()
        .find_histogram(names::DISPATCH_LATENCY, &Labels::new())
        .map(|h| h.mean());
    eprintln!(
        "  {label}: {:.2}s makespan, {:.1}% fleet idle, {} commands",
        makespan,
        100.0 * idle,
        result.commands_completed
    );
    ArmResult {
        mode: label,
        makespan_secs: makespan,
        busy_secs: busy,
        fleet_idle_fraction: idle,
        commands_completed: result.commands_completed,
        dispatch_latency_mean_secs: dispatch,
        time_to_first_folded_secs: report.first_folded_elapsed_secs,
        first_folded_generation: report.first_folded_generation,
        n_report_rows: report.generations.len(),
        n_rebuilds: report.n_rebuilds,
        min_rmsd_to_native: report.min_rmsd_to_native,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let n_workers = args
        .iter()
        .position(|a| a == "--workers")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    eprintln!(
        "fig2_streaming: generational vs streaming over {n_workers} workers{}",
        if quick { " (quick)" } else { "" }
    );

    let generational = run_arm(AdaptiveMode::Generational, quick, n_workers);
    let streaming = run_arm(AdaptiveMode::Streaming, quick, n_workers);

    println!("\n== generational barrier vs streaming loop ==");
    println!("metric                      generational    streaming");
    println!(
        "makespan (s)               {:>12.2} {:>12.2}",
        generational.makespan_secs, streaming.makespan_secs
    );
    println!(
        "fleet idle fraction        {:>12.3} {:>12.3}",
        generational.fleet_idle_fraction, streaming.fleet_idle_fraction
    );
    println!(
        "commands completed         {:>12} {:>12}",
        generational.commands_completed, streaming.commands_completed
    );
    let fmt_opt = |v: Option<f64>| v.map_or("n/a".into(), |s| format!("{s:.2}"));
    println!(
        "time to first folded (s)   {:>12} {:>12}",
        fmt_opt(generational.time_to_first_folded_secs),
        fmt_opt(streaming.time_to_first_folded_secs)
    );
    println!(
        "dispatch latency mean (ms) {:>12} {:>12}",
        fmt_opt(generational.dispatch_latency_mean_secs.map(|s| s * 1e3)),
        fmt_opt(streaming.dispatch_latency_mean_secs.map(|s| s * 1e3))
    );
    println!(
        "background rebuilds        {:>12} {:>12}",
        generational.n_rebuilds, streaming.n_rebuilds
    );
    println!(
        "min RMSD to native (Å)     {:>12.2} {:>12.2}",
        generational.min_rmsd_to_native, streaming.min_rmsd_to_native
    );
    if streaming.fleet_idle_fraction > 0.0 {
        println!(
            "\nidle-fraction ratio (generational / streaming): {:.1}×",
            generational.fleet_idle_fraction / streaming.fleet_idle_fraction
        );
    }

    let out = json!({
        "bench": "fig2_streaming",
        "n_workers": n_workers as u64,
        "quick": quick,
        "provenance": copernicus_bench::provenance(),
        "generational": generational.to_json(),
        "streaming": streaming.to_json(),
    });
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_adaptive.json");
    std::fs::write(&path, format!("{out:#}\n")).expect("write BENCH_adaptive.json");
    println!("\nwrote {}", path.display());
}
