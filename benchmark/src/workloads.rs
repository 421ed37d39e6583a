//! The four workloads: what each one runs, generated from the seed.

use copernicus_core::plugins::{AdaptiveMode, MsmController, MsmProjectConfig};
use copernicus_core::{
    Action, CommandExecutor, CommandSpec, Controller, ControllerCtx, ControllerEvent, ExecContext,
    ExecError, ExecutableSpec, MdRunExecutor, MsmBuildExecutor, Platform, Resources, RetryPolicy,
    ServerConfigBuilder, WorkerConfig,
};
use mdsim::rng::splitmix64;
use serde_json::{json, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Workers (and, over TCP, connections) per run: one per core of the
/// box the bounds were taken on. Recorded in every result file.
pub const N_WORKERS: usize = 2;

/// MD steps per command in `villin_fine_durable`.
pub const FINE_STEPS_PER_COMMAND: u64 = 200;

/// Commands `noop_flood` keeps queued: each completion spawns one
/// replacement until the window closes, so the matcher works at this
/// depth throughout instead of at a depth that drains with time.
pub const FLOOD_DEPTH: usize = 2048;

/// Commands `payload_bulk` keeps queued or running.
pub const BULK_DEPTH: usize = 8;

/// `payload_bulk` size classes: label, serialized bytes aimed for, and
/// how many of each make up one cycle of 21 commands.
pub const BULK_CLASSES: [(&str, usize, usize); 3] = [
    ("4k", 4 << 10, 16),
    ("32k", 32 << 10, 4),
    ("128k", 128 << 10, 1),
];

/// A random float prints in about this many bytes, comma included.
const BYTES_PER_FLOAT: usize = 20;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    VillinStream,
    VillinFineDurable,
    NoopFlood,
    PayloadBulk,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::VillinStream,
        Workload::VillinFineDurable,
        Workload::NoopFlood,
        Workload::PayloadBulk,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::VillinStream => "villin_stream",
            Workload::VillinFineDurable => "villin_fine_durable",
            Workload::NoopFlood => "noop_flood",
            Workload::PayloadBulk => "payload_bulk",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Loopback TCP (`serve_project` + `connect_workers`) or the
    /// in-process channel transport (`start_project`).
    pub fn tcp(self) -> bool {
        self != Workload::VillinStream
    }

    /// Runs with a `state_dir`, so every transition is journaled.
    pub fn durable(self) -> bool {
        matches!(self, Workload::VillinFineDurable | Workload::PayloadBulk)
    }

    pub fn villin(self) -> bool {
        matches!(self, Workload::VillinStream | Workload::VillinFineDurable)
    }

    pub fn budget_note(self) -> String {
        match self {
            Workload::VillinStream => {
                "9 lineages, 4800-step segments, 1 chunk/segment; runs until the window closes"
                    .into()
            }
            Workload::VillinFineDurable => format!(
                "9 lineages, {FINE_STEPS_PER_COMMAND} MD steps/command; runs until the window closes"
            ),
            Workload::NoopFlood => format!("{FLOOD_DEPTH} commands kept queued until the window closes"),
            Workload::PayloadBulk => {
                format!("{BULK_DEPTH} commands kept queued, sizes 4k:32k:128k = 16:4:1 per cycle")
            }
        }
    }
}

/// A seeded stream of u64s (splitmix64 over a counter).
struct Stream {
    seed: u64,
    counter: u64,
}

impl Stream {
    fn new(seed: u64) -> Stream {
        Stream {
            seed: splitmix64(seed),
            counter: 0,
        }
    }

    fn next(&mut self) -> u64 {
        self.counter += 1;
        splitmix64(self.seed ^ self.counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-style fold over the bit patterns of a float array: what
/// `payload_bulk` echoes back so that a corrupted or truncated array
/// shows up as a failed operation.
pub fn fold_checksum(data: &[Value]) -> u64 {
    data.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        (h ^ v.as_f64().unwrap_or(f64::NAN).to_bits()).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

// ---------------------------------------------------------------------
// Villin: the program's own controller and executors
// ---------------------------------------------------------------------

pub fn msm_config(workload: Workload, seed: u64) -> MsmProjectConfig {
    let segment_ns = 60.0;
    // Frames are what the controller pays for per event (RMSD scan,
    // estimator update, JSON decode). The coarse workload records few,
    // so that MD keeps >= 90 % of worker time; the fine one records
    // many per step, which is its point.
    let record_interval = match workload {
        Workload::VillinFineDurable => 40,
        _ => 120,
    };
    let segment_steps = mdsim::units::ns_to_steps(segment_ns, mdsim::VillinParams::default().dt);
    MsmProjectConfig {
        mode: AdaptiveMode::Streaming,
        n_starts: 3,
        sims_per_start: 3,
        segment_ns,
        record_interval,
        temperature: 0.5,
        n_clusters: 30,
        lag_frames: 2,
        respawn_fraction: 0.3,
        // The window closes the run; the budget must never do it first.
        generations: 1_000_000,
        chunks_per_segment: match workload {
            Workload::VillinFineDurable => (segment_steps / FINE_STEPS_PER_COMMAND) as usize,
            _ => 1,
        },
        seed,
        ..MsmProjectConfig::default()
    }
}

/// What one run of a workload drives: the controller, the executables
/// its workers install, and the synthetic controller's count of
/// checksum mismatches.
pub struct Project {
    pub controller: Box<dyn Controller>,
    pub executors: Vec<Arc<dyn CommandExecutor>>,
    pub mismatches: Arc<AtomicU64>,
}

pub fn project(workload: Workload, seed: u64) -> Project {
    match workload {
        Workload::VillinStream | Workload::VillinFineDurable => {
            let controller = MsmController::new(msm_config(workload, seed));
            Project {
                executors: vec![
                    Arc::new(MdRunExecutor::new(controller.model())),
                    Arc::new(MsmBuildExecutor),
                ],
                controller: Box::new(controller),
                mismatches: Arc::default(),
            }
        }
        Workload::NoopFlood => {
            let (controller, mismatches) = noop_controller();
            Project {
                controller: Box::new(controller),
                executors: vec![Arc::new(NoopExecutor)],
                mismatches,
            }
        }
        Workload::PayloadBulk => {
            let (controller, mismatches) = bulk_controller(seed);
            Project {
                controller: Box::new(controller),
                executors: vec![Arc::new(BulkExecutor)],
                mismatches,
            }
        }
    }
}

// ---------------------------------------------------------------------
// Synthetic load: the harness's own controller and executors
// ---------------------------------------------------------------------

/// Keeps `depth` commands queued: spawns that many when the project
/// starts and one more for every terminal event, cycling through its
/// templates. (The gate around it stops the refills when the window
/// closes.) Verifies echoed checksums where the templates carry them.
pub struct LoadController {
    templates: Vec<CommandSpec>,
    /// Expected checksum per template; empty when there is none.
    expected: Vec<u64>,
    depth: usize,
    next: usize,
    mismatches: Arc<AtomicU64>,
}

impl LoadController {
    fn spawn(&mut self, n: usize) -> Action {
        let specs = (0..n)
            .map(|_| {
                let k = self.next % self.templates.len();
                let mut spec = self.templates[k].clone();
                spec.payload["i"] = Value::from(self.next as u64);
                self.next += 1;
                spec
            })
            .collect();
        Action::Spawn(specs)
    }

    fn verify(&self, data: &Value) {
        if self.expected.is_empty() || data.is_null() {
            return; // nothing to check; a probe run answers Null
        }
        let expected = data["k"]
            .as_u64()
            .and_then(|k| self.expected.get(k as usize));
        let echoed = data["checksum"].as_u64();
        let recomputed = data["data"].as_array().map(|d| fold_checksum(d));
        if expected.is_none() || echoed != expected.copied() || recomputed != expected.copied() {
            self.mismatches.fetch_add(1, Ordering::Relaxed);
        }
    }
}

impl Controller for LoadController {
    fn name(&self) -> &str {
        "copbench-load"
    }

    fn on_event(&mut self, _ctx: ControllerCtx<'_>, event: ControllerEvent<'_>) -> Vec<Action> {
        match event {
            ControllerEvent::ProjectStarted => vec![self.spawn(self.depth)],
            ControllerEvent::CommandFinished(output) => {
                self.verify(&output.data);
                vec![self.spawn(1)]
            }
            ControllerEvent::CommandDropped { .. } => vec![self.spawn(1)],
            ControllerEvent::WorkerFailed { .. } => vec![],
        }
    }
}

/// `noop_flood`: a payload under 100 bytes, an executor that does
/// nothing. Per-byte work is nil, so what is left is per-message cost.
fn noop_controller() -> (LoadController, Arc<AtomicU64>) {
    let mismatches = Arc::new(AtomicU64::new(0));
    let controller = LoadController {
        templates: vec![CommandSpec::new(
            "noop",
            Resources::new(1, 1),
            json!({ "i": 0u64 }),
        )],
        expected: Vec::new(),
        depth: FLOOD_DEPTH,
        next: 0,
        mismatches: mismatches.clone(),
    };
    (controller, mismatches)
}

struct NoopExecutor;

impl CommandExecutor for NoopExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new("noop", Platform::Smp, "1")]
    }

    fn execute(&self, _ctx: ExecContext<'_>) -> Result<Value, ExecError> {
        Ok(json!({ "ok": true }))
    }
}

/// `payload_bulk`: one cycle of 21 templates, each a seeded float array
/// of its class's size; the executor echoes the array back with its
/// checksum, so the same bytes cross the codec and the wire in both
/// directions and enter the WAL with the spawn.
fn bulk_controller(seed: u64) -> (LoadController, Arc<AtomicU64>) {
    // A fixed order — four small, one medium, four times over, then the
    // large one — with seeded contents. The first `BULK_DEPTH` commands
    // are spawned (and journaled) before any worker is served, so a
    // seeded order would make `setup_s` depend on where the large
    // payloads happen to fall.
    let order: Vec<u8> = (0..4).flat_map(|_| [0, 0, 0, 0, 1]).chain([2]).collect();
    for (class, &(_, _, count)) in BULK_CLASSES.iter().enumerate() {
        debug_assert_eq!(
            order.iter().filter(|&&c| c as usize == class).count(),
            count
        );
    }
    let mut floats = Stream::new(seed);
    let mut templates = Vec::new();
    let mut expected = Vec::new();
    for (k, &class) in order.iter().enumerate() {
        let n = BULK_CLASSES[class as usize].1 / BYTES_PER_FLOAT;
        let data: Vec<Value> = (0..n).map(|_| Value::from(floats.unit())).collect();
        expected.push(fold_checksum(&data));
        templates.push(CommandSpec::new(
            "bulk",
            Resources::new(1, 1),
            json!({ "k": k as u64, "class": class as u64, "i": 0u64, "data": data }),
        ));
    }
    let mismatches = Arc::new(AtomicU64::new(0));
    let controller = LoadController {
        templates,
        expected,
        depth: BULK_DEPTH,
        next: 0,
        mismatches: mismatches.clone(),
    };
    (controller, mismatches)
}

struct BulkExecutor;

impl CommandExecutor for BulkExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new("bulk", Platform::Smp, "1")]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<Value, ExecError> {
        let payload = &ctx.command.payload;
        let data = payload["data"]
            .as_array()
            .ok_or_else(|| ExecError::BadPayload("bulk payload has no data array".into()))?;
        Ok(json!({
            "k": payload["k"],
            "class": payload["class"],
            "checksum": fold_checksum(data),
            "data": payload["data"],
        }))
    }
}

// ---------------------------------------------------------------------
// Server and worker knobs
// ---------------------------------------------------------------------

/// `servload`'s knobs for the synthetic workloads; the program's
/// defaults for the villin ones.
pub fn tune_server(workload: Workload, builder: ServerConfigBuilder) -> ServerConfigBuilder {
    if workload.villin() {
        return builder;
    }
    builder
        .heartbeat_interval(Duration::from_millis(50))
        .watchdog_period(Duration::from_millis(10))
        .retry(RetryPolicy {
            max_attempts: 5,
            backoff_base: Duration::from_millis(5),
            backoff_max: Duration::from_millis(40),
        })
}

pub fn worker_config(workload: Workload) -> WorkerConfig {
    if workload.villin() {
        return WorkerConfig::default();
    }
    WorkerConfig {
        heartbeat_interval: Duration::from_millis(50),
        poll_interval: Duration::from_millis(2),
        ..WorkerConfig::default()
    }
}
