//! The benchmark's contract in one place: workloads, metric names,
//! units, directions and regression bounds. `copbench --describe`
//! prints it as `BENCHMARK.json`.

use crate::workloads::Workload;
use copernicus_telemetry::Json;

pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Bounds are the larger of the issue's ±10 % and twice the quartile
/// spread seen over ten seeds on the authoring box (README, "Measured
/// spreads"), capped at the contract's 0.25.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "cmds_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.20,
    },
    EndToEnd {
        name: "turnaround_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
];

pub fn why(workload: Workload) -> &'static str {
    match workload {
        Workload::VillinStream => {
            "in-process adaptive villin run: >=90% of worker time is MD; codec, wire and WAL are bypassed"
        }
        Workload::VillinFineDurable => {
            "200-step MD commands over TCP with a WAL: per-event controller snapshot and JSON payloads dominate"
        }
        Workload::NoopFlood => {
            "no-op commands over TCP at queue depth 2048: pure per-message cost, per-byte work is nil"
        }
        Workload::PayloadBulk => {
            "4k/32k/128k float arrays echoed over TCP with a WAL: the same layers paid per byte"
        }
    }
}

/// Per-layer metrics whose larger values are the better ones; every
/// other per-layer metric is a cost or a count.
const HIGHER_IS_BETTER: [&str; 8] = [
    "codec.encode_mb_per_s",
    "codec.decode_mb_per_s",
    "wire.frames_per_s",
    "wal.append_mb_per_s",
    "wal.replay_mb_per_s",
    "msm.observe_frames_per_s",
    "attribution.coverage_frac",
    "executor.busy_frac",
];

fn better(higher: bool) -> &'static str {
    if higher {
        "higher"
    } else {
        "lower"
    }
}

/// `BENCHMARK.json`, given the per-layer metrics a traced run reports.
pub fn describe(per_layer: &[(&'static str, &'static str)]) -> Json {
    let mut doc = Json::object();
    doc.set(
        "command",
        vec![Json::from("bash"), Json::from("benchmark/run.sh")],
    )
    .set("paths", vec![Json::from("benchmark")])
    .set("run_seconds", RUN_SECONDS)
    .set(
        "workloads",
        Workload::ALL
            .iter()
            .map(|&w| {
                let mut o = Json::object();
                o.set("name", w.name()).set("why", why(w));
                o
            })
            .collect::<Vec<Json>>(),
    )
    .set(
        "end_to_end",
        END_TO_END
            .iter()
            .map(|e| {
                let mut o = Json::object();
                o.set("name", e.name)
                    .set("unit", e.unit)
                    .set("better", better(e.higher_is_better))
                    .set("bound", e.bound);
                o
            })
            .collect::<Vec<Json>>(),
    )
    .set(
        "per_layer",
        per_layer
            .iter()
            .map(|&(name, unit)| {
                let mut o = Json::object();
                o.set("name", name)
                    .set("unit", unit)
                    .set("better", better(HIGHER_IS_BETTER.contains(&name)));
                o
            })
            .collect::<Vec<Json>>(),
    );
    doc
}
