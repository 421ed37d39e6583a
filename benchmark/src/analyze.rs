//! From what the decorators recorded to the numbers the benchmark
//! reports.

use crate::harness::Bucket;
use crate::layers::{self, CodecCosts, WalCosts, WireCosts};
use crate::run::Run;
use crate::stats::{median, rank, tail, Tail};
use crate::workloads::{Workload, BULK_CLASSES, N_WORKERS};
use copernicus_telemetry::{names, Labels};
use std::collections::BTreeMap;

/// One metric value with its unit and, for order statistics, what
/// supports it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub support: Option<Tail>,
}

impl Metric {
    pub fn new(value: f64, unit: &'static str) -> Metric {
        Metric {
            value,
            unit,
            support: None,
        }
    }

    /// The tail of a sample, reported in `unit` = `scale` × the
    /// sample's unit.
    fn tail(values: &[f64], scale: f64, unit: &'static str) -> Metric {
        let t = tail(values);
        Metric {
            value: t.value * scale,
            unit,
            support: Some(t),
        }
    }

    fn median(values: &[f64], scale: f64, unit: &'static str) -> Metric {
        let value = median(values);
        Metric {
            value: value * scale,
            unit,
            support: Some(Tail {
                value,
                percentile: 0.5,
                n: values.len(),
            }),
        }
    }
}

pub type Metrics = BTreeMap<&'static str, Metric>;

/// What the harness's two clock readings per `execute` call, and the
/// completions it saw reach the controller, give.
pub struct Outside {
    pub window_secs: f64,
    pub completed_in_window: u64,
    pub cmds_per_s: f64,
    pub gap_secs: Vec<f64>,
    pub turnaround_p50_us: f64,
    /// Σ `execute` time inside the window.
    pub busy_secs: f64,
    pub fleet_idle_frac: f64,
}

pub fn outside(run: &Run) -> Option<Outside> {
    // Without a first `execute` call there was no window.
    run.rec.window_start_ns()?;
    let window_secs = run.window_secs;
    let completed_in_window = run.log.completed_in_window;

    let gap_secs: Vec<f64> = run.execs.gaps.items().iter().map(|g| g.0).collect();
    let busy_secs = run.execs.busy_ns as f64 / 1e9;
    Some(Outside {
        window_secs,
        completed_in_window,
        cmds_per_s: completed_in_window as f64 / window_secs,
        turnaround_p50_us: median(&gap_secs) * 1e6,
        gap_secs,
        busy_secs,
        fleet_idle_frac: 1.0 - busy_secs / (N_WORKERS as f64 * window_secs),
    })
}

/// Operations attempted and failed, with the reasons.
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

pub fn verdict(run: &Run, outside: Option<&Outside>, seed: u64) -> Verdict {
    let log = &run.log;
    let mut reasons = Vec::new();
    let mut fail = |n: u64, why: String| {
        if n > 0 {
            reasons.push(format!("{n} × {why}"));
        }
        n
    };
    let mut failed = 0;
    failed += fail(
        log.spawned.saturating_sub(log.completed + log.dropped),
        "command without a terminal event".into(),
    );
    failed += fail(log.dropped, "command dropped".into());
    failed += fail(log.duplicates, "second terminal event for a command".into());
    failed += fail(run.mismatches, "payload checksum mismatch".into());
    failed += fail(
        run.rec
            .bad_energy
            .load(std::sync::atomic::Ordering::Relaxed),
        "MD result without a finite potential energy".into(),
    );
    failed += fail(
        u64::from(log.finished_early),
        "project finished before the window closed".into(),
    );
    failed += fail(
        u64::from(outside.is_none()),
        "no execute call was ever observed".into(),
    );
    if log.completed != run.result.commands_completed {
        failed += fail(
            1,
            format!(
                "server counted {} completions, the controller saw {}",
                run.result.commands_completed, log.completed
            ),
        );
    }
    if let Some(durable) = &run.durable {
        if let Some(recovered) = &durable.recovered {
            let counters = recovered.counters;
            let expect_result = serde_json::to_string(&run.result.result).ok();
            let same = recovered.started
                && recovered.n_live() == 0
                && recovered.finished == expect_result
                && counters.commands_completed == run.result.commands_completed
                && counters.commands_requeued == run.result.commands_requeued
                && counters.commands_dropped == run.result.commands_dropped
                && counters.stale_results_dropped == run.result.stale_results_dropped
                && counters.workers_lost == run.result.workers_lost
                && counters.bytes_received == run.result.bytes_received;
            failed += fail(
                u64::from(!same),
                "replayed state differs from the live server's result".into(),
            );
        }
        failed += fail(
            u64::from(durable.replay_attempted && durable.replayed_bytes == 0),
            "log did not replay".into(),
        );
    }
    if run.workload.villin() {
        let model = mdsim::VillinModel::hp35();
        let extended = msm::rmsd(&model.extended_start(), &model.native);
        let min_rmsd = log
            .final_snapshot
            .as_ref()
            .and_then(|s| s["min_rmsd"].as_f64());
        if !min_rmsd.is_some_and(|m| m < extended) {
            failed += fail(
                1,
                format!(
                    "min RMSD {min_rmsd:?} not below the extended chain's {extended:.2} (seed {seed})"
                ),
            );
        }
    }
    Verdict {
        attempted: log.spawned.max(1),
        failed,
        reasons,
    }
}

/// The end-to-end metrics of an untraced run. `setup_secs` is every
/// set-up the process made (probes and the run's own).
pub fn end_to_end(outside: &Outside, setup_secs: &[f64]) -> Metrics {
    let mut m = Metrics::new();
    m.insert("setup_s", Metric::median(setup_secs, 1.0, "s"));
    m.insert("cmds_per_s", Metric::new(outside.cmds_per_s, "1/s"));
    m.insert(
        "turnaround_p50_us",
        Metric::median(&outside.gap_secs, 1e6, "us"),
    );
    m
}

/// Inputs of the per-layer table beyond the traced run itself.
pub struct LayerInputs<'a> {
    pub untraced: &'a Outside,
    pub traced: &'a Outside,
    pub md: &'a layers::MdBaseline,
    pub codec: &'a CodecCosts,
    pub wire: &'a WireCosts,
    pub wal: &'a WalCosts,
    pub wal_counts: &'a layers::WalCounts,
    pub observe_frames_per_s: f64,
}

fn put(m: &mut Metrics, name: &'static str, value: f64, unit: &'static str) {
    m.insert(name, Metric::new(value, unit));
}

/// Median over the gaps of each gap's bucket cost: the isolated cost a
/// median command carries, comparable with the median turnaround.
fn cost_at_median_gap<C>(
    gaps: &[(f64, Bucket)],
    per_bucket: &BTreeMap<Bucket, C>,
    cost: impl Fn(&C) -> f64,
) -> f64 {
    let mut costs: Vec<f64> = gaps
        .iter()
        .map(|(_, bucket)| per_bucket.get(bucket).map_or(0.0, &cost))
        .collect();
    costs.sort_by(f64::total_cmp);
    rank(&costs, 0.5)
}

/// Mean over the run's commands of a per-bucket quantity: each bucket
/// weighted by its share of the sampled gaps. (The few `msm-build`
/// commands of a villin run are two orders of magnitude larger than its
/// MD commands; an unweighted mean over the sampled commands would be
/// theirs.)
fn mean_over_commands<C>(
    gaps: &[(f64, Bucket)],
    per_bucket: &BTreeMap<Bucket, C>,
    quantity: impl Fn(&C) -> f64,
) -> f64 {
    if gaps.is_empty() {
        return 0.0;
    }
    gaps.iter()
        .map(|(_, bucket)| per_bucket.get(bucket).map_or(0.0, &quantity))
        .sum::<f64>()
        / gaps.len() as f64
}

pub fn per_layer(run: &Run, inputs: &LayerInputs<'_>) -> Metrics {
    let traced = inputs.traced;
    let (execs, log) = (&run.execs, &run.log);
    let gaps = execs.gaps.items();
    let completed = log.completed.max(1) as f64;
    let mut m = Metrics::new();

    // ---- mdsim
    let telemetry = run
        .telemetry
        .as_ref()
        .expect("a traced run carries telemetry");
    let registry = telemetry.registry();
    let villin = copernicus_telemetry::labels(&[("model", "villin")]);
    let md_steps = registry
        .find_histogram(names::FORCE_LOOP_NS, &villin)
        .map_or(0, |h| h.count());
    put(&mut m, "mdsim.step_ns", inputs.md.step_ns, "ns");
    put(
        &mut m,
        "mdsim.record_step_ns",
        inputs.md.record_step_ns,
        "ns",
    );
    put(
        &mut m,
        "mdsim.force_ns_per_step",
        inputs.md.force_ns_per_step,
        "ns",
    );
    put(
        &mut m,
        "mdsim.integrate_ns_per_step",
        inputs.md.integrate_ns_per_step,
        "ns",
    );
    put(&mut m, "mdsim.steps_total", md_steps as f64, "count");

    // ---- executor
    let exec_secs = execs.exec_secs.items();
    put(&mut m, "executor.busy_s", traced.busy_secs, "s");
    put(
        &mut m,
        "executor.busy_frac",
        traced.busy_secs / (N_WORKERS as f64 * traced.window_secs),
        "frac",
    );
    m.insert("executor.exec_p50_ms", Metric::median(exec_secs, 1e3, "ms"));
    m.insert("executor.exec_p99_ms", Metric::tail(exec_secs, 1e3, "ms"));
    put(
        &mut m,
        "executor.overhead_frac",
        if execs.md_busy_ns > 0 {
            1.0 - execs.md_steps as f64 * inputs.md.step_ns / execs.md_busy_ns as f64
        } else {
            0.0
        },
        "frac",
    );
    put(
        &mut m,
        "executor.payload_bytes_per_cmd",
        log.result_bytes as f64 / completed,
        "B",
    );
    put(&mut m, "executor.failed", execs.failed as f64, "count");
    put(&mut m, "fleet.idle_frac", traced.fleet_idle_frac, "frac");

    // ---- codec and wire (counts are zero on the in-process transport)
    let codec_encode_secs = mean_over_commands(gaps, inputs.codec, |c| c.encode_secs);
    let codec_decode_secs = mean_over_commands(gaps, inputs.codec, |c| c.decode_secs);
    let codec_bytes = mean_over_commands(gaps, inputs.codec, |c| c.bytes);
    let total = |name: &str| registry.counter_total(name) as f64;
    let frames = total(names::WIRE_FRAMES_SENT);
    let wire_bytes = total(names::WIRE_BYTES_SENT);
    put(
        &mut m,
        "codec.encode_ns_per_msg",
        codec_encode_secs / 3.0 * 1e9,
        "ns",
    );
    put(
        &mut m,
        "codec.decode_ns_per_msg",
        codec_decode_secs / 3.0 * 1e9,
        "ns",
    );
    put(&mut m, "codec.msgs_per_cmd", frames / completed, "count");
    put(
        &mut m,
        "codec.bytes_per_cmd",
        (wire_bytes - frames * copernicus_wire::HEADER_LEN as f64).max(0.0) / completed,
        "B",
    );
    put(
        &mut m,
        "codec.encode_mb_per_s",
        codec_bytes / codec_encode_secs.max(1e-12) / 1e6,
        "MB/s",
    );
    put(
        &mut m,
        "codec.decode_mb_per_s",
        codec_bytes / codec_decode_secs.max(1e-12) / 1e6,
        "MB/s",
    );
    put(&mut m, "wire.frames_per_cmd", frames / completed, "count");
    put(&mut m, "wire.bytes_per_cmd", wire_bytes / completed, "B");
    put(
        &mut m,
        "wire.reconnects",
        total(names::WIRE_RECONNECTS),
        "count",
    );
    let wire_p50_us = cost_at_median_gap(gaps, &inputs.wire.round_trip_secs, |&s| s) * 1e6;
    put(&mut m, "wire.rtt_p50_us", wire_p50_us, "us");
    put(&mut m, "wire.frames_per_s", inputs.wire.frames_per_s, "1/s");
    put(&mut m, "wire.handshake_ms", inputs.wire.handshake_ms, "ms");

    // ---- controller (timed by the harness's spans around it)
    let on_event_us = log.on_event_us.items();
    let snapshot_us = &log.snapshots.us;
    let (on_event_p50, snapshot_p50) = (median(on_event_us), median(snapshot_us));
    m.insert(
        "controller.on_event_us_p50",
        Metric::median(on_event_us, 1.0, "us"),
    );
    m.insert(
        "controller.on_event_us_p99",
        Metric::tail(on_event_us, 1.0, "us"),
    );
    put(
        &mut m,
        "controller.busy_s",
        (log.on_event_ns + log.snapshots.busy_ns) as f64 / 1e9,
        "s",
    );
    m.insert(
        "controller.snapshot_us_p50",
        Metric::median(snapshot_us, 1.0, "us"),
    );
    let snapshot_bytes: Vec<f64> = log.snapshots.bytes.iter().map(|&b| b as f64).collect();
    put(
        &mut m,
        "controller.snapshot_bytes_p50",
        median(&snapshot_bytes),
        "B",
    );
    put(
        &mut m,
        "controller.snapshot_bytes_last",
        snapshot_bytes.last().copied().unwrap_or(0.0),
        "B",
    );
    put(&mut m, "controller.events", log.events as f64, "count");
    let science = log.final_snapshot.as_ref();
    let science_num = |key: &str| science.and_then(|s| s[key].as_f64()).unwrap_or(0.0);
    put(
        &mut m,
        "controller.rebuilds",
        science_num("n_rebuilds"),
        "count",
    );
    let first_fold_s = science_num("first_folded_elapsed_secs");
    put(
        &mut m,
        "controller.first_fold_frac",
        first_fold_s / traced.window_secs,
        "frac",
    );
    let completions = &log.completions;
    put(
        &mut m,
        "controller.first_fold_cmds",
        if first_fold_s > 0.0 {
            completions
                .entries()
                .iter()
                .filter(|&&server_ns| server_ns as f64 / 1e9 <= first_fold_s)
                .count() as f64
                * completions.stride() as f64
        } else {
            0.0
        },
        "count",
    );
    put(&mut m, "controller.min_rmsd", science_num("min_rmsd"), "A");

    // ---- msm
    put(
        &mut m,
        "msm.observe_frames_per_s",
        inputs.observe_frames_per_s,
        "1/s",
    );
    put(
        &mut m,
        "msm.build_frac",
        execs.build_secs.iter().sum::<f64>() / execs.total_secs().max(1e-9),
        "frac",
    );
    put(
        &mut m,
        "msm.states",
        science
            .and_then(|s| s["stream"]["centers"].as_array().map(Vec::len))
            .unwrap_or(0) as f64,
        "count",
    );

    // ---- wal
    let wal_secs = mean_over_commands(gaps, &inputs.wal.per_command, |c| c.0);
    let wal_bytes = mean_over_commands(gaps, &inputs.wal.per_command, |c| c.1);
    let (mut log_bytes_final, mut replay_mb_per_s) = (0.0, 0.0);
    if let Some(durable) = &run.durable {
        log_bytes_final = durable.log_bytes_final as f64;
        replay_mb_per_s = durable.replayed_bytes as f64 / durable.replay_secs.max(1e-9) / 1e6;
    }
    put(&mut m, "wal.append_us_per_rec", wal_secs / 3.0 * 1e6, "us");
    put(
        &mut m,
        "wal.append_mb_per_s",
        wal_bytes / wal_secs.max(1e-12) / 1e6,
        "MB/s",
    );
    put(
        &mut m,
        "wal.records_per_cmd",
        inputs.wal_counts.records_per_cmd,
        "count",
    );
    put(
        &mut m,
        "wal.bytes_per_cmd",
        inputs.wal_counts.bytes_per_cmd,
        "B",
    );
    put(&mut m, "wal.log_bytes_final", log_bytes_final, "B");
    put(&mut m, "wal.replay_mb_per_s", replay_mb_per_s, "MB/s");

    // ---- server: what is left of the turnaround
    let gap_us: Vec<f64> = gaps.iter().map(|g| g.0 * 1e6).collect();
    m.insert("server.turnaround_p99_us", Metric::tail(&gap_us, 1.0, "us"));
    put(
        &mut m,
        "server.turnaround_max_us",
        gap_us.iter().copied().fold(0.0, f64::max),
        "us",
    );
    // Per-byte scaling of the command path: the median turnaround after
    // a 32 KiB or 128 KiB command, over that after a 4 KiB one.
    let class_p50 = |class: usize| {
        debug_assert!(class < BULK_CLASSES.len());
        let of_class: Vec<f64> = gaps
            .iter()
            .filter(|(_, bucket)| run.workload == Workload::PayloadBulk && bucket.1 == class as u8)
            .map(|g| g.0)
            .collect();
        median(&of_class)
    };
    for (class, name) in [
        (1, "server.turnaround_ratio.32k"),
        (2, "server.turnaround_ratio.128k"),
    ] {
        debug_assert!(name.ends_with(BULK_CLASSES[class].0));
        let ratio = if class_p50(0) > 0.0 {
            class_p50(class) / class_p50(0)
        } else {
            0.0
        };
        put(&mut m, name, ratio, "ratio");
    }
    let dispatch_wait = registry
        .find_histogram(names::DISPATCH_LATENCY, &Labels::new())
        .map_or(0.0, |h| h.p50());
    put(
        &mut m,
        "server.dispatch_wait_p50_ms",
        dispatch_wait * 1e3,
        "ms",
    );
    // Share of the median turnaround that goes to applying a spawn.
    put(
        &mut m,
        "server.spawn_frac",
        if log.snapshots.spawn_gap_cmds > 0 && traced.turnaround_p50_us > 0.0 {
            log.snapshots.spawn_gap_ns as f64
                / 1e3
                / log.snapshots.spawn_gap_cmds as f64
                / traced.turnaround_p50_us
        } else {
            0.0
        },
        "frac",
    );
    put(
        &mut m,
        "server.queue_depth_peak",
        run.queue_depth_peak as f64,
        "count",
    );
    put(
        &mut m,
        "server.requeued",
        run.result.commands_requeued as f64,
        "count",
    );
    put(
        &mut m,
        "server.stale_dropped",
        run.result.stale_results_dropped as f64,
        "count",
    );

    let codec_p50_us = cost_at_median_gap(gaps, inputs.codec, |c| {
        c.encode_secs + c.decode_secs + c.wrap_secs
    }) * 1e6;
    // Only what the live run went through counts against its
    // turnaround: no codec or wire in process, no WAL or per-event
    // snapshot without a state directory.
    let mut explained = on_event_p50;
    if run.workload.tcp() {
        explained += codec_p50_us + wire_p50_us;
    }
    if run.durable.is_some() {
        explained +=
            snapshot_p50 + cost_at_median_gap(gaps, &inputs.wal.per_command, |c| c.0) * 1e6;
        if inputs.wal.state_mb_per_s > 0.0 {
            explained += median(&snapshot_bytes) / inputs.wal.state_mb_per_s;
        }
    }
    let turnaround = traced.turnaround_p50_us;
    put(
        &mut m,
        "server.residual_us_per_cmd",
        turnaround - explained,
        "us",
    );
    put(
        &mut m,
        "attribution.coverage_frac",
        if turnaround > 0.0 {
            explained / turnaround
        } else {
            0.0
        },
        "frac",
    );

    // ---- telemetry: what attaching it cost
    let tracer = telemetry.tracer();
    let dropped = tracer.dropped();
    put(
        &mut m,
        "telemetry.overhead_frac",
        (inputs.untraced.cmds_per_s - traced.cmds_per_s) / inputs.untraced.cmds_per_s.max(1e-9),
        "frac",
    );
    put(
        &mut m,
        "telemetry.spans_recorded",
        tracer.spans().len() as f64 + dropped as f64,
        "count",
    );
    put(&mut m, "telemetry.spans_dropped", dropped as f64, "count");
    m
}
