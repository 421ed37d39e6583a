//! copbench — the repository's benchmark.
//!
//! ```text
//! copbench --workload W --seed N --seconds S --trace 0|1   one run
//! copbench [--seed N] [--seconds S]                        all workloads, both modes
//! copbench --selfcheck [--seed N] [--seconds S]            the suite twice, compared
//! copbench --describe                                      print BENCHMARK.json
//! ```
//!
//! One run drives one workload from one process — server thread, wire
//! loop and two workers — in a closed loop: each worker asks for its
//! next command only when the previous one is done. `--trace 0` runs
//! without `Telemetry` and reports the end-to-end metrics; `--trace 1`
//! runs half the time without and half with it, then replays each
//! layer in isolation, and reports the per-layer metrics. See
//! `benchmark/README.md`.

mod analyze;
mod harness;
mod layers;
mod run;
mod spans;
mod spec;
mod stats;
mod workloads;

use analyze::{Metrics, Verdict};
use copernicus_telemetry::Json;
use harness::Mode;
use run::{run_once, Run};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use workloads::{Workload, N_WORKERS};

/// Set-up is measured this many times per process (the run's own start
/// plus probes that stop at the first `execute` call).
const SETUPS_PER_RUN: usize = 15;

/// The stand-ins the hermetic build resolves third-party names to.
const STAND_INS: [&str; 8] = [
    "serde",
    "serde_derive",
    "serde_json",
    "parking_lot",
    "crossbeam",
    "rand",
    "rand_chacha",
    "rayon",
];

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    selfcheck: bool,
    describe: bool,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
        selfcheck: false,
        describe: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload `{name}`"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--selfcheck" => args.selfcheck = true,
            "--describe" => args.describe = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("copbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.describe {
        return describe(&args);
    }
    if let Err(e) = std::fs::create_dir_all(&args.out_dir) {
        eprintln!("copbench: cannot create {}: {e}", args.out_dir.display());
        return ExitCode::from(2);
    }
    match args.workload {
        Some(workload) => single(workload, &args),
        None => suite(&args),
    }
}

// ---------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------

/// A run that does not end is a failed run, not a hung driver.
fn arm_watchdog(seconds: f64) {
    let limit = Duration::from_secs_f64(seconds + 120.0);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("copbench: run exceeded {limit:?}; giving up");
        std::process::exit(3);
    });
}

fn add_verdicts(a: Verdict, b: Verdict) -> Verdict {
    Verdict {
        attempted: a.attempted + b.attempted,
        failed: a.failed + b.failed,
        reasons: a.reasons.into_iter().chain(b.reasons).collect(),
    }
}

fn single(workload: Workload, args: &Args) -> ExitCode {
    arm_watchdog(args.seconds);
    let (metrics, verdict, extra) = if args.trace {
        traced(workload, args)
    } else {
        untraced(workload, args)
    };
    for reason in &verdict.reasons {
        eprintln!("copbench: failed: {reason}");
    }
    let detail = detail_json(workload, args, &metrics, &verdict, extra);
    let path = args.out_dir.join(format!(
        "result_{}_trace{}_seed{}.json",
        workload.name(),
        u8::from(args.trace),
        args.seed
    ));
    if let Err(e) = std::fs::write(&path, detail.to_string_pretty() + "\n") {
        eprintln!("copbench: cannot write {}: {e}", path.display());
    }
    print_table(workload, &metrics);

    let mut out = Json::object();
    out.set("correct", verdict.failed == 0)
        .set("attempted", verdict.attempted)
        .set("failed", verdict.failed)
        .set("metrics", metrics_json(&metrics, false));
    println!("{}", out.to_string());
    if verdict.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn untraced(workload: Workload, args: &Args) -> (Metrics, Verdict, Json) {
    let mut run = run_once(
        workload,
        args.seed,
        args.seconds,
        Mode::Untraced,
        true,
        &args.out_dir,
    );
    let outside = analyze::outside(&run);
    let verdict = analyze::verdict(&run, outside.as_ref(), args.seed);
    let mut extra = Json::object();
    if let Some(durable) = run.durable.take() {
        extra
            .set("wal_log_bytes_final", durable.log_bytes_final)
            .set("wal_replayed_bytes", durable.replayed_bytes)
            .set("wal_replay_s", durable.replay_secs)
            .set("wal_replay_verified_whole_log", durable.recovered.is_some());
    }
    // The probes come after the run (and after its state directory is
    // gone), not before it: set-up is a few milliseconds of CPU and
    // file-system metadata work, and how fast those go depends on what
    // the box was doing just before. After the run that is the same
    // thing every time.
    let mut setups = vec![run.setup_secs];
    for _ in 1..SETUPS_PER_RUN {
        setups
            .push(run_once(workload, args.seed, 0.0, Mode::Probe, false, &args.out_dir).setup_secs);
    }
    extra.set(
        "setup_s_samples",
        setups.iter().map(|&s| Json::from(s)).collect::<Vec<Json>>(),
    );
    let metrics = match &outside {
        Some(outside) => {
            extra
                .set("fleet_idle_frac", outside.fleet_idle_frac)
                .set("executor_busy_s", outside.busy_secs)
                .set("completed_in_window", outside.completed_in_window)
                .set("peak_rss_mb", run.peak_rss_mb);
            analyze::end_to_end(outside, &setups)
        }
        None => Metrics::new(),
    };
    (metrics, verdict, extra)
}

fn traced(workload: Workload, args: &Args) -> (Metrics, Verdict, Json) {
    let half = args.seconds / 2.0;
    let plain = run_once(
        workload,
        args.seed,
        half,
        Mode::Untraced,
        false,
        &args.out_dir,
    );
    let plain_outside = analyze::outside(&plain);
    let plain_verdict = analyze::verdict(&plain, plain_outside.as_ref(), args.seed);
    let plain_peak_rss_mb = plain.peak_rss_mb;
    drop(plain);
    let run = run_once(workload, args.seed, half, Mode::Traced, true, &args.out_dir);
    let outside = analyze::outside(&run);
    let verdict = add_verdicts(
        plain_verdict,
        analyze::verdict(&run, outside.as_ref(), args.seed),
    );
    let (Some(plain_outside), Some(outside)) = (plain_outside, outside) else {
        return (Metrics::new(), verdict, Json::object());
    };
    let (mut metrics, extra) = layer_table(&run, &plain_outside, &outside, args);
    metrics.insert(
        "process.peak_rss_mb",
        analyze::Metric::new(plain_peak_rss_mb, "MiB"),
    );
    (metrics, verdict, extra)
}

fn layer_table(
    run: &Run,
    untraced: &analyze::Outside,
    traced: &analyze::Outside,
    args: &Args,
) -> (Metrics, Json) {
    let spans = run.rec.spans.as_ref();
    let corpus = run.rec.take_corpus();
    let record_interval = workloads::msm_config(run.workload, args.seed).record_interval;
    let md = layers::spanned(spans, "replay.mdsim", || {
        layers::mdsim_baseline(args.seed, record_interval)
    });
    // Every layer is replayed on every workload, also where the live
    // run bypassed it (the in-process transport has no codec or wire,
    // a run without a state directory no WAL): an isolated cost is a
    // property of the layer and the messages, and `codec.msgs_per_cmd`
    // or `wal.records_per_cmd` = 0 is what says the run did not pay it.
    let codec = layers::spanned(spans, "replay.codec", || layers::codec_replay(&corpus));
    let wire = layers::spanned(spans, "replay.wire", || {
        layers::wire_replay(&codec).unwrap_or_else(|e| {
            eprintln!("copbench: wire replay failed: {e}");
            layers::WireCosts::default()
        })
    });
    let scratch = args
        .out_dir
        .join(format!("replay-wal-{}", std::process::id()));
    let wal = layers::spanned(spans, "replay.wal", || {
        layers::wal_replay(&corpus, &run.log.snapshots.samples, &scratch).unwrap_or_else(|e| {
            eprintln!("copbench: wal replay failed: {e}");
            layers::WalCosts::default()
        })
    });
    let wal_counts = run
        .durable
        .as_ref()
        .and_then(|durable| std::fs::read(&durable.first_generation).ok())
        .map(|bytes| layers::wal_counts(&bytes))
        .unwrap_or_default();
    let observe_frames_per_s = layers::spanned(spans, "replay.msm", || {
        layers::msm_replay(run.log.final_snapshot.as_ref(), &corpus)
    });
    let metrics = analyze::per_layer(
        run,
        &analyze::LayerInputs {
            untraced,
            traced,
            md: &md,
            codec: &codec,
            wire: &wire,
            wal: &wal,
            wal_counts: &wal_counts,
            observe_frames_per_s,
        },
    );

    let mut extra = Json::object();
    if let Some(spans) = spans {
        let path = args
            .out_dir
            .join(format!("trace_{}.json", run.workload.name()));
        if let Err(e) = spans.write_chrome(&path) {
            eprintln!("copbench: cannot write {}: {e}", path.display());
        }
        let mut table = Json::object();
        for (name, t) in spans.totals() {
            let mut row = Json::object();
            row.set("count", t.count)
                .set("total_us", t.total_ns as f64 / 1e3)
                .set("self_us", t.self_ns as f64 / 1e3);
            table.set(name, row);
        }
        extra
            .set("harness_spans", spans.total())
            .set("harness_span_totals", table);
    }
    extra
        .set("untraced_cmds_per_s", untraced.cmds_per_s)
        .set("traced_cmds_per_s", traced.cmds_per_s)
        .set("traced_turnaround_p50_us", traced.turnaround_p50_us);
    (metrics, extra)
}

// ---------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------

/// `{name: {value, unit}}`; with `support`, order statistics also carry
/// their percentile and sample count.
fn metrics_json(metrics: &Metrics, support: bool) -> Json {
    let mut values = Json::object();
    for (name, metric) in metrics {
        let mut v = Json::object();
        v.set("value", metric.value).set("unit", metric.unit);
        if let (true, Some(s)) = (support, metric.support) {
            v.set("n", s.n).set("percentile", s.percentile);
        }
        values.set(name, v);
    }
    values
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn detail_json(
    workload: Workload,
    args: &Args,
    metrics: &Metrics,
    verdict: &Verdict,
    extra: Json,
) -> Json {
    let mut provenance = Json::object();
    provenance
        .set(
            "nproc",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .set("rustc", command_line("rustc", &["-V"]))
        .set("git_commit", command_line("git", &["rev-parse", "HEAD"]))
        .set("workers", N_WORKERS)
        .set(
            "loop",
            "closed: a worker requests its next command after finishing one",
        )
        .set("budget", workload.budget_note())
        .set(
            "stand_ins",
            STAND_INS
                .iter()
                .map(|&s| Json::from(s))
                .collect::<Vec<Json>>(),
        );
    let mut doc = Json::object();
    doc.set("workload", workload.name())
        .set("why", spec::why(workload))
        .set("seed", args.seed)
        .set("seconds", args.seconds)
        .set("trace", args.trace)
        .set("ops_attempted", verdict.attempted)
        .set("ops_failed", verdict.failed)
        .set(
            "failures",
            verdict
                .reasons
                .iter()
                .map(|r| Json::from(r.as_str()))
                .collect::<Vec<Json>>(),
        )
        .set("metrics", metrics_json(metrics, true))
        .set("detail", extra)
        .set("provenance", provenance);
    doc
}

fn print_table(workload: Workload, metrics: &Metrics) {
    eprintln!("== {} ==", workload.name());
    for (name, metric) in metrics {
        let support = metric.support.map_or(String::new(), |s| {
            format!("  (p{:.0} of n={})", s.percentile * 100.0, s.n)
        });
        eprintln!("{name:<34} {:>16.4} {}{support}", metric.value, metric.unit);
    }
}

fn describe(args: &Args) -> ExitCode {
    // The per-layer names and units are whatever a traced run reports;
    // a one-second one on the cheapest workload lists them.
    let short = Args {
        workload: None,
        seed: args.seed,
        seconds: 1.0,
        trace: true,
        selfcheck: false,
        describe: false,
        out_dir: args.out_dir.clone(),
    };
    if let Err(e) = std::fs::create_dir_all(&short.out_dir) {
        eprintln!("copbench: cannot create {}: {e}", short.out_dir.display());
        return ExitCode::from(2);
    }
    let (metrics, _, _) = traced(Workload::NoopFlood, &short);
    let per_layer: Vec<(&'static str, &'static str)> =
        metrics.iter().map(|(name, m)| (*name, m.unit)).collect();
    println!("{}", spec::describe(&per_layer).to_string_pretty());
    ExitCode::SUCCESS
}

// ---------------------------------------------------------------------
// Suite and selfcheck
// ---------------------------------------------------------------------

/// One child process per run: `peak_rss_mb` is a per-process high-water
/// mark, so runs must not share one.
fn child(workload: Workload, trace: bool, args: &Args) -> Option<serde_json::Value> {
    let exe = std::env::current_exe().ok()?;
    let output = std::process::Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&args.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .ok()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    serde_json::from_str(stdout.lines().last()?).ok()
}

type SuiteResult = Vec<(Workload, bool, Option<serde_json::Value>)>;

fn run_suite(args: &Args) -> SuiteResult {
    let mut results = Vec::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            results.push((workload, trace, child(workload, trace, args)));
        }
    }
    results
}

fn suite_failed(results: &SuiteResult) -> bool {
    results.iter().any(|(_, _, r)| {
        !r.as_ref()
            .is_some_and(|r| r["correct"] == serde_json::json!(true))
    })
}

fn write_suite(results: &SuiteResult, path: &Path) {
    let doc: Vec<serde_json::Value> = results
        .iter()
        .map(|(workload, trace, result)| {
            serde_json::json!({
                "workload": workload.name(),
                "trace": *trace,
                "result": result.clone(),
            })
        })
        .collect();
    let text = format!("{:#}\n", serde_json::Value::from(doc));
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("copbench: cannot write {}: {e}", path.display());
    }
}

fn suite(args: &Args) -> ExitCode {
    let first = run_suite(args);
    write_suite(
        &first,
        &args.out_dir.join(format!("suite_seed{}.json", args.seed)),
    );
    let mut failed = suite_failed(&first);
    if args.selfcheck {
        let second = run_suite(args);
        failed |= suite_failed(&second);
        println!(
            "{:<22} {:<20} {:>14} {:>14} {:>9} {:>7}",
            "workload", "metric", "first", "second", "worse by", "bound"
        );
        for ((workload, trace, a), (_, _, b)) in first.iter().zip(&second) {
            if *trace {
                continue;
            }
            for e in &spec::END_TO_END {
                let value = |r: &Option<serde_json::Value>| {
                    r.as_ref()
                        .and_then(|r| r["metrics"][e.name]["value"].as_f64())
                        .unwrap_or(f64::NAN)
                };
                let (a, b) = (value(a), value(b));
                // Positive when the second set is the worse one.
                let worse_by = if e.higher_is_better {
                    (a - b) / a
                } else {
                    (b - a) / a
                };
                // The two sets are the same build: either order is a
                // legitimate comparison, so the check is symmetric.
                let out_of_bound = worse_by.is_nan() || worse_by.abs() > e.bound;
                failed |= out_of_bound;
                println!(
                    "{:<22} {:<20} {a:>14.4} {b:>14.4} {:>8.1}% {:>6.0}%{}",
                    workload.name(),
                    e.name,
                    worse_by * 100.0,
                    e.bound * 100.0,
                    if out_of_bound { "  OUT OF BOUND" } else { "" }
                );
            }
        }
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
