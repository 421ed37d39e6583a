//! Shared infrastructure for the figure-regeneration binaries.
//!
//! Figures 2–5 all analyse the same adaptive-sampling run; that run is
//! executed once through the real framework (deterministic per seed) and
//! distilled into a cached JSON file under `results/`, which the per-
//! figure binaries then render as the paper's series.
//!
//! Scale is selected with `--quick` / `--paper-scale` CLI flags or the
//! `COPERNICUS_SCALE` environment variable (`quick`, `default`, `paper`).

use copernicus_core::plugins::msm::TrajectoryArchive;
use copernicus_core::prelude::*;
use copernicus_core::MdRunExecutor;
use copernicus_telemetry::Telemetry;
use mdsim::jsonv::{self, Block, Field};
use mdsim::units::steps_to_ns;
use mdsim::vec3::Vec3;
use mdsim::VillinModel;
use msm::{propagate_series, rmsd, MarkovStateModel, MsmConfig};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// Experiment scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds — CI smoke.
    Quick,
    /// A couple of minutes on a laptop core — the documented default.
    Default,
    /// The paper's trajectory count (225); tens of minutes.
    Paper,
}

impl Scale {
    /// Read the scale from CLI args and the environment.
    pub fn from_env() -> Scale {
        let args: Vec<String> = std::env::args().collect();
        if args.iter().any(|a| a == "--quick") {
            return Scale::Quick;
        }
        if args.iter().any(|a| a == "--paper-scale") {
            return Scale::Paper;
        }
        match std::env::var("COPERNICUS_SCALE").as_deref() {
            Ok("quick") => Scale::Quick,
            Ok("paper") => Scale::Paper,
            _ => Scale::Default,
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Default => "default",
            Scale::Paper => "paper",
        }
    }

    /// The adaptive-sampling configuration at this scale. The figure
    /// pipeline runs the paper's protocol: the adaptive loop behind a
    /// generation barrier. `fig2_streaming` measures what the barrier
    /// costs against the streaming default.
    pub fn msm_config(&self) -> MsmProjectConfig {
        let base = MsmProjectConfig {
            mode: AdaptiveMode::Generational,
            ..MsmProjectConfig::default()
        };
        match self {
            Scale::Quick => MsmProjectConfig {
                n_starts: 3,
                sims_per_start: 3,
                segment_ns: 25.0,
                n_clusters: 50,
                generations: 4,
                ..base.clone()
            },
            Scale::Default => MsmProjectConfig {
                n_starts: 9,
                sims_per_start: 5,
                segment_ns: 50.0,
                n_clusters: 150,
                generations: 10,
                ..base.clone()
            },
            Scale::Paper => MsmProjectConfig {
                n_starts: 9,
                sims_per_start: 25,
                segment_ns: 50.0,
                n_clusters: 600,
                generations: 10,
                ..base.clone()
            },
        }
    }
}

/// A cached run names its scale by label.
impl Field for Scale {
    fn put(&self) -> Value {
        Value::from(self.label())
    }

    fn get(v: &Value) -> Result<Scale, String> {
        let label = v.as_str().ok_or("not a string")?;
        [Scale::Quick, Scale::Default, Scale::Paper]
            .into_iter()
            .find(|s| s.label() == label)
            .ok_or_else(|| format!("unknown scale `{label}`"))
    }
}

jsonv::record! {
    /// One trajectory's RMSD-to-native time series.
    #[derive(Debug, Clone)]
    pub struct RmsdSeries {
        pub times_ns: Vec<f64>,
        pub rmsd: Vec<f64>,
    }
}

jsonv::record! {
    /// Population time series of the final microstate MSM under
    /// Chapman-Kolmogorov propagation from the unfolded start (Fig. 4).
    #[derive(Debug, Clone)]
    pub struct PopulationSeries {
        pub times_ns: Vec<f64>,
        /// `states[s][t]`: population of active state `s` at time index
        /// `t`.
        pub states: Vec<Vec<f64>>,
        /// RMSD of each active state's center to native.
        pub state_rmsd_to_native: Vec<f64>,
        /// Active-state indices counted as folded (center within 3.5 Å).
        pub folded_states: Vec<usize>,
        pub folded_fraction: Vec<f64>,
    }
}

/// A JSON array with one element per item.
pub fn list_to_value<T>(items: &[T], item: impl Fn(&T) -> Value) -> Value {
    Value::Array(items.iter().map(item).collect())
}

jsonv::record! {
    /// The distilled adaptive run all of Figs. 2–5 draw on.
    #[derive(Debug, Clone)]
    pub struct AdaptiveRunData {
        pub scale: Scale,
        pub report: MsmProjectReport,
        pub rmsd_series: Vec<RmsdSeries>,
        pub best_frame: Vec<Vec3> as Block,
        pub best_rmsd: f64,
        pub native: Vec<Vec3> as Block,
        pub populations: PopulationSeries,
        /// Microstate assignment of every frame, per trajectory, from the
        /// final clustering (for lag-time re-analysis).
        pub dtrajs: Vec<Vec<usize>>,
        /// RMSD of every microstate center to native (original state
        /// ids).
        pub center_rmsd_to_native: Vec<f64>,
        /// Physical time per frame, nominal ns.
        pub frame_ns: f64,
        pub wall_secs: f64,
        pub n_commands: u64,
        pub bytes_received: u64,
    }
}

impl AdaptiveRunData {
    /// Read a cached run, which must have been taken at `scale`.
    fn load(v: &Value, scale: Scale) -> Result<AdaptiveRunData, String> {
        let data = AdaptiveRunData::from_value(v)?;
        if data.scale != scale {
            return Err(format!("not a {} scale run", scale.label()));
        }
        Ok(data)
    }
}

/// Where a `BENCH_*.json` was measured: the commit (`-dirty` when the
/// tree had uncommitted changes), the compiler, the CPU model and the
/// hardware threads; each null when it cannot be read.
pub fn provenance() -> Value {
    let stdout = |program: &str, args: &[&str]| {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|text| text.trim().to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    json!({
        "git_commit": stdout("git", &["describe", "--always", "--dirty", "--abbrev=40"]),
        "rustc": stdout("rustc", &["-V"]),
        "cpu_model": cpu_model,
        "threads": std::thread::available_parallelism().ok().map(|n| n.get()),
    })
}

/// Directory where figure data lands (created on demand).
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from("results");
    std::fs::create_dir_all(&dir).expect("cannot create results/");
    dir
}

pub fn save_json(name: &str, value: &Value) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, value.to_string()).expect("cannot write results file");
    path
}

pub fn load_json(name: &str) -> Option<Value> {
    let data = std::fs::read(results_dir().join(name)).ok()?;
    serde_json::from_slice(&data).ok()
}

/// Write a run's metrics snapshot into `results/` as
/// `<prefix>.snapshot.json`, the `copernicus report` input format.
pub fn save_telemetry(prefix: &str, telemetry: &Telemetry) -> PathBuf {
    let snapshot = results_dir().join(format!("{prefix}.snapshot.json"));
    std::fs::write(&snapshot, telemetry.snapshot_pretty()).expect("cannot write snapshot");
    snapshot
}

/// Run (or load from cache) the adaptive villin project at `scale`.
pub fn adaptive_run(scale: Scale) -> AdaptiveRunData {
    let cache_name = format!("adaptive_run_{}.json", scale.label());
    let cached = load_json(&cache_name).and_then(|v| AdaptiveRunData::load(&v, scale).ok());
    if let Some(cached) = cached {
        eprintln!("[bench] using cached run results/{cache_name}");
        return cached;
    }
    eprintln!("[bench] executing adaptive run at {} scale…", scale.label());
    let data = execute_adaptive_run(scale);
    save_json(&cache_name, &data.to_value());
    data
}

fn execute_adaptive_run(scale: Scale) -> AdaptiveRunData {
    let model = Arc::new(VillinModel::hp35());
    let config = scale.msm_config();
    let lag_frames = config.lag_frames;
    let record_interval = config.record_interval;
    let folded_rmsd = config.folded_rmsd;
    let n_clusters = config.n_clusters;
    let horizon_ns = config.kinetics_horizon_ns;

    let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
    let telemetry = Telemetry::new();
    let controller = MsmController::new(config).with_archive(archive.clone());
    let registry = ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model.clone())))
        .with(Arc::new(MsmBuildExecutor));
    let n_workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let t0 = std::time::Instant::now();
    let result = run_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers,
            telemetry: Some(telemetry.clone()),
            ..RuntimeConfig::default()
        },
    );
    let wall_secs = t0.elapsed().as_secs_f64();
    let snap_path = save_telemetry(&format!("adaptive_run_{}", scale.label()), &telemetry);
    eprintln!("[bench] telemetry snapshot: {}", snap_path.display());
    let report = MsmProjectReport::from_value(&result.result).expect("controller report");

    let trajs = archive.lock().unwrap().clone();
    let native = model.native.clone();
    let dt = model.params.dt;

    // Per-trajectory RMSD series (Figs. 2/5) and the best frame (Fig. 3).
    let mut rmsd_series = Vec::with_capacity(trajs.len());
    let mut best_rmsd = f64::INFINITY;
    let mut best_frame: Vec<Vec3> = native.clone();
    for t in &trajs {
        let mut times_ns = Vec::with_capacity(t.len());
        let mut values = Vec::with_capacity(t.len());
        for (time, frame) in t.iter() {
            let d = rmsd(frame, &native);
            // Trajectory clocks are in intrinsic τ; convert via the
            // steps⇄ns mapping (time/dt = steps).
            times_ns.push(steps_to_ns((time / dt).round() as u64, dt));
            values.push(d);
            if d < best_rmsd {
                best_rmsd = d;
                best_frame = frame.to_vec();
            }
        }
        rmsd_series.push(RmsdSeries {
            times_ns,
            rmsd: values,
        });
    }

    // Final MSM over the archive for the Fig. 4 population evolution.
    let msm = MarkovStateModel::build(
        &trajs,
        MsmConfig {
            n_clusters,
            lag_frames,
            prior: 1e-4,
            reversible: true,
            kmedoids_iters: 0,
        },
    );
    let frame_ns = steps_to_ns(record_interval, dt);
    let lag_ns = frame_ns * lag_frames as f64;
    let n_steps = (horizon_ns / lag_ns).ceil().max(1.0) as usize;
    let p0 = msm.initial_distribution();
    let series = propagate_series(&msm.tmatrix, &p0, n_steps);
    let times_ns: Vec<f64> = (0..=n_steps).map(|i| i as f64 * lag_ns).collect();
    let state_rmsd_to_native: Vec<f64> = msm
        .active
        .iter()
        .map(|&s| rmsd(&msm.centers[s], &native))
        .collect();
    let folded_states: Vec<usize> = state_rmsd_to_native
        .iter()
        .enumerate()
        .filter(|(_, &d)| d <= folded_rmsd)
        .map(|(k, _)| k)
        .collect();
    let folded_fraction: Vec<f64> = series
        .iter()
        .map(|p| folded_states.iter().map(|&s| p[s]).sum::<f64>().max(0.0))
        .collect();
    let states: Vec<Vec<f64>> = (0..msm.n_active())
        .map(|s| series.iter().map(|p| p[s]).collect())
        .collect();

    let center_rmsd_to_native: Vec<f64> = msm.centers.iter().map(|c| rmsd(c, &native)).collect();

    AdaptiveRunData {
        scale,
        report,
        rmsd_series,
        best_frame,
        best_rmsd,
        native,
        populations: PopulationSeries {
            times_ns,
            states,
            state_rmsd_to_native,
            folded_states,
            folded_fraction,
        },
        dtrajs: msm.dtrajs.clone(),
        center_rmsd_to_native,
        frame_ns,
        wall_secs,
        n_commands: result.commands_completed,
        bytes_received: result.bytes_received,
    }
}

/// Pretty-print a two-column series.
pub fn print_series(header: (&str, &str), xs: &[f64], ys: &[f64]) {
    println!("{:>12} {:>12}", header.0, header.1);
    for (x, y) in xs.iter().zip(ys) {
        println!("{x:>12.2} {y:>12.4}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use copernicus_testkit::{record_sweep, Gen, Record};

    #[test]
    fn scale_configs_grow() {
        let q = Scale::Quick.msm_config();
        let d = Scale::Default.msm_config();
        let p = Scale::Paper.msm_config();
        assert!(q.n_trajectories_per_generation() < d.n_trajectories_per_generation());
        assert!(d.n_trajectories_per_generation() < p.n_trajectories_per_generation());
        assert_eq!(p.n_trajectories_per_generation(), 225);
    }

    #[test]
    fn adaptive_run_cache_roundtrips() {
        let report = MsmProjectReport {
            generations: Vec::new(),
            first_folded_generation: Some(2),
            first_folded_elapsed_secs: None,
            min_rmsd_to_native: 2.5,
            final_predicted_native_rmsd: 3.0,
            n_rebuilds: 0,
            kinetics: None,
        };
        let data = AdaptiveRunData {
            scale: Scale::Quick,
            report,
            rmsd_series: vec![RmsdSeries {
                times_ns: vec![0.0, 0.5],
                rmsd: vec![4.0, 3.5],
            }],
            best_frame: vec![Vec3::new(1.0, 2.0, 3.0)],
            best_rmsd: 3.5,
            native: vec![Vec3::new(0.0, 0.0, 0.5)],
            populations: PopulationSeries {
                times_ns: vec![0.0, 1.0],
                states: vec![vec![1.0, 0.25], vec![0.0, 0.75]],
                state_rmsd_to_native: vec![5.0, 1.0],
                folded_states: vec![1],
                folded_fraction: vec![0.0, 0.75],
            },
            dtrajs: vec![vec![0, 1, 1], vec![]],
            center_rmsd_to_native: vec![5.0, 1.0],
            frame_ns: 0.5,
            wall_secs: 0.125,
            n_commands: 3,
            bytes_received: 1 << 40,
        };
        let text = data.to_value().to_string();
        let doc = serde_json::from_str(&text).unwrap();
        let back = AdaptiveRunData::load(&doc, Scale::Quick).unwrap();
        assert_eq!(back.to_value(), data.to_value());
        assert!(AdaptiveRunData::load(&doc, Scale::Paper).is_err());
        assert_eq!(back.dtrajs, data.dtrajs);
        assert_eq!(back.bytes_received, 1 << 40);
    }

    #[test]
    fn scale_labels() {
        assert_eq!(Scale::Quick.label(), "quick");
        assert_eq!(Scale::Paper.label(), "paper");
    }

    fn random_series(g: &mut Gen) -> RmsdSeries {
        let n = g.usize_in(0..5);
        RmsdSeries {
            times_ns: g.vec(n..n + 1, |g| g.f64_in(0.0..100.0)),
            rmsd: g.vec(n..n + 1, |g| g.f64_in(0.0..20.0)),
        }
    }

    fn random_populations(g: &mut Gen) -> PopulationSeries {
        PopulationSeries {
            times_ns: g.vec(0..4, |g| g.f64_in(0.0..100.0)),
            states: g.vec(0..3, |g| g.vec(0..4, |g| g.unit())),
            state_rmsd_to_native: g.vec(0..3, |g| g.f64_in(0.0..20.0)),
            folded_states: g.vec(0..3, |g| g.usize_in(0..9)),
            folded_fraction: g.vec(0..4, |g| g.unit()),
        }
    }

    fn random_frame(g: &mut Gen) -> Vec<Vec3> {
        g.vec(0..4, |g| {
            Vec3::new(g.f64_in(-9.0..9.0), g.f64_in(-9.0..9.0), f64::NAN)
        })
    }

    #[test]
    fn declared_records_sweep() {
        let required = |_: &str| None;
        record_sweep(
            "bench_rmsd_series",
            64,
            Record {
                random: &random_series,
                to_value: RmsdSeries::to_value,
                from_value: RmsdSeries::from_value,
                absent: &required,
                opaque: &[],
            },
        );
        record_sweep(
            "bench_population_series",
            64,
            Record {
                random: &random_populations,
                to_value: PopulationSeries::to_value,
                from_value: PopulationSeries::from_value,
                absent: &required,
                opaque: &[],
            },
        );
        record_sweep(
            "bench_adaptive_run",
            32,
            Record {
                random: &|g| AdaptiveRunData {
                    scale: [Scale::Quick, Scale::Default, Scale::Paper][g.usize_in(0..3)],
                    report: MsmProjectReport {
                        generations: Vec::new(),
                        first_folded_generation: None,
                        first_folded_elapsed_secs: Some(g.f64_in(0.0..9.0)),
                        min_rmsd_to_native: g.f64_in(0.0..9.0),
                        final_predicted_native_rmsd: g.f64_in(0.0..9.0),
                        n_rebuilds: g.usize_in(0..9),
                        kinetics: None,
                    },
                    rmsd_series: g.vec(0..3, random_series),
                    best_frame: random_frame(g),
                    best_rmsd: g.f64_in(0.0..9.0),
                    native: random_frame(g),
                    populations: random_populations(g),
                    dtrajs: g.vec(0..3, |g| g.vec(0..4, |g| g.usize_in(0..9))),
                    center_rmsd_to_native: g.vec(0..4, |g| g.f64_in(0.0..20.0)),
                    frame_ns: g.f64_in(0.0..1.0),
                    wall_secs: g.f64_in(0.0..1e4),
                    n_commands: g.u64(),
                    bytes_received: g.u64(),
                },
                to_value: AdaptiveRunData::to_value,
                from_value: AdaptiveRunData::from_value,
                absent: &required,
                opaque: &[],
            },
        );
    }
}
