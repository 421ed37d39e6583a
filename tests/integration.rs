//! Cross-crate integration tests: the full stack from MD engine through
//! MSM analysis, framework orchestration, free energies and the
//! performance simulator.

use copernicus::clustersim::{
    reference_tres1_hours, simulate_controller, MachineSpec, PerfModel, ProjectSpec,
};
use copernicus::core::plugins::msm::TrajectoryArchive;
use copernicus::core::prelude::*;
use copernicus::core::MdRunExecutor;
use copernicus::fep::HarmonicPerturbation;
use copernicus::mdsim::VillinModel;
use copernicus::msm::{ensemble_statistic, rmsd, Weighting};
use std::sync::{Arc, Mutex};

fn mini_config(generations: usize) -> MsmProjectConfig {
    MsmProjectConfig {
        mode: AdaptiveMode::Generational,
        n_starts: 3,
        sims_per_start: 2,
        segment_ns: 10.0,
        record_interval: 40,
        temperature: 0.5,
        n_clusters: 20,
        lag_frames: 2,
        weighting: Weighting::Adaptive,
        respawn_fraction: 0.3,
        generations,
        seed: 99,
        ..MsmProjectConfig::default()
    }
}

/// What the msm plugin runs: MD segments and background reclusters.
fn msm_registry(model: &Arc<VillinModel>) -> ExecutorRegistry {
    ExecutorRegistry::new()
        .with(Arc::new(MdRunExecutor::new(model.clone())))
        .with(Arc::new(MsmBuildExecutor))
}

#[test]
fn adaptive_pipeline_feeds_ensemble_analysis() {
    // Run a mini adaptive project through the real framework, then do the
    // Fig. 5 analysis (ensemble mean RMSD vs time) on the archive.
    let model = Arc::new(VillinModel::hp35());
    let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
    let controller = MsmController::new(mini_config(2)).with_archive(archive.clone());
    let registry = msm_registry(&model);
    let result = run_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: 2,
            ..RuntimeConfig::default()
        },
    );
    assert_eq!(result.commands_completed, 12);

    let trajs = archive.lock().unwrap().clone();
    assert!(!trajs.is_empty());
    let native = model.native.clone();
    let series = ensemble_statistic(&trajs, |frame| rmsd(frame, &native));
    assert!(!series.is_empty());
    // Trajectories start unfolded: the ensemble mean RMSD starts high.
    assert!(
        series.mean[0] > 5.0,
        "unfolded ensemble should start far from native: {}",
        series.mean[0]
    );
    // Standard errors are finite and sample counts positive.
    for (se, &n) in series.std_err().iter().zip(&series.n_samples) {
        assert!(se.is_finite());
        assert!(n >= 1);
    }
}

#[test]
fn framework_report_matches_direct_library_analysis() {
    // The RMSD numbers the controller reports must agree with an
    // independent recomputation from the archived trajectories.
    let model = Arc::new(VillinModel::hp35());
    let archive: TrajectoryArchive = Arc::new(Mutex::new(Vec::new()));
    let controller = MsmController::new(mini_config(2)).with_archive(archive.clone());
    let registry = msm_registry(&model);
    let result = run_project(Box::new(controller), registry, RuntimeConfig::default());
    let report = MsmProjectReport::from_value(&result.result).unwrap();

    let mut min_rmsd = f64::INFINITY;
    for t in archive.lock().unwrap().iter() {
        for (_, frame) in t.iter() {
            min_rmsd = min_rmsd.min(rmsd(frame, &model.native));
        }
    }
    assert!(
        (report.min_rmsd_to_native - min_rmsd).abs() < 1e-9,
        "controller reported {}, archive recomputation {}",
        report.min_rmsd_to_native,
        min_rmsd
    );
}

#[test]
fn fep_stack_agrees_with_pure_statistics() {
    // The full framework FEP run and the fep-crate estimator fed with
    // analytically sampled works must agree on the same perturbation.
    let cfg = FepProjectConfig {
        k_a: 1.0,
        k_b: 4.0,
        n_windows: 2,
        ..FepProjectConfig::default()
    };
    let exact = cfg.analytic_delta_f();

    // Pure statistics path (1-D × 3 = 3-D analytic sampling).
    let mut rng = mdsim::rng_from_seed(5);
    let sys = HarmonicPerturbation::new(1.0, 4.0, 1.0);
    let wf: Vec<f64> = sys
        .sample_forward(30_000, &mut rng)
        .chunks(3)
        .map(|c| c.iter().sum())
        .collect();
    let wr: Vec<f64> = sys
        .sample_reverse(30_000, &mut rng)
        .chunks(3)
        .map(|c| c.iter().sum())
        .collect();
    let direct = copernicus::fep::bar(&wf, &wr, 1.0);
    assert!(
        (direct.delta_f - exact).abs() < 5.0 * direct.std_err.max(0.02),
        "analytic-sampling BAR {} vs exact {exact}",
        direct.delta_f
    );

    // Framework path.
    let controller = FepController::new(cfg);
    let registry = ExecutorRegistry::new().with(Arc::new(FepSampleExecutor));
    let result = run_project(Box::new(controller), registry, RuntimeConfig::default());
    let report = FepProjectReport::from_value(&result.result).unwrap();
    assert!(
        (report.delta_f - exact).abs() < 6.0 * report.std_err.max(0.03),
        "framework BAR {} vs exact {exact}",
        report.delta_f
    );
}

#[test]
fn performance_simulator_reproduces_paper_anchors() {
    let project = ProjectSpec::villin_first_folded();
    let perf = PerfModel::villin();
    let tres1 = reference_tres1_hours(&project, &perf);
    // t_res(1) = 1.1e5 hours.
    assert!((tres1 - 1.1e5).abs() / 1.1e5 < 0.02, "t_res(1) = {tres1}");
    // 53% efficiency and ~10 h at 20k cores / 96-core sims.
    let outcome = simulate_controller(&project, &MachineSpec::new(20_000, 96), &perf);
    let eff = outcome.efficiency(tres1, 20_000);
    assert!((0.4..=0.65).contains(&eff), "efficiency {eff}");
    assert!((9.0..=14.0).contains(&outcome.wallclock_hours));
}

#[test]
fn gromacs_like_engine_behaves_physically() {
    // The LJ-fluid path: thermostatted NVT run conserves sanity and
    // produces a cohesive liquid.
    use copernicus::mdsim::{lj_fluid, LjFluidSpec};
    let mut sim = lj_fluid(
        LjFluidSpec {
            n_particles: 125,
            density: 0.7,
            temperature: 1.1,
            cutoff: 2.0,
            skin: 0.3,
            parallel_threshold: usize::MAX,
            ..LjFluidSpec::default()
        },
        11,
    );
    sim.run(400);
    assert!(sim.state.is_finite());
    let u = sim.potential_energy() / 125.0;
    assert!(u < 0.0, "LJ liquid should be cohesive, U/N = {u}");
}

#[test]
fn telemetry_snapshot_is_self_consistent_after_quickstart_run() {
    // The quickstart scenario with telemetry attached everywhere: the
    // snapshot must tell one coherent story across server, workers, MD
    // kernel and controller.
    use copernicus::telemetry::{names, trace, Json, Labels, Telemetry};

    let telemetry = Telemetry::new();
    let model = Arc::new(VillinModel::hp35());
    let controller = MsmController::new(mini_config(2));
    let registry = msm_registry(&model);
    let running = start_project(
        Box::new(controller),
        registry,
        RuntimeConfig {
            n_workers: 2,
            telemetry: Some(telemetry.clone()),
            ..RuntimeConfig::default()
        },
    );
    let monitor = running.monitor.clone();
    let result = running.join();

    // Clean run: every dispatch completed, nothing failed or re-queued.
    let reg = telemetry.registry();
    let dispatched = reg.counter_total(names::COMMANDS_DISPATCHED);
    let completed = reg.counter_total(names::COMMANDS_COMPLETED);
    let failed = reg.counter_total(names::COMMANDS_FAILED);
    let requeued = reg.counter_total(names::COMMANDS_REQUEUED);
    assert_eq!(completed, dispatched - requeued - failed);
    assert_eq!(failed, 0);
    assert_eq!(requeued, 0);
    assert_eq!(completed, result.commands_completed);
    assert_eq!(
        reg.counter_total(names::BYTES_RECEIVED),
        result.bytes_received
    );

    // Per-level timing histograms all saw traffic.
    let dispatch_latency = reg
        .find_histogram(names::DISPATCH_LATENCY, &Labels::new())
        .expect("dispatch latency histogram");
    assert_eq!(dispatch_latency.count(), dispatched);
    assert!(dispatched > 0);
    let force = reg
        .find_histogram(
            names::FORCE_LOOP_NS,
            &copernicus::telemetry::labels(&[("model", "villin")]),
        )
        .expect("force-loop histogram");
    assert!(force.count() > 0, "MD steps must be instrumented");
    assert!(force.mean() > 0.0);
    let clustering = reg
        .find_histogram(names::CLUSTERING_SECS, &Labels::new())
        .expect("clustering histogram");
    // The controller's one inline clustering founds the stream;
    // reclusters run on the fleet, under their own label.
    assert_eq!(
        clustering.count(),
        1,
        "one inline clustering: the bootstrap"
    );

    // Every completed command closed its root span as completed,
    // nothing was dropped, and the JSONL span log round-trips.
    let spans = telemetry.tracer().spans();
    assert_eq!(telemetry.tracer().dropped(), 0);
    let completed_roots = spans
        .iter()
        .filter(|s| s.parent_span_id.is_none())
        .filter(|s| {
            s.attrs
                .iter()
                .any(|(k, v)| k == "disposition" && v == "completed")
        })
        .count();
    assert_eq!(completed_roots as u64, completed);
    let (log, errors) = trace::parse_jsonl(&telemetry.export_trace_jsonl());
    assert!(errors.is_empty(), "span log parses: {errors:?}");
    let ids = |spans: &[trace::Span]| spans.iter().map(|s| s.span_id).collect::<Vec<_>>();
    assert_eq!(ids(&log.spans), ids(&spans));

    // The monitor's combined report embeds the same numbers.
    let report = Json::parse(&monitor.report_json()).expect("report JSON parses");
    assert_eq!(
        report
            .get("status")
            .and_then(|s| s.get("commands_completed"))
            .and_then(Json::as_u64),
        Some(result.commands_completed)
    );
    assert!(report.get("metrics").is_some());
    assert_eq!(
        report
            .get("spans")
            .and_then(|s| s.get("retained"))
            .and_then(Json::as_u64),
        Some(spans.len() as u64)
    );
}

#[test]
fn villin_model_is_a_two_state_folder() {
    // The substrate behind the whole reproduction: at the sampling
    // temperature the native state is stable and unfolded chains are far
    // from it.
    let model = VillinModel::hp35();
    let mut native_sim = model.native_simulation(0.5, 4);
    native_sim.run(8_000);
    let d_native = rmsd(&native_sim.state.positions, &model.native);
    assert!(d_native < 3.0, "native run drifted to {d_native} Å");
    let d_unfolded = rmsd(&model.unfolded_start(3), &model.native);
    assert!(d_unfolded > 6.0, "unfolded start only {d_unfolded} Å away");
}

#[test]
fn config_snippets_quoted_in_the_readme_parse() {
    // Every ```json block in README.md is a config file a reader may
    // paste: it must parse, with the values the prose around it names.
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md");
    let snippets: Vec<serde_json::Value> = readme
        .split("```json\n")
        .skip(1)
        .map(|rest| {
            let text = rest.split("```").next().expect("closing fence");
            serde_json::from_str(text).unwrap_or_else(|e| panic!("{e} in:\n{text}"))
        })
        .collect();
    let [repex] = snippets.as_slice() else {
        panic!(
            "README quotes {} configs; this test knows one",
            snippets.len()
        );
    };
    let cfg = RepexProjectConfig::from_value(repex).expect("the replica-exchange quickstart");
    assert_eq!(
        (cfg.n_replicas, cfg.n_legs, cfg.steps_per_leg),
        (6, 40, 400)
    );
    assert_eq!((cfg.t_min, cfg.t_max, cfg.seed), (0.5, 0.8, 1997));
    assert_eq!(cfg.mode, ExchangeMode::Async);
}
