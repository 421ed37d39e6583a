//! The text of every JSON record that no other test pins byte for byte:
//! the project reports and configs, the FEP and `msm-build` command
//! payloads and results, the MSM and replica-exchange controller images
//! and the engine checkpoint. Each recorded text must read back and
//! write out again unchanged, so a change to a field's name, encoding
//! or absent-key rule fails here. (`mdrun` payloads and the streaming
//! MSM image are pinned by `streaming_run_matches_recorded_hash`; the
//! WAL records by `every_kind_of_record_keeps_its_recorded_text`.)

use copernicus_core::plugins::{
    AdaptiveMode, ExchangeMode, ExchangeRecord, FepProjectConfig, FepProjectReport,
    GenerationReport, KineticsReport, MsmController, MsmProjectConfig, MsmProjectReport,
    RepexController, RepexProjectConfig, RepexProjectReport,
};
use copernicus_core::{Controller, FepSampleOutput, FepSampleSpec, MsmBuildOutput, MsmBuildSpec};
use mdsim::engine::Checkpoint;
use mdsim::{v3, SimBox, State};
use msm::Weighting;
use serde_json::{json, Value};

/// `text` read by `from` and written by `to`.
fn rewritten<T>(text: &str, from: fn(&Value) -> Result<T, String>, to: fn(&T) -> Value) -> String {
    let value: Value = serde_json::from_str(text).expect("recorded text is JSON");
    to(&from(&value).unwrap_or_else(|e| panic!("{e} in {text}"))).to_string()
}

/// `value`'s text is `recorded`, and `recorded` reads back to itself.
fn pin<T>(value: &T, recorded: &str, from: fn(&Value) -> Result<T, String>, to: fn(&T) -> Value) {
    assert_eq!(to(value).to_string(), recorded);
    assert_eq!(rewritten(recorded, from, to), recorded);
}

fn generation(generation: usize, stderr: Option<f64>) -> GenerationReport {
    GenerationReport {
        generation,
        n_trajectories_total: 9,
        n_frames_total: 1200,
        n_states: 40,
        n_active_states: 37,
        n_respawned: 2,
        min_rmsd_to_native: 3.25,
        predicted_native_rmsd: 4.5,
        predicted_native_population: 0.125,
        folded_equilibrium_population: 0.0625,
        folded_pop_stderr: stderr,
        folded_observed: stderr.is_some(),
    }
}

#[test]
fn msm_reports_keep_their_recorded_text() {
    let full = MsmProjectReport {
        generations: vec![generation(0, None), generation(1, Some(0.01))],
        first_folded_generation: Some(1),
        first_folded_elapsed_secs: Some(12.5),
        min_rmsd_to_native: 2.75,
        final_predicted_native_rmsd: 1.5,
        n_rebuilds: 3,
        kinetics: Some(KineticsReport {
            times_ns: vec![0.0, 10.0, 20.0],
            folded_fraction: vec![0.0, 0.25, 0.5],
            t_half_ns: Some(20.0),
            final_folded_fraction: 0.5,
        }),
    };
    pin(
        &full,
        FULL_MSM_REPORT,
        MsmProjectReport::from_value,
        MsmProjectReport::to_value,
    );
    let bare = MsmProjectReport {
        generations: vec![],
        first_folded_generation: None,
        first_folded_elapsed_secs: None,
        min_rmsd_to_native: 9.0,
        final_predicted_native_rmsd: 8.0,
        n_rebuilds: 0,
        kinetics: None,
    };
    pin(
        &bare,
        BARE_MSM_REPORT,
        MsmProjectReport::from_value,
        MsmProjectReport::to_value,
    );
    // A report written before `n_rebuilds` existed reads as none.
    let old = BARE_MSM_REPORT.replace(",\"n_rebuilds\":0", "");
    assert_eq!(
        rewritten(
            &old,
            MsmProjectReport::from_value,
            MsmProjectReport::to_value
        ),
        BARE_MSM_REPORT
    );
}

const FULL_MSM_REPORT: &str = r#"{"final_predicted_native_rmsd":1.5,"first_folded_elapsed_secs":12.5,"first_folded_generation":1,"generations":[{"folded_equilibrium_population":0.0625,"folded_observed":false,"folded_pop_stderr":null,"generation":0,"min_rmsd_to_native":3.25,"n_active_states":37,"n_frames_total":1200,"n_respawned":2,"n_states":40,"n_trajectories_total":9,"predicted_native_population":0.125,"predicted_native_rmsd":4.5},{"folded_equilibrium_population":0.0625,"folded_observed":true,"folded_pop_stderr":0.01,"generation":1,"min_rmsd_to_native":3.25,"n_active_states":37,"n_frames_total":1200,"n_respawned":2,"n_states":40,"n_trajectories_total":9,"predicted_native_population":0.125,"predicted_native_rmsd":4.5}],"kinetics":{"final_folded_fraction":0.5,"folded_fraction":[0.0,0.25,0.5],"t_half_ns":20.0,"times_ns":[0.0,10.0,20.0]},"min_rmsd_to_native":2.75,"n_rebuilds":3}"#;
const BARE_MSM_REPORT: &str = r#"{"final_predicted_native_rmsd":8.0,"first_folded_elapsed_secs":null,"first_folded_generation":null,"generations":[],"kinetics":null,"min_rmsd_to_native":9.0,"n_rebuilds":0}"#;

#[test]
fn repex_and_fep_reports_keep_their_recorded_text() {
    let repex = RepexProjectReport {
        n_replicas: 3,
        n_alive: 2,
        n_legs: 4,
        mode: "sync".into(),
        ladder: vec![0.5, 0.625, 0.8],
        attempts: 5,
        accepts: 2,
        acceptance_rate: 0.4,
        expected_acceptance: 0.375,
        round_trips: 1,
        walkers: vec![2, 0, 1],
        dead_slots: vec![1],
        history: vec![ExchangeRecord {
            leg: 3,
            slot_lo: 0,
            slot_hi: 1,
            walker_lo: 2,
            walker_hi: 0,
            e_lo: -12.5,
            e_hi: -10.25,
            prob: 0.75,
            draw: 0.5,
            accepted: true,
        }],
    };
    pin(
        &repex,
        REPEX_REPORT,
        RepexProjectReport::from_value,
        RepexProjectReport::to_value,
    );
    let fep = FepProjectReport {
        delta_f: 4.5,
        std_err: 0.125,
        per_window_delta_f: vec![1.0, 1.5, 2.0],
        n_windows: 3,
        total_samples: 1200,
    };
    pin(
        &fep,
        FEP_REPORT,
        FepProjectReport::from_value,
        FepProjectReport::to_value,
    );
}

const REPEX_REPORT: &str = r#"{"acceptance_rate":0.4,"accepts":2,"attempts":5,"dead_slots":[1],"expected_acceptance":0.375,"history":[{"accepted":true,"draw":0.5,"e_hi":-10.25,"e_lo":-12.5,"leg":3,"prob":0.75,"slot_hi":1,"slot_lo":0,"walker_hi":0,"walker_lo":2}],"ladder":[0.5,0.625,0.8],"mode":"sync","n_alive":2,"n_legs":4,"n_replicas":3,"round_trips":1,"walkers":[2,0,1]}"#;
const FEP_REPORT: &str = r#"{"delta_f":4.5,"n_windows":3,"per_window_delta_f":[1.0,1.5,2.0],"std_err":0.125,"total_samples":1200}"#;

#[test]
fn project_configs_keep_their_recorded_text() {
    pin(
        &MsmProjectConfig::default(),
        DEFAULT_MSM_CONFIG,
        MsmProjectConfig::from_value,
        MsmProjectConfig::to_value,
    );
    let msm = MsmProjectConfig {
        mode: AdaptiveMode::Generational,
        weighting: Weighting::Even,
        stop_folded_pop_stderr: Some(0.02),
        segment_ns: 25.5,
        seed: 99,
        ..MsmProjectConfig::default()
    };
    pin(
        &msm,
        MSM_CONFIG,
        MsmProjectConfig::from_value,
        MsmProjectConfig::to_value,
    );
    pin(
        &RepexProjectConfig::default(),
        DEFAULT_REPEX_CONFIG,
        RepexProjectConfig::from_value,
        RepexProjectConfig::to_value,
    );
    let repex = RepexProjectConfig {
        mode: ExchangeMode::Sync,
        n_replicas: 4,
        ..RepexProjectConfig::default()
    };
    pin(
        &repex,
        REPEX_CONFIG,
        RepexProjectConfig::from_value,
        RepexProjectConfig::to_value,
    );
    // The FEP config is read, not written: every key it names.
    let fep = FepProjectConfig::from_value(&json!({
        "k_a": 2.0, "k_b": 8.0, "temperature": 0.5, "n_windows": 3,
        "equil_steps": 10, "n_steps": 200, "record_interval": 5, "seed": 11,
    }))
    .unwrap();
    assert_eq!(
        fep,
        FepProjectConfig {
            k_a: 2.0,
            k_b: 8.0,
            temperature: 0.5,
            n_windows: 3,
            equil_steps: 10,
            n_steps: 200,
            record_interval: 5,
            seed: 11,
        }
    );
}

const DEFAULT_MSM_CONFIG: &str = r#"{"checkpoint_steps":0,"chunks_per_segment":1,"cores_per_sim":1,"even_until_generation":0,"folded_rmsd":3.5,"generations":6,"kinetics_horizon_ns":2000.0,"lag_frames":5,"mode":"Streaming","n_clusters":150,"n_starts":9,"record_interval":80,"respawn_fraction":0.3,"seed":2011,"segment_ns":50.0,"sims_per_start":5,"stop_folded_pop_stderr":null,"temperature":0.5,"weighting":"Adaptive"}"#;
const MSM_CONFIG: &str = r#"{"checkpoint_steps":0,"chunks_per_segment":1,"cores_per_sim":1,"even_until_generation":0,"folded_rmsd":3.5,"generations":6,"kinetics_horizon_ns":2000.0,"lag_frames":5,"mode":"Generational","n_clusters":150,"n_starts":9,"record_interval":80,"respawn_fraction":0.3,"seed":99,"segment_ns":25.5,"sims_per_start":5,"stop_folded_pop_stderr":0.02,"temperature":0.5,"weighting":"Even"}"#;
const DEFAULT_REPEX_CONFIG: &str = r#"{"checkpoint_steps":0,"mode":"async","n_legs":40,"n_replicas":6,"seed":1997,"steps_per_leg":400,"t_max":0.8,"t_min":0.5}"#;
const REPEX_CONFIG: &str = r#"{"checkpoint_steps":0,"mode":"sync","n_legs":40,"n_replicas":4,"seed":1997,"steps_per_leg":400,"t_max":0.8,"t_min":0.5}"#;

#[test]
fn fep_and_msm_build_payloads_keep_their_recorded_text() {
    let spec = FepSampleSpec {
        k_sample: 1.5,
        k_eval: 3.0,
        temperature: 0.75,
        equil_steps: 100,
        n_steps: 2000,
        record_interval: 10,
        seed: 42,
        tag: json!({"window": 1, "dir": "fwd"}),
    };
    pin(
        &spec,
        FEP_SPEC,
        FepSampleSpec::from_value,
        FepSampleSpec::to_value,
    );
    let out = FepSampleOutput {
        works: vec![0.5, -0.25, 1e-3],
        tag: json!({"window": 1, "dir": "fwd"}),
    };
    pin(
        &out,
        FEP_OUTPUT,
        FepSampleOutput::from_value,
        FepSampleOutput::to_value,
    );
    let build = MsmBuildSpec {
        trajs: vec![
            vec![vec![v3(1.0, 2.0, 3.0)], vec![v3(-1.0, 0.5, 0.0)]],
            vec![],
        ],
        n_clusters: 7,
        tag: json!({"kind": "msm-build", "epoch": 2}),
    };
    pin(
        &build,
        MSM_BUILD_SPEC,
        MsmBuildSpec::from_value,
        MsmBuildSpec::to_value,
    );
    let built = MsmBuildOutput {
        centers: vec![vec![v3(0.25, 0.5, 0.75)]],
        dtrajs: vec![vec![0, 0], vec![]],
        radius: 1.25,
        tag: json!({"kind": "msm-build", "epoch": 2}),
    };
    pin(
        &built,
        MSM_BUILD_OUTPUT,
        MsmBuildOutput::from_value,
        MsmBuildOutput::to_value,
    );
}

const FEP_SPEC: &str = r#"{"equil_steps":100,"k_eval":3.0,"k_sample":1.5,"n_steps":2000,"record_interval":10,"seed":42,"tag":{"dir":"fwd","window":1},"temperature":0.75}"#;
const FEP_OUTPUT: &str = r#"{"tag":{"dir":"fwd","window":1},"works":[0.5,-0.25,0.001]}"#;
const MSM_BUILD_SPEC: &str = r#"{"n_clusters":7,"tag":{"epoch":2,"kind":"msm-build"},"trajs":[["AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","AAAAAAAA8L8AAAAAAADgPwAAAAAAAAAA"],[]]}"#;
const MSM_BUILD_OUTPUT: &str = r#"{"centers":["AAAAAAAA0D8AAAAAAADgPwAAAAAAAOg/"],"dtrajs":[[0,0],[]],"radius":1.25,"tag":{"epoch":2,"kind":"msm-build"}}"#;

#[test]
fn engine_checkpoint_keeps_its_recorded_text() {
    let state = |sim_box| State {
        positions: vec![v3(1.0, 2.0, 3.0)],
        velocities: vec![v3(-0.5, 0.0, 0.25)],
        forces: vec![v3(0.0, 1.0, -1.0)],
        masses: vec![2.0],
        sim_box,
        step: 40,
        time: 0.2,
    };
    let open = Checkpoint {
        state: state(SimBox::Open),
        step: 40,
        rng_reseed: 77,
    };
    pin(
        &open,
        OPEN_CHECKPOINT,
        Checkpoint::from_value,
        Checkpoint::to_value,
    );
    let ortho = Checkpoint {
        state: state(SimBox::ortho(5.0, 6.0, 7.5)),
        step: 40,
        rng_reseed: 77,
    };
    pin(
        &ortho,
        ORTHO_CHECKPOINT,
        Checkpoint::from_value,
        Checkpoint::to_value,
    );
}

const OPEN_CHECKPOINT: &str = r#"{"rng_reseed":77,"state":{"forces":"AAAAAAAAAAAAAAAAAADwPwAAAAAAAPC/","masses":[2.0],"positions":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","sim_box":{"box":"open"},"step":40,"time":0.2,"velocities":"AAAAAAAA4L8AAAAAAAAAAAAAAAAAANA/"},"step":40}"#;
const ORTHO_CHECKPOINT: &str = r#"{"rng_reseed":77,"state":{"forces":"AAAAAAAAAAAAAAAAAADwPwAAAAAAAPC/","masses":[2.0],"positions":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAAhA","sim_box":{"box":"ortho","l":[5.0,6.0,7.5]},"step":40,"time":0.2,"velocities":"AAAAAAAA4L8AAAAAAAAAAAAAAAAAANA/"},"step":40}"#;

/// `image` restored into `controller` and snapshotted again.
fn reimaged(controller: &mut dyn Controller, image: &str) -> String {
    let value: Value = serde_json::from_str(image).expect("recorded image is JSON");
    assert!(controller.restore(value), "image does not restore: {image}");
    controller.snapshot().expect("a snapshot").to_string()
}

#[test]
fn repex_image_keeps_its_recorded_text() {
    let mut c = RepexController::new(RepexProjectConfig::default());
    assert_eq!(reimaged(&mut c, REPEX_IMAGE), REPEX_IMAGE);
}

/// Two slots of one bead each, one leg reported, one slot dropped.
const REPEX_IMAGE: &str = r#"{"config":{"checkpoint_steps":0,"mode":"async","n_legs":3,"n_replicas":2,"seed":1997,"steps_per_leg":50,"t_max":0.8,"t_min":0.5},"finished":false,"history":[{"accepted":true,"draw":0.25,"e_hi":-9.5,"e_lo":-12.0,"leg":1,"prob":1.0,"slot_hi":1,"slot_lo":0,"walker_hi":1,"walker_lo":0}],"round_trips":0,"slots":[{"alive":true,"done":false,"in_flight":false,"leg":2,"pending":-11.5,"positions":"AAAAAAAAAEAAAAAAAAAIQAAAAAAAAADA","walker":1},{"alive":false,"done":false,"in_flight":false,"leg":1,"pending":null,"positions":"AAAAAAAACEAAAAAAAAAQQAAAAAAAAAjA","walker":0}],"walker_rt":[1,2]}"#;

#[test]
fn msm_barrier_image_keeps_its_recorded_text() {
    let mut c = MsmController::new(MsmProjectConfig::default());
    assert_eq!(reimaged(&mut c, MSM_IMAGE), MSM_IMAGE);
    // An image written before tickets carried a stride shipped every
    // frame.
    let old = MSM_IMAGE.replace(",\"stride\":1", "");
    assert_ne!(old, MSM_IMAGE);
    assert_eq!(reimaged(&mut c, &old), MSM_IMAGE);
}

/// A barrier image: one lineage parked, one still running, one closed,
/// a recluster in flight and no estimator yet.
const MSM_IMAGE: &str = r#"{"analyze_kinetics":true,"config":{"checkpoint_steps":0,"chunks_per_segment":1,"cores_per_sim":1,"even_until_generation":0,"folded_rmsd":3.5,"generations":6,"kinetics_horizon_ns":2000.0,"lag_frames":5,"mode":"Generational","n_clusters":150,"n_starts":9,"record_interval":80,"respawn_fraction":0.3,"seed":2011,"segment_ns":50.0,"sims_per_start":5,"stop_folded_pop_stderr":null,"temperature":0.5,"weighting":"Adaptive"},"decisions":17,"first_folded_elapsed_secs":null,"first_folded_generation":null,"halt":false,"lineages":[{"chunks_left":[],"current":"AAAAAAAA8D8AAAAAAAAAQAAAAAAAAPC/","done":false,"dtraj":[0,1],"parked":true,"traj":{"frames":["AAAAAAAAAAAAAAAAAADwPwAAAAAAAACA","AAAAAAAA8D8AAAAAAAAAQAAAAAAAAPC/"],"times":"AAAAAAAAAAAAAAAAAADgPw=="},"uid":4},{"chunks_left":[30,30],"current":"AAAAAAAAAAAAAAAAAADwPwAAAAAAAACA","done":false,"dtraj":[],"traj":{"frames":["AAAAAAAAAAAAAAAAAADwPwAAAAAAAACA"],"times":"AAAAAAAAAAA="},"uid":5}],"min_rmsd":3.5,"n_rebuilds":2,"next_seed":123456789,"next_uid":6,"rebuild":{"epoch":3,"frozen":[{"len":3,"uid":1},{"len":2,"uid":4}],"stride":1},"reports":[{"folded_equilibrium_population":0.0625,"folded_observed":false,"folded_pop_stderr":null,"generation":0,"min_rmsd_to_native":3.25,"n_active_states":37,"n_frames_total":1200,"n_respawned":2,"n_states":40,"n_trajectories_total":9,"predicted_native_population":0.125,"predicted_native_rmsd":4.5}],"respawns_since_report":1,"segments_done":5,"segments_started":7,"stream":null,"terminated":[{"dtraj":[1,1,0],"traj":{"frames":["AAAAAAAAAAAAAAAAAADwPwAAAAAAAACA","AAAAAAAA8D8AAAAAAAAAQAAAAAAAAPC/","AAAAAAAAAEAAAAAAAAAIQAAAAAAAAADA"],"times":"AAAAAAAAAAAAAAAAAADgPwAAAAAAAPA/"},"uid":1}]}"#;
