//! MD-backed command executors.
//!
//! [`MdRunExecutor`] is the Gromacs stand-in — it runs a coarse-grained
//! villin segment with mid-run checkpointing to the shared filesystem.
//! [`FepSampleExecutor`] samples perturbation work values for the BAR
//! plugin. [`MsmBuildExecutor`] runs the full recluster the streaming
//! controller dispatches as a background command (§16 of DESIGN.md).
//! All sit on the `mdsim`/`msm` crates; the dependency-free executor
//! protocol lives in [`crate::executor`].
//!
//! Payloads and results are records declared with [`mdsim::jsonv::record!`]:
//! one canonical JSON shape per command type.

use crate::executor::{CommandExecutor, ExecContext, ExecError};
use crate::resources::{ExecutableSpec, Platform};
use copernicus_telemetry::{buckets, labels, names, NullSink};
use mdsim::jsonv::{self, Block, List};
use mdsim::model::villin::VillinModel;
use mdsim::rng::rng_for_stream;
use mdsim::trajectory::Trajectory;
use mdsim::vec3::Vec3;
use serde_json::Value;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// MD executor
// ---------------------------------------------------------------------------

jsonv::record! {
    /// Payload of an `mdrun` command: one trajectory segment.
    #[derive(Debug, Clone)]
    pub struct MdRunSpec {
        pub start_positions: Vec<Vec3> as Block,
        pub temperature: f64,
        pub n_steps: u64,
        pub record_interval: u64,
        pub seed: u64,
        /// Steps between checkpoint deposits (0 = no checkpointing).
        pub checkpoint_steps: u64,
        /// Failure injection: on the *first* attempt, crash after this
        /// many steps (for fault-tolerance tests). `None` in normal
        /// operation.
        pub inject_crash_at_step: Option<u64>,
        /// Opaque controller metadata echoed into the output (e.g. which
        /// trajectory and generation this segment belongs to).
        pub tag: Value,
    }
}

jsonv::record! {
    /// Output of an `mdrun` command.
    #[derive(Debug, Clone)]
    pub struct MdRunOutput {
        pub trajectory: Trajectory,
        pub final_positions: Vec<Vec3> as Block,
        /// Steps actually executed in this attempt (checkpoint resume
        /// makes this smaller than `n_steps`).
        pub steps_executed: u64,
        /// Potential energy of the final configuration, for controllers
        /// that make exchange decisions from reported energies (replica
        /// exchange sync points). `None` when it was not finite (JSON
        /// has no literal for it) or for outputs recorded before this
        /// field existed (old WAL journals).
        pub final_potential: Option<f64>,
        /// The controller tag from the command payload, echoed back.
        pub tag: Value,
    }
}

jsonv::record! {
    /// Mid-run checkpoint: engine state plus the frames recorded so far.
    #[derive(Debug, Clone)]
    struct MdCheckpoint {
        engine: mdsim::engine::Checkpoint,
        partial_trajectory: Trajectory,
        steps_done: u64,
    }
}

/// The Gromacs-equivalent executable: runs villin Gō-model segments.
pub struct MdRunExecutor {
    model: Arc<VillinModel>,
}

impl MdRunExecutor {
    pub fn new(model: Arc<VillinModel>) -> Self {
        MdRunExecutor { model }
    }

    pub const COMMAND_TYPE: &'static str = "mdrun";
}

impl CommandExecutor for MdRunExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new(
            Self::COMMAND_TYPE,
            Platform::Smp,
            "copernicus-mdsim-0.1",
        )]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        let spec = MdRunSpec::from_value(&ctx.command.payload).map_err(ExecError::BadPayload)?;
        if spec.record_interval == 0 || spec.n_steps == 0 {
            return Err(ExecError::BadPayload(
                "n_steps and record_interval must be positive".into(),
            ));
        }

        // Resume from a checkpoint if the command carries one.
        let (mut sim, mut trajectory, mut steps_done) = match &ctx.command.checkpoint {
            Some(cp_json) => {
                let cp = MdCheckpoint::from_value(cp_json)
                    .map_err(|e| ExecError::BadPayload(format!("bad checkpoint: {e}")))?;
                let mut sim = self.model.simulation(
                    cp.engine.state.positions.clone(),
                    spec.temperature,
                    cp.engine.rng_reseed,
                );
                sim.restore(&cp.engine);
                (sim, cp.partial_trajectory, cp.steps_done)
            }
            None => {
                let sim = self.model.simulation(
                    spec.start_positions.clone(),
                    spec.temperature,
                    spec.seed,
                );
                let mut traj = Trajectory::new();
                traj.push(0.0, spec.start_positions.clone());
                (sim, traj, 0)
            }
        };

        // `attempts` counts dispatches: the server sets it to 1 on the
        // first dispatch (executor unit tests may pass 0). Crash only on
        // the first execution of this command.
        let crash_at = if ctx.command.attempts <= 1 {
            spec.inject_crash_at_step
        } else {
            None
        };

        // Per-step phase timings flow into the shared histograms when the
        // worker carries telemetry; otherwise the NullSink path keeps the
        // inner loop untouched.
        let sink = ctx
            .telemetry
            .map(|t| t.step_sink(labels(&[("model", "villin")])));

        let mut steps_executed = 0u64;
        while steps_done < spec.n_steps {
            let chunk = if spec.checkpoint_steps > 0 {
                spec.checkpoint_steps.min(spec.n_steps - steps_done)
            } else {
                spec.n_steps - steps_done
            };
            // Frames fall on multiples of `record_interval` counted from
            // the command's start, not from this chunk's.
            let interval = spec.record_interval;
            match &sink {
                Some(s) => sim.record_into(&mut trajectory, chunk, interval, steps_done, s),
                None => sim.record_into(&mut trajectory, chunk, interval, steps_done, &NullSink),
            };
            steps_done += chunk;
            steps_executed += chunk;

            if let (Some(fs), true) = (ctx.shared_fs, spec.checkpoint_steps > 0) {
                let t0 = std::time::Instant::now();
                let cp = MdCheckpoint {
                    engine: sim.checkpoint(mdsim::rng::splitmix64(spec.seed ^ steps_done)),
                    partial_trajectory: trajectory.clone(),
                    steps_done,
                };
                let value = cp.to_value();
                if let Some(t) = ctx.telemetry {
                    let bytes = value.to_string().len() as u64;
                    fs.store_checkpoint(ctx.command.id, value);
                    t.registry()
                        .histogram(
                            names::CHECKPOINT_WRITE,
                            copernicus_telemetry::Labels::new(),
                            buckets::SECONDS,
                        )
                        .record_duration(t0.elapsed());
                    t.registry()
                        .counter(names::CHECKPOINT_BYTES, copernicus_telemetry::Labels::new())
                        .add(bytes);
                } else {
                    fs.store_checkpoint(ctx.command.id, value);
                }
            }

            if let Some(limit) = crash_at {
                if steps_done >= limit {
                    return Err(ExecError::SimulatedCrash);
                }
            }
        }

        if let (Some(t), Some(s)) = (ctx.telemetry, &sink) {
            let rebuilds = s.rebuilds();
            if rebuilds > 0 {
                t.registry()
                    .counter(names::NEIGHBOR_REBUILDS, labels(&[("model", "villin")]))
                    .add(rebuilds);
            }
            // Kernel throughput counters: cumulative pairs streamed by the
            // inner loop this execution, and the resident packed-list size.
            let kstats = sim.kernel_stats();
            if kstats.pairs_evaluated > 0 {
                t.registry()
                    .counter(names::NB_PAIRS, labels(&[("model", "villin")]))
                    .add(kstats.pairs_evaluated);
            }
            t.registry()
                .gauge(names::NB_PACKED_BYTES, labels(&[("model", "villin")]))
                .set(kstats.packed_bytes as f64);
        }

        let output = MdRunOutput {
            final_positions: sim.state.positions.clone(),
            trajectory,
            steps_executed,
            final_potential: Some(sim.potential_energy()),
            tag: spec.tag,
        };
        Ok(output.to_value())
    }
}

// ---------------------------------------------------------------------------
// FEP executor
// ---------------------------------------------------------------------------

jsonv::record! {
    /// Payload of a `fep-sample` command: equilibrium sampling of a
    /// harmonic well `k_sample` while evaluating the perturbation energy
    /// to `k_eval`.
    #[derive(Debug, Clone)]
    pub struct FepSampleSpec {
        pub k_sample: f64,
        pub k_eval: f64,
        pub temperature: f64,
        pub equil_steps: u64,
        pub n_steps: u64,
        pub record_interval: u64,
        pub seed: u64,
        /// Opaque controller metadata echoed into the output.
        pub tag: Value,
    }
}

jsonv::record! {
    /// Output of a `fep-sample` command.
    #[derive(Debug, Clone)]
    pub struct FepSampleOutput {
        /// Work values `U_eval(x) − U_sample(x)` at the recorded frames.
        pub works: Vec<f64>,
        /// The controller tag from the command payload, echoed back.
        pub tag: Value,
    }
}

/// Samples perturbation work values with real Langevin dynamics.
pub struct FepSampleExecutor;

impl FepSampleExecutor {
    pub const COMMAND_TYPE: &'static str = "fep-sample";
}

impl CommandExecutor for FepSampleExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new(
            Self::COMMAND_TYPE,
            Platform::Smp,
            "copernicus-fep-0.1",
        )]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<serde_json::Value, ExecError> {
        use mdsim::forces::{ForceField, HarmonicRestraint};
        use mdsim::integrate::Langevin;
        use mdsim::pbc::SimBox;
        use mdsim::state::State;
        use mdsim::topology::{LjParams, Particle, Topology};
        use mdsim::Simulation;

        let spec =
            FepSampleSpec::from_value(&ctx.command.payload).map_err(ExecError::BadPayload)?;
        if spec.record_interval == 0 {
            return Err(ExecError::BadPayload(
                "record_interval must be positive".into(),
            ));
        }

        let mut top = Topology::new();
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 0.0)));
        let state = State::new(vec![Vec3::ZERO], &top, SimBox::Open);
        let ff = ForceField::new().with(Box::new(HarmonicRestraint::new(
            vec![(0, Vec3::ZERO)],
            spec.k_sample,
        )));
        let integrator = Langevin::new(spec.temperature, 1.0, rng_for_stream(spec.seed, 0xfe9));
        let mut sim = Simulation::new(state, ff, Box::new(integrator), 0.02, 3);

        sim.run(spec.equil_steps);
        let dk = 0.5 * (spec.k_eval - spec.k_sample);
        let mut works = Vec::with_capacity((spec.n_steps / spec.record_interval) as usize);
        let mut count = 0u64;
        sim.run_with(spec.n_steps, |_, state, _| {
            count += 1;
            if count.is_multiple_of(spec.record_interval) {
                works.push(dk * state.positions[0].norm2());
            }
        });

        Ok(FepSampleOutput {
            works,
            tag: spec.tag,
        }
        .to_value())
    }
}

// ---------------------------------------------------------------------------
// MSM rebuild executor
// ---------------------------------------------------------------------------

jsonv::record! {
    /// Payload of an `msm-build` command: the full recluster the
    /// streaming controller runs as a *background* workload on the fleet
    /// instead of stopping the world (DESIGN.md §16). Carries a frozen
    /// copy of the trajectory frame lists; the result is swapped in
    /// atomically when it lands.
    #[derive(Debug, Clone)]
    pub struct MsmBuildSpec {
        /// One frame list per trajectory (terminated first, then the live
        /// lineages in slot order — the controller relies on this order).
        pub trajs: Vec<Vec<Vec<Vec3>>> as List<List<Block>>,
        pub n_clusters: usize,
        /// Opaque controller metadata echoed into the output.
        pub tag: Value,
    }
}

jsonv::record! {
    /// Output of an `msm-build` command.
    #[derive(Debug, Clone)]
    pub struct MsmBuildOutput {
        /// Cluster center conformations, in discovery order.
        pub centers: Vec<Vec<Vec3>> as List<Block>,
        /// Per-input-trajectory state assignments.
        pub dtrajs: Vec<Vec<usize>>,
        /// Largest assignment distance — the radius the streaming
        /// assigner uses to decide "new state" until the next rebuild.
        pub radius: f64,
        pub tag: Value,
    }
}

/// Runs the periodic full recluster on a worker like any other command.
pub struct MsmBuildExecutor;

impl MsmBuildExecutor {
    pub const COMMAND_TYPE: &'static str = "msm-build";
}

impl CommandExecutor for MsmBuildExecutor {
    fn executables(&self) -> Vec<ExecutableSpec> {
        vec![ExecutableSpec::new(
            Self::COMMAND_TYPE,
            Platform::Smp,
            "copernicus-msm-0.1",
        )]
    }

    fn execute(&self, ctx: ExecContext<'_>) -> Result<Value, ExecError> {
        let spec = MsmBuildSpec::from_value(&ctx.command.payload).map_err(ExecError::BadPayload)?;
        if spec.n_clusters == 0 {
            return Err(ExecError::BadPayload("n_clusters must be positive".into()));
        }
        let lengths: Vec<usize> = spec.trajs.iter().map(|t| t.len()).collect();
        let pooled: Vec<Vec<Vec3>> = spec.trajs.into_iter().flatten().collect();
        if pooled.is_empty() {
            return Err(ExecError::BadPayload("no frames to cluster".into()));
        }
        let t0 = std::time::Instant::now();
        let clustering =
            msm::cluster::k_centers(&pooled, spec.n_clusters, 0, |a, b| msm::rmsd(a, b));
        let centers: Vec<Vec<Vec3>> = clustering
            .centers
            .iter()
            .map(|&i| pooled[i].clone())
            .collect();
        let mut dtrajs = Vec::with_capacity(lengths.len());
        let mut offset = 0usize;
        for len in lengths {
            dtrajs.push(clustering.assignment[offset..offset + len].to_vec());
            offset += len;
        }
        if let Some(t) = ctx.telemetry {
            t.registry()
                .histogram(
                    names::CLUSTERING_SECS,
                    labels(&[("mode", "background")]),
                    buckets::SECONDS,
                )
                .record_duration(t0.elapsed());
        }
        Ok(MsmBuildOutput {
            centers,
            dtrajs,
            radius: clustering.max_radius(),
            tag: spec.tag,
        }
        .to_value())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::{Command, CommandSpec};
    use crate::executor::ExecutorRegistry;
    use crate::fs::SharedFs;
    use crate::ids::{CommandId, ProjectId, WorkerId};
    use crate::resources::Resources;
    use crate::testgen;
    use copernicus_testkit::{record_sweep, Record};
    use serde_json::json;

    fn model() -> Arc<VillinModel> {
        Arc::new(VillinModel::hp35())
    }

    fn md_command(id: u64, spec: &MdRunSpec) -> Command {
        Command::from_spec(
            CommandId(id),
            ProjectId(0),
            CommandSpec::new(
                MdRunExecutor::COMMAND_TYPE,
                Resources::new(1, 100),
                spec.to_value(),
            ),
        )
    }

    fn base_spec(m: &VillinModel) -> MdRunSpec {
        MdRunSpec {
            start_positions: m.unfolded_start(1),
            temperature: 0.55,
            n_steps: 400,
            record_interval: 100,
            seed: 5,
            checkpoint_steps: 0,
            inject_crash_at_step: None,
            tag: serde_json::Value::Null,
        }
    }

    #[test]
    fn mdrun_produces_expected_frames() {
        let m = model();
        let exec = MdRunExecutor::new(m.clone());
        let spec = base_spec(&m);
        let cmd = md_command(1, &spec);
        let out = exec
            .execute(ExecContext {
                command: &cmd,
                worker: WorkerId(0),
                shared_fs: None,
                telemetry: None,
            })
            .unwrap();
        let parsed = MdRunOutput::from_value(&out).unwrap();
        // initial frame + 4 recorded frames
        assert_eq!(parsed.trajectory.len(), 5);
        assert_eq!(parsed.steps_executed, 400);
        assert_eq!(parsed.final_positions.len(), 35);
        let e = parsed.final_potential.expect("energy always reported");
        assert!(e.is_finite());
        // Outputs recorded before the field existed decode to None.
        let mut v = out.clone();
        v.as_object_mut().unwrap().remove("final_potential");
        assert_eq!(MdRunOutput::from_value(&v).unwrap().final_potential, None);
    }

    #[test]
    fn mdrun_is_deterministic() {
        let m = model();
        let exec = MdRunExecutor::new(m.clone());
        let spec = base_spec(&m);
        let cmd = md_command(1, &spec);
        let run = |cmd: &Command| {
            exec.execute(ExecContext {
                command: cmd,
                worker: WorkerId(0),
                shared_fs: None,
                telemetry: None,
            })
            .unwrap()
        };
        assert_eq!(run(&cmd), run(&cmd));
    }

    #[test]
    fn mdrun_checkpoints_to_shared_fs() {
        let m = model();
        let exec = MdRunExecutor::new(m.clone());
        let mut spec = base_spec(&m);
        spec.checkpoint_steps = 100;
        let cmd = md_command(2, &spec);
        let fs = SharedFs::new();
        exec.execute(ExecContext {
            command: &cmd,
            worker: WorkerId(0),
            shared_fs: Some(&fs),
            telemetry: None,
        })
        .unwrap();
        let cp = fs.checkpoint(CommandId(2)).expect("checkpoint deposited");
        assert_eq!(cp["steps_done"], json!(400));
    }

    #[test]
    fn frame_phase_carries_across_checkpoint_chunks() {
        // 100-step chunks do not divide into 40-step frames: the frames
        // must still fall on steps 40, 80, …, 400 of the command.
        let m = model();
        let exec = MdRunExecutor::new(m.clone());
        let mut spec = base_spec(&m);
        spec.record_interval = 40;
        let fs = SharedFs::new();
        let mut run = |checkpoint_steps: u64| {
            spec.checkpoint_steps = checkpoint_steps;
            let out = exec
                .execute(ExecContext {
                    command: &md_command(5, &spec),
                    worker: WorkerId(0),
                    shared_fs: Some(&fs),
                    telemetry: None,
                })
                .unwrap();
            MdRunOutput::from_value(&out).unwrap().trajectory
        };
        let whole = run(0);
        let chunked = run(100);
        assert_eq!(chunked.len(), 11);
        let dt = m.params.dt;
        for (n, &t) in chunked.times().iter().enumerate() {
            let expected = 40.0 * n as f64 * dt;
            assert!((t - expected).abs() < 1e-9, "frame {n} at t = {t}");
        }
        // The chunks share one simulation, so the split changes nothing.
        assert_eq!(chunked, whole);
    }

    #[test]
    fn crash_injection_then_resume_from_checkpoint() {
        let m = model();
        let exec = MdRunExecutor::new(m.clone());
        let mut spec = base_spec(&m);
        spec.checkpoint_steps = 100;
        spec.inject_crash_at_step = Some(200);
        let mut cmd = md_command(3, &spec);
        let fs = SharedFs::new();

        // First attempt crashes mid-run.
        let err = exec
            .execute(ExecContext {
                command: &cmd,
                worker: WorkerId(0),
                shared_fs: Some(&fs),
                telemetry: None,
            })
            .unwrap_err();
        assert_eq!(err, ExecError::SimulatedCrash);

        // Server re-queues with the checkpoint; the second dispatch
        // resumes.
        cmd.checkpoint = fs.checkpoint(CommandId(3));
        cmd.attempts = 2;
        let resume = |worker| {
            exec.execute(ExecContext {
                command: &cmd,
                worker: WorkerId(worker),
                shared_fs: Some(&fs),
                telemetry: None,
            })
            .unwrap()
        };
        let out = resume(1);
        let parsed = MdRunOutput::from_value(&out).unwrap();
        // Full trajectory delivered despite the crash…
        assert_eq!(parsed.trajectory.len(), 5);
        // …but only the remaining 200 steps were re-executed.
        assert_eq!(parsed.steps_executed, 200);
        // The continuation is a function of the checkpoint alone: the
        // noise stream is reseeded from it and no drawn-but-unused
        // deviate survives in the integrator.
        assert_eq!(resume(2), out);
    }

    #[test]
    fn bad_payload_is_reported() {
        let m = model();
        let exec = MdRunExecutor::new(m);
        let cmd = Command::from_spec(
            CommandId(4),
            ProjectId(0),
            CommandSpec::new("mdrun", Resources::new(1, 1), json!({"nonsense": true})),
        );
        let err = exec
            .execute(ExecContext {
                command: &cmd,
                worker: WorkerId(0),
                shared_fs: None,
                telemetry: None,
            })
            .unwrap_err();
        assert!(matches!(err, ExecError::BadPayload(_)));
    }

    #[test]
    fn fep_sampler_matches_equipartition() {
        let exec = FepSampleExecutor;
        let spec = FepSampleSpec {
            k_sample: 2.0,
            k_eval: 3.0,
            temperature: 1.0,
            equil_steps: 500,
            n_steps: 40_000,
            record_interval: 10,
            seed: 3,
            tag: serde_json::Value::Null,
        };
        let cmd = Command::from_spec(
            CommandId(5),
            ProjectId(0),
            CommandSpec::new(
                FepSampleExecutor::COMMAND_TYPE,
                Resources::new(1, 1),
                spec.to_value(),
            ),
        );
        let out = exec
            .execute(ExecContext {
                command: &cmd,
                worker: WorkerId(0),
                shared_fs: None,
                telemetry: None,
            })
            .unwrap();
        let parsed = FepSampleOutput::from_value(&out).unwrap();
        assert_eq!(parsed.works.len(), 4000);
        // ⟨W⟩ = ½ dk ⟨r²⟩ = ½·1·(3 kT/k_sample) = 0.75.
        let mean = parsed.works.iter().sum::<f64>() / parsed.works.len() as f64;
        assert!((mean - 0.75).abs() < 0.08, "⟨W⟩ = {mean}");
    }

    #[test]
    fn md_registry_routes_by_type() {
        let m = model();
        let registry = ExecutorRegistry::new()
            .with(Arc::new(MdRunExecutor::new(m)))
            .with(Arc::new(FepSampleExecutor))
            .with(Arc::new(MsmBuildExecutor));
        assert!(registry.lookup("mdrun").is_some());
        assert!(registry.lookup("fep-sample").is_some());
        assert!(registry.lookup("msm-build").is_some());
        assert!(registry.lookup("sleep").is_none());
        assert_eq!(registry.executables().len(), 3);
    }

    #[test]
    fn spec_value_roundtrips() {
        let m = model();
        let mut spec = base_spec(&m);
        spec.inject_crash_at_step = Some(123);
        spec.tag = json!({"lineage": 7});
        let back = MdRunSpec::from_value(&spec.to_value()).unwrap();
        assert_eq!(back.start_positions, spec.start_positions);
        assert_eq!(back.n_steps, spec.n_steps);
        assert_eq!(back.inject_crash_at_step, Some(123));
        assert_eq!(back.tag["lineage"], json!(7));
    }

    /// `doc` with one key removed.
    fn without(doc: &Value, key: &str) -> Value {
        let mut doc = doc.clone();
        assert!(doc.as_object_mut().unwrap().remove(key).is_some(), "{key}");
        doc
    }

    // Optional keys: a document written before the key existed (an old
    // WAL, an older worker) must still parse, to these defaults.

    /// A key to drop, and whether the decoded value shows its default.
    type AbsentKey<T> = (&'static str, fn(&T) -> bool);

    #[test]
    fn mdrun_spec_absent_keys_default() {
        let m = model();
        let full = MdRunSpec {
            inject_crash_at_step: Some(9),
            tag: json!({"lineage": 7}),
            ..base_spec(&m)
        }
        .to_value();
        let table: [AbsentKey<MdRunSpec>; 2] = [
            ("inject_crash_at_step", |s| s.inject_crash_at_step.is_none()),
            ("tag", |s| s.tag.is_null()),
        ];
        for (key, is_default) in table {
            let spec = MdRunSpec::from_value(&without(&full, key)).unwrap();
            assert!(is_default(&spec), "absent `{key}`");
        }
        assert!(MdRunSpec::from_value(&without(&full, "seed")).is_err());
        // Payloads written while `mdrun` still took a kernel override
        // carry a `"kernel"` key, null or an object; it is ignored.
        let old_kernels = [
            Value::Null,
            json!({"threaded": false, "parallel_threshold": 123, "use_reference": true}),
        ];
        for kernel in old_kernels {
            let mut old = full.clone();
            old.as_object_mut().unwrap().insert("kernel".into(), kernel);
            let spec = MdRunSpec::from_value(&old).unwrap();
            assert_eq!(spec.to_value(), full, "old payload decodes as the new one");
        }
    }

    #[test]
    fn mdrun_output_absent_keys_default() {
        let full = MdRunOutput {
            trajectory: Trajectory::new(),
            final_positions: Vec::new(),
            steps_executed: 4,
            final_potential: Some(-1.5),
            tag: json!({"lineage": 7}),
        }
        .to_value();
        let table: [AbsentKey<MdRunOutput>; 2] = [
            ("final_potential", |o| o.final_potential.is_none()),
            ("tag", |o| o.tag.is_null()),
        ];
        for (key, is_default) in table {
            let out = MdRunOutput::from_value(&without(&full, key)).unwrap();
            assert!(is_default(&out), "absent `{key}`");
        }
        assert!(MdRunOutput::from_value(&without(&full, "steps_executed")).is_err());
    }

    #[test]
    fn fep_sample_absent_keys_default() {
        let spec = FepSampleSpec {
            k_sample: 1.0,
            k_eval: 2.0,
            temperature: 1.0,
            equil_steps: 10,
            n_steps: 100,
            record_interval: 10,
            seed: 3,
            tag: json!({"window": 2}),
        }
        .to_value();
        assert!(FepSampleSpec::from_value(&without(&spec, "tag"))
            .unwrap()
            .tag
            .is_null());
        assert!(FepSampleSpec::from_value(&without(&spec, "seed")).is_err());

        let out = FepSampleOutput {
            works: vec![0.5, 1.5],
            tag: json!({"window": 2}),
        }
        .to_value();
        assert!(FepSampleOutput::from_value(&without(&out, "tag"))
            .unwrap()
            .tag
            .is_null());
        assert!(FepSampleOutput::from_value(&without(&out, "works")).is_err());
    }

    /// Every command payload and result, and the mid-run checkpoint.
    /// Optional keys are what a document written before the key existed
    /// (an old WAL, an older worker) leaves out.
    #[test]
    fn declared_records_sweep() {
        let tag_only = |key: &str| (key == "tag").then_some(Value::Null);
        let md_output = |key: &str| match key {
            "tag" | "final_potential" => Some(Value::Null),
            _ => None,
        };
        record_sweep(
            "mdrun_spec",
            64,
            Record {
                random: &|g| MdRunSpec {
                    start_positions: {
                        let beads = g.usize_in(0..4);
                        testgen::frame(g, beads)
                    },
                    temperature: testgen::num(g),
                    n_steps: g.u64(),
                    record_interval: g.u64(),
                    seed: g.u64(),
                    checkpoint_steps: g.u64(),
                    inject_crash_at_step: g.bool().then(|| g.u64()),
                    tag: testgen::tag(g),
                },
                to_value: MdRunSpec::to_value,
                from_value: MdRunSpec::from_value,
                absent: &|key| match key {
                    "tag" | "inject_crash_at_step" => Some(Value::Null),
                    _ => None,
                },
                opaque: &["tag"],
            },
        );
        record_sweep(
            "mdrun_output",
            64,
            Record {
                random: &|g| {
                    let beads = g.usize_in(0..4);
                    MdRunOutput {
                        trajectory: testgen::trajectory(g, beads),
                        final_positions: testgen::frame(g, beads),
                        steps_executed: g.u64(),
                        final_potential: testgen::opt_num(g),
                        tag: testgen::tag(g),
                    }
                },
                to_value: MdRunOutput::to_value,
                from_value: MdRunOutput::from_value,
                absent: &md_output,
                opaque: &["tag"],
            },
        );
        record_sweep(
            "md_checkpoint",
            32,
            Record {
                random: &|g| {
                    let beads = g.usize_in(0..3);
                    let state = mdsim::State {
                        positions: testgen::frame(g, beads),
                        velocities: testgen::frame(g, beads),
                        forces: testgen::frame(g, beads),
                        masses: g.vec(beads..beads + 1, |g| g.f64_in(0.5..2.0)),
                        sim_box: mdsim::SimBox::Open,
                        step: g.u64(),
                        time: testgen::num(g),
                    };
                    MdCheckpoint {
                        engine: mdsim::engine::Checkpoint {
                            state,
                            step: g.u64(),
                            rng_reseed: g.u64(),
                        },
                        partial_trajectory: testgen::trajectory(g, beads),
                        steps_done: g.u64(),
                    }
                },
                to_value: MdCheckpoint::to_value,
                from_value: MdCheckpoint::from_value,
                absent: &|_| None,
                opaque: &[],
            },
        );
        record_sweep(
            "fep_sample_spec",
            64,
            Record {
                random: &|g| FepSampleSpec {
                    k_sample: testgen::num(g),
                    k_eval: testgen::num(g),
                    temperature: testgen::num(g),
                    equil_steps: g.u64(),
                    n_steps: g.u64(),
                    record_interval: g.u64(),
                    seed: g.u64(),
                    tag: testgen::tag(g),
                },
                to_value: FepSampleSpec::to_value,
                from_value: FepSampleSpec::from_value,
                absent: &tag_only,
                opaque: &["tag"],
            },
        );
        record_sweep(
            "fep_sample_output",
            64,
            Record {
                random: &|g| FepSampleOutput {
                    works: g.vec(0..6, testgen::num),
                    tag: testgen::tag(g),
                },
                to_value: FepSampleOutput::to_value,
                from_value: FepSampleOutput::from_value,
                absent: &tag_only,
                opaque: &["tag"],
            },
        );
        record_sweep(
            "msm_build_spec",
            64,
            Record {
                random: &|g| MsmBuildSpec {
                    trajs: g.vec(0..3, |g| {
                        let beads = g.usize_in(0..3);
                        g.vec(0..3, |g| testgen::frame(g, beads))
                    }),
                    n_clusters: g.usize_in(0..1000),
                    tag: testgen::tag(g),
                },
                to_value: MsmBuildSpec::to_value,
                from_value: MsmBuildSpec::from_value,
                absent: &tag_only,
                opaque: &["tag"],
            },
        );
        record_sweep(
            "msm_build_output",
            64,
            Record {
                random: &|g| MsmBuildOutput {
                    centers: g.vec(0..3, |g| testgen::frame(g, 2)),
                    dtrajs: g.vec(0..3, |g| g.vec(0..5, |g| g.usize_in(0..9))),
                    radius: testgen::num(g),
                    tag: testgen::tag(g),
                },
                to_value: MsmBuildOutput::to_value,
                from_value: MsmBuildOutput::from_value,
                absent: &tag_only,
                opaque: &["tag"],
            },
        );
    }

    #[test]
    fn msm_build_clusters_and_splits_dtrajs() {
        let m = model();
        let mut a = Vec::new();
        let mut b = Vec::new();
        for i in 0..6 {
            let mut f = m.unfolded_start(1);
            f[0].x += i as f64;
            a.push(f);
        }
        for i in 0..4 {
            let mut f = m.unfolded_start(2);
            f[0].x -= i as f64;
            b.push(f);
        }
        let spec = MsmBuildSpec {
            trajs: vec![a, b],
            n_clusters: 4,
            tag: json!({"epoch": 1}),
        };
        let cmd = Command::from_spec(
            CommandId(9),
            ProjectId(0),
            CommandSpec::new(
                MsmBuildExecutor::COMMAND_TYPE,
                Resources::new(1, 1),
                spec.to_value(),
            ),
        );
        let out = MsmBuildExecutor
            .execute(ExecContext {
                command: &cmd,
                worker: WorkerId(0),
                shared_fs: None,
                telemetry: None,
            })
            .unwrap();
        let parsed = MsmBuildOutput::from_value(&out).unwrap();
        assert_eq!(parsed.centers.len(), 4);
        assert_eq!(parsed.dtrajs.len(), 2);
        assert_eq!(parsed.dtrajs[0].len(), 6);
        assert_eq!(parsed.dtrajs[1].len(), 4);
        assert!(parsed.dtrajs.iter().flatten().all(|&s| s < 4));
        assert!(parsed.radius.is_finite());
        assert_eq!(parsed.tag["epoch"], json!(1));
    }
}
