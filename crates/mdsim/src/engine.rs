//! The simulation engine: the Gromacs-equivalent "command" a Copernicus
//! worker executes.
//!
//! [`Simulation`] ties a [`State`], a [`ForceField`] and an [`Integrator`]
//! together, runs for a requested number of steps, records trajectory
//! frames, and can checkpoint/resume — the property §2.3 of the paper relies
//! on for transparent worker fail-over.

use crate::forces::{Energies, ForceField, KernelStats};
use crate::integrate::Integrator;
use crate::state::State;
use crate::trajectory::Trajectory;
use copernicus_telemetry::{NullSink, StepPhase, TelemetrySink};
use std::time::Instant;

crate::jsonv::record! {
    /// A point-in-time snapshot sufficient to continue a run on another
    /// worker.
    ///
    /// The checkpoint deliberately contains only the dynamic state plus
    /// the clock; the static setup (topology, force field, integrator
    /// parameters) is rebuilt from the command specification, mirroring
    /// Gromacs' `.tpr` + `.cpt` split.
    #[derive(Debug, Clone)]
    pub struct Checkpoint {
        pub state: State,
        /// Steps completed when the checkpoint was taken.
        pub step: u64,
        /// Seed stream to reinitialize stochastic integrators
        /// deterministically.
        pub rng_reseed: u64,
    }
}

impl Checkpoint {
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    pub fn from_json(s: &str) -> Result<Checkpoint, String> {
        let v: serde_json::Value =
            serde_json::from_str(s).map_err(|e| format!("checkpoint is not JSON: {e}"))?;
        Checkpoint::from_value(&v)
    }
}

/// Summary statistics of a completed run segment.
#[derive(Debug, Clone)]
pub struct RunStats {
    pub steps: u64,
    pub final_potential: f64,
    pub final_kinetic: f64,
    pub mean_potential: f64,
    pub neighbor_rebuilds: u64,
}

/// A runnable MD simulation.
pub struct Simulation {
    pub state: State,
    pub forcefield: ForceField,
    integrator: Box<dyn Integrator>,
    pub dt: f64,
    dof: usize,
    last_energies: Option<Energies>,
}

impl Simulation {
    pub fn new(
        state: State,
        forcefield: ForceField,
        integrator: Box<dyn Integrator>,
        dt: f64,
        dof: usize,
    ) -> Self {
        assert!(dt > 0.0, "time step must be positive, got {dt}");
        let mut sim = Simulation {
            state,
            forcefield,
            integrator,
            dt,
            dof,
            last_energies: None,
        };
        sim.prime_forces();
        sim
    }

    /// Evaluate forces at the current positions (called once at
    /// construction and after a state restore).
    fn prime_forces(&mut self) {
        let (positions, sim_box) = (&self.state.positions, &self.state.sim_box);
        let energies = self
            .forcefield
            .compute(positions, sim_box, &mut self.state.forces);
        self.last_energies = Some(energies);
    }

    pub fn dof(&self) -> usize {
        self.dof
    }

    /// Aggregate kernel counters (pairs streamed, packed-list bytes)
    /// across the force field's instrumented terms.
    pub fn kernel_stats(&self) -> KernelStats {
        self.forcefield.kernel_stats()
    }

    /// Energy breakdown from the most recent force evaluation.
    pub fn energies(&self) -> &Energies {
        self.last_energies
            .as_ref()
            .expect("forces are primed at construction")
    }

    pub fn potential_energy(&self) -> f64 {
        self.energies().total()
    }

    pub fn total_energy(&self) -> f64 {
        self.potential_energy() + self.state.kinetic_energy()
    }

    /// Advance `n_steps` without recording frames.
    pub fn run(&mut self, n_steps: u64) -> RunStats {
        self.run_with(n_steps, |_, _, _| {})
    }

    /// Advance `n_steps`, invoking `observe(step, state, energies)` after
    /// every step.
    pub fn run_with(
        &mut self,
        n_steps: u64,
        observe: impl FnMut(u64, &State, &Energies),
    ) -> RunStats {
        self.run_with_sink(n_steps, &NullSink, observe)
    }

    /// Advance `n_steps`, streaming per-step force/integrate/neighbour
    /// timings into `sink`. With [`NullSink`] (`S::ENABLED == false`) the
    /// instrumentation compiles out and this is exactly [`Self::run_with`]
    /// — the inner loop carries no timing branches.
    pub fn run_with_sink<S: TelemetrySink>(
        &mut self,
        n_steps: u64,
        sink: &S,
        mut observe: impl FnMut(u64, &State, &Energies),
    ) -> RunStats {
        let (builds_before, _) = self.forcefield.neighbor_stats();
        let mut builds_seen = builds_before;
        if S::ENABLED {
            self.forcefield.set_timing(true);
            // Drain anything a previous timed run left behind.
            self.forcefield.take_force_ns();
            self.forcefield.take_neighbor_ns();
        }
        let mut pot_sum = 0.0;
        for _ in 0..n_steps {
            let step_start = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            let energies =
                self.integrator
                    .step(&mut self.state, &mut self.forcefield, self.dt, self.dof);
            if S::ENABLED {
                let step_ns = step_start
                    .map(|t| t.elapsed().as_nanos() as u64)
                    .unwrap_or(0);
                let neighbor_ns = self.forcefield.take_neighbor_ns();
                // ForceField::compute measures the whole evaluation,
                // neighbour refresh included; report the pure pair-loop
                // time and let integration be the remainder of the step.
                let force_ns = self.forcefield.take_force_ns().saturating_sub(neighbor_ns);
                sink.record_phase_ns(StepPhase::Force, force_ns);
                sink.record_phase_ns(
                    StepPhase::Integrate,
                    step_ns.saturating_sub(force_ns + neighbor_ns),
                );
                if neighbor_ns > 0 {
                    sink.record_phase_ns(StepPhase::Neighbor, neighbor_ns);
                }
                let (builds_now, _) = self.forcefield.neighbor_stats();
                for _ in builds_seen..builds_now {
                    sink.record_neighbor_rebuild();
                }
                builds_seen = builds_now;
            }
            pot_sum += energies.total();
            observe(self.state.step, &self.state, &energies);
            self.last_energies = Some(energies);
        }
        if S::ENABLED {
            self.forcefield.set_timing(false);
        }
        let (builds_after, _) = self.forcefield.neighbor_stats();
        RunStats {
            steps: n_steps,
            final_potential: self.potential_energy(),
            final_kinetic: self.state.kinetic_energy(),
            mean_potential: if n_steps > 0 {
                pot_sum / n_steps as f64
            } else {
                self.potential_energy()
            },
            neighbor_rebuilds: builds_after - builds_before,
        }
    }

    /// Advance `n_steps` on the force-only fast path: no energy breakdown
    /// is assembled per step, so terms with a dedicated force-only kernel
    /// (the non-bonded pair loop) skip energy arithmetic entirely. The
    /// trajectory is bitwise identical to [`Self::run`]; a single full
    /// evaluation at the end refreshes [`Self::energies`], so the final
    /// potential in [`RunStats`] is exact. `mean_potential` is not
    /// accumulated (it would cost the energies) and reports the final
    /// potential instead.
    pub fn run_fast(&mut self, n_steps: u64) -> RunStats {
        self.run_fast_with_sink(n_steps, &NullSink, |_, _| {})
    }

    /// [`Self::run_fast`] with per-step timings streamed into `sink` and
    /// `observe(step, state)` invoked after every step. The observer gets
    /// no energies — that is the point of the fast path; use
    /// [`Self::run_with_sink`] when an observable reads them.
    pub fn run_fast_with_sink<S: TelemetrySink>(
        &mut self,
        n_steps: u64,
        sink: &S,
        mut observe: impl FnMut(u64, &State),
    ) -> RunStats {
        let (builds_before, _) = self.forcefield.neighbor_stats();
        let mut builds_seen = builds_before;
        if S::ENABLED {
            self.forcefield.set_timing(true);
            self.forcefield.take_force_ns();
            self.forcefield.take_neighbor_ns();
        }
        for _ in 0..n_steps {
            let step_start = if S::ENABLED {
                Some(Instant::now())
            } else {
                None
            };
            self.integrator.step_force_only(
                &mut self.state,
                &mut self.forcefield,
                self.dt,
                self.dof,
            );
            if S::ENABLED {
                let step_ns = step_start
                    .map(|t| t.elapsed().as_nanos() as u64)
                    .unwrap_or(0);
                let neighbor_ns = self.forcefield.take_neighbor_ns();
                let force_ns = self.forcefield.take_force_ns().saturating_sub(neighbor_ns);
                sink.record_phase_ns(StepPhase::Force, force_ns);
                sink.record_phase_ns(
                    StepPhase::Integrate,
                    step_ns.saturating_sub(force_ns + neighbor_ns),
                );
                if neighbor_ns > 0 {
                    sink.record_phase_ns(StepPhase::Neighbor, neighbor_ns);
                }
                let (builds_now, _) = self.forcefield.neighbor_stats();
                for _ in builds_seen..builds_now {
                    sink.record_neighbor_rebuild();
                }
                builds_seen = builds_now;
            }
            observe(self.state.step, &self.state);
        }
        if S::ENABLED {
            self.forcefield.set_timing(false);
        }
        // One full evaluation refreshes the energy breakdown; forces are
        // bitwise unchanged (force-only == full forces), so the dynamic
        // state stays identical to the slow path.
        if n_steps > 0 {
            self.prime_forces();
        }
        let (builds_after, _) = self.forcefield.neighbor_stats();
        RunStats {
            steps: n_steps,
            final_potential: self.potential_energy(),
            final_kinetic: self.state.kinetic_energy(),
            mean_potential: self.potential_energy(),
            neighbor_rebuilds: builds_after - builds_before,
        }
    }

    /// Advance `n_steps`, recording a frame every `record_interval` steps
    /// (plus the initial frame at the current time).
    pub fn run_recording(&mut self, n_steps: u64, record_interval: u64) -> Trajectory {
        self.run_recording_with_sink(n_steps, record_interval, &NullSink)
    }

    /// [`Self::run_recording`] with per-step timings streamed into `sink`.
    pub fn run_recording_with_sink<S: TelemetrySink>(
        &mut self,
        n_steps: u64,
        record_interval: u64,
        sink: &S,
    ) -> Trajectory {
        let mut traj = Trajectory::new();
        traj.push(self.state.time, self.state.positions.clone());
        self.record_into(&mut traj, n_steps, record_interval, 0, sink);
        traj
    }

    /// Advance `n_steps`, appending a frame to `traj` after every step
    /// whose count from the start of the recording — `steps_before` plus
    /// the steps taken in this call — is a multiple of `record_interval`.
    /// A recording split into several calls (one per checkpoint chunk)
    /// therefore keeps one uniform frame spacing whatever the chunk
    /// length. Each frame is copied once, straight into `traj`.
    ///
    /// Frame recording reads only positions, so this rides the force-only
    /// fast path — energies are skipped on every step and refreshed once
    /// at the end of the call.
    pub fn record_into<S: TelemetrySink>(
        &mut self,
        traj: &mut Trajectory,
        n_steps: u64,
        record_interval: u64,
        steps_before: u64,
        sink: &S,
    ) -> RunStats {
        assert!(record_interval > 0, "record interval must be positive");
        let mut until_frame = record_interval - steps_before % record_interval;
        self.run_fast_with_sink(n_steps, sink, |_, state| {
            until_frame -= 1;
            if until_frame == 0 {
                until_frame = record_interval;
                traj.push(state.time, state.positions.clone());
            }
        })
    }

    /// Take a checkpoint of the dynamic state.
    pub fn checkpoint(&self, rng_reseed: u64) -> Checkpoint {
        Checkpoint {
            state: self.state.clone(),
            step: self.state.step,
            rng_reseed,
        }
    }

    /// Restore the dynamic state from a checkpoint. The caller is
    /// responsible for rebuilding stochastic integrators with
    /// `checkpoint.rng_reseed` (see the `model` builders).
    pub fn restore(&mut self, checkpoint: &Checkpoint) {
        assert_eq!(
            checkpoint.state.n_particles(),
            self.state.n_particles(),
            "checkpoint particle count mismatch"
        );
        self.state = checkpoint.state.clone();
        self.prime_forces();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::HarmonicRestraint;
    use crate::integrate::{Langevin, VelocityVerlet};
    use crate::pbc::SimBox;
    use crate::rng::rng_from_seed;
    use crate::topology::{LjParams, Particle, Topology};
    use crate::vec3::{v3, Vec3};

    fn oscillator() -> Simulation {
        let mut top = Topology::new();
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        let state = State::new(vec![v3(1.0, 0.0, 0.0)], &top, SimBox::Open);
        let ff =
            ForceField::new().with(Box::new(HarmonicRestraint::new(vec![(0, Vec3::ZERO)], 1.0)));
        Simulation::new(state, ff, Box::new(VelocityVerlet::nve()), 0.01, 3)
    }

    #[test]
    fn forces_are_primed_at_construction() {
        let sim = oscillator();
        assert!((sim.state.forces[0].x + 1.0).abs() < 1e-12);
        assert!((sim.potential_energy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn run_advances_and_reports() {
        let mut sim = oscillator();
        let stats = sim.run(100);
        assert_eq!(stats.steps, 100);
        assert_eq!(sim.state.step, 100);
        assert!(stats.mean_potential > 0.0);
        // NVE total energy conserved.
        assert!((sim.total_energy() - 0.5).abs() < 1e-5);
    }

    #[test]
    fn recording_interval_counts_frames() {
        let mut sim = oscillator();
        let traj = sim.run_recording(100, 10);
        // initial frame + 10 recorded frames
        assert_eq!(traj.len(), 11);
        assert_eq!(traj.time(0), 0.0);
        assert!((traj.time(10) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn observer_sees_every_step() {
        let mut sim = oscillator();
        let mut seen = 0;
        sim.run_with(50, |_, _, _| seen += 1);
        assert_eq!(seen, 50);
    }

    #[test]
    fn checkpoint_roundtrip_resumes_identically() {
        let mut sim = oscillator();
        sim.run(37);
        let cp = sim.checkpoint(42);
        let json = cp.to_json();
        let cp2 = Checkpoint::from_json(&json).unwrap();
        assert_eq!(cp2.step, 37);
        assert_eq!(cp2.rng_reseed, 42);

        // Continue the original 10 more steps.
        sim.run(10);
        let pos_direct = sim.state.positions[0];

        // Restore a fresh simulation from the checkpoint and continue.
        let mut sim2 = oscillator();
        sim2.restore(&cp2);
        assert_eq!(sim2.state.step, 37);
        sim2.run(10);
        let pos_resumed = sim2.state.positions[0];

        // Deterministic integrator ⇒ bitwise-identical continuation.
        assert_eq!(pos_direct, pos_resumed);
    }

    #[test]
    fn langevin_engine_runs_stably() {
        let mut top = Topology::new();
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        let state = State::new(vec![v3(1.0, 0.0, 0.0)], &top, SimBox::Open);
        let ff =
            ForceField::new().with(Box::new(HarmonicRestraint::new(vec![(0, Vec3::ZERO)], 1.0)));
        let mut sim = Simulation::new(
            state,
            ff,
            Box::new(Langevin::new(1.0, 1.0, rng_from_seed(5))),
            0.01,
            3,
        );
        sim.run(1000);
        assert!(sim.state.is_finite());
    }

    #[test]
    fn recording_sink_sees_every_step() {
        use copernicus_telemetry::Telemetry;
        let t = Telemetry::new();
        let sink = t.step_sink(copernicus_telemetry::Labels::new());
        let mut sim = oscillator();
        let stats = sim.run_with_sink(50, &sink, |_, _, _| {});
        assert_eq!(stats.steps, 50);
        assert_eq!(sink.force_ns.count(), 50);
        assert_eq!(sink.integrate_ns.count(), 50);
        // No neighbour list in the oscillator: no neighbour samples.
        assert_eq!(sink.neighbor_ns.count(), 0);
        assert_eq!(stats.neighbor_rebuilds, 0);
        // The sink path must not leave the force field in timing mode.
        assert_eq!(sim.forcefield.take_force_ns(), 0);
        sim.run(10);
        assert_eq!(sim.forcefield.take_force_ns(), 0);
    }

    #[test]
    fn neighbor_rebuilds_are_counted() {
        use crate::model::{lj_fluid, LjFluidSpec};
        let mut sim = lj_fluid(
            LjFluidSpec {
                n_particles: 64,
                density: 0.6,
                temperature: 1.5,
                cutoff: 1.8,
                skin: 0.2,
                parallel_threshold: usize::MAX,
                ..LjFluidSpec::default()
            },
            7,
        );
        // The initial build happens at construction (prime_forces), so a
        // segment long enough to exhaust the skin must rebuild at least
        // once and RunStats must report it.
        let stats = sim.run(400);
        assert!(
            stats.neighbor_rebuilds >= 1,
            "expected rebuilds over 400 hot steps, got {}",
            stats.neighbor_rebuilds
        );
    }

    #[test]
    fn fast_path_matches_full_path_bitwise() {
        use crate::model::{lj_fluid, LjFluidSpec};
        let spec = LjFluidSpec {
            n_particles: 64,
            density: 0.6,
            temperature: 1.5,
            cutoff: 1.8,
            skin: 0.2,
            parallel_threshold: usize::MAX,
            ..LjFluidSpec::default()
        };
        let mut full = lj_fluid(spec, 7);
        let mut fast = lj_fluid(spec, 7);
        full.run(50);
        let stats = fast.run_fast(50);
        assert_eq!(stats.steps, 50);
        // Bitwise-identical trajectory and refreshed energies.
        assert_eq!(full.state.positions, fast.state.positions);
        assert_eq!(full.state.velocities, fast.state.velocities);
        assert_eq!(full.state.forces, fast.state.forces);
        assert_eq!(full.potential_energy(), fast.potential_energy());
    }

    #[test]
    fn recording_rides_fast_path_identically() {
        use crate::model::{lj_fluid, LjFluidSpec};
        let spec = LjFluidSpec {
            n_particles: 64,
            density: 0.6,
            temperature: 1.5,
            cutoff: 1.8,
            skin: 0.2,
            parallel_threshold: usize::MAX,
            ..LjFluidSpec::default()
        };
        let mut plain = lj_fluid(spec, 3);
        let mut recording = lj_fluid(spec, 3);
        plain.run(40);
        let traj = recording.run_recording(40, 10);
        assert_eq!(traj.len(), 5);
        assert_eq!(plain.state.positions, recording.state.positions);
        assert_eq!(
            traj.frame(traj.len() - 1),
            recording.state.positions.as_slice()
        );
    }

    #[test]
    fn kernel_stats_aggregate_the_terms() {
        use crate::model::{lj_fluid, LjFluidSpec};
        let mut sim = lj_fluid(
            LjFluidSpec {
                n_particles: 64,
                density: 0.6,
                temperature: 1.5,
                cutoff: 1.8,
                skin: 0.2,
                parallel_threshold: usize::MAX,
                ..LjFluidSpec::default()
            },
            1,
        );
        sim.run(5);
        let stats = sim.kernel_stats();
        assert!(stats.pairs_evaluated > 0, "pair counter should advance");
        assert!(stats.packed_bytes > 0, "packed list should be resident");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_dt() {
        let mut top = Topology::new();
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        let state = State::new(vec![Vec3::ZERO], &top, SimBox::Open);
        let _ = Simulation::new(
            state,
            ForceField::new(),
            Box::new(VelocityVerlet::nve()),
            0.0,
            3,
        );
    }
}
