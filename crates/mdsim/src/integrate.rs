//! Time integrators: velocity Verlet (NVE, or NVT under v-rescale) and
//! Langevin (BAOAB).
//!
//! An integrator advances the [`State`] by one step of length `dt`. By
//! convention `state.forces` holds forces for the *current* positions on
//! entry (the engine primes them before the first step), and holds forces
//! for the *new* positions on exit.

use crate::forces::{Energies, ForceField};
use crate::rng::{fill_normals, SimRng};
use crate::state::State;
use crate::thermostat::VRescale;
use crate::units::KB;
use crate::vec3::Vec3;

/// One-step propagator.
pub trait Integrator: Send {
    fn name(&self) -> &'static str;
    /// Advance by one step, returning the energy breakdown at the new
    /// positions.
    fn step(&mut self, state: &mut State, ff: &mut ForceField, dt: f64, dof: usize) -> Energies;

    /// Advance by one step without assembling an energy breakdown — the
    /// fast path for steps where no observable reads the energy. The
    /// trajectory must be bitwise identical to [`Integrator::step`]; the
    /// default just discards the energies.
    fn step_force_only(&mut self, state: &mut State, ff: &mut ForceField, dt: f64, dof: usize) {
        let _ = self.step(state, ff, dt, dof);
    }
}

/// Velocity Verlet, optionally coupled to a [`VRescale`] thermostat.
///
/// Without a thermostat this samples the microcanonical (NVE) ensemble and
/// conserves energy to O(dt²); with one it targets NVT.
pub struct VelocityVerlet {
    thermostat: Option<VRescale>,
}

impl VelocityVerlet {
    /// Plain NVE integration.
    pub fn nve() -> Self {
        VelocityVerlet { thermostat: None }
    }

    /// NVT integration with the given thermostat.
    pub fn nvt(thermostat: VRescale) -> Self {
        VelocityVerlet {
            thermostat: Some(thermostat),
        }
    }
}

impl VelocityVerlet {
    /// First half kick + drift (everything before the force evaluation).
    fn pre_force(&mut self, state: &mut State, dt: f64) {
        let half = 0.5 * dt;
        for i in 0..state.n_particles() {
            let inv_m = 1.0 / state.masses[i];
            state.velocities[i] += state.forces[i] * (half * inv_m);
            state.positions[i] += state.velocities[i] * dt;
        }
    }

    /// Second half kick, thermostat, clock (everything after).
    fn post_force(&mut self, state: &mut State, dt: f64, dof: usize) {
        let half = 0.5 * dt;
        for i in 0..state.n_particles() {
            let inv_m = 1.0 / state.masses[i];
            state.velocities[i] += state.forces[i] * (half * inv_m);
        }
        if let Some(th) = self.thermostat.as_mut() {
            th.apply(state, dt, dof);
        }
        state.step += 1;
        state.time += dt;
    }
}

impl Integrator for VelocityVerlet {
    fn name(&self) -> &'static str {
        "velocity-verlet"
    }

    fn step(&mut self, state: &mut State, ff: &mut ForceField, dt: f64, dof: usize) -> Energies {
        self.pre_force(state, dt);
        let (positions, sim_box) = (&state.positions, &state.sim_box);
        let energies = {
            let forces = &mut state.forces;
            ff.compute(positions, sim_box, forces)
        };
        self.post_force(state, dt, dof);
        energies
    }

    fn step_force_only(&mut self, state: &mut State, ff: &mut ForceField, dt: f64, dof: usize) {
        self.pre_force(state, dt);
        let (positions, sim_box) = (&state.positions, &state.sim_box);
        {
            let forces = &mut state.forces;
            ff.compute_force_only(positions, sim_box, forces);
        }
        self.post_force(state, dt, dof);
    }
}

/// Langevin dynamics via the BAOAB splitting (Leimkuhler & Matthews).
///
/// This is the workhorse integrator for the coarse-grained folding model:
/// the friction both thermostats the system and mimics solvent drag.
pub struct Langevin {
    pub temperature: f64,
    /// Friction coefficient γ (inverse time units).
    pub gamma: f64,
    rng: SimRng,
    /// This step's 3N normal deviates, redrawn whole at every step: no
    /// deviate outlives the step it was drawn for, so the RNG stream
    /// position is the integrator's only stochastic state.
    noise: Vec<f64>,
    consts: LangevinConsts,
}

/// Step constants hoisted out of the per-bead loops, kept with the inputs
/// they derive from and rebuilt only when one of those changes.
#[derive(Default)]
struct LangevinConsts {
    /// `[dt, temperature, gamma]`.
    inputs: [f64; 3],
    masses: Vec<f64>,
    /// Velocity decay `exp(-γ dt)` of the O step.
    c1: f64,
    /// Per bead: half-kick factor `dt/2m` and noise amplitude
    /// `√(kB T/m) · √(1 - c1²)`.
    per_bead: Vec<(f64, f64)>,
}

impl LangevinConsts {
    fn refresh(&mut self, inputs: [f64; 3], masses: &[f64]) {
        if self.inputs == inputs && self.masses == masses {
            return;
        }
        let [dt, temperature, gamma] = inputs;
        let c1 = (-gamma * dt).exp();
        let c2 = (1.0 - c1 * c1).sqrt();
        self.inputs = inputs;
        self.masses = masses.to_vec();
        self.c1 = c1;
        self.per_bead = masses
            .iter()
            .map(|&m| (0.5 * dt / m, (KB * temperature / m).sqrt() * c2))
            .collect();
    }
}

impl Langevin {
    pub fn new(temperature: f64, gamma: f64, rng: SimRng) -> Self {
        assert!(temperature >= 0.0 && gamma > 0.0);
        Langevin {
            temperature,
            gamma,
            rng,
            noise: Vec::new(),
            consts: LangevinConsts::default(),
        }
    }
}

impl Langevin {
    /// B-A-O-A: everything before the force evaluation.
    fn pre_force(&mut self, state: &mut State, dt: f64) {
        self.consts
            .refresh([dt, self.temperature, self.gamma], &state.masses);
        self.noise.resize(3 * state.n_particles(), 0.0);
        fill_normals(&mut self.rng, &mut self.noise);

        let half = 0.5 * dt;
        let c1 = self.consts.c1;
        let beads = state
            .positions
            .iter_mut()
            .zip(state.velocities.iter_mut())
            .zip(&state.forces)
            .zip(&self.consts.per_bead)
            .zip(self.noise.chunks_exact(3));
        for ((((x, v), f), &(kick, amp)), xi) in beads {
            // B: half kick. A: half drift.
            *v += *f * kick;
            *x += *v * half;
            // O: Ornstein-Uhlenbeck velocity update. A: half drift.
            *v = *v * c1 + Vec3::new(xi[0], xi[1], xi[2]) * amp;
            *x += *v * half;
        }
    }

    /// Final B kick and clock: everything after the force evaluation.
    fn post_force(&mut self, state: &mut State, dt: f64) {
        let kicks = state
            .velocities
            .iter_mut()
            .zip(&state.forces)
            .zip(&self.consts.per_bead);
        for ((v, f), &(kick, _)) in kicks {
            *v += *f * kick;
        }
        state.step += 1;
        state.time += dt;
    }
}

impl Integrator for Langevin {
    fn name(&self) -> &'static str {
        "langevin-baoab"
    }

    fn step(&mut self, state: &mut State, ff: &mut ForceField, dt: f64, _dof: usize) -> Energies {
        self.pre_force(state, dt);
        let (positions, sim_box) = (&state.positions, &state.sim_box);
        let energies = {
            let forces = &mut state.forces;
            ff.compute(positions, sim_box, forces)
        };
        self.post_force(state, dt);
        energies
    }

    fn step_force_only(&mut self, state: &mut State, ff: &mut ForceField, dt: f64, _dof: usize) {
        self.pre_force(state, dt);
        let (positions, sim_box) = (&state.positions, &state.sim_box);
        {
            let forces = &mut state.forces;
            ff.compute_force_only(positions, sim_box, forces);
        }
        self.post_force(state, dt);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::HarmonicRestraint;
    use crate::pbc::SimBox;
    use crate::rng::rng_from_seed;
    use crate::topology::{LjParams, Particle, Topology};
    use crate::vec3::v3;

    fn oscillator_ff(k: f64) -> ForceField {
        ForceField::new().with(Box::new(HarmonicRestraint::new(vec![(0, Vec3::ZERO)], k)))
    }

    fn one_particle() -> (Topology, State) {
        let mut top = Topology::new();
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        let state = State::new(vec![v3(1.0, 0.0, 0.0)], &top, SimBox::Open);
        (top, state)
    }

    fn prime(state: &mut State, ff: &mut ForceField) {
        let (positions, sim_box) = (&state.positions, &state.sim_box);
        ff.compute(positions, sim_box, &mut state.forces);
    }

    #[test]
    fn verlet_conserves_energy_for_harmonic_oscillator() {
        let (_top, mut state) = one_particle();
        let mut ff = oscillator_ff(1.0);
        prime(&mut state, &mut ff);
        let mut integ = VelocityVerlet::nve();
        let e0 = state.kinetic_energy() + ff.energy(&state.positions, &state.sim_box);
        let dt = 0.01;
        let mut worst: f64 = 0.0;
        for _ in 0..10_000 {
            let energies = integ.step(&mut state, &mut ff, dt, 3);
            let e = state.kinetic_energy() + energies.total();
            worst = worst.max((e - e0).abs());
        }
        assert!(worst < 1e-4, "energy drift over 10k steps: {worst}");
    }

    #[test]
    fn verlet_period_matches_analytic_oscillator() {
        // ω = sqrt(k/m) = 2 ⇒ period π. Track the first return to positive
        // x-crossing of the velocity.
        let (_top, mut state) = one_particle();
        let mut ff = oscillator_ff(4.0);
        prime(&mut state, &mut ff);
        let mut integ = VelocityVerlet::nve();
        let dt = 1e-3;
        let mut prev_x = state.positions[0].x;
        let mut crossings = Vec::new();
        for step in 1..=7000 {
            integ.step(&mut state, &mut ff, dt, 3);
            let x = state.positions[0].x;
            if prev_x < 0.0 && x >= 0.0 {
                crossings.push(step as f64 * dt);
            }
            prev_x = x;
        }
        assert!(crossings.len() >= 2, "expected at least 2 crossings");
        let period = crossings[1] - crossings[0];
        assert!(
            (period - std::f64::consts::PI).abs() < 1e-2,
            "period = {period}"
        );
    }

    #[test]
    fn langevin_equilibrates_harmonic_oscillator() {
        // For V = k x²/2 per coordinate, equipartition gives <x²> = kB T/k.
        let (_top, mut state) = one_particle();
        let mut ff = oscillator_ff(2.0);
        prime(&mut state, &mut ff);
        let mut integ = Langevin::new(1.0, 1.0, rng_from_seed(8));
        let dt = 0.02;
        // Equilibrate, then sample.
        for _ in 0..2000 {
            integ.step(&mut state, &mut ff, dt, 3);
        }
        let mut x2_sum = 0.0;
        let n_samp = 60_000;
        for _ in 0..n_samp {
            integ.step(&mut state, &mut ff, dt, 3);
            x2_sum += state.positions[0].x * state.positions[0].x;
        }
        let x2 = x2_sum / n_samp as f64;
        assert!(
            (x2 - 0.5).abs() < 0.05,
            "<x²> = {x2}, expected kB T/k = 0.5"
        );
    }

    #[test]
    fn integrators_advance_clock() {
        let (_top, mut state) = one_particle();
        let mut ff = oscillator_ff(1.0);
        prime(&mut state, &mut ff);
        let mut integ = VelocityVerlet::nve();
        integ.step(&mut state, &mut ff, 0.5, 3);
        integ.step(&mut state, &mut ff, 0.5, 3);
        assert_eq!(state.step, 2);
        assert!((state.time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn force_only_step_matches_full_step_bitwise() {
        // Two oscillators advanced by step() and step_force_only() must
        // stay bitwise identical — the engine's fast path depends on it.
        let run = |fast: bool| -> Vec<Vec3> {
            let (_top, mut state) = one_particle();
            let mut ff = oscillator_ff(1.3);
            prime(&mut state, &mut ff);
            let mut integ = VelocityVerlet::nve();
            for _ in 0..200 {
                if fast {
                    integ.step_force_only(&mut state, &mut ff, 0.01, 3);
                } else {
                    integ.step(&mut state, &mut ff, 0.01, 3);
                }
            }
            state.positions
        };
        assert_eq!(run(false), run(true));

        // Same for Langevin (seeded noise) and for velocity Verlet under
        // v-rescale, the path `lj_fluid` ships.
        let run_langevin = |fast: bool| -> Vec<Vec3> {
            let (_top, mut state) = one_particle();
            let mut ff = oscillator_ff(1.0);
            prime(&mut state, &mut ff);
            let mut integ = Langevin::new(1.0, 1.0, rng_from_seed(8));
            for _ in 0..100 {
                if fast {
                    integ.step_force_only(&mut state, &mut ff, 0.01, 3);
                } else {
                    integ.step(&mut state, &mut ff, 0.01, 3);
                }
            }
            state.positions
        };
        assert_eq!(run_langevin(false), run_langevin(true));

        let run_vrescale = |fast: bool| -> (Vec<Vec3>, Vec<Vec3>) {
            let (_top, mut state) = one_particle();
            state.velocities[0] = v3(0.0, 0.7, -0.2);
            let mut ff = oscillator_ff(1.0);
            prime(&mut state, &mut ff);
            let mut integ = VelocityVerlet::nvt(VRescale::new(1.0, 0.1, rng_from_seed(4)));
            for _ in 0..100 {
                if fast {
                    integ.step_force_only(&mut state, &mut ff, 0.01, 3);
                } else {
                    integ.step(&mut state, &mut ff, 0.01, 3);
                }
            }
            (state.positions, state.velocities)
        };
        assert_eq!(run_vrescale(false), run_vrescale(true));
    }

    #[test]
    fn thermostatted_verlet_controls_temperature() {
        let n = 64;
        let mut top = Topology::new();
        for _ in 0..n {
            top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        }
        // Ideal gas of restrained particles (independent oscillators).
        let anchors: Vec<(usize, Vec3)> =
            (0..n).map(|i| (i, v3(i as f64 * 2.0, 0.0, 0.0))).collect();
        let mut ff = ForceField::new().with(Box::new(HarmonicRestraint::new(anchors.clone(), 1.0)));
        let mut positions = vec![Vec3::ZERO; n];
        for (i, p) in positions.iter_mut().enumerate() {
            *p = anchors[i].1;
        }
        let mut state = State::new(positions, &top, SimBox::Open);
        let dof = top.dof(3);
        let mut rng = rng_from_seed(3);
        state.init_velocities(2.0, dof, &mut rng);
        prime(&mut state, &mut ff);
        let mut integ = VelocityVerlet::nvt(VRescale::new(1.0, 0.1, rng_from_seed(5)));
        for _ in 0..2000 {
            integ.step(&mut state, &mut ff, 0.01, dof);
        }
        // v-rescale samples the canonical ensemble, so the instantaneous
        // temperature fluctuates: check its mean over a further 1000 steps.
        let mut t_sum = 0.0;
        for _ in 0..1000 {
            integ.step(&mut state, &mut ff, 0.01, dof);
            t_sum += state.temperature(dof);
        }
        let t = t_sum / 1000.0;
        assert!(
            (t - 1.0).abs() < 0.1,
            "mean temperature after coupling: {t}"
        );
    }
}
