//! Holonomic bond constraints: SHAKE position corrections and RATTLE
//! velocity projections.
//!
//! Constraining bond lengths removes the fastest oscillations and is what
//! lets production MD (the paper's villin runs use a 2 fs step with
//! constrained hydrogens) take longer time steps. The implementation is
//! the classic iterative SHAKE: after an unconstrained position update,
//! pair corrections along the *previous* bond vectors are applied until
//! every constraint is satisfied to tolerance; RATTLE removes the
//! velocity components along the constrained bonds.

use crate::forces::{Energies, ForceField};
use crate::integrate::Integrator;
use crate::state::State;
use crate::topology::Topology;
use crate::vec3::Vec3;

/// A set of pairwise distance constraints.
#[derive(Debug, Clone)]
pub struct Constraints {
    /// (i, j, target distance).
    bonds: Vec<(usize, usize, f64)>,
    /// Relative tolerance on the squared distances.
    pub tolerance: f64,
    /// Iteration cap per SHAKE call.
    pub max_iterations: usize,
}

impl Constraints {
    pub fn new(bonds: Vec<(usize, usize, f64)>) -> Self {
        for &(i, j, d) in &bonds {
            assert!(i != j, "cannot constrain a particle to itself");
            assert!(d > 0.0, "constraint distance must be positive");
        }
        Constraints {
            bonds,
            tolerance: 1e-8,
            max_iterations: 500,
        }
    }

    /// Constrain every bond of a topology to its rest length.
    pub fn all_bonds(top: &Topology) -> Self {
        Constraints::new(top.bonds.iter().map(|b| (b.i, b.j, b.r0)).collect())
    }

    pub fn len(&self) -> usize {
        self.bonds.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bonds.is_empty()
    }

    /// Largest relative violation `| |r_ij| − d | / d`.
    pub fn max_violation(&self, positions: &[Vec3]) -> f64 {
        self.bonds
            .iter()
            .map(|&(i, j, d)| ((positions[i].dist(positions[j])) - d).abs() / d)
            .fold(0.0, f64::max)
    }

    /// SHAKE: correct `positions` so all constraints hold, using the
    /// pre-update geometry `reference` for the correction directions.
    /// Returns the number of sweeps used.
    pub fn shake(&self, reference: &[Vec3], positions: &mut [Vec3], inv_mass: &[f64]) -> usize {
        for sweep in 0..self.max_iterations {
            let mut converged = true;
            for &(i, j, d) in &self.bonds {
                let d2 = d * d;
                let r = positions[i] - positions[j];
                let diff = r.norm2() - d2;
                if diff.abs() > self.tolerance * d2 {
                    converged = false;
                    let r_ref = reference[i] - reference[j];
                    let denom = 2.0 * (inv_mass[i] + inv_mass[j]) * r.dot(r_ref);
                    if denom.abs() < 1e-12 {
                        // Degenerate geometry (perpendicular drift):
                        // correct along the current bond instead.
                        let g = diff / (2.0 * (inv_mass[i] + inv_mass[j]) * r.norm2());
                        positions[i] -= r * (g * inv_mass[i]);
                        positions[j] += r * (g * inv_mass[j]);
                    } else {
                        let g = diff / denom;
                        positions[i] -= r_ref * (g * inv_mass[i]);
                        positions[j] += r_ref * (g * inv_mass[j]);
                    }
                }
            }
            if converged {
                return sweep;
            }
        }
        self.max_iterations
    }

    /// RATTLE velocity stage: remove relative velocity components along
    /// each constrained bond.
    pub fn rattle_velocities(&self, positions: &[Vec3], velocities: &mut [Vec3], inv_mass: &[f64]) {
        for _ in 0..self.max_iterations {
            let mut converged = true;
            for &(i, j, d) in &self.bonds {
                let r = positions[i] - positions[j];
                let v_rel = velocities[i] - velocities[j];
                let proj = r.dot(v_rel);
                if proj.abs() > self.tolerance * d * d {
                    converged = false;
                    let k = proj / (r.norm2() * (inv_mass[i] + inv_mass[j]));
                    velocities[i] -= r * (k * inv_mass[i]);
                    velocities[j] += r * (k * inv_mass[j]);
                }
            }
            if converged {
                break;
            }
        }
    }
}

/// Velocity Verlet with SHAKE/RATTLE bond constraints (no thermostat;
/// compose with Langevin-style rethermalization externally if needed).
pub struct ConstrainedVerlet {
    pub constraints: Constraints,
    /// Inverse masses, cached at first step.
    inv_mass: Vec<f64>,
}

impl ConstrainedVerlet {
    pub fn new(constraints: Constraints) -> Self {
        ConstrainedVerlet {
            constraints,
            inv_mass: Vec::new(),
        }
    }
}

impl Integrator for ConstrainedVerlet {
    fn name(&self) -> &'static str {
        "verlet-shake"
    }

    fn step(&mut self, state: &mut State, ff: &mut ForceField, dt: f64, _dof: usize) -> Energies {
        if self.inv_mass.len() != state.n_particles() {
            self.inv_mass = state.masses.iter().map(|&m| 1.0 / m).collect();
        }
        let half = 0.5 * dt;
        let n = state.n_particles();
        let reference = state.positions.clone();

        for i in 0..n {
            state.velocities[i] += state.forces[i] * (half * self.inv_mass[i]);
            state.positions[i] += state.velocities[i] * dt;
        }
        // SHAKE the new positions, then make the velocities consistent
        // with the actual (constrained) displacement.
        self.constraints
            .shake(&reference, &mut state.positions, &self.inv_mass);
        let moved = state.positions.iter().zip(&reference);
        for (v, (&p, &r)) in state.velocities.iter_mut().zip(moved) {
            *v = (p - r) / dt;
        }

        let energies = {
            let (positions, sim_box) = (&state.positions, &state.sim_box);
            ff.compute(positions, sim_box, &mut state.forces)
        };
        for i in 0..n {
            state.velocities[i] += state.forces[i] * (half * self.inv_mass[i]);
        }
        self.constraints
            .rattle_velocities(&state.positions, &mut state.velocities, &self.inv_mass);
        state.step += 1;
        state.time += dt;
        energies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forces::HarmonicRestraint;
    use crate::pbc::SimBox;
    use crate::rng::rng_from_seed;
    use crate::topology::{LjParams, Particle};
    use crate::vec3::v3;
    use crate::Simulation;

    fn chain_top(n: usize) -> Topology {
        let mut top = Topology::new();
        for _ in 0..n {
            top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        }
        for i in 0..n - 1 {
            top.add_bond(i, i + 1, 1.0, 0.0); // k unused: constrained
        }
        top
    }

    #[test]
    fn shake_restores_distances() {
        let top = chain_top(3);
        let c = Constraints::all_bonds(&top);
        let reference = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0), v3(2.0, 0.0, 0.0)];
        // Perturbed positions violating both constraints.
        let mut pos = vec![v3(0.0, 0.1, 0.0), v3(1.2, -0.05, 0.0), v3(1.7, 0.0, 0.2)];
        let inv_mass = vec![1.0; 3];
        let sweeps = c.shake(&reference, &mut pos, &inv_mass);
        assert!(sweeps < c.max_iterations, "SHAKE did not converge");
        assert!(
            c.max_violation(&pos) < 1e-4,
            "violation {}",
            c.max_violation(&pos)
        );
    }

    #[test]
    fn shake_respects_mass_ratio() {
        // Heavy particle moves less during the correction.
        let mut top = Topology::new();
        top.add_particle(Particle::neutral(10.0, LjParams::new(1.0, 1.0)));
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        top.add_bond(0, 1, 1.0, 0.0);
        let c = Constraints::all_bonds(&top);
        let reference = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        let mut pos = vec![v3(0.0, 0.0, 0.0), v3(1.5, 0.0, 0.0)];
        let inv_mass = vec![0.1, 1.0];
        c.shake(&reference, &mut pos, &inv_mass);
        // The heavy particle barely moved.
        assert!(pos[0].norm() < 0.06, "heavy moved {:?}", pos[0]);
        assert!((pos[0].dist(pos[1]) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn rattle_removes_bond_velocity() {
        let top = chain_top(2);
        let c = Constraints::all_bonds(&top);
        let pos = vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)];
        // Relative velocity along the bond plus a transverse part.
        let mut vel = vec![v3(1.0, 1.0, 0.0), v3(-1.0, 1.0, 0.0)];
        c.rattle_velocities(&pos, &mut vel, &[1.0, 1.0]);
        let r = pos[0] - pos[1];
        let v_rel = vel[0] - vel[1];
        assert!(r.dot(v_rel).abs() < 1e-8, "bond velocity survived RATTLE");
        // Transverse motion untouched.
        assert!((vel[0].y - 1.0).abs() < 1e-12);
    }

    #[test]
    fn constrained_dynamics_keeps_bonds_rigid() {
        let top = chain_top(5);
        let c = Constraints::all_bonds(&top);
        let positions: Vec<Vec3> = (0..5).map(|i| v3(i as f64, 0.0, 0.0)).collect();
        let mut state = crate::State::new(positions, &top, SimBox::Open);
        let dof = top.dof(3) - c.len(); // each constraint removes one dof
        let mut rng = rng_from_seed(4);
        state.init_velocities(0.5, dof, &mut rng);
        // A soft external potential so something happens.
        let ff = crate::ForceField::new().with(Box::new(HarmonicRestraint::new(
            vec![(0, v3(0.0, 0.0, 0.0)), (4, v3(2.0, 2.0, 0.0))],
            0.5,
        )));
        let mut sim = Simulation::new(
            state,
            ff,
            Box::new(ConstrainedVerlet::new(c.clone())),
            0.01,
            dof,
        );
        sim.run(2_000);
        assert!(sim.state.is_finite());
        assert!(
            c.max_violation(&sim.state.positions) < 1e-3,
            "constraints drifted: {}",
            c.max_violation(&sim.state.positions)
        );
    }

    #[test]
    fn constrained_dumbbell_conserves_energy() {
        // A rigid dumbbell in a harmonic well: total energy (kinetic +
        // external potential) is conserved since the constraint does no
        // work.
        let top = chain_top(2);
        let c = Constraints::all_bonds(&top);
        let mut state = crate::State::new(
            vec![v3(0.0, 0.0, 0.0), v3(1.0, 0.0, 0.0)],
            &top,
            SimBox::Open,
        );
        state.velocities[0] = v3(0.0, 0.4, 0.0);
        state.velocities[1] = v3(0.0, -0.4, 0.0); // rotation
        let ff = crate::ForceField::new().with(Box::new(HarmonicRestraint::new(
            vec![(0, v3(0.0, 0.0, 0.0))],
            1.0,
        )));
        let mut sim = Simulation::new(state, ff, Box::new(ConstrainedVerlet::new(c)), 0.002, 3);
        let e0 = sim.total_energy();
        sim.run(5_000);
        let drift = (sim.total_energy() - e0).abs() / e0.abs().max(1e-12);
        assert!(drift < 5e-3, "energy drift {drift}");
    }

    #[test]
    #[should_panic(expected = "itself")]
    fn rejects_self_constraint() {
        let _ = Constraints::new(vec![(1, 1, 1.0)]);
    }
}
