//! Dynamic simulation state: positions, velocities, forces, clock.

use crate::jsonv::{self, Block};
use crate::pbc::SimBox;
use crate::rng::{sample_normal, SimRng};
use crate::topology::Topology;
use crate::units::{kinetic_temperature, KB};
use crate::vec3::Vec3;

jsonv::record! {
    /// Everything that changes while a simulation runs. Checkpoints carry
    /// it with positions, velocities and forces as coordinate blocks.
    #[derive(Debug, Clone)]
    pub struct State {
        pub positions: Vec<Vec3> as Block,
        pub velocities: Vec<Vec3> as Block,
        pub forces: Vec<Vec3> as Block,
        pub masses: Vec<f64>,
        pub sim_box: SimBox,
        /// Integration step counter.
        pub step: u64,
        /// Simulation time in intrinsic units.
        pub time: f64,
    }
    check State::check;
}

impl State {
    /// New state at the given positions with zero velocities and forces.
    pub fn new(positions: Vec<Vec3>, top: &Topology, sim_box: SimBox) -> Self {
        assert_eq!(
            positions.len(),
            top.n_particles(),
            "positions/topology length mismatch: {} vs {}",
            positions.len(),
            top.n_particles()
        );
        let n = positions.len();
        State {
            positions,
            velocities: vec![Vec3::ZERO; n],
            forces: vec![Vec3::ZERO; n],
            masses: top.masses(),
            sim_box,
            step: 0,
            time: 0.0,
        }
    }

    pub fn n_particles(&self) -> usize {
        self.positions.len()
    }

    /// Kinetic energy `Σ ½ m v²`.
    pub fn kinetic_energy(&self) -> f64 {
        self.velocities
            .iter()
            .zip(&self.masses)
            .map(|(v, &m)| 0.5 * m * v.norm2())
            .sum()
    }

    /// Instantaneous temperature given degrees of freedom.
    pub fn temperature(&self, dof: usize) -> f64 {
        kinetic_temperature(self.kinetic_energy(), dof)
    }

    /// Total linear momentum.
    pub fn momentum(&self) -> Vec3 {
        self.velocities
            .iter()
            .zip(&self.masses)
            .map(|(&v, &m)| v * m)
            .sum()
    }

    /// Remove centre-of-mass motion (so the thermostat doesn't heat a
    /// "flying ice cube").
    pub fn remove_com_motion(&mut self) {
        let p = self.momentum();
        let m_tot: f64 = self.masses.iter().sum();
        let v_com = p / m_tot;
        for v in self.velocities.iter_mut() {
            *v -= v_com;
        }
    }

    /// Draw velocities from the Maxwell-Boltzmann distribution at
    /// temperature `t`, then remove COM motion and rescale to hit `t`
    /// exactly for the given degrees of freedom.
    pub fn init_velocities(&mut self, t: f64, dof: usize, rng: &mut SimRng) {
        assert!(t >= 0.0, "temperature must be non-negative, got {t}");
        for (v, &m) in self.velocities.iter_mut().zip(&self.masses) {
            let sigma = (KB * t / m).sqrt();
            *v = Vec3::new(
                sigma * sample_normal(rng),
                sigma * sample_normal(rng),
                sigma * sample_normal(rng),
            );
        }
        self.remove_com_motion();
        // Rescale so the instantaneous temperature is exactly t.
        let cur = self.temperature(dof);
        if cur > 0.0 && t > 0.0 {
            let lambda = (t / cur).sqrt();
            for v in self.velocities.iter_mut() {
                *v *= lambda;
            }
        }
    }

    /// True if positions and velocities are all finite.
    pub fn is_finite(&self) -> bool {
        self.positions.iter().all(|p| p.is_finite())
            && self.velocities.iter().all(|v| v.is_finite())
    }

    fn check(&self) -> Result<(), String> {
        let n = self.positions.len();
        if self.velocities.len() != n || self.forces.len() != n || self.masses.len() != n {
            return Err("state arrays disagree on particle count".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::rng_from_seed;
    use crate::topology::{LjParams, Particle};
    use crate::vec3::v3;

    fn top(n: usize) -> Topology {
        let mut t = Topology::new();
        for _ in 0..n {
            t.add_particle(Particle::neutral(2.0, LjParams::new(1.0, 1.0)));
        }
        t
    }

    #[test]
    fn construction_checks_length() {
        let t = top(3);
        let s = State::new(vec![Vec3::ZERO; 3], &t, SimBox::Open);
        assert_eq!(s.n_particles(), 3);
        assert_eq!(s.masses, vec![2.0; 3]);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn rejects_wrong_length() {
        let t = top(3);
        let _ = State::new(vec![Vec3::ZERO; 2], &t, SimBox::Open);
    }

    #[test]
    fn kinetic_energy_and_temperature() {
        let t = top(2);
        let mut s = State::new(vec![Vec3::ZERO; 2], &t, SimBox::Open);
        s.velocities[0] = v3(1.0, 0.0, 0.0);
        // Ekin = 0.5 * 2.0 * 1 = 1.0
        assert!((s.kinetic_energy() - 1.0).abs() < 1e-12);
        // T = 2*Ekin / dof = 2/6
        assert!((s.temperature(6) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn com_motion_removal() {
        let t = top(2);
        let mut s = State::new(vec![Vec3::ZERO; 2], &t, SimBox::Open);
        s.velocities = vec![v3(1.0, 2.0, 3.0), v3(1.0, 2.0, 3.0)];
        s.remove_com_motion();
        assert!(s.momentum().norm() < 1e-12);
        assert!(s.velocities[0].norm() < 1e-12);
    }

    #[test]
    fn maxwell_boltzmann_hits_target_temperature() {
        let n = 500;
        let t = top(n);
        let mut s = State::new(vec![Vec3::ZERO; n], &t, SimBox::Open);
        let dof = t.dof(3);
        let mut rng = rng_from_seed(99);
        s.init_velocities(1.5, dof, &mut rng);
        assert!((s.temperature(dof) - 1.5).abs() < 1e-9);
        assert!(s.momentum().norm() < 1e-9);
    }

    #[test]
    fn zero_temperature_velocities() {
        let n = 4;
        let t = top(n);
        let mut s = State::new(vec![Vec3::ZERO; n], &t, SimBox::Open);
        let mut rng = rng_from_seed(1);
        s.init_velocities(0.0, t.dof(3), &mut rng);
        assert_eq!(s.kinetic_energy(), 0.0);
    }

    #[test]
    fn finite_checks() {
        let t = top(1);
        let mut s = State::new(vec![Vec3::ZERO], &t, SimBox::Open);
        assert!(s.is_finite());
        s.positions[0].x = f64::NAN;
        assert!(!s.is_finite());
    }
}
