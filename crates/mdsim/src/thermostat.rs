//! Temperature control for velocity Verlet: the stochastic
//! velocity-rescale (Bussi) thermostat.
//!
//! The paper's villin runs use a Nosé-Hoover thermostat with a 0.5 ps
//! oscillation period. Here the villin model is thermostatted by its
//! Langevin integrator, and v-rescale serves the LJ fluid.

use crate::rng::{sample_normal, SimRng};
use crate::state::State;
use crate::units::KB;

fn scale_velocities(state: &mut State, lambda: f64) {
    for v in state.velocities.iter_mut() {
        *v *= lambda;
    }
}

/// Stochastic velocity rescaling (Bussi-Donadio-Parrinello).
///
/// Canonical-ensemble kinetic-energy control. For the χ²(dof−1) deviate we
/// use the Gaussian approximation `χ²_n ≈ n + √(2n)·N(0,1)`, accurate for
/// the dof ≥ 30 systems this engine targets.
pub struct VRescale {
    pub t0: f64,
    pub tau: f64,
    rng: SimRng,
}

impl VRescale {
    pub fn new(t0: f64, tau: f64, rng: SimRng) -> Self {
        assert!(t0 > 0.0 && tau > 0.0);
        VRescale { t0, tau, rng }
    }

    /// Scale velocities in place, once per step after the position/velocity
    /// update. `dof` is the number of kinetic degrees of freedom.
    pub fn apply(&mut self, state: &mut State, dt: f64, dof: usize) {
        let k = state.kinetic_energy();
        if k <= 0.0 || dof == 0 {
            return;
        }
        let k0 = 0.5 * dof as f64 * KB * self.t0;
        let c = (-dt / self.tau).exp();
        let r1 = sample_normal(&mut self.rng);
        let n_rest = (dof - 1) as f64;
        // χ²(dof−1) via Gaussian approximation.
        let chi2 = (n_rest + (2.0 * n_rest).sqrt() * sample_normal(&mut self.rng)).max(0.0);
        let factor = c
            + (k0 / (dof as f64 * k)) * (1.0 - c) * (r1 * r1 + chi2)
            + 2.0 * r1 * (c * (1.0 - c) * k0 / (dof as f64 * k)).sqrt();
        scale_velocities(state, factor.max(0.0).sqrt());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pbc::SimBox;
    use crate::rng::rng_from_seed;
    use crate::topology::{LjParams, Particle, Topology};
    use crate::vec3::Vec3;

    fn hot_state(n: usize, t_init: f64) -> (State, usize) {
        let mut top = Topology::new();
        for _ in 0..n {
            top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        }
        let dof = top.dof(3);
        let mut s = State::new(vec![Vec3::ZERO; n], &top, SimBox::Open);
        let mut rng = rng_from_seed(17);
        s.init_velocities(t_init, dof, &mut rng);
        (s, dof)
    }

    #[test]
    fn vrescale_keeps_mean_temperature() {
        let (mut s, dof) = hot_state(200, 1.0);
        let mut th = VRescale::new(1.0, 0.2, rng_from_seed(4));
        let mut t_sum = 0.0;
        let n_steps = 2000;
        for _ in 0..n_steps {
            th.apply(&mut s, 0.01, dof);
            t_sum += s.temperature(dof);
        }
        let t_avg = t_sum / n_steps as f64;
        assert!((t_avg - 1.0).abs() < 0.05, "v-rescale mean T: {t_avg}");
    }

    #[test]
    fn cold_state_is_not_nan() {
        // Applying the thermostat to a zero-velocity state must not produce NaN.
        let mut top = Topology::new();
        top.add_particle(Particle::neutral(1.0, LjParams::new(1.0, 1.0)));
        let mut s = State::new(vec![Vec3::ZERO], &top, SimBox::Open);
        VRescale::new(1.0, 0.5, rng_from_seed(1)).apply(&mut s, 0.01, 3);
        assert!(s.is_finite());
    }
}
