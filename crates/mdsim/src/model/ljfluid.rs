//! Lennard-Jones fluid builder.
//!
//! The all-atom-style test system: periodic box, shifted LJ with optional
//! reaction-field electrostatics, thermostatted velocity Verlet. Exercises
//! the neighbour-list, PBC and threading paths that the coarse-grained
//! folding model does not.

use crate::engine::Simulation;
use crate::forces::{ForceField, NonbondedForce};
use crate::integrate::VelocityVerlet;
use crate::pbc::SimBox;
use crate::rng::rng_for_stream;
use crate::state::State;
use crate::thermostat::VRescale;
use crate::topology::{LjParams, Particle, Topology};
use crate::vec3::v3;
use std::sync::Arc;

/// Specification of an LJ fluid in reduced units (σ = ε = m = 1).
#[derive(Debug, Clone, Copy)]
pub struct LjFluidSpec {
    pub n_particles: usize,
    /// Number density ρσ³.
    pub density: f64,
    /// Temperature in ε/kB.
    pub temperature: f64,
    /// Interaction cutoff in σ.
    pub cutoff: f64,
    /// Verlet buffer in σ.
    pub skin: f64,
    /// Per-particle charge magnitude; particles alternate ±q (kept 0 for a
    /// plain LJ fluid).
    pub charge: f64,
    /// Integration time step in τ.
    pub dt: f64,
    /// Enable the threaded pair loop.
    pub threaded: bool,
    /// Pair count above which the threaded pair loop engages (when
    /// `threaded` is set at all).
    pub parallel_threshold: usize,
    /// Run the pre-packing reference kernel (benchmark baseline).
    pub use_reference: bool,
}

impl Default for LjFluidSpec {
    fn default() -> Self {
        LjFluidSpec {
            n_particles: 256,
            density: 0.8,
            temperature: 1.0,
            cutoff: 2.5,
            skin: 0.3,
            charge: 0.0,
            dt: 0.004,
            threaded: true,
            parallel_threshold: crate::forces::nonbonded::DEFAULT_PAIR_PARALLEL_THRESHOLD,
            use_reference: false,
        }
    }
}

/// Build an equilibration-ready LJ fluid simulation.
///
/// Particles start on a simple cubic lattice (no overlaps) with
/// Maxwell-Boltzmann velocities; temperature is held with the stochastic
/// velocity-rescale thermostat.
pub fn lj_fluid(spec: LjFluidSpec, seed: u64) -> Simulation {
    assert!(spec.n_particles > 0 && spec.density > 0.0);
    let volume = spec.n_particles as f64 / spec.density;
    let l = volume.cbrt();
    let sim_box = SimBox::cubic(l);

    let mut top = Topology::new();
    for k in 0..spec.n_particles {
        let q = if k % 2 == 0 {
            spec.charge
        } else {
            -spec.charge
        };
        top.add_particle(Particle::new(1.0, q, LjParams::new(1.0, 1.0)));
    }
    let top = Arc::new(top);

    // Simple cubic lattice with enough sites.
    let per_side = (spec.n_particles as f64).cbrt().ceil() as usize;
    let spacing = l / per_side as f64;
    let mut positions = Vec::with_capacity(spec.n_particles);
    'fill: for ix in 0..per_side {
        for iy in 0..per_side {
            for iz in 0..per_side {
                if positions.len() == spec.n_particles {
                    break 'fill;
                }
                positions.push(v3(
                    (ix as f64 + 0.5) * spacing,
                    (iy as f64 + 0.5) * spacing,
                    (iz as f64 + 0.5) * spacing,
                ));
            }
        }
    }

    let mut nb = NonbondedForce::new(top.clone(), spec.cutoff, spec.skin, 78.0);
    nb.set_threading(spec.threaded);
    nb.set_parallel_threshold(spec.parallel_threshold);
    nb.set_reference_kernel(spec.use_reference);
    let ff = ForceField::new().with(Box::new(nb));

    let mut state = State::new(positions, &top, sim_box);
    let dof = top.dof(3);
    let mut vel_rng = rng_for_stream(seed, 0xf1);
    state.init_velocities(spec.temperature, dof, &mut vel_rng);

    let thermostat = VRescale::new(spec.temperature, 0.2, rng_for_stream(seed, 0xf2));
    Simulation::new(
        state,
        ff,
        Box::new(VelocityVerlet::nvt(thermostat)),
        spec.dt,
        dof,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lattice_has_no_overlaps() {
        let sim = lj_fluid(LjFluidSpec::default(), 1);
        let n = sim.state.n_particles();
        assert_eq!(n, 256);
        for i in 0..n {
            for j in (i + 1)..n {
                let d = sim
                    .state
                    .sim_box
                    .dist(sim.state.positions[i], sim.state.positions[j]);
                assert!(d > 0.7, "particles {i},{j} overlap: {d}");
            }
        }
    }

    #[test]
    fn fluid_equilibrates_to_target_temperature() {
        let spec = LjFluidSpec {
            n_particles: 216,
            temperature: 1.2,
            threaded: false,
            ..LjFluidSpec::default()
        };
        let mut sim = lj_fluid(spec, 2);
        sim.run(300);
        let dof = sim.dof();
        let mut t_sum = 0.0;
        let n_samp = 300;
        sim.run_with(n_samp, |_, state, _| {
            t_sum += state.temperature(dof);
        });
        let t_avg = t_sum / n_samp as f64;
        assert!(
            (t_avg - 1.2).abs() < 0.1,
            "LJ fluid temperature: {t_avg}, target 1.2"
        );
        assert!(sim.state.is_finite());
    }

    #[test]
    fn liquid_potential_energy_is_negative() {
        // At ρ=0.8, T=1.0 the LJ liquid is cohesive: U/N ≈ -5…-6 ε.
        let mut sim = lj_fluid(
            LjFluidSpec {
                n_particles: 216,
                threaded: false,
                ..LjFluidSpec::default()
            },
            3,
        );
        sim.run(500);
        let u_per_n = sim.potential_energy() / 216.0;
        assert!(
            (-7.0..=-3.0).contains(&u_per_n),
            "U/N = {u_per_n}, expected a cohesive liquid"
        );
    }

    #[test]
    fn box_size_matches_density() {
        let sim = lj_fluid(
            LjFluidSpec {
                n_particles: 100,
                density: 0.5,
                ..LjFluidSpec::default()
            },
            4,
        );
        let v = sim.state.sim_box.volume().unwrap();
        assert!((100.0 / v - 0.5).abs() < 1e-9);
    }
}
