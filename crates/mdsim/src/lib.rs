//! # mdsim — the molecular-dynamics substrate
//!
//! A from-scratch MD engine playing the role Gromacs 4.5 plays in the
//! Copernicus paper (SC11): the "command" a worker executes. It provides
//!
//! - vector math, periodic boundary conditions, topologies;
//! - Verlet/cell neighbour lists;
//! - Lennard-Jones + reaction-field non-bonded interactions (the paper's
//!   villin electrostatics setup) with serial and threaded kernels;
//! - harmonic bonds/angles, periodic dihedrals, restraints, and a Gō-type
//!   structure-based potential;
//! - velocity-Verlet and Langevin (BAOAB) integrators, and the
//!   stochastic velocity-rescale thermostat for velocity Verlet;
//! - the virial pressure of pair systems;
//! - Cα-trace PDB output;
//! - deterministic seeding, trajectory recording, and checkpoint/resume
//!   (required for the framework's transparent worker fail-over);
//! - ready-made systems: the coarse-grained villin HP35 Gō model and an
//!   LJ fluid.
//!
//! See `DESIGN.md` at the repository root for how this substitutes for the
//! paper's all-atom setup.

pub mod engine;
pub mod forces;
pub mod integrate;
pub mod io;
pub mod jsonv;
pub mod model;
pub mod neighbor;
pub mod observables;
pub mod pbc;
pub mod rng;
pub mod state;
mod stripes;
pub mod thermostat;
pub mod topology;
pub mod trajectory;
pub mod units;
pub mod vec3;

pub use engine::{Checkpoint, RunStats, Simulation};
pub use forces::{
    BondedForce, Energies, ForceField, ForceTerm, GoContact, GoModelForce, HarmonicRestraint,
    NonbondedForce,
};
pub use integrate::{Integrator, Langevin, VelocityVerlet};
pub use model::{lj_fluid, LjFluidSpec, VillinModel, VillinParams};
pub use neighbor::NeighborList;
pub use observables::{lj_pair_virial, virial_pressure};
pub use pbc::SimBox;
pub use rng::{rng_for_stream, rng_from_seed, SimRng};
pub use state::State;
pub use thermostat::VRescale;
pub use topology::{Angle, Bond, Dihedral, LjParams, Particle, Topology};
pub use trajectory::Trajectory;
pub use vec3::{v3, Vec3};

// Re-export the sink types so engine callers can instrument runs without
// depending on the telemetry crate directly.
pub use copernicus_telemetry::{NullSink, RecordingSink, StepPhase, TelemetrySink};
