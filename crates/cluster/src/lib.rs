//! # clustersim — compute-cluster and controller-activity simulation
//!
//! The performance-evaluation substrate for Figs. 7–9 of the Copernicus
//! paper. The paper's own method for those figures is to benchmark the MD
//! engine at several core counts and then *simulate the controller's
//! activity* for a given total allocation and cores-per-simulation; this
//! crate implements exactly that: a calibrated strong-scaling model
//! ([`perfmodel`]), a discrete-event simulation of the generation-barrier
//! scheduling loop ([`controller`]) over a time-ordered event queue
//! ([`events`]), and parameter sweeps ([`sweep`]).

pub mod controller;
pub mod events;
pub mod perfmodel;
pub mod sweep;

pub use controller::{
    reference_tres1_hours, simulate_controller, MachineSpec, ProjectSpec, RunOutcome,
};
pub use events::EventQueue;
pub use perfmodel::PerfModel;
pub use sweep::{log_core_grid, scaling_sweep, ScalingPoint};
