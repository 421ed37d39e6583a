//! # msm — Markov state modeling substrate
//!
//! The kinetic-clustering and statistical-model-building layer of the
//! Copernicus reproduction (the role msmbuilder-era tooling plays for the
//! paper's MSM plugin):
//!
//! - Kabsch/Horn optimal-superposition RMSD ([`metric`]);
//! - k-centers and k-medoids conformational clustering ([`cluster`]);
//! - lagged transition counting, connectivity trimming, reversible and
//!   non-reversible transition-matrix estimation ([`counts`],
//!   [`connectivity`], [`tmatrix`]);
//! - Chapman-Kolmogorov propagation and kinetic observables
//!   ([`propagate`]), the Chapman-Kolmogorov test ([`cktest`]), and
//!   committors, mean first-passage times and folding rates
//!   ([`kinetics`]);
//! - bootstrap error bars over trajectories ([`bootstrap`]);
//! - even / adaptive sampling weights for trajectory spawning
//!   ([`adaptive`]);
//! - incremental estimation for the streaming adaptive loop: assign-or-
//!   mint clustering, mini-batch center refinement, lagged counts across
//!   segment boundaries, drift-triggered rebasing ([`streaming`]);
//! - ensemble statistics ([`ensemble`]) and the high-level
//!   [`MarkovStateModel`] builder ([`model`]).

pub mod adaptive;
pub mod bootstrap;
pub mod cktest;
pub mod cluster;
pub mod connectivity;
pub mod counts;
pub mod ensemble;
pub mod kinetics;
pub mod linalg;
pub mod metric;
pub mod model;
pub mod propagate;
pub mod streaming;
pub mod tmatrix;

pub use adaptive::{adaptive_weights, even_weights, Weighting};
pub use bootstrap::{bootstrap_over_trajectories, bootstrap_subset_population, BootstrapEstimate};
pub use cktest::{chapman_kolmogorov_test, CkTestResult};
pub use cluster::{assign, k_centers, k_medoids_refine, Clustering};
pub use connectivity::{largest_connected_set, strongly_connected_components};
pub use counts::CountMatrix;
pub use ensemble::{ensemble_statistic, EnsembleSeries};
pub use kinetics::{folding_rate, forward_committor, mean_first_passage_times};
pub use metric::{centroid, rmsd, rmsd_raw, superpose};
pub use model::{MarkovStateModel, MsmConfig};
pub use propagate::{first_crossing, half_life, propagate_series, subset_population};
pub use streaming::{StateWeights, StreamingConfig, StreamingMsm};
pub use tmatrix::{implied_timescale, TransitionMatrix};
