//! Copernicus façade crate: re-exports the workspace public APIs.
pub use copernicus_core as core;
pub use copernicus_telemetry as telemetry;
pub use clustersim;
pub use fep;
pub use mdsim;
pub use msm;
