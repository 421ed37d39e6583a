//! Copernicus façade crate: re-exports the workspace public APIs.
pub use clustersim;
pub use copernicus_core as core;
pub use copernicus_telemetry as telemetry;
pub use fep;
pub use mdsim;
pub use msm;
