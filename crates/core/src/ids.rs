//! Identifier newtypes used across the framework.
//!
//! These are re-exports from the shared [`copernicus_ids`] crate so the
//! runtime, the codec, the journal and the server overlay all name
//! workers, commands and projects identically.

pub use copernicus_ids::{CommandId, IdGen, ProjectId, WorkerId};
