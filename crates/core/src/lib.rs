//! # copernicus-core — the parallel adaptive molecular dynamics framework
//!
//! A Rust reproduction of the Copernicus framework (Pronk et al., SC11):
//! projects consisting of many coupled parallel simulations are executed
//! as a single job. A project server holds a command queue and a
//! controller plugin; workers announce their platform, resources and
//! installed executables, receive matched workloads, heartbeat while they
//! run, and return outputs. Lost workers are detected by heartbeat
//! timeout and their commands re-queued with the latest shared-filesystem
//! checkpoint, so another worker transparently continues the run (§2.3).
//!
//! The two controller plugins the paper ships — Markov-state-model
//! adaptive sampling and Bennett-acceptance-ratio free energies — live in
//! [`plugins`].
//!
//! ```no_run
//! use copernicus_core::prelude::*;
//! use std::sync::Arc;
//!
//! let controller = MsmController::new(MsmProjectConfig::default());
//! let registry = ExecutorRegistry::new()
//!     .with(Arc::new(MdRunExecutor::new(controller.model())))
//!     .with(Arc::new(MsmBuildExecutor));
//! let result = run_project(Box::new(controller), registry, RuntimeConfig::default());
//! println!("{}", result.result);
//! ```

pub mod broker;
pub mod codec;
pub mod command;
pub mod controller;
pub mod executor;
pub mod faults;
pub mod fs;
pub mod ids;
pub(crate) mod ledger;
pub mod lifecycle;
pub mod md_executors;
pub mod messages;
pub mod monitor;
pub mod peer;
pub mod plugins;
/// The reference queue: the oracle `ledger`'s property tests compare
/// against.
#[cfg(test)]
mod queue;
pub mod resources;
pub mod runtime;
pub mod server;
pub mod tcp;
pub mod transport;
pub mod wal;
pub mod worker;

pub use broker::{
    spawn_broker, spawn_router, BrokerConfig, LocalUpstream, Offer, RouterHandle, Upstream,
    UpstreamGone,
};
pub use command::{Command, CommandOutput, CommandSpec, Payload};
pub use controller::{Action, Controller, ControllerCtx, ControllerEvent, DropReason};
pub use executor::{
    CommandExecutor, ExecContext, ExecError, ExecutorRegistry, FepSampleExecutor, FepSampleOutput,
    FepSampleSpec, MdRunExecutor, MdRunOutput, MdRunSpec, MsmBuildExecutor, MsmBuildOutput,
    MsmBuildSpec, SleepExecutor,
};
pub use faults::{ChaosExecutor, ChaosProfile, CrashingExecutor, ExecutionLog, FlakyExecutor};
pub use fs::SharedFs;
pub use ids::{CommandId, IdGen, ProjectId, WorkerId};
pub use lifecycle::{Disposition, FaultKind, Phase, RetryPolicy, Verdict};
pub use monitor::{Monitor, ProjectStatus, LOG_CAPACITY};
pub use peer::{namespaced_worker, PeerEndpoint, PeerIdentity, PeerLink, PeerLinkConfig};
pub use resources::{ExecutableSpec, Platform, Resources, WorkerDescription};
pub use runtime::{run_project, start_project, OverlayConfig, RunningProject, RuntimeConfig};
pub use server::{ConfigError, ProjectResult, Server, ServerConfig, ServerConfigBuilder};
pub use tcp::{
    connect_workers, serve_project, ServingProject, TcpServerTransport, TcpWorkerTransport,
};
pub use transport::{
    ChannelHub, ServerRecvError, ServerTransport, TransportClosed, Undeliverable, WorkerRecvError,
    WorkerSender, WorkerTransport,
};
pub use wal::{FsyncMode, RecoveredState, Wal, WalRecord};
pub use worker::{spawn_worker, WorkerConfig, WorkerHandle};

/// The framed, authenticated TCP link layer, re-exported so binaries
/// and tests reach `AuthKey`, `ReconnectPolicy` etc. without a direct
/// dependency on `copernicus-wire`.
pub use copernicus_wire as wire;
pub use copernicus_wire::AuthKey;

/// The structured telemetry layer (metrics registry, span tracer,
/// step-timing sinks), re-exported for downstream crates and binaries.
pub use copernicus_telemetry as telemetry;
pub use copernicus_telemetry::Telemetry;

/// Convenient glob-import surface.
pub mod prelude {
    pub use crate::command::{Command, CommandOutput, CommandSpec};
    pub use crate::controller::{Action, Controller, ControllerCtx, ControllerEvent, DropReason};
    pub use crate::executor::{
        CommandExecutor, ExecutorRegistry, FepSampleExecutor, MdRunExecutor, MsmBuildExecutor,
        SleepExecutor,
    };
    pub use crate::fs::SharedFs;
    pub use crate::ids::{CommandId, ProjectId, WorkerId};
    pub use crate::lifecycle::{Phase, RetryPolicy};
    pub use crate::monitor::{Monitor, ProjectStatus};
    pub use crate::plugins::{
        AdaptiveMode, ExchangeMode, FepController, FepProjectConfig, FepProjectReport,
        MsmController, MsmProjectConfig, MsmProjectReport, RepexController, RepexProjectConfig,
        RepexProjectReport,
    };
    pub use crate::resources::{ExecutableSpec, Platform, Resources, WorkerDescription};
    pub use crate::runtime::{run_project, start_project, RunningProject, RuntimeConfig};
    pub use crate::server::{ProjectResult, ServerConfig};
    pub use crate::tcp::{connect_workers, serve_project};
    pub use crate::transport::{ServerTransport, WorkerTransport};
    pub use crate::wal::FsyncMode;
    pub use crate::worker::WorkerConfig;
    pub use copernicus_telemetry::Telemetry;
    pub use copernicus_wire::AuthKey;
}
