//! # copernicus-wire — authenticated TCP transport
//!
//! The paper's deployment (§2.2) is an overlay of *authenticated
//! servers*: every worker↔server and server↔server hop crosses a real,
//! lossy network, links become usable only after an explicit key
//! exchange, and the whole point of the architecture is that folding
//! work survives connections that don't. This crate is that wire for
//! the reproduction: each link of the overlay is one of its connections,
//! and `copernicus-core`'s `peer` and `broker` modules build the server
//! overlay from them:
//!
//! - [`frame`] — length-prefixed binary framing with a hard size cap;
//! - [`hash`] — in-repo SHA-256 / HMAC-SHA256 (checked against the
//!   standard test vectors; an SSL substitute, not production crypto);
//! - [`auth`] — pre-shared-key challenge–response handshake, mutual,
//!   reflection-safe;
//! - [`client`] — supervised outbound link: reconnect with exponential
//!   backoff, session-frame replay, idle-vs-broken discrimination;
//! - [`poll`] — zero-dependency readiness polling (`epoll` on Linux,
//!   `poll(2)` elsewhere), the engine under the listener;
//! - [`timer`] — a hashed timer wheel for handshake/idle deadlines;
//! - [`listener`] — accept + per-connection supervision (handshake
//!   timeout, heartbeat/idle timeout, malformed-frame hygiene,
//!   write-backlog eviction) surfacing [`WireEvent`]s, all driven by
//!   one event-loop thread over nonblocking sockets;
//! - [`stats`] — per-link byte/frame/reconnect counters in the shared
//!   telemetry registry;
//! - [`metrics`] — a minimal plain-TCP endpoint serving live Prometheus
//!   text exposition (`--metrics-addr`).
//!
//! Deliberately std-only (plus the workspace telemetry facade):
//! the transport must not decide serialization policy — peers exchange
//! opaque `Vec<u8>` payloads, and `copernicus-core` layers its message
//! codec on top.

pub mod auth;
pub mod client;
pub(crate) mod event_loop;
pub mod frame;
pub mod hash;
pub mod listener;
pub mod metrics;
pub mod poll;
pub mod stats;
pub mod timer;

pub use auth::{AuthError, AuthKey, Session};
pub use client::{ConnectError, LinkDown, ReconnectPolicy, RecvError, WireClient};
pub use frame::{
    encode_frame, read_frame, read_frame_limited, write_frame, FrameDecoder, WriteQueue,
    HEADER_LEN, MAX_FRAME,
};
pub use listener::{ConnId, ListenerConfig, WireEvent, WireListener};
pub use metrics::MetricsServer;
pub use stats::LinkStats;
