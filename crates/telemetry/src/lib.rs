//! # copernicus-telemetry
//!
//! Observability layer for the Copernicus reproduction: a thread-safe
//! metrics [`Registry`] (counters / gauges / fixed-bucket histograms
//! with labels), a structured event [`Journal`] (typed events, monotonic
//! timestamps, span begin/end pairs, bounded ring, JSONL export), and a
//! near-zero-cost [`TelemetrySink`] trait for the MD inner loop.
//!
//! The paper's pitch (§2) is that "the progress and the results of a
//! project can be monitored in real time"; Figs. 6–9 quantify overhead
//! per parallelism level. This crate is the measurement substrate for
//! both: every level of the stack (server, worker, MD kernel, controller
//! plugin, wire transport) pushes into the same [`Telemetry`] handle,
//! and `Telemetry::snapshot()` turns it into one deterministic JSON
//! document.
//!
//! Zero dependencies by design — it sits underneath `mdsim`'s inner
//! loop and carries its own tiny JSON layer ([`json::Json`]).

pub mod journal;
pub mod json;
pub mod metrics;
pub mod prom;
pub mod report;
pub mod sink;
pub mod trace;

pub use journal::{matched_span_pairs, Entry, Event, Journal, SpanGuard};
pub use json::{Json, JsonError};
pub use metrics::{buckets, labels, Counter, Gauge, Histogram, Labels, Registry};
pub use prom::render_prometheus;
pub use report::render_text;
pub use sink::{NullSink, RecordingSink, StepPhase, TelemetrySink};
pub use trace::{span_names, ActiveSpan, MergedTrace, ProcessLog, Span, TraceContext, Tracer};

/// Well-known metric names, so producers and consumers agree without
/// stringly-typed drift.
pub mod names {
    pub const COMMANDS_DISPATCHED: &str = "commands_dispatched";
    pub const COMMANDS_COMPLETED: &str = "commands_completed";
    pub const COMMANDS_FAILED: &str = "commands_failed";
    pub const COMMANDS_REQUEUED: &str = "commands_requeued";
    /// Commands that exhausted their attempt budget and were dropped.
    pub const COMMANDS_DROPPED: &str = "commands_dropped";
    /// Results (completions or errors) discarded as duplicates of an
    /// already-accepted result or as carrying a stale attempt epoch.
    pub const STALE_RESULTS_DROPPED: &str = "stale_results_dropped";
    /// Backoff delay applied before re-queueing an errored command (s).
    pub const RETRY_BACKOFF: &str = "retry_backoff_secs";
    pub const WORKERS_CONNECTED: &str = "workers_connected";
    pub const WORKERS_LOST: &str = "workers_lost";
    pub const QUEUE_DEPTH: &str = "queue_depth";
    pub const RUNNING_COMMANDS: &str = "running_commands";
    pub const BYTES_RECEIVED: &str = "bytes_received";
    /// Time a command spent queued before dispatch (seconds).
    pub const DISPATCH_LATENCY: &str = "dispatch_latency_secs";
    /// Dispatch-to-completion time as seen by the server (seconds).
    pub const COMMAND_TURNAROUND: &str = "command_turnaround_secs";
    /// Per-command executor wall time as seen by the worker (seconds).
    pub const COMMAND_WALL: &str = "command_wall_secs";
    /// Checkpoint serialization + deposit time (seconds).
    pub const CHECKPOINT_WRITE: &str = "checkpoint_write_secs";
    pub const CHECKPOINT_BYTES: &str = "checkpoint_bytes";
    /// MD force-field evaluation per step (nanoseconds).
    pub const FORCE_LOOP_NS: &str = "md_force_ns_per_step";
    /// Integration (minus force) per step (nanoseconds).
    pub const INTEGRATE_NS: &str = "md_integrate_ns_per_step";
    /// Neighbor-list refresh per step (nanoseconds).
    pub const NEIGHBOR_NS: &str = "md_neighbor_ns_per_step";
    pub const NEIGHBOR_REBUILDS: &str = "md_neighbor_rebuilds";
    /// Non-bonded pairs streamed by the inner kernel (cumulative count;
    /// divide by wall time for pairs/sec).
    pub const NB_PAIRS: &str = "md_nonbonded_pairs";
    /// Resident bytes of the packed pair list (gauge).
    pub const NB_PACKED_BYTES: &str = "md_packed_list_bytes";
    /// MSM clustering time per generation (seconds).
    pub const CLUSTERING_SECS: &str = "msm_clustering_secs";
    pub const MSM_STATES: &str = "msm_states";
    /// Real wire-transport traffic, per link (`link`/`role` labels):
    /// payload + framing bytes written to the socket.
    pub const WIRE_BYTES_SENT: &str = "wire_bytes_sent";
    /// Real wire-transport traffic, per link: bytes read off the socket.
    pub const WIRE_BYTES_RECV: &str = "wire_bytes_recv";
    pub const WIRE_FRAMES_SENT: &str = "wire_frames_sent";
    pub const WIRE_FRAMES_RECV: &str = "wire_frames_recv";
    /// Successful link re-establishments after a drop (client side).
    pub const WIRE_RECONNECTS: &str = "wire_reconnects";
    /// Handshakes rejected (bad pre-shared key, bad magic, malformed).
    pub const WIRE_AUTH_FAILURES: &str = "wire_auth_failures";
    /// Replica-exchange Metropolis attempts evaluated at sync points.
    pub const REPEX_EXCHANGE_ATTEMPTS: &str = "repex_exchange_attempts";
    /// Replica-exchange attempts that were accepted (temperatures swapped).
    pub const REPEX_EXCHANGE_ACCEPTS: &str = "repex_exchange_accepts";
    /// Walkers that completed a full bottom-to-top-to-bottom traversal
    /// of the temperature ladder.
    pub const REPEX_ROUND_TRIPS: &str = "repex_round_trips";
    /// Replicas permanently removed from the ladder after their command
    /// exhausted its attempt budget.
    pub const REPEX_REPLICAS_DROPPED: &str = "repex_replicas_dropped";
}

/// The facade the rest of the workspace passes around: a shared
/// [`Registry`], a shared [`Journal`], and a shared [`Tracer`].
/// Cloning shares all three.
#[derive(Clone, Default)]
pub struct Telemetry {
    registry: Registry,
    journal: Journal,
    tracer: Tracer,
}

impl Telemetry {
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// A telemetry handle whose tracer is labelled with a process name
    /// (server name, worker pool, bench role…) so merged traces show
    /// which process each span came from. The default is "main".
    pub fn for_process(process: &str) -> Telemetry {
        Telemetry {
            registry: Registry::new(),
            journal: Journal::default(),
            tracer: Tracer::new(process),
        }
    }

    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// A [`RecordingSink`] feeding the standard MD step histograms,
    /// labelled (e.g. by model or worker).
    pub fn step_sink(&self, labels: Labels) -> RecordingSink {
        RecordingSink::new(
            self.registry
                .histogram(names::FORCE_LOOP_NS, labels.clone(), buckets::NANOS),
            self.registry
                .histogram(names::INTEGRATE_NS, labels.clone(), buckets::NANOS),
            self.registry
                .histogram(names::NEIGHBOR_NS, labels, buckets::NANOS),
        )
    }

    /// One JSON document: all metrics plus a journal summary.
    pub fn snapshot(&self) -> Json {
        let mut snap = self.registry.snapshot();
        let mut journal = Json::object();
        journal
            .set("total_recorded", self.journal.total_recorded())
            .set("retained", self.journal.entries().len())
            .set("dropped", self.journal.dropped());
        snap.set("journal", journal);
        snap
    }

    pub fn snapshot_pretty(&self) -> String {
        self.snapshot().to_string_pretty()
    }

    /// The journal as JSONL (one event per line).
    pub fn export_journal_jsonl(&self) -> String {
        self.journal.export_jsonl()
    }

    /// The finished-span log as JSONL (process header + one span per
    /// line) — the input format of `copernicus trace merge`.
    pub fn export_trace_jsonl(&self) -> String {
        self.tracer.export_jsonl()
    }

    /// Prometheus text exposition of the current metrics (what
    /// `--metrics-addr` serves).
    pub fn render_prometheus(&self) -> String {
        prom::render_prometheus(&self.registry.snapshot())
    }

    /// Aligned-text rendering of the snapshot (`copernicus report`).
    pub fn render_report(&self) -> String {
        render_text(&self.snapshot())
    }
}

/// Time a closure, returning (result, nanoseconds).
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let start = std::time::Instant::now();
    let result = f();
    (result, start.elapsed().as_nanos() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facade_snapshot_combines_registry_and_journal() {
        let t = Telemetry::new();
        t.registry()
            .counter(names::COMMANDS_DISPATCHED, Labels::new())
            .add(3);
        t.journal().record(Event::WorkerLost { worker: 1 });
        let snap = t.snapshot();
        let metrics = snap.get("metrics").unwrap().as_array().unwrap();
        assert_eq!(metrics.len(), 1);
        assert_eq!(
            snap.get("journal")
                .unwrap()
                .get("total_recorded")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // Round-trips through the parser.
        let text = snap.to_string_pretty();
        assert_eq!(Json::parse(&text).unwrap(), snap);
    }

    #[test]
    fn step_sink_feeds_named_histograms() {
        let t = Telemetry::new();
        let sink = t.step_sink(labels(&[("model", "villin")]));
        sink.record_phase_ns(StepPhase::Force, 2_000);
        let h = t
            .registry()
            .find_histogram(names::FORCE_LOOP_NS, &labels(&[("model", "villin")]))
            .unwrap();
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn clones_share_state() {
        let t = Telemetry::new();
        let t2 = t.clone();
        t.registry().counter("x", Labels::new()).inc();
        t2.journal().note("shared");
        assert_eq!(t2.registry().counter_total("x"), 1);
        assert_eq!(t.journal().total_recorded(), 1);
    }

    #[test]
    fn timed_measures_something() {
        let (value, ns) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(value, 42);
        assert!(ns >= 1_000_000, "ns = {ns}");
    }
}
