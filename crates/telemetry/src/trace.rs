//! Distributed command tracing: causal span trees that survive process
//! boundaries.
//!
//! A [`TraceContext`] is minted by the owning server when a command is
//! enqueued and rides inside the command through every hop — worker
//! dispatch, peer delegation, retries — so each process can attach its
//! own spans to the same tree. Timestamps are monotonic nanosecond
//! offsets from the local [`Tracer`]'s origin (the same `Instant`-based
//! design as the journal: never wall clock on the hot path). Each tracer
//! also captures one wall-clock anchor at construction; merging logs
//! from several processes uses the anchors to project every span onto a
//! shared wall timeline (accurate to clock sync between hosts — see
//! DESIGN.md §13 for the exact semantics).
//!
//! Finished spans land in a bounded in-memory ring, exported as a JSONL
//! span log beside the journal.
//! [`merge`] joins logs from multiple processes by `trace_id`, and
//! [`MergedTrace::chrome_json`] exports Chrome trace-event JSON that
//! Perfetto / `chrome://tracing` render directly.

use crate::json::Json;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default capacity of the finished-span ring.
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// Well-known span names, so producers and the bench/export tooling
/// agree on the taxonomy without stringly-typed drift.
pub mod span_names {
    /// Root span: the whole command lifecycle as seen by the owning
    /// server, enqueue → terminal state.
    pub const COMMAND: &str = "command";
    /// One wait-in-queue period: enqueue (or re-queue) → dispatch.
    pub const QUEUED: &str = "queued";
    /// One dispatch attempt (per attempt epoch): dispatch → result,
    /// fault, or cancellation, as seen by the owning server.
    pub const ATTEMPT: &str = "attempt";
    /// Worker-side execution: workload received → result sent.
    pub const EXEC: &str = "exec";
    /// Delegate-side hold: a delegated command accepted from a peer
    /// owner → its result forwarded back.
    pub const DELEGATED: &str = "delegated";
    /// Instant event attached to a span when a heartbeat covering the
    /// command arrives.
    pub const HEARTBEAT: &str = "heartbeat";
}

/// The propagated context: which trace a span belongs to and which span
/// is its causal parent. Copy-cheap; rides inside `Command` across the
/// wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceContext {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: Option<u64>,
}

impl TraceContext {
    /// A context for a child span of `self` with the given span id.
    pub fn child(&self, span_id: u64) -> TraceContext {
        TraceContext {
            trace_id: self.trace_id,
            span_id,
            parent_span_id: Some(self.span_id),
        }
    }
}

/// An instant event inside a span (e.g. a heartbeat).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    pub name: String,
    pub t_ns: u64,
}

/// A finished span as recorded by one process.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub trace_id: u64,
    pub span_id: u64,
    pub parent_span_id: Option<u64>,
    pub name: String,
    /// Logical track within the process (worker name, "server", …);
    /// becomes the Chrome trace "thread".
    pub actor: String,
    pub t_start_ns: u64,
    pub t_end_ns: u64,
    pub attrs: Vec<(String, String)>,
    pub events: Vec<SpanEvent>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.t_end_ns.saturating_sub(self.t_start_ns)
    }

    fn to_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("kind", "span")
            .set("trace_id", self.trace_id)
            .set("span_id", self.span_id)
            .set("name", self.name.as_str())
            .set("actor", self.actor.as_str())
            .set("t_start_ns", self.t_start_ns)
            .set("t_end_ns", self.t_end_ns);
        match self.parent_span_id {
            Some(p) => obj.set("parent_span_id", p),
            None => obj.set("parent_span_id", Json::Null),
        };
        if !self.attrs.is_empty() {
            let mut attrs = Json::object();
            for (k, v) in &self.attrs {
                attrs.set(k, v.as_str());
            }
            obj.set("attrs", attrs);
        }
        if !self.events.is_empty() {
            let events = self
                .events
                .iter()
                .map(|e| {
                    let mut ev = Json::object();
                    ev.set("name", e.name.as_str()).set("t_ns", e.t_ns);
                    ev
                })
                .collect();
            obj.set("events", Json::Array(events));
        }
        obj
    }

    fn from_json(v: &Json) -> Option<Span> {
        let get_u64 = |key: &str| v.get(key).and_then(Json::as_u64);
        let get_str = |key: &str| v.get(key).and_then(Json::as_str);
        let mut attrs = Vec::new();
        if let Some(map) = v.get("attrs").and_then(Json::as_object) {
            for (k, val) in map {
                attrs.push((k.clone(), val.as_str().unwrap_or("?").to_string()));
            }
        }
        let mut events = Vec::new();
        if let Some(items) = v.get("events").and_then(Json::as_array) {
            for e in items {
                events.push(SpanEvent {
                    name: e.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
                    t_ns: e.get("t_ns").and_then(Json::as_u64).unwrap_or(0),
                });
            }
        }
        Some(Span {
            trace_id: get_u64("trace_id")?,
            span_id: get_u64("span_id")?,
            parent_span_id: v.get("parent_span_id").and_then(Json::as_u64),
            name: get_str("name")?.to_string(),
            actor: get_str("actor").unwrap_or("?").to_string(),
            t_start_ns: get_u64("t_start_ns")?,
            t_end_ns: get_u64("t_end_ns")?,
            attrs,
            events,
        })
    }
}

struct TracerInner {
    process: String,
    origin: Instant,
    /// Wall-clock ns since the Unix epoch captured at `origin`; lets the
    /// merge step align monotonic offsets from different processes.
    wall_anchor_ns: u64,
    /// Mixed into span/trace ids so ids from different processes never
    /// collide in a merged tree.
    id_seed: u64,
    next_id: AtomicU64,
    spans: Mutex<SpanRing>,
}

struct SpanRing {
    ring: VecDeque<Span>,
    capacity: usize,
    dropped: u64,
}

/// Records finished spans for one process. Cloning shares state.
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new("main")
    }
}

/// FNV-1a, the same construction the overlay uses for namespaced worker
/// ids; good enough to salt per-process id streams.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// SplitMix64 finalizer: cheap, well-mixed.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn unix_now_ns() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0)
}

impl Tracer {
    pub fn new(process: &str) -> Tracer {
        Tracer::with_capacity(process, DEFAULT_SPAN_CAPACITY)
    }

    pub fn with_capacity(process: &str, capacity: usize) -> Tracer {
        let wall_anchor_ns = unix_now_ns();
        Tracer {
            inner: Arc::new(TracerInner {
                process: process.to_string(),
                origin: Instant::now(),
                wall_anchor_ns,
                id_seed: splitmix64(fnv1a(process.as_bytes()) ^ wall_anchor_ns),
                next_id: AtomicU64::new(1),
                spans: Mutex::new(SpanRing {
                    ring: VecDeque::with_capacity(capacity.min(1024)),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            }),
        }
    }

    pub fn process(&self) -> &str {
        &self.inner.process
    }

    pub fn wall_anchor_ns(&self) -> u64 {
        self.inner.wall_anchor_ns
    }

    /// Monotonic ns since this tracer was created.
    pub fn now_ns(&self) -> u64 {
        self.inner.origin.elapsed().as_nanos() as u64
    }

    /// A fresh id, unique across processes with overwhelming
    /// probability (per-process salt mixed through SplitMix64).
    pub fn next_id(&self) -> u64 {
        let n = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        splitmix64(self.inner.id_seed ^ n)
    }

    /// Mint the root context for a brand-new trace.
    pub fn mint_trace(&self) -> TraceContext {
        TraceContext {
            trace_id: self.next_id(),
            span_id: self.next_id(),
            parent_span_id: None,
        }
    }

    /// Start a span as a child of `parent` (or a root span when `None`
    /// — the caller has a minted context for it).
    pub fn start_child(&self, name: &str, actor: &str, parent: &TraceContext) -> ActiveSpan {
        let ctx = parent.child(self.next_id());
        self.start_with_context(name, actor, ctx)
    }

    /// Start a span with an explicit, already-minted context (e.g. the
    /// root `command` span using the context stored in the command).
    pub fn start_with_context(&self, name: &str, actor: &str, ctx: TraceContext) -> ActiveSpan {
        ActiveSpan {
            tracer: self.clone(),
            span: Some(Span {
                trace_id: ctx.trace_id,
                span_id: ctx.span_id,
                parent_span_id: ctx.parent_span_id,
                name: name.to_string(),
                actor: actor.to_string(),
                t_start_ns: self.now_ns(),
                t_end_ns: 0,
                attrs: Vec::new(),
                events: Vec::new(),
            }),
        }
    }

    fn header_json(&self) -> Json {
        let mut obj = Json::object();
        obj.set("kind", "process")
            .set("process", self.inner.process.as_str())
            .set("wall_anchor_ns", self.inner.wall_anchor_ns)
            .set("version", 1u64);
        obj
    }

    fn record(&self, span: Span) {
        let mut guard = self.inner.spans.lock().unwrap();
        if guard.ring.len() == guard.capacity {
            guard.ring.pop_front();
            guard.dropped += 1;
        }
        guard.ring.push_back(span);
    }

    /// Finished spans currently retained (oldest first).
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().unwrap().ring.iter().cloned().collect()
    }

    pub fn dropped(&self) -> u64 {
        self.inner.spans.lock().unwrap().dropped
    }

    /// The whole retained log as JSONL: process header + one span per line.
    pub fn export_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header_json().to_string());
        out.push('\n');
        for span in self.inner.spans.lock().unwrap().ring.iter() {
            out.push_str(&span.to_json().to_string());
            out.push('\n');
        }
        out
    }
}

/// An in-flight span. Record instants and attributes on it; it records
/// itself into the tracer when finished (or dropped).
pub struct ActiveSpan {
    tracer: Tracer,
    span: Option<Span>,
}

impl ActiveSpan {
    /// The context to propagate to children of this span.
    pub fn context(&self) -> TraceContext {
        let span = self.span.as_ref().expect("span already finished");
        TraceContext {
            trace_id: span.trace_id,
            span_id: span.span_id,
            parent_span_id: span.parent_span_id,
        }
    }

    pub fn set_attr(&mut self, key: &str, value: impl Into<String>) {
        if let Some(span) = self.span.as_mut() {
            let value = value.into();
            match span.attrs.iter_mut().find(|(k, _)| k == key) {
                Some(slot) => slot.1 = value,
                None => span.attrs.push((key.to_string(), value)),
            }
        }
    }

    /// Attach an instant event (e.g. a heartbeat) at "now".
    pub fn add_event(&mut self, name: &str) {
        let t_ns = self.tracer.now_ns();
        if let Some(span) = self.span.as_mut() {
            span.events.push(SpanEvent {
                name: name.to_string(),
                t_ns,
            });
        }
    }

    /// Finish explicitly. Equivalent to dropping, but reads better at
    /// call sites that hand the span around first.
    pub fn finish(mut self) {
        self.finish_inner();
    }

    fn finish_inner(&mut self) {
        if let Some(mut span) = self.span.take() {
            span.t_end_ns = self.tracer.now_ns();
            self.tracer.record(span);
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        self.finish_inner();
    }
}

// ---------------------------------------------------------------------
// Parsing, merging, Chrome export
// ---------------------------------------------------------------------

/// One process's parsed span log.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessLog {
    pub process: String,
    pub wall_anchor_ns: u64,
    pub spans: Vec<Span>,
}

/// Parse one JSONL span log. Lines that fail to parse are reported with
/// their (1-based) line number; a missing process header yields a log
/// with process "unknown" and anchor 0.
pub fn parse_jsonl(text: &str) -> (ProcessLog, Vec<(usize, String)>) {
    let mut log = ProcessLog {
        process: "unknown".to_string(),
        wall_anchor_ns: 0,
        spans: Vec::new(),
    };
    let mut errors = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let value = match Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                errors.push((i + 1, e.to_string()));
                continue;
            }
        };
        match value.get("kind").and_then(Json::as_str) {
            Some("process") => {
                if let Some(p) = value.get("process").and_then(Json::as_str) {
                    log.process = p.to_string();
                }
                log.wall_anchor_ns = value
                    .get("wall_anchor_ns")
                    .and_then(Json::as_u64)
                    .unwrap_or(0);
            }
            Some("span") => match Span::from_json(&value) {
                Some(span) => log.spans.push(span),
                None => errors.push((i + 1, "span line missing required fields".to_string())),
            },
            _ => errors.push((i + 1, "unknown line kind".to_string())),
        }
    }
    (log, errors)
}

/// A span projected onto the shared wall timeline during a merge.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedSpan {
    pub process: String,
    pub span: Span,
    pub wall_start_ns: u64,
    pub wall_end_ns: u64,
}

/// Logs from several processes joined by trace id, on one wall-clock
/// timeline (each process's monotonic offsets shifted by its anchor).
#[derive(Debug, Clone, Default)]
pub struct MergedTrace {
    /// Distinct process names in first-seen order.
    pub processes: Vec<String>,
    /// trace_id → spans, sorted by wall start time.
    pub traces: BTreeMap<u64, Vec<MergedSpan>>,
}

impl MergedTrace {
    pub fn trace_ids(&self) -> Vec<u64> {
        self.traces.keys().copied().collect()
    }

    pub fn spans_of(&self, trace_id: u64) -> &[MergedSpan] {
        self.traces.get(&trace_id).map(|v| v.as_slice()).unwrap_or(&[])
    }

    /// Root spans (no parent, or parent not present in the trace).
    pub fn roots_of(&self, trace_id: u64) -> Vec<&MergedSpan> {
        let spans = self.spans_of(trace_id);
        spans
            .iter()
            .filter(|s| match s.span.parent_span_id {
                None => true,
                Some(p) => !spans.iter().any(|o| o.span.span_id == p),
            })
            .collect()
    }

    pub fn children_of(&self, trace_id: u64, span_id: u64) -> Vec<&MergedSpan> {
        self.spans_of(trace_id)
            .iter()
            .filter(|s| s.span.parent_span_id == Some(span_id))
            .collect()
    }

    /// Distinct processes contributing spans to one trace.
    pub fn processes_of(&self, trace_id: u64) -> Vec<String> {
        let mut seen = Vec::new();
        for s in self.spans_of(trace_id) {
            if !seen.contains(&s.process) {
                seen.push(s.process.clone());
            }
        }
        seen
    }

    /// Chrome trace-event JSON (the `{"traceEvents": [...]}` envelope
    /// Perfetto and `chrome://tracing` load). Spans become "X" complete
    /// events, span events become "i" instants; pid/tid are small
    /// stable integers with "M" metadata naming them after the process
    /// and actor. Timestamps are µs relative to the earliest span.
    pub fn chrome_json(&self) -> Json {
        let mut events = Vec::new();
        let mut pids: BTreeMap<&str, u64> = BTreeMap::new();
        let mut tids: BTreeMap<(&str, &str), u64> = BTreeMap::new();
        for (i, p) in self.processes.iter().enumerate() {
            pids.insert(p.as_str(), i as u64 + 1);
            let mut meta = Json::object();
            let mut args = Json::object();
            args.set("name", p.as_str());
            meta.set("ph", "M")
                .set("name", "process_name")
                .set("pid", i as u64 + 1)
                .set("tid", 0u64)
                .set("args", args);
            events.push(meta);
        }
        let t0 = self
            .traces
            .values()
            .flat_map(|spans| spans.iter().map(|s| s.wall_start_ns))
            .min()
            .unwrap_or(0);
        for spans in self.traces.values() {
            for s in spans {
                let pid = *pids.get(s.process.as_str()).unwrap_or(&0);
                let n_tids = tids.len() as u64;
                let tid = *tids
                    .entry((s.process.as_str(), s.span.actor.as_str()))
                    .or_insert(n_tids + 1);
                let ts_us = (s.wall_start_ns.saturating_sub(t0)) as f64 / 1e3;
                let dur_us = s.span.duration_ns() as f64 / 1e3;
                let mut args = Json::object();
                args.set("trace_id", s.span.trace_id)
                    .set("span_id", s.span.span_id);
                if let Some(p) = s.span.parent_span_id {
                    args.set("parent_span_id", p);
                }
                for (k, v) in &s.span.attrs {
                    args.set(k, v.as_str());
                }
                let mut ev = Json::object();
                ev.set("ph", "X")
                    .set("name", s.span.name.as_str())
                    .set("cat", "copernicus")
                    .set("pid", pid)
                    .set("tid", tid)
                    .set("ts", ts_us)
                    .set("dur", dur_us)
                    .set("args", args);
                events.push(ev);
                for e in &s.span.events {
                    let anchor = s.wall_start_ns.saturating_sub(s.span.t_start_ns);
                    let ev_ts = (anchor + e.t_ns).saturating_sub(t0) as f64 / 1e3;
                    let mut inst = Json::object();
                    inst.set("ph", "i")
                        .set("name", e.name.as_str())
                        .set("cat", "copernicus")
                        .set("pid", pid)
                        .set("tid", tid)
                        .set("ts", ev_ts)
                        .set("s", "t");
                    events.push(inst);
                }
            }
        }
        // Thread-name metadata after the fact (tids are assigned above).
        for ((process, actor), tid) in &tids {
            let pid = *pids.get(process).unwrap_or(&0);
            let mut args = Json::object();
            args.set("name", *actor);
            let mut meta = Json::object();
            meta.set("ph", "M")
                .set("name", "thread_name")
                .set("pid", pid)
                .set("tid", *tid)
                .set("args", args);
            events.push(meta);
        }
        let mut root = Json::object();
        root.set("traceEvents", Json::Array(events))
            .set("displayTimeUnit", "ms");
        root
    }
}

/// Join several process logs into one merged view. Spans keep their
/// identity; timestamps are projected to wall ns via each log's anchor.
pub fn merge(logs: &[ProcessLog]) -> MergedTrace {
    let mut merged = MergedTrace::default();
    for log in logs {
        if !merged.processes.contains(&log.process) {
            merged.processes.push(log.process.clone());
        }
        for span in &log.spans {
            merged.traces.entry(span.trace_id).or_default().push(MergedSpan {
                process: log.process.clone(),
                wall_start_ns: log.wall_anchor_ns.saturating_add(span.t_start_ns),
                wall_end_ns: log.wall_anchor_ns.saturating_add(span.t_end_ns),
                span: span.clone(),
            });
        }
    }
    for spans in merged.traces.values_mut() {
        spans.sort_by_key(|s| (s.wall_start_ns, s.span.span_id));
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_span(trace: u64, span: u64, parent: Option<u64>, name: &str, t0: u64, t1: u64) -> Span {
        Span {
            trace_id: trace,
            span_id: span,
            parent_span_id: parent,
            name: name.to_string(),
            actor: "server".to_string(),
            t_start_ns: t0,
            t_end_ns: t1,
            attrs: Vec::new(),
            events: Vec::new(),
        }
    }

    #[test]
    fn mint_and_child_contexts_chain() {
        let tracer = Tracer::new("owner");
        let root = tracer.mint_trace();
        assert_eq!(root.parent_span_id, None);
        let child = root.child(tracer.next_id());
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, Some(root.span_id));
        assert_ne!(child.span_id, root.span_id);
    }

    #[test]
    fn ids_unique_across_processes() {
        let a = Tracer::new("a");
        let b = Tracer::new("b");
        let mut seen = std::collections::HashSet::new();
        for _ in 0..1000 {
            assert!(seen.insert(a.next_id()));
            assert!(seen.insert(b.next_id()));
        }
    }

    #[test]
    fn active_span_records_on_finish_and_drop() {
        let tracer = Tracer::new("p");
        let root = tracer.mint_trace();
        let mut span = tracer.start_with_context(span_names::COMMAND, "server", root);
        span.set_attr("command", "7");
        span.set_attr("command", "8"); // overwrite, not duplicate
        span.add_event(span_names::HEARTBEAT);
        span.finish();
        {
            let _dropped = tracer.start_child(span_names::QUEUED, "server", &root);
        }
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "command");
        assert_eq!(spans[0].attrs, vec![("command".to_string(), "8".to_string())]);
        assert_eq!(spans[0].events.len(), 1);
        assert_eq!(spans[1].name, "queued");
        assert_eq!(spans[1].parent_span_id, Some(root.span_id));
        assert!(spans.iter().all(|s| s.t_end_ns >= s.t_start_ns));
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let tracer = Tracer::with_capacity("p", 2);
        let root = tracer.mint_trace();
        for _ in 0..5 {
            tracer.start_child("x", "a", &root).finish();
        }
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.dropped(), 3);
    }

    #[test]
    fn jsonl_roundtrip_preserves_spans() {
        let tracer = Tracer::new("owner");
        let root = tracer.mint_trace();
        let mut s = tracer.start_with_context(span_names::COMMAND, "server", root);
        s.set_attr("project", "villin");
        s.add_event(span_names::HEARTBEAT);
        s.finish();
        tracer.start_child(span_names::ATTEMPT, "worker-1", &root).finish();
        let text = tracer.export_jsonl();
        let (log, errors) = parse_jsonl(&text);
        assert!(errors.is_empty(), "{errors:?}");
        assert_eq!(log.process, "owner");
        assert_eq!(log.wall_anchor_ns, tracer.wall_anchor_ns());
        assert_eq!(log.spans, tracer.spans());
    }

    #[test]
    fn parse_reports_bad_lines_with_numbers() {
        let text = "{\"kind\":\"process\",\"process\":\"p\",\"wall_anchor_ns\":5}\nnot json\n{\"kind\":\"span\"}\n{\"kind\":\"mystery\"}\n";
        let (log, errors) = parse_jsonl(text);
        assert_eq!(log.process, "p");
        assert_eq!(errors.len(), 3);
        assert_eq!(errors[0].0, 2);
        assert_eq!(errors[1].0, 3);
        assert_eq!(errors[2].0, 4);
    }

    #[test]
    fn merge_joins_processes_on_wall_timeline() {
        let owner = ProcessLog {
            process: "owner".to_string(),
            wall_anchor_ns: 1_000_000,
            spans: vec![
                test_span(42, 1, None, "command", 0, 900),
                test_span(42, 2, Some(1), "attempt", 100, 800),
            ],
        };
        let delegate = ProcessLog {
            process: "delegate".to_string(),
            wall_anchor_ns: 1_000_300,
            spans: vec![test_span(42, 3, Some(2), "exec", 0, 400)],
        };
        let merged = merge(&[owner, delegate]);
        assert_eq!(merged.trace_ids(), vec![42]);
        assert_eq!(merged.processes_of(42), vec!["owner", "delegate"]);
        let spans = merged.spans_of(42);
        assert_eq!(spans.len(), 3);
        // exec (anchor 1_000_300 + 0) sorts between command and attempt ends.
        assert_eq!(spans[0].span.name, "command");
        assert_eq!(spans[1].span.name, "attempt");
        assert_eq!(spans[2].span.name, "exec");
        assert_eq!(spans[2].wall_start_ns, 1_000_300);
        // Tree: command → attempt → exec, across processes.
        let roots = merged.roots_of(42);
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].span.name, "command");
        let kids = merged.children_of(42, 1);
        assert_eq!(kids.len(), 1);
        assert_eq!(kids[0].span.name, "attempt");
        let grandkids = merged.children_of(42, 2);
        assert_eq!(grandkids.len(), 1);
        assert_eq!(grandkids[0].process, "delegate");
    }

    #[test]
    fn chrome_export_parses_and_nests() {
        let owner = ProcessLog {
            process: "owner".to_string(),
            wall_anchor_ns: 1_000,
            spans: vec![{
                let mut s = test_span(7, 1, None, "command", 0, 500);
                s.events.push(SpanEvent {
                    name: "heartbeat".to_string(),
                    t_ns: 250,
                });
                s
            }],
        };
        let merged = merge(&[owner]);
        let chrome = merged.chrome_json();
        let parsed = Json::parse(&chrome.to_string()).unwrap();
        let events = parsed.get("traceEvents").unwrap().as_array().unwrap();
        // process_name meta + span + instant + thread_name meta.
        assert_eq!(events.len(), 4);
        let x = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .unwrap();
        assert_eq!(x.get("name").unwrap().as_str(), Some("command"));
        assert_eq!(x.get("dur").unwrap().as_f64(), Some(0.5));
        let i = events
            .iter()
            .find(|e| e.get("ph").and_then(Json::as_str) == Some("i"))
            .unwrap();
        assert_eq!(i.get("ts").unwrap().as_f64(), Some(0.25));
    }
}
