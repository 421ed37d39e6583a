//! Real-time project monitoring (§2: "Progress and results can be
//! monitored in real time through a web interface").
//!
//! The server updates a shared [`ProjectStatus`]; clients (examples, the
//! bench harness, tests) poll a [`Monitor`] handle from any thread. A
//! `Monitor` can also carry a [`Telemetry`] handle, composing the live
//! counters with the metrics registry and the span log's accounting
//! into the `copernicus report` dump.

use copernicus_telemetry::Telemetry;
use serde_json::{json, Value};
use std::sync::{Arc, Mutex};

/// Retained log lines. Long ensemble runs emit a line per generation and
/// per failure; the ring keeps the newest window and counts evictions so
/// the status never grows without bound.
pub const LOG_CAPACITY: usize = 256;

/// Snapshot of a running project.
#[derive(Debug, Clone, Default)]
pub struct ProjectStatus {
    pub commands_queued: usize,
    pub commands_running: usize,
    pub commands_completed: u64,
    pub commands_failed: u64,
    pub commands_requeued: u64,
    /// Commands that exhausted their attempt budget and were dropped.
    pub commands_dropped: u64,
    pub workers_connected: usize,
    pub workers_lost: u64,
    /// Total output payload received (ensemble-level traffic).
    pub bytes_received: u64,
    /// Controller progress notes, newest last — the most recent
    /// [`LOG_CAPACITY`] lines only.
    pub log: Vec<String>,
    /// Lines evicted from `log` to honour [`LOG_CAPACITY`].
    pub log_dropped: u64,
    /// Lines ever logged (`log_dropped + log.len()`).
    pub log_total: u64,
    pub finished: bool,
}

/// Shared monitoring handle.
#[derive(Clone, Default)]
pub struct Monitor {
    inner: Arc<Mutex<ProjectStatus>>,
    telemetry: Option<Telemetry>,
}

impl Monitor {
    pub fn new() -> Self {
        Monitor::default()
    }

    /// A monitor that also exposes (and reports through) `telemetry`.
    pub fn with_telemetry(telemetry: Telemetry) -> Self {
        Monitor {
            inner: Arc::default(),
            telemetry: Some(telemetry),
        }
    }

    /// The attached telemetry handle, if any.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Current snapshot (cloned; cheap relative to command granularity).
    pub fn status(&self) -> ProjectStatus {
        self.inner.lock().unwrap().clone()
    }

    pub fn update(&self, f: impl FnOnce(&mut ProjectStatus)) {
        f(&mut self.inner.lock().unwrap());
    }

    pub fn log(&self, line: impl Into<String>) {
        let mut status = self.inner.lock().unwrap();
        status.log.push(line.into());
        status.log_total += 1;
        if status.log.len() > LOG_CAPACITY {
            let excess = status.log.len() - LOG_CAPACITY;
            status.log.drain(..excess);
            status.log_dropped += excess as u64;
        }
    }

    /// Log lines not yet seen by a caller that has consumed `seen_total`
    /// lines so far. Returns `(new_lines, new_seen_total)`; lines evicted
    /// before the caller got to them are silently skipped (they are
    /// accounted in [`ProjectStatus::log_dropped`]).
    pub fn log_since(&self, seen_total: u64) -> (Vec<String>, u64) {
        let status = self.inner.lock().unwrap();
        let oldest_retained = status.log_total - status.log.len() as u64;
        let skip = seen_total.saturating_sub(oldest_retained) as usize;
        let lines: Vec<String> = status.log.iter().skip(skip).cloned().collect();
        (lines, status.log_total)
    }

    /// One JSON document: project status plus (when telemetry is
    /// attached) the full metrics snapshot and span accounting.
    pub fn report_json(&self) -> String {
        let status = self.status();
        let mut root = match &self.telemetry {
            Some(t) => t.snapshot(),
            None => json!({}),
        };
        root["status"] = status_to_json(&status);
        format!("{root:#}")
    }

    /// Aligned-text report for terminals (`copernicus report`).
    pub fn report_text(&self) -> String {
        let status = self.status();
        let mut out = String::new();
        out.push_str("== project ==\n");
        out.push_str(&format!(
            "queued={} running={} completed={} failed={} requeued={} dropped={}\n",
            status.commands_queued,
            status.commands_running,
            status.commands_completed,
            status.commands_failed,
            status.commands_requeued,
            status.commands_dropped,
        ));
        out.push_str(&format!(
            "workers connected={} lost={}  bytes_received={}  finished={}\n",
            status.workers_connected, status.workers_lost, status.bytes_received, status.finished,
        ));
        out.push_str(&format!(
            "log: {} line(s) retained, {} dropped\n",
            status.log.len(),
            status.log_dropped
        ));
        if let Some(t) = &self.telemetry {
            out.push('\n');
            out.push_str(&t.render_report());
        }
        out
    }
}

fn status_to_json(s: &ProjectStatus) -> Value {
    let mut obj = json!({
        "commands_queued": s.commands_queued,
        "commands_running": s.commands_running,
        "commands_completed": s.commands_completed,
        "commands_failed": s.commands_failed,
        "commands_requeued": s.commands_requeued,
        "commands_dropped": s.commands_dropped,
        "workers_connected": s.workers_connected,
        "workers_lost": s.workers_lost,
        "bytes_received": s.bytes_received,
        "log_dropped": s.log_dropped,
        "log_total": s.log_total,
        "finished": s.finished,
    });
    obj["log"] = Value::Array(s.log.iter().map(|l| l.as_str().into()).collect());
    obj
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_are_visible_to_clones() {
        let m = Monitor::new();
        let m2 = m.clone();
        m.update(|s| s.commands_completed = 5);
        m.log("generation 1 clustered");
        let snap = m2.status();
        assert_eq!(snap.commands_completed, 5);
        assert_eq!(snap.log, vec!["generation 1 clustered".to_string()]);
        assert!(!snap.finished);
    }

    #[test]
    fn status_is_a_snapshot() {
        let m = Monitor::new();
        let snap = m.status();
        m.update(|s| s.commands_completed = 1);
        assert_eq!(snap.commands_completed, 0, "snapshots must not alias");
    }

    #[test]
    fn log_is_bounded_and_counts_drops() {
        let m = Monitor::new();
        for i in 0..LOG_CAPACITY + 10 {
            m.log(format!("line {i}"));
        }
        let snap = m.status();
        assert_eq!(snap.log.len(), LOG_CAPACITY);
        assert_eq!(snap.log_dropped, 10);
        assert_eq!(snap.log_total, (LOG_CAPACITY + 10) as u64);
        // Newest retained; oldest evicted.
        assert_eq!(snap.log.first().unwrap(), "line 10");
        assert_eq!(
            snap.log.last().unwrap(),
            &format!("line {}", LOG_CAPACITY + 9)
        );
    }

    #[test]
    fn log_since_tracks_incremental_readers() {
        let m = Monitor::new();
        m.log("a");
        m.log("b");
        let (lines, seen) = m.log_since(0);
        assert_eq!(lines, vec!["a", "b"]);
        assert_eq!(seen, 2);
        let (lines, seen) = m.log_since(seen);
        assert!(lines.is_empty());
        m.log("c");
        let (lines, seen) = m.log_since(seen);
        assert_eq!(lines, vec!["c"]);
        assert_eq!(seen, 3);
    }

    #[test]
    fn log_since_skips_evicted_lines() {
        let m = Monitor::new();
        for i in 0..LOG_CAPACITY + 5 {
            m.log(format!("line {i}"));
        }
        // A reader that saw nothing gets only the retained window.
        let (lines, seen) = m.log_since(0);
        assert_eq!(lines.len(), LOG_CAPACITY);
        assert_eq!(lines[0], "line 5");
        assert_eq!(seen, (LOG_CAPACITY + 5) as u64);
    }

    #[test]
    fn report_includes_telemetry_when_attached() {
        use copernicus_telemetry::{Labels, Telemetry};
        let t = Telemetry::new();
        t.registry().counter("x", Labels::new()).add(7);
        let m = Monitor::with_telemetry(t);
        m.update(|s| s.commands_completed = 2);
        let json = m.report_json();
        let parsed: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed["status"]["commands_completed"].as_u64(), Some(2));
        assert!(parsed.get("metrics").is_some());
        let text = m.report_text();
        assert!(text.contains("== project =="));
        assert!(text.contains("== metrics =="));
        // Plain monitor still reports, minus metrics.
        let plain = Monitor::new();
        assert!(plain.report_json().contains("status"));
        assert!(plain.telemetry().is_none());
    }
}
