//! The harness's own spans: one around every call it makes into a
//! layer, kept in memory and written out when the run ends.
//!
//! These are deliberately not the program's `Tracer` spans. The
//! benchmark measures from outside, so the only boundaries it can put a
//! span on are the ones it owns: its decorators around the public
//! `CommandExecutor` and `Controller` traits, and its isolated replays.

use copernicus_telemetry::Json;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// At most this many spans are kept for the Chrome trace file; the
/// per-name totals count all of them. (A flood run makes a few hundred
/// thousand; the viewer does not need them all, and the harness's
/// memory must not grow with the run.)
const KEPT_SPANS: usize = 100_000;

/// Trace rows that are not workers. (In-process workers are numbered
/// from 0, so the fixed rows sit at the other end.)
pub const SERVER_LANE: u64 = u64::MAX;
pub const REPLAY_LANE: u64 = u64::MAX - 1;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    /// Worker id for executor spans, else [`SERVER_LANE`] or
    /// [`REPLAY_LANE`]: the trace viewer's row.
    pub lane: u64,
    /// The command the call was made for, when there is one.
    pub cmd: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started and not yet ended.
pub struct Open {
    id: u64,
    name: &'static str,
    lane: u64,
    cmd: Option<u64>,
    start_ns: u64,
    /// Time covered by children that have already ended.
    child_ns: u64,
}

/// Per-name totals: how many spans, their summed duration, and the part
/// of it not covered by child spans.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

#[derive(Default)]
struct Done {
    kept: Vec<Span>,
    total: u64,
    totals: BTreeMap<&'static str, NameTotals>,
}

pub struct Spans {
    epoch: Instant,
    next_id: AtomicU64,
    done: Mutex<Done>,
}

impl Spans {
    pub fn new(epoch: Instant) -> Spans {
        Spans {
            epoch,
            next_id: AtomicU64::new(1),
            done: Mutex::new(Done::default()),
        }
    }

    pub fn open(&self, name: &'static str, lane: u64, cmd: Option<u64>) -> Open {
        Open {
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            name,
            lane,
            cmd,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            child_ns: 0,
        }
    }

    /// End the span; returns its duration in nanoseconds. `parent` is
    /// the still-open span this one was made under, if any: a span's self
    /// time is its duration minus what its children covered, and
    /// children of one parent never overlap here (each parent makes its
    /// calls in sequence), so their durations simply add.
    pub fn close(&self, open: Open, parent: Option<&mut Open>) -> u64 {
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let dur = end_ns - open.start_ns;
        let parent = parent.map(|parent| {
            parent.child_ns += dur;
            parent.id
        });
        let mut done = self.done.lock().expect("span log lock: no holder panics");
        done.total += 1;
        let totals = done.totals.entry(open.name).or_default();
        totals.count += 1;
        totals.total_ns += dur;
        totals.self_ns += dur.saturating_sub(open.child_ns);
        if done.kept.len() < KEPT_SPANS {
            done.kept.push(Span {
                id: open.id,
                parent,
                name: open.name,
                lane: open.lane,
                cmd: open.cmd,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        dur
    }

    /// Spans made, whether kept for the trace file or only counted.
    pub fn total(&self) -> u64 {
        self.done.lock().expect("span log lock").total
    }

    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        self.done.lock().expect("span log lock").totals.clone()
    }

    /// Write the kept spans as Chrome trace-event JSON ("X" complete
    /// events, microsecond timestamps), loadable in chrome://tracing or
    /// Perfetto.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        let done = self.done.lock().expect("span log lock");
        // TCP worker ids are 64-bit session ids; number the rows instead.
        let mut lanes: Vec<u64> = done.kept.iter().map(|s| s.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        let row = |lane: u64| lanes.binary_search(&lane).unwrap_or(0);
        let events: Vec<Json> = done
            .kept
            .iter()
            .map(|s| {
                let mut args = Json::object();
                args.set("span", s.id);
                if let Some(p) = s.parent {
                    args.set("parent", p);
                }
                if let Some(c) = s.cmd {
                    args.set("cmd", c);
                }
                let mut e = Json::object();
                e.set("name", s.name)
                    .set("cat", s.name.split('.').next().unwrap_or("copbench"))
                    .set("ph", "X")
                    .set("ts", s.start_ns as f64 / 1e3)
                    .set("dur", (s.end_ns - s.start_ns) as f64 / 1e3)
                    .set("pid", 1u64)
                    .set("tid", row(s.lane))
                    .set("args", args);
                e
            })
            .collect();
        let mut doc = Json::object();
        doc.set("displayTimeUnit", "ns")
            .set("spans_total", done.total)
            .set("spans_written", events.len())
            .set("traceEvents", events);
        std::fs::write(path, doc.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = Spans::new(Instant::now());
        let mut outer = spans.open("outer", SERVER_LANE, Some(7));
        let inner = spans.open("inner", SERVER_LANE, Some(7));
        std::thread::sleep(std::time::Duration::from_millis(2));
        let inner_ns = spans.close(inner, Some(&mut outer));
        let outer_ns = spans.close(outer, None);
        let totals = spans.totals();
        assert_eq!(spans.total(), 2);
        assert_eq!(totals["inner"].self_ns, inner_ns);
        assert_eq!(totals["outer"].total_ns, outer_ns);
        assert_eq!(totals["outer"].self_ns, outer_ns - inner_ns);
    }
}
