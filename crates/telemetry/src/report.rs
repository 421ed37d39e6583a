//! Human-readable rendering of a telemetry snapshot, used by the
//! `copernicus report` subcommand and the bench artifact dumps.

use serde_json::Value;

/// Render a `Telemetry::snapshot()` JSON document as aligned text.
///
/// Layout: one line per metric — name, labels, then either the value
/// (counter/gauge) or count/mean/min/max (histogram) — followed by the
/// span log's retained and dropped counts when present. A snapshot
/// written before the span block existed renders without it.
pub fn render_text(snapshot: &Value) -> String {
    let mut out = String::new();
    let metrics = snapshot["metrics"]
        .as_array()
        .map_or(&[][..], Vec::as_slice);

    let mut rows: Vec<(String, String)> = Vec::with_capacity(metrics.len());
    for m in metrics {
        let name = m["name"].as_str().unwrap_or("?");
        let labels = match m["labels"].as_object() {
            Some(map) if !map.is_empty() => {
                let pairs: Vec<String> = map
                    .iter()
                    .map(|(k, v)| format!("{k}={}", v.as_str().unwrap_or("?")))
                    .collect();
                format!("{{{}}}", pairs.join(","))
            }
            _ => String::new(),
        };
        let left = format!("{name}{labels}");
        let right = match m["type"].as_str() {
            Some("counter") => format!("{}", m["value"].as_u64().unwrap_or(0)),
            Some("gauge") => format!("{}", m["value"].as_f64().unwrap_or(0.0)),
            Some("histogram") => {
                let h = &m["histogram"];
                let count = h["count"].as_u64().unwrap_or(0);
                if count == 0 {
                    "count=0".to_string()
                } else {
                    let f = |key: &str| h[key].as_f64().unwrap_or(0.0);
                    let mut row = format!(
                        "count={count} mean={} min={} max={}",
                        si(f("mean")),
                        si(f("min")),
                        si(f("max"))
                    );
                    // Interpolated quantiles (present when count > 0 on
                    // snapshots from this version onward).
                    if h.get("p50").is_some() {
                        row.push_str(&format!(" p50={} p99={}", si(f("p50")), si(f("p99"))));
                    }
                    row
                }
            }
            _ => "?".to_string(),
        };
        rows.push((left, right));
    }

    let width = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    out.push_str("== metrics ==\n");
    if rows.is_empty() {
        out.push_str("(none)\n");
    }
    for (left, right) in rows {
        out.push_str(&format!("{left:<width$}  {right}\n"));
    }

    if let Some(links) = render_wire_links(metrics) {
        out.push_str(&links);
    }

    if let Some(spans) = snapshot.get("spans") {
        let g = |key: &str| spans[key].as_u64().unwrap_or(0);
        out.push_str(&format!(
            "\n== spans ==\nretained={} dropped={}\n",
            g("retained"),
            g("dropped")
        ));
    }
    out
}

/// Group the per-link `wire_*` counters (emitted by the wire layer's
/// `LinkStats`, one labelled series per worker connection or peer
/// link) into a per-link summary section. Returns `None` when the
/// snapshot has no wire traffic at all.
fn render_wire_links(metrics: &[Value]) -> Option<String> {
    // (link, role) -> [frames tx, frames rx, bytes tx, bytes rx,
    //                  reconnects, auth failures]
    let mut links: std::collections::BTreeMap<(String, String), [u64; 6]> =
        std::collections::BTreeMap::new();
    for m in metrics {
        let slot = match m["name"].as_str().unwrap_or("") {
            "wire_frames_sent" => 0,
            "wire_frames_recv" => 1,
            "wire_bytes_sent" => 2,
            "wire_bytes_recv" => 3,
            "wire_reconnects" => 4,
            "wire_auth_failures" => 5,
            _ => continue,
        };
        let label = |key: &str| m["labels"][key].as_str().unwrap_or("?").to_string();
        let value = m["value"].as_u64().unwrap_or(0);
        links.entry((label("link"), label("role"))).or_default()[slot] += value;
    }
    if links.is_empty() {
        return None;
    }
    let mut out = String::from("\n== wire links ==\n");
    let width = links
        .keys()
        .map(|(link, role)| link.len() + role.len() + 3)
        .max()
        .unwrap_or(0);
    for ((link, role), v) in links {
        let left = format!("{link} ({role})");
        out.push_str(&format!(
            "{left:<width$}  frames {}/{} bytes {}/{} reconnects {} auth_failures {}\n",
            v[0],
            v[1],
            si(v[2] as f64),
            si(v[3] as f64),
            v[4],
            v[5]
        ));
    }
    Some(out)
}

/// Format a number with an SI-style suffix for readability.
fn si(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.2}k", v / 1e3)
    } else if a >= 1.0 || a == 0.0 {
        format!("{v:.2}")
    } else if a >= 1e-3 {
        format!("{:.2}m", v * 1e3)
    } else if a >= 1e-6 {
        format!("{:.2}u", v * 1e6)
    } else {
        format!("{:.2}n", v * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn renders_counters_gauges_histograms() {
        let t = Telemetry::new();
        t.registry()
            .counter("commands_dispatched", crate::metrics::Labels::new())
            .add(12);
        t.registry()
            .gauge("queue_depth", crate::metrics::Labels::new())
            .set(3.0);
        t.registry()
            .histogram(
                "dispatch_latency_secs",
                crate::metrics::Labels::new(),
                crate::metrics::buckets::SECONDS,
            )
            .record(0.002);
        let text = render_text(&t.snapshot());
        assert!(text.contains("commands_dispatched"), "{text}");
        assert!(text.contains("12"), "{text}");
        assert!(text.contains("queue_depth"), "{text}");
        assert!(text.contains("dispatch_latency_secs"), "{text}");
        assert!(text.contains("count=1"), "{text}");
        assert!(text.contains("== spans =="), "{text}");
        assert!(text.contains("retained=0 dropped=0"), "{text}");
    }

    #[test]
    fn renders_wire_link_section_grouped_per_link() {
        let t = Telemetry::new();
        for (link, role) in [("10.0.0.2:7878#0", "client"), ("10.0.0.9:7878", "peer")] {
            let labels = crate::metrics::Labels::new()
                .with("link", link)
                .with("role", role);
            t.registry()
                .counter("wire_frames_sent", labels.clone())
                .add(4);
            t.registry()
                .counter("wire_frames_recv", labels.clone())
                .add(3);
            t.registry()
                .counter("wire_bytes_sent", labels.clone())
                .add(2048);
            t.registry()
                .counter("wire_bytes_recv", labels.clone())
                .add(512);
            t.registry()
                .counter("wire_reconnects", labels.clone())
                .add(1);
            t.registry().counter("wire_auth_failures", labels).add(0);
        }
        let text = render_text(&t.snapshot());
        assert!(text.contains("== wire links =="), "{text}");
        assert!(text.contains("10.0.0.2:7878#0 (client)"), "{text}");
        assert!(text.contains("10.0.0.9:7878 (peer)"), "{text}");
        assert!(text.contains("frames 4/3"), "{text}");
        assert!(text.contains("bytes 2.05k/512.00"), "{text}");
        assert!(text.contains("reconnects 1"), "{text}");
    }

    #[test]
    fn no_wire_section_without_wire_metrics() {
        let t = Telemetry::new();
        t.registry()
            .counter("commands_dispatched", crate::metrics::Labels::new())
            .add(1);
        let text = render_text(&t.snapshot());
        assert!(!text.contains("== wire links =="), "{text}");
    }

    /// Golden rendering: byte-exact output for a fixed snapshot, so
    /// `copernicus report` text can be diffed across runs and machines.
    /// Locks row alignment, histogram quantile columns, the sorted
    /// `== wire links ==` section and the span-log footer.
    #[test]
    fn golden_report_text() {
        let snapshot: Value = serde_json::from_str(
            r#"{
              "metrics": [
                {"name":"commands_dispatched","type":"counter","value":42},
                {"name":"dispatch_latency_secs","type":"histogram","histogram":
                  {"count":3,"mean":0.002,"min":0.001,"max":0.004,"p50":0.002,"p99":0.004}},
                {"name":"queue_depth","type":"gauge","value":3},
                {"name":"wire_frames_sent","labels":{"link":"a","role":"client"},
                 "type":"counter","value":7},
                {"name":"wire_frames_sent","labels":{"link":"b","role":"peer"},
                 "type":"counter","value":2}
              ],
              "spans": {"retained":5,"dropped":2}
            }"#,
        )
        .unwrap();
        let expected = "\
== metrics ==
commands_dispatched                   42
dispatch_latency_secs                 count=3 mean=2.00m min=1.00m max=4.00m p50=2.00m p99=4.00m
queue_depth                           3
wire_frames_sent{link=a,role=client}  7
wire_frames_sent{link=b,role=peer}    2

== wire links ==
a (client)  frames 7/0 bytes 0.00/0.00 reconnects 0 auth_failures 0
b (peer)    frames 2/0 bytes 0.00/0.00 reconnects 0 auth_failures 0

== spans ==
retained=5 dropped=2
";
        assert_eq!(render_text(&snapshot), expected);
        // And rendering is a pure function of the snapshot.
        assert_eq!(render_text(&snapshot), render_text(&snapshot));
    }

    /// A span ring that overflowed: the report's dropped count is the
    /// tracer's, so no evicted span goes unaccounted.
    #[test]
    fn report_counts_spans_the_ring_dropped() {
        let t = Telemetry {
            registry: crate::metrics::Registry::new(),
            tracer: crate::trace::Tracer::with_capacity("p", 3),
        };
        let root = t.tracer().mint_trace();
        for _ in 0..8 {
            t.tracer().start_child("x", "a", &root).finish();
        }
        assert_eq!(t.tracer().dropped(), 5);
        let text = render_text(&t.snapshot());
        assert!(
            text.ends_with("== spans ==\nretained=3 dropped=5\n"),
            "{text}"
        );
    }

    /// Snapshots written before the span block carried a `journal`
    /// block instead; `copernicus report` still renders them.
    #[test]
    fn renders_a_snapshot_with_the_old_journal_block() {
        let snapshot: Value = serde_json::from_str(
            r#"{"metrics":[{"name":"commands_dispatched","type":"counter","value":4}],
                "journal":{"total_recorded":5,"retained":5,"dropped":0}}"#,
        )
        .unwrap();
        assert_eq!(
            render_text(&snapshot),
            "== metrics ==\ncommands_dispatched  4\n"
        );
    }

    #[test]
    fn live_report_is_deterministic_across_renders() {
        let t = Telemetry::new();
        t.registry()
            .counter("z_last", crate::metrics::Labels::new())
            .add(1);
        t.registry()
            .counter(
                "wire_frames_sent",
                crate::metrics::labels(&[("link", "b"), ("role", "peer")]),
            )
            .add(2);
        t.registry()
            .counter(
                "wire_frames_sent",
                crate::metrics::labels(&[("link", "a"), ("role", "client")]),
            )
            .add(1);
        let first = render_text(&t.snapshot());
        let second = render_text(&t.snapshot());
        assert_eq!(first, second);
        // The wire-link section sorts by (link, role), not insertion order.
        let a = first.find("a (client)").expect("a line");
        let b = first.find("b (peer)").expect("b line");
        assert!(a < b, "{first}");
    }

    #[test]
    fn si_suffixes() {
        assert_eq!(si(0.0), "0.00");
        assert_eq!(si(1500.0), "1.50k");
        assert_eq!(si(2.5e6), "2.50M");
        assert_eq!(si(0.002), "2.00m");
        assert_eq!(si(3.2e-7), "320.00n");
    }
}
