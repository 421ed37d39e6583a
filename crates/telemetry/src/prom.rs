//! Prometheus text exposition (version 0.0.4) of a registry snapshot.
//!
//! Renders the same deterministic snapshot JSON that `--report` and the
//! bench artifacts consume, so a scrape and a report can never disagree.
//! Counters and gauges map 1:1; histograms become the classic
//! cumulative `_bucket{le=...}` / `_sum` / `_count` triple.

use serde_json::Value;

/// Render `Registry::snapshot()` / `Telemetry::snapshot()` JSON as
/// Prometheus text exposition. Metric and label names are sanitized to
/// the Prometheus charset; `# TYPE` headers are emitted once per metric
/// name (the snapshot is already sorted by name).
pub fn render_prometheus(snapshot: &Value) -> String {
    let metrics = snapshot["metrics"]
        .as_array()
        .map_or(&[][..], Vec::as_slice);
    let mut out = String::new();
    let mut last_typed: Option<(String, &str)> = None;
    for m in metrics {
        let name = sanitize(m["name"].as_str().unwrap_or("unnamed"));
        let kind = match m["type"].as_str() {
            Some("counter") => "counter",
            Some("gauge") => "gauge",
            Some("histogram") => "histogram",
            _ => continue,
        };
        if last_typed.as_ref().map(|(n, k)| (n.as_str(), *k)) != Some((name.as_str(), kind)) {
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_typed = Some((name.clone(), kind));
        }
        let labels = render_labels(&m["labels"], &[]);
        match kind {
            "counter" => {
                let v = m["value"].as_u64().unwrap_or(0);
                out.push_str(&format!("{name}{labels} {v}\n"));
            }
            "gauge" => {
                let v = m["value"].as_f64().unwrap_or(0.0);
                out.push_str(&format!("{name}{labels} {}\n", num(v)));
            }
            "histogram" => {
                let h = &m["histogram"];
                let bounds: Vec<f64> = h["bounds"]
                    .as_array()
                    .map(|a| a.iter().filter_map(Value::as_f64).collect())
                    .unwrap_or_default();
                let buckets: Vec<u64> = h["buckets"]
                    .as_array()
                    .map(|a| a.iter().filter_map(Value::as_u64).collect())
                    .unwrap_or_default();
                let mut cum = 0u64;
                for (i, &count) in buckets.iter().enumerate() {
                    cum += count;
                    let le = match bounds.get(i) {
                        Some(b) => num(*b),
                        None => "+Inf".to_string(),
                    };
                    let le_labels = render_labels(&m["labels"], &[("le", &le)]);
                    out.push_str(&format!("{name}_bucket{le_labels} {cum}\n"));
                }
                let sum = h["sum"].as_f64().unwrap_or(0.0);
                let count = h["count"].as_u64().unwrap_or(0);
                out.push_str(&format!("{name}_sum{labels} {}\n", num(sum)));
                out.push_str(&format!("{name}_count{labels} {count}\n"));
            }
            _ => unreachable!(),
        }
    }
    out
}

/// Render a label set (from snapshot JSON) plus extra pairs as
/// `{k="v",...}`, or an empty string when there are none.
fn render_labels(labels: &Value, extra: &[(&str, &str)]) -> String {
    let mut pairs: Vec<(String, String)> = Vec::new();
    if let Some(map) = labels.as_object() {
        for (k, v) in map {
            pairs.push((sanitize(k), v.as_str().unwrap_or("?").to_string()));
        }
    }
    for (k, v) in extra {
        pairs.push((sanitize(k), v.to_string()));
    }
    if pairs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{k}=\"{}\"", escape_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Restrict to the Prometheus metric/label-name charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`.
fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

fn escape_label_value(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Prometheus float formatting: integral values without a trailing
/// `.0`, everything else via Rust's shortest roundtrip formatting.
fn num(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{buckets, labels, Labels, Registry};

    #[test]
    fn counters_and_gauges_expose_with_types() {
        let reg = Registry::new();
        reg.counter("commands_dispatched", Labels::new()).add(12);
        reg.counter(
            "wire_bytes_sent",
            labels(&[("link", "10.0.0.2:7878"), ("role", "client")]),
        )
        .add(2048);
        reg.gauge("queue_depth", Labels::new()).set(3.0);
        let text = render_prometheus(&reg.snapshot());
        assert!(
            text.contains("# TYPE commands_dispatched counter\n"),
            "{text}"
        );
        assert!(text.contains("commands_dispatched 12\n"), "{text}");
        assert!(text.contains("# TYPE queue_depth gauge\n"), "{text}");
        assert!(text.contains("queue_depth 3\n"), "{text}");
        assert!(
            text.contains("wire_bytes_sent{link=\"10.0.0.2:7878\",role=\"client\"} 2048\n"),
            "{text}"
        );
    }

    #[test]
    fn histogram_buckets_are_cumulative_with_inf() {
        let reg = Registry::new();
        let h = reg.histogram("lat", Labels::new(), &[1.0, 10.0]);
        h.record(0.5);
        h.record(5.0);
        h.record(100.0);
        let text = render_prometheus(&reg.snapshot());
        assert!(text.contains("# TYPE lat histogram\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"10\"} 2\n"), "{text}");
        assert!(text.contains("lat_bucket{le=\"+Inf\"} 3\n"), "{text}");
        assert!(text.contains("lat_count 3\n"), "{text}");
        assert!(text.contains("lat_sum 105.5\n"), "{text}");
    }

    #[test]
    fn type_header_emitted_once_across_series() {
        let reg = Registry::new();
        reg.counter("hits", labels(&[("k", "a")])).inc();
        reg.counter("hits", labels(&[("k", "b")])).inc();
        let text = render_prometheus(&reg.snapshot());
        assert_eq!(text.matches("# TYPE hits counter").count(), 1, "{text}");
        assert!(text.contains("hits{k=\"a\"} 1\n"), "{text}");
        assert!(text.contains("hits{k=\"b\"} 1\n"), "{text}");
    }

    #[test]
    fn names_and_values_sanitized() {
        let reg = Registry::new();
        reg.counter("md.force-ns", labels(&[("path", "a\"b\\c\nd")]))
            .inc();
        let text = render_prometheus(&reg.snapshot());
        assert!(
            text.contains("md_force_ns{path=\"a\\\"b\\\\c\\nd\"} 1\n"),
            "{text}"
        );
    }

    #[test]
    fn seconds_ladder_renders_parseable_les() {
        let reg = Registry::new();
        let h = reg.histogram("d", Labels::new(), buckets::SECONDS);
        h.record(0.002);
        let text = render_prometheus(&reg.snapshot());
        // Every bucket line has a le label and a cumulative count.
        let bucket_lines: Vec<&str> = text.lines().filter(|l| l.starts_with("d_bucket")).collect();
        assert_eq!(bucket_lines.len(), buckets::SECONDS.len() + 1);
        assert!(
            bucket_lines.last().unwrap().contains("le=\"+Inf\"} 1"),
            "{text}"
        );
    }
}
