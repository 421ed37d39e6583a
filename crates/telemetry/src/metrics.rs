//! Thread-safe metrics registry: counters, gauges, fixed-bucket
//! histograms, all addressable by (name, labels).
//!
//! Design constraints, in order:
//! 1. Hot-path updates (counter increment, histogram record) are a few
//!    atomic ops with `Relaxed` ordering — no locks after the handle is
//!    created.
//! 2. Handles are `Arc`-backed and cheap to clone, so call sites cache
//!    them once and never touch the registry map again.
//! 3. `snapshot()` is allowed to be slow-ish (it takes the registry
//!    lock) and produces deterministic, diffable JSON: metrics sorted by
//!    name then label string.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A label set: ordered key=value pairs identifying one series of a
/// metric (e.g. `{"kind": "mdrun"}`).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Labels(Vec<(String, String)>);

impl Labels {
    pub fn new() -> Labels {
        Labels::default()
    }

    pub fn with(mut self, key: &str, value: impl Into<String>) -> Labels {
        let value = value.into();
        match self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key.to_string(), value)),
        }
        self
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    fn to_json(&self) -> Value {
        Value::Object(
            self.iter()
                .map(|(k, v)| (k.to_string(), Value::from(v)))
                .collect(),
        )
    }
}

/// Shorthand: `labels(&[("kind", "mdrun")])`.
pub fn labels(pairs: &[(&str, &str)]) -> Labels {
    let mut l = Labels::new();
    for (k, v) in pairs {
        l = l.with(k, *v);
    }
    l
}

/// Monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, delta: u64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-value-wins gauge (f64 stored as bits in an AtomicU64).
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Gauge {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Fixed-bucket histogram. Buckets are cumulative-style upper bounds
/// (`le`); values above the last bound land in the implicit +Inf bucket.
/// Also tracks count/sum/min/max for mean and range reporting.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum in micro-units (value * 1e6 rounded) so it fits an atomic
    /// without a CAS float loop; reported back as f64.
    sum_micro: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Histogram {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micro: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: f64) {
        // partition_point: first bound with value <= bound (le semantics).
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let micro = (value.max(0.0) * 1e6).round() as u64;
        self.sum_micro.fetch_add(micro, Ordering::Relaxed);
        update_extreme(&self.min_bits, value, |new, cur| new < cur);
        update_extreme(&self.max_bits, value, |new, cur| new > cur);
    }

    /// Record a duration in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> f64 {
        self.sum_micro.load(Ordering::Relaxed) as f64 / 1e6
    }

    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() / n as f64
        }
    }

    /// Estimate the `q`-quantile (0 ≤ q ≤ 1) by linear interpolation
    /// within the bucket containing the target rank — the same scheme
    /// Prometheus's `histogram_quantile` uses, sharpened with the
    /// tracked min/max: the first bucket's lower edge is the observed
    /// minimum (not 0) and the overflow bucket's upper edge is the
    /// observed maximum (not +Inf). Returns 0.0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> f64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let target = q.clamp(0.0, 1.0) * total as f64;
        let mut cum = 0.0;
        for (i, &c) in counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = cum + c as f64;
            if next >= target {
                let lower = if i == 0 {
                    min
                } else {
                    self.bounds[i - 1].max(min)
                };
                let upper = if i == self.bounds.len() {
                    max
                } else {
                    self.bounds[i].min(max)
                };
                if upper <= lower {
                    return lower.clamp(min, max);
                }
                let frac = ((target - cum) / c as f64).clamp(0.0, 1.0);
                return (lower + (upper - lower) * frac).clamp(min, max);
            }
            cum = next;
        }
        max
    }

    /// Median estimate (bucket-interpolated).
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate (bucket-interpolated).
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// Per-bucket counts (not cumulative), one per bound plus the
    /// overflow bucket.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn to_json(&self) -> Value {
        let n = self.count();
        let mut obj = json!({
            "count": n,
            "sum": self.sum(),
            "bounds": self.bounds,
            "buckets": self.bucket_counts(),
        });
        if n > 0 {
            obj["mean"] = self.mean().into();
            obj["min"] = f64::from_bits(self.min_bits.load(Ordering::Relaxed)).into();
            obj["max"] = f64::from_bits(self.max_bits.load(Ordering::Relaxed)).into();
            obj["p50"] = self.p50().into();
            obj["p99"] = self.p99().into();
        }
        obj
    }
}

fn update_extreme(cell: &AtomicU64, value: f64, better: impl Fn(f64, f64) -> bool) {
    let mut current = cell.load(Ordering::Relaxed);
    while better(value, f64::from_bits(current)) {
        match cell.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// Standard bucket ladders.
pub mod buckets {
    /// Seconds: 1 µs … ~100 s, roughly ×4 per step. Fits everything from
    /// a force-loop step to a full MD segment.
    pub const SECONDS: &[f64] = &[
        1e-6, 4e-6, 1.6e-5, 6.4e-5, 2.56e-4, 1.024e-3, 4.096e-3, 1.6384e-2, 6.5536e-2, 0.262144,
        1.048576, 4.194304, 16.777216, 67.108864,
    ];
    /// Nanoseconds per step: 10 ns … ~100 ms.
    pub const NANOS: &[f64] = &[1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];
}

/// The registry: a named, labelled map of metrics. Cloning shares state.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<Mutex<BTreeMap<(String, Labels), MetricSlot>>>,
}

enum MetricSlot {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Registry {
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Get or create a counter. Panics if the name+labels already exist
    /// as a different metric kind (a wiring bug, never data-dependent).
    pub fn counter(&self, name: &str, labels: Labels) -> Arc<Counter> {
        let mut map = self.inner.lock().unwrap();
        let slot = map
            .entry((name.to_string(), labels))
            .or_insert_with(|| MetricSlot::Counter(Arc::new(Counter::default())));
        match slot {
            MetricSlot::Counter(c) => c.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    pub fn gauge(&self, name: &str, labels: Labels) -> Arc<Gauge> {
        let mut map = self.inner.lock().unwrap();
        let slot = map
            .entry((name.to_string(), labels))
            .or_insert_with(|| MetricSlot::Gauge(Arc::new(Gauge::default())));
        match slot {
            MetricSlot::Gauge(g) => g.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    pub fn histogram(&self, name: &str, labels: Labels, bounds: &[f64]) -> Arc<Histogram> {
        let mut map = self.inner.lock().unwrap();
        let slot = map
            .entry((name.to_string(), labels))
            .or_insert_with(|| MetricSlot::Histogram(Arc::new(Histogram::new(bounds))));
        match slot {
            MetricSlot::Histogram(h) => h.clone(),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Sum a counter across all label sets with the given name.
    pub fn counter_total(&self, name: &str) -> u64 {
        let map = self.inner.lock().unwrap();
        map.iter()
            .filter(|((n, _), _)| n == name)
            .filter_map(|(_, slot)| match slot {
                MetricSlot::Counter(c) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    /// Look up an existing histogram without creating it.
    pub fn find_histogram(&self, name: &str, labels: &Labels) -> Option<Arc<Histogram>> {
        let map = self.inner.lock().unwrap();
        match map.get(&(name.to_string(), labels.clone())) {
            Some(MetricSlot::Histogram(h)) => Some(h.clone()),
            _ => None,
        }
    }

    /// Deterministic JSON snapshot: an array of metric objects sorted by
    /// (name, labels).
    pub fn snapshot(&self) -> Value {
        let map = self.inner.lock().unwrap();
        let mut metrics = Vec::with_capacity(map.len());
        for ((name, labels), slot) in map.iter() {
            let mut obj = match slot {
                MetricSlot::Counter(c) => json!({"type": "counter", "value": c.get()}),
                MetricSlot::Gauge(g) => json!({"type": "gauge", "value": g.get()}),
                MetricSlot::Histogram(h) => {
                    let mut obj = json!({"type": "histogram"});
                    obj["histogram"] = h.to_json();
                    obj
                }
            };
            obj["name"] = name.as_str().into();
            if !labels.is_empty() {
                obj["labels"] = labels.to_json();
            }
            metrics.push(obj);
        }
        let mut root = json!({});
        root["metrics"] = Value::Array(metrics);
        root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counter_concurrency_exact_total() {
        let reg = Registry::new();
        let c = reg.counter("ops", Labels::new());
        let n_threads = 8;
        let per_thread = 10_000;
        let handles: Vec<_> = (0..n_threads)
            .map(|_| {
                let c = c.clone();
                thread::spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get(), n_threads * per_thread);
        // Same handle from the registry.
        assert_eq!(
            reg.counter("ops", Labels::new()).get(),
            n_threads * per_thread
        );
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        // le semantics: a value exactly on a bound lands in that bucket.
        h.record(0.5); // bucket 0 (le 1)
        h.record(1.0); // bucket 0 (le 1)
        h.record(1.0001); // bucket 1 (le 10)
        h.record(10.0); // bucket 1
        h.record(99.9); // bucket 2 (le 100)
        h.record(100.0); // bucket 2
        h.record(1e6); // overflow bucket
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 1]);
        assert_eq!(h.count(), 7);
        assert!((h.sum() - (0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 1e6)).abs() < 0.01);
    }

    #[test]
    fn histogram_concurrent_counts() {
        let reg = Registry::new();
        let h = reg.histogram("lat", Labels::new(), buckets::SECONDS);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let h = h.clone();
                thread::spawn(move || {
                    for j in 0..5_000u64 {
                        h.record(1e-6 * (1 + (i + j) % 100) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(h.count(), 20_000);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 20_000);
    }

    #[test]
    fn quantile_empty_histogram_is_zero() {
        let h = Histogram::new(&[1.0, 10.0]);
        assert_eq!(h.quantile(0.5), 0.0);
        assert_eq!(h.p99(), 0.0);
    }

    #[test]
    fn quantile_single_observation_is_exact() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        h.record(7.0);
        // min == max == 7 pins both bucket edges.
        assert_eq!(h.p50(), 7.0);
        assert_eq!(h.p99(), 7.0);
        assert_eq!(h.quantile(0.0), 7.0);
        assert_eq!(h.quantile(1.0), 7.0);
    }

    #[test]
    fn quantile_interpolates_within_bucket() {
        let h = Histogram::new(&[0.0, 10.0, 20.0]);
        // 10 values spread through (0, 10]: ranks land mid-bucket.
        for i in 1..=10 {
            h.record(i as f64);
        }
        let p50 = h.p50();
        // Target rank 5 of 10 in a bucket spanning [1, 10] (min-sharpened
        // lower edge): linear interpolation gives 1 + 9 * 0.5 = 5.5.
        assert!((p50 - 5.5).abs() < 1e-9, "p50 = {p50}");
        let p90 = h.quantile(0.9);
        assert!((p90 - 9.1).abs() < 1e-9, "p90 = {p90}");
        assert!(h.p99() <= 10.0);
        assert!(h.p99() >= p90);
    }

    #[test]
    fn quantile_spans_buckets_monotonically() {
        let h = Histogram::new(&[1e-3, 1e-2, 1e-1, 1.0]);
        for _ in 0..90 {
            h.record(5e-3); // bucket (1e-3, 1e-2]
        }
        for _ in 0..10 {
            h.record(0.5); // bucket (1e-1, 1.0]
        }
        let p50 = h.p50();
        assert!(p50 > 1e-3 && p50 <= 1e-2, "p50 = {p50}");
        let p99 = h.p99();
        assert!(p99 > 1e-1 && p99 <= 0.5, "p99 = {p99}");
        // Quantiles never decrease in q.
        let qs: Vec<f64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1] + 1e-12), "{qs:?}");
    }

    #[test]
    fn quantile_overflow_bucket_clamped_to_observed_max() {
        let h = Histogram::new(&[1.0]);
        h.record(0.5);
        h.record(5000.0); // overflow bucket, no finite upper bound
        let p99 = h.p99();
        assert!(p99 <= 5000.0, "p99 = {p99}");
        assert!(p99 > 1.0, "p99 = {p99}");
        assert_eq!(h.quantile(1.0), 5000.0);
    }

    #[test]
    fn labels_sorted_and_deduped() {
        let l = labels(&[("b", "2"), ("a", "1"), ("b", "3")]);
        let pairs: Vec<_> = l.iter().collect();
        assert_eq!(pairs, vec![("a", "1"), ("b", "3")]);
    }

    #[test]
    fn snapshot_is_deterministic_json() {
        let reg = Registry::new();
        reg.counter("z_last", Labels::new()).add(3);
        reg.counter("a_first", labels(&[("kind", "mdrun")])).add(1);
        reg.gauge("depth", Labels::new()).set(2.0);
        reg.histogram("lat", Labels::new(), &[1.0, 2.0]).record(1.5);
        let snap = reg.snapshot();
        let text = format!("{snap:#}");
        let again = format!("{:#}", reg.snapshot());
        assert_eq!(text, again);
        let parsed: Value = serde_json::from_str(&text).unwrap();
        let metrics = parsed["metrics"].as_array().unwrap();
        assert_eq!(metrics.len(), 4);
        // Sorted by name.
        assert_eq!(metrics[0]["name"].as_str(), Some("a_first"));
        assert_eq!(metrics[3]["name"].as_str(), Some("z_last"));
    }

    #[test]
    fn counter_total_sums_across_labels() {
        let reg = Registry::new();
        reg.counter("bytes", labels(&[("level", "cluster")]))
            .add(10);
        reg.counter("bytes", labels(&[("level", "overlay")]))
            .add(32);
        assert_eq!(reg.counter_total("bytes"), 42);
        // Each label set kept its own series.
        let level = |l| reg.counter("bytes", labels(&[("level", l)])).get();
        assert_eq!((level("cluster"), level("overlay")), (10, 32));
    }
}
