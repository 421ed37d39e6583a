//! Order statistics with their sample counts.

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    rank(&sorted, 0.5)
}

/// Quantile of an ascending sample (0 for an empty one): the value at
/// the nearest rank, averaged with its neighbours within n/400 ranks on
/// either side. Durations are whole nanoseconds and cluster, so the
/// bare order statistic of a large sample can come out identical in
/// two runs; the average over a sliver of the distribution does not,
/// and is the same number for every practical purpose. Below 400
/// samples it is the plain nearest-rank value.
pub fn rank(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let k = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
    let w = sorted.len() / 400;
    let sliver = &sorted[k.saturating_sub(w)..=(k + w).min(sorted.len() - 1)];
    sliver.iter().sum::<f64>() / sliver.len() as f64
}

/// A tail statistic together with what supports it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// The percentile `value` is: 0.99 when the sample is large enough,
    /// otherwise the highest rung with ten samples beyond it.
    pub percentile: f64,
    pub n: usize,
}

/// The highest percentile of `values` that still has at least ten
/// samples beyond it — a tail read off fewer is an order statistic of
/// noise. Rungs: p99, p95, p90, p75, p50.
pub fn tail(values: &[f64]) -> Tail {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Integer arithmetic: 100 × (1 − 0.9) is not 10 in floating point.
    let percentile = [99, 95, 90, 75]
        .into_iter()
        .find(|pct| n - (n * pct).div_ceil(100) >= 10)
        .map_or(0.5, |pct| pct as f64 / 100.0);
    Tail {
        value: rank(&sorted, percentile),
        percentile,
        n,
    }
}

/// A uniform sample of at most `cap` items of a stream of any length
/// (Vitter's algorithm R), so that a flood run's hundreds of thousands
/// of observations cost the harness a fixed amount of memory. The
/// generator is a fixed-seed xorshift: which items are kept does not
/// depend on the run.
pub struct Reservoir<T> {
    items: Vec<T>,
    cap: usize,
    seen: u64,
    rng: u64,
}

impl<T> Reservoir<T> {
    pub fn new(cap: usize) -> Reservoir<T> {
        Reservoir {
            items: Vec::new(),
            cap,
            seen: 0,
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    pub fn push(&mut self, item: T) {
        self.seen += 1;
        if self.items.len() < self.cap {
            self.items.push(item);
            return;
        }
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = self.rng % self.seen;
        if (slot as usize) < self.cap {
            self.items[slot as usize] = item;
        }
    }

    pub fn items(&self) -> &[T] {
        &self.items
    }
}

/// Timestamps of every `stride`-th event of a stream, thinned as the
/// stream grows so that at most `cap` are ever held: entry `i` is event
/// number `(i + 1) * stride`.
pub struct StridedLog<T> {
    entries: Vec<T>,
    cap: usize,
    stride: u64,
    count: u64,
}

impl<T: Copy> StridedLog<T> {
    pub fn new(cap: usize) -> StridedLog<T> {
        StridedLog {
            entries: Vec::new(),
            cap,
            stride: 1,
            count: 0,
        }
    }

    pub fn push(&mut self, entry: T) {
        self.count += 1;
        if !self.count.is_multiple_of(self.stride) {
            return;
        }
        self.entries.push(entry);
        if self.entries.len() == self.cap {
            // Keep event numbers 2·stride, 4·stride, …
            self.entries = self.entries.iter().skip(1).step_by(2).copied().collect();
            self.stride *= 2;
        }
    }

    pub fn entries(&self) -> &[T] {
        &self.entries
    }

    pub fn stride(&self) -> u64 {
        self.stride
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_takes_the_highest_rung_with_ten_samples_beyond() {
        let sample = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<f64>>();
        assert_eq!(tail(&sample(1000)).percentile, 0.99);
        assert_eq!(tail(&sample(1000)).value, 990.0);
        assert_eq!(tail(&sample(999)).percentile, 0.95);
        assert_eq!(tail(&sample(100)).percentile, 0.90);
        assert_eq!(tail(&sample(40)).percentile, 0.75);
        assert_eq!(tail(&sample(39)).percentile, 0.5);
        assert_eq!(tail(&[]).value, 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn reservoir_is_bounded_and_keeps_everything_while_it_fits() {
        let mut r = Reservoir::new(8);
        for i in 0..8 {
            r.push(i);
        }
        assert_eq!(r.items(), &[0, 1, 2, 3, 4, 5, 6, 7]);
        for i in 8..10_000 {
            r.push(i);
        }
        assert_eq!(r.items().len(), 8);
        assert!(r.items().iter().any(|&i| i >= 8), "later items get in");
    }

    #[test]
    fn strided_log_thins_but_entries_stay_event_multiples_of_the_stride() {
        let mut log = StridedLog::new(8);
        for event in 1..=100u64 {
            log.push(event);
        }
        assert!(log.entries().len() < 8);
        let stride = log.stride();
        assert!(stride > 1);
        for (i, &event) in log.entries().iter().enumerate() {
            assert_eq!(event, (i as u64 + 1) * stride);
        }
    }
}
