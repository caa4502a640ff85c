//! The metrics registry: counters, gauges, and fixed-bucket histograms.

use std::collections::BTreeMap;

/// A fixed-bucket histogram: `bounds` are upper bucket edges, `counts` has
/// one slot per bound plus a final overflow slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    count: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given upper bucket edges.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is not strictly increasing.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            sum: 0.0,
            count: 0,
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        let slot = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[slot] += 1;
        self.sum += value;
        self.count += 1;
    }

    /// Upper bucket edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last slot counts observations above every edge.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, or zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Estimates the `p`-quantile (`p` in `[0, 1]`, clamped) by linear
    /// interpolation inside the fixed buckets — the standard Prometheus
    /// `histogram_quantile` scheme, fully deterministic for a given bucket
    /// layout and record sequence.
    ///
    /// The first bucket interpolates from zero (bandwidths and latencies
    /// are non-negative); a quantile landing in the overflow bucket clamps
    /// to the last edge, the largest value the layout can resolve. Returns
    /// zero when the histogram is empty.
    pub fn quantile(&self, p: f64) -> f64 {
        if self.count == 0 || self.bounds.is_empty() {
            return 0.0;
        }
        let p = p.clamp(0.0, 1.0);
        let target = p * self.count as f64;
        let mut cum = 0.0;
        for (i, &c) in self.counts.iter().enumerate() {
            let next = cum + c as f64;
            if next >= target && c > 0 {
                if i == self.counts.len() - 1 {
                    // Overflow bucket: unbounded above, clamp to last edge.
                    return self.bounds[self.bounds.len() - 1];
                }
                let lo = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let frac = (target - cum) / c as f64;
                return lo + frac * (hi - lo);
            }
            cum = next;
        }
        self.bounds[self.bounds.len() - 1]
    }

    /// Median estimate — `quantile(0.5)`.
    pub fn p50(&self) -> f64 {
        self.quantile(0.5)
    }

    /// 99th-percentile estimate — `quantile(0.99)`.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate — `quantile(0.999)`, for tail-latency
    /// reporting. Like every quantile it saturates at the last bucket edge
    /// when the mass lands in the overflow bucket.
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }
}

/// Named counters, gauges, and histograms, each kept in sorted order so
/// exports are deterministic.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to a counter, creating it at zero first.
    ///
    /// The accumulation is a plain `+=` so a counter mirroring another f64
    /// accumulator (e.g. `TraceRecorder`'s per-kind traffic map) stays
    /// bit-identical to it when fed the same increments in the same order.
    pub fn counter_add(&mut self, name: &str, delta: f64) {
        // Look up before inserting: only a new counter allocates its name.
        match self.counters.get_mut(name) {
            Some(c) => *c += delta,
            None => *self.counters.entry(name.to_string()).or_insert(0.0) += delta,
        }
    }

    /// Reads a counter; zero when never incremented.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// All counters in name order.
    pub fn counters(&self) -> &BTreeMap<String, f64> {
        &self.counters
    }

    /// Sets a gauge (last write wins).
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Reads a gauge; `None` when never set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All gauges in name order.
    pub fn gauges(&self) -> &BTreeMap<String, f64> {
        &self.gauges
    }

    /// Records into a histogram, creating it with `bounds` on first use.
    pub fn histogram_record(&mut self, name: &str, bounds: &[f64], value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds))
            .record(value);
    }

    /// All histograms in name order.
    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::new(&[1.0, 4.0, 16.0]);
        for v in [0.5, 1.0, 3.0, 20.0] {
            h.record(v);
        }
        // `<=` edges: 0.5 and 1.0 land in the first bucket.
        assert_eq!(h.counts(), &[2, 1, 0, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.mean() - 24.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        Histogram::new(&[4.0, 1.0]);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[10.0, 20.0, 40.0]);
        // 10 values in (0,10], 10 in (10,20]: p50 sits exactly on the
        // first edge, p75 halfway through the second bucket.
        for _ in 0..10 {
            h.record(5.0);
        }
        for _ in 0..10 {
            h.record(15.0);
        }
        assert!((h.p50() - 10.0).abs() < 1e-12);
        assert!((h.quantile(0.75) - 15.0).abs() < 1e-12);
        assert!((h.quantile(0.9) - 18.0).abs() < 1e-12);
        assert!((h.p99() - 19.8).abs() < 1e-12);
    }

    #[test]
    fn quantiles_clamp_overflow_and_empty() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        assert_eq!(h.p50(), 0.0); // empty
        h.record(100.0); // overflow bucket
        assert_eq!(h.p50(), 2.0); // clamped to last edge
        assert_eq!(h.quantile(-1.0), 2.0); // p clamps into [0,1]
    }

    #[test]
    fn p999_interpolates_and_saturates_in_the_top_bucket() {
        // Enough mass in the overflow bucket that the 99.9th percentile
        // lands there: it must saturate at the last edge (the largest value
        // the layout can resolve) rather than extrapolate past it.
        let mut h = Histogram::new(&[10.0, 100.0, 1_000.0]);
        for _ in 0..900 {
            h.record(5.0);
        }
        for _ in 0..100 {
            h.record(1_000_000.0);
        }
        assert_eq!(h.p999(), 1_000.0);

        // With all mass in the first bucket the accessor interpolates like
        // its siblings: 0.999 of the way through [0, 10).
        let mut h = Histogram::new(&[10.0, 100.0]);
        for _ in 0..1_000 {
            h.record(5.0);
        }
        assert!((h.p999() - 9.99).abs() < 1e-9);
        assert!(h.p999() >= h.p99());
    }

    #[test]
    fn quantiles_are_deterministic_across_runs() {
        let build = || {
            let mut h = Histogram::new(&[1.0, 2.0, 4.0, 8.0]);
            for i in 0..100u32 {
                h.record(f64::from(i % 9) * 0.9);
            }
            h
        };
        let (a, b) = (build(), build());
        assert_eq!(a.p50().to_bits(), b.p50().to_bits());
        assert_eq!(a.quantile(0.9).to_bits(), b.quantile(0.9).to_bits());
        assert_eq!(a.p99().to_bits(), b.p99().to_bits());
    }

    #[test]
    fn counters_accumulate_exactly() {
        let mut m = MetricsRegistry::new();
        let mut shadow = 0.0_f64;
        for x in [0.1, 0.7, 1e9, 3.3] {
            m.counter_add("bytes", x);
            shadow += x;
        }
        // Bit-identical, not merely approximately equal.
        assert_eq!(m.counter("bytes").to_bits(), shadow.to_bits());
        assert_eq!(m.counter("missing"), 0.0);
    }

    #[test]
    fn registry_iterates_in_name_order() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("z", 1.0);
        m.gauge_set("a", 2.0);
        let names: Vec<&String> = m.gauges().keys().collect();
        assert_eq!(names, ["a", "z"]);
    }
}
