//! Metrics registry: counters, gauges and fixed-bucket histograms, all
//! `BTreeMap`-backed so every iteration order (and thus every exporter
//! byte) is deterministic.

use crate::snap::{Snap, SnapError, SnapReader, SnapWriter};
use crate::snap_struct;
use std::collections::BTreeMap;

/// Default bucket upper bounds (milliseconds) for latency histograms.
/// Chosen to resolve both LAN-scale sim RTTs (1–100 ms) and the crawler's
/// stage deadlines (10–60 s). A `+Inf` bucket is always appended.
pub const DEFAULT_LATENCY_BOUNDS_MS: [u64; 15] = [
    1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 60_000,
];

/// Fixed-bucket histogram over `u64` samples (milliseconds by
/// convention). Buckets are *non-cumulative* internally; the Prometheus
/// renderer emits the conventional cumulative `le` form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    bounds: Vec<u64>,
    /// bucket_counts.len() == bounds.len() + 1; the final slot is +Inf.
    bucket_counts: Vec<u64>,
    sum: u64,
    count: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(&DEFAULT_LATENCY_BOUNDS_MS)
    }
}

impl Histogram {
    /// Histogram with the given upper bounds (must be strictly
    /// increasing; a `+Inf` overflow bucket is added automatically).
    pub fn new(bounds: &[u64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]));
        Histogram {
            bounds: bounds.to_vec(),
            bucket_counts: vec![0; bounds.len() + 1],
            sum: 0,
            count: 0,
            max: 0,
        }
    }

    /// Record one sample. A sample lands in the first bucket whose upper
    /// bound is `>= v` (Prometheus `le` semantics), else in `+Inf`.
    pub fn observe(&mut self, v: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.bucket_counts[idx] += 1;
        self.sum += v;
        self.count += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Bucket upper bounds (without `+Inf`).
    pub fn bounds(&self) -> &[u64] {
        &self.bounds
    }

    /// Per-bucket (non-cumulative) counts; the final entry is `+Inf`.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.bucket_counts
    }

    /// Approximate quantile (`0.0..=1.0`): the upper bound of the first
    /// bucket at which the cumulative count reaches `q * count`. Samples
    /// beyond the last bound report the observed max. Returns `None` on
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Ceil without floats on the rank itself: rank in 1..=count.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.bucket_counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }
}

/// Image: `n`-prefixed bounds, then the `n + 1` bucket counts with no
/// prefix of their own, then `sum`, `count`, `max`.
impl Snap for Histogram {
    fn snap(&self, w: &mut SnapWriter) {
        self.bounds.snap(w);
        for c in &self.bucket_counts {
            c.snap(w);
        }
        self.sum.snap(w);
        self.count.snap(w);
        self.max.snap(w);
    }

    fn unsnap(r: &mut SnapReader<'_>) -> Result<Histogram, SnapError> {
        let bounds = Vec::<u64>::unsnap(r)?;
        if !bounds.windows(2).all(|w| w[0] < w[1]) {
            return Err(SnapError::Corrupt(
                "histogram bounds not strictly increasing",
            ));
        }
        let mut bucket_counts = Vec::with_capacity(bounds.len() + 1);
        for _ in 0..=bounds.len() {
            bucket_counts.push(r.u64()?);
        }
        let h = Histogram {
            bounds,
            bucket_counts,
            sum: r.u64()?,
            count: r.u64()?,
            max: r.u64()?,
        };
        if h.bucket_counts
            .iter()
            .try_fold(0u64, |a, c| a.checked_add(*c))
            != Some(h.count)
        {
            return Err(SnapError::Corrupt(
                "histogram bucket total disagrees with count",
            ));
        }
        Ok(h)
    }
}

/// Registry of named metrics. Names use dotted paths
/// (`crawler.stage.connect_ms`); the Prometheus renderer maps them to
/// `crawler_stage_connect_ms`.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
    histograms: BTreeMap<String, Histogram>,
}

snap_struct!(MetricsRegistry {
    counters,
    gauges,
    histograms
});

impl MetricsRegistry {
    pub fn counter_add(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    pub fn gauge_set(&mut self, name: &str, v: u64) {
        self.gauges.insert(name.to_string(), v);
    }

    pub fn gauge_max(&mut self, name: &str, v: u64) {
        let g = self.gauges.entry(name.to_string()).or_insert(0);
        *g = (*g).max(v);
    }

    pub fn observe(&mut self, name: &str, v: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    pub fn gauges(&self) -> &BTreeMap<String, u64> {
        &self.gauges
    }

    pub fn histograms(&self) -> &BTreeMap<String, Histogram> {
        &self.histograms
    }

    /// Render the whole registry in Prometheus text exposition format.
    /// Deterministic: metrics sort by name (BTreeMap order), values are
    /// integers, and histogram buckets emit cumulatively with a final
    /// `+Inf` bucket plus `_sum` / `_count` series.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {v}\n"));
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {v}\n"));
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            out.push_str(&format!("# TYPE {n} histogram\n"));
            let mut cum = 0u64;
            for (i, &c) in h.bucket_counts.iter().enumerate() {
                cum += c;
                if i < h.bounds.len() {
                    out.push_str(&format!("{n}_bucket{{le=\"{}\"}} {cum}\n", h.bounds[i]));
                } else {
                    out.push_str(&format!("{n}_bucket{{le=\"+Inf\"}} {cum}\n"));
                }
            }
            out.push_str(&format!("{n}_sum {}\n{n}_count {}\n", h.sum, h.count));
        }
        out
    }
}

/// Map a dotted metric name to a Prometheus-legal one.
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries_are_le() {
        let mut h = Histogram::new(&[10, 20]);
        h.observe(0);
        h.observe(10); // le="10": boundary sample included
        h.observe(11);
        h.observe(20);
        h.observe(21); // +Inf
        assert_eq!(h.bucket_counts(), &[2, 2, 1]);
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 62);
        assert_eq!(h.max(), 21);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new(&[10, 20, 40]);
        for v in [1, 2, 3, 15, 35, 100] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(10));
        assert_eq!(h.quantile(0.5), Some(10)); // 3 of 6 samples <= 10
        assert_eq!(h.quantile(0.66), Some(20));
        assert_eq!(h.quantile(0.83), Some(40));
        assert_eq!(h.quantile(1.0), Some(100)); // +Inf bucket: report max
        assert_eq!(Histogram::default().quantile(0.5), None);
    }

    #[test]
    fn default_bounds_cover_stage_deadlines() {
        let h = Histogram::default();
        assert_eq!(h.bounds().first(), Some(&1));
        assert_eq!(h.bounds().last(), Some(&60_000));
        assert!(h.bounds().windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn registry_counter_gauge_semantics() {
        let mut m = MetricsRegistry::default();
        m.counter_add("a.b", 1);
        m.counter_add("a.b", 2);
        m.gauge_set("g", 10);
        m.gauge_set("g", 3); // set overwrites
        m.gauge_max("hw", 5);
        m.gauge_max("hw", 2); // max keeps high-water mark
        assert_eq!(m.counter("a.b"), 3);
        assert_eq!(m.gauge("g"), 3);
        assert_eq!(m.gauge("hw"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn prometheus_rendering_shape() {
        let mut m = MetricsRegistry::default();
        m.counter_add("net.udp.sent", 4);
        m.gauge_set("queue.depth", 9);
        m.observe("lat.ms", 3);
        let text = m.render_prometheus();
        assert!(text.contains("# TYPE net_udp_sent counter\nnet_udp_sent 4\n"));
        assert!(text.contains("# TYPE queue_depth gauge\nqueue_depth 9\n"));
        assert!(text.contains("# TYPE lat_ms histogram\n"));
        assert!(text.contains("lat_ms_bucket{le=\"+Inf\"} 1\n"));
        assert!(text.contains("lat_ms_sum 3\nlat_ms_count 1\n"));
    }
}
