//! Lock-free metric primitives: counters, gauges, and log-scale histograms.
//!
//! Handles are cheap `Arc` clones around atomics, so hot loops — including
//! the scoped-thread workers in `parallel.rs` and the evaluator — record
//! without taking any lock. The registry mutex is touched only at
//! handle-creation time (`Telemetry::counter(..)` etc.), never per record.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i)` — fixed log₂-scale buckets covering all of
/// `u64`.
pub const N_BUCKETS: usize = 65;

/// A monotonically increasing counter. Disabled handles (from a disabled
/// [`crate::Telemetry`]) are free: `add` is a branch on a `None`.
#[derive(Debug, Clone, Default)]
pub struct Counter(pub(crate) Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds `n` to the counter (relaxed; counters are aggregates, not
    /// synchronization points).
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value (0 for disabled handles).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| c.load(Ordering::Relaxed))
    }
}

/// A last-value-wins gauge storing an `f64` (as raw bits in an atomic).
#[derive(Debug, Clone, Default)]
pub struct Gauge(pub(crate) Option<Arc<AtomicU64>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 for disabled handles).
    pub fn get(&self) -> f64 {
        self.0.as_ref().map_or(0.0, |g| f64::from_bits(g.load(Ordering::Relaxed)))
    }
}

/// Shared histogram state: fixed log₂ buckets plus exact count/sum/max.
#[derive(Debug)]
pub struct HistogramCore {
    pub(crate) buckets: [AtomicU64; N_BUCKETS],
    pub(crate) count: AtomicU64,
    pub(crate) sum: AtomicU64,
    pub(crate) max: AtomicU64,
}

impl HistogramCore {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Index of the log₂ bucket for `v`: 0 for 0, else `floor(log2 v) + 1`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Lower bound (inclusive) of bucket `i`.
pub fn bucket_lower(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << (i - 1)
    }
}

/// A log-scale histogram of `u64` samples (typically microseconds or byte
/// counts). Recording is three relaxed atomic RMWs — safe and contention-
/// tolerant from any number of threads.
#[derive(Debug, Clone, Default)]
pub struct Histogram(pub(crate) Option<Arc<HistogramCore>>);

impl Histogram {
    /// An always-recording histogram that belongs to no registry and so
    /// never appears in a snapshot or exposition — for measuring a
    /// distribution without a [`crate::Telemetry`] handle.
    pub fn standalone() -> Self {
        Histogram(Some(Arc::new(HistogramCore::new())))
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            h.count.fetch_add(1, Ordering::Relaxed);
            h.sum.fetch_add(v, Ordering::Relaxed);
            h.max.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// True when this handle actually records (i.e. telemetry is enabled).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Approximate quantile of the current contents (see
    /// [`HistogramSnapshot::quantile`]). Convenience over `snapshot()`
    /// for single-quantile reads; take one snapshot when reading several.
    pub fn quantile(&self, q: f64) -> u64 {
        self.snapshot().quantile(q)
    }

    /// A point-in-time snapshot of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        match &self.0 {
            None => HistogramSnapshot::default(),
            Some(h) => {
                let buckets: Vec<u64> =
                    h.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect();
                HistogramSnapshot {
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                    max: h.max.load(Ordering::Relaxed),
                    buckets,
                }
            }
        }
    }
}

/// A consistent-enough view of a histogram for reporting.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts (see [`bucket_index`]).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in [0, 1]) from the log buckets: returns
    /// the midpoint of the bucket containing the q-th sample. Exact for the
    /// bucket, a ≤2× estimate within it — enough to spot tail behavior.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                if i == 0 {
                    return 0;
                }
                let lo = bucket_lower(i);
                // Midpoint of [2^(i-1), 2^i), capped by the observed max.
                return (lo + lo / 2).min(self.max);
            }
        }
        self.max
    }

    /// The standard latency-SLO triple (p50, p95, p99) in one call.
    pub fn percentiles(&self) -> (u64, u64, u64) {
        (self.quantile(0.5), self.quantile(0.95), self.quantile(0.99))
    }
}

/// The metric registry: name → handle, created lazily. Lookup takes the
/// mutex; recording through the returned handles does not.
#[derive(Debug, Default)]
pub struct Registry {
    counters: std::sync::Mutex<Vec<(&'static str, Arc<AtomicU64>)>>,
    gauges: std::sync::Mutex<Vec<(&'static str, Arc<AtomicU64>)>>,
    histograms: std::sync::Mutex<Vec<(&'static str, Arc<HistogramCore>)>>,
}

impl Registry {
    pub(crate) fn counter(&self, name: &'static str) -> Arc<AtomicU64> {
        let mut v = self.counters.lock().expect("counter registry poisoned");
        if let Some((_, c)) = v.iter().find(|(n, _)| *n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(AtomicU64::new(0));
        v.push((name, Arc::clone(&c)));
        c
    }

    pub(crate) fn gauge(&self, name: &'static str) -> Arc<AtomicU64> {
        let mut v = self.gauges.lock().expect("gauge registry poisoned");
        if let Some((_, g)) = v.iter().find(|(n, _)| *n == name) {
            return Arc::clone(g);
        }
        let g = Arc::new(AtomicU64::new(0));
        v.push((name, Arc::clone(&g)));
        g
    }

    pub(crate) fn histogram(&self, name: &'static str) -> Arc<HistogramCore> {
        let mut v = self.histograms.lock().expect("histogram registry poisoned");
        if let Some((_, h)) = v.iter().find(|(n, _)| *n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(HistogramCore::new());
        v.push((name, Arc::clone(&h)));
        h
    }

    /// Snapshots every registered metric, in registration order.
    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(n, c)| (*n, c.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(n, g)| (*n, f64::from_bits(g.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(n, h)| (*n, Histogram(Some(Arc::clone(h))).snapshot()))
            .collect();
        MetricsSnapshot { counters, gauges, histograms }
    }
}

/// All metric values at one point in time.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter name → value.
    pub counters: Vec<(&'static str, u64)>,
    /// Gauge name → value.
    pub gauges: Vec<(&'static str, f64)>,
    /// Histogram name → snapshot.
    pub histograms: Vec<(&'static str, HistogramSnapshot)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_log2_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(1 << 20), 21);
        assert_eq!(bucket_index((1 << 20) - 1), 20);
        assert_eq!(bucket_index(u64::MAX), 64);
        // Every bucket's lower bound maps back into that bucket.
        for i in 1..N_BUCKETS {
            assert_eq!(bucket_index(bucket_lower(i)), i, "bucket {i}");
        }
    }

    #[test]
    fn histogram_tracks_count_sum_max_and_quantiles() {
        let h = Histogram(Some(Arc::new(HistogramCore::new())));
        for v in [0u64, 1, 1, 2, 100, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 6);
        assert_eq!(s.sum, 1104);
        assert_eq!(s.max, 1000);
        assert!((s.mean() - 184.0).abs() < 1.0);
        // Median lands in the bucket of the 3rd sample (value 1, bucket 1).
        assert_eq!(s.quantile(0.5), 1);
        // The top quantile lands in 1000's bucket [512, 1024) → midpoint
        // 768, capped at max.
        let q99 = s.quantile(0.99);
        assert!((512..=1000).contains(&q99), "q99 {q99}");
        assert_eq!(s.quantile(0.0), 0);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let s = Histogram(Some(Arc::new(HistogramCore::new()))).snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.99), 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn disabled_handles_are_inert() {
        let c = Counter::default();
        c.add(5);
        assert_eq!(c.get(), 0);
        let g = Gauge::default();
        g.set(3.5);
        assert_eq!(g.get(), 0.0);
        let h = Histogram::default();
        h.record(9);
        assert_eq!(h.snapshot().count, 0);
        assert!(!h.is_enabled());
    }

    #[test]
    fn registry_deduplicates_by_name() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.fetch_add(2, Ordering::Relaxed);
        assert_eq!(b.load(Ordering::Relaxed), 2);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("x", 2)]);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        // The lock-free claim: N threads hammering the same counter and
        // histogram through shared handles must account for every record.
        let r = Registry::default();
        let c = Counter(Some(r.counter("hits")));
        let h = Histogram(Some(r.histogram("lat")));
        const THREADS: usize = 8;
        const PER: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = c.clone();
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..PER {
                        c.incr();
                        h.record((t as u64) * 1000 + i % 7);
                    }
                });
            }
        });
        assert_eq!(c.get(), THREADS as u64 * PER);
        let s = h.snapshot();
        assert_eq!(s.count, THREADS as u64 * PER);
        assert_eq!(s.buckets.iter().sum::<u64>(), s.count);
    }
}
