//! Prometheus-style text exposition: `name{label="value"} value` lines
//! rendered from a registry snapshot, so a scrape of the serving layer (or
//! any process holding a [`crate::Telemetry`]) needs no client library.
//!
//! The format follows the Prometheus text conventions close enough for
//! standard scrapers and for `grep`:
//!
//! ```text
//! # TYPE logirec_serve_requests_total counter
//! logirec_serve_requests_total 42
//! # TYPE logirec_serve_exact_latency_us summary
//! logirec_serve_exact_latency_us{quantile="0.5"} 184
//! logirec_serve_exact_latency_us{quantile="0.95"} 1536
//! logirec_serve_exact_latency_us{quantile="0.99"} 1536
//! logirec_serve_exact_latency_us_sum 2210
//! logirec_serve_exact_latency_us_count 12
//! ```
//!
//! Names are sanitized to `[a-zA-Z0-9_:]` (dots in registry names become
//! underscores). The serving layer renders one registry, which holds each
//! name once, so each family appears once: counters first, then gauges,
//! then histograms, each kind in registration order.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot};

/// The quantiles every histogram family exposes.
pub const QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")];

/// An in-progress exposition document. Build with the typed appenders,
/// then [`Exposition::render`].
#[derive(Debug, Default)]
pub struct Exposition {
    out: String,
}

/// Sanitizes a metric name: every byte outside `[a-zA-Z0-9_:]` becomes
/// `_`, and a leading digit is prefixed with `_`.
pub fn metric_name(raw: &str) -> String {
    let mut out = String::with_capacity(raw.len() + 1);
    for (i, c) in raw.chars().enumerate() {
        let ok = c.is_ascii_alphanumeric() || c == '_' || c == ':';
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok { c } else { '_' });
    }
    out
}

/// Formats a value the way Prometheus expects: integers without a
/// fraction, floats with shortest round-trip formatting, non-finite as
/// `NaN`/`+Inf`/`-Inf`.
fn fmt_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v.is_infinite() {
        if v > 0.0 { "+Inf".to_string() } else { "-Inf".to_string() }
    } else if v.fract() == 0.0 && v.abs() < 2f64.powi(53) {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

impl Exposition {
    /// An empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a counter family. `_total` is appended to the name unless
    /// already present (Prometheus counter convention).
    pub fn counter(&mut self, name: &str, v: u64) {
        let mut family = metric_name(name);
        if !family.ends_with("_total") {
            family.push_str("_total");
        }
        self.out.push_str(&format!("# TYPE {family} counter\n{family} {v}\n"));
    }

    /// Appends a gauge family.
    pub fn gauge(&mut self, name: &str, v: f64) {
        let family = metric_name(name);
        self.out.push_str(&format!("# TYPE {family} gauge\n{family} {}\n", fmt_value(v)));
    }

    /// Appends a histogram as a summary family: one `{quantile="…"}` line
    /// per entry of [`QUANTILES`], plus `_sum`, `_count`, and `_max`.
    pub fn summary(&mut self, name: &str, h: &HistogramSnapshot) {
        let family = metric_name(name);
        self.out.push_str(&format!("# TYPE {family} summary\n"));
        for (q, label) in QUANTILES {
            self.out.push_str(&format!(
                "{family}{{quantile=\"{label}\"}} {}\n",
                h.quantile(q)
            ));
        }
        self.out.push_str(&format!("{family}_sum {}\n", h.sum));
        self.out.push_str(&format!("{family}_count {}\n", h.count));
        self.out.push_str(&format!("{family}_max {}\n", h.max));
    }

    /// Appends every metric of a registry snapshot, each name prefixed
    /// with `prefix` (pass `"logirec_"` for the standard namespace).
    pub fn snapshot(&mut self, prefix: &str, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            self.counter(&format!("{prefix}{name}"), *v);
        }
        for (name, v) in &snap.gauges {
            self.gauge(&format!("{prefix}{name}"), *v);
        }
        for (name, h) in &snap.histograms {
            self.summary(&format!("{prefix}{name}"), h);
        }
    }

    /// The finished exposition text.
    pub fn render(self) -> String {
        self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> HistogramSnapshot {
        let h = crate::Histogram::standalone();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn sanitizes_names() {
        assert_eq!(metric_name("serve.exact_us"), "serve_exact_us");
        assert_eq!(metric_name("9lives"), "_9lives");
        assert_eq!(metric_name("a-b c"), "a_b_c");
    }

    #[test]
    fn counter_gets_total_suffix_once() {
        let mut e = Exposition::new();
        e.counter("serve.requests", 3);
        e.counter("serve.bytes_total", 7);
        let s = e.render();
        assert!(s.contains("# TYPE serve_requests_total counter\nserve_requests_total 3\n"));
        assert!(s.contains("serve_bytes_total 7\n"));
        assert!(!s.contains("total_total"), "{s}");
    }

    #[test]
    fn summary_emits_quantiles_sum_count() {
        let snap = hist(&[1, 1, 2, 100, 1000]);
        let mut e = Exposition::new();
        e.summary("lat.us", &snap);
        let s = e.render();
        assert!(s.contains("# TYPE lat_us summary"));
        assert!(s.contains(&format!("lat_us{{quantile=\"0.5\"}} {}", snap.quantile(0.5))));
        assert!(s.contains(&format!("lat_us{{quantile=\"0.95\"}} {}", snap.quantile(0.95))));
        assert!(s.contains(&format!("lat_us{{quantile=\"0.99\"}} {}", snap.quantile(0.99))));
        assert!(s.contains("lat_us_sum 1104"));
        assert!(s.contains("lat_us_count 5"));
        assert!(s.contains("lat_us_max 1000"));
    }

    #[test]
    fn snapshot_prefixes_and_values_render() {
        let snap = MetricsSnapshot {
            counters: vec![("trainer.steps", 42)],
            gauges: vec![("trainer.lr", 0.125)],
            histograms: vec![("batch_us", hist(&[5, 7]))],
        };
        let mut e = Exposition::new();
        e.snapshot("logirec_", &snap);
        let s = e.render();
        assert!(s.contains("logirec_trainer_steps_total 42"));
        assert!(s.contains("logirec_trainer_lr 0.125"));
        assert!(s.contains("logirec_batch_us_count 2"));
    }

    #[test]
    fn gauge_values_format_cleanly() {
        let mut e = Exposition::new();
        e.gauge("a", 3.0);
        e.gauge("b", f64::NAN);
        e.gauge("c", f64::INFINITY);
        let s = e.render();
        assert!(s.contains("a 3\n"), "{s}");
        assert!(s.contains("b NaN\n"));
        assert!(s.contains("c +Inf\n"));
    }
}
