//! The human-readable summary sink: an aligned text report of span timing
//! aggregates, counters, gauges, and histogram percentiles.

use crate::metrics::MetricsSnapshot;

/// Wall-clock aggregate for one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanAgg {
    /// Closed spans of this kind.
    pub count: u64,
    /// Total time across all spans, µs.
    pub total_us: u64,
    /// Total time minus time spent in same-thread child spans, µs — the
    /// wall time attributable to this span kind itself.
    pub self_us: u64,
    /// Longest single span, µs.
    pub max_us: u64,
}

/// Formats microseconds with an adaptive unit.
pub fn fmt_us(us: u64) -> String {
    let us_f = us as f64;
    if us_f >= 1e6 {
        format!("{:.2}s", us_f / 1e6)
    } else if us_f >= 1e3 {
        format!("{:.2}ms", us_f / 1e3)
    } else {
        format!("{us}µs")
    }
}

/// Attributed fraction of a wall clock: `attributed_us / wall_us`, 0 when
/// the wall is 0.
pub(crate) fn coverage(attributed_us: u64, wall_us: u64) -> f64 {
    if wall_us == 0 {
        0.0
    } else {
        attributed_us as f64 / wall_us as f64
    }
}

/// Renders the span table: one row per kind, hottest (largest self-time)
/// first, each with its self-time's share of `wall_us`, then the attributed
/// total and its coverage of the wall clock. Self-times are disjoint across
/// kinds on one thread, so a healthy instrumented run attributes ≥ 90% of
/// its wall time; concurrent worker-thread spans can push coverage past
/// 100%.
pub fn render_spans(spans: &[(&str, SpanAgg)], wall_us: u64) -> String {
    let mut rows = spans.to_vec();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then_with(|| a.0.cmp(b.0)));
    let pct = |us: u64| 100.0 * coverage(us, wall_us);
    let mut out = format!(
        "{:<24} {:>8} {:>10} {:>10} {:>7} {:>10} {:>10}\n",
        "span", "count", "total", "self", "self%", "mean", "max"
    );
    for (kind, agg) in &rows {
        let mean = agg.total_us.checked_div(agg.count).unwrap_or(0);
        out.push_str(&format!(
            "  {:<22} {:>8} {:>10} {:>10} {:>6.1}% {:>10} {:>10}\n",
            kind,
            agg.count,
            fmt_us(agg.total_us),
            fmt_us(agg.self_us),
            pct(agg.self_us),
            fmt_us(mean),
            fmt_us(agg.max_us)
        ));
    }
    let attributed = rows.iter().map(|(_, agg)| agg.self_us).sum();
    out.push_str(&format!(
        "attributed {} of {} wall ({:.1}% coverage)\n",
        fmt_us(attributed),
        fmt_us(wall_us),
        pct(attributed)
    ));
    out
}

/// Renders the summary table: the span table over `wall_us` (see
/// [`render_spans`]), then counters and gauges in registration order and
/// histogram percentiles.
pub fn render(spans: &[(&str, SpanAgg)], wall_us: u64, metrics: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("== telemetry summary ==\n");
    if !spans.is_empty() {
        out.push_str(&render_spans(spans, wall_us));
    }

    if !metrics.counters.is_empty() {
        out.push_str("counters\n");
        for (name, v) in &metrics.counters {
            out.push_str(&format!("  {name:<30} {v:>12}\n"));
        }
    }
    if !metrics.gauges.is_empty() {
        out.push_str("gauges\n");
        for (name, v) in &metrics.gauges {
            out.push_str(&format!("  {name:<30} {v:>12.6}\n"));
        }
    }
    if !metrics.histograms.is_empty() {
        out.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "histogram", "count", "mean", "p50", "p95", "p99", "max"
        ));
        for (name, h) in &metrics.histograms {
            let (p50, p95, p99) = h.percentiles();
            out.push_str(&format!(
                "  {:<22} {:>8} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                name,
                h.count,
                fmt_us(h.mean() as u64),
                fmt_us(p50),
                fmt_us(p95),
                fmt_us(p99),
                fmt_us(h.max)
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::HistogramSnapshot;

    #[test]
    fn fmt_us_picks_units() {
        assert_eq!(fmt_us(12), "12µs");
        assert_eq!(fmt_us(1_500), "1.50ms");
        assert_eq!(fmt_us(2_500_000), "2.50s");
    }

    #[test]
    fn render_includes_all_sections() {
        let spans =
            vec![("epoch", SpanAgg { count: 3, total_us: 3_000, self_us: 2_000, max_us: 1_500 })];
        let metrics = MetricsSnapshot {
            counters: vec![("trainer.steps", 42)],
            gauges: vec![("trainer.lr_scale", 0.5)],
            histograms: vec![(
                "batch_us",
                HistogramSnapshot { count: 2, sum: 6, max: 4, buckets: vec![0; 65] },
            )],
        };
        let s = render(&spans, 4_000, &metrics);
        assert!(s.contains("epoch"));
        assert!(s.contains("trainer.steps"));
        assert!(s.contains("trainer.lr_scale"));
        assert!(s.contains("batch_us"));
        assert!(s.contains("1.00ms"), "{s}"); // epoch mean
        assert!(s.contains(" 50.0%"), "{s}"); // epoch self over the wall
        assert!(s.contains("(50.0% coverage)"), "{s}");
    }

    #[test]
    fn rows_sort_hottest_first_and_render() {
        let spans = [
            ("epoch", SpanAgg { count: 1, total_us: 100, self_us: 30, max_us: 100 }),
            ("batch", SpanAgg { count: 2, total_us: 70, self_us: 70, max_us: 40 }),
        ];
        let r = render_spans(&spans, 120);
        let batch = r.find("batch").expect("batch row");
        let epoch = r.find("epoch").expect("epoch row");
        assert!(batch < epoch, "hottest first: {r}");
        assert!(r.contains("58.3%") && r.contains("25.0%"), "{r}");
        assert!(r.contains("attributed 100µs of 120µs wall (83.3% coverage)"), "{r}");
    }

    #[test]
    fn render_handles_empty_input() {
        let s = render(&[], 0, &MetricsSnapshot::default());
        assert!(s.contains("telemetry summary"));
    }
}
