//! `compare A B`: applies the `BENCHMARK.json` bounds to two result sets.
//!
//! A result set is a file of report lines (`run --out FILE` appends one per
//! workload run). For every end-to-end metric × workload it prints each
//! side's median and quartiles, then a verdict:
//!
//! * `unresolved` — either side's quartile spread (IQR / median) exceeds
//!   the metric's bound, so the sets cannot tell a change of that size
//!   from noise (unless every B run reads better than every A run, which
//!   is `improved`);
//! * `regressed` — B's median is worse than A's by more than the bound;
//! * `improved` — B's median is better by more than the bound;
//! * `ok` — otherwise.

use logirec_obs::json::{self, Json};

use crate::report::Report;
use crate::stats::{median, quartiles};

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower values are better.
    pub lower_is_better: bool,
    /// Allowed worsening, as a share of A's median.
    pub bound: f64,
}

/// Reads the `end_to_end` declarations of `BENCHMARK.json`.
pub fn read_bounds(text: &str) -> Result<Vec<Bound>, String> {
    let j = json::parse(text)?;
    let Some(Json::Arr(list)) = j.get("end_to_end") else {
        return Err("BENCHMARK.json lacks an \"end_to_end\" list".to_string());
    };
    list.iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("metric lacks {k:?}"))
            };
            Ok(Bound {
                name: s("name")?,
                unit: s("unit")?,
                lower_is_better: s("better")? == "lower",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric lacks \"bound\"")?,
            })
        })
        .collect()
}

/// Reads every report line of a result-set file (other lines are skipped).
pub fn read_set(text: &str) -> Vec<Report> {
    text.lines()
        .filter(|l| l.starts_with("{\"workload\""))
        .filter_map(|l| Report::parse(l).ok())
        .collect()
}

/// Median and quartiles of one side.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Runs.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    fn of(xs: &[f64]) -> Self {
        let (q1, q3) = quartiles(xs);
        Self {
            n: xs.len(),
            median: median(xs),
            q1,
            q3,
        }
    }

    /// Quartile spread as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The verdict on one metric × workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Better by more than the bound.
    Improved,
    /// Worse by more than the bound.
    Regressed,
    /// Too noisy to judge at this bound.
    Unresolved,
    /// One side has no runs of it.
    Missing,
}

/// One comparison row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload.
    pub workload: String,
    /// Metric.
    pub metric: Bound,
    /// Side A.
    pub a: Option<Summary>,
    /// Side B.
    pub b: Option<Summary>,
    /// Verdict.
    pub verdict: Verdict,
}

/// Compares every declared metric on every workload either set ran.
pub fn compare(bounds: &[Bound], a: &[Report], b: &[Report]) -> Vec<Row> {
    let mut workloads: Vec<&str> = a.iter().chain(b).map(|r| r.workload.as_str()).collect();
    workloads.sort_unstable();
    workloads.dedup();
    let values = |set: &[Report], w: &str, m: &str| -> Vec<f64> {
        set.iter()
            .filter(|r| r.workload == w)
            .filter_map(|r| r.get(m))
            .collect()
    };
    let mut rows = Vec::new();
    for w in workloads {
        for m in bounds {
            let (va, vb) = (values(a, w, &m.name), values(b, w, &m.name));
            let (sa, sb) = (
                (!va.is_empty()).then(|| Summary::of(&va)),
                (!vb.is_empty()).then(|| Summary::of(&vb)),
            );
            let verdict = match (sa, sb) {
                (Some(sa), Some(sb)) => judge(m, &va, &vb, sa, sb),
                _ => Verdict::Missing,
            };
            rows.push(Row {
                workload: w.to_string(),
                metric: m.clone(),
                a: sa,
                b: sb,
                verdict,
            });
        }
    }
    rows
}

fn judge(m: &Bound, va: &[f64], vb: &[f64], sa: Summary, sb: Summary) -> Verdict {
    // Positive = B is worse, as a share of A's median.
    let sign = if m.lower_is_better { 1.0 } else { -1.0 };
    let worse = sign * (sb.median - sa.median) / sa.median.abs();
    let better_all = |x: f64, y: f64| sign * (y - x) < 0.0;
    let every_b_better = va.iter().all(|&x| vb.iter().all(|&y| better_all(x, y)));
    if sa.spread() > m.bound || sb.spread() > m.bound {
        return if every_b_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    if worse > m.bound {
        Verdict::Regressed
    } else if -worse > m.bound {
        Verdict::Improved
    } else {
        Verdict::Ok
    }
}

/// Renders the comparison table.
pub fn render(rows: &[Row]) -> String {
    let fmt = |s: &Option<Summary>| {
        s.map_or_else(
            || format!("{:>34}", "-"),
            |s| {
                format!(
                    "{:>11.5} [{:>9.5} {:>9.5}] n={:<2}",
                    s.median, s.q1, s.q3, s.n
                )
            },
        )
    };
    let mut out = format!(
        "{:<13} {:<12} {:>6} {:>38} {:>38} {:>8}  verdict\n",
        "workload", "metric", "bound", "A median [q1 q3]", "B median [q1 q3]", "B/A"
    );
    for r in rows {
        let ratio = match (r.a, r.b) {
            (Some(a), Some(b)) => format!("{:.4}", b.median / a.median),
            _ => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<13} {:<12} {:>6} {} {} {:>8}  {:?}\n",
            r.workload,
            r.metric.name,
            r.metric.bound,
            fmt(&r.a),
            fmt(&r.b),
            ratio,
            r.verdict
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bounds() -> Vec<Bound> {
        let b = |name: &str, unit: &str, lower: bool, bound: f64| Bound {
            name: name.into(),
            unit: unit.into(),
            lower_is_better: lower,
            bound,
        };
        vec![
            b("tail_ms", "ms", true, 0.1),
            b("throughput", "1/s", false, 0.1),
        ]
    }

    /// Ten runs of serve-exact whose metrics wobble by ±1% around the
    /// given centres.
    fn set(tail_ms: f64, rps: f64) -> Vec<Report> {
        (0..10)
            .map(|i| {
                let wobble = 1.0 + 0.002 * (i as f64 - 4.5);
                let mut r = Report::new("serve-exact", i);
                r.put("tail_ms", tail_ms * wobble, "ms");
                r.put("throughput", rps * wobble, "1/s");
                r
            })
            .collect()
    }

    fn verdict(rows: &[Row], metric: &str) -> Verdict {
        rows.iter()
            .find(|r| r.metric.name == metric)
            .expect("row")
            .verdict
    }

    #[test]
    fn a_thirty_percent_tail_slowdown_is_flagged() {
        let rows = compare(&bounds(), &set(4.0, 2_400.0), &set(5.2, 2_400.0));
        assert_eq!(verdict(&rows, "tail_ms"), Verdict::Regressed);
        assert_eq!(verdict(&rows, "throughput"), Verdict::Ok);
    }

    #[test]
    fn identical_sets_pass() {
        let rows = compare(&bounds(), &set(4.0, 2_400.0), &set(4.0, 2_400.0));
        assert!(
            rows.iter().all(|r| r.verdict == Verdict::Ok),
            "{}",
            render(&rows)
        );
    }

    #[test]
    fn a_higher_max_rps_is_not_flagged() {
        let rows = compare(&bounds(), &set(4.0, 2_400.0), &set(4.0, 3_000.0));
        assert_eq!(verdict(&rows, "throughput"), Verdict::Improved);
        assert!(rows.iter().all(|r| r.verdict != Verdict::Regressed));
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let mut noisy = set(4.0, 2_400.0);
        for (i, r) in noisy.iter_mut().enumerate() {
            r.metrics[0].value = if i % 2 == 0 { 3.0 } else { 5.0 };
        }
        let rows = compare(&bounds(), &set(4.0, 2_400.0), &noisy);
        assert_eq!(verdict(&rows, "tail_ms"), Verdict::Unresolved);
    }
}
