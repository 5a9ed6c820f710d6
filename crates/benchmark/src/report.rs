//! One workload run's result: the output checks, the attempted/failed
//! counts, and every metric by name with its unit. Workers print it as one
//! JSON line; the coordinator parses it back, prints the human table, and
//! emits the result line (only the metrics `BENCHMARK.json` declares for
//! the requested mode).

use logirec_obs::json::{self, Json};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `p50_ms` or `core.graph.fwd_ms`.
    pub name: String,
    /// The measured value (never rounded).
    pub value: f64,
    /// Unit, e.g. `ms`, `s`, `1/s`, `ratio`, `count`.
    pub unit: String,
}

/// A workload run's outcome.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// All output checks passed.
    pub correct: bool,
    /// Operations the run attempted (requests, fold-ins, training steps).
    pub attempted: u64,
    /// Operations that failed (errors, shed, wrong tier, lost connections).
    pub failed: u64,
    /// Why checks failed, one line each (empty when `correct`).
    pub problems: Vec<String>,
    /// Every measurement, in the order it was taken.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// An empty, so-far-correct report.
    pub fn new(workload: &str, seed: u64) -> Self {
        Self {
            workload: workload.to_string(),
            seed,
            correct: true,
            ..Self::default()
        }
    }

    /// Records a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// Records a failed output check; the run will exit non-zero.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.correct = false;
        self.problems.push(problem.into());
    }

    /// Fails the run unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.fail(problem());
        }
    }

    /// The named metric's value, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The full report as one JSON line.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"workload\":\"{}\",\"seed\":{},",
            self.workload, self.seed
        );
        s.push_str(&counts_json(self.correct, self.attempted, self.failed));
        s.push_str(",\"problems\":[");
        for (i, p) in self.problems.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_str_json(&mut s, p);
        }
        s.push_str("],");
        s.push_str(&metrics_json(self.metrics.iter()));
        s.push('}');
        s
    }

    /// Parses a line written by [`Report::to_json`].
    pub fn parse(line: &str) -> Result<Self, String> {
        let j = json::parse(line)?;
        let field = |k: &str| j.get(k).ok_or_else(|| format!("report lacks {k:?}"));
        let mut r = Report {
            workload: field("workload")?.as_str().unwrap_or_default().to_string(),
            seed: field("seed")?.as_u64().unwrap_or(0),
            correct: field("correct")?.as_bool().unwrap_or(false),
            attempted: field("attempted")?.as_u64().unwrap_or(0),
            failed: field("failed")?.as_u64().unwrap_or(0),
            ..Report::default()
        };
        if let Some(Json::Arr(ps)) = j.get("problems") {
            r.problems = ps
                .iter()
                .filter_map(Json::as_str)
                .map(str::to_string)
                .collect();
        }
        let Some(Json::Obj(ms)) = j.get("metrics") else {
            return Err("report lacks a \"metrics\" object".to_string());
        };
        for (name, m) in ms {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or("metric lacks a value")?;
            let unit = m
                .get("unit")
                .and_then(Json::as_str)
                .ok_or("metric lacks a unit")?;
            r.put(name, value, unit);
        }
        Ok(r)
    }
}

/// `"correct":..,"attempted":..,"failed":..` (no braces).
pub fn counts_json(correct: bool, attempted: u64, failed: u64) -> String {
    format!("\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed}")
}

/// `"metrics":{"name":{"value":v,"unit":"u"},..}`. Values keep every digit
/// (shortest round-trip formatting).
pub fn metrics_json<'a>(metrics: impl Iterator<Item = &'a Metric>) -> String {
    let mut s = "\"metrics\":{".to_string();
    for (i, m) in metrics.enumerate() {
        if i > 0 {
            s.push(',');
        }
        push_str_json(&mut s, &m.name);
        s.push_str(&format!(":{{\"value\":{:?},\"unit\":", m.value));
        push_str_json(&mut s, &m.unit);
        s.push('}');
    }
    s.push('}');
    s
}

fn push_str_json(out: &mut String, v: &str) {
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let mut r = Report::new("serve-exact", 7);
        r.attempted = 12;
        r.failed = 1;
        r.put("p50_ms", 0.512_345_678_9, "ms");
        r.put("throughput", 2_400.0, "1/s");
        r.fail("user 3: \"items\" differ");
        let back = Report::parse(&r.to_json()).expect("parses");
        assert_eq!(back, r);
    }
}
