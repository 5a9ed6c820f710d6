//! Reading emitted JSONL traces: structural validation and span
//! attribution in one pass.
//!
//! Shared by the `trace_check` CLI binary and the integration tests: every
//! line must parse as a flat event object, and the span events must form a
//! well-nested forest (unique ids, parents opened before children, child
//! intervals contained in their parent's interval). A valid trace's spans
//! are summed per name into the [`SpanAgg`] a live [`crate::Telemetry`]
//! keeps, so the trace and the live summary render as one table.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::summary::{self, SpanAgg};

/// Aggregate facts about a validated trace.
#[derive(Debug, Clone, Default)]
pub struct TraceStats {
    /// Total non-empty lines (== total events).
    pub lines: usize,
    /// Events with `kind == "span"`.
    pub spans: usize,
    /// Timing per span name (`epoch`, `batch`, …). A span's self-time is
    /// its duration minus its direct children's, as the live telemetry
    /// computes it on its span stack.
    pub span_kinds: BTreeMap<String, SpanAgg>,
    /// Event count per kind (`span`, `counter`, `recovery`, …).
    pub event_kinds: BTreeMap<String, usize>,
    /// Wall clock of the traced run, µs: the largest event timestamp.
    pub wall_us: u64,
}

impl TraceStats {
    /// Number of spans with the given name.
    pub fn span_count(&self, name: &str) -> usize {
        self.span_kinds.get(name).map_or(0, |agg| agg.count as usize)
    }

    /// Summed self-time over the wall clock (0 for an empty trace). Above
    /// 1.0 when spans ran concurrently on worker threads, each thread's
    /// time counting.
    pub fn coverage(&self) -> f64 {
        summary::coverage(self.span_kinds.values().map(|agg| agg.self_us).sum(), self.wall_us)
    }
}

struct SpanRec {
    start_us: u64,
    end_us: u64,
    dur_us: u64,
    parent: Option<u64>,
    /// 1-based line the span event came from (for diagnostics).
    line: usize,
    name: String,
}

/// Nesting depth of a span (roots are depth 0), walking the parent chain
/// through the completed map. Cycles cannot occur (parent < child ids are
/// enforced at parse time), so the walk terminates.
fn depth_of(spans: &BTreeMap<u64, SpanRec>, mut id: u64) -> usize {
    let mut depth = 0;
    while let Some(p) = spans.get(&id).and_then(|r| r.parent) {
        depth += 1;
        id = p;
    }
    depth
}

/// Validates a whole trace (one JSON object per line). Returns statistics
/// on success, with every span attributed to its name; the first
/// structural violation aborts with a message naming the offending line.
pub fn validate_trace(content: &str) -> Result<TraceStats, String> {
    let mut stats = TraceStats::default();
    let mut spans: BTreeMap<u64, SpanRec> = BTreeMap::new();
    for (ln, line) in content.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = json::parse(line).map_err(|e| format!("line {}: {e}", ln + 1))?;
        let kind = ev
            .get("kind")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing string \"kind\"", ln + 1))?
            .to_string();
        let name = ev
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: missing string \"name\"", ln + 1))?
            .to_string();
        let t_us = ev
            .get("t_us")
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("line {}: missing integer \"t_us\"", ln + 1))?;
        stats.lines += 1;
        stats.wall_us = stats.wall_us.max(t_us);
        *stats.event_kinds.entry(kind.clone()).or_insert(0) += 1;

        if kind == "span" {
            let id = ev
                .get("id")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: span without integer \"id\"", ln + 1))?;
            let dur = ev
                .get("dur_us")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: span without \"dur_us\"", ln + 1))?;
            let start = ev
                .get("start_us")
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("line {}: span without \"start_us\"", ln + 1))?;
            let parent = match ev.get("parent") {
                None | Some(Json::Null) => None,
                Some(p) => Some(p.as_u64().ok_or_else(|| {
                    format!("line {}: span \"parent\" is not an integer", ln + 1)
                })?),
            };
            if start + dur > t_us + 1 {
                return Err(format!(
                    "line {}: span {id} ({name:?}) closes at {t_us}µs before start \
                     {start}µs + dur {dur}µs",
                    ln + 1
                ));
            }
            if let Some(p) = parent {
                if p >= id {
                    return Err(format!(
                        "line {}: span {id} ({name:?}) has parent {p} opened after it (ids \
                         are allocated at open, so parent < child must hold)",
                        ln + 1
                    ));
                }
            }
            let rec = SpanRec {
                start_us: start,
                end_us: t_us,
                dur_us: dur,
                parent,
                line: ln + 1,
                name: name.clone(),
            };
            if let Some(prev) = spans.insert(id, rec) {
                return Err(format!(
                    "line {}: duplicate span id {id} ({name:?}; first used by {:?} on line {})",
                    ln + 1,
                    prev.name,
                    prev.line
                ));
            }
            stats.spans += 1;
        }
    }

    // Containment: spans close child-first, so every parent must exist in
    // the completed map and the child interval must sit inside it.
    let mut child_us: BTreeMap<u64, u64> = BTreeMap::new();
    for (&id, rec) in &spans {
        if let Some(p) = rec.parent {
            let parent = spans.get(&p).ok_or_else(|| {
                format!(
                    "line {}: span {id} ({:?}) references missing parent {p} \
                     (parent never closed, or the trace was truncated)",
                    rec.line, rec.name
                )
            })?;
            if rec.start_us < parent.start_us || rec.end_us > parent.end_us {
                return Err(format!(
                    "line {}: span {id} ({:?}, depth {}) [{}, {}]µs escapes parent \
                     {p} ({:?}, line {}) [{}, {}]µs",
                    rec.line,
                    rec.name,
                    depth_of(&spans, id),
                    rec.start_us,
                    rec.end_us,
                    parent.name,
                    parent.line,
                    parent.start_us,
                    parent.end_us
                ));
            }
            *child_us.entry(p).or_insert(0) += rec.dur_us;
        }
    }
    for (id, rec) in spans {
        let agg = stats.span_kinds.entry(rec.name).or_default();
        agg.count += 1;
        agg.total_us += rec.dur_us;
        agg.self_us += rec.dur_us.saturating_sub(child_us.get(&id).copied().unwrap_or(0));
        agg.max_us = agg.max_us.max(rec.dur_us);
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// epoch(1) [0,100] contains batch(2) [10,40] and batch(3) [50,90];
    /// an unrelated counter event stretches the wall to 120.
    const TRACE: &str = "\
{\"t_us\":40,\"kind\":\"span\",\"name\":\"batch\",\"id\":2,\"parent\":1,\"start_us\":10,\"dur_us\":30}
{\"t_us\":90,\"kind\":\"span\",\"name\":\"batch\",\"id\":3,\"parent\":1,\"start_us\":50,\"dur_us\":40}
{\"t_us\":100,\"kind\":\"span\",\"name\":\"epoch\",\"id\":1,\"start_us\":0,\"dur_us\":100}
{\"t_us\":120,\"kind\":\"counter\",\"name\":\"steps\",\"value\":7}
";

    #[test]
    fn self_time_subtracts_direct_children() {
        let stats = validate_trace(TRACE).expect("valid");
        assert_eq!(stats.spans, 3);
        assert_eq!(stats.wall_us, 120);
        let batch = stats.span_kinds["batch"];
        assert_eq!(batch.count, 2);
        assert_eq!(batch.total_us, 70);
        assert_eq!(batch.self_us, 70, "leaves keep their full duration");
        assert_eq!(batch.max_us, 40);
        let epoch = stats.span_kinds["epoch"];
        assert_eq!(epoch.total_us, 100);
        assert_eq!(epoch.self_us, 30, "100 minus the two 30+40 children");
        // Attributed = 70 + 30 = the root's full duration.
        assert!((stats.coverage() - 100.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn empty_trace_profiles_to_zero_coverage() {
        let stats = validate_trace("").expect("empty ok");
        assert_eq!(stats.spans, 0);
        assert_eq!(stats.coverage(), 0.0);
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let err = validate_trace("{\"kind\":\"span\",\"name\":\"x\",\"dur_us\":1}\n")
            .expect_err("no t_us");
        assert!(err.contains("line 1"), "{err}");
        assert!(validate_trace("nope\n").is_err());
    }

    #[test]
    fn accepts_well_nested_spans() {
        let trace = "\
{\"t_us\":5,\"kind\":\"span\",\"name\":\"batch\",\"id\":2,\"parent\":1,\"start_us\":2,\"dur_us\":3}
{\"t_us\":9,\"kind\":\"span\",\"name\":\"epoch\",\"id\":1,\"parent\":null,\"start_us\":1,\"dur_us\":8}
{\"t_us\":10,\"kind\":\"counter\",\"name\":\"steps\",\"value\":4}
";
        let stats = validate_trace(trace).expect("valid");
        assert_eq!(stats.lines, 3);
        assert_eq!(stats.spans, 2);
        assert_eq!(stats.span_count("epoch"), 1);
        assert_eq!(stats.span_count("batch"), 1);
        assert_eq!(stats.event_kinds["counter"], 1);
    }

    #[test]
    fn rejects_child_escaping_parent() {
        let trace = "\
{\"t_us\":9,\"kind\":\"span\",\"name\":\"batch\",\"id\":2,\"parent\":1,\"start_us\":2,\"dur_us\":7}
{\"t_us\":8,\"kind\":\"span\",\"name\":\"epoch\",\"id\":1,\"start_us\":1,\"dur_us\":7}
";
        let err = validate_trace(trace).expect_err("must reject");
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn rejects_parse_failures_and_missing_fields() {
        assert!(validate_trace("not json\n").is_err());
        assert!(validate_trace("{\"kind\":\"span\",\"name\":\"x\"}\n").is_err());
        let no_id = "{\"t_us\":1,\"kind\":\"span\",\"name\":\"x\",\"start_us\":0,\"dur_us\":1}\n";
        assert!(validate_trace(no_id).unwrap_err().contains("id"));
    }

    #[test]
    fn violation_messages_carry_line_name_and_depth() {
        // grandchild(3) under child(2) under root(1); the grandchild
        // escapes its parent's interval.
        let trace = "\
{\"t_us\":9,\"kind\":\"span\",\"name\":\"loss\",\"id\":3,\"parent\":2,\"start_us\":3,\"dur_us\":6}
{\"t_us\":8,\"kind\":\"span\",\"name\":\"batch\",\"id\":2,\"parent\":1,\"start_us\":2,\"dur_us\":6}
{\"t_us\":10,\"kind\":\"span\",\"name\":\"epoch\",\"id\":1,\"start_us\":1,\"dur_us\":9}
";
        let err = validate_trace(trace).expect_err("must reject");
        assert!(err.contains("line 1"), "{err}");
        assert!(err.contains("\"loss\""), "{err}");
        assert!(err.contains("depth 2"), "{err}");
        assert!(err.contains("\"batch\""), "offending parent named: {err}");
    }

    #[test]
    fn missing_parent_message_names_the_orphan_line() {
        let orphan =
            "{\"t_us\":5,\"kind\":\"span\",\"name\":\"b\",\"id\":2,\"parent\":1,\"start_us\":2,\"dur_us\":3}\n";
        let err = validate_trace(orphan).unwrap_err();
        assert!(err.contains("line 1") && err.contains("\"b\""), "{err}");
    }

    #[test]
    fn duplicate_id_message_points_at_both_lines() {
        let dup = "\
{\"t_us\":5,\"kind\":\"span\",\"name\":\"first\",\"id\":1,\"start_us\":2,\"dur_us\":3}
{\"t_us\":6,\"kind\":\"span\",\"name\":\"second\",\"id\":1,\"start_us\":2,\"dur_us\":3}
";
        let err = validate_trace(dup).unwrap_err();
        assert!(err.contains("line 2") && err.contains("line 1"), "{err}");
        assert!(err.contains("\"first\"") && err.contains("\"second\""), "{err}");
    }

    #[test]
    fn rejects_missing_parent_and_duplicate_ids() {
        let orphan =
            "{\"t_us\":5,\"kind\":\"span\",\"name\":\"b\",\"id\":2,\"parent\":1,\"start_us\":2,\"dur_us\":3}\n";
        assert!(validate_trace(orphan).unwrap_err().contains("missing parent"));
        let dup = "\
{\"t_us\":5,\"kind\":\"span\",\"name\":\"b\",\"id\":1,\"start_us\":2,\"dur_us\":3}
{\"t_us\":6,\"kind\":\"span\",\"name\":\"b\",\"id\":1,\"start_us\":2,\"dur_us\":3}
";
        assert!(validate_trace(dup).unwrap_err().contains("duplicate span id"));
    }
}
