//! Telemetry events and their JSONL encoding.
//!
//! One [`Event`] is one line in the machine-readable trace: span closes,
//! metric flushes, recoveries, health-check verdicts, and free-form
//! info/warn messages all share the same flat shape —
//! `{"t_us":…,"kind":"…","name":"…", …fields}` — so downstream tooling can
//! stream the file line by line without a schema registry.

use std::collections::VecDeque;

use crate::json::escape_into;

/// A field value attached to an event. The variants cover everything the
/// instrumentation records; floats are serialized as JSON `null` when
/// non-finite (JSON has no NaN/∞).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counts, byte sizes, ids, microseconds).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (losses, learning-rate scales, metric values).
    F64(f64),
    /// String (reasons, labels, verdicts).
    Str(String),
    /// Boolean (health verdicts, flags).
    Bool(bool),
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<u32> for Value {
    fn from(v: u32) -> Self {
        Value::U64(u64::from(v))
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One telemetry event: a timestamp (µs since the handle was created), a
/// kind (`span`, `counter`, `histogram`, `gauge`, `recovery`, `health`,
/// `info`, `warn`), a name, and free-form fields.
#[derive(Debug, Clone)]
pub struct Event {
    /// Microseconds since the owning [`crate::Telemetry`] was created
    /// (monotonic clock).
    pub t_us: u64,
    /// Event category; consumers dispatch on this.
    pub kind: &'static str,
    /// Event name within the kind (span kind, metric name, …).
    pub name: String,
    /// Additional key/value payload, serialized flat into the JSON object.
    pub fields: Vec<(&'static str, Value)>,
}

impl Event {
    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.fields.len() * 24);
        out.push_str("{\"t_us\":");
        out.push_str(&self.t_us.to_string());
        out.push_str(",\"kind\":\"");
        escape_into(self.kind, &mut out);
        out.push_str("\",\"name\":\"");
        escape_into(&self.name, &mut out);
        out.push('"');
        for (k, v) in &self.fields {
            out.push_str(",\"");
            escape_into(k, &mut out);
            out.push_str("\":");
            push_value(&mut out, v);
        }
        out.push('}');
        out
    }
}

fn push_value(out: &mut String, v: &Value) {
    match v {
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::F64(x) => {
            if x.is_finite() {
                // Rust's shortest-roundtrip Display for f64 is valid JSON.
                out.push_str(&x.to_string());
            } else {
                out.push_str("null");
            }
        }
        Value::Str(s) => {
            out.push('"');
            escape_into(s, out);
            out.push('"');
        }
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Fixed-capacity ring buffer holding the most recent events, so the tail
/// of a run is inspectable in-process even without a JSONL sink.
#[derive(Debug)]
pub struct EventRing {
    buf: VecDeque<Event>,
    capacity: usize,
    /// Events pushed since creation (including ones the ring has dropped).
    pub total: u64,
}

impl EventRing {
    /// Creates a ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Self { buf: VecDeque::with_capacity(capacity.min(1024)), capacity: capacity.max(1), total: 0 }
    }

    /// Appends an event, evicting the oldest when full.
    pub fn push(&mut self, ev: Event) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(ev);
        self.total += 1;
    }

    /// The buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_serializes_flat_json() {
        let ev = Event {
            t_us: 42,
            kind: "span",
            name: "epoch".into(),
            fields: vec![
                ("id", Value::U64(3)),
                ("dur_us", Value::U64(1500)),
                ("loss", Value::F64(0.25)),
                ("ok", Value::Bool(true)),
                ("why", Value::Str("it \"works\"\n".into())),
            ],
        };
        let j = ev.to_json();
        assert_eq!(
            j,
            "{\"t_us\":42,\"kind\":\"span\",\"name\":\"epoch\",\"id\":3,\
             \"dur_us\":1500,\"loss\":0.25,\"ok\":true,\"why\":\"it \\\"works\\\"\\n\"}"
        );
    }

    #[test]
    fn non_finite_floats_become_null() {
        let ev = Event {
            t_us: 0,
            kind: "gauge",
            name: "x".into(),
            fields: vec![("v", Value::F64(f64::NAN)), ("w", Value::F64(f64::INFINITY))],
        };
        let j = ev.to_json();
        assert!(j.contains("\"v\":null") && j.contains("\"w\":null"), "{j}");
    }

    #[test]
    fn control_chars_are_escaped() {
        let ev = Event {
            t_us: 0,
            kind: "info",
            name: "m".into(),
            fields: vec![("msg", Value::Str("a\u{1}b\tc".into()))],
        };
        assert!(ev.to_json().contains("a\\u0001b\\tc"));
    }

    #[test]
    fn ring_evicts_oldest_and_counts_total() {
        let mut ring = EventRing::new(3);
        for i in 0..5u64 {
            ring.push(Event { t_us: i, kind: "info", name: i.to_string(), fields: vec![] });
        }
        let snap = ring.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap[0].t_us, 2);
        assert_eq!(snap[2].t_us, 4);
        assert_eq!(ring.total, 5);
    }
}
