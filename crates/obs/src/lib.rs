#![warn(missing_docs)]

//! In-tree observability for the LogiRec workspace: hierarchical spans,
//! lock-free metrics, a ring-buffer event log, and two sinks (JSONL and a
//! human-readable summary). Zero dependencies — the registry is
//! unavailable, so everything is hand-rolled on `std`.
//!
//! ## Design
//!
//! * A [`Telemetry`] handle is an `Option<Arc<_>>`: the default
//!   ([`Telemetry::disabled`]) is a `None` and every operation on it is a
//!   single branch — the instrumented hot paths cost nothing when
//!   telemetry is off (asserted by `crates/bench/benches/obs.rs`).
//! * [`Span`]s time hierarchical phases on the monotonic clock. Nesting is
//!   tracked per thread; ids are allocated at open, events are emitted at
//!   close, so a child's event always precedes its parent's.
//! * [`Counter`] / [`Gauge`] / [`Histogram`] handles record through relaxed
//!   atomics (log₂-bucket histograms), so `parallel.rs` workers and the
//!   evaluator's scoped threads record without contention.
//! * Every event lands in a bounded ring buffer and, when configured, as
//!   one JSON object per line in a JSONL file. [`summary`] renders the
//!   aggregate report, and [`validate_trace`] checks a JSONL trace and sums
//!   its spans into the same per-kind table.
//!
//! ## Event schema (one JSON object per line)
//!
//! | kind        | emitted on                  | extra fields |
//! |-------------|-----------------------------|--------------|
//! | `span`      | span close                  | `id`, `parent?`, `start_us`, `dur_us`, caller fields |
//! | `counter`   | metric flush                | `value` |
//! | `gauge`     | metric flush                | `value` |
//! | `histogram` | metric flush                | `count`, `sum`, `max`, `p50`, `p99` |
//! | `recovery`  | trainer recovery            | `epoch`, `reason`, `action`, `lr_scale?` |
//! | `health`    | trainer health check        | `epoch`, `ok`, `reason?` |
//! | `info`/`warn` | summary-sink messages     | `msg` |
//!
//! Every event carries `t_us` (µs since the handle was created, monotonic)
//! and `name`.

pub mod events;
pub mod expo;
pub mod json;
pub mod metrics;
pub mod rss;
pub mod summary;
pub mod trace;

use std::cell::RefCell;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub use events::{Event, Value};
pub use expo::Exposition;
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot};
pub use summary::SpanAgg;
pub use trace::{validate_trace, TraceStats};

use events::EventRing;
use metrics::Registry;

thread_local! {
    /// Per-thread open-span stack: (telemetry instance tag, span id,
    /// accumulated direct-child time in µs). Tagging by instance keeps two
    /// live handles on one thread from adopting each other's spans as
    /// parents; the child accumulator lets a closing span compute its
    /// self-time (duration minus time spent in child spans) without a
    /// post-hoc trace pass.
    static SPAN_STACK: RefCell<Vec<(usize, u64, u64)>> = const { RefCell::new(Vec::new()) };
}

struct Inner {
    start: Instant,
    next_span: AtomicU64,
    registry: Registry,
    span_aggs: Mutex<Vec<(&'static str, SpanAgg)>>,
    ring: Mutex<EventRing>,
    writer: Option<Mutex<BufWriter<fs::File>>>,
}

impl Inner {
    fn now_us(&self) -> u64 {
        self.start.elapsed().as_micros() as u64
    }

    fn tag(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn emit(&self, ev: Event) {
        if let Some(w) = &self.writer {
            let mut w = w.lock().expect("trace writer poisoned");
            let _ = writeln!(w, "{}", ev.to_json());
        }
        self.ring.lock().expect("event ring poisoned").push(ev);
    }
}

/// A cheap, cloneable telemetry handle. The default is disabled: every
/// record/span call reduces to a branch on `None`.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry").field("enabled", &self.is_enabled()).finish()
    }
}

/// Configures and builds an enabled [`Telemetry`].
#[derive(Debug, Default)]
pub struct Builder {
    jsonl: Option<PathBuf>,
    ring_capacity: usize,
}

impl Builder {
    /// Streams every event as one JSON line into `path` (created/truncated
    /// at build time; parent directories are created).
    pub fn jsonl(mut self, path: impl Into<PathBuf>) -> Self {
        self.jsonl = Some(path.into());
        self
    }

    /// Caps the in-memory event ring (default 4096).
    pub fn ring_capacity(mut self, n: usize) -> Self {
        self.ring_capacity = n;
        self
    }

    /// Builds the handle. Fails only when the JSONL file cannot be created.
    pub fn build(self) -> io::Result<Telemetry> {
        let writer = match &self.jsonl {
            None => None,
            Some(path) => {
                if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                    fs::create_dir_all(dir)?;
                }
                Some(Mutex::new(BufWriter::new(fs::File::create(path)?)))
            }
        };
        let capacity = if self.ring_capacity == 0 { 4096 } else { self.ring_capacity };
        Ok(Telemetry {
            inner: Some(Arc::new(Inner {
                start: Instant::now(),
                next_span: AtomicU64::new(1),
                registry: Registry::default(),
                span_aggs: Mutex::new(Vec::new()),
                ring: Mutex::new(EventRing::new(capacity)),
                writer,
            })),
        })
    }
}

impl Telemetry {
    /// The no-op handle (also [`Default`]): records nothing, costs a branch.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// An enabled handle with only the in-memory ring (no JSONL file) —
    /// what tests and `--metrics-summary` without `--trace-json` use.
    pub fn enabled() -> Self {
        Builder::default().build().expect("ring-only telemetry cannot fail")
    }

    /// Starts configuring an enabled handle.
    pub fn builder() -> Builder {
        Builder::default()
    }

    /// True when this handle records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since this handle was created (0 when disabled) — the
    /// wall clock the summary's span coverage is taken over.
    pub fn elapsed_us(&self) -> u64 {
        self.inner.as_ref().map_or(0, |i| i.now_us())
    }

    /// Opens a span of the given kind. The span closes (and emits its
    /// event) when dropped; nesting follows lexical scope per thread.
    #[inline]
    pub fn span(&self, kind: &'static str) -> Span {
        match &self.inner {
            None => Span(None),
            Some(inner) => {
                let id = inner.next_span.fetch_add(1, Ordering::Relaxed);
                let tag = inner.tag();
                let parent = SPAN_STACK.with(|s| {
                    let mut v = s.borrow_mut();
                    let parent =
                        v.iter().rev().find(|&&(t, _, _)| t == tag).map(|&(_, id, _)| id);
                    v.push((tag, id, 0));
                    parent
                });
                Span(Some(ActiveSpan {
                    inner: Arc::clone(inner),
                    id,
                    parent,
                    kind,
                    start: Instant::now(),
                    fields: Vec::new(),
                }))
            }
        }
    }

    /// A counter handle (created on first use; cached by the caller).
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.inner.as_ref().map(|i| i.registry.counter(name)))
    }

    /// A gauge handle.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| i.registry.gauge(name)))
    }

    /// A histogram handle (fixed log₂ buckets).
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| i.registry.histogram(name)))
    }

    /// Starts a wall-clock timer; `None`-backed (free) when disabled.
    #[inline]
    pub fn timer(&self) -> Timer {
        Timer(self.inner.as_ref().map(|_| Instant::now()))
    }

    /// Records the timer's elapsed µs into the named histogram. Registry
    /// lookup per call — fine at batch granularity; cache a [`Histogram`]
    /// handle for per-row work.
    pub fn observe_us(&self, name: &'static str, t: Timer) {
        if let (Some(start), Some(_)) = (t.0, &self.inner) {
            self.histogram(name).record(start.elapsed().as_micros() as u64);
        }
    }

    /// Emits a free-form event.
    pub fn event(&self, kind: &'static str, name: &str, fields: Vec<(&'static str, Value)>) {
        if let Some(inner) = &self.inner {
            inner.emit(Event { t_us: inner.now_us(), kind, name: name.to_string(), fields });
        }
    }

    /// Summary-sink message: prints to stdout (always, replacing ad-hoc
    /// `println!`) and records an `info` event when enabled.
    pub fn info(&self, msg: impl AsRef<str>) {
        let msg = msg.as_ref();
        println!("{msg}");
        self.event("info", "message", vec![("msg", Value::Str(msg.to_string()))]);
    }

    /// Progress-sink message: prints to stderr (always, replacing ad-hoc
    /// `eprintln!`) and records an `info` event when enabled.
    pub fn progress(&self, msg: impl AsRef<str>) {
        let msg = msg.as_ref();
        eprintln!("{msg}");
        self.event("info", "progress", vec![("msg", Value::Str(msg.to_string()))]);
    }

    /// Structured warning: prints `warning: …` to stderr (always) and
    /// records a `warn` event when enabled.
    pub fn warn(&self, name: &str, msg: impl AsRef<str>) {
        let msg = msg.as_ref();
        eprintln!("warning: {msg}");
        self.event("warn", name, vec![("msg", Value::Str(msg.to_string()))]);
    }

    /// Emits one event per registered metric with its current value (the
    /// "metric flush" events of the schema).
    pub fn flush_metrics(&self) {
        let Some(inner) = &self.inner else { return };
        let snap = inner.registry.snapshot();
        for (name, v) in &snap.counters {
            self.event("counter", name, vec![("value", Value::U64(*v))]);
        }
        for (name, v) in &snap.gauges {
            self.event("gauge", name, vec![("value", Value::F64(*v))]);
        }
        for (name, h) in &snap.histograms {
            self.event(
                "histogram",
                name,
                vec![
                    ("count", Value::U64(h.count)),
                    ("sum", Value::U64(h.sum)),
                    ("max", Value::U64(h.max)),
                    ("p50", Value::U64(h.quantile(0.5))),
                    ("p95", Value::U64(h.quantile(0.95))),
                    ("p99", Value::U64(h.quantile(0.99))),
                ],
            );
        }
    }

    /// A point-in-time snapshot of all metrics (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner.as_ref().map_or_else(MetricsSnapshot::default, |i| i.registry.snapshot())
    }

    /// Span aggregates per kind, in first-seen order.
    pub fn span_aggs(&self) -> Vec<(&'static str, SpanAgg)> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.span_aggs.lock().expect("span aggs poisoned").clone()
        })
    }

    /// Renders the human-readable summary table, its span coverage taken
    /// over this handle's age.
    pub fn summary(&self) -> String {
        if !self.is_enabled() {
            return "telemetry disabled\n".to_string();
        }
        summary::render(&self.span_aggs(), self.elapsed_us(), &self.metrics_snapshot())
    }

    /// The most recent events (bounded by the ring capacity), oldest first.
    pub fn recent_events(&self) -> Vec<Event> {
        self.inner.as_ref().map_or_else(Vec::new, |i| {
            i.ring.lock().expect("event ring poisoned").snapshot()
        })
    }

    /// Flushes pending metric events and the JSONL writer. Call at the end
    /// of a run; dropping the last handle also flushes the file buffer.
    pub fn finish(&self) {
        let Some(inner) = &self.inner else { return };
        self.flush_metrics();
        if let Some(w) = &inner.writer {
            let _ = w.lock().expect("trace writer poisoned").flush();
        }
    }
}

/// A started wall-clock timer (or a free placeholder when telemetry is
/// disabled). Pair with [`Telemetry::observe_us`] or
/// [`Timer::elapsed_us`].
#[derive(Debug, Clone, Copy)]
pub struct Timer(Option<Instant>);

impl Timer {
    /// Elapsed µs, `None` when the owning telemetry was disabled.
    pub fn elapsed_us(&self) -> Option<u64> {
        self.0.map(|t| t.elapsed().as_micros() as u64)
    }
}

struct ActiveSpan {
    inner: Arc<Inner>,
    id: u64,
    parent: Option<u64>,
    kind: &'static str,
    start: Instant,
    fields: Vec<(&'static str, Value)>,
}

/// An open span; emits its `span` event when dropped (or explicitly
/// [`Span::close`]d). Disabled handles produce inert spans.
pub struct Span(Option<ActiveSpan>);

impl Span {
    /// Attaches a field to the eventual span event.
    pub fn field(&mut self, key: &'static str, v: impl Into<Value>) {
        if let Some(a) = &mut self.0 {
            a.fields.push((key, v.into()));
        }
    }

    /// Closes the span now (same as dropping it; reads better at call
    /// sites that would otherwise need a `drop(..)`).
    pub fn close(self) {}

    /// The span id (None when telemetry is disabled).
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|a| a.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let start_us = a.start.duration_since(a.inner.start).as_micros() as u64;
        let end_us = a.inner.now_us().max(start_us);
        let dur_us = end_us - start_us;

        let tag = a.inner.tag();
        let child_us = SPAN_STACK.with(|s| {
            let mut v = s.borrow_mut();
            let child_us = match v.iter().rposition(|&(t, id, _)| t == tag && id == a.id) {
                Some(pos) => v.remove(pos).2,
                None => 0,
            };
            // Credit this span's whole duration to the nearest still-open
            // enclosing span of the same instance, so that span's eventual
            // self-time excludes the time spent here.
            if let Some(entry) = v.iter_mut().rev().find(|(t, _, _)| *t == tag) {
                entry.2 += dur_us;
            }
            child_us
        });
        let self_us = dur_us.saturating_sub(child_us);

        {
            let mut aggs = a.inner.span_aggs.lock().expect("span aggs poisoned");
            let agg = match aggs.iter_mut().find(|(k, _)| *k == a.kind) {
                Some((_, agg)) => agg,
                None => {
                    aggs.push((a.kind, SpanAgg::default()));
                    &mut aggs.last_mut().expect("just pushed").1
                }
            };
            agg.count += 1;
            agg.total_us += dur_us;
            agg.self_us += self_us;
            agg.max_us = agg.max_us.max(dur_us);
        }

        let mut fields = Vec::with_capacity(a.fields.len() + 4);
        fields.push(("id", Value::U64(a.id)));
        if let Some(p) = a.parent {
            fields.push(("parent", Value::U64(p)));
        }
        fields.push(("start_us", Value::U64(start_us)));
        fields.push(("dur_us", Value::U64(dur_us)));
        fields.extend(a.fields);
        a.inner.emit(Event { t_us: end_us, kind: "span", name: a.kind.to_string(), fields });
    }
}

/// Validates a JSONL trace file on disk (convenience over
/// [`validate_trace`]).
pub fn validate_trace_file(path: &Path) -> Result<TraceStats, String> {
    let content =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    validate_trace(&content)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_fully_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        let mut sp = tel.span("epoch");
        sp.field("epoch", 1u64);
        assert_eq!(sp.id(), None);
        sp.close();
        tel.counter("c").incr();
        tel.observe_us("h", tel.timer());
        tel.event("info", "x", vec![]);
        tel.flush_metrics();
        assert!(tel.recent_events().is_empty());
        assert_eq!(tel.summary(), "telemetry disabled\n");
    }

    #[test]
    fn spans_nest_and_emit_child_first() {
        let tel = Telemetry::enabled();
        {
            let mut outer = tel.span("epoch");
            outer.field("epoch", 0u64);
            {
                let _inner = tel.span("batch");
            }
        }
        let events = tel.recent_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "batch");
        assert_eq!(events[1].name, "epoch");
        let batch_parent = events[0]
            .fields
            .iter()
            .find(|(k, _)| *k == "parent")
            .map(|(_, v)| v.clone());
        let epoch_id = events[1]
            .fields
            .iter()
            .find(|(k, _)| *k == "id")
            .map(|(_, v)| v.clone());
        assert_eq!(batch_parent, epoch_id);
        // The emitted pair validates as a well-nested trace.
        let trace: String =
            events.iter().map(|e| e.to_json() + "\n").collect();
        let stats = validate_trace(&trace).expect("valid trace");
        assert_eq!(stats.spans, 2);
    }

    #[test]
    fn sibling_spans_share_a_parent() {
        let tel = Telemetry::enabled();
        let root = tel.span("train");
        let root_id = root.id().unwrap();
        let a = tel.span("epoch");
        a.close();
        let b = tel.span("epoch");
        b.close();
        root.close();
        let events = tel.recent_events();
        for ev in events.iter().take(2) {
            let parent = ev.fields.iter().find(|(k, _)| *k == "parent").unwrap();
            assert_eq!(parent.1, Value::U64(root_id), "{:?}", ev);
        }
    }

    #[test]
    fn two_instances_do_not_adopt_each_others_spans() {
        let a = Telemetry::enabled();
        let b = Telemetry::enabled();
        let _ra = a.span("train");
        let sb = b.span("train");
        // b's span must be a root (no parent from a's stack entry).
        sb.close();
        let ev = &b.recent_events()[0];
        assert!(!ev.fields.iter().any(|(k, _)| *k == "parent"), "{ev:?}");
    }

    #[test]
    fn metric_flush_emits_one_event_per_metric() {
        let tel = Telemetry::enabled();
        tel.counter("a").add(3);
        tel.gauge("b").set(1.5);
        tel.histogram("c").record(7);
        tel.flush_metrics();
        let kinds: Vec<&str> = tel.recent_events().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec!["counter", "gauge", "histogram"]);
        let snap = tel.metrics_snapshot();
        assert_eq!(snap.counters, vec![("a", 3)]);
        assert_eq!(snap.gauges, vec![("b", 1.5)]);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let path = std::env::temp_dir()
            .join(format!("obs-sink-{}.jsonl", std::process::id()));
        let tel = Telemetry::builder().jsonl(&path).build().expect("build");
        {
            let mut sp = tel.span("epoch");
            sp.field("note", "hello \"world\"");
        }
        tel.counter("x").incr();
        tel.finish();
        let stats = validate_trace_file(&path).expect("valid file");
        assert_eq!(stats.spans, 1);
        assert_eq!(stats.event_kinds["counter"], 1);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn live_span_aggs_round_trip() {
        let tel = Telemetry::enabled();
        {
            let _outer = tel.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            let _inner = tel.span("inner");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let aggs = tel.span_aggs();
        assert_eq!(aggs.iter().map(|(_, a)| a.count).sum::<u64>(), 2);
        let agg = |name| aggs.iter().find(|(k, _)| *k == name).expect("span kind").1;
        let (outer, inner) = (agg("outer"), agg("inner"));
        assert!(outer.self_us < outer.total_us, "inner time subtracted");
        assert!(inner.self_us == inner.total_us, "leaf keeps its duration");
        let attributed = outer.self_us + inner.self_us;
        assert!(
            summary::coverage(attributed, tel.elapsed_us()) > 0.5,
            "most of the run is inside spans"
        );
        assert!(tel.summary().contains("% coverage)"), "{}", tel.summary());
    }

    #[test]
    fn summary_names_spans_and_metrics() {
        let tel = Telemetry::enabled();
        tel.span("epoch").close();
        tel.counter("trainer.steps").add(10);
        let s = tel.summary();
        assert!(s.contains("epoch") && s.contains("trainer.steps"), "{s}");
    }

    #[test]
    fn concurrent_spans_on_worker_threads_stay_well_formed() {
        let tel = Telemetry::enabled();
        let root = tel.span("train");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        // Worker threads have their own stacks: these are
                        // roots, not children of "train".
                        let _sp = tel.span("worker");
                    }
                });
            }
        });
        root.close();
        let trace: String =
            tel.recent_events().iter().map(|e| e.to_json() + "\n").collect();
        let stats = validate_trace(&trace).expect("valid");
        assert_eq!(stats.span_count("worker"), 200);
        assert_eq!(stats.span_count("train"), 1);
    }
}
