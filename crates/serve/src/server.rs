//! The concurrent request loop: std TCP, thread per connection, a deadline
//! on every request, and the degradation matrix that turns trouble into
//! degraded responses instead of errors.
//!
//! | condition                                   | `served_by` | reason      |
//! |---------------------------------------------|-------------|-------------|
//! | healthy, within deadline                    | `exact`     | —           |
//! | tight deadline (≤ `approx_deadline_ms`)¹    | `approx`    | `deadline`  |
//! | `force_approx` configured¹                  | `approx`    | `requested` |
//! | inflight > `max_inflight` (soft overload)¹  | `approx`    | `overload`  |
//! | deadline already exceeded, or any scored    | `fallback`  | `deadline`  |
//! | result finished late                        |             |             |
//! | inflight > `max_inflight`, no index         | `fallback`  | `overload`  |
//! | inflight > `shed_limit` (hard overload)     | `shed`      | `overload`  |
//! | unknown user (e.g. not yet folded in)       | `fallback`  | `unknown_user` |
//! | malformed line                              | error reply | —           |
//!
//! ¹ when the live snapshot carries a retrieval index; without one these
//! rows keep the pre-index behavior (exact / fallback).
//!
//! The server never turns load or latency into an empty error: the
//! popularity prior always produces a valid response. An out-of-range user
//! — typically a signup that has not been folded in yet — degrades to the
//! unpersonalized popularity fallback rather than erroring, so clients can
//! show *something* while the `{"fold_in":..}` admin verb catches the
//! snapshot up. Only malformed JSON gets an `error` reply — and even that
//! leaves the connection open.
//!
//! Fold-in requests run off the request path: they optimize the single new
//! row against the frozen model, grow the serving context, validate the
//! candidate (see [`ModelSnapshot::fold_in`] for what a publish checks,
//! copies and reuses), and
//! install it only if the snapshot they folded into is still live
//! ([`SnapshotStore::swap_if`]). A reload that lands mid-fold-in makes the
//! fold-in start over from the reloaded snapshot instead of being
//! overwritten by it. A rejected candidate (e.g. a divergent row) keeps
//! the last-good snapshot serving.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use logirec_obs::{json, rss, Counter, Exposition, Histogram, HistogramSnapshot, Telemetry};

use crate::protocol::{self, Message, Request, Response, ServedBy};
use crate::reload::{ReloadOutcome, Reloader};
use crate::snapshot::{ModelSnapshot, ServeContext, SnapshotStore};

/// Watch a file for hot-swap reloads.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Model or checkpoint file to watch (need not exist yet).
    pub path: std::path::PathBuf,
    /// Poll interval for change detection.
    pub poll: Duration,
}

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (read it back via
    /// [`Server::addr`]).
    pub addr: String,
    /// Soft concurrency limit: requests beyond it degrade to fallback.
    pub max_inflight: usize,
    /// Hard concurrency limit: requests beyond it are shed outright.
    pub shed_limit: usize,
    /// Deadline applied when a request does not carry `deadline_ms`.
    pub default_deadline_ms: u64,
    /// Upper bound on requested `k`; at least 1.
    pub max_k: usize,
    /// Requests whose effective deadline is at or below this route to the
    /// `approx` tier (when the snapshot has an index) instead of gambling
    /// on a full scan they would likely miss.
    pub approx_deadline_ms: u64,
    /// Route every otherwise-exact request to the `approx` tier (when the
    /// snapshot has an index). Bench/CLI knob (`--approx`) for exercising
    /// and gating the tier deterministically.
    pub force_approx: bool,
    /// Hot-swap reload watching (off by default).
    pub watch: Option<WatchConfig>,
    /// Telemetry sink for the serve span hierarchy. When enabled, it is
    /// also the registry the server's counters and latency histograms live
    /// in, so servers sharing one enabled handle share those metrics; when
    /// disabled, each server keeps its metrics in a private registry.
    pub telemetry: Telemetry,
    /// Deterministic serve-path faults (tests only).
    #[cfg(feature = "fault-injection")]
    pub faults: Option<crate::faults::ServeFaultPlan>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            max_inflight: 8,
            shed_limit: 64,
            default_deadline_ms: 250,
            max_k: 100,
            approx_deadline_ms: 25,
            force_approx: false,
            watch: None,
            telemetry: Telemetry::disabled(),
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }
}

/// A point-in-time copy of the server counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Recommendation requests received.
    pub requests: u64,
    /// Responses served by full model scoring.
    pub exact: u64,
    /// Responses served by the clustered index + exact re-rank.
    pub approx: u64,
    /// Responses degraded to the popularity prior (an unknown user is one
    /// of these, `fallback(unknown_user)`, not an error).
    pub fallback: u64,
    /// Requests shed under hard overload.
    pub shed: u64,
    /// Error replies to malformed request lines.
    pub errors: u64,
    /// Reloads that swapped a validated snapshot in.
    pub reload_success: u64,
    /// Reload candidates rejected by validation (rollback to last-good).
    pub reload_rejected: u64,
    /// Fold-ins that published a grown snapshot.
    pub fold_in_success: u64,
    /// Fold-in candidates rejected by validation (last-good kept).
    pub fold_in_rejected: u64,
    /// Connections dropped by fault injection.
    pub conn_drops: u64,
}

/// The server's one set of metric handles, cached so the request path
/// never does a registry lookup. `{"stats":true}`, `{"metrics":true}`,
/// [`Server::stats`], [`Server::latency_snapshot`] and the closing `serve`
/// span all read these; nothing else records server metrics.
struct Metrics {
    /// The registry the handles live in: the caller's telemetry when it is
    /// enabled, otherwise a private one used for metrics only.
    registry: Telemetry,
    requests: Counter,
    exact: Counter,
    approx: Counter,
    fallback: Counter,
    shed: Counter,
    errors: Counter,
    reload_success: Counter,
    reload_rejected: Counter,
    fold_in_success: Counter,
    fold_in_rejected: Counter,
    /// Only incremented by the accept loop's fault hook.
    conn_drops: Counter,
    exact_latency_us: Histogram,
    approx_latency_us: Histogram,
    fallback_latency_us: Histogram,
    shed_latency_us: Histogram,
    /// Every fold-in's wall time, swapped or rejected.
    fold_in_latency_us: Histogram,
}

impl Metrics {
    /// Registers every handle, in the order the exposition lists them.
    fn new(tel: &Telemetry) -> Self {
        let registry = if tel.is_enabled() { tel.clone() } else { Telemetry::enabled() };
        let r = &registry;
        Self {
            requests: r.counter("serve.requests"),
            exact: r.counter("serve.exact"),
            approx: r.counter("serve.approx"),
            fallback: r.counter("serve.fallback"),
            shed: r.counter("serve.shed"),
            errors: r.counter("serve.errors"),
            reload_success: r.counter("serve.reload_success"),
            reload_rejected: r.counter("serve.reload_rejected"),
            fold_in_success: r.counter("serve.fold_in_success"),
            fold_in_rejected: r.counter("serve.fold_in_rejected"),
            conn_drops: r.counter("serve.conn_drops"),
            exact_latency_us: r.histogram("serve.exact_latency_us"),
            approx_latency_us: r.histogram("serve.approx_latency_us"),
            fallback_latency_us: r.histogram("serve.fallback_latency_us"),
            shed_latency_us: r.histogram("serve.shed_latency_us"),
            fold_in_latency_us: r.histogram("serve.fold_in_latency_us"),
            registry,
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            requests: self.requests.get(),
            exact: self.exact.get(),
            approx: self.approx.get(),
            fallback: self.fallback.get(),
            shed: self.shed.get(),
            errors: self.errors.get(),
            reload_success: self.reload_success.get(),
            reload_rejected: self.reload_rejected.get(),
            fold_in_success: self.fold_in_success.get(),
            fold_in_rejected: self.fold_in_rejected.get(),
            conn_drops: self.conn_drops.get(),
        }
    }

    /// The per-path latency histograms: `[exact, approx, fallback, shed]`.
    fn latencies(&self) -> [&Histogram; 4] {
        [
            &self.exact_latency_us,
            &self.approx_latency_us,
            &self.fallback_latency_us,
            &self.shed_latency_us,
        ]
    }
}

struct ServerInner {
    cfg: ServerConfig,
    ctx: Arc<ServeContext>,
    store: SnapshotStore,
    metrics: Metrics,
    addr: SocketAddr,
    shutdown: AtomicBool,
    inflight: AtomicUsize,
    reloader: Option<Mutex<Reloader>>,
    // Serializes fold-ins: each builds from the current snapshot, so two
    // racing would keep refusing each other's base at `swap_if`.
    fold_in_lock: Mutex<()>,
}

/// RAII inflight counter: `depth` includes this request.
struct InflightGuard<'a> {
    counter: &'a AtomicUsize,
    depth: usize,
}

impl<'a> InflightGuard<'a> {
    fn enter(counter: &'a AtomicUsize) -> Self {
        let depth = counter.fetch_add(1, Ordering::SeqCst) + 1;
        Self { counter, depth }
    }
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        self.counter.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How often blocking reads and the watcher re-check the shutdown flag.
const TICK: Duration = Duration::from_millis(25);

/// A running serve instance. Dropping the handle does **not** stop the
/// server; call [`Server::shutdown`] (or send `{"shutdown":true}` and then
/// [`Server::wait`]).
pub struct Server {
    inner: Arc<ServerInner>,
    accept: Option<JoinHandle<()>>,
    watcher: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds, spawns the accept loop (and the reload watcher when
    /// configured), and starts serving `initial` as snapshot version 1.
    ///
    /// Fails with [`io::ErrorKind::InvalidInput`] when `cfg.max_k` is 0,
    /// since no request could then be answered.
    pub fn start(
        cfg: ServerConfig,
        ctx: Arc<ServeContext>,
        initial: ModelSnapshot,
    ) -> io::Result<Server> {
        if cfg.max_k == 0 {
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "max_k must be at least 1"));
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let reloader = cfg.watch.as_ref().map(|w| {
            let mut r = Reloader::new(&w.path);
            // When watching the very file the initial snapshot came from,
            // only a subsequent write should trigger a reload.
            if w.path.display().to_string() == initial.source() {
                r.mark_current();
            }
            Mutex::new(r)
        });
        let inner = Arc::new(ServerInner {
            ctx,
            store: SnapshotStore::new(initial),
            metrics: Metrics::new(&cfg.telemetry),
            addr,
            shutdown: AtomicBool::new(false),
            inflight: AtomicUsize::new(0),
            reloader,
            fold_in_lock: Mutex::new(()),
            cfg,
        });

        let accept = {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(&inner, &listener))?
        };
        let watcher = match &inner.cfg.watch {
            None => None,
            Some(w) => {
                let inner = Arc::clone(&inner);
                let poll = w.poll;
                Some(
                    std::thread::Builder::new()
                        .name("serve-watch".to_string())
                        .spawn(move || watch_loop(&inner, poll))?,
                )
            }
        };
        Ok(Server { inner, accept: Some(accept), watcher })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The snapshot store (tests inspect versions through this).
    pub fn store(&self) -> &SnapshotStore {
        &self.inner.store
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.metrics.snapshot()
    }

    /// Point-in-time latency histograms per path: `[exact, approx,
    /// fallback, shed]`. These are the distributions behind the
    /// percentiles in `{"stats":true}` and the metrics exposition.
    pub fn latency_snapshot(&self) -> [HistogramSnapshot; 4] {
        self.inner.metrics.latencies().map(Histogram::snapshot)
    }

    /// The Prometheus-style exposition document — the same text the
    /// `{"metrics":true}` admin request returns in its `body`.
    pub fn exposition(&self) -> String {
        render_exposition(&self.inner)
    }

    /// Forces a reload check now (same as the `{"reload":true}` admin
    /// request). Returns `Rejected` when no watch path is configured.
    pub fn reload_now(&self) -> ReloadOutcome {
        try_reload(&self.inner, true)
    }

    /// Asks the server to stop accepting and lets connection handlers
    /// drain. Idempotent; does not block.
    pub fn request_shutdown(&self) {
        request_shutdown(&self.inner);
    }

    /// Blocks until the accept loop and watcher exit (after a shutdown
    /// request from any source), then emits the final `serve` span. The
    /// caller owns flushing its `Telemetry` (e.g. `finish()`).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        if let Some(h) = self.watcher.take() {
            let _ = h.join();
        }
        // Give in-flight connection handlers one tick to finish writing.
        while self.inner.inflight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(TICK);
        }
        let snap = self.stats();
        let mut span = self.inner.cfg.telemetry.span("serve");
        span.field("requests", snap.requests);
        span.field("exact", snap.exact);
        span.field("approx", snap.approx);
        span.field("fallback", snap.fallback);
        span.field("shed", snap.shed);
        span.close();
    }

    /// [`Server::request_shutdown`] + [`Server::wait`].
    pub fn shutdown(self) {
        self.request_shutdown();
        self.wait();
    }
}

fn request_shutdown(inner: &ServerInner) {
    inner.shutdown.store(true, Ordering::SeqCst);
    // Poke the blocking accept loop awake so it observes the flag.
    let _ = TcpStream::connect(inner.addr);
}

fn accept_loop(inner: &Arc<ServerInner>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if inner.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        #[cfg(feature = "fault-injection")]
        if let Some(f) = &inner.cfg.faults {
            if f.take_connection_drop() {
                inner.metrics.conn_drops.incr();
                drop(stream);
                continue;
            }
        }
        let inner = Arc::clone(inner);
        // Connection handlers are detached: they exit within one TICK of a
        // shutdown request via their read timeout.
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_conn(&inner, stream));
    }
}

fn watch_loop(inner: &Arc<ServerInner>, poll: Duration) {
    let mut since_poll = Duration::ZERO;
    while !inner.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(TICK);
        since_poll += TICK;
        if since_poll >= poll {
            since_poll = Duration::ZERO;
            try_reload(inner, false);
        }
    }
}

/// One reload check, with the span/counter bookkeeping shared by the
/// watcher, the admin request, and [`Server::reload_now`]. A check that
/// finds the file unchanged opens no span; an attempted load's `reload`
/// span covers the load and validation, and records the outcome (and a
/// rejection's reason).
fn try_reload(inner: &ServerInner, force: bool) -> ReloadOutcome {
    let Some(reloader) = &inner.reloader else {
        return ReloadOutcome::Rejected { reason: "no watch path configured".to_string() };
    };
    let mut reloader = reloader.lock().expect("reloader poisoned");
    let due = reloader.due(force);
    if due == Ok(false) {
        return ReloadOutcome::Unchanged;
    }
    let tel = &inner.cfg.telemetry;
    let mut span = tel.span("reload");
    let outcome = match due {
        Err(reason) => ReloadOutcome::Rejected { reason },
        Ok(_) => reloader.load(&inner.ctx, &inner.store),
    };
    match &outcome {
        ReloadOutcome::Unchanged => {}
        ReloadOutcome::Swapped { version } => {
            inner.metrics.reload_success.incr();
            span.field("outcome", "swapped");
            span.field("version", *version);
        }
        ReloadOutcome::Rejected { reason } => {
            inner.metrics.reload_rejected.incr();
            span.field("outcome", "rejected");
            span.field("reason", reason.clone());
            tel.warn("serve.reload", format!("reload rejected, keeping last-good: {reason}"));
        }
    }
    outcome
}

fn handle_conn(inner: &Arc<ServerInner>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(TICK));
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    let mut scratch: Vec<f64> = Vec::new();
    loop {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) => {
                let trimmed = line.trim();
                if !trimmed.is_empty() {
                    let (mut resp, stop) = handle_line(inner, trimmed, &mut scratch);
                    // One write per reply: with TCP_NODELAY a separate
                    // newline would go out as a second segment.
                    resp.push('\n');
                    let write_failed = writer.write_all(resp.as_bytes()).is_err();
                    if stop {
                        // Trigger the shutdown only after the reply is on
                        // the wire, so the client always sees the ack
                        // before the process races to exit.
                        request_shutdown(inner);
                    }
                    if write_failed || stop {
                        break;
                    }
                }
                line.clear();
            }
            // Read timeout: partially read bytes stay in `line`; loop to
            // keep reading unless the server is shutting down.
            Err(e) if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) => {
                if inner.shutdown.load(Ordering::SeqCst) {
                    break;
                }
            }
            Err(_) => break,
        }
    }
}

/// Handles one request line; returns the response line and whether this
/// was a shutdown request — the caller writes the reply first, then
/// triggers the shutdown and closes the connection.
fn handle_line(inner: &ServerInner, line: &str, scratch: &mut Vec<f64>) -> (String, bool) {
    match protocol::parse_message(line) {
        Err(msg) => {
            inner.metrics.errors.incr();
            (protocol::encode_error(0, &msg), false)
        }
        Ok(Message::Shutdown) => ("{\"id\":0,\"shutdown\":true}".to_string(), true),
        Ok(Message::Stats) => (stats_line(inner), false),
        Ok(Message::Metrics) => (metrics_line(inner), false),
        Ok(Message::Reload) => (reload_line(try_reload(inner, true)), false),
        Ok(Message::FoldIn(verb)) => (fold_in_line(inner, &verb), false),
        Ok(Message::Recommend(req)) => (handle_recommend(inner, &req, scratch), false),
    }
}

/// How many times a fold-in folds again from a newer live snapshot after
/// another install (a reload) beat it to the store, before it gives up.
const FOLD_IN_ATTEMPTS: usize = 3;

/// Handles one fold-in admin request: grow the current snapshot by one
/// entity off the request path and publish it, or keep the last-good
/// snapshot when validation rejects the candidate. The `fold_in` span and
/// the `serve.fold_in_latency_us` histogram cover the whole fold-in,
/// swapped or rejected; the span records the outcome (and a rejection's
/// reason).
fn fold_in_line(inner: &ServerInner, verb: &protocol::FoldInVerb) -> String {
    let _serial = inner.fold_in_lock.lock().expect("fold-in lock poisoned");
    let tel = &inner.cfg.telemetry;
    let entity = if verb.item { "item" } else { "user" };
    let t0 = Instant::now();
    let mut span = tel.span("fold_in");
    span.field("entity", entity);
    let published = publish_fold_in(inner, verb);
    inner.metrics.fold_in_latency_us.record(t0.elapsed().as_micros() as u64);
    match published {
        Ok((new_id, version)) => {
            inner.metrics.fold_in_success.incr();
            span.field("outcome", "swapped");
            span.field("new_id", new_id);
            span.field("version", version);
            format!(
                "{{\"id\":0,\"fold_in\":\"swapped\",\"entity\":\"{entity}\",\
                 \"new_id\":{new_id},\"model_version\":{version}}}"
            )
        }
        Err(reason) => {
            inner.metrics.fold_in_rejected.incr();
            span.field("outcome", "rejected");
            span.field("reason", reason.clone());
            tel.warn("serve.fold_in", format!("fold-in rejected, keeping last-good: {reason}"));
            let mut s = "{\"id\":0,\"fold_in\":\"rejected\",\"reason\":\"".to_string();
            json::escape_into(&reason, &mut s);
            s.push_str("\"}");
            s
        }
    }
}

/// Folds `verb` into the live snapshot and installs the candidate if that
/// snapshot is still live; on a conflict, folds again from the one that
/// replaced it. Returns the new id and the installed version.
fn publish_fold_in(
    inner: &ServerInner,
    verb: &protocol::FoldInVerb,
) -> Result<(usize, u64), String> {
    #[cfg(feature = "fault-injection")]
    if let Some(f) = &inner.cfg.faults {
        f.maybe_delay_fold_in();
    }
    for _ in 0..FOLD_IN_ATTEMPTS {
        let base = inner.store.get();
        let (candidate, new_id) = base.fold_in(verb.item, &verb.positives, verb.steps, verb.lr)?;
        #[cfg(feature = "fault-injection")]
        if let Some(f) = &inner.cfg.faults {
            if f.take_fold_in_reload() {
                try_reload(inner, true);
            }
        }
        if let Ok(version) = inner.store.swap_if(base.version(), candidate) {
            return Ok((new_id, version));
        }
    }
    Err(format!(
        "conflict: the live snapshot was replaced during each of {FOLD_IN_ATTEMPTS} attempts"
    ))
}

fn stats_line(inner: &ServerInner) -> String {
    let s = inner.metrics.snapshot();
    let mut line = format!(
        "{{\"id\":0,\"stats\":true,\"requests\":{},\"exact\":{},\"approx\":{},\
         \"fallback\":{},\"shed\":{},\"errors\":{},\"reload_success\":{},\
         \"reload_rejected\":{},\"fold_in_success\":{},\"fold_in_rejected\":{},\
         \"conn_drops\":{},\"model_version\":{},\"inflight\":{}",
        s.requests,
        s.exact,
        s.approx,
        s.fallback,
        s.shed,
        s.errors,
        s.reload_success,
        s.reload_rejected,
        s.fold_in_success,
        s.fold_in_rejected,
        s.conn_drops,
        inner.store.get().version(),
        inner.inflight.load(Ordering::SeqCst),
    );
    let paths = ["exact", "approx", "fallback", "shed"];
    for (path, h) in paths.into_iter().zip(inner.metrics.latencies()) {
        let (p50, p95, p99) = h.snapshot().percentiles();
        line.push_str(&format!(
            ",\"{path}_p50_us\":{p50},\"{path}_p95_us\":{p95},\"{path}_p99_us\":{p99}"
        ));
    }
    line.push('}');
    line
}

/// Renders the exposition of the server's registry, after setting the
/// gauges that are only read at scrape time.
fn render_exposition(inner: &ServerInner) -> String {
    let registry = &inner.metrics.registry;
    registry.gauge("serve.model_version").set(inner.store.get().version() as f64);
    registry.gauge("serve.inflight").set(inner.inflight.load(Ordering::SeqCst) as f64);
    if let Some(peak) = rss::sample_peak_rss_bytes() {
        registry.gauge("process.peak_rss_bytes").set(peak as f64);
    }
    let mut e = Exposition::new();
    e.snapshot("logirec_", &registry.metrics_snapshot());
    e.render()
}

fn metrics_line(inner: &ServerInner) -> String {
    let mut line = "{\"id\":0,\"metrics\":true,\"body\":\"".to_string();
    json::escape_into(&render_exposition(inner), &mut line);
    line.push_str("\"}");
    line
}

fn reload_line(outcome: ReloadOutcome) -> String {
    match outcome {
        ReloadOutcome::Swapped { version } => {
            format!("{{\"id\":0,\"reload\":\"swapped\",\"model_version\":{version}}}")
        }
        ReloadOutcome::Unchanged => "{\"id\":0,\"reload\":\"unchanged\"}".to_string(),
        ReloadOutcome::Rejected { reason } => {
            let mut s = "{\"id\":0,\"reload\":\"rejected\",\"reason\":\"".to_string();
            json::escape_into(&reason, &mut s);
            s.push_str("\"}");
            s
        }
    }
}

/// What the degradation matrix decided for one request.
enum Decision {
    Exact(Vec<usize>, Vec<f64>),
    Approx(Vec<usize>, Vec<f64>, &'static str, crate::index::ProbeReport),
    Fallback(&'static str),
    Shed,
}

/// Runs the approx tier for one request; degrades to fallback (same
/// reason) on the cannot-happen error paths rather than crashing.
fn approx_decision(snap: &ModelSnapshot, user: usize, k: usize, why: &'static str) -> Decision {
    match snap.approx_top_k(user, k, None) {
        Ok(Some((items, scores, report))) => Decision::Approx(items, scores, why, report),
        // No index (raced a swap to an unindexed snapshot) or a filter
        // error: the popularity prior still answers.
        Ok(None) | Err(_) => Decision::Fallback(why),
    }
}

fn handle_recommend(inner: &ServerInner, req: &Request, scratch: &mut Vec<f64>) -> String {
    let t0 = Instant::now();
    let tel = &inner.cfg.telemetry;
    inner.metrics.requests.incr();
    let mut span = tel.span("request");
    span.field("user", req.user);
    span.field("k", req.k);

    let guard = InflightGuard::enter(&inner.inflight);
    let deadline = Duration::from_millis(req.deadline_ms.unwrap_or(inner.cfg.default_deadline_ms));
    let k = req.k.clamp(1, inner.cfg.max_k);
    let snap = inner.store.get();

    // Validate the user against the snapshot's own context — a fold-in may
    // have grown it past the boot-time dataset. An unknown user (a signup
    // not yet folded in) degrades to the unpersonalized popularity
    // fallback instead of erroring: the client still gets something to
    // show while an operator catches the snapshot up.
    let known = snap.ctx().seen().seen_of(req.user).is_ok();

    // The degradation matrix (see the module doc table). The approx tier
    // only enters when the live snapshot actually carries an index, so an
    // index-less deployment behaves exactly as before.
    let has_index = snap.index().is_some();
    let decision = if guard.depth > inner.cfg.shed_limit {
        Decision::Shed
    } else if !known {
        Decision::Fallback("unknown_user")
    } else if guard.depth > inner.cfg.max_inflight {
        if has_index {
            // Soft overload with an index: a bounded partial probe is far
            // cheaper than the full scan and far better than popularity.
            approx_decision(&snap, req.user, k, "overload")
        } else {
            Decision::Fallback("overload")
        }
    } else if t0.elapsed() >= deadline {
        Decision::Fallback("deadline")
    } else if has_index && inner.cfg.force_approx {
        approx_decision(&snap, req.user, k, "requested")
    } else if has_index && deadline <= Duration::from_millis(inner.cfg.approx_deadline_ms) {
        // The deadline is too tight to gamble on a full scan.
        approx_decision(&snap, req.user, k, "deadline")
    } else {
        let score_span = tel.span("score");
        #[cfg(feature = "fault-injection")]
        if let Some(f) = &inner.cfg.faults {
            f.maybe_stall();
        }
        let result = snap.top_k(req.user, k, scratch);
        score_span.close();
        match result {
            // User was validated above; remaining errors cannot occur, but
            // degrade rather than crash if they ever do.
            Err(_) => Decision::Fallback("overload"),
            Ok((items, scores)) => {
                if t0.elapsed() >= deadline {
                    // The exact answer arrived too late to be useful; serve
                    // the fallback the client can still act on in time.
                    Decision::Fallback("deadline")
                } else {
                    Decision::Exact(items, scores)
                }
            }
        }
    };
    // Any scored result that finished after its deadline demotes, approx
    // included: the fallback is what the client can still act on in time.
    let decision = match decision {
        Decision::Approx(..) if t0.elapsed() >= deadline => Decision::Fallback("deadline"),
        d => d,
    };
    drop(guard);

    let mut approx_info = None;
    let (served_by, reason, items, scores) = match decision {
        Decision::Exact(items, scores) => (ServedBy::Exact, None, items, scores),
        Decision::Approx(items, scores, why, report) => {
            approx_info = Some(protocol::ApproxInfo {
                clusters: report.clusters,
                nprobe: report.clusters_probed + report.clusters_pruned,
                scored: report.items_scored,
            });
            (ServedBy::Approx, Some(why.to_string()), items, scores)
        }
        Decision::Fallback(why) => {
            // Known users get the seen-filtered prior; unknown users the
            // unpersonalized one (there is no history to filter against).
            let (items, scores) = snap
                .ctx()
                .fallback_top_k(req.user, k)
                .unwrap_or_else(|_| snap.ctx().fallback_top_k_unfiltered(k));
            (ServedBy::Fallback, Some(why.to_string()), items, scores)
        }
        Decision::Shed => (ServedBy::Shed, Some("overload".to_string()), Vec::new(), Vec::new()),
    };

    let latency_us = t0.elapsed().as_micros() as u64;
    let m = &inner.metrics;
    let (count, latency) = match served_by {
        ServedBy::Exact => (&m.exact, &m.exact_latency_us),
        ServedBy::Approx => (&m.approx, &m.approx_latency_us),
        ServedBy::Fallback => (&m.fallback, &m.fallback_latency_us),
        ServedBy::Shed => (&m.shed, &m.shed_latency_us),
    };
    count.incr();
    latency.record(latency_us);
    span.field("served_by", served_by.as_str());
    if let Some(r) = &reason {
        span.field("reason", r.clone());
    }

    protocol::encode_response(&Response {
        id: req.id,
        served_by,
        reason,
        model_version: snap.version(),
        items,
        scores,
        latency_us,
        approx: approx_info,
    })
}
