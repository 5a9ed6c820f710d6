//! Observability acceptance tests: the latency percentiles reported by
//! `{"stats":true}` and the Prometheus-style `{"metrics":true}` exposition
//! must match the server's authoritative histograms at the wire level, a
//! scripted session's scrapes are pinned family by family, and a training
//! run's trace must attribute (nearly) all of its wall time to named spans,
//! with the same per-kind timings the live telemetry kept.

use std::path::PathBuf;
use std::sync::Arc;

use logirec_suite::core::{train, LogiRec, LogiRecConfig, Precision};
use logirec_suite::data::interactions::Dataset;
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::obs::json::{self, Json};
use logirec_suite::obs::{validate_trace_file, Telemetry};
use logirec_suite::serve::{
    Client, ModelSnapshot, Request, ServeContext, ServedBy, Server, ServerConfig,
};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logirec-observability-{name}-{}", std::process::id()))
}

fn dataset() -> Dataset {
    DatasetSpec::ciao(Scale::Tiny).generate(17)
}

/// Starts a server with `cfg` on a briefly trained model.
fn start_server(cfg: ServerConfig) -> (Server, Arc<ServeContext>) {
    let ds = dataset();
    let model_cfg = LogiRecConfig {
        epochs: 2,
        telemetry: cfg.telemetry.clone(),
        ..LogiRecConfig::test_config()
    };
    let model = train(model_cfg, &ds).0;
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let snap = ModelSnapshot::build(model, Precision::F64, &ctx, "obs").expect("valid snapshot");
    let server = Server::start(cfg, Arc::clone(&ctx), snap).expect("server starts");
    (server, ctx)
}

/// Starts a server and drives `n` nominal exact-path requests through it.
fn server_after_requests(n: usize) -> (Server, Client) {
    let (server, ctx) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    for i in 0..n {
        let req = Request { id: i as u64, user: i % ctx.n_users(), k: 5, deadline_ms: None };
        client.recommend(&req).expect("nominal request");
    }
    (server, client)
}

/// `{"stats":true}` must carry p50/p95/p99 per degradation path, and the
/// values on the wire must be exactly the quantiles of the server's own
/// latency histograms — not a recomputation that can drift.
#[test]
fn stats_percentiles_match_the_latency_histograms() {
    let (server, mut client) = server_after_requests(40);
    let line = client.roundtrip_line("{\"stats\":true}").expect("stats roundtrip");
    let j = json::parse(&line).expect("stats line parses");
    assert_eq!(j.get("stats").and_then(Json::as_bool), Some(true));
    assert_eq!(j.get("requests").and_then(Json::as_u64), Some(40));

    let [exact, approx, fallback, shed] = server.latency_snapshot();
    assert_eq!(exact.count, 40, "all nominal requests served exactly");
    for (path, h) in
        [("exact", &exact), ("approx", &approx), ("fallback", &fallback), ("shed", &shed)]
    {
        let (p50, p95, p99) = h.percentiles();
        for (suffix, want) in [("p50_us", p50), ("p95_us", p95), ("p99_us", p99)] {
            let key = format!("{path}_{suffix}");
            assert_eq!(
                j.get(&key).and_then(Json::as_u64),
                Some(want),
                "{key} on the wire must equal the histogram quantile"
            );
        }
    }
    // Quantile sanity on the populated path.
    let (p50, p95, p99) = exact.percentiles();
    assert!(p50 <= p95 && p95 <= p99, "percentiles must be ordered");
    assert!(p99 > 0, "40 real requests cannot all take 0us");
    server.shutdown();
}

/// The `{"metrics":true}` admin verb must return the same exposition text
/// `Server::exposition` renders, with counters and latency quantiles that
/// match the authoritative stats.
#[test]
fn metrics_exposition_matches_server_state_over_the_wire() {
    let (server, mut client) = server_after_requests(25);
    let line = client.roundtrip_line("{\"metrics\":true}").expect("metrics roundtrip");
    let j = json::parse(&line).expect("metrics line parses");
    assert_eq!(j.get("metrics").and_then(Json::as_bool), Some(true));
    let body = j.get("body").and_then(Json::as_str).expect("exposition body").to_string();

    // Counters reflect the driven load; families are typed and unique.
    assert!(body.contains("# TYPE logirec_serve_requests_total counter\n"), "{body}");
    assert!(body.contains("logirec_serve_requests_total 25\n"), "{body}");
    assert!(body.contains("logirec_serve_exact_total 25\n"), "{body}");
    assert!(body.contains("logirec_serve_shed_total 0\n"), "{body}");
    assert!(body.contains("logirec_serve_model_version 1\n"), "{body}");
    assert_eq!(
        body.matches("# TYPE logirec_serve_requests_total counter").count(),
        1,
        "each family must be emitted exactly once"
    );

    // Latency summary lines equal the histogram quantiles bit-for-bit.
    let [exact, _, _, _] = server.latency_snapshot();
    for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
        let want = format!(
            "logirec_serve_exact_latency_us{{quantile=\"{label}\"}} {}\n",
            exact.quantile(q)
        );
        assert!(body.contains(&want), "missing {want:?} in\n{body}");
    }
    assert!(body.contains(&format!("logirec_serve_exact_latency_us_count {}\n", exact.count)));
    assert!(body.contains(&format!("logirec_serve_exact_latency_us_sum {}\n", exact.sum)));

    // The in-process accessor renders the same families (RSS and inflight
    // gauges may move between scrapes, so compare the stable lines).
    let direct = server.exposition();
    for line in body.lines().filter(|l| {
        !l.contains("peak_rss_bytes") && !l.contains("inflight")
    }) {
        assert!(direct.contains(line), "wire line {line:?} missing from Server::exposition");
    }
    server.shutdown();
}

/// A peak-RSS gauge must appear in the exposition on Linux — serving is
/// where the memory ceiling matters operationally.
#[cfg(target_os = "linux")]
#[test]
fn exposition_reports_a_peak_rss_gauge() {
    let (server, _client) = server_after_requests(1);
    let body = server.exposition();
    assert!(body.contains("# TYPE logirec_process_peak_rss_bytes gauge\n"), "{body}");
    let peak: f64 = body
        .lines()
        .find_map(|l| l.strip_prefix("logirec_process_peak_rss_bytes "))
        .expect("gauge value line")
        .parse()
        .expect("numeric gauge");
    assert!(peak > 1e6, "a live process peaks above 1MB, got {peak}");
    server.shutdown();
}

/// Drives one scripted session: five exact requests, three deadline-0
/// fallbacks, one unknown user, one malformed line, one rejected and one
/// accepted fold-in.
fn scripted_session(client: &mut Client, ctx: &ServeContext) {
    let recommend = |client: &mut Client, user: usize, deadline_ms: u64| {
        let req = Request { id: user as u64, user, k: 5, deadline_ms: Some(deadline_ms) };
        client.recommend(&req).expect("served").served_by
    };
    for user in 0..5 {
        assert_eq!(recommend(client, user, 60_000), ServedBy::Exact);
    }
    for user in 0..3 {
        assert_eq!(recommend(client, user, 0), ServedBy::Fallback);
    }
    assert_eq!(recommend(client, ctx.n_users() + 3, 60_000), ServedBy::Fallback);
    let line = client.roundtrip_line("this is not json").expect("connection stays open");
    assert!(line.contains("error"), "{line}");
    let bad = client.fold_in(false, &[ctx.n_items() + 100], None, None).expect("round-trips");
    assert_eq!(bad.get("fold_in").and_then(Json::as_str), Some("rejected"));
    let good = client.fold_in(false, &[1, 4, 9], None, None).expect("round-trips");
    assert_eq!(good.get("fold_in").and_then(Json::as_str), Some("swapped"));
}

/// The `{"metrics":true}` body of a live server.
fn scrape(client: &mut Client) -> String {
    let line = client.roundtrip_line("{\"metrics\":true}").expect("metrics roundtrip");
    let j = json::parse(&line).expect("metrics line parses");
    j.get("body").and_then(Json::as_str).expect("exposition body").to_string()
}

/// The families of an exposition, in order, as their `# TYPE` lines.
fn type_lines(body: &str) -> Vec<&str> {
    body.lines().filter(|l| l.starts_with("# TYPE ")).collect()
}

/// Golden scrape of a scripted session on the default configuration: the
/// exposition's family order, every counter and sample count, and the
/// `{"stats":true}` key order and counts are pinned exactly.
#[test]
fn scripted_session_scrapes_are_pinned() {
    let (server, ctx) = start_server(ServerConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    scripted_session(&mut client, &ctx);

    let body = scrape(&mut client);
    let mut want_types = vec![
        "# TYPE logirec_serve_requests_total counter",
        "# TYPE logirec_serve_exact_total counter",
        "# TYPE logirec_serve_approx_total counter",
        "# TYPE logirec_serve_fallback_total counter",
        "# TYPE logirec_serve_shed_total counter",
        "# TYPE logirec_serve_errors_total counter",
        "# TYPE logirec_serve_reload_success_total counter",
        "# TYPE logirec_serve_reload_rejected_total counter",
        "# TYPE logirec_serve_fold_in_success_total counter",
        "# TYPE logirec_serve_fold_in_rejected_total counter",
        "# TYPE logirec_serve_conn_drops_total counter",
        "# TYPE logirec_serve_model_version gauge",
        "# TYPE logirec_serve_inflight gauge",
        "# TYPE logirec_process_peak_rss_bytes gauge",
        "# TYPE logirec_serve_exact_latency_us summary",
        "# TYPE logirec_serve_approx_latency_us summary",
        "# TYPE logirec_serve_fallback_latency_us summary",
        "# TYPE logirec_serve_shed_latency_us summary",
    ];
    if logirec_suite::obs::rss::sample_peak_rss_bytes().is_none() {
        want_types.retain(|l| !l.contains("peak_rss"));
    }
    assert_eq!(type_lines(&body), want_types, "family order changed:\n{body}");

    let counts: Vec<&str> = body
        .lines()
        .filter(|l| {
            !l.starts_with('#')
                && (l.contains("_total ") || l.contains("_count ") || l.contains("version "))
        })
        .collect();
    assert_eq!(
        counts,
        [
            "logirec_serve_requests_total 9",
            "logirec_serve_exact_total 5",
            "logirec_serve_approx_total 0",
            "logirec_serve_fallback_total 4",
            "logirec_serve_shed_total 0",
            "logirec_serve_errors_total 1",
            "logirec_serve_reload_success_total 0",
            "logirec_serve_reload_rejected_total 0",
            "logirec_serve_fold_in_success_total 1",
            "logirec_serve_fold_in_rejected_total 1",
            "logirec_serve_conn_drops_total 0",
            "logirec_serve_model_version 2",
            "logirec_serve_exact_latency_us_count 5",
            "logirec_serve_approx_latency_us_count 0",
            "logirec_serve_fallback_latency_us_count 4",
            "logirec_serve_shed_latency_us_count 0",
        ],
        "counter values changed:\n{body}"
    );

    let line = client.roundtrip_line("{\"stats\":true}").expect("stats roundtrip");
    let pairs: Vec<(&str, &str)> = line
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .map(|kv| {
            let (k, v) = kv.split_once(':').expect("flat key:value");
            (k.trim_matches('"'), v)
        })
        .collect();
    let keys: Vec<&str> = pairs.iter().map(|&(k, _)| k).collect();
    let mut want_keys = vec![
        "id",
        "stats",
        "requests",
        "exact",
        "approx",
        "fallback",
        "shed",
        "errors",
        "reload_success",
        "reload_rejected",
        "fold_in_success",
        "fold_in_rejected",
        "conn_drops",
        "model_version",
        "inflight",
    ];
    let percentile_keys: Vec<String> = ["exact", "approx", "fallback", "shed"]
        .iter()
        .flat_map(|p| ["p50", "p95", "p99"].map(|q| format!("{p}_{q}_us")))
        .collect();
    want_keys.extend(percentile_keys.iter().map(String::as_str));
    assert_eq!(keys, want_keys, "stats key order changed: {line}");
    let values: Vec<&str> = pairs[..15].iter().map(|&(_, v)| v).collect();
    assert_eq!(
        values,
        ["0", "true", "9", "5", "0", "4", "0", "1", "0", "0", "1", "1", "0", "2", "0"],
        "stats counts changed: {line}"
    );
    drop(client);
    server.shutdown();
}

/// With telemetry enabled the server's metrics live in the caller's
/// registry: every family is exposed exactly once, beside the training
/// metrics of the same registry, and no second copy of a serve latency
/// exists under another name.
#[test]
fn enabled_telemetry_exposes_every_family_once() {
    let tel = Telemetry::enabled();
    let cfg = ServerConfig { telemetry: tel.clone(), ..ServerConfig::default() };
    let (server, ctx) = start_server(cfg);
    let mut client = Client::connect(server.addr()).expect("connect");
    scripted_session(&mut client, &ctx);

    let body = scrape(&mut client);
    let families = type_lines(&body);
    for family in &families {
        assert_eq!(
            families.iter().filter(|f| *f == family).count(),
            1,
            "{family} appears more than once:\n{body}"
        );
    }
    assert!(families.len() > 18, "training metrics share the registry:\n{body}");
    for path in ["exact", "approx", "fallback", "shed"] {
        let copy = format!("# TYPE logirec_serve_{path}_us ");
        assert!(!body.contains(&copy), "duplicate latency family {copy:?}:\n{body}");
        assert!(body.contains(&format!("# TYPE logirec_serve_{path}_latency_us summary\n")));
    }
    assert!(body.contains("logirec_serve_requests_total 9\n"), "{body}");
    assert_eq!(server.stats().requests, 9);
    assert_eq!(server.latency_snapshot()[0].count, 5);
    drop(client);
    server.shutdown();
}

/// A training run's trace must attribute at least 90% of its wall time to
/// named spans — the acceptance bar for "no un-instrumented time on the hot
/// path" — and read, for every span kind, the count, total, self and max
/// time the live telemetry summed while the spans closed, so the trace and
/// `--metrics-summary` print one table.
#[test]
fn trace_profile_attributes_training_wall_time_to_spans() {
    let path = tmp("train.jsonl");
    let _ = std::fs::remove_file(&path);
    let tel = Telemetry::builder().jsonl(&path).build().expect("jsonl sink");
    let ds = dataset();
    let cfg = LogiRecConfig {
        epochs: 2,
        telemetry: tel.clone(),
        ..LogiRecConfig::test_config()
    };
    let model: LogiRec = train(cfg, &ds).0;
    assert!(model.all_finite());
    tel.finish();

    let stats = validate_trace_file(&path).expect("valid trace");
    assert!(
        stats.coverage() >= 0.9,
        "spans must cover >=90% of wall time, got {:.1}% over {}us",
        stats.coverage() * 100.0,
        stats.wall_us
    );
    assert!(
        stats.span_count("epoch") > 0,
        "per-epoch spans must be present: {:?}",
        stats.span_kinds
    );
    let live = tel.span_aggs();
    let live_kinds: Vec<&str> = live.iter().map(|(kind, _)| *kind).collect();
    let trace_kinds: Vec<&str> = stats.span_kinds.keys().map(String::as_str).collect();
    assert_eq!(live.len(), trace_kinds.len(), "live {live_kinds:?} vs trace {trace_kinds:?}");
    for (kind, agg) in &live {
        assert_eq!(stats.span_kinds.get(*kind), Some(agg), "span kind {kind:?}");
    }
    let _ = std::fs::remove_file(&path);
}
