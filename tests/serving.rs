//! Fault-tolerant serving acceptance tests: exact-path parity with the
//! offline evaluator over the wire, deadline- and overload-driven
//! degradation (never an error), hot-swap reload with rollback on torn
//! files, and injected serve-path faults (scoring stalls, dropped
//! connections) survived by the bounded-retry client.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use logirec_suite::core::io::save_model;
use logirec_suite::core::{train, LogiRec, LogiRecConfig, Precision};
use logirec_suite::data::interactions::Dataset;
use logirec_suite::data::{DatasetSpec, Scale, Split};
use logirec_suite::eval::ranking::top_k_indices;
use logirec_suite::serve::faults::{truncate_file, ServeFaultPlan};
use logirec_suite::serve::protocol::MAX_FOLD_IN_STEPS;
use logirec_suite::serve::{
    recommend_with_retry, Client, IndexConfig, ModelSnapshot, Request, RetryPolicy, ServeContext,
    ServedBy, Server, ServerConfig, WatchConfig,
};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logirec-serving-{name}-{}", std::process::id()))
}

fn dataset() -> Dataset {
    DatasetSpec::ciao(Scale::Tiny).generate(41)
}

fn trained_model(ds: &Dataset) -> LogiRec {
    let cfg = LogiRecConfig { epochs: 2, ..LogiRecConfig::test_config() };
    train(cfg, ds).0
}

fn start_server(cfg: ServerConfig, ds: &Dataset, model: LogiRec) -> (Server, Arc<ServeContext>) {
    let ctx = Arc::new(ServeContext::from_dataset(ds));
    let snap = ModelSnapshot::build(model, Precision::F64, &ctx, "test").expect("valid snapshot");
    let server = Server::start(cfg, Arc::clone(&ctx), snap).expect("server starts");
    (server, ctx)
}

fn request(user: usize, k: usize, deadline_ms: Option<u64>) -> Request {
    Request { id: user as u64, user, k, deadline_ms }
}

/// The headline parity guarantee: an exact-path response received over the
/// wire is bit-identical to replaying the offline evaluator's scoring —
/// same scores, same Train ∪ Validation mask, same deterministic top-K
/// selection — for every user.
#[test]
fn exact_wire_responses_are_bit_identical_to_offline_evaluation() {
    let ds = dataset();
    let model = trained_model(&ds);
    let reference = model.clone();
    let (server, ctx) = start_server(ServerConfig::default(), &ds, model);
    let snap =
        ModelSnapshot::build(reference, Precision::F64, &ctx, "offline").expect("valid snapshot");

    let mut client = Client::connect(server.addr()).expect("connect");
    for u in 0..ds.n_users() {
        let resp = client
            .recommend(&request(u, 10, Some(10_000)))
            .unwrap_or_else(|e| panic!("user {u}: {e}"));
        assert_eq!(resp.served_by, ServedBy::Exact, "user {u} must be exact");
        assert_eq!(resp.model_version, 1);
        assert_eq!(resp.id, u as u64, "correlation id must echo back");

        // Replay the offline evaluator's masking by hand, off the wire.
        let mut scores = vec![0.0f64; ds.n_items()];
        snap.score_user(u, &mut scores);
        for &v in ds.train.items_of(u) {
            scores[v] = f64::NEG_INFINITY;
        }
        for &v in ds.split(Split::Validation).items_of(u) {
            scores[v] = f64::NEG_INFINITY;
        }
        assert_eq!(resp.items, top_k_indices(&scores, 10), "user {u} item set differs");
        for (&v, &s) in resp.items.iter().zip(&resp.scores) {
            assert_eq!(
                s.to_bits(),
                scores[v].to_bits(),
                "user {u} item {v}: wire score {s} not bit-exact"
            );
        }
    }
    drop(client);
    server.shutdown();
}

/// A zero deadline deterministically degrades every request to the
/// popularity fallback: valid non-empty responses, never an error, never a
/// seen item, and the counters record every degradation.
#[test]
fn starved_deadlines_degrade_to_fallback_and_never_error() {
    let ds = dataset();
    let model = trained_model(&ds);
    let (server, _ctx) = start_server(ServerConfig::default(), &ds, model);

    let mut client = Client::connect(server.addr()).expect("connect");
    for u in 0..ds.n_users() {
        let resp = client
            .recommend(&request(u, 10, Some(0)))
            .unwrap_or_else(|e| panic!("user {u} must not error: {e}"));
        assert_eq!(resp.served_by, ServedBy::Fallback, "user {u}");
        assert_eq!(resp.reason.as_deref(), Some("deadline"), "user {u}");
        assert!(!resp.items.is_empty(), "fallback must still recommend");
        for &v in &resp.items {
            assert!(
                !ds.train.items_of(u).contains(&v),
                "user {u}: fallback recommended seen item {v}"
            );
        }
        for w in resp.scores.windows(2) {
            assert!(w[0] >= w[1], "fallback scores must be popularity-ordered");
        }
    }
    drop(client);

    let stats = server.stats();
    assert_eq!(stats.requests, ds.n_users() as u64);
    assert_eq!(stats.fallback, ds.n_users() as u64);
    assert_eq!(stats.exact, 0);
    assert_eq!(stats.errors, 0);
    server.shutdown();
}

/// The two overload rungs, pinned deterministically by configuration: a
/// soft limit of 0 degrades every request to fallback("overload"); a hard
/// limit of 0 sheds every request (empty items, still a valid reply).
#[test]
fn overload_limits_degrade_then_shed_without_errors() {
    let ds = dataset();

    let soft_cfg = ServerConfig { max_inflight: 0, ..ServerConfig::default() };
    let (server, _ctx) = start_server(soft_cfg, &ds, trained_model(&ds));
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client.recommend(&request(1, 10, Some(10_000))).expect("no error");
    assert_eq!(resp.served_by, ServedBy::Fallback);
    assert_eq!(resp.reason.as_deref(), Some("overload"));
    assert!(!resp.items.is_empty());
    drop(client);
    server.shutdown();

    let hard_cfg = ServerConfig { max_inflight: 0, shed_limit: 0, ..ServerConfig::default() };
    let (server, _ctx) = start_server(hard_cfg, &ds, trained_model(&ds));
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client.recommend(&request(1, 10, Some(10_000))).expect("no error");
    assert_eq!(resp.served_by, ServedBy::Shed);
    assert_eq!(resp.reason.as_deref(), Some("overload"));
    assert!(resp.items.is_empty(), "a shed response carries no items");
    drop(client);
    let stats = server.stats();
    assert_eq!(stats.shed, 1);
    assert_eq!(stats.errors, 0);
    server.shutdown();
}

/// Hot-swap happy path and the rollback guarantee: a valid new model file
/// swaps in (responses report the new version), then a torn rewrite of the
/// same file is rejected — the reload-rejection counter records it and the
/// server keeps serving the last-good snapshot, still on the exact path.
#[test]
fn torn_model_file_is_rejected_and_last_good_keeps_serving() {
    let ds = dataset();
    let path = tmp("hotswap.logirec");
    let _ = std::fs::remove_file(&path);

    let cfg = ServerConfig {
        // Poll far beyond the test duration: reloads happen only when the
        // test forces them, keeping every outcome deterministic.
        watch: Some(WatchConfig { path: path.clone(), poll: Duration::from_secs(3600) }),
        ..ServerConfig::default()
    };
    let (server, _ctx) = start_server(cfg, &ds, trained_model(&ds));
    let mut client = Client::connect(server.addr()).expect("connect");

    // No file yet: nothing to reload.
    let j = client.reload().expect("reload round-trips");
    assert_eq!(j.get("reload").and_then(|v| v.as_str()), Some("unchanged"));

    // A valid model appears: the forced reload validates and swaps it in.
    let next = LogiRec::new(LogiRecConfig { seed: 99, ..LogiRecConfig::test_config() }, &ds);
    save_model(&next, &path).expect("save model");
    let j = client.reload().expect("reload round-trips");
    assert_eq!(j.get("reload").and_then(|v| v.as_str()), Some("swapped"));
    let resp = client.recommend(&request(0, 5, Some(10_000))).expect("serves");
    assert_eq!(resp.model_version, 2, "responses must report the swapped snapshot");

    // The next write is torn mid-flight: validation must reject it and the
    // server must keep serving version 2.
    save_model(&next, &path).expect("rewrite model");
    truncate_file(&path, 0.5).expect("tear file");
    let j = client.reload().expect("reload round-trips");
    assert_eq!(j.get("reload").and_then(|v| v.as_str()), Some("rejected"));

    let resp = client.recommend(&request(0, 5, Some(10_000))).expect("still serves");
    assert_eq!(resp.served_by, ServedBy::Exact, "rollback must not degrade service");
    assert_eq!(resp.model_version, 2, "torn file must never go live");

    let stats = server.stats();
    assert_eq!(stats.reload_success, 1);
    assert_eq!(stats.reload_rejected, 1);
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// An injected scoring stall pushes an exact computation past its deadline:
/// the request demotes to fallback (the late exact answer is discarded),
/// and the next request — stall budget exhausted — is exact again.
#[test]
fn scoring_stall_past_deadline_demotes_to_fallback() {
    let ds = dataset();
    let faults = ServeFaultPlan::new();
    let cfg = ServerConfig { faults: Some(faults.clone()), ..ServerConfig::default() };
    let (server, _ctx) = start_server(cfg, &ds, trained_model(&ds));
    let mut client = Client::connect(server.addr()).expect("connect");

    faults.stall_scoring(Duration::from_millis(120), 1);
    let resp = client.recommend(&request(2, 10, Some(40))).expect("must not error");
    assert_eq!(faults.pending_stalls(), 0, "the stall must have fired");
    assert_eq!(resp.served_by, ServedBy::Fallback, "late exact must demote");
    assert_eq!(resp.reason.as_deref(), Some("deadline"));
    assert!(!resp.items.is_empty());

    let resp = client.recommend(&request(2, 10, Some(10_000))).expect("must not error");
    assert_eq!(resp.served_by, ServedBy::Exact, "service recovers once the stall passes");
    drop(client);
    server.shutdown();
}

/// Injected connection drops are invisible to a client with bounded
/// retries: the first attempts are eaten by the fault, a later one lands,
/// and the drop counter records exactly the scheduled failures.
#[test]
fn dropped_connections_are_survived_by_the_retry_client() {
    let ds = dataset();
    let faults = ServeFaultPlan::new();
    let cfg = ServerConfig { faults: Some(faults.clone()), ..ServerConfig::default() };
    let (server, _ctx) = start_server(cfg, &ds, trained_model(&ds));
    let addr: SocketAddr = server.addr();

    faults.drop_connections(2);
    let policy = RetryPolicy {
        attempts: 4,
        base_backoff: Duration::from_millis(2),
        ..RetryPolicy::default()
    };
    let (resp, attempts) =
        recommend_with_retry(addr, &request(3, 10, Some(10_000)), &policy).expect("retries win");
    assert_eq!(attempts, 3, "two drops then success");
    assert_eq!(resp.served_by, ServedBy::Exact);
    assert_eq!(faults.pending_connection_drops(), 0);
    assert_eq!(server.stats().conn_drops, 2);

    // With the budget exhausted, a single attempt suffices again.
    let one_shot = RetryPolicy { attempts: 1, ..policy };
    let (_, attempts) =
        recommend_with_retry(addr, &request(3, 10, Some(10_000)), &one_shot).expect("clean path");
    assert_eq!(attempts, 1);
    server.shutdown();
}

/// Malformed lines get an error reply but the connection — and the server —
/// keep working. An unknown user (a signup not yet folded in) is *not* an
/// error: it degrades to the unpersonalized popularity fallback, so the
/// client always has something to show while a fold-in catches up.
#[test]
fn client_errors_leave_the_connection_and_server_healthy() {
    let ds = dataset();
    let (server, ctx) = start_server(ServerConfig::default(), &ds, trained_model(&ds));
    let mut client = Client::connect(server.addr()).expect("connect");

    let resp = client
        .recommend(&request(ctx.n_users() + 5, 10, Some(10_000)))
        .expect("unknown user must degrade, not error");
    assert_eq!(resp.served_by, ServedBy::Fallback);
    assert_eq!(resp.reason.as_deref(), Some("unknown_user"));
    assert!(!resp.items.is_empty(), "the popularity prior still answers");
    for w in resp.scores.windows(2) {
        assert!(w[0] >= w[1], "unknown-user fallback is popularity-ordered");
    }

    let line = client.roundtrip_line("this is not json").expect("connection stays open");
    assert!(line.contains("error"), "{line}");

    // Same connection, valid request: still served.
    let resp = client.recommend(&request(0, 5, Some(10_000))).expect("still serves");
    assert_eq!(resp.served_by, ServedBy::Exact);
    let stats = server.stats();
    assert_eq!(stats.errors, 1, "only the malformed line is an error");
    assert_eq!(stats.fallback, 1, "the unknown user degraded instead");
    drop(client);
    server.shutdown();
}

/// A `max_k` of 0 leaves no `k` a request could be answered with, so the
/// server refuses to start instead of failing every read.
#[test]
fn a_zero_max_k_is_refused_at_startup() {
    let ds = dataset();
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
    let snap = ModelSnapshot::build(model, Precision::F64, &ctx, "test").expect("valid snapshot");
    let cfg = ServerConfig { max_k: 0, ..ServerConfig::default() };
    let err = Server::start(cfg, ctx, snap).err().expect("max_k 0 must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// A fold-in asking for more RSGD steps than the protocol's cap gets an
/// error reply naming the cap, and the fold-in lock stays free for the
/// next fold-in.
#[test]
fn an_over_cap_fold_in_gets_an_error_reply() {
    let ds = dataset();
    let (server, _ctx) = start_server(ServerConfig::default(), &ds, trained_model(&ds));
    let mut client = Client::connect(server.addr()).expect("connect");
    let cap = MAX_FOLD_IN_STEPS;
    let line = format!("{{\"fold_in\":{{\"positives\":[1,4],\"steps\":{}}}}}", cap + 1);
    let reply = client.roundtrip_line(&line).expect("connection stays open");
    assert!(reply.contains("\"error\"") && reply.contains(&cap.to_string()), "{reply}");

    let mut other = Client::connect(server.addr()).expect("connect");
    let j = other.fold_in(false, &[1, 4], Some(cap), None).expect("round-trips");
    assert_eq!(j.get("fold_in").and_then(|v| v.as_str()), Some("swapped"));
    assert_eq!(server.stats().errors, 1);
    drop((client, other));
    server.shutdown();
}

/// The streaming cold-start loop over the wire: an unknown signup degrades
/// to fallback, a rejected fold-in (divergent row) keeps the last-good
/// snapshot, and a successful `{"fold_in":..}` publishes a new snapshot
/// version whose user is immediately servable on all three tiers — exact,
/// approx (index carried over in lockstep), and the seen-filtered fallback.
#[test]
fn fold_in_verb_publishes_a_new_version_serving_the_cold_user_on_every_tier() {
    let ds = dataset();
    let model = trained_model(&ds);
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let index_cfg = Some(IndexConfig { clusters: 11, ..IndexConfig::default() });
    let snap = ModelSnapshot::build_with_index(model, Precision::F64, &ctx, "initial", index_cfg)
        .expect("valid snapshot");
    // A deadline at or below 1000 ms routes through the approx tier; the
    // generous real budget keeps the routing deterministic under load.
    let cfg = ServerConfig {
        approx_deadline_ms: 1000,
        default_deadline_ms: 10_000,
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, Arc::clone(&ctx), snap).expect("server starts");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Before the fold-in, the signup id only gets the degraded answer.
    let new_user = ctx.n_users();
    let resp = client.recommend(&request(new_user, 10, Some(10_000))).expect("degrades");
    assert_eq!(resp.served_by, ServedBy::Fallback);
    assert_eq!(resp.reason.as_deref(), Some("unknown_user"));
    assert_eq!(resp.model_version, 1);

    // A divergent fold-in candidate is rejected; version 1 keeps serving.
    let j = client.fold_in(false, &[1, 4], Some(60), Some(1000.0)).expect("round-trips");
    assert_eq!(j.get("fold_in").and_then(|v| v.as_str()), Some("rejected"));
    assert!(
        j.get("reason").and_then(|v| v.as_str()).is_some(),
        "a rejection explains itself"
    );
    assert_eq!(server.store().get().version(), 1, "rejected candidate never went live");

    // The real fold-in publishes version 2 carrying the new user, with the
    // retrieval index carried over in the same snapshot.
    let positives = vec![1usize, 4, 9];
    let j = client.fold_in(false, &positives, None, None).expect("round-trips");
    assert_eq!(j.get("fold_in").and_then(|v| v.as_str()), Some("swapped"));
    assert_eq!(j.get("entity").and_then(|v| v.as_str()), Some("user"));
    assert_eq!(j.get("new_id").and_then(|v| v.as_u64()), Some(new_user as u64));
    assert_eq!(j.get("model_version").and_then(|v| v.as_u64()), Some(2));
    let live = server.store().get();
    assert!(live.index().is_some(), "index kept");
    assert_eq!(live.version(), 2, "lockstep");

    // Exact tier: served, on the new version, with the positives masked.
    let resp = client.recommend(&request(new_user, 10, Some(10_000))).expect("exact");
    assert_eq!(resp.served_by, ServedBy::Exact);
    assert_eq!(resp.model_version, 2);
    assert!(!resp.items.is_empty());
    for &v in &positives {
        assert!(!resp.items.contains(&v), "seen item {v} must stay masked");
    }

    // Approx tier: the tight-deadline route probes the index.
    let resp = client.recommend(&request(new_user, 10, Some(1000))).expect("approx");
    assert_eq!(resp.served_by, ServedBy::Approx);
    assert_eq!(resp.model_version, 2);
    assert!(resp.approx.is_some(), "approx responses carry their probe config");
    for &v in &positives {
        assert!(!resp.items.contains(&v), "seen item {v} must stay masked");
    }

    // Fallback tier: a zero deadline still knows the folded user's history.
    let resp = client.recommend(&request(new_user, 10, Some(0))).expect("fallback");
    assert_eq!(resp.served_by, ServedBy::Fallback);
    assert_eq!(resp.reason.as_deref(), Some("deadline"));
    for &v in &positives {
        assert!(!resp.items.contains(&v), "seen item {v} must stay masked");
    }

    // The counters and the stats verb record both outcomes.
    let stats = server.stats();
    assert_eq!(stats.fold_in_success, 1);
    assert_eq!(stats.fold_in_rejected, 1);
    let j = client.stats().expect("stats round-trips");
    assert_eq!(j.get("fold_in_success").and_then(|v| v.as_u64()), Some(1));
    assert_eq!(j.get("fold_in_rejected").and_then(|v| v.as_u64()), Some(1));
    drop(client);
    server.shutdown();
}

/// A reload that lands while a fold-in builds its candidate is never
/// overwritten by that candidate: the publish is refused, the fold-in
/// folds again on top of the reloaded snapshot, and both updates are live.
/// A fold-in that loses the race on every attempt answers `rejected` and
/// leaves the reloads live.
#[test]
fn a_reload_during_a_fold_in_is_never_lost() {
    let ds = dataset();
    let path = tmp("fold-in-race.logirec");
    let reloaded = LogiRec::new(LogiRecConfig { seed: 99, ..LogiRecConfig::test_config() }, &ds);
    save_model(&reloaded, &path).expect("save model");
    let faults = ServeFaultPlan::new();
    let cfg = ServerConfig {
        // Reloads happen only when forced, here by the fault plan.
        watch: Some(WatchConfig { path: path.clone(), poll: Duration::from_secs(3600) }),
        faults: Some(faults.clone()),
        ..ServerConfig::default()
    };
    let (server, ctx) = start_server(cfg, &ds, trained_model(&ds));
    let mut client = Client::connect(server.addr()).expect("connect");
    let new_user = ctx.n_users();

    faults.reload_during_fold_ins(1);
    let j = client.fold_in(false, &[1, 4, 9], None, None).expect("round-trips");
    assert_eq!(faults.pending_fold_in_reloads(), 0, "the reload must have fired");
    assert_eq!(j.get("fold_in").and_then(|v| v.as_str()), Some("swapped"));
    assert_eq!(j.get("new_id").and_then(|v| v.as_u64()), Some(new_user as u64));
    // Version 2 is the reload; the fold-in published on top of it.
    assert_eq!(j.get("model_version").and_then(|v| v.as_u64()), Some(3));
    let live = server.store().get();
    assert_eq!(live.version(), 3);
    assert_eq!(live.source(), format!("{} + 1 fold-in (last: user {new_user})", path.display()));
    assert_eq!(live.ctx().n_users(), new_user + 1);
    let resp = client.recommend(&request(new_user, 5, Some(10_000))).expect("serves");
    assert_eq!(resp.served_by, ServedBy::Exact);

    faults.reload_during_fold_ins(3);
    let j = client.fold_in(false, &[2, 5], None, None).expect("round-trips");
    assert_eq!(faults.pending_fold_in_reloads(), 0);
    assert_eq!(j.get("fold_in").and_then(|v| v.as_str()), Some("rejected"));
    let reason = j.get("reason").and_then(|v| v.as_str()).unwrap_or_default();
    assert!(reason.contains("conflict"), "{reason}");
    let live = server.store().get();
    assert_eq!(live.version(), 6, "three reloads, no fold-in");
    assert_eq!(live.source(), path.display().to_string());

    let stats = server.stats();
    assert_eq!((stats.reload_success, stats.fold_in_success, stats.fold_in_rejected), (4, 1, 1));
    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}

/// The CLI wiring end to end: `logirec serve` as a real process, driven by
/// `logirec request` for an exact response, a deadline-starved fallback,
/// and a clean shutdown.
#[test]
fn cli_serve_and_request_round_trip() {
    use std::process::Command;

    let dir = tmp("cli");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    let data = dir.join("data");
    let model = dir.join("model.logirec");
    let bin = env!("CARGO_BIN_EXE_logirec");

    let out = Command::new(bin)
        .args(["generate", "--dataset", "ciao", "--scale", "tiny", "--seed", "5", "--out"])
        .arg(&data)
        .output()
        .expect("generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = Command::new(bin)
        .args(["train", "--data"])
        .arg(&data)
        .arg("--model")
        .arg(&model)
        .args(["--epochs", "2", "--dim", "8"])
        .output()
        .expect("train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // Bind port 0 and read the actual address back from the serve banner —
    // no fixed port, no collision with parallel test runs.
    let mut serve = Command::new(bin)
        .args(["serve", "--data"])
        .arg(&data)
        .arg("--model")
        .arg(&model)
        .args(["--addr", "127.0.0.1:0"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn serve");
    let mut banner = String::new();
    // Keep the pipe's read end alive for the server's whole lifetime so its
    // later prints never hit a closed pipe.
    let mut serve_stdout = {
        use std::io::BufRead;
        let mut r = std::io::BufReader::new(serve.stdout.take().expect("piped stdout"));
        r.read_line(&mut banner).expect("read banner");
        r
    };
    let addr = banner
        .split_whitespace()
        .find(|w| w.starts_with("127.0.0.1:"))
        .unwrap_or_else(|| panic!("no address in serve banner: {banner:?}"))
        .to_string();

    let sock: SocketAddr = addr.parse().expect("addr");
    let policy = RetryPolicy {
        attempts: 40,
        base_backoff: Duration::from_millis(25),
        max_backoff: Duration::from_millis(100),
        ..RetryPolicy::default()
    };
    let (resp, _) = recommend_with_retry(sock, &request(1, 5, Some(10_000)), &policy)
        .expect("server comes up");
    assert_eq!(resp.served_by, ServedBy::Exact);
    assert_eq!(resp.items.len(), 5);

    let out = Command::new(bin)
        .args(["request", "--addr", &addr, "--user", "1", "--k", "5", "--deadline-ms", "0"])
        .output()
        .expect("request");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("served_by: fallback (deadline)"), "unexpected output: {text}");

    let out = Command::new(bin)
        .args(["request", "--addr", &addr, "--shutdown"])
        .output()
        .expect("shutdown");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let status = serve.wait().expect("serve exits");
    assert!(status.success(), "serve must exit cleanly after shutdown");
    let mut rest = String::new();
    let _ = std::io::Read::read_to_string(&mut serve_stdout, &mut rest);
    let _ = std::fs::remove_dir_all(&dir);
}
