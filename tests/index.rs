//! Acceptance tests for the clustered retrieval index and the approx
//! serving tier: exhaustive-probe bit-parity with the exact scan at both
//! working precisions, recall at paper scale while scanning a bounded
//! fraction of the catalog, and reload discipline (index version in
//! lockstep with the model version, torn reloads leaving the old index
//! serving).

use std::path::PathBuf;
use std::sync::Arc;

use logirec_suite::core::io::save_model;
use logirec_suite::core::{train, LogiRec, LogiRecConfig, Precision};
use logirec_suite::data::interactions::Dataset;
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::serve::{
    Client, IndexConfig, ModelSnapshot, Request, ServeContext, ServedBy, Server, ServerConfig,
    WatchConfig,
};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logirec-index-{name}-{}", std::process::id()))
}

fn dataset() -> Dataset {
    DatasetSpec::ciao(Scale::Tiny).generate(61)
}

fn trained_model(ds: &Dataset) -> LogiRec {
    let cfg = LogiRecConfig { epochs: 2, ..LogiRecConfig::test_config() };
    train(cfg, ds).0
}

/// The exhaustive probe (`nprobe = n_clusters`) must reproduce the exact
/// tier bit for bit — same items, same score bits — for **every** user and
/// at **both** working precisions. Both tiers walk the snapshot's one scan
/// table, so only their two masking routines could disagree. Snapshot
/// builds do not re-check this; this test and `tests/scan_runs.rs` do.
#[test]
fn exhaustive_probe_matches_exact_top_k_bit_for_bit_at_both_precisions() {
    let ds = dataset();
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let model = trained_model(&ds);
    let index_cfg = Some(IndexConfig { clusters: 13, ..IndexConfig::default() });
    for precision in [Precision::F64, Precision::F32] {
        let snap =
            ModelSnapshot::build_with_index(model.clone(), precision, &ctx, "parity", index_cfg)
                .expect("valid snapshot");
        let index = snap.index().expect("index built");
        let mut scratch = Vec::new();
        for u in 0..ds.n_users() {
            for k in [1, 5, 10] {
                let (exact_items, exact_scores) =
                    snap.top_k(u, k, &mut scratch).expect("exact");
                let (items, scores, report) = snap
                    .approx_top_k(u, k, Some(index.clusters()))
                    .expect("in range")
                    .expect("index present");
                assert_eq!(items, exact_items, "{precision} user {u} k {k}: item set differs");
                for ((&v, &s), &es) in items.iter().zip(&scores).zip(&exact_scores) {
                    assert_eq!(
                        s.to_bits(),
                        es.to_bits(),
                        "{precision} user {u} item {v}: score not bit-exact"
                    );
                }
                assert_eq!(report.clusters_pruned, 0, "exhaustive probe must never prune");
            }
        }
    }
}

/// At paper scale (ciao: 5,180 users / 8,836 items) the approx tier must
/// keep recall@10 and recall@20 at or above 0.95 against the exact scan
/// while exactly scoring less than 30% of the catalog — measured, not
/// assumed, via the per-request probe reports.
#[test]
fn paper_scale_recall_stays_high_while_scanning_under_30_percent() {
    let ds = DatasetSpec::ciao(Scale::Paper).generate(9);
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let model = LogiRec::new(LogiRecConfig { dim: 16, ..LogiRecConfig::test_config() }, &ds);
    let snap = ModelSnapshot::build_with_index(
        model,
        Precision::F64,
        &ctx,
        "paper",
        Some(IndexConfig::default()),
    )
    .expect("valid snapshot");

    let n_users = ds.n_users();
    let sample = 120usize;
    let stride = (n_users / sample).max(1);
    let mut scratch = Vec::new();
    for k in [10usize, 20] {
        let (mut hits, mut total, mut scanned, mut users) = (0usize, 0usize, 0.0f64, 0usize);
        for u in (0..n_users).step_by(stride).take(sample) {
            let (exact_items, _) = snap.top_k(u, k, &mut scratch).expect("exact");
            let (approx_items, _, report) =
                snap.approx_top_k(u, k, None).expect("in range").expect("index");
            hits += exact_items.iter().filter(|v| approx_items.contains(v)).count();
            total += exact_items.len();
            scanned += report.scan_fraction();
            users += 1;
        }
        let recall = hits as f64 / total as f64;
        let frac = scanned / users as f64;
        assert!(recall >= 0.95, "recall@{k} {recall:.4} < 0.95 over {users} users");
        assert!(frac < 0.30, "scanned {:.1}% of the catalog at k={k}", 100.0 * frac);
    }
}

/// The recall-for-scan trade at a pinned probe width: paper-scale ciao
/// (catalog seed 7), an untrained d = 32 model, the automatic cluster
/// count probed 16 clusters deep, and 200 users spread evenly over the id
/// range. Recall@10 of the approx tier against the exact scan must stay at
/// or above 0.95 while the probes score less than 30% of the catalog on
/// average. Prints the measured line (`--nocapture` shows it).
#[test]
fn paper_scale_recall_at_nprobe_16_stays_high_on_a_d32_model() {
    let ds = DatasetSpec::ciao(Scale::Paper).generate(7);
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let model = LogiRec::new(LogiRecConfig { dim: 32, ..LogiRecConfig::test_config() }, &ds);
    let snap = ModelSnapshot::build_with_index(
        model,
        Precision::F64,
        &ctx,
        "paper",
        Some(IndexConfig { clusters: 0, nprobe: 16 }),
    )
    .expect("valid snapshot");
    let index = snap.index().expect("index built");

    let n_users = ds.n_users();
    let mut scratch = Vec::new();
    let (mut hits, mut total, mut scanned, mut users) = (0usize, 0usize, 0.0f64, 0usize);
    for u in (0..n_users).step_by(n_users / 200).take(200) {
        let (exact_items, _) = snap.top_k(u, 10, &mut scratch).expect("exact");
        let (approx_items, _, report) =
            snap.approx_top_k(u, 10, None).expect("in range").expect("index");
        hits += exact_items.iter().filter(|v| approx_items.contains(v)).count();
        total += exact_items.len();
        scanned += report.scan_fraction();
        users += 1;
    }
    let recall = hits as f64 / total as f64;
    let frac = scanned / users as f64;
    let line = format!(
        "approx recall@10 vs exact: {recall:.4} (scanned {:.1}% of catalog, clusters={}, \
         nprobe={}, build {:.1}ms, {users} users)",
        100.0 * frac,
        index.clusters(),
        index.nprobe(),
        index.build_us() as f64 / 1e3,
    );
    println!("{line}");
    assert!(recall >= 0.95, "recall below 0.95: {line}");
    assert!(frac < 0.30, "scanned 30% or more of the catalog: {line}");
}

/// A hot-swap reload rebuilds the index inside the candidate's validation
/// and stamps it in lockstep with the new model version; a torn file is
/// rejected and the **old** index keeps serving approx responses.
#[test]
fn reload_keeps_index_version_in_lockstep_and_torn_reload_rolls_back() {
    let ds = dataset();
    let model = trained_model(&ds);
    let path = tmp("watch.logirec");
    let _ = std::fs::remove_file(&path);

    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let index_cfg = Some(IndexConfig { clusters: 11, nprobe: 3 });
    let snap =
        ModelSnapshot::build_with_index(model, Precision::F64, &ctx, "initial", index_cfg)
            .expect("valid snapshot");
    let cfg = ServerConfig {
        force_approx: true,
        watch: Some(WatchConfig { path: path.clone(), poll: std::time::Duration::from_secs(3600) }),
        ..ServerConfig::default()
    };
    let server = Server::start(cfg, Arc::clone(&ctx), snap).expect("server starts");

    let live = server.store().get();
    assert!(live.index().is_some(), "index installed");
    assert_eq!(live.version(), 1, "the index serves its snapshot's version");

    // Every request is forced through the approx tier and tagged as such.
    let mut client = Client::connect(server.addr()).expect("connect");
    let resp = client
        .recommend(&Request { id: 1, user: 0, k: 5, deadline_ms: Some(10_000) })
        .expect("approx request");
    assert_eq!(resp.served_by, ServedBy::Approx);
    assert_eq!(resp.reason.as_deref(), Some("requested"));
    assert_eq!(resp.model_version, 1);
    let info = resp.approx.expect("approx responses carry their probe config");
    assert_eq!(info.clusters, 11);
    assert!(info.scored > 0 && info.scored <= ds.n_items());

    // A valid new model swaps in; the rebuilt index swaps in with it, on
    // the new version, and keeps the same knobs.
    let next = trained_model(&DatasetSpec::ciao(Scale::Tiny).generate(61));
    save_model(&next, &path).expect("save");
    let outcome = server.reload_now();
    assert!(
        matches!(outcome, logirec_suite::serve::ReloadOutcome::Swapped { version: 2 }),
        "{outcome:?}"
    );
    let live = server.store().get();
    assert!(live.index().is_some(), "index rebuilt");
    assert_eq!(live.version(), 2, "lockstep after swap");
    assert_eq!(live.index_config(), index_cfg, "reload keeps the index knobs");

    // Tear the file mid-write: the candidate is rejected, version 2 stays
    // live, and its index still serves approx responses.
    let bytes = std::fs::read(&path).expect("read");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
    let outcome = server.reload_now();
    assert!(
        matches!(outcome, logirec_suite::serve::ReloadOutcome::Rejected { .. }),
        "{outcome:?}"
    );
    let live = server.store().get();
    assert!(live.index().is_some(), "old index");
    assert_eq!(live.version(), 2, "torn file never went live");
    let resp = client
        .recommend(&Request { id: 2, user: 1, k: 5, deadline_ms: Some(10_000) })
        .expect("approx request after rollback");
    assert_eq!(resp.served_by, ServedBy::Approx);
    assert_eq!(resp.model_version, 2, "old snapshot/index pair keeps serving");

    drop(client);
    server.shutdown();
    let _ = std::fs::remove_file(&path);
}
