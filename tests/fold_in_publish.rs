//! What a serving fold-in publishes (see `ModelSnapshot::fold_in`).
//!
//! * **Parity.** A snapshot grown by a chain of fold-ins answers exactly
//!   what `ModelSnapshot::build_with_index` of the same grown model on the
//!   same grown context answers: `top_k` and `approx_top_k` (default and
//!   exhaustive probe, probe reports included), items and score bits, for
//!   every user, folded ones included — at both precisions, after user and
//!   item fold-ins. The fold-in path publishes the forward state appending
//!   extended and reuses the scan table and index a user fold-in leaves
//!   valid; the full build propagates, builds the table and runs k-means.
//!   The snapshot each fold-in grew from keeps answering as before.
//! * **Copy-on-write.** Folding a user into a clone of a propagated model
//!   leaves the item-side tables and the scan table shared with the
//!   original. The user-side tables are copied once, with room to grow;
//!   the next fold-in of the chain appends into that room, copying nothing
//!   and leaving the model it grew from unchanged.

use std::sync::Arc;

use logirec_suite::core::stream::{fold_in_item, fold_in_user, FoldInOptions};
use logirec_suite::core::{train, LogiRec, LogiRecConfig, Precision};
use logirec_suite::data::{Dataset, DatasetSpec, Scale};
use logirec_suite::linalg::Scalar;
use logirec_suite::serve::{IndexConfig, ModelSnapshot, ServeContext};

fn dataset() -> Dataset {
    DatasetSpec::ciao(Scale::Tiny).generate(23)
}

fn trained_model(ds: &Dataset) -> LogiRec {
    let cfg = LogiRecConfig { epochs: 2, eval_every: 0, ..LogiRecConfig::test_config() };
    train(cfg, ds).0
}

/// Every user's `top_k` and `approx_top_k` answers (k ∈ {10, 20}; default
/// and exhaustive probe) agree between `published` and `full`, bit for bit.
fn assert_same_answers(published: &ModelSnapshot, full: &ModelSnapshot, step: &str) {
    let ctx = published.ctx();
    assert_eq!(ctx.n_users(), full.ctx().n_users(), "{step}: users");
    assert_eq!(ctx.n_items(), full.ctx().n_items(), "{step}: items");
    let clusters = full.index().expect("index built").clusters();
    assert_eq!(published.index().expect("index kept").clusters(), clusters, "{step}");
    let bits = |scores: &[f64]| scores.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
    let mut scratch = Vec::new();
    for u in 0..ctx.n_users() {
        for k in [10, 20] {
            let (items, scores) = published.top_k(u, k, &mut scratch).expect("in range");
            let (want_items, want_scores) = full.top_k(u, k, &mut scratch).expect("in range");
            assert_eq!(items, want_items, "{step}: top_k items, user {u}, k {k}");
            assert_eq!(bits(&scores), bits(&want_scores), "{step}: top_k scores, user {u}");
            for nprobe in [None, Some(clusters)] {
                let (items, scores, probe) =
                    published.approx_top_k(u, k, nprobe).expect("in range").expect("index");
                let (want_items, want_scores, want_probe) =
                    full.approx_top_k(u, k, nprobe).expect("in range").expect("index");
                assert_eq!(items, want_items, "{step}: approx items, user {u}, {nprobe:?}");
                assert_eq!(bits(&scores), bits(&want_scores), "{step}: approx scores, user {u}");
                assert_eq!(probe, want_probe, "{step}: probe report, user {u}, {nprobe:?}");
            }
        }
    }
}

/// Folds a chain of users and items into a served snapshot at precision
/// `S`, replaying each fold-in on a core model of the same precision, and
/// after every step compares the published snapshot with a full build of
/// the replayed model on the replayed context.
fn check_published_parity<S: Scalar>(precision: Precision) {
    let ds = dataset();
    let model = trained_model(&ds);
    let index_cfg = Some(IndexConfig::default());
    let mut ctx = ServeContext::from_dataset(&ds);
    let base_ctx = Arc::new(ctx.clone());
    let mut snap =
        ModelSnapshot::build_with_index(model.clone(), precision, &base_ctx, "base", index_cfg)
            .expect("valid snapshot");
    let mut replay: LogiRec<S> = model.cast();
    replay.propagate(&ds.train);
    let opts = FoldInOptions::for_config(&replay.cfg);

    let first_new_user = ds.n_users();
    let steps: [(bool, Vec<usize>); 5] = [
        (false, ds.train.items_of(2).to_vec()),
        (false, ds.train.items_of(7).to_vec()),
        (true, vec![0, 5, first_new_user]),
        (false, vec![1, ds.n_items(), 9]),
        (true, vec![first_new_user + 1, 3]),
    ];
    let mut prev_full: Option<ModelSnapshot> = None;
    for (j, (item, positives)) in steps.iter().enumerate() {
        let kind = if *item { "item" } else { "user" };
        let step = format!("{precision:?} step {j} ({kind})");
        let (next, id) = snap.fold_in(*item, positives, None, None).expect("fold in");
        // The snapshot folded from still answers as before: the candidate
        // appended into buffers it shares, past the rows it can see.
        if let Some(prev) = &prev_full {
            assert_same_answers(&snap, prev, &format!("{step}: the base"));
        }
        let report = if *item {
            fold_in_item(&mut replay, positives, &opts)
        } else {
            fold_in_user(&mut replay, positives, &opts)
        }
        .expect("replayed fold in");
        assert_eq!(id, report.id, "{step}: id");
        ctx = if *item { ctx.with_new_item(positives) } else { ctx.with_new_user(positives) }
            .expect("grown context");
        let full = ModelSnapshot::build_with_index(
            replay.cast(),
            precision,
            &Arc::new(ctx.clone()),
            "full",
            index_cfg,
        )
        .expect("full build");
        assert_same_answers(&next, &full, &step);
        snap = next;
        prev_full = Some(full);
    }
}

#[test]
fn published_fold_ins_answer_like_a_full_build_at_f64() {
    check_published_parity::<f64>(Precision::F64);
}

#[test]
fn published_fold_ins_answer_like_a_full_build_at_f32() {
    check_published_parity::<f32>(Precision::F32);
}

/// Whether each user-side table of `a` shares its buffer with `b`'s.
fn user_side_shared(a: &LogiRec, b: &LogiRec) -> [(&'static str, bool); 2] {
    let (sa, sb) = (a.state(), b.state());
    [
        ("users", a.users.shares_storage_with(&b.users)),
        ("user_final", sa.user_final.shares_storage_with(&sb.user_final)),
    ]
}

/// Value copies of the user-side tables.
fn user_side_values(m: &LogiRec) -> Vec<Vec<f64>> {
    let st = m.state();
    [&m.users, &st.user_final].iter().map(|t| t.as_slice().to_vec()).collect()
}

#[test]
fn user_fold_ins_share_the_item_side_and_append_the_user_side() {
    let ds = dataset();
    let mut base = trained_model(&ds);
    base.propagate(&ds.train);
    let base_table: *const _ = base.scan_table();
    let mut grown = base.clone();
    let opts = FoldInOptions::for_config(&grown.cfg);
    fold_in_user(&mut grown, ds.train.items_of(4), &opts).expect("fold in");

    let (b, g) = (base.state(), grown.state());
    for (name, shared) in [
        ("items", grown.items.shares_storage_with(&base.items)),
        ("tags", grown.tags.shares_storage_with(&base.tags)),
        ("item_final", g.item_final.shares_storage_with(&b.item_final)),
    ] {
        assert!(shared, "{name} was copied by a user fold-in");
    }
    assert!(std::ptr::eq(grown.scan_table(), base_table), "scan table rebuilt");
    // Propagation allocates its tables exactly, so the first append copies
    // the user side, into buffers with room to grow.
    for (name, shared) in user_side_shared(&grown, &base) {
        assert!(!shared, "{name} had no room, yet was not copied");
    }
    assert_eq!(base.users.rows(), ds.n_users());
    assert_eq!(b.user_final.rows(), ds.n_users());
    assert_eq!(g.user_final.rows(), ds.n_users() + 1);

    // The next fold-in of the chain appends into that room: it copies
    // nothing, and the handle it grew from keeps its rows and values.
    let frozen = user_side_values(&grown);
    let mut next = grown.clone();
    fold_in_user(&mut next, ds.train.items_of(7), &opts).expect("fold in");
    for (name, shared) in user_side_shared(&next, &grown) {
        assert!(shared, "{name} was copied although the buffer had room");
    }
    assert_eq!(user_side_values(&grown), frozen);
    assert_eq!(grown.state().user_final.rows(), ds.n_users() + 1);
    assert_eq!(next.state().user_final.rows(), ds.n_users() + 2);
    assert!(std::ptr::eq(next.scan_table(), base_table), "scan table rebuilt");
}
