//! End-to-end temporal-replay acceptance: a frozen model trained on the
//! warm past, with the cold future streamed in through the event log and
//! compaction, must land within a pinned margin of the matched full
//! retrain on the cold users' holdout — and the compaction machinery must
//! survive injected divergence (rollback) and a mid-compaction kill
//! (checkpoint recovery) without losing determinism.

use std::path::PathBuf;

use logirec_suite::core::faults::{flip_bit, Fault, FaultPlan};
use logirec_suite::core::stream::{
    compact, fold_in_user, recover_from_checkpoint, CompactionOptions, EventLog, FoldInOptions,
};
use logirec_suite::core::{train, LogiRec, LogiRecConfig};
use logirec_suite::data::{DatasetSpec, ReplayScenario, Scale, Split};
use logirec_suite::eval::evaluate;
use logirec_suite::hyperbolic::{lorentz, poincare};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("logirec-replay-{name}-{}", std::process::id()))
}

fn scenario() -> ReplayScenario {
    ReplayScenario::build(&DatasetSpec::ciao(Scale::Tiny), 13, 0.1)
}

fn cfg() -> LogiRecConfig {
    LogiRecConfig { epochs: 8, eval_every: 0, ..LogiRecConfig::test_config() }
}

/// Trains the frozen model on the warm past and streams the cold future
/// through the event log + one compaction pass. Returns the streamed model
/// (grown to the full id space).
fn stream_cold_future(sc: &ReplayScenario) -> LogiRec {
    let (mut m, _) = train(cfg(), &sc.warm);
    m.propagate(&sc.warm.train);
    let mut log = EventLog::new();
    for (u, v, t) in sc.stream_events() {
        log.append(u, v, t);
    }
    let opts = CompactionOptions::for_config(&m.cfg);
    let (_grown, report) = compact(&mut m, &sc.warm.train, &mut log, &opts).expect("compact");
    assert!(!report.rolled_back, "healthy stream must not roll back: {:?}", report.rollback_reason);
    assert!(log.pending().is_empty());
    // A cold user whose every event is held out never appears in the
    // stream; fold them in with zero revealed positives so the full id
    // space is servable (the base point: a layer-scaled table centroid).
    let fold = FoldInOptions::for_config(&m.cfg);
    while m.users.rows() < sc.replay.n_users() {
        fold_in_user(&mut m, &[], &fold).expect("fold in eventless cold user");
    }
    m
}

/// The headline acceptance: streamed cold-start quality on the cold
/// holdout stays within a pinned margin of the matched full retrain, and
/// both are meaningfully above zero.
#[test]
fn streamed_cold_start_tracks_the_full_retrain_within_margin() {
    let sc = scenario();
    let streamed = stream_cold_future(&sc);
    let s = evaluate(&streamed, &sc.replay, Split::Test, &[10], 2);

    let (mut retrained, _) = train(cfg(), &sc.replay);
    retrained.propagate(&sc.replay.train);
    let r = evaluate(&retrained, &sc.replay, Split::Test, &[10], 2);

    // Only cold users carry test items, so both numbers are pure
    // cold-start quality under identical masking.
    assert_eq!(s.users, r.users, "both models must score the same cold users");
    assert!(r.recall_at(10) > 0.0, "retrain baseline is vacuous");
    assert!(s.recall_at(10) > 0.0, "streamed model ranks nothing");
    // Pinned margin at Tiny scale (the paper-scale 10 % bound lives in
    // replay_bench): streaming must retain at least half the retrain's
    // HR@10 and NDCG@10.
    assert!(
        s.recall_at(10) >= 0.5 * r.recall_at(10),
        "streamed HR@10 {:.4} fell below half of retrain {:.4}",
        s.recall_at(10),
        r.recall_at(10)
    );
    assert!(
        s.ndcg_at(10) >= 0.5 * r.ndcg_at(10),
        "streamed NDCG@10 {:.4} fell below half of retrain {:.4}",
        s.ndcg_at(10),
        r.ndcg_at(10)
    );
}

/// Injected divergence mid-compaction (an item kicked out of the ball)
/// must roll the parameters back to their pre-compaction values — the
/// warm rows come through byte-identical — while keeping the grown shapes
/// and reporting the violation.
#[test]
fn compaction_rolls_back_on_injected_divergence() {
    let sc = scenario();
    let (mut m, _) = train(cfg(), &sc.warm);
    m.propagate(&sc.warm.train);
    let users_before = m.users.as_slice().to_vec();
    let items_before = m.items.as_slice().to_vec();

    let plan = FaultPlan::new(5, vec![Fault::ItemBoundaryEscape { epoch: 0 }]);
    m.cfg.faults = Some(plan.clone());
    let mut log = EventLog::new();
    for (u, v, t) in sc.stream_events() {
        log.append(u, v, t);
    }
    let opts = CompactionOptions::for_config(&m.cfg);
    let (_grown, report) = compact(&mut m, &sc.warm.train, &mut log, &opts).expect("compact");

    assert!(plan.exhausted(), "the fault never fired: {:?}", plan.fired());
    assert!(report.rolled_back, "boundary escape must trigger a rollback");
    let reason = report.rollback_reason.as_deref().unwrap_or("");
    assert!(reason.contains("ball"), "unexpected rollback reason {reason:?}");
    assert_eq!(report.epochs_run, 1, "rollback must stop the incremental pass");
    // Rolled back to pre-compaction parameters: warm rows byte-identical,
    // grown shapes kept, everything healthy and servable.
    let bit_eq = |a: &[f64], b: &[f64]| a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
    assert!(bit_eq(&m.users.as_slice()[..users_before.len()], &users_before));
    assert!(bit_eq(&m.items.as_slice()[..items_before.len()], &items_before));
    assert!(m.users.rows() > users_before.len() / m.cfg.ambient_dim());
    assert!(m.all_finite());
    assert!(m.has_state());
    for v in 0..m.items.rows() {
        assert!(poincare::in_ball(m.items.row(v)), "item {v} out of ball after rollback");
    }
    for u in 0..m.users.rows() {
        assert!(lorentz::on_manifold(m.users.row(u), 1e-6), "user {u} off sheet after rollback");
    }
}

/// A process killed mid-compaction restarts from the durable
/// pre-compaction checkpoint and, replaying the same durable event log,
/// lands bit-identical to the run that never died. A corrupted checkpoint
/// is detected, never silently restored.
#[test]
fn kill_mid_compaction_recovers_and_replays_bit_identical() {
    let sc = scenario();
    let (mut base, _) = train(cfg(), &sc.warm);
    base.propagate(&sc.warm.train);
    let path = tmp("ckpt");
    let opts = CompactionOptions {
        checkpoint_path: Some(path.clone()),
        ..CompactionOptions::for_config(&base.cfg)
    };
    let fill = |log: &mut EventLog| {
        for (u, v, t) in sc.stream_events() {
            log.append(u, v, t);
        }
    };

    // Life that never dies.
    let mut straight = base.clone();
    let mut log = EventLog::new();
    fill(&mut log);
    compact(&mut straight, &sc.warm.train, &mut log, &opts).expect("straight run");

    // Life that dies mid-compaction: the pass mutated the tables, but the
    // durable state (checkpoint + event log) survives the kill.
    let mut killed = base.clone();
    let mut doomed = EventLog::new();
    fill(&mut doomed);
    compact(&mut killed, &sc.warm.train, &mut doomed, &opts).expect("doomed run");
    recover_from_checkpoint(&mut killed, &path).expect("recover");
    assert_eq!(killed.users, base.users, "recovery must restore the pre-compaction users");
    assert_eq!(killed.items, base.items, "recovery must restore the pre-compaction items");
    assert!(!killed.has_state(), "recovery drops the forward state");

    // Second life: replay the durable log from the recovered tables.
    let mut replayed = EventLog::new();
    fill(&mut replayed);
    killed.propagate(&sc.warm.train);
    compact(&mut killed, &sc.warm.train, &mut replayed, &opts).expect("replay run");
    assert_eq!(killed.users, straight.users, "resumed compaction diverged on users");
    assert_eq!(killed.items, straight.items, "resumed compaction diverged on items");

    // A torn/corrupted checkpoint must fail recovery loudly.
    flip_bit(&path, 3).expect("flip");
    let mut victim = base.clone();
    assert!(recover_from_checkpoint(&mut victim, &path).is_err());
    assert_eq!(victim.users, base.users, "failed recovery must not touch the model");
    let _ = std::fs::remove_file(&path);
}

/// An f32 compaction of a healthy model runs every epoch. The health check
/// after each epoch tests user rows with the precision-aware sheet check
/// fold-in accepts them under, so a folded-in user far from the origin,
/// whose Minkowski form rounds past a fixed `1e-6` at f32, is not taken for
/// drift and rolled back.
#[test]
fn f32_compaction_of_a_healthy_model_runs_every_epoch() {
    let ds = DatasetSpec::ciao(Scale::Tiny).generate(7);
    let (trained, _) = train(LogiRecConfig { dim: 16, epochs: 3, ..LogiRecConfig::default() }, &ds);
    let mut m = trained.cast::<f32>();
    m.propagate(&ds.train);
    let (a, b) = (ds.n_users(), ds.n_users() + 1);
    let events = [(0, 5), (3, 17), (a, 1), (a, 4), (a, 9), (b, 2), (b, 8)];
    let mut log = EventLog::new();
    for (t, (u, v)) in events.into_iter().enumerate() {
        log.append(u, v, t as u64);
    }
    let opts = CompactionOptions { epochs: 4, ..CompactionOptions::for_config(&m.cfg) };
    let (_, report) = compact(&mut m, &ds.train, &mut log, &opts).expect("compact");
    assert_eq!(report.new_users, 2);
    assert!(
        !report.rolled_back,
        "healthy f32 compaction rolled back: {:?}",
        report.rollback_reason
    );
    assert_eq!(report.epochs_run, 4);
    for u in 0..m.users.rows() {
        assert!(lorentz::on_sheet(m.users.row(u)), "user {u} off the sheet after compaction");
    }
}
