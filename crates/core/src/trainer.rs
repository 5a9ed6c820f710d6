//! The joint training loop (Eq. 10 for LogiRec, Eq. 15 for LogiRec++).
//!
//! Each SGD step: an LMNN ranking batch with sampled negatives
//! (α-weighted when mining is on), a forward pass over the batch's
//! receptive field only and its exact backward ([`crate::step`]), sampled
//! logical relation batches for L_Mem/L_Hie/L_Ex scaled by λ, and
//! Riemannian SGD updates per parameter family (Section V-C). A full
//! forward over every row runs only where the whole state is read: the
//! LogiRec++ mining refresh, validation, and the end of training.
//! Validation Recall@10 is tracked for snapshotting/early stopping.
//!
//! ## Fault tolerance
//!
//! The loop is built to survive crashes and numerical blow-ups:
//!
//! * **Checkpoint/resume** — with `checkpoint_every`/`checkpoint_path` set,
//!   a durable [`crate::checkpoint`] is written after healthy epochs; with
//!   `resume_from`, training continues bit-identically from where the
//!   checkpoint left off (same RNG stream, LR backoff scale, best-val
//!   snapshot, and history). A model file ([`crate::io::save_model`]) is a
//!   checkpoint at epoch 0, so resuming from one starts training at epoch 0
//!   from its tables, on the RNG stream `seed` gives a fresh run (an
//!   epoch-0 checkpoint has no stream position to continue). An unreadable
//!   checkpoint falls back to a fresh start and records a [`Recovery`].
//! * **Step guards** — a batch whose gradients contain non-finite values is
//!   skipped (and recorded) instead of poisoning the tables.
//! * **Divergence rollback** — after every epoch the trainer validates that
//!   losses are finite, the epoch loss has not exploded, and all parameters
//!   are finite and on their manifolds (items inside the Poincaré ball,
//!   users on the Lorentz sheet, tag centers in the valid norm range). On
//!   violation it rolls back to the last healthy epoch, halves the learning
//!   rate, and retries, up to `max_recoveries` times; every action lands in
//!   [`TrainReport::recoveries`].

use logirec_data::{BatchIter, Dataset, NegativeSampler, Split};
use logirec_eval::evaluate_traced;
use logirec_hyperbolic::{lorentz, poincare, rsgd};
use logirec_linalg::{ops, Embedding, Scalar, SplitMix64};
use logirec_obs::{Telemetry, Value};
use logirec_taxonomy::TagId;

use crate::checkpoint::{self, BestSnapshot, Checkpoint};
use crate::config::{Geometry, LogiRecConfig, Precision};
use crate::graph::PropGraph;
use crate::losses::{logic_loss_grad_sharded, LogicBatch};
use crate::mining::{combine_weights, consistency_weights, granularity_weights};
use crate::model::LogiRec;
use crate::shard::shard_count;
use crate::step::TrainStep;

/// Per-epoch training statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean ranking loss over the epoch's steps.
    pub rank_loss: f64,
    /// Mean logical relation loss (already λ-scaled).
    pub logic_loss: f64,
    /// Validation Recall@10, when evaluated this epoch.
    pub val_recall10: Option<f64>,
}

/// What the trainer did about a detected problem.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryAction {
    /// Batches with non-finite gradients were skipped during the epoch.
    SkippedSteps {
        /// Number of skipped optimizer steps.
        steps: usize,
    },
    /// Parameters and trainer state were rolled back to the last healthy
    /// epoch and the learning rate was scaled down.
    RolledBack {
        /// The LR backoff factor now in effect.
        lr_scale: f64,
    },
    /// A `resume_from` checkpoint was unreadable or incompatible; training
    /// restarted from scratch.
    RestartedFresh,
    /// The rollback budget (`max_recoveries`) was exhausted; training
    /// stopped at the last healthy state.
    Aborted,
}

/// One recovery performed by the fault-tolerant trainer.
#[derive(Debug, Clone, PartialEq)]
pub struct Recovery {
    /// Epoch at which the problem was detected.
    pub epoch: usize,
    /// Human-readable description of what was detected.
    pub reason: String,
    /// What the trainer did about it.
    pub action: RecoveryAction,
}

/// Summary of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Per-epoch statistics (healthy epochs only; rolled-back attempts are
    /// not recorded here).
    pub history: Vec<EpochStats>,
    /// Best validation Recall@10 observed (None when never evaluated).
    pub best_val_recall10: Option<f64>,
    /// Number of healthy epochs completed (≤ `cfg.epochs` with early
    /// stopping or an exhausted recovery budget).
    pub epochs_run: usize,
    /// Every divergence/corruption recovery performed during the run, in
    /// order. Empty for a clean run.
    pub recoveries: Vec<Recovery>,
}

/// Best validation model: `(recall@10, tags, items, users)`.
type BestModel<S> = Option<(f64, Embedding<S>, Embedding<S>, Embedding<S>)>;

/// Everything that evolves across epochs besides the model parameters.
/// Snapshotted wholesale for rollback and serialized into checkpoints.
#[derive(Debug, Clone)]
struct TrainerState<S: Scalar = f64> {
    /// Next epoch to run (== number of completed healthy epochs).
    epoch: usize,
    rng: SplitMix64,
    lr_scale: f64,
    bad_rounds: usize,
    history: Vec<EpochStats>,
    alpha: Option<Vec<f64>>,
    best: BestModel<S>,
}

impl<S: Scalar> TrainerState<S> {
    fn fresh(cfg: &LogiRecConfig) -> Self {
        Self {
            epoch: 0,
            rng: SplitMix64::new(cfg.seed.wrapping_mul(0x9E37_79B9) ^ 0x1357_9BDF),
            lr_scale: 1.0,
            bad_rounds: 0,
            history: Vec::new(),
            alpha: None,
            best: None,
        }
    }
}

/// The last healthy (state, parameters) pair, for divergence rollback.
struct GoodSnapshot<S: Scalar = f64> {
    state: TrainerState<S>,
    tags: Embedding<S>,
    items: Embedding<S>,
    users: Embedding<S>,
}

impl<S: Scalar> GoodSnapshot<S> {
    fn capture(state: &TrainerState<S>, model: &LogiRec<S>) -> Self {
        Self {
            state: state.clone(),
            tags: model.tags.clone(),
            items: model.items.clone(),
            users: model.users.clone(),
        }
    }

    fn restore(&self, state: &mut TrainerState<S>, model: &mut LogiRec<S>) {
        *state = self.state.clone();
        model.tags = self.tags.clone();
        model.items = self.items.clone();
        model.users = self.users.clone();
    }
}

/// Trains LogiRec/LogiRec++ on `dataset` and returns the model with a
/// fresh forward state (ready for ranking) plus the training report.
///
/// ```
/// use logirec_core::{train, LogiRecConfig};
/// use logirec_data::{DatasetSpec, Scale};
/// let dataset = DatasetSpec::ciao(Scale::Tiny).generate(42);
/// let cfg = LogiRecConfig { dim: 8, epochs: 2, eval_every: 0, ..LogiRecConfig::default() };
/// let (model, report) = train(cfg, &dataset);
/// assert!(model.all_finite());
/// assert_eq!(report.epochs_run, 2);
/// assert!(report.recoveries.is_empty());
/// ```
pub fn train(cfg: LogiRecConfig, dataset: &Dataset) -> (LogiRec, TrainReport) {
    let cfg = cfg.validated();
    match cfg.precision {
        Precision::F64 => train_typed::<f64>(cfg, dataset),
        Precision::F32 => {
            let (model32, report) = train_typed::<f32>(cfg, dataset);
            // Serve in f64: widen the learned tables exactly and rebuild the
            // forward state at serving precision.
            let mut model = model32.cast::<f64>();
            model.propagate(&dataset.train);
            (model, report)
        }
    }
}

/// [`train`] instantiated at an explicit working precision `S`. The `f64`
/// instantiation is the bit-identical reference path the determinism suite
/// byte-compares; `f32` runs the same kernels in single precision, with
/// gradient accuracy bounded by the parity tests (`tests/precision.rs`).
pub fn train_typed<S: Scalar>(
    cfg: LogiRecConfig,
    dataset: &Dataset,
) -> (LogiRec<S>, TrainReport) {
    let cfg = cfg.validated();
    assert!(cfg.dim >= 1, "LogiRecConfig::dim must be at least 1, got {}", cfg.dim);
    assert!(
        cfg.lambda.is_finite() && cfg.lambda >= 0.0,
        "LogiRecConfig::lambda must be finite and at least 0, got {}",
        cfg.lambda
    );
    let tel = cfg.telemetry.clone();
    let mut train_span = tel.span("train");
    let c_steps = tel.counter("trainer.steps");
    let c_skipped = tel.counter("trainer.skipped_steps");
    let c_ckpt_fail = tel.counter("checkpoint.write_failures");
    let c_grad_rows = tel.counter("trainer.grad_rows_touched");

    let mut model = LogiRec::new(cfg.clone(), dataset);
    let mut state = TrainerState::fresh(&cfg);
    let mut recoveries: Vec<Recovery> = Vec::new();

    if let Some(path) = &cfg.resume_from {
        match checkpoint::load(path).map_err(|e| e.to_string()).and_then(|ck| {
            apply_checkpoint(ck, &cfg, &mut model, &mut state, &mut recoveries)
        }) {
            Ok(()) => {}
            Err(msg) => {
                // The checkpoint is unusable; a fresh start is the only safe
                // recovery. Make sure no half-applied state leaks through.
                model = LogiRec::new(cfg.clone(), dataset);
                state = TrainerState::fresh(&cfg);
                let rec = Recovery {
                    epoch: 0,
                    reason: format!("resume from {} failed: {msg}", path.display()),
                    action: RecoveryAction::RestartedFresh,
                };
                record_recovery(&tel, &rec);
                recoveries.push(rec);
            }
        }
    }

    let n_users = dataset.n_users();
    // Adjacency normalization + neighbor CSR, built once per dataset and
    // reused by every forward/backward pass instead of per call.
    let pg = PropGraph::build(&dataset.train);
    let rel = &dataset.relations;
    let exclusion_pairs: Vec<(TagId, TagId)> =
        rel.exclusion.iter().map(|&(a, b, _)| (a, b)).collect();
    let intersection_pairs: Vec<(TagId, TagId)> =
        if cfg.use_int { rel.intersection_pairs() } else { Vec::new() };
    let con = if cfg.mining { Some(consistency_weights(dataset)) } else { None };

    let mut last_good = GoodSnapshot::capture(&state, &model);
    // The receptive-field step's tables, sized on first use after each
    // full forward (see the mining refresh and validation below).
    let mut step: Option<TrainStep<S>> = None;
    let mut rollbacks =
        recoveries.iter().filter(|r| matches!(r.action, RecoveryAction::RolledBack { .. })).count();

    // Early stopping gates the top of the loop so that resuming from a
    // checkpoint written after patience ran out stops immediately instead
    // of training one extra epoch.
    while state.epoch < cfg.epochs
        && !(cfg.patience > 0 && state.bad_rounds >= cfg.patience)
    {
        let epoch = state.epoch;
        let lr = cfg.lr * state.lr_scale;
        let mut ep_span = tel.span("epoch");
        ep_span.field("epoch", epoch as u64);
        tel.gauge("trainer.lr").set(lr);
        // Refresh LogiRec++ weights from the current geometry. A full
        // forward never runs beside the step's tables, and its state is
        // dropped once read: the two never stack in memory, and nothing
        // reads finals the parameters have since moved away from.
        if let Some(con) = &con {
            if state.alpha.is_none() || epoch.is_multiple_of(cfg.mining_refresh.max(1)) {
                let mut mine_span = tel.span("mining");
                mine_span.field("users", n_users as u64);
                step = None;
                model.propagate_graph(&pg);
                let gr = granularity_weights(&model, n_users);
                model.clear_state();
                state.alpha = Some(combine_weights(con, &gr, cfg.alpha_floor));
            }
        }

        let mut sampler =
            NegativeSampler::new(&dataset.train, state.rng.fork(1_000 + epoch as u64));
        sampler.instrument(&tel);
        let mut batch_rng = state.rng.fork(2_000 + epoch as u64);
        let mut logic_rng = state.rng.fork(3_000 + epoch as u64);

        let (mut rank_sum, mut logic_sum, mut steps) = (0.0, 0.0, 0usize);
        let mut skipped_steps = 0usize;
        for batch in BatchIter::new(&dataset.train, cfg.batch_size, &mut batch_rng) {
            let mut batch_span = tel.span("batch");
            batch_span.field("pairs", batch.len() as u64);
            // Ranking triplets with sampled negatives (sampling stays
            // serial: the RNG stream must not depend on train_threads). The
            // sampler reads no finals, so it runs before the forward that
            // needs the triplets' rows.
            let mut triplets = Vec::with_capacity(batch.len() * cfg.negatives);
            for &(u, vp) in &batch {
                for _ in 0..cfg.negatives {
                    triplets.push((u, vp, sampler.sample(u)));
                }
            }
            let step = step.get_or_insert_with(|| TrainStep::new(&model));
            let mut fwd_span = tel.span("forward");
            step.forward(&model, &pg, &triplets);
            fwd_span.field("rows", step.rows() as u64);
            fwd_span.close();

            let mut rank_span = tel.span("loss");
            rank_span.field("term", "rank");
            // Sum-weighted per positive (each user's triplets contribute a
            // full gradient unit regardless of batch size): batched
            // full-graph steps then match the effective per-sample step
            // size of classic metric-learning SGD.
            let per_triplet = 1.0 / cfg.negatives as f64;
            let mut fan_span = tel.span("loss.shards");
            fan_span.field("term", "rank");
            fan_span.field("shards", shard_count(triplets.len()) as u64);
            fan_span.field("threads", cfg.train_threads as u64);
            let alpha = state.alpha.as_deref();
            let rg = step.rank_loss(&model, &triplets, cfg.margin, alpha, per_triplet);
            fan_span.close();
            rank_span.close();
            let rank_rows = rg.users.nnz() + rg.items.nnz();
            let mut bwd_span = tel.span("backward");
            bwd_span.field("rows", rank_rows as u64);
            let (g_users, g_items) = step.backward(&model, &pg, &rg);
            bwd_span.close();

            let mut logic_span = tel.span("loss");
            logic_span.field("term", "logic");
            // Logical relation batches. Per-relation weights make the
            // stochastic objective an unbiased estimate of the batch's
            // share of Eq. 10/15: the rank part covers batch_len of
            // n_pairs positives, so each relation type is scaled by
            // λ · (batch_len / n_pairs) · (N_type / sample_len).
            // Sampling is serial (fixed RNG stream); only the gradient
            // accumulation fans out across shards.
            let (mem_s, hie_s, ex_s, int_s);
            let mut batches: Vec<(LogicBatch<'_>, f64)> = Vec::new();
            if cfg.lambda > 0.0 {
                let batch_frac = batch.len() as f64 / dataset.train.len().max(1) as f64;
                let type_weight = |n_total: usize, n_sampled: usize| {
                    cfg.lambda * batch_frac * n_total as f64 / n_sampled as f64
                };
                if cfg.use_mem && !rel.membership.is_empty() {
                    mem_s = sample_slice(&rel.membership, cfg.logic_batch, &mut logic_rng);
                    let w = type_weight(rel.membership.len(), mem_s.len());
                    batches.push((LogicBatch::Membership(&mem_s), w));
                }
                if cfg.use_hie && !rel.hierarchy.is_empty() {
                    hie_s = sample_slice(&rel.hierarchy, cfg.logic_batch, &mut logic_rng);
                    let w = type_weight(rel.hierarchy.len(), hie_s.len());
                    batches.push((LogicBatch::Hierarchy(&hie_s), w));
                }
                if cfg.use_ex && !exclusion_pairs.is_empty() {
                    ex_s = sample_slice(&exclusion_pairs, cfg.logic_batch, &mut logic_rng);
                    let w = type_weight(exclusion_pairs.len(), ex_s.len());
                    batches.push((LogicBatch::Exclusion(&ex_s), w));
                }
                if cfg.use_int && !intersection_pairs.is_empty() {
                    int_s = sample_slice(&intersection_pairs, cfg.logic_batch, &mut logic_rng);
                    let w = type_weight(intersection_pairs.len(), int_s.len());
                    batches.push((LogicBatch::Intersection(&int_s), w));
                }
            }
            let mut fan_span = tel.span("loss.shards");
            fan_span.field("term", "logic");
            fan_span.field("threads", cfg.train_threads as u64);
            let lg = logic_loss_grad_sharded(&model, &batches, cfg.train_threads);
            fan_span.close();
            let mut merge_span = tel.span("grad.merge");
            merge_span.field("term", "logic");
            merge_span.field("rows", lg.rows_touched() as u64);
            let mut g_tags = Embedding::zeros(model.tags.rows(), cfg.dim);
            lg.tags.scatter_add(&mut g_tags);
            lg.items.scatter_add(g_items);
            merge_span.close();
            logic_span.close();
            c_grad_rows.add((rank_rows + lg.rows_touched()) as u64);

            inject_gradient_faults(&cfg, epoch, steps, g_users, g_items);

            // Step guard: a poisoned gradient batch (NaN/Inf from upstream
            // corruption or injection) is dropped, not applied. The RSGD
            // steps have their own per-row guards, but skipping here keeps
            // the whole update consistent and lets us report it.
            if g_users.all_finite() && g_items.all_finite() && g_tags.all_finite() {
                apply_updates(&mut model, g_users, g_items, Some(&g_tags), lr);
                c_steps.incr();
            } else {
                skipped_steps += 1;
                c_skipped.incr();
            }
            rank_sum += rg.loss;
            logic_sum += lg.loss;
            steps += 1;
        }

        inject_model_faults(&cfg, epoch, &mut model);

        let denom = steps.max(1) as f64;
        let mut stats = EpochStats {
            epoch,
            rank_loss: rank_sum / denom,
            logic_loss: logic_sum / denom,
            val_recall10: None,
        };
        ep_span.field("steps", steps as u64);
        ep_span.field("rank_loss", stats.rank_loss);
        ep_span.field("logic_loss", stats.logic_loss);

        // Divergence check — before validation, so a corrupted model never
        // reaches the evaluator or the best-snapshot logic.
        let baseline = state
            .history
            .iter()
            .map(|h| h.rank_loss)
            .filter(|l| l.is_finite())
            .fold(None, |acc: Option<f64>, l| Some(acc.map_or(l, |a| a.min(l))));
        let health = check_health(&model, &stats, baseline, EXPLOSION_FACTOR);
        if tel.is_enabled() {
            let mut fields = vec![
                ("epoch", Value::U64(epoch as u64)),
                ("ok", Value::Bool(health.is_none())),
            ];
            if let Some(reason) = &health {
                fields.push(("reason", Value::Str(reason.clone())));
            }
            tel.event("health", "epoch", fields);
        }
        if let Some(reason) = health {
            if rollbacks >= cfg.max_recoveries {
                let rec = Recovery {
                    epoch,
                    reason: format!(
                        "{reason}; recovery budget ({}) exhausted, stopping at the last \
                         healthy epoch",
                        cfg.max_recoveries
                    ),
                    action: RecoveryAction::Aborted,
                };
                record_recovery(&tel, &rec);
                recoveries.push(rec);
                last_good.restore(&mut state, &mut model);
                break;
            }
            let new_scale = state.lr_scale * 0.5;
            {
                let mut roll_span = tel.span("recovery");
                roll_span.field("epoch", epoch as u64);
                roll_span.field("lr_scale", new_scale);
                last_good.restore(&mut state, &mut model);
            }
            // The backoff survives the rollback (the snapshot carries the
            // pre-divergence scale) and compounds across repeated failures.
            state.lr_scale = new_scale;
            tel.gauge("trainer.lr_scale").set(new_scale);
            rollbacks += 1;
            let rec = Recovery {
                epoch,
                reason,
                action: RecoveryAction::RolledBack { lr_scale: new_scale },
            };
            record_recovery(&tel, &rec);
            recoveries.push(rec);
            continue;
        }
        if skipped_steps > 0 {
            let rec = Recovery {
                epoch,
                reason: format!("non-finite gradients in {skipped_steps} of {steps} steps"),
                action: RecoveryAction::SkippedSteps { steps: skipped_steps },
            };
            record_recovery(&tel, &rec);
            recoveries.push(rec);
        }

        // Validation tracking / early stopping (model is known healthy).
        if cfg.eval_every > 0 && (epoch + 1).is_multiple_of(cfg.eval_every) {
            let mut eval_span = tel.span("eval");
            eval_span.field("split", "validation");
            step = None;
            model.propagate_graph(&pg);
            let res = evaluate_traced(
                &model,
                dataset,
                Split::Validation,
                &[10],
                cfg.eval_threads,
                &tel,
            );
            model.clear_state();
            let r10 = res.recall_at(10);
            eval_span.field("recall10", r10);
            eval_span.close();
            stats.val_recall10 = Some(r10);
            let improved = state.best.as_ref().is_none_or(|(b, _, _, _)| r10 > *b);
            if improved {
                state.best =
                    Some((r10, model.tags.clone(), model.items.clone(), model.users.clone()));
                state.bad_rounds = 0;
            } else {
                state.bad_rounds += 1;
            }
        }
        state.history.push(stats);
        state.epoch += 1;
        last_good = GoodSnapshot::capture(&state, &model);

        if cfg.checkpoint_every > 0 && state.epoch.is_multiple_of(cfg.checkpoint_every) {
            if let Some(path) = &cfg.checkpoint_path {
                let mut ck_span = tel.span("checkpoint");
                ck_span.field("op", "epoch");
                ck_span.field("epoch", state.epoch as u64);
                let ck = make_checkpoint(&state, &model, &recoveries);
                match checkpoint::save(&ck, path) {
                    Ok(bytes) => ck_span.field("bytes", bytes),
                    Err(e) => {
                        // Checkpointing is belt-and-braces; a failed write
                        // must not kill an otherwise healthy run.
                        ck_span.field("failed", true);
                        c_ckpt_fail.incr();
                        tel.warn(
                            "checkpoint.write_failed",
                            format!("checkpoint write to {} failed: {e}", path.display()),
                        );
                    }
                }
            }
        }
        // Publish the kernel's peak-RSS mark once per epoch; it already
        // covers every spike in between (checkpoint buffers included).
        logirec_obs::rss::set_peak_rss_gauge(&tel);
        ep_span.close();
    }

    // Restore the best validation snapshot, if any.
    drop(step);
    let best_val = state.best.as_ref().map(|(b, _, _, _)| *b);
    if let Some((_, tags, items, users)) = state.best {
        model.tags = tags;
        model.items = items;
        model.users = users;
    }
    model.propagate_graph(&pg);
    debug_assert!(model.all_finite());
    train_span.field("epochs_run", state.epoch as u64);
    train_span.field("recoveries", recoveries.len() as u64);
    train_span.close();
    (
        model,
        TrainReport {
            history: state.history,
            best_val_recall10: best_val,
            epochs_run: state.epoch,
            recoveries,
        },
    )
}

/// Emits the structured telemetry for one [`Recovery`]: a `recovery` event
/// carrying the action details (LR backoff scale for rollbacks, skipped
/// step count, the failed invariant in `reason`) and a bump of the
/// `trainer.recoveries` counter.
fn record_recovery(tel: &Telemetry, r: &Recovery) {
    if !tel.is_enabled() {
        return;
    }
    tel.counter("trainer.recoveries").incr();
    let mut fields: Vec<(&'static str, Value)> = vec![
        ("epoch", Value::U64(r.epoch as u64)),
        ("reason", Value::Str(r.reason.clone())),
    ];
    let action = match &r.action {
        RecoveryAction::SkippedSteps { steps } => {
            fields.push(("steps", Value::U64(*steps as u64)));
            "skipped_steps"
        }
        RecoveryAction::RolledBack { lr_scale } => {
            fields.push(("lr_scale", Value::F64(*lr_scale)));
            "rolled_back"
        }
        RecoveryAction::RestartedFresh => "restarted_fresh",
        RecoveryAction::Aborted => "aborted",
    };
    fields.push(("action", Value::Str(action.to_string())));
    tel.event("recovery", action, fields);
}

/// Loss-explosion threshold of training's health check: an epoch whose
/// mean rank loss exceeds this many times the best epoch loss so far is
/// treated as divergence.
const EXPLOSION_FACTOR: f64 = 100.0;

/// Validates the post-epoch state; returns a reason string when the epoch
/// must be rolled back. The loss-explosion test needs a
/// `baseline_rank_loss` and a positive `explosion_factor`: training passes
/// [`EXPLOSION_FACTOR`]. Compaction (`crate::stream::compact`) runs this
/// check after each of its epochs.
pub(crate) fn check_health<S: Scalar>(
    model: &LogiRec<S>,
    stats: &EpochStats,
    baseline_rank_loss: Option<f64>,
    explosion_factor: f64,
) -> Option<String> {
    if !stats.rank_loss.is_finite() || !stats.logic_loss.is_finite() {
        return Some(format!(
            "non-finite epoch loss (rank {}, logic {})",
            stats.rank_loss, stats.logic_loss
        ));
    }
    if explosion_factor > 0.0 {
        if let Some(b) = baseline_rank_loss {
            let limit = explosion_factor * b.abs().max(1e-6);
            if stats.rank_loss > limit {
                return Some(format!(
                    "rank loss exploded: {} > {explosion_factor} × best epoch loss {b}",
                    stats.rank_loss
                ));
            }
        }
    }
    if !model.all_finite() {
        return Some("non-finite model parameter".into());
    }
    if model.cfg.geometry == Geometry::Hyperbolic {
        for v in 0..model.items.rows() {
            if !poincare::in_ball(model.items.row(v)) {
                return Some(format!("item {v} escaped the Poincaré ball"));
            }
        }
        for u in 0..model.users.rows() {
            if !lorentz::on_sheet(model.users.row(u)) {
                return Some(format!("user {u} left the Lorentz sheet"));
            }
        }
        for t in 0..model.tags.rows() {
            let n = ops::norm(model.tags.row(t)).to_f64();
            if !(n > 0.0 && n < 1.0) {
                return Some(format!("tag {t} hyperplane center has invalid norm {n}"));
            }
        }
    }
    None
}

fn make_checkpoint<S: Scalar>(
    state: &TrainerState<S>,
    model: &LogiRec<S>,
    recoveries: &[Recovery],
) -> Checkpoint {
    Checkpoint {
        epoch: state.epoch,
        lr_scale: state.lr_scale,
        bad_rounds: state.bad_rounds,
        history: state.history.clone(),
        recoveries: recoveries.to_vec(),
        alpha: state.alpha.clone(),
        best: state.best.as_ref().map(|(recall, tags, items, users)| BestSnapshot {
            recall: *recall,
            tags: tags.cast(),
            items: items.cast(),
            users: users.cast(),
        }),
        ..Checkpoint::of_model(model, state.rng.state())
    }
}

/// Validates a loaded checkpoint against the live config/dataset shapes and
/// installs it into the trainer. Any mismatch is an error (the caller falls
/// back to a fresh start).
fn apply_checkpoint<S: Scalar>(
    ck: Checkpoint,
    cfg: &LogiRecConfig,
    model: &mut LogiRec<S>,
    state: &mut TrainerState<S>,
    recoveries: &mut Vec<Recovery>,
) -> Result<(), String> {
    if ck.precision != cfg.precision {
        return Err(format!(
            "checkpoint was written at {} precision but the config trains in {}",
            ck.precision, cfg.precision
        ));
    }
    ck.check_layout(cfg)?;
    if ck.epoch > cfg.epochs {
        return Err(format!(
            "checkpoint is at epoch {} but the config trains only {}",
            ck.epoch, cfg.epochs
        ));
    }
    let shape = |m: &Embedding| (m.rows(), m.dim());
    let shape_s = |m: &Embedding<S>| (m.rows(), m.dim());
    for (name, got, want) in [
        ("tags", shape(&ck.tags), shape_s(&model.tags)),
        ("items", shape(&ck.items), shape_s(&model.items)),
        ("users", shape(&ck.users), shape_s(&model.users)),
    ] {
        if got != want {
            return Err(format!(
                "checkpoint {name} table is {}×{} but the dataset needs {}×{}",
                got.0, got.1, want.0, want.1
            ));
        }
    }
    if let Some(b) = &ck.best {
        if shape(&b.tags) != shape_s(&model.tags)
            || shape(&b.items) != shape_s(&model.items)
            || shape(&b.users) != shape_s(&model.users)
        {
            return Err("checkpoint best-snapshot tables do not match the dataset".into());
        }
    }
    if let Some(a) = &ck.alpha {
        if a.len() != model.users.rows() {
            return Err(format!(
                "checkpoint has {} mining weights for {} users",
                a.len(),
                model.users.rows()
            ));
        }
    }
    model.tags = ck.tags.cast();
    model.items = ck.items.cast();
    model.users = ck.users.cast();
    // A checkpoint at epoch 0 (a model file, compaction's pre-compaction
    // checkpoint) has no progress to continue: its run samples from the
    // stream `cfg.seed` seeds, as a fresh run would.
    let rng = if ck.epoch == 0 {
        TrainerState::<S>::fresh(cfg).rng
    } else {
        SplitMix64::from_state(ck.rng_state)
    };
    *state = TrainerState {
        epoch: ck.epoch,
        rng,
        lr_scale: ck.lr_scale,
        bad_rounds: ck.bad_rounds,
        history: ck.history,
        alpha: ck.alpha,
        best: ck.best.map(|b| (b.recall, b.tags.cast(), b.items.cast(), b.users.cast())),
    };
    *recoveries = ck.recoveries;
    Ok(())
}

#[cfg(feature = "fault-injection")]
fn inject_gradient_faults<S: Scalar>(
    cfg: &LogiRecConfig,
    epoch: usize,
    step: usize,
    g_users: &mut Embedding<S>,
    g_items: &mut Embedding<S>,
) {
    if let Some(plan) = &cfg.faults {
        plan.corrupt_gradients(epoch, step, g_users, g_items);
    }
}

#[cfg(not(feature = "fault-injection"))]
fn inject_gradient_faults<S: Scalar>(
    _cfg: &LogiRecConfig,
    _epoch: usize,
    _step: usize,
    _g_users: &mut Embedding<S>,
    _g_items: &mut Embedding<S>,
) {
}

/// The model-fault hook, run after an epoch's updates by the trainer and by
/// compaction (`crate::stream::compact`).
#[cfg(feature = "fault-injection")]
pub(crate) fn inject_model_faults<S: Scalar>(
    cfg: &LogiRecConfig,
    epoch: usize,
    model: &mut LogiRec<S>,
) {
    if let Some(plan) = &cfg.faults {
        plan.corrupt_model(epoch, model);
    }
}

#[cfg(not(feature = "fault-injection"))]
pub(crate) fn inject_model_faults<S: Scalar>(
    _cfg: &LogiRecConfig,
    _epoch: usize,
    _model: &mut LogiRec<S>,
) {
}

/// Applies one optimizer step per parameter family with the geometry's
/// Riemannian (or plain) SGD rules. Per-row steps are independent, so the
/// result is bit-identical across thread counts. With `g_tags` absent the
/// tag table is left untouched (compaction moves only users and items).
pub(crate) fn apply_updates<S: Scalar>(
    model: &mut LogiRec<S>,
    g_users: &Embedding<S>,
    g_items: &Embedding<S>,
    g_tags: Option<&Embedding<S>>,
    lr: f64,
) {
    let threads = model.cfg.train_threads;
    match model.cfg.geometry {
        Geometry::Hyperbolic => {
            crate::parallel::for_each_row(&mut model.users, threads, |u, row| {
                let g = g_users.row(u);
                if !is_zero(g) {
                    rsgd::lorentz_step(row, g, lr);
                }
            });
            crate::parallel::for_each_row(&mut model.items, threads, |v, row| {
                let g = g_items.row(v);
                if !is_zero(g) {
                    rsgd::poincare_step(row, g, lr);
                }
            });
            if let Some(g_tags) = g_tags {
                crate::parallel::for_each_row(&mut model.tags, threads, |t, row| {
                    let g = g_tags.row(t);
                    if !is_zero(g) {
                        rsgd::hyperplane_step(row, g, lr);
                    }
                });
            }
        }
        Geometry::Euclidean => {
            crate::parallel::for_each_row(&mut model.users, threads, |u, row| {
                rsgd::euclidean_step(row, g_users.row(u), lr);
            });
            crate::parallel::for_each_row(&mut model.items, threads, |v, row| {
                rsgd::euclidean_step(row, g_items.row(v), lr);
                // Keep the ball parametrization of the tag losses valid.
                ops::clip_norm(row, S::from_f64(1.0 - 1e-5));
            });
            if let Some(g_tags) = g_tags {
                crate::parallel::for_each_row(&mut model.tags, threads, |t, row| {
                    rsgd::euclidean_step(row, g_tags.row(t), lr);
                    logirec_hyperbolic::hyperplane::clamp_center(row);
                });
            }
        }
    }
}

#[inline]
fn is_zero<S: Scalar>(g: &[S]) -> bool {
    g.iter().all(|&x| x == S::ZERO)
}

/// Samples up to `n` elements uniformly without replacement-ish (with
/// replacement for simplicity; duplicates are harmless for SGD estimates).
fn sample_slice<T: Copy>(all: &[T], n: usize, rng: &mut SplitMix64) -> Vec<T> {
    if all.len() <= n {
        return all.to_vec();
    }
    (0..n).map(|_| all[rng.index(all.len())]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_data::{DatasetSpec, Scale};
    use logirec_eval::evaluate;

    fn quick_cfg() -> LogiRecConfig {
        LogiRecConfig {
            epochs: 6,
            eval_every: 0,
            patience: 0,
            ..LogiRecConfig::test_config()
        }
    }

    #[test]
    fn training_reduces_rank_loss() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(1);
        let (_, report) = train(quick_cfg(), &ds);
        let first = report.history.first().unwrap().rank_loss;
        let last = report.history.last().unwrap().rank_loss;
        assert!(last < first, "rank loss did not drop: {first} → {last}");
    }

    #[test]
    #[should_panic(expected = "LogiRecConfig::dim must be at least 1")]
    fn zero_dim_is_refused_with_a_readable_message() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(1);
        train(LogiRecConfig { dim: 0, ..quick_cfg() }, &ds);
    }

    #[test]
    fn nan_or_negative_lambda_is_refused_with_a_readable_message() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(1);
        for lambda in [f64::NAN, -1.0, f64::INFINITY] {
            let cfg = LogiRecConfig { lambda, ..quick_cfg() };
            let err = std::panic::catch_unwind(|| train(cfg, &ds)).expect_err("refused");
            let msg = err.downcast_ref::<String>().map_or("", String::as_str);
            assert!(msg.contains("LogiRecConfig::lambda must be finite and at least 0"), "{msg}");
        }
    }

    #[test]
    fn trained_model_beats_untrained_on_validation() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(2);
        let cfg = quick_cfg();
        let mut untrained: LogiRec = LogiRec::new(cfg.clone(), &ds);
        untrained.propagate(&ds.train);
        let base = evaluate(&untrained, &ds, Split::Validation, &[10], 2).recall_at(10);
        let (model, _) = train(cfg, &ds);
        let trained = evaluate(&model, &ds, Split::Validation, &[10], 2).recall_at(10);
        assert!(
            trained > base,
            "training should improve recall: {base:.4} → {trained:.4}"
        );
    }

    #[test]
    fn parameters_stay_on_manifolds_and_finite() {
        let ds = DatasetSpec::cd(Scale::Tiny).generate(3);
        let (model, _) = train(quick_cfg(), &ds);
        assert!(model.all_finite());
        for v in 0..model.items.rows() {
            assert!(poincare::in_ball(model.items.row(v)));
        }
        for u in 0..model.users.rows() {
            assert!(lorentz::on_manifold(model.users.row(u), 1e-6));
        }
        for t in 0..model.tags.rows() {
            let n = ops::norm(model.tags.row(t));
            assert!(n > 0.0 && n < 1.0, "tag {t} norm {n}");
        }
    }

    #[test]
    fn logic_losses_shrink_relation_violations() {
        // Training with λ > 0 must leave strictly less logical-relation
        // violation than training without the logic losses.
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(4);
        let violation = |model: &LogiRec| {
            let mut acc = crate::losses::LogicGrads::zeros(model);
            crate::losses::membership_loss_grad(model, &ds.relations.membership, 1.0, &mut acc);
            crate::losses::hierarchy_loss_grad(model, &ds.relations.hierarchy, 1.0, &mut acc);
            let ex: Vec<(TagId, TagId)> =
                ds.relations.exclusion.iter().map(|&(a, b, _)| (a, b)).collect();
            crate::losses::exclusion_loss_grad(model, &ex, 1.0, &mut acc);
            acc.loss
        };
        let mut with = quick_cfg();
        with.lambda = 1.0;
        with.epochs = 10;
        let mut without = with.clone();
        without.lambda = 0.0;
        let (m_with, _) = train(with, &ds);
        let (m_without, _) = train(without, &ds);
        assert!(m_with.all_finite());
        let (v_with, v_without) = (violation(&m_with), violation(&m_without));
        assert!(
            v_with < v_without,
            "λ>0 should reduce violations: {v_with} vs {v_without}"
        );
    }

    #[test]
    fn euclidean_ablation_trains() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(5);
        let mut cfg = quick_cfg();
        cfg.geometry = Geometry::Euclidean;
        let (model, report) = train(cfg, &ds);
        assert!(model.all_finite());
        assert!(report.history.last().unwrap().rank_loss.is_finite());
    }

    #[test]
    fn early_stopping_respects_patience() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(6);
        let cfg = LogiRecConfig {
            epochs: 50,
            eval_every: 1,
            patience: 2,
            lr: 0.0, // nothing improves → stop after exactly 1 + patience rounds
            ..LogiRecConfig::test_config()
        };
        let (_, report) = train(cfg, &ds);
        assert!(report.epochs_run <= 4, "ran {} epochs", report.epochs_run);
        assert!(report.best_val_recall10.is_some());
    }

    #[test]
    fn mining_weights_are_refreshed_and_used() {
        let ds = DatasetSpec::cd(Scale::Tiny).generate(7);
        let mut cfg = quick_cfg();
        cfg.mining = true;
        cfg.mining_refresh = 2;
        let (model, _) = train(cfg, &ds);
        assert!(model.all_finite());
    }

    #[test]
    fn sample_slice_caps_at_population() {
        let mut rng = SplitMix64::new(1);
        let all = [1, 2, 3];
        assert_eq!(sample_slice(&all, 10, &mut rng), vec![1, 2, 3]);
        assert_eq!(sample_slice(&all, 2, &mut rng).len(), 2);
    }

    #[test]
    fn clean_runs_report_no_recoveries() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(9);
        let (_, report) = train(quick_cfg(), &ds);
        assert!(report.recoveries.is_empty(), "{:?}", report.recoveries);
    }

    #[test]
    fn missing_resume_checkpoint_falls_back_to_fresh_start() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(10);
        let mut cfg = quick_cfg();
        cfg.epochs = 2;
        cfg.resume_from = Some(std::path::PathBuf::from("/nonexistent/checkpoint.ckpt"));
        let (model, report) = train(cfg, &ds);
        assert!(model.all_finite());
        assert_eq!(report.epochs_run, 2);
        assert_eq!(report.recoveries.len(), 1);
        assert!(matches!(report.recoveries[0].action, RecoveryAction::RestartedFresh));
    }

    #[test]
    fn a_model_file_resumes_at_epoch_zero_from_its_tables() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(12);
        let path = std::env::temp_dir()
            .join(format!("logirec-trainer-model-resume-{}", std::process::id()));
        let (trained, _) = train(LogiRecConfig { epochs: 2, ..quick_cfg() }, &ds);
        crate::io::save_model(&trained, &path).expect("save model");

        // No epochs to run: the resumed run returns the file's tables.
        let cfg = LogiRecConfig { epochs: 0, resume_from: Some(path.clone()), ..quick_cfg() };
        let (model, report) = train(cfg, &ds);
        assert!(report.recoveries.is_empty(), "{:?}", report.recoveries);
        assert_eq!(report.epochs_run, 0);
        assert_eq!(model.tags, trained.tags);
        assert_eq!(model.items, trained.items);
        assert_eq!(model.users, trained.users);

        // With epochs to run, training starts at epoch 0.
        let cfg = LogiRecConfig { epochs: 1, resume_from: Some(path.clone()), ..quick_cfg() };
        let (_, report) = train(cfg, &ds);
        assert!(report.recoveries.is_empty(), "{:?}", report.recoveries);
        assert_eq!(report.history.iter().map(|h| h.epoch).collect::<Vec<_>>(), [0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_model_file_resumes_on_the_runs_seed() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(13);
        let path = std::env::temp_dir()
            .join(format!("logirec-trainer-model-seed-{}", std::process::id()));
        let (trained, _) = train(LogiRecConfig { epochs: 1, ..quick_cfg() }, &ds);
        crate::io::save_model(&trained, &path).expect("save model");
        let resumed = |seed| {
            let resume_from = Some(path.clone());
            let cfg = LogiRecConfig { epochs: 1, seed, resume_from, ..quick_cfg() };
            let (model, report) = train(cfg, &ds);
            assert!(report.recoveries.is_empty(), "{:?}", report.recoveries);
            model
        };
        let (a, again, b) = (resumed(1), resumed(1), resumed(2));
        assert_eq!((&a.users, &a.items, &a.tags), (&again.users, &again.items, &again.tags));
        assert!(a.users != b.users || a.items != b.items, "seeds 1 and 2 trained alike");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checkpoints_are_written_at_the_configured_cadence() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(11);
        let path = std::env::temp_dir()
            .join(format!("logirec-trainer-ckpt-{}", std::process::id()));
        let mut cfg = quick_cfg();
        cfg.epochs = 3;
        cfg.checkpoint_every = 2;
        cfg.checkpoint_path = Some(path.clone());
        let _ = train(cfg.clone(), &ds);
        let ck = checkpoint::load(&path).expect("checkpoint written");
        // Written at epoch 2, not overwritten at 3 (3 % 2 != 0).
        assert_eq!(ck.epoch, 2);
        assert_eq!(ck.dim, cfg.dim);
        assert_eq!(ck.history.len(), 2);
        let _ = std::fs::remove_file(&path);
    }
}
