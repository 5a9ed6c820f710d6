//! Streaming updates and cold-start fold-in.
//!
//! The north star serves millions of users, and a full retrain per signup
//! is not an option. This module folds *new* entities into a **frozen**
//! trained model:
//!
//! * [`fold_in_user`] / [`fold_in_item`] optimize only the new row — a few
//!   deterministic RSGD steps of the hinge ranking objective against the
//!   frozen final-space embeddings of the opposite side. Pre-existing rows
//!   are byte-untouched and the result is bit-identical for every
//!   `train_threads` value (the optimization is a serial loop over one
//!   row).
//! * [`EventLog`] is the append-only ingest buffer for streamed
//!   interaction events. It lives in memory: making fold-ins durable
//!   across reloads and restarts is ROADMAP item 1.
//! * [`compact`] periodically folds accumulated events into an incremental
//!   training pass over the streamed pairs (anchored by a seeded rehearsal
//!   sample of warm pairs), with a durable
//!   pre-compaction checkpoint ([`recover_from_checkpoint`] is the
//!   kill-recovery path) and in-memory rollback when an epoch diverges.
//!
//! Both run the trainer's code rather than copies of it: fold-in's
//! objective is the trainer's hinge walk with the candidate row as the
//! query, and compaction takes the trainer's update rule, model-fault
//! hook, health check and checkpoint constructor. Fold-in and the health
//! check accept a row under one precision-aware sheet check,
//! `lorentz::on_sheet`. What lives here is what only streaming needs: the
//! row initialisation, the degree-0 inversion, the divergence guard, the
//! event log and the rehearsal sampling.
//!
//! ## Why optimizing in final space is sound
//!
//! A brand-new entity has no edges in the propagation graph, so every GCN
//! layer passes its tangent through unchanged and its final tangent is
//! `L·z₀` (see `graph::propagate_forward_graph`). The fold-in therefore
//! optimizes the entity's **final** carrier-space point `x` directly —
//! where the ranking distances live — and stores the base parameter row
//! whose degree-0 propagation reproduces `x`: for users
//! `exp₀(log₀(x)/L)`, for items the Poincaré image of that point.
//! Appending the row appends its degree-0 final to the cached forward
//! state (`ForwardState::push_user_row` / `push_item_row`, which a model's
//! `push_user_row` / `push_item_row` call), bit-identical to
//! re-propagating over the grown graph, so a serving snapshot, which keeps
//! only the state, appends the final of [`new_user_row`] /
//! [`new_item_row`] and publishes the extended state as is. The folded
//! row's final embedding equals the optimized point up to one exp/log
//! round trip (~1e-9), while every pre-existing final embedding is
//! untouched because the new node contributes no messages.

use std::path::{Path, PathBuf};

use logirec_data::InteractionSet;
use logirec_hyperbolic::{lorentz, maps, poincare, rsgd};
use logirec_linalg::{ops, Embedding, Scalar, SplitMix64};

use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::config::{Geometry, LogiRecConfig};
use crate::graph::PropGraph;
use crate::losses::{rank_accumulate, rank_scratch, RankScratch};
use crate::model::LogiRec;
use crate::step::TrainStep;
use crate::trainer::{apply_updates, check_health, inject_model_faults, EpochStats};

/// Typed errors from the fold-in path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FoldInError {
    /// The model has no cached forward state (`propagate` must run first:
    /// fold-in optimizes against the frozen final embeddings).
    NoForwardState,
    /// A positive id at or beyond the frozen table it indexes.
    PositiveOutOfRange {
        /// The offending id.
        id: usize,
        /// Number of rows in the frozen table.
        limit: usize,
    },
    /// The optimized row failed the manifold/finiteness check — the model
    /// is left untouched.
    NonFinite,
}

impl std::fmt::Display for FoldInError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldInError::NoForwardState => {
                write!(f, "fold-in requires a propagated model (no forward state)")
            }
            FoldInError::PositiveOutOfRange { id, limit } => {
                write!(f, "fold-in positive {id} out of range ({limit} rows)")
            }
            FoldInError::NonFinite => {
                write!(f, "fold-in produced a non-finite or off-manifold row")
            }
        }
    }
}

impl std::error::Error for FoldInError {}

/// Options controlling a single-entity fold-in.
#[derive(Debug, Clone)]
pub struct FoldInOptions {
    /// RSGD steps on the new row.
    pub steps: usize,
    /// Learning rate of those steps (larger than training LR: one row,
    /// frozen landscape).
    pub lr: f64,
    /// Negatives sampled per positive when building the hinge triplets.
    pub negatives: usize,
    /// Hinge margin (use the model's training margin).
    pub margin: f64,
    /// Seed of the deterministic negative sampler.
    pub seed: u64,
}

impl FoldInOptions {
    /// Defaults derived from a model config: the training margin and seed,
    /// with fold-in-specific step count and learning rate.
    pub fn for_config(cfg: &LogiRecConfig) -> Self {
        Self { steps: 30, lr: 0.1, negatives: 4, margin: cfg.margin, seed: cfg.seed }
    }
}

/// Outcome of one fold-in.
#[derive(Debug, Clone, PartialEq)]
pub struct FoldInReport {
    /// Id of the appended row.
    pub id: usize,
    /// Objective before the first step.
    pub initial_loss: f64,
    /// Objective after the last step.
    pub final_loss: f64,
    /// Steps taken.
    pub steps: usize,
    /// Hinge triplets the objective averaged over.
    pub triplets: usize,
}

/// Deterministic `(positive, negative)` index pairs for the fold-in
/// objective: `negatives` draws per distinct positive, vetoing positives
/// with bounded retries. Pure function of its arguments — the basis of the
/// bit-reproducibility guarantee.
pub fn fold_in_triplets(
    positives: &[usize],
    n_candidates: usize,
    negatives: usize,
    seed: u64,
) -> Vec<(usize, usize)> {
    let mut sorted = positives.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() >= n_candidates {
        return Vec::new(); // no negative candidates exist
    }
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::with_capacity(sorted.len() * negatives);
    for &p in &sorted {
        for _ in 0..negatives {
            for _ in 0..16 {
                let q = rng.index(n_candidates);
                if sorted.binary_search(&q).is_err() {
                    out.push((p, q));
                    break;
                }
            }
        }
    }
    out
}

/// The fold-in objective: mean hinge
/// `(1/|T|) Σ [m + d(x, f_pos) − d(x, f_neg)]₊` of a candidate final-space
/// point `x` against the frozen final embeddings `finals` — the trainer's
/// ranking walk (`losses::rank_accumulate`) with `x` as the query row.
/// Public so the finite-difference gradient tests can probe it directly.
pub fn fold_in_objective<S: Scalar>(
    geometry: Geometry,
    x: &[S],
    finals: &Embedding<S>,
    triplets: &[(usize, usize)],
    margin: f64,
) -> f64 {
    let scratch = &mut rank_scratch(finals.dim());
    fold_in_walk(geometry, x, finals, triplets, margin, None, scratch)
}

/// Analytic gradient of [`fold_in_objective`] w.r.t. `x` (ambient
/// coordinates), written into `gx`. Returns the objective value.
pub fn fold_in_grad_into<S: Scalar>(
    geometry: Geometry,
    x: &[S],
    finals: &Embedding<S>,
    triplets: &[(usize, usize)],
    margin: f64,
    gx: &mut [S],
) -> f64 {
    let scratch = &mut rank_scratch(finals.dim());
    fold_in_walk(geometry, x, finals, triplets, margin, Some(gx), scratch)
}

/// [`fold_in_objective`], and with `gx` its gradient, in the caller's
/// scratch, so a fold-in's steps allocate nothing per step.
fn fold_in_walk<S: Scalar>(
    geometry: Geometry,
    x: &[S],
    finals: &Embedding<S>,
    triplets: &[(usize, usize)],
    margin: f64,
    mut gx: Option<&mut [S]>,
    scratch: &mut [RankScratch<S>; 2],
) -> f64 {
    if let Some(gx) = gx.as_deref_mut() {
        gx.fill(S::ZERO);
    }
    rank_accumulate(
        geometry,
        |_| x,
        finals,
        triplets.iter().map(|&(vp, vq)| (0, vp, vq)),
        margin,
        None,
        1.0 / triplets.len() as f64,
        |_, g| {
            if let Some(gx) = gx.as_deref_mut() {
                ops::axpy(S::ONE, g, gx);
            }
        },
        |_, _| {},
        scratch,
    )
    .0
}

/// A new entity's parameter row, computed by fold-in before it is
/// appended, and what its optimization saw.
#[derive(Debug, Clone, PartialEq)]
pub struct NewRow<S: Scalar = f64> {
    /// The base parameter row whose degree-0 propagation reproduces the
    /// optimized final-space point: carrier coordinates for a user,
    /// Poincaré / Euclidean ones for an item.
    pub row: Vec<S>,
    /// Objective before the first step.
    pub initial_loss: f64,
    /// Objective after the last step.
    pub final_loss: f64,
    /// Hinge triplets the objective averaged over.
    pub triplets: usize,
}

impl<S: Scalar> NewRow<S> {
    fn report(&self, id: usize, steps: usize) -> FoldInReport {
        let (initial_loss, final_loss, triplets) =
            (self.initial_loss, self.final_loss, self.triplets);
        FoldInReport { id, initial_loss, final_loss, steps, triplets }
    }
}

/// The row [`fold_in_user`] appends for a new user who interacted with
/// `positives`: optimized against the frozen `item_final` of a model with
/// config `cfg`, then mapped back to the base parameter row. Appending it
/// is the caller's: a model appends the row and its final
/// ([`LogiRec::push_user_row`]), a served forward state only the final
/// ([`crate::ForwardState::push_user_row`]).
pub fn new_user_row<S: Scalar>(
    cfg: &LogiRecConfig,
    item_final: &Embedding<S>,
    positives: &[usize],
    opts: &FoldInOptions,
) -> Result<NewRow<S>, FoldInError> {
    let n_items = item_final.rows();
    if let Some(&bad) = positives.iter().find(|&&v| v >= n_items) {
        return Err(FoldInError::PositiveOutOfRange { id: bad, limit: n_items });
    }
    let (x, initial_loss, final_loss, triplets) =
        optimize_new_row(cfg.geometry, item_final, positives, opts)?;
    let mut z = match cfg.geometry {
        Geometry::Hyperbolic => lorentz::log_origin(&x),
        Geometry::Euclidean => x,
    };
    scale_in_place(&mut z, 1.0 / cfg.layers.max(1) as f64);
    let row = match cfg.geometry {
        Geometry::Hyperbolic => lorentz::exp_origin(&z),
        Geometry::Euclidean => z,
    };
    if !ops::all_finite(&row) {
        return Err(FoldInError::NonFinite);
    }
    Ok(NewRow { row, initial_loss, final_loss, triplets })
}

/// The row [`fold_in_item`] appends for a new item that `positives`
/// interacted with (the mirror of [`new_user_row`]: optimized against the
/// frozen `user_final`, mapped back to a Poincaré / Euclidean item row).
pub fn new_item_row<S: Scalar>(
    cfg: &LogiRecConfig,
    user_final: &Embedding<S>,
    positives: &[usize],
    opts: &FoldInOptions,
) -> Result<NewRow<S>, FoldInError> {
    let n_users = user_final.rows();
    if let Some(&bad) = positives.iter().find(|&&u| u >= n_users) {
        return Err(FoldInError::PositiveOutOfRange { id: bad, limit: n_users });
    }
    let (x, initial_loss, final_loss, triplets) =
        optimize_new_row(cfg.geometry, user_final, positives, opts)?;
    let row = match cfg.geometry {
        Geometry::Hyperbolic => {
            // Final point → layer-0 tangent → carrier → Poincaré
            // parameter: the inverse of the item forward chain for a
            // degree-0 node.
            let mut z = lorentz::log_origin(&x);
            scale_in_place(&mut z, 1.0 / cfg.layers.max(1) as f64);
            let carrier = lorentz::exp_origin(&z);
            let mut p = maps::lorentz_to_poincare(&carrier);
            if !poincare::in_ball(&p) {
                poincare::project(&mut p);
            }
            p
        }
        Geometry::Euclidean => {
            let mut z = x;
            scale_in_place(&mut z, 1.0 / cfg.layers.max(1) as f64);
            z
        }
    };
    if !ops::all_finite(&row) {
        return Err(FoldInError::NonFinite);
    }
    Ok(NewRow { row, initial_loss, final_loss, triplets })
}

/// Folds a brand-new user with the given interacted items into the model:
/// optimizes only the new row against the frozen item finals
/// ([`new_user_row`]), then appends the base parameter row (and extends the
/// cached state). Every pre-existing parameter stays byte-identical.
/// Returns the new user id in the report.
pub fn fold_in_user<S: Scalar>(
    model: &mut LogiRec<S>,
    positives: &[usize],
    opts: &FoldInOptions,
) -> Result<FoldInReport, FoldInError> {
    if !model.has_state() {
        return Err(FoldInError::NoForwardState);
    }
    let new = new_user_row(&model.cfg, &model.state().item_final, positives, opts)?;
    let id = model.push_user_row(&new.row);
    Ok(new.report(id, opts.steps))
}

/// Folds a brand-new item with the given interacting users into the model
/// (the mirror of [`fold_in_user`]: optimizes against the frozen user
/// finals with [`new_item_row`] and appends a Poincaré / Euclidean item
/// row).
pub fn fold_in_item<S: Scalar>(
    model: &mut LogiRec<S>,
    positives: &[usize],
    opts: &FoldInOptions,
) -> Result<FoldInReport, FoldInError> {
    if !model.has_state() {
        return Err(FoldInError::NoForwardState);
    }
    let new = new_item_row(&model.cfg, &model.state().user_final, positives, opts)?;
    let id = model.push_item_row(&new.row);
    Ok(new.report(id, opts.steps))
}

/// Shared fold-in optimizer: a serial RSGD loop on one final-space point
/// against the frozen `finals` table. Returns the optimized point and the
/// objective before/after.
fn optimize_new_row<S: Scalar>(
    geometry: Geometry,
    finals: &Embedding<S>,
    positives: &[usize],
    opts: &FoldInOptions,
) -> Result<(Vec<S>, f64, f64, usize), FoldInError> {
    let ambient = finals.dim();
    // Initialize at the tangent-space mean of the positives' finals — the
    // hyperbolic analogue of "average of what the user touched". With no
    // positives the entity starts at the origin.
    //
    // On a well-trained table this init is already near-stationary for the
    // hinge objective: when most triplets are active, the pulls toward the
    // positives cancel at their own mean and the pushes from uniformly
    // sampled negatives cancel in expectation, so the RSGD loop below is a
    // polish (it matters on small/degenerate tables where the active set
    // is asymmetric). Most of the fold-in quality comes from this init;
    // closing the residual gap to a full retrain is [`compact`]'s job.
    let mut x: Vec<S> = match geometry {
        Geometry::Hyperbolic => {
            let mut t = vec![S::ZERO; ambient - 1];
            if !positives.is_empty() {
                for &p in positives {
                    let z = lorentz::log_origin(finals.row(p));
                    ops::axpy(S::ONE, &z, &mut t);
                }
                scale_in_place(&mut t, 1.0 / positives.len() as f64);
            }
            lorentz::exp_origin(&t)
        }
        Geometry::Euclidean => {
            let mut t = vec![S::ZERO; ambient];
            if !positives.is_empty() {
                for &p in positives {
                    ops::axpy(S::ONE, finals.row(p), &mut t);
                }
                scale_in_place(&mut t, 1.0 / positives.len() as f64);
            }
            t
        }
    };

    let triplets = fold_in_triplets(positives, finals.rows(), opts.negatives, opts.seed);
    let (margin, scratch) = (opts.margin, &mut rank_scratch(ambient));
    let initial_loss = fold_in_walk(geometry, &x, finals, &triplets, margin, None, scratch);
    let mut gx = vec![S::ZERO; x.len()];
    for _ in 0..opts.steps {
        if triplets.is_empty() {
            break;
        }
        fold_in_walk(geometry, &x, finals, &triplets, margin, Some(&mut gx), scratch);
        match geometry {
            Geometry::Hyperbolic => rsgd::lorentz_step(&mut x, &gx, opts.lr),
            Geometry::Euclidean => rsgd::euclidean_step(&mut x, &gx, opts.lr),
        }
    }
    if !ops::all_finite(&x) || (geometry == Geometry::Hyperbolic && !lorentz::on_sheet(&x)) {
        return Err(FoldInError::NonFinite);
    }
    // Divergence guard: a runaway learning rate can fling the row far from
    // everything while staying finite and on-manifold (each RSGD step is
    // individually overflow-guarded). Reject rows that land outside the
    // frozen table's span by a wide margin — downstream that keeps the
    // last-good snapshot serving.
    let origin_span = |v: &[S]| match geometry {
        // The Lorentz time component is cosh(distance from origin).
        Geometry::Hyperbolic => v[0].to_f64(),
        Geometry::Euclidean => ops::norm(v).to_f64(),
    };
    let mut max_span = 1.0f64;
    for r in 0..finals.rows() {
        max_span = max_span.max(origin_span(finals.row(r)));
    }
    if origin_span(&x) > FOLD_IN_EXPLOSION_FACTOR * max_span {
        return Err(FoldInError::NonFinite);
    }
    let final_loss = fold_in_walk(geometry, &x, finals, &triplets, margin, None, scratch);
    Ok((x, initial_loss, final_loss, triplets.len()))
}

/// How far outside the frozen table's origin-span an optimized fold-in row
/// may land before it is rejected as divergent (mirrors the trainer's
/// `explosion_factor` health check).
const FOLD_IN_EXPLOSION_FACTOR: f64 = 100.0;

fn scale_in_place<S: Scalar>(v: &mut [S], factor: f64) {
    let f = S::from_f64(factor);
    for x in v.iter_mut() {
        *x *= f;
    }
}

// ---------------------------------------------------------------------------
// Event ingest
// ---------------------------------------------------------------------------

/// One streamed interaction event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// User id (may be at or beyond the current user table — a cold-start
    /// signup).
    pub user: usize,
    /// Item id (may be at or beyond the current item table).
    pub item: usize,
    /// Event timestamp (only ordering matters).
    pub time: u64,
}

/// Append-only ingest buffer for streamed interaction events. Appending is
/// O(1) and never touches the model; [`compact`] periodically folds the
/// pending suffix into the embedding tables and marks it consumed.
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    events: Vec<Event>,
    /// Prefix length already folded in by compaction.
    compacted: usize,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one event.
    pub fn append(&mut self, user: usize, item: usize, time: u64) {
        self.events.push(Event { user, item, time });
    }

    /// Total events ever appended.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been appended.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// All events, compacted prefix included.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Events appended since the last compaction.
    pub fn pending(&self) -> &[Event] {
        &self.events[self.compacted..]
    }

    /// Number of events already folded in.
    pub fn compacted(&self) -> usize {
        self.compacted
    }

    fn mark_compacted(&mut self) {
        self.compacted = self.events.len();
    }
}

// ---------------------------------------------------------------------------
// Compaction
// ---------------------------------------------------------------------------

/// Errors from [`compact`].
#[derive(Debug)]
pub enum CompactionError {
    /// Growing a table for a new entity failed.
    FoldIn(FoldInError),
    /// Writing or restoring the pre-compaction checkpoint failed.
    Checkpoint(CheckpointError),
}

impl std::fmt::Display for CompactionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompactionError::FoldIn(e) => write!(f, "compaction fold-in failed: {e}"),
            CompactionError::Checkpoint(e) => write!(f, "compaction checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for CompactionError {}

impl From<FoldInError> for CompactionError {
    fn from(e: FoldInError) -> Self {
        CompactionError::FoldIn(e)
    }
}

impl From<CheckpointError> for CompactionError {
    fn from(e: CheckpointError) -> Self {
        CompactionError::Checkpoint(e)
    }
}

/// Options controlling one compaction pass.
#[derive(Debug, Clone)]
pub struct CompactionOptions {
    /// Incremental training epochs over the streamed pairs.
    pub epochs: usize,
    /// Negatives per streamed positive.
    pub negatives: usize,
    /// Learning rate of the incremental pass.
    pub lr: f64,
    /// Hinge margin (the model's training margin).
    pub margin: f64,
    /// Seed of the deterministic triplet sampler.
    pub seed: u64,
    /// Warm-pair rehearsal ratio: each incremental epoch also samples
    /// `rehearsal × |streamed pairs|` pairs from the pre-stream training
    /// set, so the update is anchored by the interactions the frozen
    /// geometry was trained on instead of walking it toward the streamed
    /// pairs alone (the catastrophic-forgetting counterweight). `0.0`
    /// disables rehearsal.
    pub rehearsal: f64,
    /// Fold-in options used to grow tables for brand-new entities.
    pub fold_in: FoldInOptions,
    /// Durable pre-compaction checkpoint destination (the kill-recovery
    /// point); `None` disables checkpointing.
    pub checkpoint_path: Option<PathBuf>,
}

impl CompactionOptions {
    /// Defaults derived from a model config.
    pub fn for_config(cfg: &LogiRecConfig) -> Self {
        Self {
            epochs: 3,
            negatives: cfg.negatives.max(1),
            lr: cfg.lr,
            margin: cfg.margin,
            seed: cfg.seed,
            rehearsal: 1.0,
            fold_in: FoldInOptions::for_config(cfg),
            checkpoint_path: None,
        }
    }
}

/// Outcome of one compaction pass.
#[derive(Debug, Clone)]
pub struct CompactionReport {
    /// Events folded in by this pass.
    pub events_folded: usize,
    /// Users appended to the table.
    pub new_users: usize,
    /// Items appended to the table.
    pub new_items: usize,
    /// Incremental epochs completed.
    pub epochs_run: usize,
    /// True when a health violation rolled the model back to its
    /// pre-compaction parameters (the grown shapes are kept).
    pub rolled_back: bool,
    /// The violation that triggered the rollback, when one occurred.
    pub rollback_reason: Option<String>,
    /// Rank loss of the last completed epoch.
    pub final_loss: f64,
}

/// Folds the log's pending events into the model:
///
/// 1. writes a durable pre-compaction checkpoint (when configured) — the
///    recovery point if the process dies mid-compaction;
/// 2. grows the embedding tables via fold-in for every brand-new entity
///    (items first, so a new user's positives are always in range);
/// 3. rebuilds the training graph with the streamed interactions;
/// 4. runs a few epochs of rank-SGD over the streamed pairs plus a seeded
///    rehearsal sample of warm pairs through the trainer's receptive-field
///    step (deterministic serial sampling; the sharded gradient and the
///    trainer's per-row updates, which leave the tags alone, are
///    bit-identical across `train_threads`);
/// 5. runs the trainer's health check after every epoch and rolls back to
///    the pre-compaction parameters on divergence.
///
/// Returns the grown training set (use it for serving masks and future
/// propagation) alongside the report. On success the model's forward state
/// is freshly propagated against the grown graph.
pub fn compact<S: Scalar>(
    model: &mut LogiRec<S>,
    train: &InteractionSet,
    log: &mut EventLog,
    opts: &CompactionOptions,
) -> Result<(InteractionSet, CompactionReport), CompactionError> {
    let pending: Vec<Event> = log.pending().to_vec();
    if pending.is_empty() {
        return Ok((
            train.clone(),
            CompactionReport {
                events_folded: 0,
                new_users: 0,
                new_items: 0,
                epochs_run: 0,
                rolled_back: false,
                rollback_reason: None,
                final_loss: 0.0,
            },
        ));
    }
    if !model.has_state() {
        model.propagate(train);
    }

    if let Some(path) = &opts.checkpoint_path {
        checkpoint::save(&Checkpoint::of_model(model, opts.seed), path)?;
    }

    let (new_users, new_items) = grow(model, &pending, opts)?;

    // Rebuild the training graph with the streamed interactions.
    let warm_pairs: Vec<(usize, usize)> = train.iter_pairs().collect();
    let mut pairs = warm_pairs.clone();
    pairs.extend(pending.iter().map(|e| (e.user, e.item)));
    let grown = InteractionSet::from_pairs(model.users.rows(), model.items.rows(), &pairs);
    let graph = PropGraph::build(&grown);

    // Incremental rank-SGD over the streamed pairs (plus rehearsal), under
    // the trainer's receptive-field step, update rule, model-fault hook and
    // health check. The step computes the finals its triplets read; the
    // state the fold-ins read is dropped, and the grown graph's is built
    // once the epochs are done.
    model.clear_state();
    let pre = model.clone();
    let cfg = model.cfg.clone();
    let per_triplet = 1.0 / opts.negatives.max(1) as f64;
    let mut sampler = EpochTriplets::new(&pending, warm_pairs, opts);
    let mut rolled_back = false;
    let mut rollback_reason = None;
    let mut final_loss = 0.0;
    let mut epochs_run = 0;
    let mut triplets = Vec::new();
    let mut step = TrainStep::new(model);
    for epoch in 0..opts.epochs {
        sampler.next(&grown, &mut triplets);
        step.forward(model, &graph, &triplets);
        let shard = step.rank_loss(model, &triplets, opts.margin, None, per_triplet);
        let loss = shard.loss / triplets.len().max(1) as f64;
        let (g_users, g_items) = step.backward(model, &graph, &shard);
        apply_updates(model, g_users, g_items, None, opts.lr);
        inject_model_faults(&cfg, epoch, model);
        epochs_run += 1;
        final_loss = loss;
        // Compaction keeps no loss history, so the trainer's loss-explosion
        // test is off; its finiteness and manifold checks apply.
        let stats = EpochStats { epoch, rank_loss: loss, logic_loss: 0.0, val_recall10: None };
        if let Some(reason) = check_health(model, &stats, None, 0.0) {
            *model = pre.clone();
            rolled_back = true;
            rollback_reason = Some(reason);
            break;
        }
    }
    // Leave a fresh forward state against the grown graph for serving.
    drop(step);
    model.propagate_graph(&graph);
    log.mark_compacted();
    Ok((
        grown,
        CompactionReport {
            events_folded: pending.len(),
            new_users,
            new_items,
            epochs_run,
            rolled_back,
            rollback_reason,
            final_loss,
        },
    ))
}

/// Grows the tables by fold-in for every brand-new entity `pending` names
/// and returns how many `(users, items)` it added. Items first: a new
/// user's positives may include new items; a new item is folded against
/// the *old* users only (new users do not exist yet).
fn grow<S: Scalar>(
    model: &mut LogiRec<S>,
    pending: &[Event],
    opts: &CompactionOptions,
) -> Result<(usize, usize), CompactionError> {
    let old_users = model.users.rows();
    let new_users = old_users..pending.iter().map(|e| e.user + 1).max().unwrap_or(0);
    let new_items = model.items.rows()..pending.iter().map(|e| e.item + 1).max().unwrap_or(0);
    let added = (new_users.len(), new_items.len());
    for v in new_items {
        let users_of_v: Vec<usize> =
            pending.iter().filter(|e| e.item == v && e.user < old_users).map(|e| e.user).collect();
        let fi =
            FoldInOptions { seed: entity_seed(opts.fold_in.seed, 1, v), ..opts.fold_in.clone() };
        fold_in_item(model, &users_of_v, &fi)?;
    }
    for u in new_users {
        let items_of_u: Vec<usize> =
            pending.iter().filter(|e| e.user == u).map(|e| e.item).collect();
        let fi =
            FoldInOptions { seed: entity_seed(opts.fold_in.seed, 2, u), ..opts.fold_in.clone() };
        fold_in_user(model, &items_of_u, &fi)?;
    }
    Ok(added)
}

/// Compaction's seeded triplet stream. Every epoch lists the streamed
/// pairs, then a rehearsal sample of warm pairs, which makes the
/// incremental gradient pull against the frozen geometry's own training
/// signal rather than the streamed pairs alone. Every positive gets
/// `negatives` draws that veto its known items. Sampling is serial, so the
/// stream is the same for every thread count.
struct EpochTriplets {
    events: Vec<(usize, usize)>,
    warm: Vec<(usize, usize)>,
    rehearsal: usize,
    negatives: usize,
    rng: SplitMix64,
}

impl EpochTriplets {
    fn new(pending: &[Event], warm: Vec<(usize, usize)>, opts: &CompactionOptions) -> Self {
        let mut events: Vec<(usize, usize)> = pending.iter().map(|e| (e.user, e.item)).collect();
        events.sort_unstable();
        events.dedup();
        let rehearsal = if opts.rehearsal > 0.0 && !warm.is_empty() {
            (opts.rehearsal * events.len() as f64).round() as usize
        } else {
            0
        };
        let (negatives, rng) = (opts.negatives.max(1), SplitMix64::new(opts.seed));
        Self { events, warm, rehearsal, negatives, rng }
    }

    /// The next epoch's triplets against the grown graph, into `out`.
    fn next(&mut self, grown: &InteractionSet, out: &mut Vec<(usize, usize, usize)>) {
        out.clear();
        for i in 0..self.events.len() + self.rehearsal {
            let (u, vp) = match self.events.get(i) {
                Some(&pair) => pair,
                None => self.warm[self.rng.index(self.warm.len())],
            };
            for _ in 0..self.negatives {
                let mut vq = self.rng.index(grown.n_items());
                for _ in 0..16 {
                    if !grown.contains(u, vq) {
                        break;
                    }
                    vq = self.rng.index(grown.n_items());
                }
                out.push((u, vp, vq));
            }
        }
    }
}

/// Restores a model's parameter tables from a pre-compaction checkpoint
/// written by [`compact`] — the recovery path after a mid-compaction kill.
/// Geometry/dim/layers must match the model's config; the restored tables
/// may be *smaller* than the current ones (rolled-back growth), which is
/// exactly the point. The forward state is dropped; re-propagate before
/// scoring.
pub fn recover_from_checkpoint<S: Scalar>(
    model: &mut LogiRec<S>,
    path: &Path,
) -> Result<(), CheckpointError> {
    let ck = checkpoint::load(path)?;
    ck.check_layout(&model.cfg).map_err(CheckpointError::Corrupt)?;
    model.tags = ck.tags.cast();
    model.items = ck.items.cast();
    model.users = ck.users.cast();
    model.clear_state();
    Ok(())
}

/// Per-entity fold-in seed: decorrelates the negative streams of entities
/// grown in one compaction pass while staying a pure function of
/// (base seed, side, id).
fn entity_seed(base: u64, side: u64, id: usize) -> u64 {
    base ^ (id as u64 ^ (side << 62)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LogiRecConfig;
    use crate::trainer::train;
    use logirec_data::{Dataset, DatasetSpec, Scale};

    fn trained() -> (LogiRec, Dataset) {
        trained_in(Geometry::Hyperbolic)
    }

    fn trained_in(geometry: Geometry) -> (LogiRec, Dataset) {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(71);
        let cfg =
            LogiRecConfig { geometry, epochs: 8, eval_every: 0, ..LogiRecConfig::test_config() };
        let (mut m, _) = train(cfg, &ds);
        m.propagate(&ds.train);
        (m, ds)
    }

    #[test]
    fn fold_in_triplets_are_deterministic_and_avoid_positives() {
        let positives = [3usize, 1, 7];
        let a = fold_in_triplets(&positives, 50, 4, 99);
        let b = fold_in_triplets(&positives, 50, 4, 99);
        assert_eq!(a, b);
        assert_eq!(a.len(), 12);
        for &(p, q) in &a {
            assert!(positives.contains(&p));
            assert!(!positives.contains(&q), "negative {q} is a positive");
        }
        // A different seed draws different negatives.
        let c = fold_in_triplets(&positives, 50, 4, 100);
        assert_ne!(a, c);
        // No negatives exist when every candidate is a positive.
        assert!(fold_in_triplets(&[0, 1, 2], 3, 4, 1).is_empty());
    }

    #[test]
    fn fold_in_user_reduces_the_objective_and_freezes_the_rest() {
        let (mut m, ds) = trained();
        let before_users = m.users.as_slice().to_vec();
        let before_items = m.items.as_slice().to_vec();
        let positives: Vec<usize> = ds.train.items_of(0).to_vec();
        let opts = FoldInOptions::for_config(&m.cfg);
        let report = fold_in_user(&mut m, &positives, &opts).expect("fold in");
        assert_eq!(report.id, ds.n_users());
        assert!(report.final_loss <= report.initial_loss + 1e-12,
            "objective rose: {} -> {}", report.initial_loss, report.final_loss);
        // Frozen model: every pre-existing byte untouched.
        assert_eq!(&m.users.as_slice()[..before_users.len()], &before_users[..]);
        assert_eq!(m.items.as_slice(), &before_items[..]);
        // The new row is on the manifold and servable from the state.
        assert!(lorentz::on_manifold(m.users.row(report.id), 1e-9));
        assert!(lorentz::on_manifold(m.state().user_final.row(report.id), 1e-8));
    }

    /// Counts the rejections among 40 fold-ins (users whose positives are
    /// the train items of users 0‥39) into a model whose item rows sit at
    /// Poincaré norm `radius`, at precision `S`. Far out, the item finals'
    /// time coordinate is large, and so is the rounding of ⟨x, x⟩_L.
    fn far_out_rejections<S: Scalar>(radius: f64) -> usize {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(3);
        let mut base: LogiRec = LogiRec::new(LogiRecConfig::test_config(), &ds);
        for v in 0..base.items.rows() {
            let row = base.items.row_mut(v);
            let norm = ops::norm(row);
            ops::scale(row, radius / norm);
        }
        let mut m = base.cast::<S>();
        m.propagate(&ds.train);
        let opts = FoldInOptions::for_config(&m.cfg);
        (0..40)
            .filter(|&u| fold_in_user(&mut m.clone(), ds.train.items_of(u), &opts).is_err())
            .count()
    }

    #[test]
    fn far_out_fold_ins_are_accepted_at_both_precisions() {
        assert_eq!(far_out_rejections::<f64>(0.9), 0);
        assert_eq!(far_out_rejections::<f32>(0.9), 0);
    }

    #[test]
    fn fold_in_rejects_a_divergent_learning_rate() {
        let (mut m, ds) = trained();
        let positives: Vec<usize> = ds.train.items_of(0).to_vec();
        let before = m.users.as_slice().to_vec();
        // Overshooting steps walk the row far outside the frozen table's
        // span while each individual step stays finite.
        let opts = FoldInOptions { lr: 100.0, ..FoldInOptions::for_config(&m.cfg) };
        assert_eq!(fold_in_user(&mut m, &positives, &opts), Err(FoldInError::NonFinite));
        // A rejected fold-in leaves the model byte-untouched.
        assert_eq!(m.users.as_slice(), &before[..]);
    }

    #[test]
    fn fold_in_item_appends_a_ball_point() {
        let (mut m, ds) = trained();
        let positives = vec![0usize, 2, 5];
        let opts = FoldInOptions::for_config(&m.cfg);
        let report = fold_in_item(&mut m, &positives, &opts).expect("fold in");
        assert_eq!(report.id, ds.n_items());
        assert!(poincare::in_ball(m.items.row(report.id)));
        assert!(lorentz::on_manifold(m.state().item_final.row(report.id), 1e-8));
    }

    #[test]
    fn fold_in_rejects_bad_input() {
        let (mut m, ds) = trained();
        let opts = FoldInOptions::for_config(&m.cfg);
        let mut cold = m.cast::<f64>();
        assert_eq!(fold_in_user(&mut cold, &[0], &opts), Err(FoldInError::NoForwardState));
        assert_eq!(
            fold_in_user(&mut m, &[ds.n_items() + 3], &opts),
            Err(FoldInError::PositiveOutOfRange { id: ds.n_items() + 3, limit: ds.n_items() })
        );
        assert_eq!(
            fold_in_item(&mut m, &[ds.n_users()], &opts),
            Err(FoldInError::PositiveOutOfRange { id: ds.n_users(), limit: ds.n_users() })
        );
    }

    #[test]
    fn event_log_tracks_pending_suffix() {
        let mut log = EventLog::new();
        assert!(log.is_empty());
        log.append(0, 1, 10);
        log.append(2, 3, 11);
        assert_eq!(log.len(), 2);
        assert_eq!(log.pending().len(), 2);
        log.mark_compacted();
        assert_eq!(log.pending().len(), 0);
        assert_eq!(log.compacted(), 2);
        log.append(4, 5, 12);
        assert_eq!(log.pending(), &[Event { user: 4, item: 5, time: 12 }]);
        assert_eq!(log.events().len(), 3);
    }

    /// Compacts two brand-new entities and a few warm events into a model
    /// trained in `geometry` and run at precision `S`.
    fn compaction_folds_events_and_stays_healthy_at<S: Scalar>(geometry: Geometry) {
        let case = format!("{geometry:?}/{}", std::any::type_name::<S>());
        let (trained, ds) = trained_in(geometry);
        let mut m = trained.cast::<S>();
        m.propagate(&ds.train);
        let tags_before = m.tags.clone();
        let mut log = EventLog::new();
        // Existing users interact with existing items, plus one brand-new
        // user and one brand-new item.
        log.append(0, 3, 100);
        log.append(1, 4, 101);
        log.append(ds.n_users(), 0, 102);
        log.append(ds.n_users(), 5, 103);
        log.append(2, ds.n_items(), 104);
        let opts = CompactionOptions::for_config(&m.cfg);
        let (grown, report) = compact(&mut m, &ds.train, &mut log, &opts).expect("compact");
        assert_eq!(report.events_folded, 5, "{case}");
        assert_eq!(report.new_users, 1, "{case}");
        assert_eq!(report.new_items, 1, "{case}");
        assert!(!report.rolled_back, "{case}: {:?}", report.rollback_reason);
        assert_eq!(report.epochs_run, opts.epochs, "{case}");
        assert_eq!(grown.n_users(), ds.n_users() + 1, "{case}");
        assert_eq!(grown.n_items(), ds.n_items() + 1, "{case}");
        assert!(grown.contains(ds.n_users(), 5), "{case}");
        assert!(grown.contains(2, ds.n_items()), "{case}");
        assert!(m.all_finite(), "{case}");
        assert!(m.has_state(), "{case}");
        assert!(log.pending().is_empty(), "{case}");
        // Compaction moves users and items only.
        assert_eq!(m.tags, tags_before, "{case}: compaction moved a tag");
        // Hyperbolic steps stay in the ball; the Euclidean update clips.
        for v in 0..m.items.rows() {
            assert!(poincare::in_ball(m.items.row(v)), "{case}: item {v} outside the ball");
        }
        // A second compaction with no new events is a no-op.
        let (again, r2) = compact(&mut m, &grown, &mut log, &opts).expect("no-op");
        assert_eq!(r2.events_folded, 0, "{case}");
        assert_eq!(again.len(), grown.len(), "{case}");
    }

    #[test]
    fn compaction_folds_events_and_stays_healthy() {
        for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
            compaction_folds_events_and_stays_healthy_at::<f64>(geometry);
            compaction_folds_events_and_stays_healthy_at::<f32>(geometry);
        }
    }

    /// Compaction's epochs run the trainer's receptive-field step. Replayed
    /// with full passes over every row (a full forward, the dense gradient
    /// on every final, the full transpose), the path compaction took before
    /// that step, they leave the same tables and loss, bit for bit.
    #[test]
    fn compaction_matches_its_full_pass_replay() {
        use crate::losses::rank_loss_grad_sharded;
        let bits = |e: &Embedding| e.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
            let (trained, ds) = trained_in(geometry);
            let mut log = EventLog::new();
            let (u_new, v_new) = (ds.n_users(), ds.n_items());
            let events = [(0, 3), (1, 4), (u_new, 0), (u_new, 5), (2, v_new)];
            for (t, (u, v)) in events.into_iter().enumerate() {
                log.append(u, v, t as u64);
            }
            let pending = log.pending().to_vec();
            let opts = CompactionOptions::for_config(&trained.cfg);
            let mut m = trained.clone();
            let (grown, report) = compact(&mut m, &ds.train, &mut log, &opts).expect("compact");
            assert!(!report.rolled_back, "{geometry:?}: {:?}", report.rollback_reason);

            let mut r = trained.clone();
            grow(&mut r, &pending, &opts).expect("grow");
            let graph = PropGraph::build(&grown);
            let mut sampler = EpochTriplets::new(&pending, ds.train.iter_pairs().collect(), &opts);
            let (mut triplets, mut loss) = (Vec::new(), 0.0);
            let per_triplet = 1.0 / opts.negatives as f64;
            for _ in 0..opts.epochs {
                sampler.next(&grown, &mut triplets);
                r.propagate_graph(&graph);
                let (margin, threads) = (opts.margin, r.cfg.train_threads);
                let g = rank_loss_grad_sharded(&r, &triplets, margin, None, per_triplet, threads);
                let ambient = r.cfg.ambient_dim();
                let mut g_uf = Embedding::zeros(r.users.rows(), ambient);
                let mut g_vf = Embedding::zeros(r.items.rows(), ambient);
                g.users.scatter_add(&mut g_uf);
                g.items.scatter_add(&mut g_vf);
                let (g_users, g_items) = r.backward_rank_graph(&g_uf, &g_vf, &graph);
                apply_updates(&mut r, &g_users, &g_items, None, opts.lr);
                loss = g.loss / triplets.len() as f64;
            }
            assert_eq!(report.final_loss.to_bits(), loss.to_bits(), "{geometry:?}: loss");
            assert_eq!(bits(&m.users), bits(&r.users), "{geometry:?}: users");
            assert_eq!(bits(&m.items), bits(&r.items), "{geometry:?}: items");
            assert_eq!(bits(&m.tags), bits(&r.tags), "{geometry:?}: tags");
        }
    }

    #[test]
    fn checkpoint_recovery_restores_pre_compaction_tables() {
        let (mut m, ds) = trained();
        let path = std::env::temp_dir()
            .join(format!("logirec-stream-ckpt-{}", std::process::id()));
        let mut log = EventLog::new();
        log.append(ds.n_users(), 0, 1);
        let opts = CompactionOptions {
            checkpoint_path: Some(path.clone()),
            ..CompactionOptions::for_config(&m.cfg)
        };
        let before = m.users.as_slice().to_vec();
        compact(&mut m, &ds.train, &mut log, &opts).expect("compact");
        assert_eq!(m.users.rows(), ds.n_users() + 1);
        // Simulated kill: recover from the durable checkpoint.
        recover_from_checkpoint(&mut m, &path).expect("recover");
        assert_eq!(m.users.rows(), ds.n_users());
        assert_eq!(m.users.as_slice(), &before[..]);
        assert!(!m.has_state());
        let _ = std::fs::remove_file(&path);
    }
}
