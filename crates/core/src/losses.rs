//! The four training losses with analytic gradients.
//!
//! * L_Mem (Eq. 3): item point inside the tag's enclosing d-ball.
//! * L_Hie (Eq. 4): child ball geometrically inside the parent ball.
//! * L_Ex  (Eq. 5): exclusive balls geometrically disjoint.
//! * L_Rec (Eq. 9): LMNN hinge on carrier-space distances, optionally
//!   weighted per user by LogiRec++'s α_u (Eq. 15).
//!
//! All three logic losses are hinge functions of Euclidean norms of the
//! derived ball parameters `(o_t, r_t)`; their gradients flow to the tag
//! defining points through
//! [`logirec_hyperbolic::hyperplane::ball_vjp_into`].
//!
//! Everything here is generic over the working precision [`Scalar`] and
//! **allocation-free per sample**: each loss function owns a small
//! `LogicScratch` / `RankScratch` (allocated once per shard job in the
//! parallel trainer, and once per fold-in for all of its steps) and every
//! per-pair or per-triplet kernel writes into those buffers via the
//! `*_into` variants. The `f64` instantiation performs the identical
//! floating-point operation sequence as the historical allocating code, so
//! sharded results stay bit-exact.

use logirec_hyperbolic::{hyperplane, lorentz};
use logirec_linalg::{ops, Embedding, Scalar};
use logirec_taxonomy::TagId;

use crate::config::Geometry;
use crate::model::LogiRec;
use crate::shard::{Merge, SparseGrad};

/// Destination for logic-loss gradients. One trait, two accumulators: the
/// dense [`LogicGrads`] (serial reference path, ablation probes) and the
/// sparse [`LogicShard`] (per-worker shards in the parallel trainer). The
/// loss functions are generic over the sink so the gradient math exists
/// exactly once.
pub trait LogicSink<S: Scalar> {
    /// Adds a (weighted) loss contribution.
    fn add_loss(&mut self, l: f64);
    /// Adds `g` to the gradient of tag `t`'s defining point.
    fn add_tag(&mut self, t: TagId, g: &[S]);
    /// Adds `g` to the gradient of item `v`'s point.
    fn add_item(&mut self, v: usize, g: &[S]);
}

/// Accumulated Euclidean gradients for the logical relation losses.
#[derive(Debug)]
pub struct LogicGrads<S: Scalar = f64> {
    /// Gradients on the tag defining points (`S × d`).
    pub tags: Embedding<S>,
    /// Gradients on the item points (`V × d`).
    pub items: Embedding<S>,
    /// Summed (weighted) loss value.
    pub loss: f64,
}

impl<S: Scalar> LogicGrads<S> {
    /// Fresh zero accumulator matching `model`'s shapes.
    pub fn zeros(model: &LogiRec<S>) -> Self {
        Self {
            tags: Embedding::zeros(model.tags.rows(), model.tags.dim()),
            items: Embedding::zeros(model.items.rows(), model.items.dim()),
            loss: 0.0,
        }
    }

    /// Resets the accumulator in place.
    pub fn reset(&mut self) {
        self.tags.fill_zero();
        self.items.fill_zero();
        self.loss = 0.0;
    }
}

impl<S: Scalar> LogicSink<S> for LogicGrads<S> {
    fn add_loss(&mut self, l: f64) {
        self.loss += l;
    }

    fn add_tag(&mut self, t: TagId, g: &[S]) {
        ops::axpy(S::ONE, g, self.tags.row_mut(t));
    }

    fn add_item(&mut self, v: usize, g: &[S]) {
        ops::axpy(S::ONE, g, self.items.row_mut(v));
    }
}

/// One worker's sparse share of the logic-loss gradients: touched-row maps
/// instead of dense `S × d` / `V × d` clones, so fanning out across
/// `train_threads` workers costs memory proportional to the rows a shard
/// actually hits.
#[derive(Debug, Clone)]
pub struct LogicShard<S: Scalar = f64> {
    /// Sparse gradients on tag defining points.
    pub tags: SparseGrad<S>,
    /// Sparse gradients on item points.
    pub items: SparseGrad<S>,
    /// Summed (weighted) loss of this shard.
    pub loss: f64,
}

impl<S: Scalar> LogicShard<S> {
    /// Empty shard matching `model`'s embedding width.
    pub fn new(model: &LogiRec<S>) -> Self {
        Self {
            tags: SparseGrad::new(model.tags.dim()),
            items: SparseGrad::new(model.items.dim()),
            loss: 0.0,
        }
    }

    /// Distinct gradient rows this shard touches.
    pub fn rows_touched(&self) -> usize {
        self.tags.nnz() + self.items.nnz()
    }

    /// True when every accumulated value is finite.
    pub fn all_finite(&self) -> bool {
        self.loss.is_finite() && self.tags.all_finite() && self.items.all_finite()
    }
}

impl<S: Scalar> LogicSink<S> for LogicShard<S> {
    fn add_loss(&mut self, l: f64) {
        self.loss += l;
    }

    fn add_tag(&mut self, t: TagId, g: &[S]) {
        self.tags.add(t, g);
    }

    fn add_item(&mut self, v: usize, g: &[S]) {
        self.items.add(v, g);
    }
}

impl<S: Scalar> Merge for LogicShard<S> {
    fn merge(&mut self, other: Self) {
        self.tags.merge(other.tags);
        self.items.merge(other.items);
        self.loss += other.loss;
    }
}

/// Reusable scratch for the logic-loss inner loops: two derived ball
/// centers, the (later rescaled and negated in place) difference vector,
/// and the `ball_vjp` output. Allocated once per loss-function call — the
/// per-pair loop never touches the allocator.
struct LogicScratch<S: Scalar> {
    ci: Vec<S>,
    cj: Vec<S>,
    unit: Vec<S>,
    gc: Vec<S>,
}

impl<S: Scalar> LogicScratch<S> {
    fn new(dim: usize) -> Self {
        Self {
            ci: vec![S::ZERO; dim],
            cj: vec![S::ZERO; dim],
            unit: vec![S::ZERO; dim],
            gc: vec![S::ZERO; dim],
        }
    }
}

/// `unit ← (a − b) · k` with `‖a − b‖` floored at `1e-12`; returns nothing,
/// the caller reads `s.unit`. Identical operation sequence to the former
/// `sub` / `norm` / `scaled` chain.
#[inline]
fn scaled_diff_into<S: Scalar>(a: &[S], b: &[S], k_over_n: impl FnOnce(S) -> S, unit: &mut [S]) {
    unit.copy_from_slice(a);
    for (u, bi) in unit.iter_mut().zip(b) {
        *u -= *bi;
    }
    let n = ops::norm(unit).max(S::from_f64(1e-12));
    ops::scale(unit, k_over_n(n));
}

/// Flips the sign of every element in place (bit-exact equivalent of the
/// former `scaled(·, −1.0)`).
#[inline]
fn negate<S: Scalar>(x: &mut [S]) {
    for v in x.iter_mut() {
        *v = -*v;
    }
}

/// L_Mem (Eq. 3) over `(item, tag)` pairs, each weighted by `weight`.
pub fn membership_loss_grad<S: Scalar>(
    model: &LogiRec<S>,
    pairs: &[(usize, TagId)],
    weight: f64,
    out: &mut impl LogicSink<S>,
) {
    let mut s = LogicScratch::new(model.tags.dim());
    for &(v, t) in pairs {
        let c = model.tags.row(t);
        let radius = hyperplane::from_center_into(c, &mut s.ci);
        let x = model.items.row(v);
        let margin = ops::dist(x, &s.ci) - radius;
        if margin <= S::ZERO {
            continue;
        }
        out.add_loss(weight * margin.to_f64());
        scaled_diff_into(x, &s.ci, |n| S::from_f64(weight) / n, &mut s.unit);
        // ∂/∂x = unit; ∂/∂o = −unit; ∂/∂r = −weight.
        out.add_item(v, &s.unit);
        negate(&mut s.unit);
        hyperplane::ball_vjp_into(c, &s.unit, S::from_f64(-weight), &mut s.gc);
        out.add_tag(t, &s.gc);
    }
}

/// L_Hie (Eq. 4) over `(parent, child)` pairs.
pub fn hierarchy_loss_grad<S: Scalar>(
    model: &LogiRec<S>,
    pairs: &[(TagId, TagId)],
    weight: f64,
    out: &mut impl LogicSink<S>,
) {
    let mut s = LogicScratch::new(model.tags.dim());
    for &(parent, child) in pairs {
        let (ci, cj) = (model.tags.row(parent), model.tags.row(child));
        let ri = hyperplane::from_center_into(ci, &mut s.ci);
        let rj = hyperplane::from_center_into(cj, &mut s.cj);
        // margin = ‖o_i − o_j‖ + r_j − r_i.
        let margin = ops::dist(&s.ci, &s.cj) + rj - ri;
        if margin <= S::ZERO {
            continue;
        }
        out.add_loss(weight * margin.to_f64());
        scaled_diff_into(&s.ci, &s.cj, |n| S::from_f64(weight) / n, &mut s.unit);
        hyperplane::ball_vjp_into(ci, &s.unit, S::from_f64(-weight), &mut s.gc);
        out.add_tag(parent, &s.gc);
        negate(&mut s.unit);
        hyperplane::ball_vjp_into(cj, &s.unit, S::from_f64(weight), &mut s.gc);
        out.add_tag(child, &s.gc);
    }
}

/// L_Ex (Eq. 5) over exclusion pairs (levels are carried by the relation
/// records but do not enter the loss itself).
pub fn exclusion_loss_grad<S: Scalar>(
    model: &LogiRec<S>,
    pairs: &[(TagId, TagId)],
    weight: f64,
    out: &mut impl LogicSink<S>,
) {
    let mut s = LogicScratch::new(model.tags.dim());
    for &(a, b) in pairs {
        let (ci, cj) = (model.tags.row(a), model.tags.row(b));
        let ri = hyperplane::from_center_into(ci, &mut s.ci);
        let rj = hyperplane::from_center_into(cj, &mut s.cj);
        // margin = r_i + r_j − ‖o_i − o_j‖.
        let margin = ri + rj - ops::dist(&s.ci, &s.cj);
        if margin <= S::ZERO {
            continue;
        }
        out.add_loss(weight * margin.to_f64());
        scaled_diff_into(&s.ci, &s.cj, |n| S::from_f64(-weight) / n, &mut s.unit);
        hyperplane::ball_vjp_into(ci, &s.unit, S::from_f64(weight), &mut s.gc);
        out.add_tag(a, &s.gc);
        negate(&mut s.unit);
        hyperplane::ball_vjp_into(cj, &s.unit, S::from_f64(weight), &mut s.gc);
        out.add_tag(b, &s.gc);
    }
}

/// L_Int (extension; the paper's conclusion lists the intersection
/// relation as future work): two overlapping tags' balls must actually
/// overlap — the reverse of exclusion, hinged on geometric disjointness
/// `[‖o_i − o_j‖ − (r_i + r_j)]₊`.
pub fn intersection_loss_grad<S: Scalar>(
    model: &LogiRec<S>,
    pairs: &[(TagId, TagId)],
    weight: f64,
    out: &mut impl LogicSink<S>,
) {
    let mut s = LogicScratch::new(model.tags.dim());
    for &(a, b) in pairs {
        let (ci, cj) = (model.tags.row(a), model.tags.row(b));
        let ri = hyperplane::from_center_into(ci, &mut s.ci);
        let rj = hyperplane::from_center_into(cj, &mut s.cj);
        // margin = ‖o_i − o_j‖ − r_i − r_j (positive ⇔ disjoint).
        let margin = -(ri + rj - ops::dist(&s.ci, &s.cj));
        if margin <= S::ZERO {
            continue;
        }
        out.add_loss(weight * margin.to_f64());
        scaled_diff_into(&s.ci, &s.cj, |n| S::from_f64(weight) / n, &mut s.unit);
        hyperplane::ball_vjp_into(ci, &s.unit, S::from_f64(-weight), &mut s.gc);
        out.add_tag(a, &s.gc);
        negate(&mut s.unit);
        hyperplane::ball_vjp_into(cj, &s.unit, S::from_f64(-weight), &mut s.gc);
        out.add_tag(b, &s.gc);
    }
}

/// Output of [`rank_loss_grad`]: dense ambient gradients w.r.t. the final
/// (propagated) user and item embeddings.
#[derive(Debug)]
pub struct RankGrads<S: Scalar = f64> {
    /// `U × ambient` gradient on the final user embeddings.
    pub user_final: Embedding<S>,
    /// `V × ambient` gradient on the final item embeddings.
    pub item_final: Embedding<S>,
    /// Summed (weighted) hinge loss.
    pub loss: f64,
    /// Number of triplets with a positive hinge.
    pub active: usize,
}

/// L_Rec (Eq. 9 / Eq. 15): for each triplet `(u, v⁺, v⁻)` accumulate the
/// hinge `[m + d(u,v⁺) − d(u,v⁻)]₊`, weighted by `alpha[u]` when mining
/// weights are supplied.
pub fn rank_loss_grad<S: Scalar>(
    model: &LogiRec<S>,
    triplets: &[(usize, usize, usize)],
    margin: f64,
    alpha: Option<&[f64]>,
    per_triplet_weight: f64,
) -> RankGrads<S> {
    let st = model.state();
    let ambient = st.user_final.dim();
    let mut out = RankGrads {
        user_final: Embedding::zeros(st.user_final.rows(), ambient),
        item_final: Embedding::zeros(st.item_final.rows(), ambient),
        loss: 0.0,
        active: 0,
    };
    let (user_final, item_final) = (&mut out.user_final, &mut out.item_final);
    let (loss, active) = rank_accumulate(
        model.cfg.geometry,
        |u| st.user_final.row(u),
        &st.item_final,
        triplets.iter().copied(),
        margin,
        alpha,
        per_triplet_weight,
        |u, g| ops::axpy(S::ONE, g, user_final.row_mut(u)),
        |v, g| ops::axpy(S::ONE, g, item_final.row_mut(v)),
        &mut rank_scratch(ambient),
    );
    out.loss = loss;
    out.active = active;
    out
}

/// Reusable scratch for the ranking inner loop: the two distance-VJP
/// outputs. [`rank_scratch`] allocates the pair [`rank_accumulate`] writes
/// (a triplet's positive and negative) once per shard job, or once per
/// fold-in for all its steps; the per-triplet loop writes into these via
/// `distance_vjp_into`.
pub(crate) struct RankScratch<S: Scalar> {
    gx: Vec<S>,
    gy: Vec<S>,
}

/// The scratch pair [`rank_accumulate`] needs for `ambient`-wide rows.
pub(crate) fn rank_scratch<S: Scalar>(ambient: usize) -> [RankScratch<S>; 2] {
    [(); 2].map(|_| RankScratch { gx: vec![S::ZERO; ambient], gy: vec![S::ZERO; ambient] })
}

/// The one LMNN hinge walk (Eq. 9), shared by the trainer's dense and
/// sharded ranking paths and by the streaming fold-in objective
/// (`crate::stream`). For each triplet `(u, v⁺, v⁻)` it hinges
/// `[m + d(q_u, t_{v⁺}) − d(q_u, t_{v⁻})]₊` of the query row
/// `q_u = query(u)` against the rows of `table`, weighted by
/// `per_triplet_weight · alpha[u]`. The trainer queries the final user
/// table; a fold-in queries its one candidate row. It calls
/// `add_query(u, g)` / `add_table(v, g)` for every gradient contribution,
/// in a fixed per-triplet order (`u⁺, v⁺, u⁻, v⁻` gradient computation
/// with adds ordered `u⁺, u⁻, v⁺, v⁻`), and returns `(loss, active)`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn rank_accumulate<'q, S: Scalar>(
    geometry: Geometry,
    query: impl Fn(usize) -> &'q [S],
    table: &Embedding<S>,
    triplets: impl IntoIterator<Item = (usize, usize, usize)>,
    margin: f64,
    alpha: Option<&[f64]>,
    per_triplet_weight: f64,
    mut add_query: impl FnMut(usize, &[S]),
    mut add_table: impl FnMut(usize, &[S]),
    [sp, sq]: &mut [RankScratch<S>; 2],
) -> (f64, usize) {
    let (mut loss, mut active) = (0.0, 0usize);
    for (u, vp, vq) in triplets {
        let q = query(u);
        let dp = carrier_distance(geometry, q, table.row(vp));
        let dq = carrier_distance(geometry, q, table.row(vq));
        let hinge = S::from_f64(margin) + dp - dq;
        if hinge <= S::ZERO {
            continue;
        }
        active += 1;
        let w = per_triplet_weight * alpha.map_or(1.0, |a| a[u]);
        loss += w * hinge.to_f64();
        // + d(u, v⁺): upstream +w on both ends.
        carrier_distance_vjp(geometry, q, table.row(vp), S::from_f64(w), sp);
        // − d(u, v⁻): upstream −w.
        carrier_distance_vjp(geometry, q, table.row(vq), S::from_f64(-w), sq);
        add_query(u, &sp.gx);
        add_query(u, &sq.gx);
        add_table(vp, &sp.gy);
        add_table(vq, &sq.gy);
    }
    (loss, active)
}

/// One worker's sparse share of the ranking gradients (w.r.t. the final
/// carrier-space embeddings).
#[derive(Debug, Clone)]
pub struct RankShard<S: Scalar = f64> {
    /// Sparse gradient on the final user embeddings (`ambient`-wide rows).
    pub users: SparseGrad<S>,
    /// Sparse gradient on the final item embeddings.
    pub items: SparseGrad<S>,
    /// Summed (weighted) hinge loss of this shard.
    pub loss: f64,
    /// Triplets with a positive hinge in this shard.
    pub active: usize,
}

impl<S: Scalar> Merge for RankShard<S> {
    fn merge(&mut self, other: Self) {
        self.users.merge(other.users);
        self.items.merge(other.items);
        self.loss += other.loss;
        self.active += other.active;
    }
}

/// The finals a ranking loss reads: the geometry, the user table and the
/// item table.
pub(crate) type Finals<'a, S> = (Geometry, &'a Embedding<S>, &'a Embedding<S>);

/// [`rank_loss_grad`] over one contiguous shard of the triplet list and
/// explicit finals (the model's, or a training step's, which live outside
/// the model's forward state), accumulating into touched-row maps instead
/// of dense tables.
fn rank_shard_on<S: Scalar>(
    (geometry, user_final, item_final): Finals<'_, S>,
    triplets: &[(usize, usize, usize)],
    margin: f64,
    alpha: Option<&[f64]>,
    per_triplet_weight: f64,
) -> RankShard<S> {
    let ambient = user_final.dim();
    let mut users = SparseGrad::new(ambient);
    let mut items = SparseGrad::new(ambient);
    let (loss, active) = rank_accumulate(
        geometry,
        |u| user_final.row(u),
        item_final,
        triplets.iter().copied(),
        margin,
        alpha,
        per_triplet_weight,
        |u, g| users.add(u, g),
        |v, g| items.add(v, g),
        &mut rank_scratch(ambient),
    );
    RankShard { users, items, loss, active }
}

/// Parallel deterministic [`rank_loss_grad`]: shards the triplet list with
/// [`crate::shard::shard_ranges`] (a pure function of `triplets.len()`),
/// computes each shard's sparse gradient on up to `threads` workers, and
/// combines them with the fixed-order [`crate::shard::merge_tree`]. The
/// result is bit-identical for every `threads` value; it differs from the
/// serial [`rank_loss_grad`] only in floating-point association (dense
/// serial accumulation sums a row's triplets strictly left-to-right).
///
/// Returns the merged shard; scatter it into dense tables with
/// [`SparseGrad::scatter_add`].
pub fn rank_loss_grad_sharded<S: Scalar>(
    model: &LogiRec<S>,
    triplets: &[(usize, usize, usize)],
    margin: f64,
    alpha: Option<&[f64]>,
    per_triplet_weight: f64,
    threads: usize,
) -> RankShard<S> {
    let st = model.state();
    let finals = (model.cfg.geometry, &st.user_final, &st.item_final);
    rank_grad_sharded_on(finals, triplets, margin, alpha, per_triplet_weight, threads)
}

/// [`rank_loss_grad_sharded`] against explicit finals.
pub(crate) fn rank_grad_sharded_on<S: Scalar>(
    finals: Finals<'_, S>,
    triplets: &[(usize, usize, usize)],
    margin: f64,
    alpha: Option<&[f64]>,
    per_triplet_weight: f64,
    threads: usize,
) -> RankShard<S> {
    let ranges = crate::shard::shard_ranges(triplets.len());
    let shards = crate::parallel::map_jobs(ranges.len(), threads, |i| {
        rank_shard_on(finals, &triplets[ranges[i].clone()], margin, alpha, per_triplet_weight)
    });
    crate::shard::merge_tree(shards).expect("shard_ranges yields at least one shard")
}

/// One sampled logic-relation batch, tagged with its loss type.
#[derive(Debug, Clone, Copy)]
pub enum LogicBatch<'a> {
    /// L_Mem samples (`(item, tag)` pairs).
    Membership(&'a [(usize, TagId)]),
    /// L_Hie samples (`(parent, child)` pairs).
    Hierarchy(&'a [(TagId, TagId)]),
    /// L_Ex samples.
    Exclusion(&'a [(TagId, TagId)]),
    /// L_Int samples.
    Intersection(&'a [(TagId, TagId)]),
}

impl LogicBatch<'_> {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        match self {
            LogicBatch::Membership(p) => p.len(),
            LogicBatch::Hierarchy(p) | LogicBatch::Exclusion(p) | LogicBatch::Intersection(p) => {
                p.len()
            }
        }
    }

    /// True when the batch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs the batch's loss/gradient accumulation into `out`.
    pub fn accumulate<S: Scalar>(
        &self,
        model: &LogiRec<S>,
        range: std::ops::Range<usize>,
        weight: f64,
        out: &mut impl LogicSink<S>,
    ) {
        match self {
            LogicBatch::Membership(p) => membership_loss_grad(model, &p[range], weight, out),
            LogicBatch::Hierarchy(p) => hierarchy_loss_grad(model, &p[range], weight, out),
            LogicBatch::Exclusion(p) => exclusion_loss_grad(model, &p[range], weight, out),
            LogicBatch::Intersection(p) => intersection_loss_grad(model, &p[range], weight, out),
        }
    }
}

/// Parallel deterministic accumulation of all four logic losses: every
/// `(batch, weight)` is sharded with [`crate::shard::shard_ranges`], all
/// shards across all batches form one fixed-order job list (batch-major,
/// range-minor), and the per-shard sparse gradients are combined by the
/// fixed-shape [`crate::shard::merge_tree`]. Bit-identical for every
/// `threads` value, because both the job list and the merge shape depend
/// only on the batch lengths.
pub fn logic_loss_grad_sharded<S: Scalar>(
    model: &LogiRec<S>,
    batches: &[(LogicBatch<'_>, f64)],
    threads: usize,
) -> LogicShard<S> {
    let mut jobs: Vec<(usize, std::ops::Range<usize>)> = Vec::new();
    for (bi, (batch, _)) in batches.iter().enumerate() {
        for range in crate::shard::shard_ranges(batch.len()) {
            if !range.is_empty() {
                jobs.push((bi, range));
            }
        }
    }
    let shards = crate::parallel::map_jobs(jobs.len(), threads, |ji| {
        let (bi, range) = &jobs[ji];
        let (batch, weight) = &batches[*bi];
        let mut shard = LogicShard::new(model);
        batch.accumulate(model, range.clone(), *weight, &mut shard);
        shard
    });
    crate::shard::merge_tree(shards).unwrap_or_else(|| LogicShard::new(model))
}

fn carrier_distance<S: Scalar>(geometry: Geometry, x: &[S], y: &[S]) -> S {
    match geometry {
        Geometry::Hyperbolic => lorentz::distance(x, y),
        Geometry::Euclidean => ops::dist(x, y),
    }
}

/// Writes the two carrier-distance gradients into `s.gx` / `s.gy` (every
/// element overwritten).
fn carrier_distance_vjp<S: Scalar>(
    geometry: Geometry,
    x: &[S],
    y: &[S],
    upstream: S,
    s: &mut RankScratch<S>,
) {
    match geometry {
        Geometry::Hyperbolic => lorentz::distance_vjp_into(x, y, upstream, &mut s.gx, &mut s.gy),
        Geometry::Euclidean => {
            s.gx.copy_from_slice(x);
            for (d, yi) in s.gx.iter_mut().zip(y) {
                *d -= *yi;
            }
            let n = ops::norm(&s.gx).max(S::from_f64(1e-12));
            let k = upstream / n;
            let mk = -upstream / n;
            for (gy, d) in s.gy.iter_mut().zip(&s.gx) {
                *gy = *d * mk;
            }
            ops::scale(&mut s.gx, k);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LogiRecConfig;
    use logirec_data::{DatasetSpec, Scale};

    fn setup() -> (LogiRec, logirec_data::Dataset) {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(1);
        let mut cfg = LogiRecConfig::test_config();
        cfg.dim = 4;
        let mut m = LogiRec::new(cfg, &ds);
        m.propagate(&ds.train);
        (m, ds)
    }

    fn total_logic_loss(model: &LogiRec, ds: &logirec_data::Dataset) -> f64 {
        let mut acc = LogicGrads::zeros(model);
        membership_loss_grad(model, &ds.relations.membership, 1.0, &mut acc);
        hierarchy_loss_grad(model, &ds.relations.hierarchy, 1.0, &mut acc);
        let ex: Vec<(TagId, TagId)> =
            ds.relations.exclusion.iter().map(|&(a, b, _)| (a, b)).collect();
        exclusion_loss_grad(model, &ex, 1.0, &mut acc);
        acc.loss
    }

    #[test]
    fn logic_losses_are_nonnegative_and_finite() {
        let (m, ds) = setup();
        let loss = total_logic_loss(&m, &ds);
        assert!(loss.is_finite() && loss >= 0.0);
    }

    #[test]
    fn membership_grad_matches_finite_differences() {
        let (m, ds) = setup();
        let pairs = &ds.relations.membership[..8.min(ds.relations.membership.len())];
        let mut acc = LogicGrads::zeros(&m);
        membership_loss_grad(&m, pairs, 1.0, &mut acc);
        let f = |m: &LogiRec| {
            let mut a = LogicGrads::zeros(m);
            membership_loss_grad(m, pairs, 1.0, &mut a);
            a.loss
        };
        fd_check_tags_and_items(&m, &acc, f);
    }

    #[test]
    fn hierarchy_grad_matches_finite_differences() {
        let (m, ds) = setup();
        let pairs = &ds.relations.hierarchy[..8.min(ds.relations.hierarchy.len())];
        let mut acc = LogicGrads::zeros(&m);
        hierarchy_loss_grad(&m, pairs, 1.0, &mut acc);
        let f = |m: &LogiRec| {
            let mut a = LogicGrads::zeros(m);
            hierarchy_loss_grad(m, pairs, 1.0, &mut a);
            a.loss
        };
        fd_check_tags_and_items(&m, &acc, f);
    }

    #[test]
    fn exclusion_grad_matches_finite_differences() {
        let (m, ds) = setup();
        let pairs: Vec<(TagId, TagId)> =
            ds.relations.exclusion.iter().take(8).map(|&(a, b, _)| (a, b)).collect();
        assert!(!pairs.is_empty());
        let mut acc = LogicGrads::zeros(&m);
        exclusion_loss_grad(&m, &pairs, 1.0, &mut acc);
        let f = |m: &LogiRec| {
            let mut a = LogicGrads::zeros(m);
            exclusion_loss_grad(m, &pairs, 1.0, &mut a);
            a.loss
        };
        fd_check_tags_and_items(&m, &acc, f);
    }

    /// Compares analytic tag/item gradients against central differences on
    /// a handful of coordinates.
    fn fd_check_tags_and_items(
        m: &LogiRec,
        acc: &LogicGrads,
        f: impl Fn(&LogiRec) -> f64,
    ) {
        let h = 1e-7;
        for t in 0..3.min(m.tags.rows()) {
            for col in 0..2 {
                let mut mp = m.clone();
                mp.tags.row_mut(t)[col] += h;
                let mut mm = m.clone();
                mm.tags.row_mut(t)[col] -= h;
                let num = (f(&mp) - f(&mm)) / (2.0 * h);
                let ana = acc.tags.row(t)[col];
                assert!(
                    (num - ana).abs() < 1e-4 * (1.0 + num.abs()),
                    "tag grad[{t}][{col}]: {num} vs {ana}"
                );
            }
        }
        for v in 0..3.min(m.items.rows()) {
            for col in 0..2 {
                let mut mp = m.clone();
                mp.items.row_mut(v)[col] += h;
                let mut mm = m.clone();
                mm.items.row_mut(v)[col] -= h;
                let num = (f(&mp) - f(&mm)) / (2.0 * h);
                let ana = acc.items.row(v)[col];
                assert!(
                    (num - ana).abs() < 1e-4 * (1.0 + num.abs()),
                    "item grad[{v}][{col}]: {num} vs {ana}"
                );
            }
        }
    }

    #[test]
    fn intersection_grad_matches_finite_differences() {
        let (m, ds) = setup();
        let pairs: Vec<(TagId, TagId)> = ds.relations.intersection_pairs();
        let pairs: Vec<(TagId, TagId)> = if pairs.is_empty() {
            // Force a pair of distant tags so the hinge activates.
            vec![(0, ds.n_tags() - 1)]
        } else {
            pairs.into_iter().take(8).collect()
        };
        let mut acc = LogicGrads::zeros(&m);
        intersection_loss_grad(&m, &pairs, 1.0, &mut acc);
        let f = |m: &LogiRec| {
            let mut a = LogicGrads::zeros(m);
            intersection_loss_grad(m, &pairs, 1.0, &mut a);
            a.loss
        };
        fd_check_tags_and_items(&m, &acc, f);
    }

    #[test]
    fn intersection_and_exclusion_margins_are_opposite() {
        let (m, _) = setup();
        // For any tag pair, at most one of the two hinges can be active.
        let pairs = [(0usize, 1usize)];
        let mut ex = LogicGrads::zeros(&m);
        exclusion_loss_grad(&m, &pairs, 1.0, &mut ex);
        let mut int = LogicGrads::zeros(&m);
        intersection_loss_grad(&m, &pairs, 1.0, &mut int);
        assert!(
            ex.loss == 0.0 || int.loss == 0.0,
            "both hinges active: ex {} int {}",
            ex.loss,
            int.loss
        );
    }

    #[test]
    fn rank_loss_zero_when_positive_much_closer() {
        let (mut m, ds) = setup();
        // Force the positive item onto the user and the negative far away —
        // easiest via direct manipulation of the final embeddings through a
        // fresh propagate on modified parameters is complex; instead verify
        // via the hinge identity on the real state: margin 0 and identical
        // items give exactly zero loss.
        m.propagate(&ds.train);
        let v = ds.train.items_of(0)[0];
        let g = rank_loss_grad(&m, &[(0, v, v)], 0.0, None, 1.0);
        assert_eq!(g.active, 0);
        assert_eq!(g.loss, 0.0);
    }

    #[test]
    fn rank_loss_positive_margin_activates() {
        let (m, ds) = setup();
        let v = ds.train.items_of(0)[0];
        // v⁺ == v⁻ with positive margin → hinge == margin, grads cancel.
        let g = rank_loss_grad(&m, &[(0, v, v)], 0.5, None, 1.0);
        assert_eq!(g.active, 1);
        assert!((g.loss - 0.5).abs() < 1e-12);
        assert!(ops::norm(g.user_final.row(0)) < 1e-9, "identical pair grads cancel");
    }

    #[test]
    fn rank_grads_match_finite_differences_at_final_layer() {
        let (m, ds) = setup();
        let u = 0usize;
        let vp = ds.train.items_of(0)[0];
        let vq = (vp + 7) % ds.n_items();
        let g = rank_loss_grad(&m, &[(u, vp, vq)], 1.0, None, 1.0);
        if g.active == 0 {
            return; // hinge inactive for this seed; other tests cover it
        }
        // FD on the final user embedding along tangent directions: compare
        // against VJP by recomputing distances with a perturbed row.
        let st = m.state();
        let h = 1e-6;
        for col in 0..3 {
            let mut up = st.user_final.row(u).to_vec();
            up[col] += h;
            let mut um = st.user_final.row(u).to_vec();
            um[col] -= h;
            let f = |urow: &[f64]| {
                let dp = lorentz::distance(urow, st.item_final.row(vp));
                let dq = lorentz::distance(urow, st.item_final.row(vq));
                (1.0 + dp - dq).max(0.0)
            };
            let num = (f(&up) - f(&um)) / (2.0 * h);
            let ana = g.user_final.row(u)[col];
            assert!(
                (num - ana).abs() < 1e-4 * (1.0 + num.abs()),
                "final user grad[{col}]: {num} vs {ana}"
            );
        }
    }

    #[test]
    fn alpha_weights_scale_gradients() {
        let (m, ds) = setup();
        let u = 0usize;
        let vp = ds.train.items_of(0)[0];
        let vq = (vp + 7) % ds.n_items();
        let alpha = vec![0.5; ds.n_users()];
        let g1 = rank_loss_grad(&m, &[(u, vp, vq)], 1.0, None, 1.0);
        let g2 = rank_loss_grad(&m, &[(u, vp, vq)], 1.0, Some(&alpha), 1.0);
        assert!((g1.loss * 0.5 - g2.loss).abs() < 1e-12);
        for col in 0..m.cfg.dim + 1 {
            assert!(
                (g1.user_final.row(u)[col] * 0.5 - g2.user_final.row(u)[col]).abs() < 1e-12
            );
        }
    }

    /// The scratch-buffer loss path must be bit-identical to a
    /// straightforward allocating reimplementation of the same math.
    #[test]
    fn scratch_membership_matches_allocating_reference_bitwise() {
        use logirec_hyperbolic::Ball;
        let (m, ds) = setup();
        let pairs = &ds.relations.membership[..16.min(ds.relations.membership.len())];
        let mut fast = LogicGrads::zeros(&m);
        membership_loss_grad(&m, pairs, 0.7, &mut fast);
        // Reference: the historical per-pair allocating implementation.
        let mut slow = LogicGrads::zeros(&m);
        for &(v, t) in pairs {
            let c = m.tags.row(t);
            let ball = Ball::from_center(c);
            let x = m.items.row(v);
            let margin = ball.membership_margin(x);
            if margin <= 0.0 {
                continue;
            }
            slow.loss += 0.7 * margin;
            let diff = ops::sub(x, &ball.center);
            let n = ops::norm(&diff).max(1e-12);
            let unit = ops::scaled(&diff, 0.7 / n);
            ops::axpy(1.0, &unit, slow.items.row_mut(v));
            let neg_unit = ops::scaled(&unit, -1.0);
            let g_c = hyperplane::ball_vjp(c, &neg_unit, -0.7);
            ops::axpy(1.0, &g_c, slow.tags.row_mut(t));
        }
        assert_eq!(fast.loss, slow.loss);
        assert_eq!(fast.tags, slow.tags);
        assert_eq!(fast.items, slow.items);
    }
}
