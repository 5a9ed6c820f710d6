//! The receptive-field training step: one SGD step's forward and backward
//! passes, computed on the rows its batch reads, in tables sized once.
//!
//! A step's ranking loss reads the finals of its triplets' users and items
//! only (at paper scale about 250 users and 2,000 items of 14,016 rows),
//! and a final depends only on the rows within `L` hops of it (see
//! [`crate::graph`]). So [`TrainStep::forward`] marks the batch rows and
//! their hop rings, runs the layer-0 log maps on the rows within `L` hops,
//! layer `l` on the rows within `L − l` hops, and the exp map on the batch
//! rows only. [`TrainStep::backward`] runs the exp-map VJP on the rows with
//! a cotangent, each transpose layer where its input can be nonzero, and the
//! parameter VJPs on every row, as the full pass does.
//!
//! Every row a step computes runs the full pass's operations in its order.
//! Every other row is either never read or holds what the full pass holds
//! there: `+0.0`, the VJP of a `+0.0` cotangent through a finite tangent.
//! So a model trained by these steps is byte-identical to one trained by a
//! full [`LogiRec::propagate_graph`] and [`LogiRec::backward_rank_graph`]
//! per step, which are the all-rows case of the same kernels.
//!
//! The step's tables live here, out of the model's forward state, so
//! nothing can read a final the step did not compute.

use logirec_hyperbolic::{lorentz, maps};
use logirec_linalg::{ops, Embedding, Scalar};

use crate::config::Geometry;
use crate::graph::{backward_layers, forward_layers, Marks, PropGraph, Reach, Sides};
use crate::losses::{rank_grad_sharded_on, RankShard};
use crate::model::LogiRec;
use crate::parallel::{for_each_row, for_each_row_pair, for_each_row_scratch};
use crate::shard::SparseGrad;

/// The marks and tables of the receptive-field step, sized once for a
/// model's catalog and reused by every step over it.
#[derive(Debug)]
pub struct TrainStep<S: Scalar = f64> {
    marks: Marks,
    /// Items in carrier coordinates, every row (hyperbolic only): the item
    /// VJP reads them all.
    carrier: Embedding<S>,
    /// Three `d`-wide table pairs. Forward: the layer-0 tangents in `t[1]`,
    /// layer `l` in `t[(l − 1) % 2]`, the layer sum in `t[2]`. Backward: the
    /// cotangent on the final tangents in `t[0]`, the transposes in
    /// `t[1]`/`t[2]`.
    t: [Sides<S>; 3],
    /// Finals on the batch rows (hyperbolic only, carrier width).
    finals: Sides<S>,
    /// Parameter gradients (hyperbolic only; the Euclidean ones are the
    /// transposes' output itself).
    grads: Sides<S>,
}

impl<S: Scalar> TrainStep<S> {
    /// Zero tables for `model`'s catalog, width and geometry.
    pub fn new(model: &LogiRec<S>) -> Self {
        let (users, items, dim) = (model.users.rows(), model.items.rows(), model.cfg.dim);
        let (cu, ci) = match model.cfg.geometry {
            Geometry::Hyperbolic => (users, items),
            Geometry::Euclidean => (0, 0),
        };
        Self {
            marks: Marks::new(users, items),
            carrier: Embedding::zeros(ci, dim + 1),
            t: std::array::from_fn(|_| Sides::zeros(users, items, dim)),
            finals: Sides::zeros(cu, ci, dim + 1),
            grads: Sides { users: Embedding::zeros(cu, dim + 1), items: Embedding::zeros(ci, dim) },
        }
    }

    /// Marks the rows `triplets` read and their hop rings, then computes
    /// the finals of the triplets' rows ([`Self::finals`]). Panics unless
    /// the step was sized for `model`'s catalog.
    pub fn forward(
        &mut self,
        model: &LogiRec<S>,
        adj: &PropGraph<S>,
        triplets: &[(usize, usize, usize)],
    ) {
        let sized = (self.t[0].users.rows(), self.t[0].items.rows(), self.t[0].users.dim());
        let catalog = (model.users.rows(), model.items.rows(), model.cfg.dim);
        assert_eq!(sized, catalog, "the step's tables were sized for another catalog");
        let (layers, threads) = (model.cfg.layers, model.cfg.train_threads);
        let users = triplets.iter().map(|t| t.0);
        let items = triplets.iter().flat_map(|t| [t.1, t.2]);
        self.marks.mark(adj, users, items, layers);
        let reach = Reach::batch(&self.marks);
        let [t0, t1, t2] = &mut self.t;
        match model.cfg.geometry {
            Geometry::Hyperbolic => {
                layer0(model, &mut self.carrier, t1, threads, reach.within(layers));
                forward_layers(adj, None, t0, t1, t2, layers, threads, reach);
                let tan = if layers == 0 { &*t1 } else { &*t2 };
                exp_rows((&tan.users, &tan.items), &mut self.finals, threads, reach);
            }
            Geometry::Euclidean => {
                let z0 = Some((&model.users, &model.items));
                forward_layers(adj, z0, t0, t1, t2, layers, threads, reach);
            }
        }
    }

    /// Rows (users and items) within `L` hops of the last forward's batch:
    /// the rows its layer-0 maps ran on.
    pub fn rows(&self) -> usize {
        self.marks.len()
    }

    /// The user and item finals of the last [`Self::forward`], valid on the
    /// rows its triplets read.
    pub fn finals<'a>(&'a self, model: &'a LogiRec<S>) -> (&'a Embedding<S>, &'a Embedding<S>) {
        let finals = match (model.cfg.geometry, model.cfg.layers) {
            (Geometry::Hyperbolic, _) => &self.finals,
            (Geometry::Euclidean, 0) => return (&model.users, &model.items),
            (Geometry::Euclidean, _) => &self.t[2],
        };
        (&finals.users, &finals.items)
    }

    /// [`crate::losses::rank_loss_grad_sharded`] over the finals of the
    /// last [`Self::forward`], which must have marked these `triplets`.
    pub fn rank_loss(
        &self,
        model: &LogiRec<S>,
        triplets: &[(usize, usize, usize)],
        margin: f64,
        alpha: Option<&[f64]>,
        per_triplet_weight: f64,
    ) -> RankShard<S> {
        let (users, items) = self.finals(model);
        let finals = (model.cfg.geometry, users, items);
        let threads = model.cfg.train_threads;
        rank_grad_sharded_on(finals, triplets, margin, alpha, per_triplet_weight, threads)
    }

    /// The parameter gradients `(users, items)` of `rank`, the rank loss
    /// [`Self::rank_loss`] took on the last forward's triplets. Every row is
    /// written. The tables are the step's own: the next step overwrites
    /// them.
    pub fn backward(
        &mut self,
        model: &LogiRec<S>,
        adj: &PropGraph<S>,
        rank: &RankShard<S>,
    ) -> (&mut Embedding<S>, &mut Embedding<S>) {
        let (layers, threads) = (model.cfg.layers, model.cfg.train_threads);
        let reach = Reach::batch(&self.marks);
        let cot = Cotangent::Sparse(&rank.users, &rank.items, reach);
        let [t0, t1, t2] = &mut self.t;
        // The cotangent on the final tangents, every row, into t0.
        match model.cfg.geometry {
            Geometry::Hyperbolic => {
                let tan = if layers == 0 { &*t1 } else { &*t2 };
                exp_vjp_rows((&tan.users, &tan.items), &cot, t0, threads);
            }
            Geometry::Euclidean => {
                for_each_row(&mut t0.users, threads, |u, out| scatter_row(cot.user(u), out));
                for_each_row(&mut t0.items, threads, |v, out| scatter_row(cot.item(v), out));
            }
        }
        let at = if layers == 0 {
            0
        } else {
            1 + backward_layers(adj, (&t0.users, &t0.items), t1, t2, layers, threads, reach)
        };
        match model.cfg.geometry {
            Geometry::Hyperbolic => {
                let g0 = (&self.t[at].users, &self.t[at].items);
                param_vjp_rows(model, &self.carrier, g0, &mut self.grads, threads);
                (&mut self.grads.users, &mut self.grads.items)
            }
            Geometry::Euclidean => {
                let g0 = &mut self.t[at];
                (&mut g0.users, &mut g0.items)
            }
        }
    }
}

/// A row of the dense cotangent: the scatter of a touched row onto `+0.0`,
/// `+0.0` elsewhere.
fn scatter_row<S: Scalar>(g: Option<&[S]>, out: &mut [S]) {
    out.fill(S::ZERO);
    if let Some(g) = g {
        ops::axpy(S::ONE, g, out);
    }
}

/// The rank loss's gradient on the finals: dense tables (the full pass),
/// or the touched rows of a step's [`RankShard`] with `+0.0` elsewhere.
/// A touched row equals the dense table's row bit for bit: a
/// [`SparseGrad`] row sums onto `+0.0`, so it never holds `−0.0`, and
/// `+0.0 + x` is `x` for every other `x`.
pub(crate) enum Cotangent<'a, S: Scalar> {
    Dense(&'a Embedding<S>, &'a Embedding<S>),
    Sparse(&'a SparseGrad<S>, &'a SparseGrad<S>, Reach<'a>),
}

impl<S: Scalar> Cotangent<'_, S> {
    fn user(&self, u: usize) -> Option<&[S]> {
        match self {
            Cotangent::Dense(g, _) => Some(g.row(u)),
            Cotangent::Sparse(g, _, batch) => batch.user(u).then(|| g.get(u)).flatten(),
        }
    }

    fn item(&self, v: usize) -> Option<&[S]> {
        match self {
            Cotangent::Dense(_, g) => Some(g.row(v)),
            Cotangent::Sparse(_, g, batch) => batch.item(v).then(|| g.get(v)).flatten(),
        }
    }
}

/// The hyperbolic layer-0 tangents: every item into carrier coordinates,
/// and the log maps into `z0` on the rows `rows` selects.
pub(crate) fn layer0<S: Scalar>(
    model: &LogiRec<S>,
    carrier: &mut Embedding<S>,
    z0: &mut Sides<S>,
    threads: usize,
    rows: Reach<'_>,
) {
    for_each_row_pair(carrier, &mut z0.items, threads, |v, c, z| {
        maps::poincare_to_lorentz_into(model.items.row(v), c);
        if rows.item(v) {
            lorentz::log_origin_into(c, z);
        }
    });
    for_each_row(&mut z0.users, threads, |u, z| {
        if rows.user(u) {
            lorentz::log_origin_into(model.users.row(u), z);
        }
    });
}

/// The finals `exp₀(tan)` on the batch rows of `batch`.
pub(crate) fn exp_rows<S: Scalar>(
    (tan_u, tan_v): (&Embedding<S>, &Embedding<S>),
    finals: &mut Sides<S>,
    threads: usize,
    batch: Reach<'_>,
) {
    let batch = batch.within(0);
    for_each_row(&mut finals.users, threads, |u, out| {
        if batch.user(u) {
            lorentz::exp_origin_into(tan_u.row(u), out);
        }
    });
    for_each_row(&mut finals.items, threads, |v, out| {
        if batch.item(v) {
            lorentz::exp_origin_into(tan_v.row(v), out);
        }
    });
}

/// The exp-map VJP of `cot` on the rows that have one, `+0.0` elsewhere.
pub(crate) fn exp_vjp_rows<S: Scalar>(
    (tan_u, tan_v): (&Embedding<S>, &Embedding<S>),
    cot: &Cotangent<'_, S>,
    out: &mut Sides<S>,
    threads: usize,
) {
    for_each_row(&mut out.users, threads, |u, out| match cot.user(u) {
        Some(g) => lorentz::exp_origin_vjp_into(tan_u.row(u), g, out),
        None => out.fill(S::ZERO),
    });
    for_each_row(&mut out.items, threads, |v, out| match cot.item(v) {
        Some(g) => lorentz::exp_origin_vjp_into(tan_v.row(v), g, out),
        None => out.fill(S::ZERO),
    });
}

/// The hyperbolic parameter gradients from the layer-0 gradients `g0`,
/// every row: the log-map VJP for users; for items the log-map VJP into a
/// carrier-wide scratch row per worker, then the `p⁻¹` VJP.
pub(crate) fn param_vjp_rows<S: Scalar>(
    model: &LogiRec<S>,
    carrier: &Embedding<S>,
    (g_u0, g_v0): (&Embedding<S>, &Embedding<S>),
    out: &mut Sides<S>,
    threads: usize,
) {
    for_each_row(&mut out.users, threads, |u, out| {
        lorentz::log_origin_vjp_into(model.users.row(u), g_u0.row(u), out);
    });
    for_each_row_scratch(&mut out.items, carrier.dim(), threads, |v, out, g_h| {
        lorentz::log_origin_vjp_into(carrier.row(v), g_v0.row(v), g_h);
        maps::poincare_to_lorentz_vjp_into(model.items.row(v), g_h, out);
    });
}
