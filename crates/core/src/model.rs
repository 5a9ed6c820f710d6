//! The LogiRec model state and its forward/backward passes.
//!
//! Parameters (Section IV-A):
//! * `tags` — hyperplane defining points `c_t ∈ P^d`, one per tag;
//! * `items` — item points `v^P ∈ P^d`;
//! * `users` — user points `u^H ∈ H^d` (ambient `d+1` coordinates).
//!
//! The forward pass maps items into the Lorentz model via `p⁻¹` (Eq. 2),
//! projects users and items to the tangent space at the origin (Eq. 6),
//! runs `L` propagation layers (Eq. 7), and maps the layer sums back onto
//! the hyperboloid (Eq. 8). The backward pass chains the analytic VJPs of
//! each stage in reverse.

use std::sync::{Arc, OnceLock};

use logirec_data::{Dataset, InteractionSet};
use logirec_hyperbolic::{lorentz, maps, poincare};
use logirec_linalg::{ops, Embedding, Scalar, SplitMix64};

use crate::config::{Geometry, LogiRecConfig};
use crate::graph::{
    backward_layers, forward_layers, propagate_backward_graph, propagate_forward_graph, PropGraph,
    Reach, Sides,
};
use crate::scan::{self, ScanTable};
use crate::step::{self, Cotangent};

/// Cached forward-pass tensors of every row (a full [`LogiRec::propagate`];
/// a training step keeps its own, see [`crate::step`]).
#[derive(Debug, Clone)]
pub struct ForwardState<S: Scalar = f64> {
    /// Items in the carrier space (`p⁻¹(v^P)`; `V × ambient`).
    pub item_carrier: Embedding<S>,
    /// Final user tangents `Σ_l z_u^l` (`U × d`).
    pub user_final_tan: Embedding<S>,
    /// Final item tangents (`V × d`).
    pub item_final_tan: Embedding<S>,
    /// Final user embeddings in the carrier space (`U × ambient`).
    pub user_final: Embedding<S>,
    /// Final item embeddings in the carrier space (`V × ambient`).
    pub item_final: Embedding<S>,
}

/// The LogiRec / LogiRec++ model, generic over the working precision `S`
/// (`f64` by default — the bit-exact reference path; `f32` for the
/// single-precision training/serving path selected by
/// [`crate::Precision::F32`]).
#[derive(Debug, Clone)]
pub struct LogiRec<S: Scalar = f64> {
    /// Hyperparameters.
    pub cfg: LogiRecConfig,
    /// Tag hyperplane defining points (`S × d`).
    pub tags: Embedding<S>,
    /// Item Poincaré points (`S × d`), or Euclidean points in the ablation.
    pub items: Embedding<S>,
    /// User carrier points (`U × ambient`).
    pub users: Embedding<S>,
    state: Option<ForwardState<S>>,
    scan: ScanCache<S>,
}

/// The exact-scan table of the cached forward state, built on first use in
/// item order (or installed in cluster order by a serving index, through
/// [`LogiRec::set_scan_table`]) and dropped whenever the item finals
/// change. A clone shares the table (it is a pure function of the item
/// finals, which the clone shares too), so a user fold-in — which clones
/// the model and leaves the item finals alone — neither copies nor
/// rebuilds it.
#[derive(Debug)]
struct ScanCache<S: Scalar>(OnceLock<Arc<ScanTable<S>>>);

impl<S: Scalar> ScanCache<S> {
    fn empty() -> Self {
        Self(OnceLock::new())
    }
}

impl<S: Scalar> Clone for ScanCache<S> {
    fn clone(&self) -> Self {
        Self(self.0.get().map_or_else(OnceLock::new, |table| OnceLock::from(Arc::clone(table))))
    }
}

impl<S: Scalar> LogiRec<S> {
    /// Initializes a model for `dataset`.
    ///
    /// Tag centers are seeded by taxonomy level — coarse tags start near
    /// the origin (large derived radius), fine tags farther out (small
    /// radius) — which matches the geometry the hierarchy loss drives
    /// toward and speeds up convergence considerably.
    pub fn new(cfg: LogiRecConfig, dataset: &Dataset) -> Self {
        let mut rng = SplitMix64::new(cfg.seed);
        let dim = cfg.dim;
        let n_tags = dataset.n_tags();
        let max_level = dataset.taxonomy.max_level().max(1) as f64;

        // Tag directions are inherited from the parent (plus noise) so a
        // child's hyperplane starts roughly along its parent's ray — the
        // configuration in which the derived balls nest (Lemma 2) — and
        // norms grow with depth: 0.25 (level 1) … 0.7 (deepest), giving
        // coarse tags large regions and fine tags small ones.
        // Initialization math always runs in f64 — the RNG stream and the
        // derived geometry are precision-independent; the finished tables
        // are rounded into `S` once at the end (identity for `S = f64`).
        let mut tag_rng = rng.fork(1);
        let mut tags: Embedding = Embedding::zeros(n_tags, dim);
        for t in 0..n_tags {
            let level = dataset.taxonomy.level(t) as f64;
            let target = 0.25 + 0.45 * (level - 1.0) / (max_level - 1.0).max(1.0);
            let mut dir: Vec<f64> = (0..dim).map(|_| tag_rng.normal()).collect();
            if let Some(p) = dataset.taxonomy.parent(t) {
                // Parent ids precede children, so its row is final.
                let pdir = tags.row(p).to_vec();
                let pn = ops::norm(&pdir).max(1e-9);
                let dn = ops::norm(&dir).max(1e-9);
                ops::scale(&mut dir, 0.35 / dn);
                ops::axpy(1.0 / pn, &pdir, &mut dir);
            }
            let n = ops::norm(&dir).max(1e-9);
            let row = tags.row_mut(t);
            for (r, d) in row.iter_mut().zip(&dir) {
                *r = d * target / n;
            }
        }

        // Items start near their deepest (most specific) tag's defining
        // point plus noise: membership (Eq. 3) then begins close to
        // satisfied and the tag structure shapes the geometry from the
        // first step.
        let mut items: Embedding =
            Embedding::poincare_burn_in(dataset.n_items(), dim, 0.05, &mut rng.fork(2));
        for v in 0..dataset.n_items() {
            let deepest = dataset.item_tags[v]
                .iter()
                .copied()
                .max_by_key(|&t| dataset.taxonomy.level(t));
            if let Some(t) = deepest {
                let row = items.row_mut(v);
                ops::axpy(1.0, tags.row(t), row);
                poincare::project(row);
            }
        }

        let users: Embedding = match cfg.geometry {
            Geometry::Hyperbolic => {
                let tangent: Embedding = Embedding::normal(dataset.n_users(), dim, 0.05, &mut rng.fork(3));
                let mut u: Embedding = Embedding::zeros(dataset.n_users(), dim + 1);
                for r in 0..u.rows() {
                    let point = lorentz::exp_origin(tangent.row(r));
                    u.row_mut(r).copy_from_slice(&point);
                }
                u
            }
            Geometry::Euclidean => {
                Embedding::normal(dataset.n_users(), dim, 0.05, &mut rng.fork(3))
            }
        };

        Self {
            cfg,
            tags: tags.cast(),
            items: items.cast(),
            users: users.cast(),
            state: None,
            scan: ScanCache::empty(),
        }
    }

    /// Rounds every parameter table into precision `T`, dropping any cached
    /// forward state (re-run [`Self::propagate`] on the result). Casting
    /// `f64 → f64` is bit-exact, so this is also a cheap way to detach a
    /// model from its state.
    pub fn cast<T: Scalar>(&self) -> LogiRec<T> {
        LogiRec {
            cfg: self.cfg.clone(),
            tags: self.tags.cast(),
            items: self.items.cast(),
            users: self.users.cast(),
            state: None,
            scan: ScanCache::empty(),
        }
    }

    /// Reassembles a model from previously trained parameter tables
    /// (used by [`crate::io::load_model`]). Shapes must be consistent with
    /// `cfg`; call [`Self::propagate`] before scoring.
    pub fn from_parts(
        cfg: LogiRecConfig,
        tags: Embedding<S>,
        items: Embedding<S>,
        users: Embedding<S>,
    ) -> Self {
        assert_eq!(tags.dim(), cfg.dim, "tag table width");
        assert_eq!(items.dim(), cfg.dim, "item table width");
        assert_eq!(users.dim(), cfg.ambient_dim(), "user table width");
        Self { cfg, tags, items, users, state: None, scan: ScanCache::empty() }
    }

    /// Runs the forward pass against the training graph and caches the
    /// result (required before [`Self::state`], scoring, or backward).
    ///
    /// Builds a throwaway [`PropGraph`]; call sites that propagate in a
    /// loop (the trainer) should build the graph once and use
    /// [`Self::propagate_graph`].
    pub fn propagate(&mut self, adj: &InteractionSet) {
        self.propagate_graph(&PropGraph::build(adj));
    }

    /// [`Self::propagate`] against a pre-built propagation cache: the
    /// all-rows case of the training step's kernels ([`crate::step`]).
    pub fn propagate_graph(&mut self, adj: &PropGraph<S>) {
        let fwd_timer = self.cfg.telemetry.timer();
        let (layers, threads, dim) = (self.cfg.layers, self.cfg.train_threads, self.cfg.dim);
        let sides = |dim| Sides::zeros(self.users.rows(), self.items.rows(), dim);
        let state = match self.cfg.geometry {
            Geometry::Hyperbolic => {
                let mut carrier = Embedding::zeros(self.items.rows(), dim + 1);
                // The layer tables only feed the graph pass. They are
                // dropped at the end of this block, before the finals are
                // allocated, which keeps them out of the state and out of
                // the pass's peak.
                let tan = {
                    let (mut a, mut b, mut acc) = (sides(dim), sides(dim), sides(dim));
                    let all = Reach::ALL;
                    step::layer0(self, &mut carrier, &mut b, threads, all);
                    forward_layers(adj, None, &mut a, &mut b, &mut acc, layers, threads, all);
                    if layers == 0 {
                        b
                    } else {
                        acc
                    }
                };
                let mut finals = sides(dim + 1);
                step::exp_rows((&tan.users, &tan.items), &mut finals, threads, Reach::ALL);
                ForwardState {
                    item_carrier: carrier,
                    user_final_tan: tan.users,
                    item_final_tan: tan.items,
                    user_final: finals.users,
                    item_final: finals.items,
                }
            }
            Geometry::Euclidean => {
                let (tan_u, tan_v) =
                    propagate_forward_graph(adj, &self.users, &self.items, layers, threads);
                ForwardState {
                    item_carrier: self.items.clone(),
                    user_final: tan_u.clone(),
                    item_final: tan_v.clone(),
                    user_final_tan: tan_u,
                    item_final_tan: tan_v,
                }
            }
        };
        self.scan = ScanCache::empty();
        self.state = Some(state);
        self.cfg.telemetry.observe_us("gcn.propagate_us", fwd_timer);
    }

    /// The cached forward state; panics if [`Self::propagate`] has not run.
    pub fn state(&self) -> &ForwardState<S> {
        self.state.as_ref().expect("propagate() must run before accessing state")
    }

    /// True once a forward pass has been cached.
    pub fn has_state(&self) -> bool {
        self.state.is_some()
    }

    /// The exact-scan table over the cached item finals (see
    /// [`crate::scan`]), built on first use — once per propagated state,
    /// never per query. Callers that must not pay the build on a request
    /// path (snapshot validation) call this up front. Panics if
    /// [`Self::propagate`] has not run.
    pub fn scan_table(&self) -> &ScanTable<S> {
        self.scan
            .0
            .get_or_init(|| Arc::new(ScanTable::new(self.cfg.geometry, &self.state().item_final)))
    }

    /// Installs `table` as the exact-scan table of the cached item finals,
    /// in place of the item-order one [`Self::scan_table`] would build: a
    /// serving index lays the table out in cluster order, and the exact
    /// scan then walks that one table too. It is kept and shared exactly
    /// like a built one. Panics unless a forward state is cached and
    /// `table` covers its item finals.
    pub fn set_scan_table(&mut self, table: ScanTable<S>) {
        assert_eq!(table.len(), self.state().item_final.rows(), "scan table size");
        self.scan = ScanCache(OnceLock::from(Arc::new(table)));
    }

    /// Backward pass of the ranking head: takes dense ambient gradients
    /// w.r.t. the **final** user/item embeddings and returns gradients
    /// w.r.t. the user parameters (ambient) and item parameters (Poincaré /
    /// Euclidean `d`-dim), against a pre-built propagation cache. The
    /// all-rows case of the training step's kernels ([`crate::step`]).
    pub fn backward_rank_graph(
        &self,
        g_user_final: &Embedding<S>,
        g_item_final: &Embedding<S>,
        adj: &PropGraph<S>,
    ) -> (Embedding<S>, Embedding<S>) {
        let st = self.state();
        let (layers, threads, dim) = (self.cfg.layers, self.cfg.train_threads, self.cfg.dim);
        match self.cfg.geometry {
            Geometry::Hyperbolic => {
                let sides = || Sides::zeros(self.users.rows(), self.items.rows(), dim);
                // The gradient on the final tangents and the transposes'
                // other table are dropped at the end of this block, before
                // the parameter gradients are allocated.
                let g0 = {
                    let cot = Cotangent::Dense(g_user_final, g_item_final);
                    let mut g_tan = sides();
                    let tan = (&st.user_final_tan, &st.item_final_tan);
                    step::exp_vjp_rows(tan, &cot, &mut g_tan, threads);
                    if layers == 0 {
                        g_tan
                    } else {
                        let (mut a, mut b) = (sides(), sides());
                        let g = (&g_tan.users, &g_tan.items);
                        match backward_layers(adj, g, &mut a, &mut b, layers, threads, Reach::ALL) {
                            0 => a,
                            _ => b,
                        }
                    }
                };
                let mut grads = Sides {
                    users: Embedding::zeros(self.users.rows(), dim + 1),
                    items: Embedding::zeros(self.items.rows(), dim),
                };
                let g0 = (&g0.users, &g0.items);
                step::param_vjp_rows(self, &st.item_carrier, g0, &mut grads, threads);
                (grads.users, grads.items)
            }
            Geometry::Euclidean => {
                propagate_backward_graph(adj, g_user_final, g_item_final, layers, threads)
            }
        }
    }

    /// Distance between a propagated user and item in the carrier space.
    pub fn pair_distance(&self, u: usize, v: usize) -> f64 {
        let st = self.state();
        match self.cfg.geometry {
            Geometry::Hyperbolic => {
                lorentz::distance(st.user_final.row(u), st.item_final.row(v)).to_f64()
            }
            Geometry::Euclidean => {
                ops::dist(st.user_final.row(u), st.item_final.row(v)).to_f64()
            }
        }
    }

    /// Distance of a propagated user embedding to the space origin — the
    /// raw granularity score GR_u (Eq. 13).
    pub fn user_origin_distance(&self, u: usize) -> f64 {
        let st = self.state();
        match self.cfg.geometry {
            Geometry::Hyperbolic => lorentz::distance_to_origin(st.user_final.row(u)).to_f64(),
            Geometry::Euclidean => ops::norm(st.user_final.row(u)).to_f64(),
        }
    }

    /// Final item embedding projected to Poincaré coordinates (used for the
    /// Fig. 7/8 visualizations). In the Euclidean ablation the propagated
    /// vector is returned as-is.
    pub fn item_poincare(&self, v: usize) -> Vec<f64> {
        let st = self.state();
        let row = match self.cfg.geometry {
            Geometry::Hyperbolic => maps::lorentz_to_poincare(st.item_final.row(v)),
            Geometry::Euclidean => st.item_final.row(v).to_vec(),
        };
        row.iter().map(|x| x.to_f64()).collect()
    }

    /// Checks that the user and item tables have one row per user and item
    /// of a catalog of `n_users` × `n_items` — the check every consumer of
    /// a loaded model runs before propagating over a dataset.
    pub fn check_catalog(&self, n_users: usize, n_items: usize) -> Result<(), String> {
        for (what, rows, want) in
            [("items", self.items.rows(), n_items), ("users", self.users.rows(), n_users)]
        {
            if rows != want {
                return Err(format!("model has {rows} {what} but the dataset has {want}"));
            }
        }
        Ok(())
    }

    /// Checks every parameter table for NaN/∞ — the invariant each
    /// optimizer step must preserve.
    pub fn all_finite(&self) -> bool {
        self.tags.all_finite() && self.items.all_finite() && self.users.all_finite()
    }

    /// Drops the cached forward state (e.g. after restoring parameter
    /// tables from a checkpoint); re-run [`Self::propagate`] before
    /// scoring.
    pub fn clear_state(&mut self) {
        self.state = None;
        self.scan = ScanCache::empty();
    }

    /// Appends one user parameter row (carrier coordinates) and, when a
    /// forward state is cached, extends every state tensor in lockstep
    /// (the item finals, and with them the scan table, are untouched).
    ///
    /// A freshly folded-in user has no edges in the propagation graph, so
    /// each GCN layer passes its tangent through unchanged and the layer
    /// sum is `L` repeated additions of `z₀` — replicated here exactly as
    /// [`crate::graph::propagate_forward_graph`] computes it, making the
    /// extended state bit-identical to a full re-propagation against the
    /// grown graph. Returns the new user's id.
    pub fn push_user_row(&mut self, row: &[S]) -> usize {
        assert_eq!(row.len(), self.cfg.ambient_dim(), "user row width");
        self.users.push_row(row);
        if let Some(st) = self.state.as_mut() {
            let z0 = match self.cfg.geometry {
                Geometry::Hyperbolic => lorentz::log_origin(row),
                Geometry::Euclidean => row.to_vec(),
            };
            let tan = degree_zero_layer_sum(&z0, self.cfg.layers);
            let final_row = match self.cfg.geometry {
                Geometry::Hyperbolic => lorentz::exp_origin(&tan),
                Geometry::Euclidean => tan.clone(),
            };
            st.user_final_tan.push_row(&tan);
            st.user_final.push_row(&final_row);
        }
        self.users.rows() - 1
    }

    /// Appends one item parameter row (Poincaré / Euclidean coordinates),
    /// extending the cached forward state like [`Self::push_user_row`] and
    /// dropping the scan table, which the grown item finals invalidate.
    /// Returns the new item's id.
    pub fn push_item_row(&mut self, row: &[S]) -> usize {
        assert_eq!(row.len(), self.cfg.dim, "item row width");
        self.items.push_row(row);
        self.scan = ScanCache::empty();
        if let Some(st) = self.state.as_mut() {
            match self.cfg.geometry {
                Geometry::Hyperbolic => {
                    let carrier = maps::poincare_to_lorentz(row);
                    let z0 = lorentz::log_origin(&carrier);
                    let tan = degree_zero_layer_sum(&z0, self.cfg.layers);
                    let final_row = lorentz::exp_origin(&tan);
                    st.item_carrier.push_row(&carrier);
                    st.item_final_tan.push_row(&tan);
                    st.item_final.push_row(&final_row);
                }
                Geometry::Euclidean => {
                    // The Euclidean forward pass uses the item table itself
                    // as both carrier and layer-0 tangent.
                    let tan = degree_zero_layer_sum(row, self.cfg.layers);
                    st.item_carrier.push_row(row);
                    st.item_final_tan.push_row(&tan);
                    st.item_final.push_row(&tan);
                }
            }
        }
        self.items.rows() - 1
    }
}

/// The final tangent of a degree-0 node: with `L ≥ 1` layers, the layer
/// loop accumulates the unchanged `z₀` once per layer (repeated addition,
/// matching the propagation kernel's rounding exactly); with `L = 0` the
/// forward pass is the identity.
fn degree_zero_layer_sum<S: Scalar>(z0: &[S], layers: usize) -> Vec<S> {
    if layers == 0 {
        return z0.to_vec();
    }
    let mut tan = vec![S::ZERO; z0.len()];
    for _ in 0..layers {
        ops::axpy(S::ONE, z0, &mut tan);
    }
    tan
}

impl<S: Scalar> logirec_eval::Ranker for LogiRec<S> {
    fn score_user(&self, u: usize, out: &mut [f64]) {
        let st = self.state();
        let geometry = self.cfg.geometry;
        self.scan_table().keys(st.user_final.row(u), &st.item_final, out);
        for o in out.iter_mut() {
            *o = scan::key_score::<S>(geometry, *o);
        }
    }

    fn top_k(
        &self,
        u: usize,
        masked: &[&[usize]],
        k: usize,
        scratch: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>) {
        let st = self.state();
        self.scan_table().top_k(st.user_final.row(u), &st.item_final, masked, k, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_data::{DatasetSpec, Scale};

    fn tiny_model() -> (LogiRec, Dataset) {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(1);
        let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
        (model, ds)
    }

    #[test]
    fn init_shapes_match_dataset() {
        let (m, ds) = tiny_model();
        assert_eq!(m.tags.rows(), ds.n_tags());
        assert_eq!(m.items.rows(), ds.n_items());
        assert_eq!(m.users.rows(), ds.n_users());
        assert_eq!(m.users.dim(), m.cfg.dim + 1);
        assert!(m.all_finite());
    }

    #[test]
    fn init_respects_manifolds() {
        let (m, ds) = tiny_model();
        for v in 0..ds.n_items() {
            assert!(poincare::in_ball(m.items.row(v)));
        }
        for u in 0..ds.n_users() {
            assert!(lorentz::on_manifold(m.users.row(u), 1e-9));
        }
        for t in 0..ds.n_tags() {
            let n = ops::norm(m.tags.row(t));
            assert!((0.1..0.95).contains(&n), "tag norm {n}");
        }
    }

    #[test]
    fn tag_init_norm_grows_with_level() {
        let (m, ds) = tiny_model();
        // Flat fixed-width accumulators indexed by taxonomy level — no
        // per-level Vec allocations.
        let mut level_sums = [0.0f64; 5];
        let mut level_counts = [0usize; 5];
        for t in 0..ds.n_tags() {
            let level = ds.taxonomy.level(t);
            level_sums[level] += ops::norm(m.tags.row(t));
            level_counts[level] += 1;
        }
        let avg = |l: usize| level_sums[l] / level_counts[l].max(1) as f64;
        assert!(avg(1) < avg(4));
    }

    #[test]
    fn propagate_produces_manifold_outputs() {
        let (mut m, ds) = tiny_model();
        m.propagate(&ds.train);
        let st = m.state();
        for u in 0..ds.n_users() {
            assert!(lorentz::on_manifold(st.user_final.row(u), 1e-8));
        }
        for v in 0..ds.n_items() {
            assert!(lorentz::on_manifold(st.item_final.row(v), 1e-8));
        }
    }

    #[test]
    fn scoring_requires_state() {
        let (m, _) = tiny_model();
        assert!(!m.has_state());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.state();
        }));
        assert!(result.is_err());
    }

    #[test]
    fn euclidean_variant_has_consistent_shapes() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(2);
        let mut cfg = LogiRecConfig::test_config();
        cfg.geometry = Geometry::Euclidean;
        let mut m: LogiRec = LogiRec::new(cfg, &ds);
        assert_eq!(m.users.dim(), m.cfg.dim);
        m.propagate(&ds.train);
        assert_eq!(m.state().user_final.dim(), m.cfg.dim);
        assert!(m.pair_distance(0, 0) >= 0.0);
    }

    #[test]
    fn backward_rank_matches_finite_differences_through_full_chain() {
        // End-to-end gradient check: loss = d(u_final, v_final) for one
        // pair, differentiated w.r.t. a user parameter (via tangent
        // perturbation) and an item parameter.
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(3);
        let mut cfg = LogiRecConfig::test_config();
        cfg.dim = 4;
        cfg.layers = 2;
        let mut m = LogiRec::new(cfg, &ds);
        m.propagate(&ds.train);

        let (u, v) = (0usize, ds.train.items_of(0)[0]);
        let st = m.state();
        let (gu, gv) = lorentz::distance_vjp(st.user_final.row(u), st.item_final.row(v), 1.0);
        let mut g_user_final = Embedding::zeros(m.users.rows(), m.cfg.dim + 1);
        let mut g_item_final = Embedding::zeros(m.items.rows(), m.cfg.dim + 1);
        g_user_final.row_mut(u).copy_from_slice(&gu);
        g_item_final.row_mut(v).copy_from_slice(&gv);
        let pg = PropGraph::build(&ds.train);
        let (g_users, g_items) = m.backward_rank_graph(&g_user_final, &g_item_final, &pg);

        // Item parameter check (Euclidean coordinates, direct FD).
        let h = 1e-6;
        let probe_item = ds.train.items_of(1)[0];
        for col in 0..2 {
            let mut mp = m.clone();
            mp.items.row_mut(probe_item)[col] += h;
            mp.propagate(&ds.train);
            let fp = mp.pair_distance(u, v);
            let mut mm = m.clone();
            mm.items.row_mut(probe_item)[col] -= h;
            mm.propagate(&ds.train);
            let fm = mm.pair_distance(u, v);
            let num = (fp - fm) / (2.0 * h);
            let ana = g_items.row(probe_item)[col];
            assert!(
                (num - ana).abs() < 1e-4 * (1.0 + num.abs()),
                "item grad[{probe_item}][{col}]: {num} vs {ana}"
            );
        }

        // User parameter check via tangent perturbation (stays on H^d).
        let probe_user = 1usize;
        let z0 = lorentz::log_origin(m.users.row(probe_user));
        for col in 0..2 {
            let mut zp = z0.clone();
            zp[col] += h;
            let mut mp = m.clone();
            mp.users.row_mut(probe_user).copy_from_slice(&lorentz::exp_origin(&zp));
            mp.propagate(&ds.train);
            let fp = mp.pair_distance(u, v);
            let mut zm = z0.clone();
            zm[col] -= h;
            let mut mm = m.clone();
            mm.users.row_mut(probe_user).copy_from_slice(&lorentz::exp_origin(&zm));
            mm.propagate(&ds.train);
            let fm = mm.pair_distance(u, v);
            let num = (fp - fm) / (2.0 * h);
            // Chain the ambient user gradient through exp_origin to tangent
            // coordinates for comparison.
            let ana_tan = lorentz::exp_origin_vjp(&z0, g_users.row(probe_user));
            assert!(
                (num - ana_tan[col]).abs() < 1e-4 * (1.0 + num.abs()),
                "user grad[{probe_user}][{col}]: {num} vs {}",
                ana_tan[col]
            );
        }
    }

    /// Pushes three user and three item rows, interleaved, onto a
    /// propagated model and checks the extended forward state against a
    /// full re-propagation over the grown graph (the new rows have no
    /// edges), bit for bit.
    fn check_pushes_match_repropagation<S: Scalar>(geometry: Geometry, layers: usize) {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(1);
        let cfg = LogiRecConfig { geometry, layers, ..LogiRecConfig::test_config() };
        let mut m = LogiRec::<f64>::new(cfg, &ds).cast::<S>();
        m.propagate(&ds.train);
        let dim = m.cfg.dim;
        let pushes = 3;
        for j in 0..pushes {
            let scale = (j + 1) as f64;
            let tangent: Vec<S> =
                (0..dim).map(|i| S::from_f64(0.01 * scale * (1.0 + 0.1 * i as f64))).collect();
            let user_row = match geometry {
                Geometry::Hyperbolic => lorentz::exp_origin(&tangent),
                Geometry::Euclidean => tangent,
            };
            assert_eq!(m.push_user_row(&user_row), ds.n_users() + j);
            let item_row: Vec<S> =
                (0..dim).map(|i| S::from_f64(0.005 * scale * (1.0 - 0.05 * i as f64))).collect();
            assert_eq!(m.push_item_row(&item_row), ds.n_items() + j);
        }
        let incremental = m.state().clone();

        let pairs: Vec<(usize, usize)> = ds.train.iter_pairs().collect();
        let grown =
            InteractionSet::from_pairs(ds.n_users() + pushes, ds.n_items() + pushes, &pairs);
        m.propagate(&grown);
        let full = m.state();
        let bits = |t: &Embedding<S>| -> Vec<u64> {
            t.as_slice().iter().map(|x| x.to_f64().to_bits()).collect()
        };
        for (name, a, b) in [
            ("user_final", &incremental.user_final, &full.user_final),
            ("item_final", &incremental.item_final, &full.item_final),
            ("user_final_tan", &incremental.user_final_tan, &full.user_final_tan),
            ("item_final_tan", &incremental.item_final_tan, &full.item_final_tan),
            ("item_carrier", &incremental.item_carrier, &full.item_carrier),
        ] {
            assert_eq!((a.rows(), a.dim()), (b.rows(), b.dim()), "{name} shape");
            assert!(
                bits(a) == bits(b),
                "{name} differs from re-propagation ({geometry:?}, layers {layers}, {})",
                std::any::type_name::<S>()
            );
        }
    }

    #[test]
    fn pushed_degree_zero_rows_match_full_repropagation() {
        for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
            for layers in 0..=3 {
                check_pushes_match_repropagation::<f64>(geometry, layers);
                check_pushes_match_repropagation::<f32>(geometry, layers);
            }
        }
    }

    #[test]
    fn ranker_scores_are_negative_distances() {
        let (mut m, ds) = tiny_model();
        m.propagate(&ds.train);
        let mut out = vec![0.0; ds.n_items()];
        logirec_eval::Ranker::score_user(&m, 0, &mut out);
        for (v, &s) in out.iter().enumerate() {
            assert!((s + m.pair_distance(0, v)).abs() < 1e-12);
        }
    }
}
