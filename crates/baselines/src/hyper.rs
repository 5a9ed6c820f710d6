//! Hyperbolic baselines: HyperML (Vinh Tran et al. 2020), HGCF (Sun et al.
//! 2021), HRCF (Yang et al. 2022), and the mixed-geometry GDCF (Zhang et
//! al. 2022).

use logirec_core::graph::{self, PropGraph};
use logirec_data::{BatchIter, Dataset, NegativeSampler};
use logirec_eval::Ranker;
use logirec_hyperbolic::{lorentz, poincare, rsgd};
use logirec_linalg::{ops, Embedding, SplitMix64};

use crate::common::BaselineConfig;

/// Scorer over Poincaré positions (`score = −d_P`).
#[derive(Debug, Clone)]
pub struct PoincareScorer {
    /// User points in the ball.
    pub users: Embedding,
    /// Item points in the ball.
    pub items: Embedding,
}

impl Ranker for PoincareScorer {
    fn score_user(&self, u: usize, out: &mut [f64]) {
        let p = self.users.row(u);
        for (v, o) in out.iter_mut().enumerate() {
            *o = -poincare::distance(p, self.items.row(v));
        }
    }
}

/// Scorer over (already propagated) Lorentz positions (`score = −d_H`).
#[derive(Debug, Clone)]
pub struct LorentzScorer {
    /// Final user points on the hyperboloid.
    pub users: Embedding,
    /// Final item points on the hyperboloid.
    pub items: Embedding,
}

impl Ranker for LorentzScorer {
    fn score_user(&self, u: usize, out: &mut [f64]) {
        let p = self.users.row(u);
        for (v, o) in out.iter_mut().enumerate() {
            *o = -lorentz::distance(p, self.items.row(v));
        }
    }
}

/// Trains HyperML: metric learning directly in the Poincaré ball with the
/// hinge `[m + d_P(u,i) − d_P(u,j)]₊` and Riemannian SGD.
pub fn train_hyperml(cfg: &BaselineConfig, ds: &Dataset) -> PoincareScorer {
    let mut rng = SplitMix64::new(cfg.seed);
    let mut users = Embedding::poincare_burn_in(ds.n_users(), cfg.dim, 0.1, &mut rng.fork(1));
    let mut items = Embedding::poincare_burn_in(ds.n_items(), cfg.dim, 0.1, &mut rng.fork(2));
    for epoch in 0..cfg.epochs {
        let mut sampler = NegativeSampler::new(&ds.train, rng.fork(100 + epoch as u64));
        let mut brng = rng.fork(200 + epoch as u64);
        for batch in BatchIter::new(&ds.train, cfg.batch_size, &mut brng) {
            for (u, i) in batch {
                let j = sampler.sample(u);
                if i == j {
                    continue;
                }
                let dp = poincare::distance(users.row(u), items.row(i));
                let dn = poincare::distance(users.row(u), items.row(j));
                if cfg.margin + dp - dn <= 0.0 {
                    continue;
                }
                let (gu_p, gi) = poincare::distance_vjp(users.row(u), items.row(i), 1.0);
                let (gu_n, gj) = poincare::distance_vjp(users.row(u), items.row(j), -1.0);
                let g_u = ops::add(&gu_p, &gu_n);
                rsgd::poincare_step(users.row_mut(u), &g_u, cfg.lr);
                rsgd::poincare_step(items.row_mut(i), &gi, cfg.lr);
                rsgd::poincare_step(items.row_mut(j), &gj, cfg.lr);
            }
        }
    }
    PoincareScorer { users, items }
}

/// Trains HGCF (and, with `root_regularization`, HRCF): free Lorentz
/// user/item embeddings, tangent-space GCN (reusing the core propagation),
/// margin ranking loss, Riemannian SGD.
///
/// HRCF's addition is a *hyperbolic geometric regularizer* that pushes
/// layer-0 tangents away from the origin (root alignment), fighting the
/// crowding of embeddings near the apex of the hyperboloid.
pub fn train_hgcf(cfg: &BaselineConfig, ds: &Dataset, root_regularization: bool) -> LorentzScorer {
    let mut rng = SplitMix64::new(cfg.seed);
    let dim = cfg.dim;
    let init_u = Embedding::normal(ds.n_users(), dim, 0.05, &mut rng.fork(1));
    let init_v = Embedding::normal(ds.n_items(), dim, 0.05, &mut rng.fork(2));
    let mut users = Embedding::zeros(ds.n_users(), dim + 1);
    let mut items = Embedding::zeros(ds.n_items(), dim + 1);
    for u in 0..users.rows() {
        users.row_mut(u).copy_from_slice(&lorentz::exp_origin(init_u.row(u)));
    }
    for v in 0..items.rows() {
        items.row_mut(v).copy_from_slice(&lorentz::exp_origin(init_v.row(v)));
    }

    let adj: PropGraph = PropGraph::build(&ds.train);
    let forward = |users: &Embedding, items: &Embedding| {
        let mut z_u0 = Embedding::zeros(users.rows(), dim);
        for u in 0..users.rows() {
            z_u0.row_mut(u).copy_from_slice(&lorentz::log_origin(users.row(u)));
        }
        let mut z_v0 = Embedding::zeros(items.rows(), dim);
        for v in 0..items.rows() {
            z_v0.row_mut(v).copy_from_slice(&lorentz::log_origin(items.row(v)));
        }
        let (fu_t, fv_t) = graph::propagate_forward_graph(&adj, &z_u0, &z_v0, cfg.layers, 1);
        let mut fu = Embedding::zeros(users.rows(), dim + 1);
        for u in 0..users.rows() {
            fu.row_mut(u).copy_from_slice(&lorentz::exp_origin(fu_t.row(u)));
        }
        let mut fv = Embedding::zeros(items.rows(), dim + 1);
        for v in 0..items.rows() {
            fv.row_mut(v).copy_from_slice(&lorentz::exp_origin(fv_t.row(v)));
        }
        (fu_t, fv_t, fu, fv)
    };

    for epoch in 0..cfg.epochs {
        let mut sampler = NegativeSampler::new(&ds.train, rng.fork(100 + epoch as u64));
        let mut brng = rng.fork(200 + epoch as u64);
        for batch in BatchIter::new(&ds.train, cfg.batch_size, &mut brng) {
            let (fu_t, fv_t, fu, fv) = forward(&users, &items);
            let mut g_fu = Embedding::zeros(users.rows(), dim + 1);
            let mut g_fv = Embedding::zeros(items.rows(), dim + 1);
            // Sum-weighted: each positive contributes a full gradient unit,
            // matching per-sample SGD step sizes (see core trainer).
            let w = 1.0;
            for &(u, i) in &batch {
                let j = sampler.sample(u);
                if i == j {
                    continue;
                }
                let dp = lorentz::distance(fu.row(u), fv.row(i));
                let dn = lorentz::distance(fu.row(u), fv.row(j));
                if cfg.margin + dp - dn <= 0.0 {
                    continue;
                }
                let (gu_p, gi) = lorentz::distance_vjp(fu.row(u), fv.row(i), w);
                let (gu_n, gj) = lorentz::distance_vjp(fu.row(u), fv.row(j), -w);
                ops::axpy(1.0, &gu_p, g_fu.row_mut(u));
                ops::axpy(1.0, &gu_n, g_fu.row_mut(u));
                ops::axpy(1.0, &gi, g_fv.row_mut(i));
                ops::axpy(1.0, &gj, g_fv.row_mut(j));
            }
            // Back through exp_origin, the GCN, and log_origin.
            let mut g_fut = Embedding::zeros(users.rows(), dim);
            for u in 0..users.rows() {
                g_fut
                    .row_mut(u)
                    .copy_from_slice(&lorentz::exp_origin_vjp(fu_t.row(u), g_fu.row(u)));
            }
            let mut g_fvt = Embedding::zeros(items.rows(), dim);
            for v in 0..items.rows() {
                g_fvt
                    .row_mut(v)
                    .copy_from_slice(&lorentz::exp_origin_vjp(fv_t.row(v), g_fv.row(v)));
            }
            let (mut g_u0, mut g_v0) =
                graph::propagate_backward_graph(&adj, &g_fut, &g_fvt, cfg.layers, 1);
            if root_regularization {
                // HRCF root alignment: increase layer-0 tangent norms, i.e.
                // descend −aux·‖z‖ ⇒ gradient −aux·z/‖z‖.
                add_root_regularizer(&users, &mut g_u0, cfg.aux_weight);
                add_root_regularizer(&items, &mut g_v0, cfg.aux_weight);
            }
            for u in 0..users.rows() {
                let g = lorentz::log_origin_vjp(users.row(u), g_u0.row(u));
                rsgd::lorentz_step(users.row_mut(u), &g, cfg.lr);
            }
            for v in 0..items.rows() {
                let g = lorentz::log_origin_vjp(items.row(v), g_v0.row(v));
                rsgd::lorentz_step(items.row_mut(v), &g, cfg.lr);
            }
        }
    }
    let (_, _, fu, fv) = forward(&users, &items);
    LorentzScorer { users: fu, items: fv }
}

/// Adds `−aux·z/‖z‖` to the tangent gradient of every row (the HRCF
/// norm-growing regularizer).
fn add_root_regularizer(points: &Embedding, grads: &mut Embedding, aux: f64) {
    for r in 0..points.rows() {
        let z = lorentz::log_origin(points.row(r));
        let n = ops::norm(&z);
        if n > 1e-9 {
            ops::axpy(-aux / n, &z, grads.row_mut(r));
        }
    }
}

/// The trained GDCF model: disentangled factors living in two geometries —
/// a Euclidean half scored by inner product and a hyperbolic half scored by
/// negative Lorentz distance; the final score is their sum.
#[derive(Debug, Clone)]
pub struct Gdcf {
    user_e: Embedding,
    item_e: Embedding,
    /// Hyperbolic factors kept as tangent coordinates (trivialized).
    user_h: Embedding,
    item_h: Embedding,
}

impl Gdcf {
    fn score(&self, u: usize, v: usize) -> f64 {
        let dot = ops::dot(self.user_e.row(u), self.item_e.row(v));
        let uh = lorentz::exp_origin(self.user_h.row(u));
        let vh = lorentz::exp_origin(self.item_h.row(v));
        dot - lorentz::distance(&uh, &vh)
    }
}

impl Ranker for Gdcf {
    fn score_user(&self, u: usize, out: &mut [f64]) {
        let ue = self.user_e.row(u);
        let uh = lorentz::exp_origin(self.user_h.row(u));
        for (v, o) in out.iter_mut().enumerate() {
            let vh = lorentz::exp_origin(self.item_h.row(v));
            *o = ops::dot(ue, self.item_e.row(v)) - lorentz::distance(&uh, &vh);
        }
    }
}

/// Trains GDCF with a margin hinge on the mixed-geometry score.
pub fn train_gdcf(cfg: &BaselineConfig, ds: &Dataset) -> Gdcf {
    let mut rng = SplitMix64::new(cfg.seed);
    let half = (cfg.dim / 2).max(1);
    let mut m = Gdcf {
        user_e: Embedding::normal(ds.n_users(), half, 0.1, &mut rng.fork(1)),
        item_e: Embedding::normal(ds.n_items(), half, 0.1, &mut rng.fork(2)),
        user_h: Embedding::normal(ds.n_users(), half, 0.05, &mut rng.fork(3)),
        item_h: Embedding::normal(ds.n_items(), half, 0.05, &mut rng.fork(4)),
    };
    for epoch in 0..cfg.epochs {
        let mut sampler = NegativeSampler::new(&ds.train, rng.fork(100 + epoch as u64));
        let mut brng = rng.fork(200 + epoch as u64);
        for batch in BatchIter::new(&ds.train, cfg.batch_size, &mut brng) {
            for (u, i) in batch {
                let j = sampler.sample(u);
                if i == j {
                    continue;
                }
                // Hinge [m + s(u,j) − s(u,i)]₊ (higher score = better).
                if cfg.margin + m.score(u, j) - m.score(u, i) <= 0.0 {
                    continue;
                }
                // Euclidean half: ∂(−s_i + s_j)/∂ue = q_j − q_i.
                {
                    let (qi, qj) = m.item_e.rows_mut2(i, j);
                    let pu = m.user_e.row_mut(u);
                    for k in 0..pu.len() {
                        let gu = qj[k] - qi[k];
                        let gi = -pu[k];
                        let gj = pu[k];
                        pu[k] -= cfg.lr * gu;
                        qi[k] -= cfg.lr * gi;
                        qj[k] -= cfg.lr * gj;
                    }
                }
                // Hyperbolic half: loss includes +d(u,i) − d(u,j).
                {
                    let zu = m.user_h.row(u).to_vec();
                    let zi = m.item_h.row(i).to_vec();
                    let zj = m.item_h.row(j).to_vec();
                    let pu = lorentz::exp_origin(&zu);
                    let pi = lorentz::exp_origin(&zi);
                    let pj = lorentz::exp_origin(&zj);
                    let (gu_p, gi) = lorentz::distance_vjp(&pu, &pi, 1.0);
                    let (gu_n, gj) = lorentz::distance_vjp(&pu, &pj, -1.0);
                    let g_amb_u = ops::add(&gu_p, &gu_n);
                    let g_zu = lorentz::exp_origin_vjp(&zu, &g_amb_u);
                    let g_zi = lorentz::exp_origin_vjp(&zi, &gi);
                    let g_zj = lorentz::exp_origin_vjp(&zj, &gj);
                    ops::axpy(-cfg.lr, &g_zu, m.user_h.row_mut(u));
                    ops::axpy(-cfg.lr, &g_zi, m.item_h.row_mut(i));
                    ops::axpy(-cfg.lr, &g_zj, m.item_h.row_mut(j));
                }
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_data::{DatasetSpec, Scale, Split};
    use logirec_eval::evaluate;

    #[test]
    fn hyperml_stays_in_ball_and_learns() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(1);
        let m = train_hyperml(&BaselineConfig::test_config(), &ds);
        for u in 0..m.users.rows() {
            assert!(poincare::in_ball(m.users.row(u)));
        }
        for v in 0..m.items.rows() {
            assert!(poincare::in_ball(m.items.row(v)));
        }
        let r = evaluate(&m, &ds, Split::Validation, &[10], 2).recall_at(10);
        assert!(r > 0.0);
    }

    #[test]
    fn hgcf_final_embeddings_are_on_manifold() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(2);
        let cfg = BaselineConfig { layers: 2, ..BaselineConfig::test_config() };
        let m = train_hgcf(&cfg, &ds, false);
        for u in 0..m.users.rows() {
            assert!(lorentz::on_manifold(m.users.row(u), 1e-6));
        }
        let r = evaluate(&m, &ds, Split::Validation, &[10], 2).recall_at(10);
        assert!(r > 0.0);
    }

    #[test]
    fn hrcf_pushes_embeddings_from_origin() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(3);
        let cfg = BaselineConfig { layers: 2, aux_weight: 0.5, ..BaselineConfig::test_config() };
        let plain = train_hgcf(&cfg, &ds, false);
        let reg = train_hgcf(&cfg, &ds, true);
        let mean_norm = |m: &LorentzScorer| {
            (0..m.items.rows())
                .map(|v| lorentz::distance_to_origin(m.items.row(v)))
                .sum::<f64>()
                / m.items.rows() as f64
        };
        assert!(
            mean_norm(&reg) > mean_norm(&plain),
            "root regularizer should inflate norms: {} vs {}",
            mean_norm(&reg),
            mean_norm(&plain)
        );
    }

    #[test]
    fn gdcf_trains_both_geometries() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(4);
        let m = train_gdcf(&BaselineConfig::test_config(), &ds);
        assert!(m.user_e.all_finite() && m.user_h.all_finite());
        let r = evaluate(&m, &ds, Split::Validation, &[10], 2).recall_at(10);
        assert!(r > 0.0);
    }
}
