//! Tangent-space graph convolution (Eq. 7) with an exact transpose pass.
//!
//! Propagation is LightGCN-style and **linear** in the layer-0 embeddings:
//!
//! `z_u^{l+1} = z_u^l + (1/|N_u|) Σ_{v∈N_u} z_v^l`
//! `z_v^{l+1} = z_v^l + (1/|N_v|) Σ_{u∈N_v} z_u^l`
//! `z^final  = Σ_{l=1}^{L} z^l`
//!
//! Because the map is linear, backpropagation only needs the transposed
//! adjacency — no stored activations. [`propagate_backward`] implements the
//! reverse recurrence `G_l = g_l + Mᵀ G_{l+1}`, where `M = I + A` is the
//! joint propagation matrix and `g_l` is the direct contribution of layer
//! `l` to the final sum (`g_final` for `1 ≤ l ≤ L`, zero for `l = 0`).

use logirec_data::InteractionSet;
use logirec_linalg::{ops, Embedding, Scalar};

use crate::parallel::for_each_row;

/// Immutable propagation cache for one interaction graph: flat CSR
/// adjacency in both directions plus the pre-divided mean-aggregation
/// normalizers `1/|N_u|` and `1/|N_v|`.
///
/// [`InteractionSet`] stores one `Vec` per node, so walking it re-derefs a
/// heap pointer per row and recomputes `1.0 / len` per edge visit — every
/// batch, for every layer, in both passes. A `PropGraph` is built **once
/// per dataset** (the trainer builds it before the epoch loop) and reused
/// by every propagate/backward call. The arithmetic is unchanged: the same
/// neighbor order and the same `1/deg` values, so results are bit-identical
/// to the uncached path.
#[derive(Debug, Clone)]
pub struct PropGraph<S: Scalar = f64> {
    n_users: usize,
    n_items: usize,
    /// CSR of items per user: neighbors of user `u` are
    /// `u_adj[u_off[u]..u_off[u + 1]]`.
    u_off: Vec<usize>,
    u_adj: Vec<usize>,
    /// CSR of users per item.
    v_off: Vec<usize>,
    v_adj: Vec<usize>,
    /// `1/|N_u|` (0.0 for isolated users — never multiplied in that case).
    u_norm: Vec<S>,
    /// `1/|N_v|`.
    v_norm: Vec<S>,
}

impl<S: Scalar> PropGraph<S> {
    /// Builds the cache from an interaction set (one pass per direction).
    pub fn build(adj: &InteractionSet) -> Self {
        let n_users = adj.n_users();
        let n_items = adj.n_items();
        let mut u_off = Vec::with_capacity(n_users + 1);
        let mut u_adj = Vec::with_capacity(adj.len());
        let mut u_norm = Vec::with_capacity(n_users);
        u_off.push(0);
        for u in 0..n_users {
            let items = adj.items_of(u);
            u_adj.extend_from_slice(items);
            u_off.push(u_adj.len());
            u_norm.push(if items.is_empty() {
                S::ZERO
            } else {
                S::from_f64(1.0 / items.len() as f64)
            });
        }
        let mut v_off = Vec::with_capacity(n_items + 1);
        let mut v_adj = Vec::with_capacity(adj.len());
        let mut v_norm = Vec::with_capacity(n_items);
        v_off.push(0);
        for v in 0..n_items {
            let users = adj.users_of(v);
            v_adj.extend_from_slice(users);
            v_off.push(v_adj.len());
            v_norm.push(if users.is_empty() {
                S::ZERO
            } else {
                S::from_f64(1.0 / users.len() as f64)
            });
        }
        Self { n_users, n_items, u_off, u_adj, v_off, v_adj, u_norm, v_norm }
    }

    /// Number of user rows.
    pub fn n_users(&self) -> usize {
        self.n_users
    }

    /// Number of item rows.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Sorted item neighbors of user `u`.
    #[inline]
    pub fn items_of(&self, u: usize) -> &[usize] {
        &self.u_adj[self.u_off[u]..self.u_off[u + 1]]
    }

    /// Sorted user neighbors of item `v`.
    #[inline]
    pub fn users_of(&self, v: usize) -> &[usize] {
        &self.v_adj[self.v_off[v]..self.v_off[v + 1]]
    }
}

/// Forward propagation: returns the final tangent embeddings
/// `(user_final, item_final)`; with `layers == 0` these are copies of the
/// inputs (the "w/o HGCN" variant). Builds a throwaway [`PropGraph`]; hot
/// loops should build one and call [`propagate_forward_graph`].
pub fn propagate_forward<S: Scalar>(
    adj: &InteractionSet,
    z_u0: &Embedding<S>,
    z_v0: &Embedding<S>,
    layers: usize,
) -> (Embedding<S>, Embedding<S>) {
    if layers == 0 {
        return (z_u0.clone(), z_v0.clone());
    }
    propagate_forward_graph(&PropGraph::build(adj), z_u0, z_v0, layers, 1)
}

/// Forward propagation against a cached [`PropGraph`].
pub fn propagate_forward_graph<S: Scalar>(
    adj: &PropGraph<S>,
    z_u0: &Embedding<S>,
    z_v0: &Embedding<S>,
    layers: usize,
    threads: usize,
) -> (Embedding<S>, Embedding<S>) {
    if layers == 0 {
        return (z_u0.clone(), z_v0.clone());
    }
    let dim = z_u0.dim();
    let mut zu = z_u0.clone();
    let mut zv = z_v0.clone();
    let mut acc_u = Embedding::zeros(z_u0.rows(), dim);
    let mut acc_v = Embedding::zeros(z_v0.rows(), dim);
    let mut next_u = Embedding::zeros(z_u0.rows(), dim);
    let mut next_v = Embedding::zeros(z_v0.rows(), dim);
    for _ in 0..layers {
        step_forward(adj, &zu, &zv, &mut next_u, &mut next_v, threads);
        std::mem::swap(&mut zu, &mut next_u);
        std::mem::swap(&mut zv, &mut next_v);
        accumulate(&mut acc_u, &zu);
        accumulate(&mut acc_v, &zv);
    }
    (acc_u, acc_v)
}

/// Backward pass: given gradients w.r.t. the final tangent embeddings,
/// returns gradients w.r.t. the layer-0 embeddings (the exact adjoint of
/// [`propagate_forward`]). Builds a throwaway [`PropGraph`]; hot loops
/// should build one and call [`propagate_backward_graph`].
pub fn propagate_backward<S: Scalar>(
    adj: &InteractionSet,
    g_fu: &Embedding<S>,
    g_fv: &Embedding<S>,
    layers: usize,
) -> (Embedding<S>, Embedding<S>) {
    if layers == 0 {
        return (g_fu.clone(), g_fv.clone());
    }
    propagate_backward_graph(&PropGraph::build(adj), g_fu, g_fv, layers, 1)
}

/// Backward propagation against a cached [`PropGraph`].
pub fn propagate_backward_graph<S: Scalar>(
    adj: &PropGraph<S>,
    g_fu: &Embedding<S>,
    g_fv: &Embedding<S>,
    layers: usize,
    threads: usize,
) -> (Embedding<S>, Embedding<S>) {
    if layers == 0 {
        return (g_fu.clone(), g_fv.clone());
    }
    // G_L = g_final.
    let mut gu = g_fu.clone();
    let mut gv = g_fv.clone();
    let mut next_u = Embedding::zeros(g_fu.rows(), g_fu.dim());
    let mut next_v = Embedding::zeros(g_fv.rows(), g_fv.dim());
    for l in (0..layers).rev() {
        step_transpose(adj, &gu, &gv, &mut next_u, &mut next_v, threads);
        std::mem::swap(&mut gu, &mut next_u);
        std::mem::swap(&mut gv, &mut next_v);
        if l >= 1 {
            accumulate(&mut gu, g_fu);
            accumulate(&mut gv, g_fv);
        }
    }
    (gu, gv)
}

/// One forward step `next = (I + A)·z`.
fn step_forward<S: Scalar>(
    adj: &PropGraph<S>,
    zu: &Embedding<S>,
    zv: &Embedding<S>,
    next_u: &mut Embedding<S>,
    next_v: &mut Embedding<S>,
    threads: usize,
) {
    for_each_row(next_u, threads, |u, out| {
        ops::copy(out, zu.row(u));
        let w = adj.u_norm[u];
        for &v in adj.items_of(u) {
            ops::axpy(w, zv.row(v), out);
        }
    });
    for_each_row(next_v, threads, |v, out| {
        ops::copy(out, zv.row(v));
        let w = adj.v_norm[v];
        for &u in adj.users_of(v) {
            ops::axpy(w, zu.row(u), out);
        }
    });
}

/// One transpose step `next = (I + Aᵀ)·g`.
///
/// Forward sends `z_v/|N_u|` into user `u`; the transpose therefore sends
/// `g_u/|N_u|` into item `v` for every edge `(u, v)` — note the
/// normalization stays with the *source side of the forward pass*.
fn step_transpose<S: Scalar>(
    adj: &PropGraph<S>,
    gu: &Embedding<S>,
    gv: &Embedding<S>,
    next_u: &mut Embedding<S>,
    next_v: &mut Embedding<S>,
    threads: usize,
) {
    for_each_row(next_u, threads, |u, out| {
        ops::copy(out, gu.row(u));
        for &v in adj.items_of(u) {
            ops::axpy(adj.v_norm[v], gv.row(v), out);
        }
    });
    for_each_row(next_v, threads, |v, out| {
        ops::copy(out, gv.row(v));
        for &u in adj.users_of(v) {
            ops::axpy(adj.u_norm[u], gu.row(u), out);
        }
    });
}

fn accumulate<S: Scalar>(acc: &mut Embedding<S>, x: &Embedding<S>) {
    ops::axpy(S::ONE, x.as_slice(), acc.as_mut_slice());
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_linalg::SplitMix64;

    fn toy_adj() -> InteractionSet {
        // 3 users, 4 items.
        InteractionSet::from_pairs(3, 4, &[(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn zero_layers_is_identity() {
        let adj = toy_adj();
        let mut rng = SplitMix64::new(1);
        let zu: Embedding = Embedding::normal(3, 4, 1.0, &mut rng);
        let zv: Embedding = Embedding::normal(4, 4, 1.0, &mut rng);
        let (fu, fv) = propagate_forward(&adj, &zu, &zv, 0);
        assert_eq!(fu, zu);
        assert_eq!(fv, zv);
    }

    #[test]
    fn one_layer_matches_manual_mean_aggregation() {
        let adj = toy_adj();
        let mut zu: Embedding = Embedding::zeros(3, 1);
        let mut zv: Embedding = Embedding::zeros(4, 1);
        for u in 0..3 {
            zu.row_mut(u)[0] = (u + 1) as f64; // 1, 2, 3
        }
        for v in 0..4 {
            zv.row_mut(v)[0] = 10.0 * (v + 1) as f64; // 10, 20, 30, 40
        }
        let (fu, fv) = propagate_forward(&adj, &zu, &zv, 1);
        // user 0: 1 + (10+20)/2 = 16; user 1: 2 + (20+30)/2 = 27;
        // user 2: 3 + 40 = 43.
        assert_eq!(fu.row(0)[0], 16.0);
        assert_eq!(fu.row(1)[0], 27.0);
        assert_eq!(fu.row(2)[0], 43.0);
        // item 0: 10 + 1 = 11; item 1: 20 + (1+2)/2 = 21.5;
        // item 2: 30 + 2 = 32; item 3: 40 + 3 = 43.
        assert_eq!(fv.row(0)[0], 11.0);
        assert_eq!(fv.row(1)[0], 21.5);
        assert_eq!(fv.row(2)[0], 32.0);
        assert_eq!(fv.row(3)[0], 43.0);
    }

    #[test]
    fn isolated_nodes_pass_through() {
        let adj = InteractionSet::from_pairs(2, 2, &[(0, 0)]);
        let mut zu: Embedding = Embedding::zeros(2, 1);
        zu.row_mut(1)[0] = 5.0;
        let mut zv: Embedding = Embedding::zeros(2, 1);
        zv.row_mut(1)[0] = 7.0;
        let (fu, fv) = propagate_forward(&adj, &zu, &zv, 2);
        // Isolated user 1 / item 1 only self-accumulate: Σ_{l=1,2} z = 2z.
        assert_eq!(fu.row(1)[0], 10.0);
        assert_eq!(fv.row(1)[0], 14.0);
    }

    /// The transpose pass must compute the exact gradient of the linear
    /// forward map: check ⟨forward(x), g⟩ = ⟨x, backward(g)⟩ (adjoint
    /// identity) on random data for several depths.
    #[test]
    fn backward_is_exact_adjoint_of_forward() {
        let adj = toy_adj();
        let mut rng = SplitMix64::new(7);
        for layers in 1..=4 {
            let zu: Embedding = Embedding::normal(3, 5, 1.0, &mut rng);
            let zv = Embedding::normal(4, 5, 1.0, &mut rng);
            let gu = Embedding::normal(3, 5, 1.0, &mut rng);
            let gv = Embedding::normal(4, 5, 1.0, &mut rng);
            let (fu, fv) = propagate_forward(&adj, &zu, &zv, layers);
            let (bu, bv) = propagate_backward(&adj, &gu, &gv, layers);
            let lhs = ops::dot(fu.as_slice(), gu.as_slice())
                + ops::dot(fv.as_slice(), gv.as_slice());
            let rhs = ops::dot(zu.as_slice(), bu.as_slice())
                + ops::dot(zv.as_slice(), bv.as_slice());
            assert!(
                (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
                "adjoint mismatch at L={layers}: {lhs} vs {rhs}"
            );
        }
    }

    /// Finite-difference check of the full chain: scalar loss
    /// f(z0) = Σ w ⊙ forward(z0).
    #[test]
    fn backward_matches_finite_differences() {
        let adj = toy_adj();
        let mut rng = SplitMix64::new(9);
        let layers = 3;
        let zu: Embedding = Embedding::normal(3, 2, 0.5, &mut rng);
        let zv = Embedding::normal(4, 2, 0.5, &mut rng);
        let wu = Embedding::normal(3, 2, 1.0, &mut rng);
        let wv = Embedding::normal(4, 2, 1.0, &mut rng);
        let f = |zu: &Embedding, zv: &Embedding| {
            let (fu, fv) = propagate_forward(&adj, zu, zv, layers);
            ops::dot(fu.as_slice(), wu.as_slice()) + ops::dot(fv.as_slice(), wv.as_slice())
        };
        let (bu, bv) = propagate_backward(&adj, &wu, &wv, layers);
        let h = 1e-6;
        // Probe a few coordinates of both tables.
        for (row, col) in [(0usize, 0usize), (1, 1), (2, 0)] {
            let mut zp = zu.clone();
            let mut zm = zu.clone();
            zp.row_mut(row)[col] += h;
            zm.row_mut(row)[col] -= h;
            let num = (f(&zp, &zv) - f(&zm, &zv)) / (2.0 * h);
            let ana = bu.row(row)[col];
            assert!((num - ana).abs() < 1e-5, "user grad ({row},{col}): {num} vs {ana}");
        }
        for (row, col) in [(0usize, 1usize), (3, 0)] {
            let mut zp = zv.clone();
            let mut zm = zv.clone();
            zp.row_mut(row)[col] += h;
            zm.row_mut(row)[col] -= h;
            let num = (f(&zu, &zp) - f(&zu, &zm)) / (2.0 * h);
            let ana = bv.row(row)[col];
            assert!((num - ana).abs() < 1e-5, "item grad ({row},{col}): {num} vs {ana}");
        }
    }

    #[test]
    fn parallel_propagation_matches_serial() {
        let mut rng = SplitMix64::new(21);
        // A bigger random bipartite graph.
        let pairs: Vec<(usize, usize)> =
            (0..2000).map(|_| (rng.index(50), rng.index(80))).collect();
        let adj = InteractionSet::from_pairs(50, 80, &pairs);
        let graph = PropGraph::build(&adj);
        let zu: Embedding = Embedding::normal(50, 8, 1.0, &mut rng);
        let zv = Embedding::normal(80, 8, 1.0, &mut rng);
        for layers in [1usize, 3] {
            let (a_u, a_v) = propagate_forward(&adj, &zu, &zv, layers);
            let (b_u, b_v) = propagate_forward_graph(&graph, &zu, &zv, layers, 6);
            assert_eq!(a_u, b_u);
            assert_eq!(a_v, b_v);
            let (c_u, c_v) = propagate_backward(&adj, &zu, &zv, layers);
            let (d_u, d_v) = propagate_backward_graph(&graph, &zu, &zv, layers, 6);
            assert_eq!(c_u, d_u);
            assert_eq!(c_v, d_v);
        }
    }

    #[test]
    fn propagation_smooths_connected_components() {
        // Users 0 and 1 share item 1, so their embeddings should move
        // toward each other relative to disconnected user 2.
        let adj = toy_adj();
        let mut zu: Embedding = Embedding::zeros(3, 1);
        zu.row_mut(0)[0] = 1.0;
        zu.row_mut(1)[0] = -1.0;
        zu.row_mut(2)[0] = 1.0;
        let zv: Embedding = Embedding::zeros(4, 1);
        let (fu, _) = propagate_forward(&adj, &zu, &zv, 2);
        // After propagation through the shared item, user 0 picks up some
        // of user 1's negative mass.
        assert!(fu.row(0)[0] < 3.0 * 1.0, "shared structure must mix signals");
    }
}
