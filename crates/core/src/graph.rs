//! Tangent-space graph convolution (Eq. 7) with an exact transpose pass.
//!
//! Propagation is LightGCN-style and **linear** in the layer-0 embeddings:
//!
//! `z_u^{l+1} = z_u^l + (1/|N_u|) Σ_{v∈N_u} z_v^l`
//! `z_v^{l+1} = z_v^l + (1/|N_v|) Σ_{u∈N_v} z_u^l`
//! `z^final  = Σ_{l=1}^{L} z^l`
//!
//! Because the map is linear, backpropagation only needs the transposed
//! adjacency — no stored activations. [`propagate_backward_graph`]
//! implements the reverse recurrence `G_l = g_l + Mᵀ G_{l+1}`, where
//! `M = I + A` is the joint propagation matrix and `g_l` is the direct
//! contribution of layer `l` to the final sum (`g_final` for
//! `1 ≤ l ≤ L`, zero for `l = 0`). Every pass walks the CSR rows of the
//! [`InteractionSet`] a [`PropGraph`] holds beside its normalizers.
//!
//! ## Receptive fields
//!
//! Layer `l` of a row reads layer `l − 1` of the row and its neighbours
//! only, so a final depends only on the rows within `L` hops of it. A
//! training step ([`crate::step`]) reads the finals of its batch rows only.
//! `Marks` holds every row's hop distance from them, and the step computes
//! layer `l` on the rows within `L − l` hops. Its transpose runs the other
//! way: the cotangent is nonzero on batch rows only, so `G_l` can be
//! nonzero only within `L − l` hops. There the kernels run the full pass's
//! operations in its order; everywhere else the full pass holds `+0.0`
//! (sums of `+0.0` and of `w·(+0.0)` with `w ≥ 0`), which the kernels
//! write. The full passes ([`propagate_forward_graph`],
//! [`propagate_backward_graph`]) are the same kernels over every row, and
//! every layer adds itself into the layer sum as it is computed.

use logirec_data::InteractionSet;
use logirec_linalg::{ops, Embedding, Scalar};

use crate::parallel::{for_each_row, for_each_row_pair};

/// Immutable propagation cache for one interaction graph: the
/// [`InteractionSet`] itself, whose flat CSR rows the kernels walk, plus
/// the pre-divided mean-aggregation normalizers `1/|N_u|` and `1/|N_v|`.
///
/// Without the normalizer tables every edge visit would recompute
/// `1.0 / len` — every batch, for every layer, in both passes. A
/// `PropGraph` is built **once per dataset** (the trainer builds it before
/// the epoch loop) and reused by every propagate/backward call.
#[derive(Debug, Clone)]
pub struct PropGraph<S: Scalar = f64> {
    adj: InteractionSet,
    /// `1/|N_u|` (0.0 for isolated users — never multiplied in that case).
    u_norm: Vec<S>,
    /// `1/|N_v|`.
    v_norm: Vec<S>,
}

impl<S: Scalar> PropGraph<S> {
    /// Builds the cache from an interaction set: a copy of the set and one
    /// normalizer per row.
    pub fn build(adj: &InteractionSet) -> Self {
        let norm = |deg: usize| if deg == 0 { S::ZERO } else { S::from_f64(1.0 / deg as f64) };
        Self {
            u_norm: (0..adj.n_users()).map(|u| norm(adj.items_of(u).len())).collect(),
            v_norm: (0..adj.n_items()).map(|v| norm(adj.users_of(v).len())).collect(),
            adj: adj.clone(),
        }
    }

    /// Number of user rows.
    pub fn n_users(&self) -> usize {
        self.adj.n_users()
    }

    /// Number of item rows.
    pub fn n_items(&self) -> usize {
        self.adj.n_items()
    }

    /// Sorted item neighbors of user `u`.
    #[inline]
    pub fn items_of(&self, u: usize) -> &[usize] {
        self.adj.items_of(u)
    }

    /// Sorted user neighbors of item `v`.
    #[inline]
    pub fn users_of(&self, v: usize) -> &[usize] {
        self.adj.users_of(v)
    }
}

/// Forward propagation: returns the final tangent embeddings
/// `(user_final, item_final)`; with `layers == 0` these are copies of the
/// inputs (the "w/o HGCN" variant).
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
    let sides = || Sides::zeros(adj.n_users(), adj.n_items(), z_u0.dim());
    let (mut a, mut b, mut acc) = (sides(), sides(), sides());
    let z0 = Some((z_u0, z_v0));
    forward_layers(adj, z0, &mut a, &mut b, &mut acc, layers, threads, Reach::ALL);
    (acc.users, acc.items)
}

/// Backward pass: given gradients w.r.t. the final tangent embeddings,
/// returns gradients w.r.t. the layer-0 embeddings (the exact adjoint of
/// [`propagate_forward_graph`]).
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
    let sides = || Sides::zeros(adj.n_users(), adj.n_items(), g_fu.dim());
    let (mut a, mut b) = (sides(), sides());
    let at = backward_layers(adj, (g_fu, g_fv), &mut a, &mut b, layers, threads, Reach::ALL);
    let g0 = if at == 0 { a } else { b };
    (g0.users, g0.items)
}

/// One table per side of the bipartite graph, `users` × `dim` and
/// `items` × `dim`.
#[derive(Debug, Clone)]
pub(crate) struct Sides<S: Scalar> {
    pub(crate) users: Embedding<S>,
    pub(crate) items: Embedding<S>,
}

impl<S: Scalar> Sides<S> {
    /// Zero `users` × `dim` and `items` × `dim` tables.
    pub(crate) fn zeros(users: usize, items: usize, dim: usize) -> Self {
        Self { users: Embedding::zeros(users, dim), items: Embedding::zeros(items, dim) }
    }
}

/// Hop distance of every user and item row from a batch's rows, up to the
/// number of hops [`Marks::mark`] was asked for (`FAR` beyond them).
#[derive(Debug)]
pub(crate) struct Marks {
    user: Vec<u32>,
    item: Vec<u32>,
    /// Marked rows of each side, ring by ring (ring 0 first).
    users: Vec<usize>,
    items: Vec<usize>,
}

const FAR: u32 = u32::MAX;

impl Marks {
    /// Empty marks for a graph with `n_users` × `n_items` rows.
    pub(crate) fn new(n_users: usize, n_items: usize) -> Self {
        Self {
            user: vec![FAR; n_users],
            item: vec![FAR; n_items],
            users: Vec::new(),
            items: Vec::new(),
        }
    }

    /// Marks `users` and `items` (repeats allowed) at hop 0 and every row
    /// within `hops` hops of them at its distance, by breadth-first search.
    pub(crate) fn mark<S: Scalar>(
        &mut self,
        adj: &PropGraph<S>,
        users: impl IntoIterator<Item = usize>,
        items: impl IntoIterator<Item = usize>,
        hops: usize,
    ) {
        self.user.fill(FAR);
        self.item.fill(FAR);
        self.users.clear();
        self.items.clear();
        for u in users {
            if self.user[u] == FAR {
                self.user[u] = 0;
                self.users.push(u);
            }
        }
        for v in items {
            if self.item[v] == FAR {
                self.item[v] = 0;
                self.items.push(v);
            }
        }
        let (mut from_u, mut from_v) = (0, 0);
        for hop in 1..=hops as u32 {
            let (to_u, to_v) = (self.users.len(), self.items.len());
            if (from_u, from_v) == (to_u, to_v) {
                break; // the last hop reached no new row
            }
            for i in from_u..to_u {
                for &v in adj.items_of(self.users[i]) {
                    if self.item[v] == FAR {
                        self.item[v] = hop;
                        self.items.push(v);
                    }
                }
            }
            for i in from_v..to_v {
                for &u in adj.users_of(self.items[i]) {
                    if self.user[u] == FAR {
                        self.user[u] = hop;
                        self.users.push(u);
                    }
                }
            }
            (from_u, from_v) = (to_u, to_v);
        }
    }

    /// Rows (both sides) marked by the last [`Marks::mark`]: those within
    /// its `hops` of the batch.
    pub(crate) fn len(&self) -> usize {
        self.users.len() + self.items.len()
    }
}

/// The rows a pass computes: every row ([`Reach::ALL`]), or the rows within
/// a number of hops of the batch a [`Marks`] holds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reach<'a> {
    marks: Option<&'a Marks>,
    hops: u32,
}

impl<'a> Reach<'a> {
    /// Every row: the full pass.
    pub(crate) const ALL: Reach<'static> = Reach { marks: None, hops: 0 };

    /// The batch rows of `marks`.
    pub(crate) fn batch(marks: &'a Marks) -> Self {
        Reach { marks: Some(marks), hops: 0 }
    }

    /// The rows within `hops` hops of the batch (every row stays every row).
    pub(crate) fn within(self, hops: usize) -> Self {
        Reach { hops: hops.try_into().unwrap_or(FAR), ..self }
    }

    #[inline]
    pub(crate) fn user(&self, u: usize) -> bool {
        self.marks.is_none_or(|m| m.user[u] <= self.hops)
    }

    #[inline]
    pub(crate) fn item(&self, v: usize) -> bool {
        self.marks.is_none_or(|m| m.item[v] <= self.hops)
    }
}

/// Layers 1…`layers` of the forward pass, each on the rows within
/// `layers − l` hops of `reach`'s batch and each summed into `acc` on the
/// batch rows. Layer 1 reads `z0`, or `b` when `z0` is `None` (the layer-0
/// tangents then sit there and layer 2 overwrites them); odd layers write
/// `a`, even layers `b`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn forward_layers<S: Scalar>(
    adj: &PropGraph<S>,
    z0: Option<(&Embedding<S>, &Embedding<S>)>,
    a: &mut Sides<S>,
    b: &mut Sides<S>,
    acc: &mut Sides<S>,
    layers: usize,
    threads: usize,
    reach: Reach<'_>,
) {
    for l in 1..=layers {
        let (src, dst) = if l % 2 == 1 { (&*b, &mut *a) } else { (&*a, &mut *b) };
        let src = match z0 {
            Some(z0) if l == 1 => z0,
            _ => (&src.users, &src.items),
        };
        let (rows, sum) = (reach.within(layers - l), reach.within(0));
        forward_layer(adj, src, dst, acc, l == 1, threads, rows, sum);
    }
}

/// One forward layer `next = (I + A)·z` on the rows `rows` selects, fused
/// with the layer sum on the rows `sum` selects: `acc += next`, or
/// `acc = 0 + next` on the `first` layer (the sum starts at `+0.0`). Rows
/// outside `rows` are left as they are.
#[allow(clippy::too_many_arguments)]
fn forward_layer<S: Scalar>(
    adj: &PropGraph<S>,
    (zu, zv): (&Embedding<S>, &Embedding<S>),
    next: &mut Sides<S>,
    acc: &mut Sides<S>,
    first: bool,
    threads: usize,
    rows: Reach<'_>,
    sum: Reach<'_>,
) {
    let add = |out: &[S], acc: &mut [S]| {
        if first {
            acc.fill(S::ZERO);
        }
        ops::axpy(S::ONE, out, acc);
    };
    for_each_row_pair(&mut next.users, &mut acc.users, threads, |u, out, acc| {
        if !rows.user(u) {
            return;
        }
        ops::copy(out, zu.row(u));
        let w = adj.u_norm[u];
        for &v in adj.items_of(u) {
            ops::axpy(w, zv.row(v), out);
        }
        if sum.user(u) {
            add(out, acc);
        }
    });
    for_each_row_pair(&mut next.items, &mut acc.items, threads, |v, out, acc| {
        if !rows.item(v) {
            return;
        }
        ops::copy(out, zv.row(v));
        let w = adj.v_norm[v];
        for &u in adj.users_of(v) {
            ops::axpy(w, zu.row(u), out);
        }
        if sum.item(v) {
            add(out, acc);
        }
    });
}

/// The transpose layers `G_l = Mᵀ G_{l+1} (+ g)` from `G_L = g`, `G_l` on
/// the rows within `layers − l` hops of `reach`'s batch and `+0.0` on
/// every other row, so `g` must be `+0.0` outside the batch rows. The
/// transposes write `a`, `b`, `a`, …; returns 0 when `G_0` ends in `a` and
/// 1 when it ends in `b` (`layers ≥ 1`).
pub(crate) fn backward_layers<S: Scalar>(
    adj: &PropGraph<S>,
    g: (&Embedding<S>, &Embedding<S>),
    a: &mut Sides<S>,
    b: &mut Sides<S>,
    layers: usize,
    threads: usize,
    reach: Reach<'_>,
) -> usize {
    for (i, l) in (0..layers).rev().enumerate() {
        let (src, dst) = if i % 2 == 0 { (&*b, &mut *a) } else { (&*a, &mut *b) };
        let src = if i == 0 { g } else { (&src.users, &src.items) };
        let direct = (l >= 1).then_some(g);
        transpose_layer(adj, src, direct, dst, threads, reach.within(layers - l));
    }
    (layers - 1) % 2
}

/// One transpose layer `next = (I + Aᵀ)·g`, plus `direct` when given (the
/// final sum's gradient, which reaches every layer `l ≥ 1`), on the rows
/// `rows` selects and `+0.0` on every other row.
///
/// Forward sends `z_v/|N_u|` into user `u`; the transpose therefore sends
/// `g_u/|N_u|` into item `v` for every edge `(u, v)` — note the
/// normalization stays with the *source side of the forward pass*.
fn transpose_layer<S: Scalar>(
    adj: &PropGraph<S>,
    (gu, gv): (&Embedding<S>, &Embedding<S>),
    direct: Option<(&Embedding<S>, &Embedding<S>)>,
    next: &mut Sides<S>,
    threads: usize,
    rows: Reach<'_>,
) {
    for_each_row(&mut next.users, threads, |u, out| {
        if !rows.user(u) {
            out.fill(S::ZERO);
            return;
        }
        ops::copy(out, gu.row(u));
        for &v in adj.items_of(u) {
            ops::axpy(adj.v_norm[v], gv.row(v), out);
        }
        if let Some((du, _)) = direct {
            ops::axpy(S::ONE, du.row(u), out);
        }
    });
    for_each_row(&mut next.items, threads, |v, out| {
        if !rows.item(v) {
            out.fill(S::ZERO);
            return;
        }
        ops::copy(out, gv.row(v));
        for &u in adj.users_of(v) {
            ops::axpy(adj.u_norm[u], gu.row(u), out);
        }
        if let Some((_, dv)) = direct {
            ops::axpy(S::ONE, dv.row(v), out);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_linalg::SplitMix64;

    fn toy_adj() -> PropGraph {
        // 3 users, 4 items.
        let pairs = [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)];
        PropGraph::build(&InteractionSet::from_pairs(3, 4, &pairs))
    }

    #[test]
    fn zero_layers_is_identity() {
        let adj = toy_adj();
        let mut rng = SplitMix64::new(1);
        let zu: Embedding = Embedding::normal(3, 4, 1.0, &mut rng);
        let zv: Embedding = Embedding::normal(4, 4, 1.0, &mut rng);
        let (fu, fv) = propagate_forward_graph(&adj, &zu, &zv, 0, 1);
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
        let (fu, fv) = propagate_forward_graph(&adj, &zu, &zv, 1, 1);
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
        let adj = PropGraph::build(&InteractionSet::from_pairs(2, 2, &[(0, 0)]));
        let mut zu: Embedding = Embedding::zeros(2, 1);
        zu.row_mut(1)[0] = 5.0;
        let mut zv: Embedding = Embedding::zeros(2, 1);
        zv.row_mut(1)[0] = 7.0;
        let (fu, fv) = propagate_forward_graph(&adj, &zu, &zv, 2, 1);
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
            let (fu, fv) = propagate_forward_graph(&adj, &zu, &zv, layers, 1);
            let (bu, bv) = propagate_backward_graph(&adj, &gu, &gv, layers, 1);
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
            let (fu, fv) = propagate_forward_graph(&adj, zu, zv, layers, 1);
            ops::dot(fu.as_slice(), wu.as_slice()) + ops::dot(fv.as_slice(), wv.as_slice())
        };
        let (bu, bv) = propagate_backward_graph(&adj, &wu, &wv, layers, 1);
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

    /// Both sides have more rows than `for_each_row` splits at, so the
    /// six-thread passes really run on six threads.
    #[test]
    fn parallel_propagation_matches_serial() {
        let mut rng = SplitMix64::new(21);
        let (users, items) = (4_200, 4_500);
        let pairs: Vec<(usize, usize)> =
            (0..12_000).map(|_| (rng.index(users), rng.index(items))).collect();
        let adj = PropGraph::build(&InteractionSet::from_pairs(users, items, &pairs));
        let zu: Embedding = Embedding::normal(users, 4, 1.0, &mut rng);
        let zv = Embedding::normal(items, 4, 1.0, &mut rng);
        for layers in [1usize, 3] {
            let (a_u, a_v) = propagate_forward_graph(&adj, &zu, &zv, layers, 1);
            let (b_u, b_v) = propagate_forward_graph(&adj, &zu, &zv, layers, 6);
            assert_eq!(a_u, b_u);
            assert_eq!(a_v, b_v);
            let (c_u, c_v) = propagate_backward_graph(&adj, &zu, &zv, layers, 1);
            let (d_u, d_v) = propagate_backward_graph(&adj, &zu, &zv, layers, 6);
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
        let (fu, _) = propagate_forward_graph(&adj, &zu, &zv, 2, 1);
        // After propagation through the shared item, user 0 picks up some
        // of user 1's negative mass.
        assert!(fu.row(0)[0] < 3.0 * 1.0, "shared structure must mix signals");
    }
}
