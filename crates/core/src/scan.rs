//! The one exact top-K primitive.
//!
//! LogiRec ranks items by the distance between propagated embeddings
//! (Eq. 9): `d(u, v) = acosh(−⟨u, v⟩_L)` on the hyperboloid, `‖u − v‖` in
//! the Euclidean ablation. Both distances are monotone in a cheaper
//! **key** — the flipped inner product `−⟨u, v⟩_L`, or the squared
//! distance — so the scan selects the `k` smallest unmasked keys and
//! computes the distance only for the **tie band** at the k-th key. The
//! answer is bit-identical to scoring every item, masking, and selecting
//! with `top_k_indices`, and a k = 10 query computes about ten `acosh`
//! instead of one per item.
//!
//! # Two passes: a coarse bound, then exact keys for the candidates
//!
//! Streaming every item row at the model's precision is what a query costs
//! (the pass is bound by bytes, not arithmetic), so the scan keys in two
//! passes over the item table:
//!
//! 1. The **coarse pass** streams an `f32` blocked copy of the item finals
//!    ([`RowBlocks`], half the bytes of `f64` rows) and gives every unmasked
//!    item a coarse key `K̃` and a proven bound `E` (below): the exact key
//!    lies in `[K̃ − E, K̃ + E]`.
//! 2. `T_U` is the band end of the k-th smallest upper bound `K̃ + E`. Only
//!    the **candidates**, the items whose lower bound `K̃ − E` is at most
//!    `T_U`, are re-keyed exactly, from the item finals at the model's
//!    precision, and only their exact keys are offered to [`KeyTopK`]; the
//!    tie band is ranked over them. On the served model a k = 10 query
//!    re-keys about ten items.
//!
//! The coarse keys only select. Every key that decides an answer is exact,
//! so the answers are the exact scan's, bit for bit.
//!
//! # Order contract
//!
//! Every exact key is [`row_key`] of its item's row of the finals: the
//! order of [`Scalar::dot`] / [`Scalar::dist_sq`], so it equals
//! `-lorentz::inner(u, v)` / `ops::dist_sq(u, v)` bit for bit, and the
//! band's distances equal `lorentz::distance` / `ops::dist`. Keys are
//! widened to `f64` (exact), so one `f64` buffer serves both precisions.
//!
//! The coarse rows may sit in any order of **positions**
//! ([`ScanTable::in_order`]: a serving index lays them out cluster by
//! cluster, each cluster one contiguous run), and a query may walk all runs
//! or some ([`ScanTable::top_k_runs`]). Order never changes an answer: a key
//! and its bound depend only on the row, the selections keep the k
//! smallest keys and bounds as multisets, and the band is ranked by score,
//! then item id — never by position. So a walk over every run is
//! bit-identical to the item-order scan, and a walk over some runs to the
//! exact scan of just their items. The finals stay in item order; the
//! table holds a shared handle on them.
//!
//! # The walk
//!
//! A walk keys each run it visits in pieces of at most `keys.len()`
//! positions (a key buffer as long as the run keys it in one piece). For
//! each piece it
//!
//! 1. runs the coarse pass, writes every unmasked position's lower bound
//!    into `keys` (a masked position's reads `+∞`), and offers its upper
//!    bound to a second [`KeyTopK`], which holds the k smallest;
//! 2. takes `T_U`, the band end of the k-th smallest upper bound held
//!    (while fewer than k are held, every unmasked position is a
//!    candidate);
//! 3. re-keys each position whose lower bound is at most `T_U`, and offers
//!    the exact key.
//!
//! Only the current piece's bounds are kept, so a walk over short runs
//! needs no buffer the size of the catalog.
//!
//! *Why the candidates are enough.* Let `κ` be the k-th smallest exact key
//! over the positions walked so far. The k positions that hold the k
//! smallest upper bounds have exact keys at most `U₍ₖ₎`, so `κ ≤ U₍ₖ₎`, and
//! `κ` only falls as the walk goes on. [`KeyTopK::band_end`] is monotone in
//! its key, so a position whose exact key is at most `band_end(κ)` — one of
//! the k smallest, or a tie-band member — has a lower bound at most
//! `band_end(κ) ≤ band_end(U₍ₖ₎) = T_U` at the piece that keyed it: it was a
//! candidate. So after every run the exact [`KeyTopK`] holds the k smallest
//! keys a walk keying every position exactly would hold (its
//! [`KeyTopK::kth_score`], and the pruning a serving index drives with it,
//! are unchanged), and the band ranked over the candidates is that walk's
//! band.
//!
//! # The coarse bound
//!
//! Write `u = 2⁻²⁴` for the unit roundoff of `f32`, `η = 2⁻¹⁴⁹` for its
//! smallest subnormal, `u_S` for the unit roundoff of the model's precision
//! `S`, `γ_m(x) = m·x/(1 − m·x)`, and `n` for the row width. The coarse pass
//! rounds the query and each row to `f32` (`q'`, `v'`): per coordinate
//! `|x − x'| ≤ u·|x'| + η/2`, and a coordinate beyond the `f32` range goes
//! to `±∞`. `N_q ≥ ‖q'‖₂` and `N_v ≥ ‖v'‖₂` are [`norm_bound`]s; the table
//! stores `N_v` beside each row.
//!
//! *Lorentz.* The key is a signed dot product `Σ_j s_j·q_j·v_j` (`s₀ = 1`,
//! else `−1`); the coarse pass negates the spatial query coordinates, so
//! `K̃` is a plain `f32` dot product. Three errors separate `K̃` from the
//! exact key `K`:
//!
//! - the `f32` sum, in any order: within `γ_n(u)·Σ|q'_j·v'_j|` of the real
//!   sum of the rounded products, plus `n·η/2` for products that underflow;
//! - the rounding of the inputs: `|q'_j·v'_j − q_j·v_j| ≤ (2u + u²)·|q'_j·v'_j|
//!   + (1 + u)·(η/2)·(|q'_j| + |v'_j|) + η²/4`;
//! - the exact path's own sum: within `γ_n(u_S)·Σ|q_j·v_j|` of the real key,
//!   plus `n·η/2` (its subnormals are no coarser than `f32`'s).
//!
//! Cauchy–Schwarz bounds `Σ|q'_j·v'_j| ≤ N_q·N_v`, and `‖x‖₁ ≤ √n·‖x‖₂`, so
//! the three add up to at most half of
//!
//! ```text
//! E = A·N_q·N_v + B·(N_q + N_v) + C,
//! A = 2·[γ_n(u) + 2u + u² + γ_n(u_S)·(1 + u)²],  B = 6·√n·η,  C = 6·n·η.
//! ```
//!
//! *Euclidean.* The key `Σ_j (q_j − v_j)²` sums nonnegative terms, so each
//! sum is within `γ_{n+2}` of its own value (plus `n·η/2`). By the triangle
//! inequality `‖(q − v) − (q' − v')‖₂ ≤ r = u·M + √n·η/2` with
//! `M = N_q + N_v`, so the real keys before and after rounding differ by at
//! most `r·(2M + r)`. All told the error is at most half of
//! `E = A·M² + B·M + C`, with `A` taken at `n + 2` in place of `n`.
//!
//! The factor 2 also absorbs the `f64` rounding of `E` and of `K̃ ± E`: each
//! is relative `2⁻⁵³`, and `E ≥ A·N_q·N_v` (`A·M²`) is more than `2⁻²²·|K̃|`.
//! At `f32` the coarse rows equal the finals (`q' = q`, `v' = v`) and the
//! bound covers the two summation orders, the kernel's and
//! [`Scalar::dot`]'s.
//!
//! *Rows the bound cannot decide.* The derivation assumes that no sum
//! overflows. A row whose coarse key is not finite (a NaN or infinite
//! coordinate, or one beyond the `f32` range, on either side), or whose `E`
//! is not below `A·MAX_S/8`, gets the bounds `(−∞, +∞)`: it is always
//! re-keyed and never sets `T_U`. Below that limit `N_q·N_v` (`M²`) is below
//! `MAX_S/8`, so no partial sum of the exact key overflows and the key is
//! finite and below `MAX_S/7`, where `acosh` and `√` are finite: a row the
//! bound decides scores finite, which is what [`ScanTable::first_non_finite`]
//! reads. A masked row is never re-keyed.
//!
//! # Why the tie band is enough
//!
//! Rounding can map distinct keys to equal distances (and `acosh` clamps
//! every key ≤ 1 to 0), and equal scores are ordered by item index, so the
//! k smallest keys alone do not fix the answer. The band is every unmasked
//! item whose key is at most `T = max(1, κ + |κ|·τ_S)`, where `κ` is the
//! k-th smallest key (Euclidean: `T = κ + |κ|·τ_S`, since `√` has no
//! clamp). Ranking the band by score descending, then index ascending, is
//! the exact answer once every item outside the band scores strictly below
//! each of the k smallest-key items — then none of them can place.
//!
//! *Lorentz.* Let `u = ε/2` be the unit roundoff of `S`. std computes
//! `acosh(x) = ln(x + √(x−1)·√(x+1))`; the argument `w(x) = x + √(x²−1)`
//! goes through five roundings, so the computed `ŵ(x) = w(x)(1+θ)` with
//! `|θ| ≤ 5u`, and `ln` is faithful to within one ulp, a relative `2u`.
//! Take a band-defining key `x ≤ κ` and an outside key `y > T`. If
//! `x ≤ 1` its distance is 0 and `y > 1` has a positive one. Otherwise
//! `y > x(1+τ)`, and since `w(x)/x` increases with `x`,
//! `ŵ(y)/ŵ(x) ≥ (1+τ)(1−10u)`, so `Δ = ln ŵ(y) − ln ŵ(x) ≥ τ − 10u − τ²/2`.
//! The computed distances order strictly when
//! `(ln ŵ(x) + Δ)(1−2u) > ln ŵ(x)(1+2u)`, i.e. when
//! `Δ(1−2u) > 4u·ln ŵ(x)`. A finite `ŵ(x)` has `ln ŵ(x) ≤ ln MAX` (an
//! infinite one scores −∞ and is skipped anyway), so
//! `τ ≥ 10u + 4u·ln MAX = ε(5 + 2·ln MAX)` suffices: 1,425ε at `f64`,
//! 182ε at `f32`. `tie_tau` takes `TIE_MARGIN` times that, which also
//! absorbs the rounding of `T` itself and a `ln` up to several ulps off.
//!
//! *Euclidean.* `√` is correctly rounded, so `√̂y ≥ √y(1−u)`,
//! `√̂x ≤ √x(1+u)`, and `√y/√x ≥ √(1+τ)`: any `τ > 4u` orders them
//! strictly, far below the Lorentz `τ`. Only when `κ·τ` underflows
//! (`f64` keys below ~2⁻⁹⁸⁵) does the band fall back to `4κ`, exact there
//! and with `√(4κ) = 2√κ` clear of every tie; past that point the band
//! keeps at least `4·min(κ, 2·MIN_POSITIVE/τ)`, so its end never falls as
//! `κ` grows.

use std::marker::PhantomData;
use std::ops::Range;

use logirec_eval::ranking::TopK;
use logirec_hyperbolic::lorentz;
use logirec_linalg::{norm_bound, ops, Embedding, RowBlocks, Scalar};

use crate::config::Geometry;

/// How many times the derived rounding bound the tie band is wide.
const TIE_MARGIN: f64 = 8.0;

/// Positions keyed per piece by a walk whose caller keeps no key buffer of
/// its own ([`ScanTable::first_non_finite`], the approx tier): 4 KiB of
/// `f64` on the stack. The largest of the 94 clusters of the benchmark's
/// paper-scale index holds 264 items, so each of its runs is keyed in one
/// piece.
pub const PIECE: usize = 512;

/// The relative tie-band width `τ_S = TIE_MARGIN · ε(5 + 2·ln MAX)` for
/// precision `S` (≈ 2.5e-12 at `f64`, ≈ 1.7e-4 at `f32`; see the module
/// docs for the derivation).
fn tie_tau<S: Scalar>() -> f64 {
    let eps = S::EPSILON.to_f64();
    TIE_MARGIN * eps * (5.0 + 2.0 * S::MAX.to_f64().ln())
}

/// The key of one item row for query `q`: `−⟨q, row⟩_L` (Lorentz) or
/// `‖q − row‖²` (Euclidean), in the order of [`Scalar::dot`] /
/// [`Scalar::dist_sq`]: every exact key the scan computes.
#[inline]
pub fn row_key<S: Scalar>(geometry: Geometry, q: &[S], row: &[S]) -> S {
    match geometry {
        Geometry::Hyperbolic => -lorentz::inner(q, row),
        Geometry::Euclidean => ops::dist_sq(q, row),
    }
}

/// The ranking score of a key widened from `S`: the negated distance it
/// stands for, computed exactly as `lorentz::distance` / `ops::dist`
/// compute it, as `f64`.
#[inline]
pub(crate) fn key_score<S: Scalar>(geometry: Geometry, key: f64) -> f64 {
    let key = S::from_f64(key);
    let distance = match geometry {
        Geometry::Hyperbolic => ops::acosh_clamped(key),
        Geometry::Euclidean => key.sqrt(),
    };
    -distance.to_f64()
}

/// The item side of the exact scan for one propagated item table: its
/// geometry, the finals themselves (a shared handle, in item order: the
/// source of every exact key), the coarse `f32` copy the first pass streams
/// (`items.rows() × items.dim() × 4` bytes, in position order, and an `f64`
/// norm per row), and, when the positions are not in item order, the map
/// between positions and items. Positions never reach the caller: answers
/// carry item ids, and [`ScanTable::keys`] writes item-indexed keys,
/// whatever the order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanTable<S: Scalar = f64> {
    geometry: Geometry,
    items: Embedding<S>,
    coarse: RowBlocks,
    /// `None` in item order (position `p` holds item `p`).
    order: Option<Order>,
}

/// A table's position order: the item at each position and each item's
/// position (`u32`, so 8 bytes an item for both).
#[derive(Debug, Clone, PartialEq)]
struct Order {
    item_at: Vec<u32>,
    position_of: Vec<u32>,
}

/// What one walk returns: the answer, the unmasked positions it walked, and
/// how many of them it re-keyed exactly.
struct Walk {
    items: Vec<usize>,
    scores: Vec<f64>,
    unmasked: usize,
    rekeyed: usize,
}

impl<S: Scalar> ScanTable<S> {
    /// Prepares the scan over `items` in item order: a coarse copy of the
    /// rows, and a handle on `items` itself.
    pub fn new(geometry: Geometry, items: &Embedding<S>) -> Self {
        Self { geometry, items: items.clone(), coarse: RowBlocks::new(items), order: None }
    }

    /// Prepares the scan over `items` with item `order[p]` at position `p`
    /// (`order` is a permutation of `0..items.rows()`), copying the coarse
    /// rows straight from `items` into position order.
    pub fn in_order(geometry: Geometry, items: &Embedding<S>, order: Vec<u32>) -> Self {
        let n = items.rows();
        assert_eq!(order.len(), n, "order length");
        let mut position_of = vec![u32::MAX; n];
        for (p, &v) in order.iter().enumerate() {
            let slot = &mut position_of[v as usize];
            assert_eq!(*slot, u32::MAX, "item {v} placed twice");
            *slot = p as u32;
        }
        let coarse = RowBlocks::gather(items, order.iter().map(|&v| v as usize));
        Self {
            geometry,
            items: items.clone(),
            coarse,
            order: Some(Order { item_at: order, position_of }),
        }
    }

    /// Number of positions (= items) in the table.
    pub(crate) fn len(&self) -> usize {
        self.items.rows()
    }

    /// Writes every item's exact key for query `q` into `keys`, widened to
    /// `f64` and indexed by item, row by row from the finals; `keys` holds
    /// one entry per item.
    pub fn keys(&self, q: &[S], keys: &mut [f64]) {
        assert_eq!(keys.len(), self.len(), "key buffer length");
        for (key, row) in keys.iter_mut().zip(self.items.iter_rows()) {
            *key = row_key(self.geometry, q, row).to_f64();
        }
    }

    /// The exact top-K for query `q`: the `k` best items that no list in
    /// `masked` holds, with their scores, best first — bit-identical to
    /// scoring every item, writing `NEG_INFINITY` over the masked ones and
    /// selecting with `top_k_indices`. `keys` is scratch of one entry per
    /// item, so the table is keyed in one piece.
    ///
    /// This is the walk over every run: one run covering every position.
    pub fn top_k(
        &self,
        q: &[S],
        masked: &[&[usize]],
        k: usize,
        keys: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>) {
        if k == 0 {
            return (Vec::new(), Vec::new());
        }
        assert_eq!(keys.len(), self.len(), "key buffer length");
        let walk = self.walk_all(q, masked, k, keys);
        (walk.items, walk.scores)
    }

    /// How many items [`ScanTable::top_k`] re-keys exactly for query `q`
    /// with nothing masked: the candidates whose coarse bounds reach the
    /// tie band of the k-th smallest upper bound.
    pub fn candidates(&self, q: &[S], k: usize, keys: &mut [f64]) -> usize {
        assert_eq!(keys.len(), self.len(), "key buffer length");
        self.walk_all(q, &[], k, keys).rekeyed
    }

    /// The exact top-K over the runs `next_run` yields: of the items at
    /// those positions, the `k` best that `seen` (ascending, without
    /// repeats, as `SeenFilter` keeps its lists) does not hold, with their
    /// scores, best first — what [`ScanTable::top_k`] returns over a table
    /// of just those items — and how many candidates were scored (positions
    /// walked, less the masked ones). `next_run` is shown the selection so
    /// far before each run, so a caller can skip a run that cannot beat
    /// [`KeyTopK::kth_score`]; `None` ends the walk. Runs must not overlap;
    /// their order does not change the answer. `keys` is scratch of at
    /// least one entry: a run longer than `keys` is keyed in pieces of
    /// `keys.len()` positions (see the module docs).
    pub fn top_k_runs(
        &self,
        q: &[S],
        seen: &[usize],
        k: usize,
        keys: &mut [f64],
        next_run: impl FnMut(&KeyTopK<S>) -> Option<Range<usize>>,
    ) -> (Vec<usize>, Vec<f64>, usize) {
        // The seen list as positions, ascending: mapped once per query.
        let mut mapped: Vec<usize> = Vec::new();
        let positions = match &self.order {
            None => seen,
            Some(order) => {
                mapped.extend(seen.iter().map(|&v| order.position_of[v] as usize));
                mapped.sort_unstable();
                &mapped
            }
        };
        let walk = self.walk(q, k, positions, keys, next_run);
        (walk.items, walk.scores, walk.unmasked)
    }

    /// The smallest item whose score for query `q` is not finite, if any:
    /// the item `score_user` followed by a search for the first non-finite
    /// score names. The coarse pass decides every row whose bound it can
    /// (such a row scores finite; see the module docs), and only the rows
    /// it cannot decide are re-keyed exactly.
    pub fn first_non_finite(&self, q: &[S]) -> Option<usize> {
        let coarse = CoarseQuery::new(self.geometry, q);
        let mut keys = [0.0; PIECE];
        let mut first: Option<usize> = None;
        for start in (0..self.len()).step_by(PIECE) {
            let piece = start..self.len().min(start + PIECE);
            let keys = &mut keys[..piece.len()];
            self.coarse_keys(&coarse, piece.clone(), keys);
            for (p, &key) in piece.zip(keys.iter()) {
                if coarse.bounds(key, self.coarse.norms()[p]) != UNDECIDED {
                    continue;
                }
                let v = self.item_at(p);
                let exact = row_key(self.geometry, q, self.items.row(v)).to_f64();
                if !key_score::<S>(self.geometry, exact).is_finite() {
                    first = Some(first.map_or(v, |f| f.min(v)));
                }
            }
        }
        first
    }

    /// The item at position `p`.
    fn item_at(&self, p: usize) -> usize {
        self.order.as_ref().map_or(p, |order| order.item_at[p] as usize)
    }

    /// The position of item `v`.
    fn position(&self, v: usize) -> usize {
        self.order.as_ref().map_or(v, |order| order.position_of[v] as usize)
    }

    /// Writes the coarse keys of positions `piece` into `out` (`out.len()
    /// == piece.len()`).
    fn coarse_keys(&self, coarse: &CoarseQuery, piece: Range<usize>, out: &mut [f64]) {
        match self.geometry {
            Geometry::Hyperbolic => self.coarse.dot_keys(&coarse.q, piece, out),
            Geometry::Euclidean => self.coarse.dist_sq_keys(&coarse.q, piece, out),
        }
    }

    /// The walk over every position, masking the items of `masked`.
    fn walk_all(&self, q: &[S], masked: &[&[usize]], k: usize, keys: &mut [f64]) -> Walk {
        let mut positions: Vec<usize> =
            masked.iter().flat_map(|list| list.iter()).map(|&v| self.position(v)).collect();
        positions.sort_unstable();
        positions.dedup();
        let mut all = Some(0..self.len());
        self.walk(q, k, &positions, keys, |_| all.take())
    }

    /// The one scan loop (see the module docs): for each run `next_run`
    /// yields, piece by piece, the coarse pass and its bounds, then the
    /// exact keys of the candidates; the tie band is ranked over the
    /// candidates at the end. `masked` lists positions, ascending, without
    /// repeats.
    fn walk(
        &self,
        q: &[S],
        k: usize,
        masked: &[usize],
        keys: &mut [f64],
        mut next_run: impl FnMut(&KeyTopK<S>) -> Option<Range<usize>>,
    ) -> Walk {
        // No walk selects more items than the table holds, and a larger k
        // would only size the selections' buffers (an unbounded k from a
        // caller must not reach the allocator).
        let k = k.min(self.len());
        let coarse = CoarseQuery::new(self.geometry, q);
        let norms = self.coarse.norms();
        let mut best = KeyTopK::<S>::new(self.geometry, k);
        let mut uppers = KeyTopK::<S>::new(self.geometry, k);
        let mut candidates: Vec<(usize, f64)> = Vec::new();
        let mut unmasked = 0;
        while let Some(run) = next_run(&best) {
            let mut start = run.start;
            while start < run.end {
                assert!(!keys.is_empty(), "key buffer length");
                let piece = start..run.end.min(start + keys.len());
                start = piece.end;
                let lower = &mut keys[..piece.len()];
                self.coarse_keys(&coarse, piece.clone(), lower);
                let first = masked.partition_point(|&p| p < piece.start);
                let last = masked.partition_point(|&p| p < piece.end);
                unmasked += piece.len() - (last - first);
                // The unmasked stretches between masked positions: lower
                // bounds over the coarse keys, upper bounds offered.
                let mut from = 0;
                let mut worst = uppers.kth().unwrap_or(f64::INFINITY);
                for m in masked[first..last].iter().map(|&p| p - piece.start).chain([piece.len()]) {
                    let stretch = piece.start + from..piece.start + m;
                    for (slot, &norm) in lower[from..m].iter_mut().zip(&norms[stretch]) {
                        let (lo, hi) = coarse.bounds(*slot, norm);
                        if hi < worst {
                            uppers.offer(hi);
                            worst = uppers.kth().unwrap_or(f64::INFINITY);
                        }
                        *slot = lo;
                    }
                    if let Some(slot) = lower.get_mut(m) {
                        *slot = f64::INFINITY;
                    }
                    from = m + 1;
                }
                if k == 0 {
                    continue;
                }
                // `MAX`, not `+∞`, while fewer than k bounds are held: every
                // unmasked position is a candidate, and no masked one.
                let t_u = uppers.band_end().unwrap_or(f64::MAX);
                for (p, &lo) in piece.zip(lower.iter()) {
                    if lo <= t_u {
                        let v = self.item_at(p);
                        let key = row_key(self.geometry, q, self.items.row(v)).to_f64();
                        best.offer(key);
                        candidates.push((v, key));
                    }
                }
            }
        }
        let rekeyed = candidates.len();
        let (items, scores) = best.finish(candidates);
        Walk { items, scores, unmasked, rekeyed }
    }
}

/// The bounds of a row the coarse pass cannot decide.
const UNDECIDED: (f64, f64) = (f64::NEG_INFINITY, f64::INFINITY);

/// One query as the coarse pass reads it: rounded to `f32` (its spatial
/// coordinates negated for the Lorentz key, so that key is one dot
/// product), and its error bound `E` (see the module docs) as one
/// quadratic in `m = shift + N_v` for both geometries:
/// `E = (p·m + r)·m + s`. Lorentz: `m = N_v`, `p = 0`, `r = A·N_q + B`,
/// `s = B·N_q + C`. Euclidean: `m = N_q + N_v = M`, `p = A`, `r = B`,
/// `s = C`.
struct CoarseQuery {
    q: Vec<f32>,
    shift: f64,
    p: f64,
    r: f64,
    s: f64,
    /// The `E` from which on a row is left undecided: `A·MAX_S/8`.
    limit: f64,
}

impl CoarseQuery {
    fn new<S: Scalar>(geometry: Geometry, q: &[S]) -> Self {
        let flip = |j: usize| geometry == Geometry::Hyperbolic && j > 0;
        let q: Vec<f32> = (q.iter().enumerate())
            .map(|(j, x)| if flip(j) { -(x.to_f64() as f32) } else { x.to_f64() as f32 })
            .collect();
        let norm = norm_bound(&q);
        let n = q.len() as f64;
        let terms = match geometry {
            Geometry::Hyperbolic => n,
            Geometry::Euclidean => n + 2.0,
        };
        let gamma =
            |u: f64| if terms * u < 1.0 { terms * u / (1.0 - terms * u) } else { f64::INFINITY };
        let u = f64::from(f32::EPSILON) / 2.0;
        let u_s = S::EPSILON.to_f64() / 2.0;
        let a = 2.0 * (gamma(u) + 2.0 * u + u * u + gamma(u_s) * (1.0 + u) * (1.0 + u));
        let eta = f64::from(f32::from_bits(1));
        let (b, c) = (6.0 * n.sqrt() * eta, 6.0 * n * eta);
        let (shift, p, r, s) = match geometry {
            Geometry::Hyperbolic => (0.0, 0.0, a * norm + b, b * norm + c),
            Geometry::Euclidean => (norm, a, b, c),
        };
        Self { q, shift, p, r, s, limit: a * S::MAX.to_f64() / 8.0 }
    }

    /// `(K̃ − E, K̃ + E)` for a row with coarse key `key` and norm bound
    /// `row_norm`, or [`UNDECIDED`] when the bound cannot decide the row
    /// (an infinite `m` makes `E` NaN or infinite).
    #[inline(always)]
    fn bounds(&self, key: f64, row_norm: f64) -> (f64, f64) {
        let m = self.shift + row_norm;
        let e = (self.p * m + self.r) * m + self.s;
        if e < self.limit && key.abs() <= f64::from(f32::MAX) {
            (key - e, key + e)
        } else {
            UNDECIDED
        }
    }
}

/// Exact top-K selection in key space, for candidates in any order: it
/// tracks the `k` smallest keys offered, and [`KeyTopK::finish`] scores
/// only the tie band at the k-th of them (see the module docs).
///
/// `+∞` keys (masked, or so large the distance overflows to a `−∞` score)
/// and NaN keys are never selected.
#[derive(Debug, Clone)]
pub struct KeyTopK<S: Scalar = f64> {
    geometry: Geometry,
    k: usize,
    /// The smallest keys offered so far, ascending, at most `k`.
    smallest: Vec<f64>,
    precision: PhantomData<S>,
}

impl<S: Scalar> KeyTopK<S> {
    /// An empty selection of at most `k` items.
    pub fn new(geometry: Geometry, k: usize) -> Self {
        Self {
            geometry,
            k,
            smallest: Vec::with_capacity(k + 1),
            precision: PhantomData,
        }
    }

    /// Offers one candidate's key.
    #[inline]
    pub fn offer(&mut self, key: f64) {
        if self.k == 0 || key.is_nan() || key == f64::INFINITY {
            return;
        }
        if self.smallest.len() == self.k {
            if key >= self.smallest[self.k - 1] {
                return;
            }
            self.smallest.pop();
        }
        let pos = self.smallest.partition_point(|&s| s <= key);
        self.smallest.insert(pos, key);
    }

    /// The current k-th smallest key once `k` keys are held.
    fn kth(&self) -> Option<f64> {
        (self.k > 0 && self.smallest.len() == self.k).then(|| self.smallest[self.k - 1])
    }

    /// The score of the current k-th smallest key once `k` keys are held:
    /// the score the k-th best answer has so far.
    pub fn kth_score(&self) -> Option<f64> {
        self.kth().map(|kth| key_score::<S>(self.geometry, kth))
    }

    /// Upper end of the tie band — the largest key [`KeyTopK::finish`]
    /// scores — or `None` while fewer than `k` keys are held (then every
    /// candidate is in the band). It never falls as the k-th key grows,
    /// which the two-pass walk relies on (see the module docs).
    pub fn band_end(&self) -> Option<f64> {
        let kth = self.kth()?;
        let tau = tie_tau::<S>();
        let slack = kth.abs() * tau;
        Some(match self.geometry {
            Geometry::Hyperbolic => (kth + slack).max(1.0),
            Geometry::Euclidean => (kth + slack).max(4.0 * kth.min(2.0 * f64::MIN_POSITIVE / tau)),
        })
    }

    /// Ranks the tie band: of `candidates` — every `(item, key)` pair that
    /// was offered, in any order — scores the ones in the band and returns
    /// the `k` best `(items, scores)`, score descending, ties toward the
    /// smaller item, exactly as `top_k_indices` orders them.
    pub fn finish(
        self,
        candidates: impl IntoIterator<Item = (usize, f64)>,
    ) -> (Vec<usize>, Vec<f64>) {
        let end = self.band_end();
        let mut top = TopK::new(self.k);
        for (v, key) in candidates {
            if key < f64::INFINITY && end.is_none_or(|e| key <= e) {
                top.offer(v, key_score::<S>(self.geometry, key));
            }
        }
        top.into_sorted().into_iter().unzip()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tau_covers_the_derived_bound_at_both_precisions() {
        for (tau, eps, ln_max) in [
            (tie_tau::<f64>(), f64::EPSILON, f64::MAX.ln()),
            (
                tie_tau::<f32>(),
                f64::from(f32::EPSILON),
                f64::from(f32::MAX).ln(),
            ),
        ] {
            assert!(tau >= eps * (5.0 + 2.0 * ln_max) * 2.0, "{tau}");
            assert!(tau < 1e-3, "{tau}");
        }
    }

    #[test]
    fn band_end_never_falls_as_the_kth_key_grows() {
        // The two-pass walk takes T_U = band_end(U₍ₖ₎) ≥ band_end(κ) from
        // κ ≤ U₍ₖ₎. Sweep keys through 1 (the Lorentz clamp), through the
        // Euclidean switch to 4κ where κ·τ underflows, and far out.
        fn sweep<S: Scalar>() {
            let tau = tie_tau::<S>();
            let switch = f64::MIN_POSITIVE / tau;
            let mut keys = vec![-3.0, 0.0, 0.5, 1.0, 1.0 + 1e-13, 7.0, 1e300];
            for scale in [switch, 2.0 * switch] {
                keys.extend((0..64).map(|i| scale * (0.9 + 0.004 * f64::from(i))));
            }
            keys.sort_by(f64::total_cmp);
            for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
                let end = |key: f64| {
                    let mut best = KeyTopK::<S>::new(geometry, 1);
                    best.offer(key);
                    best.band_end().expect("one key held")
                };
                for pair in keys.windows(2) {
                    let (a, b) = (end(pair[0]), end(pair[1]));
                    let (x, y) = (pair[0], pair[1]);
                    assert!(a <= b, "{geometry:?}: band_end({x}) = {a} > band_end({y}) = {b}");
                    assert!(a >= pair[0], "{geometry:?}: the band ends below its key");
                }
            }
        }
        sweep::<f64>();
        sweep::<f32>();
    }

    #[test]
    fn keys_the_bound_decides_score_finite() {
        // A row the coarse bound decides has an exact key below MAX_S/7
        // (module docs), where both distances are finite; past MAX_S/2 the
        // Lorentz one overflows, which the probe must then see.
        for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
            assert!(key_score::<f64>(geometry, f64::MAX / 7.0).is_finite(), "{geometry:?}");
            let f32_max = f64::from(f32::MAX);
            assert!(key_score::<f32>(geometry, f32_max / 7.0).is_finite(), "{geometry:?}");
        }
        assert!(!key_score::<f64>(Geometry::Hyperbolic, 0.7 * f64::MAX).is_finite());
        assert!(!key_score::<f32>(Geometry::Hyperbolic, 0.7 * f64::from(f32::MAX)).is_finite());
    }

    #[test]
    fn acosh_collapses_distinct_keys_near_one() {
        // The band exists because distinct keys share a distance: keys ≤ 1
        // all clamp to 0, and neighbours just above 1 can round together.
        let one_up = f64::from_bits(1.0f64.to_bits() + 1);
        let score = |key| key_score::<f64>(Geometry::Hyperbolic, key);
        assert_eq!(score(0.5), score(1.0));
        assert!(score(one_up) < 0.0);
    }

    #[test]
    fn a_late_smaller_index_in_the_band_wins_the_tie() {
        // Keys 0.5 and 0.9 both clamp to distance 0; with k = 1 the answer
        // is the smaller index even though its key is not the smallest.
        let mut best = KeyTopK::<f64>::new(Geometry::Hyperbolic, 1);
        let cands = [(4usize, 0.5f64), (2, 0.9), (7, 3.0)];
        for &(_, key) in &cands {
            best.offer(key);
        }
        let (items, scores) = best.finish(cands);
        assert_eq!(items, vec![2]);
        assert_eq!(scores[0].to_bits(), (-0.0f64).to_bits());
    }

    #[test]
    fn an_unbounded_k_selects_what_the_table_size_selects() {
        let mut rng = logirec_linalg::SplitMix64::new(3);
        let tangents: Embedding = Embedding::normal(6, 3, 0.3, &mut rng);
        let mut items = Embedding::zeros(6, 4);
        for v in 0..6 {
            items.row_mut(v).copy_from_slice(&lorentz::exp_origin(tangents.row(v)));
        }
        let q = lorentz::exp_origin(&[0.1, -0.2, 0.05]);
        for table in [
            ScanTable::new(Geometry::Hyperbolic, &items),
            ScanTable::in_order(Geometry::Hyperbolic, &items, vec![3, 1, 5, 0, 2, 4]),
        ] {
            let mut keys = vec![0.0; 6];
            let n = table.top_k(&q, &[&[2]], 6, &mut keys);
            assert_eq!(n.0.len(), 5);
            assert_eq!(table.top_k(&q, &[&[2]], usize::MAX, &mut keys), n);
            let mut runs = |k| {
                let mut all = Some(0..6);
                table.top_k_runs(&q, &[2], k, &mut keys, |_| all.take())
            };
            assert_eq!(runs(usize::MAX), runs(6));
        }
    }

    #[test]
    fn zero_k_and_skipped_keys_select_nothing() {
        let mut best = KeyTopK::<f32>::new(Geometry::Euclidean, 0);
        best.offer(1.0);
        assert_eq!(best.kth_score(), None);
        assert_eq!(best.finish([(0, 1.0)]), (vec![], vec![]));
        let mut best = KeyTopK::<f64>::new(Geometry::Euclidean, 3);
        for key in [f64::INFINITY, f64::NAN, 4.0] {
            best.offer(key);
        }
        assert_eq!(best.kth_score(), None);
        let (items, scores) = best.finish([(0, f64::INFINITY), (1, f64::NAN), (2, 4.0)]);
        assert_eq!((items, scores), (vec![2], vec![-2.0]));
        // A finite key whose distance overflows scores −∞ and is skipped,
        // as `top_k_indices` skips it.
        let mut best = KeyTopK::<f64>::new(Geometry::Hyperbolic, 2);
        let cands = [(0usize, f64::MAX), (1, 3.0)];
        for &(_, key) in &cands {
            best.offer(key);
        }
        assert_eq!(best.finish(cands).0, vec![1]);
    }
}
