//! The one exact top-K primitive.
//!
//! LogiRec ranks items by the distance between propagated embeddings
//! (Eq. 9): `d(u, v) = acosh(−⟨u, v⟩_L)` on the hyperboloid, `‖u − v‖` in
//! the Euclidean ablation. Both distances are monotone in a cheaper
//! **key** — the flipped inner product `−⟨u, v⟩_L`, or the squared
//! distance — so the scan computes every item's key in one pass, selects
//! the `k` smallest unmasked keys, and computes the distance only for the
//! **tie band** at the k-th key. The answer is bit-identical to scoring
//! every item, masking, and selecting with `top_k_indices`, and a k = 10
//! query computes about ten `acosh` instead of one per item.
//!
//! # Order contract
//!
//! Every key is computed in the order [`Scalar::dot`] / [`Scalar::dist_sq`]
//! use, so it equals `-lorentz::inner(u, v)` / `ops::dist_sq(u, v)` bit for
//! bit and the band's distances equal `lorentz::distance` / `ops::dist`.
//! At `f64` the keys come from a blocked copy of the item table
//! ([`RowBlocks`]: one sequential accumulator per row, eight rows per
//! vector); at `f32` from row-major rows through the 8-lane
//! [`Scalar::dot`], which is already SIMD within a row, so an item-order
//! `f32` table holds no extra copy. Keys are widened to `f64` (exact), so
//! one `f64` scratch buffer serves both precisions.
//!
//! The rows may sit in any order of **positions** ([`ScanTable::in_order`]:
//! a serving index lays them out cluster by cluster, each cluster one
//! contiguous run), and a query may walk all runs or some
//! ([`ScanTable::top_k_runs`]). Order never changes an answer: a key
//! depends only on its row, the selection keeps the k smallest keys as a
//! multiset, and the band is ranked by score, then item id — never by
//! position. So a walk over every run is bit-identical to the item-order
//! scan, and a walk over some runs to the exact scan of just their items.
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
//! and with `√(4κ) = 2√κ` clear of every tie.

use std::marker::PhantomData;
use std::ops::Range;

use logirec_eval::ranking::TopK;
use logirec_hyperbolic::lorentz;
use logirec_linalg::{ops, Embedding, RowBlocks, Scalar};

use crate::config::Geometry;

/// How many times the derived rounding bound the tie band is wide.
const TIE_MARGIN: f64 = 8.0;

/// The relative tie-band width `τ_S = TIE_MARGIN · ε(5 + 2·ln MAX)` for
/// precision `S` (≈ 2.5e-12 at `f64`, ≈ 1.7e-4 at `f32`; see the module
/// docs for the derivation).
fn tie_tau<S: Scalar>() -> f64 {
    let eps = S::EPSILON.to_f64();
    TIE_MARGIN * eps * (5.0 + 2.0 * S::MAX.to_f64().ln())
}

/// The key of one item row for query `q`: `−⟨q, row⟩_L` (Lorentz) or
/// `‖q − row‖²` (Euclidean), in the order of [`Scalar::dot`] /
/// [`Scalar::dist_sq`]. At `f64` it equals the blocked kernel bit for bit.
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
/// geometry, the rows the key kernel streams (at `f64` a blocked copy,
/// `items.rows() × items.dim() × 8` bytes; at `f32` row-major, in item
/// order a shared handle on the caller's table), and, when the rows are not
/// in item order, the map between positions and items. Positions never
/// reach the caller: answers carry item ids, and [`ScanTable::keys`] writes
/// item-indexed keys, whatever the order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScanTable<S: Scalar = f64> {
    geometry: Geometry,
    rows: Rows<S>,
    /// `None` in item order (position `p` holds item `p`).
    order: Option<Order>,
}

/// The rows the key kernel streams, in position order.
#[derive(Debug, Clone, PartialEq)]
enum Rows<S: Scalar> {
    Blocked(RowBlocks<S>),
    RowMajor(Embedding<S>),
}

/// A table's position order: the item at each position and each item's
/// position (`u32`, so 8 bytes an item for both).
#[derive(Debug, Clone, PartialEq)]
struct Order {
    item_at: Vec<u32>,
    position_of: Vec<u32>,
}

impl<S: Scalar> ScanTable<S> {
    /// Prepares the scan over `items` in item order (blocks a copy at
    /// `f64`).
    pub fn new(geometry: Geometry, items: &Embedding<S>) -> Self {
        let rows = if S::SEQUENTIAL_REDUCTIONS {
            Rows::Blocked(RowBlocks::new(items))
        } else {
            Rows::RowMajor(items.clone())
        };
        Self { geometry, rows, order: None }
    }

    /// Prepares the scan over `items` with item `order[p]` at position `p`
    /// (`order` is a permutation of `0..items.rows()`), copying the rows
    /// straight from `items` into position order.
    pub fn in_order(geometry: Geometry, items: &Embedding<S>, order: Vec<u32>) -> Self {
        let n = items.rows();
        assert_eq!(order.len(), n, "order length");
        let mut position_of = vec![u32::MAX; n];
        for (p, &v) in order.iter().enumerate() {
            let slot = &mut position_of[v as usize];
            assert_eq!(*slot, u32::MAX, "item {v} placed twice");
            *slot = p as u32;
        }
        let sources = order.iter().map(|&v| v as usize);
        let rows = if S::SEQUENTIAL_REDUCTIONS {
            Rows::Blocked(RowBlocks::gather(items, sources))
        } else {
            let mut copy = Embedding::zeros(n, items.dim());
            for (p, v) in sources.enumerate() {
                copy.row_mut(p).copy_from_slice(items.row(v));
            }
            Rows::RowMajor(copy)
        };
        Self { geometry, rows, order: Some(Order { item_at: order, position_of }) }
    }

    /// Number of positions (= items) in the table.
    pub(crate) fn len(&self) -> usize {
        match &self.rows {
            Rows::Blocked(blocks) => blocks.rows(),
            Rows::RowMajor(table) => table.rows(),
        }
    }

    /// Writes every item's key for query `q` into `keys`, widened to `f64`
    /// and indexed by item; `keys` holds one entry per item.
    pub fn keys(&self, q: &[S], keys: &mut [f64]) {
        assert_eq!(keys.len(), self.len(), "key buffer length");
        self.run_keys(q, 0..self.len(), keys);
        if let Some(order) = &self.order {
            let by_position = keys.to_vec();
            for (&v, key) in order.item_at.iter().zip(by_position) {
                keys[v as usize] = key;
            }
        }
    }

    /// The exact top-K for query `q`: the `k` best items that no list in
    /// `masked` holds, with their scores, best first — bit-identical to
    /// scoring every item, writing `NEG_INFINITY` over the masked ones and
    /// selecting with `top_k_indices`. `keys` is scratch of one entry per
    /// item.
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
        let mut all = Some(0..self.len());
        // One run over every position, so its keys are indexed by position.
        let mask = |_: &Range<usize>, keys: &mut [f64]| {
            for &list in masked {
                for &v in list {
                    keys[self.position(v)] = f64::INFINITY;
                }
            }
        };
        self.walk(q, k, keys, |_| all.take(), mask)
    }

    /// The exact top-K over the runs `next_run` yields: of the items at
    /// those positions, the `k` best that `seen` (ascending, without
    /// repeats, as `SeenFilter` keeps its lists) does not hold, with their
    /// scores, best first — what [`ScanTable::top_k`] returns over a table
    /// of just those items — and how many candidates were scored (positions
    /// walked, less the masked ones). `next_run` is shown the selection so
    /// far before each run, so a caller can skip a run that cannot beat
    /// [`KeyTopK::kth_score`]; `None` ends the walk. Runs must not overlap;
    /// their order does not change the answer. `keys` is scratch of one
    /// entry per item.
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
        let mut unmasked = 0;
        let mask = |run: &Range<usize>, keys: &mut [f64]| {
            let first = positions.partition_point(|&p| p < run.start);
            let last = positions.partition_point(|&p| p < run.end);
            for &p in &positions[first..last] {
                keys[p - run.start] = f64::INFINITY;
            }
            unmasked += run.len() - (last - first);
        };
        let (items, scores) = self.walk(q, k, keys, next_run, mask);
        (items, scores, unmasked)
    }

    /// The position of item `v`.
    fn position(&self, v: usize) -> usize {
        self.order.as_ref().map_or(v, |order| order.position_of[v] as usize)
    }

    /// Writes the keys of positions `run` into `out` (`out.len() ==
    /// run.len()`).
    fn run_keys(&self, q: &[S], run: Range<usize>, out: &mut [f64]) {
        match (&self.rows, self.geometry) {
            (Rows::Blocked(blocks), Geometry::Hyperbolic) => blocks.lorentz_keys(q, run, out),
            (Rows::Blocked(blocks), Geometry::Euclidean) => blocks.dist_sq_keys(q, run, out),
            (Rows::RowMajor(table), geometry) => {
                for (key, p) in out.iter_mut().zip(run) {
                    *key = row_key(geometry, q, table.row(p)).to_f64();
                }
            }
        }
    }

    /// The one scan loop: for each run `next_run` yields, the run's keys,
    /// then `mask` (which sets masked keys of the run to `+∞`), then every
    /// key offered to the selection; the tie band is ranked over the walked
    /// positions at the end.
    fn walk(
        &self,
        q: &[S],
        k: usize,
        keys: &mut [f64],
        mut next_run: impl FnMut(&KeyTopK<S>) -> Option<Range<usize>>,
        mut mask: impl FnMut(&Range<usize>, &mut [f64]),
    ) -> (Vec<usize>, Vec<f64>) {
        assert_eq!(keys.len(), self.len(), "key buffer length");
        // No walk selects more items than the table holds, and a larger k
        // would only size the selection's buffers (an unbounded k from a
        // caller must not reach the allocator).
        let k = k.min(self.len());
        let mut best = KeyTopK::<S>::new(self.geometry, k);
        let mut walked: Vec<Range<usize>> = Vec::new();
        while let Some(run) = next_run(&best) {
            let run_keys = &mut keys[run.clone()];
            self.run_keys(q, run.clone(), run_keys);
            mask(&run, run_keys);
            for &key in run_keys.iter() {
                best.offer(key);
            }
            walked.push(run);
        }
        // The band's candidates (a superset: `finish` checks again), named
        // by item.
        let end = best.band_end().unwrap_or(f64::INFINITY);
        let mut band = Vec::new();
        for run in walked {
            for (p, &key) in run.clone().zip(&keys[run]) {
                if key <= end {
                    band.push((self.order.as_ref().map_or(p, |o| o.item_at[p] as usize), key));
                }
            }
        }
        best.finish(band)
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

    /// The score of the current k-th smallest key once `k` keys are held:
    /// the score the k-th best answer has so far.
    pub fn kth_score(&self) -> Option<f64> {
        (self.k > 0 && self.smallest.len() == self.k)
            .then(|| key_score::<S>(self.geometry, self.smallest[self.k - 1]))
    }

    /// Upper end of the tie band — the largest key [`KeyTopK::finish`]
    /// scores — or `None` while fewer than `k` keys are held (then every
    /// candidate is in the band).
    pub fn band_end(&self) -> Option<f64> {
        let kth = *self.smallest.get(self.k.checked_sub(1)?)?;
        let slack = kth.abs() * tie_tau::<S>();
        Some(match self.geometry {
            Geometry::Hyperbolic => (kth + slack).max(1.0),
            Geometry::Euclidean if slack < f64::MIN_POSITIVE => 4.0 * kth,
            Geometry::Euclidean => kth + slack,
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
