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
//! vector); at `f32` from the row-major table through the 8-lane
//! [`Scalar::dot`], which is already SIMD within a row, so `f32` holds no
//! extra table. Keys are widened to `f64` (exact), so one `f64` scratch
//! buffer serves both precisions.
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
/// geometry and, at `f64`, the blocked copy of the rows the key kernel
/// streams (`items.rows() × items.dim() × 8` bytes). At `f32` it holds
/// nothing and scans the row-major table it is handed.
#[derive(Debug, Clone)]
pub struct ScanTable<S: Scalar = f64> {
    geometry: Geometry,
    blocks: Option<RowBlocks<S>>,
}

impl<S: Scalar> ScanTable<S> {
    /// Prepares the scan over `items` (blocks a copy at `f64`).
    pub fn new(geometry: Geometry, items: &Embedding<S>) -> Self {
        Self {
            geometry,
            blocks: S::SEQUENTIAL_REDUCTIONS.then(|| RowBlocks::new(items)),
        }
    }

    /// Writes every item's key for query `q` into `keys`, widened to `f64`.
    /// `items` must be the table this scan was built from and
    /// `keys.len() == items.rows()`.
    pub fn keys(&self, q: &[S], items: &Embedding<S>, keys: &mut [f64]) {
        assert_eq!(keys.len(), items.rows(), "key buffer length");
        match (&self.blocks, self.geometry) {
            (Some(blocks), Geometry::Hyperbolic) => blocks.lorentz_keys(q, keys),
            (Some(blocks), Geometry::Euclidean) => blocks.dist_sq_keys(q, keys),
            (None, geometry) => {
                for (key, row) in keys.iter_mut().zip(items.iter_rows()) {
                    *key = row_key(geometry, q, row).to_f64();
                }
            }
        }
    }

    /// The exact top-K for query `q`: the `k` best items that no list in
    /// `masked` holds, with their scores, best first — bit-identical to
    /// scoring every item, writing `NEG_INFINITY` over the masked ones and
    /// selecting with `top_k_indices`. `keys` is scratch of
    /// `items.rows()` entries.
    pub fn top_k(
        &self,
        q: &[S],
        items: &Embedding<S>,
        masked: &[&[usize]],
        k: usize,
        keys: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>) {
        if k == 0 {
            return (Vec::new(), Vec::new());
        }
        self.keys(q, items, keys);
        for &list in masked {
            for &v in list {
                keys[v] = f64::INFINITY;
            }
        }
        let mut best = KeyTopK::<S>::new(self.geometry, k);
        for &key in keys.iter() {
            best.offer(key);
        }
        best.finish(keys.iter().copied().enumerate())
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
