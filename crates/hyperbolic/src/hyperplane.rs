//! Poincaré hyperplanes and their enclosing d-balls (Section III-A).
//!
//! A Poincaré hyperplane is uniquely determined by its closest point `c ≠ 0`
//! to the origin. The Euclidean d-ball whose boundary carries the hyperplane
//! (and intersects the unit sphere perpendicularly) is
//!
//! `o_c = c · (1 + ‖c‖²) / (2‖c‖²)`,  `r_c = (1 − ‖c‖²) / (2‖c‖)`.
//!
//! **Paper typo:** the paper prints `o_c = c(1+‖c‖²)/(2‖c‖)`, but
//! orthogonality to the unit sphere requires `‖o_c‖² = 1 + r_c²`, which only
//! the `2‖c‖²` form satisfies (verified in `enclosing_ball_is_orthogonal`).
//!
//! Tags are modeled as hyperplanes; items as points. The three logical
//! relations then become the geometric predicates of Lemmas 1–3, which
//! `logirec-core` turns into hinge losses (Eq. 3–5).
//!
//! Everything is generic over [`Scalar`]; the hot derivation and its VJP
//! also exist as `*_into` variants writing into caller-owned buffers so the
//! sharded logic losses run allocation-free.

use logirec_linalg::{ops, Scalar};

use crate::{BALL_EPS, MIN_NORM};

/// Minimum norm of a hyperplane's defining point `c`. `c = 0` does not
/// define a hyperplane (the radius diverges), so optimizer steps clamp the
/// norm into `[MIN_CENTER_NORM, 1 − BALL_EPS]`.
pub const MIN_CENTER_NORM: f64 = 1e-3;

/// The enclosing Euclidean d-ball `B(o, r)` of a Poincaré hyperplane.
#[derive(Debug, Clone, PartialEq)]
pub struct Ball<S: Scalar = f64> {
    /// Euclidean center `o_c` (lies outside the unit ball).
    pub center: Vec<S>,
    /// Euclidean radius `r_c`.
    pub radius: S,
}

/// [`Ball::from_center`] writing the ball center into a caller buffer
/// (`c.len()` long, fully overwritten) and returning the radius.
pub fn from_center_into<S: Scalar>(c: &[S], center: &mut [S]) -> S {
    debug_assert_eq!(center.len(), c.len());
    let two = S::from_f64(2.0);
    let s2 = ops::norm_sq(c)
        .clamp(S::from_f64(MIN_CENTER_NORM * MIN_CENTER_NORM), S::from_f64(1.0 - BALL_EPS));
    let s = s2.sqrt();
    let k = (S::ONE + s2) / (two * s2);
    for (o, ci) in center.iter_mut().zip(c) {
        *o = k * *ci;
    }
    (S::ONE - s2) / (two * s)
}

impl<S: Scalar> Ball<S> {
    /// Derives the enclosing ball from the hyperplane's defining point `c`.
    ///
    /// `c` must be nonzero and inside the unit ball; callers uphold this via
    /// [`clamp_center`].
    ///
    /// ```
    /// use logirec_hyperbolic::Ball;
    /// let b = Ball::from_center(&[0.5, 0.0]);
    /// // The carrier sphere is orthogonal to the unit sphere: ‖o‖² = 1 + r².
    /// let o2: f64 = b.center.iter().map(|x| x * x).sum();
    /// assert!((o2 - (1.0 + b.radius * b.radius)).abs() < 1e-9);
    /// ```
    pub fn from_center(c: &[S]) -> Self {
        let mut center = vec![S::ZERO; c.len()];
        let radius = from_center_into(c, &mut center);
        Self { center, radius }
    }

    /// Margin of Lemma 1 (membership): `‖v − o‖ − r`, negative exactly when
    /// `v` lies inside this ball. `max(0, ·)` of this is the membership loss
    /// L_Mem (Eq. 3).
    pub fn membership_margin(&self, v: &[S]) -> S {
        ops::dist(v, &self.center) - self.radius
    }

    /// Margin of Lemma 2 (hierarchy) for `self ⊃ other`:
    /// `‖o_i − o_j‖ + r_j − r_i`, negative exactly when this ball contains
    /// `other`. `max(0, ·)` of this is the hierarchy loss L_Hie (Eq. 4).
    pub fn hierarchy_margin(&self, other: &Ball<S>) -> S {
        ops::dist(&self.center, &other.center) + other.radius - self.radius
    }

    /// Margin of Lemma 3 (exclusion): `r_i + r_j − ‖o_i − o_j‖`, negative
    /// exactly when the two balls are disjoint. `max(0, ·)` of this is the
    /// exclusion loss L_Ex (Eq. 5).
    pub fn exclusion_margin(&self, other: &Ball<S>) -> S {
        self.radius + other.radius - ops::dist(&self.center, &other.center)
    }
}

/// Clamps a hyperplane defining point in place so `‖c‖ ∈
/// [MIN_CENTER_NORM, 1 − BALL_EPS]`. Applied after every optimizer step on a
/// tag embedding.
pub fn clamp_center<S: Scalar>(c: &mut [S]) {
    let n = ops::norm(c);
    let min_center = S::from_f64(MIN_CENTER_NORM);
    if n < min_center {
        if n < S::from_f64(MIN_NORM) {
            // Degenerate zero vector: nudge deterministically along e₀.
            c[0] = min_center;
            for v in &mut c[1..] {
                *v = S::ZERO;
            }
        } else {
            ops::scale(c, min_center / n);
        }
    } else if n > S::from_f64(1.0 - BALL_EPS) {
        ops::scale(c, S::from_f64(1.0 - BALL_EPS) / n);
    }
}

/// [`ball_vjp`] writing into a caller buffer (`c.len()` long; every element
/// is overwritten, so the buffer need not be zeroed).
pub fn ball_vjp_into<S: Scalar>(c: &[S], g_o: &[S], g_r: S, out: &mut [S]) {
    debug_assert_eq!(out.len(), c.len());
    let two = S::from_f64(2.0);
    let s2 = ops::norm_sq(c)
        .clamp(S::from_f64(MIN_CENTER_NORM * MIN_CENTER_NORM), S::from_f64(1.0 - BALL_EPS));
    let s = s2.sqrt();
    let g = (S::ONE + s2) / (two * s2);
    let cdotgo = ops::dot(c, g_o);
    for (o, gi) in out.iter_mut().zip(g_o) {
        *o = g * *gi;
    }
    // Center term: −(c·g_o)/s⁴ · c.
    let mut coeff = -cdotgo / (s2 * s2);
    // Radius term: g_r · dr/ds · c/s = g_r · (−(1+s²)/(2s²)) · c/s.
    coeff += g_r * (-(S::ONE + s2) / (two * s2)) / s;
    ops::axpy(coeff, c, out);
}

/// VJP of the `c ↦ (o_c, r_c)` derivation: given gradients `g_o ∈ R^d`
/// w.r.t. the ball center and `g_r` w.r.t. the radius, returns the gradient
/// w.r.t. the defining point `c`.
///
/// With `s² = ‖c‖²`, `g(s²) = (1+s²)/(2s²)` and `r(s) = (1−s²)/(2s)`:
/// `∂o_i/∂c_j = g δ_ij − c_i c_j / s⁴` and `dr/ds = −(1+s²)/(2s²)`.
pub fn ball_vjp<S: Scalar>(c: &[S], g_o: &[S], g_r: S) -> Vec<S> {
    let mut out = vec![S::ZERO; c.len()];
    ball_vjp_into(c, g_o, g_r, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn enclosing_ball_is_orthogonal() {
        // ‖o_c‖² = 1 + r_c² ⇔ the sphere meets the unit sphere at right
        // angles — the defining property of a Poincaré hyperplane carrier.
        for c in [[0.5f64, 0.0], [0.1, 0.2], [0.0, -0.9], [0.6, 0.6]] {
            let b = Ball::from_center(&c);
            assert_close(ops::norm_sq(&b.center), 1.0 + b.radius * b.radius, 1e-9);
        }
    }

    #[test]
    fn defining_point_lies_on_the_boundary_sphere() {
        // c is the closest point of the hyperplane to the origin, so it lies
        // on the carrier sphere: ‖c − o_c‖ = r_c.
        let c = [0.3, -0.4];
        let b = Ball::from_center(&c);
        assert_close(ops::dist(&c, &b.center), b.radius, 1e-12);
    }

    #[test]
    fn radius_grows_as_center_approaches_origin() {
        let coarse = Ball::from_center(&[0.1, 0.0]);
        let fine = Ball::from_center(&[0.8, 0.0]);
        assert!(coarse.radius > fine.radius, "abstract tags get bigger regions");
    }

    #[test]
    fn membership_predicate_and_margin_agree() {
        let b = Ball::from_center(&[0.5, 0.0]);
        // A point between c and the boundary along +x is inside the ball.
        let inside = [0.7, 0.0];
        let outside = [-0.5, 0.0];
        assert!(b.membership_margin(&inside) < 0.0);
        assert!(b.membership_margin(&outside) > 0.0);
    }

    #[test]
    fn hierarchy_predicate_matches_nested_construction() {
        // A hyperplane closer to the boundary along the same ray gives a
        // smaller ball nested inside the coarser one.
        let parent = Ball::from_center(&[0.3, 0.0]);
        let child = Ball::from_center(&[0.6, 0.0]);
        assert!(parent.hierarchy_margin(&child) < 0.0);
        assert!(child.hierarchy_margin(&parent) > 0.0);
    }

    #[test]
    fn exclusion_predicate_matches_opposite_construction() {
        // Hyperplanes on opposite sides of the ball are disjoint.
        let a = Ball::from_center(&[0.7, 0.0]);
        let b = Ball::from_center(&[-0.7, 0.0]);
        assert!(a.exclusion_margin(&b) < 0.0);
        // A ball is never disjoint from itself.
        assert!(a.exclusion_margin(&a.clone()) > 0.0);
    }

    #[test]
    fn clamp_center_enforces_both_bounds() {
        let mut tiny = vec![1e-8, 0.0];
        clamp_center(&mut tiny);
        assert_close(ops::norm(&tiny), MIN_CENTER_NORM, 1e-9);

        let mut zero = vec![0.0, 0.0];
        clamp_center(&mut zero);
        assert_close(ops::norm(&zero), MIN_CENTER_NORM, 1e-12);

        let mut big = vec![3.0, 4.0];
        clamp_center(&mut big);
        assert_close(ops::norm(&big), 1.0 - BALL_EPS, 1e-12);

        let mut fine = vec![0.5, 0.5];
        let before = fine.clone();
        clamp_center(&mut fine);
        assert_eq!(fine, before, "in-range centers are untouched");
    }

    #[test]
    fn ball_vjp_matches_finite_differences() {
        let c = [0.42, -0.31, 0.2];
        let g_o = [1.3, -0.7, 0.25];
        let g_r = -0.9;
        // f(c) = g_o · o_c + g_r · r_c
        let f = |c: &[f64]| {
            let b = Ball::from_center(c);
            ops::dot(&b.center, &g_o) + g_r * b.radius
        };
        let grad = ball_vjp(&c, &g_o, g_r);
        let h = 1e-7;
        for i in 0..3 {
            let mut cp = c.to_vec();
            let mut cm = c.to_vec();
            cp[i] += h;
            cm[i] -= h;
            let num = (f(&cp) - f(&cm)) / (2.0 * h);
            assert_close(grad[i], num, 1e-5);
        }
    }

    #[test]
    fn into_kernels_match_allocating_wrappers_bitwise() {
        let c = [0.42, -0.31, 0.2];
        let g_o = [1.3, -0.7, 0.25];
        let b = Ball::from_center(&c);
        let mut center = [0.0; 3];
        let radius = from_center_into(&c, &mut center);
        assert_eq!(b.center, center);
        assert_eq!(b.radius, radius);
        let mut out = [0.0; 3];
        ball_vjp_into(&c, &g_o, -0.9, &mut out);
        assert_eq!(ball_vjp(&c, &g_o, -0.9), out);
    }
}
