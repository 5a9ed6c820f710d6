//! The Poincaré ball model `P^d = { x ∈ R^d : ‖x‖ < 1 }`.
//!
//! Provides the distance metric, Möbius addition, the exponential map used
//! for Riemannian SGD on Poincaré parameters (Eq. 17 of the paper), the
//! exp map at the origin, and analytic gradients.
//!
//! All kernels are generic over [`Scalar`]; the gradient kernel also exists
//! as a `*_into` variant writing into caller-owned buffers so the sharded
//! ranking loss runs allocation-free.

use logirec_linalg::{ops, Scalar};

use crate::{BALL_EPS, MIN_NORM};

/// Projects `x` in place to the open unit ball, leaving a `BALL_EPS` margin.
///
/// Every optimizer step on Poincaré parameters must end with this projection:
/// the distance metric and conformal factor are undefined at `‖x‖ ≥ 1`.
pub fn project<S: Scalar>(x: &mut [S]) {
    ops::clip_norm(x, S::from_f64(1.0 - BALL_EPS));
}

/// True when `x` lies strictly inside the unit ball (with margin).
pub fn in_ball<S: Scalar>(x: &[S]) -> bool {
    ops::norm(x) <= S::from_f64(1.0 - BALL_EPS / 2.0)
}

/// Poincaré distance
/// `d_P(x, y) = acosh(1 + 2‖x−y‖² / ((1−‖x‖²)(1−‖y‖²)))` (Section III-A).
pub fn distance<S: Scalar>(x: &[S], y: &[S]) -> S {
    let a = ops::dist_sq(x, y);
    let b = (S::ONE - ops::norm_sq(x)).max(S::from_f64(BALL_EPS));
    let c = (S::ONE - ops::norm_sq(y)).max(S::from_f64(BALL_EPS));
    ops::acosh_clamped(S::ONE + S::from_f64(2.0) * a / (b * c))
}

/// [`distance_vjp`] writing into caller buffers `gx`/`gy` (each `d` long;
/// every element is overwritten, so the buffers need not be zeroed).
pub fn distance_vjp_into<S: Scalar>(x: &[S], y: &[S], upstream: S, gx: &mut [S], gy: &mut [S]) {
    debug_assert_eq!(gx.len(), x.len());
    debug_assert_eq!(gy.len(), y.len());
    let a = ops::dist_sq(x, y);
    let b = (S::ONE - ops::norm_sq(x)).max(S::from_f64(BALL_EPS));
    let c = (S::ONE - ops::norm_sq(y)).max(S::from_f64(BALL_EPS));
    let four = S::from_f64(4.0);
    let s = S::ONE + S::from_f64(2.0) * a / (b * c);
    // d(acosh s)/ds = 1/sqrt(s² − 1); clamp to avoid the x == y singularity.
    let ds = upstream / (s * s - S::ONE).sqrt().max(S::from_f64(MIN_NORM));
    // ∂s/∂x = 4(x−y)/(bc) + 4a·x/(b²c);  symmetric for y.
    let k = four / (b * c);
    let kx = four * a / (b * b * c);
    let ky = four * a / (b * c * c);
    for i in 0..x.len() {
        let diff = x[i] - y[i];
        gx[i] = ds * (k * diff + kx * x[i]);
        gy[i] = ds * (-k * diff + ky * y[i]);
    }
}

/// Gradients of [`distance`] with respect to both arguments.
///
/// Returns `(∂d/∂x, ∂d/∂y)` scaled by the upstream cotangent `upstream`.
/// These are Euclidean (ambient) gradients; convert with
/// [`crate::rsgd::poincare_riemannian_grad`] before a Riemannian step.
pub fn distance_vjp<S: Scalar>(x: &[S], y: &[S], upstream: S) -> (Vec<S>, Vec<S>) {
    let mut gx = vec![S::ZERO; x.len()];
    let mut gy = vec![S::ZERO; y.len()];
    distance_vjp_into(x, y, upstream, &mut gx, &mut gy);
    (gx, gy)
}

/// Möbius addition `x ⊕ y` (definition under Eq. 17).
pub fn mobius_add<S: Scalar>(x: &[S], y: &[S]) -> Vec<S> {
    let two = S::from_f64(2.0);
    let xy = ops::dot(x, y);
    let xx = ops::norm_sq(x);
    let yy = ops::norm_sq(y);
    let denom = (S::ONE + two * xy + xx * yy).max(S::from_f64(MIN_NORM));
    let cx = (S::ONE + two * xy + yy) / denom;
    let cy = (S::ONE - xx) / denom;
    let mut out = ops::scaled(x, cx);
    ops::axpy(cy, y, &mut out);
    out
}

/// The paper's Möbius exponential step (Eq. 17):
/// `exp_x(η) = x ⊕ (tanh(‖η‖/2) · η/‖η‖)`.
///
/// Combined with the Riemannian gradient rescaling `((1−‖x‖²)/2)²` this is
/// the retraction Nickel & Kiela use for Poincaré RSGD. The result is
/// projected back into the ball.
pub fn exp_map_paper<S: Scalar>(x: &[S], eta: &[S]) -> Vec<S> {
    let n = ops::norm(eta);
    if n < S::from_f64(MIN_NORM) {
        return x.to_vec();
    }
    let y = ops::scaled(eta, (n / S::from_f64(2.0)).tanh() / n);
    let mut out = mobius_add(x, &y);
    project(&mut out);
    out
}

/// Exponential map at the origin: `exp_0(v) = tanh(‖v‖) · v/‖v‖`.
pub fn exp_map_origin<S: Scalar>(v: &[S]) -> Vec<S> {
    let n = ops::norm(v);
    if n < S::from_f64(MIN_NORM) {
        return v.to_vec();
    }
    let mut out = ops::scaled(v, n.tanh() / n);
    project(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn distance_is_zero_on_diagonal_and_symmetric() {
        let x = [0.3, -0.2, 0.1];
        let y = [-0.5, 0.1, 0.4];
        assert_close(distance(&x, &x), 0.0, 1e-12);
        assert_close(distance(&x, &y), distance(&y, &x), 1e-12);
        assert!(distance(&x, &y) > 0.0);
    }

    #[test]
    fn distance_blows_up_near_boundary() {
        let x = [0.0, 0.0];
        let near = [0.999, 0.0];
        let nearer = [0.99999, 0.0];
        assert!(distance(&x, &nearer) > distance(&x, &near));
        assert!(distance(&x, &nearer) > 5.0);
    }

    #[test]
    fn mobius_add_identity_and_inverse() {
        let x = [0.2, -0.3, 0.4];
        let zero = [0.0; 3];
        let id = mobius_add(&x, &zero);
        for (a, b) in id.iter().zip(&x) {
            assert_close(*a, *b, 1e-12);
        }
        let neg = ops::scaled(&x, -1.0);
        let back = mobius_add(&x, &neg);
        assert!(ops::norm(&back) < 1e-12, "x ⊕ (−x) should be 0");
    }

    #[test]
    fn mobius_add_stays_in_ball() {
        let x = [0.9, 0.0];
        let y = [0.0, 0.9];
        let z = mobius_add(&x, &y);
        assert!(ops::norm(&z) < 1.0, "‖x ⊕ y‖ = {}", ops::norm(&z));
    }

    #[test]
    fn exp_map_paper_zero_step_is_identity() {
        let x = [0.25, -0.5];
        let y = exp_map_paper(&x, &[0.0, 0.0]);
        assert_eq!(y, x.to_vec());
    }

    #[test]
    fn exp_map_origin_distance_equals_tangent_norm() {
        // A defining property of the exponential map: d(0, exp_0(v)) = ‖v‖
        // (in the metric with curvature −1, where d(0, x) = 2 atanh(‖x‖) and
        // exp_0(v) = tanh(‖v‖)·v̂ ... the factor-2 convention means
        // d(0, exp_0(v)) = 2 atanh(tanh(‖v‖)) = 2‖v‖ under this metric; we
        // use the ‖·‖ convention consistently so just check monotone scale).
        let v = [0.8, 0.0];
        let x = exp_map_origin(&v);
        assert_close(distance(&[0.0, 0.0], &x), 2.0 * 0.8, 1e-9);
    }

    #[test]
    fn distance_vjp_matches_finite_differences() {
        let x = [0.31, -0.22, 0.15];
        let y = [-0.4, 0.05, 0.33];
        let (gx, gy) = distance_vjp(&x, &y, 1.0);
        let h = 1e-6;
        for i in 0..3 {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let num = (distance(&xp, &y) - distance(&xm, &y)) / (2.0 * h);
            assert_close(gx[i], num, 1e-5);

            let mut yp = y.to_vec();
            let mut ym = y.to_vec();
            yp[i] += h;
            ym[i] -= h;
            let num = (distance(&x, &yp) - distance(&x, &ym)) / (2.0 * h);
            assert_close(gy[i], num, 1e-5);
        }
    }

    #[test]
    fn distance_vjp_scales_with_upstream() {
        let x = [0.2, 0.1];
        let y = [-0.1, 0.3];
        let (g1, _) = distance_vjp(&x, &y, 1.0);
        let (g3, _) = distance_vjp(&x, &y, 3.0);
        for (a, b) in g1.iter().zip(&g3) {
            assert_close(3.0 * a, *b, 1e-12);
        }
    }

    #[test]
    fn project_pulls_outside_points_in() {
        let mut x = [2.0, 0.0];
        project(&mut x);
        assert!(in_ball(&x));
        assert_close(ops::norm(&x), 1.0 - BALL_EPS, 1e-12);
    }

    #[test]
    fn into_kernel_matches_allocating_wrapper_bitwise() {
        let x = [0.31, -0.22, 0.15];
        let y = [-0.4, 0.05, 0.33];
        let (gx, gy) = distance_vjp(&x, &y, 0.75);
        let mut bx = [0.0; 3];
        let mut by = [0.0; 3];
        distance_vjp_into(&x, &y, 0.75, &mut bx, &mut by);
        assert_eq!(gx, bx);
        assert_eq!(gy, by);
    }
}
