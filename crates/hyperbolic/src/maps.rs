//! Diffeomorphisms between the Poincaré and Lorentz models (Eq. 1–2).
//!
//! LogiRec learns item embeddings in the Poincaré ball (where the logical
//! relation losses live) and maps them into the Lorentz model with `p⁻¹` for
//! the GCN + ranking loss; `p` maps Lorentz points back for visualization and
//! the granularity analysis. `p` and `p⁻¹` are mutually inverse bijections
//! between `P^d` and `H^d`.
//!
//! All kernels are generic over [`Scalar`]; the `*_into` variants write into
//! caller-owned buffers so the propagation and gradient loops run
//! allocation-free (see DESIGN.md, "Precision & kernels").

use logirec_linalg::{ops, Scalar};

use crate::MIN_NORM;

#[cfg(test)]
use crate::{lorentz, poincare};

/// [`lorentz_to_poincare`] writing into a caller buffer (`x.len() − 1` long).
pub fn lorentz_to_poincare_into<S: Scalar>(x: &[S], out: &mut [S]) {
    debug_assert_eq!(out.len() + 1, x.len());
    let denom = x[0] + S::ONE;
    let k = S::ONE / denom;
    for (o, xi) in out.iter_mut().zip(&x[1..]) {
        *o = k * *xi;
    }
}

/// `p : H^d → P^d` (Eq. 1): `p(x₀, x₁, …, x_d) = (x₁, …, x_d)/(x₀ + 1)`.
pub fn lorentz_to_poincare<S: Scalar>(x: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; x.len() - 1];
    lorentz_to_poincare_into(x, &mut out);
    out
}

/// [`poincare_to_lorentz`] writing into a caller buffer (`x.len() + 1` long).
pub fn poincare_to_lorentz_into<S: Scalar>(x: &[S], out: &mut [S]) {
    debug_assert_eq!(out.len(), x.len() + 1);
    let q = ops::norm_sq(x).min(S::from_f64(1.0 - crate::BALL_EPS));
    let denom = S::ONE - q;
    out[0] = (S::ONE + q) / denom;
    let two = S::from_f64(2.0);
    for (o, xi) in out[1..].iter_mut().zip(x) {
        *o = two * *xi / denom;
    }
}

/// `p⁻¹ : P^d → H^d` (Eq. 2):
/// `p⁻¹(x) = ((1 + ‖x‖²), 2x₁, …, 2x_d) / (1 − ‖x‖²)`.
pub fn poincare_to_lorentz<S: Scalar>(x: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; x.len() + 1];
    poincare_to_lorentz_into(x, &mut out);
    out
}

/// [`poincare_to_lorentz_vjp`] writing into a caller buffer (`x.len()` long;
/// every element is overwritten).
pub fn poincare_to_lorentz_vjp_into<S: Scalar>(x: &[S], g: &[S], out: &mut [S]) {
    debug_assert_eq!(g.len(), x.len() + 1);
    debug_assert_eq!(out.len(), x.len());
    let q = ops::norm_sq(x);
    let d = (S::ONE - q).max(S::from_f64(MIN_NORM));
    let d2 = d * d;
    let gs = &g[1..];
    let xdotg = ops::dot(x, gs);
    let two = S::from_f64(2.0);
    let four = S::from_f64(4.0);
    let k = two / d;
    for (o, gi) in out.iter_mut().zip(gs) {
        *o = k * *gi;
    }
    let coeff = four * g[0] / d2 + four * xdotg / d2;
    ops::axpy(coeff, x, out);
}

/// VJP of [`poincare_to_lorentz`]: given the ambient gradient
/// `g ∈ R^{d+1}` w.r.t. the Lorentz output, returns the Euclidean gradient
/// w.r.t. the Poincaré input `x ∈ R^d`.
///
/// With `q = ‖x‖²`, `D = 1 − q`:
/// `∂y₀/∂x_j = 4x_j/D²`, `∂y_i/∂x_j = 2δ_ij/D + 4x_i x_j/D²`.
pub fn poincare_to_lorentz_vjp<S: Scalar>(x: &[S], g: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; x.len()];
    poincare_to_lorentz_vjp_into(x, g, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn p_inv_lands_on_hyperboloid() {
        let x = [0.3, -0.5, 0.1];
        let y = poincare_to_lorentz(&x);
        assert!(lorentz::on_manifold(&y, 1e-10));
    }

    #[test]
    fn p_lands_in_ball() {
        let u = lorentz::exp_origin(&[1.5, -2.0]);
        let x = lorentz_to_poincare(&u);
        assert!(poincare::in_ball(&x));
    }

    #[test]
    fn diffeomorphisms_are_mutually_inverse() {
        let x = [0.4, 0.2, -0.3];
        let back = lorentz_to_poincare(&poincare_to_lorentz(&x));
        for (a, b) in back.iter().zip(&x) {
            assert_close(*a, *b, 1e-12);
        }
        let u = lorentz::exp_origin(&[0.8, -0.1, 0.6]);
        let back = poincare_to_lorentz(&lorentz_to_poincare(&u));
        for (a, b) in back.iter().zip(&u) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn origin_maps_to_origin() {
        let o_p = [0.0, 0.0];
        let o_h = poincare_to_lorentz(&o_p);
        assert_close(o_h[0], 1.0, 1e-15);
        assert_close(o_h[1], 0.0, 1e-15);
        let back: Vec<f64> = lorentz_to_poincare(&lorentz::origin(2));
        assert!(ops::norm(&back) < 1e-15);
    }

    #[test]
    fn maps_are_isometries() {
        // d_P(x, y) must equal d_H(p⁻¹(x), p⁻¹(y)).
        let x = [0.3, -0.2];
        let y = [-0.1, 0.55];
        let dp = poincare::distance(&x, &y);
        let dh = lorentz::distance(&poincare_to_lorentz(&x), &poincare_to_lorentz(&y));
        assert_close(dp, dh, 1e-9);
    }

    #[test]
    fn p_inv_vjp_matches_finite_differences() {
        let x = [0.31, -0.44, 0.12];
        let g = [0.7, -1.3, 0.4, 2.0];
        let grad = poincare_to_lorentz_vjp(&x, &g);
        let f = |x: &[f64]| ops::dot(&poincare_to_lorentz(x), &g);
        let h = 1e-7;
        for i in 0..3 {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            let num = (f(&xp) - f(&xm)) / (2.0 * h);
            assert_close(grad[i], num, 1e-5);
        }
    }

    #[test]
    fn into_kernels_match_allocating_wrappers_bitwise() {
        let x = [0.31, -0.44, 0.12];
        let u = poincare_to_lorentz(&x);
        let g4 = [0.7, -1.3, 0.4, 2.0];

        let mut buf3 = [0.0; 3];
        let mut buf4 = [0.0; 4];
        poincare_to_lorentz_into(&x, &mut buf4);
        assert_eq!(u, buf4);
        lorentz_to_poincare_into(&u, &mut buf3);
        assert_eq!(lorentz_to_poincare(&u), buf3);
        poincare_to_lorentz_vjp_into(&x, &g4, &mut buf3);
        assert_eq!(poincare_to_lorentz_vjp(&x, &g4), buf3);
    }
}
