//! Riemannian stochastic gradient descent (Section V-C, Eq. 16–18).
//!
//! Both hyperbolic models need their Euclidean (ambient) loss gradients
//! converted to Riemannian gradients before an exponential-map update:
//!
//! * **Poincaré**: the metric is conformal, so the Riemannian gradient is
//!   the Euclidean one rescaled by `((1 − ‖x‖²)/2)²` (the inverse metric);
//!   the update retracts with the Möbius exponential (Eq. 17).
//! * **Lorentz**: apply the inverse metric `g_L⁻¹ = diag(−1, 1, …, 1)` and
//!   project onto the tangent space at `x` (this is what the paper's
//!   `(I − X Xᵀ)∇` in Eq. 16 computes on the hyperboloid); the update uses
//!   the hyperboloid exponential (Eq. 18) followed by a re-projection.
//!
//! The steps are generic over [`Scalar`] so the optimizer runs natively in
//! either precision. Learning rates stay `f64` at the API boundary (they
//! come from the config) and are rounded into `S` once per call. The
//! Lorentz step, which the trainer runs on every updated user row and a
//! fold-in on every step, computes its update in place in one stack
//! buffer; the Poincaré steps still allocate small per-row temporaries.

use logirec_linalg::{ops, Scalar};

use crate::{hyperplane, lorentz, poincare};

/// Converts a Euclidean gradient at a Poincaré point to the Riemannian
/// gradient: `grad = ((1 − ‖x‖²)/2)² · ∇`.
pub fn poincare_riemannian_grad<S: Scalar>(x: &[S], egrad: &[S]) -> Vec<S> {
    let factor = (S::ONE - ops::norm_sq(x)).max(S::ZERO) / S::from_f64(2.0);
    ops::scaled(egrad, factor * factor)
}

/// One RSGD step on a Poincaré parameter: rescale, retract via the paper's
/// Möbius exponential (Eq. 17), and project back into the ball.
///
/// Hostile gradients never poison the point: a non-finite gradient is
/// dropped, a step whose retraction overflows keeps the old point, and the
/// final projection guarantees the result stays strictly inside the ball.
pub fn poincare_step<S: Scalar>(x: &mut [S], egrad: &[S], lr: f64) {
    if !ops::all_finite(egrad) {
        poincare::project(x);
        return;
    }
    let mut rgrad = poincare_riemannian_grad(x, egrad);
    ops::scale(&mut rgrad, S::from_f64(-lr));
    let updated = poincare::exp_map_paper(x, &rgrad);
    if ops::all_finite(&updated) {
        x.copy_from_slice(&updated);
    }
    poincare::project(x);
}

/// One RSGD step on a hyperplane defining point `c`: same as
/// [`poincare_step`] but additionally keeps `‖c‖` in the valid hyperplane
/// range (nonzero, inside the ball).
pub fn hyperplane_step<S: Scalar>(c: &mut [S], egrad: &[S], lr: f64) {
    poincare_step(c, egrad, lr);
    hyperplane::clamp_center(c);
}

/// Converts an ambient Euclidean gradient at a Lorentz point to the
/// Riemannian gradient (Eq. 16): apply `g_L⁻¹` (negate the time component),
/// then project onto the tangent space at `x`.
pub fn lorentz_riemannian_grad<S: Scalar>(x: &[S], egrad: &[S]) -> Vec<S> {
    let mut h = egrad.to_vec();
    lorentz_riemannian_grad_into(x, &mut h);
    h
}

/// [`lorentz_riemannian_grad`] in place: overwrites the ambient gradient
/// `g` with the Riemannian one.
fn lorentz_riemannian_grad_into<S: Scalar>(x: &[S], g: &mut [S]) {
    g[0] = -g[0];
    lorentz::tangent_project_into(x, g);
}

/// Ambient widths (`d + 1`) up to which [`lorentz_step`] computes its
/// update in a stack buffer; a wider row allocates one.
const STACK_WIDTH: usize = 129;

/// One RSGD step on a Lorentz parameter: Riemannian gradient, exponential
/// map along `−lr · grad` (Eq. 18), then hyperboloid re-projection.
///
/// Hostile gradients never poison the point: a non-finite gradient is
/// dropped, a step whose exponential map overflows (e.g. `cosh` of an
/// enormous tangent norm) keeps the old point, and the final projection
/// guarantees the result sits back on the sheet.
pub fn lorentz_step<S: Scalar>(x: &mut [S], egrad: &[S], lr: f64) {
    if !ops::all_finite(egrad) {
        lorentz::project(x);
        return;
    }
    let mut stack = [S::ZERO; STACK_WIDTH];
    let mut heap = Vec::new();
    let updated = if x.len() <= STACK_WIDTH {
        &mut stack[..x.len()]
    } else {
        heap.resize(x.len(), S::ZERO);
        &mut heap[..]
    };
    // Gradient → Riemannian gradient → step → point, each in place.
    updated.copy_from_slice(egrad);
    lorentz_riemannian_grad_into(x, updated);
    ops::scale(updated, S::from_f64(-lr));
    lorentz::exp_point_into(x, updated);
    if ops::all_finite(updated) {
        x.copy_from_slice(updated);
    } else {
        lorentz::project(x);
    }
}

/// Plain Euclidean SGD step, used by the Euclidean baselines and the
/// "w/o Hyper" ablation so every method shares one optimizer surface.
/// Non-finite gradients are dropped, matching the Riemannian steps.
pub fn euclidean_step<S: Scalar>(x: &mut [S], egrad: &[S], lr: f64) {
    if !ops::all_finite(egrad) {
        return;
    }
    ops::axpy(S::from_f64(-lr), egrad, x);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimizing d_P(x, target)² by RSGD should converge to the target.
    #[test]
    fn poincare_rsgd_converges_to_target() {
        let target = [0.4, -0.3];
        let mut x = vec![0.01, 0.02];
        for _ in 0..500 {
            let d = poincare::distance(&x, &target);
            let (gx, _) = poincare::distance_vjp(&x, &target, 2.0 * d);
            poincare_step(&mut x, &gx, 0.05);
        }
        assert!(
            poincare::distance(&x, &target) < 1e-3,
            "converged to {x:?}, d = {}",
            poincare::distance(&x, &target)
        );
    }

    /// Minimizing d_H(x, target)² by Lorentz RSGD should converge too, and
    /// every iterate must stay on the hyperboloid.
    #[test]
    fn lorentz_rsgd_converges_and_stays_on_manifold() {
        let target = lorentz::exp_origin(&[0.8, -0.5]);
        let mut x = lorentz::origin(2);
        for _ in 0..500 {
            let d = lorentz::distance(&x, &target);
            let (gx, _) = lorentz::distance_vjp(&x, &target, 2.0 * d);
            lorentz_step(&mut x, &gx, 0.05);
            assert!(lorentz::on_manifold(&x, 1e-9), "left the manifold: {x:?}");
        }
        assert!(lorentz::distance(&x, &target) < 1e-3);
    }

    #[test]
    fn hyperplane_step_keeps_center_valid() {
        let mut c = vec![0.002, 0.0];
        // A gradient pushing the center through the origin.
        let g = vec![10.0, 0.0];
        for _ in 0..50 {
            hyperplane_step(&mut c, &g, 0.1);
            let n = ops::norm(&c);
            assert!(
                (hyperplane::MIN_CENTER_NORM - 1e-12..=1.0).contains(&n),
                "center norm escaped: {n}"
            );
        }
    }

    #[test]
    fn riemannian_grad_shrinks_near_boundary() {
        let g = [1.0, 0.0];
        let near_center = poincare_riemannian_grad(&[0.0, 0.0], &g);
        let near_edge = poincare_riemannian_grad(&[0.99, 0.0], &g);
        assert!(ops::norm(&near_center) > ops::norm(&near_edge) * 100.0);
    }

    #[test]
    fn lorentz_riemannian_grad_is_tangent() {
        let x = lorentz::exp_origin(&[0.3, 0.7, -0.2]);
        let egrad = vec![0.5, -1.0, 0.25, 2.0];
        let r = lorentz_riemannian_grad(&x, &egrad);
        assert!(lorentz::inner(&x, &r).abs() < 1e-12);
    }

    #[test]
    fn euclidean_step_is_plain_sgd() {
        let mut x = vec![1.0, 2.0];
        euclidean_step(&mut x, &[0.5, -0.5], 0.1);
        assert_eq!(x, vec![0.95, 2.05]);
    }

    #[test]
    fn f32_steps_preserve_manifold_invariants() {
        let target: Vec<f32> = lorentz::exp_origin(&[0.6f32, -0.4]);
        let mut x: Vec<f32> = lorentz::origin(2);
        for _ in 0..200 {
            let d = lorentz::distance(&x, &target);
            let (gx, _) = lorentz::distance_vjp(&x, &target, 2.0f32 * d);
            lorentz_step(&mut x, &gx, 0.05);
            assert!(lorentz::on_manifold(&x, 1e-4), "left the manifold: {x:?}");
        }
        assert!(lorentz::distance(&x, &target) < 1e-2);

        let mut p = vec![0.01f32, 0.02];
        let ptarget = [0.4f32, -0.3];
        for _ in 0..300 {
            let d = poincare::distance(&p, &ptarget);
            let (gp, _) = poincare::distance_vjp(&p, &ptarget, 2.0f32 * d);
            poincare_step(&mut p, &gp, 0.05);
            assert!(poincare::in_ball(&p));
        }
        assert!(poincare::distance(&p, &ptarget) < 1e-2);
    }
}
