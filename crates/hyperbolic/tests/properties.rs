//! Property-based tests for the hyperbolic geometry substrate.
//!
//! These check the metric axioms, manifold invariants, inverse-map
//! relationships, and — crucially — that every analytic VJP matches central
//! finite differences on random inputs. The finite-difference checks are
//! what let the model crates chain these kernels without an autodiff engine.

use logirec_hyperbolic::{hyperplane, lorentz, maps, poincare, rsgd, Ball};
use logirec_linalg::ops;
use proptest::prelude::*;

const DIM: usize = 4;

/// Random point comfortably inside the Poincaré ball.
fn ball_point() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-0.35f64..0.35, DIM)
}

/// Random tangent coordinates for Lorentz points.
fn tangent() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1.5f64..1.5, DIM)
}

/// Random hyperplane center with norm in a safe range.
fn center() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-0.5f64..0.5, DIM).prop_filter("norm in (0.05, 0.87)", |c| {
        let n = ops::norm(c);
        (0.05..0.87).contains(&n)
    })
}

fn fd_grad(f: impl Fn(&[f64]) -> f64, x: &[f64], h: f64) -> Vec<f64> {
    (0..x.len())
        .map(|i| {
            let mut xp = x.to_vec();
            let mut xm = x.to_vec();
            xp[i] += h;
            xm[i] -= h;
            (f(&xp) - f(&xm)) / (2.0 * h)
        })
        .collect()
}

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.iter().zip(b).all(|(x, y)| (x - y).abs() < tol * (1.0 + x.abs().max(y.abs())))
}

proptest! {
    #[test]
    fn poincare_metric_axioms(x in ball_point(), y in ball_point(), z in ball_point()) {
        let dxy = poincare::distance(&x, &y);
        let dyx = poincare::distance(&y, &x);
        prop_assert!((dxy - dyx).abs() < 1e-10, "symmetry");
        prop_assert!(dxy >= 0.0, "non-negativity");
        prop_assert!(poincare::distance(&x, &x) < 1e-9, "identity");
        let dxz = poincare::distance(&x, &z);
        let dzy = poincare::distance(&z, &y);
        prop_assert!(dxy <= dxz + dzy + 1e-9, "triangle inequality");
    }

    #[test]
    fn lorentz_metric_axioms(za in tangent(), zb in tangent(), zc in tangent()) {
        let a = lorentz::exp_origin(&za);
        let b = lorentz::exp_origin(&zb);
        let c = lorentz::exp_origin(&zc);
        prop_assert!(lorentz::on_manifold(&a, 1e-9));
        let dab = lorentz::distance(&a, &b);
        prop_assert!((dab - lorentz::distance(&b, &a)).abs() < 1e-10);
        prop_assert!(lorentz::distance(&a, &a) < 1e-6);
        prop_assert!(dab <= lorentz::distance(&a, &c) + lorentz::distance(&c, &b) + 1e-8);
    }

    #[test]
    fn diffeomorphisms_invert_and_preserve_distance(x in ball_point(), y in ball_point()) {
        let lx = maps::poincare_to_lorentz(&x);
        let ly = maps::poincare_to_lorentz(&y);
        prop_assert!(lorentz::on_manifold(&lx, 1e-9));
        // Isometry.
        let dp = poincare::distance(&x, &y);
        let dh = lorentz::distance(&lx, &ly);
        prop_assert!((dp - dh).abs() < 1e-8, "isometry: {dp} vs {dh}");
        // Round trip.
        let back = maps::lorentz_to_poincare(&lx);
        prop_assert!(close(&back, &x, 1e-9));
    }

    #[test]
    fn lorentz_exp_log_inverse(z in tangent()) {
        let u = lorentz::exp_origin(&z);
        let back = lorentz::log_origin(&u);
        prop_assert!(close(&back, &z, 1e-7));
        // And geodesic unit speed: d(o, exp_o(z)) = ‖z‖.
        let d = lorentz::distance_to_origin(&u);
        prop_assert!((d - ops::norm(&z)).abs() < 1e-8);
    }

    #[test]
    fn poincare_distance_vjp_is_correct(x in ball_point(), y in ball_point()) {
        // Avoid the non-differentiable diagonal.
        prop_assume!(ops::dist(&x, &y) > 1e-3);
        let (gx, gy) = poincare::distance_vjp(&x, &y, 1.0);
        let fx = fd_grad(|x| poincare::distance(x, &y), &x, 1e-6);
        let fy = fd_grad(|y| poincare::distance(&x, y), &y, 1e-6);
        prop_assert!(close(&gx, &fx, 1e-4), "{gx:?} vs {fx:?}");
        prop_assert!(close(&gy, &fy, 1e-4), "{gy:?} vs {fy:?}");
    }

    #[test]
    fn lorentz_chain_vjp_is_correct(za in tangent(), zb in tangent()) {
        prop_assume!(ops::dist(&za, &zb) > 1e-3);
        let y = lorentz::exp_origin(&zb);
        let f = |z: &[f64]| lorentz::distance(&lorentz::exp_origin(z), &y);
        let x = lorentz::exp_origin(&za);
        let (gx, _) = lorentz::distance_vjp(&x, &y, 1.0);
        let gz = lorentz::exp_origin_vjp(&za, &gx);
        let fd = fd_grad(f, &za, 1e-6);
        prop_assert!(close(&gz, &fd, 1e-4), "{gz:?} vs {fd:?}");
    }

    #[test]
    fn log_origin_vjp_chain_is_identity(z in tangent(), w in tangent()) {
        prop_assume!(ops::norm(&z) > 1e-3);
        // log_o(exp_o(z)) = z ⇒ chained VJP of w must return w.
        let u = lorentz::exp_origin(&z);
        let g_ambient = lorentz::log_origin_vjp(&u, &w);
        let g = lorentz::exp_origin_vjp(&z, &g_ambient);
        prop_assert!(close(&g, &w, 1e-6), "{g:?} vs {w:?}");
    }

    #[test]
    fn p_inv_vjp_is_correct(x in ball_point(), w in tangent()) {
        let mut g = vec![0.5; DIM + 1];
        g[1..].copy_from_slice(&w);
        let f = |x: &[f64]| ops::dot(&maps::poincare_to_lorentz(x), &g);
        let grad = maps::poincare_to_lorentz_vjp(&x, &g);
        let fd = fd_grad(f, &x, 1e-7);
        prop_assert!(close(&grad, &fd, 1e-4), "{grad:?} vs {fd:?}");
    }

    #[test]
    fn ball_vjp_is_correct(c in center(), g_o in tangent(), g_r in -1.0f64..1.0) {
        let f = |c: &[f64]| {
            let b = Ball::from_center(c);
            ops::dot(&b.center, &g_o) + g_r * b.radius
        };
        let grad = hyperplane::ball_vjp(&c, &g_o, g_r);
        let fd = fd_grad(f, &c, 1e-7);
        prop_assert!(close(&grad, &fd, 1e-4), "{grad:?} vs {fd:?}");
    }

    #[test]
    fn enclosing_ball_orthogonality(c in center()) {
        let b = Ball::from_center(&c);
        let lhs = ops::norm_sq(&b.center);
        let rhs = 1.0 + b.radius * b.radius;
        prop_assert!((lhs - rhs).abs() < 1e-8, "‖o‖² = 1 + r²: {lhs} vs {rhs}");
        // The defining point sits on the carrier sphere.
        prop_assert!((ops::dist(&c, &b.center) - b.radius).abs() < 1e-8);
    }

    #[test]
    fn mobius_add_stays_in_ball(x in ball_point(), y in ball_point()) {
        let z = poincare::mobius_add(&x, &y);
        prop_assert!(ops::norm(&z) < 1.0);
    }

    #[test]
    fn poincare_step_survives_hostile_gradients(
        x0 in prop::collection::vec(-5.0f64..5.0, DIM),
        g in prop::collection::vec(-1e300f64..1e300, DIM),
        lr in 1e-4f64..10.0,
    ) {
        // Any in-ball starting point (including right at the clipped
        // boundary) stepped with an arbitrarily huge gradient must land
        // strictly inside the ball with finite coordinates.
        let mut x = x0;
        poincare::project(&mut x);
        rsgd::poincare_step(&mut x, &g, lr);
        prop_assert!(ops::all_finite(&x), "{x:?}");
        prop_assert!(poincare::in_ball(&x), "‖x‖ = {}", ops::norm(&x));
    }

    #[test]
    fn lorentz_step_survives_hostile_gradients(
        z in tangent(),
        g in prop::collection::vec(-1e300f64..1e300, DIM + 1),
        lr in 1e-4f64..10.0,
    ) {
        let mut x = lorentz::exp_origin(&z);
        rsgd::lorentz_step(&mut x, &g, lr);
        prop_assert!(ops::all_finite(&x), "{x:?}");
        // The sheet constraint ⟨x,x⟩_L = −1 is subject to catastrophic
        // cancellation when the step legitimately lands far from the
        // origin, so the tolerance scales with the coordinate magnitude.
        let tol = 1e-6 * ops::norm_sq(&x).max(1.0);
        prop_assert!(lorentz::on_manifold(&x, tol), "{x:?}");
    }

    #[test]
    fn hyperplane_step_survives_hostile_gradients(
        c0 in prop::collection::vec(-5.0f64..5.0, DIM),
        g in prop::collection::vec(-1e300f64..1e300, DIM),
        lr in 1e-4f64..10.0,
    ) {
        let mut c = c0;
        hyperplane::clamp_center(&mut c);
        rsgd::hyperplane_step(&mut c, &g, lr);
        prop_assert!(ops::all_finite(&c), "{c:?}");
        let n = ops::norm(&c);
        prop_assert!((hyperplane::MIN_CENTER_NORM - 1e-12..1.0).contains(&n), "norm {n}");
    }

    #[test]
    fn rsgd_steps_preserve_manifolds(z in tangent(), g in tangent(), lr in 0.001f64..0.5) {
        // Lorentz step.
        let mut x = lorentz::exp_origin(&z);
        let mut ga = vec![0.3; DIM + 1];
        ga[1..].copy_from_slice(&g);
        rsgd::lorentz_step(&mut x, &ga, lr);
        prop_assert!(lorentz::on_manifold(&x, 1e-8), "{x:?}");
        // Poincaré step.
        let mut p = ops::scaled(&z, 0.2);
        poincare::project(&mut p);
        rsgd::poincare_step(&mut p, &g, lr);
        prop_assert!(poincare::in_ball(&p));
        // Hyperplane step keeps the center valid.
        let mut c = ops::scaled(&z, 0.2);
        hyperplane::clamp_center(&mut c);
        rsgd::hyperplane_step(&mut c, &g, lr);
        let n = ops::norm(&c);
        prop_assert!((hyperplane::MIN_CENTER_NORM - 1e-12..1.0).contains(&n));
    }
}

/// Deterministic non-finite-gradient cases (NaN, ±Inf, and a mix): every
/// step must leave the parameter finite and on its manifold.
#[test]
fn rsgd_steps_absorb_non_finite_gradients() {
    type Poison = fn(&mut [f64]);
    let patterns: [Poison; 4] = [
        |g| g[0] = f64::NAN,
        |g| g[1] = f64::INFINITY,
        |g| g[2] = f64::NEG_INFINITY,
        |g| {
            g[0] = f64::NAN;
            g[3] = f64::INFINITY;
        },
    ];
    for (i, poison) in patterns.iter().enumerate() {
        let mut g = vec![0.25; DIM];
        poison(&mut g);

        let mut p = vec![0.1, -0.2, 0.05, 0.15];
        rsgd::poincare_step(&mut p, &g, 0.1);
        assert!(ops::all_finite(&p) && poincare::in_ball(&p), "case {i}: {p:?}");

        let mut c = vec![0.3, 0.1, -0.2, 0.05];
        hyperplane::clamp_center(&mut c);
        rsgd::hyperplane_step(&mut c, &g, 0.1);
        let n = ops::norm(&c);
        assert!(
            ops::all_finite(&c) && (hyperplane::MIN_CENTER_NORM - 1e-12..1.0).contains(&n),
            "case {i}: norm {n}"
        );

        let mut gl = vec![0.25; DIM + 1];
        poison(&mut gl);
        let mut x = lorentz::exp_origin(&[0.4, -0.6, 0.2, 0.1]);
        rsgd::lorentz_step(&mut x, &gl, 0.1);
        assert!(
            ops::all_finite(&x) && lorentz::on_manifold(&x, 1e-9),
            "case {i}: {x:?}"
        );

        let mut e = vec![1.0, 2.0, 3.0, 4.0];
        let before = e.clone();
        rsgd::euclidean_step(&mut e, &g, 0.1);
        assert_eq!(e, before, "case {i}: euclidean step must drop the gradient");
    }
}
