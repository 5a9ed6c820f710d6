//! The Lorentz (hyperboloid) model
//! `H^d = { x ∈ R^{d+1} : ⟨x,x⟩_L = −1, x₀ > 0 }`.
//!
//! Note on the sign convention: the paper (Section III-A) writes the
//! constraint as `⟨x,x⟩_L = 1`, but with its own inner product
//! `⟨x,y⟩_L = −x₀y₀ + Σ xᵢyᵢ` the hyperboloid satisfies `⟨x,x⟩_L = −1`
//! (e.g. the origin `o = (1,0,…,0)` has `⟨o,o⟩_L = −1`). We use the standard
//! `⟨x,x⟩_L = −1` form, which also makes the distance
//! `d_H(x,y) = acosh(−⟨x,y⟩_L)` (the paper's Eq. 9 expands to exactly this).
//!
//! Vectors are stored as `d+1` ambient coordinates with the time component
//! first. Tangent vectors at the origin have time component zero, so the GCN
//! in `logirec-core` stores only their `d` spatial components.
//!
//! Every kernel is generic over [`Scalar`] and the hot ones exist in two
//! forms: a `*_into` variant that writes into a caller-owned buffer (the
//! training loop reuses per-shard scratch, so the inner loop never touches
//! the allocator) and a thin allocating wrapper with the historical
//! signature. The `f64` instantiation performs bit-identical arithmetic to
//! the pre-generic code.

use logirec_linalg::{ops, Scalar};

use crate::MIN_NORM;

/// Lorentzian inner product `⟨x,y⟩_L = −x₀y₀ + Σ_{i≥1} xᵢyᵢ`.
#[inline]
pub fn inner<S: Scalar>(x: &[S], y: &[S]) -> S {
    debug_assert_eq!(x.len(), y.len());
    -x[0] * y[0] + ops::dot(&x[1..], &y[1..])
}

/// The hyperboloid origin `o = (1, 0, …, 0)` in `d+1` ambient coordinates.
pub fn origin<S: Scalar>(dim: usize) -> Vec<S> {
    let mut o = vec![S::ZERO; dim + 1];
    o[0] = S::ONE;
    o
}

/// Projects ambient coordinates onto the hyperboloid by recomputing the time
/// component from the spatial ones: `x₀ = sqrt(1 + ‖x₁..d‖²)`.
///
/// This is the cheap retraction applied after every Lorentz RSGD step to
/// absorb floating-point drift off the manifold.
pub fn project<S: Scalar>(x: &mut [S]) {
    x[0] = (S::ONE + ops::norm_sq(&x[1..])).sqrt();
}

/// True when `x` lies on the hyperboloid up to tolerance.
pub fn on_manifold<S: Scalar>(x: &[S], tol: f64) -> bool {
    x[0] > S::ZERO && (inner(x, x) + S::ONE).abs().to_f64() <= tol
}

/// How many times the derived rounding bound of [`on_sheet`] is wide.
const SHEET_MARGIN: f64 = 2.0;

/// True when a computed point `x` lies on the hyperboloid up to the
/// rounding of precision `S`: `|⟨x, x⟩_L + 1|` is at most
/// `SHEET_MARGIN·(n + 1)·ε·(1 + x₀²)` with `n = x.len()`, the largest value
/// rounding alone can leave, floored at `1e-6` so that every point a fixed
/// `1e-6` tolerance accepts is accepted.
///
/// A fixed tolerance is wrong far from the origin: the terms of the
/// Minkowski form have magnitude `x₀²`, so its rounding grows with `x₀²`
/// (item finals of a trained paper-scale model reach `x₀ ≈ 5·10⁴`, where
/// one `f32` ulp of `x₀²` is 256).
///
/// Let `u = ε/2` be the unit roundoff of `S`, `s = ‖x_s‖²` the spatial
/// part, and `γ_m = m·u/(1 − m·u)` the bound of an `m`-term dot product in
/// any summation order. The RSGD step retracts by recomputing
/// `x₀ = √(1 + ‖x_s‖²)` ([`project`]): the computed `‖x_s‖²` is within
/// `γ_{n−1}·s`, and the roundings of `1 +` and of `√` (doubled in `x₀²`)
/// add `3u(1 + s)`, so the stored point has
/// `|⟨x, x⟩_L + 1| ≤ γ_{n−1}·s + 3u(1 + s)`. The check then evaluates
/// `−x₀·x₀ + ‖x_s‖² + 1`: the product adds `u·x₀²`, the dot product
/// `γ_{n−1}·s`, and the two additions `O(u)`, since their sum is near −1.
/// With `s < x₀² = 1 + s` the total is at most `(n + 1)·ε·x₀²` to first
/// order. A point no step moved is an [`exp_origin`] image, whose `cosh` /
/// `sinh` / normalization roundings are bounded the same way by a few
/// `ε·x₀²`; `SHEET_MARGIN` absorbs those and the second-order terms. A
/// point moved off the sheet by more than this is still rejected.
pub fn on_sheet<S: Scalar>(x: &[S]) -> bool {
    on_manifold(x, sheet_tolerance::<S>(x))
}

/// The tolerance [`on_sheet`] allows `x`.
fn sheet_tolerance<S: Scalar>(x: &[S]) -> f64 {
    let x0 = x[0].to_f64();
    let eps = S::EPSILON.to_f64();
    (SHEET_MARGIN * (x.len() as f64 + 1.0) * eps * (1.0 + x0 * x0)).max(1e-6)
}

/// Lorentz distance `d_H(x,y) = acosh(−⟨x,y⟩_L)` (Section III-A / Eq. 9).
///
/// ```
/// use logirec_hyperbolic::lorentz;
/// let x: Vec<f64> = lorentz::exp_origin(&[0.6, 0.8]); // distance 1 from the origin
/// assert!((lorentz::distance(&lorentz::origin(2), &x) - 1.0).abs() < 1e-9);
/// ```
pub fn distance<S: Scalar>(x: &[S], y: &[S]) -> S {
    ops::acosh_clamped(-inner(x, y))
}

/// Distance to the origin: `acosh(x₀)` — the granularity score GR (Eq. 13).
#[inline]
pub fn distance_to_origin<S: Scalar>(x: &[S]) -> S {
    ops::acosh_clamped(x[0])
}

/// [`distance_vjp`] writing into caller buffers `gx`/`gy` (each `d+1` long;
/// every element is overwritten, so the buffers need not be zeroed).
pub fn distance_vjp_into<S: Scalar>(x: &[S], y: &[S], upstream: S, gx: &mut [S], gy: &mut [S]) {
    debug_assert_eq!(gx.len(), x.len());
    debug_assert_eq!(gy.len(), y.len());
    let s = -inner(x, y);
    let ds = upstream / ((s * s - S::ONE).sqrt()).max(S::from_f64(MIN_NORM));
    gx[0] = ds * y[0];
    gy[0] = ds * x[0];
    for i in 1..x.len() {
        gx[i] = -ds * y[i];
        gy[i] = -ds * x[i];
    }
}

/// Ambient Euclidean gradients of [`distance`] w.r.t. both arguments, scaled
/// by `upstream`.
///
/// With `s = −⟨x,y⟩_L`, `d = acosh(s)` and `∂s/∂x = (y₀, −y₁, …, −y_d)`.
/// Feed the results through [`crate::rsgd::lorentz_step`], which converts
/// ambient gradients to Riemannian ones (Eq. 16).
pub fn distance_vjp<S: Scalar>(x: &[S], y: &[S], upstream: S) -> (Vec<S>, Vec<S>) {
    let mut gx = vec![S::ZERO; x.len()];
    let mut gy = vec![S::ZERO; y.len()];
    distance_vjp_into(x, y, upstream, &mut gx, &mut gy);
    (gx, gy)
}

/// [`exp_origin`] writing into a caller buffer (`z.len() + 1` long).
pub fn exp_origin_into<S: Scalar>(z: &[S], out: &mut [S]) {
    debug_assert_eq!(out.len(), z.len() + 1);
    let n = ops::norm(z);
    out[0] = n.cosh();
    let scale = sinhc(n);
    for (o, zi) in out[1..].iter_mut().zip(z) {
        *o = scale * *zi;
    }
}

/// Exponential map at the origin (Eq. 8), taking the **spatial** tangent
/// coordinates `z ∈ R^d` (the time component of a tangent vector at `o` is
/// zero) to a point on `H^d` in `d+1` ambient coordinates:
///
/// `exp_o(z) = (cosh‖z‖, sinh(‖z‖)·z/‖z‖)`.
pub fn exp_origin<S: Scalar>(z: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; z.len() + 1];
    exp_origin_into(z, &mut out);
    out
}

/// [`log_origin`] writing into a caller buffer (`u.len() − 1` long).
pub fn log_origin_into<S: Scalar>(u: &[S], out: &mut [S]) {
    debug_assert_eq!(out.len() + 1, u.len());
    let us = &u[1..];
    let m = ops::norm(us);
    if m < S::from_f64(MIN_NORM) {
        out.copy_from_slice(us);
        return;
    }
    let a = ops::acosh_clamped(u[0]);
    let k = a / m;
    for (o, ui) in out.iter_mut().zip(us) {
        *o = k * *ui;
    }
}

/// Logarithmic map at the origin (Eq. 6), returning the spatial tangent
/// coordinates `z ∈ R^d` of `log_o(u)`:
///
/// `log_o(u) = acosh(u₀) · u_s / ‖u_s‖`, where `u_s` are the spatial
/// coordinates (the general formula in Eq. 6 reduces to this at `o`).
pub fn log_origin<S: Scalar>(u: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; u.len() - 1];
    log_origin_into(u, &mut out);
    out
}

/// [`exp_origin_vjp`] writing into a caller buffer (`z.len()` long; every
/// element is overwritten).
pub fn exp_origin_vjp_into<S: Scalar>(z: &[S], g: &[S], out: &mut [S]) {
    debug_assert_eq!(g.len(), z.len() + 1);
    debug_assert_eq!(out.len(), z.len());
    let n = ops::norm(z);
    let gs = &g[1..];
    if n < S::from_f64(MIN_NORM) {
        // exp_o(z) ≈ (1 + n²/2, z): d(out₀)/dz ≈ z → 0, spatial Jacobian ≈ I.
        out.copy_from_slice(gs);
        return;
    }
    let sh = n.sinh();
    let ch = n.cosh();
    let shc = sh / n;
    // ∂out₀/∂z_j  = sinh(n)·z_j/n
    // ∂out_i/∂z_j = (sinh n / n) δ_ij + z_i z_j (n cosh n − sinh n)/n³
    let zdotg = ops::dot(z, gs);
    let k = (n * ch - sh) / (n * n * n);
    for (o, gi) in out.iter_mut().zip(gs) {
        *o = shc * *gi;
    }
    let coeff = g[0] * shc + zdotg * k;
    ops::axpy(coeff, z, out);
    // The g[0]·sinh(n)/n·z_j term is folded in via `coeff` above:
    // coeff·z_j = g₀·(sinh n/n)·z_j + (z·g_s)·k·z_j.
}

/// VJP of [`exp_origin`]: given the ambient gradient `g ∈ R^{d+1}` w.r.t.
/// the output point, returns the gradient w.r.t. the spatial tangent input
/// `z ∈ R^d`.
pub fn exp_origin_vjp<S: Scalar>(z: &[S], g: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; z.len()];
    exp_origin_vjp_into(z, g, &mut out);
    out
}

/// [`log_origin_vjp`] writing into a caller buffer (`u.len()` long; every
/// element is overwritten).
pub fn log_origin_vjp_into<S: Scalar>(u: &[S], g: &[S], out: &mut [S]) {
    debug_assert_eq!(g.len() + 1, u.len());
    debug_assert_eq!(out.len(), u.len());
    let us = &u[1..];
    let m = ops::norm(us);
    if m < S::from_f64(MIN_NORM) {
        // Near the origin log_o(u) ≈ u_s.
        out[0] = S::ZERO;
        out[1..].copy_from_slice(g);
        return;
    }
    let a = ops::acosh_clamped(u[0]);
    // ∂z_j/∂u₀ = u_j / (m·sqrt(u₀²−1))
    let root = (u[0] * u[0] - S::ONE).sqrt().max(S::from_f64(MIN_NORM));
    let udotg = ops::dot(us, g);
    out[0] = udotg / (m * root);
    // ∂z_j/∂u_i = a(δ_ij/m − u_i u_j/m³)
    let am = a / m;
    let am3 = a / (m * m * m);
    for i in 0..g.len() {
        out[i + 1] = am * g[i] - am3 * udotg * us[i];
    }
}

/// VJP of [`log_origin`]: given the gradient `g ∈ R^d` w.r.t. the tangent
/// output, returns the **ambient** gradient w.r.t. the input point
/// `u ∈ R^{d+1}`.
pub fn log_origin_vjp<S: Scalar>(u: &[S], g: &[S]) -> Vec<S> {
    let mut out = vec![S::ZERO; u.len()];
    log_origin_vjp_into(u, g, &mut out);
    out
}

/// Exponential map at an arbitrary point `x ∈ H^d` (Eq. 18):
/// `exp_x(v) = cosh(‖v‖_L)·x + sinh(‖v‖_L)·v/‖v‖_L`,
/// where `v` is a tangent vector at `x` (so `⟨x,v⟩_L = 0` and
/// `‖v‖_L = sqrt(⟨v,v⟩_L)` is real).
pub fn exp_point<S: Scalar>(x: &[S], v: &[S]) -> Vec<S> {
    let vv = inner(v, v).max(S::ZERO);
    let n = vv.sqrt();
    if n < S::from_f64(MIN_NORM) {
        return x.to_vec();
    }
    let mut out = ops::scaled(x, n.cosh());
    ops::axpy(n.sinh() / n, v, &mut out);
    project(&mut out);
    out
}

/// Projects an ambient vector `h` onto the tangent space at `x`:
/// `proj_x(h) = h + ⟨x,h⟩_L · x`.
pub fn tangent_project<S: Scalar>(x: &[S], h: &[S]) -> Vec<S> {
    let xh = inner(x, h);
    let mut out = h.to_vec();
    ops::axpy(xh, x, &mut out);
    out
}

/// `sinh(n)/n`, with the Taylor limit at small `n`.
#[inline]
fn sinhc<S: Scalar>(n: S) -> S {
    if n < S::from_f64(1e-6) {
        S::ONE + n * n / S::from_f64(6.0)
    } else {
        n.sinh() / n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn origin_is_on_manifold() {
        let o: Vec<f64> = origin(5);
        assert!(on_manifold(&o, 1e-12));
        assert_close(inner(&o, &o), -1.0, 1e-15);
    }

    #[test]
    fn sheet_check_allows_rounding_and_rejects_real_drift() {
        fn check<S: Scalar>() {
            // |z| ≈ 11, so x₀ = cosh|z| ≈ 3·10⁴.
            let z: Vec<S> = (0..8).map(|i| S::from_f64(3.8 + 0.02 * i as f64)).collect();
            let mut x = exp_origin(&z);
            assert!(x[0].to_f64() > 2e4);
            assert!(on_sheet(&x), "exp₀ point off the sheet beyond rounding");
            project(&mut x);
            assert!(on_sheet(&x), "retracted point off the sheet beyond rounding");
            let mut drifted = x.clone();
            drifted[0] *= S::from_f64(1.0 + 1e-3);
            assert!(!on_sheet(&drifted), "time coordinate 0.1% off the sheet accepted");
            let mut drifted = x;
            drifted[1] *= S::from_f64(1.05);
            assert!(!on_sheet(&drifted), "spatial coordinate 5% off the sheet accepted");
        }
        check::<f64>();
        check::<f32>();
        // Near the origin the fixed floor still applies.
        assert_eq!(sheet_tolerance(&exp_origin(&[0.1f64; 8])), 1e-6);
    }

    #[test]
    fn project_restores_constraint() {
        let mut x = vec![0.0, 0.5, -1.25, 2.0];
        project(&mut x);
        assert!(on_manifold(&x, 1e-12));
    }

    #[test]
    fn exp_origin_lands_on_manifold() {
        let z = [0.7, -0.3, 1.2];
        let u = exp_origin(&z);
        assert!(on_manifold(&u, 1e-10));
    }

    #[test]
    fn exp_log_origin_roundtrip() {
        let z = [0.4, -0.9, 0.05, 1.3];
        let u = exp_origin(&z);
        let back = log_origin(&u);
        for (a, b) in back.iter().zip(&z) {
            assert_close(*a, *b, 1e-9);
        }
    }

    #[test]
    fn log_origin_of_origin_is_zero() {
        let o: Vec<f64> = origin(3);
        let z = log_origin(&o);
        assert!(ops::norm(&z) < 1e-12);
    }

    #[test]
    fn distance_properties() {
        let z1 = [0.2, 0.3];
        let z2 = [-0.5, 0.7];
        let x = exp_origin(&z1);
        let y = exp_origin(&z2);
        assert_close(distance(&x, &x), 0.0, 1e-7);
        assert_close(distance(&x, &y), distance(&y, &x), 1e-12);
        assert!(distance(&x, &y) > 0.0);
    }

    #[test]
    fn distance_to_origin_equals_tangent_norm() {
        // d(o, exp_o(z)) = ‖z‖: geodesics from the origin have unit speed.
        let z = [0.6, -0.8]; // ‖z‖ = 1
        let u = exp_origin(&z);
        assert_close(distance_to_origin(&u), 1.0, 1e-10);
        assert_close(distance(&origin(2), &u), 1.0, 1e-10);
    }

    #[test]
    fn triangle_inequality_holds() {
        let a = exp_origin(&[0.1, 0.9]);
        let b = exp_origin(&[-0.4, 0.2]);
        let c = exp_origin(&[1.1, -0.3]);
        assert!(distance(&a, &c) <= distance(&a, &b) + distance(&b, &c) + 1e-9);
    }

    #[test]
    fn distance_vjp_matches_finite_differences_in_tangent_coords() {
        // Differentiate through exp_origin ∘ distance so perturbations stay
        // on the manifold.
        let za = [0.3, -0.2, 0.5];
        let zb = [-0.1, 0.4, 0.2];
        let x = exp_origin(&za);
        let y = exp_origin(&zb);
        let (gx, _gy) = distance_vjp(&x, &y, 1.0);
        let gz = exp_origin_vjp(&za, &gx);
        let h = 1e-6;
        for i in 0..3 {
            let mut zp = za.to_vec();
            let mut zm = za.to_vec();
            zp[i] += h;
            zm[i] -= h;
            let num =
                (distance(&exp_origin(&zp), &y) - distance(&exp_origin(&zm), &y)) / (2.0 * h);
            assert_close(gz[i], num, 1e-5);
        }
    }

    #[test]
    fn log_origin_vjp_matches_finite_differences() {
        // Scalar function f(z) = w · log_o(exp_o(z)²-ish chain): perturb in
        // tangent coordinates, map through exp, then log, then dot with w.
        let z0 = [0.25, -0.7, 0.4];
        let w = [1.0, -2.0, 0.5];
        let f = |z: &[f64]| {
            let u = exp_origin(z);
            ops::dot(&log_origin(&u), &w)
        };
        let u0 = exp_origin(&z0);
        let g_ambient = log_origin_vjp(&u0, &w);
        let g_tangent = exp_origin_vjp(&z0, &g_ambient);
        let h = 1e-6;
        for i in 0..3 {
            let mut zp = z0.to_vec();
            let mut zm = z0.to_vec();
            zp[i] += h;
            zm[i] -= h;
            let num = (f(&zp) - f(&zm)) / (2.0 * h);
            assert_close(g_tangent[i], num, 1e-5);
        }
        // And since log ∘ exp = id, the chained gradient must equal w.
        for (a, b) in g_tangent.iter().zip(&w) {
            assert_close(*a, *b, 1e-8);
        }
    }

    #[test]
    fn exp_point_follows_geodesic() {
        let x = origin(2);
        // Tangent at origin with time component 0.
        let v = vec![0.0, 0.3, 0.4]; // ‖v‖_L = 0.5
        let y = exp_point(&x, &v);
        assert!(on_manifold(&y, 1e-10));
        assert_close(distance(&x, &y), 0.5, 1e-10);
    }

    #[test]
    fn tangent_project_gives_orthogonal_vector() {
        let x = exp_origin(&[0.5, -0.2]);
        let h = vec![0.3, 1.0, -0.7];
        let v = tangent_project(&x, &h);
        assert_close(inner(&x, &v), 0.0, 1e-12);
    }

    #[test]
    fn exp_origin_vjp_small_norm_limit() {
        let z = [1e-12, 0.0];
        let g = [0.5, 1.0, 2.0];
        let gz = exp_origin_vjp(&z, &g);
        assert_close(gz[0], 1.0, 1e-9);
        assert_close(gz[1], 2.0, 1e-9);
    }

    #[test]
    fn into_kernels_match_allocating_wrappers_bitwise() {
        let z = [0.45, -0.85, 0.1];
        let u = exp_origin(&z);
        let g4 = [0.2, -0.6, 1.1, 0.3];
        let g3 = [0.9, -0.4, 0.7];

        let mut buf4a = [0.0; 4];
        let mut buf4b = [0.0; 4];
        let (gx, gy) = distance_vjp(&u, &exp_origin(&g3), 0.8);
        distance_vjp_into(&u, &exp_origin(&g3), 0.8, &mut buf4a, &mut buf4b);
        assert_eq!(gx, buf4a);
        assert_eq!(gy, buf4b);

        exp_origin_into(&z, &mut buf4a);
        assert_eq!(u, buf4a);

        let mut buf3 = [0.0; 3];
        log_origin_into(&u, &mut buf3);
        assert_eq!(log_origin(&u), buf3);

        exp_origin_vjp_into(&z, &g4, &mut buf3);
        assert_eq!(exp_origin_vjp(&z, &g4), buf3);

        log_origin_vjp_into(&u, &g3, &mut buf4a);
        assert_eq!(log_origin_vjp(&u, &g3), buf4a);
    }

    #[test]
    fn f32_kernels_track_f64_within_single_precision() {
        let z64 = [0.35, -0.6, 0.9, 0.15];
        let z32: Vec<f32> = z64.iter().map(|&v| v as f32).collect();
        let u64v = exp_origin(&z64);
        let u32v = exp_origin(&z32);
        assert!(on_manifold(&u32v, 1e-5));
        for (a, b) in u64v.iter().zip(&u32v) {
            assert!((a - f64::from(*b)).abs() < 1e-5, "{a} vs {b}");
        }
        let back = log_origin(&u32v);
        for (a, b) in back.iter().zip(&z32) {
            assert!((a - b).abs() < 1e-4);
        }
        let d64 = distance(&u64v, &exp_origin(&[0.1, 0.2, -0.4, 0.55]));
        let d32 = distance(
            &u32v,
            &exp_origin(&[0.1f32, 0.2, -0.4, 0.55]),
        );
        assert!((d64 - f64::from(d32)).abs() < 1e-4);
    }
}
