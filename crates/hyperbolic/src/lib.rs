#![warn(missing_docs)]

//! Hyperbolic geometry substrate for LogiRec.
//!
//! The paper exploits the individual strengths of two models of hyperbolic
//! space (Section III of the paper):
//!
//! * the **Poincaré ball** `P^d = { x ∈ R^d : ‖x‖ < 1 }`, whose hyperplanes
//!   induce convex regions used to model set-theoretic logical relations
//!   (membership / hierarchy / exclusion, Lemmas 1–3), and
//! * the **Lorentz (hyperboloid) model** `H^d ⊂ R^{d+1}`, whose closed-form
//!   geodesics make Riemannian optimization stable (Eq. 6–9, 16, 18).
//!
//! The two are connected by the diffeomorphisms `p` / `p⁻¹` (Eq. 1–2),
//! implemented in [`maps`].
//!
//! Every differentiable operation used in a training loss exposes an analytic
//! **vector–Jacobian product** (`*_vjp`), the exact quantity reverse-mode
//! autodiff would produce. The crate's property tests validate each VJP
//! against central finite differences, so the model crates can chain them
//! with confidence.

pub mod hyperplane;
pub mod lorentz;
pub mod maps;
pub mod poincare;
pub mod rsgd;

pub use hyperplane::Ball;

/// Margin that keeps Poincaré coordinates strictly inside the unit ball.
///
/// The conformal factor `2/(1 − ‖x‖²)` and the distance formula blow up at
/// the boundary; every projection in this crate clips norms to
/// `1 − BALL_EPS`.
pub const BALL_EPS: f64 = 1e-5;

/// Norm threshold below which direction-dependent formulas switch to their
/// Taylor limits (e.g. `sinh(n)/n → 1`).
pub const MIN_NORM: f64 = 1e-9;
