//! Fig. 3 — hyperbolic vs Euclidean capacity for sibling separation.
//!
//! The paper's Fig. 3 shows that when a parent A and its children B, C are
//! placed with identical edge lengths, hyperbolic space separates the
//! siblings (BC > BA = AC) while Euclidean space cannot (BC = BA = AC for
//! the analogous equilateral placement, and the number of mutually
//! separated children that fit at a fixed radius grows only polynomially).
//!
//! This binary quantifies both effects: (1) the sibling-separation ratio
//! BC/BA as the edge length grows, and (2) how many children can be placed
//! at distance r from a parent with pairwise distance ≥ r (a packing
//! count), in both geometries.
//!
//! Run: `cargo run --release -p logirec-bench --bin fig3`

use logirec_bench::harness::{self, Results, RunArgs};
use logirec_bench::table::{self, Row};
use logirec_hyperbolic::poincare;
use logirec_linalg::ops;

fn main() -> std::process::ExitCode {
    harness::main("fig3", &[], run)
}

fn run(_args: &RunArgs, out: &Results) -> Result<(), String> {
    // (1) Sibling separation: place B and C at hyperbolic distance `edge`
    // from A (origin) with a 90° angle between them.
    let mut rows = Vec::new();
    for edge in [0.5, 1.0, 2.0, 3.0, 4.0] {
        // exp_0 along e1 / e2 with tangent norm edge/2 gives d(0, x) = edge.
        let b = poincare::exp_map_origin(&[edge / 2.0, 0.0]);
        let c = poincare::exp_map_origin(&[0.0, edge / 2.0]);
        let bc_h = poincare::distance(&b, &c);
        // Euclidean analogue: points at Euclidean distance `edge` from the
        // origin at 90°: BC = sqrt(2)·edge.
        let bc_e = std::f64::consts::SQRT_2 * edge;
        rows.push(Row {
            label: format!("edge = {edge}"),
            cells: vec![
                format!("{:.3}", bc_h / edge),
                format!("{:.3}", bc_e / edge),
            ],
        });
    }
    out.save(&table::render(
        "Fig. 3a: sibling separation ratio BC/BA at 90 degrees",
        &["hyperbolic", "euclidean"],
        &rows,
    ))?;

    // (2) Packing: children on a circle of (geodesic) radius r around the
    // parent, requiring pairwise distance ≥ r. In Euclidean space exactly 6
    // fit regardless of r; in hyperbolic space the count grows with r.
    let mut rows = Vec::new();
    for r in [0.5, 1.0, 2.0, 3.0, 4.0, 5.0] {
        let hyp = children_that_fit(r, true);
        let euc = children_that_fit(r, false);
        rows.push(Row {
            label: format!("r = {r}"),
            cells: vec![hyp.to_string(), euc.to_string()],
        });
    }
    out.save(&table::render(
        "Fig. 3b: children placeable at radius r with pairwise distance >= r",
        &["hyperbolic", "euclidean"],
        &rows,
    ))
}

/// Largest `n` such that `n` points equally spaced on the radius-`r`
/// circle around the origin are pairwise at distance ≥ `r`.
fn children_that_fit(r: f64, hyperbolic: bool) -> usize {
    let mut best = 1;
    for n in 2..=2000usize {
        let theta = std::f64::consts::TAU / n as f64;
        let d = if hyperbolic {
            let a = poincare::exp_map_origin(&[r / 2.0, 0.0]);
            let b = poincare::exp_map_origin(&[r / 2.0 * theta.cos(), r / 2.0 * theta.sin()]);
            poincare::distance(&a, &b)
        } else {
            let a = [r, 0.0];
            let b = [r * theta.cos(), r * theta.sin()];
            ops::dist(&a, &b)
        };
        if d >= r {
            best = n;
        } else {
            break;
        }
    }
    best
}
