//! The exact scan's coarse pass (`core::scan`: an `f32` bound selects the
//! candidates, only they are keyed exactly) against the reference path —
//! score every item with `lorentz::distance` / `ops::dist`, mask, select
//! with `top_k_indices` — on catalogs built to stress the bound: rows at the
//! served model's magnitudes and far beyond (`x₀` from 1e4 to 1e30), keys
//! inside one coarse bound of the k-th key, coordinates beyond the `f32`
//! range and in its subnormal range, NaN and infinite rows, masks inside
//! the band and k past the unmasked count. Items and score bits, both
//! precisions, both geometries, the item-order table and cluster-like runs
//! keyed in pieces shorter than a run. Then run walks with pruning against
//! a walk that keys every position exactly, and the probe
//! (`ScanTable::first_non_finite`) against scoring every item.

use std::ops::Range;

use logirec_suite::core::scan::{row_key, KeyTopK, ScanTable};
use logirec_suite::core::Geometry;
use logirec_suite::eval::ranking::top_k_indices;
use logirec_suite::hyperbolic::lorentz;
use logirec_suite::linalg::{ops, Embedding, Scalar, SplitMix64};
use logirec_suite::serve::ProbeReport;

const DIM: usize = 8;
const GEOMETRIES: [Geometry; 2] = [Geometry::Hyperbolic, Geometry::Euclidean];

/// The reference score of one item: the per-item distance kernel.
fn reference_score<S: Scalar>(geometry: Geometry, q: &[S], row: &[S]) -> f64 {
    match geometry {
        Geometry::Hyperbolic => -lorentz::distance(q, row).to_f64(),
        Geometry::Euclidean => -ops::dist(q, row).to_f64(),
    }
}

fn reference_scores<S: Scalar>(geometry: Geometry, q: &[S], items: &Embedding<S>) -> Vec<f64> {
    items.iter_rows().map(|row| reference_score(geometry, q, row)).collect()
}

/// The point with tangent (Lorentz) or plain (Euclidean) coordinates `t`.
fn lift(geometry: Geometry, t: &[f64]) -> Vec<f64> {
    match geometry {
        Geometry::Hyperbolic => lorentz::exp_origin(t),
        Geometry::Euclidean => t.to_vec(),
    }
}

fn to_s<S: Scalar>(v: &[f64]) -> Vec<S> {
    v.iter().map(|&x| S::from_f64(x)).collect()
}

fn gaussian(scale: f64, rng: &mut SplitMix64) -> Vec<f64> {
    (0..DIM).map(|_| scale * rng.normal()).collect()
}

/// A query and `n` rows around it at magnitude `x0` (Lorentz: tangents of
/// norm `acosh(x0)`, so the time coordinates reach `x0`; Euclidean:
/// coordinates of size `x0`): near copies of the query a relative 1e-3 to
/// 1e-8 away, whose keys sit within a coarse bound of each other, exact
/// copies of earlier rows, and rows in random directions.
fn catalog<S: Scalar>(geometry: Geometry, x0: f64, n: usize, seed: u64) -> (Vec<S>, Embedding<S>) {
    let mut rng = SplitMix64::new(seed);
    let radius = match geometry {
        Geometry::Hyperbolic => x0.acosh(),
        Geometry::Euclidean => x0,
    };
    let unit = |rng: &mut SplitMix64| {
        let g = gaussian(1.0, rng);
        let norm = ops::norm(&g);
        g.into_iter().map(|x| x / norm).collect::<Vec<f64>>()
    };
    let tq: Vec<f64> = unit(&mut rng).into_iter().map(|x| radius * x).collect();
    let q = to_s(&lift(geometry, &tq));
    let mut items = Embedding::<S>::zeros(0, q.len());
    for v in 0..n {
        let row = match v % 6 {
            0..=2 => {
                let spread = 10f64.powi(-3 - (v as i32 % 6)) * radius;
                let t: Vec<f64> = tq.iter().map(|x| x + spread * rng.normal()).collect();
                to_s(&lift(geometry, &t))
            }
            3 if v > 6 => items.row(rng.index(v)).to_vec(),
            _ => {
                let r = radius * rng.uniform(0.5, 1.1);
                let t: Vec<f64> = unit(&mut rng).into_iter().map(|x| r * x).collect();
                to_s(&lift(geometry, &t))
            }
        };
        items.push_row(&row);
    }
    (q, items)
}

/// `top_k_indices` over the reference scores of the items `allowed`
/// marks, less `mask`: the answer with its score bits.
fn reference<S: Scalar>(
    geometry: Geometry,
    q: &[S],
    items: &Embedding<S>,
    allowed: &[bool],
    mask: &[usize],
    k: usize,
) -> (Vec<usize>, Vec<u64>) {
    let mut scores = reference_scores(geometry, q, items);
    for (v, s) in scores.iter_mut().enumerate() {
        if !allowed[v] || mask.binary_search(&v).is_ok() {
            *s = f64::NEG_INFINITY;
        }
    }
    let top = top_k_indices(&scores, k);
    let bits = top.iter().map(|&v| scores[v].to_bits()).collect();
    (top, bits)
}

fn bits(scores: &[f64]) -> Vec<u64> {
    scores.iter().map(|s| s.to_bits()).collect()
}

/// Splits `0..n` into runs of 1 to 40 positions.
fn random_runs(n: usize, rng: &mut SplitMix64) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + 1 + rng.index(40)).min(n);
        runs.push(start..end);
        start = end;
    }
    runs
}

/// A mask of the items ranked `k − 2 … k + 2` by the reference (inside the
/// tie band at `k`) and every seventh item, ascending.
fn band_mask<S: Scalar>(geometry: Geometry, q: &[S], items: &Embedding<S>, k: usize) -> Vec<usize> {
    let ranked = top_k_indices(&reference_scores(geometry, q, items), k + 3);
    let mut mask: Vec<usize> = ranked.iter().skip(k.saturating_sub(2)).copied().collect();
    mask.extend((0..items.rows()).step_by(7));
    mask.sort_unstable();
    mask.dedup();
    mask
}

/// Asserts that the item-order `top_k`, and a walk over a permuted table in
/// random runs keyed in pieces of 1 to 24 positions, answer what the
/// reference answers, at every k of interest, with and without a mask
/// inside the band.
fn assert_parity<S: Scalar>(
    geometry: Geometry,
    q: &[S],
    items: &Embedding<S>,
    seed: u64,
    what: &str,
) {
    let n = items.rows();
    let mut rng = SplitMix64::new(seed);
    let plain = ScanTable::new(geometry, items);
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    let permuted = ScanTable::in_order(geometry, items, order);
    let all = vec![true; n];
    let mut keys = vec![0.0; n];
    for k in [1, 3, 10] {
        let mask = band_mask(geometry, q, items, k);
        for m in [&[][..], &mask[..]] {
            for k in [k, n - m.len(), n + 5] {
                let (want, want_bits) = reference(geometry, q, items, &all, m, k);
                let (got, scores) = plain.top_k(q, &[m], k, &mut keys);
                assert_eq!(
                    (&got, bits(&scores)),
                    (&want, want_bits.clone()),
                    "{what}: top_k, k {k}"
                );
                let runs = random_runs(n, &mut rng);
                let mut next = runs.into_iter();
                let mut piece = vec![0.0; 1 + rng.index(24)];
                let (got, scores, scored) =
                    permuted.top_k_runs(q, m, k, &mut piece, |_| next.next());
                assert_eq!((got, bits(&scores)), (want, want_bits), "{what}: runs, k {k}");
                assert_eq!(scored, n - m.len(), "{what}: scored, k {k}");
            }
        }
    }
}

fn far_rows_at_both_geometries<S: Scalar>(label: &str) {
    for geometry in GEOMETRIES {
        for (i, x0) in [1e4, 5.2e4, 1e10, 1e20, 1e30].into_iter().enumerate() {
            let seed = 40 + i as u64;
            let (q, items) = catalog::<S>(geometry, x0, 150, seed);
            assert_parity(geometry, &q, &items, seed, &format!("{label} {geometry:?} x0 {x0:e}"));
        }
    }
}

#[test]
fn f64_rows_far_from_the_origin_select_like_the_reference() {
    far_rows_at_both_geometries::<f64>("f64");
}

#[test]
fn f32_rows_far_from_the_origin_select_like_the_reference() {
    far_rows_at_both_geometries::<f32>("f32");
}

#[test]
fn near_copies_put_keys_inside_one_coarse_bound_of_the_kth() {
    // At the served model's magnitudes the coarse bound is wide: the rows
    // ranked just past the k-th have exact keys closer to the k-th key than
    // a lower estimate of the bound, `2⁻²⁰·N_q·N_v`, so only the exact keys
    // can order them.
    let (q, items) = catalog::<f64>(Geometry::Hyperbolic, 5.2e4, 150, 7);
    let key = |v: usize| row_key(Geometry::Hyperbolic, &q, items.row(v));
    let ranked = top_k_indices(&reference_scores(Geometry::Hyperbolic, &q, &items), 20);
    let kth = key(ranked[9]);
    let close = ranked[10..]
        .iter()
        .filter(|&&v| (key(v) - kth).abs() < ops::norm(&q) * ops::norm(items.row(v)) / 1048576.0)
        .count();
    assert!(close >= 3, "{close} rows within a coarse bound of the k-th key");
    assert_parity(Geometry::Hyperbolic, &q, &items, 7, "near copies");
}

/// `rows` with hostile rows spliced in: coordinates beyond the `f32` range
/// (at `f32` they round to infinity), in the `f32` and `f64` subnormal
/// ranges, NaN, `+∞` and `−∞`, each once as a whole row and once as one
/// coordinate.
fn hostile<S: Scalar>(items: &Embedding<S>, rng: &mut SplitMix64) -> Embedding<S> {
    let values = [
        1e39,
        -3e38 * 7.0,
        1e300,
        2e-40,
        -7e-45,
        3e-310,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let mut out = Embedding::<S>::zeros(0, items.dim());
    for (v, row) in items.iter_rows().enumerate() {
        out.push_row(row);
        if v % 5 == 2 {
            let x = values[rng.index(values.len())];
            let mut bad = row.to_vec();
            if rng.bernoulli(0.5) {
                bad.iter_mut().for_each(|c| *c = S::from_f64(x));
            } else {
                let j = rng.index(bad.len());
                bad[j] = S::from_f64(x);
            }
            out.push_row(&bad);
        }
    }
    out
}

fn hostile_rows_at_both_geometries<S: Scalar>(label: &str) {
    for geometry in GEOMETRIES {
        for seed in 0..4u64 {
            let (q, items) =
                catalog::<S>(geometry, [1.5, 1e4, 1e10, 1e20][seed as usize], 90, seed);
            let items = hostile(&items, &mut SplitMix64::new(seed));
            let what = format!("{label} {geometry:?} seed {seed}");
            assert_parity(geometry, &q, &items, seed, &what);
            // A query beyond the f32 range, or in its subnormal range,
            // decides nothing or everything; a NaN query selects nothing.
            for x in [1e39, 1e-41, f64::NAN] {
                let mut far = q.clone();
                far[1] = S::from_f64(x);
                assert_parity(geometry, &far, &items, seed, &format!("{what} query {x:e}"));
            }
        }
    }
}

#[test]
fn f64_hostile_rows_select_like_the_reference() {
    hostile_rows_at_both_geometries::<f64>("f64");
}

#[test]
fn f32_hostile_rows_select_like_the_reference() {
    hostile_rows_at_both_geometries::<f32>("f32");
}

/// A walk over `runs` that skips run `r` when the k-th score so far beats
/// `floor[r]`: through the scan's own `top_k_runs`, or (`exact`) with
/// every unmasked position of a run keyed exactly and offered — the walk
/// before the coarse pass. Returns the answer, its probe accounting, and
/// the k-th score seen before each run.
#[allow(clippy::too_many_arguments)]
fn pruned_walk<S: Scalar>(
    table: &ScanTable<S>,
    exact: Option<(&Embedding<S>, &[u32])>,
    geometry: Geometry,
    q: &[S],
    seen: &[usize],
    k: usize,
    runs: &[Range<usize>],
    floor: &[f64],
) -> (Vec<usize>, Vec<u64>, ProbeReport, Vec<Option<u64>>) {
    let n = table_len(runs);
    let mut report = ProbeReport { clusters: runs.len(), n_items: n, ..ProbeReport::default() };
    let mut kths = Vec::new();
    let mut next = runs.iter().cloned().enumerate();
    let mut next_run = |best: &KeyTopK<S>| {
        for (r, run) in next.by_ref() {
            kths.push(best.kth_score().map(f64::to_bits));
            if best.kth_score().is_some_and(|kth| kth > floor[r]) {
                report.clusters_pruned += 1;
                continue;
            }
            report.clusters_probed += 1;
            return Some(run);
        }
        None
    };
    let (items, scores, scored) = match exact {
        None => {
            let mut keys = vec![0.0; 16];
            table.top_k_runs(q, seen, k, &mut keys, next_run)
        }
        Some((rows, order)) => {
            let mut best = KeyTopK::<S>::new(geometry, k.min(n));
            let mut offered = Vec::new();
            while let Some(run) = next_run(&best) {
                for p in run {
                    let v = order[p] as usize;
                    if seen.binary_search(&v).is_err() {
                        let key = row_key(geometry, q, rows.row(v)).to_f64();
                        best.offer(key);
                        offered.push((v, key));
                    }
                }
            }
            let scored = offered.len();
            let (items, scores) = best.finish(offered);
            (items, scores, scored)
        }
    };
    report.items_scored = scored;
    (items, bits(&scores), report, kths)
}

fn table_len(runs: &[Range<usize>]) -> usize {
    runs.last().map_or(0, |r| r.end)
}

fn pruned_walks_at_both_geometries<S: Scalar>(label: &str) {
    for geometry in GEOMETRIES {
        for seed in 0..6u64 {
            let x0 = [1.5, 30.0, 1e4, 5.2e4, 1e10, 1e20][seed as usize];
            let (q, items) = catalog::<S>(geometry, x0, 240, 60 + seed);
            let items =
                if seed % 2 == 1 { hostile(&items, &mut SplitMix64::new(seed)) } else { items };
            let n = items.rows();
            let mut rng = SplitMix64::new(80 + seed);
            let mut order: Vec<u32> = (0..n as u32).collect();
            rng.shuffle(&mut order);
            let table = ScanTable::in_order(geometry, &items, order.clone());
            let runs = random_runs(n, &mut rng);
            // A run's floor is the score of one of its members: a run is
            // skipped once the k-th score beats it, as an index skips a
            // cluster whose bound cannot win, so the answers are not the
            // full scan's.
            let scores = reference_scores(geometry, &q, &items);
            let floor: Vec<f64> = runs.iter().map(|r| scores[order[r.start] as usize]).collect();
            let seen: Vec<usize> = (0..n).filter(|v| v % 9 == 4).collect();
            for k in [1, 5, 10, n] {
                let what = format!("{label} {geometry:?} seed {seed} k {k}");
                let got = pruned_walk(&table, None, geometry, &q, &seen, k, &runs, &floor);
                let want = pruned_walk(
                    &table,
                    Some((&items, &order)),
                    geometry,
                    &q,
                    &seen,
                    k,
                    &runs,
                    &floor,
                );
                assert_eq!(got, want, "{what}");
            }
        }
    }
}

#[test]
fn f64_pruned_run_walks_match_a_walk_keying_every_position() {
    pruned_walks_at_both_geometries::<f64>("f64");
}

#[test]
fn f32_pruned_run_walks_match_a_walk_keying_every_position() {
    pruned_walks_at_both_geometries::<f32>("f32");
}

/// The item scoring every item names first: the smallest one whose score
/// is not finite.
fn first_non_finite_reference<S: Scalar>(
    geometry: Geometry,
    q: &[S],
    items: &Embedding<S>,
) -> Option<usize> {
    reference_scores(geometry, q, items).iter().position(|s| !s.is_finite())
}

fn probe_at_both_geometries<S: Scalar>(label: &str) {
    let max = S::MAX.to_f64();
    for geometry in GEOMETRIES {
        for seed in 0..4u64 {
            let x0 = [1.5, 1e4, 5.2e4, 1e10][seed as usize];
            let (q, items) = catalog::<S>(geometry, x0, 64, 20 + seed);
            let what = format!("{label} {geometry:?} seed {seed}");
            let probe = |items: &Embedding<S>, q: &[S]| {
                let got = ScanTable::new(geometry, items).first_non_finite(q);
                let order: Vec<u32> = (0..items.rows() as u32).rev().collect();
                let permuted = ScanTable::in_order(geometry, items, order).first_non_finite(q);
                assert_eq!(got, permuted, "{what}: layouts");
                got
            };
            assert_eq!(probe(&items, &q), None, "{what}: healthy rows");
            assert_eq!(first_non_finite_reference(geometry, &q, &items), None);
            // Rows whose keys reach `f·MAX` (past MAX/2 the Lorentz score
            // overflows though the key is finite; past MAX the key does),
            // NaN rows, and rows beyond the f32 range, spliced in at random
            // places: the probe names what scoring every item names.
            let qf: Vec<f64> = q.iter().map(|x| x.to_f64()).collect();
            let norm = ops::norm(&qf);
            let mirror = |f: f64| -> Vec<f64> {
                match geometry {
                    Geometry::Hyperbolic => {
                        let s = f * (max / (norm * norm));
                        qf.iter()
                            .enumerate()
                            .map(|(j, x)| if j == 0 { s * x } else { -s * x })
                            .collect()
                    }
                    Geometry::Euclidean => {
                        let s = f.sqrt() * (max.sqrt() / norm) - 1.0;
                        qf.iter().map(|x| -s * x).collect()
                    }
                }
            };
            let mut bad_rows: Vec<Vec<f64>> = vec![
                mirror(0.2),
                mirror(0.7),
                mirror(2.0),
                vec![f64::NAN; q.len()],
                qf.iter().map(|x| x * 1e300).collect(),
            ];
            // Beyond the f32 range yet scoring finite at f64 (a query
            // coordinate of 0 meets a huge row coordinate).
            let mut finite_far = qf.clone();
            let mut q0 = q.clone();
            q0[1] = S::ZERO;
            finite_far[1] = 1e39;
            let mut rng = SplitMix64::new(seed);
            for (b, bad) in bad_rows.drain(..).enumerate() {
                let mut grown = Embedding::<S>::zeros(0, q.len());
                let at = rng.index(items.rows());
                for (v, row) in items.iter_rows().enumerate() {
                    if v == at {
                        grown.push_row(&to_s::<S>(&bad));
                    }
                    grown.push_row(row);
                }
                let want = first_non_finite_reference(geometry, &q, &grown);
                assert_eq!(probe(&grown, &q), want, "{what}: bad row {b} at {at}");
            }
            let mut grown = items.clone();
            grown.push_row(&to_s::<S>(&finite_far));
            let want = first_non_finite_reference(geometry, &q0, &grown);
            assert_eq!(probe(&grown, &q0), want, "{what}: a finite row beyond f32");
        }
    }
}

#[test]
fn f64_probe_names_the_first_non_finite_score() {
    probe_at_both_geometries::<f64>("f64");
}

#[test]
fn f32_probe_names_the_first_non_finite_score() {
    probe_at_both_geometries::<f32>("f32");
}
