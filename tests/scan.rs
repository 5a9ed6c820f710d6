//! Parity of the exact top-K primitive (`core::scan`) with the reference
//! path — score every item with `lorentz::distance` / `ops::dist`, mask,
//! select with `top_k_indices` — on catalogs built to stress its tie band:
//! duplicated rows, rows equal to the query (distance-0 ties), keys a few
//! ulps apart at the k-th key, and masked items inside the band. Both
//! precisions, both geometries. Then `evaluate` through LogiRec's
//! `Ranker::top_k` against `evaluate` through the provided default path.

use logirec_suite::core::scan::{row_key, ScanTable};
use logirec_suite::core::{Geometry, LogiRec, LogiRecConfig};
use logirec_suite::data::{DatasetSpec, Scale, Split};
use logirec_suite::eval::ranking::top_k_indices;
use logirec_suite::eval::{evaluate, EvalResult, Ranker};
use logirec_suite::hyperbolic::lorentz;
use logirec_suite::linalg::{ops, Embedding, Scalar, SplitMix64};

const DIM: usize = 12;

/// The reference score of one item: the pre-scan per-item kernel.
fn reference_score<S: Scalar>(geometry: Geometry, q: &[S], row: &[S]) -> f64 {
    match geometry {
        Geometry::Hyperbolic => -lorentz::distance(q, row).to_f64(),
        Geometry::Euclidean => -ops::dist(q, row).to_f64(),
    }
}

/// The point with spatial tangent coordinates `t`: on the hyperboloid
/// (`exp_origin`) for Lorentz, `t` itself for Euclidean.
fn lift(geometry: Geometry, t: &[f64]) -> Vec<f64> {
    match geometry {
        Geometry::Hyperbolic => lorentz::exp_origin(t),
        Geometry::Euclidean => t.to_vec(),
    }
}

fn gaussian(scale: f64, rng: &mut SplitMix64) -> Vec<f64> {
    (0..DIM).map(|_| scale * rng.normal()).collect()
}

/// Rows whose keys differ from `row`'s by a few ulps yet whose rounded
/// distances equal its distance: `row` with one coordinate moved by
/// ±2⁰…2⁸ of its ulps, kept only when the key changes and the reference
/// score does not.
fn tie_partners<S: Scalar>(geometry: Geometry, q: &[S], row: &[S]) -> Vec<Vec<S>> {
    let key = |r: &[S]| row_key(geometry, q, r).to_f64();
    let score = |r: &[S]| reference_score(geometry, q, r);
    let mut out: Vec<Vec<S>> = Vec::new();
    for j in 0..row.len() {
        for m in (0..=8).flat_map(|e| [-f64::from(1 << e), f64::from(1 << e)]) {
            let mut moved = row.to_vec();
            moved[j] = row[j] + row[j] * S::EPSILON * S::from_f64(m);
            let fresh = out.iter().all(|r| key(r) != key(&moved));
            if key(&moved) != key(row) && score(&moved) == score(row) && fresh {
                out.push(moved);
            }
        }
    }
    out
}

/// An adversarial catalog for query `q` (returned first), in index order:
/// rows whose keys differ by a few ulps from the 10th-smallest base key
/// (or the next key that has such rows) but share its distance, largest
/// key first (so index order runs against key order inside the tie);
/// near-copies of the query a few ulps off,
/// interleaved with exact copies (Lorentz keys within ulps of 1 on both
/// sides, all clamping to distance 0); random rows; and duplicates.
fn adversarial<S: Scalar>(geometry: Geometry, seed: u64) -> (Vec<S>, Embedding<S>) {
    let mut rng = SplitMix64::new(seed);
    let to_s = |v: Vec<f64>| -> Vec<S> { v.into_iter().map(S::from_f64).collect() };
    let tq = gaussian(0.8, &mut rng);
    let q = to_s(lift(geometry, &tq));
    let mut base = Embedding::<S>::zeros(0, q.len());
    let ulp = S::EPSILON.to_f64();
    for i in 0..6 {
        let near: Vec<f64> = tq.iter().map(|t| t + 4.0 * ulp * rng.normal()).collect();
        base.push_row(&to_s(lift(geometry, &near)));
        if i % 2 == 1 {
            base.push_row(&q);
        }
    }
    for _ in 0..36 {
        base.push_row(&to_s(lift(geometry, &gaussian(0.8, &mut rng))));
    }
    for src in [20usize, 33, 20, 40] {
        let row = base.row(src).to_vec();
        base.push_row(&row);
    }
    let key = |r: &[S]| row_key(geometry, &q, r).to_f64();
    let mut order: Vec<usize> = (0..base.rows()).collect();
    order.sort_by(|&a, &b| {
        key(base.row(a))
            .total_cmp(&key(base.row(b)))
            .then(a.cmp(&b))
    });
    let mut partners = order[9..]
        .iter()
        .map(|&v| tie_partners(geometry, &q, base.row(v)))
        .find(|p| !p.is_empty())
        .expect("some base row has a distance tie");
    partners.sort_by(|a, b| key(b).total_cmp(&key(a)));
    let mut items = Embedding::<S>::zeros(0, q.len());
    for row in partners.iter().map(Vec::as_slice).chain(base.iter_rows()) {
        items.push_row(row);
    }
    (q, items)
}

/// Asserts the primitive's answer equals score → mask → `top_k_indices`
/// in items and score bits.
fn assert_parity<S: Scalar>(
    geometry: Geometry,
    q: &[S],
    items: &Embedding<S>,
    mask: &[usize],
    k: usize,
    what: &str,
) {
    let mut scores: Vec<f64> = items
        .iter_rows()
        .map(|row| reference_score(geometry, q, row))
        .collect();
    for &v in mask {
        scores[v] = f64::NEG_INFINITY;
    }
    let want = top_k_indices(&scores, k);
    let mut keys = vec![0.0; items.rows()];
    let (got, got_scores) = ScanTable::new(geometry, items).top_k(q, &[mask], k, &mut keys);
    assert_eq!(got, want, "{what}: items differ at k = {k}");
    for (&v, s) in got.iter().zip(&got_scores) {
        assert_eq!(
            s.to_bits(),
            scores[v].to_bits(),
            "{what}: score of item {v} at k = {k}"
        );
    }
}

fn adversarial_parity<S: Scalar>(label: &str) {
    for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
        for seed in 0..6u64 {
            let (q, items) = adversarial::<S>(geometry, seed);
            let n = items.rows();
            // Mask a tie partner, a near-copy and an exact copy of the
            // query (all inside the band at some k), and two other rows.
            let mask = vec![1usize, n - 45, n - 44, n - 10, n - 2];
            let what = format!("{label} {geometry:?} seed {seed}");
            for k in (0..=24).chain([n - mask.len(), n + 5]) {
                assert_parity(geometry, &q, &items, &mask, k, &what);
                assert_parity(geometry, &q, &items, &[], k, &what);
            }
        }
    }
}

#[test]
fn f64_scan_matches_the_reference_on_adversarial_catalogs() {
    adversarial_parity::<f64>("f64");
}

#[test]
fn f32_scan_matches_the_reference_on_adversarial_catalogs() {
    adversarial_parity::<f32>("f32");
}

#[test]
fn a_catalog_of_query_copies_ties_at_distance_zero() {
    // Every Lorentz key is within rounding of 1 (distance 0 after the
    // clamp): the answer is the lowest unmasked indices.
    for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
        let mut rng = SplitMix64::new(11);
        let q = lift(geometry, &gaussian(0.8, &mut rng));
        let mut items = Embedding::<f64>::zeros(0, q.len());
        for _ in 0..21 {
            items.push_row(&q);
        }
        for k in [1, 5, 21] {
            assert_parity(geometry, &q, &items, &[0, 2], k, "query copies");
        }
    }
}

fn assert_same_eval(a: &EvalResult, b: &EvalResult, what: &str) {
    let bits = |m: &std::collections::BTreeMap<usize, f64>| -> Vec<(usize, u64)> {
        m.iter().map(|(&k, v)| (k, v.to_bits())).collect()
    };
    assert_eq!(bits(&a.recall), bits(&b.recall), "{what}: recall");
    assert_eq!(bits(&a.ndcg), bits(&b.ndcg), "{what}: ndcg");
    let per = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
    assert_eq!(
        per(&a.per_user_recall),
        per(&b.per_user_recall),
        "{what}: per-user recall"
    );
    assert_eq!(
        per(&a.per_user_ndcg),
        per(&b.per_user_ndcg),
        "{what}: per-user ndcg"
    );
    assert_eq!(a.users, b.users, "{what}: users");
}

fn evaluate_parity<S: Scalar>(model: &LogiRec<S>, ds: &logirec_suite::data::Dataset, what: &str) {
    // A closure ranker only has `score_user`, so `evaluate` takes the
    // provided score → mask → select path through it.
    let reference = |u: usize, out: &mut [f64]| model.score_user(u, out);
    for split in [Split::Test, Split::Validation] {
        let fast = evaluate(model, ds, split, &[1, 10, 20], 2);
        let slow = evaluate(&reference, ds, split, &[1, 10, 20], 2);
        assert_same_eval(&fast, &slow, &format!("{what} {split:?}"));
    }
}

#[test]
fn evaluate_through_the_scan_matches_the_default_path() {
    let ds = DatasetSpec::ciao(Scale::Tiny).generate(5);
    for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
        let cfg = LogiRecConfig {
            geometry,
            ..LogiRecConfig::test_config()
        };
        let mut m64: LogiRec = LogiRec::new(cfg, &ds);
        m64.propagate(&ds.train);
        evaluate_parity(&m64, &ds, &format!("f64 {geometry:?}"));
        let mut m32 = m64.cast::<f32>();
        m32.propagate(&ds.train);
        evaluate_parity(&m32, &ds, &format!("f32 {geometry:?}"));
    }
}
