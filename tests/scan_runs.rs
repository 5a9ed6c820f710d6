//! The exact scan over a table laid out in runs (`ScanTable::in_order`,
//! the layout a serving index builds) against the item-order table: a walk
//! over every run answers exactly what the item-order `top_k` answers, and
//! a walk over some runs exactly what `top_k_indices` selects over those
//! runs' items — items and score bits, both precisions, both geometries,
//! random row orders and run splits (one-row runs, runs straddling block
//! boundaries), masks spread over several runs, and duplicated rows whose
//! ties cross runs. `score_user` reads the same on both layouts.

use std::ops::Range;

use logirec_suite::core::scan::ScanTable;
use logirec_suite::core::{Geometry, LogiRec, LogiRecConfig};
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::eval::ranking::top_k_indices;
use logirec_suite::eval::Ranker;
use logirec_suite::hyperbolic::lorentz;
use logirec_suite::linalg::{ops, Embedding, Scalar, SplitMix64};

const DIM: usize = 6;

/// The reference score of one item: the per-item distance kernel.
fn reference_score<S: Scalar>(geometry: Geometry, q: &[S], row: &[S]) -> f64 {
    match geometry {
        Geometry::Hyperbolic => -lorentz::distance(q, row).to_f64(),
        Geometry::Euclidean => -ops::dist(q, row).to_f64(),
    }
}

fn point<S: Scalar>(geometry: Geometry, rng: &mut SplitMix64) -> Vec<S> {
    let t: Vec<f64> = (0..DIM).map(|_| 0.7 * rng.normal()).collect();
    let p = match geometry {
        Geometry::Hyperbolic => lorentz::exp_origin(&t),
        Geometry::Euclidean => t,
    };
    p.into_iter().map(S::from_f64).collect()
}

/// A query and a catalog of `n` rows: random points, copies of the query
/// (distance-0 ties), and copies of earlier rows spread over the catalog,
/// so equal scores land in different runs once the rows are reordered.
fn catalog<S: Scalar>(geometry: Geometry, n: usize, seed: u64) -> (Vec<S>, Embedding<S>) {
    let mut rng = SplitMix64::new(seed);
    let q = point::<S>(geometry, &mut rng);
    let mut items = Embedding::<S>::zeros(0, q.len());
    for v in 0..n {
        let row = match v % 7 {
            3 => q.clone(),
            5 if v > 5 => items.row(rng.index(v)).to_vec(),
            _ => point(geometry, &mut rng),
        };
        items.push_row(&row);
    }
    (q, items)
}

/// A random permutation of `0..n`.
fn random_order(n: usize, rng: &mut SplitMix64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut order);
    order
}

/// Splits `0..n` into runs of 1 to 19 positions (one-row runs, and runs
/// that start and end inside 8-row blocks or span several).
fn random_runs(n: usize, rng: &mut SplitMix64) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    while start < n {
        let len = if rng.bernoulli(0.25) {
            1
        } else {
            1 + rng.index(19)
        };
        let end = (start + len).min(n);
        runs.push(start..end);
        start = end;
    }
    runs
}

/// `top_k_indices` over the items of `allowed`, less `mask`: the reference
/// answer with its scores.
fn reference<S: Scalar>(
    geometry: Geometry,
    q: &[S],
    items: &Embedding<S>,
    allowed: &[bool],
    mask: &[usize],
    k: usize,
) -> (Vec<usize>, Vec<u64>) {
    let mut scores: Vec<f64> = items
        .iter_rows()
        .map(|row| reference_score(geometry, q, row))
        .collect();
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

fn check_layouts<S: Scalar>(label: &str) {
    for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
        for seed in 0..8u64 {
            let n = 37 + 11 * seed as usize;
            let (q, items) = catalog::<S>(geometry, n, seed);
            let mut rng = SplitMix64::new(100 + seed);
            let order = random_order(n, &mut rng);
            let runs = random_runs(n, &mut rng);
            let plain = ScanTable::new(geometry, &items);
            let permuted = ScanTable::in_order(geometry, &items, order.clone());
            let run_of = |v: usize| {
                let p = order.iter().position(|&o| o as usize == v).expect("placed");
                runs.iter().position(|r| r.contains(&p)).expect("covered")
            };
            // A mask of items from at least three different runs.
            let mut mask: Vec<usize> = (0..n).step_by(5).collect();
            let hit: std::collections::BTreeSet<usize> = mask.iter().map(|&v| run_of(v)).collect();
            assert!(hit.len() >= 3, "mask hits {} runs", hit.len());
            mask.sort_unstable();
            let what = format!("{label} {geometry:?} seed {seed}");
            let mut keys = vec![0.0; n];
            let all = vec![true; n];
            for k in [0, 1, 10, n] {
                for m in [&[][..], &mask[..]] {
                    let (want, want_bits) = reference(geometry, &q, &items, &all, m, k);
                    let (items_plain, scores_plain) = plain.top_k(&q, &[m], k, &mut keys);
                    assert_eq!(items_plain, want, "{what}: item-order top_k, k {k}");
                    assert_eq!(
                        bits(&scores_plain),
                        want_bits,
                        "{what}: item-order scores, k {k}"
                    );
                    let (got, scores) = permuted.top_k(&q, &[m], k, &mut keys);
                    assert_eq!(
                        (got, bits(&scores)),
                        (want.clone(), want_bits.clone()),
                        "{what}: top_k"
                    );

                    // Every run, in a shuffled run order.
                    let mut shuffled = runs.clone();
                    rng.shuffle(&mut shuffled);
                    let mut next = shuffled.into_iter();
                    let (got, scores, scored) =
                        permuted.top_k_runs(&q, m, k, &mut keys, |_| next.next());
                    assert_eq!(got, want, "{what}: every run, k {k}");
                    assert_eq!(bits(&scores), want_bits, "{what}: every run scores, k {k}");
                    assert_eq!(scored, n - m.len(), "{what}: scored");

                    // Some of the runs: exactly those runs' items.
                    let some: Vec<Range<usize>> = runs
                        .iter()
                        .filter(|_| rng.bernoulli(0.5))
                        .cloned()
                        .collect();
                    let mut allowed = vec![false; n];
                    for p in some.iter().cloned().flatten() {
                        allowed[order[p] as usize] = true;
                    }
                    let (want, want_bits) = reference(geometry, &q, &items, &allowed, m, k);
                    let mut next = some.iter().cloned();
                    let (got, scores, scored) =
                        permuted.top_k_runs(&q, m, k, &mut keys, |_| next.next());
                    assert_eq!(got, want, "{what}: some runs, k {k}");
                    assert_eq!(bits(&scores), want_bits, "{what}: some runs scores, k {k}");
                    let walked = allowed.iter().filter(|&&a| a).count();
                    let masked = m.iter().filter(|&&v| allowed[v]).count();
                    assert_eq!(scored, walked - masked, "{what}: some runs scored");
                }
            }
            // Item-indexed keys on both layouts.
            let mut by_item = vec![0.0; n];
            plain.keys(&q, &mut keys);
            permuted.keys(&q, &mut by_item);
            assert_eq!(bits(&keys), bits(&by_item), "{what}: keys");
        }
    }
}

#[test]
fn f64_run_walks_match_the_item_order_scan() {
    check_layouts::<f64>("f64");
}

#[test]
fn f32_run_walks_match_the_item_order_scan() {
    check_layouts::<f32>("f32");
}

fn score_user_reads_the_same<S: Scalar>(base: &LogiRec, ds: &logirec_suite::data::Dataset) {
    let mut model: LogiRec<S> = base.cast();
    model.propagate(&ds.train);
    let n = ds.n_items();
    let mut want = vec![0.0; n];
    let mut got = vec![0.0; n];
    let users: Vec<usize> = (0..ds.n_users()).step_by(7).collect();
    let plain: Vec<Vec<u64>> = users
        .iter()
        .map(|&u| {
            model.score_user(u, &mut want);
            bits(&want)
        })
        .collect();
    let order = random_order(n, &mut SplitMix64::new(5));
    let table = ScanTable::in_order(model.cfg.geometry, &model.state().item_final, order);
    model.set_scan_table(table);
    for (&u, want) in users.iter().zip(&plain) {
        model.score_user(u, &mut got);
        assert_eq!(&bits(&got), want, "user {u}");
    }
}

#[test]
fn score_user_reads_the_same_on_both_layouts() {
    let ds = DatasetSpec::ciao(Scale::Tiny).generate(3);
    for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
        let base = LogiRec::new(
            LogiRecConfig {
                geometry,
                ..LogiRecConfig::test_config()
            },
            &ds,
        );
        score_user_reads_the_same::<f64>(&base, &ds);
        score_user_reads_the_same::<f32>(&base, &ds);
    }
}
