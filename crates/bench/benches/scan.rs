//! The exact top-K primitive (`logirec_core::scan`) at paper width:
//! 8,836 items × 65 ambient coordinates (d = 64), k = 10, in f64 and f32,
//! beside the per-item `lorentz::distance` loop it replaced (labelled
//! `reference_loop`), plus the one-off cost of building the f64 blocked
//! table. Before timing, it checks the two paths agree bit for bit on every
//! query and prints the tie-band size. Numbers from this bin are committed
//! to `results/scan.txt`.

use criterion::{criterion_group, criterion_main, Criterion};
use logirec_core::scan::{KeyTopK, ScanTable};
use logirec_core::Geometry;
use logirec_eval::ranking::top_k_indices;
use logirec_hyperbolic::lorentz;
use logirec_linalg::{Embedding, Scalar, SplitMix64};
use std::hint::black_box;

const N_ITEMS: usize = 8_836;
const DIM: usize = 64;
const K: usize = 10;

/// A synthetic hyperboloid table: `exp_origin` of Gaussian tangents.
fn hyperboloid(n: usize, seed: u64) -> Embedding<f64> {
    let mut rng = SplitMix64::new(seed);
    let tangents = Embedding::<f64>::normal(n, DIM, 0.3, &mut rng);
    let mut out = Embedding::zeros(n, DIM + 1);
    for i in 0..n {
        lorentz::exp_origin_into(tangents.row(i), out.row_mut(i));
    }
    out
}

/// The replaced exact path: one `lorentz::distance` per item, then
/// `top_k_indices`.
fn reference_loop<S: Scalar>(q: &[S], items: &Embedding<S>, scores: &mut [f64]) -> Vec<usize> {
    for (s, row) in scores.iter_mut().zip(items.iter_rows()) {
        *s = -lorentz::distance(q, row).to_f64();
    }
    top_k_indices(scores, K)
}

/// Checks scan vs reference on every query and prints the mean and max
/// number of items in the tie band (the `acosh` calls a query makes).
fn check_and_report_band<S: Scalar>(label: &str, items: &Embedding<S>, users: &Embedding<S>) {
    let scan = ScanTable::new(Geometry::Hyperbolic, items);
    let mut keys = vec![0.0; items.rows()];
    let mut scores = vec![0.0; items.rows()];
    let (mut total, mut max) = (0usize, 0usize);
    for q in users.iter_rows() {
        let (got, _) = scan.top_k(q, &[], K, &mut keys);
        assert_eq!(
            got,
            reference_loop(q, items, &mut scores),
            "{label}: scan diverged"
        );
        scan.keys(q, &mut keys);
        let mut best = KeyTopK::<S>::new(Geometry::Hyperbolic, K);
        for &key in &keys {
            best.offer(key);
        }
        let end = best.band_end().expect("k keys offered");
        let band = keys.iter().filter(|&&key| key <= end).count();
        total += band;
        max = max.max(band);
    }
    println!(
        "band {label}: k={K}, mean {:.2} items, max {max} over {} queries",
        total as f64 / users.rows() as f64,
        users.rows()
    );
}

fn bench_precision<S: Scalar>(c: &mut Criterion, label: &str) {
    let items: Embedding<S> = hyperboloid(N_ITEMS, 3).cast();
    let users: Embedding<S> = hyperboloid(64, 4).cast();
    check_and_report_band(label, &items, &users);

    let scan = ScanTable::new(Geometry::Hyperbolic, &items);
    let mut keys = vec![0.0; N_ITEMS];
    let mut u = 0usize;
    c.bench_function(format!("scan_top_k10_8836x65_{label}"), |b| {
        b.iter(|| {
            u = (u + 1) % users.rows();
            scan.top_k(black_box(users.row(u)), &[], K, &mut keys)
        })
    });
    let mut scores = vec![0.0; N_ITEMS];
    c.bench_function(format!("reference_loop_top_k10_8836x65_{label}"), |b| {
        b.iter(|| {
            u = (u + 1) % users.rows();
            reference_loop(black_box(users.row(u)), &items, &mut scores)
        })
    });
    c.bench_function(format!("scan_table_build_8836x65_{label}"), |b| {
        b.iter(|| ScanTable::new(Geometry::Hyperbolic, black_box(&items)))
    });
}

fn bench_scan(c: &mut Criterion) {
    bench_precision::<f64>(c, "f64");
    bench_precision::<f32>(c, "f32");
}

/// Short measurement windows, as in the other benches.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(1500))
}
criterion_group! {
    name = benches;
    config = quick();
    targets = bench_scan
}
criterion_main!(benches);
