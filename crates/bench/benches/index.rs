//! Benchmarks of the clustered retrieval index: build cost (the
//! off-request-path price every snapshot swap pays) and per-query search
//! at partial and exhaustive probes, against the exact full scan
//! (`logirec_core::scan`, the exact tier's primitive).

use criterion::{criterion_group, criterion_main, Criterion};
use logirec_core::{Geometry, ScanTable};
use logirec_hyperbolic::lorentz;
use logirec_linalg::{Embedding, SplitMix64};
use logirec_serve::{ClusterIndex, IndexConfig};
use std::hint::black_box;

/// A synthetic hyperboloid catalog: `exp_origin` of small tangents.
fn hyperboloid(n: usize, d: usize, seed: u64) -> Embedding<f64> {
    let mut rng = SplitMix64::new(seed);
    let tangents = Embedding::<f64>::normal(n, d, 0.3, &mut rng);
    let mut out = Embedding::zeros(n, d + 1);
    for i in 0..n {
        lorentz::exp_origin_into(tangents.row(i), out.row_mut(i));
    }
    out
}

fn bench_index(c: &mut Criterion) {
    let items = hyperboloid(10_000, 16, 3);
    let users = hyperboloid(64, 16, 4);
    let cfg = IndexConfig::default();

    c.bench_function("index_build_10000x17", |b| {
        b.iter(|| ClusterIndex::build(black_box(&items), Geometry::Hyperbolic, &cfg))
    });

    let index = ClusterIndex::build(&items, Geometry::Hyperbolic, &cfg);
    let clusters = index.clusters();
    let mut u = 0usize;
    let mut next_user = || {
        u = (u + 1) % users.rows();
        u
    };

    c.bench_function("index_search_k10_default_nprobe", |b| {
        b.iter(|| {
            let q = next_user();
            index.search(black_box(users.row(q)), &items, &[], 10, index.nprobe())
        })
    });
    c.bench_function("index_search_k10_exhaustive", |b| {
        b.iter(|| {
            let q = next_user();
            index.search(black_box(users.row(q)), &items, &[], 10, clusters)
        })
    });

    // The exact tier's cost at the same catalog, for the speedup ratio:
    // the exact scan primitive the exact tier runs.
    let scan = ScanTable::new(Geometry::Hyperbolic, &items);
    c.bench_function("exact_scan_k10_10000", |b| {
        let mut keys = vec![0.0f64; items.rows()];
        b.iter(|| {
            let q = next_user();
            scan.top_k(black_box(users.row(q)), &items, &[], 10, &mut keys)
        })
    });
}

/// Short measurement windows: these benches run on constrained CI-like
/// machines (often a single core); trends matter more than tight CIs.
fn quick() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_millis(800))
}
criterion_group! {
    name = benches;
    config = quick();
    targets = bench_index
}
criterion_main!(benches);
