//! Benchmarks of the hyperbolic GCN propagation (Eq. 7) — forward and
//! transpose passes over the interaction graph, per layer depth (the
//! Table IV `L` ablation's compute side).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use logirec_core::graph::{self, PropGraph};
use logirec_data::{DatasetSpec, Scale};
use logirec_linalg::{Embedding, SplitMix64};
use std::hint::black_box;

fn bench_gcn(c: &mut Criterion) {
    let ds = DatasetSpec::cd(Scale::Tiny).generate(1);
    let dim = 64;
    let mut rng = SplitMix64::new(2);
    let zu: Embedding = Embedding::normal(ds.n_users(), dim, 0.1, &mut rng);
    let zv: Embedding = Embedding::normal(ds.n_items(), dim, 0.1, &mut rng);

    // Each iteration builds the graph and runs one pass.
    let mut group = c.benchmark_group("gcn_propagate");
    for layers in [1usize, 2, 3, 4] {
        group.bench_with_input(BenchmarkId::new("forward", layers), &layers, |b, &l| {
            b.iter(|| {
                let adj = PropGraph::build(black_box(&ds.train));
                graph::propagate_forward_graph(&adj, &zu, &zv, l, 1)
            })
        });
        group.bench_with_input(BenchmarkId::new("backward", layers), &layers, |b, &l| {
            b.iter(|| {
                let adj = PropGraph::build(black_box(&ds.train));
                graph::propagate_backward_graph(&adj, &zu, &zv, l, 1)
            })
        });
    }
    group.finish();
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
    targets = bench_gcn
}
criterion_main!(benches);
