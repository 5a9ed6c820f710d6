//! Benchmarks of the four loss kernels (Eq. 3–5, 9) with their gradients.

use criterion::{criterion_group, criterion_main, Criterion};
use logirec_core::losses::{
    exclusion_loss_grad, hierarchy_loss_grad, membership_loss_grad, rank_loss_grad, LogicGrads,
};
use logirec_core::{LogiRec, LogiRecConfig, PropGraph};
use logirec_data::{DatasetSpec, NegativeSampler, Scale};
use logirec_linalg::SplitMix64;
use logirec_taxonomy::TagId;
use std::hint::black_box;

fn bench_losses(c: &mut Criterion) {
    let ds = DatasetSpec::cd(Scale::Tiny).generate(1);
    let cfg = LogiRecConfig { dim: 64, ..LogiRecConfig::default() };
    let mut model: LogiRec = LogiRec::new(cfg, &ds);
    model.propagate(&ds.train);

    // A 256-triplet ranking batch.
    let mut sampler = NegativeSampler::new(&ds.train, SplitMix64::new(3));
    let triplets: Vec<(usize, usize, usize)> = ds
        .train
        .iter_pairs()
        .take(256)
        .map(|(u, v)| (u, v, sampler.sample(u)))
        .collect();
    c.bench_function("rank_loss_grad_256", |b| {
        b.iter(|| rank_loss_grad(black_box(&model), &triplets, 0.1, None, 1.0 / 256.0))
    });

    let mem: Vec<(usize, TagId)> =
        ds.relations.membership.iter().copied().take(256).collect();
    let hie: Vec<(TagId, TagId)> =
        ds.relations.hierarchy.iter().copied().take(256).collect();
    let ex: Vec<(TagId, TagId)> =
        ds.relations.exclusion.iter().map(|&(a, b, _)| (a, b)).take(256).collect();
    let mut acc = LogicGrads::zeros(&model);
    c.bench_function("membership_loss_grad_256", |b| {
        b.iter(|| {
            acc.reset();
            membership_loss_grad(black_box(&model), &mem, 0.1, &mut acc)
        })
    });
    c.bench_function("hierarchy_loss_grad", |b| {
        b.iter(|| {
            acc.reset();
            hierarchy_loss_grad(black_box(&model), &hie, 0.1, &mut acc)
        })
    });
    c.bench_function("exclusion_loss_grad", |b| {
        b.iter(|| {
            acc.reset();
            exclusion_loss_grad(black_box(&model), &ex, 0.1, &mut acc)
        })
    });
    c.bench_function("full_backward_rank", |b| {
        let rg = rank_loss_grad(&model, &triplets, 0.1, None, 1.0 / 256.0);
        let pg = PropGraph::build(&ds.train);
        b.iter(|| model.backward_rank_graph(black_box(&rg.user_final), &rg.item_final, &pg))
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
    targets = bench_losses
}
criterion_main!(benches);
