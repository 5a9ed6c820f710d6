//! Before/after benchmarks for the precision-generic, allocation-free
//! math kernels: the allocating f64 wrappers (the pre-refactor shape of
//! the hot path) against the write-into-caller-buffer `_into` kernels in
//! both f64 and f32, plus the GCN propagate pass per precision. Numbers
//! from this bin are committed to `results/kernels.txt`.

use criterion::{criterion_group, criterion_main, Criterion};
use logirec_core::graph::{self, PropGraph};
use logirec_data::{DatasetSpec, Scale};
use logirec_hyperbolic::lorentz;
use logirec_linalg::{Embedding, Scalar, SplitMix64};
use std::hint::black_box;

const DIM: usize = 64;

/// Two points on the hyperboloid (`DIM + 1` ambient coordinates), the
/// spatial tangent coordinates of the first (`DIM`), an ambient gradient
/// (`DIM + 1`), and a tangent gradient (`DIM`), in precision `S`.
#[allow(clippy::type_complexity)]
fn fixtures<S: Scalar>(seed: u64) -> (Vec<S>, Vec<S>, Vec<S>, Vec<S>, Vec<S>) {
    let mut rng = SplitMix64::new(seed);
    let mut unit = || S::from_f64(2.0 * rng.next_f64() - 1.0);
    let z: Vec<S> = (0..DIM).map(|_| unit() * S::from_f64(0.1)).collect();
    let w: Vec<S> = (0..DIM).map(|_| unit() * S::from_f64(0.1)).collect();
    let g_tan: Vec<S> = (0..DIM).map(|_| unit()).collect();
    let mut g_amb = vec![S::ZERO; DIM + 1];
    for v in g_amb.iter_mut() {
        *v = unit();
    }
    let x = lorentz::exp_origin(&z);
    let y = lorentz::exp_origin(&w);
    (x, y, z, g_amb, g_tan)
}

fn bench_distance(c: &mut Criterion) {
    let (x64, y64, _, _, _) = fixtures::<f64>(7);
    let (x32, y32, _, _, _) = fixtures::<f32>(7);
    let mut group = c.benchmark_group("lorentz_distance");
    group.bench_function("f64", |b| {
        b.iter(|| lorentz::distance(black_box(&x64), black_box(&y64)))
    });
    group.bench_function("f32", |b| {
        b.iter(|| lorentz::distance(black_box(&x32), black_box(&y32)))
    });
    group.finish();

    let mut group = c.benchmark_group("distance_vjp");
    group.bench_function("alloc_f64", |b| {
        b.iter(|| lorentz::distance_vjp(black_box(&x64), black_box(&y64), 1.0))
    });
    let mut gx = vec![0.0f64; DIM + 1];
    let mut gy = vec![0.0f64; DIM + 1];
    group.bench_function("into_f64", |b| {
        b.iter(|| {
            lorentz::distance_vjp_into(black_box(&x64), black_box(&y64), 1.0, &mut gx, &mut gy)
        })
    });
    let mut gx = vec![0.0f32; DIM + 1];
    let mut gy = vec![0.0f32; DIM + 1];
    group.bench_function("into_f32", |b| {
        b.iter(|| {
            lorentz::distance_vjp_into(black_box(&x32), black_box(&y32), 1.0f32, &mut gx, &mut gy)
        })
    });
    group.finish();
}

fn bench_exp_log_vjp(c: &mut Criterion) {
    let (x64, _, z64, ga64, gt64) = fixtures::<f64>(11);
    let (x32, _, z32, ga32, gt32) = fixtures::<f32>(11);

    let mut group = c.benchmark_group("exp_origin_vjp");
    group.bench_function("alloc_f64", |b| {
        b.iter(|| lorentz::exp_origin_vjp(black_box(&z64), black_box(&ga64)))
    });
    let mut out = vec![0.0f64; DIM];
    group.bench_function("into_f64", |b| {
        b.iter(|| lorentz::exp_origin_vjp_into(black_box(&z64), black_box(&ga64), &mut out))
    });
    let mut out = vec![0.0f32; DIM];
    group.bench_function("into_f32", |b| {
        b.iter(|| lorentz::exp_origin_vjp_into(black_box(&z32), black_box(&ga32), &mut out))
    });
    group.finish();

    let mut group = c.benchmark_group("log_origin_vjp");
    group.bench_function("alloc_f64", |b| {
        b.iter(|| lorentz::log_origin_vjp(black_box(&x64), black_box(&gt64)))
    });
    let mut out = vec![0.0f64; DIM + 1];
    group.bench_function("into_f64", |b| {
        b.iter(|| lorentz::log_origin_vjp_into(black_box(&x64), black_box(&gt64), &mut out))
    });
    let mut out = vec![0.0f32; DIM + 1];
    group.bench_function("into_f32", |b| {
        b.iter(|| lorentz::log_origin_vjp_into(black_box(&x32), black_box(&gt32), &mut out))
    });
    group.finish();
}

fn bench_propagate(c: &mut Criterion) {
    let ds = DatasetSpec::cd(Scale::Tiny).generate(1);
    let mut rng = SplitMix64::new(2);
    let zu: Embedding = Embedding::normal(ds.n_users(), DIM, 0.1, &mut rng);
    let zv: Embedding = Embedding::normal(ds.n_items(), DIM, 0.1, &mut rng);
    let zu32 = zu.cast::<f32>();
    let zv32 = zv.cast::<f32>();

    // Each iteration builds the graph and runs one pass, as the committed
    // `results/kernels.txt` rows were measured.
    let mut group = c.benchmark_group("propagate_forward");
    group.bench_function("f64", |b| {
        b.iter(|| {
            let adj = PropGraph::build(black_box(&ds.train));
            graph::propagate_forward_graph(&adj, &zu, &zv, 2, 1)
        })
    });
    group.bench_function("f32", |b| {
        b.iter(|| {
            let adj = PropGraph::build(black_box(&ds.train));
            graph::propagate_forward_graph(&adj, &zu32, &zv32, 2, 1)
        })
    });
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
    targets = bench_distance, bench_exp_log_vjp, bench_propagate
}
criterion_main!(benches);
