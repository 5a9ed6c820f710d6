//! `index_bench` — the retrieval-index experiment harness behind
//! `results/index.txt`.
//!
//! Sweeps `nprobe` over the clustered hyperbolic index on two catalogs:
//!
//! 1. **paper** — the ciao paper-scale dataset (5,180 users / 8,836 items)
//!    with a propagated model snapshot, the catalog the serving tier
//!    actually sees;
//! 2. **synthetic-100k** — a ≥10× synthetic hyperboloid catalog
//!    (100,000 items), where the approx tier's asymptotics show.
//!
//! Per sweep point it reports mean per-query latency of the exact full
//! scan (the `logirec_core::scan` primitive the exact tier runs) and the
//! approx search, recall@10/recall@20 against the exact
//! ranking, and the measured scan fraction; the index build time is
//! printed once per catalog.
//!
//! ```text
//! index_bench [--users N] [--seed N]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use logirec_suite::core::{Geometry, LogiRec, LogiRecConfig, Precision, ScanTable};
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::eval::ranking::top_k_indices;
use logirec_suite::flag_value;
use logirec_suite::hyperbolic::lorentz;
use logirec_suite::linalg::{Embedding, SplitMix64};
use logirec_suite::serve::{ClusterIndex, IndexConfig, ModelSnapshot, ServeContext};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("index_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let users: usize = flag_value(args, "--users", 100)?;
    let seed: u64 = flag_value(args, "--seed", 9)?;
    paper_sweep(users, seed);
    println!();
    synthetic_sweep(users, seed);
    Ok(())
}

/// One sweep row: exact vs approx per-query latency, recall, and scan
/// fraction at a fixed `nprobe`.
#[allow(clippy::too_many_arguments)]
fn row(
    nprobe: usize,
    clusters: usize,
    exact_us: f64,
    approx_us: f64,
    recall10: f64,
    recall20: f64,
    scan: f64,
) {
    println!(
        "  nprobe={nprobe:<4} ({:>5.1}% of {clusters} clusters)  exact={exact_us:>8.1}us  \
         approx={approx_us:>8.1}us  speedup={:>5.2}x  recall@10={recall10:.4}  \
         recall@20={recall20:.4}  scanned={:>5.1}%",
        100.0 * nprobe as f64 / clusters as f64,
        exact_us / approx_us.max(0.01),
        100.0 * scan,
    );
}

/// Paper-scale ciao: the snapshot's propagated tables, the serving mask,
/// and the exact tier as the baseline.
fn paper_sweep(users: usize, seed: u64) {
    let t0 = Instant::now();
    let ds = DatasetSpec::ciao(Scale::Paper).generate(seed);
    let ctx = std::sync::Arc::new(ServeContext::from_dataset(&ds));
    let model = LogiRec::new(LogiRecConfig { dim: 16, ..LogiRecConfig::test_config() }, &ds);
    let snap = ModelSnapshot::build_with_index(
        model,
        Precision::F64,
        &ctx,
        "index_bench",
        Some(IndexConfig::default()),
    )
    .expect("snapshot build");
    let index = snap.index().expect("index");
    let clusters = index.clusters();
    println!(
        "catalog: ciao/paper seed {seed} — {} users / {} items, d=16, {} clusters, \
         index build {:.1}ms (setup {:.1}s)",
        ds.n_users(),
        ds.n_items(),
        clusters,
        index.build_us() as f64 / 1e3,
        t0.elapsed().as_secs_f64(),
    );

    let n_users = ds.n_users();
    let stride = (n_users / users).max(1);
    let sample: Vec<usize> = (0..n_users).step_by(stride).take(users).collect();

    // Exact baseline: full scan through the serving path, timed once.
    let mut scratch = Vec::new();
    let t0 = Instant::now();
    let exact20: Vec<Vec<usize>> = sample
        .iter()
        .map(|&u| snap.top_k(u, 20, &mut scratch).expect("exact").0)
        .collect();
    let exact_us = t0.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;

    for nprobe in [1, 2, 4, 8, 12, 16, 24, 32, clusters] {
        let nprobe = nprobe.min(clusters);
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(sample.len());
        for &u in &sample {
            results.push(snap.approx_top_k(u, 20, Some(nprobe)).unwrap().unwrap());
        }
        let approx_us = t0.elapsed().as_secs_f64() * 1e6 / sample.len() as f64;
        let (mut h10, mut h20, mut scan) = (0usize, 0usize, 0.0f64);
        let mut t10 = 0usize;
        let mut t20 = 0usize;
        for ((items, _, report), exact) in results.iter().zip(&exact20) {
            let e10 = &exact[..exact.len().min(10)];
            h10 += e10.iter().filter(|v| items[..items.len().min(10)].contains(v)).count();
            t10 += e10.len();
            h20 += exact.iter().filter(|v| items.contains(v)).count();
            t20 += exact.len();
            scan += report.scan_fraction();
        }
        row(
            nprobe,
            clusters,
            exact_us,
            approx_us,
            h10 as f64 / t10.max(1) as f64,
            h20 as f64 / t20.max(1) as f64,
            scan / sample.len() as f64,
        );
        if nprobe == clusters {
            println!("  (nprobe=clusters is the exhaustive probe: bit-identical to exact)");
        }
    }
}

/// A 100k-item synthetic hyperboloid catalog (≥10× paper scale): raw
/// index search against the raw full scan, no serving mask.
fn synthetic_sweep(users: usize, seed: u64) {
    let n_items = 100_000;
    let dim = 16;
    let t0 = Instant::now();
    let items = hyperboloid(n_items, dim, seed);
    let queries = hyperboloid(users, dim, seed + 1);
    let cfg = IndexConfig::default();
    let index = ClusterIndex::build(&items, Geometry::Hyperbolic, &cfg);
    let clusters = index.clusters();
    println!(
        "catalog: synthetic-100k seed {seed} — {n_items} items, d={dim}, {} clusters, \
         index build {:.1}ms (setup {:.1}s)",
        clusters,
        index.build_us() as f64 / 1e3,
        t0.elapsed().as_secs_f64(),
    );

    // Exact baseline: the exact scan primitive the exact tier runs (its
    // blocked table is built once, outside the timed loop, as a snapshot
    // build does).
    let exact = ScanTable::new(Geometry::Hyperbolic, &items);
    let mut keys = vec![0.0f64; n_items];
    let t0 = Instant::now();
    let exact20: Vec<Vec<usize>> = (0..queries.rows())
        .map(|q| exact.top_k(queries.row(q), &items, &[], 20, &mut keys).0)
        .collect();
    let exact_us = t0.elapsed().as_secs_f64() * 1e6 / queries.rows() as f64;
    // Cross-check one query against the per-item distance loop.
    let last = queries.rows() - 1;
    let scores: Vec<f64> =
        items.iter_rows().map(|row| -lorentz::distance(queries.row(last), row)).collect();
    assert_eq!(top_k_indices(&scores, 20), exact20[last], "scan diverged from the distance loop");

    for nprobe in [1, 2, 4, 8, 16, 24, 40, 64, 128, clusters] {
        let nprobe = nprobe.min(clusters);
        let t0 = Instant::now();
        let mut results = Vec::with_capacity(queries.rows());
        for q in 0..queries.rows() {
            results.push(index.search(queries.row(q), &items, &[], 20, nprobe));
        }
        let approx_us = t0.elapsed().as_secs_f64() * 1e6 / queries.rows() as f64;
        let (mut h10, mut h20, mut scan) = (0usize, 0usize, 0.0f64);
        let (mut t10, mut t20) = (0usize, 0usize);
        for ((items20, _, report), exact) in results.iter().zip(&exact20) {
            let e10 = &exact[..10];
            h10 += e10.iter().filter(|v| items20[..items20.len().min(10)].contains(v)).count();
            t10 += e10.len();
            h20 += exact.iter().filter(|v| items20.contains(v)).count();
            t20 += exact.len();
            scan += report.scan_fraction();
        }
        row(
            nprobe,
            clusters,
            exact_us,
            approx_us,
            h10 as f64 / t10.max(1) as f64,
            h20 as f64 / t20.max(1) as f64,
            scan / queries.rows() as f64,
        );
        if nprobe == clusters {
            println!("  (nprobe=clusters is the exhaustive probe: bit-identical to exact)");
        }
    }
}

/// A synthetic hyperboloid table: `exp_origin` of small tangents.
fn hyperboloid(n: usize, d: usize, seed: u64) -> Embedding<f64> {
    let mut rng = SplitMix64::new(seed);
    let tangents = Embedding::<f64>::normal(n, d, 0.3, &mut rng);
    let mut out = Embedding::zeros(n, d + 1);
    for i in 0..n {
        lorentz::exp_origin_into(tangents.row(i), out.row_mut(i));
    }
    out
}
