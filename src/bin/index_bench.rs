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
//! printed once per catalog. Each row times the exact scan and the
//! approx search in alternating passes over the query sample, `PASSES`
//! (5) of each, and reports each side's fastest pass, so a burst of load
//! from other processes on the host lands on both sides or on neither.
//!
//! ```text
//! index_bench [--users N] [--seed N]
//! ```

use std::process::ExitCode;
use std::time::Instant;

use logirec_suite::core::{Geometry, LogiRec, LogiRecConfig, Precision, ScanTable};
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::eval::ranking::top_k_indices;
use logirec_suite::hyperbolic::lorentz;
use logirec_suite::linalg::{Embedding, SplitMix64};
use logirec_suite::serve::{ClusterIndex, IndexConfig, ModelSnapshot, ServeContext};
use logirec_suite::Flags;

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

const USAGE: &str = "usage: index_bench [--users N] [--seed N]";

/// Timed passes per side of a sweep point; the fastest is reported.
const PASSES: usize = 5;

/// Runs `exact` and `approx` over `0..n` in alternating passes, [`PASSES`]
/// each, and returns each side's answers with its fastest pass's mean
/// per-query time in µs.
fn timed_pair<A, B>(
    n: usize,
    mut exact: impl FnMut(usize) -> A,
    mut approx: impl FnMut(usize) -> B,
) -> ((Vec<A>, f64), (Vec<B>, f64)) {
    fn pass<T>(n: usize, query: &mut impl FnMut(usize) -> T, best: &mut f64) -> Vec<T> {
        let t0 = Instant::now();
        let answers = (0..n).map(query).collect();
        *best = best.min(t0.elapsed().as_secs_f64() * 1e6 / n.max(1) as f64);
        answers
    }
    let (mut exact_us, mut approx_us) = (f64::INFINITY, f64::INFINITY);
    let (mut a, mut b) = (Vec::new(), Vec::new());
    for _ in 0..PASSES {
        a = pass(n, &mut exact, &mut exact_us);
        b = pass(n, &mut approx, &mut approx_us);
    }
    ((a, exact_us), (b, approx_us))
}

fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, &["users", "seed"], &[], USAGE)?;
    let users: usize = flags.parse_or("users", 100)?;
    let seed: u64 = flags.parse_or("seed", 9)?;
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

    // Exact baseline: full scan through the serving path.
    let mut scratch = Vec::new();
    for nprobe in [1, 2, 4, 8, 12, 16, 24, 32, clusters] {
        let nprobe = nprobe.min(clusters);
        let ((exact20, exact_us), (results, approx_us)) = timed_pair(
            sample.len(),
            |i| snap.top_k(sample[i], 20, &mut scratch).expect("exact").0,
            |i| snap.approx_top_k(sample[i], 20, Some(nprobe)).unwrap().unwrap(),
        );
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

/// A 100k-item synthetic hyperboloid catalog (≥10× paper scale): index
/// search over its cluster-ordered table against the full scan of an
/// item-order table, no serving mask.
fn synthetic_sweep(users: usize, seed: u64) {
    let n_items = 100_000;
    let dim = 16;
    let t0 = Instant::now();
    let items = hyperboloid(n_items, dim, seed);
    let queries = hyperboloid(users, dim, seed + 1);
    let cfg = IndexConfig::default();
    let (index, table) = ClusterIndex::build_with_table(&items, Geometry::Hyperbolic, &cfg);
    let clusters = index.clusters();
    println!(
        "catalog: synthetic-100k seed {seed} — {n_items} items, d={dim}, {} clusters, \
         index build {:.1}ms (setup {:.1}s)",
        clusters,
        index.build_us() as f64 / 1e3,
        t0.elapsed().as_secs_f64(),
    );

    // Exact baseline: the exact scan primitive the unindexed exact tier
    // runs, over an item-order table (built once, outside the timed loop,
    // as a snapshot build does).
    let exact = ScanTable::new(Geometry::Hyperbolic, &items);
    let (mut exact_keys, mut keys) = (vec![0.0f64; n_items], vec![0.0f64; n_items]);
    // Cross-check one query against the per-item distance loop.
    let last = queries.row(queries.rows() - 1);
    let scores: Vec<f64> = items.iter_rows().map(|row| -lorentz::distance(last, row)).collect();
    assert_eq!(
        top_k_indices(&scores, 20),
        exact.top_k(last, &[], 20, &mut exact_keys).0,
        "scan diverged from the distance loop"
    );

    for nprobe in [1, 2, 4, 8, 16, 24, 40, 64, 128, clusters] {
        let nprobe = nprobe.min(clusters);
        let ((exact20, exact_us), (results, approx_us)) = timed_pair(
            queries.rows(),
            |q| exact.top_k(queries.row(q), &[], 20, &mut exact_keys).0,
            |q| index.search(&table, queries.row(q), &[], 20, nprobe, &mut keys),
        );
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
