//! Fig. 7 / Fig. 8 — item-embedding visualizations on CD and Book.
//!
//! The paper visualizes the item embeddings of AGCN, HRCF, LogiRec, and
//! LogiRec++ colored by tag group and argues LogiRec++ separates weakly
//! exclusive tag pairs best. This binary makes the claim quantitative:
//! items are labeled by their level-1 ancestor tag, a silhouette score is
//! computed in each method's native geometry (higher = better separated
//! tag clusters), and 2-D PCA projections are written to `results/` for
//! plotting.
//!
//! Paper expectation (shape): silhouette(LogiRec++) > silhouette(LogiRec)
//! > silhouette(HRCF), with AGCN competitive but below LogiRec++.
//!
//! Run: `cargo run --release -p logirec-bench --bin fig7_fig8 -- --scale small --datasets cd,book`

use logirec_baselines::graphs::train_agcn;
use logirec_baselines::hyper::train_hgcf;
use logirec_bench::harness::{self, baseline_config, logirec_config, Results, RunArgs};
use logirec_bench::table::{self, Row};
use logirec_core::train;
use logirec_data::Dataset;
use logirec_hyperbolic::{maps, poincare};
use logirec_linalg::{ops, SplitMix64};

fn main() -> std::process::ExitCode {
    harness::main("fig7_fig8", &["cd", "book"], run)
}

fn run(args: &RunArgs, out: &Results) -> Result<(), String> {
    let tel = &args.telemetry;
    for spec in &args.specs {
        tel.progress(format!("== dataset {} ==", spec.name));
        let ds = spec.generate_traced(100, tel);
        let labels = item_labels(&ds);

        let mut rows = Vec::new();

        // AGCN (Euclidean).
        let agcn = train_agcn(&logirec_baselines::Method::Agcn.tuned(&baseline_config(args, 1)), &ds);
        let agcn_items: Vec<Vec<f64>> =
            (0..ds.n_items()).map(|v| agcn.items.row(v).to_vec()).collect();
        rows.push(score_row("AGCN", &agcn_items, &labels, false, spec.name, tel, out)?);

        // HRCF (Lorentz → Poincaré).
        let hrcf = train_hgcf(&logirec_baselines::Method::Hrcf.tuned(&baseline_config(args, 1)), &ds, true);
        let hrcf_items: Vec<Vec<f64>> = (0..ds.n_items())
            .map(|v| maps::lorentz_to_poincare(hrcf.items.row(v)))
            .collect();
        rows.push(score_row("HRCF", &hrcf_items, &labels, true, spec.name, tel, out)?);

        // LogiRec and LogiRec++.
        for mining in [false, true] {
            let name = if mining { "LogiRec++" } else { "LogiRec" };
            let cfg = logirec_config(args, spec.name, mining, 1);
            let (model, _) = train(cfg, &ds);
            let items: Vec<Vec<f64>> =
                (0..ds.n_items()).map(|v| model.item_poincare(v)).collect();
            rows.push(score_row(name, &items, &labels, true, spec.name, tel, out)?);
        }

        let title = format!(
            "Fig. 7/8 ({}, scale = {:?}): tag-cluster silhouette (higher = better separated)",
            spec.name, args.scale
        );
        out.save(&table::render(&title, &["silhouette"], &rows))?;
    }
    Ok(())
}

/// Level-1 ancestor tag of each item's first tag — the "color" groups of
/// the paper's scatter plots.
fn item_labels(ds: &Dataset) -> Vec<usize> {
    (0..ds.n_items())
        .map(|v| {
            let t = ds.item_tags[v][0];
            *ds.taxonomy.ancestors(t).last().unwrap_or(&t)
        })
        .collect()
}

fn score_row(
    name: &str,
    items: &[Vec<f64>],
    labels: &[usize],
    hyperbolic: bool,
    dataset: &str,
    tel: &logirec_obs::Telemetry,
    out: &Results,
) -> Result<Row, String> {
    let s = silhouette(items, labels, hyperbolic, 400);
    tel.progress(format!("  {name:>10}: silhouette {s:.4}"));
    let file = format!("fig78_{dataset}_{}.tsv", name.replace("+", "p"));
    out.write(&file, &projection(items, labels))?;
    Ok(Row { label: name.to_string(), cells: vec![format!("{s:.4}")] })
}

/// Mean silhouette coefficient over a deterministic sample of items, using
/// the Poincaré metric for hyperbolic embeddings and the Euclidean metric
/// otherwise.
fn silhouette(items: &[Vec<f64>], labels: &[usize], hyperbolic: bool, cap: usize) -> f64 {
    let mut rng = SplitMix64::new(7);
    let mut idx: Vec<usize> = (0..items.len()).collect();
    rng.shuffle(&mut idx);
    idx.truncate(cap);
    let dist = |a: &[f64], b: &[f64]| {
        if hyperbolic {
            poincare::distance(a, b)
        } else {
            ops::dist(a, b)
        }
    };
    let classes: Vec<usize> = {
        let mut c: Vec<usize> = idx.iter().map(|&i| labels[i]).collect();
        c.sort_unstable();
        c.dedup();
        c
    };
    let mut total = 0.0;
    let mut n = 0usize;
    for &i in &idx {
        let mut sums: Vec<(f64, usize)> = vec![(0.0, 0); classes.len()];
        for &j in &idx {
            if i == j {
                continue;
            }
            let k = classes.binary_search(&labels[j]).expect("class known");
            let d = dist(&items[i], &items[j]);
            sums[k].0 += d;
            sums[k].1 += 1;
        }
        let own = classes.binary_search(&labels[i]).expect("class known");
        if sums[own].1 == 0 {
            continue;
        }
        let a = sums[own].0 / sums[own].1 as f64;
        let b = sums
            .iter()
            .enumerate()
            .filter(|&(k, &(_, cnt))| k != own && cnt > 0)
            .map(|(_, &(s, cnt))| s / cnt as f64)
            .fold(f64::INFINITY, f64::min);
        if b.is_finite() {
            total += (b - a) / a.max(b).max(1e-12);
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// A 2-D PCA projection (x, y, label) per item, written to
/// `results/fig78_<dataset>_<method>.tsv` for external plotting.
fn projection(items: &[Vec<f64>], labels: &[usize]) -> String {
    let (p1, p2) = pca2(items);
    let mut tsv = String::from("x\ty\tlabel\n");
    for (v, item) in items.iter().enumerate() {
        tsv.push_str(&format!(
            "{:.6}\t{:.6}\t{}\n",
            ops::dot(item, &p1),
            ops::dot(item, &p2),
            labels[v]
        ));
    }
    tsv
}

/// First two principal directions via power iteration with deflation.
fn pca2(items: &[Vec<f64>]) -> (Vec<f64>, Vec<f64>) {
    let d = items[0].len();
    let n = items.len() as f64;
    let mean: Vec<f64> = (0..d)
        .map(|k| items.iter().map(|x| x[k]).sum::<f64>() / n)
        .collect();
    let centered: Vec<Vec<f64>> = items.iter().map(|x| ops::sub(x, &mean)).collect();
    let power = |deflate: Option<&[f64]>| -> Vec<f64> {
        let mut v = vec![0.0; d];
        let mut rng = SplitMix64::new(13);
        for x in &mut v {
            *x = rng.normal();
        }
        for _ in 0..50 {
            if let Some(p) = deflate {
                let proj = ops::dot(&v, p);
                ops::axpy(-proj, p, &mut v);
            }
            // v ← Cov · v = (1/n) Σ x (x·v)
            let mut next = vec![0.0; d];
            for x in &centered {
                ops::axpy(ops::dot(x, &v), x, &mut next);
            }
            let norm = ops::norm(&next).max(1e-12);
            ops::scale(&mut next, 1.0 / norm);
            v = next;
        }
        if let Some(p) = deflate {
            let proj = ops::dot(&v, p);
            ops::axpy(-proj, p, &mut v);
            let norm = ops::norm(&v).max(1e-12);
            ops::scale(&mut v, 1.0 / norm);
        }
        v
    };
    let p1 = power(None);
    let p2 = power(Some(&p1));
    (p1, p2)
}
