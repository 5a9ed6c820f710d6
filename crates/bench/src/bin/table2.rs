//! Table II — overall comparison of all 15 methods on the four benchmarks.
//!
//! For every dataset, trains the 13 baselines plus LogiRec and LogiRec++
//! over `--seeds` random seeds and reports Recall@{10,20} / NDCG@{10,20}
//! as mean±std (percent). LogiRec++ cells carry `*` when the Wilcoxon
//! signed-rank test against the best baseline's per-user recalls is
//! significant at α = 0.05, matching the paper's protocol.
//!
//! Paper expectation (shape): LogiRec++ > LogiRec > {HRCF | AGCN} > other
//! baselines, with the largest relative gains on the tag-rich sparse
//! datasets (Clothing, Book).
//!
//! Run: `cargo run --release -p logirec-bench --bin table2 -- --scale small --seeds 2`

use logirec_baselines::{train_method, Method};
use logirec_bench::harness::{
    self, baseline_config, logirec_config, over_seeds, Results, RunArgs, SeedMetrics, ALL_DATASETS,
};
use logirec_bench::table::{self, Row};
use logirec_core::train;
use logirec_eval::wilcoxon_signed_rank;

fn main() -> std::process::ExitCode {
    harness::main("table2", ALL_DATASETS, run)
}

fn run(args: &RunArgs, out: &Results) -> Result<(), String> {
    let tel = &args.telemetry;
    let headers = ["Recall@10", "Recall@20", "NDCG@10", "NDCG@20"];

    for spec in &args.specs {
        tel.progress(format!("== dataset {} ==", spec.name));
        // Per-method metrics over the seeds, with the last seed's per-user
        // recall vector (for significance pairing).
        let mut methods: Vec<(&str, SeedMetrics)> = Vec::new();

        for method in Method::all() {
            let m = over_seeds(args, spec, |ds, seed| {
                train_method(method, &method.tuned(&baseline_config(args, seed)), ds)
            });
            tel.progress(format!("  {:>9}: R@10 {:.4}", method.label(), m.agg[0].mean));
            methods.push((method.label(), m));
        }

        for mining in [false, true] {
            let label = if mining { "LogiRec++" } else { "LogiRec" };
            let m = over_seeds(args, spec, |ds, seed| {
                train(logirec_config(args, spec.name, mining, seed), ds).0
            });
            tel.progress(format!("  {label:>9}: R@10 {:.4}", m.agg[0].mean));
            methods.push((label, m));
        }

        // Best baseline by mean Recall@10 (excludes the two LogiRec rows).
        let (best_label, best) = methods[..13]
            .iter()
            .max_by(|a, b| a.1.agg[0].mean.partial_cmp(&b.1.agg[0].mean).expect("finite"))
            .expect("baselines exist");

        let mut rows = Vec::new();
        for (label, m) in &methods {
            let star = *label == "LogiRec++"
                && m.per_user.len() == best.per_user.len()
                && wilcoxon_signed_rank(&m.per_user, &best.per_user)
                    .is_some_and(|w| w.significant(0.05) && w.z > 0.0);
            rows.push(Row::from_metrics(*label, &m.agg, star));
        }
        let title = format!(
            "Table II ({}, scale = {:?}, seeds = {}; best baseline: {best_label})",
            spec.name, args.scale, args.seeds
        );
        out.save(&table::render(&title, &headers, &rows))?;
    }
    Ok(())
}
