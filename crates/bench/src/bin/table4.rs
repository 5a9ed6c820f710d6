//! Table IV — hyperparameter studies on CD and Clothing.
//!
//! Sweeps, with all other parameters at their defaults:
//! * GCN depth `L ∈ {1, 2, 3, 4}` — paper optimum: 3;
//! * logic weight `λ ∈ {0, 0.01, 0.1, 1.0, 1.5}` — optimum 0.1 (CD) /
//!   1.0 (Clothing);
//! * margin `m ∈ {0, 0.5, 1, 2}` (rescaled from the paper's {0, .1, .2,
//!   .3}: plain RSGD + layer-sum aggregation inflate carrier distances,
//!   see EXPERIMENTS.md) — interior optimum expected at 1;
//! * dimension `d ∈ {32, 64, 128}` — monotone gains, 64 chosen.
//!
//! Run: `cargo run --release -p logirec-bench --bin table4 -- --scale small --datasets cd,clothing`

use logirec_bench::harness::{self, logirec_config, over_seeds, Results, RunArgs};
use logirec_bench::table::{self, Row};
use logirec_core::train;

fn main() -> std::process::ExitCode {
    // Table IV only covers CD and Clothing in the paper.
    harness::main("table4", &["cd", "clothing"], run)
}

fn run(args: &RunArgs, out: &Results) -> Result<(), String> {
    let tel = &args.telemetry;
    let headers = ["Recall@10", "NDCG@10"];

    for spec in &args.specs {
        tel.progress(format!("== dataset {} ==", spec.name));
        let mut rows: Vec<Row> = Vec::new();
        for (label, mutator) in sweep_list() {
            let m = over_seeds(args, spec, |ds, seed| {
                let mut cfg = logirec_config(args, spec.name, true, seed);
                mutator(&mut cfg);
                train(cfg, ds).0
            });
            let [r10, _, n10, _] = m.agg;
            tel.progress(format!("  {label:>10}: R@10 {}", r10.format_percent()));
            rows.push(Row::from_metrics(label, &[r10, n10], false));
        }
        let title =
            format!("Table IV ({}, scale = {:?}, seeds = {})", spec.name, args.scale, args.seeds);
        out.save(&table::render(&title, &headers, &rows))?;
    }
    Ok(())
}

type Mutator = Box<dyn Fn(&mut logirec_core::LogiRecConfig)>;

fn sweep_list() -> Vec<(String, Mutator)> {
    let mut out: Vec<(String, Mutator)> = Vec::new();
    for l in [1usize, 2, 3, 4] {
        out.push((format!("L = {l}"), Box::new(move |c| c.layers = l)));
    }
    for lam in [0.0, 0.01, 0.1, 1.0, 1.5] {
        out.push((format!("lambda = {lam}"), Box::new(move |c| c.lambda = lam)));
    }
    for m in [0.0, 0.5, 1.0, 2.0] {
        out.push((format!("m = {m}"), Box::new(move |c| c.margin = m)));
    }
    for d in [32usize, 64, 128] {
        out.push((format!("d = {d}"), Box::new(move |c| c.dim = d)));
    }
    out
}
