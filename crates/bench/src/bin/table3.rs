//! Table III — ablation study of LogiRec++.
//!
//! Trains the seven Table III variants (full model; w/o L_Mem / L_Hie /
//! L_Ex; w/o HGCN; w/o LRM i.e. plain LogiRec; w/o Hyper i.e. Euclidean)
//! on each dataset.
//!
//! Paper expectation (shape): removing the HGCN hurts most, removing
//! L_Ex hurts least among the three relation losses, and the full model
//! wins everywhere.
//!
//! Run: `cargo run --release -p logirec-bench --bin table3 -- --scale small`

use logirec_bench::harness::{self, logirec_config, over_seeds, Results, RunArgs, ALL_DATASETS};
use logirec_bench::table::{self, Row};
use logirec_core::{train, Variant};

fn main() -> std::process::ExitCode {
    harness::main("table3", ALL_DATASETS, run)
}

fn run(args: &RunArgs, out: &Results) -> Result<(), String> {
    let tel = &args.telemetry;
    let headers = ["Recall@10", "Recall@20", "NDCG@10", "NDCG@20"];

    for spec in &args.specs {
        tel.progress(format!("== dataset {} ==", spec.name));
        let mut rows = Vec::new();
        for variant in Variant::table3() {
            let m = over_seeds(args, spec, |ds, seed| {
                train(variant.apply(logirec_config(args, spec.name, true, seed)), ds).0
            });
            tel.progress(format!("  {:>14}: R@10 {}", variant.label(), m.agg[0].format_percent()));
            rows.push(Row::from_metrics(variant.label(), &m.agg, false));
        }
        let title =
            format!("Table III ({}, scale = {:?}, seeds = {})", spec.name, args.scale, args.seeds);
        out.save(&table::render(&title, &headers, &rows))?;
    }
    Ok(())
}
