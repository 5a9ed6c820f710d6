//! Fig. 6 — sensitivity of LogiRec++ to the logic-loss weight λ, against
//! the best baseline, on all four datasets.
//!
//! Paper expectation (shape): an inverted-U in λ with the optimum at 0.1
//! on Ciao/CD and 1.0 on Clothing/Book; LogiRec++ above the best baseline
//! across the useful λ range; λ = 0 (no logical relations) clearly worse.
//!
//! Run: `cargo run --release -p logirec-bench --bin fig6 -- --scale small`

use logirec_baselines::{train_method, Method};
use logirec_bench::harness::{self, baseline_config, logirec_config, ExpMetrics, Results, RunArgs};
use logirec_bench::table::{self, Row};
use logirec_core::train;

const LAMBDAS: [f64; 5] = [0.0, 0.01, 0.1, 1.0, 1.5];

fn main() -> std::process::ExitCode {
    // Default to the two datasets Table IV also studies; pass
    // --datasets ciao,cd,clothing,book for all four.
    harness::main("fig6", &["cd", "clothing"], run)
}

fn run(args: &RunArgs, out: &Results) -> Result<(), String> {
    let tel = &args.telemetry;
    for spec in &args.specs {
        tel.progress(format!("== dataset {} ==", spec.name));
        let ds = spec.generate_traced(100, tel);

        // Best baseline reference line: HRCF (the paper's most frequent
        // runner-up; AGCN occasionally wins but HRCF is the hyperbolic SOTA).
        let bcfg = Method::Hrcf.tuned(&baseline_config(args, 1));
        let hrcf = train_method(Method::Hrcf, &bcfg, &ds);
        let base = ExpMetrics::collect(&hrcf, &ds, args.threads);

        let mut rows = Vec::new();
        rows.push(Row {
            label: "HRCF (best baseline)".into(),
            cells: vec![format!("{:.2}", 100.0 * base.r10), format!("{:.2}", 100.0 * base.n10)],
        });
        for lambda in LAMBDAS {
            let mut cfg = logirec_config(args, spec.name, true, 1);
            cfg.lambda = lambda;
            let (model, _) = train(cfg, &ds);
            let m = ExpMetrics::collect(&model, &ds, args.threads);
            tel.progress(format!("  lambda {lambda}: R@10 {:.4}", m.r10));
            rows.push(Row {
                label: format!("LogiRec++ lambda={lambda}"),
                cells: vec![format!("{:.2}", 100.0 * m.r10), format!("{:.2}", 100.0 * m.n10)],
            });
        }
        let title = format!("Fig. 6 ({}, scale = {:?})", spec.name, args.scale);
        out.save(&table::render(&title, &["Recall@10 %", "NDCG@10 %"], &rows))?;
    }
    Ok(())
}
