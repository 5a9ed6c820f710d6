//! Internal tuning helper (not a paper artifact): sweeps learning rates
//! for LogiRec++ and the batched graph baselines on the validation split,
//! mirroring the paper's grid search protocol (Section VI-A4).
//!
//! Run: `cargo run --release -p logirec-bench --bin tune -- --scale small --datasets ciao`

use logirec_baselines::{train_method, Method};
use logirec_bench::harness::{self, baseline_config, logirec_config, Results, RunArgs, ALL_DATASETS};
use logirec_core::train;
use logirec_data::Split;
use logirec_eval::evaluate;

/// (mining, lr, margin, lambda, epochs, negatives, batch)
type Point = (bool, f64, f64, f64, usize, usize, usize);

fn grid() -> Vec<Point> {
    vec![
        (true, 0.02, 1.0, 0.1, 40, 8, 256),
        (true, 0.02, 1.0, 0.5, 40, 8, 256),
        (true, 0.02, 1.0, 1.0, 40, 8, 256),
        (true, 0.02, 1.0, 0.5, 80, 8, 256),
        (false, 0.02, 1.0, 0.5, 40, 8, 256),
    ]
}

fn main() -> std::process::ExitCode {
    harness::main("tune", ALL_DATASETS, run)
}

fn run(args: &RunArgs, out: &Results) -> Result<(), String> {
    for spec in &args.specs {
        let ds = spec.generate_traced(100, &args.telemetry);
        out.save(&format!("== {} ==", spec.name))?;
        for (mining, lr, margin, lambda, epochs, negatives, batch) in grid() {
            let mut cfg = logirec_config(args, spec.name, mining, 1);
            cfg.lr = lr;
            cfg.margin = margin;
            cfg.lambda = lambda;
            cfg.epochs = epochs;
            cfg.negatives = negatives;
            cfg.batch_size = batch;
            cfg.eval_every = 5;
            let (model, _) = train(cfg, &ds);
            let r =
                evaluate(&model, &ds, Split::Validation, &[10], args.threads).recall_at(10);
            let filter = logirec_core::LogicFilter::build(&model, &ds, 0.05, 1000.0);
            let ranker = logirec_core::FilteredRanker {
                model: &model,
                filter: &filter,
                item_tags: &ds.item_tags,
            };
            let rf =
                evaluate(&ranker, &ds, Split::Validation, &[10], args.threads).recall_at(10);
            let skip = filter.skip_fraction(&ds.item_tags);
            out.save(&format!(
                "  LogiRec(mining={mining}) lr={lr} m={margin} lam={lambda} ep={epochs} neg={negatives} bs={batch}: val R@10 {r:.4} filtered {rf:.4} (skip {:.1}%)",
                100.0 * skip
            ))?;
        }
        for method in [Method::Agcn, Method::LightGcn] {
            let cfg = method.tuned(&baseline_config(args, 1));
            let m = train_method(method, &cfg, &ds);
            let r = evaluate(&m, &ds, Split::Validation, &[10], args.threads).recall_at(10);
            out.save(&format!("  {} lr={}: val R@10 {r:.4}", method.label(), cfg.lr))?;
        }
    }
    Ok(())
}
