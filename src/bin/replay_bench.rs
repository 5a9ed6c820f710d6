//! `replay_bench` — temporal-replay cold-start benchmark.
//!
//! Splits a synthetic benchmark into a warm past and a cold future
//! ([`ReplayScenario`]): the frozen model trains on the warm users only,
//! then the cold users' first 80 % of events (by timestamp) are streamed
//! in — per-user fold-in, followed by one compaction pass over the event
//! log — and the final 20 % are the held-out test items. The matched
//! baseline retrains from scratch on warm + revealed events.
//!
//! Reports cold-start HR@10 / NDCG@10 for the streamed model against the
//! full retrain (the acceptance bound is ≤ 10 % relative deficit after
//! compaction) plus the per-user fold-in latency, and writes the block to
//! `results/replay.txt`.
//!
//! ```text
//! replay_bench [--scale tiny|small|paper] [--seed N] [--dim N]
//!              [--epochs N] [--cold-fraction X] [--threads N]
//!              [--fold-steps N] [--fold-negatives N] [--fold-lr X]
//!              [--compact-epochs N] [--compact-lr X] [--rehearsal X]
//!              [--out FILE]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use logirec_suite::core::stream::{compact, fold_in_user, CompactionOptions, EventLog, FoldInOptions};
use logirec_suite::core::{train, LogiRecConfig};
use logirec_suite::data::{DatasetSpec, ReplayScenario, Scale, Split};
use logirec_suite::eval::{evaluate, EvalResult};
use logirec_suite::Flags;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("replay_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: replay_bench [--scale tiny|small|paper] [--seed N] [--dim N]
                    [--epochs N] [--cold-fraction X] [--threads N]
                    [--fold-steps N] [--fold-negatives N] [--fold-lr X]
                    [--compact-epochs N] [--compact-lr X] [--rehearsal X]
                    [--out FILE]";

fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &[
            "scale", "seed", "dim", "epochs", "cold-fraction", "threads", "fold-steps",
            "fold-negatives", "fold-lr", "compact-epochs", "compact-lr", "rehearsal", "out",
        ],
        &[],
        USAGE,
    )?;
    let scale_raw = flags.get("scale").unwrap_or("paper");
    let scale = Scale::parse(scale_raw).ok_or_else(|| format!("bad --scale {scale_raw:?}"))?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let dim: usize = flags.parse_or("dim", 32)?;
    let epochs: usize = flags.parse_or("epochs", 15)?;
    let cold_fraction: f64 = flags.parse_or("cold-fraction", 0.1)?;
    let threads: usize =
        flags.parse_or("threads", std::thread::available_parallelism().map_or(4, |n| n.get()))?;
    let fold_steps: usize = flags.parse_or("fold-steps", 60)?;
    let fold_negatives: usize = flags.parse_or("fold-negatives", 8)?;
    let fold_lr: f64 = flags.parse_or("fold-lr", 0.1)?;
    let compact_epochs: usize = flags.parse_or("compact-epochs", 16)?;
    let compact_lr: f64 = flags.parse_or("compact-lr", 0.02)?;
    let rehearsal: f64 = flags.parse_or("rehearsal", 1.0)?;
    let out = PathBuf::from(flags.get("out").unwrap_or("results/replay.txt"));

    let spec = DatasetSpec::ciao(scale);
    let sc = ReplayScenario::build(&spec, seed, cold_fraction);
    let revealed: usize = sc.cold.iter().map(|c| c.fold_in.len()).sum();
    let holdout: usize = sc.cold.iter().map(|c| c.test.len()).sum();
    eprintln!(
        "replay_bench: ciao/{scale_raw} seed {seed}, {} warm users + {} cold, {} items; \
         {revealed} revealed / {holdout} held-out cold events (d={dim}, {epochs} epochs)",
        sc.n_warm_users(),
        sc.cold.len(),
        sc.warm.n_items(),
    );

    let cfg = LogiRecConfig {
        dim,
        epochs,
        eval_every: 0,
        train_threads: threads,
        eval_threads: threads,
        seed,
        ..LogiRecConfig::default()
    };

    // Frozen model: warm past only.
    let t0 = Instant::now();
    let (mut warm_model, _) = train(cfg.clone(), &sc.warm);
    warm_model.propagate(&sc.warm.train);
    let warm_s = t0.elapsed().as_secs_f64();
    eprintln!("warm training: {warm_s:.1}s");

    // Stream the cold future, one signup at a time, timing each fold-in.
    let fold_opts = FoldInOptions {
        steps: fold_steps,
        negatives: fold_negatives,
        lr: fold_lr,
        ..FoldInOptions::for_config(&cfg)
    };
    let mut fold_us: Vec<u64> = Vec::with_capacity(sc.cold.len());
    let (mut loss_initial, mut loss_final) = (0.0f64, 0.0f64);
    for c in &sc.cold {
        let opts = FoldInOptions { seed: fold_opts.seed ^ c.id as u64, ..fold_opts.clone() };
        let t = Instant::now();
        let report = fold_in_user(&mut warm_model, &c.fold_in, &opts)
            .map_err(|e| format!("fold-in of cold user {} failed: {e}", c.id))?;
        fold_us.push(t.elapsed().as_micros() as u64);
        loss_initial += report.initial_loss;
        loss_final += report.final_loss;
        assert_eq!(report.id, c.id, "cold ids must be folded in id order");
    }
    let n_cold = sc.cold.len().max(1) as f64;
    eprintln!(
        "fold-in objective: mean initial {:.4} -> final {:.4} over {} users",
        loss_initial / n_cold,
        loss_final / n_cold,
        sc.cold.len()
    );
    let folded = evaluate(&warm_model, &sc.replay, Split::Test, &[10], threads);

    // One compaction pass over the same events refines the streamed rows
    // (and their neighborhoods) with a few incremental epochs.
    let mut log = EventLog::new();
    for (u, v, t) in sc.stream_events() {
        log.append(u, v, t);
    }
    let copts = CompactionOptions {
        epochs: compact_epochs,
        lr: compact_lr,
        rehearsal,
        ..CompactionOptions::for_config(&cfg)
    };
    let t0 = Instant::now();
    let (_grown, creport) = compact(&mut warm_model, &sc.warm.train, &mut log, &copts)
        .map_err(|e| format!("compaction failed: {e}"))?;
    let compact_s = t0.elapsed().as_secs_f64();
    if creport.rolled_back {
        eprintln!("compaction rolled back: {:?}", creport.rollback_reason);
    }
    let compacted = evaluate(&warm_model, &sc.replay, Split::Test, &[10], threads);

    // The matched baseline: full retrain on warm + revealed events.
    let t0 = Instant::now();
    let (mut retrain_model, _) = train(cfg.clone(), &sc.replay);
    retrain_model.propagate(&sc.replay.train);
    let retrain_s = t0.elapsed().as_secs_f64();
    eprintln!("full retrain: {retrain_s:.1}s");
    let retrain = evaluate(&retrain_model, &sc.replay, Split::Test, &[10], threads);

    let report = render(
        scale_raw, seed, dim, epochs, &sc, &fold_us, &folded, &compacted, &retrain, &creport,
        warm_s, compact_s, retrain_s,
    );
    print!("{report}");
    if let Some(dir) = out.parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    std::fs::write(&out, &report).map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    eprintln!("wrote {}", out.display());

    // The acceptance bound: compacted streaming within 10 % relative on
    // both ranking metrics.
    let hr_deficit = relative_deficit(compacted.recall_at(10), retrain.recall_at(10));
    let ndcg_deficit = relative_deficit(compacted.ndcg_at(10), retrain.ndcg_at(10));
    if hr_deficit > 0.10 || ndcg_deficit > 0.10 {
        return Err(format!(
            "FAIL: streamed deficit HR@10 {:.1}% / NDCG@10 {:.1}% exceeds the 10% \
             acceptance bound",
            100.0 * hr_deficit,
            100.0 * ndcg_deficit
        ));
    }
    Ok(())
}

/// `(baseline - value) / baseline`, clamped below at 0 (a streamed win is
/// a zero deficit).
fn relative_deficit(value: f64, baseline: f64) -> f64 {
    if baseline <= 0.0 {
        return 0.0;
    }
    ((baseline - value) / baseline).max(0.0)
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

#[allow(clippy::too_many_arguments)]
fn render(
    scale: &str,
    seed: u64,
    dim: usize,
    epochs: usize,
    sc: &ReplayScenario,
    fold_us: &[u64],
    folded: &EvalResult,
    compacted: &EvalResult,
    retrain: &EvalResult,
    creport: &logirec_suite::core::stream::CompactionReport,
    warm_s: f64,
    compact_s: f64,
    retrain_s: f64,
) -> String {
    let title = format!(
        "Temporal replay: streaming cold-start vs full retrain (ciao, scale = {scale})"
    );
    let mut s = format!("{title}\n{}\n", "=".repeat(title.len()));
    s += &format!(
        "seed {seed}, d={dim}, {epochs} epochs; {} warm users, {} cold signups, {} items\n\
         cold protocol: first 80% of each cold user's events streamed, last 20% held out\n\n",
        sc.n_warm_users(),
        sc.cold.len(),
        sc.warm.n_items(),
    );
    s += &format!("{:<34}{:>9}{:>10}{:>12}\n", "Model", "HR@10", "NDCG@10", "rel. HR");
    s += &format!("{}\n", "-".repeat(65));
    let row = |s: &mut String, name: &str, e: &EvalResult| {
        let deficit = relative_deficit(e.recall_at(10), retrain.recall_at(10));
        *s += &format!(
            "{name:<34}{:>9.4}{:>10.4}{:>11.1}%\n",
            e.recall_at(10),
            e.ndcg_at(10),
            -100.0 * deficit
        );
    };
    s += &format!(
        "{:<34}{:>9.4}{:>10.4}{:>12}\n",
        "full retrain (baseline)",
        retrain.recall_at(10),
        retrain.ndcg_at(10),
        "--"
    );
    row(&mut s, "streamed fold-in", folded);
    row(&mut s, "streamed fold-in + compaction", compacted);
    let hr_deficit = relative_deficit(compacted.recall_at(10), retrain.recall_at(10));
    let ndcg_deficit = relative_deficit(compacted.ndcg_at(10), retrain.ndcg_at(10));
    s += &format!(
        "\nacceptance: compacted stream within 10% relative HR@10/NDCG@10 of retrain: {} \
         (HR -{:.1}%, NDCG -{:.1}%)\n",
        if hr_deficit <= 0.10 && ndcg_deficit <= 0.10 { "PASS" } else { "FAIL" },
        100.0 * hr_deficit,
        100.0 * ndcg_deficit
    );

    let mut sorted = fold_us.to_vec();
    sorted.sort_unstable();
    let mean = sorted.iter().sum::<u64>() as f64 / sorted.len().max(1) as f64;
    s += &format!(
        "\nfold-in latency per cold user: mean {:.0}us  p50 {}us  p95 {}us  max {}us  \
         ({} users)\n",
        mean,
        quantile(&sorted, 0.5),
        quantile(&sorted, 0.95),
        sorted.last().copied().unwrap_or(0),
        sorted.len(),
    );
    s += &format!(
        "compaction: {} events folded, {} incremental epochs, final loss {:.4}, {:.1}s\n",
        creport.events_folded, creport.epochs_run, creport.final_loss, compact_s,
    );
    s += &format!(
        "wall time: warm train {warm_s:.1}s, compaction {compact_s:.1}s, full retrain \
         {retrain_s:.1}s\n"
    );
    s
}
