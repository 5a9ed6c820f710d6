//! Fig. 5 — user behavior statistics on CD.
//!
//! (a) The distribution of users across the number of distinct tag types
//! they interact with (the paper shows a peak around 10 with a long tail
//! past 20).
//! (b) The relation between a user's number of interacted tag types and
//! the distance of their learned embedding to the origin (the paper shows
//! a decreasing trend: users with few tag types sit far from the origin).
//!
//! Run: `cargo run --release -p logirec-bench --bin fig5 -- --scale small --datasets cd`

use logirec_bench::harness::{self, logirec_config, Results, RunArgs};
use logirec_bench::table::{self, Row};
use logirec_core::train;

fn main() -> std::process::ExitCode {
    harness::main("fig5", &["cd"], run)
}

fn run(args: &RunArgs, out: &Results) -> Result<(), String> {
    for spec in &args.specs {
        let ds = spec.generate_traced(100, &args.telemetry);
        let cfg = logirec_config(args, spec.name, true, 1);
        let (model, _) = train(cfg, &ds);

        let counts: Vec<usize> =
            (0..ds.n_users()).map(|u| ds.user_tag_type_count(u)).collect();
        let dists: Vec<f64> =
            (0..ds.n_users()).map(|u| model.user_origin_distance(u)).collect();

        // (a) Histogram over tag-type buckets.
        let max_types = *counts.iter().max().unwrap_or(&0);
        let bucket = |c: usize| (c / 4).min(9); // 0-3, 4-7, …, 36+
        let mut hist = [0usize; 10];
        for &c in &counts {
            hist[bucket(c)] += 1;
        }
        let mut rows = Vec::new();
        for (b, &n) in hist.iter().enumerate() {
            let lo = b * 4;
            let label = if b == 9 { format!("{lo}+") } else { format!("{lo}-{}", lo + 3) };
            rows.push(Row {
                label,
                cells: vec![n.to_string(), format!("{:.1}%", 100.0 * n as f64 / counts.len() as f64)],
            });
        }
        out.save(&table::render(
            &format!(
                "Fig. 5a: users per #tag-types bucket ({}, max = {max_types})",
                spec.name
            ),
            &["#users", "share"],
            &rows,
        ))?;

        // (b) Mean distance-to-origin per bucket.
        let mut sums = [0.0; 10];
        let mut ns = [0usize; 10];
        for (&c, &d) in counts.iter().zip(&dists) {
            sums[bucket(c)] += d;
            ns[bucket(c)] += 1;
        }
        let mut rows = Vec::new();
        for b in 0..10 {
            if ns[b] == 0 {
                continue;
            }
            let lo = b * 4;
            let label = if b == 9 { format!("{lo}+") } else { format!("{lo}-{}", lo + 3) };
            rows.push(Row { label, cells: vec![format!("{:.4}", sums[b] / ns[b] as f64)] });
        }
        out.save(&table::render(
            &format!("Fig. 5b: mean distance to origin per #tag-types bucket ({})", spec.name),
            &["d(o, u)"],
            &rows,
        ))?;
    }
    Ok(())
}
