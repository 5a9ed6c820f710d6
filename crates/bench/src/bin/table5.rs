//! Table V — interpretable case studies of the mining weights.
//!
//! Trains LogiRec++ on CD and Book, computes every user's consistency CON,
//! (normalized) granularity GR, and weight α, then prints two contrasting
//! users per dataset — one consistent/specific (high α) and one diverse
//! (low α) — with their tag profiles and top recommendations, mirroring
//! the paper's Table V.
//!
//! Run: `cargo run --release -p logirec-bench --bin table5 -- --scale small --datasets cd,book`

use logirec_bench::harness::{self, logirec_config, Results, RunArgs};
use logirec_core::mining::{
    combine_weights, consistency_weights, granularity_weights, user_profiles,
};
use logirec_core::train;
use logirec_eval::Ranker;

fn main() -> std::process::ExitCode {
    harness::main("table5", &["cd", "book"], run)
}

fn run(args: &RunArgs, results: &Results) -> Result<(), String> {
    let tel = &args.telemetry;
    let mut out = String::new();
    for spec in &args.specs {
        tel.progress(format!("== dataset {} ==", spec.name));
        let ds = spec.generate_traced(100, tel);
        let cfg = logirec_config(args, spec.name, true, 1);
        let alpha_floor = cfg.alpha_floor;
        let (model, _) = train(cfg, &ds);

        let con = consistency_weights(&ds);
        let gr = granularity_weights(&model, ds.n_users());
        let alpha = combine_weights(&con, &gr, alpha_floor);
        let profiles = user_profiles(&ds, &con, &gr, &alpha, 5);

        // Candidates with a meaningful history.
        let eligible: Vec<usize> =
            (0..ds.n_users()).filter(|&u| ds.train.items_of(u).len() >= 5).collect();
        let hi = *eligible
            .iter()
            .max_by(|&&a, &&b| alpha[a].partial_cmp(&alpha[b]).expect("finite"))
            .expect("users exist");
        let lo = *eligible
            .iter()
            .min_by(|&&a, &&b| alpha[a].partial_cmp(&alpha[b]).expect("finite"))
            .expect("users exist");

        out.push_str(&format!(
            "Table V case studies — {} (scale = {:?})\n{}\n",
            spec.name,
            args.scale,
            "=".repeat(60)
        ));
        for (role, u) in [("consistent/specific", hi), ("diverse", lo)] {
            let p = &profiles[u];
            out.push_str(&format!(
                "User {} ({role}): CON = {:.2}, GR = {:.2}, alpha = {:.2}\n",
                u, p.consistency, p.granularity, p.alpha
            ));
            let tags: Vec<String> = p
                .top_tags
                .iter()
                .map(|&(t, c)| format!("<{}> x{}", ds.taxonomy.name(t), c))
                .collect();
            out.push_str(&format!("  tags: {}\n", tags.join("; ")));
            // Top recommendations with their tags: the exact top-K with the
            // user's training items masked.
            let mut scratch = vec![0.0; ds.n_items()];
            let (top, _) = model.top_k(u, &[ds.train.items_of(u)], 6, &mut scratch);
            let recs: Vec<String> = top
                .iter()
                .map(|&v| {
                    let vt: Vec<&str> =
                        ds.item_tags[v].iter().map(|&t| ds.taxonomy.name(t)).collect();
                    format!("item{} [{}]", v, vt.join(","))
                })
                .collect();
            out.push_str(&format!("  recommended: {}\n", recs.join("; ")));
        }
        out.push('\n');
    }
    results.save(&out)
}
