//! Table I — dataset statistics.
//!
//! Generates the four synthetic benchmarks at the requested scale and
//! prints their realized statistics next to the paper's published values
//! (which correspond to `--scale paper`).
//!
//! Run: `cargo run --release -p logirec-bench --bin table1 -- --scale small`

use logirec_bench::harness::{self, Results, RunArgs, ALL_DATASETS};
use logirec_bench::table::{self, Row};

/// The paper's Table I, row-major:
/// (users, items, interactions, density %, tags, membership, hierarchy, exclusion).
const PAPER: [(&str, [f64; 8]); 4] = [
    ("ciao", [5180.0, 8836.0, 104905.0, 0.2292, 28.0, 8900.0, 16.0, 22.0]),
    ("cd", [32589.0, 20559.0, 515562.0, 0.0769, 379.0, 45976.0, 361.0, 1572.0]),
    ("clothing", [63986.0, 19727.0, 704325.0, 0.0558, 3051.0, 86639.0, 4804.0, 195004.0]),
    ("book", [79368.0, 62385.0, 4657501.0, 0.0941, 510.0, 124394.0, 636.0, 5392.0]),
];

fn main() -> std::process::ExitCode {
    harness::main("table1", ALL_DATASETS, run)
}

fn run(args: &RunArgs, out: &Results) -> Result<(), String> {
    let headers =
        ["#User", "#Item", "#Inter", "Density%", "#Tag", "#Member", "#Hier", "#Excl"];
    let mut rows = Vec::new();
    for spec in &args.specs {
        let ds = spec.generate_traced(42, &args.telemetry);
        let total = ds.n_interactions();
        let density = 100.0 * total as f64 / (ds.n_users() as f64 * ds.n_items() as f64);
        let (m, h, e) = ds.relations.counts();
        rows.push(Row {
            label: format!("{} (measured)", spec.name),
            cells: vec![
                ds.n_users().to_string(),
                ds.n_items().to_string(),
                total.to_string(),
                format!("{density:.4}"),
                ds.n_tags().to_string(),
                m.to_string(),
                h.to_string(),
                e.to_string(),
            ],
        });
        if let Some((_, p)) = PAPER.iter().find(|(n, _)| *n == spec.name) {
            rows.push(Row {
                label: format!("{} (paper)", spec.name),
                cells: vec![
                    format!("{:.0}", p[0]),
                    format!("{:.0}", p[1]),
                    format!("{:.0}", p[2]),
                    format!("{:.4}", p[3]),
                    format!("{:.0}", p[4]),
                    format!("{:.0}", p[5]),
                    format!("{:.0}", p[6]),
                    format!("{:.0}", p[7]),
                ],
            });
        }
    }
    let title = format!("Table I: dataset statistics (scale = {:?})", args.scale);
    out.save(&table::render(&title, &headers, &rows))
}
