//! `trace_check` — validates a JSONL telemetry trace emitted by
//! `logirec --trace-json` or the bench harness, and attributes its wall
//! time to span kinds.
//!
//! ```text
//! trace_check out.jsonl
//! trace_check out.jsonl --require-kinds train,epoch,batch,loss,mining,checkpoint,eval
//! trace_check out.jsonl --min-spans 10 --min-coverage 0.9
//! ```
//!
//! Checks, in order: every line parses as a flat JSON event with `t_us` /
//! `kind` / `name`; span ids are unique; every parent was opened before its
//! child and the child's interval is contained in the parent's; the trace
//! holds at least one event and `--min-spans` spans; every span name listed
//! in `--require-kinds` occurs at least once; the spans' summed self-time
//! (duration minus direct children) covers at least `--min-coverage` of
//! the wall clock, so un-instrumented time on the hot path fails. A trace
//! that passes prints the span table `--metrics-summary` prints live.
//! Exits 1 on the first violation — `scripts/tier1.sh` uses this as the
//! telemetry smoke gate.

use std::path::Path;
use std::process::ExitCode;

use logirec_suite::obs::summary::render_spans;
use logirec_suite::obs::validate_trace_file;
use logirec_suite::Flags;

const USAGE: &str =
    "usage: trace_check FILE [--require-kinds a,b,c] [--min-spans N] [--min-coverage F]";

fn main() -> ExitCode {
    match run(&std::env::args().skip(1).collect::<Vec<_>>()) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace_check: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let Some(file) = args.first().filter(|a| !a.starts_with('-')) else {
        return Err(format!("missing trace file\n{USAGE}"));
    };
    let flags =
        Flags::parse(&args[1..], &["require-kinds", "min-spans", "min-coverage"], &[], USAGE)?;
    let min_spans: usize = flags.parse_or("min-spans", 0)?;
    let min_coverage: f64 = flags.parse_or("min-coverage", 0.0)?;
    if min_coverage.is_nan() || min_coverage < 0.0 {
        return Err(format!("bad value for --min-coverage: {min_coverage} (expected F >= 0)"));
    }

    let stats = validate_trace_file(Path::new(file))?;
    if stats.lines == 0 {
        return Err(format!("{file}: no events"));
    }
    if stats.spans < min_spans {
        return Err(format!("only {} spans (wanted ≥ {min_spans})", stats.spans));
    }
    let missing: Vec<&str> = flags
        .get("require-kinds")
        .unwrap_or("")
        .split(',')
        .map(str::trim)
        .filter(|k| !k.is_empty() && stats.span_count(k) == 0)
        .collect();
    if !missing.is_empty() {
        let seen: Vec<&str> = stats.span_kinds.keys().map(String::as_str).collect();
        return Err(format!(
            "missing required span kinds: {} (trace has: {})",
            missing.join(", "),
            seen.join(", ")
        ));
    }

    let rows: Vec<(&str, _)> = stats.span_kinds.iter().map(|(k, agg)| (k.as_str(), *agg)).collect();
    let table = render_spans(&rows, stats.wall_us);
    if stats.coverage() < min_coverage {
        return Err(format!(
            "{file}: coverage {:.1}% below the required {:.1}% — un-instrumented time on \
             the hot path\n{table}",
            100.0 * stats.coverage(),
            100.0 * min_coverage
        ));
    }
    Ok(format!("{file}: OK — {} events, {} spans, well-nested\n{table}", stats.lines, stats.spans))
}
