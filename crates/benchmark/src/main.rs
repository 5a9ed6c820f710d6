//! `logirec-benchmark` — the end-to-end benchmark of the LogiRec
//! reproduction: paper-scale training, open-loop exact and approximate
//! serving over TCP, and fold-in writes beside reads.
//!
//! ```text
//! logirec-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--quick] [--out FILE]
//! logirec-benchmark compare A B [--bench BENCHMARK.json]
//! ```
//!
//! `run` (the default) runs one workload, or all four, each in its own
//! worker process, prints every metric by name with its unit, and ends with
//! one JSON line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`
//! holding the end-to-end metrics (`--trace 0`) or the per-layer metrics of
//! the traced pass (`--trace 1`). It exits non-zero if any output check
//! fails. `--out FILE` appends each run's full report to a result set;
//! `compare` applies the `BENCHMARK.json` bounds to two such sets.
//!
//! `worker` and `server` are internal subcommands: a workload's worker
//! process and the server child it drives.

// The benchmark reads CPU time and peak RSS from Linux /proc and waits on
// sockets with ppoll.
#[cfg(not(target_os = "linux"))]
compile_error!("logirec-benchmark needs Linux (/proc and ppoll)");

mod compare;
mod loadgen;
mod report;
mod server;
mod stats;
mod trace;
mod workloads;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use crate::report::{counts_json, metrics_json, Metric, Report};
use crate::workloads::{Opts, WORKLOADS};

/// The end-to-end metrics every workload reports (`--trace 0`), as
/// declared in `BENCHMARK.json`.
pub const END_TO_END: [&str; 4] = ["setup_s", "peak_rss_mb", "p50_ms", "throughput"];

/// The per-layer metrics of the traced pass (`--trace 1`), as declared in
/// `BENCHMARK.json`.
pub const PER_LAYER: [&str; 28] = [
    "core.graph.fwd_ms",
    "core.graph.bwd_ms",
    "core.losses.rank_ms",
    "core.losses.logic_ms",
    "core.shard.scatter_ms",
    "data.sampling.neg_ms",
    "data.sampling.useful_ratio",
    "hyperbolic.rsgd.step_ms",
    "core.mining.gr_ms",
    "serve.protocol.parse_us",
    "serve.protocol.encode_us",
    "core.model.score_us",
    "core.filter.mask_us",
    "eval.select_us",
    "serve.index.search_us",
    "serve.index.items_scored",
    "serve.index.scan_fraction",
    "serve.fold_in.total_ms",
    "serve.fold_in.clone_ms",
    "serve.fold_in.row_ms",
    "serve.fold_in.ctx_ms",
    "serve.fold_in.propagate_ms",
    "serve.fold_in.index_ms",
    "serve.fold_in.validate_ms",
    "serve.fold_in.swap_us",
    "coverage.batch",
    "coverage.request",
    "trace_overhead",
];

/// A worker that has not finished by then is killed (the run must end
/// within three minutes).
const WORKER_LIMIT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage:
  logirec-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                    [--quick] [--out FILE]
  logirec-benchmark compare A B [--bench BENCHMARK.json]
workloads: train-paper, serve-exact, serve-approx, serve-foldin (default: all four)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "worker" | "server" | "compare")) => (c, &args[1..]),
        _ => ("run", &args[..]),
    };
    let result = match command {
        "compare" => cmd_compare(rest),
        "server" => parse_server(rest).and_then(server::run).map(|()| true),
        _ => parse_run(rest).and_then(|(opts, out)| {
            if command == "worker" {
                println!("{}", workloads::run(&opts).to_json());
                Ok(true)
            } else {
                cmd_run(&opts, out.as_deref())
            }
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// `--key value` pairs plus bare `--quick`; unknown keys are errors.
fn flags(args: &[String], known: &[&str]) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        if !known.contains(&key) {
            return Err(format!("unknown flag --{key}"));
        }
        if key == "quick" {
            out.push((key.to_string(), "1".to_string()));
        } else {
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            out.push((key.to_string(), v.clone()));
        }
    }
    Ok(out)
}

fn get<T: std::str::FromStr>(f: &[(String, String)], key: &str) -> Result<Option<T>, String> {
    match f.iter().rev().find(|(k, _)| k == key) {
        None => Ok(None),
        Some((_, v)) => v
            .parse()
            .map(Some)
            .map_err(|_| format!("bad value for --{key}: {v:?}")),
    }
}

fn parse_run(args: &[String]) -> Result<(Opts, Option<String>), String> {
    let f = flags(
        args,
        &["workload", "seed", "seconds", "trace", "quick", "out"],
    )?;
    let quick = get::<u8>(&f, "quick")?.is_some();
    let seconds: f64 = get(&f, "seconds")?.unwrap_or(if quick { 1.0 } else { 20.0 });
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], got {seconds}"));
    }
    let workload: String = get(&f, "workload")?.unwrap_or_default();
    if !workload.is_empty() && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let trace = match get::<u8>(&f, "trace")?.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    let opts = Opts {
        workload,
        seed: get(&f, "seed")?.unwrap_or(1),
        seconds,
        trace,
        quick,
    };
    Ok((opts, get(&f, "out")?))
}

fn parse_server(args: &[String]) -> Result<server::ServeSpec, String> {
    let f = flags(args, &["model", "quick", "index", "approx"])?;
    Ok(server::ServeSpec {
        model: get::<String>(&f, "model")?
            .ok_or("server needs --model")?
            .into(),
        quick: get::<u8>(&f, "quick")?.is_some(),
        index: get::<u8>(&f, "index")?.unwrap_or(0) == 1,
        approx: get::<u8>(&f, "approx")?.unwrap_or(0) == 1,
    })
}

/// Runs one workload in a fresh worker process and returns its report.
fn run_worker(opts: &Opts) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut args = vec![
        "worker".to_string(),
        "--workload".into(),
        opts.workload.clone(),
        "--seed".into(),
        opts.seed.to_string(),
        "--seconds".into(),
        opts.seconds.to_string(),
        "--trace".into(),
        u8::from(opts.trace).to_string(),
    ];
    if opts.quick {
        args.push("--quick".into());
    }
    let mut child = Command::new(exe)
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn worker: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let reader = std::thread::spawn(move || {
        BufReader::new(stdout)
            .lines()
            .map_while(Result::ok)
            .collect::<Vec<_>>()
    });
    let t0 = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().map_err(|e| e.to_string())? {
            break status;
        }
        if t0.elapsed() > WORKER_LIMIT {
            let _ = child.kill();
            let _ = child.wait();
            let _ = reader.join();
            return Err(format!(
                "{} worker exceeded {WORKER_LIMIT:?}",
                opts.workload
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    };
    let lines = reader
        .join()
        .map_err(|_| "worker output reader panicked".to_string())?;
    let last = lines
        .last()
        .ok_or_else(|| format!("{} worker printed nothing ({status})", opts.workload))?;
    Report::parse(last).map_err(|e| format!("{} worker report: {e}", opts.workload))
}

fn print_report(r: &Report) {
    println!(
        "== {} (seed {}): {} — attempted {}, failed {}",
        r.workload,
        r.seed,
        if r.correct {
            "checks passed"
        } else {
            "CHECKS FAILED"
        },
        r.attempted,
        r.failed
    );
    for p in &r.problems {
        println!("  problem: {p}");
    }
    for m in &r.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
}

/// The metrics of `r` the result line carries in this mode; a missing or
/// non-finite one makes the run incorrect.
fn result_metrics(r: &mut Report, trace: bool, prefix: &str) -> Vec<Metric> {
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    let mut out = Vec::new();
    for &name in names {
        match r.metrics.iter().find(|m| m.name == name) {
            Some(m) if m.value.is_finite() => out.push(Metric {
                name: format!("{prefix}{name}"),
                value: m.value,
                unit: m.unit.clone(),
            }),
            _ => r.fail(format!("metric {name} was not measured")),
        }
    }
    out
}

fn cmd_run(opts: &Opts, out: Option<&str>) -> Result<bool, String> {
    let names: Vec<&str> = if opts.workload.is_empty() {
        WORKLOADS.to_vec()
    } else {
        vec![opts.workload.as_str()]
    };
    let single = names.len() == 1;
    // Train the served model here if this build has none yet, so that its
    // one-off training lands on the first run of a build (whatever the
    // workload) and outside every worker's time limit and peak RSS.
    workloads::served_model(opts.quick)?;
    let (mut correct, mut attempted, mut failed) = (true, 0, 0);
    let mut metrics = Vec::new();
    for w in names {
        let mut r = run_worker(&Opts {
            workload: w.to_string(),
            ..opts.clone()
        })?;
        let prefix = if single {
            String::new()
        } else {
            format!("{w}.")
        };
        metrics.extend(result_metrics(&mut r, opts.trace, &prefix));
        print_report(&r);
        if let Some(path) = out {
            let mut f = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("open {path}: {e}"))?;
            writeln!(f, "{}", r.to_json()).map_err(|e| format!("write {path}: {e}"))?;
        }
        correct &= r.correct;
        attempted += r.attempted;
        failed += r.failed;
    }
    println!(
        "{{{},{}}}",
        counts_json(correct, attempted.max(1), failed),
        metrics_json(metrics.iter())
    );
    Ok(correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a.starts_with("--"))
        .unwrap_or(args.len());
    let (files, rest) = args.split_at(split);
    let [a, b] = files else {
        return Err("compare needs two result-set files".to_string());
    };
    let f = flags(rest, &["bench"])?;
    let bench_path: String = get(&f, "bench")?.unwrap_or_else(|| "BENCHMARK.json".to_string());
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("read {p}: {e}"));
    let bounds = compare::read_bounds(&read(&bench_path)?)?;
    let rows = compare::compare(
        &bounds,
        &compare::read_set(&read(a)?),
        &compare::read_set(&read(b)?),
    );
    print!("{}", compare::render(&rows));
    use compare::Verdict;
    let count = |v: Verdict| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} rows: {} ok, {} improved, {} regressed, {} unresolved, {} missing",
        rows.len(),
        count(Verdict::Ok),
        count(Verdict::Improved),
        count(Verdict::Regressed),
        count(Verdict::Unresolved),
        count(Verdict::Missing)
    );
    Ok(count(Verdict::Ok) + count(Verdict::Improved) == rows.len())
}
