//! The one prologue and epilogue of every experiment binary (flag
//! validation, the results file, the trace), the default configurations,
//! and the seed loop the tables share.

use std::fs::File;
use std::io::Write;
use std::process::ExitCode;

use logirec_baselines::BaselineConfig;
use logirec_core::LogiRecConfig;
use logirec_data::{Dataset, DatasetSpec, Scale, Split};
use logirec_eval::{evaluate, mean_std, EvalResult, MeanStd, Ranker};
use logirec_obs::Telemetry;
use logirec_suite::Flags;

/// The four synthetic benchmarks: the default `--datasets` of the
/// binaries that cover every dataset.
pub const ALL_DATASETS: &[&str] = &["ciao", "cd", "clothing", "book"];

/// The flags of every experiment binary, with their defaults.
const USAGE: &str = "usage: <experiment> [--scale tiny|small|paper] [--seeds N] [--epochs N]
                    [--datasets NAME,...] [--threads N] [--train-threads N]
                    [--no-trace]
defaults: --scale small, --seeds 2, --epochs 0 (the scale's budget),
the experiment's own --datasets (from ciao, cd, clothing, book), and
every core for --threads and --train-threads";

const VALUE_FLAGS: [&str; 6] = ["scale", "seeds", "epochs", "datasets", "threads", "train-threads"];

/// The validated command line of an experiment binary.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// Dataset scale (`--scale tiny|small|paper`, default `small`).
    pub scale: Scale,
    /// Number of random seeds, at least 1 (`--seeds N`, default 2).
    pub seeds: u64,
    /// Override training epochs (`--epochs N`; 0 = per-scale default).
    pub epochs: usize,
    /// The datasets named by `--datasets ciao,cd`, or the binary's default
    /// when the flag is absent.
    pub specs: Vec<DatasetSpec>,
    /// Evaluation threads (`--threads N`, default = available cores).
    pub threads: usize,
    /// Training threads (`--train-threads N`, default = available cores).
    /// Training is bit-identical for every value (see DESIGN.md).
    pub train_threads: usize,
    /// Whether the run writes `results/<bin>.trace.jsonl` (`--no-trace`
    /// turns it off, default on).
    pub trace: bool,
    /// Telemetry handle threaded into every training config: the run's
    /// trace sink, or disabled under `--no-trace`.
    pub telemetry: Telemetry,
}

impl RunArgs {
    /// Validates the experiment flags. `default_datasets` applies only when
    /// `--datasets` is absent. An error names the bad flag, scale or
    /// dataset.
    fn from_flags(flags: &Flags, default_datasets: &[&str]) -> Result<Self, String> {
        let cores = std::thread::available_parallelism().map_or(4, |n| n.get());
        let scale = match flags.get("scale") {
            None => Scale::Small,
            Some(v) => Scale::parse(v)
                .ok_or_else(|| format!("bad value for --scale: {v:?} (use tiny|small|paper)"))?,
        };
        let seeds = flags.parse_or("seeds", 2u64)?;
        if seeds == 0 {
            return Err("bad value for --seeds: 0 (at least 1)".into());
        }
        let names: Vec<&str> = match flags.get("datasets") {
            Some(list) => list.split(',').map(str::trim).collect(),
            None => default_datasets.to_vec(),
        };
        let specs = names
            .iter()
            .map(|name| {
                DatasetSpec::by_name(name, scale).ok_or_else(|| {
                    format!(
                        "unknown dataset {name:?} in --datasets (use {})",
                        ALL_DATASETS.join(",")
                    )
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Self {
            scale,
            seeds,
            epochs: flags.parse_or("epochs", 0)?,
            specs,
            threads: flags.parse_or("threads", cores)?,
            train_threads: flags.parse_or("train-threads", cores)?,
            trace: !flags.has("no-trace"),
            telemetry: Telemetry::disabled(),
        })
    }

    /// Epochs to train, honoring the override.
    pub fn epochs_or(&self, default_for_scale: usize) -> usize {
        if self.epochs > 0 {
            self.epochs
        } else {
            default_for_scale
        }
    }

    /// Per-scale default epoch budget.
    pub fn default_epochs(&self) -> usize {
        match self.scale {
            Scale::Tiny => 8,
            Scale::Small => 30,
            Scale::Paper => 15,
        }
    }
}

/// Parses `argv` into [`RunArgs`]; every error carries the usage.
fn parse(argv: &[String], default_datasets: &[&str]) -> Result<RunArgs, String> {
    let flags = Flags::parse(argv, &VALUE_FLAGS, &["no-trace"], USAGE)?;
    RunArgs::from_flags(&flags, default_datasets).map_err(|e| format!("{e}\n{USAGE}"))
}

/// A run's output: `results/<bin>.txt`, truncated once per run, whose
/// first line is the command that regenerates it.
pub struct Results {
    path: String,
    file: File,
    tel: Telemetry,
}

impl Results {
    /// Prints `block` and appends it, plus a newline, to the results file.
    pub fn save(&self, block: &str) -> Result<(), String> {
        self.tel.info(block);
        writeln!(&self.file, "{block}").map_err(|e| format!("{}: {e}", self.path))
    }

    /// Writes the whole file `results/<file>` beside the results file
    /// (the figure binaries' plot data).
    pub fn write(&self, file: &str, contents: &str) -> Result<(), String> {
        let path = format!("results/{file}");
        std::fs::write(&path, contents).map_err(|e| format!("{path}: {e}"))
    }
}

/// The command that reruns binary `name` with `argv`, quoted for a shell.
fn command(name: &str, argv: &[String]) -> String {
    let mut cmd = format!("cargo run --release -p logirec-bench --bin {name}");
    if !argv.is_empty() {
        cmd.push_str(" --");
    }
    for arg in argv {
        let plain = !arg.is_empty()
            && arg.chars().all(|c| c.is_ascii_alphanumeric() || "-_.,=/:+".contains(c));
        cmd.push(' ');
        if plain {
            cmd.push_str(arg);
        } else {
            cmd.push_str(&format!("'{}'", arg.replace('\'', r"'\''")));
        }
    }
    cmd
}

/// Runs experiment binary `name`: validates the command line, truncates
/// `results/<name>.txt` and writes the rerun command as its first line,
/// attaches the trace `results/<name>.trace.jsonl` unless `--no-trace`,
/// and runs `body`. A bad flag, scale or dataset creates no file. Any
/// error (the flags, a failed write, the body's) prints `<name>: <error>`
/// and exits 1.
pub fn main(
    name: &str,
    default_datasets: &[&str],
    body: impl FnOnce(&RunArgs, &Results) -> Result<(), String>,
) -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let run = || -> Result<(), String> {
        let mut args = parse(&argv, default_datasets)?;
        std::fs::create_dir_all("results").map_err(|e| format!("results: {e}"))?;
        let path = format!("results/{name}.txt");
        let file = File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        writeln!(&file, "{}", command(name, &argv)).map_err(|e| format!("{path}: {e}"))?;
        if args.trace {
            let trace = format!("results/{name}.trace.jsonl");
            args.telemetry =
                Telemetry::builder().jsonl(&trace).build().map_err(|e| format!("{trace}: {e}"))?;
        }
        let out = Results { path, file, tel: args.telemetry.clone() };
        let result = body(&args, &out);
        args.telemetry.finish();
        result
    };
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{name}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Per-dataset λ. The paper picks 0.1 on Ciao/CD and 1.0 on the
/// tag/relation-rich Clothing/Book (Fig. 6); our validation sweeps on the
/// synthetic benchmarks land at 0.5 for the sparse-taxonomy datasets
/// (same inverted-U shape, shifted optimum — see EXPERIMENTS.md).
pub fn paper_lambda(dataset: &str) -> f64 {
    match dataset {
        "clothing" | "book" => 1.0,
        _ => 0.5,
    }
}

/// Default LogiRec/LogiRec++ configuration for a dataset at a scale.
///
/// LogiRec gets twice the baseline epoch budget with best-validation
/// snapshot selection: its full-graph steps converge more slowly than the
/// per-sample baselines, and the snapshot guards against overfitting the
/// extra epochs (every method is thus trained to its own convergence, as
/// the paper's per-method grid search does).
pub fn logirec_config(args: &RunArgs, dataset: &str, mining: bool, seed: u64) -> LogiRecConfig {
    let mut cfg = LogiRecConfig {
        lambda: paper_lambda(dataset),
        mining,
        seed,
        epochs: args.epochs_or(args.default_epochs()) * 2,
        eval_threads: args.threads,
        train_threads: args.train_threads,
        // Snapshot the best validation epoch (standard protocol; the
        // baselines' scorers are similarly selected by their final state
        // after per-method learning-rate tuning).
        eval_every: 5,
        patience: 0,
        telemetry: args.telemetry.clone(),
        ..LogiRecConfig::default()
    };
    if args.scale == Scale::Tiny {
        cfg.dim = 16;
        cfg.batch_size = 256;
    }
    cfg
}

/// Default baseline configuration at a scale.
pub fn baseline_config(args: &RunArgs, seed: u64) -> BaselineConfig {
    let mut cfg = BaselineConfig {
        seed,
        epochs: args.epochs_or(args.default_epochs()),
        ..BaselineConfig::default()
    };
    if args.scale == Scale::Tiny {
        cfg.dim = 16;
        cfg.batch_size = 256;
    }
    cfg
}

/// The four headline metrics of Table II plus the per-user vectors needed
/// for the Wilcoxon test.
#[derive(Debug, Clone)]
pub struct ExpMetrics {
    /// Recall@10.
    pub r10: f64,
    /// Recall@20.
    pub r20: f64,
    /// NDCG@10.
    pub n10: f64,
    /// NDCG@20.
    pub n20: f64,
    /// Per-user Recall@20 (Wilcoxon pairing).
    pub per_user: Vec<f64>,
}

impl ExpMetrics {
    /// Collects the metric quadruple on the test split.
    pub fn collect(ranker: &dyn Ranker, ds: &Dataset, threads: usize) -> Self {
        let res: EvalResult = evaluate(ranker, ds, Split::Test, &[10, 20], threads);
        Self {
            r10: res.recall_at(10),
            r20: res.recall_at(20),
            n10: res.ndcg_at(10),
            n20: res.ndcg_at(20),
            per_user: res.per_user_recall,
        }
    }
}

/// One method's metrics over the seeds of [`over_seeds`].
#[derive(Debug, Clone)]
pub struct SeedMetrics {
    /// Recall@10, Recall@20, NDCG@10, NDCG@20 as mean ± std over the seeds.
    pub agg: [MeanStd; 4],
    /// The last seed's per-user Recall@20 (Wilcoxon pairing).
    pub per_user: Vec<f64>,
}

/// Trains and tests one method once per seed `s` in `0..--seeds`, in
/// order: on `spec.generate(100 + s)`, with `train` handed the config
/// seed `7·s + 1`.
pub fn over_seeds<R: Ranker>(
    args: &RunArgs,
    spec: &DatasetSpec,
    mut train: impl FnMut(&Dataset, u64) -> R,
) -> SeedMetrics {
    let mut quads = Vec::new();
    let mut per_user = Vec::new();
    for seed in 0..args.seeds {
        let ds = spec.generate(100 + seed);
        let m = ExpMetrics::collect(&train(&ds, 7 * seed + 1), &ds, args.threads);
        quads.push([m.r10, m.r20, m.n10, m.n20]);
        per_user = m.per_user;
    }
    SeedMetrics {
        agg: std::array::from_fn(|i| mean_std(&quads.iter().map(|q| q[i]).collect::<Vec<_>>())),
        per_user,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args_with(s: &[&str], default_datasets: &[&str]) -> Result<RunArgs, String> {
        parse(&s.iter().map(|a| a.to_string()).collect::<Vec<_>>(), default_datasets)
    }

    fn args(s: &[&str]) -> RunArgs {
        args_with(s, ALL_DATASETS).expect("valid flags")
    }

    fn names(a: &RunArgs) -> Vec<&str> {
        a.specs.iter().map(|s| s.name).collect()
    }

    #[test]
    fn defaults_cover_all_datasets() {
        let a = args(&[]);
        assert_eq!(names(&a), ALL_DATASETS);
        assert_eq!(a.scale, Scale::Small);
        assert_eq!(a.seeds, 2);
        assert_eq!(a.epochs, 0);
    }

    #[test]
    fn parse_handles_every_flag() {
        let a = args(&[
            "--scale", "tiny", "--seeds", "5", "--epochs", "12", "--datasets", "cd, book",
            "--threads", "3", "--train-threads", "7", "--no-trace",
        ]);
        assert_eq!(a.scale, Scale::Tiny);
        assert_eq!(a.seeds, 5);
        assert_eq!(a.epochs, 12);
        assert_eq!(names(&a), ["cd", "book"]);
        assert_eq!(a.threads, 3);
        assert_eq!(a.train_threads, 7);
        assert!(!a.trace);
    }

    #[test]
    fn default_datasets_apply_only_when_datasets_is_absent() {
        let two = ["cd", "clothing"];
        assert_eq!(names(&args_with(&[], &two).unwrap()), two);
        let all = args_with(&["--datasets", "ciao,cd,clothing,book"], &two).unwrap();
        assert_eq!(names(&all), ALL_DATASETS);
        assert_eq!(names(&args_with(&["--datasets", "book"], &two).unwrap()), ["book"]);
    }

    #[test]
    fn bad_flags_scales_and_datasets_are_named_with_the_usage() {
        for (argv, named) in [
            (&["--seeds", "x"][..], "--seeds"),
            (&["--seeds", "0"], "--seeds"),
            (&["--bogus"], "--bogus"),
            (&["--epochs"], "--epochs"),
            (&["--scale", "huge"], "huge"),
            (&["--datasets", "ciao,nope"], "nope"),
        ] {
            let err = args_with(argv, ALL_DATASETS).expect_err("rejected");
            assert!(err.contains(named), "{argv:?}: {err}");
            assert!(err.contains("usage:"), "{argv:?}: {err}");
        }
    }

    #[test]
    fn the_command_reruns_the_arguments_as_given() {
        let argv = |s: &[&str]| s.iter().map(|a| a.to_string()).collect::<Vec<_>>();
        assert_eq!(command("fig3", &[]), "cargo run --release -p logirec-bench --bin fig3");
        assert_eq!(
            command("table1", &argv(&["--scale", "small", "--no-trace"])),
            "cargo run --release -p logirec-bench --bin table1 -- --scale small --no-trace"
        );
        assert_eq!(
            command("table2", &argv(&["--datasets", "ciao, cd"])),
            "cargo run --release -p logirec-bench --bin table2 -- --datasets 'ciao, cd'"
        );
    }

    #[test]
    fn lambda_follows_paper() {
        assert_eq!(paper_lambda("ciao"), 0.5);
        assert_eq!(paper_lambda("cd"), 0.5);
        assert_eq!(paper_lambda("clothing"), 1.0);
        assert_eq!(paper_lambda("book"), 1.0);
    }

    #[test]
    fn configs_scale_down_for_tiny() {
        let a = args(&["--scale", "tiny"]);
        let c = logirec_config(&a, "cd", true, 1);
        assert_eq!(c.dim, 16);
        assert!(c.mining);
        assert_eq!(c.epochs, a.default_epochs() * 2);
        let b = baseline_config(&a, 1);
        assert_eq!(b.dim, 16);
    }

    #[test]
    fn trace_defaults_on_but_telemetry_starts_disabled() {
        let a = args(&[]);
        assert!(a.trace);
        assert!(!a.telemetry.is_enabled());
        let b = args(&["--no-trace"]);
        assert!(!b.trace);
    }

    #[test]
    fn epochs_override_wins() {
        let a = args(&["--epochs", "3"]);
        assert_eq!(a.epochs_or(50), 3);
        let b = args(&[]);
        assert_eq!(b.epochs_or(50), 50);
    }
}
