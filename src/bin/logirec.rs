//! `logirec` — command-line interface to the LogiRec++ reproduction.
//!
//! ```text
//! logirec generate --dataset cd --scale small --seed 42 --out data/cd
//! logirec train    --data data/cd --model cd.logirec [--epochs 40] [--no-mining]
//! logirec evaluate --data data/cd --model cd.logirec
//! logirec recommend --data data/cd --model cd.logirec --user 7 --k 10
//! ```
//!
//! `generate` writes a synthetic benchmark as TSV files; `train` fits
//! LogiRec++ (or plain LogiRec with `--no-mining`) and saves the model —
//! `--checkpoint FILE` makes the run durable (checkpoint every epoch, or
//! every N with `--checkpoint-every N`) and `--resume FILE` continues a
//! killed run bit-identically;
//! `evaluate` reports full-ranking Recall/NDCG on the temporal test split;
//! `recommend` prints a user's top-K with tag annotations — the exact
//! tier's answer, under the same Train ∪ Validation mask `serve` applies.

use std::path::PathBuf;
use std::process::ExitCode;

use logirec_suite::core::io::{load_model, save_model};
use logirec_suite::core::{train, LogiRecConfig, Precision, SeenFilter};
use logirec_suite::data::{load_dataset_traced, save_dataset_traced, Dataset, DatasetSpec, Scale, Split};
use logirec_suite::eval::{evaluate_traced, Ranker};
use logirec_suite::obs::json::{self, Json};
use logirec_suite::obs::{profile_span_aggs, Telemetry};
use logirec_suite::serve::{
    recommend_with_retry, Client, IndexConfig, ModelSnapshot, Request, RetryPolicy, ServeContext,
    Server, ServerConfig, WatchConfig,
};
use logirec_suite::taxonomy::ExclusionRule;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = Flags::parse(&args[1..]);
    let result = match command.as_str() {
        "generate" => cmd_generate(&flags),
        "train" => cmd_train(&flags),
        "evaluate" => cmd_evaluate(&flags),
        "recommend" => cmd_recommend(&flags),
        "serve" => cmd_serve(&flags),
        "request" => cmd_request(&flags),
        "metrics" => cmd_metrics(&flags),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  logirec generate  --dataset ciao|cd|clothing|book --scale tiny|small|paper --seed N --out DIR
  logirec train     --data DIR --model FILE [--epochs N] [--lambda X] [--dim N] [--no-mining]
                    [--precision f32|f64] [--train-threads N]
                    [--checkpoint FILE [--checkpoint-every N]] [--resume FILE]
  logirec evaluate  --data DIR --model FILE [--threads N] [--precision f32|f64]

precision: f64 (default) is the bit-reproducible double-precision path;
f32 runs the same kernels in single precision (model files stay f64).
  logirec recommend --data DIR --model FILE --user N [--k N]
  logirec serve     --data DIR --model FILE [--addr HOST:PORT] [--deadline-ms N]
                    [--max-inflight N] [--shed-limit N] [--max-k N]
                    [--watch FILE [--watch-poll-ms N]] [--precision f32|f64]
                    [--index-clusters N] [--nprobe N] [--approx]
                    [--approx-deadline-ms N]
  logirec request   --addr HOST:PORT (--user N [--k N] [--deadline-ms N]
                    [--retries N] | --fold-in ID,ID,... [--fold-in-item]
                    [--steps N] [--lr X] | --stats | --metrics | --reload
                    | --shutdown)
  logirec metrics   --addr HOST:PORT

serve: fault-tolerant top-K serving over a line-JSON TCP protocol. Every
request carries a deadline; deadline misses and overload degrade through
the tiers (served_by: exact|approx|fallback|shed), and --watch hot-swaps
validated new models (rolling back to last-good on any validation failure).
--index-clusters builds the clustered retrieval index (0 = auto sqrt(n));
tight-deadline and overloaded requests then serve from it (approx) before
the popularity fallback. --nprobe sets the clusters probed per query
(0 = auto clusters/8), --approx forces every request through the index.

request --fold-in: folds a brand-new user (or item, with --fold-in-item)
into the running server's model from its comma-separated positives and
publishes the grown snapshot as a new model version — the frozen model is
untouched; a rejected fold-in (e.g. divergent --lr) keeps serving the
last-good snapshot. Until a user is folded in, unknown-user requests
degrade to the popularity fallback instead of erroring.

telemetry (generate / train / evaluate / serve):
  --trace-json FILE     stream structured events (spans, metrics, recoveries,
                        health checks) as JSON lines into FILE
  --metrics-summary     print the span/counter/histogram summary table on exit
  --profile             print the span hot-path profile (self-time per span
                        kind, coverage of wall time) on exit

metrics: scrape a running server's Prometheus-style text exposition
(counters, gauges, and latency summaries with p50/p95/p99 quantiles) and
print it decoded to stdout.";

/// Boolean flags (no value argument follows them).
const BOOL_FLAGS: &[&str] = &[
    "no-mining", "metrics-summary", "profile", "stats", "metrics", "reload", "shutdown", "approx",
    "fold-in-item",
];

/// Minimal flag parser: `--key value` pairs plus the boolean flags in
/// [`BOOL_FLAGS`].
struct Flags {
    pairs: Vec<(String, String)>,
    bools: Vec<String>,
}

impl Flags {
    fn parse(args: &[String]) -> Self {
        let mut pairs = Vec::new();
        let mut bools = Vec::new();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            if let Some(key) = flag.strip_prefix("--") {
                if BOOL_FLAGS.contains(&key) {
                    bools.push(key.to_string());
                } else if let Some(value) = it.next() {
                    pairs.push((key.to_string(), value.clone()));
                }
            }
        }
        Self { pairs, bools }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.bools.iter().any(|k| k == key)
    }

    /// Builds the telemetry handle requested by `--trace-json` /
    /// `--metrics-summary` / `--profile` (disabled when none is present).
    fn telemetry(&self) -> Result<Telemetry, String> {
        let trace_json = self.get("trace-json");
        if trace_json.is_none() && !self.has("metrics-summary") && !self.has("profile") {
            return Ok(Telemetry::disabled());
        }
        let mut builder = Telemetry::builder();
        if let Some(path) = trace_json {
            builder = builder.jsonl(path);
        }
        builder.build().map_err(|e| format!("cannot open trace file: {e}"))
    }

    /// Flushes `tel` and prints the summary table / profile when requested.
    fn finish_telemetry(&self, tel: &Telemetry) {
        tel.finish();
        if self.has("metrics-summary") {
            print!("{}", tel.summary());
        }
        if self.has("profile") {
            print!("{}", profile_span_aggs(&tel.span_aggs(), tel.elapsed_us()).render(12));
        }
        if let Some(path) = self.get("trace-json") {
            println!("trace written to {path}");
        }
    }

    fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{key}\n{USAGE}"))
    }

    fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for --{key}: {v:?}")),
        }
    }
}

fn load(flags: &Flags, tel: &Telemetry) -> Result<Dataset, String> {
    let dir = PathBuf::from(flags.require("data")?);
    load_dataset_traced(&dir, "dataset", ExclusionRule::SiblingsWithoutCommonItems, tel)
        .map_err(|e| e.to_string())
}

fn cmd_generate(flags: &Flags) -> Result<(), String> {
    let name = flags.require("dataset")?;
    let scale_raw = flags.get("scale").unwrap_or("small");
    let scale = Scale::parse(scale_raw).ok_or_else(|| format!("bad --scale {scale_raw:?}"))?;
    let seed: u64 = flags.parse_or("seed", 42)?;
    let out = PathBuf::from(flags.require("out")?);
    let spec = DatasetSpec::by_name(name, scale).ok_or_else(|| format!("unknown dataset {name:?}"))?;
    let tel = flags.telemetry()?;
    let ds = spec.generate_traced(seed, &tel);
    save_dataset_traced(&ds, &out, &tel).map_err(|e| e.to_string())?;
    flags.finish_telemetry(&tel);
    let (m, h, e) = ds.relations.counts();
    println!(
        "wrote {} to {}: {} users, {} items, {} interactions, {} tags \
         ({m} membership / {h} hierarchy / {e} exclusion)",
        name,
        out.display(),
        ds.n_users(),
        ds.n_items(),
        ds.n_interactions(),
        ds.n_tags()
    );
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let tel = flags.telemetry()?;
    let ds = load(flags, &tel)?;
    let model_path = PathBuf::from(flags.require("model")?);
    let checkpoint_path = flags.get("checkpoint").map(PathBuf::from);
    let precision = parse_precision(flags)?;
    let cfg = LogiRecConfig {
        epochs: flags.parse_or("epochs", 40)?,
        precision,
        lambda: flags.parse_or("lambda", 0.5)?,
        dim: flags.parse_or("dim", 64)?,
        mining: !flags.has("no-mining"),
        seed: flags.parse_or("seed", 2024)?,
        eval_threads: flags.parse_or("threads", default_threads())?,
        train_threads: flags.parse_or("train-threads", default_threads())?,
        checkpoint_every: flags
            .parse_or("checkpoint-every", usize::from(checkpoint_path.is_some()))?,
        checkpoint_path,
        resume_from: flags.get("resume").map(PathBuf::from),
        telemetry: tel.clone(),
        ..LogiRecConfig::default()
    };
    let label = if cfg.mining { "LogiRec++" } else { "LogiRec" };
    println!(
        "training {label} on {} users / {} items for {} epochs (d={}, lambda={}, {})",
        ds.n_users(),
        ds.n_items(),
        cfg.epochs,
        cfg.dim,
        cfg.lambda,
        cfg.precision
    );
    let (model, report) = train(cfg, &ds);
    let mut save_span = tel.span("checkpoint");
    save_span.field("op", "model");
    match save_model(&model, &model_path) {
        Ok(bytes) => save_span.field("bytes", bytes),
        Err(e) => {
            save_span.field("failed", true);
            save_span.close();
            tel.counter("checkpoint.write_failures").incr();
            flags.finish_telemetry(&tel);
            return Err(e.to_string());
        }
    }
    save_span.close();
    flags.finish_telemetry(&tel);
    println!(
        "done in {} epochs; best validation Recall@10: {}",
        report.epochs_run,
        report
            .best_val_recall10
            .map_or_else(|| "n/a".to_string(), |r| format!("{r:.4}"))
    );
    for r in &report.recoveries {
        println!("recovery at epoch {}: {} ({:?})", r.epoch, r.reason, r.action);
    }
    println!("model saved to {}", model_path.display());
    Ok(())
}

fn cmd_evaluate(flags: &Flags) -> Result<(), String> {
    let tel = flags.telemetry()?;
    let ds = load(flags, &tel)?;
    let model_path = PathBuf::from(flags.require("model")?);
    let base_cfg = LogiRecConfig { telemetry: tel.clone(), ..LogiRecConfig::default() };
    let model = load_model(&model_path, base_cfg).map_err(|e| e.to_string())?;
    let threads = flags.parse_or("threads", default_threads())?;
    let precision = parse_precision(flags)?;
    let res = {
        let mut eval_span = tel.span("eval");
        eval_span.field("split", "test");
        eval_span.field("precision", format!("{precision}"));
        // Model files are always f64; --precision f32 narrows the tables
        // and runs propagation + ranking in single precision.
        match precision {
            Precision::F64 => {
                let mut model = model;
                model.propagate(&ds.train);
                evaluate_traced(&model, &ds, Split::Test, &[10, 20], threads, &tel)
            }
            Precision::F32 => {
                let mut model32 = model.cast::<f32>();
                model32.propagate(&ds.train);
                evaluate_traced(&model32, &ds, Split::Test, &[10, 20], threads, &tel)
            }
        }
    };
    flags.finish_telemetry(&tel);
    println!(
        "test: Recall@10 {:.4}  Recall@20 {:.4}  NDCG@10 {:.4}  NDCG@20 {:.4}  ({} users)",
        res.recall_at(10),
        res.recall_at(20),
        res.ndcg_at(10),
        res.ndcg_at(20),
        res.users.len()
    );
    Ok(())
}

fn cmd_recommend(flags: &Flags) -> Result<(), String> {
    let ds = load(flags, &Telemetry::disabled())?;
    let model_path = PathBuf::from(flags.require("model")?);
    let user: usize = flags.require("user")?.parse().map_err(|_| "bad --user".to_string())?;
    // The serving mask (Train ∪ Validation), so this prints what the exact
    // tier of `logirec serve` answers for the same model and user.
    let seen = SeenFilter::eval_mask(&ds);
    let masked = seen.seen_of(user).map_err(|e| e.to_string())?;
    let k: usize = flags.parse_or("k", 10)?;
    let mut model =
        load_model(&model_path, LogiRecConfig::default()).map_err(|e| e.to_string())?;
    model.propagate(&ds.train);
    let mut keys = vec![0.0; ds.n_items()];
    let (top, _) = model.top_k(user, &[masked], k, &mut keys);
    println!("top-{k} for user {user}:");
    for (rank, &v) in top.iter().enumerate() {
        let tags: Vec<&str> = ds.item_tags[v].iter().map(|&t| ds.taxonomy.name(t)).collect();
        println!("  {:>2}. item {v} [{}]", rank + 1, tags.join(", "));
    }
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let tel = flags.telemetry()?;
    let ds = load(flags, &tel)?;
    let model_path = PathBuf::from(flags.require("model")?);
    let precision = parse_precision(flags)?;
    let base_cfg = LogiRecConfig { telemetry: tel.clone(), ..LogiRecConfig::default() };
    let model = load_model(&model_path, base_cfg).map_err(|e| e.to_string())?;
    let ctx = std::sync::Arc::new(ServeContext::from_dataset(&ds));
    // Any index flag turns the clustered retrieval index (and with it the
    // approx tier) on; 0 keeps the auto knobs.
    let index_cfg = (flags.get("index-clusters").is_some()
        || flags.get("nprobe").is_some()
        || flags.has("approx"))
    .then_some(IndexConfig {
        clusters: flags.parse_or("index-clusters", 0)?,
        nprobe: flags.parse_or("nprobe", 0)?,
        ..IndexConfig::default()
    });
    let snapshot = ModelSnapshot::build_with_index(
        model,
        precision,
        &ctx,
        model_path.display().to_string(),
        index_cfg,
    )
    .map_err(|e| format!("model failed serving validation: {e}"))?;
    // Struct update keeps this working when the fault-injection feature
    // adds config fields (test builds of the workspace unify features).
    let mut cfg = ServerConfig { telemetry: tel.clone(), ..ServerConfig::default() };
    cfg.addr = flags.get("addr").unwrap_or("127.0.0.1:4860").to_string();
    cfg.max_inflight = flags.parse_or("max-inflight", 8)?;
    cfg.shed_limit = flags.parse_or("shed-limit", 64)?;
    cfg.default_deadline_ms = flags.parse_or("deadline-ms", 250)?;
    cfg.max_k = flags.parse_or("max-k", 100)?;
    cfg.approx_deadline_ms = flags.parse_or("approx-deadline-ms", 25)?;
    cfg.force_approx = flags.has("approx");
    cfg.watch = match flags.get("watch") {
        None => None,
        Some(path) => Some(WatchConfig {
            path: PathBuf::from(path),
            poll: std::time::Duration::from_millis(flags.parse_or("watch-poll-ms", 200)?),
        }),
    };
    let index_banner = snapshot.index().map(|idx| {
        format!(", index {} clusters / nprobe {}", idx.clusters(), idx.nprobe())
    });
    let server = Server::start(cfg, ctx, snapshot).map_err(|e| e.to_string())?;
    println!(
        "serving {} users / {} items on {} ({precision}, deadline {}ms{}); \
         send {{\"shutdown\":true}} to stop",
        ds.n_users(),
        ds.n_items(),
        server.addr(),
        flags.parse_or("deadline-ms", 250u64)?,
        index_banner.unwrap_or_default(),
    );
    server.wait();
    flags.finish_telemetry(&tel);
    Ok(())
}

fn cmd_request(flags: &Flags) -> Result<(), String> {
    let addr: std::net::SocketAddr = flags
        .require("addr")?
        .parse()
        .map_err(|_| "bad --addr (expected HOST:PORT)".to_string())?;
    if let Some(list) = flags.get("fold-in") {
        let positives: Vec<usize> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.trim().parse().map_err(|_| format!("bad --fold-in id {s:?}")))
            .collect::<Result<_, _>>()?;
        let steps = match flags.get("steps") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| format!("bad value for --steps: {v:?}"))?),
        };
        let lr = match flags.get("lr") {
            None => None,
            Some(v) => Some(v.parse().map_err(|_| format!("bad value for --lr: {v:?}"))?),
        };
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let resp = client
            .fold_in(flags.has("fold-in-item"), &positives, steps, lr)
            .map_err(|e| e.to_string())?;
        match resp.get("fold_in").and_then(Json::as_str) {
            Some("swapped") => println!(
                "fold_in: swapped  entity: {}  new_id: {}  model_version: {}",
                resp.get("entity").and_then(Json::as_str).unwrap_or("?"),
                resp.get("new_id").and_then(Json::as_u64).unwrap_or(0),
                resp.get("model_version").and_then(Json::as_u64).unwrap_or(0),
            ),
            Some("rejected") => println!(
                "fold_in: rejected  reason: {}",
                resp.get("reason").and_then(Json::as_str).unwrap_or("?"),
            ),
            _ => return Err(format!("unexpected fold-in response: {resp:?}")),
        }
        return Ok(());
    }
    if flags.has("stats") || flags.has("metrics") || flags.has("reload") || flags.has("shutdown")
    {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        let line = if flags.has("stats") {
            "{\"stats\":true}"
        } else if flags.has("metrics") {
            "{\"metrics\":true}"
        } else if flags.has("reload") {
            "{\"reload\":true}"
        } else {
            "{\"shutdown\":true}"
        };
        let resp = client.roundtrip_line(line).map_err(|e| e.to_string())?;
        println!("{resp}");
        return Ok(());
    }
    let req = Request {
        id: flags.parse_or("id", 1)?,
        user: flags.require("user")?.parse().map_err(|_| "bad --user".to_string())?,
        k: flags.parse_or("k", 10)?,
        deadline_ms: match flags.get("deadline-ms") {
            None => None,
            Some(v) => {
                Some(v.parse().map_err(|_| format!("bad value for --deadline-ms: {v:?}"))?)
            }
        },
    };
    let policy = RetryPolicy { attempts: flags.parse_or("retries", 4)?, ..RetryPolicy::default() };
    let (resp, attempts) = recommend_with_retry(addr, &req, &policy).map_err(|e| e.to_string())?;
    println!(
        "served_by: {}{}  model_version: {}  latency_us: {}  attempts: {}",
        resp.served_by,
        resp.reason.as_deref().map_or(String::new(), |r| format!(" ({r})")),
        resp.model_version,
        resp.latency_us,
        attempts,
    );
    for (rank, (v, s)) in resp.items.iter().zip(&resp.scores).enumerate() {
        println!("  {:>2}. item {v}  score {s}", rank + 1);
    }
    Ok(())
}

/// Scrapes a running server's metrics exposition and prints the decoded
/// text document (the `body` of the `{"metrics":true}` response).
fn cmd_metrics(flags: &Flags) -> Result<(), String> {
    let addr: std::net::SocketAddr = flags
        .require("addr")?
        .parse()
        .map_err(|_| "bad --addr (expected HOST:PORT)".to_string())?;
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let resp = client.roundtrip_line("{\"metrics\":true}").map_err(|e| e.to_string())?;
    let j = json::parse(&resp).map_err(|e| format!("bad metrics response: {e}"))?;
    let body = j
        .get("body")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("metrics response lacks a \"body\": {resp}"))?;
    print!("{body}");
    Ok(())
}

fn parse_precision(flags: &Flags) -> Result<Precision, String> {
    match flags.get("precision") {
        None => Ok(Precision::F64),
        Some(v) => Precision::parse(v).ok_or_else(|| {
            format!("bad value for --precision: {v:?} (expected f32 or f64)")
        }),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}
