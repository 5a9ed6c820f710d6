//! The four workloads. Each runs in its own worker process and fills one
//! [`Report`]. Every workload reports the same metrics, each meaning what a
//! user of that workload waits on or pays for (see the README table); all
//! but `tail_ms` are end-to-end metrics with a bound in `BENCHMARK.json`
//! (the tails did not repeat from run to run on a shared host):
//!
//! | metric        | train-paper                 | serve-exact / serve-approx                 | serve-foldin                     |
//! |---------------|-----------------------------|--------------------------------------------|----------------------------------|
//! | `setup_s`     | data + model + graph set-up | data + context + model file + snapshot (+ index) | same, with index           |
//! | `peak_rss_mb` | the worker                  | the server child                           | the server child                 |
//! | `p50_ms`      | one training step's CPU time | one read, from its scheduled send         | one fold-in publish beside reads |
//! | `tail_ms`     | step CPU time p90           | read p90                                   | fold-in publish tail             |
//! | `throughput`  | training pairs per CPU-second | reads per server CPU-second              | fold-ins / s                     |

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, UNIX_EPOCH};

use logirec_core::io::{load_model, save_model};
use logirec_core::mining::consistency_weights;
use logirec_core::{train, LogiRec, LogiRecConfig, Precision, PropGraph};
use logirec_data::{Dataset, DatasetSpec, Scale, Split};
use logirec_eval::evaluate;
use logirec_linalg::SplitMix64;
use logirec_obs::json::Json;
use logirec_obs::{Telemetry, Value};
use logirec_serve::protocol::encode_fold_in;
use logirec_serve::{FoldInVerb, ModelSnapshot, Request, ServeContext, ServedBy};

use crate::loadgen::{drive, drive_pair, schedule, Conn, Outcome, Shot};
use crate::report::Report;
use crate::server::{ServeSpec, ServerChild};
use crate::stats::{median, quantile, sorted, tail_q, TAIL, TOP};
use crate::trace::{bench_dir, replay, write_trace, ReplayPlan, SpanRec};

/// Workload names, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = ["train-paper", "serve-exact", "serve-approx", "serve-foldin"];

/// How set-up is repeated to report a median.
pub const SETUPS: usize = 5;

/// The range outside which a traced run warns about `coverage.batch`. The
/// replayed steps and the trainer's are measured seconds apart, and on a
/// shared machine the same work can take ±20% longer from one second to
/// the next, or three times as long in a contended minute; a replay that
/// missed the forward or backward pass would read about 0.55. Coverage is a
/// property of the measurement, not of the program's output, so it warns
/// and does not fail the run.
const COVERAGE_MIN: f64 = 0.8;
const COVERAGE_MAX: f64 = 1.25;

/// One worker's assignment.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Seed of the data and of the request and signup streams.
    pub seed: u64,
    /// Measurement window, seconds.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Smoke-test mode: the tiny catalog and a shorter replay.
    pub quick: bool,
}

/// The seed the catalog is generated from. The catalog is the same in
/// every run: the approx tier's cost follows the cluster balance of the
/// catalog (items scored per query varies 874–1,690 across data seeds at
/// paper scale), which would swamp any change being measured. `--seed`
/// drives everything else: the request, check and signup streams, and the
/// trainer's seed.
const CATALOG_SEED: u64 = 1;

/// The catalog every workload uses: the Ciao benchmark at paper scale, or
/// at tiny scale for smoke tests (`quick`).
pub fn catalog(quick: bool) -> Dataset {
    let scale = if quick { Scale::Tiny } else { Scale::Paper };
    DatasetSpec::ciao(scale).generate(CATALOG_SEED)
}

/// The model configuration: LogiRec++ at the paper's d = 64, f64, two
/// threads (the machine's core count when the baseline was recorded).
pub fn model_cfg() -> LogiRecConfig {
    LogiRecConfig {
        train_threads: 2,
        eval_threads: 2,
        eval_every: 0,
        ..LogiRecConfig::default()
    }
}

/// Epochs the served model is trained for. The approx tier's cost follows
/// the trained geometry: at paper scale a probe scans 11.4% of the catalog
/// on init weights, 13.8% after one epoch, and 15.8–16.7% from three
/// epochs on.
const SERVED_EPOCHS: usize = 4;

/// The model file every serving workload serves (and the layer replay
/// scores against): LogiRec++ trained for [`SERVED_EPOCHS`] on the catalog
/// from the default model seed. It is trained once per build of the
/// benchmark and kept under [`bench_dir`]; `run` makes sure it exists before
/// starting any worker, so its training is paid by the first run of a build
/// and by none of the later ones. Loading it is part of each server set-up,
/// as in `logirec serve --model`.
pub fn served_model(quick: bool) -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let built = std::fs::metadata(&exe)
        .and_then(|m| m.modified())
        .map_err(|e| format!("stat {}: {e}", exe.display()))?
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let scale = if quick { "tiny" } else { "paper" };
    let dir = bench_dir();
    let path = dir.join(format!("served-{scale}-e{SERVED_EPOCHS}-{built:x}.logirec"));
    if path.exists() {
        return Ok(path);
    }
    let t = Instant::now();
    let cfg = LogiRecConfig {
        epochs: SERVED_EPOCHS,
        ..model_cfg()
    };
    let (model, report) = train(cfg, &catalog(quick));
    if !model.all_finite() || !report.recoveries.is_empty() {
        return Err(format!(
            "training the served model failed ({} recoveries)",
            report.recoveries.len()
        ));
    }
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Models served by earlier builds are stale.
    let stale = format!("served-{scale}-");
    for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        if entry.file_name().to_string_lossy().starts_with(&stale) {
            let _ = std::fs::remove_file(entry.path());
        }
    }
    save_model(&model, &path).map_err(|e| format!("save {}: {e}", path.display()))?;
    eprintln!(
        "trained the served model in {:.1} s: {}",
        t.elapsed().as_secs_f64(),
        path.display()
    );
    Ok(path)
}

/// Loads the served model file.
pub fn load_served(path: &Path) -> Result<LogiRec, String> {
    load_model(path, model_cfg()).map_err(|e| e.to_string())
}

/// Runs one workload (plus, with `trace`, its traced pass and the layer
/// replay).
pub fn run(opts: &Opts) -> Report {
    let mut r = Report::new(&opts.workload, opts.seed);
    let mut spans = Vec::new();
    let res = match opts.workload.as_str() {
        "train-paper" => train_paper(opts, &mut r),
        "serve-exact" => serve_reads(opts, false, &mut r, &mut spans),
        "serve-approx" => serve_reads(opts, true, &mut r, &mut spans),
        "serve-foldin" => serve_foldin(opts, &mut r, &mut spans),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    };
    if let Err(e) = res {
        r.fail(e);
    }
    if opts.trace && r.correct {
        if let Err(e) = layer_pass(opts, &mut r, &mut spans) {
            r.fail(e);
        }
    }
    r
}

/// The traced pass after the workload's own traced re-run: one real
/// training epoch with the program's spans kept, then the layer replay.
/// `coverage.batch` is the replayed layer calls' time over the trainer's
/// measured step, both p50, so it reads 1.0 only when the layers timed
/// account for the step the trainer takes. The trainer's steps compared are
/// its last ones, measured just before the replay and, like the replay's,
/// after the allocator has warmed up: the first steps of a process run
/// slower while its gradient buffers are still fresh pages.
fn layer_pass(opts: &Opts, r: &mut Report, spans: &mut Vec<SpanRec>) -> Result<(), String> {
    let plan = if opts.quick {
        ReplayPlan {
            batches: 5,
            requests: 200,
            fold_ins: 3,
        }
    } else {
        ReplayPlan {
            batches: 40,
            requests: 2_000,
            fold_ins: 10,
        }
    };
    let ds = catalog(opts.quick);
    let cfg = train_cfg(opts.seed);
    let served = load_served(&served_model(opts.quick)?)?;
    let job = train_job(&ds, &cfg, Some(spans));
    spans.extend(replay(&ds, &cfg, &served, plan, r));
    let last = &job.step_ms[job.step_ms.len().saturating_sub(2 * plan.batches)..];
    let step = median(last);
    let layers = r
        .get("replay.step_layers_ms")
        .ok_or("the training replay recorded no steps")?;
    let coverage = layers / step;
    r.put("trainer.step_p50_ms", step, "ms");
    r.put("coverage.batch", coverage, "ratio");
    // Tiny smoke-test steps take about a millisecond: too short to judge.
    if !opts.quick && !(COVERAGE_MIN..=COVERAGE_MAX).contains(&coverage) {
        eprintln!(
            "warning: the replayed layers cover {coverage:.3} of the trainer's step \
             ({layers:.1} ms against {step:.1} ms); the host's speed changed between \
             the two, or the replay no longer matches the trainer"
        );
    }
    if let Some(epoch_s) = r.get("epoch_s") {
        r.put("trace_overhead", job.train_s / epoch_s, "ratio");
    }
    let path = write_trace(&opts.workload, spans)?;
    eprintln!("trace written to {}", path.display());
    Ok(())
}

/// Kernel-tracked peak resident set (`VmHWM`) of `pid`, or of this
/// process, in MiB.
fn peak_rss_mb(pid: Option<u32>) -> Result<f64, String> {
    let path = pid.map_or_else(
        || "/proc/self/status".to_string(),
        |p| format!("/proc/{p}/status"),
    );
    let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {path}"))
}

/// CPU time all live threads of `pid` have run, ns (each task's
/// `schedstat`). The server's threads live as long as their connections.
fn cpu_ns(pid: u32) -> Result<u64, String> {
    let dir = format!("/proc/{pid}/task");
    let tasks = std::fs::read_dir(&dir).map_err(|e| format!("read {dir}: {e}"))?;
    Ok(tasks
        .filter_map(Result::ok)
        .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
        .filter_map(|s| {
            s.split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
        })
        .sum())
}

/// CPU time every thread of this process has run, live or exited, ns. The
/// trainer's parallel sections run on short-lived scoped threads, which
/// per-task `schedstat` files no longer list once they exit.
fn process_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, properly laid out 64-bit `struct timespec`
    // for the whole call, which only writes into it; the clock id is the
    // Linux constant for this process's CPU clock.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "the calling process's CPU clock is always readable");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// Runs `work` while another thread samples [`process_cpu_ns`] every
/// millisecond; returns its value and the `(ns after origin, CPU ns)`
/// samples, from which [`cpu_between`] reads the CPU time of any interval.
fn with_cpu_samples<T>(origin: Instant, work: impl FnOnce() -> T) -> (T, Vec<(u64, u64)>) {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let sample = || (origin.elapsed().as_nanos() as u64, process_cpu_ns());
            let mut samples = vec![sample()];
            loop {
                std::thread::sleep(Duration::from_millis(1));
                samples.push(sample());
                if stop.load(Ordering::Relaxed) {
                    return samples;
                }
            }
        });
        let v = work();
        stop.store(true, Ordering::Relaxed);
        (v, sampler.join().expect("CPU sampler thread panicked"))
    })
}

/// CPU time the process ran between `from_ns` and `to_ns` (after the
/// samples' origin), ms, interpolating linearly between samples (at least
/// two, as [`with_cpu_samples`] takes).
fn cpu_between(samples: &[(u64, u64)], from_ns: u64, to_ns: u64) -> f64 {
    let at = |t: u64| {
        let i = samples
            .partition_point(|&(ts, _)| ts <= t)
            .clamp(1, samples.len() - 1);
        let ((t0, c0), (t1, c1)) = (samples[i - 1], samples[i]);
        let frac = (t.clamp(t0, t1) - t0) as f64 / (t1 - t0).max(1) as f64;
        c0 as f64 + (c1 - c0) as f64 * frac
    };
    (at(to_ns) - at(from_ns)) / 1e6
}

fn event_u64(ev: &logirec_obs::Event, key: &str) -> Option<u64> {
    ev.fields
        .iter()
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| match v {
            Value::U64(n) => Some(*n),
            _ => None,
        })
}

/// One `train` (one epoch) plus one `evaluate` pass on Test.
struct TrainJob {
    train_s: f64,
    /// CPU time of the `train` call, all threads.
    train_cpu_s: f64,
    eval_s: f64,
    /// Each step's wall time (the trainer's `batch` span).
    step_ms: Vec<f64>,
    /// The CPU time the process ran during each step, all threads.
    step_cpu_ms: Vec<f64>,
    recall10: f64,
    recoveries: usize,
    finite: bool,
    steps: u64,
    rows_touched: u64,
    self_ms: Vec<(&'static str, f64)>,
}

fn train_job(ds: &Dataset, cfg: &LogiRecConfig, spans: Option<&mut Vec<SpanRec>>) -> TrainJob {
    // The program's own in-memory telemetry supplies the per-step times
    // (`batch` spans): a handful of spans per 50 ms step.
    let tel = Telemetry::builder()
        .ring_capacity(1 << 16)
        .build()
        .expect("ring-only telemetry");
    let origin = Instant::now();
    let origin_us = tel.elapsed_us();
    let cfg = LogiRecConfig {
        epochs: 1,
        telemetry: tel.clone(),
        ..cfg.clone()
    };
    let t = Instant::now();
    let cpu0 = process_cpu_ns();
    let ((model, report), cpu) = with_cpu_samples(origin, || train(cfg, ds));
    let train_cpu_s = (process_cpu_ns() - cpu0) as f64 / 1e9;
    let train_s = t.elapsed().as_secs_f64();
    let t_eval = Instant::now();
    let res = evaluate(&model, ds, Split::Test, &[10], 2);
    let eval_s = t_eval.elapsed().as_secs_f64();
    let events = tel.recent_events();
    let (step_ms, step_cpu_ms) = events
        .iter()
        .filter(|e| e.kind == "span" && e.name == "batch")
        .filter_map(|e| Some((event_u64(e, "start_us")?, event_u64(e, "dur_us")?)))
        .map(|(start, dur)| {
            let from = start.saturating_sub(origin_us) * 1_000;
            (
                dur as f64 / 1e3,
                cpu_between(&cpu, from, from + dur * 1_000),
            )
        })
        .unzip();
    if let Some(sp) = spans {
        let ns = |i: Instant| i.duration_since(origin).as_nanos() as u64;
        sp.push(SpanRec::new(0, 1, 0, "bench.train", ns(t), ns(t_eval)));
        sp.push(SpanRec::new(
            0,
            2,
            0,
            "bench.evaluate",
            ns(t_eval),
            ns(Instant::now()),
        ));
        // The program's spans, re-parented under the benchmark's train span.
        for e in events.iter().filter(|e| e.kind == "span") {
            let (Some(id), Some(start), Some(dur)) = (
                event_u64(e, "id"),
                event_u64(e, "start_us"),
                event_u64(e, "dur_us"),
            ) else {
                continue;
            };
            let parent = event_u64(e, "parent").map_or(1, |p| p + 10);
            sp.push(SpanRec::new(
                0,
                id + 10,
                parent,
                e.name.clone(),
                start * 1_000,
                (start + dur) * 1_000,
            ));
        }
    }
    let metrics = tel.metrics_snapshot();
    let count = |n: &str| {
        metrics
            .counters
            .iter()
            .find(|(k, _)| *k == n)
            .map_or(0, |&(_, v)| v)
    };
    let self_ms = tel
        .span_aggs()
        .into_iter()
        .filter(|(k, _)| ["batch", "loss", "loss.shards", "grad.merge", "mining"].contains(k))
        .map(|(k, a)| (k, a.self_us as f64 / 1e3))
        .collect();
    TrainJob {
        train_s,
        train_cpu_s,
        eval_s,
        step_ms,
        step_cpu_ms,
        recall10: res.recall_at(10),
        recoveries: report.recoveries.len(),
        finite: model.all_finite() && report.epochs_run == 1,
        steps: count("trainer.steps"),
        rows_touched: count("trainer.grad_rows_touched"),
        self_ms,
    }
}

/// The training configuration of train-paper: [`model_cfg`] with `seed` as
/// the trainer's seed.
fn train_cfg(seed: u64) -> LogiRecConfig {
    LogiRecConfig {
        seed,
        ..model_cfg()
    }
}

/// train-paper: one-epoch LogiRec++ training runs, each followed by a Test
/// evaluation, repeated while the window has room (at least once). Its
/// traced re-run is the training epoch of [`layer_pass`].
fn train_paper(opts: &Opts, r: &mut Report) -> Result<(), String> {
    let cfg = train_cfg(opts.seed);
    let mut setup = Vec::new();
    let mut ds = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let d = catalog(opts.quick);
        let model: LogiRec = LogiRec::new(cfg.clone(), &d);
        let pg: PropGraph = PropGraph::build(&d.train);
        let con = consistency_weights(&d);
        std::hint::black_box((&model, &pg, &con));
        setup.push(t.elapsed().as_secs_f64());
        ds = Some(d);
    }
    let ds = ds.expect("set-up ran");
    r.put("setup_s", median(&setup), "s");

    let t0 = Instant::now();
    let mut jobs: Vec<TrainJob> = Vec::new();
    loop {
        let t = Instant::now();
        let job = train_job(&ds, &cfg, None);
        let wall = t.elapsed().as_secs_f64();
        r.attempted += job.step_ms.len() as u64 + 1;
        r.failed += job.recoveries as u64;
        r.check(job.finite, || {
            "training left a non-finite model or stopped early".into()
        });
        r.check(job.recoveries == 0, || {
            format!("training needed {} recoveries", job.recoveries)
        });
        r.check(job.recall10.is_finite(), || {
            "Test Recall@10 is not finite".into()
        });
        r.check(!job.step_ms.is_empty(), || {
            "the trainer recorded no steps".into()
        });
        jobs.push(job);
        if jobs.len() >= 20 || t0.elapsed().as_secs_f64() + wall > opts.seconds {
            break;
        }
    }
    r.put("peak_rss_mb", peak_rss_mb(None)?, "MiB");
    // The step times and throughput count the CPU time the training
    // threads ran, not wall time. On a shared host a neighbour can take a
    // quarter of a vCPU for minutes, and every fork-join section of a step
    // then waits for the preempted thread: in a run with 25% steal the
    // epoch's wall time rose 1.9× and the process's CPU time 1.16×. The
    // wall-time figures are printed beside them.
    let per_step = |f: fn(&TrainJob) -> &Vec<f64>| {
        sorted(
            &jobs
                .iter()
                .flat_map(|j| f(j).iter().copied())
                .collect::<Vec<_>>(),
        )
    };
    let cpu_steps = per_step(|j| &j.step_cpu_ms);
    let n = cpu_steps.len();
    r.put("p50_ms", quantile(&cpu_steps, 0.5), "ms");
    r.put("tail_ms", quantile(&cpu_steps, tail_q(n, TAIL)), "ms");
    r.put("tail_top_ms", quantile(&cpu_steps, tail_q(n, TOP)), "ms");
    let wall_steps = per_step(|j| &j.step_ms);
    r.put("step_wall_p50_ms", quantile(&wall_steps, 0.5), "ms");
    r.put(
        "step_wall_tail_ms",
        quantile(&wall_steps, tail_q(n, TAIL)),
        "ms",
    );
    let pairs = ds.train.len() as f64;
    let job_median = |f: fn(&TrainJob) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    r.put("throughput", pairs / job_median(|j| j.train_cpu_s), "1/s");
    r.put("epoch_cpu_s", job_median(|j| j.train_cpu_s), "s");
    let epoch_s = job_median(|j| j.train_s);
    r.put("epoch_s", epoch_s, "s");
    r.put(
        "eval_s",
        median(&jobs.iter().map(|j| j.eval_s).collect::<Vec<_>>()),
        "s",
    );
    let last = jobs.last().expect("one job ran");
    r.put("recall10", last.recall10, "ratio");
    r.put("jobs", jobs.len() as f64, "count");
    r.put("steps", n as f64, "count");
    r.put("trainer.steps", last.steps as f64, "count");
    r.put(
        "trainer.grad_rows_touched",
        last.rows_touched as f64,
        "count",
    );
    for (k, ms) in &last.self_ms {
        r.put(&format!("span.{k}.self_ms"), *ms, "ms");
    }
    Ok(())
}

/// Open-loop reads at `rate` for `secs` over both connections (even ids on
/// the first, odd on the second).
struct Reads<'a> {
    conns: &'a mut [Conn; 2],
    rng: SplitMix64,
    next_id: u64,
    n_users: usize,
}

impl Reads<'_> {
    fn phase(
        &mut self,
        rate: f64,
        secs: f64,
        spans: Option<&mut Vec<SpanRec>>,
    ) -> Result<Vec<Outcome>, String> {
        let shots = schedule(rate, secs, 0, self.next_id, self.n_users, &mut self.rng);
        self.next_id += shots.len() as u64;
        let (a, b): (Vec<Shot>, Vec<Shot>) = shots.iter().partition(|s| s.id % 2 == 0);
        drive_pair(self.conns, [&a, &b], 10, Instant::now(), spans)
    }
}

/// Counts `out` into the report. Any read answered by another tier than
/// `want` (fallback, shed, or an error reply) fails the run: a cheaper
/// degraded answer must never pass for a faster one.
fn tally(r: &mut Report, out: &[Outcome], want: ServedBy) {
    r.attempted += out.len() as u64;
    let tier = |t: Option<ServedBy>| out.iter().filter(|o| o.served_by == t).count();
    let bad = out.len() - tier(Some(want));
    if bad == 0 {
        return;
    }
    r.failed += bad as u64;
    let by_tier: Vec<String> = [
        ServedBy::Exact,
        ServedBy::Approx,
        ServedBy::Fallback,
        ServedBy::Shed,
    ]
    .into_iter()
    .filter(|&t| t != want)
    .map(|t| format!("{} {t}", tier(Some(t))))
    .chain(std::iter::once(format!("{} errors", tier(None))))
    .collect();
    r.fail(format!(
        "{bad} of {} reads not served {want}: {}",
        out.len(),
        by_tier.join(", ")
    ));
}

fn latencies(out: &[Outcome]) -> Vec<f64> {
    sorted(&out.iter().map(Outcome::latency_ms).collect::<Vec<_>>())
}

/// Reports read-latency metrics of a measured phase; the median and tail
/// are named `{prefix}p50_ms` and `{prefix}tail_ms`.
fn put_reads(r: &mut Report, out: &[Outcome], prefix: &str) {
    let lat = latencies(out);
    r.put(&format!("{prefix}p50_ms"), quantile(&lat, 0.5), "ms");
    r.put(
        &format!("{prefix}tail_ms"),
        quantile(&lat, tail_q(lat.len(), TAIL)),
        "ms",
    );
    r.put(
        &format!("{prefix}tail_top_ms"),
        quantile(&lat, tail_q(lat.len(), TOP)),
        "ms",
    );
    r.put("reads", lat.len() as f64, "count");
    let server = sorted(&out.iter().map(|o| o.server_us as f64).collect::<Vec<_>>());
    r.put("serve.server_us.p50", quantile(&server, 0.5), "us");
    r.put("serve.server_us.p99", quantile(&server, 0.99), "us");
    let wait: Vec<f64> = out
        .iter()
        .map(|o| o.done_ns.saturating_sub(o.sent_ns) as f64 / 1e3 - o.server_us as f64)
        .collect();
    r.put("serve.wait_us.p50", median(&wait), "us");
    let late = sorted(&out.iter().map(Outcome::late_us).collect::<Vec<_>>());
    r.put("loadgen.late_p99_us", quantile(&late, 0.99), "us");
}

/// Reads the server's `{"stats":true}` counters into the report.
fn put_stats(r: &mut Report, conn: &mut Conn) -> Result<(), String> {
    let stats = conn.admin("{\"stats\":true}")?;
    for k in ["exact", "approx", "fallback", "shed", "errors"] {
        let v = stats
            .get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("stats lack {k:?}"))?;
        r.put(&format!("serve.{k}_n"), v as f64, "count");
    }
    Ok(())
}

/// The traced pass of a serving workload: the same read phase twice, first
/// untraced, then with a span per request layer; the ratio of their
/// medians is the tracing overhead.
fn traced_reads(
    reads: &mut Reads<'_>,
    r: &mut Report,
    rate: f64,
    secs: f64,
    want: ServedBy,
    spans: &mut Vec<SpanRec>,
) -> Result<(), String> {
    let plain = reads.phase(rate, secs, None)?;
    tally(r, &plain, want);
    let traced = reads.phase(rate, secs, Some(spans))?;
    tally(r, &traced, want);
    r.put(
        "trace_overhead",
        quantile(&latencies(&traced), 0.5) / quantile(&latencies(&plain), 0.5),
        "ratio",
    );
    Ok(())
}

/// serve-exact / serve-approx: warm-up, then a measured open-loop phase at
/// the reference rate.
fn serve_reads(
    opts: &Opts,
    approx: bool,
    r: &mut Report,
    spans: &mut Vec<SpanRec>,
) -> Result<(), String> {
    let model = served_model(opts.quick)?;
    let ds = catalog(opts.quick);
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let reference = ModelSnapshot::build(load_served(&model)?, Precision::F64, &ctx, "reference")?;
    let sspec = ServeSpec {
        model,
        quick: opts.quick,
        index: approx,
        approx,
    };
    let server = ServerChild::spawn(&sspec)?;
    r.put("setup_s", server.setup_s, "s");
    let mut conns = [Conn::connect(server.addr)?, Conn::connect(server.addr)?];
    let want = if approx {
        ServedBy::Approx
    } else {
        ServedBy::Exact
    };
    let ref_rate = if approx { 1_000.0 } else { 500.0 };
    let s = opts.seconds;
    let mut reads = Reads {
        conns: &mut conns,
        rng: SplitMix64::new(opts.seed ^ 0x7265_6164),
        next_id: 1,
        n_users: ctx.n_users(),
    };

    let warm = reads.phase(ref_rate, s / 16.0, None)?;
    tally(r, &warm, want);
    // Capacity: reads served per CPU-second the server spent serving them.
    // Counting the server's CPU time rather than wall time at saturation
    // keeps out how busy the machine's other core happens to be.
    let cpu0 = cpu_ns(server.pid())?;
    let measured = reads.phase(ref_rate, 14.0 * s / 16.0, None)?;
    let cpu_s = (cpu_ns(server.pid())? - cpu0) as f64 / 1e9;
    tally(r, &measured, want);
    put_reads(r, &measured, "");
    r.put("throughput", measured.len() as f64 / cpu_s, "1/s");
    r.put("serve.cpu_s", cpu_s, "s");

    // Output checks, closed loop over the first connection.
    let mut check_rng = SplitMix64::new(opts.seed ^ 0xc4ec);
    let mut scratch = Vec::new();
    let (mut hits, mut total) = (0usize, 0usize);
    for i in 0..200u64 {
        let u = check_rng.index(ctx.n_users());
        let req = Request {
            id: (1 << 40) | i,
            user: u,
            k: 10,
            deadline_ms: Some(1000),
        };
        r.attempted += 1;
        let resp = reads.conns[0].recommend(&req)?;
        let (items, scores) = reference
            .top_k(u, 10, &mut scratch)
            .map_err(|e| e.to_string())?;
        if resp.served_by != want {
            r.failed += 1;
            r.fail(format!(
                "check user {u} served {} not {want}",
                resp.served_by
            ));
            continue;
        }
        if approx {
            hits += items.iter().filter(|v| resp.items.contains(v)).count();
            total += items.len();
        } else if resp.items != items
            || resp
                .scores
                .iter()
                .zip(&scores)
                .any(|(a, b)| a.to_bits() != b.to_bits())
        {
            r.fail(format!(
                "user {u}: wire answer differs from in-process ModelSnapshot::top_k"
            ));
        }
    }
    if approx {
        let recall = hits as f64 / total.max(1) as f64;
        r.put("approx_recall10", recall, "ratio");
        r.check(recall >= 0.95, || {
            format!("approx recall@10 {recall:.4} < 0.95")
        });
    }
    if opts.trace {
        traced_reads(&mut reads, r, ref_rate, 3.0 * s / 16.0, want, spans)?;
    }
    put_stats(r, &mut conns[0])?;
    r.put("peak_rss_mb", peak_rss_mb(Some(server.pid()))?, "MiB");
    r.put(
        "fail_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    drop(conns);
    server.stop()
}

/// One closed-loop fold-in: when it was sent and answered, and what the
/// server said.
struct FoldIn {
    sent_ns: u64,
    done_ns: u64,
    swapped: bool,
    new_id: u64,
    version: u64,
}

/// serve-foldin: open-loop exact reads at 400 rps on one connection while
/// the other folds in signups back to back.
fn serve_foldin(opts: &Opts, r: &mut Report, spans: &mut Vec<SpanRec>) -> Result<(), String> {
    let ds = catalog(opts.quick);
    let n_users = ds.n_users();
    let sspec = ServeSpec {
        model: served_model(opts.quick)?,
        quick: opts.quick,
        index: true,
        approx: false,
    };
    let server = ServerChild::spawn(&sspec)?;
    r.put("setup_s", server.setup_s, "s");
    let mut conns = [Conn::connect(server.addr)?, Conn::connect(server.addr)?];
    let s = opts.seconds;
    let rate = 400.0;
    let mut rng = SplitMix64::new(opts.seed ^ 0x7265_6164);
    let warm = schedule(rate, s / 16.0, 0, 1, n_users, &mut rng);
    let out = drive(&mut conns[0], &warm, 10, Instant::now(), None)?;
    tally(r, &out, ServedBy::Exact);

    let window = 15.0 * s / 16.0;
    let shots = schedule(rate, window, 0, 1 << 20, n_users, &mut rng);
    let mut signup_rng = SplitMix64::new(opts.seed ^ 0x5167_6e75);
    let origin = Instant::now();
    let [c0, c1] = &mut conns;
    let (reads, writes) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| -> Result<Vec<FoldIn>, String> {
            let mut done = Vec::new();
            while origin.elapsed().as_secs_f64() < window {
                let positives = loop {
                    let items = ds.train.items_of(signup_rng.index(n_users));
                    if !items.is_empty() {
                        break items.to_vec();
                    }
                };
                let line = encode_fold_in(&FoldInVerb {
                    item: false,
                    positives,
                    steps: None,
                    lr: None,
                });
                let sent_ns = origin.elapsed().as_nanos() as u64;
                let resp = c1.admin(&line)?;
                done.push(FoldIn {
                    sent_ns,
                    done_ns: origin.elapsed().as_nanos() as u64,
                    swapped: resp.get("fold_in").and_then(Json::as_str) == Some("swapped"),
                    new_id: resp.get("new_id").and_then(Json::as_u64).unwrap_or(0),
                    version: resp
                        .get("model_version")
                        .and_then(Json::as_u64)
                        .unwrap_or(0),
                });
            }
            Ok(done)
        });
        let reads = drive(c0, &shots, 10, origin, None);
        (
            reads,
            writer
                .join()
                .map_err(|_| "fold-in thread panicked".to_string()),
        )
    });
    let (reads, writes) = (reads?, writes??);
    tally(r, &reads, ServedBy::Exact);
    r.attempted += writes.len() as u64;
    put_reads(r, &reads, "read_");

    // Reads whose scheduled time fell inside a fold-in, and the others.
    let in_fold = |o: &Outcome| {
        writes
            .iter()
            .any(|w| (w.sent_ns..w.done_ns).contains(&o.sched_ns))
    };
    let (during, outside): (Vec<Outcome>, Vec<Outcome>) = reads.iter().partition(|o| in_fold(o));
    for (name, group) in [
        ("serve.read_p99_in_fold_ms", &during),
        ("serve.read_p99_no_fold_ms", &outside),
    ] {
        let lat = latencies(group);
        r.put(name, quantile(&lat, 0.99), "ms");
    }
    // The median and tail are the writer's: how long a signup waits
    // for its snapshot to go live while reads are served beside it. (Read
    // latency here swings 0.45↔0.7 ms with the host's speed mode; it is
    // reported as `read_*`, and serve-exact gates reads without writes.)
    let fold_ms = sorted(
        &writes
            .iter()
            .map(|w| (w.done_ns - w.sent_ns) as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    r.put("p50_ms", quantile(&fold_ms, 0.5), "ms");
    r.put(
        "tail_ms",
        quantile(&fold_ms, tail_q(fold_ms.len(), TAIL)),
        "ms",
    );
    r.put("fold_ins", writes.len() as f64, "count");
    let busy_s = writes.last().map_or(window, |w| w.done_ns as f64 / 1e9);
    r.put("throughput", writes.len() as f64 / busy_s, "1/s");

    // Output checks: every fold-in swapped in order, versions never go
    // backwards on either connection, every folded user is served exact.
    let mut last_version = 1;
    for (j, w) in writes.iter().enumerate() {
        let want_id = (n_users + j) as u64;
        if !w.swapped || w.new_id != want_id || w.version <= last_version {
            r.failed += 1;
            r.fail(format!(
                "fold-in {j}: swapped={} new_id={} (want {want_id}) version={} after {last_version}",
                w.swapped, w.new_id, w.version
            ));
        }
        last_version = w.version;
    }
    r.check(
        reads.windows(2).all(|p| p[0].version <= p[1].version),
        || "read model versions went backwards on one connection".into(),
    );
    for w in &writes {
        let req = Request {
            id: (1 << 40) | w.new_id,
            user: w.new_id as usize,
            k: 10,
            deadline_ms: Some(1000),
        };
        r.attempted += 1;
        let resp = conns[1].recommend(&req)?;
        if resp.served_by != ServedBy::Exact || resp.items.len() != 10.min(ds.n_items()) {
            r.failed += 1;
            r.fail(format!(
                "folded user {} served {} with {} items",
                w.new_id,
                resp.served_by,
                resp.items.len()
            ));
        }
    }
    if opts.trace {
        let mut reads = Reads {
            conns: &mut conns,
            rng,
            next_id: 1 << 30,
            n_users,
        };
        traced_reads(&mut reads, r, rate, 3.0 * s / 16.0, ServedBy::Exact, spans)?;
    }
    put_stats(r, &mut conns[0])?;
    r.put("peak_rss_mb", peak_rss_mb(Some(server.pid()))?, "MiB");
    r.put(
        "fail_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
    );
    drop(conns);
    server.stop()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reads(served_by: Option<ServedBy>, n: usize) -> Vec<Outcome> {
        let o = Outcome {
            sched_ns: 0,
            sent_ns: 10,
            done_ns: 500_000,
            server_us: 400,
            served_by,
            version: 1,
        };
        vec![o; n]
    }

    #[test]
    fn reads_all_served_by_the_wanted_tier_pass() {
        let mut r = Report::new("serve-exact", 1);
        tally(&mut r, &reads(Some(ServedBy::Exact), 5), ServedBy::Exact);
        assert!(r.correct, "{:?}", r.problems);
        assert_eq!((r.attempted, r.failed), (5, 0));
    }

    #[test]
    fn a_fallback_shed_or_error_read_makes_the_run_incorrect() {
        for (want, bad) in [
            (ServedBy::Exact, Some(ServedBy::Fallback)),
            (ServedBy::Exact, Some(ServedBy::Shed)),
            (ServedBy::Exact, Some(ServedBy::Approx)),
            (ServedBy::Approx, Some(ServedBy::Exact)),
            (ServedBy::Approx, None),
        ] {
            let mut out = reads(Some(want), 9);
            out.extend(reads(bad, 1));
            let mut r = Report::new("serve", 1);
            tally(&mut r, &out, want);
            assert!(!r.correct, "{want} run with a {bad:?} read passed");
            assert_eq!((r.attempted, r.failed), (10, 1));
            assert!(
                r.problems[0].starts_with("1 of 10 reads not served"),
                "{:?}",
                r.problems
            );
        }
    }
}
