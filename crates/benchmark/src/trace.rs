//! The benchmark's own span recorder and the in-process layer replay.
//!
//! Spans are recorded from the benchmark's code around calls into each
//! layer's public functions (the program itself is not modified), held in
//! memory, and written once at the end to
//! `<target>/benchmark/trace-<workload>.jsonl`.
//!
//! The replay feeds the same seeded inputs the workloads use through the
//! layers one call at a time: training steps from the trainer's own epoch-0
//! batch stream, in-process exact and approx requests, and fold-ins split
//! into their stages. Each call's p50 is a per-layer metric.

use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use logirec_core::losses::{logic_loss_grad_sharded, rank_loss_grad_sharded, LogicBatch};
use logirec_core::mining::{combine_weights, consistency_weights, granularity_weights};
use logirec_core::{fold_in_user, FoldInOptions, LogiRec, LogiRecConfig, Precision, PropGraph};
use logirec_data::{BatchIter, Dataset, NegativeSampler};
use logirec_eval::ranking::top_k_indices;
use logirec_hyperbolic::rsgd;
use logirec_linalg::{Embedding, SplitMix64};
use logirec_obs::Telemetry;
use logirec_serve::protocol::{encode_request, encode_response, parse_message};
use logirec_serve::{
    ClusterIndex, IndexConfig, ModelSnapshot, Request, Response, ServeContext, ServedBy,
    SnapshotStore,
};

use crate::report::Report;
use crate::stats::{median, quantile, sorted};

/// One recorded span. `trace` groups the spans of one request or step;
/// `parent` is the id of the span that caused this one (0 for a root).
#[derive(Debug, Clone)]
pub struct SpanRec {
    /// Request id or step index the span belongs to.
    pub trace: u64,
    /// Span id, unique within its trace.
    pub id: u64,
    /// Parent span id (0 = root).
    pub parent: u64,
    /// Layer boundary name.
    pub name: Cow<'static, str>,
    /// Start, ns after the recorder's origin.
    pub start_ns: u64,
    /// End, ns after the recorder's origin.
    pub end_ns: u64,
}

impl SpanRec {
    /// A span record.
    pub fn new(
        trace: u64,
        id: u64,
        parent: u64,
        name: impl Into<Cow<'static, str>>,
        start_ns: u64,
        end_ns: u64,
    ) -> Self {
        Self {
            trace,
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }
}

/// Where trace files and the served model go: `$CARGO_TARGET_DIR/benchmark`,
/// else `target/benchmark`, relative to the working directory.
pub fn bench_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    target.join("benchmark")
}

/// Writes `spans` as JSON lines to `trace-<workload>.jsonl`; returns the
/// path.
pub fn write_trace(workload: &str, spans: &[SpanRec]) -> Result<PathBuf, String> {
    let dir = bench_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{workload}.jsonl"));
    let mut out = String::with_capacity(spans.len() * 96);
    for s in spans {
        out.push_str(&format!(
            "{{\"trace\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}\n",
            s.trace, s.id, s.parent, s.name, s.start_ns, s.end_ns
        ));
    }
    std::fs::write(&path, out).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// Times calls against one origin and keeps their spans.
struct Timeline {
    origin: Instant,
    next_id: u64,
    spans: Vec<SpanRec>,
}

impl Timeline {
    fn new() -> Self {
        Self {
            origin: Instant::now(),
            next_id: 1,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` as a span named `name`; returns its value and duration, ms.
    fn time<T>(
        &mut self,
        trace: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = self.now();
        let v = f();
        let end = self.now();
        let id = self.next_id;
        self.next_id += 1;
        self.spans
            .push(SpanRec::new(trace, id, parent, name, start, end));
        (v, (end - start) as f64 / 1e6)
    }

    /// Opens a root span whose end is filled in by [`Timeline::close`].
    fn open(&mut self, trace: u64, name: &'static str) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let start = self.now();
        self.spans
            .push(SpanRec::new(trace, id, 0, name, start, start));
        id
    }

    /// Closes a span opened with [`Timeline::open`].
    fn close(&mut self, id: u64) {
        let end = self.now();
        let span = self
            .spans
            .iter_mut()
            .rev()
            .find(|s| s.id == id)
            .expect("open span");
        span.end_ns = end;
    }
}

/// Replayed training steps, in-process requests, and fold-ins.
#[derive(Debug, Clone, Copy)]
pub struct ReplayPlan {
    /// Training steps replayed from the start of epoch 0.
    pub batches: usize,
    /// In-process requests.
    pub requests: usize,
    /// In-process fold-ins.
    pub fold_ins: usize,
}

/// Replays every layer in-process and records the per-layer metrics into
/// `report`; returns the spans. Training steps start from init under the
/// training configuration `cfg` (as train-paper does); serving scores the
/// `served` model, as the server does.
pub fn replay(
    ds: &Dataset,
    cfg: &LogiRecConfig,
    served: &LogiRec,
    plan: ReplayPlan,
    report: &mut Report,
) -> Vec<SpanRec> {
    let mut tl = Timeline::new();
    replay_training(ds, cfg, plan.batches, &mut tl, report);
    let mut rng = SplitMix64::new(cfg.seed ^ 0x7265_706c_6179);
    replay_serving(ds, served, plan, &mut rng, &mut tl, report);
    tl.spans
}

/// The trainer's step, one public call at a time, on the trainer's own
/// epoch-0 RNG streams (so the batches, negatives and logic samples are the
/// ones `train` draws).
fn replay_training(
    ds: &Dataset,
    cfg: &LogiRecConfig,
    batches: usize,
    tl: &mut Timeline,
    report: &mut Report,
) {
    let cfg = cfg.clone().validated();
    let threads = cfg.train_threads;
    let mut model: LogiRec = LogiRec::new(cfg.clone(), ds);
    let pg = PropGraph::build(&ds.train);
    let con = consistency_weights(ds);
    model.propagate_graph(&pg);
    let (gr, gr_ms) = tl.time(0, 0, "core.mining.granularity_weights", || {
        granularity_weights(&model, ds.n_users())
    });
    let alpha = combine_weights(&con, &gr, cfg.alpha_floor);

    let mut rng = SplitMix64::new(cfg.seed.wrapping_mul(0x9E37_79B9) ^ 0x1357_9BDF);
    let tel = Telemetry::enabled();
    let mut sampler = NegativeSampler::new(&ds.train, rng.fork(1_000));
    sampler.instrument(&tel);
    let mut batch_rng = rng.fork(2_000);
    let mut logic_rng = rng.fork(3_000);
    let rel = &ds.relations;
    let exclusion: Vec<(usize, usize)> = rel.exclusion.iter().map(|&(a, b, _)| (a, b)).collect();
    let ambient = cfg.ambient_dim();

    // fwd, bwd, rank, logic, scatter, neg, rsgd
    let mut layer: Vec<Vec<f64>> = vec![Vec::new(); 7];
    let mut step_layers = Vec::new();
    for (b, batch) in BatchIter::new(&ds.train, cfg.batch_size, &mut batch_rng)
        .take(batches)
        .enumerate()
    {
        let t = b as u64 + 1;
        let step = tl.open(t, "step");
        let (_, fwd) = tl.time(t, step, "core.propagate_graph", || {
            model.propagate_graph(&pg)
        });
        let (triplets, neg) = tl.time(t, step, "data.NegativeSampler::sample", || {
            let mut trip = Vec::with_capacity(batch.len() * cfg.negatives);
            for &(u, vp) in &batch {
                for _ in 0..cfg.negatives {
                    trip.push((u, vp, sampler.sample(u)));
                }
            }
            trip
        });
        let per_triplet = 1.0 / cfg.negatives as f64;
        let (rg, rank) = tl.time(t, step, "core.losses.rank_loss_grad_sharded", || {
            rank_loss_grad_sharded(
                &model,
                &triplets,
                cfg.margin,
                Some(&alpha),
                per_triplet,
                threads,
            )
        });
        let ((g_uf, g_vf), scatter_rank) = tl.time(t, step, "core.SparseGrad::scatter_add", || {
            let mut g_uf = Embedding::zeros(model.users.rows(), ambient);
            let mut g_vf = Embedding::zeros(model.items.rows(), ambient);
            rg.users.scatter_add(&mut g_uf);
            rg.items.scatter_add(&mut g_vf);
            (g_uf, g_vf)
        });
        let ((g_users, mut g_items), bwd) = tl.time(t, step, "core.backward_rank_graph", || {
            model.backward_rank_graph(&g_uf, &g_vf, &pg)
        });
        let (lg, logic) = tl.time(t, step, "core.losses.logic_loss_grad_sharded", || {
            let frac = batch.len() as f64 / ds.train.len().max(1) as f64;
            let weight = |n_total: usize, n: usize| cfg.lambda * frac * n_total as f64 / n as f64;
            // Same draws in the same order as the trainer.
            let (mut mem, mut hie, mut ex) = (Vec::new(), Vec::new(), Vec::new());
            if cfg.lambda > 0.0 {
                if cfg.use_mem && !rel.membership.is_empty() {
                    mem = sample(&rel.membership, cfg.logic_batch, &mut logic_rng);
                }
                if cfg.use_hie && !rel.hierarchy.is_empty() {
                    hie = sample(&rel.hierarchy, cfg.logic_batch, &mut logic_rng);
                }
                if cfg.use_ex && !exclusion.is_empty() {
                    ex = sample(&exclusion, cfg.logic_batch, &mut logic_rng);
                }
            }
            let mut batches = Vec::new();
            if !mem.is_empty() {
                batches.push((
                    LogicBatch::Membership(&mem),
                    weight(rel.membership.len(), mem.len()),
                ));
            }
            if !hie.is_empty() {
                batches.push((
                    LogicBatch::Hierarchy(&hie),
                    weight(rel.hierarchy.len(), hie.len()),
                ));
            }
            if !ex.is_empty() {
                batches.push((
                    LogicBatch::Exclusion(&ex),
                    weight(exclusion.len(), ex.len()),
                ));
            }
            logic_loss_grad_sharded(&model, &batches, threads)
        });
        let (g_tags, scatter_logic) = tl.time(t, step, "core.SparseGrad::scatter_add", || {
            let mut g_tags = Embedding::zeros(model.tags.rows(), cfg.dim);
            lg.tags.scatter_add(&mut g_tags);
            lg.items.scatter_add(&mut g_items);
            g_tags
        });
        let lr = cfg.lr;
        let (_, step_ms) = tl.time(t, step, "hyperbolic.rsgd", || {
            logirec_core::parallel::for_each_row(&mut model.users, threads, |u, row| {
                let g = g_users.row(u);
                if g.iter().any(|&x| x != 0.0) {
                    rsgd::lorentz_step(row, g, lr);
                }
            });
            logirec_core::parallel::for_each_row(&mut model.items, threads, |v, row| {
                let g = g_items.row(v);
                if g.iter().any(|&x| x != 0.0) {
                    rsgd::poincare_step(row, g, lr);
                }
            });
            logirec_core::parallel::for_each_row(&mut model.tags, threads, |i, row| {
                let g = g_tags.row(i);
                if g.iter().any(|&x| x != 0.0) {
                    rsgd::hyperplane_step(row, g, lr);
                }
            });
        });
        tl.close(step);
        let parts = [
            fwd,
            bwd,
            rank,
            logic,
            scatter_rank + scatter_logic,
            neg,
            step_ms,
        ];
        for (l, p) in layer.iter_mut().zip(parts) {
            l.push(p);
        }
        step_layers.push(parts.iter().sum::<f64>());
    }
    let p50 = |i: usize| median(&layer[i]);
    report.put("core.graph.fwd_ms", p50(0), "ms");
    report.put("core.graph.bwd_ms", p50(1), "ms");
    report.put("core.losses.rank_ms", p50(2), "ms");
    report.put("core.losses.logic_ms", p50(3), "ms");
    report.put("core.shard.scatter_ms", p50(4), "ms");
    report.put("data.sampling.neg_ms", p50(5), "ms");
    let snap = tel.metrics_snapshot();
    let count = |name: &str| {
        snap.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |&(_, v)| v)
    };
    let draws = count("sampler.draws").max(1) as f64;
    report.put(
        "data.sampling.useful_ratio",
        1.0 - count("sampler.rejections") as f64 / draws,
        "ratio",
    );
    report.put("hyperbolic.rsgd.step_ms", p50(6), "ms");
    report.put("core.mining.gr_ms", gr_ms, "ms");
    report.put("replay.step_layers_ms", median(&step_layers), "ms");
    report.check(model.all_finite(), || {
        "replayed training steps left non-finite parameters".into()
    });
}

/// The trainer's `sample_slice`: up to `n` draws with replacement, or the
/// whole population when it is no larger than `n`.
fn sample<T: Copy>(all: &[T], n: usize, rng: &mut SplitMix64) -> Vec<T> {
    if all.len() <= n {
        return all.to_vec();
    }
    (0..n).map(|_| all[rng.index(all.len())]).collect()
}

fn replay_serving(
    ds: &Dataset,
    served: &LogiRec,
    plan: ReplayPlan,
    rng: &mut SplitMix64,
    tl: &mut Timeline,
    report: &mut Report,
) {
    let ctx = Arc::new(ServeContext::from_dataset(ds));
    let mut base = served.clone();
    base.propagate(&ds.train);
    let index_cfg = IndexConfig::default();
    let snap = match ModelSnapshot::build_with_index(
        served.clone(),
        Precision::F64,
        &ctx,
        "replay",
        Some(index_cfg),
    ) {
        Ok(s) => s,
        Err(e) => return report.fail(format!("replay snapshot rejected: {e}")),
    };
    let store = SnapshotStore::new(snap);
    let snap = store.get();
    let n_items = ctx.n_items();
    let (mut parse, mut score, mut mask, mut select, mut encode, mut whole) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut search, mut scored, mut fraction, mut covered) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut scores = vec![0.0f64; n_items];
    let mut scratch = Vec::new();
    let base_trace = 1_000_000;
    for i in 0..plan.requests {
        let t = base_trace + i as u64;
        let u = rng.index(ctx.n_users());
        let line = encode_request(&Request {
            id: t,
            user: u,
            k: 10,
            deadline_ms: Some(1000),
        });
        let root = tl.open(t, "request");
        let (msg, p) = tl.time(t, root, "serve.protocol.parse_message", || {
            parse_message(&line)
        });
        if msg.is_err() {
            report.fail(format!("replayed request {line} did not parse"));
        }
        let (_, s) = tl.time(t, root, "core.ModelSnapshot::score_user", || {
            snap.score_user(u, &mut scores)
        });
        let (masked, m) = tl.time(t, root, "core.SeenFilter::mask_scores", || {
            ctx.seen().mask_scores(u, &mut scores)
        });
        if masked.is_err() {
            report.fail(format!("replayed user {u} could not be masked"));
        }
        let (items, sel) = tl.time(t, root, "eval.top_k_indices", || top_k_indices(&scores, 10));
        let resp = Response {
            id: t,
            served_by: ServedBy::Exact,
            reason: None,
            model_version: snap.version(),
            scores: items.iter().map(|&v| scores[v]).collect(),
            items,
            latency_us: 0,
            approx: None,
        };
        let (_, e) = tl.time(t, root, "serve.protocol.encode_response", || {
            encode_response(&resp)
        });
        tl.close(root);
        let (exact, w) = tl.time(t, 0, "core.ModelSnapshot::top_k", || {
            snap.top_k(u, 10, &mut scratch)
        });
        if !matches!(&exact, Ok((it, _)) if *it == resp.items) {
            report.fail(format!(
                "replayed user {u}: top_k disagrees with score/mask/select"
            ));
        }
        let (approx, a) = tl.time(t, 0, "serve.ModelSnapshot::approx_top_k", || {
            snap.approx_top_k(u, 10, None)
        });
        match approx {
            Ok(Some((_, _, probe))) => {
                scored.push(probe.items_scored as f64);
                fraction.push(probe.scan_fraction());
            }
            _ => report.fail(format!("replayed user {u}: approx search failed")),
        }
        covered.push((s + m + sel) / w);
        parse.push(p * 1e3);
        score.push(s * 1e3);
        mask.push(m * 1e3);
        select.push(sel * 1e3);
        encode.push(e * 1e3);
        whole.push(w);
        search.push(a * 1e3);
    }
    report.put("serve.protocol.parse_us", median(&parse), "us");
    report.put("serve.protocol.encode_us", median(&encode), "us");
    report.put("core.model.score_us", median(&score), "us");
    report.put("core.filter.mask_us", median(&mask), "us");
    report.put("eval.select_us", median(&select), "us");
    report.put("serve.index.search_us", median(&search), "us");
    report.put("serve.index.items_scored", median(&scored), "count");
    report.put("serve.index.scan_fraction", median(&fraction), "ratio");
    report.put("coverage.request", median(&covered), "ratio");
    report.put("replay.exact_p99_ms", quantile(&sorted(&whole), 0.99), "ms");

    let mut parts: Vec<Vec<f64>> = vec![Vec::new(); 8];
    for j in 0..plan.fold_ins {
        let t = 2_000_000 + j as u64;
        let positives = loop {
            let items = ds.train.items_of(rng.index(ds.n_users()));
            if !items.is_empty() {
                break items.to_vec();
            }
        };
        let (mut m2, clone) = tl.time(t, 0, "core.LogiRec::clone", || base.clone());
        let opts = FoldInOptions::for_config(&m2.cfg);
        let (row_res, row) = tl.time(t, 0, "core.stream::fold_in_user", || {
            fold_in_user(&mut m2, &positives, &opts)
        });
        let (grown, cx) = tl.time(t, 0, "serve.ServeContext::with_new_user", || {
            ctx.with_new_user(&positives)
        });
        let Ok(grown) = grown.map_err(|e| report.fail(format!("fold-in context: {e}"))) else {
            return;
        };
        let (_, prop) = tl.time(t, 0, "core.LogiRec::propagate", || {
            m2.propagate(grown.train())
        });
        let (_, idx) = tl.time(t, 0, "serve.ClusterIndex::build", || {
            ClusterIndex::build(&m2.state().item_final, m2.cfg.geometry, &index_cfg)
        });
        let current = store.get();
        let (cand, total) = tl.time(t, 0, "serve.ModelSnapshot::fold_in", || {
            current.fold_in(false, &positives, None, None)
        });
        let (Ok(_), Ok((cand, _))) = (row_res, cand) else {
            return report.fail("replayed fold-in was rejected".to_string());
        };
        // The canary checks `build_with_index` runs on every candidate:
        // score each canary, then its exhaustive index probe against the
        // exact top-10.
        let (_, validate) = tl.time(t, 0, "serve.ModelSnapshot canary validation", || {
            let mut scores = vec![0.0f64; grown.n_items()];
            let mut scratch = Vec::new();
            let all = cand.index().map(ClusterIndex::clusters);
            for &u in grown.canaries() {
                cand.score_user(u, &mut scores);
                let _ = cand.top_k(u, 10, &mut scratch);
                let _ = cand.approx_top_k(u, 10, all);
            }
        });
        let (_, swap) = tl.time(t, 0, "serve.SnapshotStore::swap", || store.swap(cand));
        for (p, v) in parts
            .iter_mut()
            .zip([total, clone, row, cx, prop, idx, validate, swap * 1e3])
        {
            p.push(v);
        }
    }
    for (i, name) in [
        "total_ms",
        "clone_ms",
        "row_ms",
        "ctx_ms",
        "propagate_ms",
        "index_ms",
        "validate_ms",
        "swap_us",
    ]
    .iter()
    .enumerate()
    {
        let unit = if name.ends_with("us") { "us" } else { "ms" };
        report.put(&format!("serve.fold_in.{name}"), median(&parts[i]), unit);
    }
}
