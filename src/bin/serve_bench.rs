//! `serve_bench` — load generator for the serving path.
//!
//! Spins up an in-process server on a synthetic dataset and drives it
//! through three phases, reporting p50/p99 latency split by `served_by`
//! and the shed rate under overload:
//!
//! 1. **nominal** — concurrency below `max_inflight`, generous deadlines:
//!    the exact-path baseline;
//! 2. **starved** — every request carries a 0 ms deadline: the degraded
//!    fallback path (no request may error);
//! 3. **overload** — a thundering herd far past `shed_limit`: measures how
//!    the fallback/shed split behaves at saturation (on a single-core
//!    container requests drain too fast for depth to build, so the split
//!    is hardware-dependent);
//! 4. **soft-saturated** — a server pinned to `max_inflight = 0`, so every
//!    request deterministically degrades (to the approx tier when an index
//!    is serving, to fallback otherwise);
//! 5. **hard-saturated** — a server pinned to `shed_limit = 0`, so every
//!    request is deterministically shed: the floor cost of saying no;
//! 6. **approx** — a server carrying the clustered retrieval index with
//!    `force_approx`, so every request exercises the approx tier; also
//!    measures recall@10 of the approx tier against the exact scan on the
//!    served snapshot (deterministic: fixed dataset, model, and index
//!    seeds), printing the line the tier-1 smoke gates on.
//!
//! ```text
//! serve_bench [--scale tiny|small|paper] [--seed N] [--requests N]
//!             [--dim N] [--overload-threads N] [--profile]
//!             [--index-clusters N] [--nprobe N]
//! ```
//!
//! Output is the `results/serve_latency.txt` format: one block per phase.
//! `--profile` additionally runs the servers with telemetry enabled and
//! prints the span hot-path profile (self-time per span kind) at the end.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

use logirec_suite::core::{LogiRec, LogiRecConfig, Precision};
use logirec_suite::data::{DatasetSpec, Scale};
use logirec_suite::obs::{profile_span_aggs, rss, Telemetry};
use logirec_suite::serve::{
    Client, IndexConfig, ModelSnapshot, Request, ServeContext, ServedBy, Server, ServerConfig,
};
use logirec_suite::Flags;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve_bench: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: serve_bench [--scale tiny|small|paper] [--seed N] [--requests N]
                   [--dim N] [--overload-threads N] [--profile]
                   [--index-clusters N] [--nprobe N]";

fn run(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(
        args,
        &["scale", "seed", "requests", "dim", "overload-threads", "index-clusters", "nprobe"],
        &["profile"],
        USAGE,
    )?;
    let scale_raw = flags.get("scale").unwrap_or("small");
    let scale = Scale::parse(scale_raw).ok_or_else(|| format!("bad --scale {scale_raw:?}"))?;
    let seed: u64 = flags.parse_or("seed", 7)?;
    let requests: usize = flags.parse_or("requests", 400)?;
    let dim: usize = flags.parse_or("dim", 32)?;
    let overload_threads: usize = flags.parse_or("overload-threads", 48)?;
    let index_clusters: usize = flags.parse_or("index-clusters", 0)?;
    let nprobe: usize = flags.parse_or("nprobe", 0)?;
    let profile = flags.has("profile");
    let tel = if profile { Telemetry::enabled() } else { Telemetry::disabled() };

    let ds = DatasetSpec::ciao(scale).generate(seed);
    let cfg = LogiRecConfig { dim, ..LogiRecConfig::test_config() };
    let model = LogiRec::new(cfg, &ds);
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let start = |label: &str, max_inflight: usize, shed_limit: usize, index: Option<IndexConfig>| {
        let force_approx = index.is_some();
        let snapshot =
            ModelSnapshot::build_with_index(model.clone(), Precision::F64, &ctx, label, index)
                .unwrap_or_else(|e| {
                    eprintln!("snapshot build failed: {e}");
                    std::process::exit(1);
                });
        let server_cfg = ServerConfig {
            max_inflight,
            shed_limit,
            default_deadline_ms: 1000,
            force_approx,
            telemetry: tel.clone(),
            ..ServerConfig::default()
        };
        Server::start(server_cfg, Arc::clone(&ctx), snapshot).unwrap_or_else(|e| {
            eprintln!("server start failed: {e}");
            std::process::exit(1);
        })
    };
    let server = start("serve_bench", 4, 16, None);
    let addr = server.addr();
    let n_users = ctx.n_users();

    println!(
        "serve_bench: ciao/{scale_raw} seed {seed}, {} users / {} items, d={dim}, \
         max_inflight=4, shed_limit=16",
        n_users,
        ctx.n_items()
    );
    println!();

    // Phase 1: nominal — 2 workers (< max_inflight), generous deadline.
    let lat = run_phase(addr, requests, 2, n_users, Some(1000));
    report("nominal (deadline 1000ms, concurrency 2)", &lat, requests);

    // Phase 2: starved — deadline 0 degrades every request to fallback.
    let lat = run_phase(addr, requests, 2, n_users, Some(0));
    report("starved (deadline 0ms, concurrency 2)", &lat, requests);

    // Phase 3: overload — a herd far past shed_limit.
    let per_thread = (requests / overload_threads).max(4);
    let total = per_thread * overload_threads;
    let lat = run_phase(addr, total, overload_threads, n_users, Some(1000));
    report(
        &format!("overload (deadline 1000ms, concurrency {overload_threads})"),
        &lat,
        total,
    );

    server.shutdown();

    // Phase 4: soft-saturated — max_inflight 0 pins every request to the
    // fallback(overload) tier (no index on this server).
    let soft = start("soft-saturated", 0, 16, None);
    let lat = run_phase(soft.addr(), requests, 2, n_users, Some(1000));
    report("soft-saturated (max_inflight 0, concurrency 2)", &lat, requests);
    soft.shutdown();

    // Phase 5: hard-saturated — shed_limit 0 sheds every request.
    let hard = start("hard-saturated", 0, 0, None);
    let lat = run_phase(hard.addr(), requests, 2, n_users, Some(1000));
    report("hard-saturated (shed_limit 0, concurrency 2)", &lat, requests);
    hard.shutdown();

    // Phase 6: approx — a clustered-index server with force_approx, so
    // every request goes through the retrieval index + exact re-rank.
    let index_cfg = IndexConfig { clusters: index_clusters, nprobe };
    let approx = start("approx", 4, 16, Some(index_cfg));
    let lat = run_phase(approx.addr(), requests, 2, n_users, Some(1000));
    report("approx (forced, deadline 1000ms, concurrency 2)", &lat, requests);

    // Recall of the approx tier vs the exact scan, on the very snapshot the
    // phase above served. Deterministic (fixed dataset, model, and index
    // seeds) — this line is what the tier-1 smoke gates on.
    {
        let snap = approx.store().get();
        let index = snap.index().expect("approx server carries an index");
        let sample = n_users.min(200);
        let stride = (n_users / sample).max(1);
        let mut scratch = Vec::new();
        let (mut hits, mut total, mut scanned) = (0usize, 0usize, 0.0f64);
        let mut users = 0usize;
        for u in (0..n_users).step_by(stride).take(sample) {
            let (exact_items, _) = snap.top_k(u, 10, &mut scratch).expect("exact");
            let (approx_items, _, probe) =
                snap.approx_top_k(u, 10, None).expect("in range").expect("index");
            hits += exact_items.iter().filter(|v| approx_items.contains(v)).count();
            total += exact_items.len();
            scanned += probe.scan_fraction();
            users += 1;
        }
        println!(
            "approx recall@10 vs exact: {:.4} (scanned {:.1}% of catalog, clusters={}, \
             nprobe={}, build {:.1}ms, {} users)",
            hits as f64 / total.max(1) as f64,
            100.0 * scanned / users.max(1) as f64,
            index.clusters(),
            index.nprobe(),
            index.build_us() as f64 / 1e3,
            users,
        );
        println!();
    }
    approx.shutdown();

    if profile {
        if let Some(peak) = rss::set_peak_rss_gauge(&tel) {
            println!("peak RSS: {:.1} MiB", peak as f64 / (1024.0 * 1024.0));
        }
        print!("{}", profile_span_aggs(&tel.span_aggs(), tel.elapsed_us()).render(10));
    }
    Ok(())
}

/// Fires `total` requests from `threads` workers; returns latencies (µs)
/// grouped by `served_by`. Panics if any request errors — the degradation
/// matrix promises valid responses under every load level.
fn run_phase(
    addr: SocketAddr,
    total: usize,
    threads: usize,
    n_users: usize,
    deadline_ms: Option<u64>,
) -> [Vec<u64>; 4] {
    let per_thread = total / threads;
    let mut groups: [Vec<u64>; 4] = std::array::from_fn(|_| Vec::new());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    let mut local: [Vec<u64>; 4] = std::array::from_fn(|_| Vec::new());
                    let mut client = Client::connect(addr).expect("connect");
                    for i in 0..per_thread {
                        let req = Request {
                            id: (t * per_thread + i) as u64,
                            user: (t * 7919 + i * 31) % n_users,
                            k: 10,
                            deadline_ms,
                        };
                        let resp = client.recommend(&req).expect("no request may error");
                        let slot = match resp.served_by {
                            ServedBy::Exact => 0,
                            ServedBy::Approx => 1,
                            ServedBy::Fallback => 2,
                            ServedBy::Shed => 3,
                        };
                        local[slot].push(resp.latency_us);
                    }
                    local
                })
            })
            .collect();
        for h in handles {
            let local = h.join().expect("worker");
            for (g, l) in groups.iter_mut().zip(local) {
                g.extend(l);
            }
        }
    });
    groups
}

fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

fn report(label: &str, groups: &[Vec<u64>; 4], total: usize) {
    println!("phase: {label}  ({total} requests)");
    for (name, lat) in ["exact", "approx", "fallback", "shed"].iter().zip(groups) {
        if lat.is_empty() {
            continue;
        }
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        println!(
            "  {name:<8} n={:<6} p50={}us  p99={}us  max={}us",
            sorted.len(),
            quantile(&sorted, 0.5),
            quantile(&sorted, 0.99),
            sorted.last().copied().unwrap_or(0),
        );
    }
    let shed_rate = groups[3].len() as f64 / total as f64;
    println!("  shed rate: {:.1}%", 100.0 * shed_rate);
    println!();
}
