//! Smoke test of the benchmark binary: every workload at tiny scale
//! (`--quick`, about a second each), untraced and traced. Each run must
//! pass its output checks, exit 0, and end with the result line carrying
//! every metric `BENCHMARK.json` declares for the mode, with its unit.

use std::path::PathBuf;
use std::process::Command;

use logirec_obs::json::{self, Json};

fn bench_json() -> Json {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(j: &'a Json, key: &str) -> &'a [Json] {
    match j.get(key) {
        Some(Json::Arr(a)) => a,
        other => panic!("BENCHMARK.json {key}: {other:?}"),
    }
}

fn name_unit(m: &Json) -> (&str, &str) {
    (
        m.get("name").and_then(Json::as_str).expect("name"),
        m.get("unit").and_then(Json::as_str).unwrap_or(""),
    )
}

#[test]
fn every_workload_prints_every_declared_metric_and_passes_its_checks() {
    let bench = bench_json();
    let target =
        std::env::temp_dir().join(format!("logirec-benchmark-smoke-{}", std::process::id()));
    for w in list(&bench, "workloads") {
        let workload = w.get("name").and_then(Json::as_str).expect("workload name");
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let out = Command::new(env!("CARGO_BIN_EXE_logirec-benchmark"))
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    "3",
                    "--trace",
                    trace,
                    "--quick",
                ])
                .env("CARGO_TARGET_DIR", &target)
                .output()
                .expect("benchmark runs");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{workload} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let last = stdout.lines().last().expect("output");
            let result = json::parse(last).expect("last line is JSON");
            assert_eq!(
                result.get("correct").and_then(Json::as_bool),
                Some(true),
                "{last}"
            );
            assert!(
                result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1,
                "{last}"
            );
            assert!(
                result.get("failed").and_then(Json::as_u64).is_some(),
                "{last}"
            );
            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("no metrics: {last}")
            };
            let declared: Vec<(&str, &str)> = list(&bench, key).iter().map(name_unit).collect();
            assert_eq!(metrics.len(), declared.len(), "{workload}: {last}");
            for (name, unit) in declared {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload} lacks {name}: {last}"));
                assert_eq!(
                    m.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{workload} {name}"
                );
                let v = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .expect("numeric value");
                assert!(v.is_finite(), "{workload} {name} = {v}");
            }
        }
    }
    let trace_file = target.join("benchmark").join("trace-serve-exact.jsonl");
    let spans = std::fs::read_to_string(&trace_file).expect("traced run wrote its spans");
    assert!(
        spans.lines().all(|l| json::parse(l).is_ok()),
        "trace lines parse"
    );
    assert!(spans.contains("\"name\":\"core.ModelSnapshot::score_user\""));
    let _ = std::fs::remove_dir_all(&target);
}

#[test]
fn unknown_workloads_are_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_logirec-benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("runs");
    assert!(!out.status.success());
    assert!(!String::from_utf8_lossy(&out.stdout).contains("\"correct\""));
}
