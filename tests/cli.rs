//! End-to-end tests of the `logirec` CLI binary: generate → train →
//! evaluate → recommend through real process invocations.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use logirec_suite::core::io::load_model;
use logirec_suite::core::{LogiRecConfig, Precision};
use logirec_suite::data::load_dataset;
use logirec_suite::eval::ranking::top_k_indices;
use logirec_suite::serve::{ModelSnapshot, ServeContext};
use logirec_suite::taxonomy::ExclusionRule;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_logirec"))
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("logirec-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("mkdir");
    dir
}

#[test]
fn full_cli_workflow() {
    let dir = work_dir("workflow");
    let data = dir.join("data");
    let model = dir.join("model.bin");

    let out = bin()
        .args(["generate", "--dataset", "ciao", "--scale", "tiny", "--seed", "3", "--out"])
        .arg(&data)
        .output()
        .expect("run generate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(data.join("interactions.tsv").exists());
    assert!(data.join("taxonomy.tsv").exists());
    assert!(data.join("item_tags.tsv").exists());

    let out = bin()
        .args(["train", "--data"])
        .arg(&data)
        .args(["--model"])
        .arg(&model)
        .args(["--epochs", "4", "--dim", "8"])
        .output()
        .expect("run train");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(model.exists());

    let out = bin()
        .args(["evaluate", "--data"])
        .arg(&data)
        .args(["--model"])
        .arg(&model)
        .output()
        .expect("run evaluate");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Recall@10"), "unexpected output: {text}");

    let out = bin()
        .args(["recommend", "--data"])
        .arg(&data)
        .args(["--model"])
        .arg(&model)
        .args(["--user", "1", "--k", "3"])
        .output()
        .expect("run recommend");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(text.lines().filter(|l| l.trim_start().starts_with(|c: char| c.is_ascii_digit())).count(), 3);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cli_reports_errors_cleanly() {
    // Unknown command.
    let out = bin().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing required flag.
    let out = bin().args(["train", "--model", "/tmp/x"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --data"));

    // Out-of-range user.
    let dir = work_dir("errors");
    let data = dir.join("data");
    let model = dir.join("m.bin");
    assert!(bin()
        .args(["generate", "--dataset", "ciao", "--scale", "tiny", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    assert!(bin()
        .args(["train", "--data"])
        .arg(&data)
        .arg("--model")
        .arg(&model)
        .args(["--epochs", "1", "--dim", "8"])
        .status()
        .expect("train")
        .success());
    let out = bin()
        .args(["recommend", "--data"])
        .arg(&data)
        .arg("--model")
        .arg(&model)
        .args(["--user", "999999"])
        .output()
        .expect("recommend");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("out of range"));

    // A zero-width embedding is refused by name, before any work: exit 1,
    // not a panic.
    let out = bin()
        .args(["train", "--data"])
        .arg(&data)
        .arg("--model")
        .arg(dir.join("dim0.bin"))
        .args(["--epochs", "1", "--dim", "0"])
        .output()
        .expect("train");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--dim"), "{stderr}");
    assert!(!dir.join("dim0.bin").exists());

    // So is a logic-loss weight that is NaN or negative, which would train
    // without the logic losses (λ = 0 stays legal: Table IV sweeps it).
    for lambda in ["nan", "-1"] {
        let refused = dir.join(format!("lambda{lambda}.bin"));
        let out = bin()
            .args(["train", "--data"])
            .arg(&data)
            .arg("--model")
            .arg(&refused)
            .args(["--epochs", "1", "--dim", "8", "--lambda", lambda])
            .output()
            .expect("train");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--lambda {lambda}: {stderr}");
        assert!(stderr.contains("bad value for --lambda"), "--lambda {lambda}: {stderr}");
        assert!(!refused.exists(), "--lambda {lambda} trained a model");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A model trained for one catalog, handed another catalog's data, is
/// refused with the model's and the dataset's sizes by every command that
/// ranks with it, as `serve` refuses it: exit 1, never a slice panic.
#[test]
fn a_model_for_another_catalog_is_refused_cleanly() {
    let dir = work_dir("catalog");
    let model = dir.join("ciao.bin");
    for (dataset, out) in [("ciao", "ciao"), ("cd", "cd")] {
        assert!(bin()
            .args(["generate", "--dataset", dataset, "--scale", "tiny", "--out"])
            .arg(dir.join(out))
            .status()
            .expect("generate")
            .success());
    }
    assert!(bin()
        .args(["train", "--data"])
        .arg(dir.join("ciao"))
        .arg("--model")
        .arg(&model)
        .args(["--epochs", "1", "--dim", "8"])
        .status()
        .expect("train")
        .success());
    for tail in [&["evaluate"][..], &["recommend", "--user", "3"][..]] {
        let out = bin()
            .args(tail)
            .arg("--data")
            .arg(dir.join("cd"))
            .arg("--model")
            .arg(&model)
            .output()
            .expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tail:?}: {stderr}");
        assert!(stderr.contains("model has 100 items but the dataset has "), "{tail:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A misspelled flag, a value flag with no value, a stray argument and a
/// flag only another command reads each fail before any work is done,
/// naming the offender and printing the usage text: each of these
/// commands would otherwise train a model.
#[test]
fn cli_rejects_unknown_flags_and_missing_values() {
    let dir = work_dir("flags");
    let data = dir.join("data");
    let model = dir.join("m.bin");
    assert!(bin()
        .args(["generate", "--dataset", "ciao", "--scale", "tiny", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    for (tail, expected) in [
        (&["--epocs", "1", "--dim", "8"][..], "unknown flag --epocs"),
        (&["--dim", "8", "--epochs"][..], "missing value for --epochs"),
        (&["--epochs", "--dim", "8"][..], "missing value for --epochs"),
        (&["--epochs", "1", "8"][..], "unexpected argument \"8\""),
        // A flag another command reads is as foreign to `train` as a typo.
        (&["--epochs", "1", "--dim", "8", "--nprobe", "16"][..], "unknown flag --nprobe"),
    ] {
        let out = bin()
            .args(["train", "--data"])
            .arg(&data)
            .arg("--model")
            .arg(&model)
            .args(tail)
            .output()
            .expect("run train");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{tail:?} was accepted");
        assert!(stderr.contains(expected), "{tail:?}: {stderr}");
        assert!(stderr.contains("usage:"), "{tail:?}: no usage text in {stderr}");
        assert!(!model.exists(), "{tail:?} trained a model");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bench binaries parse their flags with the same parser: a misspelled
/// flag fails before any work, naming the offender and printing the usage
/// text. A `--user 5` taken as nothing would sweep the default 100 users
/// and report numbers the caller did not ask for.
#[test]
fn bench_binaries_reject_unknown_flags() {
    let dir = work_dir("bench-flags");
    let replay_out = dir.join("replay.txt");
    let replay_out_arg = replay_out.to_str().expect("utf-8 temp path");
    for (exe, args, flag) in [
        (env!("CARGO_BIN_EXE_index_bench"), &["--users", "4", "--user", "5"][..], "--user"),
        (
            env!("CARGO_BIN_EXE_replay_bench"),
            &["--out", replay_out_arg, "--scale", "tiny", "--fold-step", "9"],
            "--fold-step",
        ),
    ] {
        let out = Command::new(exe).args(args).output().expect("run bench binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{exe} {args:?} was accepted");
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{exe}: {stderr}");
        assert!(stderr.contains("usage:"), "{exe}: no usage text in {stderr}");
    }
    assert!(!replay_out.exists(), "replay_bench ran");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `trace_check` validates a trace and attributes its wall time in one
/// pass: a valid trace prints its span table, `--min-coverage` fails a
/// trace whose spans cover too little of the wall clock, a span whose
/// parent never closed fails however well covered, and a flag the binary
/// does not read is an error.
#[test]
fn trace_check_gates_coverage_and_rejects_malformed_traces() {
    let dir = work_dir("trace-check");
    // epoch [0, 100] holds batch [10, 40] and batch [50, 90]; a counter at
    // 120 sets the wall clock, so the spans cover 100 of 120 µs.
    let trace = dir.join("trace.jsonl");
    std::fs::write(
        &trace,
        "\
{\"t_us\":40,\"kind\":\"span\",\"name\":\"batch\",\"id\":2,\"parent\":1,\"start_us\":10,\"dur_us\":30}
{\"t_us\":90,\"kind\":\"span\",\"name\":\"batch\",\"id\":3,\"parent\":1,\"start_us\":50,\"dur_us\":40}
{\"t_us\":100,\"kind\":\"span\",\"name\":\"epoch\",\"id\":1,\"start_us\":0,\"dur_us\":100}
{\"t_us\":120,\"kind\":\"counter\",\"name\":\"steps\",\"value\":7}
",
    )
    .expect("write trace");
    let orphan = dir.join("orphan.jsonl");
    std::fs::write(
        &orphan,
        "{\"t_us\":5,\"kind\":\"span\",\"name\":\"batch\",\"id\":8,\"parent\":7,\"start_us\":0,\"dur_us\":5}\n",
    )
    .expect("write orphan trace");
    let trace = trace.to_str().expect("utf-8 temp path");
    let orphan = orphan.to_str().expect("utf-8 temp path");
    let check = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_trace_check"))
            .args(args)
            .output()
            .expect("run trace_check");
        let text = |b: &[u8]| String::from_utf8_lossy(b).into_owned();
        (out.status.code(), text(&out.stdout), text(&out.stderr))
    };

    let (code, stdout, stderr) = check(&[trace, "--min-coverage", "0.8"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("attributed 100µs of 120µs wall (83.3% coverage)"), "{stdout}");
    let row = |kind: &str| stdout.find(&format!("  {kind} ")).expect("span row");
    assert!(row("batch") < row("epoch"), "hottest first: {stdout}");

    let (code, _, stderr) = check(&[trace, "--min-coverage", "0.9"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("coverage 83.3% below the required 90.0%"), "{stderr}");

    let (code, _, stderr) = check(&[orphan]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("missing parent 7"), "{stderr}");

    let (code, _, stderr) = check(&[trace, "--top", "3"]);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(stderr.contains("unknown flag --top") && stderr.contains("usage:"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The item ids `logirec recommend` prints, in rank order.
fn printed_items(stdout: &[u8]) -> Vec<usize> {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter_map(|l| l.split("item ").nth(1)?.split_whitespace().next()?.parse().ok())
        .collect()
}

fn recommend(data: &Path, model: &Path, user: usize, k: usize) -> Vec<usize> {
    let out = bin()
        .args(["recommend", "--data"])
        .arg(data)
        .arg("--model")
        .arg(model)
        .args(["--user", &user.to_string(), "--k", &k.to_string()])
        .output()
        .expect("run recommend");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    printed_items(&out.stdout)
}

/// Generates tiny Ciao (seed 3) under `dir` and trains a small model on
/// it; returns the data directory and the model file.
fn tiny_trained(dir: &Path) -> (PathBuf, PathBuf) {
    let data = dir.join("data");
    let model = dir.join("m.bin");
    assert!(bin()
        .args(["generate", "--dataset", "ciao", "--scale", "tiny", "--seed", "3", "--out"])
        .arg(&data)
        .status()
        .expect("generate")
        .success());
    assert!(bin()
        .args(["train", "--data"])
        .arg(&data)
        .arg("--model")
        .arg(&model)
        .args(["--epochs", "3", "--dim", "8"])
        .status()
        .expect("train")
        .success());
    (data, model)
}

/// `recommend` prints what the served exact tier returns: the same scan
/// under the same Train ∪ Validation mask. Checked on every user whose
/// answer a Train-only mask would change.
#[test]
fn recommend_prints_the_served_exact_answer() {
    let dir = work_dir("served");
    let (data, model) = tiny_trained(&dir);
    let ds = load_dataset(&data, "dataset", ExclusionRule::SiblingsWithoutCommonItems)
        .expect("load dataset");
    let loaded = load_model(&model, LogiRecConfig::default()).expect("load model");
    let ctx = Arc::new(ServeContext::from_dataset(&ds));
    let snap = ModelSnapshot::build(loaded, Precision::F64, &ctx, "cli").expect("valid snapshot");
    let k = 10;
    let mut scratch = Vec::new();
    let mut checked = 0;
    for u in 0..ds.n_users() {
        // The answer under a Train-only mask.
        let mut scores = vec![0.0; ds.n_items()];
        snap.score_user(u, &mut scores);
        for &v in ds.train.items_of(u) {
            scores[v] = f64::NEG_INFINITY;
        }
        let (served, _) = snap.top_k(u, k, &mut scratch).expect("in range");
        if top_k_indices(&scores, k) == served {
            continue;
        }
        assert_eq!(recommend(&data, &model, u, k), served, "user {u}");
        checked += 1;
        if checked == 3 {
            break;
        }
    }
    assert!(checked > 0, "no user's answer depends on the Validation mask");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `--k` far beyond the catalog lists every item the mask leaves, as
/// `--k` equal to the catalog size does, instead of sizing the scan's
/// buffers by it.
#[test]
fn recommend_with_an_unbounded_k_lists_every_unmasked_item() {
    let dir = work_dir("huge-k");
    let (data, model) = tiny_trained(&dir);
    let ds = load_dataset(&data, "dataset", ExclusionRule::SiblingsWithoutCommonItems)
        .expect("load dataset");
    let user = 1;
    let unmasked = (0..ds.n_items())
        .filter(|&v| !ds.train.contains(user, v) && !ds.validation.contains(user, v))
        .count();
    let all = recommend(&data, &model, user, ds.n_items());
    assert_eq!(all.len(), unmasked);
    assert_eq!(recommend(&data, &model, user, 1 << 62), all);
    let _ = std::fs::remove_dir_all(&dir);
}
