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

/// `recommend` prints what the served exact tier returns: the same scan
/// under the same Train ∪ Validation mask. Checked on every user whose
/// answer a Train-only mask would change.
#[test]
fn recommend_prints_the_served_exact_answer() {
    let dir = work_dir("served");
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
