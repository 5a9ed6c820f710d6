//! The experiment harness contract, through the built `table1`: a bad
//! flag, value, scale or dataset exits 1 naming it, prints the usage and
//! creates no file; a run truncates `results/table1.txt` and starts it with
//! the command that regenerates it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn work_dir(case: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("logirec-bench-harness-{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn table1(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_table1"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run table1")
}

#[test]
fn bad_arguments_exit_1_naming_them_and_create_no_file() {
    let dir = work_dir("bad-args");
    for (args, named) in [
        (&["--seeds", "x"][..], "--seeds"),
        (&["--bogus"], "--bogus"),
        (&["--seeds"], "missing value for --seeds"),
        (&["--datasets", "nope"], "nope"),
        (&["--scale", "huge"], "huge"),
    ] {
        let out = table1(&dir, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(named), "{args:?} does not name {named}: {stderr}");
        assert!(stderr.contains("usage:"), "{args:?}: no usage in {stderr}");
        assert!(!dir.join("results").exists(), "{args:?} created results/");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_rerun_replaces_the_results_file_headed_by_its_command() {
    let dir = work_dir("rerun");
    let args = ["--scale", "tiny", "--datasets", "ciao", "--no-trace"];
    for _ in 0..2 {
        let out = table1(&dir, &args);
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    }
    let text = std::fs::read_to_string(dir.join("results/table1.txt")).expect("results file");
    assert_eq!(
        text.lines().next(),
        Some("cargo run --release -p logirec-bench --bin table1 -- --scale tiny --datasets ciao --no-trace")
    );
    assert_eq!(text.matches("Table I:").count(), 1, "{text}");
    let files: Vec<_> = std::fs::read_dir(dir.join("results"))
        .expect("results dir")
        .map(|e| e.expect("entry").file_name())
        .collect();
    assert_eq!(files, ["table1.txt"], "--no-trace left a trace");
    let _ = std::fs::remove_dir_all(&dir);
}
