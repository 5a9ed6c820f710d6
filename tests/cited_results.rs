//! Every result file the documentation cites must be in the tree: each
//! concrete `results/<name>.txt` or `results/<name>.tsv` path named in
//! README.md, DESIGN.md or EXPERIMENTS.md has to exist. Patterns such as
//! `results/*.txt` or `results/fig78_<dataset>_<method>.tsv` are not
//! concrete paths and are skipped.

use std::path::Path;

/// The concrete result paths cited in `text`, in order of appearance.
fn cited_paths(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    for (start, _) in text.match_indices("results/") {
        let rest = &text[start + "results/".len()..];
        let end = rest
            .find(|c: char| !(c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.')))
            .unwrap_or(rest.len());
        let name = rest[..end].trim_end_matches('.');
        if name.ends_with(".txt") || name.ends_with(".tsv") {
            out.push(format!("results/{name}"));
        }
    }
    out
}

#[test]
fn cited_paths_skip_patterns_and_sentence_ends() {
    let text = "see `results/a.txt`, results/b_c.tsv. Not results/*.txt, \
                results/fig78_<dataset>.tsv or results/<bin>.trace.jsonl.";
    assert_eq!(cited_paths(text), ["results/a.txt", "results/b_c.tsv"]);
}

#[test]
fn every_cited_result_file_is_committed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut missing = Vec::new();
    let mut cited = 0;
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        for path in cited_paths(&text) {
            cited += 1;
            if !root.join(&path).is_file() {
                missing.push(format!("{doc} cites {path}"));
            }
        }
    }
    assert!(cited > 0, "the docs cite result files");
    assert!(missing.is_empty(), "cited but not committed:\n{}", missing.join("\n"));
}
