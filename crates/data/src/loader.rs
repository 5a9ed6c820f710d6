//! Loading and saving datasets as plain TSV files.
//!
//! A dataset directory holds three files:
//!
//! * `taxonomy.tsv` — one tag per line: `name<TAB>parent_id` with `-1` for
//!   level-1 tags. Parents must precede children (ids are line numbers).
//! * `item_tags.tsv` — one item per line: tag ids separated by tabs (line
//!   number = item id; a line may be empty for an untagged item, which is
//!   recorded as carrying its own placeholder root tag 0 if present).
//! * `interactions.tsv` — one event per line: `user<TAB>item<TAB>time`.
//!
//! This is the adoption path for real data (e.g. the paper's Ciao/Amazon
//! dumps after preprocessing): export the three TSVs and `load` gives the
//! same [`Dataset`] the synthetic generator produces, including the
//! temporal 60/20/20 split and the extracted logical relations.

use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::Path;

use logirec_taxonomy::{ExclusionRule, LogicalRelations, TagId, Taxonomy};

use crate::interactions::{temporal_split, Dataset};

/// Errors from dataset loading.
#[derive(Debug)]
pub enum LoadError {
    /// Filesystem error.
    Io(io::Error),
    /// A malformed line, with file name and 0-based line number.
    Parse {
        /// Which file failed.
        file: &'static str,
        /// 0-based line number.
        line: usize,
        /// What was wrong.
        message: String,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "io error: {e}"),
            LoadError::Parse { file, line, message } => {
                write!(f, "{file}:{}: {message}", line + 1)
            }
        }
    }
}

impl std::error::Error for LoadError {}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

/// Loads a dataset directory (see module docs for the format).
///
/// `name` labels the dataset; `rule` selects the exclusion extraction.
pub fn load_dataset(
    dir: &Path,
    name: &str,
    rule: ExclusionRule,
) -> Result<Dataset, LoadError> {
    // Taxonomy.
    let tax_src = fs::read_to_string(dir.join("taxonomy.tsv"))?;
    let mut records: Vec<(String, Option<TagId>)> = Vec::new();
    for (ln, line) in tax_src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let tag_name = parts.next().unwrap_or_default().to_string();
        if tag_name.trim().is_empty() {
            return Err(LoadError::Parse {
                file: "taxonomy.tsv",
                line: ln,
                message: "missing tag name".into(),
            });
        }
        let parent_raw = parts.next().ok_or_else(|| LoadError::Parse {
            file: "taxonomy.tsv",
            line: ln,
            message: "expected `name<TAB>parent`".into(),
        })?;
        let parent: i64 = parent_raw.trim().parse().map_err(|_| LoadError::Parse {
            file: "taxonomy.tsv",
            line: ln,
            message: format!("bad parent id {parent_raw:?}"),
        })?;
        let parent = if parent < 0 {
            None
        } else {
            let p = parent as usize;
            if p >= records.len() {
                return Err(LoadError::Parse {
                    file: "taxonomy.tsv",
                    line: ln,
                    message: format!("parent {p} does not precede tag {}", records.len()),
                });
            }
            Some(p)
        };
        records.push((tag_name, parent));
    }
    let taxonomy = Taxonomy::from_parents(records);

    // Item tags.
    let items_src = fs::read_to_string(dir.join("item_tags.tsv"))?;
    let mut item_tags: Vec<Vec<TagId>> = Vec::new();
    for (ln, line) in items_src.lines().enumerate() {
        let mut tags = Vec::new();
        for part in line.split('\t').filter(|p| !p.trim().is_empty()) {
            let t: usize = part.trim().parse().map_err(|_| LoadError::Parse {
                file: "item_tags.tsv",
                line: ln,
                message: format!("bad tag id {part:?}"),
            })?;
            if t >= taxonomy.len() {
                return Err(LoadError::Parse {
                    file: "item_tags.tsv",
                    line: ln,
                    message: format!("tag id {t} out of range ({} tags)", taxonomy.len()),
                });
            }
            tags.push(t);
        }
        tags.sort_unstable();
        tags.dedup();
        item_tags.push(tags);
    }
    let n_items = item_tags.len();

    // Interactions.
    let inter_src = fs::read_to_string(dir.join("interactions.tsv"))?;
    let mut events: Vec<(usize, usize, u64)> = Vec::new();
    let mut n_users = 0usize;
    for (ln, line) in inter_src.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let mut parts = line.split('\t');
        let parse = |s: Option<&str>, what: &str| -> Result<u64, LoadError> {
            s.ok_or_else(|| LoadError::Parse {
                file: "interactions.tsv",
                line: ln,
                message: format!("missing {what}"),
            })?
            .trim()
            .parse()
            .map_err(|_| LoadError::Parse {
                file: "interactions.tsv",
                line: ln,
                message: format!("bad {what}"),
            })
        };
        let u = parse(parts.next(), "user")? as usize;
        let v = parse(parts.next(), "item")? as usize;
        let t = parse(parts.next(), "time")?;
        if v >= n_items {
            return Err(LoadError::Parse {
                file: "interactions.tsv",
                line: ln,
                message: format!("item {v} out of range ({n_items} items)"),
            });
        }
        n_users = n_users.max(u + 1);
        events.push((u, v, t));
    }

    let (train, validation, test) = temporal_split(n_users, n_items, &events);
    let relations = LogicalRelations::extract(&taxonomy, &item_tags, rule);
    Ok(Dataset {
        name: name.to_string(),
        train,
        validation,
        test,
        taxonomy,
        item_tags,
        relations,
    })
}

/// Writes `bytes` to `path` atomically and durably: the bytes go to a
/// `<name>.tmp` sibling in the same directory, the file is fsynced, then
/// renamed over `path`, and finally the directory entry is synced. A crash
/// at any point leaves either the old file or the complete new one, never
/// a torn write (which [`load_dataset`] would misparse as data). Dataset
/// saves, model saves and checkpoints all write through it.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?
        .to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is best-effort:
        // some filesystems refuse to sync directory handles.
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Ok(d) = fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// Saves a dataset into `dir` in the format [`load_dataset`] reads,
/// returning the total number of bytes written across the three TSVs. Each
/// file is written with [`atomic_write`].
///
/// The temporal split cannot be reconstructed exactly without timestamps,
/// so interactions are written with synthetic times that preserve the
/// split: train events first (time 0..), then validation, then test —
/// re-splitting 60/20/20 recovers the same per-user partition whenever the
/// original split was produced by [`temporal_split`].
pub fn save_dataset(dataset: &Dataset, dir: &Path) -> io::Result<u64> {
    fs::create_dir_all(dir)?;

    let mut tax = String::new();
    for t in 0..dataset.taxonomy.len() {
        let parent = dataset.taxonomy.parent(t).map_or(-1i64, |p| p as i64);
        tax.push_str(&format!("{}\t{}\n", dataset.taxonomy.name(t), parent));
    }
    atomic_write(&dir.join("taxonomy.tsv"), tax.as_bytes())?;

    let mut items = String::new();
    for tags in &dataset.item_tags {
        let line: Vec<String> = tags.iter().map(|t| t.to_string()).collect();
        items.push_str(&line.join("\t"));
        items.push('\n');
    }
    atomic_write(&dir.join("item_tags.tsv"), items.as_bytes())?;

    let mut inter = Vec::new();
    for u in 0..dataset.n_users() {
        let mut t = 0u64;
        for split in [&dataset.train, &dataset.validation, &dataset.test] {
            for &v in split.items_of(u) {
                writeln!(inter, "{u}\t{v}\t{t}")?;
                t += 1;
            }
        }
    }
    atomic_write(&dir.join("interactions.tsv"), &inter)?;
    Ok((tax.len() + items.len() + inter.len()) as u64)
}

/// [`load_dataset`] wrapped in a `dataset` span recording the byte volume
/// read and the loaded shape.
pub fn load_dataset_traced(
    dir: &Path,
    name: &str,
    rule: ExclusionRule,
    tel: &logirec_obs::Telemetry,
) -> Result<Dataset, LoadError> {
    let mut span = tel.span("dataset");
    span.field("op", "load");
    let bytes: u64 = ["taxonomy.tsv", "item_tags.tsv", "interactions.tsv"]
        .iter()
        .filter_map(|f| fs::metadata(dir.join(f)).ok())
        .map(|m| m.len())
        .sum();
    let ds = load_dataset(dir, name, rule)?;
    span.field("bytes", bytes);
    span.field("users", ds.n_users() as u64);
    span.field("items", ds.n_items() as u64);
    Ok(ds)
}

/// [`save_dataset`] wrapped in a `dataset` span recording wall-clock
/// duration and bytes written.
pub fn save_dataset_traced(
    dataset: &Dataset,
    dir: &Path,
    tel: &logirec_obs::Telemetry,
) -> io::Result<u64> {
    let mut span = tel.span("dataset");
    span.field("op", "save");
    let bytes = save_dataset(dataset, dir)?;
    span.field("bytes", bytes);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{DatasetSpec, Scale};

    fn tmp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("logirec-loader-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn round_trip_preserves_dataset() {
        let original = DatasetSpec::ciao(Scale::Tiny).generate(7);
        let dir = tmp_dir("roundtrip");
        save_dataset(&original, &dir).expect("save");
        let loaded =
            load_dataset(&dir, "ciao", ExclusionRule::SiblingsWithoutCommonItems).expect("load");

        assert_eq!(loaded.n_users(), original.n_users());
        assert_eq!(loaded.n_items(), original.n_items());
        assert_eq!(loaded.n_tags(), original.n_tags());
        assert_eq!(loaded.item_tags, original.item_tags);
        for t in 0..original.n_tags() {
            assert_eq!(loaded.taxonomy.parent(t), original.taxonomy.parent(t));
            assert_eq!(loaded.taxonomy.name(t), original.taxonomy.name(t));
        }
        for u in 0..original.n_users() {
            assert_eq!(loaded.train.items_of(u), original.train.items_of(u), "user {u} train");
            assert_eq!(loaded.test.items_of(u), original.test.items_of(u), "user {u} test");
        }
        assert_eq!(loaded.relations.counts(), original.relations.counts());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_forward_parent_reference() {
        let dir = tmp_dir("badparent");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("taxonomy.tsv"), "child\t5\n").unwrap();
        fs::write(dir.join("item_tags.tsv"), "0\n").unwrap();
        fs::write(dir.join("interactions.tsv"), "0\t0\t0\n").unwrap();
        let err = load_dataset(&dir, "x", ExclusionRule::AllSiblings).unwrap_err();
        assert!(matches!(err, LoadError::Parse { file: "taxonomy.tsv", .. }), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_out_of_range_ids() {
        let dir = tmp_dir("badrange");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("taxonomy.tsv"), "root\t-1\n").unwrap();
        fs::write(dir.join("item_tags.tsv"), "0\n").unwrap();
        fs::write(dir.join("interactions.tsv"), "0\t9\t0\n").unwrap();
        let err = load_dataset(&dir, "x", ExclusionRule::AllSiblings).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_rejects_missing_tag_name() {
        let dir = tmp_dir("noname");
        fs::create_dir_all(&dir).unwrap();
        // A tag line with an empty name column must be a parse error, not a
        // silently-accepted anonymous tag.
        fs::write(dir.join("taxonomy.tsv"), "root\t-1\n\t0\n").unwrap();
        fs::write(dir.join("item_tags.tsv"), "0\n").unwrap();
        fs::write(dir.join("interactions.tsv"), "0\t0\t0\n").unwrap();
        let err = load_dataset(&dir, "x", ExclusionRule::AllSiblings).unwrap_err();
        assert!(
            matches!(
                &err,
                LoadError::Parse { file: "taxonomy.tsv", line: 1, message } if message.contains("name")
            ),
            "{err}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_dataset_leaves_no_temp_files() {
        let original = DatasetSpec::ciao(Scale::Tiny).generate(8);
        let dir = tmp_dir("atomic");
        save_dataset(&original, &dir).expect("save");
        for entry in fs::read_dir(&dir).unwrap() {
            let name = entry.unwrap().file_name();
            assert!(
                !name.to_string_lossy().ends_with(".tmp"),
                "temp file left behind: {name:?}"
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn atomic_write_to_invalid_path_cleans_up() {
        let err = atomic_write(Path::new("/"), b"x");
        assert!(err.is_err());
    }

    #[test]
    fn load_reports_malformed_lines_with_location() {
        let dir = tmp_dir("badline");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("taxonomy.tsv"), "root\t-1\n").unwrap();
        fs::write(dir.join("item_tags.tsv"), "0\n").unwrap();
        fs::write(dir.join("interactions.tsv"), "0\tnot-a-number\t0\n").unwrap();
        let err = load_dataset(&dir, "x", ExclusionRule::AllSiblings).unwrap_err();
        assert!(err.to_string().contains("interactions.tsv:1"), "{err}");
        let _ = fs::remove_dir_all(&dir);
    }
}
