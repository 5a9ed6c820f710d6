//! Model files. A model file is a [`crate::checkpoint`]: [`save_model`]
//! writes the model's three parameter tables as a checkpoint at epoch 0,
//! and [`load_model`] reads any checkpoint, a saved model or a training
//! run's, through the same CRC-checked decoder. A torn or bit-flipped
//! model file is therefore refused, never loaded.

use std::fs;
use std::io::Read;
use std::path::Path;

use crate::checkpoint::{self, Checkpoint, CheckpointError};
use crate::config::LogiRecConfig;
use crate::model::LogiRec;

/// Magic of the model format that preceded checkpoint-format model files;
/// recognised only to tell the user to re-save the model.
const OLD_MODEL_MAGIC: &[u8; 8] = b"LOGIREC1";

/// Saves `model`'s parameter tables as a checkpoint at epoch 0, returning
/// the number of bytes written. The write is atomic and durable
/// ([`logirec_data::atomic_write`]): a crash never leaves a half-written
/// model behind. Passed to `resume_from`, the file starts training at
/// epoch 0 from these tables.
///
/// The forward state is not saved; call [`LogiRec::propagate`] against the
/// training graph after loading to score users.
pub fn save_model(model: &LogiRec, path: &Path) -> Result<u64, CheckpointError> {
    checkpoint::save(&Checkpoint::of_model(model, 0), path)
}

/// Loads the model a checkpoint file serves: its best-validation tables
/// when it carries them (what training restores at the end), else its
/// current tables. The file's `dim`, `layers`, `geometry` and `precision`
/// override `base_cfg`; every other knob (learning rate, threads,
/// telemetry) comes from `base_cfg`.
///
/// Every error names the file (`<path>: corrupt checkpoint: CRC mismatch …`),
/// so a bad model surfaced during a serving reload is immediately
/// actionable.
pub fn load_model(path: &Path, base_cfg: LogiRecConfig) -> Result<LogiRec, String> {
    let ck = checkpoint::load(path).map_err(|e| match e {
        CheckpointError::BadMagic if has_old_magic(path) => format!(
            "{}: a LOGIREC1 model file, a format this build no longer reads; \
             re-save the model (`logirec train --model`) to write a checkpoint-format file",
            path.display()
        ),
        e => format!("{}: {e}", path.display()),
    })?;
    let cfg = LogiRecConfig {
        dim: ck.dim,
        layers: ck.layers,
        geometry: ck.geometry,
        precision: ck.precision,
        ..base_cfg
    };
    let (tags, items, users) = match ck.best {
        Some(best) => (best.tags, best.items, best.users),
        None => (ck.tags, ck.items, ck.users),
    };
    Ok(LogiRec::from_parts(cfg, tags, items, users))
}

fn has_old_magic(path: &Path) -> bool {
    let mut magic = [0u8; 8];
    fs::File::open(path).and_then(|mut f| f.read_exact(&mut magic)).is_ok()
        && &magic == OLD_MODEL_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::BestSnapshot;
    use crate::config::Geometry;
    use crate::trainer::train;
    use logirec_data::{DatasetSpec, Scale, Split};
    use logirec_eval::evaluate;
    use logirec_linalg::Embedding;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("logirec-model-{name}-{}", std::process::id()))
    }

    #[test]
    fn round_trip_preserves_rankings() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(3);
        let cfg = LogiRecConfig { epochs: 4, eval_every: 0, ..LogiRecConfig::test_config() };
        let (model, _) = train(cfg.clone(), &ds);
        let path = tmp("roundtrip");
        save_model(&model, &path).expect("save");

        let mut loaded = load_model(&path, cfg).expect("load");
        loaded.propagate(&ds.train);
        let a = evaluate(&model, &ds, Split::Test, &[10], 2);
        let b = evaluate(&loaded, &ds, Split::Test, &[10], 2);
        assert_eq!(a.recall_at(10), b.recall_at(10));
        assert_eq!(a.per_user_recall, b.per_user_recall);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn round_trip_is_bit_exact_in_both_geometries() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(9);
        for geometry in [Geometry::Hyperbolic, Geometry::Euclidean] {
            let cfg = LogiRecConfig { geometry, layers: 3, ..LogiRecConfig::test_config() };
            let model = LogiRec::new(cfg, &ds);
            let path = tmp(&format!("bits-{geometry:?}"));
            save_model(&model, &path).expect("save");
            // The file's layout wins over a mismatched base config.
            let base = LogiRecConfig { dim: 99, layers: 0, ..LogiRecConfig::test_config() };
            let loaded = load_model(&path, base).expect("load");
            assert_eq!(loaded.cfg.geometry, geometry);
            assert_eq!((loaded.cfg.dim, loaded.cfg.layers), (model.cfg.dim, 3));
            let bits = |t: &Embedding| t.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for (name, a, b) in [
                ("tags", &loaded.tags, &model.tags),
                ("items", &loaded.items, &model.items),
                ("users", &loaded.users, &model.users),
            ] {
                assert_eq!((a.rows(), a.dim()), (b.rows(), b.dim()), "{geometry:?} {name}");
                assert!(bits(a) == bits(b), "{geometry:?} {name} table changed");
            }
            let _ = fs::remove_file(&path);
        }
    }

    #[test]
    fn a_training_checkpoint_loads_its_best_tables() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(10);
        let cfg = LogiRecConfig::test_config();
        let best = LogiRec::new(LogiRecConfig { seed: 1, ..cfg.clone() }, &ds);
        let current = LogiRec::new(LogiRecConfig { seed: 2, ..cfg.clone() }, &ds);
        let path = tmp("best");
        let mut ck = Checkpoint::of_model(&current, 42);
        ck.epoch = 3;
        checkpoint::save(&ck, &path).expect("save");
        assert_eq!(load_model(&path, cfg.clone()).expect("load").users, current.users);

        ck.best = Some(BestSnapshot {
            recall: 0.5,
            tags: best.tags.clone(),
            items: best.items.clone(),
            users: best.users.clone(),
        });
        checkpoint::save(&ck, &path).expect("save");
        let loaded = load_model(&path, cfg).expect("load");
        assert_eq!(loaded.tags, best.tags);
        assert_eq!(loaded.items, best.items);
        assert_eq!(loaded.users, best.users);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_wrong_magic_and_the_old_format() {
        let path = tmp("magic");
        fs::write(&path, b"NOTAMODELxxxxxxxxxxxxxxxx").unwrap();
        let err = load_model(&path, LogiRecConfig::test_config()).unwrap_err();
        assert!(err.contains("not a LogiRec model or checkpoint file"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");

        let mut old = OLD_MODEL_MAGIC.to_vec();
        old.extend_from_slice(&[0u8; 64]);
        fs::write(&path, &old).unwrap();
        let err = load_model(&path, LogiRecConfig::test_config()).unwrap_err();
        assert!(err.contains("LOGIREC1") && err.contains("re-save"), "{err}");
        assert!(err.contains(&path.display().to_string()), "{err}");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_truncation_and_trailing_garbage() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(4);
        let cfg = LogiRecConfig::test_config();
        let path = tmp("truncated");
        save_model(&LogiRec::new(cfg.clone(), &ds), &path).expect("save");
        let bytes = fs::read(&path).unwrap();
        let mut garbage = bytes.clone();
        garbage.extend_from_slice(&[0u8; 16]);
        for torn in [&bytes[..12], &bytes[..bytes.len() / 2], &garbage[..]] {
            fs::write(&path, torn).unwrap();
            let err = load_model(&path, cfg.clone()).unwrap_err();
            assert!(err.contains("corrupt checkpoint"), "{err}");
        }
        let _ = fs::remove_file(&path);
    }

    /// One flipped mantissa bit in a parameter is a silent corruption a
    /// length or finiteness check cannot see; the CRC must refuse it, and
    /// the error must name the file.
    #[test]
    fn a_flipped_parameter_bit_fails_the_crc_and_names_the_path() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(6);
        let cfg = LogiRecConfig::test_config();
        let path = tmp("bitflip");
        save_model(&LogiRec::new(cfg.clone(), &ds), &path).expect("save");
        let mut bytes = fs::read(&path).unwrap();
        // The last byte is the precision tag; the 8 before it are the last
        // user parameter. Flip its lowest mantissa bit.
        let last_param = bytes.len() - 9;
        bytes[last_param] ^= 1;
        fs::write(&path, &bytes).unwrap();
        let err = load_model(&path, cfg.clone()).unwrap_err();
        assert!(err.contains("CRC mismatch"), "{err}");
        assert!(err.starts_with(&path.display().to_string()), "{err}");

        // A missing file names the path too.
        let _ = fs::remove_file(&path);
        let err = load_model(&path, cfg).unwrap_err();
        assert!(err.starts_with(&path.display().to_string()), "{err}");
    }

    #[test]
    fn save_model_is_atomic_and_leaves_no_temp_file() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(7);
        let cfg = LogiRecConfig { epochs: 1, eval_every: 0, ..LogiRecConfig::test_config() };
        let (model, _) = train(cfg.clone(), &ds);
        let path = tmp("atomic");
        save_model(&model, &path).expect("first save");
        let first = fs::read(&path).unwrap();
        save_model(&model, &path).expect("overwrite save");
        assert_eq!(fs::read(&path).unwrap(), first, "deterministic rewrite");
        let mut name = path.file_name().unwrap().to_os_string();
        name.push(".tmp");
        assert!(!path.with_file_name(name).exists(), "temp file left behind");
        let _ = fs::remove_file(&path);
    }
}
