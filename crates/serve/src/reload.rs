//! Hot-swap model reload with validation and rollback.
//!
//! A [`Reloader`] watches one path (a model file or a training checkpoint:
//! both are checkpoints, read by [`load_model`]) and, when it changes,
//! builds a **candidate** [`ModelSnapshot`] off the request path: the
//! checkpoint decoder's checks (magic, version, length, CRC, table widths
//! and finiteness), the dataset shape check, propagation, and the canary
//! probe. Only a candidate that passes everything is swapped into the
//! [`SnapshotStore`]; any failure returns [`ReloadOutcome::Rejected`] and
//! the server keeps serving the last-good snapshot — a torn or corrupt
//! file can never become live.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

use logirec_core::io::load_model;

use crate::snapshot::{ModelSnapshot, ServeContext, SnapshotStore};

/// What one reload check did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReloadOutcome {
    /// A validated candidate went live with this version.
    Swapped {
        /// Version the store assigned to the new snapshot.
        version: u64,
    },
    /// The candidate failed validation; the last-good snapshot stays live.
    Rejected {
        /// Why the candidate was refused.
        reason: String,
    },
    /// Nothing to do: the watched file is absent or unchanged.
    Unchanged,
}

/// Watches one file and turns changes into validated snapshot swaps.
#[derive(Debug)]
pub struct Reloader {
    path: PathBuf,
    /// Signature (mtime, length) of the last version attempted.
    last: Option<(Option<SystemTime>, u64)>,
}

impl Reloader {
    /// Watches `path` (which need not exist yet).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into(), last: None }
    }

    /// The watched path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records the file's current signature as already-loaded, so the next
    /// unforced [`Self::attempt`] only fires on a subsequent write. Used
    /// when the watched path is the very file the initial snapshot came
    /// from.
    pub fn mark_current(&mut self) {
        if let Ok(meta) = fs::metadata(&self.path) {
            self.last = Some((meta.modified().ok(), meta.len()));
        }
    }

    /// One reload check. Unforced checks are change-driven (mtime + length
    /// signature); `force` always attempts a load. Every attempted load is
    /// fully validated before the swap; a failed candidate leaves the
    /// store untouched.
    pub fn attempt(
        &mut self,
        force: bool,
        ctx: &Arc<ServeContext>,
        store: &SnapshotStore,
    ) -> ReloadOutcome {
        let meta = match fs::metadata(&self.path) {
            Ok(m) => m,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return ReloadOutcome::Unchanged,
            Err(e) => {
                return ReloadOutcome::Rejected {
                    reason: format!("cannot stat {}: {e}", self.path.display()),
                }
            }
        };
        let sig = (meta.modified().ok(), meta.len());
        if !force && self.last.as_ref() == Some(&sig) {
            return ReloadOutcome::Unchanged;
        }
        // Record the attempt up front: a rejected file is not retried until
        // it changes again (or a forced reload asks for it).
        self.last = Some(sig);

        let current = store.get();
        let base_cfg = current.config().clone();
        let precision = current.precision();
        // Rebuild the retrieval index (when serving one) with the same
        // knobs as the live snapshot, inside the candidate's validation:
        // model and index swap as one unit, and a failure anywhere in the
        // build rolls both back.
        let index_cfg = current.index_config();
        let model = match load_model(&self.path, base_cfg) {
            Ok(m) => m,
            Err(reason) => return ReloadOutcome::Rejected { reason },
        };
        match ModelSnapshot::build_with_index(
            model,
            precision,
            ctx,
            self.path.display().to_string(),
            index_cfg,
        ) {
            Err(reason) => ReloadOutcome::Rejected { reason },
            Ok(snap) => ReloadOutcome::Swapped { version: store.swap(snap) },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_core::checkpoint;
    use logirec_core::config::Precision;
    use logirec_core::io::save_model;
    use logirec_core::{LogiRec, LogiRecConfig};
    use logirec_data::{DatasetSpec, Scale};

    fn fixture() -> (logirec_data::Dataset, Arc<ServeContext>, SnapshotStore) {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(21);
        let ctx = Arc::new(ServeContext::from_dataset(&ds));
        let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
        let snap = ModelSnapshot::build(model, Precision::F64, &ctx, "initial").expect("valid");
        let store = SnapshotStore::new(snap);
        (ds, ctx, store)
    }

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("logirec-serve-{}-{name}", std::process::id()))
    }

    #[test]
    fn absent_file_is_unchanged_and_garbage_is_rejected() {
        let (_, ctx, store) = fixture();
        let path = temp_path("absent.logirec");
        let _ = fs::remove_file(&path);
        let mut r = Reloader::new(&path);
        assert_eq!(r.attempt(false, &ctx, &store), ReloadOutcome::Unchanged);

        fs::write(&path, b"definitely not a model file").expect("write");
        match r.attempt(false, &ctx, &store) {
            ReloadOutcome::Rejected { reason } => {
                assert!(reason.contains("not a LogiRec model or checkpoint file"), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        // Unchanged garbage is not retried...
        assert_eq!(r.attempt(false, &ctx, &store), ReloadOutcome::Unchanged);
        // ...but a forced check attempts (and rejects) it again.
        assert!(matches!(r.attempt(true, &ctx, &store), ReloadOutcome::Rejected { .. }));
        assert_eq!(store.get().version(), 1, "garbage never went live");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn valid_model_file_swaps_and_truncated_one_rolls_back() {
        let (ds, ctx, store) = fixture();
        let path = temp_path("reload.logirec");
        let model = LogiRec::new(LogiRecConfig { seed: 77, ..LogiRecConfig::test_config() }, &ds);
        save_model(&model, &path).expect("save");
        let mut r = Reloader::new(&path);
        match r.attempt(false, &ctx, &store) {
            ReloadOutcome::Swapped { version } => assert_eq!(version, 2),
            other => panic!("expected swap, got {other:?}"),
        }
        assert_eq!(store.get().version(), 2);

        // Tear the file (simulated kill mid-write) and force a reload: the
        // torn bytes must be rejected and version 2 stays live.
        let bytes = fs::read(&path).expect("read");
        fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate");
        match r.attempt(true, &ctx, &store) {
            ReloadOutcome::Rejected { reason } => {
                assert!(reason.contains(&path.display().to_string()), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(store.get().version(), 2, "torn file never went live");
        let _ = fs::remove_file(&path);
    }

    /// One flipped mantissa bit keeps every parameter finite and the file
    /// its length; only the CRC sees it. The candidate must be rejected and
    /// the live version must not move.
    #[test]
    fn a_flipped_parameter_bit_in_a_model_file_is_rejected() {
        let (ds, ctx, store) = fixture();
        let path = temp_path("bitflip.logirec");
        let model = LogiRec::new(LogiRecConfig { seed: 78, ..LogiRecConfig::test_config() }, &ds);
        save_model(&model, &path).expect("save");
        let mut r = Reloader::new(&path);
        assert_eq!(r.attempt(false, &ctx, &store), ReloadOutcome::Swapped { version: 2 });

        // The last byte is the precision tag; the 8 before it hold the last
        // user parameter. Flip its lowest mantissa bit.
        let mut bytes = fs::read(&path).expect("read");
        let last_param = bytes.len() - 9;
        bytes[last_param] ^= 1;
        fs::write(&path, &bytes).expect("write corrupted");
        match r.attempt(true, &ctx, &store) {
            ReloadOutcome::Rejected { reason } => {
                assert!(reason.contains("CRC mismatch"), "{reason}");
                assert!(reason.contains(&path.display().to_string()), "{reason}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert_eq!(store.get().version(), 2, "the corrupt model never went live");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn training_checkpoints_swap_in_and_a_crc_failure_rolls_back() {
        let (ds, ctx, store) = fixture();
        let path = temp_path("reload.ckpt");
        let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
        let cfg = &model.cfg;
        let ck = checkpoint::Checkpoint {
            geometry: cfg.geometry,
            dim: cfg.dim,
            layers: cfg.layers,
            precision: Precision::F64,
            epoch: 3,
            rng_state: 42,
            lr_scale: 1.0,
            bad_rounds: 0,
            history: Vec::new(),
            recoveries: Vec::new(),
            alpha: None,
            best: Some(checkpoint::BestSnapshot {
                recall: 0.5,
                tags: model.tags.clone(),
                items: model.items.clone(),
                users: model.users.clone(),
            }),
            tags: model.tags.clone(),
            items: model.items.clone(),
            users: model.users.clone(),
        };
        checkpoint::save(&ck, &path).expect("save checkpoint");
        let mut r = Reloader::new(&path);
        assert!(matches!(r.attempt(false, &ctx, &store), ReloadOutcome::Swapped { version: 2 }));

        // A bit flip in the payload breaks the CRC: the reloader must
        // reject it.
        let mut bytes = fs::read(&path).expect("read");
        *bytes.last_mut().expect("non-empty") ^= 0x01;
        fs::write(&path, &bytes).expect("write corrupted");
        assert!(matches!(r.attempt(true, &ctx, &store), ReloadOutcome::Rejected { .. }));
        assert_eq!(store.get().version(), 2);
        let _ = fs::remove_file(&path);
    }
}
