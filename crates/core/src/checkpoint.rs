//! Durable training checkpoints, which are also the model file format.
//!
//! A checkpoint captures everything the trainer needs to continue a run
//! bit-identically after a crash: the three parameter tables plus the
//! optimizer/trainer state (completed-epoch count, RNG state, LR backoff
//! scale, best-validation snapshot, bad-round counter, mining weights,
//! epoch history, and recovery log). A model file
//! ([`crate::io::save_model`]) is a checkpoint at epoch 0 with no trainer
//! state, so every parameter file is read by one CRC-checked decoder.
//!
//! ## On-disk format (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       8     magic  b"LOGICKP1"
//! 8       4     format version (u32, currently 2)
//! 12      8     payload length in bytes (u64)
//! 20      4     CRC-32 (IEEE 802.3) of the payload (u32)
//! 24      n     payload (versioned binary serialization of [`Checkpoint`])
//! ```
//!
//! Version 2 appends a single precision byte (0 = `f64`, 1 = `f32`) at the
//! **end** of the version-1 payload, recording which [`Precision`] the run
//! trained in. Version-1 files (always double precision) still load and
//! decode as [`Precision::F64`].
//!
//! Writes go through [`logirec_data::atomic_write`] (`.tmp` sibling, fsync,
//! rename, directory sync), so a crash at any point leaves either the
//! previous file or the new one — never a torn file. Loads verify magic,
//! version, length, and CRC before any field is parsed, then check that
//! every table is finite and as wide as the header says, so truncation and
//! bit corruption surface as [`CheckpointError::Corrupt`] instead of
//! garbage state.

use std::fs;
use std::io;
use std::path::Path;

use logirec_linalg::{Embedding, Scalar};

use crate::config::{Geometry, LogiRecConfig, Precision};
use crate::model::LogiRec;
use crate::trainer::{EpochStats, Recovery, RecoveryAction};

/// File magic for checkpoint files.
pub const MAGIC: &[u8; 8] = b"LOGICKP1";
/// Current checkpoint format version. Version 2 added the trailing
/// precision byte; version 1 files load as [`Precision::F64`].
pub const VERSION: u32 = 2;
/// Refuse to allocate for payloads beyond this size (defense against
/// corrupted length headers).
const MAX_PAYLOAD: u64 = 1 << 38;

/// Errors from checkpoint save/load.
#[derive(Debug)]
pub enum CheckpointError {
    /// Filesystem error.
    Io(io::Error),
    /// Not a checkpoint file.
    BadMagic,
    /// A checkpoint from an unknown (newer) format version.
    BadVersion(u32),
    /// Structurally invalid contents: bad length, CRC mismatch, or a field
    /// that fails validation.
    Corrupt(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "io error: {e}"),
            CheckpointError::BadMagic => write!(f, "not a LogiRec model or checkpoint file"),
            CheckpointError::BadVersion(v) => {
                write!(f, "unsupported checkpoint version {v} (supported: 1..={VERSION})")
            }
            CheckpointError::Corrupt(m) => write!(f, "corrupt checkpoint: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// The best-validation snapshot carried inside a checkpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct BestSnapshot {
    /// Validation Recall@10 of the snapshot.
    pub recall: f64,
    /// Tag hyperplane centers at the best epoch.
    pub tags: Embedding,
    /// Item embeddings at the best epoch.
    pub items: Embedding,
    /// User embeddings at the best epoch.
    pub users: Embedding,
}

/// A complete, resumable view of an in-progress training run.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Geometry the run trains in (validated against the resuming config).
    pub geometry: Geometry,
    /// Embedding dimension `d` (validated against the resuming config).
    pub dim: usize,
    /// GCN layer count (validated against the resuming config).
    pub layers: usize,
    /// Working precision the run trains in (validated against the resuming
    /// config; version-1 checkpoints decode as [`Precision::F64`]).
    pub precision: Precision,
    /// Completed epochs; training resumes at this epoch index.
    pub epoch: usize,
    /// Raw state of the trainer's master RNG at the end of `epoch`.
    pub rng_state: u64,
    /// Divergence-recovery LR backoff factor (1.0 until a rollback occurs).
    pub lr_scale: f64,
    /// Early-stopping bad-round counter.
    pub bad_rounds: usize,
    /// Per-epoch statistics so far.
    pub history: Vec<EpochStats>,
    /// Recoveries performed so far.
    pub recoveries: Vec<Recovery>,
    /// Current LogiRec++ mining weights, when computed.
    pub alpha: Option<Vec<f64>>,
    /// Best validation snapshot, when one exists.
    pub best: Option<BestSnapshot>,
    /// Current tag hyperplane centers.
    pub tags: Embedding,
    /// Current item embeddings.
    pub items: Embedding,
    /// Current user embeddings.
    pub users: Embedding,
}

impl Checkpoint {
    /// A checkpoint of `model`'s parameter tables at the start of a run:
    /// epoch 0, the RNG at `rng_state`, no LR backoff, no history. The
    /// trainer overrides the progress fields; compaction writes it as is.
    pub(crate) fn of_model<S: Scalar>(model: &LogiRec<S>, rng_state: u64) -> Self {
        Self {
            geometry: model.cfg.geometry,
            dim: model.cfg.dim,
            layers: model.cfg.layers,
            precision: model.cfg.precision,
            epoch: 0,
            rng_state,
            lr_scale: 1.0,
            bad_rounds: 0,
            history: Vec::new(),
            recoveries: Vec::new(),
            alpha: None,
            best: None,
            tags: model.tags.cast(),
            items: model.items.cast(),
            users: model.users.cast(),
        }
    }

    /// Errors unless the checkpoint's geometry, dim and layer count match
    /// `cfg` (its tables could not be installed into such a model).
    pub(crate) fn check_layout(&self, cfg: &LogiRecConfig) -> Result<(), String> {
        if self.geometry != cfg.geometry || self.dim != cfg.dim || self.layers != cfg.layers {
            return Err(format!(
                "checkpoint geometry/dim/layers ({:?}/{}/{}) do not match the config \
                 ({:?}/{}/{})",
                self.geometry, self.dim, self.layers, cfg.geometry, cfg.dim, cfg.layers
            ));
        }
        Ok(())
    }
}

/// Serializes `ck` and writes it to `path` atomically and durably
/// ([`logirec_data::atomic_write`]). Returns the number of bytes written.
pub fn save(ck: &Checkpoint, path: &Path) -> Result<u64, CheckpointError> {
    let payload = encode_payload(ck);
    let mut bytes = Vec::with_capacity(24 + payload.len());
    bytes.extend_from_slice(MAGIC);
    bytes.extend_from_slice(&VERSION.to_le_bytes());
    bytes.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    logirec_data::atomic_write(path, &bytes)?;
    Ok(bytes.len() as u64)
}

/// Loads and fully validates a checkpoint written by [`save`].
pub fn load(path: &Path) -> Result<Checkpoint, CheckpointError> {
    let bytes = fs::read(path)?;
    if bytes.len() < 24 {
        return Err(CheckpointError::Corrupt(format!(
            "file too short for a header ({} bytes)",
            bytes.len()
        )));
    }
    if &bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if !(1..=VERSION).contains(&version) {
        return Err(CheckpointError::BadVersion(version));
    }
    let payload_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
    if payload_len > MAX_PAYLOAD {
        return Err(CheckpointError::Corrupt(format!(
            "implausible payload length {payload_len}"
        )));
    }
    let payload = &bytes[24..];
    if payload.len() as u64 != payload_len {
        return Err(CheckpointError::Corrupt(format!(
            "payload length {} does not match header ({payload_len}); file truncated \
             or trailing garbage",
            payload.len()
        )));
    }
    let crc_stored = u32::from_le_bytes(bytes[20..24].try_into().expect("4 bytes"));
    let crc_actual = crc32(payload);
    if crc_stored != crc_actual {
        return Err(CheckpointError::Corrupt(format!(
            "CRC mismatch (stored {crc_stored:#010x}, computed {crc_actual:#010x})"
        )));
    }
    decode_payload(payload, version)
}

// ---------------------------------------------------------------------------
// Payload serialization
// ---------------------------------------------------------------------------

fn encode_payload(ck: &Checkpoint) -> Vec<u8> {
    let mut w = Vec::new();
    w.push(match ck.geometry {
        Geometry::Hyperbolic => 0u8,
        Geometry::Euclidean => 1u8,
    });
    put_u64(&mut w, ck.dim as u64);
    put_u64(&mut w, ck.layers as u64);
    put_u64(&mut w, ck.epoch as u64);
    put_u64(&mut w, ck.rng_state);
    put_f64(&mut w, ck.lr_scale);
    put_u64(&mut w, ck.bad_rounds as u64);

    put_u64(&mut w, ck.history.len() as u64);
    for h in &ck.history {
        put_u64(&mut w, h.epoch as u64);
        put_f64(&mut w, h.rank_loss);
        put_f64(&mut w, h.logic_loss);
        put_opt_f64(&mut w, h.val_recall10);
    }

    put_u64(&mut w, ck.recoveries.len() as u64);
    for r in &ck.recoveries {
        put_u64(&mut w, r.epoch as u64);
        put_str(&mut w, &r.reason);
        match r.action {
            RecoveryAction::SkippedSteps { steps } => {
                w.push(0);
                put_u64(&mut w, steps as u64);
            }
            RecoveryAction::RolledBack { lr_scale } => {
                w.push(1);
                put_f64(&mut w, lr_scale);
            }
            RecoveryAction::RestartedFresh => w.push(2),
            RecoveryAction::Aborted => w.push(3),
        }
    }

    match &ck.alpha {
        None => w.push(0),
        Some(a) => {
            w.push(1);
            put_u64(&mut w, a.len() as u64);
            for &x in a {
                put_f64(&mut w, x);
            }
        }
    }

    match &ck.best {
        None => w.push(0),
        Some(b) => {
            w.push(1);
            put_f64(&mut w, b.recall);
            put_embedding(&mut w, &b.tags);
            put_embedding(&mut w, &b.items);
            put_embedding(&mut w, &b.users);
        }
    }

    put_embedding(&mut w, &ck.tags);
    put_embedding(&mut w, &ck.items);
    put_embedding(&mut w, &ck.users);
    // Version 2: the precision byte rides at the very end so the v1 prefix
    // stays byte-identical and old fields keep their offsets.
    w.push(match ck.precision {
        Precision::F64 => 0u8,
        Precision::F32 => 1u8,
    });
    w
}

fn decode_payload(bytes: &[u8], version: u32) -> Result<Checkpoint, CheckpointError> {
    let mut r = Reader { bytes, pos: 0 };
    let geometry = match r.u8()? {
        0 => Geometry::Hyperbolic,
        1 => Geometry::Euclidean,
        g => return Err(corrupt(format!("unknown geometry tag {g}"))),
    };
    let dim = r.usize_field("dim")?;
    let layers = r.usize_field("layers")?;
    let epoch = r.usize_field("epoch")?;
    let rng_state = r.u64()?;
    let lr_scale = r.f64()?;
    if !(lr_scale.is_finite() && lr_scale > 0.0) {
        return Err(corrupt(format!("invalid lr_scale {lr_scale}")));
    }
    let bad_rounds = r.usize_field("bad_rounds")?;

    let n_history = r.len_field("history length")?;
    let mut history = Vec::with_capacity(n_history);
    for _ in 0..n_history {
        history.push(EpochStats {
            epoch: r.usize_field("history epoch")?,
            rank_loss: r.f64()?,
            logic_loss: r.f64()?,
            val_recall10: r.opt_f64()?,
        });
    }

    let n_recoveries = r.len_field("recovery count")?;
    let mut recoveries = Vec::with_capacity(n_recoveries);
    for _ in 0..n_recoveries {
        let epoch = r.usize_field("recovery epoch")?;
        let reason = r.string()?;
        let action = match r.u8()? {
            0 => RecoveryAction::SkippedSteps { steps: r.usize_field("skipped steps")? },
            1 => RecoveryAction::RolledBack { lr_scale: r.f64()? },
            2 => RecoveryAction::RestartedFresh,
            3 => RecoveryAction::Aborted,
            t => return Err(corrupt(format!("unknown recovery action tag {t}"))),
        };
        recoveries.push(Recovery { epoch, reason, action });
    }

    let alpha = match r.u8()? {
        0 => None,
        1 => {
            let n = r.len_field("alpha length")?;
            let mut a = Vec::with_capacity(n);
            for _ in 0..n {
                a.push(r.f64()?);
            }
            Some(a)
        }
        t => return Err(corrupt(format!("unknown alpha tag {t}"))),
    };

    let best = match r.u8()? {
        0 => None,
        1 => Some(BestSnapshot {
            recall: r.f64()?,
            tags: r.embedding()?,
            items: r.embedding()?,
            users: r.embedding()?,
        }),
        t => return Err(corrupt(format!("unknown best-snapshot tag {t}"))),
    };

    let tags = r.embedding()?;
    let items = r.embedding()?;
    let users = r.embedding()?;
    let precision = if version >= 2 {
        match r.u8()? {
            0 => Precision::F64,
            1 => Precision::F32,
            t => return Err(corrupt(format!("unknown precision tag {t}"))),
        }
    } else {
        Precision::F64
    };
    if r.pos != bytes.len() {
        return Err(corrupt(format!(
            "{} unparsed trailing bytes in payload",
            bytes.len() - r.pos
        )));
    }
    // Every table, the best snapshot's too, must be finite and as wide as
    // the header's geometry and dim say, so a decoded checkpoint can always
    // be installed into a model of that layout.
    let user_dim = match geometry {
        Geometry::Hyperbolic => dim + 1,
        Geometry::Euclidean => dim,
    };
    let current = [("tags", &tags, dim), ("items", &items, dim), ("users", &users, user_dim)];
    let best_tables = best.iter().flat_map(|b| {
        [
            ("best tags", &b.tags, dim),
            ("best items", &b.items, dim),
            ("best users", &b.users, user_dim),
        ]
    });
    for (name, table, width) in current.into_iter().chain(best_tables) {
        if !table.all_finite() {
            return Err(corrupt(format!("non-finite parameter in {name} table")));
        }
        if table.dim() != width {
            return Err(corrupt(format!(
                "{name} table is {} wide, but the header ({geometry:?}, d={dim}) implies {width}",
                table.dim()
            )));
        }
    }
    Ok(Checkpoint {
        geometry,
        dim,
        layers,
        precision,
        epoch,
        rng_state,
        lr_scale,
        bad_rounds,
        history,
        recoveries,
        alpha,
        best,
        tags,
        items,
        users,
    })
}

fn put_u64(w: &mut Vec<u8>, v: u64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(w: &mut Vec<u8>, v: f64) {
    w.extend_from_slice(&v.to_le_bytes());
}

fn put_opt_f64(w: &mut Vec<u8>, v: Option<f64>) {
    match v {
        None => w.push(0),
        Some(x) => {
            w.push(1);
            put_f64(w, x);
        }
    }
}

fn put_str(w: &mut Vec<u8>, s: &str) {
    put_u64(w, s.len() as u64);
    w.extend_from_slice(s.as_bytes());
}

fn put_embedding(w: &mut Vec<u8>, m: &Embedding) {
    put_u64(w, m.rows() as u64);
    put_u64(w, m.dim() as u64);
    for &x in m.as_slice() {
        put_f64(w, x);
    }
}

fn corrupt(msg: String) -> CheckpointError {
    CheckpointError::Corrupt(msg)
}

/// Bounds-checked little-endian cursor over the payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], CheckpointError> {
        if self.bytes.len() - self.pos < n {
            return Err(corrupt(format!(
                "payload truncated at offset {} (wanted {n} more bytes)",
                self.pos
            )));
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, CheckpointError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, CheckpointError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, CheckpointError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    fn opt_f64(&mut self) -> Result<Option<f64>, CheckpointError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.f64()?)),
            t => Err(corrupt(format!("unknown option tag {t}"))),
        }
    }

    /// A u64 that must fit in usize (field values like epochs/counters).
    fn usize_field(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| corrupt(format!("{what} {v} does not fit in usize")))
    }

    /// A collection length; additionally bounded by the remaining payload
    /// so corrupted lengths cannot trigger enormous allocations.
    fn len_field(&mut self, what: &str) -> Result<usize, CheckpointError> {
        let v = self.usize_field(what)?;
        if v > self.bytes.len() - self.pos {
            return Err(corrupt(format!(
                "{what} {v} exceeds the remaining payload ({} bytes)",
                self.bytes.len() - self.pos
            )));
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, CheckpointError> {
        let n = self.len_field("string length")?;
        let s = self.take(n)?;
        String::from_utf8(s.to_vec()).map_err(|_| corrupt("invalid UTF-8 string".into()))
    }

    fn embedding(&mut self) -> Result<Embedding, CheckpointError> {
        let rows = self.usize_field("table rows")?;
        let dim = self.usize_field("table dim")?;
        let n = rows
            .checked_mul(dim)
            .and_then(|n| n.checked_mul(8))
            .ok_or_else(|| corrupt(format!("table shape {rows}×{dim} overflows")))?;
        if n > self.bytes.len() - self.pos {
            return Err(corrupt(format!(
                "table shape {rows}×{dim} exceeds the remaining payload"
            )));
        }
        let bytes = self.take(n)?;
        let mut m = Embedding::zeros(rows, dim);
        for (x, b) in m.as_mut_slice().iter_mut().zip(bytes.chunks_exact(8)) {
            *x = f64::from_le_bytes(b.try_into().expect("8 bytes"));
        }
        Ok(m)
    }
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected), slice-by-8
// ---------------------------------------------------------------------------

/// Slice-by-8 tables. `CRC_TABLES[0]` is the classic byte table;
/// `CRC_TABLES[k][b]` advances the CRC of byte `b` over `k` more zero
/// bytes, so eight table lookups consume eight input bytes at once.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

/// CRC-32 (IEEE) of `bytes`, as used in the checkpoint header.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_linalg::SplitMix64;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("logirec-ckpt-{name}-{}", std::process::id()))
    }

    fn sample_checkpoint() -> Checkpoint {
        let mut rng = SplitMix64::new(7);
        // Step the RNG mid-stream so the saved state is not a fresh seed.
        for _ in 0..23 {
            rng.next_u64();
        }
        let tags = Embedding::normal(3, 4, 0.1, &mut rng);
        let items = Embedding::normal(5, 4, 0.1, &mut rng);
        let users = Embedding::normal(6, 5, 0.1, &mut rng);
        Checkpoint {
            geometry: Geometry::Hyperbolic,
            dim: 4,
            layers: 2,
            precision: Precision::F64,
            epoch: 11,
            rng_state: rng.state(),
            lr_scale: 0.25,
            bad_rounds: 1,
            history: vec![
                EpochStats { epoch: 9, rank_loss: 0.8, logic_loss: 0.1, val_recall10: None },
                EpochStats {
                    epoch: 10,
                    rank_loss: 0.7,
                    logic_loss: 0.09,
                    val_recall10: Some(0.31),
                },
            ],
            recoveries: vec![
                Recovery {
                    epoch: 4,
                    reason: "non-finite gradients in 2 steps".into(),
                    action: RecoveryAction::SkippedSteps { steps: 2 },
                },
                Recovery {
                    epoch: 7,
                    reason: "item 3 escaped the Poincaré ball".into(),
                    action: RecoveryAction::RolledBack { lr_scale: 0.5 },
                },
            ],
            alpha: Some(vec![0.4, 0.9, 0.1]),
            best: Some(BestSnapshot {
                recall: 0.31,
                tags: tags.clone(),
                items: items.clone(),
                users: users.clone(),
            }),
            tags,
            items,
            users,
        }
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let ck = sample_checkpoint();
        let path = tmp("roundtrip");
        save(&ck, &path).expect("save");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded, ck);
        // The restored RNG must continue the exact stream.
        let mut original = SplitMix64::from_state(ck.rng_state);
        let mut restored = SplitMix64::from_state(loaded.rng_state);
        for _ in 0..64 {
            assert_eq!(original.next_u64(), restored.next_u64());
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn round_trip_with_empty_options() {
        let mut ck = sample_checkpoint();
        ck.alpha = None;
        ck.best = None;
        ck.history.clear();
        ck.recoveries.clear();
        let path = tmp("empties");
        save(&ck, &path).expect("save");
        assert_eq!(load(&path).expect("load"), ck);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_wrong_magic_and_version() {
        let path = tmp("magic");
        fs::write(&path, b"NOTACKPT0000000000000000000000").unwrap();
        assert!(matches!(load(&path).unwrap_err(), CheckpointError::BadMagic));

        let ck = sample_checkpoint();
        save(&ck, &path).expect("save");
        let mut bytes = fs::read(&path).unwrap();
        bytes[8] = 99; // version
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(load(&path).unwrap_err(), CheckpointError::BadVersion(99)));
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_truncation_at_every_region() {
        let ck = sample_checkpoint();
        let path = tmp("trunc");
        save(&ck, &path).expect("save");
        let bytes = fs::read(&path).unwrap();
        for keep in [0, 7, 23, bytes.len() / 2, bytes.len() - 1] {
            fs::write(&path, &bytes[..keep]).unwrap();
            let err = load(&path).unwrap_err();
            assert!(
                matches!(err, CheckpointError::Corrupt(_) | CheckpointError::BadMagic),
                "keep={keep}: {err}"
            );
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn rejects_every_single_bit_flip_in_the_payload() {
        let ck = sample_checkpoint();
        let path = tmp("bitflip");
        save(&ck, &path).expect("save");
        let bytes = fs::read(&path).unwrap();
        let mut rng = SplitMix64::new(77);
        // Sample a spread of payload byte positions; every flip must be
        // caught by the CRC.
        for _ in 0..64 {
            let mut corrupted = bytes.clone();
            let pos = 24 + rng.index(bytes.len() - 24);
            corrupted[pos] ^= 1 << rng.index(8);
            fs::write(&path, &corrupted).unwrap();
            assert!(
                matches!(load(&path).unwrap_err(), CheckpointError::Corrupt(_)),
                "bit flip at byte {pos} went undetected"
            );
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn slice_by_8_matches_the_bytewise_definition() {
        let bytewise = |bytes: &[u8]| {
            let mut c = 0xFFFF_FFFFu32;
            for &b in bytes {
                c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
            }
            c ^ 0xFFFF_FFFF
        };
        let mut bytes = vec![0u8; 300];
        SplitMix64::new(5).fill_bytes(&mut bytes);
        // Every length across several words, from every start alignment.
        for start in 0..8 {
            for end in start..bytes.len() {
                assert_eq!(crc32(&bytes[start..end]), bytewise(&bytes[start..end]));
            }
        }
    }

    /// The bytes of a saved checkpoint are pinned: files written before
    /// model files became checkpoints decode exactly as they did then.
    #[test]
    fn the_byte_layout_is_unchanged() {
        let path = tmp("layout");
        save(&sample_checkpoint(), &path).expect("save");
        let bytes = fs::read(&path).unwrap();
        assert_eq!((bytes.len(), crc32(&bytes)), (1392, 0x7fcc_91fe));
        let _ = fs::remove_file(&path);
    }

    /// A CRC only proves the bytes are the ones written; the decoder must
    /// still refuse tables that are non-finite or do not fit the header.
    #[test]
    fn rejects_non_finite_and_misshapen_tables_under_a_valid_crc() {
        let path = tmp("tables");
        let mut nan = sample_checkpoint();
        nan.items.row_mut(2)[1] = f64::NAN;
        let mut best_nan = sample_checkpoint();
        best_nan.best.as_mut().expect("sample has a best snapshot").users.row_mut(0)[0] =
            f64::INFINITY;
        let mut narrow = sample_checkpoint();
        narrow.users = Embedding::zeros(6, 4); // hyperbolic users need d+1 = 5
        for (ck, want) in [
            (nan, "non-finite parameter in items table"),
            (best_nan, "non-finite parameter in best users table"),
            (narrow, "users table is 4 wide"),
        ] {
            save(&ck, &path).expect("save");
            match load(&path).unwrap_err() {
                CheckpointError::Corrupt(m) => assert!(m.contains(want), "{m}"),
                other => panic!("expected Corrupt({want}), got {other}"),
            }
        }
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn precision_tag_round_trips() {
        let mut ck = sample_checkpoint();
        ck.precision = Precision::F32;
        let path = tmp("precision");
        save(&ck, &path).expect("save");
        let loaded = load(&path).expect("load");
        assert_eq!(loaded.precision, Precision::F32);
        assert_eq!(loaded, ck);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn version1_files_load_as_f64() {
        // Hand-build a pre-precision (version 1) file: the v2 payload minus
        // its trailing precision byte, under a version-1 header.
        let ck = sample_checkpoint();
        let payload = encode_payload(&ck);
        let v1_payload = &payload[..payload.len() - 1];
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(v1_payload.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(v1_payload).to_le_bytes());
        bytes.extend_from_slice(v1_payload);
        let path = tmp("v1");
        fs::write(&path, &bytes).unwrap();
        let loaded = load(&path).expect("v1 checkpoint must load");
        assert_eq!(loaded.precision, Precision::F64);
        assert_eq!(loaded, ck);
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn save_replaces_previous_checkpoint_atomically() {
        let path = tmp("replace");
        let mut ck = sample_checkpoint();
        save(&ck, &path).expect("first save");
        ck.epoch = 12;
        save(&ck, &path).expect("second save");
        assert_eq!(load(&path).expect("load").epoch, 12);
        // No .tmp sibling left behind.
        let mut name = path.file_name().expect("file name").to_os_string();
        name.push(".tmp");
        assert!(!path.with_file_name(name).exists(), "temp file left behind");
        let _ = fs::remove_file(&path);
    }
}
