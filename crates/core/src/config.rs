//! Configuration of the LogiRec / LogiRec++ models.

use std::path::PathBuf;

/// Which carrier space the model trains in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Geometry {
    /// The paper's design: Poincaré items/tags + Lorentz users with RSGD.
    Hyperbolic,
    /// The "w/o Hyper" ablation: identical architecture projected into
    /// Euclidean space (Euclidean distances and plain SGD; the tag-ball
    /// derivation is kept as a parametrization).
    Euclidean,
}

/// Numeric precision the training and serving hot path runs in.
///
/// `F64` is the reference path: bit-identical to the original
/// double-precision implementation (the determinism suite byte-compares
/// trained models across thread counts against it). `F32` instantiates the
/// same generic kernels at single precision — roughly half the memory
/// traffic and wider autovectorization — with accuracy bounded by the
/// parity tests (see DESIGN.md, "Precision & kernels"). Model files on disk
/// stay f64 in both modes; checkpoints record the precision they were
/// written with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Precision {
    /// Single precision (`f32`) training/serving.
    F32,
    /// Double precision (`f64`) — the default, bit-identical reference.
    #[default]
    F64,
}

impl Precision {
    /// Parses the CLI spelling (`"f32"` / `"f64"`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "f32" => Some(Self::F32),
            "f64" => Some(Self::F64),
            _ => None,
        }
    }
}

impl std::fmt::Display for Precision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Self::F32 => "f32",
            Self::F64 => "f64",
        })
    }
}

/// Hyperparameters of LogiRec / LogiRec++.
///
/// Defaults follow the paper's structural choices (`d = 64`, `L = 3`,
/// Section VI-A4 / Table IV). The LMNN margin and learning rate were
/// re-tuned on the synthetic benchmarks' validation splits: with plain
/// RSGD (no Adam) and the layer-sum aggregation of Eq. 7, carrier-space
/// distances are several times larger than in the authors' setup, moving
/// the optimal margin from the paper's 0.1 to ≈1 (see EXPERIMENTS.md).
#[derive(Debug, Clone)]
pub struct LogiRecConfig {
    /// Embedding dimension `d`.
    pub dim: usize,
    /// Number of GCN layers `L` (0 disables propagation — "w/o HGCN").
    pub layers: usize,
    /// Weight `λ` on the logical relation losses (Eq. 10 / 15).
    pub lambda: f64,
    /// LMNN margin `m` (Eq. 9).
    pub margin: f64,
    /// Riemannian SGD learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Positive pairs per SGD step.
    pub batch_size: usize,
    /// Negative samples per positive pair.
    pub negatives: usize,
    /// Logical-relation samples (per relation type) per SGD step.
    pub logic_batch: usize,
    /// Carrier space.
    pub geometry: Geometry,
    /// Numeric precision of the training/serving hot path. `F64` (the
    /// default) reproduces the original double-precision arithmetic bit for
    /// bit; `F32` runs the same kernels in single precision (see
    /// [`Precision`]).
    pub precision: Precision,
    /// Enable L_Mem (Eq. 3).
    pub use_mem: bool,
    /// Enable L_Hie (Eq. 4).
    pub use_hie: bool,
    /// Enable L_Ex (Eq. 5).
    pub use_ex: bool,
    /// Enable the intersection extension loss L_Int (future work in the
    /// paper's conclusion; off by default to match the published model).
    pub use_int: bool,
    /// Enable the LogiRec++ mining weights α_u (Eq. 15). Off = plain
    /// LogiRec (Eq. 10).
    pub mining: bool,
    /// Epoch interval at which the granularity weights GR_u are refreshed
    /// from the current embeddings.
    pub mining_refresh: usize,
    /// Lower clamp on α_u so no user is silenced entirely (the paper's
    /// case-study weights range 0.31–0.87; see DESIGN.md on normalization).
    pub alpha_floor: f64,
    /// RNG seed for init and sampling.
    pub seed: u64,
    /// Threads used by the training hot path: sharded gradient
    /// accumulation, GCN propagation, and the per-row optimizer updates.
    /// Results are bit-identical for every value — shard layout and merge
    /// order depend only on the workload (see `crate::shard`).
    pub train_threads: usize,
    /// Threads used during evaluation.
    pub eval_threads: usize,
    /// Validate every `eval_every` epochs (0 disables tracking).
    pub eval_every: usize,
    /// Early-stopping patience in validation rounds without improvement
    /// (0 disables early stopping; the best snapshot is still restored
    /// when `eval_every > 0`).
    pub patience: usize,
    /// Write a durable checkpoint every `checkpoint_every` completed epochs
    /// (0 disables checkpointing; also requires `checkpoint_path`).
    pub checkpoint_every: usize,
    /// Destination file for checkpoints (written atomically; see
    /// `crate::checkpoint`).
    pub checkpoint_path: Option<PathBuf>,
    /// Resume training from this checkpoint (a model file is a checkpoint
    /// at epoch 0, so it starts training at epoch 0 from its tables, on
    /// the RNG stream `seed` gives a fresh run). An
    /// unreadable or mismatched checkpoint falls back to a fresh start and
    /// records a recovery in the `TrainReport` rather than failing the run.
    pub resume_from: Option<PathBuf>,
    /// Retry budget for divergence recovery: how many rollback-and-halve-LR
    /// recoveries are attempted before training stops at the last healthy
    /// state.
    pub max_recoveries: usize,
    /// Telemetry sink for spans, metrics, and structured events (see
    /// `logirec_obs`). The default is [`logirec_obs::Telemetry::disabled`],
    /// which makes every instrumentation point in the trainer, data path,
    /// and evaluator a no-op branch.
    pub telemetry: logirec_obs::Telemetry,
    /// Deterministic fault-injection plan used by robustness tests. Only
    /// present with the `fault-injection` feature; never set in production.
    #[cfg(feature = "fault-injection")]
    pub faults: Option<crate::faults::FaultPlan>,
}

impl Default for LogiRecConfig {
    fn default() -> Self {
        Self {
            dim: 64,
            layers: 3,
            lambda: 0.1,
            margin: 1.0,
            lr: 0.02,
            epochs: 40,
            batch_size: 256,
            negatives: 8,
            logic_batch: 256,
            geometry: Geometry::Hyperbolic,
            precision: Precision::F64,
            use_mem: true,
            use_hie: true,
            use_ex: true,
            use_int: false,
            mining: true,
            mining_refresh: 5,
            alpha_floor: 0.1,
            seed: 2024,
            train_threads: 4,
            eval_threads: 4,
            eval_every: 5,
            patience: 3,
            checkpoint_every: 0,
            checkpoint_path: None,
            resume_from: None,
            max_recoveries: 4,
            telemetry: logirec_obs::Telemetry::disabled(),
            #[cfg(feature = "fault-injection")]
            faults: None,
        }
    }
}

impl LogiRecConfig {
    /// Quick config for unit tests: tiny dimension, few epochs.
    pub fn test_config() -> Self {
        Self {
            dim: 8,
            layers: 2,
            epochs: 5,
            batch_size: 128,
            logic_batch: 32,
            train_threads: 2,
            eval_threads: 2,
            ..Self::default()
        }
    }

    /// Normalizes degenerate knob values into the form the trainer actually
    /// runs with, in **one** place:
    ///
    /// * `negatives = 0` → 1 (a positive with no negatives still trains on
    ///   one sampled negative; previously two call sites independently
    ///   applied `.max(1)`),
    /// * `logic_batch = 0` → 1 (previously `sample_slice` silently returned
    ///   an empty slice and the per-sample weight divided by zero),
    /// * `batch_size = 0` → 1,
    /// * `train_threads` / `eval_threads` = 0 → 1.
    ///
    /// [`crate::train`] calls this on entry, so a config built with zeros
    /// behaves exactly like the equivalent config built with ones.
    #[must_use]
    pub fn validated(mut self) -> Self {
        self.negatives = self.negatives.max(1);
        self.logic_batch = self.logic_batch.max(1);
        self.batch_size = self.batch_size.max(1);
        self.train_threads = self.train_threads.max(1);
        self.eval_threads = self.eval_threads.max(1);
        self
    }

    /// Ambient width of user/item vectors in the carrier space:
    /// `d + 1` on the hyperboloid, `d` in Euclidean space.
    pub fn ambient_dim(&self) -> usize {
        match self.geometry {
            Geometry::Hyperbolic => self.dim + 1,
            Geometry::Euclidean => self.dim,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_choices() {
        let c = LogiRecConfig::default();
        assert_eq!(c.dim, 64);
        assert_eq!(c.layers, 3);
        assert!((c.lambda - 0.1).abs() < 1e-12);
        assert!((c.margin - 1.0).abs() < 1e-12);
        assert!(c.use_mem && c.use_hie && c.use_ex && c.mining);
        assert_eq!(c.geometry, Geometry::Hyperbolic);
    }

    #[test]
    fn validated_clamps_every_zero_knob() {
        let c = LogiRecConfig {
            negatives: 0,
            logic_batch: 0,
            batch_size: 0,
            train_threads: 0,
            eval_threads: 0,
            ..LogiRecConfig::default()
        }
        .validated();
        assert_eq!(c.negatives, 1);
        assert_eq!(c.logic_batch, 1);
        assert_eq!(c.batch_size, 1);
        assert_eq!(c.train_threads, 1);
        assert_eq!(c.eval_threads, 1);
        // Non-degenerate values pass through untouched.
        let d = LogiRecConfig::default().validated();
        assert_eq!(d.negatives, LogiRecConfig::default().negatives);
        assert_eq!(d.logic_batch, LogiRecConfig::default().logic_batch);
    }

    #[test]
    fn precision_defaults_to_f64_and_parses() {
        assert_eq!(LogiRecConfig::default().precision, Precision::F64);
        assert_eq!(Precision::parse("f32"), Some(Precision::F32));
        assert_eq!(Precision::parse("f64"), Some(Precision::F64));
        assert_eq!(Precision::parse("f16"), None);
        assert_eq!(Precision::F32.to_string(), "f32");
        assert_eq!(Precision::F64.to_string(), "f64");
    }

    #[test]
    fn ambient_dim_depends_on_geometry() {
        let mut c = LogiRecConfig::default();
        assert_eq!(c.ambient_dim(), 65);
        c.geometry = Geometry::Euclidean;
        assert_eq!(c.ambient_dim(), 64);
    }
}
