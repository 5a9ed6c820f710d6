#![warn(missing_docs)]

//! LogiRec and LogiRec++ — the paper's primary contribution.
//!
//! * [`model`] holds the learnable state: tag hyperplane centers and item
//!   points in the Poincaré ball, user points on the Lorentz hyperboloid,
//!   and the forward pass that maps items into the Lorentz model (Eq. 2)
//!   and runs the hyperbolic GCN (Eq. 6–8).
//! * [`graph`] implements the tangent-space propagation (Eq. 7) with its
//!   exact transpose for backpropagation.
//! * [`losses`] implements the logical relation losses L_Mem / L_Hie / L_Ex
//!   (Eq. 3–5) and the LMNN ranking loss L_Rec (Eq. 9), each with analytic
//!   gradients.
//! * [`mining`] implements LogiRec++'s consistency (CON, Eq. 11–12) and
//!   granularity (GR, Eq. 13) weights combined into α (Eq. 14).
//! * [`trainer`] joins everything into the objectives of Eq. 10 / Eq. 15
//!   with Riemannian SGD (Section V-C), fault-tolerant via [`checkpoint`]
//!   (durable checkpoint/resume) and divergence rollback with LR backoff.
//!   Each of its steps runs [`step`]: the forward and backward passes on
//!   the rows the step's batch reads, bit-identical to full passes.
//! * [`scan`] is the one exact top-K primitive every ranking path uses:
//!   a key pass over the item table, then distances for the tie band only.
//! * [`ablation`] provides the Table III variants.

pub mod ablation;
pub mod checkpoint;
pub mod config;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod filter;
pub mod graph;
pub mod io;
pub mod losses;
pub mod mining;
pub mod parallel;
pub mod model;
pub mod scan;
pub mod shard;
pub mod step;
pub mod stream;
pub mod trainer;

pub use ablation::Variant;
pub use config::{Geometry, LogiRecConfig, Precision};
pub use filter::{FilterError, FilteredRanker, LogicFilter, SeenFilter};
pub use graph::PropGraph;
pub use model::LogiRec;
pub use scan::{KeyTopK, ScanTable};
pub use shard::{merge_tree, shard_count, shard_ranges, Merge, SparseGrad};
pub use step::TrainStep;
pub use stream::{
    compact, fold_in_item, fold_in_user, recover_from_checkpoint, CompactionError,
    CompactionOptions, CompactionReport, Event, EventLog, FoldInError, FoldInOptions, FoldInReport,
};
pub use trainer::{train, train_typed, Recovery, RecoveryAction, TrainReport};
