#![warn(missing_docs)]

//! Dataset substrate for the LogiRec reproduction.
//!
//! The paper evaluates on four public datasets (Ciao, Amazon CD / Clothing /
//! Book — Table I). Those datasets are not redistributable here, so this
//! crate generates **synthetic benchmarks with the same published
//! statistics and the same generative structure** the method exploits:
//!
//! * a 4-level tag taxonomy with membership / hierarchy / exclusion counts
//!   matching Table I (per scale),
//! * items attached to (mostly fine-grained) tags,
//! * users whose interactions concentrate in a taxonomy subtree at a
//!   user-specific *focus level* — producing the consistency/granularity
//!   spectrum of Fig. 5 — plus uniform exploration noise,
//! * Zipf item popularity and per-user timestamps for the temporal
//!   60/20/20 split used by the paper's evaluation protocol.
//!
//! See DESIGN.md ("Substitutions") for why this preserves the comparison
//! shape.

pub mod interactions;
pub mod loader;
pub mod replay;
pub mod sampling;
pub mod synth;

pub use interactions::{Dataset, InteractionSet, Split};
pub use loader::{
    atomic_write, load_dataset, load_dataset_traced, save_dataset, save_dataset_traced, LoadError,
};
pub use replay::{ColdUser, ReplayScenario};
pub use sampling::{BatchIter, NegativeSampler};
pub use synth::{DatasetSpec, Scale};
