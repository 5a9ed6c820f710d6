#![warn(missing_docs)]

//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index) and is a `run` body handed to
//! [`harness::main`], which validates the flags, owns the results file and
//! the trace, and exits 1 on any error. The library also provides per-scale
//! default configurations (including the paper's per-dataset λ), the seed
//! loop, and plain-text table rendering in the paper's `mean±std` percent
//! format.

pub mod harness;
pub mod table;

pub use harness::{ExpMetrics, RunArgs};
