#![warn(missing_docs)]

//! Experiment harness shared by the table/figure regeneration binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md's per-experiment index). This library provides the common
//! pieces: CLI parsing, per-scale default configurations (including the
//! paper's per-dataset λ), metric collection over seeds, and plain-text
//! table rendering in the paper's `mean±std` percent format.

pub mod harness;
pub mod table;

pub use harness::{bin_telemetry, ExpMetrics, RunArgs};
