#![warn(missing_docs)]

//! Fault-tolerant top-K serving for the LogiRec reproduction.
//!
//! The headline is robustness, not raw QPS (see DESIGN.md, "Failure model &
//! recovery"): every request carries a deadline, overload degrades through
//! a popularity-prior fallback before anything is shed, and model reloads
//! are validated (CRC, shapes, finiteness, canary scoring) before an
//! atomic `Arc` swap — a torn or corrupt file can never become the live
//! snapshot.
//!
//! * [`snapshot`] — the read-only [`ServeContext`] / [`ModelSnapshot`] pair
//!   and the hot-swappable [`SnapshotStore`]. The exact path reproduces the
//!   offline evaluator byte for byte.
//! * [`index`] — the deterministic clustered top-K index behind the
//!   `approx` tier: k-means coarse quantization over the monotone
//!   inner-product form of Lorentz distance, radius pruning, exact
//!   re-rank; exhaustive probe is bit-identical to the exact scan.
//! * [`protocol`] — the line-delimited JSON wire format (std TCP, parsed
//!   with the in-tree `logirec_obs::json`; offline-friendly).
//! * [`server`] — the concurrent request loop, degradation matrix, and the
//!   `fold_in` admin verb that grows the live snapshot by one cold-start
//!   user or item off the request path.
//! * [`reload`] — change-driven reload with validation and rollback.
//! * [`client`] — a protocol client plus bounded-retry/backoff helpers.
//! * `faults` — deterministic serve-path fault injection (behind the
//!   `fault-injection` feature; extends `logirec_core::faults`).

pub mod client;
#[cfg(feature = "fault-injection")]
pub mod faults;
pub mod index;
pub mod protocol;
pub mod reload;
pub mod server;
pub mod snapshot;

pub use client::{recommend_with_retry, Client, ClientError, RetryPolicy};
pub use index::{ClusterIndex, IndexConfig, ProbeReport};
pub use protocol::{ApproxInfo, FoldInVerb, Request, Response, ServedBy};
pub use reload::{ReloadOutcome, Reloader};
pub use server::{Server, ServerConfig, StatsSnapshot, WatchConfig};
pub use snapshot::{ModelSnapshot, ServeContext, SnapshotStore};
