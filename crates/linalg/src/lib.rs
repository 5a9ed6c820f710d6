#![warn(missing_docs)]

//! Dense numeric substrate for the LogiRec reproduction.
//!
//! Every model in this workspace stores its parameters as rows of an
//! [`Embedding`] matrix and manipulates them with the free functions in
//! [`ops`]. Keeping the numeric kernel in one tiny crate lets the geometry,
//! model, and baseline crates share identical, well-tested primitives.
//!
//! Arithmetic is precision-generic over the sealed [`Scalar`] trait
//! (`f64` + `f32`), with `f64` as the default everywhere: hyperbolic maps
//! amplify rounding error near the boundary of the Poincaré ball, and the
//! paper's optimization (Riemannian SGD with exponential maps) is far more
//! stable in double precision. The `f32` instantiation exists for the packed
//! training/serving path; its reductions run in fixed-width chunks that the
//! autovectorizer keeps in SIMD registers (see DESIGN.md, "Precision &
//! kernels").

pub mod block;
pub mod cluster;
pub mod matrix;
pub mod ops;
pub mod rng;
pub mod scalar;

pub use block::{RowBlocks, BLOCK_ROWS};
pub use cluster::{assign_clusters, kmeans, nearest_centroid, update_centroids, KMeans};
pub use matrix::Embedding;
pub use rng::SplitMix64;
pub use scalar::Scalar;
