//! Approximate candidate retrieval: a deterministic clustered top-K index
//! with exact re-rank.
//!
//! # Why this is allowed to exist
//!
//! The exact tier ranks items by `-d_L(u, v)` where `d_L` is the Lorentz
//! distance between the propagated user and item embeddings in ambient
//! coordinates, `d_L(u, v) = acosh(-⟨u, v⟩_L)` with
//! `⟨u, v⟩_L = -u₀v₀ + Σ_{i≥1} uᵢvᵢ`. Define the **flipped query**
//! `q = (u₀, -u₁, …, -u_d)`. Then `-⟨u, v⟩_L = q · v` is a plain Euclidean
//! dot product, and since `acosh` is monotone increasing, ranking by
//! Lorentz distance ascending is *exactly* ranking by `q · v` ascending.
//! The reduction is order-exact — not an approximation — so a coarse
//! Euclidean quantizer over the raw ambient item rows selects candidates,
//! and the only recall loss comes from probing fewer clusters than exist.
//! (The Euclidean-geometry ablation is even simpler: the score is already
//! a Euclidean distance.)
//!
//! # Structure
//!
//! * **Build** (off the request path, during snapshot validation): k-means
//!   over the item table via [`logirec_linalg::cluster`] — SplitMix64-
//!   seeded, fixed iteration order, bit-reproducible. Per cluster we store
//!   its member list and a radius `r_c = max_{v∈c} ‖v − centroid_c‖`.
//! * **Query**: rank clusters by the centroid key (`q·c` for Lorentz,
//!   `‖q−c‖` for Euclidean), scan the `nprobe` nearest, and re-rank every
//!   unseen member through the exact scan's selection
//!   (`logirec_core::scan`): each member's key comes from the row kernel
//!   `scan::row_key`, which gives the exact tier's key bits at the
//!   snapshot's working precision, and only the tie band at the k-th key
//!   gets a distance. Shortlist scores are therefore bit-identical to
//!   full-scan scores for the items the shortlist covers.
//! * **Pruning**: by Cauchy–Schwarz, every member of cluster `c` has
//!   `q·v ≥ q·centroid_c − ‖q‖·r_c` (triangle inequality in the Euclidean
//!   case), which upper-bounds the best score the cluster can contain; a
//!   probed cluster whose bound cannot beat the score of the current k-th
//!   smallest key is skipped. Pruning is disabled when
//!   `nprobe ≥ n_clusters` so the exhaustive probe reproduces the exact
//!   tier bit for bit (no float-boundary pruning decisions on that path).

use std::time::Instant;

use logirec_core::scan::{self, KeyTopK};
use logirec_core::Geometry;
use logirec_linalg::{cluster, ops, Embedding, Scalar};

/// Lloyd iteration cap for the k-means build.
const KMEANS_ITERS: usize = 10;
/// Seed of the SplitMix64 stream that picks the initial centers.
const KMEANS_SEED: u64 = 0x1dece5ed;

/// Knobs for [`ClusterIndex::build`]. `0` means "auto" for `clusters`
/// (≈√n_items) and `nprobe` (≈ clusters/8).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexConfig {
    /// Number of k-means clusters (0 = `⌈√n_items⌉`).
    pub clusters: usize,
    /// Default clusters probed per query (0 = `max(1, clusters/8)`).
    pub nprobe: usize,
}

impl IndexConfig {
    /// Resolves the auto knobs against a concrete catalog size.
    pub fn resolve(&self, n_items: usize) -> (usize, usize) {
        let clusters = if self.clusters == 0 {
            ((n_items as f64).sqrt().ceil() as usize).max(1)
        } else {
            self.clusters
        }
        .clamp(1, n_items.max(1));
        let nprobe = if self.nprobe == 0 {
            (clusters / 8).max(1)
        } else {
            self.nprobe
        }
        .clamp(1, clusters);
        (clusters, nprobe)
    }
}

/// Per-request probe accounting, surfaced on the wire so an `approx`
/// response carries its measured retrieval configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeReport {
    /// Clusters in the index.
    pub clusters: usize,
    /// Clusters whose members were actually scanned.
    pub clusters_probed: usize,
    /// Probed clusters skipped by the radius bound.
    pub clusters_pruned: usize,
    /// Items exactly re-ranked (the work the approx tier did).
    pub items_scored: usize,
    /// Catalog size, so `items_scored` has a denominator.
    pub n_items: usize,
}

impl ProbeReport {
    /// Fraction of the catalog that was exactly scored.
    pub fn scan_fraction(&self) -> f64 {
        self.items_scored as f64 / self.n_items.max(1) as f64
    }
}

/// The immutable clustered retrieval index for one snapshot's item table.
///
/// Centroids and radii are always `f64` (they only *select* candidates);
/// the exact re-rank runs at the snapshot's working precision through the
/// row slices the caller passes to [`ClusterIndex::search`]. A clone is
/// cheap (the centroid table is shared copy-on-write; members are 4 bytes
/// an item): a user fold-in hands its candidate a clone of the live index
/// instead of re-running k-means over unchanged item finals.
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    geometry: Geometry,
    n_items: usize,
    dim: usize,
    nprobe: usize,
    centroids: Embedding<f64>,
    radii: Vec<f64>,
    /// Item ids grouped by cluster: cluster `c` owns
    /// `members[offsets[c]..offsets[c + 1]]`, ascending within a cluster.
    offsets: Vec<usize>,
    members: Vec<u32>,
    build_us: u64,
    /// Version of the snapshot this index serves; stamped by the
    /// `SnapshotStore` at install time, in lockstep with `model_version`.
    model_version: u64,
}

impl ClusterIndex {
    /// Builds the index over the rows of `items` (the snapshot's propagated
    /// ambient item table). Deterministic: same table, geometry, and config
    /// produce a byte-identical index.
    pub fn build<S: Scalar>(items: &Embedding<S>, geometry: Geometry, cfg: &IndexConfig) -> Self {
        let t0 = Instant::now();
        let n_items = items.rows();
        assert!(n_items > 0, "cannot index an empty item table");
        let (clusters, nprobe) = cfg.resolve(n_items);
        // Quantize in f64 regardless of the serving precision: the f32→f64
        // widening is exact, so both precisions get the same determinism
        // story, and selection quality never degrades with the model.
        let points: Embedding<f64> = items.cast();
        let km = cluster::kmeans(&points, clusters, KMEANS_ITERS, KMEANS_SEED);
        let k = km.centroids.rows();

        let mut counts = vec![0usize; k];
        for &c in &km.assignment {
            counts[c as usize] += 1;
        }
        let mut offsets = vec![0usize; k + 1];
        for c in 0..k {
            offsets[c + 1] = offsets[c] + counts[c];
        }
        let mut cursor = offsets.clone();
        let mut members = vec![0u32; n_items];
        let mut radii = vec![0.0f64; k];
        for (i, &c) in km.assignment.iter().enumerate() {
            let c = c as usize;
            members[cursor[c]] = i as u32;
            cursor[c] += 1;
            let d = ops::dist(points.row(i), km.centroids.row(c));
            radii[c] = radii[c].max(d);
        }

        Self {
            geometry,
            n_items,
            dim: items.dim(),
            nprobe,
            centroids: km.centroids,
            radii,
            offsets,
            members,
            build_us: t0.elapsed().as_micros() as u64,
            model_version: 0,
        }
    }

    /// Number of clusters actually built.
    pub fn clusters(&self) -> usize {
        self.centroids.rows()
    }

    /// The default probe count queries use when no override is given.
    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Catalog size the index covers.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// Wall time of the build in microseconds.
    pub fn build_us(&self) -> u64 {
        self.build_us
    }

    /// The snapshot version this index serves (0 before install).
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    pub(crate) fn set_model_version(&mut self, version: u64) {
        self.model_version = version;
    }

    /// Approximate top-K for one query row.
    ///
    /// `user_row` and `items` must be the propagated ambient tables the
    /// index was built from (same snapshot, same precision); `seen` is the
    /// caller's sorted masked-item list — members in it are excluded from
    /// the shortlist, mirroring the exact tier's `NEG_INFINITY` masking.
    /// Returns `(items, scores)` best-first plus the probe accounting.
    /// With `nprobe ≥ self.clusters()` the result is bit-identical to the
    /// exact full scan.
    pub fn search<S: Scalar>(
        &self,
        user_row: &[S],
        items: &Embedding<S>,
        seen: &[usize],
        k: usize,
        nprobe: usize,
    ) -> (Vec<usize>, Vec<f64>, ProbeReport) {
        debug_assert_eq!(items.rows(), self.n_items);
        debug_assert_eq!(items.dim(), self.dim);
        let clusters = self.clusters();
        let nprobe = nprobe.clamp(1, clusters);

        // Flipped query (Lorentz) or the plain query point (Euclidean),
        // widened to f64 for cluster selection.
        let mut q = vec![0.0f64; self.dim];
        q[0] = user_row[0].to_f64();
        match self.geometry {
            Geometry::Hyperbolic => {
                for (o, &x) in q[1..].iter_mut().zip(&user_row[1..]) {
                    *o = -x.to_f64();
                }
            }
            Geometry::Euclidean => {
                for (o, &x) in q[1..].iter_mut().zip(&user_row[1..]) {
                    *o = x.to_f64();
                }
            }
        }
        let q_norm = ops::norm(&q);

        // Rank clusters by centroid key, ascending (smaller key = closer),
        // ties toward the smaller cluster id for determinism.
        let mut order: Vec<(f64, u32)> = (0..clusters)
            .map(|c| {
                let key = match self.geometry {
                    Geometry::Hyperbolic => ops::dot(&q, self.centroids.row(c)),
                    Geometry::Euclidean => ops::dist(&q, self.centroids.row(c)),
                };
                (key, c as u32)
            })
            .collect();
        order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        // Pruning is only sound as an *approximation* accelerator: at the
        // exhaustive probe the tier promises bit-identity with the exact
        // scan, so no float-boundary pruning decision may drop an item.
        let prune = nprobe < clusters;
        let mut best = KeyTopK::<S>::new(self.geometry, k);
        let mut scanned: Vec<(usize, f64)> = Vec::new();
        let mut report = ProbeReport {
            clusters,
            n_items: self.n_items,
            ..ProbeReport::default()
        };

        for &(key, c) in order.iter().take(nprobe) {
            let c = c as usize;
            if let Some(worst) = prune.then(|| best.kth_score()).flatten() {
                // Best score any member of `c` can reach, from the radius
                // bound, with a small slack so f64 bound vs (possibly f32)
                // exact score can only under-prune, never over-prune.
                let ub = match self.geometry {
                    Geometry::Hyperbolic => {
                        let lb_key = key - q_norm * self.radii[c];
                        -ops::acosh_clamped(lb_key)
                    }
                    Geometry::Euclidean => -(key - self.radii[c]).max(0.0),
                };
                let ub = ub + ub.abs() * 1e-6 + 1e-9;
                if ub < worst {
                    report.clusters_pruned += 1;
                    continue;
                }
            }
            report.clusters_probed += 1;
            for &m in &self.members[self.offsets[c]..self.offsets[c + 1]] {
                let v = m as usize;
                if seen.binary_search(&v).is_ok() {
                    continue;
                }
                let key = scan::row_key(self.geometry, user_row, items.row(v)).to_f64();
                report.items_scored += 1;
                best.offer(key);
                scanned.push((v, key));
            }
        }

        let (items, scores) = best.finish(scanned);
        (items, scores, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_eval::ranking::{top_k_indices, top_k_scored};
    use logirec_hyperbolic::lorentz;
    use logirec_linalg::SplitMix64;

    /// A synthetic hyperboloid item table: `exp_origin` of small tangents.
    fn hyperboloid_items(n: usize, d: usize, seed: u64) -> Embedding<f64> {
        let mut rng = SplitMix64::new(seed);
        let tangents = Embedding::<f64>::normal(n, d, 0.3, &mut rng);
        let mut items = Embedding::zeros(n, d + 1);
        for i in 0..n {
            lorentz::exp_origin_into(tangents.row(i), items.row_mut(i));
        }
        items
    }

    fn full_scan(user: &[f64], items: &Embedding<f64>, seen: &[usize], k: usize) -> Vec<usize> {
        let scores: Vec<f64> = (0..items.rows())
            .map(|v| {
                if seen.binary_search(&v).is_ok() {
                    f64::NEG_INFINITY
                } else {
                    -lorentz::distance(user, items.row(v)).to_f64()
                }
            })
            .collect();
        top_k_indices(&scores, k)
    }

    #[test]
    fn exhaustive_probe_is_bit_identical_to_the_full_scan() {
        let items = hyperboloid_items(500, 8, 3);
        let users = hyperboloid_items(20, 8, 4);
        let idx = ClusterIndex::build(
            &items,
            Geometry::Hyperbolic,
            &IndexConfig { clusters: 16, ..IndexConfig::default() },
        );
        let seen = vec![3usize, 77, 200, 480];
        for u in 0..users.rows() {
            let (got, scores, report) = idx.search(users.row(u), &items, &seen, 10, 16);
            assert_eq!(got, full_scan(users.row(u), &items, &seen, 10), "user {u}");
            // And scores bit-match the exact kernel through the eval
            // helper.
            let pairs: Vec<(usize, f64)> = (0..items.rows())
                .filter(|v| seen.binary_search(v).is_err())
                .map(|v| (v, -lorentz::distance(users.row(u), items.row(v)).to_f64()))
                .collect();
            let oracle = top_k_scored(pairs, 10);
            for ((&i, &s), (oi, os)) in got.iter().zip(&scores).zip(oracle) {
                assert_eq!(i, oi);
                assert_eq!(s.to_bits(), os.to_bits());
            }
            assert_eq!(report.clusters_pruned, 0, "exhaustive probe must not prune");
            assert_eq!(report.items_scored, items.rows() - seen.len());
        }
    }

    #[test]
    fn pruned_partial_probe_scans_a_fraction_and_keeps_high_recall() {
        let items = hyperboloid_items(2_000, 8, 9);
        let users = hyperboloid_items(30, 8, 10);
        let idx = ClusterIndex::build(
            &items,
            Geometry::Hyperbolic,
            &IndexConfig { clusters: 48, ..IndexConfig::default() },
        );
        let mut hits = 0usize;
        let mut total = 0usize;
        let mut scanned = 0.0;
        for u in 0..users.rows() {
            let exact = full_scan(users.row(u), &items, &[], 10);
            let (approx, _, report) = idx.search(users.row(u), &items, &[], 10, 12);
            scanned += report.scan_fraction();
            total += exact.len();
            hits += exact.iter().filter(|v| approx.contains(v)).count();
        }
        let recall = hits as f64 / total as f64;
        let frac = scanned / users.rows() as f64;
        assert!(recall >= 0.95, "recall@10 {recall} < 0.95 at nprobe 12/48");
        assert!(frac < 0.60, "scanned {frac} of the catalog at nprobe 12/48");
    }

    #[test]
    fn build_is_bit_reproducible_and_euclidean_geometry_works() {
        let mut rng = SplitMix64::new(21);
        let items = Embedding::<f64>::normal(300, 9, 1.0, &mut rng);
        let cfg = IndexConfig { clusters: 10, ..IndexConfig::default() };
        let a = ClusterIndex::build(&items, Geometry::Euclidean, &cfg);
        let b = ClusterIndex::build(&items, Geometry::Euclidean, &cfg);
        assert_eq!(a.members, b.members);
        assert_eq!(a.offsets, b.offsets);
        for (x, y) in a.centroids.as_slice().iter().zip(b.centroids.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let users = Embedding::<f64>::normal(5, 9, 1.0, &mut rng);
        for u in 0..users.rows() {
            let (got, _, _) = a.search(users.row(u), &items, &[], 5, 10);
            let scores: Vec<f64> = (0..items.rows())
                .map(|v| -ops::dist(users.row(u), items.row(v)))
                .collect();
            assert_eq!(got, top_k_indices(&scores, 5), "euclidean user {u}");
        }
    }

    #[test]
    fn auto_knobs_resolve_sanely() {
        let cfg = IndexConfig::default();
        let (c, p) = cfg.resolve(10_000);
        assert_eq!(c, 100);
        assert_eq!(p, 12);
        let (c, p) = cfg.resolve(1);
        assert_eq!((c, p), (1, 1));
        let (c, p) = IndexConfig { clusters: 999, nprobe: 999 }.resolve(50);
        assert_eq!((c, p), (50, 50));
    }
}
