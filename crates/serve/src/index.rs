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
//!   seeded, fixed iteration order, bit-reproducible — and a radius
//!   `r_c = max_{v∈c} ‖v − centroid_c‖` per cluster. The same build lays
//!   out the snapshot's one exact-scan table in cluster order
//!   ([`ScanTable::in_order`]): each cluster's members, ascending by id,
//!   are one contiguous run of positions. The index keeps centroids, radii
//!   and run bounds; it scores nothing.
//! * **Query**: rank clusters by the centroid key (`q·c` for Lorentz,
//!   `‖q−c‖` for Euclidean) and walk the runs of the `nprobe` nearest with
//!   the exact scan's own loop ([`ScanTable::top_k_runs`]: coarse pass and
//!   bounds, seen-list mask, exact keys for the candidates, [`KeyTopK`],
//!   tie band). Shortlist scores are
//!   therefore bit-identical to full-scan scores for the items the
//!   shortlist covers, and the exhaustive probe (`nprobe ≥ n_clusters`)
//!   walks every run: it *is* the exact scan.
//! * **Pruning**: by Cauchy–Schwarz, every member of cluster `c` has
//!   `q·v ≥ q·centroid_c − ‖q‖·r_c` (triangle inequality in the Euclidean
//!   case), which upper-bounds the best score the cluster can contain; a
//!   probed cluster whose bound cannot beat the score of the current k-th
//!   smallest key is skipped. The exhaustive probe prunes nothing, so no
//!   float-boundary pruning decision can drop an item on that path.

use std::time::Instant;

use logirec_core::scan::{KeyTopK, ScanTable};
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

/// The immutable clustered retrieval index for one snapshot's item table:
/// centroids and radii (always `f64`; they only *select* runs) and the
/// bounds of each cluster's run in the table built with it. A clone is
/// cheap (the centroid table is shared copy-on-write): a user fold-in hands
/// its candidate a clone of the live index, beside the live table, instead
/// of re-running k-means over unchanged item finals.
#[derive(Debug, Clone)]
pub struct ClusterIndex {
    geometry: Geometry,
    n_items: usize,
    nprobe: usize,
    centroids: Embedding<f64>,
    radii: Vec<f64>,
    /// Cluster `c` is positions `offsets[c]..offsets[c + 1]` of the table.
    offsets: Vec<usize>,
    build_us: u64,
}

impl ClusterIndex {
    /// [`ClusterIndex::build_with_table`] without the table.
    pub fn build<S: Scalar>(items: &Embedding<S>, geometry: Geometry, cfg: &IndexConfig) -> Self {
        Self::build_with_table(items, geometry, cfg).0
    }

    /// Clusters the rows of `items` (the snapshot's propagated ambient item
    /// table) and builds the exact-scan table of `items` in cluster order,
    /// the one table both serving tiers walk. Deterministic: same table,
    /// geometry, and config produce a byte-identical index and table.
    pub fn build_with_table<S: Scalar>(
        items: &Embedding<S>,
        geometry: Geometry,
        cfg: &IndexConfig,
    ) -> (Self, ScanTable<S>) {
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

        // Counting sort: the items of cluster c, ascending, at positions
        // offsets[c]..offsets[c + 1].
        let mut offsets = vec![0usize; k + 1];
        for &c in &km.assignment {
            offsets[c as usize + 1] += 1;
        }
        for c in 0..k {
            offsets[c + 1] += offsets[c];
        }
        let mut cursor = offsets.clone();
        let mut order = vec![0u32; n_items];
        let mut radii = vec![0.0f64; k];
        for (i, &c) in km.assignment.iter().enumerate() {
            let c = c as usize;
            order[cursor[c]] = i as u32;
            cursor[c] += 1;
            radii[c] = radii[c].max(ops::dist(points.row(i), km.centroids.row(c)));
        }
        // Free the f64 copy of the rows before the table is allocated: the
        // two need never be resident at once.
        drop(points);
        let table = ScanTable::in_order(geometry, items, order);
        let index = Self {
            geometry,
            n_items,
            nprobe,
            centroids: km.centroids,
            radii,
            offsets,
            build_us: t0.elapsed().as_micros() as u64,
        };
        (index, table)
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

    /// Approximate top-K for one query row.
    ///
    /// `table` must be the table [`ClusterIndex::build_with_table`] built
    /// with this index, and `user_row` a propagated user row of the same
    /// snapshot and precision; `seen` is the caller's sorted masked-item
    /// list — items in it are excluded from the shortlist, mirroring the
    /// exact tier's `NEG_INFINITY` masking; `keys` is the walk's scratch
    /// (see [`ScanTable::top_k_runs`]: a buffer as long as the largest
    /// cluster keys each probed run in one piece). Returns `(items,
    /// scores)` best-first plus the probe accounting. With `nprobe ≥
    /// self.clusters()` the walk is the exact scan, bit for bit.
    pub fn search<S: Scalar>(
        &self,
        table: &ScanTable<S>,
        user_row: &[S],
        seen: &[usize],
        k: usize,
        nprobe: usize,
        keys: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>, ProbeReport) {
        let clusters = self.clusters();
        let nprobe = nprobe.clamp(1, clusters);
        let mut report = ProbeReport { clusters, n_items: self.n_items, ..ProbeReport::default() };
        let (items, scores, scored) = if nprobe == clusters {
            // Every run, unpruned: one walk over the whole table.
            report.clusters_probed = clusters;
            let mut all = Some(0..self.n_items);
            table.top_k_runs(user_row, seen, k, keys, |_| all.take())
        } else {
            // Flipped query (Lorentz) or the plain query point (Euclidean),
            // widened to f64 for cluster selection.
            let flip = match self.geometry {
                Geometry::Hyperbolic => -1.0,
                Geometry::Euclidean => 1.0,
            };
            let q: Vec<f64> = (user_row.iter().enumerate())
                .map(|(j, x)| if j == 0 { x.to_f64() } else { flip * x.to_f64() })
                .collect();
            let q_norm = ops::norm(&q);
            // Rank clusters by centroid key, ascending (smaller key =
            // closer), ties toward the smaller cluster id.
            let mut order: Vec<(f64, usize)> = (0..clusters)
                .map(|c| match self.geometry {
                    Geometry::Hyperbolic => (ops::dot(&q, self.centroids.row(c)), c),
                    Geometry::Euclidean => (ops::dist(&q, self.centroids.row(c)), c),
                })
                .collect();
            order.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut probes = order.into_iter().take(nprobe);
            table.top_k_runs(user_row, seen, k, keys, |best: &KeyTopK<S>| {
                for (key, c) in probes.by_ref() {
                    if let Some(worst) = best.kth_score() {
                        // Best score any member of `c` can reach, from the
                        // radius bound, with a small slack so f64 bound vs
                        // (possibly f32) exact score can only under-prune,
                        // never over-prune.
                        let ub = match self.geometry {
                            Geometry::Hyperbolic => {
                                -ops::acosh_clamped(key - q_norm * self.radii[c])
                            }
                            Geometry::Euclidean => -(key - self.radii[c]).max(0.0),
                        };
                        if ub + ub.abs() * 1e-6 + 1e-9 < worst {
                            report.clusters_pruned += 1;
                            continue;
                        }
                    }
                    report.clusters_probed += 1;
                    return Some(self.offsets[c]..self.offsets[c + 1]);
                }
                None
            })
        };
        report.items_scored = scored;
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
        let (idx, table) = ClusterIndex::build_with_table(
            &items,
            Geometry::Hyperbolic,
            &IndexConfig { clusters: 16, ..IndexConfig::default() },
        );
        let seen = vec![3usize, 77, 200, 480];
        let mut keys = vec![0.0; items.rows()];
        for u in 0..users.rows() {
            let (got, scores, report) = idx.search(&table, users.row(u), &seen, 10, 16, &mut keys);
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
        let (idx, table) = ClusterIndex::build_with_table(
            &items,
            Geometry::Hyperbolic,
            &IndexConfig { clusters: 48, ..IndexConfig::default() },
        );
        let mut hits = 0usize;
        let mut total = 0usize;
        let mut scanned = 0.0;
        let mut keys = vec![0.0; items.rows()];
        for u in 0..users.rows() {
            let exact = full_scan(users.row(u), &items, &[], 10);
            let (approx, _, report) = idx.search(&table, users.row(u), &[], 10, 12, &mut keys);
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
        let (a, table) = ClusterIndex::build_with_table(&items, Geometry::Euclidean, &cfg);
        let (b, again) = ClusterIndex::build_with_table(&items, Geometry::Euclidean, &cfg);
        assert_eq!(table, again);
        assert_eq!(a.offsets, b.offsets);
        for (x, y) in a.centroids.as_slice().iter().zip(b.centroids.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        let users = Embedding::<f64>::normal(5, 9, 1.0, &mut rng);
        let mut keys = vec![0.0; items.rows()];
        for u in 0..users.rows() {
            let (got, _, _) = a.search(&table, users.row(u), &[], 5, 10, &mut keys);
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
