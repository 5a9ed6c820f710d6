//! Read-only serving state: the per-dataset [`ServeContext`] (seen-item
//! filter, popularity prior, canary users) and the hot-swappable
//! [`ModelSnapshot`] behind a [`SnapshotStore`].
//!
//! The exact path is byte-identical to the offline evaluator: both call
//! the model's [`Ranker::top_k`] — LogiRec's one exact scan
//! (`logirec_core::scan`: a key pass over the item table, distances for
//! the tie band only) — with the same Train ∪ Validation mask
//! ([`SeenFilter::eval_mask`]), so a response can be replayed against
//! `evaluate` and compared bit for bit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use logirec_core::stream::{self, FoldInOptions};
use logirec_core::{FilterError, LogiRec, LogiRecConfig, Precision, SeenFilter};
use logirec_data::{Dataset, InteractionSet};
use logirec_eval::Ranker;
use logirec_linalg::Scalar;

use crate::index::{ClusterIndex, IndexConfig, ProbeReport};

/// One approx-tier answer: ranked item ids, their exact scores, and the
/// probe accounting for that search.
pub type ApproxAnswer = (Vec<usize>, Vec<f64>, ProbeReport);

/// Dataset-derived serving state shared by every snapshot: who has seen
/// what, the popularity prior used for degraded responses, and the canary
/// users every candidate snapshot must score sanely before going live.
#[derive(Debug, Clone)]
pub struct ServeContext {
    train: InteractionSet,
    seen: SeenFilter,
    /// All item ids, most train-popular first (ties toward smaller id).
    popularity: Vec<usize>,
    /// Fallback scores aligned with `popularity` (the item's train
    /// interaction count as `f64`), precomputed once at context build so
    /// the degraded path is a straight scan with no per-item gather.
    pop_scores: Vec<f64>,
    canaries: Vec<usize>,
}

/// How many canary users a candidate snapshot is probed against.
const N_CANARIES: usize = 8;

impl ServeContext {
    /// Builds the context from a dataset. The seen mask is Train ∪
    /// Validation — the mask offline test-split evaluation applies — so the
    /// exact path reproduces `evaluate` responses byte for byte.
    pub fn from_dataset(ds: &Dataset) -> Self {
        let n_items = ds.n_items();
        let mut item_degree = vec![0usize; n_items];
        for (v, d) in item_degree.iter_mut().enumerate() {
            *d = ds.train.users_of(v).len();
        }
        let mut popularity: Vec<usize> = (0..n_items).collect();
        popularity.sort_by(|&a, &b| item_degree[b].cmp(&item_degree[a]).then(a.cmp(&b)));
        let pop_scores = popularity.iter().map(|&v| item_degree[v] as f64).collect();
        let n_users = ds.n_users();
        let step = (n_users / N_CANARIES).max(1);
        let canaries = (0..n_users).step_by(step).take(N_CANARIES).collect();
        Self {
            train: ds.train.clone(),
            seen: SeenFilter::eval_mask(ds),
            popularity,
            pop_scores,
            canaries,
        }
    }

    /// Users the context covers.
    pub fn n_users(&self) -> usize {
        self.seen.n_users()
    }

    /// Items the context covers.
    pub fn n_items(&self) -> usize {
        self.seen.n_items()
    }

    /// The training interactions snapshots propagate over.
    pub fn train(&self) -> &InteractionSet {
        &self.train
    }

    /// The Train ∪ Validation seen-item filter.
    pub fn seen(&self) -> &SeenFilter {
        &self.seen
    }

    /// The users every candidate snapshot is probed against.
    pub fn canaries(&self) -> &[usize] {
        &self.canaries
    }

    /// The degraded response: the `k` most train-popular items the user has
    /// not already interacted with, scored by raw interaction count. Needs
    /// no model at all, so it survives any snapshot problem. Both the
    /// popularity ranking and its score column are precomputed at context
    /// build, so this is a bounded scan over two parallel arrays — no
    /// sorting or per-item degree gather on the degraded path.
    pub fn fallback_top_k(&self, u: usize, k: usize) -> Result<(Vec<usize>, Vec<f64>), FilterError> {
        let seen = self.seen.seen_of(u)?;
        Ok(self
            .popularity
            .iter()
            .zip(&self.pop_scores)
            .filter(|&(v, _)| seen.binary_search(v).is_err())
            .take(k)
            .unzip())
    }

    /// The degraded response for a user the context does not know (a
    /// signup that has not been folded in yet): the `k` most train-popular
    /// items with no seen-mask, since there is no history to mask.
    pub fn fallback_top_k_unfiltered(&self, k: usize) -> (Vec<usize>, Vec<f64>) {
        let n = k.min(self.popularity.len());
        (self.popularity[..n].to_vec(), self.pop_scores[..n].to_vec())
    }

    /// A copy of this context grown by one user whose seen items are
    /// `positives`. The training interactions keep their edges but gain
    /// the row — the new user is **isolated** in the propagation graph, so
    /// re-propagating a folded model leaves every pre-existing final
    /// embedding byte-identical (see `logirec_core::stream`).
    pub fn with_new_user(&self, positives: &[usize]) -> Result<Self, FilterError> {
        let mut next = self.clone();
        let pairs: Vec<(usize, usize)> = self.train.iter_pairs().collect();
        next.train = InteractionSet::from_pairs(self.n_users() + 1, self.n_items(), &pairs);
        next.seen.push_user(positives)?;
        Ok(next)
    }

    /// A copy of this context grown by one item, marked seen for each of
    /// `interacting_users`. The new item joins the popularity ranking with
    /// a zero interaction count (it sorts after every existing item, which
    /// is where a brand-new item belongs in a popularity prior).
    pub fn with_new_item(&self, interacting_users: &[usize]) -> Result<Self, FilterError> {
        let mut next = self.clone();
        let pairs: Vec<(usize, usize)> = self.train.iter_pairs().collect();
        next.train = InteractionSet::from_pairs(self.n_users(), self.n_items() + 1, &pairs);
        let v = next.seen.push_item();
        for &u in interacting_users {
            next.seen.record_seen(u, v)?;
        }
        // Zero count and the largest id: appending keeps the
        // (count desc, id asc) order invariant.
        next.popularity.push(v);
        next.pop_scores.push(0.0);
        Ok(next)
    }
}

/// The model behind a snapshot, at its working precision. The one generic
/// impl for `LogiRec<S>` serves both precisions, so
/// [`ModelSnapshot::build_with_index`] is the only code that dispatches on
/// [`Precision`]. Scores surface as `f64` at both (the `Ranker` contract),
/// so the protocol layer is precision-blind.
trait ServedModel: Ranker + std::fmt::Debug + Send {
    fn config(&self) -> &LogiRecConfig;
    /// Shape and finiteness checks against `ctx`, then forward propagation
    /// over its training graph and the exact-scan table build.
    fn prepare(&mut self, ctx: &ServeContext) -> Result<(), String>;
    fn build_index(&self, cfg: &IndexConfig) -> ClusterIndex;
    fn search(
        &self,
        index: &ClusterIndex,
        u: usize,
        seen: &[usize],
        k: usize,
        nprobe: usize,
    ) -> ApproxAnswer;
    /// A clone of the model grown by one folded-in entity, and its id.
    fn fold_in(
        &self,
        item: bool,
        positives: &[usize],
        opts: &FoldInOptions,
    ) -> Result<(Box<dyn ServedModel>, usize), String>;
}

impl<S: Scalar> ServedModel for LogiRec<S> {
    fn config(&self) -> &LogiRecConfig {
        &self.cfg
    }

    fn prepare(&mut self, ctx: &ServeContext) -> Result<(), String> {
        if self.items.rows() != ctx.n_items() {
            return Err(format!(
                "model has {} items but the dataset has {}",
                self.items.rows(),
                ctx.n_items()
            ));
        }
        if self.users.rows() != ctx.n_users() {
            return Err(format!(
                "model has {} users but the dataset has {}",
                self.users.rows(),
                ctx.n_users()
            ));
        }
        if !self.all_finite() {
            return Err("model has non-finite parameters".to_string());
        }
        self.propagate(ctx.train());
        // Build the exact-scan table now, so the first request served
        // from this snapshot does not pay for it.
        self.scan_table();
        Ok(())
    }

    fn build_index(&self, cfg: &IndexConfig) -> ClusterIndex {
        ClusterIndex::build(&self.state().item_final, self.cfg.geometry, cfg)
    }

    fn search(
        &self,
        index: &ClusterIndex,
        u: usize,
        seen: &[usize],
        k: usize,
        nprobe: usize,
    ) -> ApproxAnswer {
        let st = self.state();
        index.search(st.user_final.row(u), &st.item_final, seen, k, nprobe)
    }

    fn fold_in(
        &self,
        item: bool,
        positives: &[usize],
        opts: &FoldInOptions,
    ) -> Result<(Box<dyn ServedModel>, usize), String> {
        let mut grown = self.clone();
        let report = if item {
            stream::fold_in_item(&mut grown, positives, opts)
        } else {
            stream::fold_in_user(&mut grown, positives, opts)
        }
        .map_err(|e| format!("fold-in: {e}"))?;
        Ok((Box::new(grown), report.id))
    }
}

/// An immutable, fully validated, ready-to-score model snapshot. Built once
/// (propagation + canary probe happen in [`ModelSnapshot::build`], off the
/// request path), then shared read-only behind an `Arc` — requests never
/// lock or mutate it.
#[derive(Debug)]
pub struct ModelSnapshot {
    version: u64,
    precision: Precision,
    source: String,
    model: Box<dyn ServedModel>,
    /// The serving context this snapshot was validated against. Owned (as
    /// a shared handle) so model, index, and context always swap as one
    /// unit — a fold-in that grows the tables publishes a grown context in
    /// the same atomic swap, and a request can never score a snapshot
    /// through a context with mismatched shapes.
    ctx: Arc<ServeContext>,
    /// The approximate-retrieval index over this snapshot's item table,
    /// when the server was configured with one. Owned by the snapshot so a
    /// hot swap replaces model and index atomically — they can never skew.
    index: Option<ClusterIndex>,
    /// The config the index was built with, carried so a reload rebuilds
    /// the candidate's index with identical knobs.
    index_cfg: Option<IndexConfig>,
}

/// How many top items the build-time index canary compares bit-for-bit
/// against the exact scan.
const INDEX_CANARY_K: usize = 10;

impl ModelSnapshot {
    /// Validates `model` against `ctx` and prepares it for serving:
    /// shape check, finiteness check, forward propagation over the training
    /// graph, then a canary probe (every canary user must produce finite
    /// scores for every item). Any failure returns the reason instead of a
    /// snapshot — the caller keeps serving its last-good snapshot.
    pub fn build(
        model: LogiRec,
        precision: Precision,
        ctx: &Arc<ServeContext>,
        source: impl Into<String>,
    ) -> Result<Self, String> {
        Self::build_with_index(model, precision, ctx, source, None)
    }

    /// [`ModelSnapshot::build`] plus an approximate-retrieval index.
    ///
    /// The index is built off the request path, right here during snapshot
    /// validation, and validated with its own canary: for every canary
    /// user, an exhaustive probe (`nprobe = n_clusters`) must reproduce the
    /// exact tier's top-K **bit for bit**. A failure rejects the whole
    /// candidate — under the `Reloader` that means rollback, so a bad index
    /// can never go live, exactly like a bad model.
    pub fn build_with_index(
        model: LogiRec,
        precision: Precision,
        ctx: &Arc<ServeContext>,
        source: impl Into<String>,
        index_cfg: Option<IndexConfig>,
    ) -> Result<Self, String> {
        let model: Box<dyn ServedModel> = match precision {
            Precision::F64 => Box::new(model),
            Precision::F32 => Box::new(model.cast::<f32>()),
        };
        Self::assemble(model, precision, ctx, source.into(), index_cfg)
    }

    /// Prepares `model` against `ctx`, builds the index when configured,
    /// and runs both canary probes (see [`ModelSnapshot::build_with_index`]).
    fn assemble(
        mut model: Box<dyn ServedModel>,
        precision: Precision,
        ctx: &Arc<ServeContext>,
        source: String,
        index_cfg: Option<IndexConfig>,
    ) -> Result<Self, String> {
        model.prepare(ctx)?;
        let index = index_cfg.as_ref().map(|cfg| model.build_index(cfg));
        let snap = Self {
            version: 0,
            precision,
            source,
            model,
            ctx: Arc::clone(ctx),
            index,
            index_cfg,
        };
        let mut scores = vec![0.0f64; ctx.n_items()];
        for &u in ctx.canaries() {
            snap.score_user(u, &mut scores);
            if let Some(v) = scores.iter().position(|s| !s.is_finite()) {
                return Err(format!("canary user {u} scores item {v} non-finite"));
            }
        }
        if let Some(index) = &snap.index {
            let mut scratch = Vec::new();
            for &u in ctx.canaries() {
                let (exact_items, exact_scores) = snap
                    .top_k(u, INDEX_CANARY_K, &mut scratch)
                    .map_err(|e| format!("index canary user {u}: {e}"))?;
                let (items, scores, _) = snap
                    .approx_top_k(u, INDEX_CANARY_K, Some(index.clusters()))
                    .map_err(|e| format!("index canary user {u}: {e}"))?
                    .expect("index present");
                if items != exact_items
                    || scores.iter().zip(&exact_scores).any(|(a, b)| a.to_bits() != b.to_bits())
                {
                    return Err(format!(
                        "index canary user {u}: exhaustive probe diverged from the exact scan"
                    ));
                }
            }
        }
        Ok(snap)
    }

    /// The version the owning [`SnapshotStore`] assigned (0 before install).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Working precision of the scoring path.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Where the snapshot came from (file path, or a caller-chosen label).
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The model hyperparameters (used as the base config when reloading).
    pub fn config(&self) -> &LogiRecConfig {
        self.model.config()
    }

    /// The approximate-retrieval index, when one was built.
    pub fn index(&self) -> Option<&ClusterIndex> {
        self.index.as_ref()
    }

    /// The index configuration this snapshot was built with (a reload
    /// rebuilds the candidate's index with the same knobs).
    pub fn index_config(&self) -> Option<IndexConfig> {
        self.index_cfg
    }

    /// The serving context this snapshot was validated against. Requests
    /// must use this (not a server-wide context) so that a snapshot whose
    /// fold-ins grew the tables is always paired with its grown masks.
    pub fn ctx(&self) -> &Arc<ServeContext> {
        &self.ctx
    }

    /// Folds one brand-new entity into a **candidate** snapshot: clones
    /// the frozen model, runs the deterministic new-row-only optimization
    /// (`logirec_core::stream`), grows the serving context, and rebuilds
    /// the snapshot through the full validation pipeline — propagation,
    /// canary probe, and index rebuild in lockstep. The current snapshot
    /// is untouched; on any failure (non-finite row, out-of-range
    /// positives, canary failure) the error is returned and the caller
    /// keeps serving last-good.
    ///
    /// `steps` / `lr` override the fold-in defaults when given. Returns
    /// the candidate and the id the new entity was assigned.
    pub fn fold_in(
        &self,
        item: bool,
        positives: &[usize],
        steps: Option<usize>,
        lr: Option<f64>,
    ) -> Result<(Self, usize), String> {
        let mut opts = FoldInOptions::for_config(self.config());
        if let Some(s) = steps {
            opts.steps = s;
        }
        if let Some(l) = lr {
            opts.lr = l;
        }
        // Fold at the serving precision, so the appended row is exactly
        // what this snapshot's scoring path would have produced.
        let (model, new_id) = self.model.fold_in(item, positives, &opts)?;
        let grown = if item {
            self.ctx.with_new_item(positives)
        } else {
            self.ctx.with_new_user(positives)
        }
        .map_err(|e| format!("fold-in context: {e}"))?;
        let kind = if item { "item" } else { "user" };
        let source = format!("{} + fold_in {kind} {new_id}", self.source);
        let snap = Self::assemble(model, self.precision, &Arc::new(grown), source, self.index_cfg)?;
        Ok((snap, new_id))
    }

    /// The approximate top-K response for `u`: rank clusters, scan the
    /// `nprobe` nearest (default: the index's configured probe count),
    /// exactly re-rank every unseen member through the same Train ∪
    /// Validation mask as the exact tier. Returns `Ok(None)` when the
    /// snapshot has no index. With `nprobe ≥ n_clusters` the result is
    /// bit-identical to [`ModelSnapshot::top_k`].
    pub fn approx_top_k(
        &self,
        u: usize,
        k: usize,
        nprobe: Option<usize>,
    ) -> Result<Option<ApproxAnswer>, FilterError> {
        let Some(index) = &self.index else { return Ok(None) };
        let seen = self.ctx.seen().seen_of(u)?;
        let nprobe = nprobe.unwrap_or_else(|| index.nprobe());
        Ok(Some(self.model.search(index, u, seen, k, nprobe)))
    }

    /// Scores every item for `u` into `out` (higher is better), exactly as
    /// the offline evaluator would.
    pub fn score_user(&self, u: usize, out: &mut [f64]) {
        self.model.score_user(u, out);
    }

    /// The exact top-K response for `u`: the model's [`Ranker::top_k`]
    /// (the exact scan, with `scratch` as its key buffer) under the
    /// Train ∪ Validation mask — what scoring every item, masking, and
    /// selecting with `top_k_indices` returns, bit for bit. Returns
    /// `(items, scores)` best-first.
    pub fn top_k(
        &self,
        u: usize,
        k: usize,
        scratch: &mut Vec<f64>,
    ) -> Result<(Vec<usize>, Vec<f64>), FilterError> {
        // Validate the user before touching the embedding tables — the
        // model panics on out-of-range rows.
        let seen = self.ctx.seen().seen_of(u)?;
        scratch.clear();
        scratch.resize(self.ctx.n_items(), 0.0);
        Ok(self.model.top_k(u, &[seen], k, scratch))
    }
}

/// The atomically hot-swappable current snapshot. Readers take a cheap
/// `Arc` clone and keep scoring against it even while a newer snapshot is
/// installed; versions are assigned monotonically at install time.
#[derive(Debug)]
pub struct SnapshotStore {
    current: Mutex<Arc<ModelSnapshot>>,
    next_version: AtomicU64,
}

impl SnapshotStore {
    /// Installs `initial` as version 1.
    pub fn new(mut initial: ModelSnapshot) -> Self {
        initial.version = 1;
        if let Some(index) = &mut initial.index {
            index.set_model_version(1);
        }
        Self { current: Mutex::new(Arc::new(initial)), next_version: AtomicU64::new(2) }
    }

    /// The live snapshot (an `Arc` clone; never blocks on a swap for long).
    pub fn get(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current.lock().expect("snapshot store poisoned"))
    }

    /// Atomically replaces the live snapshot, assigning and returning the
    /// next version. In-flight requests finish on the snapshot they
    /// already hold.
    pub fn swap(&self, mut snap: ModelSnapshot) -> u64 {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        snap.version = version;
        // The index (when present) is stamped in lockstep: one version
        // covers the model/index pair, because they swap as one unit.
        if let Some(index) = &mut snap.index {
            index.set_model_version(version);
        }
        *self.current.lock().expect("snapshot store poisoned") = Arc::new(snap);
        version
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_data::{DatasetSpec, Scale, Split};
    use logirec_eval::ranking::top_k_indices;

    fn fixture() -> (Dataset, Arc<ServeContext>, ModelSnapshot) {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(11);
        let ctx = Arc::new(ServeContext::from_dataset(&ds));
        let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
        let snap = ModelSnapshot::build(model, Precision::F64, &ctx, "test").expect("valid");
        (ds, ctx, snap)
    }

    #[test]
    fn exact_top_k_matches_the_offline_evaluator_masking() {
        let (ds, _ctx, snap) = fixture();
        let mut scratch = Vec::new();
        let (items, scores) = snap.top_k(0, 10, &mut scratch).expect("in range");
        // Replay the evaluator's inline masking by hand.
        let mut expected = vec![0.0f64; ds.n_items()];
        snap.score_user(0, &mut expected);
        for &v in ds.train.items_of(0) {
            expected[v] = f64::NEG_INFINITY;
        }
        for &v in ds.split(Split::Validation).items_of(0) {
            expected[v] = f64::NEG_INFINITY;
        }
        assert_eq!(items, top_k_indices(&expected, 10));
        for (&v, &s) in items.iter().zip(&scores) {
            assert!(s.to_bits() == expected[v].to_bits(), "score for item {v} not bit-exact");
        }
    }

    #[test]
    fn fallback_is_popularity_ordered_and_never_recommends_seen_items() {
        let (ds, ctx, _) = fixture();
        let (items, scores) = ctx.fallback_top_k(0, 10).expect("in range");
        assert!(!items.is_empty());
        for w in scores.windows(2) {
            assert!(w[0] >= w[1], "fallback scores must be non-increasing");
        }
        for &v in &items {
            assert!(!ds.train.items_of(0).contains(&v));
        }
    }

    #[test]
    fn fallback_with_zero_k_returns_nothing() {
        let (_, ctx, _) = fixture();
        assert_eq!(ctx.fallback_top_k(0, 0).expect("in range"), (vec![], vec![]));
        let (items, _) = ctx.fallback_top_k(0, 3).expect("in range");
        assert_eq!(items.len(), 3);
    }

    #[test]
    fn build_rejects_non_finite_models() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(11);
        let ctx = Arc::new(ServeContext::from_dataset(&ds));
        let mut model = LogiRec::new(LogiRecConfig::test_config(), &ds);
        model.items.row_mut(0)[0] = f64::NAN;
        let err = ModelSnapshot::build(model, Precision::F64, &ctx, "bad").unwrap_err();
        assert!(err.contains("non-finite"), "{err}");
    }

    #[test]
    fn store_assigns_monotonic_versions_and_swaps_atomically() {
        let (_, ctx, snap) = fixture();
        let store = SnapshotStore::new(snap);
        assert_eq!(store.get().version(), 1);
        let held = store.get();
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(11);
        let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
        let next = ModelSnapshot::build(model, Precision::F32, &ctx, "next").expect("valid");
        assert_eq!(store.swap(next), 2);
        assert_eq!(store.get().version(), 2);
        assert_eq!(store.get().precision(), Precision::F32);
        // The reader that grabbed version 1 still holds a working snapshot.
        assert_eq!(held.version(), 1);
        let mut scratch = Vec::new();
        held.top_k(0, 5, &mut scratch).expect("old snapshot still scores");
    }

    #[test]
    fn out_of_range_user_is_a_typed_error_not_a_panic() {
        let (_, ctx, snap) = fixture();
        let mut scratch = Vec::new();
        assert!(snap.top_k(ctx.n_users() + 7, 5, &mut scratch).is_err());
        assert!(ctx.fallback_top_k(ctx.n_users() + 7, 5).is_err());
        // The unknown-user degraded path still answers with popularity.
        let (items, _) = ctx.fallback_top_k_unfiltered(5);
        assert_eq!(items.len(), 5);
    }

    #[test]
    fn fold_in_candidate_grows_context_and_serves_the_new_user() {
        let (ds, ctx, snap) = fixture();
        let new_user = ctx.n_users();
        let positives = vec![1usize, 4, 9];
        let (candidate, id) = snap.fold_in(false, &positives, None, None).expect("fold in");
        assert_eq!(id, new_user);
        assert_eq!(candidate.ctx().n_users(), ds.n_users() + 1);
        // The original snapshot and context are untouched.
        assert_eq!(ctx.n_users(), ds.n_users());
        let mut scratch = Vec::new();
        assert!(snap.top_k(new_user, 5, &mut scratch).is_err());
        // The candidate serves the folded user, with positives masked.
        let (items, _) = candidate.top_k(new_user, 10, &mut scratch).expect("servable");
        assert_eq!(items.len(), 10);
        for &v in &positives {
            assert!(!items.contains(&v), "positive {v} must be masked");
        }
        // Pre-existing users score identically on both snapshots.
        let (old_items, old_scores) = snap.top_k(0, 10, &mut scratch).expect("in range");
        let (new_items, new_scores) = candidate.top_k(0, 10, &mut scratch).expect("in range");
        assert_eq!(old_items, new_items);
        for (a, b) in old_scores.iter().zip(&new_scores) {
            assert_eq!(a.to_bits(), b.to_bits(), "old user scores must be bit-identical");
        }
    }

    #[test]
    fn fold_in_rejects_divergent_rows_and_bad_positives() {
        let (_, _ctx, snap) = fixture();
        // An absurd learning rate (gradient ascent) drives the new row far
        // off the frozen table's span; the candidate is rejected and the
        // current snapshot stays usable.
        let err = snap.fold_in(false, &[1, 4], Some(60), Some(1000.0)).unwrap_err();
        assert!(err.contains("fold-in"), "{err}");
        let err = snap.fold_in(false, &[usize::MAX], None, None).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        let mut scratch = Vec::new();
        snap.top_k(0, 5, &mut scratch).expect("last-good still serves");
    }

    #[test]
    fn fold_in_item_grows_the_catalog_and_masks_it_for_its_users() {
        let (ds, _ctx, snap) = fixture();
        let (candidate, id) = snap.fold_in(true, &[0, 3], None, None).expect("fold in");
        assert_eq!(id, ds.n_items());
        assert_eq!(candidate.ctx().n_items(), ds.n_items() + 1);
        let mut scratch = Vec::new();
        // The interacting users have the new item masked; others may see it.
        let (items, _) = candidate.top_k(0, ds.n_items(), &mut scratch).expect("in range");
        assert!(!items.contains(&id), "item folded for user 0 must be masked");
    }
}
