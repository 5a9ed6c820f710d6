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
use logirec_core::{
    FilterError, ForwardState, Geometry, LogiRec, LogiRecConfig, Precision, ScanTable, SeenFilter,
};
use logirec_data::{Dataset, InteractionSet};
use logirec_eval::Ranker;
use logirec_hyperbolic::lorentz;
use logirec_linalg::{ops, CowVec, Scalar};

use crate::index::{ClusterIndex, IndexConfig, ProbeReport};

/// One approx-tier answer: ranked item ids, their exact scores, and the
/// probe accounting for that search.
pub type ApproxAnswer = (Vec<usize>, Vec<f64>, ProbeReport);

/// Dataset-derived serving state shared by every snapshot: who has seen
/// what, the popularity prior used for degraded responses, and the canary
/// users every candidate snapshot built from a file, or grown by an item
/// fold-in, must score sanely before going live.
///
/// Every table is copy-on-write (a [`CowVec`] underneath, the canaries an
/// `Arc`), so a clone costs a few reference counts, and growing a clone by
/// one user appends in place (see [`Self::with_new_user`]).
#[derive(Debug, Clone)]
pub struct ServeContext {
    train: InteractionSet,
    seen: SeenFilter,
    /// All item ids, most train-popular first (ties toward smaller id).
    popularity: CowVec<usize>,
    /// Fallback scores aligned with `popularity` (the item's train
    /// interaction count as `f64`), precomputed once at context build so
    /// the degraded path is a straight scan with no per-item gather.
    pop_scores: CowVec<f64>,
    canaries: Arc<[usize]>,
}

/// How many canary users a candidate snapshot is probed against.
const N_CANARIES: usize = 8;

/// The room, in bytes, that each table a user fold-in appends to (the
/// user finals, the seen filter's two arrays and the training offsets)
/// reserves when a context or snapshot is built: about 129,000 signups'
/// finals at d = 64 in `f64`. Room is address space, not memory: the
/// system allocator maps a request this large on its own (glibc maps any
/// request of 32 MiB or more), and the OS backs a page only when a fold-in
/// first writes it. A chain of fold-ins then appends in place from the
/// first signup on, copying no table and freeing no buffer while the live
/// snapshot serves. Without the room, the first fold-in copies the exactly
/// sized tables a build makes and each doubling copies the user finals
/// again; whether the heap then reuses or returns the freed copies depends
/// on timing, so a server's peak memory would differ from run to run by
/// whole tables.
const FOLD_IN_ROOM_BYTES: usize = 64 << 20;

/// [`FOLD_IN_ROOM_BYTES`] in elements of `T`.
fn fold_in_room<T>() -> usize {
    FOLD_IN_ROOM_BYTES / std::mem::size_of::<T>()
}

impl ServeContext {
    /// Builds the context from a dataset. The seen mask is Train ∪
    /// Validation — the mask offline test-split evaluation applies — so the
    /// exact path reproduces `evaluate` responses byte for byte. The tables
    /// a user fold-in appends to get `FOLD_IN_ROOM_BYTES` of room.
    pub fn from_dataset(ds: &Dataset) -> Self {
        let n_items = ds.n_items();
        let mut item_degree = vec![0usize; n_items];
        for (v, d) in item_degree.iter_mut().enumerate() {
            *d = ds.train.users_of(v).len();
        }
        let mut popularity: Vec<usize> = (0..n_items).collect();
        popularity.sort_by(|&a, &b| item_degree[b].cmp(&item_degree[a]).then(a.cmp(&b)));
        let pop_scores: Vec<f64> = popularity.iter().map(|&v| item_degree[v] as f64).collect();
        let n_users = ds.n_users();
        let step = (n_users / N_CANARIES).max(1);
        let canaries: Vec<usize> = (0..n_users).step_by(step).take(N_CANARIES).collect();
        let mut train = ds.train.clone();
        train.reserve_users(fold_in_room::<usize>());
        let mut seen = SeenFilter::eval_mask(ds);
        seen.reserve_users(fold_in_room::<usize>(), fold_in_room::<usize>());
        Self {
            train,
            seen,
            popularity: popularity.into(),
            pop_scores: pop_scores.into(),
            canaries: canaries.into(),
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

    /// The training interactions a snapshot built from a file propagates
    /// over, grown by an empty row per folded-in entity (fold-in candidates
    /// carry their extended forward state instead).
    pub fn train(&self) -> &InteractionSet {
        &self.train
    }

    /// The Train ∪ Validation seen-item filter.
    pub fn seen(&self) -> &SeenFilter {
        &self.seen
    }

    /// The users every candidate snapshot built from a file, or grown by
    /// an item fold-in, is probed against.
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
            .zip(self.pop_scores.iter())
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
    /// `positives`. The copy shares every table with this context: the
    /// user's seen list and two offsets (the filter's and the training
    /// interactions') are appended in place, past what this context sees.
    /// The training interactions gain an empty row and keep their edges —
    /// the new user is **isolated** in the propagation graph, which is why
    /// a fold-in publishes its extended forward state instead of
    /// re-propagating: propagating over this graph would leave every
    /// pre-existing final embedding byte-identical and reproduce the new
    /// row bit for bit (see `logirec_core::stream`).
    pub fn with_new_user(&self, positives: &[usize]) -> Result<Self, FilterError> {
        let mut next = self.clone();
        next.seen.push_user(positives)?;
        next.train.push_user();
        Ok(next)
    }

    /// A copy of this context grown by one item, marked seen for each of
    /// `interacting_users` (which copies the seen filter's item array). The
    /// training interactions gain an empty item column, as in
    /// [`Self::with_new_user`]. The new item joins the popularity ranking
    /// with a zero interaction count (it sorts after every existing item,
    /// which is where a brand-new item belongs in a popularity prior).
    pub fn with_new_item(&self, interacting_users: &[usize]) -> Result<Self, FilterError> {
        let mut next = self.clone();
        let v = next.seen.push_item();
        next.train.push_item();
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

/// What a snapshot serves: the finals of the model, at its working
/// precision — its [`ForwardState`], which ranks on its own. The parameter
/// tables are dropped once propagation has produced the state. The one
/// generic impl for `ForwardState<S>` serves both precisions, so
/// [`ModelSnapshot::build_with_index`] is the only code that dispatches on
/// [`Precision`]. Scores surface as `f64` at both (the `Ranker` contract),
/// so the protocol layer is precision-blind.
trait ServedModel: Ranker + std::fmt::Debug + Send {
    /// Users and items the finals cover.
    fn shape(&self) -> (usize, usize);
    /// True when every final is finite.
    fn all_finite(&self) -> bool;
    /// True when user `u`'s final is finite and, in the hyperbolic
    /// geometry, on the sheet.
    fn user_final_ok(&self, geometry: Geometry, u: usize) -> bool;
    /// Readies the one exact-scan table: with `index`, k-means and the
    /// table in cluster order (the index is returned), else the item-order
    /// table unless one is installed already (a user fold-in shares its
    /// parent's, index and all).
    fn prepare(&mut self, geometry: Geometry, index: Option<&IndexConfig>) -> Option<ClusterIndex>;
    /// The approx tier's walk over this model's scan table, which `index`
    /// was built with.
    fn search(
        &self,
        index: &ClusterIndex,
        u: usize,
        seen: &[usize],
        k: usize,
        nprobe: usize,
    ) -> ApproxAnswer;
    /// A clone of the finals grown by one folded-in entity's final, and
    /// its id. The clone shares every table it does not append to.
    fn fold_in(
        &self,
        cfg: &LogiRecConfig,
        item: bool,
        positives: &[usize],
        opts: &FoldInOptions,
    ) -> Result<(Box<dyn ServedModel>, usize), String>;
    /// Where `[user finals, item finals, scan table]` live: two live
    /// snapshots share a table exactly when they hold it at one address.
    fn table_addresses(&self) -> [*const (); 3];
}

impl<S: Scalar> ServedModel for ForwardState<S> {
    fn shape(&self) -> (usize, usize) {
        (self.user_final.rows(), self.item_final.rows())
    }

    fn all_finite(&self) -> bool {
        self.user_final.all_finite() && self.item_final.all_finite()
    }

    fn user_final_ok(&self, geometry: Geometry, u: usize) -> bool {
        let row = self.user_final.row(u);
        ops::all_finite(row) && (geometry == Geometry::Euclidean || lorentz::on_sheet(row))
    }

    fn prepare(&mut self, geometry: Geometry, index: Option<&IndexConfig>) -> Option<ClusterIndex> {
        // Build the exact-scan table now, so the first request served
        // from this snapshot does not pay for it. An indexed snapshot's
        // one table is in cluster order, built with its index.
        let index = index.map(|cfg| {
            let (index, table) = ClusterIndex::build_with_table(&self.item_final, geometry, cfg);
            self.set_scan_table(table);
            index
        });
        self.scan_table();
        index
    }

    fn search(
        &self,
        index: &ClusterIndex,
        u: usize,
        seen: &[usize],
        k: usize,
        nprobe: usize,
    ) -> ApproxAnswer {
        let user = self.user_final.row(u);
        let mut keys = vec![0.0; index.n_items()];
        index.search(self.scan_table(), user, seen, k, nprobe, &mut keys)
    }

    fn fold_in(
        &self,
        cfg: &LogiRecConfig,
        item: bool,
        positives: &[usize],
        opts: &FoldInOptions,
    ) -> Result<(Box<dyn ServedModel>, usize), String> {
        let failed = |e: stream::FoldInError| format!("fold-in: {e}");
        let mut grown = self.clone();
        let id = if item {
            let new = stream::new_item_row(cfg, &self.user_final, positives, opts);
            grown.push_item_row(cfg, &new.map_err(failed)?.row)
        } else {
            let new = stream::new_user_row(cfg, &self.item_final, positives, opts);
            grown.push_user_row(cfg, &new.map_err(failed)?.row)
        };
        Ok((Box::new(grown), id))
    }

    fn table_addresses(&self) -> [*const (); 3] {
        [
            self.user_final.as_slice().as_ptr().cast(),
            self.item_final.as_slice().as_ptr().cast(),
            (self.scan_table() as *const ScanTable<S>).cast(),
        ]
    }
}

/// Where a snapshot came from, in bounded space however long its fold-in
/// chain: the source it was built from, how many fold-ins grew it since,
/// and the last entity folded in.
#[derive(Debug)]
struct Lineage {
    base: Arc<str>,
    fold_ins: u64,
    /// `base`, or `<base> + <n> fold-ins (last: <entity> <id>)`.
    source: String,
}

impl Lineage {
    fn new(base: String) -> Self {
        Self { base: base.as_str().into(), fold_ins: 0, source: base }
    }

    /// The lineage of a snapshot grown from this one by folding in `kind`
    /// `id`.
    fn folded(&self, kind: &str, id: usize) -> Self {
        let fold_ins = self.fold_ins + 1;
        let s = if fold_ins == 1 { "" } else { "s" };
        let source = format!("{} + {fold_ins} fold-in{s} (last: {kind} {id})", self.base);
        Self { base: Arc::clone(&self.base), fold_ins, source }
    }
}

/// An immutable, fully validated, ready-to-score model snapshot. Built once
/// (propagation + canary probe happen in [`ModelSnapshot::build`], or
/// validation of a grown candidate in [`ModelSnapshot::fold_in`], off the
/// request path), then shared read-only behind an `Arc` — requests never
/// lock or mutate it. It holds the model's config and finals, not its
/// parameter tables.
#[derive(Debug)]
pub struct ModelSnapshot {
    version: u64,
    precision: Precision,
    lineage: Lineage,
    cfg: Arc<LogiRecConfig>,
    finals: Box<dyn ServedModel>,
    /// The serving context this snapshot was validated against. Owned (as
    /// a shared handle) so model, index, and context always swap as one
    /// unit — a fold-in that grows the tables publishes a grown context in
    /// the same atomic swap, and a request can never score a snapshot
    /// through a context with mismatched shapes.
    ctx: Arc<ServeContext>,
    /// The approximate-retrieval index over this snapshot's item table,
    /// when the server was configured with one. Owned by the snapshot so a
    /// hot swap replaces model and index atomically — they can never skew.
    /// A user fold-in's candidate shares its parent's.
    index: Option<Arc<ClusterIndex>>,
    /// The config the index was built with, carried so a reload rebuilds
    /// the candidate's index with identical knobs.
    index_cfg: Option<IndexConfig>,
}

/// Checks `model` against `ctx` (shape, finite parameters), propagates it
/// over the training graph (any forward state it carries is dropped first)
/// and keeps only the finals.
fn finals_of<S: Scalar>(
    mut model: LogiRec<S>,
    ctx: &ServeContext,
) -> Result<Box<dyn ServedModel>, String> {
    model.check_catalog(ctx.n_users(), ctx.n_items())?;
    if !model.all_finite() {
        return Err("model has non-finite parameters".to_string());
    }
    model.clear_state();
    model.propagate(ctx.train());
    let mut state = model.into_state();
    let row_bytes = state.user_final.dim() * std::mem::size_of::<S>();
    state.user_final.reserve_rows(FOLD_IN_ROOM_BYTES / row_bytes);
    Ok(Box::new(state))
}

impl ModelSnapshot {
    /// Validates `model` against `ctx` and prepares it for serving:
    /// shape check, finiteness check, forward propagation over the training
    /// graph (any forward state `model` carries is dropped first, and the
    /// parameter tables once the finals exist), then a canary probe (every
    /// canary user must produce finite scores for every item). Any failure
    /// returns the reason instead of a snapshot — the caller keeps serving
    /// its last-good snapshot.
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
    /// validation, over the one cluster-ordered scan table both tiers
    /// walk, so the exhaustive probe (`nprobe = n_clusters`) is the exact
    /// scan. Model and index pass or fail as one candidate — under the
    /// `Reloader` a failure means rollback, so a bad index can never go
    /// live, exactly like a bad model.
    pub fn build_with_index(
        model: LogiRec,
        precision: Precision,
        ctx: &Arc<ServeContext>,
        source: impl Into<String>,
        index_cfg: Option<IndexConfig>,
    ) -> Result<Self, String> {
        let cfg = Arc::new(model.cfg.clone());
        let finals = match precision {
            Precision::F64 => finals_of(model, ctx)?,
            Precision::F32 => {
                let narrow = model.cast::<f32>();
                drop(model);
                finals_of(narrow, ctx)?
            }
        };
        let lineage = Lineage::new(source.into());
        let snap = Self::assemble(cfg, finals, precision, ctx, lineage, index_cfg, None);
        snap.probe(snap.ctx.canaries(), "canary")?;
        Ok(snap)
    }

    /// Wraps `finals` as a snapshot on `ctx` and readies its scan table:
    /// installs `index`, or (when it is `None` and an index is configured)
    /// builds one (see [`ServedModel::prepare`]).
    fn assemble(
        cfg: Arc<LogiRecConfig>,
        mut finals: Box<dyn ServedModel>,
        precision: Precision,
        ctx: &Arc<ServeContext>,
        lineage: Lineage,
        index_cfg: Option<IndexConfig>,
        index: Option<Arc<ClusterIndex>>,
    ) -> Self {
        let rebuild = index_cfg.filter(|_| index.is_none());
        let built = finals.prepare(cfg.geometry, rebuild.as_ref());
        Self {
            version: 0,
            precision,
            lineage,
            cfg,
            finals,
            ctx: Arc::clone(ctx),
            index: index.or(built.map(Arc::new)),
            index_cfg,
        }
    }

    /// Scores every item for each of `users` and fails on the first score
    /// that is not finite, naming the user as a `who` user.
    fn probe(&self, users: &[usize], who: &str) -> Result<(), String> {
        let mut scores = vec![0.0f64; self.ctx.n_items()];
        for &u in users {
            self.score_user(u, &mut scores);
            if let Some(v) = scores.iter().position(|s| !s.is_finite()) {
                return Err(format!("{who} user {u} scores item {v} non-finite"));
            }
        }
        Ok(())
    }

    /// The version the owning [`SnapshotStore`] assigned (0 before install).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Working precision of the scoring path.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Where the snapshot came from: the file path (or a caller-chosen
    /// label) it was built from, followed, once fold-ins grew it, by their
    /// count and the last entity folded in —
    /// `<source> + <n> fold-ins (last: user <id>)`. Its length does not
    /// grow with the chain.
    pub fn source(&self) -> &str {
        &self.lineage.source
    }

    /// The model hyperparameters (used as the base config when reloading).
    pub fn config(&self) -> &LogiRecConfig {
        &self.cfg
    }

    /// The approximate-retrieval index, when one was built.
    pub fn index(&self) -> Option<&ClusterIndex> {
        self.index.as_deref()
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

    /// Whether each of this snapshot's tables shares its storage with
    /// `other`'s: `[user finals, item finals, scan table]`. A user
    /// fold-in's candidate shares all three with its parent, except that
    /// the user finals are copied, with room to double, when the room
    /// reserved at build (`FOLD_IN_ROOM_BYTES`) is full.
    pub fn shares_tables_with(&self, other: &ModelSnapshot) -> [bool; 3] {
        let (mine, theirs) = (self.finals.table_addresses(), other.finals.table_addresses());
        [0, 1, 2].map(|t| mine[t] == theirs[t])
    }

    /// Folds one brand-new entity into a **candidate** snapshot: computes
    /// the new row with the deterministic new-row-only optimization
    /// (`logirec_core::stream`), appends its final to a clone of this
    /// snapshot's finals, grows the serving context, and validates the
    /// candidate.
    ///
    /// The publish costs only what the fold-in adds. The clone shares
    /// every table with this snapshot, and the new final is appended past
    /// the rows this snapshot sees, into the room a build reserves
    /// (`FOLD_IN_ROOM_BYTES`; a table is copied, with room to double,
    /// only once that is full); the context grows the same way
    /// ([`ServeContext::with_new_user`]).
    /// The candidate serves the forward state that appending extended,
    /// without re-propagating: the new entity has no edges, so propagation
    /// would reproduce that state bit for bit.
    ///
    /// A user fold-in leaves the item finals byte-identical, so it keeps
    /// this snapshot's scan table and index (k-means is a pure function of
    /// the item finals), and it checks only what it adds: the new final is
    /// finite and on the sheet, and it scores every item finite. Every
    /// other score the candidate can produce is, bit for bit, one this
    /// snapshot already produces, and this snapshot passed the same checks
    /// (by induction down to a full build's canary probe). An item fold-in
    /// changes the item finals, so it rebuilds the table and index and runs
    /// every check a build runs: shape, finiteness of the finals, and the
    /// canary probe. Either candidate answers exactly what
    /// `build_with_index` of the grown model on the grown context answers.
    ///
    /// The current snapshot is untouched; on any failure (non-finite row,
    /// out-of-range positives, failed probe) the error is returned and the
    /// caller keeps serving last-good.
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
        let mut opts = FoldInOptions::for_config(&self.cfg);
        if let Some(s) = steps {
            opts.steps = s;
        }
        if let Some(l) = lr {
            opts.lr = l;
        }
        // Fold at the serving precision, so the appended row is exactly
        // what this snapshot's scoring path would have produced.
        let (finals, new_id) = self.finals.fold_in(&self.cfg, item, positives, &opts)?;
        let grown = if item {
            self.ctx.with_new_item(positives)
        } else {
            self.ctx.with_new_user(positives)
        }
        .map_err(|e| format!("fold-in context: {e}"))?;
        let kind = if item { "item" } else { "user" };
        let lineage = self.lineage.folded(kind, new_id);
        let index = if item { None } else { self.index.clone() };
        let (cfg, ctx) = (Arc::clone(&self.cfg), Arc::new(grown));
        let snap =
            Self::assemble(cfg, finals, self.precision, &ctx, lineage, self.index_cfg, index);
        if snap.finals.shape() != (snap.ctx.n_users(), snap.ctx.n_items()) {
            return Err("fold-in candidate does not match its grown context".to_string());
        }
        if item {
            if !snap.finals.all_finite() {
                return Err("fold-in candidate has non-finite finals".to_string());
            }
            snap.probe(snap.ctx.canaries(), "canary")?;
        } else {
            if !snap.finals.user_final_ok(self.cfg.geometry, new_id) {
                return Err(format!("folded user {new_id} has a non-finite or off-sheet final"));
            }
            snap.probe(&[new_id], "folded")?;
        }
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
        Ok(Some(self.finals.search(index, u, seen, k, nprobe)))
    }

    /// Scores every item for `u` into `out` (higher is better), exactly as
    /// the offline evaluator would.
    pub fn score_user(&self, u: usize, out: &mut [f64]) {
        self.finals.score_user(u, out);
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
        Ok(self.finals.top_k(u, &[seen], k, scratch))
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
        Self { current: Mutex::new(Arc::new(initial)), next_version: AtomicU64::new(2) }
    }

    /// The live snapshot (an `Arc` clone; never blocks on a swap for long).
    pub fn get(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.current.lock().expect("snapshot store poisoned"))
    }

    /// Atomically replaces the live snapshot, assigning and returning the
    /// next version. In-flight requests finish on the snapshot they
    /// already hold.
    pub fn swap(&self, snap: ModelSnapshot) -> u64 {
        let mut current = self.current.lock().expect("snapshot store poisoned");
        self.install(&mut current, snap)
    }

    /// [`SnapshotStore::swap`] only if the live snapshot is still version
    /// `base_version` — the one the candidate was built from. Check and
    /// install happen under one lock, so an install that lands between a
    /// caller's [`SnapshotStore::get`] and this call (a reload during a
    /// fold-in) is never overwritten by a candidate built on the older
    /// base. Returns the assigned version, or `Err` with the live version
    /// that refused the candidate.
    pub fn swap_if(&self, base_version: u64, snap: ModelSnapshot) -> Result<u64, u64> {
        let mut current = self.current.lock().expect("snapshot store poisoned");
        if current.version != base_version {
            return Err(current.version);
        }
        Ok(self.install(&mut current, snap))
    }

    /// Stamps `snap` with the next version and makes it live. Versions are
    /// assigned under the store lock, so they increase in install order.
    fn install(&self, current: &mut Arc<ModelSnapshot>, mut snap: ModelSnapshot) -> u64 {
        let version = self.next_version.fetch_add(1, Ordering::Relaxed);
        snap.version = version;
        *current = Arc::new(snap);
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
    fn swap_if_refuses_a_candidate_whose_base_was_replaced() {
        let (ds, ctx, snap) = fixture();
        let store = SnapshotStore::new(snap);
        let base = store.get();
        let (candidate, _) = base.fold_in(false, &[1, 4, 9], None, None).expect("fold in");
        // A reload lands between the fold-in's `get` and its publish.
        let model = LogiRec::new(LogiRecConfig::test_config(), &ds);
        let reload = ModelSnapshot::build(model, Precision::F64, &ctx, "reload").expect("valid");
        assert_eq!(store.swap(reload), 2);
        assert_eq!(store.swap_if(base.version(), candidate).unwrap_err(), 2);
        let live = store.get();
        assert_eq!((live.version(), live.source()), (2, "reload"));
        assert_eq!(live.ctx().n_users(), ds.n_users());
        // Folding again from the live snapshot publishes on top of it.
        let (candidate, id) = live.fold_in(false, &[1, 4, 9], None, None).expect("fold in");
        assert_eq!(store.swap_if(live.version(), candidate), Ok(3));
        let live = store.get();
        assert_eq!(live.source(), format!("reload + 1 fold-in (last: user {id})"));
        assert_eq!(live.ctx().n_users(), ds.n_users() + 1);
    }

    #[test]
    fn the_source_stays_bounded_over_a_long_fold_in_chain() {
        let (ds, _, mut snap) = fixture();
        for j in 0..1_000 {
            let (next, id) = snap.fold_in(false, &[1, 4, 9], None, None).expect("fold in");
            assert_eq!(id, ds.n_users() + j);
            snap = next;
            assert!(snap.source().len() <= 48, "{}", snap.source());
        }
        let last = ds.n_users() + 999;
        assert_eq!(snap.source(), format!("test + 1000 fold-ins (last: user {last})"));
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
    fn a_built_snapshot_takes_its_first_fold_ins_in_place() {
        // Build-time room: from the first signup on, a chain of user
        // fold-ins copies none of the tables it appends to.
        let (ds, _ctx, snap) = fixture();
        let mut tip = snap.fold_in(false, &[1, 4, 9], None, None).expect("fold in").0;
        for u in 0..20 {
            tip = tip.fold_in(false, ds.train.items_of(u), None, None).expect("fold in").0;
        }
        assert_eq!(tip.shares_tables_with(&snap), [true; 3]);
        let (grown, base) = (tip.ctx(), snap.ctx());
        assert!(grown.seen().shares_storage_with(base.seen()));
        assert!(grown.train().shares_storage_with(base.train()));
        assert_eq!(grown.n_users(), ds.n_users() + 21);
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
