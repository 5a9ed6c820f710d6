//! Logic-consistent inference (the Fig. 1 narrative): "we can skip items
//! under `<Classical>` when recommending items for Lisa or Linda since
//! they only interact with items under `<Rock>`".
//!
//! After training, tag regions encode the *mined* logical relations: two
//! tags are (refined-)exclusive exactly when their learned balls are
//! geometrically disjoint (Lemma 3). The [`LogicFilter`] penalizes items
//! **all** of whose tags are confidently disjoint from **all** of the
//! user's interacted tags — a soft version of the paper's "skip", which
//! also yields the promised computation reduction when used as a hard
//! pre-filter.

use logirec_data::{Dataset, Split};
use logirec_hyperbolic::Ball;
use logirec_linalg::{ops, CowVec};

use crate::model::LogiRec;

/// Typed errors from the [`SeenFilter`]: every id is validated against the
/// filter's dimensions before it indexes anything, so callers (the serving
/// path in particular, where user/item ids arrive over the wire) get a
/// recoverable error instead of a slice-index panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FilterError {
    /// A user id at or beyond the filter's user count.
    UserOutOfRange {
        /// The offending user id.
        user: usize,
        /// Number of users the filter was built for.
        n_users: usize,
    },
    /// An item id at or beyond the filter's item count.
    ItemOutOfRange {
        /// The offending item id.
        item: usize,
        /// Number of items the filter was built for.
        n_items: usize,
    },
    /// A score buffer whose length does not match the item count.
    ScoresLengthMismatch {
        /// The item count the filter expects.
        expected: usize,
        /// The buffer length the caller passed.
        got: usize,
    },
}

impl std::fmt::Display for FilterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FilterError::UserOutOfRange { user, n_users } => {
                write!(f, "user {user} out of range ({n_users} users)")
            }
            FilterError::ItemOutOfRange { item, n_items } => {
                write!(f, "item {item} out of range ({n_items} items)")
            }
            FilterError::ScoresLengthMismatch { expected, got } => {
                write!(f, "score buffer holds {got} items but the filter expects {expected}")
            }
        }
    }
}

impl std::error::Error for FilterError {}

/// Per-user seen-item filter: the candidate mask the evaluator applies
/// before top-K selection, packaged as a reusable, bounds-checked value so
/// the serving path can apply **exactly** the same mask (and therefore
/// return byte-identical rankings to offline evaluation).
///
/// Built from one or more dataset splits; masking writes `f64::NEG_INFINITY`
/// over every seen item's score, which [`logirec_eval::ranking::top_k_indices`]
/// then skips.
///
/// The lists are one flat CSR (an offsets array and one item array, each
/// row ascending), both copy-on-write [`CowVec`]s: a clone costs two
/// reference counts, and [`Self::push_user`] appends the new list and one
/// offset in place, so a serving fold-in shares every earlier list with
/// the snapshot it grew from. [`Self::record_seen`] inserts into the
/// middle of the flat array and so copies it.
#[derive(Debug, Clone)]
pub struct SeenFilter {
    n_items: usize,
    /// The seen items of user `u`: `items[offsets[u]..offsets[u + 1]]`,
    /// sorted and distinct, from the splits the filter was built from.
    offsets: CowVec<usize>,
    items: CowVec<usize>,
}

impl SeenFilter {
    /// Builds the filter from the union of `splits` of `dataset`.
    pub fn from_splits(dataset: &Dataset, splits: &[Split]) -> Self {
        let mut offsets = Vec::with_capacity(dataset.n_users() + 1);
        offsets.push(0);
        let (mut items, mut row) = (Vec::new(), Vec::new());
        for u in 0..dataset.n_users() {
            row.clear();
            for &split in splits {
                row.extend_from_slice(dataset.split(split).items_of(u));
            }
            row.sort_unstable();
            row.dedup();
            items.extend_from_slice(&row);
            offsets.push(items.len());
        }
        Self { n_items: dataset.n_items(), offsets: offsets.into(), items: items.into() }
    }

    /// The mask offline test-split evaluation applies (Train ∪ Validation)
    /// — the serving default, so exact-path responses match `evaluate`.
    pub fn eval_mask(dataset: &Dataset) -> Self {
        Self::from_splits(dataset, &[Split::Train, Split::Validation])
    }

    /// Number of users the filter covers.
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of items the filter covers.
    pub fn n_items(&self) -> usize {
        self.n_items
    }

    /// The sorted seen-item list of `u`, or a typed error for unknown users.
    pub fn seen_of(&self, u: usize) -> Result<&[usize], FilterError> {
        if u >= self.n_users() {
            return Err(FilterError::UserOutOfRange { user: u, n_users: self.n_users() });
        }
        Ok(&self.items[self.offsets[u]..self.offsets[u + 1]])
    }

    /// Appends one user with the given seen-item list (sorted and deduped
    /// here, so callers may pass events in arrival order). The streaming
    /// fold-in path uses this to grow the filter in lockstep with the
    /// embedding tables. Item ids at or beyond [`Self::n_items`] are a
    /// typed error — nothing is modified in that case.
    pub fn push_user(&mut self, items: &[usize]) -> Result<usize, FilterError> {
        if let Some(&bad) = items.iter().find(|&&v| v >= self.n_items) {
            return Err(FilterError::ItemOutOfRange { item: bad, n_items: self.n_items });
        }
        let mut list = items.to_vec();
        list.sort_unstable();
        list.dedup();
        self.items.extend_from_slice(&list);
        self.offsets.push(self.items.len());
        Ok(self.n_users() - 1)
    }

    /// Grows the item space by one (a freshly folded-in item no user has
    /// seen yet). Returns the new item's id.
    pub fn push_item(&mut self) -> usize {
        self.n_items += 1;
        self.n_items - 1
    }

    /// Records that existing user `u` interacted with item `v` (a streamed
    /// event), keeping the per-user list sorted and distinct. A new entry
    /// shifts every later list, so this copies the flat item array.
    pub fn record_seen(&mut self, u: usize, v: usize) -> Result<(), FilterError> {
        if v >= self.n_items {
            return Err(FilterError::ItemOutOfRange { item: v, n_items: self.n_items });
        }
        let Err(pos) = self.seen_of(u)?.binary_search(&v) else { return Ok(()) };
        let mut items = self.items.to_vec();
        items.insert(self.offsets[u] + pos, v);
        self.items = items.into();
        for off in &mut self.offsets.as_mut_slice()[u + 1..] {
            *off += 1;
        }
        Ok(())
    }

    /// True when this filter and `other` share both flat arrays: a clone,
    /// or a clone that only [`Self::push_user`] grew since.
    pub fn shares_storage_with(&self, other: &Self) -> bool {
        self.offsets.shares_storage_with(&other.offsets)
            && self.items.shares_storage_with(&other.items)
    }

    /// Masks every seen item of `u` out of `scores` (sets the slot to
    /// `f64::NEG_INFINITY`). Returns the number of items masked. The buffer
    /// length must equal [`Self::n_items`].
    pub fn mask_scores(&self, u: usize, scores: &mut [f64]) -> Result<usize, FilterError> {
        if scores.len() != self.n_items {
            return Err(FilterError::ScoresLengthMismatch {
                expected: self.n_items,
                got: scores.len(),
            });
        }
        let seen = self.seen_of(u)?;
        for &v in seen {
            // Construction guarantees v < n_items (ids come from the
            // dataset's interaction sets), so this indexing cannot panic.
            scores[v] = f64::NEG_INFINITY;
        }
        Ok(seen.len())
    }
}

/// Precomputed logic-consistency filter.
#[derive(Debug, Clone)]
pub struct LogicFilter {
    /// `S × S` row-major matrix: `true` when the learned balls of the two
    /// tags are disjoint by at least [`Self::margin`].
    disjoint: Vec<bool>,
    n_tags: usize,
    /// `user_tags[u]` = distinct tags the user interacted with (train).
    user_tags: Vec<Vec<usize>>,
    /// Score penalty applied to fully-excluded items.
    penalty: f64,
    /// Disjointness slack: balls must be separated by more than this
    /// (Euclidean gap between the derived regions) to count as exclusive.
    /// The exclusion hinge (Eq. 5) drives violating pairs exactly *to* the
    /// disjointness boundary, so a small **negative** margin ("separated
    /// or barely overlapping") matches the trained equilibrium.
    pub margin: f64,
}

impl LogicFilter {
    /// Builds the filter from a trained model's tag geometry and the
    /// training interactions.
    pub fn build(model: &LogiRec, dataset: &Dataset, margin: f64, penalty: f64) -> Self {
        let n_tags = model.tags.rows();
        let balls: Vec<Ball> =
            (0..n_tags).map(|t| Ball::from_center(model.tags.row(t))).collect();
        let mut disjoint = vec![false; n_tags * n_tags];
        for i in 0..n_tags {
            for j in (i + 1)..n_tags {
                // Exclusion margin < −margin ⇔ confidently disjoint.
                let d = balls[i].exclusion_margin(&balls[j]) < -margin;
                disjoint[i * n_tags + j] = d;
                disjoint[j * n_tags + i] = d;
            }
        }
        let user_tags = (0..dataset.n_users())
            .map(|u| {
                let mut tags = dataset.user_tag_list(u);
                tags.sort_unstable();
                tags.dedup();
                tags
            })
            .collect();
        Self { disjoint, n_tags, user_tags, penalty, margin }
    }

    /// True when tags `a` and `b` are confidently disjoint in the learned
    /// geometry (the model's *refined* exclusion relation). Panics on
    /// out-of-range tags.
    #[inline]
    pub fn tags_disjoint(&self, a: usize, b: usize) -> bool {
        assert!(a < self.n_tags && b < self.n_tags, "tag id out of range");
        self.disjoint[a * self.n_tags + b]
    }

    /// True when every tag of `item_tags` is disjoint from every tag in
    /// the user's profile — the "skip this item" condition. Untagged items
    /// and users with empty profiles are never excluded. Panics on
    /// out-of-range ids.
    pub fn item_excluded(&self, u: usize, item_tags: &[usize]) -> bool {
        let profile = &self.user_tags[u];
        if profile.is_empty() || item_tags.is_empty() {
            return false;
        }
        // Profile tags come from the dataset the filter was built from, so
        // an out-of-range item tag indexes past the matrix and panics.
        item_tags
            .iter()
            .all(|&it| profile.iter().all(|&ut| it != ut && self.disjoint[it * self.n_tags + ut]))
    }

    /// Applies the penalty in place to a user's score vector, one slot per
    /// entry of `item_tags`. Panics on out-of-range ids.
    pub fn apply(&self, u: usize, item_tags: &[Vec<usize>], scores: &mut [f64]) {
        assert_eq!(scores.len(), item_tags.len(), "one score per item");
        for (s, tags) in scores.iter_mut().zip(item_tags) {
            if self.item_excluded(u, tags) {
                *s -= self.penalty;
            }
        }
    }

    /// Fraction of (user, item) pairs the hard version of the filter would
    /// skip — the paper's "significant reductions on computation cost".
    pub fn skip_fraction(&self, item_tags: &[Vec<usize>]) -> f64 {
        let mut skipped = 0usize;
        let mut total = 0usize;
        for u in 0..self.user_tags.len() {
            for tags in item_tags {
                total += 1;
                if self.item_excluded(u, tags) {
                    skipped += 1;
                }
            }
        }
        if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        }
    }
}

/// A ranker that composes a trained model with its logic filter.
pub struct FilteredRanker<'a> {
    /// The trained model (must have a forward state).
    pub model: &'a LogiRec,
    /// The logic filter.
    pub filter: &'a LogicFilter,
    /// Item tag lists (shared with the dataset).
    pub item_tags: &'a [Vec<usize>],
}

impl logirec_eval::Ranker for FilteredRanker<'_> {
    fn score_user(&self, u: usize, out: &mut [f64]) {
        logirec_eval::Ranker::score_user(self.model, u, out);
        self.filter.apply(u, self.item_tags, out);
        debug_assert!(ops::all_finite(out));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LogiRecConfig;
    use crate::trainer::train;
    use logirec_data::{DatasetSpec, Scale, Split};
    use logirec_eval::{evaluate, Ranker};

    fn trained() -> (LogiRec, Dataset) {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(41);
        let cfg = LogiRecConfig {
            epochs: 12,
            lambda: 1.0,
            eval_every: 0,
            ..LogiRecConfig::test_config()
        };
        let (m, _) = train(cfg, &ds);
        (m, ds)
    }

    #[test]
    fn filter_is_symmetric_and_irreflexive() {
        let (m, ds) = trained();
        let f = LogicFilter::build(&m, &ds, 0.05, 100.0);
        for a in 0..ds.n_tags() {
            assert!(!f.tags_disjoint(a, a), "a ball always overlaps itself");
            for b in 0..ds.n_tags() {
                assert_eq!(f.tags_disjoint(a, b), f.tags_disjoint(b, a));
            }
        }
    }

    #[test]
    fn hierarchically_related_tags_are_never_disjoint() {
        let (m, ds) = trained();
        let f = LogicFilter::build(&m, &ds, 0.0, 100.0);
        let mut violations = 0;
        let mut checked = 0;
        for &(p, c) in &ds.relations.hierarchy {
            checked += 1;
            if f.tags_disjoint(p, c) {
                violations += 1;
            }
        }
        // The hierarchy loss keeps children inside parents, so learned
        // disjointness should almost never cut parent–child pairs.
        assert!(
            violations * 5 <= checked,
            "{violations}/{checked} parent-child pairs learned as disjoint"
        );
    }

    #[test]
    fn excluded_items_get_penalized_and_recall_does_not_collapse() {
        let (m, ds) = trained();
        let f = LogicFilter::build(&m, &ds, 0.05, 1_000.0);
        let plain = evaluate(&m, &ds, Split::Test, &[10], 2);
        let ranker = FilteredRanker { model: &m, filter: &f, item_tags: &ds.item_tags };
        let filtered = evaluate(&ranker, &ds, Split::Test, &[10], 2);
        // The filter may help or be neutral, but must never destroy the
        // ranking (it only touches items fully outside the user's logic).
        assert!(
            filtered.recall_at(10) >= plain.recall_at(10) * 0.9,
            "filter collapsed recall: {} → {}",
            plain.recall_at(10),
            filtered.recall_at(10)
        );
    }

    #[test]
    fn skip_fraction_is_a_valid_fraction() {
        let (m, ds) = trained();
        let f = LogicFilter::build(&m, &ds, 0.05, 100.0);
        let frac = f.skip_fraction(&ds.item_tags);
        assert!((0.0..=1.0).contains(&frac), "{frac}");
    }

    #[test]
    fn seen_filter_masks_exactly_the_eval_mask() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(9);
        let f = SeenFilter::eval_mask(&ds);
        assert_eq!(f.n_users(), ds.n_users());
        assert_eq!(f.n_items(), ds.n_items());
        for u in 0..ds.n_users() {
            let mut scores = vec![1.0; ds.n_items()];
            let masked = f.mask_scores(u, &mut scores).expect("in range");
            // Reproduce the evaluator's inline mask and compare.
            let mut reference = vec![1.0; ds.n_items()];
            for &v in ds.train.items_of(u) {
                reference[v] = f64::NEG_INFINITY;
            }
            for &v in ds.validation.items_of(u) {
                reference[v] = f64::NEG_INFINITY;
            }
            assert_eq!(scores, reference, "user {u}");
            assert_eq!(
                masked,
                reference.iter().filter(|s| **s == f64::NEG_INFINITY).count(),
                "user {u}"
            );
            let seen = f.seen_of(u).unwrap();
            for v in ds.train.items_of(u) {
                assert!(seen.binary_search(v).is_ok());
            }
        }
    }

    #[test]
    fn seen_filter_returns_typed_errors_instead_of_panicking() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(10);
        let f = SeenFilter::eval_mask(&ds);
        let n_users = ds.n_users();
        let n_items = ds.n_items();

        let mut scores = vec![0.0; n_items];
        assert_eq!(
            f.mask_scores(n_users + 3, &mut scores),
            Err(FilterError::UserOutOfRange { user: n_users + 3, n_users })
        );
        let mut short = vec![0.0; n_items - 1];
        assert_eq!(
            f.mask_scores(0, &mut short),
            Err(FilterError::ScoresLengthMismatch { expected: n_items, got: n_items - 1 })
        );
        assert!(f.seen_of(usize::MAX).is_err());
        // The messages carry the ids so reload/serve logs are actionable.
        let msg = f.seen_of(n_users).unwrap_err().to_string();
        assert!(msg.contains(&n_users.to_string()), "{msg}");
    }

    #[test]
    fn seen_filter_grows_for_streamed_entities() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(11);
        let mut f = SeenFilter::eval_mask(&ds);
        let n_users = f.n_users();
        let n_items = f.n_items();

        // New user arrives with unordered, duplicated events.
        let u = f.push_user(&[3, 1, 3, 0]).expect("valid items");
        assert_eq!(u, n_users);
        assert_eq!(f.n_users(), n_users + 1);
        assert_eq!(f.seen_of(u).unwrap(), &[0, 1, 3]);

        // New item: no user has seen it, but it is in range everywhere.
        let v = f.push_item();
        assert_eq!(v, n_items);
        assert!(!f.seen_of(u).unwrap().contains(&v));

        // Streamed event on the new user and new item.
        f.record_seen(u, v).expect("in range");
        assert!(f.seen_of(u).unwrap().contains(&v));
        // Recording the same event twice keeps the list distinct.
        f.record_seen(u, v).expect("in range");
        assert_eq!(f.seen_of(u).unwrap(), &[0, 1, 3, v]);

        // Bad ids are typed errors and leave the filter untouched.
        assert_eq!(
            f.push_user(&[f.n_items()]),
            Err(FilterError::ItemOutOfRange { item: f.n_items(), n_items: f.n_items() })
        );
        assert_eq!(f.n_users(), n_users + 1);
        assert!(f.record_seen(f.n_users(), 0).is_err());
        assert!(f.record_seen(0, f.n_items()).is_err());
    }

    #[test]
    fn filtered_scores_differ_only_by_penalty() {
        let (m, ds) = trained();
        let f = LogicFilter::build(&m, &ds, 0.05, 123.0);
        let ranker = FilteredRanker { model: &m, filter: &f, item_tags: &ds.item_tags };
        let mut plain = vec![0.0; ds.n_items()];
        Ranker::score_user(&m, 0, &mut plain);
        let mut filt = vec![0.0; ds.n_items()];
        ranker.score_user(0, &mut filt);
        for v in 0..ds.n_items() {
            let diff = plain[v] - filt[v];
            assert!(diff == 0.0 || (diff - 123.0).abs() < 1e-9, "item {v}: diff {diff}");
        }
    }
}
