//! The full-ranking evaluator.
//!
//! For every user with ground truth in the target split, the evaluator asks
//! the model to score **all** items, masks items the user already
//! interacted with in earlier splits, selects the top-K, and accumulates
//! Recall@K / NDCG@K. Users are processed in parallel with scoped threads.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use logirec_data::{Dataset, Split};
use logirec_obs::Telemetry;

use crate::metrics::{ndcg_at_k, recall_at_k};

/// A trained model that can score every item for a user. Higher is better
/// (distance-based models should negate their distances).
pub trait Ranker: Sync {
    /// Fills `out[v]` with the score of item `v` for user `u`;
    /// `out.len() == n_items`.
    fn score_user(&self, u: usize, out: &mut [f64]);

    /// The `k` best items for `u` that no list in `masked` holds, with
    /// their scores, best first; `scratch.len() == n_items`.
    ///
    /// The provided body is the reference path: score every item into
    /// `scratch`, write `NEG_INFINITY` over the masked ones, select with
    /// [`top_k_indices`]. A ranker with a faster exact path (LogiRec's
    /// key scan) overrides it and must return the same items and score
    /// bits.
    fn top_k(
        &self,
        u: usize,
        masked: &[&[usize]],
        k: usize,
        scratch: &mut [f64],
    ) -> (Vec<usize>, Vec<f64>) {
        self.score_user(u, scratch);
        for &list in masked {
            for &v in list {
                scratch[v] = f64::NEG_INFINITY;
            }
        }
        let items = top_k_indices(scratch, k);
        let scores = items.iter().map(|&v| scratch[v]).collect();
        (items, scores)
    }
}

impl<F: Fn(usize, &mut [f64]) + Sync> Ranker for F {
    fn score_user(&self, u: usize, out: &mut [f64]) {
        self(u, out)
    }
}

/// Evaluation output: mean metrics per cutoff plus the per-user Recall
/// vectors used for significance testing.
#[derive(Debug, Clone)]
pub struct EvalResult {
    /// `recall[k]` = mean Recall@k over evaluated users.
    pub recall: BTreeMap<usize, f64>,
    /// `ndcg[k]` = mean NDCG@k.
    pub ndcg: BTreeMap<usize, f64>,
    /// Per-user Recall at the largest cutoff, aligned with `users`.
    pub per_user_recall: Vec<f64>,
    /// Per-user NDCG at the largest cutoff, aligned with `users`.
    pub per_user_ndcg: Vec<f64>,
    /// The users that were evaluated (non-empty ground truth).
    pub users: Vec<usize>,
}

impl EvalResult {
    /// Convenience accessor: Recall@k (panics if `k` was not requested).
    pub fn recall_at(&self, k: usize) -> f64 {
        self.recall[&k]
    }

    /// Convenience accessor: NDCG@k.
    pub fn ndcg_at(&self, k: usize) -> f64 {
        self.ndcg[&k]
    }
}

/// Evaluates `ranker` on `split` of `dataset` at the given cutoffs.
///
/// Masking: when evaluating `Test`, items in Train ∪ Validation are removed
/// from the candidate set; when evaluating `Validation`, Train items are
/// removed. `n_threads` ≥ 1 controls the scoped-thread fan-out.
pub fn evaluate(
    ranker: &dyn Ranker,
    dataset: &Dataset,
    split: Split,
    ks: &[usize],
    n_threads: usize,
) -> EvalResult {
    evaluate_traced(ranker, dataset, split, ks, n_threads, &Telemetry::disabled())
}

/// [`evaluate`] with per-phase timing telemetry. Each worker thread records
/// into the `eval.score_user_us` (scoring, masking and top-K selection
/// through [`Ranker::top_k`]) and `eval.rank_metric_us` (Recall/NDCG)
/// histograms — lock-free relaxed atomics,
/// so the scoped threads never contend — and `eval.users` counts the users
/// evaluated.
pub fn evaluate_traced(
    ranker: &dyn Ranker,
    dataset: &Dataset,
    split: Split,
    ks: &[usize],
    n_threads: usize,
    tel: &Telemetry,
) -> EvalResult {
    assert!(!ks.is_empty(), "at least one cutoff required");
    let h_score = tel.histogram("eval.score_user_us");
    let h_metric = tel.histogram("eval.rank_metric_us");
    let c_users = tel.counter("eval.users");
    let max_k = *ks.iter().max().expect("nonempty");
    let target = dataset.split(split);
    let users: Vec<usize> =
        (0..dataset.n_users()).filter(|&u| !target.items_of(u).is_empty()).collect();
    let n_items = dataset.n_items();

    // Per-user metric rows, written by slot so aggregation happens in a
    // deterministic order afterwards (thread-local partial sums would make
    // the means depend on the thread count through float associativity).
    // Row layout: [recall@k0.., ndcg@k0.., recall@max_k, ndcg@max_k].
    let row_width = 2 * ks.len() + 2;
    let per_user_rows = Mutex::new(vec![0.0f64; users.len() * row_width]);

    let n_threads = n_threads.max(1).min(users.len().max(1));
    let chunk = users.len().div_ceil(n_threads).max(1);
    std::thread::scope(|scope| {
        let handles: Vec<_> = users
            .chunks(chunk)
            .enumerate()
            .map(|(ci, chunk_users)| {
                let per_user_rows = &per_user_rows;
                let offset = ci * chunk;
                let (h_score, h_metric, c_users) =
                    (h_score.clone(), h_metric.clone(), c_users.clone());
                scope.spawn(move || {
                let timed = h_score.is_enabled();
                let mut scratch = vec![0.0f64; n_items];
                let mut local = vec![0.0f64; chunk_users.len() * row_width];
                for (slot, &u) in chunk_users.iter().enumerate() {
                    let t0 = timed.then(Instant::now);
                    // Mask known positives from earlier splits.
                    let seen = [dataset.train.items_of(u), dataset.validation.items_of(u)];
                    let masked = if split == Split::Test { &seen[..] } else { &seen[..1] };
                    let (top, _) = ranker.top_k(u, masked, max_k, &mut scratch);
                    let t1 = timed.then(Instant::now);
                    if let (Some(t0), Some(t1)) = (t0, t1) {
                        h_score.record(t1.duration_since(t0).as_micros() as u64);
                    }
                    let truth = dataset.split(split).items_of(u);
                    let row = &mut local[slot * row_width..(slot + 1) * row_width];
                    for (i, &k) in ks.iter().enumerate() {
                        let list = &top[..k.min(top.len())];
                        row[i] = recall_at_k(list, truth);
                        row[ks.len() + i] = ndcg_at_k(list, truth);
                    }
                    row[2 * ks.len()] = recall_at_k(&top, truth);
                    row[2 * ks.len() + 1] = ndcg_at_k(&top, truth);
                    if let Some(t1) = t1 {
                        h_metric.record(t1.elapsed().as_micros() as u64);
                    }
                    c_users.incr();
                }
                    let mut rows = per_user_rows.lock().expect("rows poisoned");
                    let start = offset * row_width;
                    rows[start..start + local.len()].copy_from_slice(&local);
                })
            })
            .collect();
        // Re-raise the first worker panic with its original payload rather
        // than the scope's generic message.
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    let rows = per_user_rows.into_inner().expect("rows poisoned");
    let n = users.len().max(1) as f64;
    let mut recall_sum = vec![0.0; ks.len()];
    let mut ndcg_sum = vec![0.0; ks.len()];
    let mut per_user_recall = vec![0.0; users.len()];
    let mut per_user_ndcg = vec![0.0; users.len()];
    for slot in 0..users.len() {
        let row = &rows[slot * row_width..(slot + 1) * row_width];
        for i in 0..ks.len() {
            recall_sum[i] += row[i];
            ndcg_sum[i] += row[ks.len() + i];
        }
        per_user_recall[slot] = row[2 * ks.len()];
        per_user_ndcg[slot] = row[2 * ks.len() + 1];
    }
    EvalResult {
        recall: ks.iter().enumerate().map(|(i, &k)| (k, recall_sum[i] / n)).collect(),
        ndcg: ks.iter().enumerate().map(|(i, &k)| (k, ndcg_sum[i] / n)).collect(),
        per_user_recall,
        per_user_ndcg,
        users,
    }
}

/// Indices of the `k` largest scores, best first: the [`TopK`] walk over
/// `scores`. Ties break toward the smaller index so results are
/// deterministic; `NEG_INFINITY` (masked) and NaN entries are skipped.
pub fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    let mut top = TopK::new(k.min(scores.len()));
    for (i, &s) in scores.iter().enumerate() {
        top.offer(i, s);
    }
    top.best.into_iter().map(|(_, i)| i).collect()
}

/// A running top-K selection over candidates in **any** arrival order:
/// keeps the `k` best `(item, score)` pairs, score descending, ties toward
/// the smaller item index, and skips `NEG_INFINITY` (masked) and NaN
/// entries. [`top_k_indices`] is this selection offered every index of a
/// score slice, which is what lets an approximate retrieval tier re-rank a
/// shortlist and stay byte-compatible with the exact full-scan path
/// whenever the shortlist covers the catalog. [`TopK::worst`] is readable
/// mid-scan, so such a tier can prune candidates that cannot place.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    /// Sorted by (score desc, index asc).
    best: Vec<(f64, usize)>,
}

impl TopK {
    /// An empty selection of at most `k` entries.
    pub fn new(k: usize) -> Self {
        Self { k, best: Vec::with_capacity(k + 1) }
    }

    /// True once `k` entries are held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.best.len() == self.k
    }

    /// Score of the current worst entry — the k-th best once
    /// [`TopK::is_full`]; `NEG_INFINITY` while empty.
    #[inline]
    pub fn worst(&self) -> f64 {
        self.best.last().map_or(f64::NEG_INFINITY, |&(s, _)| s)
    }

    /// Offers item `i` with score `s`.
    #[inline]
    pub fn offer(&mut self, i: usize, s: f64) {
        if self.k == 0 || s == f64::NEG_INFINITY || s.is_nan() {
            return;
        }
        // The acceptance test compares the index too: an equal-score
        // candidate with a smaller index arriving late still has to
        // displace the current worst.
        if self.is_full() {
            let (ws, wi) = self.best[self.k - 1];
            if s < ws || (s == ws && i > wi) {
                return;
            }
        }
        let pos = self.best.partition_point(|&(bs, bi)| bs > s || (bs == s && bi < i));
        self.best.insert(pos, (s, i));
        if self.best.len() > self.k {
            self.best.pop();
        }
    }

    /// The selected `(item, score)` pairs, best first.
    pub fn into_sorted(self) -> Vec<(usize, f64)> {
        self.best.into_iter().map(|(s, i)| (i, s)).collect()
    }
}

/// Top-K selection over an explicit candidate shortlist through [`TopK`]:
/// the `k` best `(item, score)` pairs, best first.
pub fn top_k_scored(
    candidates: impl IntoIterator<Item = (usize, f64)>,
    k: usize,
) -> Vec<(usize, f64)> {
    let mut top = TopK::new(k);
    for (i, s) in candidates {
        top.offer(i, s);
    }
    top.into_sorted()
}

#[cfg(test)]
mod tests {
    use super::*;
    use logirec_data::{DatasetSpec, Scale};

    #[test]
    fn top_k_selects_largest_in_order() {
        let scores = [0.1, 5.0, 3.0, 4.0, -1.0];
        assert_eq!(top_k_indices(&scores, 3), vec![1, 3, 2]);
        assert_eq!(top_k_indices(&scores, 10).len(), 5);
        assert!(top_k_indices(&scores, 0).is_empty());
    }

    #[test]
    fn top_k_skips_masked_scores() {
        let scores = [f64::NEG_INFINITY, 2.0, f64::NEG_INFINITY, 1.0, f64::NAN, 3.0];
        assert_eq!(top_k_indices(&scores, 6), vec![5, 1, 3]);
    }

    #[test]
    fn top_k_breaks_ties_by_index() {
        let scores = [1.0, 2.0, 2.0, 2.0];
        assert_eq!(top_k_indices(&scores, 2), vec![1, 2]);
    }

    #[test]
    fn top_k_scored_matches_top_k_indices_over_the_full_range() {
        let scores = [0.1, 5.0, 3.0, 5.0, f64::NEG_INFINITY, 3.0, -1.0];
        for k in 0..=scores.len() + 1 {
            let full = top_k_scored(scores.iter().copied().enumerate(), k);
            let items: Vec<usize> = full.iter().map(|&(i, _)| i).collect();
            assert_eq!(items, top_k_indices(&scores, k), "k={k}");
        }
    }

    #[test]
    fn top_k_scored_late_equal_score_with_smaller_index_displaces_the_worst() {
        // Candidate (item 2, score 2.0) arrives after the buffer is full of
        // equal scores with larger indices: it must still win the seat.
        let got = top_k_scored([(9, 2.0), (7, 2.0), (2, 2.0), (1, 5.0)], 2);
        assert_eq!(got, vec![(1, 5.0), (2, 2.0)]);
    }

    /// An oracle that scores a user's test items highest must achieve
    /// recall = 1, and a random scorer must do much worse.
    #[test]
    fn oracle_beats_random_on_synthetic_data() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(1);
        let oracle = |u: usize, out: &mut [f64]| {
            out.fill(0.0);
            for &v in ds.test.items_of(u) {
                out[v] = 10.0;
            }
        };
        let res = evaluate(&oracle, &ds, Split::Test, &[10, 20], 2);
        assert!(res.recall_at(20) > 0.95, "oracle recall {}", res.recall_at(20));
        assert!(res.ndcg_at(20) > 0.95);

        let anti = |_u: usize, out: &mut [f64]| {
            for (v, o) in out.iter_mut().enumerate() {
                *o = -(v as f64); // fixed arbitrary order
            }
        };
        let res_bad = evaluate(&anti, &ds, Split::Test, &[10, 20], 2);
        assert!(res_bad.recall_at(20) < res.recall_at(20) * 0.8);
    }

    #[test]
    fn masking_excludes_train_items() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(2);
        // Score train items maximally: they must be masked out, so recall
        // stays low.
        let cheater = |u: usize, out: &mut [f64]| {
            out.fill(0.0);
            for &v in ds.train.items_of(u) {
                out[v] = 100.0;
            }
        };
        let res = evaluate(&cheater, &ds, Split::Test, &[10], 1);
        // With all mass on masked items the top-k is arbitrary among 0-score
        // items; recall should be far from 1.
        assert!(res.recall_at(10) < 0.5);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let ds = DatasetSpec::cd(Scale::Tiny).generate(3);
        let scorer = |u: usize, out: &mut [f64]| {
            for (v, o) in out.iter_mut().enumerate() {
                *o = ((u * 31 + v * 17) % 97) as f64;
            }
        };
        let a = evaluate(&scorer, &ds, Split::Test, &[10, 20], 1);
        let b = evaluate(&scorer, &ds, Split::Test, &[10, 20], 4);
        assert!((a.recall_at(10) - b.recall_at(10)).abs() < 1e-12);
        assert!((a.ndcg_at(20) - b.ndcg_at(20)).abs() < 1e-12);
        assert_eq!(a.per_user_recall, b.per_user_recall);
    }

    #[test]
    fn validation_split_masks_only_train() {
        let ds = DatasetSpec::ciao(Scale::Tiny).generate(4);
        let oracle = |u: usize, out: &mut [f64]| {
            out.fill(0.0);
            for &v in ds.validation.items_of(u) {
                out[v] = 10.0;
            }
        };
        let res = evaluate(&oracle, &ds, Split::Validation, &[20], 2);
        assert!(res.recall_at(20) > 0.9);
    }
}
