//! Negative sampling and mini-batching for pairwise ranking losses.
//!
//! Every pairwise objective in this workspace (the paper's LMNN loss Eq. 9,
//! BPR, CML's hinge, …) iterates positive `(u, v⁺)` pairs and samples items
//! `v⁻` the user has not interacted with.

use logirec_linalg::SplitMix64;
use logirec_obs::{Counter, Telemetry};

use crate::interactions::InteractionSet;

/// Uniform negative sampler with rejection against a user's positive set.
#[derive(Debug)]
pub struct NegativeSampler<'a> {
    train: &'a InteractionSet,
    rng: SplitMix64,
    draws: Counter,
    rejections: Counter,
}

impl<'a> NegativeSampler<'a> {
    /// Creates a sampler over the training set.
    pub fn new(train: &'a InteractionSet, rng: SplitMix64) -> Self {
        Self { train, rng, draws: Counter::default(), rejections: Counter::default() }
    }

    /// Attaches the `sampler.draws` / `sampler.rejections` counters so the
    /// rejection-loop behavior shows up in telemetry. The counters are
    /// relaxed atomics — recording stays contention-free.
    pub fn instrument(&mut self, tel: &Telemetry) {
        self.draws = tel.counter("sampler.draws");
        self.rejections = tel.counter("sampler.rejections");
    }

    /// Samples one item `v` with `(u, v)` not in the training set.
    ///
    /// Rejection sampling is fine here: the densest benchmark (Ciao) is
    /// 0.23 % dense, so the expected number of draws is ~1.002. A cap keeps
    /// pathological users (who interacted with almost everything) from
    /// looping forever; in that case the last draw is returned.
    pub fn sample(&mut self, u: usize) -> usize {
        self.draws.incr();
        let n_items = self.train.n_items();
        let mut v = self.rng.index(n_items);
        for _ in 0..64 {
            if !self.train.contains(u, v) {
                return v;
            }
            self.rejections.incr();
            v = self.rng.index(n_items);
        }
        v
    }

    /// Samples `k` negatives for user `u` (with replacement across draws).
    pub fn sample_many(&mut self, u: usize, k: usize) -> Vec<usize> {
        (0..k).map(|_| self.sample(u)).collect()
    }
}

/// Shuffled mini-batch iterator over positive training pairs.
#[derive(Debug)]
pub struct BatchIter {
    pairs: Vec<(usize, usize)>,
    batch_size: usize,
    cursor: usize,
}

impl BatchIter {
    /// Collects all training pairs and shuffles them once.
    pub fn new(train: &InteractionSet, batch_size: usize, rng: &mut SplitMix64) -> Self {
        assert!(batch_size > 0, "batch size must be positive");
        let mut pairs: Vec<(usize, usize)> = train.iter_pairs().collect();
        rng.shuffle(&mut pairs);
        Self { pairs, batch_size, cursor: 0 }
    }
}

impl Iterator for BatchIter {
    type Item = Vec<(usize, usize)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.cursor >= self.pairs.len() {
            return None;
        }
        let end = (self.cursor + self.batch_size).min(self.pairs.len());
        let batch = self.pairs[self.cursor..end].to_vec();
        self.cursor = end;
        Some(batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> InteractionSet {
        InteractionSet::from_pairs(3, 10, &[(0, 0), (0, 1), (1, 5), (2, 9)])
    }

    #[test]
    fn negatives_are_never_positives() {
        let train = toy();
        let mut s = NegativeSampler::new(&train, SplitMix64::new(1));
        for _ in 0..1000 {
            let v = s.sample(0);
            assert!(!train.contains(0, v));
        }
    }

    #[test]
    fn sample_many_returns_requested_count() {
        let train = toy();
        let mut s = NegativeSampler::new(&train, SplitMix64::new(2));
        assert_eq!(s.sample_many(1, 7).len(), 7);
    }

    #[test]
    fn dense_user_falls_back_gracefully() {
        // User 0 interacted with everything except item 1.
        let pairs: Vec<(usize, usize)> = (0..10).filter(|&v| v != 1).map(|v| (0, v)).collect();
        let train = InteractionSet::from_pairs(1, 10, &pairs);
        let mut s = NegativeSampler::new(&train, SplitMix64::new(3));
        let hits = (0..200).filter(|_| s.sample(0) == 1).count();
        assert!(hits > 150, "should almost always find the single negative, got {hits}");
    }

    #[test]
    fn batches_cover_all_pairs_exactly_once() {
        let train = toy();
        let mut rng = SplitMix64::new(4);
        let it = BatchIter::new(&train, 3, &mut rng);
        let mut seen: Vec<(usize, usize)> = it.flatten().collect();
        seen.sort_unstable();
        let mut expected: Vec<(usize, usize)> = train.iter_pairs().collect();
        expected.sort_unstable();
        assert_eq!(seen, expected);
    }

    #[test]
    fn batch_iter_shuffle_is_seed_dependent() {
        let train = InteractionSet::from_pairs(
            1,
            100,
            &(0..100).map(|v| (0, v)).collect::<Vec<_>>(),
        );
        let a: Vec<_> =
            BatchIter::new(&train, 100, &mut SplitMix64::new(1)).flatten().collect();
        let b: Vec<_> =
            BatchIter::new(&train, 100, &mut SplitMix64::new(2)).flatten().collect();
        assert_ne!(a, b);
    }
}
