//! A tiny, deterministic PRNG for reproducible experiments.
//!
//! Experiments in this workspace must be exactly reproducible across runs and
//! platforms given a seed (the paper reports mean ± std over repeated runs).
//! Third-party generators are reproducible per crate version, but a local
//! SplitMix64 keeps the stream format under our control and costs a handful
//! of lines, with zero external dependencies.

/// SplitMix64 generator (Steele, Lea & Flood, 2014). Passes BigCrush when
/// used as a 64-bit stream; more than adequate for embedding init and
/// negative sampling.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed. Distinct seeds give independent
    /// streams for all practical purposes.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Derives an independent child stream; used to give each dataset /
    /// model / epoch its own generator without coupling their draws.
    pub fn fork(&mut self, stream: u64) -> Self {
        let mixed = self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self::new(mixed)
    }

    /// The raw internal state, for checkpointing. Feeding it back through
    /// [`SplitMix64::from_state`] continues the stream bit-identically.
    pub fn state(&self) -> u64 {
        self.state
    }

    /// Rebuilds a generator from a [`SplitMix64::state`] snapshot.
    pub fn from_state(state: u64) -> Self {
        Self { state }
    }

    /// Next value in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits → uniform double in [0, 1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform value in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform integer in `[0, n)`. `n` must be nonzero.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        // Lemire's multiply-shift rejection-free mapping is fine here: the
        // modulo bias for n ≪ 2^64 is negligible for sampling workloads.
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Standard normal draw via Box–Muller (one value per call; the spare
    /// value is discarded for simplicity — init is not a hot path).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.next_f64().max(f64::MIN_POSITIVE);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Samples an index from an (unnormalized) non-negative weight vector.
    /// Panics if the total weight is not positive.
    pub fn weighted_index(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        assert!(total > 0.0, "weighted_index requires positive total weight");
        let mut t = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            t -= w;
            if t <= 0.0 {
                return i;
            }
        }
        weights.len() - 1
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Next raw 64-bit value (SplitMix64 core step).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)` rounded into precision `S`.
    ///
    /// The draw itself always consumes the `f64` stream (one `next_u64`),
    /// so an `S = f32` run sees the *same* random sequence as `f64`, merely
    /// rounded — initialization parity between precisions is exact up to
    /// rounding, and the `f64` instantiation is the identity.
    #[inline]
    pub fn uniform_in<S: crate::Scalar>(&mut self, lo: f64, hi: f64) -> S {
        S::from_f64(self.uniform(lo, hi))
    }

    /// Fills `dest` with random bytes.
    pub fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forked_streams_diverge() {
        let mut root = SplitMix64::new(7);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn state_snapshot_resumes_the_stream_exactly() {
        let mut rng = SplitMix64::new(99);
        for _ in 0..17 {
            rng.next_u64();
        }
        let mut resumed = SplitMix64::from_state(rng.state());
        for _ in 0..100 {
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn f64_draws_stay_in_unit_interval() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn index_covers_range_uniformly_enough() {
        let mut rng = SplitMix64::new(3);
        let mut counts = [0usize; 10];
        for _ in 0..100_000 {
            counts[rng.index(10)] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow ±10 %.
            assert!((9_000..=11_000).contains(&c), "skewed bucket: {c}");
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut rng = SplitMix64::new(9);
        let n = 200_000;
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        for _ in 0..n {
            let v = rng.normal();
            sum += v;
            sum_sq += v * v;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn weighted_index_respects_weights() {
        let mut rng = SplitMix64::new(11);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.weighted_index(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SplitMix64::new(5);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, sorted, "shuffle left the slice in order (astronomically unlikely)");
    }

    #[test]
    fn fill_bytes_handles_non_multiple_lengths() {
        let mut rng = SplitMix64::new(13);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
