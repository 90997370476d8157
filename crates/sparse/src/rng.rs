//! Deterministic random-number utilities.
//!
//! All stochastic components in the reproduction (data generators, simulated
//! users, model initialization, selection tie-breaking) draw from [`DetRng`],
//! a self-contained xoshiro256++ generator seeded through SplitMix64. The
//! implementation is dependency-free so the workspace builds hermetically;
//! keeping a single wrapper type centralizes the samplers the system needs
//! (Gaussian via Box–Muller, weighted choice, partial Fisher–Yates subset
//! sampling) and guarantees bit-for-bit reproducibility from a seed.

/// Deterministic RNG used across the workspace.
///
/// Cloning is intentionally not implemented: every consumer should either
/// own its `DetRng` (seeded from an experiment-level seed) or derive a
/// sub-stream with [`DetRng::fork`], which produces an independent stream
/// so that adding draws to one component does not perturb another.
#[derive(Debug)]
pub struct DetRng {
    state: [u64; 4],
    /// Cached second Gaussian variate from Box–Muller.
    gauss_spare: Option<f64>,
}

#[inline]
fn splitmix64(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A sampling weight as [`DetRng::choose_weighted`] counts it: non-finite
/// and negative weights are zero.
#[inline]
fn clean_weight(w: f64) -> f64 {
    if w.is_finite() && w > 0.0 {
        w
    } else {
        0.0
    }
}

impl DetRng {
    /// Create a new deterministic RNG from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        // SplitMix64 seed expansion, the recommended initializer for
        // xoshiro-family generators (avoids all-zero and low-entropy
        // states for small seeds).
        let mut s = seed;
        Self {
            state: [splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s), splitmix64(&mut s)],
            gauss_spare: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256++).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut n2 = s2 ^ s0;
        let mut n3 = s3 ^ s1;
        let n1 = s1 ^ n2;
        let n0 = s0 ^ n3;
        n2 ^= t;
        n3 = n3.rotate_left(45);
        self.state = [n0, n1, n2, n3];
        result
    }

    /// Export the raw generator state for checkpointing: the xoshiro256++
    /// state words plus the cached Box–Muller spare, exactly enough to
    /// resume the stream bit-for-bit with [`DetRng::from_raw_state`].
    pub fn raw_state(&self) -> ([u64; 4], Option<f64>) {
        (self.state, self.gauss_spare)
    }

    /// Rebuild a generator from a state exported by [`DetRng::raw_state`].
    ///
    /// This is a checkpoint-restore entry point, not a seeding API — use
    /// [`DetRng::new`] to start a fresh stream. Returns `None` for the
    /// all-zero state, which is a fixed point of xoshiro256++ (the stream
    /// would emit zeros forever) and is unreachable from `DetRng::new`, so
    /// it can only arise from a corrupted or hand-crafted checkpoint.
    pub fn from_raw_state(state: [u64; 4], gauss_spare: Option<f64>) -> Option<Self> {
        if state == [0; 4] {
            return None;
        }
        Some(Self { state, gauss_spare })
    }

    /// Derive an independent sub-stream identified by `salt`.
    ///
    /// Forking with distinct salts yields streams that do not interact, so a
    /// component can be added or removed without shifting the draws seen by
    /// the others — important for ablation experiments that must differ only
    /// in the ablated component.
    pub fn fork(&mut self, salt: u64) -> DetRng {
        // Mix a fresh draw with the salt via splitmix64 finalization.
        let mut z = self.next_u64() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        DetRng::new(z)
    }

    /// Uniform `f64` in `[0, 1)` (53-bit precision).
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo <= hi);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "DetRng::index called with n = 0");
        // Lemire's multiply-shift bounded generation with rejection of the
        // biased low-word zone.
        let n = n as u64;
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(n as u128);
        let mut low = m as u64;
        if low < n {
            let threshold = n.wrapping_neg() % n;
            while low < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(n as u128);
                low = m as u64;
            }
        }
        (m >> 64) as usize
    }

    /// Bernoulli draw with success probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn bernoulli(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard Gaussian variate via Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Draw u1 in (0, 1] to avoid ln(0).
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Sample from a geometric-ish document-length distribution clamped to
    /// `[min_len, max_len]`: `min_len + round(|N(0, spread)|)`.
    pub fn length(&mut self, min_len: usize, mean_len: usize, max_len: usize) -> usize {
        let spread = (mean_len.saturating_sub(min_len)) as f64;
        let draw =
            min_len as f64 + self.gaussian().abs() * spread * 0.8 + self.uniform() * spread * 0.4;
        (draw.round() as usize).clamp(min_len, max_len)
    }

    /// Weighted choice: returns an index `i` with probability proportional
    /// to `weights[i]`. Non-finite or negative weights are treated as zero.
    /// Panics if all weights are zero/invalid or the slice is empty.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        self.choose_weighted_with_total(weights, DetRng::weight_total(weights))
    }

    /// The total [`DetRng::choose_weighted`] draws against: the sum, in
    /// slice order, of the weights with non-finite and negative ones
    /// counted as zero.
    pub fn weight_total(weights: &[f64]) -> f64 {
        weights.iter().copied().map(clean_weight).sum()
    }

    /// [`DetRng::choose_weighted`] with its total precomputed, for a
    /// caller that draws many times from one weight table. `total` must be
    /// [`DetRng::weight_total`] of `weights`; the draw is then the same
    /// index, from the same stream position, as `choose_weighted`.
    pub fn choose_weighted_with_total(&mut self, weights: &[f64], total: f64) -> usize {
        assert!(!weights.is_empty(), "choose_weighted on empty slice");
        assert!(total > 0.0, "choose_weighted: all weights are zero");
        let mut target = self.uniform() * total;
        for (i, &w) in weights.iter().enumerate() {
            let w = clean_weight(w);
            if w <= 0.0 {
                continue;
            }
            if target < w {
                return i;
            }
            target -= w;
        }
        // Floating-point slack: return the last index with positive weight.
        weights
            .iter()
            .rposition(|&w| clean_weight(w) > 0.0)
            // invariant: the caller-facing precondition (asserted above)
            // is a positive total weight, so some weight is positive.
            .expect("choose_weighted: positive weight must exist")
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (k ≤ n), in random order.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct items from {n}");
        if k == 0 {
            return Vec::new();
        }
        // Partial Fisher–Yates over an index array; O(n) setup is fine at
        // the corpus sizes used here, and exact/deterministic.
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform().to_bits(), b.uniform().to_bits());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..32).filter(|_| a.uniform() == b.uniform()).count();
        assert!(same < 4);
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root1 = DetRng::new(7);
        let mut root2 = DetRng::new(7);
        let mut fork_a = root1.fork(1);
        // Consuming from fork_a must not change what root's *next* fork sees
        // relative to an identical root that never touched fork_a.
        for _ in 0..10 {
            fork_a.uniform();
        }
        let _ = root2.fork(1);
        let mut f1 = root1.fork(2);
        let mut f2 = root2.fork(2);
        assert_eq!(f1.uniform().to_bits(), f2.uniform().to_bits());
    }

    #[test]
    fn index_within_bounds() {
        let mut rng = DetRng::new(3);
        for n in 1..40usize {
            for _ in 0..20 {
                assert!(rng.index(n) < n);
            }
        }
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = DetRng::new(29);
        let mut counts = [0usize; 8];
        let draws = 80_000;
        for _ in 0..draws {
            counts[rng.index(8)] += 1;
        }
        let expected = draws as f64 / 8.0;
        for &c in &counts {
            assert!((c as f64 - expected).abs() < expected * 0.05, "counts {counts:?}");
        }
    }

    #[test]
    fn gaussian_moments_roughly_standard() {
        let mut rng = DetRng::new(11);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn bernoulli_rate() {
        let mut rng = DetRng::new(5);
        let hits = (0..20_000).filter(|_| rng.bernoulli(0.3)).count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.3).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn choose_weighted_respects_weights() {
        let mut rng = DetRng::new(9);
        let weights = [0.0, 1.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert_eq!(counts[0], 0);
        let ratio = counts[2] as f64 / counts[1] as f64;
        assert!((ratio - 3.0).abs() < 0.25, "ratio {ratio}");
    }

    #[test]
    fn choose_weighted_ignores_nan_and_negative() {
        let mut rng = DetRng::new(10);
        let weights = [f64::NAN, -5.0, 2.0];
        for _ in 0..100 {
            assert_eq!(rng.choose_weighted(&weights), 2);
        }
    }

    #[test]
    #[should_panic(expected = "all weights are zero")]
    fn choose_weighted_all_zero_panics() {
        let mut rng = DetRng::new(1);
        rng.choose_weighted(&[0.0, 0.0]);
    }

    proptest! {
        /// The precomputed-total draw is `choose_weighted` draw for draw:
        /// same index and same stream position, over tables mixing
        /// positive, zero, negative, NaN and infinite weights.
        #[test]
        fn prop_draw_with_total_equals_choose_weighted(
            raw in proptest::collection::vec((0u32..6, 0.0f64..4.0), 0..24),
            seed in 0u64..1_000_000,
        ) {
            let mut weights: Vec<f64> = raw
                .iter()
                .map(|&(kind, w)| match kind {
                    0 => 0.0,
                    1 => -w,
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    _ => w,
                })
                .collect();
            // At least one positive weight, so neither side panics.
            weights.push(0.5);
            let total = DetRng::weight_total(&weights);
            let (mut a, mut b) = (DetRng::new(seed), DetRng::new(seed));
            for _ in 0..32 {
                prop_assert_eq!(a.choose_weighted(&weights), b.choose_weighted_with_total(&weights, total));
            }
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(13);
        let mut v: Vec<usize> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = DetRng::new(17);
        let sample = rng.sample_indices(100, 30);
        assert_eq!(sample.len(), 30);
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 30);
        assert!(sample.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_full_is_permutation() {
        let mut rng = DetRng::new(19);
        let mut sample = rng.sample_indices(10, 10);
        sample.sort_unstable();
        assert_eq!(sample, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn length_clamped() {
        let mut rng = DetRng::new(23);
        for _ in 0..1000 {
            let l = rng.length(5, 20, 60);
            assert!((5..=60).contains(&l));
        }
    }
}
