//! Deterministic random-number utilities.
//!
//! All stochastic components in the reproduction (data generators, simulated
//! users, model initialization, selection tie-breaking) draw from [`DetRng`],
//! a self-contained xoshiro256++ generator seeded through SplitMix64. The
//! implementation is dependency-free so the workspace builds hermetically;
//! keeping a single wrapper type centralizes the samplers the system needs
//! (Gaussian via Box–Muller, weighted choice by scan or from a prefix-sum
//! [`WeightTable`], partial Fisher–Yates subset sampling) and guarantees
//! bit-for-bit reproducibility from a seed.

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

/// The scan [`DetRng::choose_weighted`] runs from a drawn point `x`: the
/// first index whose (clean) weight exceeds what is left of `x` after the
/// earlier weights are subtracted one by one, or the last index with a
/// positive weight if floating-point slack runs `x` past the end.
fn scan(weights: &[f64], x: f64) -> usize {
    let mut target = x;
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
    weights
        .iter()
        .rposition(|&w| clean_weight(w) > 0.0)
        // invariant: both callers assert a positive total weight, so some
        // weight is positive.
        .expect("choose_weighted: positive weight must exist")
}

/// A weight table for repeated draws with [`DetRng::choose_from`]: the
/// clean weights (non-finite and negative ones as zero), their prefix sums
/// `P` added in slice order, and `total = P[n-1]`, the same sum
/// [`DetRng::choose_weighted`] draws against, bit for bit.
///
/// A draw takes the point `x = uniform() * total` and the index
/// `c = P.partition_point(|&p| p <= x)`, the first prefix sum above `x`.
/// It returns `c` only when `x` lies more than the margin
/// `M = 4·(n+1)·ε·total` (ε = `f64::EPSILON` = 2⁻⁵²) from both ends of
/// its interval, `P[c-1]` (or 0) and `P[c]`, which also puts it below
/// `total − M`; otherwise it runs the scan of `choose_weighted` from the
/// same `x`. A NaN or infinite `x`, total or margin fails these
/// comparisons and takes the scan too.
///
/// Why the fast index is the scan's. Write `u = 2⁻⁵³` for the unit
/// roundoff and `S_k` for the exact real sum of the first `k` clean
/// weights. The scan passes index `i` while `t_i ≥ w_i` and returns `i`
/// at the first positive weight with `t_i < w_i`, where `t_i` is its
/// running target. While it runs, `0 ≤ t ≤ x`, so each `t − w` rounds by
/// at most `u·x`, and after `k` subtractions `t` is `x − S_k` within
/// `k·u·x`. Each `P[i]` is `S_{i+1}` within `(i+1)·u·total`, every partial
/// sum being at most `total`. So `t_i − w_i` and `x − P[i]` differ by at
/// most `(2n−1)·u·total < M/4`, and wherever `|x − P[i]| > M` the two
/// have the same sign: `t_i < w_i ⟺ x < P[i]`. `P` never decreases, so
/// the margin test on `P[c-1]` and `P[c]` bounds every other `P[i]` as
/// well: the scan passes every index before `c`, and `w_c > 0` because
/// `P[c] > P[c-1]`, so it stops at `c`. The margin's extra factor covers
/// the rounding of the test itself and of `M`.
#[derive(Debug, Clone)]
pub struct WeightTable {
    weights: Vec<f64>,
    prefix: Vec<f64>,
    total: f64,
    margin: f64,
}

impl WeightTable {
    /// The table of `weights`. Any weights are accepted; drawing from an
    /// empty or all-zero table panics.
    pub fn new(weights: &[f64]) -> Self {
        let weights: Vec<f64> = weights.iter().copied().map(clean_weight).collect();
        let mut acc = 0.0;
        let prefix: Vec<f64> = weights
            .iter()
            .map(|&w| {
                acc += w;
                acc
            })
            .collect();
        let total = prefix.last().copied().unwrap_or(0.0);
        let margin = 4.0 * (weights.len() + 1) as f64 * f64::EPSILON * total;
        Self { weights, prefix, total, margin }
    }

    /// The clean weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// The index a draw at point `x` returns.
    fn index_of(&self, x: f64) -> usize {
        let c = self.prefix.partition_point(|&p| p <= x);
        if let Some(&hi) = self.prefix.get(c) {
            let lo = if c == 0 { 0.0 } else { self.prefix[c - 1] };
            if x - lo > self.margin && hi - x > self.margin {
                return c;
            }
        }
        scan(&self.weights, x)
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
    ///
    /// This is the plain scan: it draws `x = uniform() * total`, with
    /// `total` the slice-order sum of the weights, and walks the slice
    /// subtracting each weight from `x` until the rest falls below one.
    /// A caller that draws many times from one table uses
    /// [`DetRng::choose_from`], which returns the same index from the same
    /// stream position.
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        assert!(!weights.is_empty(), "choose_weighted on empty slice");
        let total: f64 = weights.iter().copied().map(clean_weight).sum();
        assert!(total > 0.0, "choose_weighted: all weights are zero");
        scan(weights, self.uniform() * total)
    }

    /// [`DetRng::choose_weighted`] over a precomputed [`WeightTable`]:
    /// the same index, from the same stream position, found by binary
    /// search over the table's prefix sums (see [`WeightTable`] for why
    /// the two agree). Panics if the table is empty or all its weights
    /// are zero/invalid.
    pub fn choose_from(&mut self, table: &WeightTable) -> usize {
        assert!(!table.weights.is_empty(), "choose_weighted on empty slice");
        assert!(table.total > 0.0, "choose_weighted: all weights are zero");
        table.index_of(self.uniform() * table.total)
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
        /// A draw from a [`WeightTable`] is `choose_weighted` draw for
        /// draw: same index and same stream position, over tables mixing
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
            let table = WeightTable::new(&weights);
            let total: f64 = weights.iter().copied().map(clean_weight).sum();
            prop_assert_eq!(table.total.to_bits(), total.to_bits());
            let (mut a, mut b) = (DetRng::new(seed), DetRng::new(seed));
            for _ in 0..32 {
                prop_assert_eq!(a.choose_weighted(&weights), b.choose_from(&table));
            }
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }

        /// The table's lookup returns the scan's index at the points where
        /// the two could part: every prefix sum, its neighbouring floats,
        /// the margin on either side of it, 0, the total, the float below
        /// the total and random points. Weights range from 1e-300 to
        /// 1e300 around a per-table scale, so small weights after large
        /// ones leave gaps inside the margin, or none at all.
        #[test]
        fn prop_table_lookup_equals_scan_at_every_boundary(
            raw in proptest::collection::vec((0u32..10, 1.0f64..10.0, -300i32..=300), 1..201),
            scale in -300i32..=300,
            points in proptest::collection::vec(0.0f64..1.0, 16),
        ) {
            let mut weights: Vec<f64> = raw
                .iter()
                .map(|&(kind, m, e)| match kind {
                    0 => 0.0,
                    1 => -m,
                    2 => f64::NAN,
                    3 => f64::INFINITY,
                    4 => f64::NEG_INFINITY,
                    // Within a few decades of the table's scale.
                    5..=7 => m * 10f64.powi((scale + e % 4).clamp(-300, 300)),
                    _ => m * 10f64.powi(e),
                })
                .collect();
            if !weights.iter().any(|&w| clean_weight(w) > 0.0) {
                weights[0] = 1.0;
            }
            let table = WeightTable::new(&weights);
            let (total, margin) = (table.total, table.margin);
            let step = |x: f64, d: i64| f64::from_bits(x.to_bits().saturating_add_signed(d));
            let mut xs = vec![0.0, total, step(total, -1)];
            for &p in &table.prefix {
                xs.extend([p, step(p, -1), step(p, 1), p - margin, p + margin]);
            }
            xs.extend(points.iter().map(|&u| u * total));
            for x in xs {
                prop_assert_eq!(
                    table.index_of(x),
                    scan(&weights, x),
                    "x = {:e} over weights {:?}",
                    x,
                    weights
                );
            }
        }
    }

    #[test]
    fn overflowing_total_takes_the_scan() {
        let weights = [f64::MAX, f64::MAX];
        let table = WeightTable::new(&weights);
        assert_eq!(table.total, f64::INFINITY);
        for x in [0.0, 1.0, f64::MAX, f64::INFINITY, f64::NAN] {
            assert_eq!(table.index_of(x), scan(&weights, x), "x = {x:e}");
        }
        let (mut a, mut b) = (DetRng::new(3), DetRng::new(3));
        for _ in 0..8 {
            assert_eq!(a.choose_weighted(&weights), b.choose_from(&table));
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
