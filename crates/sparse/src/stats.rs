//! Small statistics toolbox: entropy, percentiles, softmax, summary stats.
//!
//! These implement the exact quantities the paper's formulas require:
//! the label-model uncertainty `ψ_t(x_i) = −Σ_y P(y|Λ_t) log P(y|Λ_t)`
//! (Eq. 3), the `p`-th percentile refinement radius (Sec. 4.3), and the
//! numerically-stable log-space helpers the models use.

/// Shannon entropy (natural log) of a discrete distribution.
///
/// Zero-probability entries contribute zero (the `0·log 0 = 0` convention).
/// The input need not be perfectly normalized; small drift is tolerated.
pub fn entropy(probs: &[f64]) -> f64 {
    let mut h = 0.0;
    for &p in probs {
        if p > 0.0 {
            h -= p * p.ln();
        }
    }
    h.max(0.0)
}

/// Binary entropy of `P(y = +1) = p`.
#[inline]
pub fn binary_entropy(p: f64) -> f64 {
    entropy(&[p, 1.0 - p])
}

/// The `p`-th percentile (p in \[0, 100\]) of `values` using linear
/// interpolation between closest ranks (the "linear" / type-7 method).
///
/// This is the radius rule of the contextualizer: `r_j` is the `p`-th
/// percentile of distances from the development point to every example.
///
/// **Panics on empty input** — a percentile of nothing has no defined
/// value this toolbox could pick for every caller. Callers whose input
/// may legitimately be empty must guard at their own boundary with a
/// domain-appropriate definition (the contextualizer defines the radius
/// of an LF registered against an empty training split as `+∞`; see
/// `nemo_core::contextualizer`).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of empty slice");
    assert!((0.0..=100.0).contains(&p), "percentile p out of range: {p}");
    let mut sorted = values.to_vec();
    // invariant: inputs are distances, which the kernels keep finite.
    sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in percentile input"));
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = rank - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// [`percentile`] at every `p` of `ps` (any order, duplicates allowed),
/// without sorting: only the order statistics the interpolation reads are
/// found, by `select_nth_unstable_by` in ascending rank order, each
/// selection on the suffix above the previous rank of one scratch copy.
/// `O(n · ranks)` worst case instead of `O(n log n)`, and bit-identical to
/// `percentile(values, p)` for each `p`: it interpolates the same two
/// order statistics with the same arithmetic. (Values that compare equal
/// are bitwise equal, except `0.0` and `-0.0`.) The selection compares
/// with [`f64::total_cmp`]; NaN is rejected by one pass before it.
///
/// Panics on empty input, on NaN input and on `p` outside \[0, 100\],
/// like [`percentile`].
pub fn percentiles(values: &[f64], ps: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "percentile of empty slice");
    let last = values.len() - 1;
    // (lo, hi, frac) per p, exactly as `percentile` derives them.
    let spans: Vec<(usize, usize, f64)> = ps
        .iter()
        .map(|&p| {
            assert!((0.0..=100.0).contains(&p), "percentile p out of range: {p}");
            let rank = p / 100.0 * last as f64;
            let lo = rank.floor() as usize;
            (lo, rank.ceil() as usize, rank - lo as f64)
        })
        .collect();
    let mut ranks: Vec<usize> = spans.iter().flat_map(|&(lo, hi, _)| [lo, hi]).collect();
    ranks.sort_unstable();
    ranks.dedup();
    // invariant: inputs are distances, which the kernels keep finite.
    assert!(!values.iter().any(|v| v.is_nan()), "NaN in percentile input");
    let mut scratch = values.to_vec();
    // Everything left of `start` is ≤ every element from `start` on, so
    // selecting rank `r` inside the suffix places the `r`-th order
    // statistic of the whole slice at index `r`.
    let mut start = 0;
    for r in ranks {
        scratch[start..].select_nth_unstable_by(r - start, f64::total_cmp);
        start = r + 1;
    }
    let interpolate = |(lo, hi, frac): (usize, usize, f64)| {
        if lo == hi {
            scratch[lo]
        } else {
            scratch[lo] * (1.0 - frac) + scratch[hi] * frac
        }
    };
    spans.into_iter().map(interpolate).collect()
}

/// Numerically-stable log-sum-exp.
pub fn logsumexp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if m.is_infinite() && m < 0.0 {
        return f64::NEG_INFINITY;
    }
    m + xs.iter().map(|&x| (x - m).exp()).sum::<f64>().ln()
}

/// Numerically-stable softmax.
pub fn softmax(xs: &[f64]) -> Vec<f64> {
    let lse = logsumexp(xs);
    xs.iter().map(|&x| (x - lse).exp()).collect()
}

/// Logistic sigmoid with guard against overflow: `exp` only ever sees the
/// non-positive argument `−|x|`, and the numerator is a select, not a
/// branch, because the sign of `x` is close to random along an SGD pass.
/// For `x < 0`, `−|x| == x` exactly, so every input (±0, ±∞ and NaN
/// included) maps to the bits of the two-branch form `1 / (1 + e^−x)`
/// for `x ≥ 0`, `e^x / (1 + e^x)` otherwise.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    let e = (-x.abs()).exp();
    let num = if x >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// Mean of a slice (0.0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Sample standard deviation (0.0 for fewer than two values).
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Index of the maximum value, with *deterministic* first-occurrence
/// tie-breaking. Panics on empty input.
pub fn argmax(xs: &[f64]) -> usize {
    assert!(!xs.is_empty(), "argmax of empty slice");
    let mut best = 0;
    for (i, &x) in xs.iter().enumerate().skip(1) {
        if x > xs[best] {
            best = i;
        }
    }
    best
}

/// All indices attaining the maximum (for randomized tie-breaking by the
/// selection strategies, which matters when scores are flat early on).
pub fn argmax_set(xs: &[f64]) -> Vec<usize> {
    assert!(!xs.is_empty(), "argmax_set of empty slice");
    let mx = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    xs.iter().enumerate().filter(|&(_, &x)| x == mx).map(|(i, _)| i).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn entropy_uniform_binary() {
        assert!((binary_entropy(0.5) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    fn entropy_degenerate_zero() {
        assert_eq!(binary_entropy(0.0), 0.0);
        assert_eq!(binary_entropy(1.0), 0.0);
    }

    #[test]
    fn entropy_symmetric() {
        assert!((binary_entropy(0.3) - binary_entropy(0.7)).abs() < 1e-12);
    }

    #[test]
    fn percentile_endpoints() {
        let v = [5.0, 1.0, 3.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 33.0), 7.0);
    }

    #[test]
    fn percentiles_match_percentile_on_a_fixed_grid() {
        let v = [0.3, 0.9, 0.1, 0.5, 0.5, 0.7, 0.2];
        let ps = [100.0, 25.0, 50.0, 75.0, 25.0, 0.0, 33.3];
        let got = percentiles(&v, &ps);
        for (k, &p) in ps.iter().enumerate() {
            assert_eq!(got[k].to_bits(), percentile(&v, p).to_bits(), "p={p}");
        }
        assert!(percentiles(&v, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "percentile of empty slice")]
    fn percentiles_panic_on_empty_input() {
        percentiles(&[], &[50.0]);
    }

    #[test]
    #[should_panic(expected = "percentile p out of range")]
    fn percentiles_panic_on_p_above_100() {
        percentiles(&[1.0, 2.0], &[50.0, 100.5]);
    }

    #[test]
    #[should_panic(expected = "percentile p out of range")]
    fn percentiles_panic_on_negative_p() {
        percentiles(&[1.0, 2.0], &[-1.0]);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_panics_on_leading_nan() {
        percentile(&[f64::NAN, 1.0, 2.0], 50.0);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_panics_on_middle_nan() {
        percentile(&[1.0, f64::NAN, 2.0], 50.0);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentile_panics_on_trailing_nan() {
        percentile(&[1.0, 2.0, f64::NAN], 50.0);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentiles_panic_on_leading_nan() {
        percentiles(&[f64::NAN, 1.0, 2.0], &[0.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentiles_panic_on_middle_nan() {
        percentiles(&[1.0, f64::NAN, 2.0], &[0.0, 50.0]);
    }

    #[test]
    #[should_panic(expected = "NaN in percentile input")]
    fn percentiles_panic_on_trailing_nan() {
        percentiles(&[1.0, 2.0, f64::NAN], &[0.0, 50.0]);
    }

    #[test]
    fn logsumexp_stable_for_large_inputs() {
        let v = [1000.0, 1000.0];
        assert!((logsumexp(&v) - (1000.0 + std::f64::consts::LN_2)).abs() < 1e-9);
    }

    #[test]
    fn logsumexp_empty_like() {
        assert_eq!(logsumexp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
    }

    #[test]
    fn softmax_normalizes() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn sigmoid_basics() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
        assert!(sigmoid(40.0) > 0.999_999);
        assert!(sigmoid(-40.0) < 1e-6);
        assert!((sigmoid(2.0) + sigmoid(-2.0) - 1.0).abs() < 1e-12);
    }

    /// The two-branch sigmoid the branch-free one replaced.
    fn sigmoid_two_branch(x: f64) -> f64 {
        if x >= 0.0 {
            let e = (-x).exp();
            1.0 / (1.0 + e)
        } else {
            let e = x.exp();
            e / (1.0 + e)
        }
    }

    fn assert_sigmoid_matches_two_branch(x: f64) {
        let (got, want) = (sigmoid(x), sigmoid_two_branch(x));
        if want.is_nan() {
            assert!(got.is_nan(), "sigmoid({x:e}) = {got:e}, want NaN");
        } else {
            assert_eq!(got.to_bits(), want.to_bits(), "sigmoid({x:e}): {got:e} vs {want:e}");
        }
    }

    #[test]
    fn sigmoid_bit_identical_to_two_branch_form() {
        let edges = [
            0.0,
            f64::INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::EPSILON,
            1.0,
            36.0,
            37.0,
            708.0,
            709.0,
            709.78,
            709.8,
            710.0,
            744.0,
            745.0,
            745.13,
            745.2,
            746.0,
            1e300,
            f64::MAX,
        ];
        for &x in &edges {
            assert_sigmoid_matches_two_branch(x);
            assert_sigmoid_matches_two_branch(-x);
        }
        assert_eq!(sigmoid(-0.0).to_bits(), 0.5f64.to_bits());
        assert_eq!(sigmoid(f64::INFINITY), 1.0);
        assert_eq!(sigmoid(f64::NEG_INFINITY), 0.0);
        // Neighbouring floats around the `exp` under/overflow edges.
        for edge in [709.78f64, 745.13] {
            let mut x = edge;
            for _ in 0..64 {
                assert_sigmoid_matches_two_branch(x);
                assert_sigmoid_matches_two_branch(-x);
                x = f64::from_bits(x.to_bits() + 1);
            }
        }
        // Random draws across magnitudes, subnormal to overflow.
        let mut rng = crate::DetRng::new(0x5167_0001);
        for _ in 0..4096 {
            let magnitude = 10f64.powf(rng.uniform_in(-320.0, 3.0));
            let x = if rng.bernoulli(0.5) { magnitude } else { -magnitude };
            assert_sigmoid_matches_two_branch(x);
            assert_sigmoid_matches_two_branch(rng.uniform_in(-800.0, 800.0));
        }
    }

    #[test]
    fn mean_std() {
        let v = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&v) - 5.0).abs() < 1e-12);
        assert!((std_dev(&v) - 2.138_089_935).abs() < 1e-6);
        assert_eq!(std_dev(&[1.0]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn argmax_first_tie() {
        assert_eq!(argmax(&[1.0, 3.0, 3.0]), 1);
        assert_eq!(argmax_set(&[1.0, 3.0, 3.0]), vec![1, 2]);
    }

    proptest! {
        #[test]
        fn prop_entropy_nonneg_bounded(p in 0.0f64..=1.0) {
            let h = binary_entropy(p);
            prop_assert!(h >= 0.0);
            prop_assert!(h <= std::f64::consts::LN_2 + 1e-12);
        }

        #[test]
        fn prop_softmax_is_distribution(
            xs in proptest::collection::vec(-50.0f64..50.0, 1..10),
        ) {
            let s = softmax(&xs);
            prop_assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            prop_assert!(s.iter().all(|&p| (0.0..=1.0).contains(&p)));
        }

        #[test]
        fn prop_percentile_monotone_in_p(
            v in proptest::collection::vec(-100.0f64..100.0, 2..40),
            p1 in 0.0f64..=100.0,
            p2 in 0.0f64..=100.0,
        ) {
            let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
            prop_assert!(percentile(&v, lo) <= percentile(&v, hi) + 1e-12);
        }

        #[test]
        fn prop_percentile_within_range(
            v in proptest::collection::vec(-100.0f64..100.0, 1..40),
            p in 0.0f64..=100.0,
        ) {
            let x = percentile(&v, p);
            let mn = v.iter().copied().fold(f64::INFINITY, f64::min);
            let mx = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(x >= mn - 1e-12 && x <= mx + 1e-12);
        }

        #[test]
        fn prop_percentiles_bit_identical_to_percentile(
            picks in proptest::collection::vec(0usize..6, 1..301),
            spread in proptest::collection::vec(0.0f64..1000.0, 6),
            grid in proptest::collection::vec(0.0f64..=100.0, 0..6),
            shuffle in 0usize..8,
        ) {
            // Values drawn from a six-element set: heavy ties at every length.
            let v: Vec<f64> = picks.iter().map(|&i| spread[i]).collect();
            // The drawn grid is unsorted; add both endpoints and a duplicate.
            let mut ps = grid.clone();
            ps.extend([0.0, 100.0]);
            let n = ps.len();
            ps.push(ps[shuffle % n]);
            ps.rotate_left(shuffle % (n + 1));
            let got = percentiles(&v, &ps);
            prop_assert_eq!(got.len(), ps.len());
            for (k, &p) in ps.iter().enumerate() {
                prop_assert_eq!(
                    got[k].to_bits(),
                    percentile(&v, p).to_bits(),
                    "n={} p={p}: {} vs {}", v.len(), got[k], percentile(&v, p)
                );
            }
        }
    }
}
