//! The LF utility function `Ψ_t(λ)` (paper Eq. 3) and its ablations
//! (Table 7).
//!
//! ```text
//! Ψ_t(λ_{z,y}) = Σ_{i ∈ cov(z)}  ψ_t(x_i) · ( λ(x_i) · ŷ_i )
//! ```
//!
//! where `ψ_t(x_i)` is the label-model uncertainty (posterior entropy) and
//! `ŷ_i` the end model's current hard prediction standing in for the
//! ground truth. Because a primitive LF votes the constant `y` over its
//! coverage, the sum factorizes into per-primitive aggregates that are
//! shared between the positive and negative LF of the same primitive —
//! the key to SEU's `O(nnz)` scorer (docs/ARCHITECTURE.md, "One
//! interactive round"):
//!
//! ```text
//! Ψ_t(λ_{z,y}) = sign(y) · Σ_{i ∈ cov(z)} ψ_t(x_i) · sign(ŷ_i)
//! ```

use nemo_lf::Label;

/// Per-primitive aggregates accumulated in one pass over the inverted
/// index, from which every utility variant and the accuracy estimates are
/// O(1) per LF.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrimAgg {
    /// `Σ_{i∈cov(z)} ψ(x_i) · sign(ŷ_i)`.
    pub s_psi_yhat: f64,
    /// `Σ_{i∈cov(z)} sign(ŷ_i)`.
    pub s_yhat: f64,
    /// `Σ_{i∈cov(z)} ψ(x_i)`.
    pub s_psi: f64,
    /// `|{i ∈ cov(z) : ŷ_i = +1}|`.
    pub n_pos: usize,
    /// `|cov(z)|`.
    pub df: usize,
}

impl PrimAgg {
    /// Accumulate one covered example.
    #[inline]
    pub fn add(&mut self, psi: f64, yhat_sign: i8) {
        let s = yhat_sign as f64;
        self.s_psi_yhat += psi * s;
        self.s_yhat += s;
        self.s_psi += psi;
        self.n_pos += usize::from(yhat_sign > 0);
        self.df += 1;
    }

    /// Estimated accuracy of `λ_{z,y}` under the proxy labels `ŷ`:
    /// the fraction of the coverage predicted as `y`.
    #[inline]
    pub fn accuracy(&self, y: Label) -> f64 {
        if self.df == 0 {
            return 0.0;
        }
        let pos_frac = self.n_pos as f64 / self.df as f64;
        match y {
            Label::Pos => pos_frac,
            Label::Neg => 1.0 - pos_frac,
        }
    }
}

/// Utility-function variants (Eq. 3 and the Table 7 ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UtilityKind {
    /// `Σ ψ(x_i) · λ(x_i)·ŷ_i` — informativeness × correctness (Eq. 3).
    #[default]
    Full,
    /// `Σ λ(x_i)·ŷ_i` — correctness only.
    NoInformativeness,
    /// `Σ ψ(x_i)` — informativeness only.
    NoCorrectness,
}

impl UtilityKind {
    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            UtilityKind::Full => "full",
            UtilityKind::NoInformativeness => "no-informativeness",
            UtilityKind::NoCorrectness => "no-correctness",
        }
    }

    /// `Ψ_t(λ_{z,y})` from the primitive's aggregates.
    #[inline]
    pub fn value(self, agg: &PrimAgg, y: Label) -> f64 {
        let sign = y.sign() as f64;
        match self {
            UtilityKind::Full => sign * agg.s_psi_yhat,
            UtilityKind::NoInformativeness => sign * agg.s_yhat,
            UtilityKind::NoCorrectness => agg.s_psi,
        }
    }

    /// Direct (non-aggregated) evaluation over an explicit coverage list —
    /// the reference implementation used for differential testing.
    pub fn value_naive(self, y: Label, coverage: &[u32], psi: &[f64], yhat_signs: &[i8]) -> f64 {
        let sign = y.sign() as f64;
        coverage
            .iter()
            .map(|&i| {
                let i = i as usize;
                match self {
                    UtilityKind::Full => psi[i] * sign * yhat_signs[i] as f64,
                    UtilityKind::NoInformativeness => sign * yhat_signs[i] as f64,
                    UtilityKind::NoCorrectness => psi[i],
                }
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn agg_from(cov: &[u32], psi: &[f64], yhat: &[i8]) -> PrimAgg {
        let mut a = PrimAgg::default();
        for &i in cov {
            a.add(psi[i as usize], yhat[i as usize]);
        }
        a
    }

    #[test]
    fn full_utility_rewards_correct_uncertain() {
        // One uncertain example predicted +1: a Pos LF gains, a Neg LF loses.
        let psi = [0.69];
        let yhat = [1i8];
        let agg = agg_from(&[0], &psi, &yhat);
        assert!(UtilityKind::Full.value(&agg, Label::Pos) > 0.0);
        assert!(UtilityKind::Full.value(&agg, Label::Neg) < 0.0);
    }

    #[test]
    fn full_utility_weights_by_uncertainty() {
        let psi = [0.7, 0.1];
        let yhat = [1i8, 1];
        let high = agg_from(&[0], &psi, &yhat);
        let low = agg_from(&[1], &psi, &yhat);
        assert!(
            UtilityKind::Full.value(&high, Label::Pos) > UtilityKind::Full.value(&low, Label::Pos)
        );
    }

    #[test]
    fn no_correctness_is_label_invariant() {
        let psi = [0.5, 0.2];
        let yhat = [1i8, -1];
        let agg = agg_from(&[0, 1], &psi, &yhat);
        assert_eq!(
            UtilityKind::NoCorrectness.value(&agg, Label::Pos),
            UtilityKind::NoCorrectness.value(&agg, Label::Neg)
        );
    }

    #[test]
    fn accuracy_estimate_from_aggregates() {
        let psi = [0.0; 4];
        let yhat = [1i8, 1, 1, -1];
        let agg = agg_from(&[0, 1, 2, 3], &psi, &yhat);
        assert!((agg.accuracy(Label::Pos) - 0.75).abs() < 1e-12);
        assert!((agg.accuracy(Label::Neg) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_coverage_zero() {
        let agg = PrimAgg::default();
        assert_eq!(agg.accuracy(Label::Pos), 0.0);
        assert_eq!(UtilityKind::Full.value(&agg, Label::Pos), 0.0);
    }

    proptest! {
        #[test]
        fn prop_aggregated_equals_naive(
            psi in proptest::collection::vec(0.0f64..0.7, 8),
            yhat_bits in proptest::collection::vec(proptest::bool::ANY, 8),
            cov_bits in proptest::collection::vec(proptest::bool::ANY, 8),
        ) {
            let yhat: Vec<i8> = yhat_bits.iter().map(|&b| if b { 1 } else { -1 }).collect();
            let cov: Vec<u32> = cov_bits
                .iter()
                .enumerate()
                .filter(|&(_, &b)| b)
                .map(|(i, _)| i as u32)
                .collect();
            let agg = agg_from(&cov, &psi, &yhat);
            for kind in [UtilityKind::Full, UtilityKind::NoInformativeness, UtilityKind::NoCorrectness] {
                for y in nemo_lf::Label::ALL {
                    let fast = kind.value(&agg, y);
                    let naive = kind.value_naive(y, &cov, &psi, &yhat);
                    prop_assert!((fast - naive).abs() < 1e-9, "{kind:?} {y:?}");
                }
            }
        }
    }
}
