//! The SEU user model `P(λ | x)` (paper Eq. 2 and Eq. 6).
//!
//! Given a development example `x`, the user model scores how likely the
//! user is to return each candidate LF `λ_{z,y}` with `z` contained in `x`.
//! Following the paper's chain-rule decomposition, the probability factors
//! into the label prior `P(y)` and a primitive-pick term proportional to a
//! weight `w(acc(λ_{z,y}))`:
//!
//! - [`UserModelKind::AccuracyWeighted`] (Eq. 2): `w = acc`, normalized
//!   over the candidate primitives of `x` — users preferentially extract
//!   primitives that are strongly label-indicative.
//! - [`UserModelKind::Uniform`] (Table 6 ablation): `w = 1`.
//! - [`UserModelKind::MultiLfIndicator`] (Eq. 6, Sec. 7): `w = acc ·
//!   1[acc > 0.5]`, *unnormalized* — the multi-LF generalization where the
//!   user may return every sufficiently-accurate candidate.
//!
//! Accuracies are approximated with the end model's current predictions
//! `ŷ = f(x)` in place of the unobserved ground truth (Sec. 4.2).

/// The user-model variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UserModelKind {
    /// Accuracy-weighted pick probability (paper Eq. 2) — Nemo's default.
    #[default]
    AccuracyWeighted,
    /// Uniform pick probability (Table 6 ablation).
    Uniform,
    /// Thresholded accuracy weight of the multi-LF extension (Eq. 6).
    MultiLfIndicator,
}

impl UserModelKind {
    /// Name for reports.
    pub fn name(self) -> &'static str {
        match self {
            UserModelKind::AccuracyWeighted => "accuracy-weighted",
            UserModelKind::Uniform => "uniform",
            UserModelKind::MultiLfIndicator => "multi-lf-indicator",
        }
    }

    /// Weight assigned to a candidate LF with estimated accuracy `acc`.
    #[inline]
    pub fn weight(self, acc: f64) -> f64 {
        match self {
            UserModelKind::AccuracyWeighted => acc,
            UserModelKind::Uniform => 1.0,
            UserModelKind::MultiLfIndicator => {
                if acc > 0.5 {
                    acc
                } else {
                    0.0
                }
            }
        }
    }

    /// Whether weights are normalized over the candidates of an example
    /// (the single-LF models are proper conditional distributions; the
    /// multi-LF model scores each candidate independently).
    #[inline]
    pub fn normalized(self) -> bool {
        !matches!(self, UserModelKind::MultiLfIndicator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_weighted_prefers_accurate() {
        let m = UserModelKind::AccuracyWeighted;
        assert!(m.weight(0.9) > m.weight(0.6));
    }

    #[test]
    fn uniform_ignores_accuracy() {
        let m = UserModelKind::Uniform;
        assert_eq!(m.weight(0.9), m.weight(0.1));
    }

    #[test]
    fn indicator_zeroes_below_half() {
        let m = UserModelKind::MultiLfIndicator;
        assert_eq!(m.weight(0.5), 0.0);
        assert_eq!(m.weight(0.49), 0.0);
        assert!((m.weight(0.8) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn normalization_flags() {
        assert!(UserModelKind::AccuracyWeighted.normalized());
        assert!(UserModelKind::Uniform.normalized());
        assert!(!UserModelKind::MultiLfIndicator.normalized());
    }
}
