//! Per-example posterior distributions `P(y_i | L)`.

use nemo_lf::{label_from_prob, Label};
use nemo_sparse::stats::binary_entropy;

/// Probabilistic soft labels for a set of examples.
#[derive(Debug, Clone)]
pub struct Posterior {
    p_pos: Vec<f64>,
}

impl Posterior {
    /// Wrap a `P(y = +1)` vector (each entry clamped to `[0, 1]`).
    pub fn new(p_pos: Vec<f64>) -> Self {
        let p_pos = p_pos.into_iter().map(|p| p.clamp(0.0, 1.0)).collect();
        Self { p_pos }
    }

    /// Uniform-prior posterior over `n` examples.
    pub fn from_prior(n: usize, prior_pos: f64) -> Self {
        Self::new(vec![prior_pos; n])
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.p_pos.len()
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.p_pos.is_empty()
    }

    /// `P(y_i = +1)`.
    #[inline]
    pub fn p_pos(&self, i: usize) -> f64 {
        self.p_pos[i]
    }

    /// The full `P(y = +1)` vector.
    pub fn p_pos_slice(&self) -> &[f64] {
        &self.p_pos
    }

    /// `[P(y_i = −1), P(y_i = +1)]`.
    #[inline]
    pub fn probs(&self, i: usize) -> [f64; 2] {
        [1.0 - self.p_pos[i], self.p_pos[i]]
    }

    /// Label-model uncertainty `ψ(x_i)` (Shannon entropy of the posterior,
    /// paper Eq. 3).
    #[inline]
    pub fn entropy(&self, i: usize) -> f64 {
        binary_entropy(self.p_pos[i])
    }

    /// Entropies of all examples.
    pub fn entropies(&self) -> Vec<f64> {
        self.p_pos.iter().map(|&p| binary_entropy(p)).collect()
    }

    /// Hard labels (0.5 threshold, ties positive).
    pub fn hard_labels(&self) -> Vec<Label> {
        self.p_pos.iter().map(|&p| label_from_prob(p)).collect()
    }

    /// Mean log-likelihood of gold `labels` under these posteriors — the
    /// proper scoring rule `tune_p` selects the refinement percentile
    /// with. Probabilities are clamped to `[ε, 1−ε]` (ε = 1e-6) so a
    /// confidently wrong posterior scores a large finite penalty instead
    /// of `−∞`. The sum runs in label order and divides once, so two
    /// calls over content-equal inputs are **bitwise** identical — the
    /// property the equivalence-class score dedup relies on. An empty
    /// label slice scores a vacuous `0.0` (no evidence either way).
    pub fn mean_log_likelihood(&self, labels: &[Label]) -> f64 {
        if labels.is_empty() {
            return 0.0;
        }
        let eps = 1e-6;
        let mut loglik = 0.0;
        for (i, &gold) in labels.iter().enumerate() {
            let p_pos = self.p_pos[i].clamp(eps, 1.0 - eps);
            loglik += match gold {
                Label::Pos => p_pos.ln(),
                Label::Neg => (1.0 - p_pos).ln(),
            };
        }
        loglik / labels.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_inputs() {
        let p = Posterior::new(vec![-0.5, 1.7, 0.3]);
        assert_eq!(p.p_pos(0), 0.0);
        assert_eq!(p.p_pos(1), 1.0);
        assert_eq!(p.p_pos(2), 0.3);
    }

    #[test]
    fn probs_sum_to_one() {
        let p = Posterior::new(vec![0.2, 0.9]);
        for i in 0..2 {
            let [n, pos] = p.probs(i);
            assert!((n + pos - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn entropy_peaks_at_half() {
        let p = Posterior::new(vec![0.5, 0.0, 1.0, 0.9]);
        assert!(p.entropy(0) > p.entropy(3));
        assert_eq!(p.entropy(1), 0.0);
        assert_eq!(p.entropy(2), 0.0);
    }

    #[test]
    fn hard_labels_threshold() {
        let p = Posterior::new(vec![0.49, 0.5, 0.51]);
        assert_eq!(p.hard_labels(), vec![Label::Neg, Label::Pos, Label::Pos]);
    }

    #[test]
    fn prior_constructor() {
        let p = Posterior::from_prior(3, 0.3);
        assert_eq!(p.len(), 3);
        assert!((p.p_pos(2) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn mean_log_likelihood_matches_manual_sum() {
        let p = Posterior::new(vec![0.9, 0.2, 0.5]);
        let labels = [Label::Pos, Label::Neg, Label::Pos];
        let expect = (0.9f64.ln() + 0.8f64.ln() + 0.5f64.ln()) / 3.0;
        assert!((p.mean_log_likelihood(&labels) - expect).abs() < 1e-12);
    }

    #[test]
    fn mean_log_likelihood_clamps_and_handles_empty() {
        // A posterior of exactly 0/1 on the wrong label must stay finite.
        let p = Posterior::new(vec![0.0, 1.0]);
        let s = p.mean_log_likelihood(&[Label::Pos, Label::Neg]);
        assert!(s.is_finite() && s < -10.0, "confidently wrong scores a large penalty: {s}");
        let empty = Posterior::new(vec![]);
        assert_eq!(empty.mean_log_likelihood(&[]), 0.0);
    }

    #[test]
    fn mean_log_likelihood_is_deterministic_bitwise() {
        let p = Posterior::new(vec![0.31, 0.72, 0.99999999, 0.1]);
        let labels = [Label::Pos, Label::Neg, Label::Pos, Label::Neg];
        let a = p.mean_log_likelihood(&labels);
        let b = Posterior::new(vec![0.31, 0.72, 0.99999999, 0.1]).mean_log_likelihood(&labels);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
