//! Bootstrap ensembles and the BALD acquisition score.
//!
//! BALD \[12, 17\] scores an example by the mutual information between its
//! predicted label and the model posterior, approximated over an ensemble
//! of `K` models as
//!
//! ```text
//! I(y; θ | x) ≈ H( mean_k p_k(x) ) − mean_k H( p_k(x) )
//! ```
//!
//! The ensemble here is a bag of logistic regressions trained on bootstrap
//! resamples — the standard cheap stand-in for a Bayesian posterior.

use crate::logreg::{FittedLogReg, LogisticRegression};
use nemo_sparse::stats::binary_entropy;
use nemo_sparse::{CsrMatrix, DetRng};

/// A bag of bootstrap-trained logistic regressions.
#[derive(Debug, Clone)]
pub struct BootstrapEnsemble {
    /// Ensemble size.
    pub n_models: usize,
    /// Base trainer.
    pub base: LogisticRegression,
}

impl Default for BootstrapEnsemble {
    fn default() -> Self {
        Self { n_models: 8, base: LogisticRegression::default() }
    }
}

impl BootstrapEnsemble {
    /// Fit `n_models` members on bootstrap resamples of `indices`.
    pub fn fit(
        &self,
        x: &CsrMatrix,
        targets: &[f64],
        indices: &[u32],
        seed: u64,
    ) -> Vec<FittedLogReg> {
        let mut rng = DetRng::new(seed ^ 0xb007_57ae);
        (0..self.n_models)
            .map(|k| {
                if indices.is_empty() {
                    return FittedLogReg::zeros(x.n_cols());
                }
                let resample: Vec<u32> =
                    (0..indices.len()).map(|_| indices[rng.index(indices.len())]).collect();
                self.base.fit(x, targets, Some(&resample), seed.wrapping_add(k as u64 * 7919))
            })
            .collect()
    }
}

/// BALD mutual-information scores given per-member probability vectors
/// (`probs[k][i]` = member `k`'s `P(y_i = +1)`).
pub fn bald_scores(probs: &[Vec<f64>]) -> Vec<f64> {
    assert!(!probs.is_empty(), "bald_scores needs at least one member");
    let n = probs[0].len();
    let k = probs.len() as f64;
    let mut scores = Vec::with_capacity(n);
    for i in 0..n {
        let mut mean = 0.0;
        let mut mean_h = 0.0;
        for member in probs {
            debug_assert_eq!(member.len(), n);
            mean += member[i];
            mean_h += binary_entropy(member[i]);
        }
        mean /= k;
        mean_h /= k;
        scores.push((binary_entropy(mean) - mean_h).max(0.0));
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_sparse::SparseVec;

    /// Per-example mean probability over fitted members.
    fn mean_proba(members: &[FittedLogReg], x: &CsrMatrix) -> Vec<f64> {
        let probs: Vec<Vec<f64>> = members.iter().map(|m| m.predict_proba(x)).collect();
        (0..x.n_rows())
            .map(|i| probs.iter().map(|p| p[i]).sum::<f64>() / members.len() as f64)
            .collect()
    }

    #[test]
    fn bald_zero_when_members_agree() {
        let probs = vec![vec![0.9, 0.1], vec![0.9, 0.1]];
        let s = bald_scores(&probs);
        assert!(s.iter().all(|&v| v < 1e-9), "{s:?}");
    }

    #[test]
    fn bald_high_when_members_confidently_disagree() {
        // Two members sure of opposite labels → mean 0.5 (max entropy),
        // member entropies ≈ 0 → MI ≈ ln 2.
        let probs = vec![vec![0.99], vec![0.01]];
        let s = bald_scores(&probs);
        assert!(s[0] > 0.5, "score {}", s[0]);
    }

    #[test]
    fn bald_low_for_aleatoric_uncertainty() {
        // Members agree the example is ambiguous (both say 0.5):
        // predictive entropy is high but MI is zero — the BALD property
        // that distinguishes it from plain uncertainty sampling.
        let probs = vec![vec![0.5], vec![0.5]];
        let s = bald_scores(&probs);
        assert!(s[0] < 1e-9);
    }

    #[test]
    fn ensemble_fits_and_averages() {
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for _ in 0..30 {
            rows.push(SparseVec::from_pairs(vec![(0, 1.0)], 2));
            targets.push(1.0);
            rows.push(SparseVec::from_pairs(vec![(1, 1.0)], 2));
            targets.push(0.0);
        }
        let x = CsrMatrix::from_rows(&rows, 2);
        let idx: Vec<u32> = (0..x.n_rows() as u32).collect();
        let ens = BootstrapEnsemble { n_models: 4, ..Default::default() };
        let members = ens.fit(&x, &targets, &idx, 11);
        assert_eq!(members.len(), 4);
        let mean = mean_proba(&members, &x);
        assert!(mean[0] > 0.6);
        assert!(mean[1] < 0.4);
    }

    #[test]
    fn ensemble_deterministic() {
        let rows = vec![SparseVec::from_pairs(vec![(0, 1.0)], 1); 10];
        let x = CsrMatrix::from_rows(&rows, 1);
        let targets = vec![1.0; 10];
        let idx: Vec<u32> = (0..10).collect();
        let ens = BootstrapEnsemble { n_models: 3, ..Default::default() };
        let a = ens.fit(&x, &targets, &idx, 5);
        let b = ens.fit(&x, &targets, &idx, 5);
        for (ma, mb) in a.iter().zip(&b) {
            assert_eq!(ma.weights(), mb.weights());
        }
    }

    #[test]
    fn empty_indices_gives_uninformative_members() {
        let rows = vec![SparseVec::from_pairs(vec![(0, 1.0)], 1); 3];
        let x = CsrMatrix::from_rows(&rows, 1);
        let ens = BootstrapEnsemble { n_models: 2, ..Default::default() };
        let members = ens.fit(&x, &[0.5; 3], &[], 1);
        let mean = mean_proba(&members, &x);
        assert!(mean.iter().all(|&p| (p - 0.5).abs() < 1e-9));
    }
}
