//! Label-model interfaces and the shared naive-Bayes aggregation step.

use crate::posterior::Posterior;
use crate::triplet::CountedMatrix;
use nemo_lf::LabelMatrix;
use nemo_sparse::stats::sigmoid;

/// An (unfitted) label model. `Send + Sync` because a session owns its
/// label model and `SessionPool` moves sessions across its workers (all
/// estimators are plain-data configuration structs).
pub trait LabelModel: Send + Sync {
    /// Estimator name (for reports).
    fn name(&self) -> &'static str;

    /// Fit LF accuracies on `matrix` with class prior
    /// `prior = [P(y=−1), P(y=+1)]`, returning a fitted aggregator.
    fn fit(&self, matrix: &LabelMatrix, prior: [f64; 2]) -> Box<dyn FittedLabelModel>;

    /// Fit on `matrix`'s label matrix, reusing its pairwise co-vote
    /// counts.
    ///
    /// Moment estimators ([`crate::TripletModel`]) [`CountedMatrix::sync`]
    /// the matrix and read their moments from its counts, so refitting one
    /// growing matrix counts only the pairs of the columns pushed since
    /// its last fit, and the result is bitwise that of
    /// [`LabelModel::fit`] on [`CountedMatrix::matrix`]. Estimators
    /// without pair moments fit the matrix as usual and leave the counts
    /// untouched. The percentile-tuning loop of the contextualizer is the
    /// intended consumer.
    fn fit_from(&self, matrix: &mut CountedMatrix, prior: [f64; 2]) -> Box<dyn FittedLabelModel> {
        self.fit(matrix.matrix(), prior)
    }
}

/// A fitted label model: can score any label matrix over the same LFs.
pub trait FittedLabelModel: Send + Sync {
    /// Per-LF accuracy estimates `P(λ_j correct | λ_j ≠ 0)`.
    fn lf_accuracies(&self) -> &[f64];

    /// Aggregate votes into posteriors `P(y_i | L)`.
    fn predict(&self, matrix: &LabelMatrix) -> Posterior;

    /// [`FittedLabelModel::predict`], also returning the ascending ids of
    /// examples with at least one non-abstain vote — the subset the end
    /// model trains on. The default derives coverage with a second
    /// `O(nnz + n)` matrix pass ([`LabelMatrix::covered_examples`]);
    /// [`NaiveBayesFit`] overrides it to mark coverage while scattering
    /// vote logits, so the pipeline's per-round predict-then-train
    /// hand-off scans the tuned train matrix exactly once. Both paths
    /// return bitwise-identical posteriors and the identical id list.
    fn predict_with_coverage(&self, matrix: &LabelMatrix) -> (Posterior, Vec<u32>) {
        (self.predict(matrix), matrix.covered_examples())
    }

    /// Predict on `matrix` and score the posteriors against gold
    /// `labels` in one call
    /// ([`crate::Posterior::mean_log_likelihood`]) — the validation
    /// entry point percentile tuning drives once per grid point.
    /// Deterministic given the fitted parameters and the matrix
    /// *contents*: two calls over content-equal matrices return bitwise
    /// the same score.
    fn score_log_likelihood(&self, matrix: &LabelMatrix, labels: &[nemo_lf::Label]) -> f64 {
        self.predict(matrix).mean_log_likelihood(labels)
    }
}

/// The common fitted form: per-LF accuracies + class prior, aggregated with
/// the conditionally-independent (naive-Bayes) rule
///
/// ```text
/// logit P(y=+1 | L_i) = log(π₊/π₋) + Σ_{j: L_ij≠0} L_ij · log(a_j / (1−a_j))
/// ```
///
/// Both estimators in this crate differ only in how they *estimate*
/// `a_j`; they share this aggregation step (as MeTaL, FlyingSquid, and
/// majority vote all do in the binary case).
#[derive(Debug, Clone)]
pub struct NaiveBayesFit {
    accuracies: Vec<f64>,
    log_odds: Vec<f64>,
    prior_logit: f64,
}

impl NaiveBayesFit {
    /// Minimum/maximum admissible accuracy (keeps log-odds finite).
    pub const ACC_CLAMP: (f64, f64) = (0.05, 0.95);

    /// Build from per-LF accuracies and `[π₋, π₊]`.
    pub fn new(accuracies: Vec<f64>, prior: [f64; 2]) -> Self {
        let (lo, hi) = Self::ACC_CLAMP;
        let accuracies: Vec<f64> = accuracies.into_iter().map(|a| a.clamp(lo, hi)).collect();
        let log_odds = accuracies.iter().map(|&a| (a / (1.0 - a)).ln()).collect();
        let eps = 1e-9;
        let prior_logit = ((prior[1].max(eps)) / (prior[0].max(eps))).ln();
        Self { accuracies, log_odds, prior_logit }
    }

    /// The class-prior logit `log(π₊/π₋)`.
    pub fn prior_logit(&self) -> f64 {
        self.prior_logit
    }

    /// Scatter every vote into per-example logits, invoking `on_vote`
    /// with each touched example id — the single pass both
    /// [`FittedLabelModel::predict`] (no-op observer) and the fused
    /// [`FittedLabelModel::predict_with_coverage`] (coverage marking)
    /// share, so their posteriors are bitwise-identical by construction.
    fn scatter_logits(&self, matrix: &LabelMatrix, mut on_vote: impl FnMut(u32)) -> Vec<f64> {
        assert_eq!(
            matrix.n_lfs(),
            self.accuracies.len(),
            "label matrix has {} LFs; model was fitted on {}",
            matrix.n_lfs(),
            self.accuracies.len()
        );
        let mut logits = vec![self.prior_logit; matrix.n_examples()];
        for (j, col) in matrix.columns().enumerate() {
            let w = self.log_odds[j];
            for &(i, v) in col.entries() {
                logits[i as usize] += v as f64 * w;
                on_vote(i);
            }
        }
        logits
    }
}

impl FittedLabelModel for NaiveBayesFit {
    fn lf_accuracies(&self) -> &[f64] {
        &self.accuracies
    }

    fn predict(&self, matrix: &LabelMatrix) -> Posterior {
        let logits = self.scatter_logits(matrix, |_| {});
        Posterior::new(logits.into_iter().map(sigmoid).collect())
    }

    /// Fused variant: coverage is marked while the votes are scattered,
    /// replacing the default implementation's second matrix pass.
    fn predict_with_coverage(&self, matrix: &LabelMatrix) -> (Posterior, Vec<u32>) {
        let mut voted = vec![false; matrix.n_examples()];
        let logits = self.scatter_logits(matrix, |i| voted[i as usize] = true);
        let posterior = Posterior::new(logits.into_iter().map(sigmoid).collect());
        let covered =
            voted.iter().enumerate().filter(|&(_, &v)| v).map(|(i, _)| i as u32).collect();
        (posterior, covered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_lf::{Label, LfColumn, PrimitiveCorpus, PrimitiveLf};

    fn matrix() -> LabelMatrix {
        // 4 examples; LF0 (+1) covers {0,1}; LF1 (−1) covers {1,2}.
        let corpus = PrimitiveCorpus::new(vec![vec![0], vec![0, 1], vec![1], vec![]], 2);
        LabelMatrix::from_lfs(
            &[PrimitiveLf::new(0, Label::Pos), PrimitiveLf::new(1, Label::Neg)],
            &corpus,
        )
    }

    #[test]
    fn uncovered_examples_get_prior() {
        let fit = NaiveBayesFit::new(vec![0.8, 0.8], [0.3, 0.7]);
        let post = fit.predict(&matrix());
        assert!((post.p_pos(3) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn votes_shift_posterior() {
        let fit = NaiveBayesFit::new(vec![0.8, 0.8], [0.5, 0.5]);
        let post = fit.predict(&matrix());
        assert!(post.p_pos(0) > 0.5); // only +1 vote
        assert!(post.p_pos(2) < 0.5); // only −1 vote
                                      // Example 1 has equal-accuracy conflicting votes → prior.
        assert!((post.p_pos(1) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn higher_accuracy_wins_conflicts() {
        let fit = NaiveBayesFit::new(vec![0.9, 0.6], [0.5, 0.5]);
        let post = fit.predict(&matrix());
        // LF0 (+1, acc 0.9) beats LF1 (−1, acc 0.6) on example 1.
        assert!(post.p_pos(1) > 0.5);
    }

    #[test]
    fn accuracy_clamping() {
        let fit = NaiveBayesFit::new(vec![0.0, 1.0], [0.5, 0.5]);
        assert_eq!(fit.lf_accuracies(), &[0.05, 0.95]);
    }

    #[test]
    #[should_panic(expected = "fitted on")]
    fn predict_rejects_wrong_width() {
        let fit = NaiveBayesFit::new(vec![0.8], [0.5, 0.5]);
        fit.predict(&matrix());
    }

    #[test]
    fn posterior_matches_manual_naive_bayes() {
        let fit = NaiveBayesFit::new(vec![0.8, 0.7], [0.5, 0.5]);
        let post = fit.predict(&matrix());
        // Example 0: logit = log(0.8/0.2) = 1.3862…
        let expect = sigmoid((0.8f64 / 0.2).ln());
        assert!((post.p_pos(0) - expect).abs() < 1e-9);
        // Example 1: +log(4) − log(0.7/0.3)
        let expect1 = sigmoid((0.8f64 / 0.2).ln() - (0.7f64 / 0.3).ln());
        assert!((post.p_pos(1) - expect1).abs() < 1e-9);
    }

    #[test]
    fn fused_coverage_matches_separate_passes() {
        let m = matrix();
        let fit = NaiveBayesFit::new(vec![0.8, 0.7], [0.4, 0.6]);
        let (post, covered) = fit.predict_with_coverage(&m);
        // Same single scatter pass ⇒ bitwise-equal posteriors.
        let separate = fit.predict(&m);
        for i in 0..m.n_examples() {
            assert_eq!(post.p_pos(i).to_bits(), separate.p_pos(i).to_bits());
        }
        // Coverage identical to the unfused two-pass derivation;
        // example 3 is uncovered.
        assert_eq!(covered, m.covered_examples());
        assert_eq!(covered, vec![0, 1, 2]);

        let empty = LabelMatrix::new(2);
        let none = NaiveBayesFit::new(vec![], [0.5, 0.5]);
        let (p, c) = none.predict_with_coverage(&empty);
        assert_eq!(p.len(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn empty_matrix_predict() {
        let fit = NaiveBayesFit::new(vec![], [0.4, 0.6]);
        let m = LabelMatrix::new(3);
        let post = fit.predict(&m);
        assert_eq!(post.len(), 3);
        assert!((post.p_pos(0) - 0.6).abs() < 1e-9);
    }

    #[test]
    fn mixed_vote_column_supported() {
        // A column with heterogeneous votes (the Active WeaSuL expert LF).
        let mut m = LabelMatrix::new(3);
        m.push(LfColumn::new(vec![(0, 1), (1, -1)]));
        let fit = NaiveBayesFit::new(vec![0.9], [0.5, 0.5]);
        let post = fit.predict(&m);
        assert!(post.p_pos(0) > 0.8);
        assert!(post.p_pos(1) < 0.2);
        assert!((post.p_pos(2) - 0.5).abs() < 1e-9);
    }
}
