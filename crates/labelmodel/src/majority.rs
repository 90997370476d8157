//! Majority-vote label model.
//!
//! Every LF is assumed equally accurate; "fitting" assigns a fixed
//! accuracy to all LFs, which makes the naive-Bayes aggregation equivalent
//! to (soft) majority vote with a prior tie-break. The fixed accuracy acts
//! as a temperature: higher values make the vote margin steeper.

use crate::traits::{FittedLabelModel, LabelModel, NaiveBayesFit};
use nemo_lf::LabelMatrix;

/// The majority-vote aggregator.
///
/// # Degenerate inputs
///
/// Fitting reads only the number of LFs: every accuracy is
/// [`MajorityVote::assumed_accuracy`] (0.7 by default) on any matrix —
/// fewer than 3 LFs, all-abstain columns, zero-overlap pairs, duplicated
/// LFs and 0 examples included. The posterior is the vote margin under
/// that shared weight; examples with no votes or a tied vote get the
/// class prior, and posteriors are finite in every case.
#[derive(Debug, Clone)]
pub struct MajorityVote {
    /// Assumed uniform LF accuracy (default 0.7).
    pub assumed_accuracy: f64,
}

impl Default for MajorityVote {
    fn default() -> Self {
        Self { assumed_accuracy: 0.7 }
    }
}

impl LabelModel for MajorityVote {
    fn name(&self) -> &'static str {
        "majority-vote"
    }

    fn fit(&self, matrix: &LabelMatrix, prior: [f64; 2]) -> Box<dyn FittedLabelModel> {
        Box::new(NaiveBayesFit::new(vec![self.assumed_accuracy; matrix.n_lfs()], prior))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_lf::{Label, PrimitiveCorpus, PrimitiveLf};

    #[test]
    fn majority_direction_wins() {
        // Two +1 LFs vs one −1 LF on example 0.
        let corpus = PrimitiveCorpus::new(vec![vec![0, 1, 2]], 3);
        let m = LabelMatrix::from_lfs(
            &[
                PrimitiveLf::new(0, Label::Pos),
                PrimitiveLf::new(1, Label::Pos),
                PrimitiveLf::new(2, Label::Neg),
            ],
            &corpus,
        );
        let fitted = MajorityVote::default().fit(&m, [0.5, 0.5]);
        let post = fitted.predict(&m);
        assert!(post.p_pos(0) > 0.5);
        assert_eq!(post.hard_labels()[0], Label::Pos);
    }

    #[test]
    fn tie_resolves_to_prior() {
        let corpus = PrimitiveCorpus::new(vec![vec![0, 1]], 2);
        let m = LabelMatrix::from_lfs(
            &[PrimitiveLf::new(0, Label::Pos), PrimitiveLf::new(1, Label::Neg)],
            &corpus,
        );
        let fitted = MajorityVote::default().fit(&m, [0.8, 0.2]);
        let post = fitted.predict(&m);
        assert!((post.p_pos(0) - 0.2).abs() < 1e-9);
    }

    #[test]
    fn all_lfs_same_accuracy() {
        let corpus = PrimitiveCorpus::new(vec![vec![0], vec![1]], 2);
        let m = LabelMatrix::from_lfs(
            &[PrimitiveLf::new(0, Label::Pos), PrimitiveLf::new(1, Label::Neg)],
            &corpus,
        );
        let fitted = MajorityVote { assumed_accuracy: 0.65 }.fit(&m, [0.5, 0.5]);
        assert!(fitted.lf_accuracies().iter().all(|&a| (a - 0.65).abs() < 1e-12));
    }
}
