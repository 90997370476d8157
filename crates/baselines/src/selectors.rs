//! The heuristic selection-only baselines of Cohen-Wang et al. \[9\]
//! (paper Sec. 5.2/5.3: "Snorkel-Abs" and "Snorkel-Dis").

use nemo_core::idp::{SelectionView, Selector};
use nemo_sparse::stats::argmax_set;
use nemo_sparse::DetRng;

/// Select the example on which the current LFs abstain the most — i.e.
/// with the fewest non-abstain votes. Early on almost every example is
/// fully abstained, so ties (broken uniformly at random) dominate and the
/// strategy degrades gracefully to random sampling, as in \[9\].
#[derive(Debug, Clone, Default)]
pub struct AbstainSelector;

impl Selector for AbstainSelector {
    fn select(&mut self, view: &SelectionView<'_>, rng: &mut DetRng) -> Option<usize> {
        let avail = view.available();
        if avail.is_empty() {
            return None;
        }
        let summaries = view.matrix.vote_summaries();
        // Most abstains == fewest votes; negate for argmax.
        let scores: Vec<f64> = avail.iter().map(|&i| -(summaries[i].total() as f64)).collect();
        let ties = argmax_set(&scores);
        Some(avail[ties[rng.index(ties.len())]])
    }
}

/// Select the example on which the current LFs disagree the most,
/// measured by the number of conflicting vote pairs `pos · neg`.
#[derive(Debug, Clone, Default)]
pub struct DisagreeSelector;

impl Selector for DisagreeSelector {
    fn select(&mut self, view: &SelectionView<'_>, rng: &mut DetRng) -> Option<usize> {
        let avail = view.available();
        if avail.is_empty() {
            return None;
        }
        let summaries = view.matrix.vote_summaries();
        let scores: Vec<f64> = avail.iter().map(|&i| summaries[i].conflicts() as f64).collect();
        let ties = argmax_set(&scores);
        Some(avail[ties[rng.index(ties.len())]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_core::idp::ModelOutputs;
    use nemo_data::catalog::toy_text;
    use nemo_lf::{Label, LabelMatrix, LfColumn, Lineage, PrimitiveLf};

    fn view_with_matrix<'a>(
        ds: &'a nemo_data::Dataset,
        matrix: &'a LabelMatrix,
        lineage: &'a Lineage,
        outputs: &'a ModelOutputs,
        excluded: &'a [bool],
    ) -> SelectionView<'a> {
        SelectionView { ds, lineage, matrix, outputs, excluded, iteration: 1, aggs: None }
    }

    #[test]
    fn abstain_prefers_uncovered() {
        let ds = toy_text(1);
        // Cover every example except #5 with a synthetic column.
        let mut matrix = LabelMatrix::new(ds.train.n());
        let entries: Vec<(u32, i8)> =
            (0..ds.train.n() as u32).filter(|&i| i != 5).map(|i| (i, 1)).collect();
        matrix.push(LfColumn::new(entries));
        let lineage = Lineage::new();
        let outputs = ModelOutputs::initial(&ds);
        let excluded = vec![false; ds.train.n()];
        let view = view_with_matrix(&ds, &matrix, &lineage, &outputs, &excluded);
        let mut rng = DetRng::new(1);
        assert_eq!(AbstainSelector.select(&view, &mut rng), Some(5));
    }

    #[test]
    fn disagree_prefers_conflicts() {
        let ds = toy_text(1);
        let mut matrix = LabelMatrix::new(ds.train.n());
        // Example 3 gets conflicting votes; example 4 agreeing votes.
        matrix.push(LfColumn::new(vec![(3, 1), (4, 1)]));
        matrix.push(LfColumn::new(vec![(3, -1), (4, 1)]));
        let lineage = Lineage::new();
        let outputs = ModelOutputs::initial(&ds);
        let excluded = vec![false; ds.train.n()];
        let view = view_with_matrix(&ds, &matrix, &lineage, &outputs, &excluded);
        let mut rng = DetRng::new(2);
        assert_eq!(DisagreeSelector.select(&view, &mut rng), Some(3));
    }

    #[test]
    fn both_respect_exclusions_and_exhaustion() {
        let ds = toy_text(1);
        let matrix = LabelMatrix::from_lfs(&[PrimitiveLf::new(0, Label::Pos)], &ds.train.corpus);
        let lineage = Lineage::new();
        let outputs = ModelOutputs::initial(&ds);
        let excluded = vec![true; ds.train.n()];
        let view = view_with_matrix(&ds, &matrix, &lineage, &outputs, &excluded);
        let mut rng = DetRng::new(3);
        assert_eq!(AbstainSelector.select(&view, &mut rng), None);
        assert_eq!(DisagreeSelector.select(&view, &mut rng), None);
    }

    #[test]
    fn ties_broken_randomly_not_first_index() {
        let ds = toy_text(1);
        let matrix = LabelMatrix::new(ds.train.n());
        let lineage = Lineage::new();
        let outputs = ModelOutputs::initial(&ds);
        let excluded = vec![false; ds.train.n()];
        let view = view_with_matrix(&ds, &matrix, &lineage, &outputs, &excluded);
        let mut rng = DetRng::new(4);
        let picks: std::collections::HashSet<usize> =
            (0..20).filter_map(|_| AbstainSelector.select(&view, &mut rng)).collect();
        assert!(picks.len() > 1, "all-tied selection must randomize");
    }
}
