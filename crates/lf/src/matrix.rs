//! The label matrix `L ∈ {−1, 0, +1}^{n×m}` (paper Sec. 2, stage 2).
//!
//! Stored column-sparse: each LF contributes a sorted list of
//! `(example id, vote)` entries over the examples it does not abstain on.
//! Primitive LFs vote a single label over their coverage, but the column
//! representation is general: contextualized (refined) LFs have shrunken
//! coverage, and Active WeaSuL's "expert" column carries mixed votes.

use crate::apply::PrimitiveCorpus;
use crate::label::Vote;
use crate::lf::PrimitiveLf;

/// One LF's non-abstain votes: sorted by example id, votes in `{−1, +1}`.
/// Equality compares the entries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LfColumn {
    entries: Vec<(u32, Vote)>,
}

impl LfColumn {
    /// Build from entries; sorts by example id and validates votes.
    pub fn new(mut entries: Vec<(u32, Vote)>) -> Self {
        entries.sort_unstable_by_key(|&(i, _)| i);
        for w in entries.windows(2) {
            assert!(w[0].0 != w[1].0, "duplicate example {} in LF column", w[0].0);
        }
        for &(_, v) in &entries {
            assert!(v == -1 || v == 1, "column vote must be ±1, got {v}");
        }
        Self { entries }
    }

    /// Materialize a primitive LF's column over a corpus.
    pub fn from_lf(lf: &PrimitiveLf, corpus: &PrimitiveCorpus) -> Self {
        let sign = lf.y.sign();
        Self { entries: lf.coverage(corpus).iter().map(|&i| (i, sign)).collect() }
    }

    /// Sorted `(example, vote)` entries.
    pub fn entries(&self) -> &[(u32, Vote)] {
        &self.entries
    }

    /// Number of covered examples.
    pub fn coverage(&self) -> usize {
        self.entries.len()
    }

    /// Vote on example `i` (0 = abstain).
    pub fn vote(&self, i: u32) -> Vote {
        match self.entries.binary_search_by_key(&i, |&(e, _)| e) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0,
        }
    }

    /// Keep only entries whose example id satisfies `keep`.
    pub fn filtered(&self, mut keep: impl FnMut(u32) -> bool) -> Self {
        Self { entries: self.entries.iter().copied().filter(|&(i, _)| keep(i)).collect() }
    }
}

/// Per-example vote counts, used by the Abstain/Disagree selection
/// baselines \[9\] and the majority-vote label model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VoteSummary {
    /// Number of LFs voting +1.
    pub pos: u32,
    /// Number of LFs voting −1.
    pub neg: u32,
}

impl VoteSummary {
    /// Total non-abstain votes.
    pub fn total(&self) -> u32 {
        self.pos + self.neg
    }

    /// Number of conflicting LF pairs on this example (`pos · neg`) — the
    /// disagreement measure used by the Disagree baseline.
    pub fn conflicts(&self) -> u64 {
        self.pos as u64 * self.neg as u64
    }
}

/// The label matrix: `m` LF columns over `n` examples.
///
/// Matrices only grow, by [`LabelMatrix::push`], and columns are never
/// edited in place, so the first `m` columns of a matrix stay the same
/// for as long as it lives.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelMatrix {
    columns: Vec<LfColumn>,
    n_examples: usize,
}

impl LabelMatrix {
    /// Empty matrix over `n_examples` examples (no LFs yet).
    pub fn new(n_examples: usize) -> Self {
        Self { columns: Vec::new(), n_examples }
    }

    /// Apply a slice of primitive LFs to a corpus, one column per LF in
    /// `lfs` order (each LF scans only its own postings).
    pub fn from_lfs(lfs: &[PrimitiveLf], corpus: &PrimitiveCorpus) -> Self {
        let mut m = Self::new(corpus.len());
        for lf in lfs {
            m.push(LfColumn::from_lf(lf, corpus));
        }
        m
    }

    /// Append an LF column.
    pub fn push(&mut self, col: LfColumn) {
        if let Some(&(max, _)) = col.entries().last() {
            assert!(
                (max as usize) < self.n_examples,
                "column references example {max} ≥ n={}",
                self.n_examples
            );
        }
        self.columns.push(col);
    }

    /// Number of examples `n`.
    pub fn n_examples(&self) -> usize {
        self.n_examples
    }

    /// Number of LFs `m`.
    pub fn n_lfs(&self) -> usize {
        self.columns.len()
    }

    /// Borrow column `j`.
    pub fn column(&self, j: usize) -> &LfColumn {
        &self.columns[j]
    }

    /// Iterate columns in order.
    pub fn columns(&self) -> impl Iterator<Item = &LfColumn> {
        self.columns.iter()
    }

    /// Vote of LF `j` on example `i`.
    pub fn vote(&self, i: u32, j: usize) -> Vote {
        self.columns[j].vote(i)
    }

    /// Per-example vote summaries (one pass over all columns).
    pub fn vote_summaries(&self) -> Vec<VoteSummary> {
        let mut out = vec![VoteSummary::default(); self.n_examples];
        for col in &self.columns {
            for &(i, v) in col.entries() {
                if v > 0 {
                    out[i as usize].pos += 1;
                } else {
                    out[i as usize].neg += 1;
                }
            }
        }
        out
    }

    /// Example ids covered by at least one LF, ascending — the training
    /// subset the end model fits on. One `O(nnz + n)` pass; aggregation
    /// paths that already scatter every entry (the label-model fused
    /// predict) derive the same list as a by-product instead of calling
    /// this.
    pub fn covered_examples(&self) -> Vec<u32> {
        let mut covered = vec![false; self.n_examples];
        for col in &self.columns {
            for &(i, _) in col.entries() {
                covered[i as usize] = true;
            }
        }
        covered.iter().enumerate().filter(|&(_, &c)| c).map(|(i, _)| i as u32).collect()
    }

    /// Fraction of examples covered by at least one LF.
    pub fn coverage_frac(&self) -> f64 {
        if self.n_examples == 0 {
            return 0.0;
        }
        self.covered_examples().len() as f64 / self.n_examples as f64
    }

    /// Row view: the non-abstain `(lf index, vote)` pairs for example `i`.
    /// O(m log coverage); fine for the m ≤ ~60 LFs the protocol produces.
    pub fn row(&self, i: u32) -> Vec<(usize, Vote)> {
        self.columns
            .iter()
            .enumerate()
            .filter_map(|(j, c)| match c.vote(i) {
                0 => None,
                v => Some((j, v)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Label;
    use proptest::prelude::*;

    fn corpus() -> PrimitiveCorpus {
        PrimitiveCorpus::new(vec![vec![0], vec![0, 1], vec![1], vec![2]], 3)
    }

    #[test]
    fn from_lfs_columns_match_votes() {
        let c = corpus();
        let lfs = vec![PrimitiveLf::new(0, Label::Pos), PrimitiveLf::new(1, Label::Neg)];
        let m = LabelMatrix::from_lfs(&lfs, &c);
        assert_eq!(m.n_lfs(), 2);
        assert_eq!(m.vote(0, 0), 1);
        assert_eq!(m.vote(1, 0), 1);
        assert_eq!(m.vote(1, 1), -1);
        assert_eq!(m.vote(3, 0), 0);
    }

    #[test]
    fn vote_summaries_count_correctly() {
        let c = corpus();
        let lfs = vec![PrimitiveLf::new(0, Label::Pos), PrimitiveLf::new(1, Label::Neg)];
        let m = LabelMatrix::from_lfs(&lfs, &c);
        let s = m.vote_summaries();
        assert_eq!((s[0].pos, s[0].neg), (1, 0));
        assert_eq!((s[1].pos, s[1].neg), (1, 1));
        assert_eq!(s[1].conflicts(), 1);
        assert_eq!((s[3].pos, s[3].neg), (0, 0));
    }

    #[test]
    fn coverage_frac() {
        let c = corpus();
        let m = LabelMatrix::from_lfs(&[PrimitiveLf::new(0, Label::Pos)], &c);
        assert!((m.coverage_frac() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn covered_examples_sorted_and_deduplicated() {
        let c = corpus();
        let lfs = vec![PrimitiveLf::new(0, Label::Pos), PrimitiveLf::new(1, Label::Neg)];
        let m = LabelMatrix::from_lfs(&lfs, &c);
        // LF0 covers {0,1}, LF1 covers {1,2}; example 3 stays uncovered.
        assert_eq!(m.covered_examples(), vec![0, 1, 2]);
        assert_eq!(LabelMatrix::new(4).covered_examples(), Vec::<u32>::new());
        // Matches the vote-summary derivation the end model used to do.
        let from_summaries: Vec<u32> = m
            .vote_summaries()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.total() > 0)
            .map(|(i, _)| i as u32)
            .collect();
        assert_eq!(m.covered_examples(), from_summaries);
    }

    #[test]
    fn row_view() {
        let c = corpus();
        let lfs = vec![PrimitiveLf::new(0, Label::Pos), PrimitiveLf::new(1, Label::Neg)];
        let m = LabelMatrix::from_lfs(&lfs, &c);
        assert_eq!(m.row(1), vec![(0, 1), (1, -1)]);
        assert_eq!(m.row(3), vec![]);
    }

    #[test]
    fn filtered_column_subset() {
        let col = LfColumn::new(vec![(0, 1), (5, 1), (9, 1)]);
        let f = col.filtered(|i| i != 5);
        assert_eq!(f.entries(), &[(0, 1), (9, 1)]);
    }

    #[test]
    fn content_equal_columns_and_matrices_compare_equal() {
        let a = LfColumn::new(vec![(0, 1), (2, -1)]);
        let b = LfColumn::new(vec![(2, -1), (0, 1)]);
        assert_eq!(a, b, "two constructions of the same votes");
        assert_eq!(a.clone(), a);
        assert_eq!(a.filtered(|_| true), a, "identity filter");
        let (mut m, mut n) = (LabelMatrix::new(3), LabelMatrix::new(3));
        m.push(a.clone());
        n.push(b);
        assert_eq!(m, n, "matrix equality compares content");
        assert_eq!(m.clone(), n);
    }

    #[test]
    fn unequal_columns_compare_unequal() {
        let a = LfColumn::new(vec![(0, 1), (2, -1)]);
        let b = LfColumn::new(vec![(0, 1)]);
        let c = LfColumn::new(vec![(0, 1), (2, 1)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "duplicate example")]
    fn column_rejects_duplicates() {
        LfColumn::new(vec![(1, 1), (1, -1)]);
    }

    #[test]
    #[should_panic(expected = "must be ±1")]
    fn column_rejects_abstain_entries() {
        LfColumn::new(vec![(1, 0)]);
    }

    #[test]
    #[should_panic(expected = "references example")]
    fn push_validates_bounds() {
        let mut m = LabelMatrix::new(2);
        m.push(LfColumn::new(vec![(5, 1)]));
    }

    /// A clone of another matrix's column is bounds-checked against the
    /// matrix it is pushed onto.
    #[test]
    #[should_panic(expected = "references example")]
    fn push_bounds_checks_a_column_cloned_from_a_wider_matrix() {
        let mut wide = LabelMatrix::new(8);
        wide.push(LfColumn::new(vec![(5, 1)]));
        let mut narrow = LabelMatrix::new(2);
        narrow.push(wide.column(0).clone());
    }

    proptest! {
        #[test]
        fn prop_summaries_match_row_scan(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..6, 0..5), 1..12),
            lf_specs in proptest::collection::vec((0u32..6, proptest::bool::ANY), 0..6),
        ) {
            let c = PrimitiveCorpus::new(docs, 6);
            let lfs: Vec<PrimitiveLf> = lf_specs
                .into_iter()
                .map(|(z, pos)| PrimitiveLf::new(z, Label::from_bool(pos)))
                .collect();
            let m = LabelMatrix::from_lfs(&lfs, &c);
            let summaries = m.vote_summaries();
            for i in 0..c.len() as u32 {
                let row = m.row(i);
                let pos = row.iter().filter(|&&(_, v)| v > 0).count() as u32;
                let neg = row.iter().filter(|&&(_, v)| v < 0).count() as u32;
                prop_assert_eq!(summaries[i as usize].pos, pos);
                prop_assert_eq!(summaries[i as usize].neg, neg);
            }
        }
    }
}
