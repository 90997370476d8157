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
// lint: allow(determinism/sync-primitives): process-unique construction
// tokens for cache identity; they only gate cache validation and never
// affect what any path computes.
use std::sync::atomic::{AtomicU64, Ordering};

/// Source of process-unique [`LfColumn`] construction tokens.
// lint: allow(determinism/sync-primitives): identity tokens only decide
// whether a score cache may validate, never what any path computes.
static NEXT_COLUMN_TOKEN: AtomicU64 = AtomicU64::new(1);

fn fresh_token() -> u64 {
    NEXT_COLUMN_TOKEN.fetch_add(1, Ordering::Relaxed)
}

/// One LF's non-abstain votes: sorted by example id, votes in `{−1, +1}`.
///
/// Columns are **value-immutable**: every construction stamps a
/// process-unique `token` that acts as a cheap content-identity witness —
/// two columns with equal tokens came from the same construction (clones
/// share it) and therefore hold bitwise-equal entries. Equality is still
/// defined on the entries — the token is only an `O(1)` fast path —
/// which is what lets the label model's pair-count cache recognise a
/// column it has already counted without rescanning it.
#[derive(Debug, Clone, Eq)]
pub struct LfColumn {
    entries: Vec<(u32, Vote)>,
    token: u64,
}

impl PartialEq for LfColumn {
    /// Content equality, with the construction-token shortcut: equal
    /// tokens imply the same (immutable) construction, so the entry scan
    /// is skipped. Distinct tokens fall back to comparing entries, so
    /// independently built columns with the same votes still compare
    /// equal — the semantics `tune_p`'s matrix dedup relies on.
    fn eq(&self, other: &Self) -> bool {
        self.token == other.token || self.entries == other.entries
    }
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
        Self { entries, token: fresh_token() }
    }

    /// An empty (all-abstain) column.
    pub fn empty() -> Self {
        Self { entries: Vec::new(), token: fresh_token() }
    }

    /// Materialize a primitive LF's column over a corpus.
    pub fn from_lf(lf: &PrimitiveLf, corpus: &PrimitiveCorpus) -> Self {
        let sign = lf.y.sign();
        Self {
            entries: lf.coverage(corpus).iter().map(|&i| (i, sign)).collect(),
            token: fresh_token(),
        }
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
        Self {
            entries: self.entries.iter().copied().filter(|&(i, _)| keep(i)).collect(),
            token: fresh_token(),
        }
    }

    /// Process-unique construction token. Equal tokens guarantee
    /// bitwise-equal entries (clones share their source's token);
    /// distinct tokens say nothing. Cross-round caches key on this to
    /// detect "same raw column as last round" in `O(1)`.
    pub fn token(&self) -> u64 {
        self.token
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
/// Matrices grow by [`LabelMatrix::push`] and shrink by
/// [`LabelMatrix::truncate`]; columns are never edited in place, so a
/// column's construction token stays a valid cache key for as long as it
/// sits in the matrix.
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

    /// Keep the first `m` columns and drop the rest (no-op when the
    /// matrix has `m` or fewer).
    pub fn truncate(&mut self, m: usize) {
        self.columns.truncate(m);
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
    fn tokens_unique_per_construction_shared_by_clones() {
        let a = LfColumn::new(vec![(0, 1), (2, -1)]);
        let b = LfColumn::new(vec![(0, 1), (2, -1)]);
        assert_ne!(a.token(), b.token(), "constructions must get distinct tokens");
        assert_eq!(a, b, "content equality must ignore tokens");
        let c = a.clone();
        assert_eq!(c.token(), a.token(), "clones share the construction token");
        assert_eq!(c, a);
        let f = a.filtered(|_| true);
        assert_ne!(f.token(), a.token(), "filtering is a new construction");
        assert_eq!(f, a, "identity filter preserves content equality");
        // Matrices keep the tokens of what is pushed onto them: clones of
        // one construction on two matrices share its token, and so does a
        // clone of either matrix; a matrix holding another construction of
        // the same votes compares equal by content.
        let (mut m, mut n, mut o) = (LabelMatrix::new(3), LabelMatrix::new(3), LabelMatrix::new(3));
        m.push(a.clone());
        n.push(a.clone());
        o.push(b);
        assert_eq!(m.column(0).token(), a.token(), "push keeps the token");
        assert_eq!(n.column(0).token(), a.token(), "push keeps the token");
        assert_eq!(m, n);
        let snap = m.clone();
        assert_eq!(snap.column(0).token(), a.token(), "matrix clones keep the tokens");
        assert_eq!(snap, n);
        assert_ne!(o.column(0).token(), a.token());
        assert_eq!(o, m, "matrix equality compares content");
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

    #[test]
    fn truncate_keeps_leading_columns_and_their_tokens() {
        let mut m = LabelMatrix::new(10);
        m.push(LfColumn::new(vec![(0, 1), (4, -1)]));
        m.push(LfColumn::new(vec![(2, 1)]));
        let token = m.column(0).token();
        m.truncate(5);
        assert_eq!(m.n_lfs(), 2, "truncating past the end is a no-op");
        m.truncate(1);
        assert_eq!(m.n_lfs(), 1);
        assert_eq!(m.column(0).entries(), &[(0, 1), (4, -1)]);
        assert_eq!(m.column(0).token(), token, "kept columns keep their tokens");
        assert_eq!(m.covered_examples(), vec![0, 4]);
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
