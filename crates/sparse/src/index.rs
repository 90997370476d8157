//! Inverted index: primitive id → sorted list of covering example ids.
//!
//! This is the data structure that makes SEU tractable
//! (docs/ARCHITECTURE.md, "One interactive round"). The naive cost of
//! scoring every candidate LF's utility is quadratic in the corpus; with
//! an inverted index over the primitive domain, per-iteration primitive
//! aggregates are computed in one pass over the index postings — `O(nnz)`
//! total.

use crate::csr::CsrMatrix;

/// Immutable inverted index from feature/primitive id to the sorted example
/// ids containing it.
#[derive(Debug, Clone)]
pub struct InvertedIndex {
    /// CSR-style postings: `offsets[z]..offsets[z+1]` indexes into `postings`.
    offsets: Vec<usize>,
    postings: Vec<u32>,
    n_docs: usize,
}

impl InvertedIndex {
    /// Build from per-document primitive-id lists.
    ///
    /// `docs[i]` is the set of primitive ids present in example `i`
    /// (duplicates allowed; they are collapsed). `n_primitives` is the size
    /// of the primitive domain `Z`.
    pub fn from_docs(docs: &[Vec<u32>], n_primitives: usize) -> Self {
        let dedup: Vec<Vec<u32>> = docs
            .iter()
            .map(|d| {
                let mut ids = d.clone();
                ids.sort_unstable();
                ids.dedup();
                ids
            })
            .collect();
        Self::from_sorted_docs(&dedup, n_primitives)
    }

    /// Build from per-document primitive-id lists that are already sorted
    /// and deduplicated, skipping the normalization copy `from_docs` pays.
    ///
    /// This is the path `PrimitiveCorpus` uses after normalizing its own
    /// document lists, so corpus construction sorts each
    /// list exactly once.
    pub fn from_sorted_docs(docs: &[Vec<u32>], n_primitives: usize) -> Self {
        let mut counts = vec![0usize; n_primitives];
        for d in docs {
            debug_assert!(d.windows(2).all(|w| w[0] < w[1]), "doc list not sorted/deduped");
            for &z in d {
                assert!((z as usize) < n_primitives, "primitive {z} out of domain");
                counts[z as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(n_primitives + 1);
        offsets.push(0usize);
        for z in 0..n_primitives {
            offsets.push(offsets[z] + counts[z]);
        }
        let mut cursor = offsets.clone();
        let mut postings = vec![0u32; offsets[n_primitives]];
        for (doc_id, ids) in docs.iter().enumerate() {
            for &z in ids {
                postings[cursor[z as usize]] = doc_id as u32;
                cursor[z as usize] += 1;
            }
        }
        Self { offsets, postings, n_docs: docs.len() }
    }

    /// Build from the non-zero pattern of a CSR feature matrix.
    ///
    /// CSR rows already hold strictly-increasing column ids, so this is a
    /// direct counting sort over the stored pattern — no intermediate
    /// per-document id lists are materialized.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let offsets = m.column_offsets();
        let mut cursor = offsets.clone();
        let mut postings = vec![0u32; offsets[m.n_cols()]];
        for (doc_id, row) in m.rows().enumerate() {
            for &z in row.indices {
                postings[cursor[z as usize]] = doc_id as u32;
                cursor[z as usize] += 1;
            }
        }
        Self { offsets, postings, n_docs: m.n_rows() }
    }

    /// Number of primitives in the domain.
    pub fn n_primitives(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of indexed documents.
    pub fn n_docs(&self) -> usize {
        self.n_docs
    }

    /// Sorted example ids containing primitive `z` (its *coverage set*).
    #[inline]
    pub fn postings(&self, z: u32) -> &[u32] {
        let z = z as usize;
        &self.postings[self.offsets[z]..self.offsets[z + 1]]
    }

    /// Document frequency of primitive `z`.
    #[inline]
    pub fn df(&self, z: u32) -> usize {
        self.postings(z).len()
    }

    /// Total posting entries (== nnz of the binary doc-primitive matrix).
    pub fn total_postings(&self) -> usize {
        self.postings.len()
    }

    /// Iterate `(z, postings)` over primitives with non-empty coverage.
    pub fn iter_nonempty(&self) -> impl Iterator<Item = (u32, &[u32])> {
        (0..self.n_primitives() as u32)
            .map(move |z| (z, self.postings(z)))
            .filter(|(_, p)| !p.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::SparseVec;
    use proptest::prelude::*;

    #[test]
    fn basic_postings() {
        let docs = vec![vec![0, 2], vec![2], vec![1, 2, 1]];
        let idx = InvertedIndex::from_docs(&docs, 4);
        assert_eq!(idx.postings(0), &[0]);
        assert_eq!(idx.postings(1), &[2]);
        assert_eq!(idx.postings(2), &[0, 1, 2]);
        assert_eq!(idx.postings(3), &[] as &[u32]);
        assert_eq!(idx.df(2), 3);
        assert_eq!(idx.n_docs(), 3);
        assert_eq!(idx.n_primitives(), 4);
    }

    #[test]
    fn duplicates_collapsed() {
        let docs = vec![vec![1, 1, 1]];
        let idx = InvertedIndex::from_docs(&docs, 2);
        assert_eq!(idx.postings(1), &[0]);
        assert_eq!(idx.total_postings(), 1);
    }

    #[test]
    fn from_csr_matches_from_docs() {
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0), (2, 0.5)], 4),
            SparseVec::from_pairs(vec![(2, 2.0)], 4),
        ];
        let m = CsrMatrix::from_rows(&rows, 4);
        let idx = InvertedIndex::from_csr(&m);
        assert_eq!(idx.postings(2), &[0, 1]);
        assert_eq!(idx.postings(0), &[0]);
    }

    #[test]
    fn iter_nonempty_skips_empty() {
        let docs = vec![vec![0], vec![3]];
        let idx = InvertedIndex::from_docs(&docs, 5);
        let zs: Vec<u32> = idx.iter_nonempty().map(|(z, _)| z).collect();
        assert_eq!(zs, vec![0, 3]);
    }

    proptest! {
        #[test]
        fn prop_postings_sorted_and_complete(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..20, 0..10), 0..15),
        ) {
            let idx = InvertedIndex::from_docs(&docs, 20);
            // Postings are sorted & unique.
            for z in 0..20u32 {
                let p = idx.postings(z);
                for w in p.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
            // Membership is exactly the doc containment relation.
            for (doc_id, d) in docs.iter().enumerate() {
                for z in 0..20u32 {
                    let contains = d.contains(&z);
                    let indexed = idx.postings(z).binary_search(&(doc_id as u32)).is_ok();
                    prop_assert_eq!(contains, indexed);
                }
            }
        }
    }
}
