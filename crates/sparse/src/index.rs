//! Inverted index: primitive id → sorted list of covering example ids.
//!
//! This is the data structure that makes SEU tractable
//! (docs/ARCHITECTURE.md, "One interactive round"). The naive cost of
//! scoring every candidate LF's utility is quadratic in the corpus; with
//! an inverted index over the primitive domain, per-iteration primitive
//! aggregates are computed in one pass over the index postings — `O(nnz)`
//! total.

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
    /// Build from per-document primitive-id lists, each sorted: `docs[i]`
    /// lists the primitive ids present in example `i` (a repeated id is
    /// collapsed), and `n_primitives` is the size of the primitive domain
    /// `Z`. `PrimitiveCorpus` normalizes its own document lists and builds
    /// through here, so corpus construction sorts each list exactly once.
    pub fn from_sorted_docs(docs: &[Vec<u32>], n_primitives: usize) -> Self {
        let mut counts = vec![0usize; n_primitives];
        for d in docs {
            debug_assert!(d.windows(2).all(|w| w[0] <= w[1]), "doc list not sorted");
            for z in distinct(d) {
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
            for z in distinct(ids) {
                postings[cursor[z as usize]] = doc_id as u32;
                cursor[z as usize] += 1;
            }
        }
        Self { offsets, postings, n_docs: docs.len() }
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

/// The ids of a sorted list, each once.
fn distinct(sorted: &[u32]) -> impl Iterator<Item = u32> + '_ {
    sorted.iter().enumerate().filter(move |&(i, z)| i == 0 || sorted[i - 1] != *z).map(|(_, &z)| z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::{CsrMatrix, SparseVec};
    use proptest::prelude::*;

    #[test]
    fn basic_postings() {
        let docs = vec![vec![0, 2], vec![2], vec![1, 2]];
        let idx = InvertedIndex::from_sorted_docs(&docs, 4);
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
        let idx = InvertedIndex::from_sorted_docs(&docs, 2);
        assert_eq!(idx.postings(1), &[0]);
        assert_eq!(idx.total_postings(), 1);
    }

    #[test]
    fn from_csr_matches_from_docs() {
        // A CSR row's column ids are strictly increasing, so they are a
        // valid document list; the index over them matches the one over the
        // same ids written out.
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0), (2, 0.5)], 4),
            SparseVec::from_pairs(vec![(2, 2.0)], 4),
        ];
        let m = CsrMatrix::from_rows(&rows, 4);
        let csr_docs: Vec<Vec<u32>> = m.rows().map(|r| r.indices.to_vec()).collect();
        let idx = InvertedIndex::from_sorted_docs(&csr_docs, m.n_cols());
        let docs = InvertedIndex::from_sorted_docs(&[vec![0, 2], vec![2]], 4);
        for z in 0..4u32 {
            assert_eq!(idx.postings(z), docs.postings(z));
        }
        assert_eq!(idx.postings(2), &[0, 1]);
        assert_eq!(idx.postings(0), &[0]);
        assert_eq!(idx.n_docs(), m.n_rows());
    }

    #[test]
    fn iter_nonempty_skips_empty() {
        let docs = vec![vec![0], vec![3]];
        let idx = InvertedIndex::from_sorted_docs(&docs, 5);
        let zs: Vec<u32> = idx.iter_nonempty().map(|(z, _)| z).collect();
        assert_eq!(zs, vec![0, 3]);
    }

    proptest! {
        #[test]
        fn prop_postings_sorted_and_complete(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..20, 0..10), 0..15),
        ) {
            let sorted: Vec<Vec<u32>> = docs
                .iter()
                .map(|d| {
                    let mut ids = d.clone();
                    ids.sort_unstable();
                    ids
                })
                .collect();
            let idx = InvertedIndex::from_sorted_docs(&sorted, 20);
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
