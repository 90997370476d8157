//! The primitive corpus: per-example primitive sets with an inverted index.
//!
//! This is the system's view of the unlabeled set `U` for everything
//! LF-related: LF application, coverage lookup, candidate-LF enumeration
//! for the simulated user and for SEU. Feature vectors (TF-IDF / dense
//! embeddings) live alongside in `nemo-data`; the corpus here only knows
//! primitive containment, exactly the information the LF family needs.

use nemo_sparse::InvertedIndex;

/// Per-example primitive sets over a primitive domain `Z` of size
/// `n_primitives`, with an inverted index `z → covered examples`.
#[derive(Debug, Clone)]
pub struct PrimitiveCorpus {
    docs: Vec<Vec<u32>>,
    index: InvertedIndex,
    n_primitives: usize,
}

impl PrimitiveCorpus {
    /// Build from per-example primitive-id lists. Lists are sorted and
    /// deduplicated internally (containment is set semantics).
    pub fn new(mut docs: Vec<Vec<u32>>, n_primitives: usize) -> Self {
        for d in &mut docs {
            d.sort_unstable();
            d.dedup();
            if let Some(&max) = d.last() {
                assert!(
                    (max as usize) < n_primitives,
                    "primitive {max} out of domain {n_primitives}"
                );
            }
        }
        let index = InvertedIndex::from_sorted_docs(&docs, n_primitives);
        Self { docs, index, n_primitives }
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Size of the primitive domain `Z`.
    pub fn n_primitives(&self) -> usize {
        self.n_primitives
    }

    /// Sorted primitive ids of example `i` — the candidate primitives a
    /// user looking at `x_i` can choose from.
    #[inline]
    pub fn primitives_of(&self, i: usize) -> &[u32] {
        &self.docs[i]
    }

    /// The inverted index over the corpus.
    #[inline]
    pub fn index(&self) -> &InvertedIndex {
        &self.index
    }

    /// Whether example `i` contains primitive `z`.
    #[inline]
    pub fn contains(&self, i: usize, z: u32) -> bool {
        self.docs[i].binary_search(&z).is_ok()
    }

    /// Total primitive occurrences (nnz of the containment matrix).
    pub fn total_postings(&self) -> usize {
        self.index.total_postings()
    }

    /// Mean number of primitives per example.
    pub fn mean_primitives_per_example(&self) -> f64 {
        if self.docs.is_empty() {
            return 0.0;
        }
        self.total_postings() as f64 / self.docs.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dedups_and_sorts() {
        let c = PrimitiveCorpus::new(vec![vec![3, 1, 3, 0]], 4);
        assert_eq!(c.primitives_of(0), &[0, 1, 3]);
        // The index holds a duplicated primitive once.
        let c = PrimitiveCorpus::new(vec![vec![1, 1, 1]], 2);
        assert_eq!(c.index().postings(1), &[0]);
        assert_eq!(c.total_postings(), 1);
    }

    #[test]
    fn contains_binary_search() {
        let c = PrimitiveCorpus::new(vec![vec![5, 2, 9]], 10);
        assert!(c.contains(0, 5));
        assert!(!c.contains(0, 4));
    }

    #[test]
    fn index_consistent_with_docs() {
        let c = PrimitiveCorpus::new(vec![vec![0, 1], vec![1], vec![2]], 3);
        assert_eq!(c.index().postings(1), &[0, 1]);
        assert_eq!(c.index().postings(0), &[0]);
        assert_eq!(c.index().postings(2), &[2]);
    }

    #[test]
    #[should_panic(expected = "out of domain")]
    fn rejects_out_of_domain() {
        PrimitiveCorpus::new(vec![vec![4]], 4);
    }

    #[test]
    fn stats() {
        let c = PrimitiveCorpus::new(vec![vec![0, 1], vec![1]], 3);
        assert_eq!(c.total_postings(), 3);
        assert!((c.mean_primitives_per_example() - 1.5).abs() < 1e-12);
        assert_eq!(c.len(), 2);
        assert!(!c.is_empty());
    }

    proptest! {
        #[test]
        fn prop_contains_matches_index(
            docs in proptest::collection::vec(
                proptest::collection::vec(0u32..12, 0..8), 1..10),
        ) {
            let c = PrimitiveCorpus::new(docs, 12);
            for z in 0..12u32 {
                for i in 0..c.len() {
                    let via_contains = c.contains(i, z);
                    let via_index = c.index().postings(z).binary_search(&(i as u32)).is_ok();
                    prop_assert_eq!(via_contains, via_index);
                }
            }
        }
    }
}
