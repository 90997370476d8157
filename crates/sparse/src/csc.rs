//! Column-major companion index for a [`CsrMatrix`] (CSC layout).
//!
//! A [`CscIndex`] is the value-carrying inverted index over a sparse
//! feature matrix: for every column (term) it stores the sorted row ids
//! that contain it together with their stored values. It is built once per
//! matrix in `O(nnz)` by a counting sort and never mutated.
//!
//! This is the structure behind the indexed distance kernel
//! ([`crate::distance::Distance::sparse_indexed`]): a "one point vs all
//! rows" pass only walks the posting lists of the
//! pivot's nonzero columns, so rows sharing no terms with the pivot are
//! never touched. On ~99%-sparse TF-IDF matrices that skips almost all of
//! the work a row-major scan performs.

use crate::csr::CsrMatrix;

/// Immutable column-major (CSC) view of a sparse matrix: per-column
/// posting lists of `(row id, value)` with row ids strictly increasing.
#[derive(Debug, Clone)]
pub struct CscIndex {
    /// `offsets[j]..offsets[j+1]` indexes `rows`/`values` for column `j`.
    offsets: Vec<usize>,
    rows: Vec<u32>,
    values: Vec<f32>,
    n_rows: usize,
}

impl CscIndex {
    /// Build the column-major companion of `m` with one counting sort over
    /// its stored entries.
    ///
    /// Rows are visited in order, so each posting list comes out sorted by
    /// row id without any per-column sort.
    pub fn from_csr(m: &CsrMatrix) -> Self {
        let offsets = m.column_offsets();
        let nnz = offsets[m.n_cols()];
        let mut cursor = offsets.clone();
        let mut rows = vec![0u32; nnz];
        let mut values = vec![0.0f32; nnz];
        for (r, row) in m.rows().enumerate() {
            for (j, v) in row.iter() {
                let slot = cursor[j as usize];
                rows[slot] = r as u32;
                values[slot] = v;
                cursor[j as usize] += 1;
            }
        }
        Self { offsets, rows, values, n_rows: m.n_rows() }
    }

    /// Number of rows in the indexed matrix.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (posting lists).
    pub fn n_cols(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total stored entries (equals the source matrix's nnz).
    pub fn nnz(&self) -> usize {
        self.rows.len()
    }

    /// Posting list of column `j`: parallel `(row ids, values)` slices with
    /// row ids strictly increasing.
    #[inline]
    pub fn col(&self, j: u32) -> (&[u32], &[f32]) {
        let j = j as usize;
        let (lo, hi) = (self.offsets[j], self.offsets[j + 1]);
        (&self.rows[lo..hi], &self.values[lo..hi])
    }

    /// Document frequency of column `j` (its posting-list length).
    #[inline]
    pub fn df(&self, j: u32) -> usize {
        let j = j as usize;
        self.offsets[j + 1] - self.offsets[j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::SparseVec;
    use proptest::prelude::*;

    fn sv(pairs: &[(u32, f32)], dim: usize) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec(), dim)
    }

    #[test]
    fn transpose_roundtrip() {
        let rows =
            vec![sv(&[(0, 1.0), (2, 2.0)], 4), SparseVec::zeros(4), sv(&[(2, 3.0), (3, -1.0)], 4)];
        let m = CsrMatrix::from_rows(&rows, 4);
        let csc = CscIndex::from_csr(&m);
        assert_eq!(csc.n_rows(), 3);
        assert_eq!(csc.n_cols(), 4);
        assert_eq!(csc.nnz(), m.nnz());
        assert_eq!(csc.col(0), (&[0u32][..], &[1.0f32][..]));
        assert_eq!(csc.col(1), (&[][..], &[][..]));
        assert_eq!(csc.col(2), (&[0u32, 2][..], &[2.0f32, 3.0][..]));
        assert_eq!(csc.df(2), 2);
        assert_eq!(csc.df(3), 1);
    }

    #[test]
    fn empty_matrix() {
        let m = CsrMatrix::from_rows(&[], 5);
        let csc = CscIndex::from_csr(&m);
        assert_eq!(csc.n_rows(), 0);
        assert_eq!(csc.nnz(), 0);
        for j in 0..5 {
            assert_eq!(csc.df(j), 0);
        }
    }

    proptest! {
        #[test]
        fn prop_csc_matches_csr_entries(
            rows in proptest::collection::vec(
                proptest::collection::vec((0u32..12, 0.5f32..5.0), 0..8), 0..10),
        ) {
            let svs: Vec<SparseVec> =
                rows.iter().map(|p| SparseVec::from_pairs(p.clone(), 12)).collect();
            let m = CsrMatrix::from_rows(&svs, 12);
            let csc = CscIndex::from_csr(&m);
            prop_assert_eq!(csc.nnz(), m.nnz());
            // Every CSR entry appears in its column's posting list with the
            // same value, and posting lists are sorted by row id.
            for (r, row) in m.rows().enumerate() {
                for (j, v) in row.iter() {
                    let (ids, vals) = csc.col(j);
                    let pos = ids.binary_search(&(r as u32));
                    prop_assert!(pos.is_ok(), "missing entry r={} j={}", r, j);
                    prop_assert_eq!(vals[pos.unwrap()], v);
                }
            }
            for j in 0..12u32 {
                let (ids, _) = csc.col(j);
                for w in ids.windows(2) {
                    prop_assert!(w[0] < w[1]);
                }
            }
        }
    }
}
