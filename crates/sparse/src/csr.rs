//! Sparse vectors and CSR matrices.
//!
//! Feature matrices in the reproduction (TF-IDF document-term matrices) are
//! stored row-wise in compressed sparse row (CSR) layout: one contiguous
//! index buffer and one value buffer, plus row offsets. Rows expose a
//! borrowed [`SparseRow`] view; [`SparseVec`] is the owned single-vector
//! form used at construction time.

/// An owned sparse vector: parallel `indices`/`values` arrays with strictly
/// increasing indices.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseVec {
    indices: Vec<u32>,
    values: Vec<f32>,
    dim: usize,
}

impl SparseVec {
    /// Build from parallel arrays. Indices must be strictly increasing and
    /// less than `dim`; zero values are dropped.
    pub fn new(indices: Vec<u32>, values: Vec<f32>, dim: usize) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        let mut last: Option<u32> = None;
        for &i in &indices {
            assert!((i as usize) < dim, "index {i} out of dim {dim}");
            if let Some(prev) = last {
                assert!(i > prev, "indices must be strictly increasing");
            }
            last = Some(i);
        }
        let (indices, values) = indices.into_iter().zip(values).filter(|&(_, v)| v != 0.0).unzip();
        Self { indices, values, dim }
    }

    /// Build from (possibly unsorted, possibly duplicated) pairs, summing
    /// duplicates — the natural constructor for bag-of-words counts.
    pub fn from_pairs(mut pairs: Vec<(u32, f32)>, dim: usize) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut indices = Vec::with_capacity(pairs.len());
        let mut values: Vec<f32> = Vec::with_capacity(pairs.len());
        for (i, v) in pairs {
            assert!((i as usize) < dim, "index {i} out of dim {dim}");
            if indices.last() == Some(&i) {
                // invariant: indices and values grow in lockstep, so a
                // non-empty indices implies a non-empty values.
                *values.last_mut().expect("values non-empty") += v;
            } else {
                indices.push(i);
                values.push(v);
            }
        }
        // Drop entries that cancelled to zero.
        let (indices, values) = indices.into_iter().zip(values).filter(|&(_, v)| v != 0.0).unzip();
        Self { indices, values, dim }
    }

    /// The all-zero vector of dimension `dim`.
    pub fn zeros(dim: usize) -> Self {
        Self { indices: Vec::new(), values: Vec::new(), dim }
    }

    /// Dimensionality of the ambient space.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Borrowed view.
    pub fn as_row(&self) -> SparseRow<'_> {
        SparseRow { indices: &self.indices, values: &self.values }
    }

    /// Densify into a `Vec<f32>` of length `dim`.
    pub fn to_dense(&self) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        for (&i, &v) in self.indices.iter().zip(&self.values) {
            out[i as usize] = v;
        }
        out
    }

    /// Scale in place.
    pub fn scale(&mut self, factor: f32) {
        for v in &mut self.values {
            *v *= factor;
        }
    }

    /// L2-normalize in place (no-op for the zero vector).
    pub fn l2_normalize(&mut self) {
        let norm = self.as_row().l2_norm();
        if norm > 0.0 {
            self.scale((1.0 / norm) as f32);
        }
    }
}

/// Borrowed sparse row view over parallel index/value slices.
#[derive(Debug, Clone, Copy)]
pub struct SparseRow<'a> {
    /// Column indices of the stored entries, strictly increasing.
    pub indices: &'a [u32],
    /// Entry values, parallel to `indices`.
    pub values: &'a [f32],
}

impl<'a> SparseRow<'a> {
    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Iterate `(index, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f32)> + 'a {
        self.indices.iter().copied().zip(self.values.iter().copied())
    }

    /// Sparse-sparse dot product via sorted merge.
    pub fn dot(&self, other: &SparseRow<'_>) -> f64 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f64;
        while i < self.indices.len() && j < other.indices.len() {
            match self.indices[i].cmp(&other.indices[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += self.values[i] as f64 * other.values[j] as f64;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Dot product against a dense weight vector.
    pub fn dot_dense(&self, dense: &[f32]) -> f64 {
        let mut acc = 0.0f64;
        for (&i, &v) in self.indices.iter().zip(self.values) {
            acc += v as f64 * dense[i as usize] as f64;
        }
        acc
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f64 {
        self.values.iter().map(|&v| (v as f64) * (v as f64)).sum()
    }

    /// L2 norm.
    pub fn l2_norm(&self) -> f64 {
        self.sq_norm().sqrt()
    }
}

/// Compressed sparse row matrix with `f32` values.
#[derive(Debug, Clone)]
pub struct CsrMatrix {
    row_offsets: Vec<usize>,
    indices: Vec<u32>,
    values: Vec<f32>,
    n_cols: usize,
}

impl CsrMatrix {
    /// Assemble from a list of owned sparse rows (all must share `n_cols`).
    pub fn from_rows(rows: &[SparseVec], n_cols: usize) -> Self {
        let nnz: usize = rows.iter().map(SparseVec::nnz).sum();
        let mut row_offsets = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_offsets.push(0);
        for r in rows {
            assert_eq!(r.dim(), n_cols, "row dimension mismatch");
            indices.extend_from_slice(&r.indices);
            values.extend_from_slice(&r.values);
            row_offsets.push(indices.len());
        }
        Self { row_offsets, indices, values, n_cols }
    }

    /// A matrix with `n_cols` columns and no rows, to be filled by
    /// [`CsrMatrix::push_row`] with up to `rows` rows and `nnz` entries
    /// before it reallocates.
    pub fn with_capacity(n_cols: usize, rows: usize, nnz: usize) -> Self {
        let mut row_offsets = Vec::with_capacity(rows + 1);
        row_offsets.push(0);
        Self {
            row_offsets,
            indices: Vec::with_capacity(nnz),
            values: Vec::with_capacity(nnz),
            n_cols,
        }
    }

    /// Append one row from `(column, value)` entries in strictly
    /// increasing column order. Zero values are dropped, as
    /// [`SparseVec::new`] drops them.
    pub fn push_row(&mut self, entries: impl IntoIterator<Item = (u32, f32)>) {
        let mut last: Option<u32> = None;
        for (j, v) in entries {
            assert!((j as usize) < self.n_cols, "index {j} out of dim {}", self.n_cols);
            assert!(last.map_or(true, |prev| j > prev), "indices must be strictly increasing");
            last = Some(j);
            if v != 0.0 {
                self.indices.push(j);
                self.values.push(v);
            }
        }
        self.row_offsets.push(self.indices.len());
    }

    /// Release the capacity beyond the stored entries, which a fill
    /// reserved for an upper bound of its entries leaves behind.
    pub fn shrink_to_fit(&mut self) {
        self.row_offsets.shrink_to_fit();
        self.indices.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Total stored entries.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }

    /// Borrow row `r`.
    pub fn row(&self, r: usize) -> SparseRow<'_> {
        let (lo, hi) = (self.row_offsets[r], self.row_offsets[r + 1]);
        SparseRow { indices: &self.indices[lo..hi], values: &self.values[lo..hi] }
    }

    /// Copy the rows `rows` (in that order, repeats allowed) into one new
    /// matrix with the same columns: its row `k` is row `rows[k]` of `self`.
    pub fn select_rows(&self, rows: &[u32]) -> CsrMatrix {
        let nnz = rows.iter().map(|&r| self.row(r as usize).nnz()).sum();
        let mut row_offsets = Vec::with_capacity(rows.len() + 1);
        let mut indices = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        row_offsets.push(0);
        for &r in rows {
            let row = self.row(r as usize);
            indices.extend_from_slice(row.indices);
            values.extend_from_slice(row.values);
            row_offsets.push(indices.len());
        }
        Self { row_offsets, indices, values, n_cols: self.n_cols }
    }

    /// Iterate all rows in order.
    pub fn rows(&self) -> impl Iterator<Item = SparseRow<'_>> {
        (0..self.n_rows()).map(move |r| self.row(r))
    }

    /// L2-normalize every row in place (rows of zero norm are left as-is).
    pub fn l2_normalize_rows(&mut self) {
        for r in 0..self.n_rows() {
            let (lo, hi) = (self.row_offsets[r], self.row_offsets[r + 1]);
            let norm: f64 =
                self.values[lo..hi].iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
            if norm > 0.0 {
                let inv = (1.0 / norm) as f32;
                for v in &mut self.values[lo..hi] {
                    *v *= inv;
                }
            }
        }
    }

    /// Cached squared norms of every row.
    pub fn row_sq_norms(&self) -> Vec<f64> {
        (0..self.n_rows()).map(|r| self.row(r).sq_norm()).collect()
    }

    /// Number of stored entries in every column (the posting-list length
    /// profile a column-major index is sized from).
    pub fn column_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_cols];
        for &j in &self.indices {
            counts[j as usize] += 1;
        }
        counts
    }

    /// CSC-style column offsets: `offsets[j]..offsets[j+1]` spans column
    /// `j`'s entries after a counting-sort scatter (`offsets[n_cols]` is
    /// the nnz). Shared by every column-major index built over this
    /// matrix ([`crate::csc::CscIndex`], [`crate::index::InvertedIndex`]).
    pub fn column_offsets(&self) -> Vec<usize> {
        let counts = self.column_counts();
        let mut offsets = Vec::with_capacity(self.n_cols + 1);
        offsets.push(0usize);
        for j in 0..self.n_cols {
            offsets.push(offsets[j] + counts[j]);
        }
        offsets
    }

    /// Borrow the raw CSR buffers `(row_offsets, indices, values)`.
    pub fn raw_parts(&self) -> (&[usize], &[u32], &[f32]) {
        (&self.row_offsets, &self.indices, &self.values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sv(pairs: &[(u32, f32)], dim: usize) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec(), dim)
    }

    #[test]
    fn from_pairs_sorts_and_merges() {
        let v = sv(&[(3, 1.0), (1, 2.0), (3, 4.0)], 8);
        assert_eq!(v.nnz(), 2);
        assert_eq!(v.to_dense(), vec![0.0, 2.0, 0.0, 5.0, 0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn push_row_equals_from_rows() {
        let rows = [sv(&[(1, 2.0), (3, -1.0)], 4), sv(&[], 4), sv(&[(0, 0.5)], 4)];
        let mut m = CsrMatrix::with_capacity(4, 0, 0);
        for r in &rows {
            m.push_row(r.as_row().iter());
        }
        let want = CsrMatrix::from_rows(&rows, 4);
        m.shrink_to_fit();
        assert_eq!(m.raw_parts(), want.raw_parts());
        assert_eq!(m.n_cols(), 4);
        // Zero entries are dropped; an out-of-order row is refused.
        m.push_row([(2, 0.0), (3, 1.0)]);
        assert_eq!(m.row(3).indices, &[3]);
        let unsorted = std::panic::catch_unwind(|| {
            CsrMatrix::with_capacity(4, 0, 0).push_row([(2, 1.0), (1, 1.0)])
        });
        assert!(unsorted.is_err());
    }

    #[test]
    fn from_pairs_drops_cancelled_entries() {
        let v = sv(&[(2, 1.5), (2, -1.5), (4, 1.0)], 6);
        assert_eq!(v.nnz(), 1);
        assert_eq!(v.to_dense()[4], 1.0);
    }

    #[test]
    fn new_rejects_unsorted() {
        let r = std::panic::catch_unwind(|| SparseVec::new(vec![2, 1], vec![1.0, 1.0], 4));
        assert!(r.is_err());
    }

    #[test]
    fn new_rejects_out_of_dim() {
        let r = std::panic::catch_unwind(|| SparseVec::new(vec![5], vec![1.0], 4));
        assert!(r.is_err());
    }

    #[test]
    fn dot_matches_dense_reference() {
        let a = sv(&[(0, 1.0), (2, 2.0), (5, -1.0)], 8);
        let b = sv(&[(2, 3.0), (5, 4.0), (7, 9.0)], 8);
        let dense: f64 =
            a.to_dense().iter().zip(b.to_dense()).map(|(&x, y)| x as f64 * y as f64).sum();
        assert!((a.as_row().dot(&b.as_row()) - dense).abs() < 1e-9);
    }

    #[test]
    fn dot_dense_matches() {
        let a = sv(&[(1, 2.0), (3, -1.0)], 5);
        let w = vec![1.0f32, 10.0, 100.0, 1000.0, 0.5];
        assert!((a.as_row().dot_dense(&w) - (20.0 - 1000.0)).abs() < 1e-9);
    }

    #[test]
    fn l2_normalize_unit_norm() {
        let mut v = sv(&[(0, 3.0), (1, 4.0)], 2);
        v.l2_normalize();
        assert!((v.as_row().l2_norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn l2_normalize_zero_vector_noop() {
        let mut v = SparseVec::zeros(4);
        v.l2_normalize();
        assert_eq!(v.nnz(), 0);
    }

    #[test]
    fn csr_roundtrip_rows() {
        let rows = vec![sv(&[(0, 1.0)], 4), SparseVec::zeros(4), sv(&[(1, 2.0), (3, 3.0)], 4)];
        let m = CsrMatrix::from_rows(&rows, 4);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.row(0).nnz(), 1);
        assert_eq!(m.row(1).nnz(), 0);
        let r2: Vec<(u32, f32)> = m.row(2).iter().collect();
        assert_eq!(r2, vec![(1, 2.0), (3, 3.0)]);
    }

    #[test]
    fn select_rows_copies_rows_in_the_given_order() {
        let rows = vec![sv(&[(0, 1.0)], 4), SparseVec::zeros(4), sv(&[(1, 2.0), (3, 3.0)], 4)];
        let m = CsrMatrix::from_rows(&rows, 4);
        let picked = m.select_rows(&[2, 1, 2, 0]);
        assert_eq!((picked.n_rows(), picked.n_cols(), picked.nnz()), (4, 4, 5));
        for (k, r) in [2, 1, 2, 0].into_iter().enumerate() {
            assert_eq!(
                picked.row(k).iter().collect::<Vec<_>>(),
                m.row(r).iter().collect::<Vec<_>>()
            );
        }
        let none = m.select_rows(&[]);
        assert_eq!((none.n_rows(), none.n_cols(), none.nnz()), (0, 4, 0));
    }

    #[test]
    fn csr_normalize_rows() {
        let rows = vec![sv(&[(0, 3.0), (1, 4.0)], 4), SparseVec::zeros(4)];
        let mut m = CsrMatrix::from_rows(&rows, 4);
        m.l2_normalize_rows();
        assert!((m.row(0).l2_norm() - 1.0).abs() < 1e-6);
        assert_eq!(m.row(1).nnz(), 0);
    }

    proptest! {
        #[test]
        fn prop_dot_commutative(
            a in proptest::collection::vec((0u32..64, -10.0f32..10.0), 0..20),
            b in proptest::collection::vec((0u32..64, -10.0f32..10.0), 0..20),
        ) {
            let va = SparseVec::from_pairs(a, 64);
            let vb = SparseVec::from_pairs(b, 64);
            let d1 = va.as_row().dot(&vb.as_row());
            let d2 = vb.as_row().dot(&va.as_row());
            prop_assert!((d1 - d2).abs() < 1e-6);
        }

        #[test]
        fn prop_dot_matches_dense(
            a in proptest::collection::vec((0u32..32, -5.0f32..5.0), 0..16),
            b in proptest::collection::vec((0u32..32, -5.0f32..5.0), 0..16),
        ) {
            let va = SparseVec::from_pairs(a, 32);
            let vb = SparseVec::from_pairs(b, 32);
            let dense: f64 = va.to_dense().iter().zip(vb.to_dense())
                .map(|(&x, y)| x as f64 * y as f64).sum();
            prop_assert!((va.as_row().dot(&vb.as_row()) - dense).abs() < 1e-4);
        }

        #[test]
        fn prop_sq_norm_is_self_dot(
            a in proptest::collection::vec((0u32..32, -5.0f32..5.0), 0..16),
        ) {
            let v = SparseVec::from_pairs(a, 32);
            let r = v.as_row();
            prop_assert!((r.sq_norm() - r.dot(&r)).abs() < 1e-6);
        }

        #[test]
        fn prop_csr_preserves_rows(
            rows in proptest::collection::vec(
                proptest::collection::vec((0u32..16, 0.5f32..5.0), 0..8), 0..10),
        ) {
            let svs: Vec<SparseVec> =
                rows.iter().map(|p| SparseVec::from_pairs(p.clone(), 16)).collect();
            let m = CsrMatrix::from_rows(&svs, 16);
            prop_assert_eq!(m.n_rows(), svs.len());
            for (i, sv) in svs.iter().enumerate() {
                let got: Vec<(u32, f32)> = m.row(i).iter().collect();
                let want: Vec<(u32, f32)> = sv.as_row().iter().collect();
                prop_assert_eq!(got, want);
            }
        }
    }
}
