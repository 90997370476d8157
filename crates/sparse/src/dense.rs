//! Dense row-major matrices.
//!
//! Used for the Visual Genome substitute's "embedding-like" features (the
//! paper extracts ResNet features for images) and for the small dense
//! parameter blocks inside the models.

/// Row-major dense `f32` matrix.
#[derive(Debug, Clone)]
pub struct DenseMatrix {
    data: Vec<f32>,
    n_rows: usize,
    n_cols: usize,
}

impl DenseMatrix {
    /// Zero-filled matrix.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self { data: vec![0.0; n_rows * n_cols], n_rows, n_cols }
    }

    /// Build from per-row vectors (all the same length).
    pub fn from_rows(rows: &[Vec<f32>]) -> Self {
        let n_rows = rows.len();
        let n_cols = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(n_rows * n_cols);
        for r in rows {
            assert_eq!(r.len(), n_cols, "ragged rows");
            data.extend_from_slice(r);
        }
        Self { data, n_rows, n_cols }
    }

    /// Borrow the flat row-major buffer.
    pub fn flat(&self) -> &[f32] {
        &self.data
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Borrow row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.n_cols..(r + 1) * self.n_cols]
    }

    /// Iterate rows in order. Always yields exactly [`DenseMatrix::n_rows`]
    /// slices — including `n_rows` *empty* slices for a zero-column matrix
    /// (the historical `chunks_exact(n_cols.max(1))` over the then-empty
    /// buffer yielded none, disagreeing with `n_rows()`).
    pub fn rows(&self) -> impl Iterator<Item = &[f32]> {
        (0..self.n_rows).map(move |r| &self.data[r * self.n_cols..(r + 1) * self.n_cols])
    }

    /// Cached squared L2 norms of every row (same summation order as the
    /// per-pair norm computation in the distance kernels, so cached and
    /// recomputed norms are bit-identical).
    pub fn row_sq_norms(&self) -> Vec<f64> {
        (0..self.n_rows)
            .map(|r| self.row(r).iter().map(|&v| (v as f64) * (v as f64)).sum())
            .collect()
    }

    /// L2-normalize every row in place (zero rows untouched).
    pub fn l2_normalize_rows(&mut self) {
        for r in 0..self.n_rows {
            let row = self.row_mut(r);
            let norm: f64 = row.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>().sqrt();
            if norm > 0.0 {
                let inv = (1.0 / norm) as f32;
                for v in row {
                    *v *= inv;
                }
            }
        }
    }
}

/// Dense dot product.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x as f64 * y as f64).sum()
}

/// Squared euclidean distance between dense vectors.
#[inline]
pub fn sq_euclidean(a: &[f32], b: &[f32]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let d = x as f64 - y as f64;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape() {
        let m = DenseMatrix::zeros(3, 4);
        assert_eq!(m.n_rows(), 3);
        assert_eq!(m.n_cols(), 4);
        assert!(m.row(2).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn from_rows_roundtrip() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let collected: Vec<&[f32]> = m.rows().collect();
        assert_eq!(collected.len(), 2);
    }

    #[test]
    #[should_panic(expected = "ragged rows")]
    fn from_rows_rejects_ragged() {
        DenseMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn rows_agree_with_n_rows_for_zero_columns() {
        // Regression: a zero-column matrix must still yield `n_rows`
        // (empty) row slices, not zero rows.
        let m = DenseMatrix::zeros(3, 0);
        assert_eq!(m.n_rows(), 3);
        let rows: Vec<&[f32]> = m.rows().collect();
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.is_empty()));
        // Degenerate the other way (0 × n) and fully empty both stay empty.
        assert_eq!(DenseMatrix::zeros(0, 4).rows().count(), 0);
        assert_eq!(DenseMatrix::zeros(0, 0).rows().count(), 0);
        // Non-degenerate shape unchanged.
        let m = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let rows: Vec<&[f32]> = m.rows().collect();
        assert_eq!(rows, vec![&[1.0f32, 2.0][..], &[3.0f32, 4.0][..]]);
    }

    #[test]
    fn row_mut_writes() {
        let mut m = DenseMatrix::zeros(2, 2);
        m.row_mut(1)[0] = 7.0;
        assert_eq!(m.row(1), &[7.0, 0.0]);
    }

    #[test]
    fn normalize_rows() {
        let mut m = DenseMatrix::from_rows(&[vec![3.0, 4.0], vec![0.0, 0.0]]);
        m.l2_normalize_rows();
        let n: f64 = m.row(0).iter().map(|&v| (v as f64).powi(2)).sum::<f64>().sqrt();
        assert!((n - 1.0).abs() < 1e-6);
        assert_eq!(m.row(1), &[0.0, 0.0]);
    }

    #[test]
    fn dot_and_euclidean() {
        let a = [1.0f32, 2.0, 3.0];
        let b = [4.0f32, 5.0, 6.0];
        assert!((dot(&a, &b) - 32.0).abs() < 1e-9);
        assert!((sq_euclidean(&a, &b) - 27.0).abs() < 1e-9);
    }
}
