//! Distance kernels for the LF contextualizer (paper Eq. 4).
//!
//! The paper's contextualizer needs `dist(x, x_λ)` from each development
//! data point to every example; in the text domain this is cosine or
//! euclidean distance over TF-IDF vectors (Sec. 4.3, Table 9), and in the
//! image domain the same over dense embeddings. Both sparse and dense
//! feature storage expose a "one point vs all rows" kernel, which is the
//! access pattern the contextualizer caches.
//!
//! One sparse and one dense kernel answer that query, each with a naive
//! reference it equals **bit for bit**:
//!
//! - [`Distance::sparse_indexed`] walks only the posting lists of the
//!   pivot's nonzero columns in a [`CscIndex`], accumulating each row's dot
//!   product straight into the output and then finishing every row in
//!   place; `O(n + Σ_{j ∈ pivot} df(j))`. Its reference
//!   [`Distance::sparse_naive`] is a sorted-merge dot against every row,
//!   `O(nnz + n·nnz(pivot))`. Both add each row's matching terms in
//!   ascending column order, so the floating-point operations are the same.
//! - [`Distance::dense_cached`] reuses cached squared row norms for cosine;
//!   its reference [`Distance::dense_naive`] re-derives both norms per pair
//!   (the cached norms are summed in the same order).
//!
//! A query for a few listed rows (a restored LF's covered rows) runs
//! [`Distance::sparse_gathered`]: the pivot is scattered once into a dense
//! [`GatherScratch`] and each listed row gathers its terms from it, with
//! the merge dot's products in the merge dot's order, so each answer equals
//! the full query's at that row bit for bit; dense rows go through
//! [`Distance::dense_cached_pair`], the per-row step of
//! [`Distance::dense_cached`].

use crate::csc::CscIndex;
use crate::csr::{CsrMatrix, SparseRow};
use crate::dense::{self, DenseMatrix};

/// The dense scatter buffer of [`Distance::sparse_gathered`], kept by the
/// caller so a batch of queries allocates and zeroes it once. It is all
/// zeros between queries: each query writes only the pivot's columns and
/// clears them before it returns.
#[derive(Debug, Clone, Default)]
pub struct GatherScratch(Vec<f64>);

/// Distance (dissimilarity) function between feature vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Distance {
    /// `1 - cos(a, b)`; in `[0, 2]`. The paper's default for text (Table 9
    /// shows it dominating euclidean).
    #[default]
    Cosine,
    /// Standard euclidean distance.
    Euclidean,
}

impl Distance {
    /// Human-readable name used by the benchmark reports.
    pub fn name(self) -> &'static str {
        match self {
            Distance::Cosine => "cosine",
            Distance::Euclidean => "euclidean",
        }
    }

    /// Distance between two sparse rows.
    pub fn sparse(self, a: &SparseRow<'_>, b: &SparseRow<'_>) -> f64 {
        self.finish(a.dot(b), a.sq_norm(), b.sq_norm())
    }

    /// Distance between two dense vectors.
    pub fn dense(self, a: &[f32], b: &[f32]) -> f64 {
        match self {
            Distance::Cosine => {
                let dot = dense::dot(a, b);
                let na: f64 = a.iter().map(|&v| (v as f64) * (v as f64)).sum();
                let nb: f64 = b.iter().map(|&v| (v as f64) * (v as f64)).sum();
                cosine_distance(dot, na, nb)
            }
            Distance::Euclidean => dense::sq_euclidean(a, b).sqrt(),
        }
    }

    /// Finish a distance from a precomputed dot product and squared norms.
    #[inline]
    fn finish(self, dot: f64, pivot_sq: f64, row_sq: f64) -> f64 {
        match self {
            Distance::Cosine => cosine_distance(dot, pivot_sq, row_sq),
            Distance::Euclidean => {
                // ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a·b, guarded against
                // tiny negative round-off.
                let sq = pivot_sq + row_sq - 2.0 * dot;
                sq.max(0.0).sqrt()
            }
        }
    }

    /// Indexed kernel: distances from a sparse `pivot` row to every row of
    /// the matrix behind `index` (its [`CscIndex`]).
    ///
    /// The pivot's nonzero values are scattered through the posting lists
    /// of their columns into the output, one dot product per row; a second
    /// pass finishes each row in place. Rows sharing no terms with the
    /// pivot keep a zero dot and are touched only by that pass. `pivot_sq`
    /// is the pivot's squared norm, `sq_norms` the indexed matrix's cached
    /// squared row norms. Bit-identical to [`Distance::sparse_naive`].
    pub fn sparse_indexed(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        index: &CscIndex,
        sq_norms: &[f64],
    ) -> Vec<f64> {
        assert_eq!(sq_norms.len(), index.n_rows(), "sq_norms length mismatch");
        let mut out = vec![0.0; index.n_rows()];
        // Ascending pivot columns ⇒ each row's matching terms accumulate
        // in the same order as the sorted-merge dot: bit-identical sums.
        for (j, v) in pivot.iter() {
            let (rows, vals) = index.col(j);
            let v = v as f64;
            for (&r, &w) in rows.iter().zip(vals) {
                out[r as usize] += v * w as f64;
            }
        }
        for (d, &row_sq) in out.iter_mut().zip(sq_norms) {
            *d = self.finish(*d, pivot_sq, row_sq);
        }
        out
    }

    /// Gather kernel: distances from a sparse `pivot` row to the rows
    /// `rows` of `m` (any order, repeats allowed), one answer per entry.
    ///
    /// The pivot is scattered once into `scratch` (as `f64`, width
    /// `m.n_cols()`); each listed row then adds `scratch[j] * w` over every
    /// stored term `(j, w)` in ascending column order and is finished with
    /// the cached norms. `O(nnz(pivot) + Σ_{r ∈ rows} nnz(r))`, against the
    /// indexed kernel's `O(n + Σ_{j ∈ pivot} df(j))`: the right form for a
    /// few rows of a large matrix.
    ///
    /// Bit-identical to [`Distance::sparse_naive`] (and so to
    /// [`Distance::sparse_indexed`]) at each listed row. Where the pivot
    /// has column `j`, the product is the merge dot's `pivot_j * w`, in the
    /// merge dot's ascending order. Where it has none, the gather adds
    /// `0.0 * w`, a signed zero, with no branch. That never changes the sum.
    /// The running sum starts at `+0.0` and never becomes `-0.0`: under
    /// round-to-nearest a sum is `-0.0` only when both addends are. So
    /// each extra addend meets either a nonzero sum, which `x + ±0` leaves
    /// unchanged, or `+0.0`, and `+0.0 + -0.0 = +0.0`. This needs finite
    /// values (`0.0 * ∞` is NaN), as every distance query does: the
    /// generators build finite features, and `Features` rejects imported
    /// rows whose norms are not finite.
    /// `tests/distance_differential.rs` pins the equality.
    ///
    /// # Panics
    ///
    /// If a listed row is out of range, `sq_norms` is not one norm per row
    /// of `m`, or the pivot has a column `m` lacks. The checks run before
    /// the scatter, so a panic leaves `scratch` all zeros.
    pub fn sparse_gathered(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        m: &CsrMatrix,
        sq_norms: &[f64],
        rows: &[u32],
        scratch: &mut GatherScratch,
    ) -> Vec<f64> {
        assert_eq!(sq_norms.len(), m.n_rows(), "sq_norms length mismatch");
        assert!(rows.iter().all(|&r| (r as usize) < m.n_rows()), "listed row out of range");
        assert!(pivot.iter().all(|(j, _)| (j as usize) < m.n_cols()), "pivot wider than target");
        let dense = &mut scratch.0;
        if dense.len() < m.n_cols() {
            dense.resize(m.n_cols(), 0.0);
        }
        for (j, v) in pivot.iter() {
            dense[j as usize] = v as f64;
        }
        let out = rows
            .iter()
            .map(|&r| {
                let row = m.row(r as usize);
                let mut dot = 0.0f64;
                for (j, w) in row.iter() {
                    dot += dense[j as usize] * w as f64;
                }
                self.finish(dot, pivot_sq, sq_norms[r as usize])
            })
            .collect();
        for (j, _) in pivot.iter() {
            dense[j as usize] = 0.0;
        }
        out
    }

    /// Dense kernel: distances from a dense `pivot` vector to every row of
    /// `m`, with cached squared norms.
    ///
    /// Cosine reuses `pivot_sq`/`sq_norms` instead of re-deriving both
    /// norms per pair (bit-identical to [`Distance::dense_naive`]: cached
    /// norms are computed in the same summation order). Euclidean keeps the
    /// numerically preferable difference form, which never consults the
    /// norms.
    pub fn dense_cached(
        self,
        pivot: &[f32],
        pivot_sq: f64,
        m: &DenseMatrix,
        sq_norms: &[f64],
    ) -> Vec<f64> {
        assert_eq!(sq_norms.len(), m.n_rows(), "sq_norms length mismatch");
        m.rows()
            .zip(sq_norms)
            .map(|(row, &row_sq)| self.dense_cached_pair(pivot, pivot_sq, row, row_sq))
            .collect()
    }

    /// One row of [`Distance::dense_cached`]: the distance from `pivot` to
    /// `row`, given both squared norms (cosine reads them, euclidean does
    /// not).
    #[inline]
    pub fn dense_cached_pair(self, pivot: &[f32], pivot_sq: f64, row: &[f32], row_sq: f64) -> f64 {
        match self {
            Distance::Cosine => cosine_distance(dense::dot(pivot, row), pivot_sq, row_sq),
            Distance::Euclidean => dense::sq_euclidean(pivot, row).sqrt(),
        }
    }

    /// Reference for [`Distance::sparse_indexed`]: a sorted-merge dot of
    /// `pivot` against every row of `m`, finished with the cached norms
    /// (`pivot_sq` the pivot's, `sq_norms` those of `m`'s rows).
    pub fn sparse_naive(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        m: &CsrMatrix,
        sq_norms: &[f64],
    ) -> Vec<f64> {
        assert_eq!(sq_norms.len(), m.n_rows(), "sq_norms length mismatch");
        m.rows()
            .zip(sq_norms)
            .map(|(row, &row_sq)| self.finish(pivot.dot(&row), pivot_sq, row_sq))
            .collect()
    }

    /// Reference for [`Distance::dense_cached`]: [`Distance::dense`] from
    /// `pivot` to every row of `m`, norms derived per pair.
    pub fn dense_naive(self, pivot: &[f32], m: &DenseMatrix) -> Vec<f64> {
        m.rows().map(|row| self.dense(pivot, row)).collect()
    }
}

/// Cosine distance from precomputed dot product and squared norms.
///
/// Convention for degenerate inputs: if either vector is all-zero the
/// distance is defined as `1.0` (maximally dissimilar but finite), except
/// that the distance from the zero vector to itself is `0.0`. This keeps
/// percentile radii well-defined for empty documents.
fn cosine_distance(dot: f64, sq_a: f64, sq_b: f64) -> f64 {
    if sq_a == 0.0 && sq_b == 0.0 {
        return 0.0;
    }
    if sq_a == 0.0 || sq_b == 0.0 {
        return 1.0;
    }
    let cos = (dot / (sq_a.sqrt() * sq_b.sqrt())).clamp(-1.0, 1.0);
    1.0 - cos
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
    fn cosine_identical_is_zero() {
        let a = sv(&[(0, 1.0), (3, 2.0)], 8);
        let d = Distance::Cosine.sparse(&a.as_row(), &a.as_row());
        assert!(d.abs() < 1e-9);
    }

    #[test]
    fn cosine_orthogonal_is_one() {
        let a = sv(&[(0, 1.0)], 4);
        let b = sv(&[(1, 1.0)], 4);
        let d = Distance::Cosine.sparse(&a.as_row(), &b.as_row());
        assert!((d - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_opposite_is_two() {
        let a = sv(&[(0, 1.0)], 4);
        let b = sv(&[(0, -1.0)], 4);
        let d = Distance::Cosine.sparse(&a.as_row(), &b.as_row());
        assert!((d - 2.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_zero_vector_convention() {
        let z = SparseVec::zeros(4);
        let a = sv(&[(0, 1.0)], 4);
        assert_eq!(Distance::Cosine.sparse(&z.as_row(), &a.as_row()), 1.0);
        assert_eq!(Distance::Cosine.sparse(&z.as_row(), &z.as_row()), 0.0);
    }

    #[test]
    fn euclidean_matches_dense_formula() {
        let a = sv(&[(0, 1.0), (1, 2.0)], 4);
        let b = sv(&[(1, 4.0), (3, 2.0)], 4);
        let want = ((1.0f64).powi(2) + (2.0f64 - 4.0).powi(2) + (2.0f64).powi(2)).sqrt();
        let got = Distance::Euclidean.sparse(&a.as_row(), &b.as_row());
        assert!((got - want).abs() < 1e-6);
    }

    #[test]
    fn sparse_naive_matches_pairwise() {
        let rows = vec![
            sv(&[(0, 1.0), (2, 1.0)], 8),
            sv(&[(1, 3.0)], 8),
            sv(&[(0, 1.0), (2, 1.0), (5, 2.0)], 8),
            SparseVec::zeros(8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = dist.sparse_naive(&m.row(0), norms[0], &m, &norms);
            for (r, row) in rows.iter().enumerate() {
                let pair = dist.sparse(&rows[0].as_row(), &row.as_row());
                assert!((all[r] - pair).abs() < 1e-9, "{dist:?} row {r}");
            }
        }
    }

    #[test]
    fn dense_naive_matches_pairwise() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = dist.dense_naive(m.row(2), &m);
            for (r, &a) in all.iter().enumerate() {
                let pair = dist.dense(m.row(2), m.row(r));
                assert!((a - pair).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sparse_naive_cross_matrix() {
        let train = CsrMatrix::from_rows(&[sv(&[(0, 1.0), (2, 1.0)], 8)], 8);
        let valid_rows = vec![sv(&[(0, 1.0), (2, 1.0)], 8), sv(&[(1, 1.0)], 8)];
        let valid = CsrMatrix::from_rows(&valid_rows, 8);
        let norms = valid.row_sq_norms();
        let pivot = train.row(0);
        let pivot_sq = pivot.sq_norm();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = dist.sparse_naive(&pivot, pivot_sq, &valid, &norms);
            for (r, row) in valid_rows.iter().enumerate() {
                let pair = dist.sparse(&pivot, &row.as_row());
                assert!((all[r] - pair).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dense_naive_off_matrix_pivot() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]);
        let pivot = [0.0f32, 1.0];
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = dist.dense_naive(&pivot, &m);
            for (r, &a) in all.iter().enumerate() {
                assert!((a - dist.dense(&pivot, m.row(r))).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn names_stable() {
        assert_eq!(Distance::Cosine.name(), "cosine");
        assert_eq!(Distance::Euclidean.name(), "euclidean");
    }

    /// The indexed kernel must match the naive scan *bitwise* for every
    /// pivot: both accumulate each row's matching terms in ascending
    /// column order, so the f64 operations are literally the same.
    #[test]
    fn indexed_matches_naive_bitwise() {
        let rows = vec![
            sv(&[(0, 0.3), (2, 1.0), (6, -2.0)], 8),
            sv(&[(1, 3.0)], 8),
            sv(&[(0, 1.0), (2, 1.0), (5, 2.0), (7, 0.25)], 8),
            SparseVec::zeros(8),
            sv(&[(6, 4.0), (7, 1.5)], 8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for pivot in 0..m.n_rows() {
                let naive = dist.sparse_naive(&m.row(pivot), norms[pivot], &m, &norms);
                let indexed = dist.sparse_indexed(&m.row(pivot), norms[pivot], &index, &norms);
                assert_eq!(naive, indexed, "{dist:?} pivot {pivot}");
            }
        }
    }

    /// Zero-norm guard: distances from/to an all-zero row (an empty doc
    /// after tokenization) must be finite and identical between the naive
    /// and indexed kernels for both distance functions.
    #[test]
    fn zero_norm_rows_finite_and_kernel_identical() {
        let rows = vec![
            SparseVec::zeros(6),
            sv(&[(0, 1.0), (3, 2.0)], 6),
            SparseVec::zeros(6),
            sv(&[(3, -1.0)], 6),
        ];
        let m = CsrMatrix::from_rows(&rows, 6);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for pivot in 0..m.n_rows() {
                let naive = dist.sparse_naive(&m.row(pivot), norms[pivot], &m, &norms);
                let indexed = dist.sparse_indexed(&m.row(pivot), norms[pivot], &index, &norms);
                for (r, (&a, &b)) in naive.iter().zip(&indexed).enumerate() {
                    assert!(a.is_finite(), "{dist:?} {pivot}->{r} not finite");
                    assert_eq!(a.to_bits(), b.to_bits(), "{dist:?} {pivot}->{r}");
                }
            }
        }
        // The documented zero-vector convention survives the indexed kernel.
        let from_zero = Distance::Cosine.sparse_indexed(&m.row(0), norms[0], &index, &norms);
        assert_eq!(from_zero[0], 0.0); // zero vs itself
        assert_eq!(from_zero[2], 0.0); // zero vs the other zero row
        assert_eq!(from_zero[1], 1.0); // zero vs non-zero
    }

    #[test]
    fn cross_matrix_indexed_matches_naive() {
        let train = CsrMatrix::from_rows(&[sv(&[(0, 1.0), (2, 1.0)], 8), sv(&[(4, 2.0)], 8)], 8);
        let train_norms = train.row_sq_norms();
        let valid_rows =
            vec![sv(&[(0, 1.0), (2, 1.0)], 8), sv(&[(1, 1.0)], 8), SparseVec::zeros(8)];
        let valid = CsrMatrix::from_rows(&valid_rows, 8);
        let valid_norms = valid.row_sq_norms();
        let index = CscIndex::from_csr(&valid);
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for (p, &pivot_sq) in train_norms.iter().enumerate() {
                let pivot = train.row(p);
                let naive = dist.sparse_naive(&pivot, pivot_sq, &valid, &valid_norms);
                let indexed = dist.sparse_indexed(&pivot, pivot_sq, &index, &valid_norms);
                assert_eq!(naive, indexed, "{dist:?} pivot {p}");
            }
        }
    }

    #[test]
    fn dense_cached_matches_plain() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 0.0]]);
        let norms = m.row_sq_norms();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for p in 0..m.n_rows() {
                let cached = dist.dense_cached(m.row(p), norms[p], &m, &norms);
                assert_eq!(dist.dense_naive(m.row(p), &m), cached, "{dist:?} pivot {p}");
            }
        }
    }

    proptest! {
        #[test]
        fn prop_cosine_in_range(
            a in proptest::collection::vec((0u32..32, -5.0f32..5.0), 1..12),
            b in proptest::collection::vec((0u32..32, -5.0f32..5.0), 1..12),
        ) {
            let va = SparseVec::from_pairs(a, 32);
            let vb = SparseVec::from_pairs(b, 32);
            let d = Distance::Cosine.sparse(&va.as_row(), &vb.as_row());
            prop_assert!((-1e-9..=2.0 + 1e-9).contains(&d));
        }

        #[test]
        fn prop_euclidean_symmetric_nonneg(
            a in proptest::collection::vec((0u32..32, -5.0f32..5.0), 0..12),
            b in proptest::collection::vec((0u32..32, -5.0f32..5.0), 0..12),
        ) {
            let va = SparseVec::from_pairs(a, 32);
            let vb = SparseVec::from_pairs(b, 32);
            let d1 = Distance::Euclidean.sparse(&va.as_row(), &vb.as_row());
            let d2 = Distance::Euclidean.sparse(&vb.as_row(), &va.as_row());
            prop_assert!(d1 >= 0.0);
            prop_assert!((d1 - d2).abs() < 1e-9);
        }

        #[test]
        fn prop_euclidean_triangle_inequality(
            a in proptest::collection::vec((0u32..16, -3.0f32..3.0), 0..8),
            b in proptest::collection::vec((0u32..16, -3.0f32..3.0), 0..8),
            c in proptest::collection::vec((0u32..16, -3.0f32..3.0), 0..8),
        ) {
            let va = SparseVec::from_pairs(a, 16);
            let vb = SparseVec::from_pairs(b, 16);
            let vc = SparseVec::from_pairs(c, 16);
            let ab = Distance::Euclidean.sparse(&va.as_row(), &vb.as_row());
            let bc = Distance::Euclidean.sparse(&vb.as_row(), &vc.as_row());
            let ac = Distance::Euclidean.sparse(&va.as_row(), &vc.as_row());
            prop_assert!(ac <= ab + bc + 1e-6);
        }
    }
}
