//! Distance kernels for the LF contextualizer (paper Eq. 4).
//!
//! The paper's contextualizer needs `dist(x, x_λ)` from each development
//! data point to every example; in the text domain this is cosine or
//! euclidean distance over TF-IDF vectors (Sec. 4.3, Table 9), and in the
//! image domain the same over dense embeddings. Both sparse and dense
//! feature storage expose a "one point vs all rows" kernel, which is the
//! access pattern the contextualizer caches.
//!
//! Three tiers of sparse kernel, all producing **bit-identical** results
//! (per-row dot products accumulate matching terms in ascending column
//! order in every tier, so the floating-point operations are literally the
//! same):
//!
//! 1. **Naive row-major** ([`Distance::sparse_point_to_all_into`]) — a
//!    sorted-merge dot against every row; `O(nnz + n·nnz(pivot))`. Kept as
//!    the differential reference and regression baseline.
//! 2. **Indexed** ([`Distance::sparse_row_to_all_indexed_into`]) — walks
//!    only the posting lists of the pivot's nonzero columns in a
//!    [`CscIndex`], scattering into a reusable [`DistanceScratch`]
//!    accumulator; `O(n + Σ_{j ∈ pivot} df(j))`. Rows sharing no terms
//!    with the pivot are never touched.
//! 3. **Batched** ([`Distance::sparse_point_to_all_many`]) — one call per
//!    round registering many pivots, run one pivot after another through a
//!    single reused scratch.
//!
//! The dense kernels mirror this: a scalar point-to-all over cached row
//! norms ([`Distance::dense_row_to_all_cached_into`]) and a batched
//! variant looping over the pivots.

use crate::csc::CscIndex;
use crate::csr::{CsrMatrix, SparseRow};
use crate::dense::{self, DenseMatrix};

/// Reusable accumulator for the indexed sparse kernels: one `f64` dot
/// slot per target row, zeroed at the start of every call. Keeping it
/// outside the kernel makes repeated point-to-all calls allocation-free.
#[derive(Debug, Clone, Default)]
pub struct DistanceScratch {
    dots: Vec<f64>,
}

impl DistanceScratch {
    /// An empty scratch; it sizes itself to the target matrix on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Zeroed dot accumulator of length `n_rows`.
    fn reset(&mut self, n_rows: usize) -> &mut [f64] {
        self.dots.clear();
        self.dots.resize(n_rows, 0.0);
        &mut self.dots
    }
}

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
        match self {
            Distance::Cosine => cosine_distance(a.dot(b), a.sq_norm(), b.sq_norm()),
            Distance::Euclidean => {
                // ||a-b||^2 = ||a||^2 + ||b||^2 - 2 a·b, guarded against
                // tiny negative round-off.
                let sq = a.sq_norm() + b.sq_norm() - 2.0 * a.dot(b);
                sq.max(0.0).sqrt()
            }
        }
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

    /// Distances from row `pivot` of a CSR matrix to every row, via the
    /// naive row-major scan (allocating wrapper over
    /// [`Distance::sparse_point_to_all_into`]).
    ///
    /// `sq_norms` must be the cached per-row squared norms
    /// ([`CsrMatrix::row_sq_norms`]).
    pub fn sparse_point_to_all(self, m: &CsrMatrix, pivot: usize, sq_norms: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.sparse_point_to_all_into(m, pivot, sq_norms, &mut out);
        out
    }

    /// Naive row-major point-to-all into a caller-owned buffer: `out` is
    /// cleared and refilled, so repeated calls are allocation-free once the
    /// buffer has grown to the pool size.
    pub fn sparse_point_to_all_into(
        self,
        m: &CsrMatrix,
        pivot: usize,
        sq_norms: &[f64],
        out: &mut Vec<f64>,
    ) {
        let p = m.row(pivot);
        self.sparse_row_to_all_into(&p, sq_norms[pivot], m, sq_norms, out);
    }

    /// Distances from row `pivot` of a dense matrix to every row.
    pub fn dense_point_to_all(self, m: &DenseMatrix, pivot: usize) -> Vec<f64> {
        let p: Vec<f32> = m.row(pivot).to_vec();
        (0..m.n_rows()).map(|r| self.dense(&p, m.row(r))).collect()
    }

    /// Distances from an arbitrary sparse `pivot` row to every row of `m`
    /// (the pivot may come from a *different* matrix in the same feature
    /// space, e.g. a training development point vs validation examples),
    /// via the naive row-major scan (allocating wrapper over
    /// [`Distance::sparse_row_to_all_into`]).
    ///
    /// `pivot_sq` is the pivot's squared norm; `sq_norms` the cached
    /// per-row squared norms of `m`.
    pub fn sparse_row_to_all(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        m: &CsrMatrix,
        sq_norms: &[f64],
    ) -> Vec<f64> {
        let mut out = Vec::new();
        self.sparse_row_to_all_into(pivot, pivot_sq, m, sq_norms, &mut out);
        out
    }

    /// Naive row-major row-to-all into a caller-owned buffer.
    pub fn sparse_row_to_all_into(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        m: &CsrMatrix,
        sq_norms: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(sq_norms.len(), m.n_rows(), "sq_norms length mismatch");
        out.clear();
        out.reserve(m.n_rows());
        for (r, row) in m.rows().enumerate() {
            out.push(self.finish(pivot.dot(&row), pivot_sq, sq_norms[r]));
        }
    }

    /// Indexed point-to-all: distances from row `pivot` of `m` to every
    /// row, driven by `m`'s column-major companion `index`.
    ///
    /// Bit-identical to [`Distance::sparse_point_to_all_into`] (see the
    /// module docs), but only walks the posting lists of the pivot's
    /// nonzero columns.
    pub fn sparse_point_to_all_indexed_into(
        self,
        m: &CsrMatrix,
        index: &CscIndex,
        pivot: usize,
        sq_norms: &[f64],
        scratch: &mut DistanceScratch,
        out: &mut Vec<f64>,
    ) {
        let p = m.row(pivot);
        self.sparse_row_to_all_indexed_into(&p, sq_norms[pivot], index, sq_norms, scratch, out);
    }

    /// Indexed row-to-all: distances from an arbitrary sparse `pivot` row
    /// to every row of the matrix behind `index` (its [`CscIndex`]).
    ///
    /// The pivot's nonzero values are scattered through the posting lists
    /// of their columns into `scratch`'s per-row dot accumulator — rows
    /// sharing no terms with the pivot keep a zero dot and are only
    /// touched by the `O(n)` finish pass. `sq_norms` are the indexed
    /// matrix's cached squared row norms.
    pub fn sparse_row_to_all_indexed_into(
        self,
        pivot: &SparseRow<'_>,
        pivot_sq: f64,
        index: &CscIndex,
        sq_norms: &[f64],
        scratch: &mut DistanceScratch,
        out: &mut Vec<f64>,
    ) {
        let n = index.n_rows();
        assert_eq!(sq_norms.len(), n, "sq_norms length mismatch");
        let dots = scratch.reset(n);
        // Ascending pivot columns ⇒ each row's matching terms accumulate
        // in the same order as the sorted-merge dot: bit-identical sums.
        for (j, v) in pivot.iter() {
            let (rows, vals) = index.col(j);
            let v = v as f64;
            for (&r, &w) in rows.iter().zip(vals) {
                dots[r as usize] += v * w as f64;
            }
        }
        out.clear();
        out.reserve(n);
        for r in 0..n {
            out.push(self.finish(dots[r], pivot_sq, sq_norms[r]));
        }
    }

    /// Batched indexed kernel: distances from each of `pivots` (rows of
    /// `src`) to every row of the matrix behind `index`, one vector per
    /// pivot, in pivot order.
    ///
    /// Every pivot reuses one [`DistanceScratch`] and each output buffer is
    /// written exactly once, so a round registering many LFs does all its
    /// distance work in a single pass. `src` may be the indexed matrix
    /// itself (self-distances) or another matrix in the same feature space.
    pub fn sparse_point_to_all_many(
        self,
        src: &CsrMatrix,
        src_sq_norms: &[f64],
        pivots: &[usize],
        index: &CscIndex,
        target_sq_norms: &[f64],
    ) -> Vec<Vec<f64>> {
        let mut scratch = DistanceScratch::new();
        pivots
            .iter()
            .map(|&p| {
                let mut out = Vec::new();
                self.sparse_row_to_all_indexed_into(
                    &src.row(p),
                    src_sq_norms[p],
                    index,
                    target_sq_norms,
                    &mut scratch,
                    &mut out,
                );
                out
            })
            .collect()
    }

    /// Distances from an arbitrary dense `pivot` vector to every row of `m`.
    pub fn dense_row_to_all(self, pivot: &[f32], m: &DenseMatrix) -> Vec<f64> {
        (0..m.n_rows()).map(|r| self.dense(pivot, m.row(r))).collect()
    }

    /// Dense row-to-all with cached squared row norms, into a caller-owned
    /// buffer.
    ///
    /// Cosine reuses `pivot_sq`/`sq_norms` instead of re-deriving both
    /// norms per pair (bit-identical: cached norms are computed in the
    /// same summation order). Euclidean keeps the numerically-preferable
    /// difference form, which never consults the norms.
    pub fn dense_row_to_all_cached_into(
        self,
        pivot: &[f32],
        pivot_sq: f64,
        m: &DenseMatrix,
        sq_norms: &[f64],
        out: &mut Vec<f64>,
    ) {
        assert_eq!(sq_norms.len(), m.n_rows(), "sq_norms length mismatch");
        out.clear();
        out.reserve(m.n_rows());
        for (r, row) in m.rows().enumerate() {
            let d = match self {
                Distance::Cosine => cosine_distance(dense::dot(pivot, row), pivot_sq, sq_norms[r]),
                Distance::Euclidean => dense::sq_euclidean(pivot, row).sqrt(),
            };
            out.push(d);
        }
    }

    /// Batched dense kernel: one distance vector per pivot row of `m`, in
    /// pivot order.
    pub fn dense_point_to_all_many(
        self,
        m: &DenseMatrix,
        pivots: &[usize],
        sq_norms: &[f64],
    ) -> Vec<Vec<f64>> {
        pivots
            .iter()
            .map(|&p| {
                let mut out = Vec::new();
                self.dense_row_to_all_cached_into(m.row(p), sq_norms[p], m, sq_norms, &mut out);
                out
            })
            .collect()
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
    fn point_to_all_matches_pairwise_sparse() {
        let rows = vec![
            sv(&[(0, 1.0), (2, 1.0)], 8),
            sv(&[(1, 3.0)], 8),
            sv(&[(0, 1.0), (2, 1.0), (5, 2.0)], 8),
            SparseVec::zeros(8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = dist.sparse_point_to_all(&m, 0, &norms);
            for (r, row) in rows.iter().enumerate() {
                let pair = dist.sparse(&rows[0].as_row(), &row.as_row());
                assert!((all[r] - pair).abs() < 1e-9, "{dist:?} row {r}");
            }
        }
    }

    #[test]
    fn dense_point_to_all_matches_pairwise() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = dist.dense_point_to_all(&m, 2);
            for (r, &a) in all.iter().enumerate() {
                let pair = dist.dense(m.row(2), m.row(r));
                assert!((a - pair).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn sparse_row_to_all_cross_matrix() {
        let train = CsrMatrix::from_rows(&[sv(&[(0, 1.0), (2, 1.0)], 8)], 8);
        let valid_rows = vec![sv(&[(0, 1.0), (2, 1.0)], 8), sv(&[(1, 1.0)], 8)];
        let valid = CsrMatrix::from_rows(&valid_rows, 8);
        let norms = valid.row_sq_norms();
        let pivot = train.row(0);
        let pivot_sq = pivot.sq_norm();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = dist.sparse_row_to_all(&pivot, pivot_sq, &valid, &norms);
            for (r, row) in valid_rows.iter().enumerate() {
                let pair = dist.sparse(&pivot, &row.as_row());
                assert!((all[r] - pair).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn dense_row_to_all_matches() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5]]);
        let pivot = [0.0f32, 1.0];
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let all = dist.dense_row_to_all(&pivot, &m);
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
        let mut scratch = DistanceScratch::new();
        let mut indexed = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for pivot in 0..m.n_rows() {
                let naive = dist.sparse_point_to_all(&m, pivot, &norms);
                dist.sparse_point_to_all_indexed_into(
                    &m,
                    &index,
                    pivot,
                    &norms,
                    &mut scratch,
                    &mut indexed,
                );
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
        let mut scratch = DistanceScratch::new();
        let mut indexed = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for pivot in 0..m.n_rows() {
                let naive = dist.sparse_point_to_all(&m, pivot, &norms);
                dist.sparse_point_to_all_indexed_into(
                    &m,
                    &index,
                    pivot,
                    &norms,
                    &mut scratch,
                    &mut indexed,
                );
                for (r, (&a, &b)) in naive.iter().zip(&indexed).enumerate() {
                    assert!(a.is_finite(), "{dist:?} {pivot}->{r} not finite");
                    assert_eq!(a, b, "{dist:?} {pivot}->{r}");
                }
            }
        }
        // The documented zero-vector convention survives both kernels.
        let z_to_all = Distance::Cosine.sparse_point_to_all(&m, 0, &norms);
        assert_eq!(z_to_all[0], 0.0); // zero vs itself
        assert_eq!(z_to_all[2], 0.0); // zero vs the other zero row
        assert_eq!(z_to_all[1], 1.0); // zero vs non-zero
    }

    #[test]
    fn batched_matches_per_pivot_calls() {
        let rows = vec![
            sv(&[(0, 1.0), (2, 1.0)], 8),
            sv(&[(1, 3.0), (7, 0.5)], 8),
            SparseVec::zeros(8),
            sv(&[(0, 2.0), (5, 2.0)], 8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let pivots = [3usize, 0, 2, 1, 3];
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let batch = dist.sparse_point_to_all_many(&m, &norms, &pivots, &index, &norms);
            assert_eq!(batch.len(), pivots.len());
            for (k, &p) in pivots.iter().enumerate() {
                assert_eq!(batch[k], dist.sparse_point_to_all(&m, p, &norms), "pivot {p}");
            }
        }
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
        let mut scratch = DistanceScratch::new();
        let mut indexed = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for (p, &pivot_sq) in train_norms.iter().enumerate() {
                let pivot = train.row(p);
                let naive = dist.sparse_row_to_all(&pivot, pivot_sq, &valid, &valid_norms);
                dist.sparse_row_to_all_indexed_into(
                    &pivot,
                    pivot_sq,
                    &index,
                    &valid_norms,
                    &mut scratch,
                    &mut indexed,
                );
                assert_eq!(naive, indexed, "{dist:?} pivot {p}");
            }
        }
    }

    #[test]
    fn into_buffers_are_reused_and_refilled() {
        let rows = vec![sv(&[(0, 1.0)], 4), sv(&[(1, 1.0)], 4)];
        let m = CsrMatrix::from_rows(&rows, 4);
        let norms = m.row_sq_norms();
        let mut out = vec![99.0; 17]; // stale content must be discarded
        Distance::Cosine.sparse_point_to_all_into(&m, 0, &norms, &mut out);
        assert_eq!(out.len(), 2);
        assert!(out[0].abs() < 1e-12);
    }

    /// Single-pivot batches (the one-LF-per-round case) run serially and
    /// must agree bitwise with the per-pivot reference.
    #[test]
    fn few_pivot_batches_match_per_pivot() {
        let rows = vec![
            sv(&[(0, 1.0), (2, 1.0)], 8),
            sv(&[(1, 3.0), (7, 0.5)], 8),
            SparseVec::zeros(8),
            sv(&[(0, 2.0), (5, 2.0)], 8),
        ];
        let m = CsrMatrix::from_rows(&rows, 8);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let batch = dist.sparse_point_to_all_many(&m, &norms, &[1], &index, &norms);
            assert_eq!(batch.len(), 1);
            assert_eq!(batch[0], dist.sparse_point_to_all(&m, 1, &norms));
            let dm = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 1.0]]);
            let dnorms = dm.row_sq_norms();
            let batch = dist.dense_point_to_all_many(&dm, &[2], &dnorms);
            let mut one = Vec::new();
            dist.dense_row_to_all_cached_into(dm.row(2), dnorms[2], &dm, &dnorms, &mut one);
            assert_eq!(batch[0], one, "{dist:?}");
        }
    }

    #[test]
    fn dense_cached_matches_plain() {
        let m = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 0.0]]);
        let norms = m.row_sq_norms();
        let mut out = Vec::new();
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for p in 0..m.n_rows() {
                let plain = dist.dense_point_to_all(&m, p);
                dist.dense_row_to_all_cached_into(m.row(p), norms[p], &m, &norms, &mut out);
                assert_eq!(plain, out, "{dist:?} pivot {p}");
            }
            let batch = dist.dense_point_to_all_many(&m, &[2, 0], &norms);
            assert_eq!(batch[0], dist.dense_point_to_all(&m, 2));
            assert_eq!(batch[1], dist.dense_point_to_all(&m, 0));
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
