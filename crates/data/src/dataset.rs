//! Core dataset types.
//!
//! A [`Dataset`] is the unit the IDP protocol runs on: an unlabeled
//! training split (ground-truth labels are present but only the simulated
//! user / oracle may read them), a labeled validation split (hyperparameter
//! selection, e.g. the contextualizer's percentile `p`), and a held-out
//! test split for the learning curves. Each split carries feature vectors
//! (TF-IDF or dense embeddings) and a [`PrimitiveCorpus`] over the shared
//! primitive domain `Z`.

use nemo_lf::{Label, Metric, PrimitiveCorpus};
use nemo_sparse::{CscIndex, CsrMatrix, DenseMatrix, Distance, DistanceScratch, SparseVec};

/// Feature vectors for one split. The canonical storage is CSR (sparse);
/// dense features (the VG substitute's embeddings) additionally keep the
/// dense form so distance kernels can use the cheaper dense path.
///
/// Sparse-backed features also carry the column-major [`CscIndex`]
/// companion (built once here), so every point-to-all distance query runs
/// through the inverted-index kernel: only the posting lists of the
/// pivot's nonzero terms are walked. The naive row-major kernels stay
/// reachable via the `*_naive` methods for differential tests and
/// regression benchmarks; both paths are bit-identical by construction.
#[derive(Debug, Clone)]
pub struct Features {
    csr: CsrMatrix,
    dense: Option<DenseMatrix>,
    /// Column-major companion; `Some` iff the features are sparse-backed
    /// (dense-backed splits use the dense distance path instead).
    csc: Option<CscIndex>,
    sq_norms: Vec<f64>,
}

impl Features {
    /// Wrap a sparse feature matrix, building its column-major companion.
    pub fn from_csr(csr: CsrMatrix) -> Self {
        let sq_norms = csr.row_sq_norms();
        let csc = Some(CscIndex::from_csr(&csr));
        Self { csr, dense: None, csc, sq_norms }
    }

    /// Wrap dense features, keeping a CSR mirror for model code that
    /// consumes sparse rows uniformly.
    pub fn from_dense(dense: DenseMatrix) -> Self {
        let rows: Vec<SparseVec> = dense
            .rows()
            .map(|r| {
                let pairs: Vec<(u32, f32)> = r
                    .iter()
                    .enumerate()
                    .filter(|&(_, &v)| v != 0.0)
                    .map(|(i, &v)| (i as u32, v))
                    .collect();
                SparseVec::from_pairs(pairs, dense.n_cols())
            })
            .collect();
        let csr = CsrMatrix::from_rows(&rows, dense.n_cols());
        let sq_norms = csr.row_sq_norms();
        Self { csr, dense: Some(dense), csc: None, sq_norms }
    }

    /// Reassemble features from persisted parts without recomputing the
    /// norms or the column-major companion — the fast-load path of the
    /// artifact store. Validates the cross-buffer invariants
    /// ([`Features::from_csr`]/[`Features::from_dense`] establish them by
    /// construction); returns `Err` instead of panicking so corrupted
    /// artifacts surface as typed load errors.
    pub fn from_parts(
        csr: CsrMatrix,
        dense: Option<DenseMatrix>,
        csc: Option<CscIndex>,
        sq_norms: Vec<f64>,
    ) -> Result<Self, &'static str> {
        if sq_norms.len() != csr.n_rows() {
            return Err("row-norm cache length does not match row count");
        }
        if sq_norms.iter().any(|&n| !n.is_finite() || n < 0.0) {
            return Err("row norm must be finite and non-negative");
        }
        match (&dense, &csc) {
            (Some(d), None) => {
                if d.n_rows() != csr.n_rows() || d.n_cols() != csr.n_cols() {
                    return Err("dense mirror shape does not match CSR");
                }
            }
            (None, Some(c)) => {
                if c.n_rows() != csr.n_rows() || c.n_cols() != csr.n_cols() || c.nnz() != csr.nnz()
                {
                    return Err("CSC companion shape does not match CSR");
                }
            }
            // The distance dispatch relies on exactly one of the two being
            // present (see `point_to_all_into`).
            (Some(_), Some(_)) => return Err("features cannot be both dense- and CSC-backed"),
            (None, None) => return Err("sparse-backed features require a CSC companion"),
        }
        Ok(Self { csr, dense, csc, sq_norms })
    }

    /// Number of examples.
    pub fn n(&self) -> usize {
        self.csr.n_rows()
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.csr.n_cols()
    }

    /// Sparse view (always available).
    pub fn csr(&self) -> &CsrMatrix {
        &self.csr
    }

    /// Dense view, if the features were constructed dense.
    pub fn dense(&self) -> Option<&DenseMatrix> {
        self.dense.as_ref()
    }

    /// Cached squared row norms.
    pub fn sq_norms(&self) -> &[f64] {
        &self.sq_norms
    }

    /// Column-major companion index (`Some` iff sparse-backed).
    pub fn csc(&self) -> Option<&CscIndex> {
        self.csc.as_ref()
    }

    /// Distances from example `pivot` (within this split) to every example
    /// of this split, through the indexed engine (allocating wrapper over
    /// [`Features::point_to_all_into`]).
    pub fn point_to_all(&self, dist: Distance, pivot: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.point_to_all_into(dist, pivot, &mut DistanceScratch::new(), &mut out);
        out
    }

    /// Indexed point-to-all into caller-owned buffers; repeated calls with
    /// the same `scratch`/`out` are allocation-free.
    pub fn point_to_all_into(
        &self,
        dist: Distance,
        pivot: usize,
        scratch: &mut DistanceScratch,
        out: &mut Vec<f64>,
    ) {
        match (&self.dense, &self.csc) {
            (Some(d), _) => dist.dense_row_to_all_cached_into(
                d.row(pivot),
                self.sq_norms[pivot],
                d,
                &self.sq_norms,
                out,
            ),
            (None, Some(csc)) => dist.sparse_point_to_all_indexed_into(
                &self.csr,
                csc,
                pivot,
                &self.sq_norms,
                scratch,
                out,
            ),
            // invariant: the constructor builds a CscIndex whenever the
            // split has no dense mirror.
            (None, None) => unreachable!("sparse-backed features always carry a CscIndex"),
        }
    }

    /// Point-to-all through the pre-index kernels (row-major scan for
    /// sparse, per-pair norms for dense): the differential reference the
    /// indexed engine is validated against.
    pub fn point_to_all_naive(&self, dist: Distance, pivot: usize) -> Vec<f64> {
        match &self.dense {
            Some(d) => dist.dense_point_to_all(d, pivot),
            None => dist.sparse_point_to_all(&self.csr, pivot, &self.sq_norms),
        }
    }

    /// Batched point-to-all: one distance vector per pivot, in pivot
    /// order.
    pub fn point_to_all_many(&self, dist: Distance, pivots: &[usize]) -> Vec<Vec<f64>> {
        match (&self.dense, &self.csc) {
            (Some(d), _) => dist.dense_point_to_all_many(d, pivots, &self.sq_norms),
            (None, Some(csc)) => dist.sparse_point_to_all_many(
                &self.csr,
                &self.sq_norms,
                pivots,
                csc,
                &self.sq_norms,
            ),
            // invariant: the constructor builds a CscIndex whenever the
            // split has no dense mirror.
            (None, None) => unreachable!("sparse-backed features always carry a CscIndex"),
        }
    }

    /// Distances from example `pivot` of *this* split to every example of
    /// `other` (same feature space; used to refine LFs on valid/test),
    /// through the indexed engine (allocating wrapper over
    /// [`Features::point_to_other_into`]).
    pub fn point_to_other(&self, dist: Distance, pivot: usize, other: &Features) -> Vec<f64> {
        let mut out = Vec::new();
        self.point_to_other_into(dist, pivot, other, &mut DistanceScratch::new(), &mut out);
        out
    }

    /// Indexed cross-split point-to-all into caller-owned buffers.
    pub fn point_to_other_into(
        &self,
        dist: Distance,
        pivot: usize,
        other: &Features,
        scratch: &mut DistanceScratch,
        out: &mut Vec<f64>,
    ) {
        match (&self.dense, &other.dense, &other.csc) {
            (Some(d_self), Some(d_other), _) => dist.dense_row_to_all_cached_into(
                d_self.row(pivot),
                self.sq_norms[pivot],
                d_other,
                &other.sq_norms,
                out,
            ),
            (_, _, Some(csc)) => dist.sparse_row_to_all_indexed_into(
                &self.csr.row(pivot),
                self.sq_norms[pivot],
                csc,
                &other.sq_norms,
                scratch,
                out,
            ),
            // Mixed sparse pivot vs dense-backed target: the target has no
            // CSC companion, so fall back to the row-major scan over its
            // CSR mirror (matches the historical dispatch).
            _ => dist.sparse_row_to_all_into(
                &self.csr.row(pivot),
                self.sq_norms[pivot],
                &other.csr,
                &other.sq_norms,
                out,
            ),
        }
    }

    /// Cross-split point-to-all through the pre-index kernels (the
    /// differential reference).
    pub fn point_to_other_naive(&self, dist: Distance, pivot: usize, other: &Features) -> Vec<f64> {
        match (&self.dense, &other.dense) {
            (Some(d_self), Some(d_other)) => dist.dense_row_to_all(d_self.row(pivot), d_other),
            _ => {
                let row = self.csr.row(pivot);
                dist.sparse_row_to_all(&row, self.sq_norms[pivot], &other.csr, &other.sq_norms)
            }
        }
    }

    /// Batched cross-split point-to-all: one distance vector per pivot of
    /// *this* split against every example of `other`, in pivot order.
    pub fn point_to_other_many(
        &self,
        dist: Distance,
        pivots: &[usize],
        other: &Features,
    ) -> Vec<Vec<f64>> {
        match (&self.dense, &other.dense, &other.csc) {
            (Some(_), Some(_), _) | (_, _, None) => {
                let mut scratch = DistanceScratch::new();
                pivots
                    .iter()
                    .map(|&p| {
                        let mut out = Vec::new();
                        self.point_to_other_into(dist, p, other, &mut scratch, &mut out);
                        out
                    })
                    .collect()
            }
            (_, _, Some(csc)) => dist.sparse_point_to_all_many(
                &self.csr,
                &self.sq_norms,
                pivots,
                csc,
                &other.sq_norms,
            ),
        }
    }
}

/// One split of a dataset.
#[derive(Debug, Clone)]
pub struct Split {
    /// Ground-truth labels. For the training split these are *oracle-only*:
    /// IDP methods never read them directly; the simulated user does.
    pub labels: Vec<Label>,
    /// Feature vectors.
    pub features: Features,
    /// Primitive sets + inverted index over the shared domain `Z`.
    pub corpus: PrimitiveCorpus,
    /// Generator metadata: latent cluster of each example (used only by
    /// analysis benches such as Fig. 3/6, never by the methods).
    pub clusters: Vec<u32>,
}

impl Split {
    /// Number of examples.
    pub fn n(&self) -> usize {
        self.labels.len()
    }

    /// Empirical fraction of positive labels.
    pub fn pos_frac(&self) -> f64 {
        if self.labels.is_empty() {
            return 0.0;
        }
        self.labels.iter().filter(|&&l| l == Label::Pos).count() as f64 / self.labels.len() as f64
    }

    /// Internal consistency check (sizes line up across fields).
    pub fn validate(&self) {
        assert_eq!(self.labels.len(), self.features.n(), "labels vs features");
        assert_eq!(self.labels.len(), self.corpus.len(), "labels vs corpus");
        assert_eq!(self.labels.len(), self.clusters.len(), "labels vs clusters");
    }
}

/// A complete dataset: three splits over a shared primitive domain.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Display name ("Amazon", "SMS", …).
    pub name: String,
    /// Evaluation metric (accuracy; F1 for the imbalanced SMS task).
    pub metric: Metric,
    /// Unlabeled-for-methods training split (the IDP pool `U`).
    pub train: Split,
    /// Labeled validation split (hyperparameter selection).
    pub valid: Split,
    /// Held-out test split (learning curves).
    pub test: Split,
    /// Size of the primitive domain `Z`.
    pub n_primitives: usize,
    /// Display name per primitive id (token or object tag).
    pub primitive_names: Vec<String>,
    /// Sorted primitive ids of class-indicative "lexicon" entries the
    /// simulated user may consult (paper Appendix C); empty when the task
    /// has no lexicon.
    pub lexicon: Vec<u32>,
    /// Class prior `P(y = +1)` estimated from the validation labels
    /// (the label prior the SEU user model uses).
    pub class_prior_pos: f64,
}

impl Dataset {
    /// Validate cross-split invariants; panics on inconsistency.
    pub fn validate(&self) {
        self.train.validate();
        self.valid.validate();
        self.test.validate();
        assert_eq!(self.train.corpus.n_primitives(), self.n_primitives);
        assert_eq!(self.valid.corpus.n_primitives(), self.n_primitives);
        assert_eq!(self.test.corpus.n_primitives(), self.n_primitives);
        assert_eq!(self.primitive_names.len(), self.n_primitives);
        for w in self.lexicon.windows(2) {
            assert!(w[0] < w[1], "lexicon must be sorted unique");
        }
        if let Some(&max) = self.lexicon.last() {
            assert!((max as usize) < self.n_primitives);
        }
        assert!((0.0..=1.0).contains(&self.class_prior_pos));
    }

    /// The class prior as a `[P(y=−1), P(y=+1)]` array.
    pub fn prior(&self) -> [f64; 2] {
        [1.0 - self.class_prior_pos, self.class_prior_pos]
    }

    /// Display name of primitive `z`.
    pub fn primitive_name(&self, z: u32) -> &str {
        &self.primitive_names[z as usize]
    }

    /// Whether primitive `z` is in the lexicon.
    pub fn in_lexicon(&self, z: u32) -> bool {
        self.lexicon.binary_search(&z).is_ok()
    }

    /// One-line statistics row (Table 1): name, #train, #valid, #test.
    pub fn stats_row(&self) -> (String, usize, usize, usize) {
        (self.name.clone(), self.train.n(), self.valid.n(), self.test.n())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_sparse::DenseMatrix;

    fn tiny_features_sparse() -> Features {
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0)], 3),
            SparseVec::from_pairs(vec![(1, 1.0)], 3),
        ];
        Features::from_csr(CsrMatrix::from_rows(&rows, 3))
    }

    #[test]
    fn features_from_dense_mirrors_csr() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 0.0, 0.0]]);
        let f = Features::from_dense(d);
        assert_eq!(f.n(), 2);
        assert_eq!(f.dim(), 3);
        assert_eq!(f.csr().row(0).nnz(), 2);
        assert_eq!(f.csr().row(1).nnz(), 0);
        assert!(f.dense().is_some());
    }

    #[test]
    fn dense_and_sparse_distances_agree() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let fd = Features::from_dense(d);
        // Rebuild as pure sparse.
        let fs = Features::from_csr(fd.csr().clone());
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let a = fd.point_to_all(dist, 2);
            let b = fs.point_to_all(dist, 2);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn point_to_other_cross_split() {
        let f1 = tiny_features_sparse();
        let f2 = tiny_features_sparse();
        let d = f1.point_to_other(Distance::Cosine, 0, &f2);
        assert!(d[0].abs() < 1e-9); // identical vector
        assert!((d[1] - 1.0).abs() < 1e-9); // orthogonal
    }

    #[test]
    fn sparse_features_carry_csc_dense_do_not() {
        let fs = tiny_features_sparse();
        let csc = fs.csc().expect("sparse-backed features build a CscIndex");
        assert_eq!(csc.n_rows(), fs.n());
        assert_eq!(csc.nnz(), fs.csr().nnz());
        let fd = Features::from_dense(DenseMatrix::from_rows(&[vec![1.0, 0.0]]));
        assert!(fd.csc().is_none());
    }

    #[test]
    fn indexed_naive_and_batched_paths_identical() {
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0), (2, 0.5)], 4),
            SparseVec::from_pairs(vec![(1, 2.0)], 4),
            SparseVec::zeros(4),
            SparseVec::from_pairs(vec![(0, 0.5), (3, 1.0)], 4),
        ];
        let f = Features::from_csr(CsrMatrix::from_rows(&rows, 4));
        let other = Features::from_csr(CsrMatrix::from_rows(&rows[..2], 4));
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let pivots: Vec<usize> = (0..f.n()).collect();
            let many = f.point_to_all_many(dist, &pivots);
            let many_other = f.point_to_other_many(dist, &pivots, &other);
            for (p, (m_row, mo_row)) in many.iter().zip(&many_other).enumerate() {
                assert_eq!(f.point_to_all(dist, p), f.point_to_all_naive(dist, p), "{dist:?}");
                assert_eq!(m_row, &f.point_to_all_naive(dist, p), "{dist:?} batched");
                assert_eq!(
                    f.point_to_other(dist, p, &other),
                    f.point_to_other_naive(dist, p, &other),
                    "{dist:?} cross"
                );
                assert_eq!(mo_row, &f.point_to_other_naive(dist, p, &other));
            }
        }
    }

    #[test]
    fn dense_backed_paths_identical() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 0.0]]);
        let f = Features::from_dense(d);
        for dist in [Distance::Cosine, Distance::Euclidean] {
            let pivots: Vec<usize> = (0..f.n()).collect();
            let many = f.point_to_all_many(dist, &pivots);
            let many_other = f.point_to_other_many(dist, &pivots, &f);
            for (p, (m_row, mo_row)) in many.iter().zip(&many_other).enumerate() {
                assert_eq!(f.point_to_all(dist, p), f.point_to_all_naive(dist, p));
                assert_eq!(m_row, &f.point_to_all_naive(dist, p));
                assert_eq!(f.point_to_other(dist, p, &f), f.point_to_other_naive(dist, p, &f));
                assert_eq!(mo_row, m_row, "{dist:?} batched-other pivot {p}");
            }
        }
    }

    #[test]
    fn split_pos_frac() {
        let split = Split {
            labels: vec![Label::Pos, Label::Neg, Label::Pos, Label::Pos],
            features: {
                let rows: Vec<SparseVec> = (0..4).map(|_| SparseVec::zeros(2)).collect();
                Features::from_csr(CsrMatrix::from_rows(&rows, 2))
            },
            corpus: PrimitiveCorpus::new(vec![vec![]; 4], 2),
            clusters: vec![0; 4],
        };
        split.validate();
        assert!((split.pos_frac() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "labels vs features")]
    fn split_validate_catches_mismatch() {
        let split = Split {
            labels: vec![Label::Pos],
            features: tiny_features_sparse(),
            corpus: PrimitiveCorpus::new(vec![vec![]], 2),
            clusters: vec![0],
        };
        split.validate();
    }
}
