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
use nemo_sparse::{CscIndex, CsrMatrix, DenseMatrix, Distance, GatherScratch, SparseVec};

/// How a split's features are stored for distance queries.
#[derive(Debug, Clone)]
enum Backing {
    /// Sparse features (TF-IDF), with the column-major [`CscIndex`]
    /// companion of the CSR matrix that the indexed distance kernel walks.
    Sparse(CscIndex),
    /// Dense features (the VG substitute's embeddings); the CSR matrix is
    /// a mirror of these rows.
    Dense(DenseMatrix),
}

/// The rows of the target split that a [`Features::distances`] query
/// answers.
#[derive(Debug)]
pub enum Rows<'a> {
    /// Every row, in order: the answer is indexed by row.
    All,
    /// The listed rows (any order, repeats allowed), one answer per entry.
    /// The scratch is the sparse kernel's scatter buffer; a caller that
    /// queries many pivots passes the same one to every query.
    Listed(&'a [u32], &'a mut GatherScratch),
}

/// Feature vectors for one split. Every split keeps a CSR matrix, the
/// form model code consumes; distance queries run on its backing: the
/// column-major [`CscIndex`] companion for sparse features, the dense rows
/// for dense ones.
///
/// [`Features::distances`] is the one distance query: from one example of
/// this split to every example of a target split, or to the listed ones.
/// Sparse targets go through the inverted-index kernel (only the posting
/// lists of the pivot's nonzero terms are walked) or, for listed rows, the
/// gather kernel; dense targets through the dense kernel over cached row
/// norms. [`Features::distances_naive`] is its reference, bit-identical by
/// construction.
#[derive(Debug, Clone)]
pub struct Features {
    csr: CsrMatrix,
    backing: Backing,
    sq_norms: Vec<f64>,
}

impl Features {
    /// Wrap a sparse feature matrix, building its column-major companion.
    pub fn from_csr(csr: CsrMatrix) -> Self {
        let sq_norms = csr.row_sq_norms();
        let backing = Backing::Sparse(CscIndex::from_csr(&csr));
        Self { csr, backing, sq_norms }
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
        Self { csr, backing: Backing::Dense(dense), sq_norms }
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
        match &self.backing {
            Backing::Dense(d) => Some(d),
            Backing::Sparse(_) => None,
        }
    }

    /// Cached squared row norms.
    pub fn sq_norms(&self) -> &[f64] {
        &self.sq_norms
    }

    /// Whether `other` has this split's feature width and backing kind —
    /// what [`Dataset::validate`] requires of every split against train.
    pub fn same_space(&self, other: &Features) -> bool {
        self.dim() == other.dim() && self.dense().is_some() == other.dense().is_some()
    }

    /// Distances from example `pivot` of this split to the `rows` of
    /// `target` (this split itself, or another split in the same feature
    /// space): the contextualizer's `dist(x, x_λ)` (paper Eq. 4).
    ///
    /// For [`Rows::All`], a sparse target runs the indexed kernel
    /// ([`Distance::sparse_indexed`]), a dense one the dense kernel over
    /// cached norms ([`Distance::dense_cached`]); the answer is indexed by
    /// row and bit-identical to [`Features::distances_naive`]. For
    /// [`Rows::Listed`], a sparse target runs the gather kernel
    /// ([`Distance::sparse_gathered`]), a dense one the dense kernel's
    /// per-row step; answer `k` is bit-identical to the full query's at row
    /// `rows[k]`.
    ///
    /// # Panics
    ///
    /// If `pivot` or a listed row is out of range, or if this split is
    /// wider than `target` ([`Dataset::validate`] rules that out between
    /// splits).
    pub fn distances(
        &self,
        dist: Distance,
        pivot: usize,
        target: &Features,
        rows: Rows<'_>,
    ) -> Vec<f64> {
        let pivot_sq = self.sq_norms[pivot];
        let norms = &target.sq_norms;
        let dense_rows = |p: &[f32], m: &DenseMatrix| match rows {
            Rows::All => dist.dense_cached(p, pivot_sq, m, norms),
            Rows::Listed(list, _) => list
                .iter()
                .map(|&r| dist.dense_cached_pair(p, pivot_sq, m.row(r as usize), norms[r as usize]))
                .collect(),
        };
        match (&self.backing, &target.backing) {
            (_, Backing::Sparse(csc)) => match rows {
                Rows::All => dist.sparse_indexed(&self.csr.row(pivot), pivot_sq, csc, norms),
                Rows::Listed(list, scratch) => dist.sparse_gathered(
                    &self.csr.row(pivot),
                    pivot_sq,
                    &target.csr,
                    norms,
                    list,
                    scratch,
                ),
            },
            (Backing::Dense(own), Backing::Dense(m)) => dense_rows(own.row(pivot), m),
            // A sparse pivot against dense rows (never two splits of a
            // validated dataset): densify the pivot's CSR row.
            (Backing::Sparse(_), Backing::Dense(m)) => {
                let mut row = vec![0.0; m.n_cols()];
                for (j, v) in self.csr.row(pivot).iter() {
                    row[j as usize] = v;
                }
                dense_rows(&row, m)
            }
        }
    }

    /// Reference for [`Features::distances`]: the naive scans
    /// ([`Distance::dense_naive`] between dense splits, otherwise
    /// [`Distance::sparse_naive`] over the CSR rows). The differential
    /// suites check the production query against it.
    pub fn distances_naive(&self, dist: Distance, pivot: usize, target: &Features) -> Vec<f64> {
        match (&self.backing, &target.backing) {
            (Backing::Dense(own), Backing::Dense(m)) => dist.dense_naive(own.row(pivot), m),
            _ => dist.sparse_naive(
                &self.csr.row(pivot),
                self.sq_norms[pivot],
                &target.csr,
                &target.sq_norms,
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
        for split in [&self.valid, &self.test] {
            assert!(
                split.features.same_space(&self.train.features),
                "every split needs train's feature width and backing"
            );
        }
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
            let a = fd.distances(dist, 2, &fd, Rows::All);
            let b = fs.distances(dist, 2, &fs, Rows::All);
            for (x, y) in a.iter().zip(&b) {
                assert!((x - y).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn distances_cross_split() {
        let f1 = tiny_features_sparse();
        let f2 = tiny_features_sparse();
        let d = f1.distances(Distance::Cosine, 0, &f2, Rows::All);
        assert!(d[0].abs() < 1e-9); // identical vector
        assert!((d[1] - 1.0).abs() < 1e-9); // orthogonal
    }

    #[test]
    fn sparse_features_carry_csc_dense_do_not() {
        let fs = tiny_features_sparse();
        let Backing::Sparse(csc) = &fs.backing else {
            panic!("sparse-backed features build a CscIndex");
        };
        assert_eq!(csc.n_rows(), fs.n());
        assert_eq!(csc.nnz(), fs.csr().nnz());
        let fd = Features::from_dense(DenseMatrix::from_rows(&[vec![1.0, 0.0]]));
        assert!(matches!(fd.backing, Backing::Dense(_)));
    }

    #[test]
    fn indexed_and_naive_paths_identical() {
        let rows = vec![
            SparseVec::from_pairs(vec![(0, 1.0), (2, 0.5)], 4),
            SparseVec::from_pairs(vec![(1, 2.0)], 4),
            SparseVec::zeros(4),
            SparseVec::from_pairs(vec![(0, 0.5), (3, 1.0)], 4),
        ];
        let f = Features::from_csr(CsrMatrix::from_rows(&rows, 4));
        let other = Features::from_csr(CsrMatrix::from_rows(&rows[..2], 4));
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for p in 0..f.n() {
                assert_eq!(
                    f.distances(dist, p, &f, Rows::All),
                    f.distances_naive(dist, p, &f),
                    "{dist:?}"
                );
                assert_eq!(
                    f.distances(dist, p, &other, Rows::All),
                    f.distances_naive(dist, p, &other),
                    "{dist:?} cross"
                );
            }
        }
    }

    #[test]
    fn dense_backed_paths_identical() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0], vec![0.5, 0.5], vec![0.0, 0.0]]);
        let f = Features::from_dense(d);
        let other = Features::from_dense(DenseMatrix::from_rows(&[vec![0.0, 2.0]]));
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for p in 0..f.n() {
                assert_eq!(f.distances(dist, p, &f, Rows::All), f.distances_naive(dist, p, &f));
                assert_eq!(
                    f.distances(dist, p, &other, Rows::All),
                    f.distances_naive(dist, p, &other)
                );
            }
        }
    }

    /// Splits of one validated dataset never mix backings, but the query
    /// stays total: a sparse pivot against dense rows and a dense pivot
    /// against a sparse index agree with the reference.
    #[test]
    fn mixed_backing_distances_match_naive() {
        let d = DenseMatrix::from_rows(&[vec![1.0, 0.0, 2.0], vec![0.0, 3.0, 0.0]]);
        let fd = Features::from_dense(d);
        let fs = Features::from_csr(fd.csr().clone());
        for dist in [Distance::Cosine, Distance::Euclidean] {
            for (a, b) in [(&fs, &fd), (&fd, &fs)] {
                for p in 0..a.n() {
                    let got = a.distances(dist, p, b, Rows::All);
                    for (x, y) in got.iter().zip(&a.distances_naive(dist, p, b)) {
                        assert!((x - y).abs() < 1e-9, "{dist:?} pivot {p}");
                    }
                }
            }
        }
    }

    #[test]
    fn same_space_compares_width_and_backing() {
        let fs = tiny_features_sparse();
        assert!(fs.same_space(&tiny_features_sparse()));
        let narrow = Features::from_csr(CsrMatrix::from_rows(&[SparseVec::zeros(2)], 2));
        assert!(!fs.same_space(&narrow));
        let dense = Features::from_dense(DenseMatrix::from_rows(&[vec![1.0, 0.0, 0.0]]));
        assert!(!fs.same_space(&dense));
        assert!(dense.same_space(&Features::from_dense(DenseMatrix::zeros(4, 3))));
    }

    /// A valid or test split in another feature space than train's
    /// (narrower, or dense where train is sparse) fails validation:
    /// accepted, a narrow valid split made the contextualizer's
    /// registration index past its CSC columns.
    #[test]
    fn validate_rejects_split_outside_train_space() {
        let ds = crate::catalog::toy_text(1);
        let narrow = |f: &Features| {
            let dim = f.dim() / 2;
            let rows: Vec<SparseVec> = f
                .csr()
                .rows()
                .map(|r| {
                    SparseVec::from_pairs(
                        r.iter().filter(|&(j, _)| (j as usize) < dim).collect(),
                        dim,
                    )
                })
                .collect();
            Features::from_csr(CsrMatrix::from_rows(&rows, dim))
        };
        let dense = |f: &Features| {
            let rows: Vec<Vec<f32>> = f
                .csr()
                .rows()
                .map(|r| SparseVec::from_pairs(r.iter().collect(), f.dim()).to_dense())
                .collect();
            Features::from_dense(DenseMatrix::from_rows(&rows))
        };
        let mut narrow_valid = ds.clone();
        narrow_valid.valid.features = narrow(&ds.valid.features);
        let mut narrow_test = ds.clone();
        narrow_test.test.features = narrow(&ds.test.features);
        let mut dense_valid = ds.clone();
        dense_valid.valid.features = dense(&ds.valid.features);
        for (what, dataset) in [
            ("narrow valid", narrow_valid),
            ("narrow test", narrow_test),
            ("dense valid", dense_valid),
        ] {
            let validated = std::panic::catch_unwind(|| dataset.validate());
            assert!(validated.is_err(), "{what}: Dataset::validate must reject it");
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
