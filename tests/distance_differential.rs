//! Differential property suite for the sparse distance kernels.
//!
//! Two kernels compute "one point vs all rows" distances: the naive
//! row-major scan (`Distance::sparse_naive`) and the inverted-index kernel
//! driven by a [`CscIndex`] (`Distance::sparse_indexed`), which
//! `Features::distances` runs on sparse features. They are bit-identical —
//! each row's matching terms accumulate in ascending column order in both
//! — and this suite holds them to exact equality over random sparse
//! matrices of varying density, including all-zero rows, rows whose
//! entries cancel, untouched columns and cross-matrix (train pivot vs
//! valid pool) queries, for both `Cosine` and `Euclidean`.

use nemo::data::Features;
use nemo::sparse::{CscIndex, CsrMatrix, Distance, SparseVec};
use proptest::prelude::*;

const DISTANCES: [Distance; 2] = [Distance::Cosine, Distance::Euclidean];

fn matrix_from(rows: &[Vec<(u32, f32)>], dim: usize) -> CsrMatrix {
    let svs: Vec<SparseVec> = rows.iter().map(|p| SparseVec::from_pairs(p.clone(), dim)).collect();
    CsrMatrix::from_rows(&svs, dim)
}

/// Row strategy producing matrices from fully empty to ~60% dense, with
/// signed values so entries can cancel to produce zero rows.
fn rows_strategy(
    dim: u32,
    max_nnz: usize,
    max_rows: usize,
) -> impl Strategy<Value = Vec<Vec<(u32, f32)>>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..dim, -4.0f32..4.0), 0..max_nnz),
        1..max_rows,
    )
}

/// Every row of `src` as pivot against every row of `target`: the indexed
/// kernel equals the naive scan bit for bit, and every distance is finite.
fn check_kernels_agree(src: &CsrMatrix, target: &CsrMatrix) {
    let src_norms = src.row_sq_norms();
    let norms = target.row_sq_norms();
    let index = CscIndex::from_csr(target);
    for dist in DISTANCES {
        for (p, &pivot_sq) in src_norms.iter().enumerate() {
            let pivot = src.row(p);
            let naive = dist.sparse_naive(&pivot, pivot_sq, target, &norms);
            let indexed = dist.sparse_indexed(&pivot, pivot_sq, &index, &norms);
            assert_eq!(naive.len(), target.n_rows());
            assert_eq!(naive.len(), indexed.len());
            for (r, (&a, &b)) in naive.iter().zip(&indexed).enumerate() {
                assert!(a.is_finite(), "{dist:?} {p}->{r} not finite");
                assert_eq!(a.to_bits(), b.to_bits(), "{dist:?} {p}->{r}: naive {a} indexed {b}");
            }
        }
    }
}

proptest! {
    /// Moderate dimension, density swept from empty to dense-ish.
    #[test]
    fn prop_kernels_agree_varying_density(rows in rows_strategy(24, 16, 14)) {
        let m = matrix_from(&rows, 24);
        check_kernels_agree(&m, &m);
    }

    /// High dimension, few nonzeros per row: the TF-IDF-like regime the
    /// indexed kernel is built for (most columns empty).
    #[test]
    fn prop_kernels_agree_very_sparse(rows in rows_strategy(96, 6, 12)) {
        let m = matrix_from(&rows, 96);
        check_kernels_agree(&m, &m);
    }

    /// Cross-matrix distances (train pivot vs valid pool).
    #[test]
    fn prop_cross_matrix_kernels_agree(
        train in rows_strategy(32, 10, 8),
        valid in rows_strategy(32, 10, 8),
    ) {
        check_kernels_agree(&matrix_from(&train, 32), &matrix_from(&valid, 32));
    }

    /// `Features::distances` over a sequence of pivots, with repeats: each
    /// answer equals the reference for its own pivot, so no query depends
    /// on the ones before it.
    #[test]
    fn prop_each_query_in_a_sequence_answers_its_own_pivot(
        rows in rows_strategy(24, 8, 10),
        valid in rows_strategy(24, 8, 6),
        picks in proptest::collection::vec(0usize..10, 1..20),
    ) {
        let f = Features::from_csr(matrix_from(&rows, 24));
        let v = Features::from_csr(matrix_from(&valid, 24));
        let pivots: Vec<usize> = picks.into_iter().map(|p| p % f.n()).collect();
        for dist in DISTANCES {
            for target in [&f, &v] {
                let answers: Vec<Vec<f64>> =
                    pivots.iter().map(|&p| f.distances(dist, p, target)).collect();
                for (k, &p) in pivots.iter().enumerate() {
                    prop_assert_eq!(
                        &answers[k],
                        &f.distances_naive(dist, p, target),
                        "{:?} slot {} pivot {}",
                        dist,
                        k,
                        p
                    );
                }
            }
        }
    }
}

/// A handcrafted worst case the strategies might under-sample: every row
/// zero except one, plus a row whose entries cancel to zero.
#[test]
fn all_zero_and_cancelled_rows_agree_across_kernels() {
    let rows = vec![
        vec![],
        vec![(3u32, 2.0f32), (3, -2.0)], // cancels to a zero row
        vec![(0, 1.0), (5, 0.5)],
        vec![],
    ];
    let m = matrix_from(&rows, 8);
    check_kernels_agree(&m, &m);
    check_kernels_agree(&m, &matrix_from(&rows[1..3], 8));
}
