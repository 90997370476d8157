//! Differential property suite for the sparse distance engine.
//!
//! Three kernels compute "one point vs all rows" distances: the naive
//! row-major scan (`sparse_point_to_all`), the inverted-index kernel
//! driven by a [`CscIndex`] (`sparse_point_to_all_indexed_into`), and the
//! batched kernel (`sparse_point_to_all_many`), which runs every pivot
//! through one reused scratch. They are designed
//! to be bit-identical — each row's matching terms accumulate in ascending
//! column order in every tier — and this suite holds them to the issue's
//! 1e-9 agreement bound over random sparse matrices of varying density,
//! including all-zero rows and untouched columns, for both `Cosine` and
//! `Euclidean`.

use nemo::sparse::{CscIndex, CsrMatrix, Distance, DistanceScratch, SparseVec};
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

fn check_all_kernels_agree(m: &CsrMatrix) {
    let norms = m.row_sq_norms();
    let index = CscIndex::from_csr(m);
    let mut scratch = DistanceScratch::new();
    let mut indexed = Vec::new();
    let pivots: Vec<usize> = (0..m.n_rows()).collect();
    for dist in DISTANCES {
        let batched = dist.sparse_point_to_all_many(m, &norms, &pivots, &index, &norms);
        for (pivot, batch_row) in batched.iter().enumerate() {
            let naive = dist.sparse_point_to_all(m, pivot, &norms);
            dist.sparse_point_to_all_indexed_into(
                m,
                &index,
                pivot,
                &norms,
                &mut scratch,
                &mut indexed,
            );
            assert_eq!(naive.len(), indexed.len());
            for (r, (&a, &b)) in naive.iter().zip(&indexed).enumerate() {
                assert!(a.is_finite() && b.is_finite(), "{dist:?} {pivot}->{r} not finite");
                assert!((a - b).abs() <= 1e-9, "{dist:?} {pivot}->{r}: naive {a} indexed {b}");
                let c = batch_row[r];
                assert!((a - c).abs() <= 1e-9, "{dist:?} {pivot}->{r}: naive {a} batched {c}");
            }
        }
    }
}

proptest! {
    /// Moderate dimension, density swept from empty to dense-ish.
    #[test]
    fn prop_kernels_agree_varying_density(rows in rows_strategy(24, 16, 14)) {
        check_all_kernels_agree(&matrix_from(&rows, 24));
    }

    /// High dimension, few nonzeros per row: the TF-IDF-like regime the
    /// indexed kernel is built for (most columns empty).
    #[test]
    fn prop_kernels_agree_very_sparse(rows in rows_strategy(96, 6, 12)) {
        check_all_kernels_agree(&matrix_from(&rows, 96));
    }

    /// Cross-matrix distances (train pivot vs valid pool): the indexed and
    /// batched kernels against the naive reference.
    #[test]
    fn prop_cross_matrix_kernels_agree(
        train in rows_strategy(32, 10, 8),
        valid in rows_strategy(32, 10, 8),
    ) {
        let tm = matrix_from(&train, 32);
        let vm = matrix_from(&valid, 32);
        let t_norms = tm.row_sq_norms();
        let v_norms = vm.row_sq_norms();
        let index = CscIndex::from_csr(&vm);
        let mut scratch = DistanceScratch::new();
        let mut indexed = Vec::new();
        let pivots: Vec<usize> = (0..tm.n_rows()).collect();
        for dist in DISTANCES {
            let batched = dist.sparse_point_to_all_many(&tm, &t_norms, &pivots, &index, &v_norms);
            for p in 0..tm.n_rows() {
                let pivot = tm.row(p);
                let naive = dist.sparse_row_to_all(&pivot, t_norms[p], &vm, &v_norms);
                dist.sparse_row_to_all_indexed_into(
                    &pivot,
                    t_norms[p],
                    &index,
                    &v_norms,
                    &mut scratch,
                    &mut indexed,
                );
                for (r, (&a, &b)) in naive.iter().zip(&indexed).enumerate() {
                    prop_assert!((a - b).abs() <= 1e-9, "{:?} {}->{}", dist, p, r);
                    prop_assert!((a - batched[p][r]).abs() <= 1e-9, "{:?} {}->{} batched", dist, p, r);
                }
            }
        }
    }

    /// Batched output must be ordered by pivot position, not pivot id,
    /// including repeated pivots.
    #[test]
    fn prop_batched_respects_pivot_order(
        rows in rows_strategy(24, 8, 10),
        picks in proptest::collection::vec(0usize..10, 1..20),
    ) {
        let m = matrix_from(&rows, 24);
        let norms = m.row_sq_norms();
        let index = CscIndex::from_csr(&m);
        let pivots: Vec<usize> = picks.into_iter().map(|p| p % m.n_rows()).collect();
        for dist in DISTANCES {
            let batched = dist.sparse_point_to_all_many(&m, &norms, &pivots, &index, &norms);
            prop_assert_eq!(batched.len(), pivots.len());
            for (k, &p) in pivots.iter().enumerate() {
                let naive = dist.sparse_point_to_all(&m, p, &norms);
                for (r, &b) in batched[k].iter().enumerate() {
                    prop_assert!((naive[r] - b).abs() <= 1e-9, "{:?} slot {} pivot {}", dist, k, p);
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
    check_all_kernels_agree(&matrix_from(&rows, 8));
}
