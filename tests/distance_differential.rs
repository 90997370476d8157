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
//!
//! The covered-rows form of the query (`Rows::Listed`, the gather kernel
//! `Distance::sparse_gathered` on sparse targets) must answer each listed
//! row with the full query's distance at that row, bit for bit, on sparse
//! and dense targets, for zero and cancelled rows, repeated and unsorted
//! rows, and an empty list, with one scratch reused across every query.

use nemo::data::{Features, Rows};
use nemo::sparse::{CscIndex, CsrMatrix, DenseMatrix, Distance, GatherScratch, SparseVec};
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
                    pivots.iter().map(|&p| f.distances(dist, p, target, Rows::All)).collect();
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

/// Every row of `f` as pivot against `target`: for each row list in
/// `lists`, the covered-rows query answers each listed row with the full
/// query's distance there, bit for bit. One scratch serves every query.
fn check_listed_equals_full(f: &Features, target: &Features, lists: &[Vec<u32>]) {
    let mut scratch = GatherScratch::default();
    for dist in DISTANCES {
        for p in 0..f.n() {
            let full = f.distances(dist, p, target, Rows::All);
            for rows in lists {
                let listed = f.distances(dist, p, target, Rows::Listed(rows, &mut scratch));
                assert_eq!(listed.len(), rows.len());
                for (&r, d) in rows.iter().zip(&listed) {
                    let want = full[r as usize];
                    assert_eq!(d.to_bits(), want.to_bits(), "{dist:?} {p}->{r}: {d} vs {want}");
                }
            }
        }
    }
}

/// Row lists over `n` rows: ascending subsets, every row, an empty list,
/// and an unsorted one with repeats.
fn row_lists(n: usize, picks: &[usize]) -> Vec<Vec<u32>> {
    let mut some: Vec<u32> = picks.iter().map(|&k| (k % n) as u32).collect();
    let unsorted = some.clone();
    some.sort_unstable();
    some.dedup();
    let every: Vec<u32> = (0..n as u32).collect();
    let evens: Vec<u32> = every.iter().copied().step_by(2).collect();
    vec![some, every, evens, Vec::new(), unsorted]
}

/// `rows` densified: the same values on the dense backing.
fn dense_features(rows: &[Vec<(u32, f32)>], dim: usize) -> Features {
    let dense: Vec<Vec<f32>> =
        rows.iter().map(|p| SparseVec::from_pairs(p.clone(), dim).to_dense()).collect();
    Features::from_dense(DenseMatrix::from_rows(&dense))
}

proptest! {
    /// Sparse and dense targets, the pivot's own split and another one.
    #[test]
    fn prop_listed_rows_equal_full_query(
        rows in rows_strategy(24, 10, 12),
        valid in rows_strategy(24, 10, 8),
        picks in proptest::collection::vec(0usize..64, 0..10),
    ) {
        let (f, v) = (Features::from_csr(matrix_from(&rows, 24)), Features::from_csr(matrix_from(&valid, 24)));
        check_listed_equals_full(&f, &f, &row_lists(f.n(), &picks));
        check_listed_equals_full(&f, &v, &row_lists(v.n(), &picks));
        let (fd, vd) = (dense_features(&rows, 24), dense_features(&valid, 24));
        check_listed_equals_full(&fd, &fd, &row_lists(fd.n(), &picks));
        check_listed_equals_full(&fd, &vd, &row_lists(vd.n(), &picks));
    }

    /// The TF-IDF-like regime: high dimension, few terms per row.
    #[test]
    fn prop_listed_rows_equal_full_query_very_sparse(
        rows in rows_strategy(96, 6, 14),
        picks in proptest::collection::vec(0usize..64, 0..10),
    ) {
        let f = Features::from_csr(matrix_from(&rows, 96));
        check_listed_equals_full(&f, &f, &row_lists(f.n(), &picks));
    }
}

/// All-zero rows (as pivot and as target), a row whose entries cancel,
/// negative values (so products are signed zeros where the pivot has no
/// term) and an empty row list, on sparse and dense targets.
#[test]
fn listed_rows_equal_full_query_on_zero_and_cancelled_rows() {
    let rows = vec![
        vec![],
        vec![(3u32, 2.0f32), (3, -2.0)], // cancels to a zero row
        vec![(0, 1.0), (5, -0.5)],
        vec![(1, -3.0), (5, 0.25), (7, -1.0)],
        vec![],
    ];
    let lists = row_lists(rows.len(), &[4, 0, 2, 2, 1]);
    let f = Features::from_csr(matrix_from(&rows, 8));
    check_listed_equals_full(&f, &f, &lists);
    let g = Features::from_csr(matrix_from(&rows[1..4], 8));
    check_listed_equals_full(&f, &g, &row_lists(g.n(), &[2, 0]));
    let fd = dense_features(&rows, 8);
    check_listed_equals_full(&fd, &fd, &lists);
    let mut scratch = GatherScratch::default();
    assert!(f.distances(Distance::Cosine, 2, &f, Rows::Listed(&[], &mut scratch)).is_empty());
}

/// Terms whose sum depends on the order they are added in: `1 + 2^-53 +
/// 2^-53` is `1` ascending (each half-ulp addend rounds away) and
/// `1 + 2^-52` descending. The covered-rows query must add them in
/// ascending column order, as the full query does; random values rarely
/// tell orders apart, since sums of `f32` products are often exact in
/// `f64`.
#[test]
fn listed_rows_add_terms_in_ascending_column_order() {
    let (half, quarter) = (2f32.powi(-26), 2f32.powi(-27));
    let rows = vec![
        vec![(0u32, 1.0f32), (1, quarter), (2, quarter)],
        vec![(0, 1.0), (1, half), (2, half)],
    ];
    let terms = [1.0f64, 2f64.powi(-53), 2f64.powi(-53)];
    let ascending = terms.iter().fold(0.0, |acc, t| acc + t);
    let descending = terms.iter().rev().fold(0.0, |acc, t| acc + t);
    assert_ne!(ascending, descending, "the case must be order-sensitive");
    let f = Features::from_csr(matrix_from(&rows, 4));
    check_listed_equals_full(&f, &f, &[vec![1], vec![1, 0]]);
    for dist in DISTANCES {
        let full = f.distances(dist, 0, &f, Rows::All);
        assert_eq!(full, f.distances_naive(dist, 0, &f), "{dist:?}");
    }
}
