//! TF-IDF featurization (the paper's text feature representation, Sec. 5.1).
//!
//! Fitted on the training split only (IDF statistics must not leak from
//! validation/test), then applied to any split. Uses smoothed IDF
//! `ln((1 + N) / (1 + df)) + 1` and optional L2 row normalization (the
//! default, which makes cosine distance equal to 1 − dot product).

use nemo_sparse::{CsrMatrix, SparseVec};

/// Configuration for [`TfIdf`].
#[derive(Debug, Clone)]
pub struct TfIdf {
    /// Use sublinear term frequency `1 + ln(tf)` instead of raw counts.
    pub sublinear_tf: bool,
    /// L2-normalize each document vector.
    pub l2_normalize: bool,
}

impl Default for TfIdf {
    fn default() -> Self {
        Self { sublinear_tf: true, l2_normalize: true }
    }
}

impl TfIdf {
    /// Fit IDF statistics on training documents (encoded as token-id
    /// sequences over a vocabulary of size `n_features`).
    pub fn fit(&self, train_docs: &[Vec<u32>], n_features: usize) -> TfIdfModel {
        let mut df = vec![0u32; n_features];
        for doc in train_docs {
            let mut seen = doc.clone();
            seen.sort_unstable();
            seen.dedup();
            for &t in &seen {
                df[t as usize] += 1;
            }
        }
        let n = train_docs.len() as f64;
        let idf: Vec<f32> =
            df.iter().map(|&d| (((1.0 + n) / (1.0 + d as f64)).ln() + 1.0) as f32).collect();
        TfIdfModel { idf, df, config: self.clone(), n_features }
    }
}

/// A fitted TF-IDF transform.
#[derive(Debug, Clone)]
pub struct TfIdfModel {
    idf: Vec<f32>,
    /// Training document frequency per feature — the posting-list length
    /// profile of any index built over a matrix this model produces.
    df: Vec<u32>,
    config: TfIdf,
    n_features: usize,
}

impl TfIdfModel {
    /// Feature-space dimensionality.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// IDF weight of feature `t`.
    pub fn idf(&self, t: u32) -> f32 {
        self.idf[t as usize]
    }

    /// Training document frequency of feature `t` (the length feature
    /// `t`'s posting list will have in a `CscIndex`/`InvertedIndex` built
    /// over the training matrix).
    pub fn df(&self, t: u32) -> u32 {
        self.df[t as usize]
    }

    /// Transform one document (token-id sequence) into a sparse vector:
    /// row 0 of [`TfIdfModel::transform`] over `[doc]`.
    pub fn transform_doc(&self, doc: &[u32]) -> SparseVec {
        let m = self.transform(&[doc.to_vec()]);
        let row = m.row(0);
        SparseVec::new(row.indices.to_vec(), row.values.to_vec(), self.n_features)
    }

    /// Transform a corpus into a CSR feature matrix.
    ///
    /// Each row is written straight into the matrix from the runs of a
    /// sorted copy of its document: a run of `c` copies of feature `t`
    /// weighs `(1 + ln c) × idf[t]` (raw `c` without sublinear tf), in
    /// ascending `t` order, and the rows are then L2-normalized in place.
    pub fn transform(&self, docs: &[Vec<u32>]) -> CsrMatrix {
        // A document's token count bounds its row's entries; the matrix
        // outlives the build, so the unused part of that bound is released.
        let n_tokens = docs.iter().map(Vec::len).sum();
        let mut m = CsrMatrix::with_capacity(self.n_features, docs.len(), n_tokens);
        let mut sorted: Vec<u32> = Vec::new();
        for doc in docs {
            sorted.clear();
            sorted.extend_from_slice(doc);
            sorted.sort_unstable();
            m.push_row(sorted.chunk_by(|a, b| a == b).map(|run| {
                let (t, c) = (run[0], run.len() as u32);
                let tf = if self.config.sublinear_tf { 1.0 + (c as f32).ln() } else { c as f32 };
                (t, tf * self.idf[t as usize])
            }));
        }
        m.shrink_to_fit();
        if self.config.l2_normalize {
            m.l2_normalize_rows();
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn corpus() -> Vec<Vec<u32>> {
        // feature 0 everywhere (low idf), feature 1 rare (high idf)
        vec![vec![0, 0, 1], vec![0], vec![0], vec![0]]
    }

    #[test]
    fn idf_orders_by_rarity() {
        let model = TfIdf::default().fit(&corpus(), 3);
        assert!(model.idf(1) > model.idf(0));
        // feature 2 never appears: max idf
        assert!(model.idf(2) > model.idf(1));
    }

    #[test]
    fn rows_are_unit_norm() {
        let model = TfIdf::default().fit(&corpus(), 3);
        let m = model.transform(&corpus());
        for row in m.rows() {
            if row.nnz() > 0 {
                assert!((row.l2_norm() - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn empty_doc_gives_zero_row() {
        let model = TfIdf::default().fit(&corpus(), 3);
        let v = model.transform_doc(&[]);
        assert_eq!(v.nnz(), 0);
    }

    #[test]
    fn raw_tf_counts_multiplicity() {
        let cfg = TfIdf { sublinear_tf: false, l2_normalize: false };
        let model = cfg.fit(&[vec![0], vec![1]], 2);
        let v = model.transform_doc(&[0, 0, 0]);
        let dense = v.to_dense();
        assert!((dense[0] / model.idf(0) - 3.0).abs() < 1e-5);
    }

    #[test]
    fn sublinear_tf_dampens() {
        let cfg = TfIdf { sublinear_tf: true, l2_normalize: false };
        let model = cfg.fit(&[vec![0], vec![1]], 2);
        let v1 = model.transform_doc(&[0]).to_dense()[0];
        let v8 = model.transform_doc(&[0; 8]).to_dense()[0];
        assert!(v8 > v1);
        assert!(v8 < 8.0 * v1);
    }

    #[test]
    fn transform_shape() {
        let model = TfIdf::default().fit(&corpus(), 3);
        let m = model.transform(&corpus());
        assert_eq!(m.n_rows(), 4);
        assert_eq!(m.n_cols(), 3);
    }

    #[test]
    fn df_stats_match_transformed_matrix() {
        let model = TfIdf::default().fit(&corpus(), 3);
        assert_eq!(model.df(0), 4);
        assert_eq!(model.df(1), 1);
        assert_eq!(model.df(2), 0);
        let m = model.transform(&corpus());
        let counts = m.column_counts();
        for t in 0..3u32 {
            assert_eq!(model.df(t) as usize, counts[t as usize], "feature {t}");
        }
    }

    #[test]
    fn idf_no_leakage_from_transform_corpus() {
        // Fitting on train only: transforming unseen docs reuses train IDF.
        let model = TfIdf::default().fit(&corpus(), 3);
        let before = model.idf(2);
        let _ = model.transform(&[vec![2, 2], vec![2]]);
        assert_eq!(model.idf(2), before);
    }

    /// Reference for one row of [`TfIdfModel::transform`]: term counts in
    /// a `BTreeMap`, weighted in its ascending key order into a
    /// [`SparseVec`], normalized there.
    fn transform_doc_via_map(model: &TfIdfModel, doc: &[u32]) -> SparseVec {
        use std::collections::BTreeMap;
        let mut counts: BTreeMap<u32, u32> = BTreeMap::new();
        for &t in doc {
            *counts.entry(t).or_insert(0) += 1;
        }
        let pairs: Vec<(u32, f32)> = counts
            .into_iter()
            .map(|(t, c)| {
                let tf = if model.config.sublinear_tf { 1.0 + (c as f32).ln() } else { c as f32 };
                (t, tf * model.idf[t as usize])
            })
            .collect();
        let mut v = SparseVec::from_pairs(pairs, model.n_features);
        if model.config.l2_normalize {
            v.l2_normalize();
        }
        v
    }

    /// Every row's `(feature, value bits)`.
    fn row_bits(m: &CsrMatrix) -> Vec<Vec<(u32, u32)>> {
        m.rows().map(|r| r.iter().map(|(t, x)| (t, x.to_bits())).collect()).collect()
    }

    proptest! {
        /// Sorted-run counting equals map counting bit for bit, row by row
        /// and through `transform_doc`, with each of sublinear tf and L2
        /// normalization on and off.
        #[test]
        fn prop_transform_equals_map_counting(
            train in proptest::collection::vec(proptest::collection::vec(0u32..24, 0..12), 1..8),
            // A narrow id range, so most documents repeat ids.
            docs in proptest::collection::vec(proptest::collection::vec(0u32..8, 0..60), 0..6),
            sublinear_tf in proptest::bool::ANY,
            l2_normalize in proptest::bool::ANY,
        ) {
            let model = TfIdf { sublinear_tf, l2_normalize }.fit(&train, 24);
            let want: Vec<SparseVec> = docs.iter().map(|d| transform_doc_via_map(&model, d)).collect();
            let m = model.transform(&docs);
            prop_assert_eq!(m.n_cols(), 24);
            prop_assert_eq!(row_bits(&m), row_bits(&CsrMatrix::from_rows(&want, 24)));
            for (doc, want) in docs.iter().zip(&want) {
                prop_assert_eq!(&model.transform_doc(doc), want);
            }
        }

        #[test]
        fn prop_nnz_equals_distinct_tokens(
            doc in proptest::collection::vec(0u32..16, 0..40),
        ) {
            let train: Vec<Vec<u32>> = vec![(0..16).collect()];
            let model = TfIdf::default().fit(&train, 16);
            let v = model.transform_doc(&doc);
            let mut distinct = doc.clone();
            distinct.sort_unstable();
            distinct.dedup();
            prop_assert_eq!(v.nnz(), distinct.len());
        }

        #[test]
        fn prop_values_positive(
            doc in proptest::collection::vec(0u32..8, 1..20),
        ) {
            let train: Vec<Vec<u32>> = vec![(0..8).collect(), vec![0, 1]];
            let model = TfIdf::default().fit(&train, 8);
            let v = model.transform_doc(&doc);
            for (_, val) in v.as_row().iter() {
                prop_assert!(val > 0.0);
            }
        }
    }
}
