//! Logistic regression on sparse features with probabilistic targets.
//!
//! Trained by mini-batchless SGD over a (sub)set of examples with soft
//! cross-entropy loss `−t·log p − (1−t)·log(1−p)`; the gradient for a
//! soft target is simply `(p − t)·x`, so probabilistic labels from the
//! label model plug in directly (the standard noise-aware DP end-model
//! objective). L2 regularization is applied as weight decay in chunks:
//! every 64 SGD steps all weights are multiplied by `(1 − lr·l2)^64`, so
//! the dense sweep amortizes over the sparse updates and matches per-step
//! decay up to `O(lr²·l2²)`.
//!
//! `fit` copies the covered rows into one packed CSR before the first
//! epoch ([`CsrMatrix::select_rows`]), so the shuffled SGD steps read a
//! buffer that holds no uncovered rows instead of the whole train matrix.
//! The arithmetic is that of a walk over `x` itself, operation for
//! operation; the test oracle `fit_csr_walk` pins the two bit for bit.

use nemo_sparse::stats::sigmoid;
use nemo_sparse::{CsrMatrix, DetRng};

/// Hyperparameters for [`LogisticRegression`].
#[derive(Debug, Clone)]
pub struct LogRegConfig {
    /// Learning rate.
    pub lr: f64,
    /// Number of SGD epochs.
    pub epochs: usize,
    /// L2 regularization strength: every 64 SGD steps the weights are
    /// multiplied by `(1 − lr · l2)^64` (the intercept is not decayed).
    pub l2: f64,
    /// Whether to fit an intercept.
    pub fit_intercept: bool,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        Self { lr: 0.5, epochs: 20, l2: 2e-5, fit_intercept: true }
    }
}

/// Logistic-regression trainer.
#[derive(Debug, Clone, Default)]
pub struct LogisticRegression {
    /// Hyperparameters.
    pub config: LogRegConfig,
}

impl LogisticRegression {
    /// Construct with a config.
    pub fn new(config: LogRegConfig) -> Self {
        Self { config }
    }

    /// Fit on rows `indices` of `x` (all rows when `None`) against soft
    /// targets `targets[i] = P(y_i = +1)` (indexed by *row id*, not by
    /// position in `indices`). Deterministic in `seed`.
    pub fn fit(
        &self,
        x: &CsrMatrix,
        targets: &[f64],
        indices: Option<&[u32]>,
        seed: u64,
    ) -> FittedLogReg {
        assert_eq!(x.n_rows(), targets.len(), "targets length mismatch");
        let mut rows: Vec<u32> = match indices {
            Some(ids) => ids.to_vec(),
            None => (0..x.n_rows() as u32).collect(),
        };
        let mut w = vec![0.0f32; x.n_cols()];
        let mut b = 0.0f64;
        if rows.is_empty() {
            return FittedLogReg { weights: w, bias: 0.0 };
        }
        // Canonicalize before the seeded shuffle so the fit is invariant
        // to the order in which callers list the covered rows.
        rows.sort_unstable();
        // Gather those rows once, in that order, into one contiguous CSR:
        // packed row `k` is row `rows[k]` of `x`, with target `row_targets[k]`.
        let packed = x.select_rows(&rows);
        let row_targets: Vec<f64> = rows.iter().map(|&i| targets[i as usize]).collect();
        // A Fisher–Yates pass draws the same swaps for any slice of a given
        // length, so shuffling positions visits rows in the same order as
        // shuffling the row ids themselves.
        let mut order: Vec<u32> = (0..rows.len() as u32).collect();
        let mut rng = DetRng::new(seed ^ 0x7095_71c5_u64);
        let cfg = &self.config;
        // Per-step L2 weight decay, applied in chunks of `DECAY_CHUNK`
        // steps so the dense `w *= c` sweep amortizes over sparse updates
        // (equivalent up to O(lr²·l2²) to exact per-step decay).
        const DECAY_CHUNK: usize = 64;
        let chunk_decay = (1.0 - cfg.lr * cfg.l2).max(0.0).powi(DECAY_CHUNK as i32) as f32;
        let mut steps_since_decay = 0usize;
        for _epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for &k in &order {
                let row = packed.row(k as usize);
                let z = row.dot_dense(&w) + b;
                let p = sigmoid(z);
                let g = p - row_targets[k as usize];
                let step = (cfg.lr * g) as f32;
                for (&col, &v) in row.indices.iter().zip(row.values) {
                    w[col as usize] -= step * v;
                }
                if cfg.fit_intercept {
                    b -= cfg.lr * g;
                }
                if cfg.l2 > 0.0 {
                    steps_since_decay += 1;
                    if steps_since_decay == DECAY_CHUNK {
                        steps_since_decay = 0;
                        for wi in &mut w {
                            *wi *= chunk_decay;
                        }
                    }
                }
            }
        }
        FittedLogReg { weights: w, bias: b as f32 }
    }
}

/// A fitted logistic-regression model.
#[derive(Debug, Clone)]
pub struct FittedLogReg {
    weights: Vec<f32>,
    bias: f32,
}

impl FittedLogReg {
    /// A zero model (predicts 0.5 everywhere) of the given dimension.
    pub fn zeros(dim: usize) -> Self {
        Self { weights: vec![0.0; dim], bias: 0.0 }
    }

    /// Weight vector.
    pub fn weights(&self) -> &[f32] {
        &self.weights
    }

    /// Intercept.
    pub fn bias(&self) -> f32 {
        self.bias
    }

    /// Decision value `w·x + b` for one row.
    pub fn decision(&self, x: &CsrMatrix, i: usize) -> f64 {
        x.row(i).dot_dense(&self.weights) + self.bias as f64
    }

    /// `P(y = +1)` for one row.
    pub fn predict_proba_one(&self, x: &CsrMatrix, i: usize) -> f64 {
        sigmoid(self.decision(x, i))
    }

    /// `P(y = +1)` for every row.
    pub fn predict_proba(&self, x: &CsrMatrix) -> Vec<f64> {
        (0..x.n_rows()).map(|i| self.predict_proba_one(x, i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_sparse::SparseVec;
    use proptest::prelude::*;

    /// Linearly separable toy set: feature 0 → positive, feature 1 → negative.
    fn toy() -> (CsrMatrix, Vec<f64>) {
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for k in 0..40 {
            let strength = 0.5 + (k % 5) as f32 * 0.1;
            rows.push(SparseVec::from_pairs(vec![(0, strength)], 2));
            targets.push(1.0);
            rows.push(SparseVec::from_pairs(vec![(1, strength)], 2));
            targets.push(0.0);
        }
        (CsrMatrix::from_rows(&rows, 2), targets)
    }

    /// Full-batch soft cross-entropy loss and gradient, checked against
    /// finite differences below.
    fn loss_and_grad(
        x: &CsrMatrix,
        targets: &[f64],
        indices: &[u32],
        weights: &[f32],
        bias: f64,
    ) -> (f64, Vec<f64>, f64) {
        let mut loss = 0.0;
        let mut gw = vec![0.0f64; x.n_cols()];
        let mut gb = 0.0;
        let eps = 1e-12;
        for &i in indices {
            let row = x.row(i as usize);
            let p = sigmoid(row.dot_dense(weights) + bias);
            let t = targets[i as usize];
            loss -= t * (p.max(eps)).ln() + (1.0 - t) * ((1.0 - p).max(eps)).ln();
            let g = p - t;
            for (&col, &v) in row.indices.iter().zip(row.values) {
                gw[col as usize] += g * v as f64;
            }
            gb += g;
        }
        let n = indices.len().max(1) as f64;
        (loss / n, gw.iter().map(|g| g / n).collect(), gb / n)
    }

    /// The CSR-walk `fit` body that packing replaced: every SGD step reads
    /// its row straight from `x`. The oracle of [`LogisticRegression::fit`].
    fn fit_csr_walk(
        cfg: &LogRegConfig,
        x: &CsrMatrix,
        targets: &[f64],
        indices: Option<&[u32]>,
        seed: u64,
    ) -> FittedLogReg {
        let owned: Vec<u32>;
        let idx: &[u32] = match indices {
            Some(ids) => ids,
            None => {
                owned = (0..x.n_rows() as u32).collect();
                &owned
            }
        };
        let mut w = vec![0.0f32; x.n_cols()];
        let mut b = 0.0f64;
        if idx.is_empty() {
            return FittedLogReg { weights: w, bias: 0.0 };
        }
        let mut order: Vec<u32> = idx.to_vec();
        order.sort_unstable();
        let mut rng = DetRng::new(seed ^ 0x7095_71c5_u64);
        const DECAY_CHUNK: usize = 64;
        let chunk_decay = (1.0 - cfg.lr * cfg.l2).max(0.0).powi(DECAY_CHUNK as i32) as f32;
        let mut steps_since_decay = 0usize;
        for _epoch in 0..cfg.epochs {
            rng.shuffle(&mut order);
            for &i in &order {
                let row = x.row(i as usize);
                let z = row.dot_dense(&w) + b;
                let p = sigmoid(z);
                let g = p - targets[i as usize];
                let step = (cfg.lr * g) as f32;
                for (&col, &v) in row.indices.iter().zip(row.values) {
                    w[col as usize] -= step * v;
                }
                if cfg.fit_intercept {
                    b -= cfg.lr * g;
                }
                if cfg.l2 > 0.0 {
                    steps_since_decay += 1;
                    if steps_since_decay == DECAY_CHUNK {
                        steps_since_decay = 0;
                        for wi in &mut w {
                            *wi *= chunk_decay;
                        }
                    }
                }
            }
        }
        FittedLogReg { weights: w, bias: b as f32 }
    }

    #[test]
    fn learns_separable_data() {
        let (x, t) = toy();
        let model = LogisticRegression::default().fit(&x, &t, None, 1);
        let probs = model.predict_proba(&x);
        for (i, &target) in t.iter().enumerate() {
            if target > 0.5 {
                assert!(probs[i] > 0.7, "pos example {i} got {}", probs[i]);
            } else {
                assert!(probs[i] < 0.3, "neg example {i} got {}", probs[i]);
            }
        }
    }

    #[test]
    fn soft_targets_are_respected() {
        // All-identical features with soft target 0.8 → predictions ≈ 0.8.
        let rows: Vec<SparseVec> =
            (0..50).map(|_| SparseVec::from_pairs(vec![(0, 1.0)], 1)).collect();
        let x = CsrMatrix::from_rows(&rows, 1);
        let t = vec![0.8; 50];
        let cfg = LogRegConfig { epochs: 200, lr: 0.3, l2: 0.0, fit_intercept: true };
        let model = LogisticRegression::new(cfg).fit(&x, &t, None, 2);
        let p = model.predict_proba_one(&x, 0);
        assert!((p - 0.8).abs() < 0.03, "converged to {p}");
    }

    #[test]
    fn subset_training_ignores_other_rows() {
        let (x, mut t) = toy();
        // Poison the targets of rows we exclude.
        let train_idx: Vec<u32> = (0..x.n_rows() as u32).filter(|i| i % 2 == 0).collect();
        for i in (1..t.len()).step_by(2) {
            t[i] = 0.5;
        }
        let model = LogisticRegression::default().fit(&x, &t, Some(&train_idx), 3);
        // Even rows are all the positive-feature rows in `toy`'s layout.
        assert!(model.predict_proba_one(&x, 0) > 0.6);
    }

    #[test]
    fn empty_subset_yields_zero_model() {
        let (x, t) = toy();
        let model = LogisticRegression::default().fit(&x, &t, Some(&[]), 4);
        assert_eq!(model.predict_proba_one(&x, 0), 0.5);
    }

    #[test]
    fn deterministic_given_seed() {
        let (x, t) = toy();
        let m1 = LogisticRegression::default().fit(&x, &t, None, 7);
        let m2 = LogisticRegression::default().fit(&x, &t, None, 7);
        assert_eq!(m1.weights(), m2.weights());
        assert_eq!(m1.bias(), m2.bias());
    }

    #[test]
    fn l2_shrinks_weights() {
        let (x, t) = toy();
        let loose = LogisticRegression::new(LogRegConfig { l2: 0.0, ..Default::default() })
            .fit(&x, &t, None, 5);
        let tight = LogisticRegression::new(LogRegConfig { l2: 0.05, ..Default::default() })
            .fit(&x, &t, None, 5);
        let norm = |m: &FittedLogReg| m.weights().iter().map(|&w| (w as f64).powi(2)).sum::<f64>();
        assert!(norm(&tight) < norm(&loose));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let (x, t) = toy();
        let idx: Vec<u32> = (0..x.n_rows() as u32).collect();
        let w = vec![0.3f32, -0.2];
        let b = 0.1;
        let (_, gw, gb) = loss_and_grad(&x, &t, &idx, &w, b);
        let h = 1e-4;
        for d in 0..2 {
            let mut wp = w.clone();
            wp[d] += h as f32;
            let (lp, _, _) = loss_and_grad(&x, &t, &idx, &wp, b);
            let mut wm = w.clone();
            wm[d] -= h as f32;
            let (lm, _, _) = loss_and_grad(&x, &t, &idx, &wm, b);
            let fd = (lp - lm) / (2.0 * h);
            assert!((fd - gw[d]).abs() < 1e-3, "dim {d}: fd {fd} vs analytic {}", gw[d]);
        }
        let (lp, _, _) = loss_and_grad(&x, &t, &idx, &w, b + h);
        let (lm, _, _) = loss_and_grad(&x, &t, &idx, &w, b - h);
        let fd = (lp - lm) / (2.0 * h);
        assert!((fd - gb).abs() < 1e-3, "bias: fd {fd} vs analytic {gb}");
    }

    #[test]
    fn zero_model_predicts_half() {
        let (x, _) = toy();
        let model = FittedLogReg::zeros(2);
        assert!(model.predict_proba(&x).iter().all(|&p| (p - 0.5).abs() < 1e-12));
    }

    /// A random `n_rows × n_cols` matrix with about a quarter of its rows
    /// empty, and soft targets that include the exact endpoints 0 and 1.
    fn random_problem(rng: &mut DetRng, n_rows: usize, n_cols: usize) -> (CsrMatrix, Vec<f64>) {
        let rows: Vec<SparseVec> = (0..n_rows)
            .map(|_| {
                let pairs = if rng.bernoulli(0.25) {
                    Vec::new()
                } else {
                    (0..n_cols as u32)
                        .filter_map(|j| {
                            let kept = rng.bernoulli(0.4);
                            kept.then(|| (j, rng.uniform_in(-2.0, 2.0) as f32))
                        })
                        .collect()
                };
                SparseVec::from_pairs(pairs, n_cols)
            })
            .collect();
        let targets = (0..n_rows)
            .map(|_| match rng.index(4) {
                0 => 0.0,
                1 => 1.0,
                _ => rng.uniform(),
            })
            .collect();
        (CsrMatrix::from_rows(&rows, n_cols), targets)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Packed `fit` is the CSR walk bit for bit: weights and bias, for
        /// all rows, no rows, and unsorted subsets with duplicate rows.
        #[test]
        fn prop_packed_fit_bit_identical_to_csr_walk(
            (seed, n_rows, n_cols) in (0u64..1_000_000, 0usize..48, 1usize..12),
            (subset, epochs, fit_intercept) in (0u8..3, 0usize..4, proptest::bool::ANY),
            (lr, l2, l2_on) in (0.05f64..1.0, 1e-4f64..0.3, proptest::bool::ANY),
        ) {
            let mut rng = DetRng::new(seed);
            let (x, targets) = random_problem(&mut rng, n_rows, n_cols);
            let ids: Vec<u32> = if n_rows == 0 {
                Vec::new()
            } else {
                (0..rng.index(2 * n_rows + 1)).map(|_| rng.index(n_rows) as u32).collect()
            };
            let indices: Option<&[u32]> = match subset {
                0 => None,
                1 => Some(&[]),
                _ => Some(&ids),
            };
            let cfg = LogRegConfig { lr, epochs, l2: if l2_on { l2 } else { 0.0 }, fit_intercept };
            let packed = LogisticRegression::new(cfg.clone()).fit(&x, &targets, indices, seed);
            let walked = fit_csr_walk(&cfg, &x, &targets, indices, seed);
            let bits =
                |m: &FittedLogReg| m.weights().iter().map(|w| w.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&packed), bits(&walked));
            prop_assert_eq!(packed.bias().to_bits(), walked.bias().to_bits());
        }
    }
}
