//! Generative label model fit by expectation-maximization.
//!
//! The model class is the binary specialization of MeTaL \[30\] (and of the
//! original data-programming generative model \[29\]): conditionally on the
//! true label `y`, LFs vote independently; LF `j` has accuracy
//! `a_j = P(λ_j(x) = y | λ_j(x) ≠ 0)` and a label-independent abstain
//! propensity (which cancels in the posterior and therefore needs no
//! parameter). The class balance is taken from the supplied prior (the
//! paper estimates it from the validation split).
//!
//! EM alternates the textbook Dawid–Skene steps:
//! - **E-step**: posteriors `q_i(y) ∝ Π_{j: L_ij≠0} a_j^{1[L_ij=y]}
//!   (1−a_j)^{1[L_ij≠y]}` — the naive-Bayes aggregation.
//! - **M-step**: `a_j ← (Σ_{i∈cov(j)} q_i(L_ij) + s·a₀) / (|cov(j)| + s)`
//!   with pseudo-count anchoring toward the init accuracy `a₀`.
//!
//! Two deliberate deviations from the naive transcription, both load-
//! bearing (see `self_feedback_regression` below for the failure they
//! prevent):
//!
//! 1. **The E-step inside EM uses a symmetric class prior**; the true
//!    class prior enters only the *final* aggregation. On an example
//!    covered by a single LF, the self-consistent posterior equals the
//!    LF's own accuracy estimate — with an asymmetric prior folded in, a
//!    constant bias term accumulates across EM iterations and drifts the
//!    estimate monotonically until the LF's votes silently *flip*.
//!    Accuracy is a prior-free quantity; estimating it under a symmetric
//!    prior removes the drift while leaving the genuine agreement signal
//!    intact.
//! 2. **Anchored smoothing**: the M-step shrinks toward `a₀` (not toward
//!    0.5), so LFs with little or no overlap evidence keep a sensible
//!    better-than-random weight — the role of MeTaL's regularizer.

use crate::traits::{FittedLabelModel, LabelModel, NaiveBayesFit};
use crate::triplet::PairCounts;
use nemo_lf::LabelMatrix;
use nemo_sparse::stats::sigmoid;

/// EM-fitted generative label model (MeTaL's model class).
///
/// # Degenerate inputs
///
/// The M-step for LF `j` is
/// `(expected correct votes + s·a₀) / (|cov(j)| + s)`, with
/// `a₀ =` [`GenerativeModel::init_accuracy`] and
/// `s =` [`GenerativeModel::smoothing`], so the anchor decides wherever
/// the votes carry no evidence:
///
/// - **0 examples** and **all-abstain columns**: no coverage, so every
///   accuracy is `a₀` (0.7 by default, up to one rounding);
/// - **a single LF** and LFs whose pairs have **zero overlap**: each
///   covered example's posterior is that LF's own accuracy, which makes
///   `a₀` a fixed point, so the accuracy stays `a₀`;
/// - **duplicated LFs** reinforce one another and rise above `a₀` (0.819
///   for four copies of one 8-vote column), held below 1 by the anchor;
/// - **LF pairs voting opposite classes everywhere** leave every covered
///   example at posterior 0.5 under EM's symmetric prior, so each accuracy
///   becomes `(|cov|/2 + s·a₀) / (|cov| + s)` (0.6 on 12 examples).
///
/// Accuracies are clamped to [`NaiveBayesFit::ACC_CLAMP`] before
/// aggregation, so posteriors are finite in every case; uncovered
/// examples get the class prior.
#[derive(Debug, Clone)]
pub struct GenerativeModel {
    /// Iteration cap. Sized so EM normally stops on `tol` (the session
    /// matrices converge in ~60 iterations), not on the cap: warm starts
    /// resume from the previous *fixed point*, and a cap-truncated fit
    /// would make warm and cold runs converge to measurably different
    /// parameters instead of agreeing within `tol`.
    pub n_iters: usize,
    /// Accuracy initialization and anchor (the value LFs keep when they
    /// have no cross-LF overlap evidence).
    pub init_accuracy: f64,
    /// Pseudo-count strength of the anchor in the M-step. Plays the role
    /// of MeTaL's regularization toward the prior accuracy: with few LFs
    /// the pairwise-overlap evidence is a handful of noisy entries, and an
    /// unanchored M-step collapses all accuracies toward 0.5; the anchor
    /// keeps estimates near `init_accuracy` until genuine agreement
    /// evidence accumulates (overlap counts ≫ `smoothing`).
    pub smoothing: f64,
    /// Early-stop threshold on the max accuracy change per iteration.
    /// Tight enough that a warm-started fit lands within ~1e-9 of the
    /// cold fixed point — far below any score gap selection could turn
    /// on — at the cost of a few dozen extra cold iterations.
    pub tol: f64,
    /// Aitken Δ² acceleration: every third EM step, extrapolate each
    /// accuracy along its geometric tail (`a* = a₂ − Δ₂²/(Δ₂ − Δ₁)`,
    /// safeguarded by a step cap and the admissible-accuracy clamp).
    /// EM's per-coordinate convergence here is linear with a rate near 1
    /// on weakly-covered matrices, so the tail dominates the iteration
    /// count; extrapolating it roughly halves the iterations to the
    /// *same* fixed point (plain and accelerated fits agree within `tol`
    /// — differential-tested). `false` restores the plain
    /// fixed-point iteration, the pre-acceleration reference.
    pub accel: bool,
}

impl Default for GenerativeModel {
    fn default() -> Self {
        Self { n_iters: 400, init_accuracy: 0.7, smoothing: 12.0, tol: 1e-10, accel: true }
    }
}

impl GenerativeModel {
    /// Run EM to convergence, optionally seeded from previously fitted
    /// accuracies, returning the fitted aggregator and the number of EM
    /// iterations actually performed (the early-stop makes this the
    /// quantity warm-starting saves).
    ///
    /// `warm_acc[j]` seeds LF `j`; LFs beyond `warm_acc.len()` start at
    /// [`GenerativeModel::init_accuracy`] (exactly right when a matrix
    /// gained LFs since the seed was fitted), and extra seed entries are
    /// ignored. A seed at EM's fixed point converges in one iteration;
    /// any seed reaches the same fixed point as a cold start within the
    /// early-stop tolerance `tol` — tolerance-level, not bitwise,
    /// equality (differential-tested in
    /// `tests/incremental_differential.rs`).
    pub fn fit_em(
        &self,
        matrix: &LabelMatrix,
        prior: [f64; 2],
        warm_acc: Option<&[f64]>,
    ) -> (NaiveBayesFit, usize) {
        let m = matrix.n_lfs();
        let mut acc = vec![self.init_accuracy; m];
        if let Some(seed) = warm_acc {
            for (a, &s) in acc.iter_mut().zip(seed) {
                *a = s;
            }
        }
        if m == 0 {
            return (NaiveBayesFit::new(acc, prior), 0);
        }
        let (clamp_lo, clamp_hi) = NaiveBayesFit::ACC_CLAMP;
        let mut iters = 0;
        // Last two plain-EM iterates, for the Aitken Δ² cycle.
        let mut history: Vec<Vec<f64>> = Vec::new();
        for _ in 0..self.n_iters {
            iters += 1;
            // E-step under a *symmetric* prior (see module docs, point 1).
            let log_odds: Vec<f64> = acc
                .iter()
                .map(|&a| {
                    let a = a.clamp(clamp_lo, clamp_hi);
                    (a / (1.0 - a)).ln()
                })
                .collect();
            let mut logits = vec![0.0f64; matrix.n_examples()];
            for (j, col) in matrix.columns().enumerate() {
                for &(i, v) in col.entries() {
                    logits[i as usize] += v as f64 * log_odds[j];
                }
            }
            // M-step: expected correctness over the coverage, anchored at
            // the init accuracy.
            let mut max_delta = 0.0f64;
            for (j, col) in matrix.columns().enumerate() {
                let mut expected_correct = 0.0;
                for &(i, v) in col.entries() {
                    let p_pos = sigmoid(logits[i as usize]);
                    expected_correct += if v > 0 { p_pos } else { 1.0 - p_pos };
                }
                let n_cov = col.coverage() as f64;
                let new_acc = (expected_correct + self.smoothing * self.init_accuracy)
                    / (n_cov + self.smoothing);
                max_delta = max_delta.max((new_acc - acc[j]).abs());
                acc[j] = new_acc;
            }
            if max_delta < self.tol {
                break;
            }
            if self.accel {
                // Aitken Δ²: with iterates a₀ → a₁ → a₂ on a linearly
                // convergent tail, `a₂ − Δ₂²/(Δ₂ − Δ₁)` jumps to the
                // tail's limit. Safeguards: skip degenerate denominators,
                // cap the extrapolation at 10× the last step (a wild jump
                // means the tail isn't geometric yet), and clamp into the
                // admissible accuracy range. Convergence is still judged
                // on the plain-step delta above, so a bad extrapolation
                // can slow the fit but never terminate it early.
                history.push(acc.clone());
                if history.len() == 3 {
                    for j in 0..m {
                        let d1 = history[1][j] - history[0][j];
                        let d2 = history[2][j] - history[1][j];
                        let denom = d2 - d1;
                        if denom.abs() > 1e-14 {
                            let step = -d2 * d2 / denom;
                            if step.abs() <= 10.0 * d2.abs() {
                                acc[j] = (history[2][j] + step).clamp(clamp_lo, clamp_hi);
                            }
                        }
                    }
                    history.clear();
                }
            }
        }
        // The true class prior enters only the final aggregation.
        (NaiveBayesFit::new(acc, prior), iters)
    }
}

impl LabelModel for GenerativeModel {
    fn name(&self) -> &'static str {
        "generative-em"
    }

    fn fit(&self, matrix: &LabelMatrix, prior: [f64; 2]) -> Box<dyn FittedLabelModel> {
        Box::new(self.fit_em(matrix, prior, None).0)
    }

    fn fit_from(
        &self,
        matrix: &LabelMatrix,
        prior: [f64; 2],
        warm_acc: Option<&[f64]>,
        _counts: &mut PairCounts,
    ) -> Box<dyn FittedLabelModel> {
        Box::new(self.fit_em(matrix, prior, warm_acc).0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_lf::{Label, LfColumn};
    use nemo_sparse::DetRng;

    /// Plant a label matrix: `n` examples with random labels; each LF has a
    /// target accuracy and coverage rate. Returns (matrix, true labels,
    /// planted accuracies).
    fn planted(
        n: usize,
        specs: &[(f64, f64)], // (accuracy, coverage)
        seed: u64,
    ) -> (LabelMatrix, Vec<Label>, Vec<f64>) {
        let mut rng = DetRng::new(seed);
        let labels: Vec<Label> = (0..n).map(|_| Label::from_bool(rng.bernoulli(0.5))).collect();
        let mut matrix = LabelMatrix::new(n);
        for &(acc, cov) in specs {
            let mut entries = Vec::new();
            for (i, &y) in labels.iter().enumerate() {
                if rng.bernoulli(cov) {
                    let vote = if rng.bernoulli(acc) { y.sign() } else { y.flip().sign() };
                    entries.push((i as u32, vote));
                }
            }
            matrix.push(LfColumn::new(entries));
        }
        (matrix, labels, specs.iter().map(|&(a, _)| a).collect())
    }

    #[test]
    fn recovers_planted_accuracies() {
        let (matrix, _, truth) =
            planted(4000, &[(0.9, 0.3), (0.7, 0.3), (0.55, 0.3), (0.85, 0.2)], 1);
        let fitted = GenerativeModel::default().fit(&matrix, [0.5, 0.5]);
        for (est, want) in fitted.lf_accuracies().iter().zip(&truth) {
            assert!((est - want).abs() < 0.06, "estimated {est:.3} for planted {want:.3}");
        }
    }

    #[test]
    fn aggregation_beats_average_lf_on_covered() {
        let (matrix, labels, _) = planted(3000, &[(0.8, 0.5), (0.75, 0.5), (0.7, 0.5)], 2);
        let fitted = GenerativeModel::default().fit(&matrix, [0.5, 0.5]);
        let post = fitted.predict(&matrix);
        let pred = post.hard_labels();
        let summaries = matrix.vote_summaries();
        let (mut correct, mut covered) = (0usize, 0usize);
        for i in 0..labels.len() {
            if summaries[i].total() > 0 {
                covered += 1;
                if pred[i] == labels[i] {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / covered as f64;
        // Mean LF accuracy is 0.75; aggregation should beat it on the
        // covered region (multiply-covered examples get denoised).
        assert!(acc > 0.76, "covered aggregated accuracy {acc}");
    }

    #[test]
    fn em_orders_lfs_by_quality() {
        // Accuracy ordering is identifiable from three mutually
        // overlapping LFs (it is not from two — pairwise agreement is
        // symmetric, exactly FlyingSquid's triplet-identifiability fact).
        let (matrix, _, _) = planted(5000, &[(0.9, 0.4), (0.6, 0.4), (0.8, 0.4)], 3);
        let fitted = GenerativeModel::default().fit(&matrix, [0.5, 0.5]);
        let accs = fitted.lf_accuracies();
        assert!(accs[0] > accs[2] && accs[2] > accs[1], "accs {accs:?}");
    }

    #[test]
    fn empty_matrix_returns_prior_model() {
        let matrix = LabelMatrix::new(10);
        let fitted = GenerativeModel::default().fit(&matrix, [0.3, 0.7]);
        let post = fitted.predict(&matrix);
        assert!((post.p_pos(0) - 0.7).abs() < 1e-9);
    }

    #[test]
    fn single_lf_keeps_anchor_accuracy() {
        // With one LF there is no cross-LF evidence at all; the estimate
        // must stay exactly at the anchor rather than drift.
        let (matrix, _, _) = planted(1000, &[(0.9, 0.5)], 4);
        let model = GenerativeModel::default();
        let fitted = model.fit(&matrix, [0.5, 0.5]);
        let a = fitted.lf_accuracies()[0];
        assert!((a - model.init_accuracy).abs() < 1e-9, "single-LF accuracy {a}");
    }

    #[test]
    fn self_feedback_regression() {
        // Regression test for the drift pathology: two (nearly) disjoint
        // LFs, one per class, under an asymmetric class prior. A naive
        // M-step that feeds an LF's own vote into its accuracy estimate
        // drifts the positive LF's accuracy below 0.5, silently flipping
        // its votes. The leave-one-out M-step keeps both anchored.
        let mut rng = DetRng::new(99);
        let labels: Vec<Label> = (0..800).map(|_| Label::from_bool(rng.bernoulli(0.49))).collect();
        let mut matrix = LabelMatrix::new(800);
        let mut pos_entries = Vec::new();
        let mut neg_entries = Vec::new();
        for (i, &y) in labels.iter().enumerate() {
            // Disjoint coverage: evens → LF0 (votes Pos), odds → LF1 (Neg).
            if i % 2 == 0 && rng.bernoulli(0.2) {
                let v = if rng.bernoulli(0.85) { y.sign() } else { y.flip().sign() };
                if v != 0 {
                    pos_entries.push((i as u32, v));
                }
            } else if i % 2 == 1 && rng.bernoulli(0.2) {
                let v = if rng.bernoulli(0.85) { y.sign() } else { y.flip().sign() };
                neg_entries.push((i as u32, v));
            }
        }
        matrix.push(LfColumn::new(pos_entries));
        matrix.push(LfColumn::new(neg_entries));
        let fitted = GenerativeModel::default().fit(&matrix, [0.513, 0.487]);
        for &a in fitted.lf_accuracies() {
            assert!(a > 0.5, "disjoint LF drifted to {a} (vote-flip pathology)");
        }
    }

    #[test]
    fn warm_start_from_fixed_point_converges_immediately() {
        // Uncap the iteration budget so the cold fit genuinely reaches
        // its fixed point (the default cap of 50 can stop short, in which
        // case a "warm" restart simply resumes the climb).
        let (matrix, _, _) = planted(3000, &[(0.85, 0.4), (0.7, 0.4), (0.6, 0.3)], 7);
        let model = GenerativeModel { n_iters: 5000, ..Default::default() };
        let (cold, cold_iters) = model.fit_em(&matrix, [0.5, 0.5], None);
        assert!(cold_iters < 5000, "cold fit never converged");
        let (warm, warm_iters) = model.fit_em(&matrix, [0.5, 0.5], Some(cold.lf_accuracies()));
        assert!(warm_iters <= 3, "re-fit from the fixed point took {warm_iters} EM iterations");
        assert!(warm_iters < cold_iters, "warm {warm_iters} vs cold {cold_iters}");
        for (w, c) in warm.lf_accuracies().iter().zip(cold.lf_accuracies()) {
            assert!((w - c).abs() < 1e-4, "warm {w} vs cold {c}");
        }
    }

    #[test]
    fn warm_seed_shorter_than_matrix_pads_with_init() {
        // Seeding with fewer accuracies than LFs (a matrix that gained an
        // LF since the seed was fitted) must not panic and must fit all
        // LFs; a seed longer than the matrix is truncated.
        let (matrix, _, _) = planted(1500, &[(0.85, 0.4), (0.7, 0.4), (0.6, 0.3)], 8);
        let model = GenerativeModel::default();
        for seed_len in [0usize, 1, 2, 5] {
            let seed = vec![0.8; seed_len];
            let (fit, _) = model.fit_em(&matrix, [0.5, 0.5], Some(&seed));
            assert_eq!(fit.lf_accuracies().len(), 3);
        }
    }

    #[test]
    fn accelerated_and_plain_em_share_the_fixed_point() {
        let (matrix, _, _) = planted(2500, &[(0.85, 0.4), (0.7, 0.3), (0.6, 0.3)], 11);
        let accel = GenerativeModel::default();
        let plain = GenerativeModel { accel: false, n_iters: 5000, ..Default::default() };
        let (fa, ia) = accel.fit_em(&matrix, [0.5, 0.5], None);
        let (fp, ip) = plain.fit_em(&matrix, [0.5, 0.5], None);
        assert!(ia < ip, "acceleration did not reduce iterations ({ia} vs {ip})");
        for (a, p) in fa.lf_accuracies().iter().zip(fp.lf_accuracies()) {
            assert!((a - p).abs() < 1e-6, "accelerated {a} vs plain {p}");
        }
    }

    #[test]
    fn fit_from_matches_fit_without_seed() {
        let (matrix, _, _) = planted(2000, &[(0.8, 0.3), (0.7, 0.3)], 9);
        let model = GenerativeModel::default();
        let plain = model.fit(&matrix, [0.5, 0.5]);
        let seeded_none = model.fit_from(&matrix, [0.5, 0.5], None, &mut PairCounts::default());
        assert_eq!(plain.lf_accuracies(), seeded_none.lf_accuracies());
    }

    #[test]
    fn deterministic_fit() {
        let (matrix, _, _) = planted(2000, &[(0.8, 0.3), (0.7, 0.3)], 5);
        let f1 = GenerativeModel::default().fit(&matrix, [0.5, 0.5]);
        let f2 = GenerativeModel::default().fit(&matrix, [0.5, 0.5]);
        assert_eq!(f1.lf_accuracies(), f2.lf_accuracies());
    }

    #[test]
    fn adversarial_lf_downweighted() {
        // An LF with accuracy ~0.2 (systematically wrong) should end up
        // with estimated accuracy < 0.5 so its votes get *flipped* by the
        // aggregation — the denoising the generative model exists for.
        let (matrix, labels, _) = planted(4000, &[(0.85, 0.4), (0.8, 0.4), (0.2, 0.4)], 6);
        let fitted = GenerativeModel::default().fit(&matrix, [0.5, 0.5]);
        assert!(fitted.lf_accuracies()[2] < 0.5);
        // With the adversarial LF's votes flipped by the learned weight,
        // covered-region accuracy should stay high.
        let post = fitted.predict(&matrix);
        let pred = post.hard_labels();
        let summaries = matrix.vote_summaries();
        let (mut correct, mut covered) = (0usize, 0usize);
        for i in 0..labels.len() {
            if summaries[i].total() > 0 {
                covered += 1;
                if pred[i] == labels[i] {
                    correct += 1;
                }
            }
        }
        let acc = correct as f64 / covered as f64;
        assert!(acc > 0.75, "covered accuracy with adversarial LF {acc}");
    }
}
