//! ImplyLoss-L: learning from rules generalizing labeled exemplars,
//! Awasthi et al. \[3\], with linear networks (the paper's "-L" variant,
//! Sec. 5.2 footnote 2).
//!
//! ImplyLoss consumes exactly the information Nemo's contextualizer does —
//! the (rule, exemplar) lineage — but through a dedicated joint objective
//! instead of coverage refinement:
//!
//! - a **classification network** `P_θ(y|x)` (here: linear logistic);
//! - per-rule **restriction networks** `g_j(x) ∈ [0,1]` (linear logistic)
//!   estimating where rule `j` should apply;
//! - the loss couples them:
//!
//! ```text
//! L(θ, φ) = Σ_j CE(P_θ(·|x_{e_j}), y_j)            (exemplar supervision)
//!         + Σ_j −log g_j(x_{e_j})                   (rules fire on their exemplar)
//!         + Σ_j Σ_{x ∈ cov(j)} −log(1 − g_j(x)·(1 − P_θ(y_j|x)))   (imply loss)
//! ```
//!
//! The imply term reads: if `g_j` believes the rule applies to `x`, the
//! classifier must assign the rule's label. Trained jointly with SGD;
//! predictions come from `P_θ`.

use nemo_core::config::IdpConfig;
use nemo_core::idp::ModelOutputs;
use nemo_core::pipeline::LearningPipeline;
use nemo_data::Dataset;
use nemo_labelmodel::Posterior;
use nemo_lf::{LabelMatrix, Lineage};
use nemo_sparse::stats::sigmoid;
use nemo_sparse::{CsrMatrix, DetRng};

/// Hyperparameters of the ImplyLoss-L trainer.
#[derive(Debug, Clone)]
pub struct ImplyLossConfig {
    /// SGD learning rate.
    pub lr: f64,
    /// Training epochs per IDP iteration.
    pub epochs: usize,
    /// Weight of the imply term relative to the exemplar terms.
    pub gamma: f64,
}

impl Default for ImplyLossConfig {
    fn default() -> Self {
        Self { lr: 0.3, epochs: 12, gamma: 0.3 }
    }
}

/// The ImplyLoss-L learning pipeline (a [`LearningPipeline`], so it runs
/// in the same IDP loop as every other method; the paper couples it with
/// random selection).
#[derive(Debug, Clone, Default)]
pub struct ImplyLossPipeline {
    /// Trainer hyperparameters.
    pub config: ImplyLossConfig,
}

struct Nets {
    /// Classifier weights + bias.
    w: Vec<f32>,
    b: f64,
    /// Per-rule restriction weights + biases (row-major `m × d`).
    u: Vec<f32>,
    c: Vec<f64>,
    dim: usize,
}

impl Nets {
    fn new(dim: usize, m: usize) -> Self {
        Self { w: vec![0.0; dim], b: 0.0, u: vec![0.0; dim * m], c: vec![0.0; m], dim }
    }

    fn class_prob_pos(&self, x: &CsrMatrix, i: usize) -> f64 {
        sigmoid(x.row(i).dot_dense(&self.w) + self.b)
    }

    #[cfg_attr(not(test), allow(dead_code))]
    fn rule_gate(&self, j: usize, x: &CsrMatrix, i: usize) -> f64 {
        let u_j = &self.u[j * self.dim..(j + 1) * self.dim];
        sigmoid(x.row(i).dot_dense(u_j) + self.c[j])
    }
}

impl ImplyLossPipeline {
    fn train(&self, lineage: &Lineage, ds: &Dataset, seed: u64) -> Nets {
        let x = ds.train.features.csr();
        let m = lineage.len();
        let mut nets = Nets::new(x.n_cols(), m);
        if m == 0 {
            return nets;
        }
        let cfg = &self.config;
        let tracked = lineage.tracked();
        // Work list: (rule j, example i, is_exemplar).
        let mut work: Vec<(usize, u32, bool)> = Vec::new();
        for (j, rec) in tracked.iter().enumerate() {
            work.push((j, rec.dev_example, true));
            for &i in rec.lf.coverage(&ds.train.corpus) {
                if i != rec.dev_example {
                    work.push((j, i, false));
                }
            }
        }
        let mut rng = DetRng::new(seed ^ 0x1417_1055);
        for _ in 0..cfg.epochs {
            rng.shuffle(&mut work);
            for &(j, i, is_exemplar) in &work {
                let i = i as usize;
                let row = x.row(i);
                let y_sign = tracked[j].lf.y.sign() as f64;
                let z = row.dot_dense(&nets.w) + nets.b;
                // q = P_θ(y_j | x) under the rule's label.
                let q = sigmoid(y_sign * z);
                let u_j = &nets.u[j * nets.dim..(j + 1) * nets.dim];
                let h = row.dot_dense(u_j) + nets.c[j];
                let g = sigmoid(h);

                let (dq, dg) = if is_exemplar {
                    // CE(P_θ, y_j) = −log q → dℓ/dq = −1/q;
                    // −log g_j(x_e) → dℓ/dg = −1/g.
                    (-1.0 / q.max(1e-6), -1.0 / g.max(1e-6))
                } else {
                    // Imply loss: ℓ = −log(1 − g(1−q)).
                    let denom = (1.0 - g * (1.0 - q)).max(1e-6);
                    (cfg.gamma * (-g / denom), cfg.gamma * ((1.0 - q) / denom))
                };
                // Chain rules: dq/dz = y_sign·q(1−q); dg/dh = g(1−g).
                let dz = dq * y_sign * q * (1.0 - q);
                let dh = dg * g * (1.0 - g);

                let step_w = (cfg.lr * dz) as f32;
                for (&col, &v) in row.indices.iter().zip(row.values) {
                    nets.w[col as usize] -= step_w * v;
                }
                nets.b -= cfg.lr * dz;
                let step_u = (cfg.lr * dh) as f32;
                let u_j = &mut nets.u[j * nets.dim..(j + 1) * nets.dim];
                for (&col, &v) in row.indices.iter().zip(row.values) {
                    u_j[col as usize] -= step_u * v;
                }
                nets.c[j] -= cfg.lr * dh;
            }
        }
        // Post-hoc intercept calibration. Every imply/exemplar update
        // pushes the bias toward the label of the rule being visited, so
        // with imbalanced rule labels the bias absorbs the imbalance and
        // the classifier predicts a single class on the (uncovered)
        // majority of the pool. Re-center the intercept so the mean
        // predicted probability over the training pool matches the
        // dataset's class prior (which the paper's protocol treats as
        // known; cf. `Dataset::prior`).
        nets.b += calibrate_intercept(x, &nets, ds.class_prior_pos);
        nets
    }
}

/// Solve the intercept shift `δ` with `mean_i sigmoid(z_i + δ) = target`
/// by bisection (the mean is monotone in `δ`; Newton diverges when the
/// sigmoids saturate).
fn calibrate_intercept(x: &CsrMatrix, nets: &Nets, target: f64) -> f64 {
    let z: Vec<f64> = (0..x.n_rows()).map(|i| x.row(i).dot_dense(&nets.w) + nets.b).collect();
    if z.is_empty() {
        return 0.0;
    }
    let n = z.len() as f64;
    let mean_prob = |delta: f64| z.iter().map(|&zi| sigmoid(zi + delta)).sum::<f64>() / n;
    let (mut lo, mut hi) = (-30.0, 30.0);
    if mean_prob(lo) > target || mean_prob(hi) < target {
        return 0.0;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if mean_prob(mid) < target {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

impl LearningPipeline for ImplyLossPipeline {
    fn name(&self) -> &'static str {
        "implyloss-l"
    }

    fn learn(
        &mut self,
        lineage: &Lineage,
        _raw_matrix: &LabelMatrix,
        ds: &Dataset,
        _config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs {
        if lineage.is_empty() {
            return ModelOutputs::initial(ds);
        }
        let nets = self.train(lineage, ds, iter_seed);
        let probs = |csr: &CsrMatrix| -> Vec<f64> {
            (0..csr.n_rows()).map(|i| nets.class_prob_pos(csr, i)).collect()
        };
        let train_probs = probs(ds.train.features.csr());
        let valid_probs = probs(ds.valid.features.csr());
        let test_probs = probs(ds.test.features.csr());
        let (valid_pred, test_pred) =
            nemo_core::pipeline::hard_predictions(&valid_probs, &test_probs, ds);
        ModelOutputs {
            train_posterior: Posterior::new(train_probs.clone()),
            train_probs,
            valid_pred,
            test_pred,
            chosen_p: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_core::engines::ExampleEngine;
    use nemo_core::idp::{run_curve, LearningCurve, RandomSelector};
    use nemo_core::oracle::SimulatedUser;
    use nemo_core::session::Session;
    use nemo_data::catalog::toy_text;

    /// ImplyLoss-L's parts (random selection, the oracle user, ImplyLoss
    /// learning) run for `config`'s budget.
    fn run(ds: &Dataset, config: IdpConfig) -> (Session<'_>, LearningCurve) {
        let mut session = Session::new(ds, config);
        let curve = run_curve(
            &mut session,
            &mut ExampleEngine::new(RandomSelector),
            &mut SimulatedUser::default(),
            &mut ImplyLossPipeline::default(),
        );
        (session, curve)
    }

    #[test]
    fn empty_lineage_gives_prior() {
        let ds = toy_text(1);
        let mut p = ImplyLossPipeline::default();
        let out = p.learn(
            &Lineage::new(),
            &LabelMatrix::new(ds.train.n()),
            &ds,
            &IdpConfig::default(),
            0,
        );
        assert!((out.train_probs[0] - ds.class_prior_pos).abs() < 1e-9);
    }

    #[test]
    fn learns_on_toy_task() {
        let ds = toy_text(1);
        let config = IdpConfig { n_iterations: 12, eval_every: 4, seed: 5, ..Default::default() };
        let (_, curve) = run(&ds, config);
        assert!(curve.final_score() > 0.52, "score {}", curve.final_score());
    }

    #[test]
    fn rule_gate_fires_on_exemplar() {
        let ds = toy_text(1);
        let config = IdpConfig { n_iterations: 6, eval_every: 6, seed: 6, ..Default::default() };
        let (session, _) = run(&ds, config);
        // Retrain directly to inspect the gates. The imply term closes
        // gates wherever the classifier disagrees with the rule, so the
        // meaningful invariant is *relative*: a rule's gate at its own
        // exemplar must exceed its average gate over the rest of its
        // coverage.
        let pipeline = ImplyLossPipeline::default();
        let nets = pipeline.train(session.lineage(), &ds, 1);
        let x = ds.train.features.csr();
        let mut wins = 0;
        let mut total = 0;
        let tracked = session.lineage().tracked();
        for (j, rec) in tracked.iter().enumerate() {
            let cov = rec.lf.coverage(&ds.train.corpus);
            if cov.len() < 3 {
                continue;
            }
            let at_exemplar = nets.rule_gate(j, x, rec.dev_example as usize);
            let mean_cov: f64 = cov
                .iter()
                .filter(|&&i| i != rec.dev_example)
                .map(|&i| nets.rule_gate(j, x, i as usize))
                .sum::<f64>()
                / (cov.len() - 1) as f64;
            total += 1;
            if at_exemplar > mean_cov {
                wins += 1;
            }
        }
        assert!(total > 0);
        assert!(wins * 2 >= total, "gates should favor their exemplars ({wins}/{total})");
    }

    #[test]
    fn deterministic() {
        let ds = toy_text(1);
        let points = |seed| {
            let config = IdpConfig { n_iterations: 5, eval_every: 5, seed, ..Default::default() };
            run(&ds, config).1.points().to_vec()
        };
        assert_eq!(points(3), points(3));
    }
}
