//! Active WeaSuL: active learning to improve weak supervision,
//! Biegel et al. \[5\].
//!
//! The method assumes a *fixed* set of LFs and spends its query budget on
//! ground-truth labels that help the label model denoise them. Following
//! the paper's setup (Sec. 5.2): the first 10 iterations run Snorkel
//! (random selection + simulated user) to collect the LF set; every later
//! iteration queries the true label of one training example and anchors
//! it in the aggregation. Selection uses the maximum-divergence criterion
//! restricted to covered examples (for a binary anchored posterior this
//! reduces to maximum label-model entropy — the anchor moves the
//! posterior to a point mass, so the KL gain *is* the entropy).

use nemo_core::config::IdpConfig;
use nemo_core::idp::LearningCurve;
use nemo_core::oracle::{SimulatedUser, User};
use nemo_data::Dataset;
use nemo_endmodel::LogisticRegression;
use nemo_lf::{label_from_prob, Label, LabelMatrix, LfColumn};
use nemo_sparse::stats::argmax_set;
use nemo_sparse::DetRng;

/// The Active WeaSuL baseline runner.
#[derive(Debug, Clone)]
pub struct ActiveWeasul {
    /// Iterations spent collecting LFs before switching to label queries
    /// (paper: 10).
    pub warmup_iterations: usize,
    /// Simulated user that writes the warmup LFs.
    pub user: SimulatedUser,
}

impl Default for ActiveWeasul {
    fn default() -> Self {
        Self { warmup_iterations: 10, user: SimulatedUser::default() }
    }
}

impl ActiveWeasul {
    /// Run under the shared protocol.
    pub(crate) fn run(&self, ds: &Dataset, config: &IdpConfig) -> LearningCurve {
        let mut rng = DetRng::new(config.seed ^ 0xa077_e50e);
        let mut user = self.user.clone();
        let mut matrix = LabelMatrix::new(ds.train.n());
        let mut excluded = vec![false; ds.train.n()];
        let mut anchors: Vec<(u32, Label)> = Vec::new();
        let mut curve = LearningCurve::default();

        for t in 0..config.n_iterations {
            let avail: Vec<usize> = (0..ds.train.n()).filter(|&i| !excluded[i]).collect();
            if !avail.is_empty() {
                if t < self.warmup_iterations {
                    // Snorkel warmup: random dev example → user LF.
                    let x = avail[rng.index(avail.len())];
                    excluded[x] = true;
                    if let Some(lf) = user.provide_lf(x, ds, &mut rng) {
                        matrix.push(LfColumn::from_lf(&lf, &ds.train.corpus));
                    }
                } else {
                    // Label query: maximum anchored-KL gain == label-model
                    // entropy over covered, unanchored examples.
                    let posterior = self.posterior(ds, config, &matrix, &anchors);
                    let summaries = matrix.vote_summaries();
                    let scores: Vec<f64> = avail
                        .iter()
                        .map(|&i| {
                            if summaries[i].total() > 0 {
                                posterior[i].1
                            } else {
                                f64::NEG_INFINITY
                            }
                        })
                        .collect();
                    let pick = if scores.iter().all(|s| s.is_infinite()) {
                        avail[rng.index(avail.len())]
                    } else {
                        let ties = argmax_set(&scores);
                        avail[ties[rng.index(ties.len())]]
                    };
                    excluded[pick] = true;
                    anchors.push((pick as u32, ds.train.labels[pick]));
                }
            }

            if (t + 1) % config.eval_every == 0 {
                curve.push(t + 1, self.evaluate(ds, config, &matrix, &anchors, t as u64));
            }
        }
        curve
    }

    /// Label-model posterior with anchors applied: `(p_pos, entropy)` per
    /// training example.
    fn posterior(
        &self,
        ds: &Dataset,
        config: &IdpConfig,
        matrix: &LabelMatrix,
        anchors: &[(u32, Label)],
    ) -> Vec<(f64, f64)> {
        let label_model = config.label_model.build();
        let fitted = label_model.fit(matrix, nemo_core::pipeline::UNIFORM_BALANCE);
        let post = fitted.predict(matrix);
        let mut out: Vec<(f64, f64)> =
            (0..ds.train.n()).map(|i| (post.p_pos(i), post.entropy(i))).collect();
        for &(i, y) in anchors {
            out[i as usize] = (if y == Label::Pos { 1.0 } else { 0.0 }, 0.0);
        }
        out
    }

    fn evaluate(
        &self,
        ds: &Dataset,
        config: &IdpConfig,
        matrix: &LabelMatrix,
        anchors: &[(u32, Label)],
        salt: u64,
    ) -> f64 {
        let posterior = self.posterior(ds, config, matrix, anchors);
        let summaries = matrix.vote_summaries();
        let mut targets: Vec<f64> = posterior.iter().map(|&(p, _)| p).collect();
        let mut train_idx: Vec<u32> = summaries
            .iter()
            .enumerate()
            .filter(|(_, s)| s.total() > 0)
            .map(|(i, _)| i as u32)
            .collect();
        // Anchored points always train the end model with their true label.
        for &(i, y) in anchors {
            targets[i as usize] = if y == Label::Pos { 1.0 } else { 0.0 };
            if summaries[i as usize].total() == 0 {
                train_idx.push(i);
            }
        }
        if train_idx.is_empty() {
            let prior_pred = vec![label_from_prob(ds.class_prior_pos); ds.test.n()];
            return ds.metric.score(&prior_pred, &ds.test.labels);
        }
        train_idx.sort_unstable();
        train_idx.dedup();
        let end = LogisticRegression::new(config.end_model.clone()).fit(
            ds.train.features.csr(),
            &targets,
            Some(&train_idx),
            config.seed.wrapping_add(salt),
        );
        let valid_probs = end.predict_proba(ds.valid.features.csr());
        let test_probs = end.predict_proba(ds.test.features.csr());
        let (_, pred) = nemo_core::pipeline::hard_predictions(&valid_probs, &test_probs, ds);
        ds.metric.score(&pred, &ds.test.labels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_data::catalog::toy_text;

    #[test]
    fn runs_and_learns_on_toy() {
        let ds = toy_text(1);
        let config = IdpConfig { n_iterations: 20, eval_every: 10, seed: 1, ..Default::default() };
        let curve = ActiveWeasul::default().run(&ds, &config);
        assert_eq!(curve.points().len(), 2);
        assert!(curve.final_score() > 0.5, "final {}", curve.final_score());
    }

    #[test]
    fn deterministic() {
        let ds = toy_text(1);
        let config = IdpConfig { n_iterations: 14, eval_every: 7, seed: 4, ..Default::default() };
        let c1 = ActiveWeasul::default().run(&ds, &config);
        let c2 = ActiveWeasul::default().run(&ds, &config);
        assert_eq!(c1.points(), c2.points());
    }

    #[test]
    fn anchors_override_posterior() {
        let ds = toy_text(1);
        let config = IdpConfig::default();
        let aw = ActiveWeasul::default();
        let matrix = LabelMatrix::new(ds.train.n());
        let anchors = vec![(3u32, Label::Pos), (4u32, Label::Neg)];
        let post = aw.posterior(&ds, &config, &matrix, &anchors);
        assert_eq!(post[3], (1.0, 0.0));
        assert_eq!(post[4], (0.0, 0.0));
    }
}
