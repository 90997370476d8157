//! Classic active-learning baselines (paper Sec. 5.2, "Other Interactive
//! Schemes"): Uncertainty Sampling \[20\] and BALD \[12, 17\].
//!
//! Unlike the IDP methods, active learning solicits a *single label
//! annotation* per iteration: the oracle reveals the selected example's
//! ground-truth label, and the end model (the same logistic regression
//! all methods use) trains on the labeled set. This is exactly the
//! functional-supervision-vs-label-supervision contrast the paper draws
//! in Sec. 3 ("Connection to Active Learning").

use nemo_core::config::IdpConfig;
use nemo_core::idp::LearningCurve;
use nemo_data::Dataset;
use nemo_endmodel::{bald_scores, BootstrapEnsemble, FittedLogReg, LogisticRegression};
use nemo_lf::Label;
use nemo_sparse::stats::{argmax_set, binary_entropy};
use nemo_sparse::DetRng;

/// An acquisition function over the unlabeled pool.
pub trait Acquisition {
    /// Name for reports.
    fn name(&self) -> &'static str;

    /// Score every training example (higher = more informative). Called
    /// with the current labeled set; implementations fit whatever model
    /// they need internally.
    fn scores(&self, ds: &Dataset, labeled: &[(u32, Label)], seed: u64) -> Vec<f64>;
}

/// Uncertainty sampling: predictive entropy of the current classifier.
#[derive(Debug, Clone, Default)]
pub struct UncertaintyAcquisition;

impl Acquisition for UncertaintyAcquisition {
    fn name(&self) -> &'static str {
        "US"
    }

    fn scores(&self, ds: &Dataset, labeled: &[(u32, Label)], seed: u64) -> Vec<f64> {
        let model = fit_on_labeled(ds, labeled, seed);
        model.predict_proba(ds.train.features.csr()).into_iter().map(binary_entropy).collect()
    }
}

/// BALD: mutual information between the prediction and the (bootstrap-
/// approximated) model posterior.
#[derive(Debug, Clone)]
pub struct BaldAcquisition {
    /// Ensemble size.
    pub n_models: usize,
}

impl Default for BaldAcquisition {
    fn default() -> Self {
        Self { n_models: 8 }
    }
}

impl Acquisition for BaldAcquisition {
    fn name(&self) -> &'static str {
        "BALD"
    }

    fn scores(&self, ds: &Dataset, labeled: &[(u32, Label)], seed: u64) -> Vec<f64> {
        let (targets, idx) = targets_of(ds, labeled);
        let ens = BootstrapEnsemble { n_models: self.n_models, ..Default::default() };
        let members = ens.fit(ds.train.features.csr(), &targets, &idx, seed);
        let probs: Vec<Vec<f64>> =
            members.iter().map(|m| m.predict_proba(ds.train.features.csr())).collect();
        bald_scores(&probs)
    }
}

fn targets_of(ds: &Dataset, labeled: &[(u32, Label)]) -> (Vec<f64>, Vec<u32>) {
    let mut targets = vec![0.5; ds.train.n()];
    let mut idx = Vec::with_capacity(labeled.len());
    for &(i, y) in labeled {
        targets[i as usize] = if y == Label::Pos { 1.0 } else { 0.0 };
        idx.push(i);
    }
    (targets, idx)
}

fn fit_on_labeled(ds: &Dataset, labeled: &[(u32, Label)], seed: u64) -> FittedLogReg {
    let (targets, idx) = targets_of(ds, labeled);
    LogisticRegression::default().fit(ds.train.features.csr(), &targets, Some(&idx), seed)
}

/// The active-learning session runner.
pub struct ActiveLearning<A: Acquisition> {
    /// Acquisition strategy.
    pub acquisition: A,
}

impl<A: Acquisition> ActiveLearning<A> {
    /// Create a runner.
    pub fn new(acquisition: A) -> Self {
        Self { acquisition }
    }

    /// Run the AL loop under the shared protocol: one label query per
    /// iteration (oracle = ground truth), evaluation on the paper cadence.
    pub(crate) fn run(&self, ds: &Dataset, config: &IdpConfig) -> LearningCurve {
        let mut rng = DetRng::new(config.seed ^ 0xac71_4e1e);
        let mut labeled: Vec<(u32, Label)> = Vec::new();
        let mut excluded = vec![false; ds.train.n()];
        let mut curve = LearningCurve::default();
        for t in 0..config.n_iterations {
            let avail: Vec<usize> = (0..ds.train.n()).filter(|&i| !excluded[i]).collect();
            if !avail.is_empty() {
                let pick = if labeled.len() < 2 {
                    // Cold start: random until both classes can exist.
                    avail[rng.index(avail.len())]
                } else {
                    let iter_seed = config.seed.wrapping_add(t as u64 * 101);
                    let all_scores = self.acquisition.scores(ds, &labeled, iter_seed);
                    let scores: Vec<f64> = avail.iter().map(|&i| all_scores[i]).collect();
                    let ties = argmax_set(&scores);
                    avail[ties[rng.index(ties.len())]]
                };
                excluded[pick] = true;
                labeled.push((pick as u32, ds.train.labels[pick]));
            }
            if (t + 1) % config.eval_every == 0 {
                let model = fit_on_labeled(ds, &labeled, config.seed.wrapping_add(t as u64));
                let valid_probs = model.predict_proba(ds.valid.features.csr());
                let test_probs = model.predict_proba(ds.test.features.csr());
                let (_, pred) =
                    nemo_core::pipeline::hard_predictions(&valid_probs, &test_probs, ds);
                curve.push(t + 1, ds.metric.score(&pred, &ds.test.labels));
            }
        }
        curve
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_data::catalog::toy_text;

    fn config(n: usize, seed: u64) -> IdpConfig {
        IdpConfig { n_iterations: n, eval_every: n / 2, seed, ..Default::default() }
    }

    #[test]
    fn us_learns_on_toy() {
        // 30 true labels on the toy task leave substantial per-seed
        // variance; assert the seed-averaged final score beats chance.
        let ds = toy_text(1);
        let mean = (0..5)
            .map(|seed| {
                ActiveLearning::new(UncertaintyAcquisition)
                    .run(&ds, &config(30, seed))
                    .final_score()
            })
            .sum::<f64>()
            / 5.0;
        assert!(mean > 0.5, "US mean final {mean}");
    }

    #[test]
    fn bald_learns_on_toy() {
        let ds = toy_text(1);
        let mean = (0..5)
            .map(|seed| {
                ActiveLearning::new(BaldAcquisition { n_models: 4 })
                    .run(&ds, &config(30, seed))
                    .final_score()
            })
            .sum::<f64>()
            / 5.0;
        assert!(mean > 0.5, "BALD mean final {mean}");
    }

    #[test]
    fn labels_come_from_ground_truth_one_per_iteration() {
        // After n iterations exactly n examples are labeled (pool big
        // enough), checked indirectly through curve length.
        let ds = toy_text(1);
        let curve = ActiveLearning::new(UncertaintyAcquisition).run(&ds, &config(10, 3));
        assert_eq!(curve.points().len(), 2);
    }

    #[test]
    fn deterministic() {
        let ds = toy_text(1);
        let c1 = ActiveLearning::new(UncertaintyAcquisition).run(&ds, &config(12, 7));
        let c2 = ActiveLearning::new(UncertaintyAcquisition).run(&ds, &config(12, 7));
        assert_eq!(c1.points(), c2.points());
    }

    #[test]
    fn us_scores_are_entropies() {
        let ds = toy_text(1);
        let labeled = vec![(0u32, ds.train.labels[0]), (1u32, ds.train.labels[1])];
        let scores = UncertaintyAcquisition.scores(&ds, &labeled, 1);
        assert_eq!(scores.len(), ds.train.n());
        assert!(scores.iter().all(|&s| (0.0..=std::f64::consts::LN_2 + 1e-9).contains(&s)));
    }
}
