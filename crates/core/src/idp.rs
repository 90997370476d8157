//! The Interactive Data Programming loop (paper Sec. 3 and Appendix A).
//!
//! Each iteration performs the three IDP stages:
//!
//! 1. **Development data selection** — a [`Selector`] picks one unlabeled
//!    training example (atomic setting, `|S_t| = 1`).
//! 2. **LF development** — a [`crate::oracle::User`] inspects the example
//!    and returns labeling function(s); lineage is recorded.
//! 3. **Label/end model learning** — a
//!    [`crate::pipeline::LearningPipeline`] (standard or contextualized)
//!    learns from the LFs collected so far and exposes its model state
//!    back to the selector for the next cycle.
//!
//! [`Session::round`] runs those stages as one round over any selector,
//! and [`run_curve`] loops rounds over a [`Session`] on the paper's
//! evaluation cadence. Every method in the paper's
//! evaluation — Nemo, Snorkel, Snorkel-Abs/Dis, the SEU and
//! contextualizer ablations — is an instantiation of that one loop.

use crate::error::SessionError;
use crate::oracle::User;
use crate::pipeline::LearningPipeline;
use crate::session::Session;
use crate::seu::SeuAggregates;
use nemo_data::Dataset;
use nemo_labelmodel::Posterior;
use nemo_lf::{label_from_prob, Label, LabelMatrix, Lineage, PrimitiveLf};
use nemo_sparse::DetRng;

/// Model state after a learning stage, visible to selectors and
/// evaluation.
#[derive(Debug, Clone)]
pub struct ModelOutputs {
    /// Label-model posterior `P(y_i | Λ_t)` on the training split.
    pub train_posterior: Posterior,
    /// End-model probabilities `P(y_i = +1 | x_i)` on the training split
    /// (the `ŷ = f(x)` proxy the SEU user model and utility use).
    pub train_probs: Vec<f64>,
    /// End-model hard predictions on the validation split.
    pub valid_pred: Vec<Label>,
    /// End-model hard predictions on the test split.
    pub test_pred: Vec<Label>,
    /// The contextualizer percentile chosen this iteration (None for the
    /// standard pipeline).
    pub chosen_p: Option<f64>,
}

impl ModelOutputs {
    /// The before-any-LF state: posterior and predictions at the class
    /// prior.
    pub fn initial(ds: &Dataset) -> Self {
        let prior_pos = ds.class_prior_pos;
        let prior_label = label_from_prob(prior_pos);
        Self {
            train_posterior: Posterior::from_prior(ds.train.n(), prior_pos),
            train_probs: vec![prior_pos; ds.train.n()],
            valid_pred: vec![prior_label; ds.valid.n()],
            test_pred: vec![prior_label; ds.test.n()],
            chosen_p: None,
        }
    }

    /// Hard sign of the end-model prediction for training example `i`.
    #[inline]
    pub fn yhat_sign(&self, i: usize) -> i8 {
        if self.train_probs[i] >= 0.5 {
            1
        } else {
            -1
        }
    }

    /// All training prediction signs.
    pub fn yhat_signs(&self) -> Vec<i8> {
        (0..self.train_probs.len()).map(|i| self.yhat_sign(i)).collect()
    }
}

/// Read-only state a selector may consult. By IDP's rules the selector
/// never sees training ground truth — only model state and LF votes.
pub struct SelectionView<'a> {
    /// The dataset (selectors must not read `ds.train.labels`; only the
    /// oracle user does).
    pub ds: &'a Dataset,
    /// LFs collected so far with lineage.
    pub lineage: &'a Lineage,
    /// Raw (unrefined) train label matrix of the collected LFs.
    pub matrix: &'a LabelMatrix,
    /// Model state from the previous learning stage.
    pub outputs: &'a ModelOutputs,
    /// `excluded[i]` — example `i` was already shown to the user.
    pub excluded: &'a [bool],
    /// SEU aggregates folded from `outputs`: a [`Session`]'s, or a fresh
    /// [`SeuAggregates::new`], which hold the same bits.
    pub aggs: &'a SeuAggregates,
}

impl<'a> SelectionView<'a> {
    /// Indices not yet shown to the user.
    pub fn available(&self) -> Vec<usize> {
        (0..self.ds.train.n()).filter(|&i| !self.excluded[i]).collect()
    }
}

/// A development-data selection strategy (IDP stage 1).
pub trait Selector {
    /// Pick the next development example, or `None` when the pool is
    /// exhausted.
    fn select(&mut self, view: &SelectionView<'_>, rng: &mut DetRng) -> Option<usize>;
}

/// Uniform random selection — the prevailing approach (Snorkel).
#[derive(Debug, Clone, Default)]
pub struct RandomSelector;

impl Selector for RandomSelector {
    fn select(&mut self, view: &SelectionView<'_>, rng: &mut DetRng) -> Option<usize> {
        let avail = view.available();
        if avail.is_empty() {
            None
        } else {
            Some(avail[rng.index(avail.len())])
        }
    }
}

/// Record of one interactive step.
#[derive(Debug, Clone)]
pub struct StepRecord {
    /// Iteration index (0-based).
    pub iteration: usize,
    /// The development example shown, if any.
    pub selected: Option<usize>,
    /// LFs the user returned.
    pub new_lfs: Vec<PrimitiveLf>,
}

/// A learning curve: `(iteration, test score)` points.
#[derive(Debug, Clone, Default)]
pub struct LearningCurve {
    points: Vec<(usize, f64)>,
}

impl LearningCurve {
    /// Record a point.
    pub fn push(&mut self, iteration: usize, score: f64) {
        self.points.push((iteration, score));
    }

    /// The recorded points.
    pub fn points(&self) -> &[(usize, f64)] {
        &self.points
    }

    /// The paper's curve summary: the mean of the evaluated scores
    /// (proportional to area under the learning curve, Sec. 5.1).
    pub fn summary(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, s)| s).sum::<f64>() / self.points.len() as f64
    }

    /// Final score on the curve.
    pub fn final_score(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, s)| s)
    }
}

/// Run `session` for its configured `n_iterations`, one
/// [`Session::round`] over `selector` per iteration, and record the test
/// score every `eval_every` iterations (the paper's protocol). This is the
/// one curve loop: [`crate::NemoSystem::run_with_user`] and every IDP
/// method of the benchmark's `run_method` go through it.
///
/// # Errors
///
/// [`SessionError::SuggestionPending`] if `session` holds an unresolved
/// suggestion from the manual suggest/submit frontend; the first round
/// fails before changing any state. Any other error of
/// [`Session::round`] stops the loop with that round's state.
pub fn run_curve(
    session: &mut Session<'_>,
    selector: &mut dyn Selector,
    user: &mut dyn User,
    pipeline: &mut dyn LearningPipeline,
) -> Result<LearningCurve, SessionError> {
    let mut curve = LearningCurve::default();
    for t in 0..session.config().n_iterations {
        session.round(selector, user, pipeline)?;
        if session.config().evaluates_after(t + 1) {
            curve.push(t + 1, session.test_score());
        }
    }
    Ok(curve)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{IdpConfig, LabelModelKind};
    use crate::oracle::SimulatedUser;
    use crate::pipeline::StandardPipeline;
    use nemo_data::catalog::toy_text;

    fn config(seed: u64) -> IdpConfig {
        IdpConfig { n_iterations: 10, eval_every: 2, seed, ..Default::default() }
    }

    /// Snorkel's parts: random selection, the oracle user, standard
    /// learning.
    fn snorkel() -> (RandomSelector, SimulatedUser, StandardPipeline) {
        (RandomSelector, SimulatedUser::default(), StandardPipeline)
    }

    fn snorkel_curve(ds: &Dataset, seed: u64) -> LearningCurve {
        let mut session = Session::new(ds, config(seed));
        let (mut selector, mut user, mut pipeline) = snorkel();
        // invariant: a fresh session holds no pending suggestion.
        run_curve(&mut session, &mut selector, &mut user, &mut pipeline).expect("fresh session")
    }

    #[test]
    fn initial_outputs_at_prior() {
        let ds = toy_text(1);
        let out = ModelOutputs::initial(&ds);
        assert_eq!(out.train_probs.len(), ds.train.n());
        assert_eq!(out.test_pred.len(), ds.test.n());
        assert!(out.chosen_p.is_none());
    }

    #[test]
    fn step_collects_lfs_and_updates_models() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, config(1));
        let (mut selector, mut user, mut pipeline) = snorkel();
        let rec = s.round(&mut selector, &mut user, &mut pipeline).unwrap();
        assert_eq!(rec.iteration, 0);
        assert!(rec.selected.is_some());
        assert_eq!(s.lineage().len(), rec.new_lfs.len());
        assert_eq!(s.matrix().n_lfs(), s.lineage().len());
        assert_eq!(s.iteration(), 1);
    }

    #[test]
    fn selected_examples_are_not_reselected() {
        let ds = toy_text(1);
        let mut s = Session::new(&ds, config(2));
        let (mut selector, mut user, mut pipeline) = snorkel();
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            let rec = s.round(&mut selector, &mut user, &mut pipeline).unwrap();
            if let Some(x) = rec.selected {
                assert!(seen.insert(x), "example {x} selected twice");
            }
        }
    }

    #[test]
    fn run_produces_expected_curve_shape() {
        let ds = toy_text(1);
        let curve = snorkel_curve(&ds, 3);
        assert_eq!(curve.points().len(), 5); // 10 iterations / eval_every 2
        assert_eq!(curve.points()[0].0, 2);
        assert_eq!(curve.points()[4].0, 10);
        for &(_, score) in curve.points() {
            assert!((0.0..=1.0).contains(&score));
        }
    }

    #[test]
    fn learning_beats_prior_on_toy() {
        let ds = toy_text(1);
        let curve = snorkel_curve(&ds, 4);
        // After 10 LFs on the toy task the end model should beat chance.
        assert!(curve.final_score() > 0.55, "final score {}", curve.final_score());
    }

    #[test]
    fn deterministic_given_seed() {
        let ds = toy_text(1);
        assert_eq!(snorkel_curve(&ds, 7).points(), snorkel_curve(&ds, 7).points());
    }

    #[test]
    fn different_seeds_generally_differ() {
        let ds = toy_text(1);
        assert_ne!(snorkel_curve(&ds, 1).points(), snorkel_curve(&ds, 2).points());
    }

    #[test]
    fn exhausted_pool_freezes_the_model() {
        // Snorkel past the end of the pool: every iteration completes, and
        // once no example is left the rounds advance the frozen model
        // instead of re-learning it. Majority vote keeps the fits over
        // hundreds of LFs cheap.
        let ds = toy_text(1);
        let n = ds.train.n();
        let config =
            IdpConfig { n_iterations: n + 5, label_model: LabelModelKind::Majority, ..config(1) };
        let mut s = Session::new(&ds, config);
        let (mut selector, mut user, mut pipeline) = snorkel();
        for _ in 0..n {
            s.round(&mut selector, &mut user, &mut pipeline).unwrap();
        }
        let bits = |s: &Session<'_>| -> Vec<u64> {
            s.outputs().train_probs.iter().map(|p| p.to_bits()).collect()
        };
        let frozen = bits(&s);
        for t in n..n + 5 {
            let rec = s.round(&mut selector, &mut user, &mut pipeline).unwrap();
            assert_eq!(rec.selected, None, "iteration {t}");
            assert_eq!(bits(&s), frozen, "iteration {t} re-learned the model");
        }
        assert_eq!(s.iteration(), n + 5);
    }

    #[test]
    fn curve_summary_is_mean() {
        let mut c = LearningCurve::default();
        c.push(5, 0.5);
        c.push(10, 0.7);
        assert!((c.summary() - 0.6).abs() < 1e-12);
        assert!((c.final_score() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn random_selector_exhausts_pool() {
        let ds = toy_text(1);
        let excluded = vec![true; ds.train.n()];
        let lineage = Lineage::new();
        let matrix = LabelMatrix::new(ds.train.n());
        let outputs = ModelOutputs::initial(&ds);
        let aggs = SeuAggregates::new(&ds, &outputs);
        let view = SelectionView {
            ds: &ds,
            lineage: &lineage,
            matrix: &matrix,
            outputs: &outputs,
            excluded: &excluded,
            aggs: &aggs,
        };
        let mut rng = DetRng::new(1);
        assert_eq!(RandomSelector.select(&view, &mut rng), None);
    }
}
