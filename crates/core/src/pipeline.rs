//! Learning pipelines (IDP stage 3).
//!
//! [`StandardPipeline`] is the conventional DP learning stage: label model
//! on the raw label matrix, then the end model on the soft labels
//! (Sec. 4.3, "Standard Learning Pipeline"). [`ContextualizedPipeline`]
//! inserts Nemo's LF contextualizer before aggregation (the bottom path of
//! Figure 4): LFs are refined around their development data, the
//! refinement percentile is tuned on validation, and the same label/end
//! models run on the refined votes — the contextualizer is model-agnostic
//! pre-processing, as the paper emphasizes.

use crate::config::IdpConfig;
use crate::contextualizer::Contextualizer;
use crate::idp::ModelOutputs;
use nemo_data::Dataset;
use nemo_endmodel::LogisticRegression;
use nemo_labelmodel::Posterior;
use nemo_lf::{Label, LabelMatrix, Lineage, Metric};

/// The class balance used inside weak-label aggregation (MeTaL's default).
pub const UNIFORM_BALANCE: [f64; 2] = [0.5, 0.5];

/// Convert validation/test probabilities into hard predictions under the
/// dataset metric. Accuracy tasks use the 0.5 threshold; F1 tasks tune
/// the threshold on the validation split (under heavy class imbalance the
/// 0.5 threshold never predicts the minority class; see
/// [`nemo_lf::metrics::best_f1_threshold`]).
pub fn hard_predictions(
    valid_probs: &[f64],
    test_probs: &[f64],
    ds: &Dataset,
) -> (Vec<Label>, Vec<Label>) {
    let threshold = match ds.metric {
        Metric::Accuracy => 0.5,
        Metric::F1 => nemo_lf::metrics::best_f1_threshold(valid_probs, &ds.valid.labels),
    };
    let to_labels = |probs: &[f64]| -> Vec<Label> {
        probs.iter().map(|&p| Label::from_bool(p >= threshold)).collect()
    };
    (to_labels(valid_probs), to_labels(test_probs))
}

/// A learning stage: consume the collected LFs (with lineage) and produce
/// model outputs.
pub trait LearningPipeline {
    /// Name for reports ("standard", "contextualized", "implyloss").
    fn name(&self) -> &'static str;

    /// Learn from the LFs collected so far.
    ///
    /// `raw_matrix` is the unrefined train label matrix aligned with
    /// `lineage`; `iter_seed` is a per-iteration deterministic seed.
    fn learn(
        &mut self,
        lineage: &Lineage,
        raw_matrix: &LabelMatrix,
        ds: &Dataset,
        config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs;
}

/// Train the end model on covered examples against the label-model soft
/// labels and predict all three splits — the step every pipeline shares.
///
/// `covered` is the ascending list of train examples with at least one
/// non-abstain vote, as returned alongside the posterior by
/// [`nemo_labelmodel::FittedLabelModel::predict_with_coverage`] — the
/// aggregation pass already touches every vote, so pipelines hand the
/// coverage through instead of this function re-scanning the (tuned)
/// train matrix every round.
pub fn end_model_outputs(
    posterior: Posterior,
    covered: &[u32],
    ds: &Dataset,
    config: &IdpConfig,
    iter_seed: u64,
    chosen_p: Option<f64>,
) -> ModelOutputs {
    if covered.is_empty() {
        return ModelOutputs { chosen_p, ..ModelOutputs::initial(ds) };
    }

    let trainer = LogisticRegression::new(config.end_model.clone());
    let model =
        trainer.fit(ds.train.features.csr(), posterior.p_pos_slice(), Some(covered), iter_seed);
    let train_probs = model.predict_proba(ds.train.features.csr());
    let valid_probs = model.predict_proba(ds.valid.features.csr());
    let test_probs = model.predict_proba(ds.test.features.csr());
    let (valid_pred, test_pred) = hard_predictions(&valid_probs, &test_probs, ds);

    ModelOutputs { train_posterior: posterior, train_probs, valid_pred, test_pred, chosen_p }
}

/// The standard (context-blind) learning pipeline.
#[derive(Debug, Clone, Default)]
pub struct StandardPipeline;

impl LearningPipeline for StandardPipeline {
    fn name(&self) -> &'static str {
        "standard"
    }

    fn learn(
        &mut self,
        _lineage: &Lineage,
        raw_matrix: &LabelMatrix,
        ds: &Dataset,
        config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs {
        let label_model = config.label_model.build();
        // MeTaL's default assumes a uniform class balance unless one is
        // supplied; we follow it. On imbalanced tasks (SMS) feeding the
        // true prior into naive-Bayes aggregation makes a single
        // minority-class vote unable to cross 0.5 — the posterior then
        // never predicts the minority class and F1 collapses to zero.
        let fitted = label_model.fit(raw_matrix, UNIFORM_BALANCE);
        let (posterior, covered) = fitted.predict_with_coverage(raw_matrix);
        end_model_outputs(posterior, &covered, ds, config, iter_seed, None)
    }
}

/// Nemo's contextualized learning pipeline (Figure 4, bottom path).
///
/// The pipeline owns the [`Contextualizer`] and therefore its cross-round
/// state: each LF's refined train/valid columns at every grid point and
/// each grid point's label-model pair counts. A
/// [`crate::session::Session`] drives `learn` every round with the *same*
/// pipeline instance, so `Contextualizer::sync` computes distances and
/// filters columns for the round's new LFs only, and `tune_p` fits straight
/// from the grid slots, recounting only the new LFs' pairs. A fresh
/// pipeline per round registers and refines the whole lineage again; a
/// restored session's pipeline (built `From` a [`Contextualizer::restore`]
/// of its checkpoint's radii) refines it again too, but queries each LF's
/// distances only at the rows it covers. The results are identical.
pub struct ContextualizedPipeline {
    ctx: Contextualizer,
}

impl ContextualizedPipeline {
    /// Create with a contextualizer configuration.
    ///
    /// # Panics
    ///
    /// On a bad percentile grid, as [`Contextualizer::new`] does.
    pub fn new(config: crate::config::ContextualizerConfig) -> Self {
        Self { ctx: Contextualizer::new(config) }
    }

    /// Access the underlying contextualizer (diagnostics — e.g.
    /// [`Contextualizer::refine_cache_stats`] and
    /// [`Contextualizer::tune_fits`]).
    pub fn contextualizer(&self) -> &Contextualizer {
        &self.ctx
    }
}

impl From<Contextualizer> for ContextualizedPipeline {
    /// A pipeline over an existing contextualizer, e.g. one restored from
    /// a checkpoint's radii ([`Contextualizer::restore`]).
    fn from(ctx: Contextualizer) -> Self {
        Self { ctx }
    }
}

impl Default for ContextualizedPipeline {
    fn default() -> Self {
        Self::new(crate::config::ContextualizerConfig::default())
    }
}

impl LearningPipeline for ContextualizedPipeline {
    fn name(&self) -> &'static str {
        "contextualized"
    }

    fn learn(
        &mut self,
        lineage: &Lineage,
        raw_matrix: &LabelMatrix,
        ds: &Dataset,
        config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs {
        self.ctx.sync(lineage, ds);
        if lineage.is_empty() {
            return ModelOutputs::initial(ds);
        }
        let label_model = config.label_model.build();
        let tuned = self.ctx.tune_p(raw_matrix, ds, &*label_model, UNIFORM_BALANCE);
        let (posterior, covered) = tuned.fitted.predict_with_coverage(tuned.train_matrix);
        end_model_outputs(posterior, &covered, ds, config, iter_seed, Some(tuned.p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::idp::{run_curve, RandomSelector};
    use crate::oracle::SimulatedUser;
    use crate::session::Session;
    use nemo_data::catalog::toy_text;

    fn run(
        ds: &Dataset,
        mut pipeline: impl LearningPipeline,
        seed: u64,
    ) -> crate::idp::LearningCurve {
        let config = IdpConfig { n_iterations: 12, eval_every: 3, seed, ..Default::default() };
        run_curve(
            &mut Session::new(ds, config),
            &mut RandomSelector,
            &mut SimulatedUser::default(),
            &mut pipeline,
        )
        .unwrap()
    }

    #[test]
    fn standard_pipeline_learns() {
        let ds = toy_text(1);
        let curve = run(&ds, StandardPipeline, 1);
        assert!(curve.final_score() > 0.5, "score {}", curve.final_score());
    }

    #[test]
    fn contextualized_pipeline_learns_and_reports_p() {
        let ds = toy_text(1);
        let config = IdpConfig { n_iterations: 6, eval_every: 3, seed: 2, ..Default::default() };
        let mut session = Session::new(&ds, config);
        session
            .round(
                &mut RandomSelector,
                &mut SimulatedUser::default(),
                &mut ContextualizedPipeline::default(),
            )
            .unwrap();
        let p = session.outputs().chosen_p.expect("contextualized pipeline reports p");
        assert!(crate::config::ContextualizerConfig::default().p_grid.contains(&p));
    }

    #[test]
    fn contextualized_not_worse_than_standard_on_toy() {
        // The toy generator plants strong locality (flip_prob 0.3), where
        // contextualization is designed to help. Averaged over seeds it
        // should not lose to the standard pipeline.
        let ds = toy_text(3);
        let mut std_sum = 0.0;
        let mut ctx_sum = 0.0;
        for seed in 0..3 {
            std_sum += run(&ds, StandardPipeline, seed).summary();
            ctx_sum += run(&ds, ContextualizedPipeline::default(), seed).summary();
        }
        assert!(ctx_sum >= std_sum - 0.03, "contextualized {ctx_sum:.3} vs standard {std_sum:.3}");
    }

    #[test]
    fn empty_lineage_outputs_prior() {
        let ds = toy_text(1);
        let mut pipeline = ContextualizedPipeline::default();
        let lineage = Lineage::new();
        let matrix = LabelMatrix::new(ds.train.n());
        let config = IdpConfig::default();
        let out = pipeline.learn(&lineage, &matrix, &ds, &config, 0);
        assert!(out.chosen_p.is_none());
        assert_eq!(out.train_probs.len(), ds.train.n());
    }

    #[test]
    fn end_model_outputs_prior_when_uncovered() {
        let ds = toy_text(1);
        let posterior = Posterior::from_prior(ds.train.n(), ds.class_prior_pos);
        let out = end_model_outputs(posterior, &[], &ds, &IdpConfig::default(), 0, Some(50.0));
        assert_eq!(out.chosen_p, Some(50.0));
        assert!((out.train_probs[0] - ds.class_prior_pos).abs() < 1e-12);
    }
}
