//! Unified method registry: every method in the paper's evaluation —
//! Nemo, the IDP baselines, the other interactive schemes, and the
//! ablation variants from Tables 4–9 — behind one entry point,
//! [`run_method`], so the benchmark harness treats them uniformly.

use crate::active::{ActiveLearning, BaldAcquisition, UncertaintyAcquisition};
use crate::implyloss::ImplyLossPipeline;
use crate::iws::IwsLse;
use crate::selectors::{AbstainSelector, DisagreeSelector};
use crate::weasul::ActiveWeasul;
use nemo_core::config::{ContextualizerConfig, IdpConfig};
use nemo_core::idp::{run_curve, LearningCurve, RandomSelector, Selector};
use nemo_core::oracle::{NoisyUser, SimulatedUser, User};
use nemo_core::pipeline::{ContextualizedPipeline, LearningPipeline, StandardPipeline};
use nemo_core::session::Session;
use nemo_core::seu::SeuSelector;
use nemo_core::user_model::UserModelKind;
use nemo_core::utility::UtilityKind;
use nemo_data::Dataset;
use nemo_sparse::{DetRng, Distance};

/// Every runnable method/variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Full Nemo: SEU selection + contextualized learning (Table 2).
    Nemo,
    /// Vanilla IDP: random selection + standard learning \[28\].
    Snorkel,
    /// Selection-only IDP: abstain-based selection \[9\].
    SnorkelAbs,
    /// Selection-only IDP: disagreement-based selection \[9\].
    SnorkelDis,
    /// CL-only IDP: random selection + ImplyLoss-L learning \[3\].
    ImplyLossL,
    /// Active learning with uncertainty sampling \[20\].
    Us,
    /// Bayesian active learning \[12, 17\].
    Bald,
    /// Interactive weak supervision \[6\].
    IwsLse,
    /// Active WeaSuL \[5\].
    ActiveWeasul,
    /// Ablation: SEU selection + standard learning
    /// (Table 4 "No LF Contextualizer"; Table 5 "SEU").
    SeuOnly,
    /// Ablation: random selection + contextualized learning
    /// (Table 4 "No Data Selector"; Table 8 "Contextualized").
    ClOnly,
    /// Ablation: SEU with the uniform user model (Table 6).
    SeuUniformUserModel,
    /// Ablation: SEU utility without the informativeness term (Table 7).
    SeuNoInformativeness,
    /// Ablation: SEU utility without the correctness term (Table 7).
    SeuNoCorrectness,
    /// Ablation: contextualized learning with euclidean distance (Table 9).
    ClEuclidean,
}

impl Method {
    /// The Table 2 method roster, in the paper's column order.
    pub const TABLE2: [Method; 9] = [
        Method::Nemo,
        Method::Snorkel,
        Method::SnorkelAbs,
        Method::SnorkelDis,
        Method::ImplyLossL,
        Method::Us,
        Method::IwsLse,
        Method::Bald,
        Method::ActiveWeasul,
    ];

    /// Paper display name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Nemo => "Nemo",
            Method::Snorkel => "Snorkel",
            Method::SnorkelAbs => "Snorkel-Abs",
            Method::SnorkelDis => "Snorkel-Dis",
            Method::ImplyLossL => "ImplyLoss-L",
            Method::Us => "US",
            Method::Bald => "BALD",
            Method::IwsLse => "IWS-LSE",
            Method::ActiveWeasul => "AW",
            Method::SeuOnly => "SEU",
            Method::ClOnly => "Contextualized",
            Method::SeuUniformUserModel => "SEU-Uniform",
            Method::SeuNoInformativeness => "SEU-NoInfo",
            Method::SeuNoCorrectness => "SEU-NoCorrect",
            Method::ClEuclidean => "Contextualized-Euclidean",
        }
    }
}

/// Shared run protocol: the IDP config plus simulated-user settings.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// IDP protocol (iterations, cadence, models, seed).
    pub idp: IdpConfig,
    /// Simulated-user accuracy threshold `t` (paper default 0.5; swept in
    /// Fig. 8).
    pub user_threshold: f64,
    /// Replace the oracle user with a noisy one (user-study simulation):
    /// `(jitter, lapse)`.
    pub noisy_user: Option<(f64, f64)>,
}

impl Default for RunSpec {
    fn default() -> Self {
        Self { idp: IdpConfig::default(), user_threshold: 0.5, noisy_user: None }
    }
}

impl RunSpec {
    /// Copy with a different seed.
    pub fn with_seed(&self, seed: u64) -> Self {
        Self { idp: self.idp.with_seed(seed), ..self.clone() }
    }

    fn build_user(&self) -> Box<dyn User> {
        match self.noisy_user {
            Some((jitter, lapse)) => {
                let mut rng = DetRng::new(self.idp.seed ^ 0x0151_u64);
                Box::new(NoisyUser::new(self.user_threshold, jitter, lapse, &mut rng))
            }
            None => Box::new(SimulatedUser::with_threshold(self.user_threshold)),
        }
    }
}

/// Run an IDP method: `selector` picks development examples for the
/// spec's user, and `pipeline` learns from their LFs.
fn idp_run(
    ds: &Dataset,
    spec: &RunSpec,
    mut selector: impl Selector,
    mut pipeline: impl LearningPipeline,
) -> LearningCurve {
    run_curve(
        &mut Session::new(ds, spec.idp.clone()),
        &mut selector,
        &mut *spec.build_user(),
        &mut pipeline,
    )
    // invariant: a fresh session holds no pending suggestion.
    .expect("fresh session")
}

/// Run `method` on `ds` under `spec`, returning its learning curve.
pub fn run_method(method: Method, ds: &Dataset, spec: &RunSpec) -> LearningCurve {
    match method {
        Method::Nemo => idp_run(ds, spec, SeuSelector::new(), ContextualizedPipeline::default()),
        Method::Snorkel => idp_run(ds, spec, RandomSelector, StandardPipeline),
        Method::SnorkelAbs => idp_run(ds, spec, AbstainSelector, StandardPipeline),
        Method::SnorkelDis => idp_run(ds, spec, DisagreeSelector, StandardPipeline),
        Method::ImplyLossL => idp_run(ds, spec, RandomSelector, ImplyLossPipeline::default()),
        Method::Us => ActiveLearning::new(UncertaintyAcquisition).run(ds, &spec.idp),
        Method::Bald => ActiveLearning::new(BaldAcquisition::default()).run(ds, &spec.idp),
        Method::IwsLse => IwsLse::default().run(ds, &spec.idp, spec.user_threshold),
        Method::ActiveWeasul => {
            let aw = ActiveWeasul {
                user: SimulatedUser::with_threshold(spec.user_threshold),
                ..Default::default()
            };
            aw.run(ds, &spec.idp)
        }
        Method::SeuOnly => idp_run(ds, spec, SeuSelector::new(), StandardPipeline),
        Method::ClOnly => idp_run(ds, spec, RandomSelector, ContextualizedPipeline::default()),
        Method::SeuUniformUserModel => idp_run(
            ds,
            spec,
            SeuSelector::with(UserModelKind::Uniform, UtilityKind::Full),
            StandardPipeline,
        ),
        Method::SeuNoInformativeness => idp_run(
            ds,
            spec,
            SeuSelector::with(UserModelKind::AccuracyWeighted, UtilityKind::NoInformativeness),
            StandardPipeline,
        ),
        Method::SeuNoCorrectness => idp_run(
            ds,
            spec,
            SeuSelector::with(UserModelKind::AccuracyWeighted, UtilityKind::NoCorrectness),
            StandardPipeline,
        ),
        Method::ClEuclidean => idp_run(
            ds,
            spec,
            RandomSelector,
            ContextualizedPipeline::new(ContextualizerConfig {
                distance: Distance::Euclidean,
                ..Default::default()
            }),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemo_data::catalog::toy_text;

    fn quick_spec(seed: u64) -> RunSpec {
        RunSpec {
            idp: IdpConfig { n_iterations: 10, eval_every: 5, seed, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn every_method_runs_on_toy() {
        let ds = toy_text(1);
        let all = [
            Method::Nemo,
            Method::Snorkel,
            Method::SnorkelAbs,
            Method::SnorkelDis,
            Method::ImplyLossL,
            Method::Us,
            Method::Bald,
            Method::IwsLse,
            Method::ActiveWeasul,
            Method::SeuOnly,
            Method::ClOnly,
            Method::SeuUniformUserModel,
            Method::SeuNoInformativeness,
            Method::SeuNoCorrectness,
            Method::ClEuclidean,
        ];
        for method in all {
            let curve = run_method(method, &ds, &quick_spec(1));
            assert_eq!(curve.points().len(), 2, "{}", method.name());
            for &(_, s) in curve.points() {
                assert!((0.0..=1.0).contains(&s), "{} score {s}", method.name());
            }
        }
    }

    #[test]
    fn table2_roster_matches_paper() {
        let names: Vec<&str> = Method::TABLE2.iter().map(|m| m.name()).collect();
        assert_eq!(
            names,
            vec![
                "Nemo",
                "Snorkel",
                "Snorkel-Abs",
                "Snorkel-Dis",
                "ImplyLoss-L",
                "US",
                "IWS-LSE",
                "BALD",
                "AW"
            ]
        );
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let ds = toy_text(1);
        for method in [Method::Nemo, Method::Snorkel, Method::IwsLse] {
            let a = run_method(method, &ds, &quick_spec(3));
            let b = run_method(method, &ds, &quick_spec(3));
            assert_eq!(a.points(), b.points(), "{}", method.name());
        }
    }

    #[test]
    fn noisy_user_spec_runs() {
        let ds = toy_text(1);
        let spec = RunSpec { noisy_user: Some((0.05, 0.15)), ..quick_spec(5) };
        let curve = run_method(Method::Nemo, &ds, &spec);
        assert_eq!(curve.points().len(), 2);
    }
}
