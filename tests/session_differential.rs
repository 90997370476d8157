//! Differential tests for the `Session` engine's SEU path:
//!
//! 1. **Aggregates are one fold of the model outputs** — after every
//!    learning stage the session re-runs the fold of `SeuAggregates::new`
//!    into its buffer, so its aggregates must equal a fresh
//!    `SeuAggregates::new` over the same outputs, every field bit for bit.
//!    Since `SeuSelector::scores` reads the view's aggregates and nothing
//!    else kept across rounds, selections over the session's aggregates
//!    and over a fresh fold are then the same.
//! 2. **Table-driven SEU scoring** — `SeuSelector::scores` must match the
//!    naive per-example reference (`expected_utility_naive`) within fp
//!    tolerance, across every `UserModelKind × UtilityKind` combination.
//!
//! Both properties are checked over 3 seeds while a real interactive loop
//! (SEU selection + simulated user) drives the session.

mod common;

use common::assert_aggs_identical;
use nemo::core::config::IdpConfig;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline, StandardPipeline};
use nemo::core::session::Session;
use nemo::core::seu::{SeuAggregates, SeuSelector};
use nemo::core::user_model::UserModelKind;
use nemo::core::utility::UtilityKind;
use nemo::data::catalog::toy_text;

const SEEDS: [u64; 3] = [11, 22, 33];

const USER_MODELS: [UserModelKind; 3] =
    [UserModelKind::AccuracyWeighted, UserModelKind::Uniform, UserModelKind::MultiLfIndicator];

const UTILITIES: [UtilityKind; 3] =
    [UtilityKind::Full, UtilityKind::NoInformativeness, UtilityKind::NoCorrectness];

fn drive<'a>(
    session: &mut Session<'a>,
    pipeline: &mut dyn LearningPipeline,
    n_steps: usize,
    mut inspect: impl FnMut(&Session<'a>),
) {
    let mut selector = SeuSelector::new();
    let mut user = SimulatedUser::default();
    for _ in 0..n_steps {
        session.round(&mut selector, &mut user, pipeline).unwrap();
        inspect(session);
    }
}

/// Run `rounds` rounds per seed on `toy_text(3)` with the pipeline
/// `make` builds, and after every round check the session's aggregates
/// against a fresh fold of its outputs.
fn check_synced_equals_fold<P: LearningPipeline>(rounds: usize, make: impl Fn() -> P) {
    let ds = toy_text(3);
    for seed in SEEDS {
        let config = IdpConfig { n_iterations: rounds, eval_every: 5, seed, ..Default::default() };
        let mut session = Session::new(&ds, config);
        let mut pipeline = make();
        let mut checked = 0;
        drive(&mut session, &mut pipeline, rounds, |s| {
            let fold = SeuAggregates::new(s.dataset(), s.outputs());
            let what = format!("seed {seed} iteration {}", s.iteration());
            assert_aggs_identical(s.aggregates(), &fold, &what);
            checked += 1;
        });
        assert_eq!(checked, rounds);
    }
}

#[test]
fn synced_aggregates_equal_fold_under_standard_pipeline() {
    check_synced_equals_fold(10, || StandardPipeline);
}

#[test]
fn synced_aggregates_equal_fold_under_contextualized_pipeline() {
    // The contextualized pipeline rewrites the posterior from refined
    // votes each round.
    check_synced_equals_fold(10, ContextualizedPipeline::default);
}

#[test]
fn table_scores_bit_identical_to_tabled_scan_and_match_naive() {
    let ds = toy_text(3);
    for seed in SEEDS {
        let config = IdpConfig { n_iterations: 6, eval_every: 3, seed, ..Default::default() };
        let mut session = Session::new(&ds, config);
        let mut pipeline = StandardPipeline;
        drive(&mut session, &mut pipeline, 6, |_| {});

        let view = session.view();
        let avail = view.available();
        for um in USER_MODELS {
            for ut in UTILITIES {
                let sel = SeuSelector::with(um, ut);
                let naive_scores = sel.expected_utility_naive(&view, &avail);
                let pairs = sel.scores(&view, &avail).into_iter().zip(naive_scores);
                for (&x, (fast, naive)) in avail.iter().zip(pairs) {
                    if fast.is_finite() || naive.is_finite() {
                        assert!(
                            (fast - naive).abs() < 1e-9,
                            "seed {seed} um {um:?} ut {ut:?} x {x}: fast {fast} vs naive {naive}"
                        );
                    }
                }
            }
        }
    }
}
