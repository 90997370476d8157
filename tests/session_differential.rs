//! Differential tests for the `Session` engine's SEU path:
//!
//! 1. **Aggregates are one fold of the model outputs** — the session's
//!    aggregates are folded on first read after a learning stage, so they
//!    must equal a fresh `SeuAggregates::new` over the same outputs, every
//!    field bit for bit (that `new` equals the fold over `PrimAgg::add` is
//!    the property `seu::tests::prop_fold_bit_identical_to_prim_agg_add`).
//!    Since `SeuSelector::scores` reads the view's aggregates and nothing
//!    else kept across rounds, selections over the session's aggregates
//!    and over a fresh fold are then the same.
//! 2. **Table-driven SEU scoring** — `SeuSelector::scores` must equal a
//!    per-slot scan over per-primitive, per-label weight tables bit for
//!    bit, and match the naive per-example reference
//!    (`expected_utility_naive`) within fp tolerance, across every
//!    `UserModelKind × UtilityKind` combination.
//!
//! Both properties are checked over 3 seeds while a real interactive loop
//! (SEU selection + simulated user) drives the session.

mod common;

use common::assert_aggs_identical;
use nemo::core::config::IdpConfig;
use nemo::core::idp::SelectionView;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline, StandardPipeline};
use nemo::core::session::Session;
use nemo::core::seu::{SeuAggregates, SeuSelector};
use nemo::core::user_model::UserModelKind;
use nemo::core::utility::UtilityKind;
use nemo::data::catalog::toy_text;
use nemo::lf::Label;

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

/// The per-slot tabled scan `SeuSelector::scores` is checked against:
/// `w[z][y]`, the user-model weight of `λ_{z,y}`, and `wu[z][y]`, its
/// weight × utility product (0 for a collected pair), tabled once; each
/// `(example, primitive)` slot then adds `P(−)·wu[z][−] + P(+)·wu[z][+]`
/// and `w[z][−] + w[z][+]`.
fn tabled_scan(sel: &SeuSelector, view: &SelectionView<'_>, avail: &[usize]) -> Vec<f64> {
    let aggs = view.aggs.aggs();
    let mut collected = vec![[false; 2]; aggs.len()];
    for tracked in view.lineage.tracked() {
        collected[tracked.lf.z as usize][tracked.lf.y.index()] = true;
    }
    let mut w = vec![[0.0; 2]; aggs.len()];
    let mut wu = vec![[0.0; 2]; aggs.len()];
    for (z, agg) in aggs.iter().enumerate() {
        if agg.df == 0 {
            continue;
        }
        for y in Label::ALL {
            let weight = sel.user_model.weight(agg.accuracy(y));
            if weight <= 0.0 {
                continue;
            }
            let value = if collected[z][y.index()] { 0.0 } else { sel.utility.value(agg, y) };
            w[z][y.index()] = weight;
            wu[z][y.index()] = weight * value;
        }
    }
    let prior = view.ds.prior();
    avail
        .iter()
        .map(|&x| {
            let prims = view.ds.train.corpus.primitives_of(x);
            if prims.is_empty() {
                return f64::NEG_INFINITY;
            }
            let (mut weighted, mut total_w) = (0.0, 0.0);
            for &z in prims {
                let (zw, zwu) = (&w[z as usize], &wu[z as usize]);
                weighted += prior[0] * zwu[0] + prior[1] * zwu[1];
                total_w += zw[0] + zw[1];
            }
            if !sel.user_model.normalized() {
                weighted
            } else if total_w > 0.0 {
                weighted / total_w
            } else {
                0.0
            }
        })
        .collect()
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
                let scores = sel.scores(&view, &avail);
                let tabled = tabled_scan(&sel, &view, &avail);
                for (&x, (fast, tabled)) in avail.iter().zip(scores.iter().zip(&tabled)) {
                    assert_eq!(
                        fast.to_bits(),
                        tabled.to_bits(),
                        "seed {seed} um {um:?} ut {ut:?} x {x}: fast {fast} vs tabled {tabled}"
                    );
                }
                let naive_scores = sel.expected_utility_naive(&view, &avail);
                let pairs = scores.into_iter().zip(naive_scores);
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
