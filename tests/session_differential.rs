//! Differential tests for the `Session` engine's two fast paths:
//!
//! 1. **Incremental `PrimAgg` maintenance** — after every learning stage
//!    the session replays only the dirty examples' contribution deltas
//!    into the cached aggregates. Integer fields must match a full
//!    one-pass rebuild (`SeuSelector::primitive_aggregates`) exactly and
//!    the in-place float sums within drift tolerance; selections driven
//!    by the cache must be *identical* to selections recomputed from
//!    scratch.
//! 2. **Table-driven SEU scoring** — `SeuSelector::scores` must be
//!    bit-identical to a per-example scan of the same score table, and
//!    both must match the retained naive per-example reference
//!    (`expected_utility_naive`) within fp tolerance, across every
//!    `UserModelKind × UtilityKind` combination.
//!
//! Both properties are checked over ≥ 3 seeds while a real interactive
//! loop (SEU selection + simulated user) mutates the session, so the
//! cache sees the same dirty patterns production runs produce.

use nemo::core::config::IdpConfig;
use nemo::core::idp::{SelectionView, Selector};
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline, StandardPipeline};
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::core::user_model::UserModelKind;
use nemo::core::utility::UtilityKind;
use nemo::data::catalog::toy_text;
use nemo::sparse::DetRng;

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

/// Assert cached aggregates track a from-scratch rebuild: integer fields
/// exactly, in-place float sums within drift tolerance.
fn assert_aggs_track(session: &Session<'_>, seed: u64) {
    let rebuilt = SeuSelector::primitive_aggregates(&session.view());
    for (z, (cached, fresh)) in session.aggregates().aggs().iter().zip(&rebuilt).enumerate() {
        assert_eq!(cached.df, fresh.df, "seed {seed} z {z}: df diverged");
        assert_eq!(cached.n_pos, fresh.n_pos, "seed {seed} z {z}: n_pos diverged");
        for (a, b, field) in [
            (cached.s_psi, fresh.s_psi, "s_psi"),
            (cached.s_yhat, fresh.s_yhat, "s_yhat"),
            (cached.s_psi_yhat, fresh.s_psi_yhat, "s_psi_yhat"),
        ] {
            assert!(
                (a - b).abs() < 1e-9,
                "seed {seed} z {z}: {field} drifted ({a} vs {b}) at iteration {}",
                session.iteration()
            );
        }
    }
}

#[test]
fn incremental_aggregates_track_rebuild() {
    let ds = toy_text(3);
    for seed in SEEDS {
        let config = IdpConfig { n_iterations: 10, eval_every: 5, seed, ..Default::default() };
        let mut session = Session::new(&ds, config);
        let mut pipeline = StandardPipeline;
        let mut checked = 0;
        drive(&mut session, &mut pipeline, 10, |s| {
            assert_aggs_track(s, seed);
            checked += 1;
        });
        assert_eq!(checked, 10);
        let (rebuilds, deltas) = session.aggregates().sync_counts();
        assert!(
            deltas > 0,
            "seed {seed}: the incremental path was never exercised \
             ({rebuilds} rebuilds, {deltas} delta syncs)"
        );
    }
}

#[test]
fn incremental_aggregates_hold_under_contextualized_pipeline() {
    // The contextualized pipeline rewrites the posterior from refined
    // votes each round — a harsher dirty pattern than standard learning.
    let ds = toy_text(3);
    for seed in SEEDS {
        let config = IdpConfig { n_iterations: 8, eval_every: 4, seed, ..Default::default() };
        let mut session = Session::new(&ds, config);
        let mut pipeline = ContextualizedPipeline::default();
        drive(&mut session, &mut pipeline, 8, |s| assert_aggs_track(s, seed));
    }
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
        let aggs = view.aggs.expect("session views carry cached aggregates").aggs();
        let avail = view.available();
        for um in USER_MODELS {
            for ut in UTILITIES {
                let sel = SeuSelector::with(um, ut);
                let table = sel.score_table(&view, aggs);
                let tabled: Vec<f64> =
                    avail.iter().map(|&x| sel.expected_utility_tabled(&view, &table, x)).collect();
                let via_scores = sel.scores(&view, aggs, &avail);
                for i in 0..avail.len() {
                    assert_eq!(
                        via_scores[i].to_bits(),
                        tabled[i].to_bits(),
                        "seed {seed} um {um:?} ut {ut:?}: scores/tabled scan diverge at {}",
                        avail[i]
                    );
                    let naive = sel.expected_utility_naive(&view, avail[i]);
                    if via_scores[i].is_finite() || naive.is_finite() {
                        assert!(
                            (via_scores[i] - naive).abs() < 1e-9,
                            "seed {seed} um {um:?} ut {ut:?} x {}: fast {} vs naive {naive}",
                            avail[i],
                            via_scores[i]
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn cached_and_rebuilt_aggregates_select_identically() {
    // The acceptance property: selections driven by the incremental cache
    // are identical to selections recomputed from scratch.
    let ds = toy_text(3);
    for seed in SEEDS {
        let config = IdpConfig { n_iterations: 8, eval_every: 4, seed, ..Default::default() };
        let mut session = Session::new(&ds, config);
        let mut pipeline = StandardPipeline;
        drive(&mut session, &mut pipeline, 8, |s| {
            let cached_view = s.view();
            let uncached_view = SelectionView { aggs: None, ..s.view() };
            for um in USER_MODELS {
                for ut in UTILITIES {
                    let mut sel = SeuSelector::with(um, ut);
                    let mut rng_a = DetRng::new(seed ^ 0xA5);
                    let mut rng_b = DetRng::new(seed ^ 0xA5);
                    assert_eq!(
                        sel.select(&cached_view, &mut rng_a),
                        sel.select(&uncached_view, &mut rng_b),
                        "seed {seed} um {um:?} ut {ut:?}: cached selection diverged"
                    );
                }
            }
        });
    }
}
