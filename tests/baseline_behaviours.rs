//! Integration tests pinning the qualitative behaviours of the baseline
//! methods — the properties the paper's comparison relies on, checked on
//! small planted datasets so they are fast and deterministic.

use nemo::baselines::{run_method, AbstainSelector, ImplyLossPipeline, Method, RunSpec};
use nemo::core::config::IdpConfig;
use nemo::core::idp::{run_curve, RandomSelector, Selector};
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::StandardPipeline;
use nemo::core::session::Session;
use nemo::data::catalog::{build, toy_text, DatasetName, Profile};
use nemo::sparse::stats::mean;

fn spec(seed: u64, n: usize) -> RunSpec {
    RunSpec {
        idp: IdpConfig { n_iterations: n, eval_every: n / 2, seed, ..Default::default() },
        ..Default::default()
    }
}

#[test]
fn lf_supervision_beats_label_supervision_on_toy() {
    // The IDP-vs-active-learning contrast (paper Sec. 3 / Table 2): with
    // the same query budget, LFs label many examples per query and the
    // weak-supervision pipeline should beat single-label AL on the toy
    // task, averaged over seeds.
    let ds = toy_text(2);
    let mut snorkel = Vec::new();
    let mut us = Vec::new();
    for seed in 0..4 {
        snorkel.push(run_method(Method::Snorkel, &ds, &spec(seed, 20)).summary());
        us.push(run_method(Method::Us, &ds, &spec(seed, 20)).summary());
    }
    assert!(
        mean(&snorkel) > mean(&us),
        "Snorkel {:.3} should beat US {:.3} at equal budget",
        mean(&snorkel),
        mean(&us)
    );
}

#[test]
fn abstain_selector_accelerates_coverage() {
    // Snorkel-Abs exists to cover uncovered data; verify its coverage
    // after a fixed budget is at least Random's.
    let ds = toy_text(3);
    // Re-run through the session API to inspect the matrix.
    fn coverage_of(ds: &nemo::data::Dataset, mut selector: impl Selector) -> f64 {
        let config = IdpConfig { n_iterations: 15, eval_every: 15, seed: 4, ..Default::default() };
        let mut session = Session::new(ds, config);
        run_curve(
            &mut session,
            &mut selector,
            &mut SimulatedUser::default(),
            &mut StandardPipeline,
        )
        .unwrap();
        session.matrix().coverage_frac()
    }
    let random_cov = coverage_of(&ds, RandomSelector);
    let abstain_cov = coverage_of(&ds, AbstainSelector);
    assert!(
        abstain_cov >= random_cov * 0.9,
        "abstain coverage {abstain_cov:.3} vs random {random_cov:.3}"
    );
}

#[test]
fn active_weasul_uses_its_warmup_budget_for_lfs() {
    // AW runs Snorkel for its first 10 iterations; with a 10-iteration
    // budget it must behave like Snorkel (same selection mechanics).
    let ds = toy_text(5);
    let aw = run_method(Method::ActiveWeasul, &ds, &spec(3, 10));
    assert_eq!(aw.points().len(), 2);
    for &(_, s) in aw.points() {
        assert!((0.0..=1.0).contains(&s));
    }
}

#[test]
fn iws_queries_lfs_not_examples() {
    // IWS's budget buys LF feedback; its curve must be well-formed and
    // its behavior deterministic per seed even though its interaction
    // contract differs from the IDP methods.
    let ds = toy_text(5);
    let a = run_method(Method::IwsLse, &ds, &spec(8, 12));
    let b = run_method(Method::IwsLse, &ds, &spec(8, 12));
    assert_eq!(a.points(), b.points());
}

#[test]
fn al_runner_exhausts_pool_gracefully() {
    // More iterations than training examples: the AL loop must not panic
    // and keeps evaluating with the full labeled set.
    let ds = toy_text(6);
    let n = ds.train.n() + 5;
    let spec = RunSpec {
        idp: IdpConfig { n_iterations: n, eval_every: n, seed: 1, ..Default::default() },
        ..Default::default()
    };
    let curve = run_method(Method::Us, &ds, &spec);
    assert_eq!(curve.points().len(), 1);
    // With every label revealed, AL ≈ fully supervised: decisively
    // better than chance on the toy task.
    assert!(curve.final_score() > 0.7, "full-supervision score {}", curve.final_score());
}

#[test]
fn implyloss_exemplar_supervision_shows_up() {
    // ImplyLoss trains its classifier on (dev example, label) pairs; its
    // predictions on the dev exemplars should agree with the user's
    // labels far above chance.
    let ds = toy_text(7);
    let config = IdpConfig { n_iterations: 12, eval_every: 12, seed: 2, ..Default::default() };
    let mut session = Session::new(&ds, config);
    run_curve(
        &mut session,
        &mut RandomSelector,
        &mut SimulatedUser::default(),
        &mut ImplyLossPipeline::default(),
    )
    .unwrap();
    let outputs = session.outputs();
    let tracked = session.lineage().tracked();
    assert!(!tracked.is_empty());
    let agree = tracked
        .iter()
        .filter(|rec| {
            let p = outputs.train_probs[rec.dev_example as usize];
            (p >= 0.5) == (rec.lf.y == nemo::lf::Label::Pos)
        })
        .count();
    assert!(
        agree * 3 >= tracked.len() * 2,
        "classifier should fit most exemplars: {agree}/{}",
        tracked.len()
    );
}

#[test]
fn all_selection_only_methods_share_the_learning_pipeline() {
    // Snorkel, Abs, and Dis differ only in selection; on a fixed LF set
    // their learning must be identical. Verify by checking that with a
    // 1-iteration budget and the same seed the three produce the same
    // *kind* of outputs (scores in range, 1 curve point).
    let ds = toy_text(9);
    for method in [Method::Snorkel, Method::SnorkelAbs, Method::SnorkelDis] {
        let c = run_method(method, &ds, &spec(5, 2));
        // spec(·, 2) evaluates every iteration (eval_every = 1).
        assert_eq!(c.points().len(), 2, "{}", method.name());
        for &(_, s) in c.points() {
            assert!((0.0..=1.0).contains(&s), "{}", method.name());
        }
    }
}

#[test]
fn zero_eval_every_runs_every_method_without_curve_points() {
    // `eval_every: 0` means no evaluation points, not a division by zero.
    let ds = toy_text(1);
    let spec = RunSpec {
        idp: IdpConfig { n_iterations: 3, eval_every: 0, seed: 2, ..Default::default() },
        ..Default::default()
    };
    for method in [
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
    ] {
        let curve = run_method(method, &ds, &spec);
        assert!(curve.points().is_empty(), "{}: {:?}", method.name(), curve.points());
    }
}

#[test]
fn nemo_beats_iws_lse_per_query_on_amazon() {
    // The paper's Table 2 ordering at an equal oracle-query budget: SEU
    // with the contextualizer ahead of IWS-LSE's learned candidate
    // ranking (Boecking et al.), which needs far more answers before its
    // usefulness model ranks well. Results are deterministic.
    let ds = build(DatasetName::Amazon, Profile::Quick, 3);
    let spec = RunSpec {
        idp: IdpConfig { n_iterations: 25, eval_every: 5, seed: 17, ..Default::default() },
        ..Default::default()
    };
    let nemo = run_method(Method::Nemo, &ds, &spec).final_score();
    let iws = run_method(Method::IwsLse, &ds, &spec).final_score();
    assert!(nemo >= 0.55, "Nemo's final score {nemo:.4} fell below 0.55");
    assert!(nemo > iws, "Nemo {nemo:.4} should beat IWS-LSE {iws:.4} at 25 queries");
}
