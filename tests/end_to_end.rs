//! Cross-crate integration tests: the full IDP loop through the public
//! facade, exercising dataset generation, selection, the simulated user,
//! label/end-model learning, and evaluation together.

use nemo::baselines::{run_method, Method, RunSpec};
use nemo::core::oracle::SimulatedUser;
use nemo::core::{
    run_curve, IdpConfig, NemoSystem, PoolConfig, PoolError, RandomSelector, Session, SessionError,
    SessionPool, SharedArtifacts, StandardPipeline, User,
};
use nemo::data::catalog::{self, toy_text};
use nemo::data::{Dataset, DatasetName, Profile};
use nemo::lf::{Label, PrimitiveLf};
use nemo::sparse::DetRng;

fn quick_spec(seed: u64, iterations: usize) -> RunSpec {
    RunSpec {
        idp: IdpConfig {
            n_iterations: iterations,
            eval_every: iterations / 2,
            seed,
            ..Default::default()
        },
        ..Default::default()
    }
}

#[test]
fn nemo_system_full_loop_on_toy() {
    let ds = toy_text(42);
    let config = IdpConfig { n_iterations: 20, eval_every: 5, seed: 1, ..Default::default() };
    let mut nemo = NemoSystem::new(&ds, config);
    let mut user = SimulatedUser::default();
    let curve = nemo.run_with_user(&mut user).unwrap();
    assert_eq!(curve.points().len(), 4);
    assert!(
        curve.final_score() > 0.55,
        "Nemo should beat chance on the toy task, got {}",
        curve.final_score()
    );
    assert!(nemo.lineage().len() >= 15, "most iterations should yield LFs");
    // Contextualization actually engaged.
    assert!(nemo.outputs().chosen_p.is_some());
}

#[test]
fn every_table2_method_runs_on_a_catalog_dataset() {
    let ds = catalog::build(DatasetName::Youtube, Profile::Smoke, 5);
    for method in Method::TABLE2 {
        let curve = run_method(method, &ds, &quick_spec(2, 10));
        assert_eq!(curve.points().len(), 2, "{}", method.name());
        for &(_, score) in curve.points() {
            assert!((0.0..=1.0).contains(&score), "{} score {score}", method.name());
        }
    }
}

#[test]
fn runs_are_reproducible_across_invocations() {
    let ds = catalog::build(DatasetName::Youtube, Profile::Smoke, 5);
    for method in [Method::Nemo, Method::Snorkel, Method::Us] {
        let a = run_method(method, &ds, &quick_spec(7, 12));
        let b = run_method(method, &ds, &quick_spec(7, 12));
        assert_eq!(a.points(), b.points(), "{} not deterministic", method.name());
    }
}

#[test]
fn seeds_change_trajectories() {
    let ds = toy_text(42);
    let a = run_method(Method::Snorkel, &ds, &quick_spec(1, 12));
    let b = run_method(Method::Snorkel, &ds, &quick_spec(2, 12));
    assert_ne!(a.points(), b.points());
}

#[test]
fn lineage_records_are_consistent_with_dataset() {
    let ds = toy_text(9);
    let config = IdpConfig { n_iterations: 15, eval_every: 5, seed: 3, ..Default::default() };
    let mut nemo = NemoSystem::new(&ds, config);
    let mut user = SimulatedUser::default();
    nemo.run_with_user(&mut user).unwrap();
    for rec in nemo.lineage().tracked() {
        // The LF's primitive is contained in its development example.
        assert!(
            ds.train.corpus.contains(rec.dev_example as usize, rec.lf.z),
            "LF primitive must come from its dev example"
        );
        // The LF's label is the dev example's (oracle) label.
        assert_eq!(rec.lf.y, ds.train.labels[rec.dev_example as usize]);
    }
}

#[test]
fn simulated_user_threshold_controls_lf_quality() {
    let ds = toy_text(11);
    let mean_lf_accuracy = |threshold: f64| -> f64 {
        let spec = RunSpec {
            idp: IdpConfig { n_iterations: 20, eval_every: 10, seed: 5, ..Default::default() },
            user_threshold: threshold,
            noisy_user: None,
        };
        // Use the session API to inspect the lineage afterwards.
        let mut session = Session::new(&ds, spec.idp.clone());
        run_curve(
            &mut session,
            &mut RandomSelector,
            &mut SimulatedUser::with_threshold(threshold),
            &mut StandardPipeline,
        )
        .unwrap();
        let accs: Vec<f64> = session
            .lineage()
            .lfs()
            .iter()
            .filter_map(|lf| lf.accuracy_against(&ds.train.corpus, &ds.train.labels))
            .collect();
        accs.iter().sum::<f64>() / accs.len().max(1) as f64
    };
    let low = mean_lf_accuracy(0.5);
    let high = mean_lf_accuracy(0.8);
    assert!(high > low, "higher threshold must yield more accurate LFs ({high:.3} vs {low:.3})");
}

#[test]
fn f1_task_predicts_minority_class() {
    // On the imbalanced SMS task the tuned threshold must let the end
    // model actually predict spam (F1 > 0 requires at least one true
    // positive).
    let ds = catalog::build(DatasetName::Sms, Profile::Smoke, 5);
    assert_eq!(ds.metric, nemo::lf::Metric::F1);
    let curve = run_method(Method::Snorkel, &ds, &quick_spec(11, 40));
    assert!(
        curve.points().iter().any(|&(_, s)| s > 0.0),
        "spam must be predicted at least once along the curve: {:?}",
        curve.points()
    );
}

#[test]
fn interactive_api_and_batch_api_agree_on_state_shape() {
    let ds = toy_text(13);
    let config = IdpConfig { n_iterations: 5, eval_every: 5, seed: 2, ..Default::default() };
    let mut nemo = NemoSystem::new(&ds, config);
    // Drive manually: suggest → (oracle) → submit.
    let mut rng = nemo::sparse::DetRng::new(17);
    let mut user = SimulatedUser::default();
    for _ in 0..5 {
        let Some(x) = nemo.suggest_example().unwrap() else { break };
        match nemo::core::oracle::User::provide_lf(&mut user, x, &ds, &mut rng) {
            Some(lf) => nemo.submit_lf(lf).unwrap(),
            None => nemo.skip().unwrap(),
        }
    }
    assert_eq!(nemo.iteration(), 5);
    assert_eq!(nemo.outputs().train_probs.len(), ds.train.n());
    let score = nemo.test_score();
    assert!((0.0..=1.0).contains(&score));
}

#[test]
fn explore_primitive_returns_only_covered_examples() {
    let ds = toy_text(3);
    let config = IdpConfig::default();
    let mut nemo = NemoSystem::new(&ds, config);
    let z = ds.lexicon[0];
    let sample = nemo.explore_primitive(z, 8).unwrap();
    assert!(!sample.is_empty());
    for &i in &sample {
        assert!(ds.train.corpus.contains(i as usize, z));
    }
}

/// Regression: a primitive outside the domain used to panic with an
/// out-of-range slice inside the inverted index. It is now the same typed
/// error `submit_lf` returns, and the explorer's sampling state is left
/// untouched.
#[test]
fn explore_primitive_out_of_domain_is_a_typed_error() {
    let ds = toy_text(1);
    let mut nemo = NemoSystem::new(&ds, IdpConfig::default());
    let n_primitives = ds.n_primitives;
    for z in [n_primitives as u32, n_primitives as u32 + 1, u32::MAX] {
        assert_eq!(
            nemo.explore_primitive(z, 5),
            Err(SessionError::PrimitiveOutOfDomain { z, n_primitives })
        );
    }
    let mut fresh = NemoSystem::new(&ds, IdpConfig::default());
    let z = ds.lexicon[0];
    assert_eq!(nemo.explore_primitive(z, 3), fresh.explore_primitive(z, 3));
}

/// A custom user answering every example with the first primitive past
/// the dataset's domain.
struct OutOfDomainUser;

impl User for OutOfDomainUser {
    fn provide_lf(&mut self, _x: usize, ds: &Dataset, _rng: &mut DetRng) -> Option<PrimitiveLf> {
        Some(PrimitiveLf::new(ds.n_primitives as u32, Label::Pos))
    }
}

/// Regression: a custom user's out-of-domain LF used to panic inside the
/// round. It is now the typed error a rejected `submit_lf` returns: nothing
/// is recorded, no iteration is consumed, the round's example stays
/// pending, and `skip` resolves it.
#[test]
fn out_of_domain_user_lf_is_a_typed_round_error() {
    let ds = toy_text(1);
    let n_primitives = ds.n_primitives;
    let mut nemo = NemoSystem::new(&ds, IdpConfig::default());
    let err = nemo.step_with_user(&mut OutOfDomainUser).unwrap_err();
    assert_eq!(err, SessionError::PrimitiveOutOfDomain { z: n_primitives as u32, n_primitives });
    assert_eq!(nemo.iteration(), 0);
    assert_eq!(nemo.lineage().len(), 0);
    let x = nemo.session().pending().expect("the round's example stays pending");
    let err = nemo.step_with_user(&mut SimulatedUser::default()).unwrap_err();
    assert_eq!(err, SessionError::SuggestionPending { pending: x });
    nemo.skip().unwrap();
    assert_eq!(nemo.iteration(), 1);
    assert_eq!(nemo.session().pending(), None);
    nemo.step_with_user(&mut SimulatedUser::default()).unwrap();
    assert_eq!(nemo.iteration(), 2);
}

/// The same custom user through the pool: the round fails with
/// `PoolError::Session` instead of panicking, and the pool counts no round.
#[test]
fn out_of_domain_user_lf_is_a_pool_session_error() {
    let arts = SharedArtifacts::new(toy_text(1));
    let n_primitives = arts.dataset().n_primitives;
    let mut pool = SessionPool::new(&arts, PoolConfig { max_resident: 1, workers: Some(1) });
    let id = pool.admit(IdpConfig::default()).unwrap();
    match pool.run_round(id, &mut OutOfDomainUser) {
        Err(PoolError::Session { id: got, source }) => {
            assert_eq!(got, id.raw());
            assert_eq!(
                source,
                SessionError::PrimitiveOutOfDomain { z: n_primitives as u32, n_primitives }
            );
        }
        other => panic!("expected a session error, got {other:?}"),
    }
    assert_eq!(pool.stats().rounds, 0);
}

#[test]
fn dataset_labels_are_hidden_from_methods_but_not_oracle() {
    // Structural check: the selection view carries no label access path —
    // enforced by convention and verified here by ensuring oracle LFs are
    // label-consistent while selector behavior is label-free (random
    // selection distribution does not depend on a label permutation).
    let ds = toy_text(21);
    let mut flipped = ds.clone();
    for l in &mut flipped.train.labels {
        *l = match *l {
            Label::Pos => Label::Neg,
            Label::Neg => Label::Pos,
        };
    }
    // Same seed, same selector → same selections regardless of labels.
    let select_sequence = |ds: &nemo::data::Dataset| -> Vec<usize> {
        let config = IdpConfig { n_iterations: 6, eval_every: 6, seed: 9, ..Default::default() };
        let mut session = Session::new(ds, config);
        let mut selector = RandomSelector;
        let (mut user, mut pipeline) = (SimulatedUser::default(), StandardPipeline);
        (0..6)
            .filter_map(|_| {
                session.round(&mut selector, &mut user, &mut pipeline).unwrap().selected
            })
            .collect()
    };
    assert_eq!(select_sequence(&ds), select_sequence(&flipped));
}
