//! Disconnect/resume differential tests: a session checkpointed to a real
//! file, loaded back, and restored must behave **bit-identically** to one
//! that was never interrupted — same selections, same tuned percentiles,
//! same posterior bits, same test score.

use nemo::core::oracle::{SimulatedUser, User};
use nemo::core::{IdpConfig, NemoSystem, RestoreError};
use nemo::data::catalog::{self, toy_text};
use nemo::data::{Dataset, DatasetName, Profile};
use nemo::persist::{load_session, save_session, session_to_bytes};
use nemo::sparse::DetRng;
use proptest::prelude::*;

/// Drive `rounds` interactive iterations through the public API, returning
/// the selected example per round. The user's randomness comes from the
/// caller's `rng` so both legs of a differential can replay it exactly.
fn drive(
    nemo: &mut NemoSystem<'_>,
    ds: &Dataset,
    user: &SimulatedUser,
    rng: &mut DetRng,
    rounds: usize,
) -> Vec<usize> {
    let mut user = user.clone();
    (0..rounds)
        .map(|_| {
            let x = nemo
                .suggest_example()
                .expect("protocol driven in order")
                .expect("pool not exhausted in short runs");
            match user.provide_lf(x, ds, rng) {
                Some(lf) => nemo.submit_lf(lf).expect("oracle LFs are in-domain"),
                None => nemo.skip().expect("suggestion pending"),
            }
            x
        })
        .collect()
}

/// Bit-level fingerprint of everything the models produced: train
/// posterior bits, train probs bits, valid/test prediction signs, the
/// tuned percentile's bits, and the test score's bits.
type OutputBits = (Vec<u64>, Vec<u64>, Vec<i8>, Vec<i8>, Option<u64>, u64);

fn output_bits(nemo: &NemoSystem<'_>) -> OutputBits {
    let o = nemo.outputs();
    (
        o.train_posterior.p_pos_slice().iter().map(|p| p.to_bits()).collect(),
        o.train_probs.iter().map(|p| p.to_bits()).collect(),
        o.valid_pred.iter().map(|l| l.sign()).collect(),
        o.test_pred.iter().map(|l| l.sign()).collect(),
        o.chosen_p.map(f64::to_bits),
        nemo.test_score().to_bits(),
    )
}

/// One interrupted-vs-uninterrupted differential: run `total` rounds
/// straight; run `cut` rounds, checkpoint through a real file, restore,
/// finish the remaining rounds. Everything observable must match bitwise.
fn assert_resume_identical(ds: &Dataset, config: IdpConfig, total: usize, cut: usize) {
    let user = SimulatedUser::default();
    let user_seed = config.seed ^ 0x00D1_F00D;

    let mut reference = NemoSystem::new(ds, config.clone());
    let mut ref_rng = DetRng::new(user_seed);
    let ref_selections = drive(&mut reference, ds, &user, &mut ref_rng, total);

    let mut interrupted = NemoSystem::new(ds, config);
    let mut rng = DetRng::new(user_seed);
    let mut selections = drive(&mut interrupted, ds, &user, &mut rng, cut);

    // Checkpoint through an actual file (crash-safe write + full load
    // path), then drop the live session — the restored one stands alone.
    // One directory per call: tests run in parallel and each removes its
    // directory when done.
    let dir = std::env::temp_dir().join(format!("nemo-ckpt-{}-{total}-{cut}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.ckpt");
    save_session(&path, &interrupted.checkpoint()).unwrap();
    let (rng_state, gauss) = rng.raw_state();
    drop(interrupted);

    let ckpt = load_session(&path).unwrap();
    let mut resumed = NemoSystem::restore(ds, &ckpt).expect("checkpoint restores");
    let mut rng = DetRng::from_raw_state(rng_state, gauss).unwrap();
    selections.extend(drive(&mut resumed, ds, &user, &mut rng, total - cut));

    assert_eq!(selections, ref_selections, "selection sequence diverged after resume");
    assert_eq!(output_bits(&resumed), output_bits(&reference), "model outputs diverged bitwise");
    assert_eq!(resumed.lineage().tracked(), reference.lineage().tracked());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn restored_session_matches_uninterrupted_run() {
    let ds = toy_text(33);
    let config = IdpConfig { n_iterations: 8, eval_every: 4, seed: 5, ..Default::default() };
    assert_resume_identical(&ds, config, 8, 4);
}

#[test]
fn resume_after_first_round_and_before_last_round() {
    // The boundary cuts: right after the first learning round, and with a
    // single round left.
    let ds = toy_text(12);
    for cut in [1, 5] {
        let config = IdpConfig { n_iterations: 6, eval_every: 6, seed: 3, ..Default::default() };
        assert_resume_identical(&ds, config, 6, cut);
    }
}

#[test]
fn late_cut_resume_is_bit_identical_on_every_catalog_dataset() {
    // A cut at round 45 of 50, after the lineage and the label model have
    // grown for 45 rounds, checks the resumed selections on every catalog
    // dataset, sparse and dense.
    for name in DatasetName::ALL {
        let ds = catalog::build(name, Profile::Smoke, 1);
        let config = IdpConfig { n_iterations: 50, eval_every: 50, seed: 1, ..Default::default() };
        assert_resume_identical(&ds, config, 50, 45);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]
    #[test]
    fn resume_is_bit_identical_across_seeds_and_cut_points(seed in 0u64..1_000, cut in 1usize..5) {
        let ds = toy_text(77);
        let config = IdpConfig { n_iterations: 5, eval_every: 5, seed, ..Default::default() };
        assert_resume_identical(&ds, config, 5, cut);
    }
}

#[test]
fn checkpoint_file_reloads_as_written() {
    let ds = toy_text(4);
    let config = IdpConfig { n_iterations: 3, eval_every: 3, seed: 1, ..Default::default() };
    let mut nemo = NemoSystem::new(&ds, config);
    let user = SimulatedUser::default();
    let mut rng = DetRng::new(11);
    drive(&mut nemo, &ds, &user, &mut rng, 3);

    let dir = std::env::temp_dir().join(format!("nemo-ckpt-rt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("session.ckpt");
    let ckpt = nemo.checkpoint();
    save_session(&path, &ckpt).unwrap();
    let loaded = load_session(&path).unwrap();
    assert_eq!(session_to_bytes(&loaded), session_to_bytes(&ckpt));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_restores_only_against_a_matching_dataset() {
    let ds = toy_text(8);
    let config = IdpConfig { n_iterations: 4, eval_every: 4, seed: 2, ..Default::default() };
    let mut nemo = NemoSystem::new(&ds, config);
    let user = SimulatedUser::default();
    let mut rng = DetRng::new(7);
    drive(&mut nemo, &ds, &user, &mut rng, 4);
    let ckpt = nemo.checkpoint();
    assert!(!ckpt.columns.is_empty(), "the session collected no LFs");

    // The restore validation must reject the checkpoint with a typed error
    // instead of building a broken session: against a structurally
    // different dataset, and against another draw of the same generator
    // (same split sizes and primitive count, different documents).
    let youtube = catalog::build(DatasetName::Youtube, Profile::Smoke, 5);
    assert!(matches!(
        NemoSystem::restore(&youtube, &ckpt),
        Err(RestoreError::LengthMismatch { .. } | RestoreError::LineageOutOfDomain { .. })
    ));
    let same_shape = toy_text(9);
    assert_eq!(
        (same_shape.train.n(), same_shape.valid.n(), same_shape.test.n(), same_shape.n_primitives),
        (ds.train.n(), ds.valid.n(), ds.test.n(), ds.n_primitives),
    );
    assert!(matches!(
        NemoSystem::restore(&same_shape, &ckpt),
        Err(RestoreError::MalformedColumn { .. })
    ));
}
