//! Contract: a long-lived contextualizer equals a fresh one and a
//! restored one.
//!
//! A contextualizer kept across rounds reuses its grid slots' refined
//! columns and MeTaL pair counts. A fresh contextualizer built every round
//! refines the whole lineage and counts every pair from empty. A restored
//! one starts from the lineage's radii (checkpoints carry those, but no
//! refined columns and no pair counts), so it queries each LF's distances
//! only at the rows the LF covers. Every round the long-lived and the
//! fresh one must decide identically, bit for bit: the chosen percentile,
//! its validation score, the fitted LF accuracies, the train posterior and
//! the tuned matrix, every LF's radii, every grid slot's train and valid
//! columns, and the number of label-model fits. Their `RefineCacheStats`
//! deltas differ only as they should: the long-lived contextualizer
//! filters the new LFs' columns and serves the earlier ones as hits, the
//! fresh one filters them all. Mid-run the long-lived side is replaced by
//! a contextualizer restored from its own radii, as `NemoSystem::restore`
//! does; in that round a contextualizer restored without radii (an older
//! checkpoint) must equal the fresh one too.
//!
//! The same holds a level up: a `NemoSystem` restored mid-run from a
//! checkpoint encoded and decoded by the codec equals an uninterrupted one,
//! and one restored after every round holds the uninterrupted session's
//! SEU aggregates bit for bit.
//! (Whole sessions with a long-lived pipeline against sessions with a fresh
//! pipeline every learning round run through
//! `common::assert_long_lived_sessions_equal_fresh`, from
//! `tests/incremental_paths.rs` and `tests/refine_cache_differential.rs`.)
//! The suite also pins the empty-validation tie-break of `tune_p`.

mod common;

use common::{add_random_lfs, assert_aggs_identical, dataset_with_empty_valid, random_grid, since};
use nemo::core::contextualizer::{Contextualizer, RefineCacheStats};
use nemo::core::oracle::{SimulatedUser, User};
use nemo::core::{ContextualizerConfig, IdpConfig, NemoSystem};
use nemo::data::catalog::{toy_scene_2d, toy_text};
use nemo::data::Dataset;
use nemo::labelmodel::TripletModel;
use nemo::lf::{Label, LabelMatrix, Lineage, PrimitiveLf, Vote};
use nemo::persist::{session_from_bytes, session_to_bytes};
use nemo::sparse::DetRng;
use proptest::prelude::*;

/// Everything a tuning round decides, as bits.
#[derive(Debug, PartialEq)]
struct RoundBits {
    p: u64,
    valid_score: u64,
    accuracies: Vec<u64>,
    train_posterior: Vec<u64>,
    train_matrix: Vec<Vec<(u32, Vote)>>,
}

/// Register `lineage`'s new LFs and tune over its raw train matrix.
fn tune(ctx: &mut Contextualizer, lineage: &Lineage, ds: &Dataset) -> RoundBits {
    ctx.sync(lineage, ds);
    let raw = LabelMatrix::from_lfs(&lineage.lfs(), &ds.train.corpus);
    let t = ctx.tune_p(&raw, ds, &TripletModel::default(), ds.prior());
    let bits = |xs: &[f64]| -> Vec<u64> { xs.iter().map(|x| x.to_bits()).collect() };
    RoundBits {
        p: t.p.to_bits(),
        valid_score: t.valid_score.to_bits(),
        accuracies: bits(t.fitted.lf_accuracies()),
        train_posterior: bits(t.fitted.predict(t.train_matrix).p_pos_slice()),
        train_matrix: t.train_matrix.columns().map(|c| c.entries().to_vec()).collect(),
    }
}

/// `a` and `b` hold the same radii, bit for bit, and every grid slot the
/// same columns, entry for entry (stronger than `==`, which may
/// short-circuit through tokens).
fn assert_slots_identical(a: &Contextualizer, b: &Contextualizer, what: &str) {
    assert_eq!(a.n_registered(), b.n_registered(), "{what}: registered LFs");
    for &p in &a.config().p_grid {
        for j in 0..a.n_registered() {
            let (u, v) = (a.radius(j, p).map(f64::to_bits), b.radius(j, p).map(f64::to_bits));
            assert_eq!(u, v, "{what}: LF {j} radius at p={p}");
        }
        let ((at, av), (bt, bv)) = (a.refined(p).expect("grid"), b.refined(p).expect("grid"));
        for (x, y, split) in [(at, bt, "train"), (av, bv, "valid")] {
            assert_eq!(x.n_lfs(), y.n_lfs(), "{what}: {split} LF count at p={p}");
            assert_eq!(x.n_examples(), y.n_examples(), "{what}: {split} examples at p={p}");
            for j in 0..x.n_lfs() {
                let (u, v) = (x.column(j).entries(), y.column(j).entries());
                assert_eq!(u, v, "{what}: {split} column {j} at p={p}");
            }
        }
    }
}

/// Grow a lineage over `rounds` rounds with `grow(lineage, round)` and
/// check every round a long-lived contextualizer — replaced at round
/// `restore_at` by one restored from its radii, and checked with one
/// restored without them — against a fresh one. Returns each round's
/// tuned percentile.
fn assert_long_lived_equals_fresh(
    ds: &Dataset,
    config: &ContextualizerConfig,
    rounds: usize,
    restore_at: usize,
    mut grow: impl FnMut(&mut Lineage, usize),
) -> Vec<f64> {
    let grid = config.p_grid.len();
    let mut long_lived = Contextualizer::new(config.clone());
    let mut lineage = Lineage::new();
    let mut ps = Vec::new();
    for round in 0..rounds {
        let registered = lineage.len();
        grow(&mut lineage, round);
        let what = format!("{} grid {:?} round {round}", ds.name, config.p_grid);
        let restored = round == restore_at;
        let mut without_radii = None;
        if restored {
            let radii = long_lived.checkpoint_radii(registered);
            assert_eq!(radii.len(), grid * registered, "{what}: radii carried");
            long_lived = Contextualizer::restore(config.clone(), radii, registered)
                .expect("carried radii pass restore's checks");
            without_radii = Some(Contextualizer::new(config.clone()));
        }
        let (before, fits_before) = (long_lived.refine_cache_stats(), long_lived.tune_fits());
        let kept = tune(&mut long_lived, &lineage, ds);
        let mut fresh = Contextualizer::new(config.clone());
        let rebuilt = tune(&mut fresh, &lineage, ds);
        assert_eq!(kept, rebuilt, "{what}: tuning diverged");
        assert_slots_identical(&long_lived, &fresh, &what);
        if let Some(mut bare) = without_radii {
            let what = format!("{what}, restored without radii");
            assert_eq!(tune(&mut bare, &lineage, ds), rebuilt, "{what}: tuning diverged");
            assert_slots_identical(&bare, &fresh, &what);
        }
        assert_eq!(long_lived.tune_fits() - fits_before, fresh.tune_fits(), "{what}: fits");
        let m = lineage.len();
        let new = if restored { m } else { m - registered };
        let delta = since(before, long_lived.refine_cache_stats());
        let expected = RefineCacheStats { hits: grid * (m - new), refilters: grid * new };
        assert_eq!(delta, expected, "{what}: long-lived counters");
        let all = RefineCacheStats { hits: 0, refilters: grid * m };
        assert_eq!(fresh.refine_cache_stats(), all, "{what}: fresh counters");
        ps.push(f64::from_bits(kept.p));
    }
    ps
}

/// 30 rounds of one simulated-user LF each (scanning the pool in strides
/// of 7), restored at round 20; the tuned percentile must move, so more
/// than one slot's pair counts are read.
fn check_simulated_user_run(ds: &Dataset, seed: u64, config: ContextualizerConfig) {
    let mut rng = DetRng::new(seed);
    let mut user = SimulatedUser::default();
    let mut x = 0usize;
    let grow = |lineage: &mut Lineage, _round: usize| {
        for _ in 0..ds.train.n() {
            x = (x + 7) % ds.train.n();
            if let Some(lf) = user.provide_lf(x, ds, &mut rng) {
                lineage.record(lf, x as u32, lineage.len() as u32);
                return;
            }
        }
        panic!("{}: the simulated user wrote no LF anywhere in the pool", ds.name);
    };
    let mut ps = assert_long_lived_equals_fresh(ds, &config, 30, 20, grow);
    ps.dedup();
    assert!(ps.len() > 1, "{} seed {seed}: tuned p never moved", ds.name);
}

fn check_simulated_user_runs(ds: &Dataset) {
    for seed in [1, 2] {
        check_simulated_user_run(ds, seed, ContextualizerConfig::default());
    }
    let odd = ContextualizerConfig { p_grid: vec![60.0, 25.0, 100.0, 60.0], ..Default::default() };
    check_simulated_user_run(ds, 1, odd);
}

#[test]
fn long_lived_tunes_like_fresh_and_restored_on_toy_text() {
    check_simulated_user_runs(&toy_text(1));
}

#[test]
fn long_lived_tunes_like_fresh_and_restored_on_toy_scene() {
    check_simulated_user_runs(&toy_scene_2d(1));
}

/// Random lineages (0–2 LFs a round) on a random grid, restored at
/// round `restore` (never, when that is past the last round).
fn check_random_lineage(ds: &Dataset, p_grid: Vec<f64>, seed: u64, rounds: usize, restore: usize) {
    let mut rng = DetRng::new(seed);
    let config = ContextualizerConfig { p_grid, ..Default::default() };
    let grow = |lineage: &mut Lineage, round| add_random_lfs(ds, &mut rng, lineage, round);
    assert_long_lived_equals_fresh(ds, &config, rounds, restore, grow);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn prop_long_lived_tunes_like_fresh_and_restored_on_random_lineages(
        seed in 0u64..1_000_000,
        rounds in 2usize..6,
        restore in 0usize..8,
        dataset in 0usize..3,
    ) {
        let ds = match dataset {
            0 => toy_text(2),
            1 => toy_scene_2d(2),
            _ => dataset_with_empty_valid(),
        };
        let grid = random_grid(&mut DetRng::new(seed ^ 0x9e37));
        check_random_lineage(&ds, grid, seed, rounds, restore);
    }
}

/// The grid shapes the random ones only sometimes draw, on every dataset:
/// unsorted, with both endpoints and a duplicate.
#[test]
fn unsorted_duplicate_grid_with_endpoints_tunes_like_fresh_and_restored() {
    for ds in [toy_text(2), toy_scene_2d(2), dataset_with_empty_valid()] {
        check_random_lineage(&ds, vec![100.0, 0.0, 50.0, 50.0, 25.0], 5, 5, 3);
    }
}

/// Train-posterior and chosen-`p` bits of a session's current model.
fn output_bits(nemo: &NemoSystem<'_>) -> (Vec<u64>, Option<u64>) {
    let o = nemo.outputs();
    (
        o.train_posterior.p_pos_slice().iter().map(|p| p.to_bits()).collect(),
        o.chosen_p.map(f64::to_bits),
    )
}

/// 30 rounds straight, and 30 rounds with a checkpoint round trip through
/// the codec after round 15: every round's outputs match. The decoded
/// checkpoint carries every LF's radii, so the restore runs the
/// covered-rows registration, not the full one.
#[test]
fn restored_session_equals_uninterrupted_through_the_codec() {
    const ROUNDS: usize = 30;
    for ds in [toy_text(1), toy_scene_2d(1)] {
        let config =
            IdpConfig { n_iterations: ROUNDS, eval_every: ROUNDS, seed: 3, ..Default::default() };
        let mut straight = NemoSystem::new(&ds, config.clone());
        let mut cut = NemoSystem::new(&ds, config);
        let mut users = (SimulatedUser::default(), SimulatedUser::default());
        for round in 0..ROUNDS {
            if round == ROUNDS / 2 {
                let bytes = session_to_bytes(&cut.checkpoint());
                let ckpt = session_from_bytes(&bytes).expect("checkpoint decodes");
                let grid = ContextualizerConfig::default().p_grid.len();
                assert!(!ckpt.lineage.is_empty(), "{}: no LFs to restore", ds.name);
                assert_eq!(ckpt.radii.len(), grid * ckpt.lineage.len(), "{}: radii", ds.name);
                cut = NemoSystem::restore(&ds, &ckpt).expect("checkpoint restores");
            }
            straight.step_with_user(&mut users.0).expect("round runs");
            cut.step_with_user(&mut users.1).expect("round runs");
            assert_eq!(output_bits(&cut), output_bits(&straight), "{}: round {round}", ds.name);
        }
        assert!(straight.outputs().chosen_p.is_some(), "{}: the session never tuned p", ds.name);
    }
}

/// 20 rounds straight, and 20 rounds with a checkpoint round trip through
/// the codec after every round, on three seeds: after every round the
/// restored session's SEU aggregates equal the uninterrupted session's,
/// every field bit for bit.
#[test]
fn session_restored_every_round_holds_uninterrupted_aggregates() {
    const ROUNDS: usize = 20;
    let ds = toy_text(3);
    for seed in [11, 22, 33] {
        let config =
            IdpConfig { n_iterations: ROUNDS, eval_every: ROUNDS, seed, ..Default::default() };
        let mut straight = NemoSystem::new(&ds, config.clone());
        let mut cut = NemoSystem::new(&ds, config);
        let mut users = (SimulatedUser::default(), SimulatedUser::default());
        for round in 0..ROUNDS {
            straight.step_with_user(&mut users.0).expect("round runs");
            cut.step_with_user(&mut users.1).expect("round runs");
            let bytes = session_to_bytes(&cut.checkpoint());
            let ckpt = session_from_bytes(&bytes).expect("checkpoint decodes");
            cut = NemoSystem::restore(&ds, &ckpt).expect("checkpoint restores");
            let what = format!("seed {seed} round {round}");
            assert_eq!(output_bits(&cut), output_bits(&straight), "{what}: outputs");
            assert_aggs_identical(
                cut.session().aggregates(),
                straight.session().aggregates(),
                &what,
            );
        }
    }
}

/// Regression for the degenerate `tune_p` tie-break: with an empty
/// validation split every grid point scores a vacuous 0.0, and the
/// pre-fix `>=` scan silently kept whatever percentile sat *last* in the
/// grid. The fixed behaviour selects the *largest* percentile (widest
/// coverage) explicitly, in the first round and in a round served from
/// kept columns, with the vacuous score reported as exactly 0.0.
#[test]
fn empty_validation_split_selects_widest_coverage_explicitly() {
    // Deliberately unsorted grid with the largest percentile in the
    // middle: the pre-fix code returns 25.0 (last), the fix 100.0.
    let ds = dataset_with_empty_valid();
    let config = ContextualizerConfig { p_grid: vec![50.0, 100.0, 25.0], ..Default::default() };
    let mut ctx = Contextualizer::new(config);
    let mut lineage = Lineage::new();
    for (z, dev) in [(0u32, 0u32), (1, 2), (2, 3)] {
        lineage.record(PrimitiveLf::new(z, Label::Pos), dev, 0);
    }
    ctx.sync(&lineage, &ds);
    let matrix = LabelMatrix::from_lfs(&lineage.lfs(), &ds.train.corpus);
    for round in 0..2 {
        let tuned = ctx.tune_p(&matrix, &ds, &TripletModel::default(), ds.prior());
        assert_eq!(tuned.p, 100.0, "round {round}: widest coverage must win");
        assert_eq!(tuned.valid_score, 0.0, "round {round}: score is vacuously zero");
        // p = 100 keeps every raw vote: refinement must be the identity.
        assert_eq!(tuned.train_matrix.n_lfs(), matrix.n_lfs(), "round {round}: LF count");
        assert_eq!(tuned.train_matrix.n_examples(), matrix.n_examples(), "round {round}");
        for j in 0..matrix.n_lfs() {
            let (got, raw) = (tuned.train_matrix.column(j).entries(), matrix.column(j).entries());
            assert_eq!(got, raw, "round {round}: tuned column {j}");
        }
    }
    assert!(ctx.refine_cache_stats().hits > 0, "second round must read kept columns");
}
