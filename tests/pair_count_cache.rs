//! The per-grid-slot MeTaL pair-count cache in `Contextualizer::tune_p`
//! is a cache, not a warm start: a contextualizer that keeps its refined
//! columns and counts across 30 rounds must tune exactly as a fresh
//! contextualizer does every round (the restored-round path) — the same
//! chosen `p`, validation score, LF accuracies and train posterior, bit
//! for bit — including after a mid-run checkpoint restore (which carries
//! no counts), on a default grid and on an unsorted grid with a
//! duplicate. Their counter deltas differ only as they should: the kept
//! contextualizer filters one new LF's columns a round, the fresh one all.
//! A second test drives whole `NemoSystem` sessions through a real
//! checkpoint round trip.

use nemo::core::contextualizer::{RefineCacheStats, TunedRefinement};
use nemo::core::oracle::{SimulatedUser, User};
use nemo::core::{Contextualizer, ContextualizerConfig, IdpConfig, NemoSystem};
use nemo::data::catalog::{toy_scene_2d, toy_text};
use nemo::data::Dataset;
use nemo::labelmodel::TripletModel;
use nemo::lf::{LabelMatrix, LfColumn, Lineage};
use nemo::persist::{session_from_bytes, session_to_bytes};
use nemo::sparse::DetRng;

const ROUNDS: usize = 30;

/// Everything a tuning round decides, as bits.
#[derive(Debug, PartialEq)]
struct RoundBits {
    p: u64,
    valid_score: u64,
    accuracies: Vec<u64>,
    train_posterior: Vec<u64>,
}

fn round_bits(t: &TunedRefinement) -> RoundBits {
    RoundBits {
        p: t.p.to_bits(),
        valid_score: t.valid_score.to_bits(),
        accuracies: t.fitted.lf_accuracies().iter().map(|a| a.to_bits()).collect(),
        train_posterior: t
            .fitted
            .predict(&t.train_matrix)
            .p_pos_slice()
            .iter()
            .map(|p| p.to_bits())
            .collect(),
    }
}

fn tune(ctx: &mut Contextualizer, lineage: &Lineage, raw: &LabelMatrix, ds: &Dataset) -> RoundBits {
    ctx.sync(lineage, ds);
    round_bits(&ctx.tune_p(raw, ds, &TripletModel::default(), ds.prior()))
}

/// Add one simulated-user LF, scanning the pool from `*x` in strides.
fn add_lf(
    ds: &Dataset,
    user: &mut SimulatedUser,
    rng: &mut DetRng,
    x: &mut usize,
    lineage: &mut Lineage,
    raw: &mut LabelMatrix,
) {
    for _ in 0..ds.train.n() {
        *x = (*x + 7) % ds.train.n();
        if let Some(lf) = user.provide_lf(*x, ds, rng) {
            lineage.record(lf, *x as u32, lineage.len() as u32);
            raw.push(LfColumn::from_lf(&lf, &ds.train.corpus));
            return;
        }
    }
    panic!("{}: the simulated user wrote no LF anywhere in the pool", ds.name);
}

fn assert_cache_invisible(ds: &Dataset, seed: u64, config: ContextualizerConfig) {
    let grid = config.p_grid.len();
    let mut rng = DetRng::new(seed);
    let mut user = SimulatedUser::default();
    let mut lineage = Lineage::new();
    let mut raw = LabelMatrix::new(ds.train.n());
    let mut x = 0usize;
    let mut long_lived = Contextualizer::new(config.clone());
    let mut distinct_ps = Vec::new();
    for round in 0..ROUNDS {
        add_lf(ds, &mut user, &mut rng, &mut x, &mut lineage, &mut raw);
        let restored = round == 20;
        if restored {
            // A checkpoint restore: a new contextualizer, which carries
            // no refined columns and no pair counts.
            long_lived = Contextualizer::new(config.clone());
        }
        let before = long_lived.refine_cache_stats();
        let cached = tune(&mut long_lived, &lineage, &raw, ds);
        let mut rebuilt = Contextualizer::new(config.clone());
        let fresh = tune(&mut rebuilt, &lineage, &raw, ds);
        assert_eq!(cached, fresh, "{} seed {seed}: round {round} diverged", ds.name);
        let after = long_lived.refine_cache_stats();
        let m = lineage.len();
        let new = if restored { m } else { 1 };
        let delta = RefineCacheStats {
            hits: after.hits - before.hits,
            refilters: after.refilters - before.refilters,
        };
        let what = format!("{} seed {seed}: round {round} counters", ds.name);
        assert_eq!(
            delta,
            RefineCacheStats { hits: grid * (m - new), refilters: grid * new },
            "{what}"
        );
        assert_eq!(rebuilt.refine_cache_stats(), RefineCacheStats { hits: 0, refilters: grid * m });
        if !distinct_ps.contains(&cached.p) {
            distinct_ps.push(cached.p);
        }
    }
    assert_eq!(lineage.len(), ROUNDS);
    // The run exercised more than one refinement, so several slots' caches
    // were served (a single-`p` run would leave most of the grid unread).
    assert!(distinct_ps.len() > 1, "{} seed {seed}: tuned p never moved", ds.name);
}

#[test]
fn cached_pair_counts_tune_like_fresh_contextualizers_on_toy_text() {
    let ds = toy_text(1);
    for seed in [1, 2] {
        assert_cache_invisible(&ds, seed, ContextualizerConfig::default());
    }
    let odd = ContextualizerConfig { p_grid: vec![60.0, 25.0, 100.0, 60.0], ..Default::default() };
    assert_cache_invisible(&ds, 1, odd);
}

#[test]
fn cached_pair_counts_tune_like_fresh_contextualizers_on_toy_scene() {
    let ds = toy_scene_2d(1);
    for seed in [1, 2] {
        assert_cache_invisible(&ds, seed, ContextualizerConfig::default());
    }
    let odd = ContextualizerConfig { p_grid: vec![60.0, 25.0, 100.0, 60.0], ..Default::default() };
    assert_cache_invisible(&ds, 1, odd);
}

/// Train-posterior and chosen-`p` bits of a session's current model.
fn output_bits(nemo: &NemoSystem<'_>) -> (Vec<u64>, Option<u64>) {
    let o = nemo.outputs();
    (
        o.train_posterior.p_pos_slice().iter().map(|p| p.to_bits()).collect(),
        o.chosen_p.map(f64::to_bits),
    )
}

/// Run 30 rounds straight, and 30 rounds with a checkpoint round trip
/// through the codec after round 15; every round's outputs must match.
fn assert_restore_recounts_identically(ds: &Dataset) {
    let config =
        IdpConfig { n_iterations: ROUNDS, eval_every: ROUNDS, seed: 3, ..Default::default() };
    let mut straight = NemoSystem::new(ds, config.clone());
    let mut cut = NemoSystem::new(ds, config);
    let mut users = (SimulatedUser::default(), SimulatedUser::default());
    for round in 0..ROUNDS {
        if round == ROUNDS / 2 {
            let bytes = session_to_bytes(&cut.checkpoint());
            let ckpt = session_from_bytes(&bytes).expect("checkpoint decodes");
            cut = NemoSystem::restore(ds, &ckpt).expect("checkpoint restores");
        }
        straight.step_with_user(&mut users.0).expect("round runs");
        cut.step_with_user(&mut users.1).expect("round runs");
        assert_eq!(output_bits(&cut), output_bits(&straight), "{}: round {round}", ds.name);
    }
    assert!(straight.outputs().chosen_p.is_some(), "{}: the session never tuned p", ds.name);
}

#[test]
fn restored_sessions_recount_to_the_same_outputs() {
    assert_restore_recounts_identically(&toy_text(1));
    assert_restore_recounts_identically(&toy_scene_2d(1));
}
