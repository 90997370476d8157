//! Contract: a full session over the production distances ends with
//! slots equal to the naive refinement.
//!
//! A full interactive `Session` (SEU selection + simulated user +
//! contextualized learning) registers its LFs through
//! `Features::distances` (the inverted-index kernel on sparse features).
//! After every run, each registered LF's radius and refined columns at
//! every grid point must equal the naive refinement built from
//! `Features::distances_naive`, the pre-index reference, bit for bit: the
//! query performs the same float operations as the scan, so any drift is a
//! kernel bug, not rounding. This holds on the sparse text dataset and on
//! the dense scene dataset, with one LF a round and with several. (The
//! tests keep their earlier names, from when a session could run over
//! either distance engine.)

mod common;

use common::assert_slots_equal_naive_refinement;
use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::{toy_scene_2d, toy_text};
use nemo::data::Dataset;

/// Run a 12-round session and check its contextualizer against the naive
/// refinement.
fn check_session(ds: &Dataset, seed: u64, lfs_per_iteration: usize) {
    let config = IdpConfig {
        n_iterations: 12,
        eval_every: 4,
        seed,
        lfs_per_iteration,
        ..Default::default()
    };
    let mut session = Session::new(ds, config);
    let mut selector = SeuSelector::new();
    let mut user = SimulatedUser::default();
    let mut pipeline = ContextualizedPipeline::new(ContextualizerConfig::default());
    let mut tuned = false;
    for _ in 0..12 {
        session.round(&mut selector, &mut user, &mut pipeline).unwrap();
        tuned |= session.outputs().chosen_p.is_some();
    }
    // The run actually collected LFs and tuned p (a vacuous run would
    // make the oracle check pass trivially).
    assert!(tuned, "{}: contextualizer never tuned p (seed {seed})", ds.name);
    assert_slots_equal_naive_refinement(pipeline.contextualizer(), session.lineage(), ds);
}

#[test]
fn full_session_identical_across_engines() {
    let ds = toy_text(1);
    for seed in [1u64, 5, 9] {
        check_session(&ds, seed, 1);
    }
}

/// `lfs_per_iteration > 1` registers several LFs in one `sync`.
#[test]
fn full_session_identical_across_engines_multi_lf_rounds() {
    check_session(&toy_text(1), 3, 3);
}

/// The sparse text dataset and the dense 2-D scene dataset.
#[test]
fn full_session_identical_across_engines_on_text_and_scene() {
    for ds in [toy_text(1), toy_scene_2d(1)] {
        check_session(&ds, 7, 1);
    }
}
