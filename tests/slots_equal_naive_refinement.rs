//! Contract: every grid slot equals the naive refinement.
//!
//! Refinement happens once per LF, at registration: every grid slot keeps
//! each LF's train and valid votes filtered at the LF's radius for that
//! grid point. The claim is **bitwise**: over random lineages grown round
//! by round, on random grids (unsorted, duplicated, with the endpoints 0
//! and 100), on the sparse `toy_text`, on the dense `toy_scene_2d` and on a
//! dataset whose validation split is empty, every radius and every slot
//! column equals the naive refinement — `Features::distances_naive`, then
//! `stats::percentile`, then `LfColumn::from_lf(..).filtered(..)` — after
//! every round's registration.

mod common;

use common::{
    add_random_lfs, assert_slots_equal_naive_refinement, dataset_with_empty_valid, random_grid,
};
use nemo::core::config::ContextualizerConfig;
use nemo::core::contextualizer::Contextualizer;
use nemo::data::catalog::{toy_scene_2d, toy_text};
use nemo::data::Dataset;
use nemo::lf::Lineage;
use nemo::sparse::DetRng;
use proptest::prelude::*;

/// Grow a random lineage over `rounds` rounds, registering each round's
/// LFs, and check every slot against the naive refinement each round.
fn check_random_lineage(ds: &Dataset, p_grid: Vec<f64>, seed: u64, rounds: usize) {
    let mut rng = DetRng::new(seed);
    let mut ctx = Contextualizer::new(ContextualizerConfig { p_grid, ..Default::default() });
    let mut lineage = Lineage::new();
    for round in 0..rounds {
        add_random_lfs(ds, &mut rng, &mut lineage, round);
        ctx.sync(&lineage, ds);
        assert_slots_equal_naive_refinement(&ctx, &lineage, ds);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn prop_slots_equal_naive_refinement_on_random_lineages(
        seed in 0u64..1_000_000,
        rounds in 2usize..6,
        dataset in 0usize..3,
    ) {
        let ds = match dataset {
            0 => toy_text(2),
            1 => toy_scene_2d(2),
            _ => dataset_with_empty_valid(),
        };
        let grid = random_grid(&mut DetRng::new(seed ^ 0x9e37));
        check_random_lineage(&ds, grid, seed, rounds);
    }
}

/// The grid shapes the random ones only sometimes draw, on every dataset:
/// unsorted, with both endpoints and a duplicate.
#[test]
fn unsorted_duplicate_grid_with_endpoints_matches_naive_refinement() {
    for ds in [toy_text(2), toy_scene_2d(2), dataset_with_empty_valid()] {
        check_random_lineage(&ds, vec![100.0, 0.0, 50.0, 50.0, 25.0], 5, 5);
    }
}
