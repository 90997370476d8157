//! Column sharing across label matrices and a session's grid serves.
//!
//! Matrices own their columns; what two matrices can share is a column's
//! construction token. A column cloned into several matrices keeps its
//! token, so the matrices compare equal through the token fast path. A
//! full session's `tune_p` rounds must serve every refined column of every
//! grid point from the contextualizer's grid slots, filtering each
//! `(grid point, LF)` column exactly once.

use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::toy_text;
use nemo::lf::{LabelMatrix, LfColumn, Vote};
use proptest::prelude::*;

/// Deduplicate raw `(example, sign)` pairs into the sorted-unique entry
/// list [`LfColumn::new`] accepts (first occurrence of an example wins).
fn to_entries(pairs: &[(u32, bool)]) -> Vec<(u32, Vote)> {
    let mut seen = std::collections::BTreeMap::new();
    for &(i, pos) in pairs {
        seen.entry(i).or_insert(pos);
    }
    seen.into_iter().map(|(i, pos)| (i, if pos { 1 } else { -1 })).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Token fast path: clones of one construction pushed onto two
    /// matrices keep its token and compare equal, and a clone of either
    /// matrix keeps the tokens too.
    #[test]
    fn prop_shared_handles_share_tokens(
        raw in proptest::collection::vec((0u32..24, proptest::bool::ANY), 0..12),
    ) {
        let col = LfColumn::new(to_entries(&raw));
        let mut a = LabelMatrix::new(24);
        let mut b = LabelMatrix::new(24);
        a.push(col.clone());
        b.push(col.clone());
        prop_assert_eq!(a.column(0).token(), col.token());
        prop_assert_eq!(a.column(0).token(), b.column(0).token());
        prop_assert_eq!(&a, &b);
        let snap = a.clone();
        prop_assert_eq!(snap.column(0).token(), col.token());
        prop_assert_eq!(&snap, &b);
        // A fresh construction of the same contents gets its own token
        // but stays content-equal.
        let mut c = LabelMatrix::new(24);
        c.push(LfColumn::new(to_entries(&raw)));
        prop_assert_ne!(c.column(0).token(), col.token());
        prop_assert_eq!(&c, &a);
    }
}

/// A full interactive `Session` (SEU selection + simulated user +
/// contextualized MeTaL learning) serves every `(grid point, LF)` column of
/// every round from the grid slots: each round's kept plus refiltered
/// columns equal `grid · lfs`, and each column is filtered only once.
#[test]
fn session_grid_serves_are_all_shared() {
    let ds = toy_text(3);
    let grid = ContextualizerConfig::default().p_grid.len();
    for seed in [5u64, 17] {
        let config = IdpConfig { n_iterations: 10, eval_every: 5, seed, ..Default::default() };
        let mut session = Session::new(&ds, config);
        let mut selector = SeuSelector::new();
        let mut user = SimulatedUser::default();
        let mut pipeline = ContextualizedPipeline::new(ContextualizerConfig::default());
        let mut served = 0;
        for round in 0..10 {
            let before = pipeline.contextualizer().refine_cache_stats();
            session.round(&mut selector, &mut user, &mut pipeline).unwrap();
            let after = pipeline.contextualizer().refine_cache_stats();
            let round_served = (after.hits + after.refilters) - (before.hits + before.refilters);
            assert_eq!(
                round_served,
                grid * session.lineage().len(),
                "seed {seed}, round {round}: a grid point was served without all its columns"
            );
            served += round_served;
        }
        let stats = pipeline.contextualizer().refine_cache_stats();
        let n_lfs = session.lineage().len();
        assert_eq!(
            stats.refilters,
            grid * n_lfs,
            "seed {seed}: warm rounds refiltered cached columns"
        );
        assert_eq!(stats.hits + stats.refilters, served);
        assert!(stats.hits > 0, "seed {seed}: cache never hit");
    }
}
