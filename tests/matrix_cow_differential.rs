//! Differential property suite for the copy-on-write `Arc<LfColumn>`
//! matrix storage.
//!
//! The CoW claims are *representation* claims, so the properties compare
//! observable behaviour across construction paths: a matrix assembled
//! from owned columns, one assembled from shared handles of the same
//! contents, and clones of either must be indistinguishable through the
//! whole read API — while mutation through [`LabelMatrix::column_mut`]
//! must break sharing for exactly the edited column and leak into no
//! other holder. A full session's `tune_p` rounds must serve every
//! refined column as a shared handle.

use nemo::core::config::{ContextualizerConfig, IdpConfig, LabelModelKind};
use nemo::core::engines::{ExampleEngine, SelectionEngine};
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::toy_text;
use nemo::lf::{LabelMatrix, LfColumn, Vote};
use nemo::sparse::DetRng;
use proptest::prelude::*;
use std::sync::Arc;

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

    /// Owned pushes, shared pushes of the same contents, and clones are
    /// observably identical matrices.
    #[test]
    fn prop_owned_and_shared_construction_indistinguishable(
        raw_cols in proptest::collection::vec(
            proptest::collection::vec((0u32..24, proptest::bool::ANY), 0..12), 1..8),
    ) {
        let n = 24usize;
        let cols: Vec<Vec<(u32, Vote)>> = raw_cols.iter().map(|c| to_entries(c)).collect();
        let mut owned = LabelMatrix::new(n);
        let mut shared = LabelMatrix::new(n);
        for entries in &cols {
            owned.push(LfColumn::new(entries.clone()));
            shared.push_shared(Arc::new(LfColumn::new(entries.clone())));
        }
        prop_assert_eq!(&owned, &shared);
        prop_assert_eq!(owned.vote_summaries(), shared.vote_summaries());
        prop_assert_eq!(owned.coverage_frac(), shared.coverage_frac());
        for i in 0..n as u32 {
            prop_assert_eq!(owned.row(i), shared.row(i));
        }
        // Construction tokens differ everywhere (distinct constructions),
        // so equality above exercised the content path, not the fast path.
        for j in 0..owned.n_lfs() {
            prop_assert_ne!(owned.column(j).token(), shared.column(j).token());
        }
        // Clones share every buffer and stay equal.
        let snap = owned.clone();
        prop_assert_eq!(snap.shared_columns_with(&owned), owned.n_lfs());
        prop_assert_eq!(&snap, &owned);
    }

    /// Token fast path: two handles of one construction compare equal
    /// without entry scans, and a clone of the matrix keeps tokens.
    #[test]
    fn prop_shared_handles_share_tokens(
        raw in proptest::collection::vec((0u32..24, proptest::bool::ANY), 0..12),
    ) {
        let col = Arc::new(LfColumn::new(to_entries(&raw)));
        let mut a = LabelMatrix::new(24);
        let mut b = LabelMatrix::new(24);
        a.push_shared(Arc::clone(&col));
        b.push_shared(col);
        prop_assert_eq!(a.column(0).token(), b.column(0).token());
        prop_assert!(Arc::ptr_eq(a.shared_column(0), b.shared_column(0)));
        prop_assert_eq!(&a, &b);
    }

    /// Mutation-after-share: editing one column of one holder through the
    /// CoW API must not change any other holder, must unshare exactly the
    /// edited column, and must restamp its token.
    #[test]
    fn prop_mutation_after_share_is_isolated(
        raw_cols in proptest::collection::vec(
            proptest::collection::vec((0u32..24, proptest::bool::ANY), 0..12), 2..8),
        edit_seed in 0u64..1_000_000,
    ) {
        let n = 24usize;
        let mut a = LabelMatrix::new(n);
        for raw in &raw_cols {
            a.push(LfColumn::new(to_entries(raw)));
        }
        let b = a.clone();
        let mut rng = DetRng::new(edit_seed);
        let j = rng.index(a.n_lfs());
        let drop_below = rng.index(n) as u32;
        let before_entries: Vec<(u32, Vote)> = a.column(j).entries().to_vec();
        let before_token = a.column(j).token();
        a.column_mut(j).retain(|i| i >= drop_below);

        // The edited holder sees the filtered column with a fresh token…
        let expect: Vec<(u32, Vote)> =
            before_entries.iter().copied().filter(|&(i, _)| i >= drop_below).collect();
        prop_assert_eq!(a.column(j).entries(), expect.as_slice());
        prop_assert_ne!(a.column(j).token(), before_token);
        // …the other holder keeps the original votes and token…
        prop_assert_eq!(b.column(j).entries(), before_entries.as_slice());
        prop_assert_eq!(b.column(j).token(), before_token);
        prop_assert!(!Arc::ptr_eq(a.shared_column(j), b.shared_column(j)));
        // …and every untouched column stays pointer-shared.
        for k in 0..a.n_lfs() {
            if k != j {
                prop_assert!(Arc::ptr_eq(a.shared_column(k), b.shared_column(k)));
            }
        }
        prop_assert_eq!(a.shared_columns_with(&b), a.n_lfs() - 1);
    }
}

/// A full interactive `Session` (SEU selection + simulated user +
/// contextualized EM learning) serves every refined column as a shared
/// handle: zero per-column vote memcpys, witnessed by the CoW counters.
#[test]
fn session_grid_serves_are_all_shared() {
    let ds = toy_text(3);
    for seed in [5u64, 17] {
        let config = IdpConfig {
            n_iterations: 10,
            eval_every: 5,
            seed,
            label_model: LabelModelKind::Generative,
            ..Default::default()
        };
        let mut session = Session::new(&ds, config);
        let mut engine = ExampleEngine::new(SeuSelector::new());
        let mut user = SimulatedUser::default();
        let mut pipeline = ContextualizedPipeline::new(ContextualizerConfig::default());
        for _ in 0..10 {
            engine.round(&mut session, &mut user, &mut pipeline).unwrap();
        }
        let stats = pipeline.contextualizer().refine_cache_stats();
        let n_lfs = session.lineage().len();
        let grid = ContextualizerConfig::default().p_grid.len();
        assert_eq!(
            stats.refilters,
            grid * n_lfs,
            "seed {seed}: warm rounds refiltered cached columns"
        );
        assert_eq!(
            stats.shared_serves,
            2 * (stats.hits + stats.refilters),
            "seed {seed}: a served column bypassed the shared-handle path"
        );
        assert!(stats.hits > 0, "seed {seed}: cache never hit");
    }
}
