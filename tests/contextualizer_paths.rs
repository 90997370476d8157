//! End-to-end differential test for the contextualizer's distance engine.
//!
//! A full interactive `Session` (SEU selection + simulated user +
//! contextualized learning) registers its LFs through
//! `Features::distances` (the inverted-index kernel on sparse features).
//! The contextualizer consumes distances only at registration, through
//! each LF's refinement radius and the refined train/valid columns it
//! keeps, so after every run each registered LF's radius and refined
//! columns at every grid point are checked against the naive scan
//! (`Features::distances_naive`), the pre-index reference. The query is bit-identical to the scan by
//! construction, so every assertion here is exact equality — any drift is
//! a kernel bug, not rounding. This holds on the sparse text dataset and on
//! the dense scene dataset, whose kernels both run the scalar dense
//! reductions.

use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::contextualizer::Contextualizer;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::{toy_scene_2d, toy_text};
use nemo::data::Dataset;
use nemo::lf::{LabelMatrix, LfColumn, Lineage};
use nemo::sparse::stats::percentile_of_sorted;

/// One full run: per-round selections, per-round tuned `p`, final scores.
#[derive(PartialEq, Debug)]
struct Trace {
    selections: Vec<Option<usize>>,
    chosen_ps: Vec<Option<f64>>,
    test_score: f64,
    valid_score: f64,
}

/// Every registered LF's radius and refined columns, at every grid
/// point, equal those derived from the naive scan's distances.
fn assert_matches_naive_scan(
    ds: &Dataset,
    lineage: &Lineage,
    raw: &LabelMatrix,
    ctx: &Contextualizer,
) {
    let dist = ctx.config().distance;
    assert_eq!(ctx.n_registered(), lineage.len(), "{}: registered LFs", ds.name);
    for (j, rec) in lineage.tracked().iter().enumerate() {
        let pivot = rec.dev_example as usize;
        let train = ds.train.features.distances_naive(dist, pivot, &ds.train.features);
        let valid = ds.train.features.distances_naive(dist, pivot, &ds.valid.features);
        let mut sorted = train.clone();
        sorted.sort_unstable_by(|a, b| a.partial_cmp(b).expect("distances are finite"));
        let raw_valid = LfColumn::from_lf(&rec.lf, &ds.valid.corpus);
        for &p in &ctx.config().p_grid {
            let r = percentile_of_sorted(&sorted, p);
            assert_eq!(
                ctx.radius(j, p).map(f64::to_bits),
                Some(r.to_bits()),
                "{}: radius j={j} p={p}",
                ds.name
            );
            let (train_refined, valid_refined) = ctx.refined(p).expect("grid point");
            assert_eq!(
                train_refined.column(j).entries(),
                raw.column(j).filtered(|i| train[i as usize] <= r).entries(),
                "{}: refined train column j={j} p={p}",
                ds.name
            );
            assert_eq!(
                valid_refined.column(j).entries(),
                raw_valid.filtered(|i| valid[i as usize] <= r).entries(),
                "{}: refined valid column j={j} p={p}",
                ds.name
            );
        }
    }
}

fn run(ds: &Dataset, seed: u64, lfs_per_iteration: usize) -> Trace {
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
    let mut selections = Vec::new();
    let mut chosen_ps = Vec::new();
    for _ in 0..12 {
        let rec = session.round(&mut selector, &mut user, &mut pipeline).unwrap();
        selections.push(rec.selected);
        chosen_ps.push(session.outputs().chosen_p);
    }
    assert_matches_naive_scan(ds, session.lineage(), session.matrix(), pipeline.contextualizer());
    // The run actually collected LFs and tuned p (a vacuous trace would
    // make the oracle check pass trivially).
    assert!(
        chosen_ps.iter().any(Option::is_some),
        "{}: contextualizer never tuned p (seed {seed})",
        ds.name
    );
    Trace {
        selections,
        chosen_ps,
        test_score: session.test_score(),
        valid_score: session.valid_score(),
    }
}

#[test]
fn full_session_identical_across_engines() {
    let ds = toy_text(1);
    for seed in [1u64, 5, 9] {
        run(&ds, seed, 1);
    }
}

#[test]
fn full_session_identical_across_engines_multi_lf_rounds() {
    // lfs_per_iteration > 1 registers several LFs per round, exercising
    // real multi-pivot batches through `Contextualizer::register_batch`.
    run(&toy_text(1), 3, 3);
}

/// The indexed engine matches the naive scan on the sparse text dataset
/// and on the dense 2-D scene dataset, bit for bit.
#[test]
fn full_session_identical_across_engines_on_text_and_scene() {
    for ds in [toy_text(1), toy_scene_2d(1)] {
        run(&ds, 7, 1);
    }
}
