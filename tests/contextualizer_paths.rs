//! End-to-end differential test for the contextualizer's distance engines.
//!
//! A full interactive `Session` (SEU selection + simulated user +
//! contextualized learning) must make *identical* decisions whether the
//! contextualizer registers LFs through the batched inverted-index engine
//! (`DistanceBackend::Indexed`, the production path) or the per-LF naive
//! row-major scan (`DistanceBackend::Naive`, the pre-index reference):
//! same development examples selected every round, same tuned refinement
//! percentile, same final scores. The two engines are bit-identical by
//! construction, so every assertion here is exact equality — any drift is
//! a kernel bug, not rounding. This holds on the sparse text dataset and
//! on the dense scene dataset, whose engines both run the scalar dense
//! reductions, and under any `NEMO_THREADS` setting.

use nemo::core::config::{ContextualizerConfig, DistanceBackend, IdpConfig};
use nemo::core::engines::{ExampleEngine, SelectionEngine};
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::{toy_scene_2d, toy_text};
use nemo::data::Dataset;

/// One full run: per-round selections, per-round tuned `p`, final scores.
#[derive(PartialEq, Debug)]
struct Trace {
    selections: Vec<Option<usize>>,
    chosen_ps: Vec<Option<f64>>,
    test_score: f64,
    valid_score: f64,
}

fn run(ds: &Dataset, backend: DistanceBackend, seed: u64, lfs_per_iteration: usize) -> Trace {
    let config = IdpConfig {
        n_iterations: 12,
        eval_every: 4,
        seed,
        lfs_per_iteration,
        ..Default::default()
    };
    let mut session = Session::new(ds, config);
    let mut engine = ExampleEngine::new(SeuSelector::new());
    let mut user = SimulatedUser::default();
    let mut pipeline =
        ContextualizedPipeline::new(ContextualizerConfig { backend, ..Default::default() });
    let mut selections = Vec::new();
    let mut chosen_ps = Vec::new();
    for _ in 0..12 {
        let rec = engine.round(&mut session, &mut user, &mut pipeline).unwrap();
        selections.push(rec.selected);
        chosen_ps.push(session.outputs().chosen_p);
    }
    Trace {
        selections,
        chosen_ps,
        test_score: session.test_score(),
        valid_score: session.valid_score(),
    }
}

fn assert_identical(seed: u64, lfs_per_iteration: usize) {
    let ds = toy_text(1);
    let indexed = run(&ds, DistanceBackend::Indexed, seed, lfs_per_iteration);
    let naive = run(&ds, DistanceBackend::Naive, seed, lfs_per_iteration);
    assert_eq!(
        indexed.selections, naive.selections,
        "selected examples diverged (seed {seed}, {lfs_per_iteration} LFs/round)"
    );
    assert_eq!(
        indexed.chosen_ps, naive.chosen_ps,
        "tuned percentile diverged (seed {seed}, {lfs_per_iteration} LFs/round)"
    );
    assert_eq!(indexed.test_score, naive.test_score, "test score diverged (seed {seed})");
    assert_eq!(indexed.valid_score, naive.valid_score, "valid score diverged (seed {seed})");
    // The run actually collected LFs and tuned p (a vacuous trace would
    // make this test pass trivially).
    assert!(
        indexed.chosen_ps.iter().any(Option::is_some),
        "contextualizer never tuned p (seed {seed})"
    );
}

#[test]
fn full_session_identical_across_engines() {
    for seed in [1u64, 5, 9] {
        assert_identical(seed, 1);
    }
}

#[test]
fn full_session_identical_across_engines_multi_lf_rounds() {
    // lfs_per_iteration > 1 registers several LFs per round, exercising
    // real multi-pivot batches through `Contextualizer::register_batch`.
    assert_identical(3, 3);
}

/// Both engines drive the same session on the sparse text dataset and on
/// the dense 2-D scene dataset: equal traces, bit for bit.
#[test]
fn full_session_identical_across_engines_on_text_and_scene() {
    for ds in [toy_text(1), toy_scene_2d(1)] {
        let indexed = run(&ds, DistanceBackend::Indexed, 7, 1);
        assert!(
            indexed.chosen_ps.iter().any(Option::is_some),
            "{}: contextualizer never tuned p",
            ds.name
        );
        assert_eq!(
            run(&ds, DistanceBackend::Naive, 7, 1),
            indexed,
            "{}: engines diverged",
            ds.name
        );
    }
}

/// A multi-worker `NEMO_THREADS` setting must not perturb an interactive
/// run. This is the only test in this binary that sets the variable, and
/// it restores the prior setting afterwards.
#[test]
fn full_session_stable_under_thread_counts() {
    let ds = toy_text(2);
    let reference = run(&ds, DistanceBackend::Indexed, 3, 1);
    let saved = std::env::var("NEMO_THREADS").ok();
    std::env::set_var("NEMO_THREADS", "4");
    let multi = run(&ds, DistanceBackend::Indexed, 3, 1);
    match saved {
        Some(v) => std::env::set_var("NEMO_THREADS", v),
        None => std::env::remove_var("NEMO_THREADS"),
    }
    assert_eq!(multi, reference, "NEMO_THREADS=4 session diverged from the ambient run");
}
