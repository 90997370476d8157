//! End-to-end differential test for the two incremental switches this PR
//! adds, in the style of `tests/contextualizer_paths.rs`: a full
//! interactive `Session` (SEU selection + simulated user + contextualized
//! learning with the EM label model) must make *identical decisions* —
//! same development example selected every round, same tuned refinement
//! percentile — under
//!
//! - [`SeuScoring::DirtySet`] (cached dirty-set scoring) vs
//!   [`SeuScoring::Full`] (per-round full-pool rescore),
//! - [`WarmStart::Warm`] (EM chained across tune_p grid points) vs
//!   [`WarmStart::Cold`] (every fit from scratch), and
//! - [`RefinementCaching::Incremental`] (cross-round refined-column
//!   cache) vs [`RefinementCaching::Rebuild`] (refilter every grid
//!   point's columns each round) — this pair is bit-identical by
//!   construction; `tests/refine_cache_differential.rs` holds the
//!   fine-grained properties.
//!
//! Scores are asserted close rather than bitwise equal: the dirty-set
//! cache drifts by bounded rounding steps and warm EM reconverges within
//! its tolerance. The warm/cold comparison runs on the Amazon quick
//! workload, where the label matrices are well-conditioned enough that
//! EM's fixed point is effectively unique, so cross-round seeding lands
//! exactly where cold restarts land — on degenerate few-vote matrices
//! (toy early rounds) EM is genuinely multimodal and warm seeding
//! instead *tracks the incumbent basin* by design (see
//! `Contextualizer::tune_p`), which is why this comparison does not run
//! on the toy dataset. Everything here is deterministic: a divergence
//! is a real regression, never flake.

use nemo::core::config::{
    ContextualizerConfig, IdpConfig, LabelModelKind, RefinementCaching, SeuScoring, WarmStart,
};
use nemo::core::engines::{ExampleEngine, SelectionEngine};
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::ContextualizedPipeline;
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::{build, toy_text, DatasetName, Profile};
use nemo::data::Dataset;

/// One full run: per-round selections, per-round tuned `p`, final scores.
struct Trace {
    selections: Vec<Option<usize>>,
    chosen_ps: Vec<Option<f64>>,
    test_score: f64,
    valid_score: f64,
}

fn run(
    ds: &Dataset,
    scoring: SeuScoring,
    warm_start: WarmStart,
    refinement: RefinementCaching,
    seed: u64,
) -> Trace {
    let config = IdpConfig {
        n_iterations: 12,
        eval_every: 4,
        seed,
        // The EM label model is the one warm-starting accelerates; the
        // closed-form default (Metal) would make WarmStart a no-op.
        label_model: LabelModelKind::Generative,
        ..Default::default()
    };
    let mut session = Session::new(ds, config);
    let mut engine = ExampleEngine::new(SeuSelector::new().with_scoring(scoring));
    let mut user = SimulatedUser::default();
    let mut pipeline = ContextualizedPipeline::new(ContextualizerConfig {
        warm_start,
        refinement,
        ..Default::default()
    });
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

fn assert_identical_decisions(a: &Trace, b: &Trace, what: &str, seed: u64) {
    assert_eq!(a.selections, b.selections, "selected examples diverged ({what}, seed {seed})");
    assert_eq!(a.chosen_ps, b.chosen_ps, "tuned percentile diverged ({what}, seed {seed})");
    assert!(
        (a.test_score - b.test_score).abs() < 0.02,
        "test score diverged ({what}, seed {seed}): {} vs {}",
        a.test_score,
        b.test_score
    );
    assert!(
        (a.valid_score - b.valid_score).abs() < 0.02,
        "valid score diverged ({what}, seed {seed}): {} vs {}",
        a.valid_score,
        b.valid_score
    );
    assert!(
        a.chosen_ps.iter().any(Option::is_some),
        "contextualizer never tuned p ({what}, seed {seed})"
    );
}

#[test]
fn full_session_identical_dirty_set_vs_full_rescore() {
    let ds = toy_text(1);
    for seed in [1u64, 7] {
        let reference =
            run(&ds, SeuScoring::Full, WarmStart::Cold, RefinementCaching::Rebuild, seed);
        for (scoring, refinement, what) in [
            (SeuScoring::DirtySet, RefinementCaching::Rebuild, "dirty-set vs full"),
            (SeuScoring::Full, RefinementCaching::Incremental, "refine-cache vs rebuild"),
        ] {
            let trace = run(&ds, scoring, WarmStart::Cold, refinement, seed);
            assert_identical_decisions(&trace, &reference, what, seed);
        }
    }
}

#[test]
fn full_session_identical_warm_vs_cold_and_combined() {
    let ds = build(DatasetName::Amazon, Profile::Quick, 3);
    for seed in [7u64, 13] {
        let reference =
            run(&ds, SeuScoring::Full, WarmStart::Cold, RefinementCaching::Rebuild, seed);
        for (scoring, warm_start, refinement, what) in [
            (SeuScoring::Full, WarmStart::Warm, RefinementCaching::Rebuild, "warm vs cold"),
            (
                SeuScoring::DirtySet,
                WarmStart::Warm,
                RefinementCaching::Incremental,
                "all production switches",
            ),
        ] {
            let trace = run(&ds, scoring, warm_start, refinement, seed);
            assert_identical_decisions(&trace, &reference, what, seed);
        }
    }
}

/// The production defaults are exactly the switches this test toggles —
/// make sure the default-constructed components run them.
#[test]
fn production_defaults_are_the_incremental_paths() {
    assert_eq!(SeuSelector::new().scoring, SeuScoring::DirtySet);
    assert_eq!(ContextualizerConfig::default().warm_start, WarmStart::Warm);
    assert_eq!(ContextualizerConfig::default().refinement, RefinementCaching::Incremental);
}
