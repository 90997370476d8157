//! End-to-end differential test for the contextualizer's two cross-round
//! caches, in the style of `tests/contextualizer_paths.rs`: a full
//! interactive `Session` (SEU selection + simulated user + contextualized
//! learning with the EM label model) must make *identical decisions* —
//! same development example selected every round, same tuned refinement
//! percentile — with the production pipeline and with an oracle pipeline
//! that clears the cross-round state before every learning round:
//!
//! - **warm starts** — the oracle clears the EM warm-start seeds
//!   (`Contextualizer::set_warm_seeds` with an empty set), so every fit
//!   starts from the estimator's initializer;
//! - **the refined-column cache** — the oracle drops every cached column
//!   (`Contextualizer::invalidate_refined_cache_from(0)`), so every grid
//!   point's columns are filtered afresh. This pair is bit-identical by
//!   construction; `tests/refine_cache_differential.rs` holds the
//!   fine-grained properties.
//!
//! Scores are asserted close rather than bitwise equal: warm EM
//! reconverges within its tolerance. The warm/cold comparison runs on the
//! Amazon quick workload, where the label matrices are well-conditioned
//! enough that EM's fixed point is effectively unique, so cross-round
//! seeding lands exactly where cold restarts land — on degenerate
//! few-vote matrices (toy early rounds) EM is genuinely multimodal and
//! warm seeding instead *tracks the incumbent basin* by design (see
//! `Contextualizer::tune_p`), which is why this comparison does not run
//! on the toy dataset. Everything here is deterministic: a divergence is
//! a real regression, never flake.

use nemo::core::config::{IdpConfig, LabelModelKind};
use nemo::core::idp::ModelOutputs;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline};
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::{build, toy_text, DatasetName, Profile};
use nemo::data::Dataset;
use nemo::lf::{LabelMatrix, Lineage};

/// The contextualized pipeline with its cross-round state optionally
/// cleared before every learning round.
struct Oracle {
    inner: ContextualizedPipeline,
    cold: bool,
    refilter: bool,
}

impl Oracle {
    fn new(cold: bool, refilter: bool) -> Self {
        Self { inner: ContextualizedPipeline::default(), cold, refilter }
    }
}

impl LearningPipeline for Oracle {
    fn name(&self) -> &'static str {
        "contextualized-oracle"
    }

    fn learn(
        &mut self,
        lineage: &Lineage,
        raw_matrix: &LabelMatrix,
        ds: &Dataset,
        config: &IdpConfig,
        iter_seed: u64,
    ) -> ModelOutputs {
        let ctx = self.inner.contextualizer_mut();
        if self.cold {
            ctx.set_warm_seeds(Vec::new());
        }
        if self.refilter {
            ctx.invalidate_refined_cache_from(0);
        }
        self.inner.learn(lineage, raw_matrix, ds, config, iter_seed)
    }
}

/// One full run: per-round selections, per-round tuned `p`, final scores.
struct Trace {
    selections: Vec<Option<usize>>,
    chosen_ps: Vec<Option<f64>>,
    test_score: f64,
    valid_score: f64,
}

fn run(ds: &Dataset, pipeline: &mut Oracle, seed: u64) -> Trace {
    let config = IdpConfig {
        n_iterations: 12,
        eval_every: 4,
        seed,
        // The EM label model is the one warm-starting accelerates; the
        // closed-form default (Metal) ignores the seeds.
        label_model: LabelModelKind::Generative,
        ..Default::default()
    };
    let mut session = Session::new(ds, config);
    let mut selector = SeuSelector::new();
    let mut user = SimulatedUser::default();
    let mut selections = Vec::new();
    let mut chosen_ps = Vec::new();
    for _ in 0..12 {
        let rec = session.round(&mut selector, &mut user, pipeline).unwrap();
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
fn full_session_identical_refine_cache_vs_refilter() {
    let ds = toy_text(1);
    for seed in [1u64, 7] {
        // Cold on both sides: only the refined-column cache differs.
        let reference = run(&ds, &mut Oracle::new(true, true), seed);
        let cached = run(&ds, &mut Oracle::new(true, false), seed);
        assert_identical_decisions(&cached, &reference, "refine-cache vs refilter", seed);
        assert_eq!(cached.test_score.to_bits(), reference.test_score.to_bits());
    }
}

#[test]
fn full_session_identical_warm_vs_cold_and_combined() {
    let ds = build(DatasetName::Amazon, Profile::Quick, 3);
    for seed in [7u64, 13] {
        let reference = run(&ds, &mut Oracle::new(true, true), seed);
        for (mut pipeline, what) in [
            (Oracle::new(false, true), "warm vs cold"),
            (Oracle::new(false, false), "production pipeline"),
        ] {
            let trace = run(&ds, &mut pipeline, seed);
            assert_identical_decisions(&trace, &reference, what, seed);
        }
    }
}
