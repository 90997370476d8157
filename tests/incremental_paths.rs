//! End-to-end differential test for the contextualizer's refined-column
//! cache, in the style of `tests/contextualizer_paths.rs`: a full
//! interactive `Session` (SEU selection + simulated user + contextualized
//! learning with the default MeTaL label model) must make *identical
//! decisions* — same development example selected every round, same tuned
//! refinement percentile, bitwise-equal scores — with the production
//! pipeline and with an oracle pipeline that drops every cached column
//! (`Contextualizer::invalidate_refined_cache_from(0)`) before every
//! learning round, so every grid point's columns are filtered afresh. The
//! pair is bit-identical by construction;
//! `tests/refine_cache_differential.rs` holds the fine-grained
//! properties. Everything here is deterministic: a divergence is a real
//! regression, never flake.

use nemo::core::config::IdpConfig;
use nemo::core::idp::ModelOutputs;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline};
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::toy_text;
use nemo::data::Dataset;
use nemo::lf::{LabelMatrix, Lineage};

/// The contextualized pipeline with its refined-column cache optionally
/// dropped before every learning round.
struct Oracle {
    inner: ContextualizedPipeline,
    refilter: bool,
}

impl Oracle {
    fn new(refilter: bool) -> Self {
        Self { inner: ContextualizedPipeline::default(), refilter }
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
        if self.refilter {
            self.inner.contextualizer_mut().invalidate_refined_cache_from(0);
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
    let config = IdpConfig { n_iterations: 12, eval_every: 4, seed, ..Default::default() };
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

#[test]
fn full_session_identical_refine_cache_vs_refilter() {
    let ds = toy_text(1);
    for seed in [1u64, 7] {
        let reference = run(&ds, &mut Oracle::new(true), seed);
        let cached = run(&ds, &mut Oracle::new(false), seed);
        assert_eq!(cached.selections, reference.selections, "selections diverged (seed {seed})");
        assert_eq!(cached.chosen_ps, reference.chosen_ps, "tuned p diverged (seed {seed})");
        assert!(
            reference.chosen_ps.iter().any(Option::is_some),
            "contextualizer never tuned p (seed {seed})"
        );
        assert_eq!(cached.test_score.to_bits(), reference.test_score.to_bits());
        assert_eq!(cached.valid_score.to_bits(), reference.valid_score.to_bits());
    }
}
