//! End-to-end differential test for the contextualizer's kept refined
//! columns, in the style of `tests/contextualizer_paths.rs`: a full
//! interactive `Session` (SEU selection + simulated user + contextualized
//! learning with the default MeTaL label model) must make *identical
//! decisions* — same development example selected every round, same tuned
//! refinement percentile, bitwise-equal outputs — with a pipeline kept
//! across rounds and with a fresh pipeline built before every learning
//! round, which registers and refines the whole lineage again (the
//! restored-round path). Both serve the same `(grid point, LF)` columns
//! each round; the kept one filters only the new LFs'.
//! `tests/refine_cache_differential.rs` holds the fine-grained
//! properties. Everything here is deterministic: a divergence is a real
//! regression, never flake.

use nemo::core::config::{ContextualizerConfig, IdpConfig};
use nemo::core::contextualizer::RefineCacheStats;
use nemo::core::idp::ModelOutputs;
use nemo::core::oracle::SimulatedUser;
use nemo::core::pipeline::{ContextualizedPipeline, LearningPipeline};
use nemo::core::session::Session;
use nemo::core::seu::SeuSelector;
use nemo::data::catalog::toy_text;
use nemo::data::Dataset;
use nemo::lf::{LabelMatrix, Lineage};

/// The contextualized pipeline, kept across rounds or built afresh before
/// every learning round, recording each round's counter deltas.
struct Oracle {
    inner: ContextualizedPipeline,
    fresh: bool,
    deltas: Vec<RefineCacheStats>,
}

impl Oracle {
    fn new(fresh: bool) -> Self {
        Self { inner: ContextualizedPipeline::default(), fresh, deltas: Vec::new() }
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
        if self.fresh {
            self.inner = ContextualizedPipeline::default();
        }
        let before = self.inner.contextualizer().refine_cache_stats();
        let out = self.inner.learn(lineage, raw_matrix, ds, config, iter_seed);
        let after = self.inner.contextualizer().refine_cache_stats();
        self.deltas.push(RefineCacheStats {
            hits: after.hits - before.hits,
            refilters: after.refilters - before.refilters,
        });
        out
    }
}

/// One full run: per-round selections, tuned `p`, LF count and output
/// bits, and the final scores.
struct Trace {
    selections: Vec<Option<usize>>,
    chosen_ps: Vec<Option<f64>>,
    n_lfs: Vec<usize>,
    output_bits: Vec<Vec<u64>>,
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
    let mut n_lfs = Vec::new();
    let mut output_bits = Vec::new();
    for _ in 0..12 {
        let rec = session.round(&mut selector, &mut user, pipeline).unwrap();
        selections.push(rec.selected);
        let out = session.outputs();
        chosen_ps.push(out.chosen_p);
        n_lfs.push(session.lineage().len());
        let posterior = out.train_posterior.p_pos_slice().iter();
        output_bits.push(posterior.chain(&out.train_probs).map(|p| p.to_bits()).collect());
    }
    Trace {
        selections,
        chosen_ps,
        n_lfs,
        output_bits,
        test_score: session.test_score(),
        valid_score: session.valid_score(),
    }
}

#[test]
fn full_session_identical_refine_cache_vs_refilter() {
    let ds = toy_text(1);
    let grid = ContextualizerConfig::default().p_grid.len();
    for seed in [1u64, 7] {
        let mut fresh = Oracle::new(true);
        let mut kept = Oracle::new(false);
        let reference = run(&ds, &mut fresh, seed);
        let cached = run(&ds, &mut kept, seed);
        assert_eq!(cached.selections, reference.selections, "selections diverged (seed {seed})");
        assert_eq!(cached.chosen_ps, reference.chosen_ps, "tuned p diverged (seed {seed})");
        assert_eq!(cached.n_lfs, reference.n_lfs, "LF counts diverged (seed {seed})");
        assert_eq!(cached.output_bits, reference.output_bits, "outputs diverged (seed {seed})");
        assert!(
            reference.chosen_ps.iter().any(Option::is_some),
            "contextualizer never tuned p (seed {seed})"
        );
        assert_eq!(cached.test_score.to_bits(), reference.test_score.to_bits());
        assert_eq!(cached.valid_score.to_bits(), reference.valid_score.to_bits());
        // Counter deltas: both serve `grid · lfs` columns a learning
        // round; the fresh pipeline filters them all, the kept one only
        // the new LFs' and serves the rest as hits.
        assert_eq!(kept.deltas.len(), fresh.deltas.len(), "learning rounds (seed {seed})");
        let mut prev_lfs = 0;
        for (round, (k, f)) in kept.deltas.iter().zip(&fresh.deltas).enumerate() {
            assert_eq!(f.hits, 0, "seed {seed} round {round}: a fresh pipeline kept a column");
            assert_eq!(k.hits + k.refilters, f.refilters, "seed {seed} round {round}: served");
            let lfs = f.refilters / grid;
            assert_eq!(k.refilters, grid * (lfs - prev_lfs), "seed {seed} round {round}");
            prev_lfs = lfs;
        }
        assert!(kept.deltas.iter().any(|d| d.hits > 0), "seed {seed}: no column was kept");
    }
}
